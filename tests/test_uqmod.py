import re
from fractions import Fraction

import pytest

import oracles
from braidpow import qarith, uqmod
from braidpow.braided import power_dims
from braidpow.gl3canon import dcb_module
from braidpow.laurent import ONE, P, fp, lqint, lscale, lshift
from braidpow.qarith import field_one, sp_apply
from braidpow.uqmod import (
    IrrepMultiset,
    ModuleAuditError,
    WeightModule,
    coproduct,
    decompose,
    decompose_weight_rows,
    dim_irrep,
    highest_weight_vectors,
    outer,
    simple_gl2,
    specialize_module,
    standard_gld,
    tensor,
)


def test_dim_irrep_oracles():
    assert dim_irrep((7, 2)) == 6
    assert dim_irrep((2, 1, 0)) == 8
    assert dim_irrep((1, 0, 0)) == 3
    assert dim_irrep((3, 0)) == 4
    assert dim_irrep((2, 2, 0, 0)) == 20
    assert dim_irrep((1, 0, 1, 0), blocks=(2, 2)) == 4
    with pytest.raises(ValueError):
        dim_irrep((0, 1))


def test_simple_gl2_structure():
    v = simple_gl2(3, 1)
    assert v.dim == 3
    assert v.weights == ((3, 1), (2, 2), (1, 3))
    # E v_1 = (1) v_0, F v_0 = (2) v_1
    assert v.e_ops[0][1][0] == lqint(1)
    assert v.f_ops[0][0][1] == lqint(2)
    with pytest.raises(ValueError):
        simple_gl2(0, 1)


def test_audit_rejects_wrong_coefficient():
    v = simple_gl2(2, 0)
    bad_e = [{1: {0: lqint(1)}, 2: {1: lqint(1)}}]  # should be (2) on the last step
    with pytest.raises(ModuleAuditError, match=r"\[E_0, F_0\] relation fails"):
        WeightModule(("bad",), v.alphas, v.blocks, v.weights, bad_e, v.f_ops)


def test_audit_rejects_a_doubled_generator_by_its_commutator():
    # scale E_0 by 2: [E_0, F_0] breaks, and the audit checks it before the
    # Serre relations.  No change of E on this module could reach them:
    # on the vector representation every term of a Serre relation moves
    # a weight e_j by 2 alpha_i + alpha_j, which is no weight of the
    # module, so each term is 0 for every weight-homogeneous E
    m = standard_gld(3)
    bad_e = [dict(op) for op in m.e_ops]
    bad_e[0] = {1: {0: {0: 2}}}
    with pytest.raises(ModuleAuditError, match=r"\[E_0, F_0\] relation fails"):
        WeightModule(m.kind, m.alphas, m.blocks, m.weights, bad_e, m.f_ops)


def test_audit_rejects_an_action_off_its_weight():
    # E sends v_2, of weight (0, 2), to v_0, of weight (2, 0), where
    # (1, 1) = (0, 2) + alpha is the only weight it may reach
    v = simple_gl2(2, 0)
    bad_e = [{1: {0: lqint(1)}, 2: {0: lqint(2)}}]
    with pytest.raises(ModuleAuditError, match="generator 0 is not weight-homogeneous"):
        WeightModule(("bad",), v.alphas, v.blocks, v.weights, bad_e, v.f_ops)


def _conjugated(op, powers):
    # the column map op conjugated by the diagonal map that multiplies
    # basis vector i by q**powers[i] (by 1 where i is not a key), a unit
    # of Z[q, 1/q], so every entry keeps int coefficients
    return {
        c: {r: lshift(v, powers.get(r, 0) - powers.get(c, 0)) for r, v in col.items()}
        for c, col in op.items()
    }


def test_audit_rejects_a_broken_off_diagonal_commutator():
    # E_1 and F_1 of V ox V for the gl_3 vector module V, conjugated by
    # the diagonal map that multiplies x_1 ox x_3 by q: [E_1, F_1] is
    # conjugated with them and still holds, E_2 and F_2 are untouched,
    # but E_1 no longer commutes with F_2 (their paths from x_2 ox x_2 to
    # x_1 ox x_3 now differ by the factor q)
    t = tensor(standard_gld(3), standard_gld(3))
    powers = {2: 1}
    e_ops = [_conjugated(t.e_ops[0], powers), t.e_ops[1]]
    f_ops = [_conjugated(t.f_ops[0], powers), t.f_ops[1]]
    with pytest.raises(ModuleAuditError, match=r"\[E_0, F_1\] relation fails"):
        WeightModule(("bad",), t.alphas, t.blocks, t.weights, e_ops, f_ops)


def _unaudited(m, e_ops, f_ops):
    """m with other E and F maps, built without the audit that
    WeightModule runs, so that an audit can be called on it by hand."""
    out = object.__new__(WeightModule)
    out.__dict__.update({k: v for k, v in vars(m).items() if k != "_memo"})
    out.e_ops, out.f_ops = tuple(e_ops), tuple(f_ops)
    return out


def _verdict(audit, m):
    # the audit's message, None when it passes
    try:
        audit(m)
    except ModuleAuditError as err:
        return str(err)
    return None


def _mutants(m):
    """m and changed copies of it: for the first and the last column of
    every E and F map, the entry at its first row with its top q-degree
    coefficient raised by 1 (by 1 over F_P), scaled by 2, and dropped."""
    yield m
    if m.modulus is None:
        changes = (lambda v: {**v, max(v): v[max(v)] + 1}, lambda v: lscale(v, 2), None)
    else:
        changes = (lambda v: (v + 1) % P, lambda v: 2 * v % P, None)
    ops = [*m.e_ops, *m.f_ops]
    for g, op in enumerate(ops):
        for c in sorted(op)[:1] + sorted(op)[-1:]:
            r = next(iter(op[c]))
            for change in changes:
                col = dict(op[c])
                if change is None:
                    del col[r]
                else:
                    col[r] = change(col[r])
                new = [dict(o) for o in ops]
                new[g][c] = col
                yield _unaudited(m, new[: m.ngen], new[m.ngen :])


def _audited_modules():
    exact = [
        *(simple_gl2(l, 0) for l in range(5)),
        simple_gl2(3, 1),
        *(standard_gld(d) for d in (1, 2, 3)),
        outer(standard_gld(2), standard_gld(2)),
        tensor(simple_gl2(2, 0), simple_gl2(1, 0)),
        tensor(standard_gld(3), standard_gld(3)),
        *(dcb_module((a, b, 0)) for a in range(4) for b in range(a + 1)),
    ]
    return exact + [specialize_module(m, Fraction(3, 5)) for m in exact]


def test_the_audit_agrees_with_the_reference_audit():
    # in both fields, on each module and on changed copies of it: the
    # int-map audit passes exactly when the reference audit on the
    # Laurent (or F_P) maps does, and fails with the same message; here
    # every module passes and every changed copy fails
    modules, passed = _audited_modules(), 0
    for m in modules:
        for mm in _mutants(m):
            got = _verdict(uqmod.audit_module, mm)
            assert got == _verdict(oracles.audit_module, mm), mm.kind
            passed += got is None
    assert passed == len(modules)


def _chain(q0=None):
    """Data on weights (-1,), (0,), (1,) whose roots pair to 1 with
    themselves: E_0 raises, F_0 lowers, each by 1, so [E_0, F_0] is the
    q-integer of the weight, and E_1 = F_0, F_1 = E_0 on the root
    alpha_1 = -alpha_0.  Every [E_i, F_j] relation holds, but the Serre
    relation of E_0 and E_1 does not: on the lowest vector its two sides
    are 1 and [2] times the middle one."""
    one = field_one(None if q0 is None else P)
    up = {0: {1: one}, 1: {2: one}}
    down = {1: {0: one}, 2: {1: one}}
    return WeightModule(
        ("chain",), [(1,), (-1,)], (1,), [(-1,), (0,), (1,)], [up, down], [down, up], q0=q0
    )


def _orthogonal(q0=None):
    """Data with two zero roots on three vectors of one weight: the F
    maps are 0 and every weight pairs to 0, so every [E_i, F_j] relation
    holds, but E_0 E_1 sends v_0 to v_2 and E_1 E_0 sends it to 0."""
    one = field_one(None if q0 is None else P)
    e_ops = [{1: {2: one}}, {0: {1: one}}]
    return WeightModule(
        ("orthogonal",), [(0,), (0,)], (1,), [(0,)] * 3, e_ops, [{}, {}], q0=q0
    )


@pytest.mark.parametrize("q0", [None, Fraction(3, 5)])
@pytest.mark.parametrize(
    "make, message",
    [
        (_chain, "('chain',): Serre relation fails for 0,1"),
        (_orthogonal, "('orthogonal',): orthogonal generators 0,1 do not commute"),
    ],
)
def test_audit_rejects_broken_commuting_and_serre_relations(make, message, q0, monkeypatch):
    with pytest.raises(ModuleAuditError, match=f"^{re.escape(message)}$"):
        make(q0)
    # the reference audit rejects the same data with the same message
    monkeypatch.setattr(uqmod, "audit_module", lambda m: None)
    assert _verdict(oracles.audit_module, make(q0)) == message


def test_audit_rejects_a_change_of_the_top_coefficient_alone():
    # F of V_4 from v_1 is [3] = q^2 + 1 + q^-2; 2 q^2 + 1 + q^-2 breaks
    # [E, F] on v_1 and v_2, over Q(q) and at a sample point
    v = simple_gl2(4, 0)
    f_op = {c: dict(col) for c, col in v.f_ops[0].items()}
    f_op[1] = {2: {2: 2, 0: 1, -2: 1}}
    with pytest.raises(ModuleAuditError, match=r"\[E_0, F_0\] relation fails"):
        WeightModule(("bad",), v.alphas, v.blocks, v.weights, v.e_ops, [f_op])
    s = specialize_module(v, Fraction(3, 5))
    f_op = {c: dict(col) for c, col in s.f_ops[0].items()}
    f_op[1] = {2: fp(Fraction(3, 5)) ** 2 % P + s.f_ops[0][1][2]}
    with pytest.raises(ModuleAuditError, match=r"\[E_0, F_0\] relation fails"):
        WeightModule(("bad",), s.alphas, s.blocks, s.weights, s.e_ops, [f_op], q0=s.q0)


def test_audit_passes_a_q_power_conjugation():
    # conjugating every map of V ox V, V the gl_3 vector module, by a
    # diagonal map with factors q, q^-1 and q^2 keeps every relation;
    # adding 1 to one coefficient of F_1 breaks [E_0, F_1], the first
    # relation it enters, for both audits
    t = tensor(standard_gld(3), standard_gld(3))
    powers = {2: 1, 4: -1, 7: 2}
    e_ops = [_conjugated(op, powers) for op in t.e_ops]
    f_ops = [_conjugated(op, powers) for op in t.f_ops]
    assert e_ops != list(t.e_ops)
    WeightModule(("conjugated",), t.alphas, t.blocks, t.weights, e_ops, f_ops)
    c, col = next(iter(f_ops[1].items()))
    r, v = next(iter(col.items()))
    f_ops[1] = {**f_ops[1], c: {**col, r: {**v, 0: v.get(0, 0) + 1}}}
    with pytest.raises(ModuleAuditError, match=r"\[E_0, F_1\] relation fails"):
        WeightModule(("bad",), t.alphas, t.blocks, t.weights, e_ops, f_ops)
    bad = _unaudited(t, e_ops, f_ops)
    assert _verdict(oracles.audit_module, bad) == _verdict(uqmod.audit_module, bad)


@pytest.mark.parametrize("q0", [None, Fraction(3, 5)])
def test_audit_refuses_a_fraction_coefficient_before_any_relation(q0, monkeypatch):
    # one Fraction coefficient, here one that also breaks [E_0, F_0], is
    # a ValueError naming the module and the generator, raised before
    # any relation is checked: no int map is built
    v = simple_gl2(2, 0) if q0 is None else specialize_module(simple_gl2(2, 0), q0)
    f_op = {c: dict(col) for c, col in v.f_ops[0].items()}
    f_op[1] = {2: {0: Fraction(1, 3)} if q0 is None else Fraction(1, 3)}
    monkeypatch.setattr(uqmod, "MapImages", None)
    with pytest.raises(ValueError, match=r"^\('bad',\): F_0 has a non-int coefficient$"):
        WeightModule(("bad",), v.alphas, v.blocks, v.weights, v.e_ops, [f_op], q0=q0)


def test_audit_refuses_a_rational_conjugate_the_engine_cannot_compute():
    # V_(3,0) conjugated by diag(1, 1/2, 3, 1) keeps every relation over
    # Q(q), but its Fraction coefficients have no image in the int
    # engine (the F_P screen and the packed rows take ints only), so the
    # audit refuses it where it is built.  Its conjugate by q-powers
    # keeps int coefficients, and is computed on like V_(3,0)
    v = simple_gl2(3, 0)
    scale = [Fraction(k) for k in (1, "1/2", 3, 1)]

    def rational(op):
        return {
            c: {r: lscale(x, scale[r] / scale[c]) for r, x in col.items()}
            for c, col in op.items()
        }

    with pytest.raises(ValueError, match=r"^\('probe',\): E_0 has a non-int coefficient$"):
        WeightModule(
            ("probe",), v.alphas, v.blocks, v.weights, [rational(v.e_ops[0])],
            [rational(v.f_ops[0])],
        )
    powers = {1: -1, 2: 3}
    m = WeightModule(
        ("probe",), v.alphas, v.blocks, v.weights, [_conjugated(v.e_ops[0], powers)],
        [_conjugated(v.f_ops[0], powers)],
    )
    assert decompose(m) == decompose(v)
    assert power_dims(m, "sym", 2) == power_dims(v, "sym", 2)


def test_a_width_below_the_bound_accepts_a_broken_module(monkeypatch):
    # E of V_1 with q - 1 in place of 1 breaks [E, F] = [(alpha | w)]:
    # E F - F E is q - 1 on v_0.  At q = 2 (width 1) q - 1 reads 1, so
    # only a width that exceeds the bound tells the two apart
    v = simple_gl2(1, 0)
    bad_e = [{1: {0: {1: 1, 0: -1}}}]
    with pytest.raises(ModuleAuditError, match=r"\[E_0, F_0\] relation fails"):
        WeightModule(("bad",), v.alphas, v.blocks, v.weights, bad_e, v.f_ops)
    monkeypatch.setattr(qarith, "_image_width", lambda norm, weight, depth: 1)
    WeightModule(("bad",), v.alphas, v.blocks, v.weights, bad_e, v.f_ops)


def test_decompose_weight_rows_refuses_counts_the_dims_contradict():
    # the (1, 1) block of V_(2,0) alone: its dim gives V_(1,1) once, but
    # E does not kill its vector, so the count finds no highest weight
    v = simple_gl2(2, 0)
    with pytest.raises(
        ModuleAuditError,
        match=r"at \(1, 1\) the weight dims give multiplicity 1, the highest-weight count 0",
    ):
        decompose_weight_rows({(1, 1): [{1: dict(ONE)}]}, v.blocks, [coproduct((v,), 0)])


def test_tensor_coproduct_example():
    v1 = simple_gl2(1, 0)
    t = tensor(v1, v1)
    # E(v_0 ox v_1) = q v_0 ox v_0
    col = t.e_ops[0][1]
    assert col == {0: {1: Fraction(1)}}
    # F(v_0 ox v_0) = q^-1 v_1 ox v_0 + v_0 ox v_1
    col = t.f_ops[0][0]
    assert col == {2: {-1: Fraction(1)}, 1: {0: Fraction(1)}}


def test_coproduct_matches_tensor_construction():
    # over Q(q) and over F_P, where each coefficient is an int mod P
    for V in (simple_gl2(2, 0), specialize_module(simple_gl2(2, 0), Fraction(3, 5))):
        t3 = tensor(tensor(V, V), V)
        for lower, ops in ((False, t3.e_ops), (True, t3.f_ops)):
            act = coproduct((V,) * 3, 0, lower)
            for idx in range(t3.dim):
                vec = {idx: field_one(V.modulus)}
                assert act(vec) == sp_apply(ops[0], vec, V.modulus)
    W = standard_gld(3)
    t2 = tensor(W, W)
    for i in range(W.ngen):
        act = coproduct((W, W), i)
        for idx in range(t2.dim):
            vec = {idx: dict(ONE)}
            assert act(vec) == sp_apply(t2.e_ops[i], vec)


def test_coproduct_on_distinct_factors_matches_tensor_construction():
    # coproduct on three distinct factors V_2 ox V_1 ox V_3 (last factor
    # fastest), without the triple tensor module, against the E and F of
    # that module; the triple product itself builds no three-factor
    # action, it meets two-factor sides by braided._meet_step
    v1, v2, v3 = (simple_gl2(l, 0) for l in (2, 1, 3))
    t3 = tensor(tensor(v1, v2), v3)
    vec = {idx: {idx % 3 - 1: idx + 1} for idx in range(0, t3.dim, 5)}
    for lower, ops in ((False, t3.e_ops), (True, t3.f_ops)):
        act = coproduct((v1, v2, v3), 0, lower)
        for idx in range(t3.dim):
            unit = {idx: dict(ONE)}
            assert act(unit) == sp_apply(ops[0], unit)
        assert act(vec) == sp_apply(ops[0], vec)


def test_coproduct_of_no_factors_is_zero():
    for lower in (False, True):
        assert coproduct((), 0, lower)({0: dict(ONE)}) == {}


@pytest.mark.parametrize("make", [lambda: simple_gl2(2, 0), lambda: standard_gld(3)])
def test_tensor_is_coassociative(make):
    V = make()
    left, right = tensor(tensor(V, V), V), tensor(V, tensor(V, V))
    assert left.weights == right.weights
    assert left.e_ops == right.e_ops
    assert left.f_ops == right.f_ops


def test_decompose_simple_and_tensor():
    assert decompose(simple_gl2(4, 1)) == {(4, 1): 1}
    v1 = simple_gl2(1, 0)
    t2 = tensor(v1, v1)
    assert decompose(t2) == {(2, 0): 1, (1, 1): 1}
    t3 = tensor(t2, v1)
    assert decompose(t3) == {(3, 0): 1, (2, 1): 2}
    assert decompose(t3).total_dim() == 8


def test_decompose_matches_clebsch_gordan():
    for la, lb in [(2, 1), (3, 2), (4, 4)]:
        got = decompose(tensor(simple_gl2(la, 0), simple_gl2(lb, 0)))
        want = {}
        for m in range(min(la, lb) + 1):
            want[(la + lb - m, m)] = 1
        assert got == want


def test_highest_weight_vectors_dims():
    v1 = simple_gl2(1, 0)
    t = tensor(v1, v1)
    assert len(highest_weight_vectors(t, (2, 0))) == 1
    assert len(highest_weight_vectors(t, (1, 1))) == 1
    assert highest_weight_vectors(t, (0, 2)) == []
    hw = highest_weight_vectors(t, (1, 1))[0]
    # the singlet in V_1 ox V_1: v_0 ox v_1 - q v_1 ox v_0
    assert hw == {1: {0: 1}, 2: {1: -1}}


def test_standard_gld_and_outer():
    w = standard_gld(3)
    assert decompose(w) == {(1, 0, 0): 1}
    one = standard_gld(1)
    assert (one.dim, one.ngen) == (1, 0)
    assert decompose(one) == {(1,): 1}
    m = outer(standard_gld(2), standard_gld(3))
    assert m.dim == 6
    assert m.blocks == (2, 3)
    assert m.ngen == 1 + 2
    assert decompose(m) == {(1, 0, 1, 0, 0): 1}
    assert decompose(m).total_dim() == 6


def test_specialize_module_keeps_structure():
    t = tensor(simple_gl2(2, 0), simple_gl2(2, 0))
    s = specialize_module(t, Fraction(97, 101))
    assert s.dim == t.dim and s.weights == t.weights
    for mu in t.weight_blocks():
        assert len(highest_weight_vectors(s, mu)) == len(highest_weight_vectors(t, mu))


def test_irrep_multiset_total_dim():
    ms = IrrepMultiset({(3, 0): 1, (2, 1): 2}, blocks=(2,))
    assert ms.total_dim() == 4 + 2 * 2
