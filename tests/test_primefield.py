"""Specialize mode over the prime field F_P, P = 2**61 - 1: the scalar
map of laurent, rows over F_P in the int kernel and Subspace, the
specialized module and its full-support guard, agreement of specialized
cubes with exact ones, and the Laurent engine that specialize mode never
enters."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidpow import braided, cli, qarith
from braidpow import laurent as L
from braidpow.braided import (
    braided_power,
    decompose_power,
    hilbert_table,
    module_square,
    run_mode,
    sample_points,
    triple_product,
)
from braidpow.laurent import P
from braidpow.qarith import Subspace, fp_kernel, fp_rref
from braidpow.uqmod import (
    ModuleAuditError,
    WeightModule,
    decompose,
    outer,
    simple_gl2,
    specialize_module,
    standard_gld,
    tensor,
)

FIXED = settings(derandomize=True, database=None, max_examples=60, deadline=None)

# a primitive cube root of unity in F_P: [3]_r = r**2 + 1 + r**-2 vanishes
ROOT3 = pow(5, (P - 1) // 6, P)

# first sample points of the specialize mode
sample_q0s = st.integers(0, 200).map(lambda seed: sample_points(seed)[0])


def dot_mod(row, vec):
    return sum(v * vec.get(c, 0) for c, v in row.items()) % P


def is_residue_row(row):
    # every entry an int 0 < c < P
    return all(0 < v < P for v in row.values())


# ---------------------------------------------------------------------------
# scalars


def test_fp_inverts_the_denominator():
    assert L.fp(Fraction(97, 101)) * 101 % P == 97
    assert L.fp(-3) == P - 3
    with pytest.raises(ZeroDivisionError):
        L.fp(Fraction(1, P))


@FIXED
@given(
    st.dictionaries(st.integers(-4, 4), st.integers(-9, 9).filter(bool), max_size=4),
    st.dictionaries(st.integers(-4, 4), st.integers(-9, 9).filter(bool), max_size=4),
    sample_q0s,
    st.integers(-5, 5),
)
def test_evaluation_in_fp_is_a_ring_map(a, b, q0, k):
    x = L.fp(q0)
    ev = lambda p: L.leval_fp(p, x)
    assert ev(L.lmul(a, b)) == ev(a) * ev(b) % P
    assert ev(L.ladd(a, b)) == (ev(a) + ev(b)) % P
    # it is the reduction of the value over Q
    assert ev(a) == L.fp(L.leval(a, q0))
    # the F_P branch of lqshift multiplies a constant by x**k
    c = {0: ev(a)} if ev(a) else {}
    assert L.lqshift(c, k, x) == ({0: ev(L.lshift(a, k))} if c else {})


# ---------------------------------------------------------------------------
# rows over F_P: the int kernel and Subspace

small = st.integers(-3, 3)


@st.composite
def lifted_rows(draw, n, max_rows=4):
    """Rows {col: int} over F_P of n columns with small residues, some
    entries stored as unreduced ints (P divides some of them)."""
    out = []
    for _ in range(draw(st.integers(0, max_rows))):
        row = {}
        for j in range(n):
            # the residue v stored as v + lift*P: a nonzero int that is
            # zero in F_P when v == 0 and lift > 0
            v, lift = draw(small), draw(st.integers(0, 2))
            if v or lift:
                row[j] = v + lift * P
        out.append(row)
    return out


def test_an_entry_divisible_by_p_is_never_a_pivot():
    span = Subspace.from_sparse(3, [{0: P, 1: 2}, {0: 3 * P}], P)
    assert span.rows == ({1: 1},)
    assert Subspace.from_sparse(3, [{0: P, 2: -2 * P}], P).dim == 0
    assert Subspace.from_sparse(4, [{3: 5}], P).contains({0: 2 * P, 3: -2})
    assert not span.contains({0: 2 * P + 1})


@FIXED
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(n), lifted_rows(n), lifted_rows(n))
    )
)
def test_kernel_annihilator_and_meet_over_fp(case):
    n, a, b = case
    rank = lambda rows: len(fp_rref(rows, P))

    ker = fp_kernel(a, n, P)
    assert len(ker) == n - rank(a)
    assert all(is_residue_row(z) and dot_mod(row, z) == 0 for z in ker for row in a)

    # the annihilator of span(b) under the standard pairing
    ann = fp_kernel(b, n, P)
    assert len(ann) + rank(b) == n
    assert all(dot_mod(row, z) == 0 for z in ann for row in b)

    # span(a) meet span(b): the combinations of a's rows that pair to
    # zero with ann, as the tower solves it
    pairing = [{j: dot_mod(row, z) for j, row in enumerate(a)} for z in ann]
    meet = []
    for x in fp_kernel(pairing, len(a), P):
        vec = {}
        for j, t in x.items():
            for c, v in a[j].items():
                vec[c] = (vec.get(c, 0) + t * v) % P
        meet.append(vec)
    span_a = Subspace.from_sparse(n, a, P)
    span_b = Subspace.from_sparse(n, b, P)
    span_meet = Subspace.from_sparse(n, meet, P)
    assert span_meet.dim == rank(a) + rank(b) - rank(a + b)
    for row in span_meet.rows:
        assert is_residue_row(row) and row[min(row)] == 1
        assert span_a.contains(row) and span_b.contains(row)
    # the basis is canonical
    assert Subspace.from_sparse(n, list(span_meet.rows), P) == span_meet


# ---------------------------------------------------------------------------
# specialized modules


def test_specialized_coefficients_are_reduced_residues():
    m = specialize_module(simple_gl2(4, 0), Fraction(101, 97))
    x = L.fp(Fraction(101, 97))
    assert (m.x, m.modulus) == (x, P)
    for op in m.e_ops + m.f_ops:
        for col in op.values():
            for p in col.values():
                assert set(p) == {0} and 0 < p[0] < P
    assert m.e_ops[0][3] == {2: {0: L.leval_fp(L.lqint(3), x)}}


def test_audit_compares_maps_mod_p():
    m = specialize_module(simple_gl2(2, 0), Fraction(97, 101))

    def rebuilt(change):
        e_op = {
            c: {r: {0: change(p[0])} for r, p in col.items()}
            for c, col in m.e_ops[0].items()
        }
        return WeightModule(
            m.kind, m.alphas, m.blocks, m.weights, [e_op], m.f_ops, q0=m.q0
        )

    # E with every coefficient lifted by P is the same map over F_P
    rebuilt(lambda c: c + P)
    with pytest.raises(ModuleAuditError):
        rebuilt(lambda c: 2 * c)


def test_guard_refuses_a_sample_outside_the_support():
    assert L.leval_fp(L.lqint(3), ROOT3) == 0
    with pytest.raises(ArithmeticError, match="vanishes"):
        specialize_module(simple_gl2(3, 0), Fraction(ROOT3))
    # V_(2,0) only needs [1] and [2], which do not vanish there
    specialize_module(simple_gl2(2, 0), Fraction(ROOT3))


def test_guard_fails_the_two_sample_run_and_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(
        braided, "sample_points", lambda seed: [Fraction(97, 101), Fraction(ROOT3)]
    )
    with pytest.raises(ArithmeticError):
        hilbert_table(3, 3, mode="specialize", seed=1)
    argv = ["sym-power", "--l", "3", "--n", "3", "--mode", "specialize", "--seed", "1"]
    code = cli.run(argv)
    env = json.loads(capsys.readouterr().out)
    assert code == 2
    assert env["verdicts"] == {"run": "fail"}
    assert env["payload"]["error"] == "ArithmeticError"


def _cube(V, side):
    return braided_power(V, side, 3).dim, dict(decompose_power(V, side, 3))


@pytest.mark.parametrize("side", ["sym", "ext"])
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_specialized_cubes_equal_exact_ones(l, side):
    exact = _cube(simple_gl2(l, 0), side)
    for seed in range(1, 6):
        got, samples = run_mode(
            "specialize",
            seed,
            lambda q0: _cube(specialize_module(simple_gl2(l, 0), q0), side),
        )
        assert got == exact
        assert samples == [str(q0) for q0 in sample_points(seed)]


def test_exact_only_decompositions_refuse_a_specialized_module():
    """Highest-weight counts run over Q(q) only; given a specialized
    module they would rank unreduced residues over Q.  decompose_power
    reads a specialized module's weight dims instead, and agrees with
    the exact count."""
    V = simple_gl2(2, 0)
    W = specialize_module(V, Fraction(97, 101))
    with pytest.raises(ValueError, match="Q\\(q\\) only"):
        decompose(tensor(W, W))
    for kind in ("sym", "ext"):
        assert dict(decompose_power(W, kind, 2)) == dict(decompose_power(V, kind, 2))


@pytest.mark.parametrize(
    "module",
    [lambda: standard_gld(3), lambda: outer(standard_gld(2), standard_gld(2))],
    ids=["standard3", "matrix22"],
)
def test_a_specialized_power_of_a_non_gl2_module_is_refused_up_front(module, monkeypatch):
    # weight dims decompose gl_2 modules only; the refusal comes before
    # any power level is built
    def refuse(*args):
        raise AssertionError("no power level is built")

    monkeypatch.setattr(braided, "power_weight_rows", refuse)
    W = specialize_module(module(), Fraction(97, 101))
    with pytest.raises(ValueError, match="gl_2 modules only"):
        decompose_power(W, "sym", 2)


LAURENT_ENGINE = ("srow_strip", "sp_echelon", "sp_kernel", "sp_pivot_insert")


def test_specialize_mode_never_enters_the_laurent_engine(monkeypatch, capsys):
    """Specialized squares, powers and triple products eliminate with the
    int kernel only: no Laurent row is stripped or eliminated."""
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    originals = {name: getattr(qarith, name) for name in LAURENT_ENGINE}
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] != "braidpow":
            continue
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, spy(name, fn))

    module_square(specialize_module(simple_gl2(6, 0), Fraction(101, 97)))
    argv = ["sym-power", "--l", "4", "--n", "3", "--mode", "specialize", "--seed", "3"]
    assert cli.run(argv) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"]
    triple_product((3, 2, 3), "+", mode="specialize", seed=12)
    assert calls == []
