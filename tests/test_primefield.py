"""Specialize mode over the prime field F_P, P = 2**61 - 1: the scalar
map of laurent, rows over F_P in the int kernel and Subspace, the
specialized module and its full-support guard, agreement of specialized
cubes with exact ones, and the Laurent engine that specialize mode never
enters."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import braided_power, contains

from braidpow import braided, cli, qarith
from braidpow import laurent as L
from braidpow.braided import (
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
    # q**k evaluates to x**k, the K-twist of the specialized coproduct
    assert ev(L.lshift(a, k)) == ev(a) * pow(x, k, P) % P


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
    assert contains(Subspace.from_sparse(4, [{3: 5}], P), {0: 2 * P, 3: -2})
    assert not contains(span, {0: 2 * P + 1})


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
        assert contains(span_a, row) and contains(span_b, row)
    # the basis is canonical
    assert Subspace.from_sparse(n, list(span_meet.rows), P) == span_meet


# ---------------------------------------------------------------------------
# specialized modules


def test_specialized_coefficients_are_reduced_residues():
    m = specialize_module(simple_gl2(4, 0), Fraction(101, 97))
    x = L.fp(Fraction(101, 97))
    assert (m.x, m.modulus) == (x, P)
    assert m.e_ops[0][3] == {2: L.leval_fp(L.lqint(3), x)}
    # so do the tensor and outer products built on specialized modules
    w = specialize_module(standard_gld(2), Fraction(101, 97))
    for module in (m, tensor(m, m), outer(w, w)):
        for op in module.e_ops + module.f_ops:
            for col in op.values():
                for c in col.values():
                    assert type(c) is int and 0 < c < P


def test_audit_compares_maps_mod_p():
    m = specialize_module(simple_gl2(2, 0), Fraction(97, 101))

    def rebuilt(change):
        e_op = {
            c: {r: change(v) for r, v in col.items()} for c, col in m.e_ops[0].items()
        }
        return WeightModule(
            m.kind, m.alphas, m.blocks, m.weights, [e_op], m.f_ops, q0=m.q0
        )

    # E with every coefficient lifted by P is the same map over F_P
    rebuilt(lambda c: c + P)
    with pytest.raises(ModuleAuditError):
        rebuilt(lambda c: 2 * c)


def _evaluated(op, x):
    # an exact column map at q = x in F_P, zero entries and columns dropped
    out = {}
    for c, col in op.items():
        col = {r: v for r, p in col.items() if (v := L.leval_fp(p, x))}
        if col:
            out[c] = col
    return out


laurent_entries = st.dictionaries(
    st.integers(-3, 3), st.integers(-5, 5).filter(bool), min_size=1, max_size=3
)
vectors = st.dictionaries(st.integers(0, 3), laurent_entries, max_size=4)
column_maps = st.dictionaries(
    st.integers(0, 3), vectors.filter(bool), max_size=4
)


@FIXED
@given(column_maps, column_maps, vectors, laurent_entries, sample_q0s)
def test_fp_map_operations_are_the_evaluated_exact_ones(a, b, vec, c, q0):
    # evaluation at q = x is a ring map, so each map operation over F_P
    # on evaluated inputs gives the evaluated Q(q) result
    x = L.fp(q0)
    ev = lambda op: _evaluated(op, x)
    ev_vec = lambda v: ev({0: v}).get(0, {})
    assert qarith.sp_apply(ev(a), ev_vec(vec), P) == ev_vec(qarith.sp_apply(a, vec))
    assert oracles.sp_compose(ev(a), ev(b), P) == ev(oracles.sp_compose(a, b))
    assert oracles.sp_map_add(ev(a), ev(b), P) == ev(oracles.sp_map_add(a, b))
    got = oracles.sp_map_scale(ev(a), L.leval_fp(c, x), P)
    assert got == ev(oracles.sp_map_scale(a, c))


modules = st.sampled_from(
    [
        lambda: simple_gl2(2, 0),
        lambda: simple_gl2(3, 1),
        lambda: standard_gld(3),
        lambda: outer(standard_gld(2), standard_gld(2)),
    ]
)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(modules, st.integers(0, 3), sample_q0s)
def test_specialized_tensor_is_the_evaluated_exact_tensor(make, l, q0):
    a = make()
    # a second factor over the same algebra: a itself, or a gl_2 simple
    b = simple_gl2(l, 0) if a.blocks == (2,) else a
    got = tensor(specialize_module(a, q0), specialize_module(b, q0))
    exact, x = tensor(a, b), L.fp(q0)
    for got_ops, exact_ops in ((got.e_ops, exact.e_ops), (got.f_ops, exact.f_ops)):
        assert list(got_ops) == [_evaluated(op, x) for op in exact_ops]


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
    [lambda d=d: standard_gld(d) for d in range(1, 5)]
    + [lambda k=k: outer(standard_gld(2), standard_gld(k)) for k in (2, 3)],
    ids=["standard1", "standard2", "standard3", "standard4", "matrix22", "matrix23"],
)
def test_a_specialized_power_equals_the_exact_one(module):
    # weight dims decompose the powers of every module family, over
    # gl_d and over gl_d x gl_k, as the highest-weight count does
    V = module()
    W = specialize_module(V, Fraction(97, 101))
    for kind in ("sym", "ext"):
        for n in range(4):
            assert dict(decompose_power(W, kind, n)) == dict(decompose_power(V, kind, n))


# every packed elimination, whatever its entry point, runs in _packed,
# and every rank screen of Laurent rows in _screen, so a spy on the two
# sees any way into the Laurent engine
LAURENT_ENGINE = ("_packed", "_screen")


def test_specialize_mode_never_enters_the_laurent_engine(monkeypatch, capsys):
    """Specialized squares, powers and triple products eliminate with the
    int kernel only: no Laurent row is packed or screened."""
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    for name in LAURENT_ENGINE:
        monkeypatch.setattr(qarith, name, spy(name, getattr(qarith, name)))

    module_square(specialize_module(simple_gl2(6, 0), Fraction(101, 97)))
    argv = ["sym-power", "--l", "4", "--n", "3", "--mode", "specialize", "--seed", "3"]
    assert cli.run(argv) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"]
    triple_product((3, 2, 3), "+", mode="specialize", seed=12)
    assert calls == []
    # the spies do see the exact engine
    module_square(simple_gl2(2, 0))
    assert set(calls) == set(LAURENT_ENGINE)
