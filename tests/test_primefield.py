"""Specialize mode over the prime field F_P, P = 2**61 - 1: the scalar
map of laurent, the F_P row domain of the sparse engine, the
specialized module and its full-support guard, and agreement of
specialized cubes with exact ones."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidpow import braided, cli, qarith
from braidpow import laurent as L
from braidpow.braided import (
    at_two_samples,
    braided_power,
    decompose_power_subspace,
    hilbert_table,
    module_square,
    sample_points,
)
from braidpow.laurent import P
from braidpow.qarith import (
    Subspace,
    sp_annihilator,
    sp_echelon,
    sp_intersect,
    sp_kernel,
    sp_rank,
)
from braidpow.uqmod import (
    ModuleAuditError,
    WeightModule,
    simple_gl2,
    specialize_module,
)

FIXED = settings(derandomize=True, database=None, max_examples=60, deadline=None)

# a primitive cube root of unity in F_P: [3]_r = r**2 + 1 + r**-2 vanishes
ROOT3 = pow(5, (P - 1) // 6, P)

# first sample points of the specialize mode
sample_q0s = st.integers(0, 200).map(lambda seed: sample_points(seed)[0])


def dot_mod(row, vec):
    acc = sum(p[0] * vec[c][0] for c, p in row.items() if c in vec)
    return acc % P


def is_fp_row(row):
    # every entry a constant 0 < c < P, the first one 1
    return row[min(row)] == {0: 1} and all(
        set(p) == {0} and 0 < p[0] < P for p in row.values()
    )


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
# the F_P row domain of the engine

small = st.integers(-3, 3)


@st.composite
def lifted_rows(draw, n, max_rows=4):
    """Rows over F_P of n columns with small residues, some entries
    stored as unreduced ints (P divides some of them)."""
    out = []
    for _ in range(draw(st.integers(0, max_rows))):
        row = {}
        for j in range(n):
            # the residue v stored as v + lift*P: a nonzero int that is
            # zero in F_P when v == 0 and lift > 0
            v, lift = draw(small), draw(st.integers(0, 2))
            if v or lift:
                row[j] = {0: v + lift * P}
        out.append(row)
    return out


def test_an_entry_divisible_by_p_is_never_a_pivot():
    piv = sp_echelon([{0: {0: P}, 1: {0: 2}}, {0: {0: 3 * P}}], modulus=P)
    assert piv == {1: {1: {0: 1}}}
    assert sp_rank([{0: {0: P}, 2: {0: -2 * P}}], P) == 0
    assert qarith.srow_strip({0: {0: 2 * P}, 3: {0: -2}}, P) == {3: {0: 1}}


@FIXED
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(n), lifted_rows(n), lifted_rows(n))
    )
)
def test_kernel_annihilator_and_meet_over_fp(case):
    n, a, b = case
    cols = range(n)
    rank = lambda rows: sp_rank(rows, P)

    ker = sp_kernel(a, n, P)
    assert len(ker) == n - rank(a)
    assert all(is_fp_row(z) and dot_mod(row, z) == 0 for z in ker for row in a)

    ann = sp_annihilator(b, cols, P)
    assert len(ann) + rank(b) == n
    assert all(is_fp_row(z) and dot_mod(row, z) == 0 for z in ann for row in b)

    meet = sp_intersect(a, ann, P)
    assert len(meet) == rank(a) + rank(b) - rank(a + b)
    span_a = Subspace.from_sparse(n, a, P)
    span_b = Subspace.from_sparse(n, b, P)
    for row in meet:
        assert is_fp_row(row)
        assert span_a.contains(row) and span_b.contains(row)
    # the result is already the canonical basis of its span
    assert Subspace.from_sparse(n, meet, P).rows == tuple(meet)


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
    pair = module_square(V)
    sub = braided_power(getattr(pair, side), V, 3)
    return sub.dim, dict(decompose_power_subspace(V, 3, sub))


@pytest.mark.parametrize("side", ["sym", "ext"])
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_specialized_cubes_equal_exact_ones(l, side):
    exact = _cube(simple_gl2(l, 0), side)
    for seed in range(1, 6):
        got, samples = at_two_samples(
            seed, lambda q0: _cube(specialize_module(simple_gl2(l, 0), q0), side)
        )
        assert got == exact
        assert samples == [str(q0) for q0 in sample_points(seed)]


def test_specialized_rows_are_stripped_over_fp_only(monkeypatch):
    """Every row normalization of a specialized run happens in F_P."""
    seen = []
    strip = qarith.srow_strip

    def spy(row, modulus=None):
        seen.append(modulus)
        return strip(row, modulus)

    monkeypatch.setattr(qarith, "srow_strip", spy)
    V = specialize_module(simple_gl2(3, 0), Fraction(97, 101))
    _cube(V, "sym")
    assert seen and set(seen) == {P}
