"""The relative tower P^n = (P^(n-1) ox V) meet (P^(n-2) ox P^2) that
both modes run: the int kernel over F_P specialize mode solves it with,
the specialized tower against the exact braided powers, its character
decomposition and the guard on it."""

import json
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import evaluated_at
from oracles import braided_power

from braidpow import braided, cli, qarith
from braidpow.braided import (
    conjectural_sym_dim,
    decompose_power,
    hilbert_table,
    module_square,
    power_dims,
    sample_points,
)
from braidpow.gl3canon import dcb_module
from braidpow.laurent import P
from braidpow.qarith import fp_kernel, fp_rref
from braidpow.uqmod import (
    ModuleAuditError,
    decompose,
    decompose_weight_dims,
    simple_gl2,
    specialize_module,
    tensor,
)

FIXED = settings(derandomize=True, database=None, max_examples=80, deadline=None)


@st.composite
def int_systems(draw):
    """A system of small residues over n columns, some entries stored as
    unreduced ints that P divides or that exceed P."""
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = {}
        for j in range(n):
            v, lift = draw(st.integers(-3, 3)), draw(st.integers(0, 2))
            if v or lift:
                row[j] = v + lift * P
        rows.append(row)
    return n, rows


def gf_matrix(rows, n):
    """rows {col: int} as a SymPy DomainMatrix over GF(P), the reference
    the int kernel is checked against."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    K = sympy.GF(P)
    return DomainMatrix(
        [[K(row.get(c, 0)) for c in range(n)] for row in rows], (len(rows), n), K
    )


@FIXED
@given(int_systems())
def test_int_kernel_agrees_with_sympy_over_fp(case):
    n, rows = case
    ker = fp_kernel(rows, n, P)
    rank = len(fp_rref(rows, P))
    assert rank == gf_matrix(rows, n).rank()
    assert len(ker) + rank == n
    for z in ker:
        assert all(0 < v < P for v in z.values())
        for row in rows:
            assert sum(v * z.get(c, 0) for c, v in row.items()) % P == 0
    # independent, so a basis of the null space SymPy finds
    assert gf_matrix(ker, n).rank() == len(ker) == gf_matrix(rows, n).nullspace().shape[0]


@FIXED
@given(int_systems())
def test_int_rref_is_reduced_with_unit_pivots(case):
    _, rows = case
    piv = fp_rref(rows, P)
    for c, row in piv.items():
        assert min(row) == c and row[c] == 1
        assert all(0 < v < P for v in row.values())
        assert not any(c2 in row for c2 in piv if c2 != c)


def test_an_entry_divisible_by_p_never_becomes_a_pivot():
    assert fp_rref([{0: P, 1: 2}, {0: 3 * P}], P) == {1: {1: 1}}
    assert fp_rref([{0: -2 * P, 2: P}], P) == {}
    # column 0 is free although its only entries are nonzero ints
    assert fp_kernel([{0: P, 1: 2 + P}, {0: 5 * P, 2: 1}], 3, P) == [{0: 1}]


# ---------------------------------------------------------------------------
# the tower


@pytest.mark.parametrize("side", ["sym", "ext"])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_expanded_tower_is_the_exact_power_at_the_sample(l, side):
    V = simple_gl2(l, 0)
    q0 = sample_points(l)[0]
    W = specialize_module(V, q0)
    for n in range(5):
        want = evaluated_at(braided_power(V, side, n), q0)
        got = braided_power(W, side, n)
        assert got.modulus == P
        assert got == want


@pytest.mark.parametrize("l, n, side", [(6, 3, "sym"), (6, 3, "ext"), (4, 4, "sym")])
def test_character_decomposition_is_the_highest_weight_count(l, n, side):
    V = simple_gl2(l, 0)
    W = specialize_module(V, sample_points(l + n)[0])
    by_characters = decompose_power(W, side, n)
    assert dict(by_characters) == dict(decompose_power(V, side, n))
    assert by_characters.total_dim() == power_dims(V, side, n)[n]


def test_tower_reaches_degree_twelve_on_the_conjectured_growth():
    table = hilbert_table(3, 12, mode="specialize", seed=1)
    for n in range(4, 13):
        assert table.dims[n] == conjectural_sym_dim(3, n)
    # exact mode takes the same relative tower over Q(q)
    exact = hilbert_table(3, 7)
    assert exact.dims == [conjectural_sym_dim(3, n) for n in range(8)]


def test_specialized_powers_bypass_the_meet(monkeypatch):
    # the tower's steps never take a Q(q) kernel or expand into V^(ox n)
    def refuse(*args, **kwargs):
        raise AssertionError("the tower does not meet V^(ox n) rows")

    monkeypatch.setattr(qarith, "sp_kernel", refuse)
    monkeypatch.setattr(oracles, "_expand", refuse)
    V = specialize_module(simple_gl2(3, 0), Fraction(97, 101))
    assert power_dims(V, "sym", 5) == [1, 4, 10, 16, 22, 28]


def test_square_and_module_must_share_a_field():
    # a power reads the square of its own module, so a specialized
    # module's powers are built over F_P from its specialized square
    V = simple_gl2(2, 0)
    W = specialize_module(V, Fraction(97, 101))
    assert module_square(W).sym.modulus == braided_power(W, "sym", 3).modulus == P
    assert power_dims(W, "sym", 3) == power_dims(V, "sym", 3)


# ---------------------------------------------------------------------------
# the character check


def test_character_decomposition_of_a_power():
    # the cube of V_(2,0): V_(6,0) + V_(4,2)
    dims = {(6, 0): 1, (5, 1): 1, (4, 2): 2, (3, 3): 2, (2, 4): 2, (1, 5): 1, (0, 6): 1}
    assert dict(decompose_weight_dims(dims, (2,))) == {(6, 0): 1, (4, 2): 1}
    assert decompose_weight_dims({}, (2,)) == {}


@pytest.mark.parametrize(
    "dims, message",
    [
        ({(2, 0): 2, (1, 1): 1, (0, 2): 2}, "negative multiplicity"),
        ({(2, 0): 1, (1, 1): 1}, "not Weyl symmetric"),
        # symmetric, so the Weyl denominator leaves -V_(2,1) behind
        ({(3, 0): 1, (0, 3): 1}, "negative multiplicity -1 of \\(2, 1\\)"),
    ],
    ids=["negative", "asymmetric", "count"],
)
def test_forged_weight_dims_are_refused(dims, message):
    with pytest.raises(ModuleAuditError, match=message):
        decompose_weight_dims(dims, (2,))


def _orbit(w, blocks):
    # every rearrangement of each block of w, as a table of dims 1
    segs, s = [], 0
    for n in blocks:
        segs.append(set(permutations(w[s : s + n])))
        s += n
    return {sum(parts, ()): 1 for parts in product(*segs)}


@pytest.mark.parametrize(
    "dims, blocks, message",
    [
        # symmetric under s_1, not under s_2
        ({(1, 0, 0): 1, (0, 1, 0): 1}, (3,), "not Weyl symmetric at \\(0, 1, 0\\)"),
        # the orbit of (2,0,0) alone is V_(2,0,0) - V_(1,1,0)
        (_orbit((2, 0, 0), (3,)), (3,), "negative multiplicity -1 of \\(1, 1, 0\\)"),
        # symmetric in the first gl_2 block, not in the second
        ({(1, 0, 1, 0): 1, (0, 1, 1, 0): 1}, (2, 2), "not Weyl symmetric at \\(1, 0, 1, 0\\)"),
        (_orbit((2, 0, 1, 0), (2, 2)), (2, 2), "negative multiplicity -1 of \\(1, 1, 1, 0\\)"),
    ],
    ids=["gl3-asymmetric", "gl3-negative", "gl2xgl2-asymmetric", "gl2xgl2-negative"],
)
def test_forged_weight_dims_beyond_gl2_are_refused(dims, blocks, message):
    with pytest.raises(ModuleAuditError, match=message):
        decompose_weight_dims(dims, blocks)


@pytest.mark.parametrize(
    "left, right",
    [((1, 0, 0), (1, 0, 0)), ((2, 1, 0), (1, 1, 0)), ((2, 0, 0), (2, 1, 0))],
)
def test_gl3_weight_dims_decompose_as_the_highest_weight_count(left, right):
    # one formula over gl_3: the character of a tensor product of simples
    # against its exact highest-weight count
    m = tensor(dcb_module(left), dcb_module(right))
    dims = {w: len(cols) for w, cols in m.weight_blocks().items()}
    assert dict(decompose_weight_dims(dims, (3,))) == dict(decompose(m))


def test_forged_tower_fails_the_cli_run(monkeypatch, capsys):
    # every step yields one row at its highest weight alone: a level
    # that is not Weyl symmetric
    def forged(prev, ann_at, V, weights):
        return {max(weights): [{0: 1}]}

    monkeypatch.setattr(braided, "_power_step", forged)
    argv = ["sym-power", "--l", "3", "--n", "4", "--mode", "specialize", "--seed", "1"]
    code = cli.run(argv)
    env = json.loads(capsys.readouterr().out)
    assert code == 2
    assert env["verdicts"] == {"run": "fail"}
    assert env["payload"]["error"] == "ModuleAuditError"
