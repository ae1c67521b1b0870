"""Differential tests of the integer Laurent kernel: the packed engine's
GCDHEU row strip against the Euclidean fold, the Euclidean gcd against
SymPy, exact division against multiplication, and the int-only
coefficients of every row the sparse engine and the F_P kernel
return."""

from fractions import Fraction
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dict_engine as D
from braidpow import laurent as L
from braidpow import qarith
from braidpow.braided import module_square, power_weight_rows, square_gl2
from braidpow.qarith import (
    Subspace,
    fp_kernel,
    fp_rref,
    sp_annihilator,
    sp_echelon,
    sp_intersect,
    sp_kernel,
    srow_strip,
)
from braidpow.uqmod import (
    highest_weight_vectors,
    simple_gl2,
    specialize_module,
    tensor,
)

# derandomized and small, so every run checks the same examples quickly
FIXED = settings(derandomize=True, database=None, max_examples=80, deadline=None)

coeffs = st.integers(-60, 60).filter(bool)


def laurents(max_terms=6, span=6, nonzero=False):
    """Int Laurent polynomials with negative exponents and negative
    leading coefficients; small sizes make constants and monomials common."""
    return st.dictionaries(
        st.integers(-span, span),
        coeffs,
        min_size=1 if nonzero else 0,
        max_size=max_terms,
    )


def shifted(poly_strategy):
    return st.tuples(poly_strategy, st.integers(-20, 20)).map(
        lambda t: L.lshift(t[0], t[1])
    )


def is_int_poly(p):
    return all(type(c) is int for c in p.values())


@FIXED
@given(
    shifted(laurents(nonzero=True)),
    shifted(laurents(nonzero=True)),
    laurents(max_terms=4, span=3, nonzero=True),
    st.booleans(),
)
# K = q - 2 has K(3) == 1: an evaluation point below the root bound would
# hand back 1 here instead of the gcd q - 2
@example(u={0: 1, 1: 1}, v={0: 2, 1: 1}, g={0: -2, 1: 1}, negate=False)
# the Euclidean loop meets the leading coefficient 2 of (2q + 1)(q + 1),
# which does not divide 3: a pseudo-division step, not a rational one
@example(u={0: 1, 1: 2}, v={0: 1, 2: 3}, g={0: 1, 1: 1}, negate=False)
def test_heuristic_gcd_matches_euclid_on_planted_factors(u, v, g, negate):
    # the packed strip of the row {0: a, 1: b} is its GCDHEU at 2**K;
    # dict_engine strips it by the Euclidean fold
    a = L.lmul(u, g)
    b = L.lmul(v, g)
    if negate:
        a = L.lneg(a)
    h = L.lgcd(a, b)
    assert is_int_poly(h) and min(h) == 0 and h[max(h)] > 0
    # the planted factor survives, up to units
    L.ldiv_exact(h, L.lgcd(g, {}))
    L.ldiv_exact(a, h)
    L.ldiv_exact(b, h)
    row = {0: a, 1: b}
    got = srow_strip(row)
    assert got == D.strip(row)
    # the strip divides both entries by one common factor, a unit times h
    common = L.ldiv_exact(a, got[0])
    assert L.ldiv_exact(b, got[1]) == common
    assert L.lgcd(common, {}) == h


@FIXED
@given(shifted(laurents()), shifted(laurents()))
# coprime, with the factor 2 - q in a alone: the strip divides by nothing
@example(a={0: 4, 1: -2}, b={0: 1, 1: -4, 2: -6})
def test_heuristic_gcd_matches_euclid_on_random_pairs(a, b):
    row = {c: p for c, p in enumerate((a, b)) if p}
    assert srow_strip(row) == D.strip(row)


@FIXED
@given(
    st.integers(-9, 9).filter(bool),
    st.integers(-9, 9),
    shifted(laurents(nonzero=True)),
)
def test_gcd_with_constant_or_monomial_is_one(c, e, a):
    # c*q**e is a unit of the Laurent ring
    assert L.lgcd({e: c}, a) == L.ONE
    assert L.lgcd(a, {e: c}) == L.ONE


@FIXED
@given(shifted(laurents(nonzero=True)), shifted(laurents(nonzero=True)))
def test_exact_division_inverts_multiplication(a, b):
    quot = L.ldiv_exact(L.lmul(a, b), b)
    assert quot == a and is_int_poly(quot)
    # over Z[q, 1/q], 2b divides ab exactly when 2 divides the content of a
    two_b = L.lscale(b, 2)
    if L.lcontent(a) % 2 == 0:
        half = {e: c // 2 for e, c in a.items()}
        assert L.ldiv_exact(L.lmul(a, b), two_b) == half
    else:
        with pytest.raises(ValueError):
            L.ldiv_exact(L.lmul(a, b), two_b)


@FIXED
@given(
    shifted(laurents(nonzero=True)),
    shifted(laurents(nonzero=True)).filter(lambda b: max(b) > min(b)),
    laurents(nonzero=True),
)
def test_inexact_division_raises(a, b, r):
    # r spans fewer powers of q than b, so b cannot divide it
    width = max(b) - min(b)
    r = {e % width: c for e, c in r.items()}
    num = L.ladd(L.lmul(a, b), r)
    with pytest.raises(ValueError):
        L.ldiv_exact(num, b)


@FIXED
@given(
    shifted(laurents(max_terms=7, nonzero=True)),
    shifted(laurents(nonzero=True)),
    laurents(max_terms=3, span=2, nonzero=True),
)
def test_gcd_matches_sympy(u, v, g):
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    a, b = L.lmul(u, g), L.lmul(v, g)

    def poly(p):
        low = min(p)
        return sympy.Poly(sum(c * q ** (e - low) for e, c in p.items()), q, domain="ZZ")

    _, want = sympy.gcd(poly(a), poly(b)).primitive()
    if want.LC() < 0:
        want = -want
    got = L.lgcd(a, b)
    assert [got.get(e, 0) for e in range(max(got) + 1)] == [
        int(c) for c in reversed(want.all_coeffs())
    ]


# ---------------------------------------------------------------------------
# the row engine hands back int coefficients only


def _raw_rows(m):
    # the images E_i(v_c) of the basis vectors, with the module's own coefficients
    return [col for op in m.e_ops for _, col in sorted(op.items())]


def _int_rows(rows):
    return all(is_int_poly(p) for row in rows for p in row.values())


def _fp_residues(rows):
    # rows {col: int} of residues 0 < c < P
    return all(type(v) is int and 0 < v < L.P for row in rows for v in row.values())


def _fp_rows(rows):
    # residues, with the first entry of each row 1
    return _fp_residues(rows) and all(row[min(row)] == 1 for row in rows)


@pytest.mark.parametrize("specialized", [False, True])
def test_engine_rows_hold_int_coefficients(specialized):
    v = simple_gl2(3, 0)
    m = tensor(v, v)
    if specialized:
        m = specialize_module(m, Fraction(97, 101))
    rows = _raw_rows(m)
    if specialized:
        # a specialized module holds reduced residues of F_P, no rationals
        # and no Laurent polynomials; over F_P the int kernel hands back
        # residues {col: int}, and its echelon rows and the subspaces
        # built on it are led by 1
        assert _fp_residues(rows)
        assert _fp_rows(fp_rref(rows, L.P).values())
        assert _fp_residues(fp_kernel(rows, m.dim, L.P))
        assert _fp_rows(Subspace.from_sparse(m.dim, rows, L.P).rows)
        assert _fp_rows(highest_weight_vectors(m, (3, 3)).rows)
        pair = module_square(specialize_module(v, Fraction(97, 101)))
        assert _fp_rows(pair.sym.rows + pair.ext.rows)
        return

    # over Q(q) the module's and the returned rows hold ints
    assert _int_rows(rows)
    assert _int_rows([srow_strip(r) for r in rows])
    assert _int_rows(sp_echelon(rows).values())
    assert _int_rows(sp_echelon(rows, reduced=False).values())
    assert _int_rows(sp_kernel(rows, m.dim))
    half = len(rows) // 2
    ann = sp_annihilator(rows[half - 3 :], range(m.dim))
    assert _int_rows(ann)
    meet = sp_intersect(rows[: half + 3], ann)
    assert meet and _int_rows(meet)
    pair = square_gl2(3)
    sym, ext = pair.sym.sparse_rows(), pair.ext.sparse_rows()
    ann = sp_annihilator(sym[: len(sym) // 2] + ext, range(m.dim))
    meet = sp_intersect(sym, ann)
    assert len(meet) == len(sym) // 2 and _int_rows(meet)


# ---------------------------------------------------------------------------
# the packed row strip against the Euclidean fold of dict_engine


@FIXED
@given(
    st.lists(shifted(laurents(nonzero=True)), min_size=1, max_size=6),
    laurents(max_terms=4, span=3, nonzero=True),
)
def test_cofactors_match_the_pairwise_fold(cofactors, g):
    row = dict(enumerate(L.lmul(u, g) for u in cofactors))
    assert srow_strip(row) == D.strip(row)


def test_cofactors_remove_a_cubic_shared_by_five_entries():
    g = {0: 5, 1: 2, 3: 1}
    units = [{0: 1}, {1: -3}, {-2: 1, 0: 1}, {0: 7, 2: -2}, {1: 1, 2: 4, 4: -1}]
    polys = [L.lmul(u, g) for u in units]
    assert L.lcofactors(polys) == units
    row = dict(enumerate(polys))
    assert srow_strip(row) == D.strip(row)


def test_cofactors_keep_sign_content_and_q_powers():
    g = {0: 1, 1: 1}
    polys = [
        L.lmul({-2: -6, -1: 18}, g),  # -6 q^-2 (1 - 3q) (1 + q)
        L.lmul({5: 4}, g),  # 4 q^5 (1 + q)
        L.lmul({3: -10, 4: 5}, L.lmul(g, g)),  # -5 q^3 (2 - q) (1 + q)^2
    ]
    want = [{-2: -6, -1: 18}, {5: 4}, L.lmul({3: -10, 4: 5}, g)]
    assert L.lcofactors(polys) == want


def test_a_constant_entry_leaves_the_row_unstripped():
    g = {0: 2, 1: 1}
    row = {0: L.lmul({0: 3, 2: 1}, g), 3: {0: 5}, 4: L.lmul({1: 1}, g)}
    assert L.lcofactors(list(row.values())) == list(row.values())
    assert srow_strip(row) == D.strip(row) == row


# the shortcuts of the exact elimination, each against the plain step


def in_steps(p, step):
    # p(q**step)
    return {step * e: c for e, c in p.items()}


@FIXED
@given(
    st.sampled_from([2, 3]),
    st.lists(
        st.tuples(laurents(nonzero=True), st.integers(-20, 20)), min_size=1, max_size=5
    ),
    laurents(max_terms=4, span=3, nonzero=True),
)
def test_cofactors_of_polynomials_in_a_power_of_q(step, units, g):
    # q^s_i U_i(q^g) G(q^g) with mixed shifts s_i: every gap within an
    # entry is a multiple of g, and the packed strip still reads them in q
    row = {
        i: L.lshift(L.lmul(in_steps(u, step), in_steps(g, step)), s)
        for i, (u, s) in enumerate(units)
    }
    assert srow_strip(row) == D.strip(row)


def _packed_entries(row, s):
    return [qarith._pack(p, s) for p in row.values()]


def _start_width(row):
    # the slot width srow_strip packs the row at first
    return qarith._slot_width(qarith._measure([row])[0])


def test_value_quotient_refuses_digits_past_the_bound():
    # c (1 - q^3) = c (1 - q)(1 + q + q^2) beside H = 1 + q + q^2, in
    # 32-bit slots, for c = 2**30 - 1: H(2**32) divides both values, and
    # the digits of the first quotient are the cofactor c (1 - q), but
    # 2 |H|_1 * c = 6c is past xi = 2**32, so the bound refuses it.  The
    # strip then takes the exact Euclidean gcd and still returns the
    # reference row
    c = 2**30 - 1
    h = {0: 1, 1: 1, 2: 1}
    row = {0: {0: c, 3: -c}, 1: h}
    assert _start_width(row) == 32
    s = qarith._Slot(32, 1)
    entries = _packed_entries(row, s)
    hv = qarith._pack(h, s)[1]
    assert all(v % hv == 0 for _, v, _ in entries)
    assert qarith._digits(entries[0][1] // hv, s) == [c, -c]
    assert qarith._cofactors(entries, hv, s) is None
    assert srow_strip(row) == D.strip(row) == {0: {0: -c, 1: c}, 1: {0: -1}}


def test_value_quotient_needs_the_operand_bound():
    # 2q - (2**32 - 1) and 1 + q are coprime, but both are 2**32 + 1 at
    # xi = 2**32, whose digits give the candidate 1 + q.  The digit
    # quotient 1 of their values is small, yet (1 + q) * 1 != 2q - (2**32
    # - 1): the proof needs 2 |f|_inf < xi, and the slot invariant never
    # packs 2q - (2**32 - 1) at 32 bits, so its row strips in 64-bit
    # slots, where nothing is common
    f, h = {0: 1 - 2**32, 1: 2}, {0: 1, 1: 1}
    s = qarith._Slot(32, 1)
    entries = _packed_entries({0: f, 1: h}, s)
    assert [v for _, v, _ in entries] == [2**32 + 1, 2**32 + 1]
    assert qarith._cofactors(entries, 2**32 + 1, s) == [(0, 1, [1]), (0, 1, [1])]
    with pytest.raises(qarith._Widen):
        qarith._repack(f, s)
    row = {0: f, 1: h}
    assert _start_width(row) == 64
    assert L.lgcd(f, h) == L.ONE
    assert srow_strip(row) == D.strip(row) == row


def test_cofactors_past_the_bound_come_from_the_long_division(monkeypatch):
    # c (1 - q^3) beside multiples of H = 1 + q + q^2, with c near the
    # largest the slot holds: the cofactor c (1 - q) is past the digit
    # bound 2 |H|_1 |Q|_inf < xi at every slot width, so the strip hands
    # the row to the Euclidean fold and its long division.  In q**2 the
    # row packs in steps of 2, and the fold's quotients pack back in them
    folded = []
    lcofactors = qarith.lcofactors
    monkeypatch.setattr(qarith, "lcofactors", lambda polys: folded.append(1) or lcofactors(polys))
    h = {0: 1, 1: 1, 2: 1}
    for k, c in ((32, 2**30 - 1), (64, 2**62 - 1), (96, 2**94 - 1)):
        for step in (1, 2):
            row = {0: {0: c, 3: -c}, 1: L.lshift(L.lmul(h, {0: 1, 1: 2}), -3), 2: h}
            row = {i: in_steps(p, step) for i, p in row.items()}
            assert _start_width(row) == k and qarith._measure([row])[1] == step
            folded.clear()
            want = {0: {3: -c, 4: c}, 1: {0: -1, 1: -2}, 2: {3: -1}}
            want = {i: in_steps(p, step) for i, p in want.items()}
            assert srow_strip(row) == D.strip(row) == want
            assert folded == [1]


def test_value_quotients_serve_the_cube_strips(monkeypatch):
    # the common case: on the l = 3 cubes the packed engine reads every
    # cofactor and quotient off the values at xi = 2**K
    # (qarith._cofactors, qarith._quotient); none falls back to the exact
    # Euclidean gcd or long division, which would be a silent slowdown
    served, fallbacks = [], []
    cofactors, lcofactors, ldiv_exact = qarith._cofactors, qarith.lcofactors, qarith.ldiv_exact

    def value(*args):
        quos = cofactors(*args)
        if quos is not None:
            served.append(1)
        return quos

    monkeypatch.setattr(qarith, "_cofactors", value)
    monkeypatch.setattr(qarith, "lcofactors", lambda polys: fallbacks.append(1) or lcofactors(polys))
    monkeypatch.setattr(qarith, "ldiv_exact", lambda a, b: fallbacks.append(1) or ldiv_exact(a, b))
    V = simple_gl2(3, 0)
    for side in ("sym", "ext"):
        power_weight_rows(V, side, 3)
    assert served and not fallbacks


def _plain_cross(row, pivot_row, col):
    # pivot_row[col] * row - row[col] * pivot_row, without the shortcuts
    a, b = pivot_row[col], row[col]
    out = {}
    for c in set(row) | set(pivot_row):
        p = L.lsub(L.lmul(a, row.get(c, {})), L.lmul(b, pivot_row.get(c, {})))
        if p:
            out[c] = p
    return out


def packed_cross(row, pivot_row, col):
    # the engine's cross step on the two rows packed at the slot width an
    # elimination of them starts from, unpacked again
    rows = [row, pivot_row]

    def run(packed, s):
        return qarith._unpack_row(qarith._cross(*packed, col, s), s)

    return qarith._packed(rows, run)


def sparse_rows(width=4):
    return st.dictionaries(
        st.integers(1, width), laurents(max_terms=3, span=3, nonzero=True), max_size=width
    )


@FIXED
@given(
    sparse_rows(),
    sparse_rows(),
    laurents(max_terms=3, span=3, nonzero=True),
    laurents(max_terms=3, span=3, nonzero=True),
    laurents(max_terms=3, span=2, nonzero=True),
)
def test_reduced_cross_step_spans_the_plain_line(row, pivot_row, u, v, g):
    # the entries at column 0 share the factor g, so the reduced step
    # divides both multipliers by their gcd
    row = {0: L.lmul(v, g), **row}
    pivot_row = {0: L.lmul(u, g), **pivot_row}
    got = packed_cross(row, pivot_row, 0)
    assert 0 not in got and all(got.values())
    assert srow_strip(got) == srow_strip(_plain_cross(row, pivot_row, 0))
