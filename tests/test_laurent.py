"""Differential tests of the integer Laurent kernel: GCDHEU against the
Euclidean loop and SymPy, exact division against multiplication, and the
int-only coefficients of every row the sparse engine returns."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidpow import laurent as L
from braidpow.braided import square_gl2
from braidpow.qarith import (
    sp_annihilator,
    sp_echelon,
    sp_intersect,
    sp_kernel,
    srow_strip,
)
from braidpow.uqmod import simple_gl2, specialize_module, tensor

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


def euclid(a, b):
    return L._lgcd_euclid(L.lgcd(a, {}), L.lgcd(b, {}))


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
def test_heuristic_gcd_matches_euclid_on_planted_factors(u, v, g, negate):
    a = L.lmul(u, g)
    b = L.lmul(v, g)
    if negate:
        a = L.lneg(a)
    h = L.lgcd(a, b)
    assert h == euclid(a, b)
    assert is_int_poly(h) and min(h) == 0 and h[max(h)] > 0
    # the planted factor survives, up to units
    L.ldiv_exact(h, L.lgcd(g, {}))
    L.ldiv_exact(a, h)
    L.ldiv_exact(b, h)


@FIXED
@given(shifted(laurents()), shifted(laurents()))
# coprime, yet the first candidate 2 - q divides a: only the division
# check against b rejects it
@example(a={0: 4, 1: -2}, b={0: 1, 1: -4, 2: -6})
def test_heuristic_gcd_matches_euclid_on_random_pairs(a, b):
    assert L.lgcd(a, b) == euclid(a, b)


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


def test_gcd_falls_back_to_euclid(monkeypatch):
    a = L.lmul({0: 3, 2: -5, 3: 7}, {-1: 2, 1: 1})
    b = L.lmul({0: -4, 1: 1}, {-1: 2, 1: 1})
    want = L.lgcd(a, b)
    monkeypatch.setattr(L, "_HEU_TRIES", 0)
    assert L.lgcd(a, b) == want == {0: 2, 2: 1}


@FIXED
@given(shifted(laurents(nonzero=True)), shifted(laurents(nonzero=True)))
def test_exact_division_inverts_multiplication(a, b):
    quot = L.ldiv_exact(L.lmul(a, b), b)
    assert quot == a and is_int_poly(quot)
    # a leading coefficient that does not divide gives rational quotients
    two_b = L.lscale(b, 2)
    assert L.lmul(L.ldiv_exact(L.lmul(a, b), two_b), two_b) == L.lmul(a, b)


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
    assert L._dense(got) == [int(c) for c in reversed(want.all_coeffs())]


# ---------------------------------------------------------------------------
# the row engine hands back int coefficients only


def _raw_rows(m):
    # the images E_i(v_c) of the basis vectors, with the module's own coefficients
    return [col for op in m.e_ops for _, col in sorted(op.items())]


def _int_rows(rows):
    return all(is_int_poly(p) for row in rows for p in row.values())


@pytest.mark.parametrize("specialized", [False, True])
def test_engine_rows_hold_int_coefficients(specialized):
    v = simple_gl2(3, 0)
    m = tensor(v, v)
    if specialized:
        m = specialize_module(m, Fraction(97, 101))
    rows = _raw_rows(m)
    # the specialized module hands the engine rationals to clear
    assert _int_rows(rows) != specialized

    assert _int_rows([srow_strip(r) for r in rows])
    assert _int_rows(sp_echelon(rows).values())
    assert _int_rows(sp_echelon(rows, reduced=False).values())
    assert _int_rows(sp_kernel(rows, m.dim))
    half = len(rows) // 2
    ann = sp_annihilator(rows[half - 3 :], range(m.dim))
    assert _int_rows(ann)
    meet = sp_intersect(rows[: half + 3], ann)
    assert meet and _int_rows(meet)

    if not specialized:
        pair = square_gl2(3)
        sym, ext = pair.sym.sparse_rows(), pair.ext.sparse_rows()
        ann = sp_annihilator(sym[: len(sym) // 2] + ext, range(m.dim))
        meet = sp_intersect(sym, ann)
        assert len(meet) == len(sym) // 2 and _int_rows(meet)
