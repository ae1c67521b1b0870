from collections import Counter
from itertools import combinations, combinations_with_replacement
from math import comb, gcd

import pytest

from braidpow import classical
from braidpow.braided import conjectural_sym_dim, dim_ext_cube, dim_sym_cube
from braidpow.classical import (
    _sort_inversions,
    bracket_lam,
    bracket_sym,
    delta_coefficient,
    e_lam,
    e_sym,
    exterior_four_vanishes,
    f_lam,
    f_sym,
    gen_lam,
    gen_sym,
    jminus,
    jminus_six_terms,
    jplus,
    mul_sym,
    poisson_closure_dims,
    super_jacobian,
    valuation_cover_check,
    wedge,
)


def neg(x):
    return {k: -v for k, v in x.items()}


def test_commutator_of_ladder_operators_is_the_weight():
    l = 5
    for i in range(l + 1):
        v = gen_lam(l, i)
        h = {
            k: c
            for k, c in (
                (k, e_lam(f_lam(l, v)).get(k, 0) - f_lam(l, e_lam(v)).get(k, 0))
                for k in [(i,)]
            )
            if c
        }
        assert h == ({(i,): l - 2 * i} if l != 2 * i else {})


def test_generator_bracket_closed_form():
    l = 4
    for i in range(l + 1):
        for j in range(l + 1):
            got = bracket_lam(l, gen_lam(l, i), gen_lam(l, j))
            want = wedge(
                {(i - 1,): i * (l - j)} if i else {}, gen_lam(l, j + 1)
            )
            lo = wedge({(i + 1,): j * (l - i)} if j else {}, gen_lam(l, j - 1))
            for k, c in lo.items():
                want[k] = want.get(k, 0) - c
            assert got == {k: c for k, c in want.items() if c}


def test_bracket_symmetry_by_parity():
    l = 4
    for i, j in combinations_with_replacement(range(l + 1), 2):
        odd = bracket_lam(l, gen_lam(l, i), gen_lam(l, j))
        assert odd == bracket_lam(l, gen_lam(l, j), gen_lam(l, i))
        even = bracket_sym(l, gen_sym(l, i), gen_sym(l, j))
        assert even == neg(bracket_sym(l, gen_sym(l, j), gen_sym(l, i)))


def test_super_leibniz_rule():
    l = 3
    a, b = gen_lam(l, 1), gen_lam(l, 2)
    c = wedge(gen_lam(l, 0), gen_lam(l, 3))
    lhs = bracket_lam(l, a, wedge(b, c))
    rhs = wedge(bracket_lam(l, a, b), c)
    for k, v in wedge(b, bracket_lam(l, a, c)).items():
        rhs[k] = rhs.get(k, 0) - v
    assert lhs == {k: v for k, v in rhs.items() if v}


def test_odd_jacobian_is_minus_the_plain_cyclic_sum():
    l = 3
    cyc = {}
    for x, y, z in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        inner = bracket_lam(l, gen_lam(l, y), gen_lam(l, z))
        for k, v in bracket_lam(l, gen_lam(l, x), inner).items():
            cyc[k] = cyc.get(k, 0) + v
    assert cyc == {(0, 1, 2): 9}
    assert jminus(l, 0, 1, 2) == {(0, 1, 2): -9}


def test_six_term_expansion_matches_up_to_global_sign():
    # every l that ext_fourth_power reaches through the classical quotient
    for l in range(9):
        for i, j, k in combinations_with_replacement(range(l + 1), 3):
            assert jminus_six_terms(l, i, j, k) == neg(jminus(l, i, j, k))


def _reverse(l, x, kind):
    """The index reversal sigma: v_i -> v_(l-i), on an element."""
    out = {}
    for key, c in x.items():
        if kind == "sym":
            out[key[::-1]] = c
        else:
            inv, rkey = _sort_inversions(tuple(l - i for i in key))
            out[rkey] = (-1) ** inv * c
    return out


@pytest.mark.parametrize("kind", ["sym", "ext"])
def test_index_reversal_maps_each_generator_to_a_generator(kind):
    # sigma E sigma = F, so sigma {a, b} = -{sigma a, sigma b} and the two
    # signs of a nested bracket cancel: sigma J(a, b, c) = J(sigma a, ...)
    if kind == "sym":
        jac, triples = jplus, combinations
        gen, e, f = gen_sym, e_sym, f_sym
    else:
        jac, triples = jminus, combinations_with_replacement
        gen, e, f = gen_lam, e_lam, f_lam
    for l in range(9):
        for i in range(l + 1):
            v = gen(l, i)
            assert _reverse(l, e(_reverse(l, v, kind)), kind) == f(l, v)
        gens = {t: jac(l, *t) for t in triples(range(l + 1), 3)}
        for (i, j, k), g in gens.items():
            image = _reverse(l, g, kind)
            assert image == jac(l, l - i, l - j, l - k)
            target = gens[(l - k, l - j, l - i)]
            assert image in (target, neg(target))


def _reference_pivot_insert(piv, row):
    row = {c: v for c, v in row.items() if v}
    while row:
        c = min(row)
        hit = piv.get(c)
        if hit is None:
            g = 0
            for v in row.values():
                g = gcd(g, v)
            piv[c] = {col: v // g for col, v in row.items()}
            return piv[c]
        a, b = hit[c], row[c]
        row = {
            col: a * row.get(col, 0) - b * hit.get(col, 0)
            for col in set(row) | set(hit)
        }
        row = {col: v for col, v in row.items() if v}
    return None


def _reference_closure_dims(l, upto, kind):
    """Every product of a bracket-built Jacobian with a monomial, each
    inserted into one echelon form over all index sums."""
    if kind == "sym":
        gens = [jplus(l, *t) for t in combinations(range(l + 1), 3)]
        mul = mul_sym
    else:
        gens = [jminus(l, *t)
                for t in combinations_with_replacement(range(l + 1), 3)]
        mul = wedge
    dims = []
    for n in range(upto + 1):
        full = comb(l + n, n) if kind == "sym" else comb(l + 1, n)
        if n < 3 or full == 0:
            dims.append(full)
            continue
        if kind == "sym":
            basis = [
                tuple(picks.count(i) for i in range(l + 1))
                for picks in combinations_with_replacement(range(l + 1), n - 3)
            ]
        else:
            basis = combinations(range(l + 1), n - 3)
        piv, col, rank = {}, {}, 0
        for mono in basis:
            for g in gens:
                row = {}
                for key, c in mul(g, {mono: 1}).items():
                    row[col.setdefault(key, len(col))] = c
                if _reference_pivot_insert(piv, row) is not None:
                    rank += 1
        dims.append(full - rank)
    return dims


@pytest.mark.parametrize("kind", ["sym", "ext"])
def test_closure_dims_match_the_full_weight_reference(kind):
    for l in range(8):
        assert poisson_closure_dims(l, 5, kind) == _reference_closure_dims(
            l, 5, kind
        )


def test_closure_builds_only_the_upper_half_and_stops_full_blocks(monkeypatch):
    l = 8
    products = []
    real = classical.wedge

    def spy(x, y):
        if x and y:
            kx, ky = next(iter(x)), next(iter(y))
            products.append((len(kx) + len(ky), sum(kx) + sum(ky)))
        else:
            products.append(None)
        return real(x, y)

    monkeypatch.setattr(classical, "wedge", spy)
    assert poisson_closure_dims(l, 4, "ext") == [1, 9, 36, 10, 0]
    assert products and None not in products
    assert all(2 * s >= n * l for n, s in products)
    # the full-weight loop forms 3,510, the brackets' wedges included
    assert len(products) < 351


def test_even_jacobian_alternates():
    l = 3
    assert jplus(l, 0, 1, 2) == neg(jplus(l, 1, 0, 2))
    assert jplus(l, 1, 1, 2) == {}
    # cyclic shifts agree
    assert jplus(l, 0, 1, 2) == jplus(l, 1, 2, 0)


def test_parity_signs_require_homogeneity():
    l = 3
    mixed = {(0,): 1, (1, 2): 1}
    with pytest.raises(ValueError):
        super_jacobian(l, mixed, gen_lam(l, 1), gen_lam(l, 2), "ext")


def test_symmetric_closure_dimensions():
    # flat case stays the full polynomial algebra
    assert poisson_closure_dims(2, 5) == [comb(n + 2, 2) for n in range(6)]
    assert poisson_closure_dims(3, 6) == [1, 4, 10, 16, 22, 28, 34]
    assert poisson_closure_dims(4, 5) == [1, 5, 15, 28, 45, 66]
    assert poisson_closure_dims(5, 4) == [1, 6, 21, 36, 51]


def test_symmetric_closure_matches_cube_and_growth_formulas():
    for l in (3, 4, 5):
        dims = poisson_closure_dims(l, 4)
        assert dims[3] == dim_sym_cube(l)
        assert dims[4] == conjectural_sym_dim(l, 4)


def test_exterior_closure_dimensions():
    assert poisson_closure_dims(3, 4, "ext") == [1, 4, 6, 0, 0]
    assert poisson_closure_dims(4, 5, "ext") == [1, 5, 10, 3, 0, 0]
    for l in range(2, 7):
        dims = poisson_closure_dims(l, 3, "ext")
        assert dims[3] == dim_ext_cube(l)


def test_exterior_fourth_power_fills_up():
    for l in range(9):
        assert exterior_four_vanishes(l)


def test_valuation_cover_builds_each_jacobian_once(monkeypatch):
    builds = Counter()
    real = classical.jminus

    def spy(l, i, j, k):
        builds[(i, j, k)] += 1
        return real(l, i, j, k)

    monkeypatch.setattr(classical, "jminus", spy)
    valuation_cover_check(8)
    assert set(builds.values()) == {1}
    strict = set(combinations(range(9), 3))
    assert strict <= set(builds)


def test_valuation_cover_misses_subsets_through_the_middle_weight():
    # the three families miss these 4-subsets; the quotient still vanishes
    gaps = {
        8: [(1, 2, 4, 5), (3, 4, 6, 7)],
        10: [(1, 2, 5, 6), (2, 3, 5, 6), (4, 5, 7, 8), (4, 5, 8, 9)],
    }
    for l, uncovered in gaps.items():
        report = valuation_cover_check(l)
        assert report["covered"] is False
        assert report["uncovered"] == uncovered
        assert "delta_broken" not in report
        assert all(l // 2 in subset for subset in uncovered)
        assert exterior_four_vanishes(l)
    for l in range(3, 12, 2):
        assert valuation_cover_check(l)["covered"]


def test_valuation_cover():
    for l in (3, 4, 5, 6):
        report = valuation_cover_check(l)
        assert report["covered"]
        assert "uncovered" not in report and "delta_broken" not in report
        assert report["subsets"] == comb(l + 1, 4)
    assert valuation_cover_check(4)["subsets"] == 5


def test_delta_vanishes_only_at_middle_weight():
    for l in range(1, 11):
        for i in range(1, l + 1):
            for k in range(i + 2, l + 1):
                assert (delta_coefficient(l, i, k) == 0) == (2 * i == l)


def test_symmetric_product_commutes():
    l = 3
    a = mul_sym(gen_sym(l, 0), gen_sym(l, 2))
    b = mul_sym(gen_sym(l, 2), gen_sym(l, 0))
    assert a == b == {(1, 0, 1, 0): 1}
