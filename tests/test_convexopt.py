import random
from itertools import combinations_with_replacement, product

import pytest

from braidpow import convexopt
from braidpow.convexopt import (
    cell_sign,
    certify_max,
    feasible_class,
    inversions,
    is_inversion,
    is_lambda_convex,
    kappa_star,
    kappa_weight,
    multiplicities,
    random_feasibility_class,
    random_lambda_convex,
    transpose_at,
)
from braidpow.errors import InfeasibleError


def all_staircases(m, n):
    return combinations_with_replacement(range(n + 1), m)


def test_cell_sign_staircase():
    lam = (1, 3)
    assert [cell_sign(lam, 1, j) for j in range(1, 4)] == [-1, 1, 1]
    assert [cell_sign(lam, 2, j) for j in range(1, 4)] == [-1, -1, -1]


def test_inversion_matches_multiplicity_preservation():
    # the column-purity shortcut must agree with literally comparing
    # multiplicity functions before and after the swap
    n = 3
    for lam in all_staircases(3, n):
        for kappa in product(range(1, n + 1), repeat=3):
            base = multiplicities(lam, kappa, n)
            for i in range(1, 4):
                for ip in range(i + 1, 4):
                    direct = (
                        kappa[i - 1] > kappa[ip - 1]
                        and multiplicities(lam, transpose_at(kappa, i, ip), n)
                        == base
                    )
                    assert is_inversion(lam, kappa, i, ip) == direct


def test_every_class_has_one_inversion_free_member():
    n = 3
    for m in (1, 2, 3):
        for lam in all_staircases(m, n):
            seen = {}
            for kappa in product(range(1, n + 1), repeat=m):
                key = multiplicities(lam, kappa, n)
                seen.setdefault(key, []).append(kappa)
            for (km, kp), members in seen.items():
                inv_free = [k for k in members if not inversions(lam, k)]
                assert len(inv_free) == 1, (lam, km, kp, members)
                assert kappa_star(lam, km, kp) == inv_free[0]


def test_extremal_map_strictly_maximizes():
    n = 3
    rng = random.Random(7)
    for lam in all_staircases(3, n):
        a = random_lambda_convex(3, n, rng)
        assert is_lambda_convex(a, lam)
        best = {}
        for kappa in product(range(1, n + 1), repeat=3):
            key = multiplicities(lam, kappa, n)
            w = kappa_weight(a, kappa)
            if key not in best or w > best[key][0]:
                best[key] = (w, [kappa])
            elif w == best[key][0]:
                best[key][1].append(kappa)
        for (km, kp), (_, argmax) in best.items():
            assert argmax == [kappa_star(lam, km, kp)]


def test_last_row_rule_needs_viability_check():
    # with lam = (1, 2) the whole second row sits inside S-, so the
    # top plus-column (here 2, not above the staircase in row 2) can
    # never close the last row; a bare tail-count rule would pick it
    lam = (1, 2)
    km, kp = (1, 0), (0, 1)
    assert feasible_class(lam, km, kp) == [(2, 1)]
    assert kappa_star(lam, km, kp) == (2, 1)


def test_transposing_an_inversion_raises_weight():
    n = 4
    rng = random.Random(19)
    for _ in range(200):
        m = rng.randint(2, 4)
        lam = tuple(sorted(rng.randint(0, n) for _ in range(m)))
        a = random_lambda_convex(m, n, rng)
        kappa = tuple(rng.randint(1, n) for _ in range(m))
        for i, ip in inversions(lam, kappa):
            assert kappa_weight(a, transpose_at(kappa, i, ip)) > kappa_weight(
                a, kappa
            )


def test_zero_matrix_is_not_convex_on_a_mixed_staircase():
    # the quadruple with column 1 in S- and column 2 in S+ demands a
    # strict inequality the zero matrix cannot meet
    zero = [[0, 0], [0, 0]]
    assert not is_lambda_convex(zero, (1, 1))
    # lam = (0, 2) makes both columns mixed, so nothing is demanded
    assert is_lambda_convex(zero, (0, 2))
    # sign-pure quadruples demand strictness on their own
    assert not is_lambda_convex(zero, (2, 2))
    assert not is_lambda_convex(zero, (0, 0))
    ramp = [[1, 2], [2, 4]]
    assert is_lambda_convex(ramp, (1, 1))


def test_convex_matrices_form_a_semigroup():
    rng = random.Random(3)
    lam = (1, 2, 4)
    a = random_lambda_convex(3, 4, rng)
    b = random_lambda_convex(3, 4, rng)
    s = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    assert is_lambda_convex(s, lam)


def test_infeasible_classes_raise():
    with pytest.raises(InfeasibleError):
        kappa_star((1, 2), (1, 1, 1), (0, 0, 0))  # wrong total
    with pytest.raises(InfeasibleError):
        # lam = (0, 0) has no S- cells, yet two minus assignments asked
        kappa_star((0, 0), (2, 0), (0, 0))


def test_certify_max_report():
    rng = random.Random(11)
    lam = (1, 2, 2)
    km, kp = random_feasibility_class(lam, 3, rng)
    report = certify_max(lam, km, kp, trials=2, seed=5)
    assert report["ok"]
    assert report["class_size"] >= 1
    assert multiplicities(lam, report["kappa_star"], 3) == (km, kp)


def test_feasible_class_lists_each_filter_group_in_order():
    # one pass over every map of each staircase with m <= 5, n <= 4,
    # grouped by multiplicities in product() order, is the list
    # feasible_class builds for each class, in the same order
    classes = 0
    for n in range(1, 5):
        for m in range(1, 6):
            for lam in all_staircases(m, n):
                groups = {}
                for kappa in product(range(1, n + 1), repeat=m):
                    groups.setdefault(multiplicities(lam, kappa, n), []).append(kappa)
                for (km, kp), members in groups.items():
                    assert feasible_class(lam, km, kp) == members, (lam, km, kp)
                classes += len(groups)
    assert classes == 37_529


def test_certify_max_reads_multiplicities_per_member_not_per_map(monkeypatch):
    # a class of 14 maps over a staircase with 5**6 = 15,625 maps
    calls = []
    real = convexopt.multiplicities
    monkeypatch.setattr(
        convexopt, "multiplicities", lambda *a: calls.append(a) or real(*a)
    )
    lam, km, kp = (0, 0, 1, 2, 3, 5), (1, 0, 0, 0, 1), (1, 0, 1, 0, 2)
    report = certify_max(lam, km, kp, trials=2, seed=7)
    assert report["class_size"] == 14
    assert 0 < len(calls) <= report["class_size"]


@pytest.mark.parametrize(
    "call",
    [
        lambda km, kp: kappa_star((1, 2), km, kp),
        lambda km, kp: feasible_class((1, 2), km, kp),
        lambda km, kp: certify_max((1, 2), km, kp, trials=1, seed=0),
    ],
    ids=["kappa_star", "feasible_class", "certify_max"],
)
def test_multiplicities_of_different_lengths_raise_value_error(call):
    with pytest.raises(ValueError, match="different column sets"):
        call((1, 0), (0, 1, 0))
    with pytest.raises(ValueError, match="different column sets"):
        call((1, 0, 0), (0, 1))


def test_a_negative_count_gives_the_empty_class():
    # K- = (2, -1) sums to the one row of lam = (2,) but no map has a
    # count of -1, so the class is empty
    assert feasible_class((2,), (2, -1), (0, 0)) == []
    with pytest.raises(InfeasibleError):
        certify_max((2,), (2, -1), (0, 0))
    # a class whose counts do not sum to the rows is empty too
    assert feasible_class((1, 2), (1, 1), (1, 0)) == []
