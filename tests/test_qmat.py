import random
from math import comb

import pytest

from braidpow import acceptance, qmat
from braidpow.laurent import ONE, lq, lsub
from braidpow.qmat import (
    check_qmatrix_relations,
    howe_dim_check,
    mat_mul,
    mat_scale,
    mat_sub,
    matrix_generator,
    qpoly_mul_mono,
    r_standard,
)


def test_braiding_on_the_standard_row():
    assert r_standard(0, 1) == {(1, 0): ONE}
    assert r_standard(1, 1) == {(1, 1): lq(1)}
    assert r_standard(1, 0) == {(0, 1): ONE, (1, 0): lsub(lq(1), lq(-1))}


def test_row_straightening():
    # x_1 x_0 = q x_0 x_1 and the exponent count for bulk monomials
    assert qpoly_mul_mono((0, 1), (1, 0)) == (1, (1, 1))
    assert qpoly_mul_mono((1, 0), (0, 1)) == (0, (1, 1))
    assert qpoly_mul_mono((2, 1, 0), (1, 0, 2)) == (1, (3, 1, 2))
    # one row is the braided first power: mat_mul with k = 1
    x0, x1 = matrix_generator(2, 1, 0, 0), matrix_generator(2, 1, 1, 0)
    assert mat_mul(2, x1, x0) == {((1, 1),): lq(1)}
    assert mat_mul(2, x0, x1) == {((1, 1),): ONE}


def test_two_by_two_relations_explicitly():
    a = matrix_generator(2, 2, 0, 0)
    b = matrix_generator(2, 2, 0, 1)
    c = matrix_generator(2, 2, 1, 0)
    d = matrix_generator(2, 2, 1, 1)
    mm = lambda u, v: mat_mul(2, u, v)
    q = lq(1)
    assert mm(c, a) == mat_scale(mm(a, c), q)
    assert mm(b, a) == mat_scale(mm(a, b), q)
    assert mm(d, c) == mat_scale(mm(c, d), q)
    assert mm(d, b) == mat_scale(mm(b, d), q)
    assert mm(c, b) == mm(b, c)
    assert mat_sub(mm(d, a), mm(a, d)) == mat_scale(mm(b, c),
                                                    lsub(lq(1), lq(-1)))


def test_quantum_determinant_is_central():
    a = matrix_generator(2, 2, 0, 0)
    b = matrix_generator(2, 2, 0, 1)
    c = matrix_generator(2, 2, 1, 0)
    d = matrix_generator(2, 2, 1, 1)
    mm = lambda u, v: mat_mul(2, u, v)
    det = mat_sub(mm(a, d), mat_scale(mm(b, c), lq(-1)))
    for x in (a, b, c, d):
        assert mm(det, x) == mm(x, det)


def test_relation_census():
    for d, k in ((2, 2), (2, 3), (3, 3), (2, 4)):
        report = check_qmatrix_relations(d, k)
        assert report["ok"]
        assert set(report) == {"d", "k", "relations", "ok"}
        assert report["relations"] == (
            d * comb(k, 2) + k * comb(d, 2) + 2 * comb(d, 2) * comb(k, 2)
        )


def test_relations_hold_past_the_command_line_bound():
    # qmatrix-check refuses d * k > 16; the library call is not guarded
    assert check_qmatrix_relations(3, 6)["ok"]


def test_broken_relations_are_listed_and_fail_the_squares_stage(monkeypatch):
    monkeypatch.setattr(qmat, "mat_mul", lambda d, u, v: u)
    report = check_qmatrix_relations(2, 2)
    assert report["ok"] is False
    assert len(report["failures"]) == report["relations"] == 6
    stage = acceptance.standard_and_matrix_squares()
    assert stage["ok"] is False
    assert stage["relations"][0]["failures"] == report["failures"]


def test_braided_product_associates():
    d, k = 2, 3
    rng = random.Random(5)
    gens = [matrix_generator(d, k, i, j) for i in range(d) for j in range(k)]
    for _ in range(20):
        x, y, z = (rng.choice(gens) for _ in range(3))
        assert mat_mul(d, mat_mul(d, x, y), z) == mat_mul(d, x, mat_mul(d, y, z))
    for _ in range(8):
        x = mat_mul(d, rng.choice(gens), rng.choice(gens))
        y = mat_mul(d, rng.choice(gens), rng.choice(gens))
        z = rng.choice(gens)
        assert mat_mul(d, mat_mul(d, x, y), z) == mat_mul(d, x, mat_mul(d, y, z))


def test_bigraded_dimension_identity():
    report = howe_dim_check(2, 2, 2)
    assert report["dimension"] == 10
    assert report["ok"] and "polynomial_count" not in report
    assert sorted(report["terms"]) == [((1, 1), 1, 1), ((2, 0), 3, 3)]
    assert howe_dim_check(2, 3, 2)["dimension"] == 21
    for d in (1, 2, 3):
        for k in range(d, 5):
            for n in range(5):
                assert howe_dim_check(d, k, n)["dimension"] == comb(
                    d * k + n - 1, n
                )
    with pytest.raises(ValueError):
        howe_dim_check(3, 2, 2)
