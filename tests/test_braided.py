from fractions import Fraction
from math import comb

import pytest

from braidpow.braided import (
    _apply_e,
    admissible_triples,
    braided_power,
    conjectural_sym_dim,
    decompose_power,
    dim_ext_cube,
    dim_sym_cube,
    ext_cube_closed,
    ext_cube_decomposition,
    flat_lower_bound,
    flatness_check,
    hilbert_table,
    koszul_series_probe,
    module_square,
    power_dims,
    power_weight_rows,
    run_mode,
    sample_points,
    square_gl2,
    square_matrix_module,
    sym_cube_closed,
    sym_cube_decomposition,
    triple_product,
)
from braidpow import braided
from braidpow.errors import GuardError
from braidpow.laurent import ONE
from braidpow.qarith import Subspace, sp_apply
from braidpow.uqmod import outer, simple_gl2, specialize_module, standard_gld, tensor


def test_square_gl2_layer_dims():
    # sigma scales the m-th Clebsch-Gordan layer by (-1)^m, so the even
    # layers fill sym and the odd ones ext
    for l in range(5):
        pair = square_gl2(l)
        even = sum(2 * (l - m) + 1 for m in range(0, l + 1, 2))
        odd = sum(2 * (l - m) + 1 for m in range(1, l + 1, 2))
        assert pair.sym.dim == even
        assert pair.ext.dim == odd


def _apply_fp(op, row):
    # a specialized module's operator on a row {col: int} over F_P
    out = {}
    for c, t in row.items():
        for r, e in op.get(c, {}).items():
            out[r] = out.get(r, 0) + t * e[0]
    return out


def test_square_gl2_is_stable():
    pair = square_gl2(3)
    tt = pair.square_module
    for side in (pair.sym, pair.ext):
        for row in side.sparse_rows():
            for op in (tt.e_ops[0], tt.f_ops[0]):
                img = sp_apply(op, row)
                assert not img or side.contains(img)
    # specialized squares, rows {col: int} over F_P, at two sample points
    for l in range(1, 7):
        exact = square_gl2(l)
        for q0 in sample_points(l):
            pair = module_square(specialize_module(simple_gl2(l, 0), q0))
            assert (pair.sym.dim, pair.ext.dim) == (exact.sym.dim, exact.ext.dim)
            tt = pair.square_module
            for side in (pair.sym, pair.ext):
                for row in side.rows:
                    for op in (tt.e_ops[0], tt.f_ops[0]):
                        assert side.contains(_apply_fp(op, row))


def test_apply_e_matches_tensor_construction():
    V = simple_gl2(2, 0)
    t3 = tensor(tensor(V, V), V)
    for idx in range(t3.dim):
        vec = {idx: dict(ONE)}
        assert _apply_e((V,) * 3, 0, vec) == sp_apply(t3.e_ops[0], vec)
    W = standard_gld(3)
    t2 = tensor(W, W)
    for i in range(W.ngen):
        for idx in range(t2.dim):
            vec = {idx: dict(ONE)}
            assert _apply_e((W, W), i, vec) == sp_apply(t2.e_ops[i], vec)


def test_apply_e_on_distinct_factors_matches_tensor_construction():
    # the triple product's E action, on V_2 ox V_1 ox V_3 (last factor
    # fastest), without building the triple tensor module
    v1, v2, v3 = (simple_gl2(l, 0) for l in (2, 1, 3))
    t3 = tensor(tensor(v1, v2), v3)
    for idx in range(t3.dim):
        vec = {idx: dict(ONE)}
        assert _apply_e((v1, v2, v3), 0, vec) == sp_apply(t3.e_ops[0], vec)
    vec = {idx: {idx % 3 - 1: idx + 1} for idx in range(0, t3.dim, 5)}
    assert _apply_e((v1, v2, v3), 0, vec) == sp_apply(t3.e_ops[0], vec)


def test_sym_cube_decompositions():
    assert dict(sym_cube_decomposition(2)) == {(6, 0): 1, (4, 2): 1}
    assert dict(sym_cube_decomposition(3)) == {(9, 0): 1, (7, 2): 1}
    assert dict(sym_cube_decomposition(4)) == {
        (12, 0): 1,
        (10, 2): 1,
        (8, 4): 1,
        (6, 6): 1,
    }
    for l in range(5):
        out = sym_cube_decomposition(l)
        assert out.total_dim() == dim_sym_cube(l)
        assert set(out.values()) <= {1}


def test_ext_cube_decompositions():
    assert dict(ext_cube_decomposition(1)) == {}
    assert dict(ext_cube_decomposition(2)) == {(3, 3): 1}
    assert dict(ext_cube_decomposition(3)) == {}
    assert dict(ext_cube_decomposition(4)) == {(7, 5): 1}
    for l in range(5):
        want = l * (l + 2) // 8 if l % 2 == 0 else 0
        assert ext_cube_decomposition(l).total_dim() == want
        assert dim_ext_cube(l) == want


def test_closed_forms_are_multiplicity_free_partitions():
    for l in range(8):
        s, e = sym_cube_closed(l), ext_cube_closed(l)
        assert not set(s) & set(e)
        for (a, b) in list(s) + list(e):
            assert a >= b >= 0 and a + b == 3 * l


def test_ext_fourth_power_vanishes():
    for l in (3, 4):
        assert braided_power(simple_gl2(l, 0), "ext", 4).dim == 0


def test_ext_power_dims_standard():
    W = standard_gld(3)
    assert power_dims(W, "ext", 4) == [1, 3, 3, 1, 0]
    assert power_dims(W, "sym", 4) == [comb(3 + n - 1, n) for n in range(5)]


def test_matrix_square_dims_and_flatness():
    pair = square_matrix_module(2, 2)
    assert pair.sym.dim == 10
    assert pair.ext.dim == 6
    flat, report = flatness_check(outer(standard_gld(2), standard_gld(2)))
    assert flat
    assert report["sym_cube_dim"] == comb(4 + 2, 3)


def test_flatness_classification_gl2():
    flats = [l for l in range(6) if flatness_check(simple_gl2(l, 0))[0]]
    assert flats == [0, 1, 2]


def test_flatness_standard():
    for d in (2, 3):
        flat, report = flatness_check(standard_gld(d))
        assert flat
        assert report["sym_cube_dim"] == comb(d + 2, 3)


def test_flat_lower_bound_oracles():
    assert flat_lower_bound((1, 0)) == 4
    assert flat_lower_bound((2, 0)) == 10
    # equality with the free cube dimension certifies flatness from
    # characters alone
    for l in (1, 2):
        assert flat_lower_bound((l, 0)) == comb(l + 3, 3)
    assert flat_lower_bound((3, 0)) == dim_sym_cube(3)


def test_triple_product_examples():
    assert dict(triple_product((1, 2, 1), "-")) == {(2, 2): 1}
    assert dict(triple_product((1, 1, 1), "-")) == {}
    got = triple_product((2, 2, 2), "+")
    assert dict(got) == dict(admissible_triples((2, 2, 2), "+"))
    assert (3, 3) in triple_product((2, 2, 2), "-")


def test_triple_product_specialize_agrees():
    exact = triple_product((1, 2, 1), "-")
    sampled = triple_product((1, 2, 1), "-", mode="specialize", seed=7)
    assert dict(exact) == dict(sampled)


def test_admissible_triples_symmetry():
    # reversing beta leaves the decomposition unchanged
    for beta in ((1, 2, 3), (0, 2, 1), (3, 1, 2)):
        for eps in ("+", "-"):
            assert dict(admissible_triples(beta, eps)) == dict(
                admissible_triples(beta[::-1], eps)
            )


def test_hilbert_table_exact():
    table = hilbert_table(3, 4)
    assert table.dims == [1, 4, 10, 16, 22]
    assert table.conjecture == [
        {"l": 3, "n": 4, "computed": 22, "predicted": 22, "agree": True}
    ]
    # the payload keeps l once, at the table
    assert table.as_dict()["conjecture"] == [
        {"n": 4, "computed": 22, "predicted": 22, "agree": True}
    ]


def test_hilbert_table_guard_and_specialize():
    with pytest.raises(GuardError):
        hilbert_table(7, 3)
    with pytest.raises(GuardError):
        hilbert_table(2, 5)
    table = hilbert_table(3, 3, mode="specialize", seed=11)
    assert table.dims == [1, 4, 10, 16]
    assert len(table.samples) == 2
    assert hilbert_table(2, 5, mode="specialize", seed=1).dims[5] == comb(7, 2)


def test_negative_degrees_are_refused():
    V = simple_gl2(2, 0)
    for call in (
        lambda: hilbert_table(2, -1),
        lambda: hilbert_table(2, -1, mode="specialize", seed=1),
        lambda: power_dims(V, "sym", -1),
        lambda: braided_power(V, "sym", -1),
    ):
        with pytest.raises(ValueError):
            call()


def test_power_dims_and_braided_power_share_the_recursion():
    pair = square_gl2(3)
    V = pair.module
    for kind in ("sym", "ext"):
        dims = power_dims(V, kind, 4)
        assert [braided_power(V, kind, n).dim for n in range(5)] == dims
    assert braided_power(V, "sym", 0) == Subspace.full(1)
    assert braided_power(V, "sym", 1) == Subspace.full(V.dim)
    assert braided_power(V, "sym", 2) == pair.sym


def _keyed_modules():
    exact = [simple_gl2(l, 0) for l in range(5)]
    return (
        exact
        + [specialize_module(V, Fraction(257, 491)) for V in exact]
        + [standard_gld(d) for d in (1, 2, 3)]
        + [outer(standard_gld(2), standard_gld(2))]
    )


def test_degree_two_is_the_side_of_the_square():
    # a power is keyed by (module, kind): its level 2 is the side's rows
    # as the square built them, and its subspace is the square's side.
    # A specialized level numbers its first factor in level order, so
    # there only the row count of each weight is compared directly.
    for V in _keyed_modules():
        pair = module_square(V)
        for tops, kind in zip(braided._side_weights(V), ("sym", "ext")):
            side = braided._side_rows(pair.square_module, tops)
            level = power_weight_rows(V, kind, 2)
            if V.modulus is None:
                assert level == side
            else:
                assert {w: len(r) for w, r in level.items()} == {
                    w: len(r) for w, r in side.items()
                }
            assert braided_power(V, kind, 2) == getattr(pair, kind)


def test_a_power_kind_is_sym_or_ext():
    V = simple_gl2(2, 0)
    for call in (power_dims, power_weight_rows, braided_power, decompose_power):
        with pytest.raises(ValueError, match="kind must be 'sym' or 'ext'"):
            call(V, "both", 2)
    with pytest.raises(ValueError, match="kind must be 'sym' or 'ext'"):
        hilbert_table(2, 2, kind="both")


def test_conjectural_sym_dim_matches_cube_forms():
    # through degree 3 the growth law is the proven dims; the closed
    # forms alone give -2 at (3, 0) and 6 at (4, 1)
    for l in range(7):
        V = simple_gl2(l, 0)
        want = power_dims(V, "sym", 2) + [dim_sym_cube(l)]
        assert [conjectural_sym_dim(l, n) for n in range(4)] == want


def test_koszul_series_probe():
    assert koszul_series_probe(3, 6) == [1, 4, 10, 16, 4, -80]
    row4 = koszul_series_probe(4, 6)
    assert row4 == [1, 5, 15, 28, 5, -210]
    assert row4[4] > 0 and row4[5] < 0
    # flat case: the probe reproduces the polynomial algebra series
    assert koszul_series_probe(2, 8) == [comb(n + 2, 2) for n in range(8)]


def test_koszul_h_matches_computed_ext_dims():
    assert power_dims(simple_gl2(3, 0), "ext", 3) == [1, 4, 6, 0]


def test_sample_points_deterministic():
    assert sample_points(42) == sample_points(42)
    a, b = sample_points(42)
    assert a != b
    for q0 in (a, b):
        assert isinstance(q0, Fraction) and q0 not in (0, 1)


def test_run_mode_exact_calls_compute_once_at_no_point():
    calls = []
    got = run_mode("exact", 5, lambda q0: calls.append(q0) or "result")
    assert got == ("result", [])
    assert calls == [None]


def test_run_mode_refuses_an_unknown_mode_before_computing():
    calls = []
    with pytest.raises(ValueError, match="unknown mode"):
        run_mode("generic", 5, calls.append)
    # unseeded samples would differ from run to run
    with pytest.raises(ValueError, match="needs a seed"):
        run_mode("specialize", None, calls.append)
    assert calls == []


def test_run_mode_specialize_runs_both_samples_and_refuses_disagreement():
    pts = sample_points(5)
    assert run_mode("specialize", 5, lambda q0: 7) == (7, [str(q0) for q0 in pts])
    seen = []
    with pytest.raises(ArithmeticError, match="samples disagree"):
        run_mode("specialize", 5, lambda q0: seen.append(q0) or q0)
    assert seen == pts


def test_braided_power_deterministic():
    V = simple_gl2(2, 0)
    one = braided_power(V, "sym", 3)
    two = braided_power(V, "sym", 3)
    assert one == two
