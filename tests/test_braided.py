from fractions import Fraction
from itertools import product
from math import comb

import pytest

import oracles
from oracles import braided_power, contains

from braidpow.braided import (
    admissible_triples,
    closed_forms,
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
    run_mode,
    sample_points,
    square_matrix_module,
    sym_cube_closed,
    sym_cube_decomposition,
    triple_product,
)
from braidpow import braided
from braidpow.errors import TheoremViolation
from braidpow.gl3canon import dcb_module
from braidpow.laurent import P
from braidpow.qarith import Subspace, sp_apply
from braidpow.uqmod import (
    IrrepMultiset,
    coproduct,
    decompose_weight_rows,
    dominant,
    outer,
    simple_gl2,
    specialize_module,
    standard_gld,
    tensor,
)


def test_square_gl2_layer_dims():
    # sigma scales the m-th Clebsch-Gordan layer by (-1)^m, so the even
    # layers fill sym and the odd ones ext
    for l in range(5):
        pair = module_square(simple_gl2(l, 0))
        even = sum(2 * (l - m) + 1 for m in range(0, l + 1, 2))
        odd = sum(2 * (l - m) + 1 for m in range(1, l + 1, 2))
        assert pair.sym.dim == even
        assert pair.ext.dim == odd


def test_square_gl2_is_stable():
    pair = module_square(simple_gl2(3, 0))
    tt = pair.square_module
    for side in (pair.sym, pair.ext):
        for row in side.sparse_rows():
            for op in (tt.e_ops[0], tt.f_ops[0]):
                img = sp_apply(op, row)
                assert not img or contains(side, img)
    # specialized squares, rows {col: int} over F_P, at two sample points
    for l in range(1, 7):
        exact = module_square(simple_gl2(l, 0))
        for q0 in sample_points(l):
            pair = module_square(specialize_module(simple_gl2(l, 0), q0))
            assert (pair.sym.dim, pair.ext.dim) == (exact.sym.dim, exact.ext.dim)
            tt = pair.square_module
            for side in (pair.sym, pair.ext):
                for row in side.rows:
                    for op in (tt.e_ops[0], tt.f_ops[0]):
                        assert contains(side, sp_apply(op, row, P))


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


def _form(V, kind, n):
    (want,) = closed_forms(V, kind, n).values()
    return want


def test_closed_forms_price_the_classical_dims():
    # every entry of the table fills the dimension its theorem gives
    for d in range(1, 5):
        for n in range(6):
            assert _form(standard_gld(d), "sym", n).total_dim() == comb(d + n - 1, n)
            assert _form(standard_gld(d), "ext", n).total_dim() == comb(d, n)
    for l in range(3):
        # the flat square: dim V = l + 1 and classical powers
        for n in range(8):
            assert _form(simple_gl2(l, 0), "sym", n).total_dim() == comb(l + n, n)
            assert _form(simple_gl2(l, 0), "ext", n).total_dim() == comb(l + 1, n)
    for l in range(9):
        V = simple_gl2(l, 0)
        assert _form(V, "sym", 3).total_dim() == dim_sym_cube(l)
        assert _form(V, "ext", 3).total_dim() == dim_ext_cube(l)
        assert _form(V, "sym", 2).total_dim() == comb(l + 2, 2)
        assert _form(V, "ext", 2).total_dim() == comb(l + 1, 2)
        for n in range(4, 7):
            assert _form(V, "ext", n) == {}


def test_specialized_module_has_its_exact_modules_forms():
    q0 = Fraction(101, 97)
    modules = [
        simple_gl2(4, 0),
        simple_gl2(3, 1),
        standard_gld(3),
        outer(standard_gld(2), standard_gld(3)),
    ]
    for V in modules:
        W = specialize_module(V, q0)
        for kind in ("sym", "ext"):
            for n in range(6):
                assert closed_forms(W, kind, n) == closed_forms(V, kind, n)


def test_modules_without_a_closed_form_get_none():
    modules = [
        dcb_module((2, 0, 0)),
        simple_gl2(3, 1),
        outer(simple_gl2(1, 0), simple_gl2(2, 0)),
        tensor(standard_gld(2), standard_gld(2)),
    ]
    for V in modules:
        for kind in ("sym", "ext"):
            for n in range(6):
                assert closed_forms(V, kind, n) == {}
    # S^n V_(l,0) from l = 3 and n = 4 has only the growth law
    assert closed_forms(simple_gl2(3, 0), "sym", 4) == {}
    assert closed_forms(simple_gl2(3, 0), "ext", 4)


def test_a_wrong_cube_raises_naming_its_form(monkeypatch):
    wrong = IrrepMultiset({(9, 0): 1}, (2,))
    monkeypatch.setattr(braided, "decompose_power", lambda V, kind, n: wrong)
    with pytest.raises(TheoremViolation, match="matches_cube_closed_form"):
        sym_cube_decomposition(3)


def test_a_wrong_triple_product_raises_naming_its_form(monkeypatch):
    wrong = IrrepMultiset({(4, 0): 1}, (2,))
    monkeypatch.setattr(braided, "decompose_triple", lambda *a, **k: wrong)
    with pytest.raises(TheoremViolation, match="matches_admissibility"):
        triple_product((1, 2, 1), "-")


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


def test_hilbert_table_specialize():
    # the exact-mode size guard lives in the command line (test_cli)
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
    pair = module_square(simple_gl2(3, 0))
    V = pair.module
    for kind in ("sym", "ext"):
        dims = power_dims(V, kind, 4)
        assert [braided_power(V, kind, n).dim for n in range(5)] == dims
    assert braided_power(V, "sym", 0) == Subspace.span(1, [[1]])
    assert braided_power(V, "sym", 1) == Subspace.span(V.dim, [{i: 1} for i in range(V.dim)])
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
    # as the square built them, in both fields, and its subspace is the
    # square's side
    for V in _keyed_modules():
        pair = module_square(V)
        for tops, kind in zip(braided._side_weights(V), ("sym", "ext")):
            side = braided._side_rows(pair.square_module, tops)
            assert braided._level(V, kind, 2) is side
            assert braided_power(V, kind, 2) == getattr(pair, kind)


def test_a_power_kind_is_sym_or_ext():
    V = simple_gl2(2, 0)
    for call in (power_dims, braided._level, braided_power, decompose_power):
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


# ---------------------------------------------------------------------------
# the highest-weight count as an oracle: a decomposition read off the
# certified dominant dims has the components that counting highest-weight
# vectors finds in the same blocks, expanded into the tensor product


def _counted(blocks: dict, factors: tuple) -> IrrepMultiset:
    # the highest-weight vectors of blocks {weight: vectors of the tensor
    # product of factors} under the coproduct action of the E_i, checked
    # weight by weight against the blocks' row counts
    V = factors[-1]
    return decompose_weight_rows(blocks, V.blocks, [coproduct(factors, i) for i in range(V.ngen)])


@pytest.mark.parametrize(
    "l, kind, n",
    [(l, kind, 3) for l in range(6) for kind in ("sym", "ext")] + [(3, "sym", 4), (4, "sym", 4)],
)
def test_power_decompositions_agree_with_the_highest_weight_count(l, kind, n):
    V = simple_gl2(l, 0)
    dec = decompose_power(V, kind, n)
    level = braided._level(V, kind, n)
    dom = {w: rows for w, rows in level.items() if dominant(w, V.blocks)}
    assert _counted(oracles._absolute(V, kind, n, dom), (V,) * n) == dec


@pytest.mark.parametrize("eps", ["+", "-"])
def test_triple_product_decompositions_agree_with_the_highest_weight_count(monkeypatch, eps):
    # every beta with entries <= 3: the dominant blocks of the meet, which
    # are all the exact triple product builds, expanded over bullet12
    meets = []
    meet = braided._meet_step
    monkeypatch.setattr(braided, "_meet_step", lambda *args: meets.append(meet(*args)) or meets[-1])
    parity = braided._parity_of_eps(eps)
    for beta in product(range(4), repeat=3):
        dec = braided.decompose_triple(beta, eps)
        factors = tuple(simple_gl2(b, 0) for b in beta)
        bullet12 = braided._side_rows(
            tensor(factors[0], factors[1]), braided._eps_layers(beta[0], beta[1], parity)
        )
        [blocks] = meets
        meets.clear()
        assert all(dominant(w, (2,)) for w in blocks)
        expanded = oracles._expand(blocks, braided._level_rows(bullet12), factors[2].dim, None)
        assert _counted(expanded, factors) == dec
