from braidpow import gl3canon
from braidpow.gl3canon import (
    block_positions,
    d_minus,
    d_plus,
    dcb_labels,
    dcb_module,
    degree_recursion_check,
    ell_minus,
    ell_plus,
    genericity_check,
    gt_pair_bases,
    label_weight,
    multiplicity_closed_form,
    relabel,
    weight_multiplicity,
)
from braidpow.laurent import ONE
from braidpow.uqmod import decompose, dim_irrep, highest_weight_vectors, standard_gld


def test_dcb_reproduces_standard_module():
    mod = dcb_module((1, 0, 0))
    std = standard_gld(3)
    assert mod.weights == std.weights
    assert mod.e_ops == std.e_ops
    assert mod.f_ops == std.f_ops
    assert dcb_labels((1, 0, 0)) == ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0))


def test_label_count_is_weyl_dimension():
    for lam in ((1, 0, 0), (2, 1, 0), (3, 1, 0), (2, 2, 0), (5, 2, 0), (4, 2, 1)):
        assert len(dcb_labels(lam)) == dim_irrep(lam, (3,))


def test_dcb_module_is_irreducible():
    for lam in ((2, 1, 0), (3, 1, 0), (2, 2, 0), (1, 1, 0)):
        mod = dcb_module(lam)
        assert dict(decompose(mod)) == {lam: 1}
        assert highest_weight_vectors(mod, lam).dim == 1


def test_multiplicity_formulas_agree():
    for lam in ((2, 1, 0), (3, 1, 0), (3, 2, 0), (4, 2, 1)):
        mod = dcb_module(lam)
        for beta, idxs in mod.weight_blocks().items():
            assert weight_multiplicity(lam, beta) == len(idxs)
            assert multiplicity_closed_form(lam, beta) == len(idxs)


def test_relabel_examples():
    # standard module: the two lower weight vectors
    assert relabel((1, 0, 0), (0, 1, 0), 1) == (1, 0, 0, 0)
    assert relabel((1, 0, 0), (0, 0, 1), 1) == (0, 0, 1, 0)


def test_relabel_matches_enumeration_order():
    for lam in ((2, 1, 0), (3, 1, 0), (2, 2, 0)):
        mod = dcb_module(lam)
        labels = dcb_labels(lam)
        for beta, idxs in mod.weight_blocks().items():
            for k, c in enumerate(idxs, start=1):
                assert labels[c] == relabel(lam, beta, k)


def test_string_depth_ladder():
    lam = (3, 1, 0)
    labels = dcb_labels(lam)
    mod = dcb_module(lam)
    for beta, idxs in mod.weight_blocks().items():
        ells = [ell_minus(lam, labels[c], 1) for c in idxs]
        assert ells == list(
            range(d_minus(lam, beta, 1), d_minus(lam, beta, 1) + len(idxs))
        )
        assert min(ell_plus(lam, labels[c], 1) for c in idxs) == d_plus(
            lam, beta, 1
        )
        assert min(ell_minus(lam, labels[c], 2) for c in idxs) == d_minus(
            lam, beta, 2
        )


def test_gt_pair_pinning():
    lam = (2, 1, 0)
    mod = dcb_module(lam)
    beta = (1, 1, 1)
    m = len(block_positions(mod, beta))
    assert m == 2
    b1, b2 = gt_pair_bases(mod, lam, beta)
    assert b1[0] == {0: dict(ONE)}
    assert b2[0] == {m - 1: dict(ONE)}


def test_both_checks_build_each_pair_of_bases_once(monkeypatch):
    # genericity and the degree recursion read the same stored bases
    built = []
    build = gl3canon._gt_pair_bases
    monkeypatch.setattr(
        gl3canon,
        "_gt_pair_bases",
        lambda module, lam, beta: built.append((id(module), beta)) or build(module, lam, beta),
    )
    lam = (3, 1, 0)
    mod = dcb_module(lam)
    assert genericity_check(lam, mod)["ok"]
    assert degree_recursion_check(lam, mod)["ok"]
    assert sorted(built) == sorted((id(mod), beta) for beta in mod.weight_blocks())
    assert gt_pair_bases(mod, lam, (2, 1, 1)) is gt_pair_bases(mod, list(lam), [2, 1, 1])


def test_degree_recursion():
    for lam in ((2, 1, 0), (3, 1, 0), (2, 2, 0), (3, 2, 0)):
        report = degree_recursion_check(lam)
        assert report["ok"], report["failures"][:3]
        if lam != (2, 2, 0):
            # (2,2,0) is multiplicity free, nothing to compare there
            assert report["comparisons"] > 0


def test_degree_recursion_shifted_weight():
    # lam3 != 0 exercises the centering claims
    report = degree_recursion_check((4, 2, 1))
    assert report["ok"], report["failures"][:3]


def test_genericity():
    for lam in ((2, 1, 0), (3, 1, 0), (2, 2, 0), (3, 2, 0)):
        report = genericity_check(lam)
        assert report["ok"], report["failures"][:3]
        assert report["minors"] > 0
    assert genericity_check((3, 1, 0))["max_mult"] == 2


def test_label_weights_consistent():
    lam = (3, 2, 0)
    for lab in dcb_labels(lam):
        w = label_weight(lam, lab)
        assert sum(w) == sum(lam)
