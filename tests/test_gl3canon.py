import hashlib
import json

import pytest

from braidpow import gl3canon
from braidpow.gl3canon import (
    block_positions,
    d_minus,
    dcb_labels,
    dcb_module,
    degree_recursion_check,
    ell_minus,
    genericity_check,
    gt_pair_bases,
    label_weight,
    multiplicity_closed_form,
    relabel,
    weight_multiplicity,
)
from braidpow.laurent import ONE
from braidpow.uqmod import decompose, dim_irrep, highest_weight_vectors, standard_gld


def ell_plus(lam, label, i: int) -> int:
    """Remaining E_i height of a basis label (1-based generator)."""
    m1, m2, m12, m21 = label
    if i == 1:
        return m1 + m21
    if i == 2:
        return m2 + m12
    raise ValueError("generator index must be 1 or 2")


def d_plus(lam, beta, i: int) -> int:
    """Smallest ell_i^+ on the beta weight space."""
    if i == 1:
        return d_minus(lam, beta, 1) + beta[1] - beta[0]
    if i == 2:
        return d_minus(lam, beta, 2) + beta[2] - beta[1]
    raise ValueError("generator index must be 1 or 2")


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
        assert len(highest_weight_vectors(mod, lam)) == 1


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


def _gt_rows_digest(lam) -> str:
    # sha256 of every (beta, copy, k, row) of gt_pair_bases, the rows
    # written as sorted (position, sorted (exponent, coefficient)) pairs
    mod = dcb_module(lam)
    rows = [
        [list(beta), copy, k, sorted([c, sorted(p.items())] for c, p in row.items())]
        for beta in sorted(mod.weight_blocks())
        for copy, vecs in enumerate(gt_pair_bases(mod, lam, beta))
        for k, row in enumerate(vecs)
    ]
    return hashlib.sha256(json.dumps(sorted(rows)).encode()).hexdigest()


@pytest.mark.parametrize(
    "lam, digest",
    [
        ((2, 1, 0), "ecba405416ba3e73242abfba3f5ed731da68f13ee51edec563abced3a912903e"),
        ((3, 1, 0), "068ad55918e52104bb992f155b2dc54998ad6ced84a6280fab0f01f6cfe94d29"),
        ((3, 2, 0), "1c936f01ab68dc90f9e3b73ca581e4ba6a6368e57d35111267557cf5a005db6e"),
        ((4, 2, 1), "c57f03ca99256822f460fac31f04b85c3dd03728e248cfbadd247adabdcbb93a"),
        ((5, 2, 0), "667e341a469b7468cb268cbb777f39ebfacc0c37d777fc1e2576df69a57c09e0"),
        ((5, 3, 0), "6a686476ac7feefb254e9beb5728fa4fb6e3e663d224e0fe0635c0c307470c28"),
    ],
)
def test_gt_pair_bases_rows_are_pinned(lam, digest):
    assert _gt_rows_digest(lam) == digest


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


def test_each_seed_and_string_is_taken_once_per_module(monkeypatch):
    # the seeds of one weight's bases are the seeds of the weights below
    # it on the same strings: each E_i-kernel is solved once, and each
    # F_i-image of a string row taken once
    kernels, images = [], []
    kernel, apply = gl3canon.weight_space_kernel, gl3canon.sp_apply
    monkeypatch.setattr(
        gl3canon,
        "weight_space_kernel",
        lambda m, mu, gens: kernels.append((mu, tuple(gens))) or kernel(m, mu, gens),
    )
    monkeypatch.setattr(
        gl3canon,
        "sp_apply",
        lambda op, vec: images.append((id(op), sorted(vec))) or apply(op, vec),
    )
    lam = (4, 2, 0)
    mod = dcb_module(lam)
    assert genericity_check(lam, mod)["ok"]
    assert degree_recursion_check(lam, mod)["ok"]
    assert len(kernels) == len(set(kernels)) > 0
    assert len(images) == len({(op, tuple(vec)) for op, vec in images}) > 0


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
