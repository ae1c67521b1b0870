"""Braided squares of every module family, pinned row for row.

A Subspace holds its canonical reduced echelon basis, so a digest of its
rows pins the square itself, whatever route built it.  The digest is
taken over the rows with their entries sorted: the key order of a row
dict is not part of its value."""

import hashlib
from fractions import Fraction

import pytest

from braidpow.braided import (
    BraidedSquarePair,
    _side_rows,
    _side_weights,
    decompose_power,
    module_square,
    power_dims,
    square_matrix_module,
    weight_rows_subspace,
)
from braidpow.errors import TheoremViolation
from braidpow.gl3canon import dcb_module
from braidpow.laurent import P, fp, leval_fp
from braidpow.qarith import Subspace
from braidpow.uqmod import (
    WeightModule,
    outer,
    simple_gl2,
    specialize_module,
    standard_gld,
    tensor,
)

PIN_POINTS = (Fraction(257, 491), Fraction(101, 97))


def _digest(sub) -> str:
    rows = [
        sorted((c, sorted(v.items()) if isinstance(v, dict) else v) for c, v in row.items())
        for row in sub.rows
    ]
    return hashlib.sha256(repr((sub.ambient, sub.modulus, rows)).encode()).hexdigest()[:16]


def _pair_digest(pair) -> tuple:
    return _digest(pair.sym), _digest(pair.ext)


def _pinned_squares():
    for l1 in range(6):
        for l2 in (0, 1):
            if l2 > l1:
                continue
            V = simple_gl2(l1, l2)
            yield f"gl2({l1},{l2})", module_square(V)
            for q0 in PIN_POINTS:
                yield f"gl2({l1},{l2})@{q0}", module_square(specialize_module(V, q0))
    for d in range(1, 5):
        yield f"standard({d})", module_square(standard_gld(d))
    for d, k in ((1, 1), (1, 3), (2, 2), (2, 3), (3, 2)):
        yield f"matrix({d},{k})", square_matrix_module(d, k)


PINS = {
    'gl2(0,0)': ('84a1e1fad0ce5eb9', '77c6a8582312b6ba'),
    'gl2(0,0)@257/491': ('6adf88f010aad334', 'b2d39b5e4c7b7a04'),
    'gl2(0,0)@101/97': ('6adf88f010aad334', 'b2d39b5e4c7b7a04'),
    'gl2(1,0)': ('f9f263d0fee6e949', '4e527cf79fa7b581'),
    'gl2(1,0)@257/491': ('e9f26ce52799f98c', 'a7e20f38b0fb9346'),
    'gl2(1,0)@101/97': ('31ba1064b2fddee9', '03549462c21870e5'),
    'gl2(1,1)': ('84a1e1fad0ce5eb9', '77c6a8582312b6ba'),
    'gl2(1,1)@257/491': ('6adf88f010aad334', 'b2d39b5e4c7b7a04'),
    'gl2(1,1)@101/97': ('6adf88f010aad334', 'b2d39b5e4c7b7a04'),
    'gl2(2,0)': ('af3b4e8a0d5e4d3b', '873a7eac3eb5db71'),
    'gl2(2,0)@257/491': ('b6f723e25eaab3fe', '45459eddb0853def'),
    'gl2(2,0)@101/97': ('a21ad86f71054b86', '22ece5141edd5cc0'),
    'gl2(2,1)': ('f9f263d0fee6e949', '4e527cf79fa7b581'),
    'gl2(2,1)@257/491': ('e9f26ce52799f98c', 'a7e20f38b0fb9346'),
    'gl2(2,1)@101/97': ('31ba1064b2fddee9', '03549462c21870e5'),
    'gl2(3,0)': ('ef15a84832494f6e', 'e1c34a1a5f4f79dc'),
    'gl2(3,0)@257/491': ('0bb9bc4be78cf502', '880b1d0e61af0d3b'),
    'gl2(3,0)@101/97': ('ac22d5b44d1f0dbe', '8ad0207a5961958d'),
    'gl2(3,1)': ('af3b4e8a0d5e4d3b', '873a7eac3eb5db71'),
    'gl2(3,1)@257/491': ('b6f723e25eaab3fe', '45459eddb0853def'),
    'gl2(3,1)@101/97': ('a21ad86f71054b86', '22ece5141edd5cc0'),
    'gl2(4,0)': ('3d0d3b15ea0b7d4d', '7382ee29bf26d12e'),
    'gl2(4,0)@257/491': ('5e5e240d0c54d207', '4565b459af2a0476'),
    'gl2(4,0)@101/97': ('cfbd79ba63ea527d', '11d0bdd6ec963c62'),
    'gl2(4,1)': ('ef15a84832494f6e', 'e1c34a1a5f4f79dc'),
    'gl2(4,1)@257/491': ('0bb9bc4be78cf502', '880b1d0e61af0d3b'),
    'gl2(4,1)@101/97': ('ac22d5b44d1f0dbe', '8ad0207a5961958d'),
    'gl2(5,0)': ('07f9e41d862d576b', '4197ebeccf52e75e'),
    'gl2(5,0)@257/491': ('f8d3c2947a2641cc', 'b5a09cb2efed58fe'),
    'gl2(5,0)@101/97': ('19b284a81ab3559a', '258a6f81ca5bd46e'),
    'gl2(5,1)': ('3d0d3b15ea0b7d4d', '7382ee29bf26d12e'),
    'gl2(5,1)@257/491': ('5e5e240d0c54d207', '4565b459af2a0476'),
    'gl2(5,1)@101/97': ('cfbd79ba63ea527d', '11d0bdd6ec963c62'),
    'standard(1)': ('84a1e1fad0ce5eb9', '77c6a8582312b6ba'),
    'standard(2)': ('f9f263d0fee6e949', '4e527cf79fa7b581'),
    'standard(3)': ('45d5ecd858567fc5', 'aaeaf97c218e73af'),
    'standard(4)': ('2d2ab66fd4b62a38', 'd06c91ba225b9b73'),
    'matrix(1,1)': ('84a1e1fad0ce5eb9', '77c6a8582312b6ba'),
    'matrix(1,3)': ('45d5ecd858567fc5', 'aaeaf97c218e73af'),
    'matrix(2,2)': ('b88fd3042d3f34d9', '47b5978645cbc7b5'),
    'matrix(2,3)': ('3397e0fc3d2eec8b', '32390b87f2c2ce79'),
    'matrix(3,2)': ('752548a355a89585', '63192c91bbf05453'),
}


def test_squares_are_pinned():
    got = {name: _pair_digest(pair) for name, pair in _pinned_squares()}
    assert got == PINS


def test_outer_modules_and_their_squares_are_shared():
    V = outer(standard_gld(2), standard_gld(2))
    assert outer(standard_gld(2), standard_gld(2)) is V
    assert module_square(V).module is V
    assert square_matrix_module(2, 2) is module_square(V)


def _at_point(sub: Subspace, q0) -> Subspace:
    # an exact subspace evaluated at the image x of q0, re-canonicalized
    x = fp(q0)
    rows = [{c: leval_fp(p, x) for c, p in row.items()} for row in sub.rows]
    return Subspace.from_sparse(sub.ambient, rows, P)


@pytest.mark.parametrize(
    "dk",
    [
        (1,),
        (2,),
        (3,),
        (2, 2),
        pytest.param(dcb_module((2, 0, 0)), id="dcb(2,0,0)"),
        pytest.param(outer(simple_gl2(1, 0), simple_gl2(2, 0)), id="outer(V1,V2)"),
    ],
)
def test_specialized_squares_are_the_exact_square_at_the_point(dk):
    # standard_gld(d) for (d,), the d x k matrix module for (d, k), and
    # any other module squared as it is
    if isinstance(dk, WeightModule):
        V = dk
    elif len(dk) == 2:
        V = outer(*map(standard_gld, dk))
    else:
        V = standard_gld(*dk)
    exact = module_square(V)
    for q0 in PIN_POINTS:
        pair = module_square(specialize_module(V, q0))
        assert pair.sym == _at_point(exact.sym, q0)
        assert pair.ext == _at_point(exact.ext, q0)


def test_a_wrong_side_parity_fails_the_classical_dims():
    # V_(1,1,0) of gl_3 squares to V_(2,2,0) (sym) + V_(2,1,1) (ext);
    # sides generated at the swapped weight sets split 3/6, which fills
    # V ox V but is not the classical 6/3
    V = dcb_module((1, 1, 0))
    tt = tensor(V, V)
    sym, ext = (
        weight_rows_subspace(V.dim**2, _side_rows(tt, tops))
        for tops in reversed(_side_weights(V))
    )
    with pytest.raises(TheoremViolation, match="3/6, classical 6/3"):
        BraidedSquarePair(V, tt, sym, ext)


# ---------------------------------------------------------------------------
# gl_3 simples: the side rule needs no family to supply it


def test_gl3_squares_split_classically():
    splits = {(1, 1, 0): (6, 3), (2, 0, 0): (21, 15), (2, 2, 0): (21, 15)}
    for lam, split in splits.items():
        pair = module_square(dcb_module(lam))
        assert (pair.sym.dim, pair.ext.dim) == split
    assert _side_weights(dcb_module((1, 1, 0))) == ({(2, 2, 0)}, {(2, 1, 1)})


@pytest.mark.parametrize("lam", [(2, 0, 0), (2, 2, 0)])
@pytest.mark.parametrize("q0", [None, *PIN_POINTS])
def test_gl3_flat_powers_in_both_modes(lam, q0):
    V = dcb_module(lam)
    if q0 is not None:
        V = specialize_module(V, q0)
    assert power_dims(V, "sym", 3) == [1, 6, 21, 56]
    assert power_dims(V, "ext", 3) == [1, 6, 15, 20]


def test_gl3_sym_cube_of_v300_is_not_flat():
    # 156 < C(12, 3) = 220: an exact proof that the square is not flat
    V = dcb_module((3, 0, 0))
    want = {(9, 0, 0): 1, (7, 2, 0): 1, (5, 2, 2): 1, (4, 4, 1): 1}
    dec = decompose_power(V, "sym", 3)
    assert dict(dec) == want and dec.total_dim() == 156
    for q0 in PIN_POINTS:
        assert dict(decompose_power(specialize_module(V, q0), "sym", 3)) == want


def test_a_summand_on_both_sides_is_refused():
    # the adjoint of gl_3: (3,2,1) is a component of S^2 V and Lambda^2 V
    with pytest.raises(ValueError, match=r"\(3, 2, 1\)"):
        module_square(dcb_module((2, 1, 0)))
