import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import contains, sp_annihilator, sp_rank

from braidpow import laurent as L
from braidpow import acceptance, braided, gl3canon, qarith, uqmod
from braidpow.braided import (
    dim_ext_cube,
    dim_sym_cube,
    module_square,
    sample_points,
    weight_rows_dim,
)
from braidpow.errors import ModuleAuditError
from braidpow.qarith import (
    Subspace,
    fp_rref,
    span_basis,
    sp_intersect,
    sp_kernel,
)
from braidpow.uqmod import dominant, simple_gl2, tensor

F = Fraction


def rand_laurent(rng, size=3, span=4):
    out = {}
    for _ in range(rng.randrange(size + 1)):
        out[rng.randrange(-span, span + 1)] = rng.randrange(-5, 6)
    return {e: c for e, c in out.items() if c}


def rand_rows(rng, nrows, ncols, size=2, span=2):
    rows = []
    for _ in range(nrows):
        row = {j: rand_laurent(rng, size, span) for j in range(ncols)}
        rows.append({j: p for j, p in row.items() if p})
    return rows


def dot(row, vec):
    acc = {}
    for c, p in row.items():
        acc = L.ladd(acc, L.lmul(p, vec.get(c, {})))
    return acc


def test_laurent_ring_ops():
    a = {1: F(1), 0: F(2)}
    b = {-1: F(3)}
    assert L.ladd(a, L.lneg(a)) == {}
    assert L.lmul(a, b) == {0: F(3), -1: F(6)}
    assert L.lmul(a, {}) == {}
    assert L.lshift(b, 2) == {1: F(3)}
    assert L.leval(a, F(2)) == F(4)


def test_laurent_eval_is_ring_hom():
    rng = random.Random(7)
    q0 = F(3, 2)
    for _ in range(50):
        a, b = rand_laurent(rng), rand_laurent(rng)
        assert L.leval(L.ladd(a, b), q0) == L.leval(a, q0) + L.leval(b, q0)
        assert L.leval(L.lmul(a, b), q0) == L.leval(a, q0) * L.leval(b, q0)


def test_laurent_gcd_and_exact_division():
    # (q - q^-1) divides (q^3 - q^-3); quotient is the balanced 3
    a = L.lsub(L.lq(3), L.lq(-3))
    b = L.lsub(L.lq(1), L.lq(-1))
    assert L.ldiv_exact(a, b) == L.lqint(3)
    g = L.lgcd(L.lmul(a, {0: 6}), L.lmul(b, {2: 4}))
    assert g == L.lshift(b, 1)  # primitive, lowest exponent 0: q^2 - 1
    with pytest.raises(ValueError):
        L.ldiv_exact(L.lq(2), L.ladd(L.lq(1), L.lconst(1)))
    # the quotient 3/2 is not in Z[q, 1/q]
    with pytest.raises(ValueError):
        L.ldiv_exact({0: 3}, {0: 2})


def test_quantum_integer_values():
    assert L.lqint(2) == {1: 1, -1: 1}
    assert L.lqint(3) == {2: 1, 0: 1, -2: 1}
    assert L.lqint(0) == {}
    assert L.lqint(-4) == L.lneg(L.lqint(4))


def test_quantum_integer_matches_defining_ratio():
    # (k) * (q - q^-1) == q^k - q^-k
    den = L.lsub(L.lq(1), L.lq(-1))
    for k in range(-5, 6):
        num = L.lsub(L.lq(k), L.lq(-k))
        assert L.lmul(L.lqint(k), den) == num


def test_quantum_integer_specializes_to_classical():
    # at q0 = 1 the denominator vanishes, so go through the summed form
    assert L.leval(L.lqint(5), F(1)) == 5


def test_row_reduce_rank_one():
    q = L.lq(1)
    rows = [{0: L.ONE, 1: q}, {0: L.lq(-1), 1: L.ONE}]
    s = Subspace.from_sparse(2, rows)
    assert s.dim == 1
    assert s.sparse_rows() == [{0: {0: 1}, 1: {1: 1}}]
    assert sp_rank(rows) == 1


def test_kernel_example():
    rows = [{0: L.ONE, 1: L.lq(1)}, {0: L.lq(-1), 1: L.ONE}]
    k = sp_kernel(rows, 2)
    assert len(k) == 1
    assert contains(Subspace.from_sparse(2, k), [L.lq(1), -1])
    for row in rows:
        assert dot(row, k[0]) == {}


def test_kernel_dimension_formula():
    rng = random.Random(23)
    for _ in range(20):
        rows_n, cols_n = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = rand_rows(rng, rows_n, cols_n)
        assert len(sp_kernel(rows, cols_n)) == cols_n - sp_rank(rows)


def test_sp_kernel_rows_are_primitive_and_annihilate():
    rng = random.Random(41)
    for _ in range(25):
        rows_n, cols_n = rng.randrange(1, 5), rng.randrange(2, 7)
        rows = rand_rows(rng, rows_n, cols_n, size=3, span=3)
        for z in sp_kernel(rows, cols_n):
            for row in rows:
                assert dot(row, z) == {}
            coeffs = [v for p in z.values() for v in p.values()]
            assert all(type(v) is int for v in coeffs)
            assert min(e for p in z.values() for e in p) == 0
            g = {}
            for p in z.values():
                g = L.lgcd(g, p)
            assert g == L.ONE


def test_intersect_known():
    a = Subspace.span(3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace.span(3, [[1, 1, 0], [0, 0, 1]])
    c = sp_intersect(a.sparse_rows(), sp_annihilator(b.sparse_rows(), range(3)))
    assert len(c) == 1
    assert contains(Subspace.from_sparse(3, c), [1, 1, 0])
    q = L.lq(1)
    a2 = Subspace.span(3, [[1, q, 0], [0, 0, 1]])
    b2 = Subspace.span(3, [[1, q, 1]])
    ann2 = sp_annihilator(b2.sparse_rows(), range(3))
    c2 = Subspace.from_sparse(3, sp_intersect(a2.sparse_rows(), ann2))
    assert c2.dim == 1 and contains(c2, [1, q, 1])


def test_intersect_properties():
    rng = random.Random(5)
    for _ in range(10):
        n = 4
        u = Subspace.span(n, rand_rows(rng, rng.randrange(1, 4), n))
        rows = u.sparse_rows()
        ann = sp_annihilator(rows, range(n))
        assert Subspace.from_sparse(n, sp_intersect(rows, ann)) == u
        full = [{i: dict(L.ONE)} for i in range(n)]
        assert sp_annihilator(full, range(n)) == []
        assert Subspace.from_sparse(n, sp_intersect(rows, [])) == u


def test_subspace_accepts_int_fraction_and_laurent_entries():
    q = L.lq(1)
    half = F(1, 2)
    s = Subspace.span(3, [[2, 0, 4], {1: half}])
    assert s == Subspace.span(3, [{0: {0: 1}, 2: {0: 2}}, [0, L.lq(5), 0]])
    assert s.dim == 2
    for vec in ([1, 0, 2], [half, 7, 1], {0: F(3, 4), 2: F(3, 2)}, {1: q}, [0, 0, 0]):
        assert contains(s, vec)
    for vec in ([1, 0, 0], {2: 1}, [q, 0, 2]):
        assert not contains(s, vec)
    t = Subspace.span(2, [[q, 1]])
    assert contains(t, {0: L.lq(2), 1: q})
    assert contains(t, [F(2, 3), {-1: F(2, 3)}])
    assert not contains(t, [1, 1])


def _frac_rank(rows):
    rows = [list(r) for r in rows]
    rank_ = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        rank_ += 1
    return rank_


def test_rank_only_drops_under_specialization():
    rng = random.Random(31)
    for _ in range(15):
        rows = rand_rows(rng, 3, 3)
        exact = sp_rank(rows)
        for q0 in (F(97, 101), F(103, 107)):
            values = [[L.leval(row.get(j, {}), q0) for j in range(3)] for row in rows]
            special = Subspace.span(3, values).dim
            assert special == _frac_rank(values) <= exact


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(
                st.dictionaries(
                    st.integers(-2, 2), st.integers(-3, 3).filter(bool), max_size=3
                ),
                min_size=n,
                max_size=n,
            ),
            max_size=4,
        )
    ),
    st.integers(0, 200).map(lambda seed: sample_points(seed)[0]),
)
def test_fp_rank_at_the_image_of_q0_is_the_rank_at_q0(rows, q0):
    """Int Laurent rows evaluated at q0 over Q and at its image x in F_P
    have the same rank (P divides no minor of rows this small)."""
    x = L.fp(q0)
    fp_rows = [{j: L.leval_fp(p, x) for j, p in enumerate(r)} for r in rows]
    values = [[L.leval(p, q0) for p in r] for r in rows]
    assert len(fp_rref(fp_rows, L.P)) == _frac_rank(values)


def _nonnegative(row):
    # the row times the q power that makes its lowest exponent 0
    low = min((min(p) for p in row.values()), default=0)
    return {j: L.lshift(p, -low) for j, p in row.items()}


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(
                    st.dictionaries(
                        st.integers(-2, 2), st.integers(-3, 3).filter(bool), max_size=2
                    ),
                    min_size=n,
                    max_size=n,
                ),
                max_size=3,
            ),
        )
    )
)
def test_rank_and_kernel_agree_with_sympy_over_qq_q(case):
    """sp_rank and sp_kernel over Q(q) against SymPy's DomainMatrix over
    the field QQ(q): the same rank, and kernels of the same dimension
    that each lie in the other's span."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    n, raw = case
    rows = [_nonnegative({j: p for j, p in enumerate(r) if p}) for r in raw]
    q = sympy.Symbol("q")
    K = sympy.QQ.frac_field(q)

    def entry(p):
        return K.from_sympy(sum(c * q**e for e, c in p.items()))

    def matrix(vecs):
        entries = [[entry(v.get(j, {})) for j in range(n)] for v in vecs]
        return DomainMatrix(entries, (len(vecs), n), K)

    system = matrix(rows)
    assert sp_rank(rows) == system.rank()
    ours = matrix(sp_kernel(rows, n))
    theirs = system.nullspace()
    assert ours.shape[0] == theirs.shape[0] == n - system.rank()
    assert ours.rank() == ours.vstack(theirs).rank() == ours.shape[0]
    # the unit rows met with ker(rows) span that same kernel
    units = [{j: dict(L.ONE)} for j in range(n)]
    meet = sp_intersect(units, rows)
    assert len(meet) == theirs.shape[0]
    if meet:
        assert matrix(meet).vstack(theirs).rank() == len(meet)


def test_row_reduce_deterministic():
    q = L.lq(1)
    rows = [
        [L.lq(2), 1, 0],
        [1, L.lq(-1), 1],
        [q, 0, 2],
    ]
    s = Subspace.span(3, rows)
    assert s == Subspace.span(3, rows)
    # the stripped reduced echelon basis is canonical: any spanning set
    # of the same space gives the same fields
    assert s == Subspace.span(3, [rows[2], rows[0], rows[1], rows[0]])


def test_sp_kernel_of_empty_system_is_full():
    vecs = sp_kernel([], 3)
    assert len(vecs) == 3


# ---------------------------------------------------------------------------
# the meet against an annihilator

MEET = settings(derandomize=True, database=None, max_examples=60, deadline=None)

# small int entries and monomials q^e, so Laurent rows appear as well
entries = st.one_of(st.integers(-3, 3), st.integers(-2, 2).map(L.lq))


def _sparse(row):
    return {
        j: x if isinstance(x, dict) else L.lconst(x) for j, x in enumerate(row) if x
    }


@st.composite
def row_pair(draw):
    n = draw(st.integers(1, 5))
    rows = st.lists(st.lists(entries, min_size=n, max_size=n), max_size=4)
    return n, [_sparse(r) for r in draw(rows)], [_sparse(r) for r in draw(rows)]


def _check_annihilator(rows, cols):
    ann = sp_annihilator(rows, cols)
    for a in ann:
        assert set(a) <= set(cols)
        for row in rows:
            assert dot(row, a) == {}
    assert len(ann) + sp_rank(rows) == len(cols)
    return ann


def _check_meet(a, b, cols):
    n = max(cols) + 1
    meet = sp_intersect(a, _check_annihilator(b, cols))
    assert len(meet) == sp_rank(a) + sp_rank(b) - sp_rank(a + b)
    span_a, span_b = Subspace.from_sparse(n, a), Subspace.from_sparse(n, b)
    for row in meet:
        assert contains(span_a, row) and contains(span_b, row)
    # the result is already the canonical basis of its span
    assert Subspace.from_sparse(n, meet).rows == tuple(meet)
    return meet


@MEET
@given(row_pair())
def test_annihilator_and_meet_on_small_rows(case):
    n, a, b = case
    _check_annihilator(a, range(n))
    _check_meet(a, b, range(n))


def _blocks(front, tail, weights):
    # per weight block of an ambient with column weights `weights`: its
    # weight, its columns, and the front and tail rows in it
    blocks = {}
    for c, w in enumerate(weights):
        blocks.setdefault(w, []).append(c)

    def rows_in(rows, w):
        return [row for row in rows if row and weights[min(row)] == w]

    return [
        (w, cols, rows_in(front, w), rows_in(tail, w))
        for w, cols in sorted(blocks.items())
    ]


def _cube_blocks(l, side="sym"):
    # the blocks of V^3 with the rows of P^2 ox V and of V ox P^2, for
    # one side P^2 of the square of V_(l,0)
    V = simple_gl2(l, 0)
    d = V.dim
    sq = getattr(module_square(V), side).sparse_rows()
    front = [{c * d + b: p for c, p in r.items()} for r in sq for b in range(d)]
    tail = [{h * d * d + c: p for c, p in r.items()} for h in range(d) for r in sq]
    return _blocks(front, tail, tensor(tensor(V, V), V).weights)


def _reference_meet(blocks):
    # front meet tail by sp_intersect, {weight: rows}, each block checked
    out = {}
    for w, cols, a, b in blocks:
        meet = _check_meet(a, b, cols)
        if meet:
            out[w] = meet
    return out


def test_meet_on_the_blocks_of_the_l3_sym_cube():
    # every cube with l <= 4, the l = 3 sym cube among them, on both
    # sides: the power step gives the reference meet, block by block
    for l in range(5):
        V = simple_gl2(l, 0)
        for side, dim in (("sym", dim_sym_cube(l)), ("ext", dim_ext_cube(l))):
            want = _reference_meet(_cube_blocks(l, side))
            assert weight_rows_dim(want) == dim
            # the level holds coordinates over P^2 ox V; expanded into
            # V^(ox 3), each block spans the reference meet's block
            got = oracles._absolute(V, side, 3, braided._level(V, side, 3))
            assert {w: span_basis(rows) for w, rows in got.items()} == want
            assert weight_rows_dim(got) == dim


def test_triple_product_step_is_the_reference_meet(monkeypatch):
    # the meet that _triple_product_exact decomposes, for every beta <= 2:
    # its dominant blocks, the only ones built and decomposed, and the
    # whole meet from _meet_step over every weight
    seen = []
    meet = braided._meet_step
    monkeypatch.setattr(
        braided,
        "_meet_step",
        lambda *args: seen.append(meet(*args)) or seen[-1],
    )
    for beta in product(range(3), repeat=3):
        v1, v2, v3 = (simple_gl2(b, 0) for b in beta)
        t12, t23 = tensor(v1, v2), tensor(v2, v3)
        t = tensor(t12, v3)
        for parity in (0, 1):
            # the eps-layers (a + b - k, k), k = parity mod 2, of V_a ox V_b
            def layers(a, b):
                return [(a + b - k, k) for k in range(min(a, b) + 1) if k % 2 == parity]

            b12 = braided._side_rows(t12, layers(beta[0], beta[1]))
            b23 = braided._side_rows(t23, layers(beta[1], beta[2]))
            front = [
                {c * v3.dim + b: p for c, p in r.items()}
                for w in sorted(b12)
                for r in b12[w]
                for b in range(v3.dim)
            ]
            tail = [
                {h * t23.dim + c: p for c, p in r.items()}
                for h in range(v1.dim)
                for w in sorted(b23)
                for r in b23[w]
            ]
            want = _reference_meet(_blocks(front, tail, t.weights))
            braided._triple_product_exact(beta, parity, None)
            got = oracles._expand(seen.pop(), braided._level_rows(b12), v3.dim, None)
            assert {w: span_basis(rows) for w, rows in got.items()} == {
                w: rows for w, rows in want.items() if dominant(w, (2,))
            }
            assert weight_rows_dim(got) == sum(len(want.get(w, [])) for w in got)
            # the whole meet holds coordinates over bullet12 ox V_b3; each
            # block, expanded over the rows of bullet12, spans the reference
            ann_at = braided._ann_by_column(b23, t23.weight_blocks(), None)
            whole = meet(b12, ann_at, v2.dim, v3, braided._meet_weights(b12, v3))
            whole = oracles._expand(whole, braided._level_rows(b12), v3.dim, None)
            assert {w: span_basis(rows) for w, rows in whole.items()} == want
            assert weight_rows_dim(whole) == weight_rows_dim(want)


@MEET
@given(st.data())
def test_meet_on_subsets_of_l3_sym_cube_blocks(data):
    blocks = [blk for blk in _cube_blocks(3) if blk[2] and blk[3]]
    _, cols, a, b = data.draw(st.sampled_from(blocks))
    a = data.draw(st.lists(st.sampled_from(a), min_size=1, max_size=5))
    b = data.draw(st.lists(st.sampled_from(b), min_size=1, max_size=5))
    _check_meet(a, b, cols)


# ---------------------------------------------------------------------------
# the F_P rank screen only skips work: results never depend on its point


def _unscreened(rows, n):
    # sp_rank, sp_kernel and sp_intersect with the screen point proving
    # nothing: its rank reads 0 and it picks no equation, so sp_kernel's
    # kernel there is every unit vector, which any nonzero equation
    # rejects, and the first further point (_CERTIFY_X) answers
    screen = qarith._screen
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            qarith,
            "_screen",
            lambda rows, ncols, x=qarith._SCREEN_X: [] if x == qarith._SCREEN_X else screen(rows, ncols, x),
        )
        units = [{j: dict(L.ONE)} for j in range(n)]
        return sp_rank(rows), sp_kernel(rows, n), sp_intersect(units, rows)


def test_screen_point_is_not_a_root_of_unity_of_small_order():
    for x in (qarith._SCREEN_X, *qarith._CERTIFY_X):
        assert 1 < x < L.P
        assert all(pow(x, k, L.P) != 1 for k in range(1, 5000))


def test_a_rank_drop_at_the_screen_point_falls_back_to_the_exact_path():
    # det [[q, 1], [x, 1]] = q - x vanishes at the screen point x only
    x = qarith._SCREEN_X
    rows = [{0: L.lq(1), 1: dict(L.ONE)}, {0: {0: x}, 1: dict(L.ONE)}]
    assert qarith._screen(rows, 2) == [0]
    assert sp_rank(rows) == 2
    assert sp_kernel(rows, 2) == []
    units = [{0: dict(L.ONE)}, {1: dict(L.ONE)}]
    assert sp_intersect(units, rows) == []
    assert _unscreened(rows, 2) == (2, [], [])


def _vanishing_at(k):
    # [[q^k, 1], [q^k - D, 1]] with det D = prod (q - x) over the first k
    # screen points x: of the four points, its rank drops to 1 at those k
    det = dict(L.ONE)
    for x in (qarith._SCREEN_X, *qarith._CERTIFY_X)[:k]:
        det = L.lmul(det, {1: 1, 0: -x})
    return [{0: L.lq(k), 1: dict(L.ONE)}, {0: L.lsub(L.lq(k), det), 1: dict(L.ONE)}]


def _spy(monkeypatch):
    # the row count of each elimination and the point of each screen
    eliminated, points = [], []
    kernel_rows, screen = qarith._kernel_rows, qarith._screen
    monkeypatch.setattr(
        qarith,
        "_kernel_rows",
        lambda rows, n: eliminated.append(len(rows)) or kernel_rows(rows, n),
    )
    monkeypatch.setattr(
        qarith,
        "_screen",
        lambda rows, n, x=qarith._SCREEN_X: points.append(x) or screen(rows, n, x),
    )
    return eliminated, points


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_rank_drop_at_the_screen_point_is_certified_at_a_second_point(monkeypatch, k):
    # at each of the first k points the one row the screen picks has a
    # line for its kernel, which the second row rejects, so the next
    # point is tried; the point after them ranks the system fully, which
    # proves the empty kernel
    rows = _vanishing_at(k)
    screen = qarith._screen
    eliminated, points = _spy(monkeypatch)
    assert sp_kernel(rows, 2) == []
    assert eliminated == [1] * k
    assert points == [qarith._SCREEN_X, *qarith._CERTIFY_X][: k + 1]
    assert len(screen(rows, 2, points[-1])) == 2


def test_a_rank_drop_at_every_screen_point_raises(monkeypatch):
    # the kernel of the raised row never pairs to 0 with the other row,
    # and no point is left to rank the system exactly: no kernel returns
    eliminated, points = _spy(monkeypatch)
    with pytest.raises(ModuleAuditError, match="does not pair to 0 .* at any screen point"):
        sp_kernel(_vanishing_at(4), 2)
    assert eliminated == [1] * 4
    assert points == [qarith._SCREEN_X, *qarith._CERTIFY_X]


def test_a_kernel_short_of_a_row_raises_at_the_first_point(monkeypatch):
    # one equation in three unknowns: the one elimination's kernel, less
    # its last row, still pairs to 0, so its count is a fault and raises
    # at once, with no second point tried
    rows = [{0: L.lq(1), 1: {0: 2}, 2: L.lqint(2)}]
    eliminated, points = _spy(monkeypatch)
    kernel_rows = qarith._kernel_rows
    monkeypatch.setattr(qarith, "_kernel_rows", lambda rows, n: kernel_rows(rows, n)[:-1])
    with pytest.raises(ModuleAuditError, match="1 kernel rows of a 3-column .* leaves room for 2"):
        sp_kernel(rows, 3)
    assert eliminated == [1]
    assert points == [qarith._SCREEN_X]


def test_a_full_rank_proven_at_the_screen_point_skips_the_elimination(monkeypatch):
    rows = [{0: L.lq(1), 1: {0: 2}}, {0: {0: 1, 2: 1}, 1: L.lq(-1)}, {1: {0: 3}}]

    def refuse(*args, **kwargs):
        raise AssertionError("the screen should have answered")

    monkeypatch.setattr(qarith, "sp_echelon", refuse)
    assert sp_kernel(rows, 2) == []
    assert sp_intersect([{0: dict(L.ONE)}, {1: dict(L.ONE)}], rows) == []


def test_the_program_reads_each_exact_rank_off_a_certified_kernel(monkeypatch):
    # the gl_3 minors and decompose's highest-weight counts: one
    # sp_kernel per minor and per dominant block, and no sp_echelon
    def refuse(*args, **kwargs):
        raise AssertionError("an exact rank went round the certificate")

    def counted(owner):
        kernel = owner.sp_kernel
        monkeypatch.setattr(owner, "sp_kernel", lambda *a: calls.append(owner) or kernel(*a))

    calls = []
    monkeypatch.setattr(qarith, "sp_echelon", refuse)
    counted(gl3canon)
    counted(uqmod)
    assert acceptance.gl3_sweep()["minors"] == 980
    assert calls.count(gl3canon) == 980
    got = uqmod.decompose(tensor(simple_gl2(2, 0), simple_gl2(3, 0)))
    assert got == {(5, 0): 1, (4, 1): 1, (3, 2): 1}
    assert calls.count(uqmod) == 3


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(
                    st.dictionaries(
                        st.integers(-2, 2), st.integers(-3, 3).filter(bool), max_size=2
                    ),
                    min_size=n,
                    max_size=n,
                ),
                max_size=6,
            ),
        )
    )
)
def test_screened_answers_equal_the_unscreened_elimination(case):
    n, raw = case
    rows = [{j: p for j, p in enumerate(r) if p} for r in raw]
    units = [{j: dict(L.ONE)} for j in range(n)]
    screened = sp_rank(rows), sp_kernel(rows, n), sp_intersect(units, rows)
    assert screened == _unscreened(rows, n)
