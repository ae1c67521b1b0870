import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidpow import laurent as L
from braidpow.braided import (
    dim_sym_cube,
    rows_by_weight,
    square_gl2,
    tensor_weight,
)
from braidpow.qarith import (
    Subspace,
    sp_annihilator,
    sp_intersect,
    sp_kernel,
    sp_rank,
)
from braidpow.uqmod import simple_gl2

F = Fraction


def rand_laurent(rng, size=3, span=4):
    out = {}
    for _ in range(rng.randrange(size + 1)):
        out[rng.randrange(-span, span + 1)] = F(rng.randrange(-5, 6))
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
    g = L.lgcd(L.lmul(a, {0: F(6)}), L.lmul(b, {2: F(4)}))
    assert g == L.lshift(b, 1)  # primitive, lowest exponent 0: q^2 - 1
    with pytest.raises(ValueError):
        L.ldiv_exact(L.lq(2), L.ladd(L.lq(1), L.lconst(1)))


def test_quantum_integer_values():
    assert L.lqint(2) == {1: 1, -1: 1}
    assert L.lqint(3) == {2: 1, 0: 1, -2: 1}
    assert L.lqint(0) == {}
    assert L.lqint(-4) == L.lneg(L.lqint(4))


def test_quantum_integer_matches_defining_ratio():
    # (k)_d * (q^d - q^-d) == q^(kd) - q^(-kd)
    for d in (1, 2, 3):
        den = L.lsub(L.lq(d), L.lq(-d))
        for k in range(-5, 6):
            num = L.lsub(L.lq(k * d), L.lq(-k * d))
            assert L.lmul(L.lqint(k, d), den) == num


def test_quantum_integer_specializes_to_classical():
    # at q0 = 1 the denominator vanishes, so go through the summed form
    assert L.leval(L.lqint(5), F(1)) == 5
    assert L.leval(L.lqint(5, 3), F(1)) == 5


def test_llcm_includes_content():
    assert L.llcm({0: 4}, {0: 6}) == {0: 12}
    # 2(q - 1) and 3(q^2 - 1): lcm 6(q^2 - 1), up to units
    a = {1: 2, 0: -2}
    b = {2: 3, 0: -3}
    assert L.llcm(a, b) == {2: 6, 0: -6}
    assert L.llcm(L.lshift(a, 3), b) == {2: 6, 0: -6}
    assert L.llcm(a, {}) == {}


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
    assert Subspace.from_sparse(2, k).contains([L.lq(1), -1])
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
    assert Subspace.from_sparse(3, c).contains([1, 1, 0])
    q = L.lq(1)
    a2 = Subspace.span(3, [[1, q, 0], [0, 0, 1]])
    b2 = Subspace.span(3, [[1, q, 1]])
    ann2 = sp_annihilator(b2.sparse_rows(), range(3))
    c2 = Subspace.from_sparse(3, sp_intersect(a2.sparse_rows(), ann2))
    assert c2.dim == 1 and c2.contains([1, q, 1])


def test_intersect_properties():
    rng = random.Random(5)
    for _ in range(10):
        n = 4
        u = Subspace.span(n, rand_rows(rng, rng.randrange(1, 4), n))
        rows = u.sparse_rows()
        ann = sp_annihilator(rows, range(n))
        assert Subspace.from_sparse(n, sp_intersect(rows, ann)) == u
        full = Subspace.full(n).sparse_rows()
        assert sp_annihilator(full, range(n)) == []
        assert Subspace.from_sparse(n, sp_intersect(rows, [])) == u


def test_subspace_accepts_int_fraction_and_laurent_entries():
    q = L.lq(1)
    half = F(1, 2)
    s = Subspace.span(3, [[2, 0, 4], {1: half}])
    assert s == Subspace.span(3, [{0: {0: 1}, 2: {0: 2}}, [0, L.lq(5), 0]])
    assert s.dim == 2
    for vec in ([1, 0, 2], [half, 7, 1], {0: F(3, 4), 2: F(3, 2)}, {1: q}, [0, 0, 0]):
        assert s.contains(vec)
    for vec in ([1, 0, 0], {2: 1}, [q, 0, 2]):
        assert not s.contains(vec)
    t = Subspace.span(2, [[q, 1]])
    assert t.contains({0: L.lq(2), 1: q})
    assert t.contains([F(2, 3), {-1: F(2, 3)}])
    assert not t.contains([1, 1])


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
            special = sp_rank([{j: L.lconst(v) for j, v in enumerate(r)} for r in values])
            assert special == _frac_rank(values) <= exact


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
        assert span_a.contains(row) and span_b.contains(row)
    # the result is already the canonical basis of its span
    assert Subspace.from_sparse(n, meet).rows == tuple(meet)
    return meet


@MEET
@given(row_pair())
def test_annihilator_and_meet_on_small_rows(case):
    n, a, b = case
    _check_annihilator(a, range(n))
    _check_meet(a, b, range(n))


def _sym_cube_blocks(l):
    # per weight block of V^3: its columns, the rows of P^2 ox V and the
    # rows of V ox P^2, for the sym square of V_(l,0)
    V = simple_gl2(l, 0)
    d = V.dim
    sq = square_gl2(l).sym.sparse_rows()
    front = [{c * d + b: p for c, p in r.items()} for r in sq for b in range(d)]
    tail = [{h * d * d + c: p for c, p in r.items()} for h in range(d) for r in sq]
    weight = lambda c: tensor_weight(V, 3, c)
    by_front = rows_by_weight(front, weight)
    by_tail = rows_by_weight(tail, weight)
    blocks = {}
    for c in range(d**3):
        blocks.setdefault(weight(c), []).append(c)
    return [
        (cols, by_front.get(w, []), by_tail.get(w, []))
        for w, cols in sorted(blocks.items())
    ]


def test_meet_on_the_blocks_of_the_l3_sym_cube():
    total = sum(len(_check_meet(a, b, cols)) for cols, a, b in _sym_cube_blocks(3))
    assert total == dim_sym_cube(3)


@MEET
@given(st.data())
def test_meet_on_subsets_of_l3_sym_cube_blocks(data):
    blocks = [blk for blk in _sym_cube_blocks(3) if blk[1] and blk[2]]
    cols, a, b = data.draw(st.sampled_from(blocks))
    a = data.draw(st.lists(st.sampled_from(a), min_size=1, max_size=5))
    b = data.draw(st.lists(st.sampled_from(b), min_size=1, max_size=5))
    _check_meet(a, b, cols)
