"""Braided symmetric and exterior powers and their decompositions.

The braiding never appears as a matrix.  A braided square is pinned down
as a pair of submodules (sym, ext) of V ox V, and the n-th braided power
of a side I is the intersection of all slot placements of I inside
V^{ox n}.  Computationally only one new intersection per degree is
needed, and its tail enters through its annihilator under the standard
pairing x . y = sum_c x_c y_c:

    P^n(I) = (P^{n-1}(I) ox V)  meet  ker(V^{ox n-2} ox Ann(I))

Ann(I) is the kernel of I's rows inside each weight block of V ox V and
is built once per power.  Every intersection happens inside a single
gl-weight block and eliminates only the pairings of the front rows with
the annihilator rows, which keeps the exact linear algebra on small
matrices even when the ambient tensor power is large.

A specialized module (over F_P, see specialize_module) uses the
relative tower instead.  P^(n-1) lies in P^(n-2) ox V, so

    P^n(I) = (P^{n-1}(I) ox V)  meet  (P^{n-2}(I) ox I)

and each P^n is stored only by its relative coordinates over
P^(n-1) ox V.  A weight block has one unknown per (basis vector of
P^(n-1), basis vector of V) and one equation per (basis vector p_i of
P^(n-2), row of Ann(I) at the matching weight), so no size grows like
dim V^(n-2); the int kernel qarith.fp_kernel solves it.  braided_power
expands the tower into V^{ox n} only when a Subspace is asked for.
Exact mode stays on the meet above: over Q(q) the relative coordinates
are raw kernel vectors whose q-degrees grow, and the tower measured
2-5x slower there.

Every square, over either field, is built by one route (_side_rows): a
side is the submodule of V ox V generated under the F_i by the
highest-weight vectors of one side parity, the sum over gl blocks of the
boxes moved below the first row, taken mod 2 (even for sym, odd for
ext).  That is classical plethysm for a module that is Sym^a ox det^c on
each block, as every supported one is: S^2(Sym^a) is the sum of the
S_(2a-k,k) with k even, and for an outer product over gl_d x gl_k,
S^2(A ox B) = S^2 A ox S^2 B + Lambda^2 A ox Lambda^2 B.  The braided
sides sit on the same Clebsch-Gordan summands.  The triple product's
bullet rows come from the same route.  Over F_P every row is an int row
{col: int}, the specialized triple product is one tower step, and
components are read off weight dims (decompose_weight_dims), never off
highest-weight counts.

Every construction here happens once per module object and is stored on
it (WeightModule._stored): module_square(V) stores its pair on V, and
each (V, square) keeps one list of power levels that is extended only as
far as a caller asks, which power_weight_rows, power_dims and
braided_power read.  The gl_2 simples and standard modules are shared
instances (see uqmod), so every stage of one process reuses their
squares and levels.  Stored rows and subspaces are read-only.  A failed
construction is not stored: the next call builds it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import comb
import random

from .errors import GuardError, TheoremViolation
from .laurent import ONE, ladd, lmul, lshift
from .qarith import (
    Subspace,
    fp_kernel,
    fp_rref,
    sp_annihilator,
    sp_apply,
    sp_intersect,
    sp_span_echelon,
)
from .uqmod import (
    IrrepMultiset,
    WeightModule,
    decompose_weight_dims,
    decompose_weight_rows,
    dim_irrep,
    dominant,
    highest_weight_vectors,
    module_weight_rows,
    pairing,
    simple_gl2,
    specialize_module,
    standard_gld,
    outer,
    tensor,
)

# q0 samples for the specialize mode are ratios of distinct primes from
# this pool; a wrong-rank accident would have to survive two of them.
_SAMPLE_PRIMES = (
    97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163,
    167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239,
    241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313, 317,
    331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409,
    419, 421, 431, 433, 439, 443, 449, 457, 461, 463, 467, 479, 487, 491,
    499,
)


def sample_points(seed) -> list[Fraction]:
    rng = random.Random(seed)
    out = []
    while len(out) < 2:
        p, pp = rng.sample(_SAMPLE_PRIMES, 2)
        q0 = Fraction(p, pp)
        if q0 not in out:
            out.append(q0)
    return out


def run_mode(mode: str, seed, compute):
    """Run compute in one mode; returns (result, samples).  Exact mode
    returns compute(None) and no samples.  Specialize mode runs
    compute(q0) at the two sample points of seed and returns the shared
    result and the points as strings; it raises ArithmeticError when the
    two results differ, or when a sample is outside the support of a
    module (see specialize_module).  Any other mode is a ValueError,
    raised before compute runs.

    compute is expected to work over F_P at the image of q0 (through
    at_point), so each run keeps every coefficient within 61 bits.  Two
    agreeing samples are evidence for the generic answer over Q(q), not
    a certificate: a dimension at a point can differ from the generic
    one, and the sample pool is too small for the Schwartz-Zippel bound
    (Schwartz 1980; Zippel 1979) to say how rarely."""
    if mode == "exact":
        return compute(None), []
    if mode != "specialize":
        raise ValueError(f"unknown mode {mode!r}")
    pts = sample_points(seed)
    first, second = (compute(q0) for q0 in pts)
    if first != second:
        raise ArithmeticError("specialization samples disagree; rerun in exact mode")
    return first, [str(q0) for q0 in pts]


def at_point(V: WeightModule, q0) -> WeightModule:
    """V itself for q0 None (exact mode), else V specialized at q0."""
    return V if q0 is None else specialize_module(V, q0)


# ---------------------------------------------------------------------------
# weight-blocked subspaces of tensor powers


def tensor_weight(V: WeightModule, n: int, idx: int) -> tuple:
    total = (0,) * len(V.weights[0])
    for _ in range(n):
        idx, j = divmod(idx, V.dim)
        total = tuple(a + b for a, b in zip(total, V.weights[j]))
    return total


def rows_by_weight(rows, weight_of) -> dict:
    out: dict[tuple, list] = {}
    for row in rows:
        if row:
            out.setdefault(weight_of(min(row)), []).append(row)
    return out


def subspace_weight_rows(sub: Subspace, weight_of) -> dict:
    rows = sub.sparse_rows()
    for row in rows:
        ws = {weight_of(c) for c in row}
        if len(ws) > 1:
            raise ValueError("subspace is not weight homogeneous")
    return rows_by_weight(rows, weight_of)


def weight_rows_dim(wrows: dict) -> int:
    return sum(len(rows) for rows in wrows.values())


def weight_rows_subspace(ambient: int, wrows: dict, modulus=None) -> Subspace:
    rows = []
    for w in sorted(wrows):
        rows.extend(wrows[w])
    return Subspace.from_sparse(ambient, rows, modulus)


def _side_rows(m: WeightModule, top: tuple, parity: int) -> dict:
    """Rows per weight of the submodule of m generated by its
    highest-weight vectors nu of side parity `parity`, the sum over gl
    blocks b of top[start_b] - nu[start_b] mod 2.  Weights are walked in
    descending lex order, so the rows of each w + alpha_i come before w;
    the rows of w are their F_i-images plus, at a dominant w of that
    parity, its highest-weight vectors, echelonized: stripped Laurent
    rows over Q(q), rows {col: int} mod P over F_P.  Stored on m."""

    def build() -> dict:
        p = m.modulus
        starts = [sum(m.blocks[:b]) for b in range(len(m.blocks))]
        out: dict[tuple, list] = {}
        for w in sorted(m.weight_blocks(), reverse=True):
            rows = []
            for alpha, f in zip(m.alphas, m.f_ops):
                for v in out.get(tuple(a + b for a, b in zip(w, alpha)), ()):
                    if p is None:
                        rows.append(sp_apply(f, v))
                        continue
                    img: dict[int, int] = {}
                    for c, t in v.items():
                        for r, e in f.get(c, {}).items():
                            img[r] = img.get(r, 0) + t * e[0]
                    rows.append(img)
            if dominant(w, m.blocks) and sum(top[s] - w[s] for s in starts) % 2 == parity:
                rows += highest_weight_vectors(m, w).sparse_rows()
            if p is None:
                rows = sp_span_echelon(rows)
            else:
                piv = fp_rref(rows, p)
                rows = [piv[c] for c in sorted(piv)]
            if rows:
                out[w] = rows
        return out

    return m._stored(("side", top, parity), build)


# ---------------------------------------------------------------------------
# braided squares


@dataclass
class BraidedSquarePair:
    """sym and ext sides of V ox V, each stable under the quantum group."""

    module: WeightModule
    square_module: WeightModule
    sym: Subspace
    ext: Subspace

    def __post_init__(self):
        n2 = self.module.dim**2
        if self.sym.dim + self.ext.dim != n2:
            raise TheoremViolation(
                f"square sides of {self.module.kind} do not fill V ox V: "
                f"{self.sym.dim} + {self.ext.dim} != {n2}"
            )


def square_gl2(l: int) -> BraidedSquarePair:
    """Braided square of the gl_2 simple V_(l,0): sigma acts by (-1)^m on
    the m-th Clebsch-Gordan summand, so sym collects the even layers and
    ext the odd ones."""
    return module_square(simple_gl2(l, 0))


def _square_sides(V: WeightModule, top: tuple) -> BraidedSquarePair:
    """Both sides of V ox V for a module whose highest weight is top / 2
    and which is Sym^a ox det^c on each gl block: its sym side is
    generated by the highest-weight vectors of side parity 0, its ext
    side by those of parity 1 (see _side_rows)."""
    tt = tensor(V, V)
    sym, ext = (
        weight_rows_subspace(V.dim**2, _side_rows(tt, top, parity), V.modulus)
        for parity in (0, 1)
    )
    return BraidedSquarePair(V, tt, sym, ext)


def _square_of_simple(V: WeightModule) -> BraidedSquarePair:
    _, l1, l2 = _unspecialized_kind(V)
    return _square_sides(V, (2 * l1, 2 * l2))


def square_standard(d: int) -> BraidedSquarePair:
    """Braided square of the vector representation of gl_d."""
    return module_square(standard_gld(d))


def _standard_top(d: int) -> tuple:
    # the highest weight of the square of the vector representation of gl_d
    return (2,) + (0,) * (d - 1)


def _square_of_standard(V: WeightModule) -> BraidedSquarePair:
    return _square_sides(V, _standard_top(V.dim))


def square_matrix_module(d: int, k: int) -> BraidedSquarePair:
    """Braided square of the d x k matrix module over gl_d x gl_k."""
    return module_square(outer(standard_gld(d), standard_gld(k)))


# ---------------------------------------------------------------------------
# braided powers


def annihilator_rows(wrows: dict, blocks: dict) -> dict:
    """Annihilator of a weight-blocked subspace over Q(q), {weight: rows},
    under the standard pairing.  blocks maps every weight of the ambient
    module to its columns; a weight that wrows leaves empty keeps its
    whole block."""
    out = {}
    for w, cols in blocks.items():
        rows = sp_annihilator(wrows.get(w, []), cols)
        if rows:
            out[w] = rows
    return out


def _slot_meet(
    front_rows: dict, back: WeightModule, head_weights, tail_ann: dict, tail_dim: int
) -> dict:
    """(front ox back) meet (head ox tail), one weight block at a time.
    front_rows is {weight: rows}; back is the module in the last slot,
    head_weights lists the head factor's weights in index order, and the
    tail factor, of dimension tail_dim, is given by its annihilator
    tail_ann = annihilator_rows(tail, ...).  The annihilator of
    head ox tail is head ox tail_ann, laid out block diagonally."""
    d = back.dim
    front: dict[tuple, list] = {}
    for w in sorted(front_rows):
        for row in front_rows[w]:
            for b in range(d):
                wb = tuple(a + x for a, x in zip(w, back.weights[b]))
                front.setdefault(wb, []).append(
                    {c * d + b: p for c, p in row.items()}
                )
    anns: dict[tuple, list] = {}
    for h, wh in enumerate(head_weights):
        base = h * tail_dim
        for wt, rows in tail_ann.items():
            w = tuple(a + x for a, x in zip(wh, wt))
            if w in front:
                anns.setdefault(w, []).extend(
                    {base + c: p for c, p in row.items()} for row in rows
                )
    out: dict[tuple, list] = {}
    for w in sorted(front):
        rows = sp_intersect(front[w], anns.get(w, []))
        if rows:
            out[w] = rows
    return out


def _power_step(prev: dict, square_ann: dict, V: WeightModule, n: int) -> dict:
    """prev holds P^(n-1) blocked over V^(n-1) weights and square_ann is
    Ann(P^2); returns P^n = (P^(n-1) ox V) meet ker(V^(n-2) ox Ann(P^2))."""
    heads = [tensor_weight(V, n - 2, i) for i in range(V.dim ** (n - 2))]
    return _slot_meet(prev, V, heads, square_ann, V.dim**2)


def _levels(square: Subspace, V: WeightModule, n: int) -> list:
    """[P^0, ..., P^n] of the side of V ox V spanned by square, as _powers
    yields them.  One list per (V, square) is stored on V and extended
    only as far as asked; the entry keeps square alive, so its id stays
    a unique key.  A level that fails to build drops the entry."""
    key = ("powers", id(square))
    _, levels, rest = V._stored(key, lambda: (square, [], _powers(square, V)))
    try:
        while len(levels) <= n:
            levels.append(next(rest))
    except BaseException:
        V._forget(key)
        raise
    return levels[: n + 1]


def _powers(square: Subspace, V: WeightModule):
    """Yield P^0, P^1, P^2, ... of the side of V ox V spanned by square,
    each as {weight: rows}.  Over Q(q) the rows are vectors of V^(ox n);
    a specialized module (V.modulus set) runs the relative tower instead
    (see _tower).  Ann(P^2) is built once, when degree 3 is asked for."""
    if square.modulus != V.modulus:
        raise ValueError("square and module live over different fields")
    if V.modulus is not None:
        yield from _tower(square, V)
        return
    yield {tensor_weight(V, 0, 0): [{0: dict(ONE)}]}
    yield module_weight_rows(V)
    cur, blocks = _square_blocks(square, V)
    yield cur
    ann = annihilator_rows(cur, blocks)
    for n in count(3):
        cur = _power_step(cur, ann, V, n)
        yield cur


def _square_blocks(square: Subspace, V: WeightModule):
    # the square's rows by weight, and the columns of each weight block
    # of V ox V
    if square.ambient != V.dim**2:
        raise ValueError("square does not live in V ox V")
    weight2 = lambda c: tensor_weight(V, 2, c)
    blocks: dict[tuple, list] = {}
    for c in range(V.dim**2):
        blocks.setdefault(weight2(c), []).append(c)
    return subspace_weight_rows(square, weight2), blocks


def _tower(square: Subspace, V: WeightModule):
    """Yield P^0, P^1, P^2, ... of a specialized module as levels of the
    relative tower: {weight: rows} with int entries mod P.  The basis of
    a level is numbered in level order (weights sorted, then row order),
    and the row {a * d + b: c} of P^n stands for the vector
    sum c * (basis vector a of P^(n-1)) ox e_b.  P^1 is V, P^2 is the
    square with its first factor renumbered in level order, and every
    higher level comes from _tower_step."""
    d, p = V.dim, V.modulus
    yield {tensor_weight(V, 0, 0): [{0: 1}]}
    blocks1 = V.weight_blocks()
    yield {w: [{i: 1} for i in blocks1[w]] for w in sorted(blocks1)}
    pos = {i: a for a, i in enumerate(i for w in sorted(blocks1) for i in blocks1[w])}
    sq, blocks = _square_blocks(square, V)
    level = {
        w: [{pos[c // d] * d + c % d: e for c, e in row.items()} for row in rows]
        for w, rows in sorted(sq.items())
    }
    yield level
    ann_at = _ann_by_column(sq, blocks, p)
    while True:
        level = _tower_step(level, ann_at, d, V)
        yield level


def _ann_by_column(wrows: dict, blocks: dict, p: int) -> dict:
    """The annihilator over F_p of a weight-blocked subspace with rows
    {col: int}, by column: {col: [(annihilator row, entry)]}.  blocks
    maps every weight of the ambient module to its columns."""
    ann_at: dict[int, list] = {}
    k = 0
    for w, cols in blocks.items():
        local = {c: i for i, c in enumerate(cols)}
        system = [{local[c]: e for c, e in row.items()} for row in wrows.get(w, [])]
        for z in fp_kernel(system, len(cols), p):
            for i, v in z.items():
                ann_at.setdefault(cols[i], []).append((k, v))
            k += 1
    return ann_at


def _tower_step(prev: dict, ann_at: dict, mid: int, back: WeightModule) -> dict:
    """(prev ox back) meet (head ox I) over F_P as a level of the tower,
    where prev is a level over head ox M (its row {i * mid + c: t} stands
    for sum t * h_i ox e_c, with M of dimension mid) and ann_at is Ann(I)
    of a subspace I of M ox back, by column (see _ann_by_column).  With
    head P^(n-2), M = back = V and I = P^2 this is
    P^n = (P^(n-1) ox V) meet (P^(n-2) ox P^2).

    The unknowns of a weight block are the pairs (a, b) of a basis vector
    p_a of prev and a basis vector e_b of back.  Written over the basis
    h_i of the head, sum x_ab p_a ox e_b is sum_i h_i ox g_i with g_i in
    M ox back, and it lies in head ox I exactly when every g_i pairs to
    zero with Ann(I): one equation per (i, annihilator row)."""
    d, p = back.dim, back.modulus
    unknowns: dict[tuple, list] = {}
    a = 0
    for w in sorted(prev):
        for row in prev[w]:
            for b, wb in enumerate(back.weights):
                unknowns.setdefault(tuple(x + y for x, y in zip(w, wb)), []).append(
                    (a * d + b, b, row)
                )
            a += 1
    out = {}
    for w in sorted(unknowns):
        cols = unknowns[w]
        eqs: dict[tuple, dict] = {}
        for j, (_, b, row) in enumerate(cols):
            for col, t in row.items():
                i, c = divmod(col, mid)
                for k, v in ann_at.get(c * d + b, ()):
                    eq = eqs.setdefault((i, k), {})
                    eq[j] = eq.get(j, 0) + t * v
        kernel = fp_kernel(eqs.values(), len(cols), p)
        if kernel:
            out[w] = [{cols[j][0]: v for j, v in z.items()} for z in kernel]
    return out


def _expand(level: dict, below: list, d: int, p: int) -> list:
    # the basis of a tower level, in level order, as vectors {col: int}
    # of V^(ox n), from those of the level below
    out = []
    for w in sorted(level):
        for row in level[w]:
            vec: dict[int, int] = {}
            for col, t in row.items():
                a, b = divmod(col, d)
                for c, v in below[a].items():
                    key = c * d + b
                    vec[key] = (vec.get(key, 0) + t * v) % p
            out.append({c: v for c, v in vec.items() if v})
    return out


def power_weight_rows(square: Subspace, V: WeightModule, n: int) -> dict:
    """The n-th braided power as _powers yields it, {weight: rows}: over
    Q(q) the canonical reduced echelon basis of each weight block of
    V^(ox n), for a specialized module a level of the tower."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    return _levels(square, V, n)[n]


def braided_power(square: Subspace, V: WeightModule, n: int) -> Subspace:
    """n-th braided power of the side of V ox V spanned by `square`.  For
    a specialized module the tower is expanded into V^(ox n) here."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    if V.modulus is None:
        return weight_rows_subspace(V.dim**n, power_weight_rows(square, V, n))
    full = [{0: 1}]
    for level in _levels(square, V, n)[1:]:
        full = _expand(level, full, V.dim, V.modulus)
    return Subspace.from_sparse(V.dim**n, full, V.modulus)


def decompose_power_characters(square: Subspace, V: WeightModule, n: int) -> IrrepMultiset:
    """Decomposition of the n-th braided power of a gl_2 module read off
    its weight dims (see decompose_weight_dims); P^n is never expanded."""
    wrows = power_weight_rows(square, V, n)
    return decompose_weight_dims({w: len(rows) for w, rows in wrows.items()})


def power_dims(square: Subspace, V: WeightModule, up_to: int) -> list[int]:
    """[dim P^0, ..., dim P^up_to] sharing one recursion."""
    if up_to < 0:
        raise ValueError("degree must be nonnegative")
    return [weight_rows_dim(w) for w in _levels(square, V, up_to)]


def power_apply_e(V: WeightModule, n: int, i: int, vec: dict) -> dict:
    """Coproduct action of E_i on a sparse vector in V^(ox n), for a
    module over Q(q) (decompose_power refuses specialized ones)."""
    d = V.dim
    eop = V.e_ops[i]
    kv = [pairing(V.alphas[i], w) for w in V.weights]
    out: dict[int, dict] = {}
    for idx, p in vec.items():
        digits = []
        rest = idx
        for _ in range(n):
            rest, j = divmod(rest, d)
            digits.append(j)
        digits.reverse()
        kshift = 0
        stride = d ** (n - 1)
        for slot in range(n):
            col = eop.get(digits[slot])
            if col:
                for r, coeff in col.items():
                    tgt = idx + (r - digits[slot]) * stride
                    term = lshift(lmul(p, coeff), kshift)
                    s = ladd(out.get(tgt, {}), term)
                    if s:
                        out[tgt] = s
                    else:
                        out.pop(tgt, None)
            kshift += kv[digits[slot]]
            stride //= d
    return out


def decompose_power(V: WeightModule, n: int, wrows: dict) -> IrrepMultiset:
    """Decomposition of a submodule of V^(ox n) over Q(q), from its
    highest-weight vectors; a specialized module is refused with
    ValueError (see decompose_power_characters)."""
    if V.modulus is not None:
        raise ValueError("decompose_power serves modules over Q(q) only")
    apply_es = [
        (lambda vec, i=i: power_apply_e(V, n, i, vec)) for i in range(V.ngen)
    ]
    return decompose_weight_rows(wrows, V.blocks, apply_es)


def decompose_power_subspace(V: WeightModule, n: int, sub: Subspace) -> IrrepMultiset:
    wrows = subspace_weight_rows(sub, lambda c: tensor_weight(V, n, c))
    return decompose_power(V, n, wrows)


# ---------------------------------------------------------------------------
# gl_2 cubes: closed forms and certified computations


def sym_cube_closed(l: int) -> IrrepMultiset:
    out = IrrepMultiset(blocks=(2,))
    top = (l - 1) // 2 if l % 2 else (3 * l) // 4
    for i in range(top + 1):
        out[(3 * l - 2 * i, 2 * i)] = 1
    return out


def ext_cube_closed(l: int) -> IrrepMultiset:
    out = IrrepMultiset(blocks=(2,))
    if l % 2 == 0:
        for i in range(l // 2, (3 * l - 2) // 4 + 1):
            out[(3 * l - 2 * i - 1, 2 * i + 1)] = 1
    return out


def dim_sym_cube(l: int) -> int:
    extra = comb(l // 2 + 1, 2) if l % 2 == 0 else 0
    return (l + 1) ** 2 + extra


def dim_ext_cube(l: int) -> int:
    return comb(l // 2 + 1, 2) if l % 2 == 0 else 0


def _certified_cube(l: int, side: str) -> IrrepMultiset:
    V = simple_gl2(l, 0)
    pair = module_square(V)
    got = decompose_power(V, 3, power_weight_rows(getattr(pair, side), V, 3))
    want = sym_cube_closed(l) if side == "sym" else ext_cube_closed(l)
    if dict(got) != dict(want):
        raise TheoremViolation(
            f"{side} cube of V_{l} decomposes as {got.sorted_items()}, "
            f"closed form says {want.sorted_items()}"
        )
    return got


def sym_cube_decomposition(l: int) -> IrrepMultiset:
    """Exact decomposition of the braided symmetric cube of V_(l,0),
    certified against the closed form."""
    return _certified_cube(l, "sym")


def ext_cube_decomposition(l: int) -> IrrepMultiset:
    """Exact decomposition of the braided exterior cube of V_(l,0),
    certified against the closed form."""
    return _certified_cube(l, "ext")


# ---------------------------------------------------------------------------
# triple products


def _parity_of_eps(eps) -> int:
    if eps in (1, "+", "+1"):
        return 0
    if eps in (-1, "-", "-1"):
        return 1
    raise ValueError(f"eps must be + or -, got {eps!r}")


def admissible_triples(beta, eps) -> IrrepMultiset:
    """Closed-form decomposition of the eps-triple product."""
    parity = _parity_of_eps(eps)
    b1, b2, b3 = beta
    out = IrrepMultiset(blocks=(2,))
    total = b1 + b2 + b3
    for l2 in range(total // 2 + 1):
        l1 = total - l2
        p1 = max(l2 - b1, 0)
        p3 = max(l2 - b3, 0)
        m2 = min(l2, b2)
        if m2 < p1 + p3:
            continue
        if m2 % 2 != 0:
            continue
        if p1 % 2 != parity or p3 % 2 != parity:
            continue
        out[(l1, l2)] = 1
    return out


def triple_product(beta, eps, mode: str = "exact", seed=None) -> IrrepMultiset:
    """Decomposition of V_b1 .e V_b2 .e V_b3 inside the triple tensor
    product, certified against the admissibility closed form."""
    beta = tuple(int(b) for b in beta)
    if len(beta) != 3 or any(b < 0 for b in beta):
        raise ValueError("beta must be three nonnegative integers")
    parity = _parity_of_eps(eps)
    got, _ = run_mode(mode, seed, lambda q0: _triple_product_exact(beta, parity, q0))
    want = admissible_triples(beta, "+" if parity == 0 else "-")
    if dict(got) != dict(want):
        raise TheoremViolation(
            f"triple product {beta} eps={'+-'[parity]} decomposes as "
            f"{got.sorted_items()}, closed form says {want.sorted_items()}"
        )
    return got


def _triple_product_exact(beta, parity: int, q0) -> IrrepMultiset:
    """(bullet12 ox V_b3) meet (V_b1 ox bullet23), decomposed: over Q(q)
    by _slot_meet and its highest-weight vectors, or at q0 over F_P by a
    tower step and its character."""
    b1, b2, b3 = beta
    v1, v2, v3 = (at_point(simple_gl2(b, 0), q0) for b in beta)
    t12 = tensor(v1, v2)
    bullet12 = _side_rows(t12, (b1 + b2, 0), parity)
    t23 = tensor(v2, v3)
    bullet23 = _side_rows(t23, (b2 + b3, 0), parity)
    # Ann(bullet23) is a function of t23 and parity; stored on t23
    key = ("bullet annihilator", parity)
    if q0 is not None:
        ann_at = t23._stored(
            key, lambda: _ann_by_column(bullet23, t23.weight_blocks(), t23.modulus)
        )
        meet = _tower_step(bullet12, ann_at, v2.dim, v3)
        return decompose_weight_dims({w: len(rows) for w, rows in meet.items()})
    ann23 = t23._stored(key, lambda: annihilator_rows(bullet23, t23.weight_blocks()))
    meet = _slot_meet(bullet12, v3, v1.weights, ann23, t23.dim)
    t = tensor(t12, v3)
    apply_es = [(lambda vec, op=t.e_ops[0]: sp_apply(op, vec))]
    return decompose_weight_rows(meet, t.blocks, apply_es)


# ---------------------------------------------------------------------------
# flatness


def module_square(V: WeightModule) -> BraidedSquarePair:
    """Braided square of any module with a known construction, built once
    and stored on V."""
    return V._stored("square", lambda: _square_of(V))


def _unspecialized_kind(V: WeightModule) -> tuple:
    return V.kind[2] if V.kind[0] == "specialized" else V.kind


def _square_of(V: WeightModule) -> BraidedSquarePair:
    kind = _unspecialized_kind(V)
    if kind[0] == "simple_gl2":
        return _square_of_simple(V)
    if kind[0] == "standard_gld":
        return _square_of_standard(V)
    if kind[0] == "outer" and kind[1][0] == kind[2][0] == "standard_gld":
        return _square_sides(V, _standard_top(kind[1][1]) + _standard_top(kind[2][1]))
    raise ValueError(f"no braided square construction for module {kind}")


def flatness_check(V: WeightModule) -> tuple[bool, dict]:
    """A braided square is flat when the symmetric side grows like a
    polynomial algebra; degree 3 decides it."""
    pair = module_square(V)
    dims = power_dims(pair.sym, V, 3)
    expected = comb(V.dim + 2, 3)
    flat = dims[3] == expected
    report = {
        "module": V.kind,
        "dim": V.dim,
        "sym_square_dim": dims[2],
        "sym_cube_dim": dims[3],
        "flat_cube_dim": expected,
        "flat": flat,
    }
    return flat, report


def flat_lower_bound(lam) -> int:
    """Character-level lower bound for the symmetric cube dimension of a
    gl_2 simple: sum over mu of max(d_lam^mu, 0) * dim V_mu, where d is
    driven by the signed square decomposition."""
    l1, l2 = lam
    if l1 < l2:
        raise ValueError("weight must be dominant")
    d: dict[tuple, int] = {}
    for m in range(l1 - l2 + 1):
        nu = (2 * l1 - m, 2 * l2 + m)
        sign = 1 if m % 2 == 0 else -1
        # V_nu ox V_lam by Clebsch-Gordan
        steps = min(nu[0] - nu[1], l1 - l2)
        for j in range(steps + 1):
            mu = (nu[0] + l1 - j, nu[1] + l2 + j)
            d[mu] = d.get(mu, 0) + sign
    return sum(k * dim_irrep(mu) for mu, k in d.items() if k > 0)


# ---------------------------------------------------------------------------
# dimension tables


def conjectural_sym_dim(l: int, n: int) -> int:
    """dim of the n-th braided symmetric power of V_(l,0) by the growth
    law: 1 at n = 0, l + 1 at n = 1, and from n = 2 a closed form,
    comb(n*l/2 + 2, 2) for even l and (l + 1)(l(n - 1) + 2)/2 for odd l.
    Through n = 3 these are proven values: n = 2 is the symmetric square
    and n = 3 is dim_sym_cube.  From n = 4 they are conjectural."""
    if n == 0:
        return 1
    if n == 1:
        return l + 1
    if l % 2 == 0:
        return comb(n * l // 2 + 2, 2)
    return (l + 1) * (l * (n - 1) + 2) // 2


def growth_flag(l: int, n: int, computed: int) -> dict:
    """Conjecture flag of a computed dim of the n-th symmetric power of
    V_(l,0) against the growth law conjectural_sym_dim."""
    predicted = conjectural_sym_dim(l, n)
    return {
        "l": l,
        "n": n,
        "computed": computed,
        "predicted": predicted,
        "agree": computed == predicted,
    }


@dataclass
class HilbertTable:
    l: int
    kind: str
    upto: int
    mode: str
    dims: list[int]
    conjecture: list[dict] = field(default_factory=list)
    samples: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        # the table's l stands for every flag's
        return {
            "l": self.l,
            "kind": self.kind,
            "mode": self.mode,
            "dims": list(self.dims),
            "conjecture": [
                {k: v for k, v in c.items() if k != "l"} for c in self.conjecture
            ],
            "samples": list(self.samples),
        }


def hilbert_table(
    l: int,
    upto: int,
    kind: str = "sym",
    mode: str = "exact",
    seed=None,
    override_guards: bool = False,
) -> HilbertTable:
    """Dimensions of the braided powers of V_(l,0) through degree upto.
    Exact mode is guarded to upto <= 4 and l <= 6; the specialize mode
    runs the relative tower over F_P at two sample points (see
    run_mode)."""
    if kind not in ("sym", "ext"):
        raise ValueError("kind must be 'sym' or 'ext'")
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    if mode == "exact" and (upto > 4 or l > 6) and not override_guards:
        raise GuardError(
            "exact mode is guarded to upto <= 4 and l <= 6; "
            "use mode='specialize' or override_guards=True"
        )
    dims, samples = run_mode(
        mode, seed, lambda q0: _hilbert_dims(at_point(simple_gl2(l, 0), q0), kind, upto)
    )
    conjecture = (
        [growth_flag(l, n, dims[n]) for n in range(4, upto + 1)] if kind == "sym" else []
    )
    return HilbertTable(l, kind, upto, mode, dims, conjecture, samples)


def _hilbert_dims(V: WeightModule, kind: str, upto: int) -> list[int]:
    pair = module_square(V)
    side = pair.sym if kind == "sym" else pair.ext
    return power_dims(side, V, upto)


def koszul_series_probe(l: int, terms: int) -> list[int]:
    """Coefficients of 1/h(-t) where h is the exterior-side Hilbert
    polynomial of V_(l,0); a negative coefficient rules out numerical
    Koszulity of the symmetric side."""
    if terms < 1:
        raise ValueError("need at least one term")
    h = [
        1,
        -(l + 1),
        comb(l + 1, 2),
        -(l * (l + 2) // 8) if l % 2 == 0 else 0,
    ]
    out = [1]
    for n in range(1, terms):
        acc = 0
        for k in range(1, min(n, 3) + 1):
            acc += h[k] * out[n - k]
        out.append(-acc)
    return out
