"""Braided symmetric and exterior powers and their decompositions.

The braiding never appears as a matrix.  A braided square is pinned down
as a pair of submodules (sym, ext) of V ox V, and the n-th braided power
of a side I is the intersection of all slot placements of I inside
V^{ox n}.  Only one new intersection per degree is needed:

    P^n(I) = (P^{n-1}(I) ox V)  meet  (H ox I)

with the head H = V^{ox n-2}, or H = P^{n-2}(I), which P^{n-1} lies in.
I enters through its annihilator under the standard pairing
x . y = sum_c x_c y_c, built once per power (_ann_by_column), and each
weight block of the meet is the kernel of one pairing system: one
unknown per (row of P^(n-1), basis vector of V) and one equation per
(basis vector of H, row of Ann(I)).  Every module family and both
fields take one route: _powers yields the levels, each from degree 3 on
one _power_step, which is one _meet_step.  Only the finish differs.
- Over Q(q), H = V^{ox n-2}; sp_kernel solves the system, and each
  kernel vector is expanded into V^{ox n} and echelonized, so a level is
  the canonical basis of each weight block.
- A specialized module (over F_P, see specialize_module) runs the
  relative tower: H = P^(n-2), fp_kernel solves the system, and each P^n
  keeps its kernel vectors as coordinates over P^(n-1) ox V, so no size
  grows like dim V^(n-2).  The only other difference is that P^2's
  first factor is renumbered in the level order of P^1.  braided_power
  expands the tower into V^{ox n} only when a Subspace is asked for.
  Over Q(q) those coordinates would be raw kernel vectors whose
  q-degrees grow.

Every square, over either field and of any module, is built by one
route (_square_sides), and one function decides which side each summand
of V ox V lands on (_side_weights).  It reads V's weights alone: a
dominant weight nu is sym when it is a component of the classical
character ch S^2 V, the sum of e^(w_i + w_j) over i <= j, and ext when
it is one of ch Lambda^2 V, the same sum over i < j (plethysm;
Macdonald, Symmetric Functions, I.8).  The braided sides sit on the same
summands as the classical ones, since at q = 1 they become S^2 V and
Lambda^2 V.  A weight that is a component of both is refused: V's
character cannot tell its highest-weight vectors apart.  A side is then
the submodule generated under the F_i by the highest-weight vectors at
its weights (_side_rows).  The triple product's bullet rows come from
_side_rows too, at the eps-layers of V_a ox V_b, and the triple product
is one _meet_step.  Over F_P every row is an int row {col: int}, and components
are read off weight dims (decompose_weight_dims, one character formula
for every product of gl blocks), never off highest-weight counts.  Over
Q(q) the highest-weight counts act by E_i on the tensor product of the
factors through the coproduct (_apply_e), so neither a power nor the
triple product builds a tensor module of three or more factors.

The braided powers are functions of V and a side alone: every power
call takes (V, kind, n) with kind "sym" or "ext", and level 2 is that
side's _side_rows as module_square(V) built them.  Every construction
here happens once per module object and is stored on it
(WeightModule._stored): module_square(V) stores its pair on V, and each
(V, kind) keeps one list of power levels that is extended only as far as
a caller asks, which power_weight_rows, power_dims, braided_power and
decompose_power read.  The gl_2 simples and standard modules are shared
instances (see uqmod), so every stage of one process reuses their
squares and levels.  Stored rows and subspaces are read-only.  A failed
construction is not stored: the next call builds it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, prod
import random

from .errors import GuardError, TheoremViolation
from .laurent import ONE, ladd, lmul, lshift
from .qarith import (
    Subspace,
    fp_kernel,
    fp_rref,
    sp_apply,
    sp_combine,
    sp_kernel,
    sp_span_echelon,
)
from .uqmod import (
    IrrepMultiset,
    WeightModule,
    decompose_weight_dims,
    decompose_weight_rows,
    dim_irrep,
    highest_weight_vectors,
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
    module (see specialize_module).  Any other mode, and specialize mode
    without a seed, is a ValueError raised before compute runs: the
    samples of an unseeded run would differ from run to run.

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
    if seed is None:
        raise ValueError("specialize mode needs a seed")
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


def weight_rows_dim(wrows: dict) -> int:
    return sum(len(rows) for rows in wrows.values())


def weight_rows_subspace(ambient: int, wrows: dict, modulus=None) -> Subspace:
    rows = []
    for w in sorted(wrows):
        rows.extend(wrows[w])
    return Subspace.from_sparse(ambient, rows, modulus)


def _side_rows(m: WeightModule, tops) -> dict:
    """Rows per weight of the submodule of m generated under the F_i by
    its highest-weight vectors at the dominant weights in tops.  Weights
    are walked in descending lex order, so the rows of each w + alpha_i
    come before w; the rows of w are their F_i-images plus, at a w in
    tops, its highest-weight vectors, echelonized: stripped Laurent rows
    over Q(q), rows {col: int} mod P over F_P.  Stored on m."""
    tops = frozenset(tops)

    def build() -> dict:
        p = m.modulus
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
            if w in tops:
                rows += highest_weight_vectors(m, w).sparse_rows()
            if p is None:
                rows = sp_span_echelon(rows)
            else:
                piv = fp_rref(rows, p)
                rows = [piv[c] for c in sorted(piv)]
            if rows:
                out[w] = rows
        return out

    return m._stored(("side", tops), build)


# ---------------------------------------------------------------------------
# braided squares


@dataclass
class BraidedSquarePair:
    """sym and ext sides of V ox V, each stable under the quantum group
    and generated in square_module = V ox V by the highest-weight vectors
    at the weights _side_weights(V) assigns it (see _side_rows).  A
    braided square has the classical dims C(d + 1, 2) and C(d, 2), so
    sides built from the wrong weights cannot pass as a split of V ox V."""

    module: WeightModule
    square_module: WeightModule
    sym: Subspace
    ext: Subspace

    def __post_init__(self):
        d = self.module.dim
        want = (comb(d + 1, 2), comb(d, 2))
        if (self.sym.dim, self.ext.dim) != want:
            raise TheoremViolation(
                f"square sides of {self.module.kind} have dims "
                f"{self.sym.dim}/{self.ext.dim}, classical {want[0]}/{want[1]}"
            )


def square_gl2(l: int) -> BraidedSquarePair:
    """Braided square of the gl_2 simple V_(l,0): sigma acts by (-1)^m on
    the m-th Clebsch-Gordan summand, so sym collects the even layers and
    ext the odd ones."""
    return module_square(simple_gl2(l, 0))


def _side_weights(V: WeightModule) -> tuple:
    """(sym weights, ext weights): the dominant weights of V ox V whose
    highest-weight vectors lie on each side, the components of the
    classical characters ch S^2 V, the sum of e^(w_i + w_j) over the
    weights w_i of V with i <= j, and ch Lambda^2 V, the sum over i < j,
    read off by decompose_weight_dims.  It reads weights only, so it is
    the same over Q(q) and F_P.  A weight that is a component of both is
    a ValueError naming the highest such weight.  Stored on V."""

    def build() -> tuple:
        ch_sym: dict[tuple, int] = {}
        ch_ext: dict[tuple, int] = {}
        ws = V.weights
        for i, wi in enumerate(ws):
            for j in range(i, len(ws)):
                nu = tuple(a + b for a, b in zip(wi, ws[j]))
                ch_sym[nu] = ch_sym.get(nu, 0) + 1
                if j > i:
                    ch_ext[nu] = ch_ext.get(nu, 0) + 1
        sym, ext = (
            frozenset(decompose_weight_dims(ch, V.blocks)) for ch in (ch_sym, ch_ext)
        )
        if sym & ext:
            raise ValueError(
                f"{max(sym & ext)} is a component of both S^2 V and Lambda^2 V, "
                "so V's character does not decide the side of its summand"
            )
        return sym, ext

    return V._stored("side weights", build)


def _square_sides(V: WeightModule) -> BraidedSquarePair:
    """Both sides of V ox V, each generated by the highest-weight vectors
    at the weights _side_weights(V) gives it (see _side_rows)."""
    tt = tensor(V, V)
    sym, ext = (
        weight_rows_subspace(V.dim**2, _side_rows(tt, tops), V.modulus)
        for tops in _side_weights(V)
    )
    return BraidedSquarePair(V, tt, sym, ext)


def _square_of_simple(V: WeightModule) -> BraidedSquarePair:
    return _square_sides(V)


def square_standard(d: int) -> BraidedSquarePair:
    """Braided square of the vector representation of gl_d."""
    return module_square(standard_gld(d))


def _square_of_standard(V: WeightModule) -> BraidedSquarePair:
    return _square_sides(V)


def square_matrix_module(d: int, k: int) -> BraidedSquarePair:
    """Braided square of the d x k matrix module over gl_d x gl_k."""
    return module_square(outer(standard_gld(d), standard_gld(k)))


# ---------------------------------------------------------------------------
# braided powers


def _power_step(prev: dict, ann_at: dict, V: WeightModule) -> dict:
    """prev holds P^(n-1) and ann_at is Ann(P^2) by column; returns
    P^n = (P^(n-1) ox V) meet (H ox P^2) by one _meet_step over the field
    of V: H = V^(n-2) over Q(q), the relative H = P^(n-2) over F_P."""
    return _meet_step(prev, ann_at, V.dim, V)


def _side_index(kind: str) -> int:
    # 0 for sym, 1 for ext: the kind's place in (sym, ext) pairs
    if kind not in ("sym", "ext"):
        raise ValueError(f"kind must be 'sym' or 'ext', got {kind!r}")
    return ("sym", "ext").index(kind)


def _levels(V: WeightModule, kind: str, n: int) -> list:
    """[P^0, ..., P^n] of the kind side of V ox V, as _powers yields them.
    One list per (V, kind) is stored on V and extended only as far as
    asked.  A level that fails to build drops the entry."""
    key = ("powers", _side_index(kind))
    levels, rest = V._stored(key, lambda: ([], _powers(V, kind)))
    try:
        while len(levels) <= n:
            levels.append(next(rest))
    except BaseException:
        V._forget(key)
        raise
    return levels[: n + 1]


def _powers(V: WeightModule, kind: str):
    """Yield P^0, P^1, P^2, ... of the kind side of V ox V, each as
    {weight: rows} with entries in the field of V.  P^0 and P^1 are unit
    rows; P^2 is the side's rows as module_square built them.  Ann(P^2)
    is built once, when degree 3 is asked for, and every higher level is
    one _power_step.

    Over Q(q) a row of P^n is a vector of V^(ox n).  A specialized module
    (V.modulus set) yields the levels of the relative tower instead: the
    basis of a level is numbered in level order (weights sorted, then row
    order), and the row {a * d + b: c} of P^n stands for the vector
    sum c * (basis vector a of P^(n-1)) ox e_b.  So only there is the
    first factor of P^2 renumbered in the level order of P^1."""
    d, p = V.dim, V.modulus
    pair = module_square(V)
    square = _side_rows(pair.square_module, _side_weights(V)[_side_index(kind)])
    unit = (lambda: dict(ONE)) if p is None else (lambda: 1)
    yield {(0,) * len(V.weights[0]): [{0: unit()}]}
    blocks1 = V.weight_blocks()
    yield {w: [{i: unit()} for i in blocks1[w]] for w in sorted(blocks1)}
    level = square
    if p is not None:
        order = [i for w in sorted(blocks1) for i in blocks1[w]]
        pos = {i: a for a, i in enumerate(order)}
        level = {
            w: [{pos[c // d] * d + c % d: e for c, e in row.items()} for row in rows]
            for w, rows in sorted(square.items())
        }
    yield level
    ann_at = _ann_by_column(square, pair.square_module.weight_blocks(), p)
    while True:
        level = _power_step(level, ann_at, V)
        yield level


def _ann_by_column(wrows: dict, blocks: dict, p) -> dict:
    """The annihilator of a weight-blocked subspace under the standard
    pairing x . y = sum_c x_c y_c, by column: {col: [(annihilator row,
    entry)]}, the rows numbered block by block.  Over Q(q) (p None) the
    rows are Laurent rows and each block's kernel comes from sp_kernel;
    over F_p they are rows {col: int} and it comes from fp_kernel.
    blocks maps every weight of the ambient module to its columns; a
    weight that wrows leaves empty contributes its whole block."""
    ann_at: dict[int, list] = {}
    k = 0
    for w, cols in blocks.items():
        local = {c: i for i, c in enumerate(cols)}
        system = [{local[c]: e for c, e in row.items()} for row in wrows.get(w, [])]
        if p is None:
            kernel = sp_kernel(system, len(cols))
        else:
            kernel = fp_kernel(system, len(cols), p)
        for z in kernel:
            for i, v in z.items():
                ann_at.setdefault(cols[i], []).append((k, v))
            k += 1
    return ann_at


def _meet_step(prev: dict, ann_at: dict, mid: int, back: WeightModule) -> dict:
    """(prev ox back) meet (head ox I), one weight block at a time, over
    the field of back.  prev is {weight: rows} over head ox M, its row
    {i * mid + c: t} standing for sum t * h_i ox e_c with M of dimension
    mid, and ann_at is Ann(I) of a subspace I of M ox back, by column
    (see _ann_by_column).

    The unknowns of a weight block are the pairs (a, b) of a row p_a of
    prev and a basis vector e_b of back.  Written over the basis h_i of
    the head, sum x_ab p_a ox e_b is sum_i h_i ox g_i with g_i in
    M ox back, and it lies in head ox I exactly when every g_i pairs to
    zero with Ann(I): one equation per (i, annihilator row k), in order
    of (i, k).  Over F_P fp_kernel solves it and the rows
    {a * d + b: x_ab} are returned as they are (see _powers).  Over Q(q)
    sp_kernel solves it, and the vectors sum x_ab p_a ox e_b, over
    head ox M ox back, are returned as their canonical basis."""
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
                    if p is not None:
                        eq[j] = eq.get(j, 0) + t * v
                        continue
                    s = ladd(eq.get(j, {}), lmul(t, v))
                    if s:
                        eq[j] = s
                    else:
                        del eq[j]
        system = [eq for _, eq in sorted(eqs.items()) if eq]
        if p is not None:
            rows = [
                {cols[j][0]: v for j, v in z.items()}
                for z in fp_kernel(system, len(cols), p)
            ]
        else:
            front = [{col * d + b: t for col, t in row.items()} for _, b, row in cols]
            if system:
                rows = sp_combine(front, sp_kernel(system, len(cols)))
            else:
                rows = sp_span_echelon(front)
        if rows:
            out[w] = rows
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


def power_weight_rows(V: WeightModule, kind: str, n: int) -> dict:
    """The n-th braided power of the kind ("sym" or "ext") side of V ox V
    as _powers yields it, {weight: rows}: over Q(q) the canonical reduced
    echelon basis of each weight block of V^(ox n), for a specialized
    module a level of the tower."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    return _levels(V, kind, n)[n]


def braided_power(V: WeightModule, kind: str, n: int) -> Subspace:
    """n-th braided power of the kind side of V ox V.  For a specialized
    module the tower is expanded into V^(ox n) here."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    if V.modulus is None:
        return weight_rows_subspace(V.dim**n, power_weight_rows(V, kind, n))
    full = [{0: 1}]
    for level in _levels(V, kind, n)[1:]:
        full = _expand(level, full, V.dim, V.modulus)
    return Subspace.from_sparse(V.dim**n, full, V.modulus)


def power_dims(V: WeightModule, kind: str, up_to: int) -> list[int]:
    """[dim P^0, ..., dim P^up_to] of the kind side, sharing one
    recursion."""
    if up_to < 0:
        raise ValueError("degree must be nonnegative")
    return [weight_rows_dim(w) for w in _levels(V, kind, up_to)]


def _apply_e(factors: tuple, i: int, vec: dict) -> dict:
    """E_i on a sparse vector of the tensor product of the modules in
    factors over Q(q), its index running over the last factor fastest.
    By Delta(E) = E ox 1 + K ox E, it is the sum over the slots s of E_i
    on slot s times K_i on every slot before it."""
    dims = [m.dim for m in factors]
    strides = [prod(dims[s + 1 :]) for s in range(len(factors))]
    kvs = [[pairing(m.alphas[i], w) for w in m.weights] for m in factors]
    out: dict[int, dict] = {}
    for idx, p in vec.items():
        kshift = 0
        rest = idx
        for m, stride, kv in zip(factors, strides, kvs):
            j, rest = divmod(rest, stride)
            for r, coeff in m.e_ops[i].get(j, {}).items():
                tgt = idx + (r - j) * stride
                s = ladd(out.get(tgt, {}), lshift(lmul(p, coeff), kshift))
                if s:
                    out[tgt] = s
                else:
                    out.pop(tgt, None)
            kshift += kv[j]
    return out


def _decompose(V: WeightModule, factors: tuple, build) -> IrrepMultiset:
    """Components of the submodule {weight: rows} = build() of the tensor
    product of the modules in factors, over the field of V and its gl
    blocks.  Over F_P they are read off its weight dims
    (decompose_weight_dims); over Q(q) they come from highest-weight
    vectors under the coproduct action of the E_i (_apply_e)."""
    if V.modulus is not None:
        dims = {w: len(rows) for w, rows in build().items()}
        return decompose_weight_dims(dims, V.blocks)
    apply_es = [(lambda vec, i=i: _apply_e(factors, i, vec)) for i in range(V.ngen)]
    return decompose_weight_rows(build(), V.blocks, apply_es)


def decompose_power(V: WeightModule, kind: str, n: int) -> IrrepMultiset:
    """Decomposition of the n-th braided power of the kind side of V ox V:
    over Q(q) from its highest-weight vectors, for a specialized module
    from its weight dims (see _decompose); P^n is never expanded."""
    return _decompose(V, (V,) * n, lambda: power_weight_rows(V, kind, n))


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
    got = decompose_power(simple_gl2(l, 0), side, 3)
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


def _eps_layers(a: int, b: int, parity: int) -> tuple:
    # the components (a + b - k, k) of V_a ox V_b with k = parity mod 2,
    # whose sum is the bullet product V_a .e V_b
    return tuple((a + b - k, k) for k in range(parity, min(a, b) + 1, 2))


def _triple_product_exact(beta, parity: int, q0) -> IrrepMultiset:
    """(bullet12 ox V_b3) meet (V_b1 ox bullet23) by one _meet_step,
    decomposed by the route of its field (_decompose): at q0 over F_P by
    its character, over Q(q) by its highest-weight vectors."""
    b1, b2, b3 = beta
    v1, v2, v3 = (at_point(simple_gl2(b, 0), q0) for b in beta)
    bullet12 = _side_rows(tensor(v1, v2), _eps_layers(b1, b2, parity))
    t23 = tensor(v2, v3)
    # Ann(bullet23) is a function of t23 and parity; stored on t23
    ann_at = t23._stored(
        ("bullet annihilator", parity),
        lambda: _ann_by_column(
            _side_rows(t23, _eps_layers(b2, b3, parity)),
            t23.weight_blocks(),
            t23.modulus,
        ),
    )
    return _decompose(v3, (v1, v2, v3), lambda: _meet_step(bullet12, ann_at, v2.dim, v3))


# ---------------------------------------------------------------------------
# flatness


def module_square(V: WeightModule) -> BraidedSquarePair:
    """Braided square of V, built once and stored on V.  A ValueError when
    V's character does not decide the sides (see _side_weights)."""
    return V._stored("square", lambda: _square_of(V))


def _square_of(V: WeightModule) -> BraidedSquarePair:
    # every module takes _square_sides; this route exists only because
    # bench/layertrace.py counts squares through the two family names
    kind = V.kind[2] if V.kind[0] == "specialized" else V.kind
    route = {"simple_gl2": _square_of_simple, "standard_gld": _square_of_standard}
    return route.get(kind[0], _square_sides)(V)


def flatness_check(V: WeightModule) -> tuple[bool, dict]:
    """A braided square is flat when the symmetric side grows like a
    polynomial algebra; degree 3 decides it."""
    dims = power_dims(V, "sym", 3)
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
    _side_index(kind)
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    if mode == "exact" and (upto > 4 or l > 6) and not override_guards:
        raise GuardError(
            "exact mode is guarded to upto <= 4 and l <= 6; "
            "use --mode specialize or --override-guards "
            "(mode='specialize' or override_guards=True from Python)"
        )
    dims, samples = run_mode(
        mode, seed, lambda q0: power_dims(at_point(simple_gl2(l, 0), q0), kind, upto)
    )
    conjecture = (
        [growth_flag(l, n, dims[n]) for n in range(4, upto + 1)] if kind == "sym" else []
    )
    return HilbertTable(l, kind, upto, mode, dims, conjecture, samples)


def koszul_series_probe(l: int, terms: int) -> list[int]:
    """Coefficients of 1/h(-t) where h is the exterior-side Hilbert
    polynomial of V_(l,0); a negative coefficient rules out numerical
    Koszulity of the symmetric side."""
    if terms < 1:
        raise ValueError("need at least one term")
    h = [1, -(l + 1), comb(l + 1, 2), -dim_ext_cube(l)]
    out = [1]
    for n in range(1, terms):
        acc = 0
        for k in range(1, min(n, 3) + 1):
            acc += h[k] * out[n - k]
        out.append(-acc)
    return out
