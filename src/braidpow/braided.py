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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, islice
from math import comb
import random

from .errors import GuardError, TheoremViolation
from .laurent import ONE, ladd, lmul, lqshift
from .qarith import (
    Subspace,
    sp_annihilator,
    sp_apply,
    sp_intersect,
    sp_pivot_insert,
)
from .uqmod import (
    IrrepMultiset,
    WeightModule,
    decompose_weight_rows,
    dim_irrep,
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


def sample_points(seed, count: int = 2) -> list[Fraction]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p, pp = rng.sample(_SAMPLE_PRIMES, 2)
        q0 = Fraction(p, pp)
        if q0 not in out:
            out.append(q0)
    return out


def at_two_samples(seed, compute):
    """Run compute(q0) at the two sample points of seed.  Returns the
    shared result and the points as strings; raises ArithmeticError when
    the two results differ."""
    pts = sample_points(seed)
    first, second = (compute(q0) for q0 in pts)
    if first != second:
        raise ArithmeticError("specialization samples disagree; rerun in exact mode")
    return first, [str(q0) for q0 in pts]


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


def weight_rows_subspace(ambient: int, wrows: dict) -> Subspace:
    rows = []
    for w in sorted(wrows):
        rows.extend(wrows[w])
    return Subspace.from_sparse(ambient, rows)


def submodule_closure(m: WeightModule, seed_rows) -> dict:
    """Smallest E/F stable span containing the seeds, per weight."""
    piv_by_w: dict[tuple, dict] = {}
    queue = [dict(r) for r in seed_rows if r]
    while queue:
        row = queue.pop()
        w = m.weights[min(row)]
        inserted = sp_pivot_insert(piv_by_w.setdefault(w, {}), row)
        if inserted is None:
            continue
        for ops in (m.e_ops, m.f_ops):
            for i in range(m.ngen):
                img = sp_apply(ops[i], inserted)
                if img:
                    queue.append(img)
    return {
        w: [piv[c] for c in sorted(piv)]
        for w, piv in sorted(piv_by_w.items())
        if piv
    }


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


def _square_simple_gl2(V: WeightModule) -> tuple[WeightModule, dict, dict]:
    kind = V.kind[2] if V.kind[0] == "specialized" else V.kind
    _, l1, l2 = kind
    tt = tensor(V, V)
    sym_rows: dict[tuple, list] = {}
    ext_rows: dict[tuple, list] = {}
    for m in range(l1 - l2 + 1):
        hw = highest_weight_vectors(tt, (2 * l1 - m, 2 * l2 + m))
        block = submodule_closure(tt, hw.sparse_rows())
        target = sym_rows if m % 2 == 0 else ext_rows
        for w, rows in block.items():
            target.setdefault(w, []).extend(rows)
    return tt, sym_rows, ext_rows


def square_gl2(l: int) -> BraidedSquarePair:
    """Braided square of the gl_2 simple V_(l,0): sigma acts by (-1)^m on
    the m-th Clebsch-Gordan summand, so sym collects the even layers and
    ext the odd ones."""
    return _square_of_simple(simple_gl2(l, 0))


def _square_of_simple(V: WeightModule) -> BraidedSquarePair:
    tt, sym_rows, ext_rows = _square_simple_gl2(V)
    n2 = V.dim**2
    return BraidedSquarePair(
        V,
        tt,
        weight_rows_subspace(n2, sym_rows),
        weight_rows_subspace(n2, ext_rows),
    )


def square_standard(d: int) -> BraidedSquarePair:
    """Braided square of the vector representation of gl_d."""
    return _square_of_standard(standard_gld(d))


def _square_of_standard(V: WeightModule) -> BraidedSquarePair:
    d = V.dim
    tt = tensor(V, V)
    ext = []
    sym = [{i * d + i: dict(ONE)} for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            ext.append({i * d + j: dict(ONE), j * d + i: {1: -1}})
            sym.append({i * d + j: {1: 1}, j * d + i: dict(ONE)})
    return BraidedSquarePair(
        V,
        tt,
        Subspace.from_sparse(d * d, sym),
        Subspace.from_sparse(d * d, ext),
    )


def square_matrix_module(d: int, k: int) -> BraidedSquarePair:
    """Braided square of the d x k matrix module over gl_d x gl_k.  The
    sides are assembled from the factor squares through the middle-slot
    swap (1234) -> (1324)."""
    v1 = standard_gld(d)
    v2 = standard_gld(k)
    m = outer(v1, v2)
    mm = tensor(m, m)
    s1 = _square_of_standard(v1)
    s2 = _square_of_standard(v2)

    def shuffle(urows, vrows):
        out = []
        for u in urows:
            for v in vrows:
                row = {}
                for cu, pu in u.items():
                    i, ip = divmod(cu, d)
                    for cv, pv in v.items():
                        j, jp = divmod(cv, k)
                        tgt = (i * k + j) * d * k + (ip * k + jp)
                        row[tgt] = lmul(pu, pv)
                out.append(row)
        return out

    sym1, ext1 = s1.sym.sparse_rows(), s1.ext.sparse_rows()
    sym2, ext2 = s2.sym.sparse_rows(), s2.ext.sparse_rows()
    sym_rows = shuffle(sym1, sym2) + shuffle(ext1, ext2)
    ext_rows = shuffle(sym1, ext2) + shuffle(ext1, sym2)
    n2 = (d * k) ** 2
    return BraidedSquarePair(
        m,
        mm,
        Subspace.from_sparse(n2, sym_rows),
        Subspace.from_sparse(n2, ext_rows),
    )


# ---------------------------------------------------------------------------
# braided powers


def annihilator_rows(wrows: dict, blocks: dict) -> dict:
    """Annihilator of a weight-blocked subspace, {weight: rows}, under the
    standard pairing.  blocks maps every weight of the ambient module to
    its columns; a weight that wrows leaves empty keeps its whole block."""
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


def _powers(square: Subspace, V: WeightModule):
    """Yield P^0, P^1, P^2, ... of the side of V ox V spanned by square,
    each as {weight: rows} over the weights of V^(ox n).  Ann(P^2) is
    built once, when degree 3 is asked for."""
    yield {tensor_weight(V, 0, 0): [{0: dict(ONE)}]}
    yield module_weight_rows(V)
    if square.ambient != V.dim**2:
        raise ValueError("square does not live in V ox V")
    weight2 = lambda c: tensor_weight(V, 2, c)
    cur = subspace_weight_rows(square, weight2)
    yield cur
    blocks: dict[tuple, list] = {}
    for c in range(V.dim**2):
        blocks.setdefault(weight2(c), []).append(c)
    ann = annihilator_rows(cur, blocks)
    for n in count(3):
        cur = _power_step(cur, ann, V, n)
        yield cur


def braided_power(square: Subspace, V: WeightModule, n: int) -> Subspace:
    """n-th braided power of the side of V ox V spanned by `square`."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    wrows = next(islice(_powers(square, V), n, None))
    return weight_rows_subspace(V.dim**n, wrows)


def power_dims(square: Subspace, V: WeightModule, up_to: int) -> list[int]:
    """[dim P^0, ..., dim P^up_to] sharing one recursion."""
    if up_to < 0:
        raise ValueError("degree must be nonnegative")
    return [weight_rows_dim(w) for w in islice(_powers(square, V), up_to + 1)]


def power_apply_e(V: WeightModule, n: int, i: int, vec: dict) -> dict:
    """Coproduct action of E_i on a sparse vector in V^(ox n)."""
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
                    term = lqshift(lmul(p, coeff), kshift, V.q0)
                    s = ladd(out.get(tgt, {}), term)
                    if s:
                        out[tgt] = s
                    else:
                        out.pop(tgt, None)
            kshift += kv[digits[slot]]
            stride //= d
    return out


def decompose_power(V: WeightModule, n: int, wrows: dict) -> IrrepMultiset:
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
    pair = _square_of_simple(V)
    sub = braided_power(getattr(pair, side), V, 3)
    got = decompose_power_subspace(V, 3, sub)
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


def _bullet_rows(ta: WeightModule, l1: int, l2: int, parity: int) -> dict:
    """Rows of the parity-selected isotypic part of V_l1 ox V_l2."""
    out: dict[tuple, list] = {}
    for m in range(min(l1, l2) + 1):
        if m % 2 != parity:
            continue
        hw = highest_weight_vectors(ta, (l1 + l2 - m, m))
        for w, rows in submodule_closure(ta, hw.sparse_rows()).items():
            out.setdefault(w, []).extend(rows)
    return out


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
    if mode == "exact":
        got = _triple_product_exact(beta, parity, None)
    elif mode == "specialize":
        got, _ = at_two_samples(
            seed, lambda q0: _triple_product_exact(beta, parity, q0)
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    want = admissible_triples(beta, "+" if parity == 0 else "-")
    if dict(got) != dict(want):
        raise TheoremViolation(
            f"triple product {beta} eps={'+-'[parity]} decomposes as "
            f"{got.sorted_items()}, closed form says {want.sorted_items()}"
        )
    return got


def _triple_product_exact(beta, parity: int, q0) -> IrrepMultiset:
    b1, b2, b3 = beta
    mods = [simple_gl2(b, 0) for b in beta]
    if q0 is not None:
        mods = [specialize_module(m, q0) for m in mods]
    v1, v2, v3 = mods
    t12 = tensor(v1, v2)
    bullet12 = _bullet_rows(t12, b1, b2, parity)
    t23 = tensor(v2, v3)
    ann23 = annihilator_rows(_bullet_rows(t23, b2, b3, parity), t23.weight_blocks())
    meet = _slot_meet(bullet12, v3, v1.weights, ann23, t23.dim)
    t = tensor(t12, v3)
    apply_es = [(lambda vec, op=t.e_ops[0]: sp_apply(op, vec))]
    return decompose_weight_rows(meet, t.blocks, apply_es)


# ---------------------------------------------------------------------------
# flatness


def _square_for_module(V: WeightModule) -> BraidedSquarePair:
    kind = V.kind
    if kind[0] == "specialized":
        if kind[2][0] == "simple_gl2":
            return _square_of_simple(V)
        raise ValueError(f"no specialized square construction for {kind[2]}")
    if kind[0] == "simple_gl2":
        return _square_of_simple(V)
    if kind[0] == "standard_gld":
        return _square_of_standard(V)
    if (
        kind[0] == "outer"
        and kind[1][0] == "standard_gld"
        and kind[2][0] == "standard_gld"
    ):
        return square_matrix_module(kind[1][1], kind[2][1])
    raise ValueError(f"no braided square construction for module {kind}")


def module_square(V: WeightModule) -> BraidedSquarePair:
    """Braided square of any module with a known construction."""
    return _square_for_module(V)


def flatness_check(V: WeightModule) -> tuple[bool, dict]:
    """A braided square is flat when the symmetric side grows like a
    polynomial algebra; degree 3 decides it."""
    pair = _square_for_module(V)
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
    if l % 2 == 0:
        return comb(n * l // 2 + 2, 2)
    return (l + 1) * (l * (n - 1) + 2) // 2


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
        return {
            "l": self.l,
            "kind": self.kind,
            "mode": self.mode,
            "dims": list(self.dims),
            "conjecture": [dict(c) for c in self.conjecture],
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
    runs the same blocked pipeline at two certified sample points."""
    if kind not in ("sym", "ext"):
        raise ValueError("kind must be 'sym' or 'ext'")
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    if mode == "exact":
        if (upto > 4 or l > 6) and not override_guards:
            raise GuardError(
                "exact mode is guarded to upto <= 4 and l <= 6; "
                "use mode='specialize' or override_guards=True"
            )
        dims = _hilbert_dims(simple_gl2(l, 0), kind, upto)
        samples = []
    elif mode == "specialize":
        dims, samples = at_two_samples(
            seed,
            lambda q0: _hilbert_dims(
                specialize_module(simple_gl2(l, 0), q0), kind, upto
            ),
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    table = HilbertTable(l, kind, upto, mode, dims, samples=samples)
    if kind == "sym":
        for n in range(4, upto + 1):
            predicted = conjectural_sym_dim(l, n)
            table.conjecture.append(
                {
                    "n": n,
                    "computed": dims[n],
                    "predicted": predicted,
                    "agree": dims[n] == predicted,
                }
            )
    return table


def _hilbert_dims(V: WeightModule, kind: str, upto: int) -> list[int]:
    pair = _square_for_module(V)
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
