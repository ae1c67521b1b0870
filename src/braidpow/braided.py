"""Braided symmetric and exterior powers and their decompositions.

The braiding never appears as a matrix.  A braided square is pinned down
as a pair of submodules (sym, ext) of V ox V, and the n-th braided power
of a side I is the intersection of all slot placements of I inside
V^{ox n}.  Only one new intersection per degree is needed:

    P^n(I) = (P^{n-1}(I) ox V)  meet  (P^{n-2}(I) ox I)

Since P^(n-1) ox V lies in P^(n-2) ox V ox V, its meet with
V^{ox n-2} ox I is its meet with P^(n-2) ox I, over any field.  I
enters through its annihilator under the standard pairing
x . y = sum_c x_c y_c, built once per side (_side_annihilator), and each
weight block of the meet is the kernel of one pairing system: one
unknown per (row of P^(n-1), basis vector of V) and one equation per
(row of P^(n-2), row of Ann(I)).  Every module family and both fields
take one route, the relative tower: from degree 3 the blocks of a level
(_blocks) come from one _power_step, which is one _meet_step, and keep
their kernel vectors as coordinates over P^(n-1) ox V, so no size grows
like dim V^(n-2).  Entries are Laurent polynomials over Q(q) and ints
mod P over F_P (a specialized module, see specialize_module); qarith
picks the kernel (kernel_basis) and the entry arithmetic from the
modulus passed, and only the inline sums of _meet_step's equations are
written once per field.  Both kernels return the unique reduced basis
of the kernel, so each level is canonical relative to the one below,
and the Q(q) kernel certifies its result (qarith.sp_kernel), so every
exact block dim is proved, given the level below and Ann(P^2), which
are certified the same way.  Every dim and every decomposition is
read off the relative tower; no level is expanded into V^{ox n}.

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
is one _meet_step.  Over F_P every row is an int row {col: int}.

A power or a triple product is decomposed by one route in both fields
(_decompose): its dominant weight dims, copied over each Weyl orbit
(uqmod.weyl_extend), are its character, and decompose_weight_dims
reads the components off it (one character formula for every product
of gl blocks; Jantzen, Lectures on Quantum Groups, ch. 5).  Which
blocks of a meet are read is decided in one function,
_decompose_meet, which the top level of decompose_power (from degree
3) and the triple product's meet both call; _meet_step takes the
weights to build.  Over Q(q) only the dominant blocks are built, each
dim proved by its kernel's certificate.  Over F_P, where no kernel is
certified, every block is built and its weight dims are checked
against Weyl symmetry; _level checks every full level so too, in both
fields.  No highest-weight vector is counted on this path;
uqmod.decompose_weight_rows, which counts them, serves uqmod.decompose
and the tests' oracle.

The braided powers are functions of V and a side alone: every power
call takes (V, kind, n) with kind "sym" or "ext", and level 2 is that
side's _side_rows on tensor(V, V), checked against its classical dim;
a power builds its own side only.  Every construction here happens once
per module object and is stored on it (WeightModule._stored): each
level P^n of (V, kind) has one entry on V (_Level), which holds its
weight blocks, each built once (_blocks) whether a decomposition's
blocks or the full level (_level) come first, and
module_square(V) stores on V its pair of Subspaces, read off the two
level-2 entries.  Every power call reads through _level and _blocks.
The gl_2 simples and standard modules are shared instances (see uqmod),
so every stage of one process reuses their squares and levels.  Stored
rows and subspaces are read-only.  A failed construction is not stored:
a level that fails to build, to pass its Weyl check or to decompose
drops its entry and those above it (_dropping), and the next call
builds it again.

The closed forms a power must match are one table, closed_forms(V, kind,
n), read off V's family, and triple_closed_forms for the triple
product.  closed_form_verdicts is the one comparison of a decomposition
with them.  decompose_power and decompose_triple return uncompared
results; the certified calls (sym_cube_decomposition,
ext_cube_decomposition, triple_product) raise TheoremViolation naming
the first form missed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from operator import add
import random

from .errors import TheoremViolation
from .laurent import ladd, lmul
from .qmat import _partitions
from .qarith import Subspace, field_one, kernel_basis, span_basis, sp_apply
from .uqmod import (
    IrrepMultiset,
    WeightModule,
    check_weyl_symmetric,
    decompose_weight_dims,
    dim_irrep,
    dominant,
    highest_weight_vectors,
    simple_gl2,
    specialize_module,
    standard_gld,
    outer,
    tensor,
    weyl_extend,
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
    return Subspace.from_sparse(ambient, _level_rows(wrows), modulus)


def _side_rows(m: WeightModule, tops) -> dict:
    """Rows per weight of the submodule of m generated under the F_i by
    its highest-weight vectors at the dominant weights in tops.  Weights
    are walked in descending lex order, so the rows of each w + alpha_i
    come before w; the rows of w are their F_i-images plus, at a w in
    tops, its highest-weight vectors, echelonized in m's field
    (qarith.span_basis).  Stored on m."""
    tops = frozenset(tops)

    def build() -> dict:
        p = m.modulus
        out: dict[tuple, list] = {}
        for w in sorted(m.weight_blocks(), reverse=True):
            rows = [
                sp_apply(f, v, p)
                for alpha, f in zip(m.alphas, m.f_ops)
                for v in out.get(tuple(a + b for a, b in zip(w, alpha)), ())
            ]
            if w in tops:
                rows += highest_weight_vectors(m, w)
            rows = span_basis(rows, p)
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
    braided square has the classical dims C(d + 1, 2) and C(d, 2), which
    _level checks as it builds each side, so sides built from the wrong
    weights cannot pass as a split of V ox V."""

    module: WeightModule
    square_module: WeightModule
    sym: Subspace
    ext: Subspace


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
    """Both sides of V ox V as Subspaces, read off the level-2 entries of
    the sym and ext towers (_level), so a side a power built is not built
    again."""
    sym, ext = (
        weight_rows_subspace(V.dim**2, _level(V, kind, 2), V.modulus)
        for kind in ("sym", "ext")
    )
    return BraidedSquarePair(V, tensor(V, V), sym, ext)


def _square_of_simple(V: WeightModule) -> BraidedSquarePair:
    return _square_sides(V)


def _square_of_standard(V: WeightModule) -> BraidedSquarePair:
    return _square_sides(V)


def square_matrix_module(d: int, k: int) -> BraidedSquarePair:
    """Braided square of the d x k matrix module over gl_d x gl_k."""
    return module_square(outer(standard_gld(d), standard_gld(k)))


# ---------------------------------------------------------------------------
# braided powers


def _power_step(prev: dict, ann_at: dict, V: WeightModule, weights) -> dict:
    """prev holds P^(n-1) and ann_at is Ann(P^2) by column; returns the
    blocks of P^n = (P^(n-1) ox V) meet (P^(n-2) ox P^2) at weights, as
    coordinates over P^(n-1) ox V, by one _meet_step over the field of
    V."""
    return _meet_step(prev, ann_at, V.dim, V, weights)


def _side_index(kind: str) -> int:
    # 0 for sym, 1 for ext: the kind's place in (sym, ext) pairs
    if kind not in ("sym", "ext"):
        raise ValueError(f"kind must be 'sym' or 'ext', got {kind!r}")
    return ("sym", "ext").index(kind)


def _side(V: WeightModule, kind: str) -> tuple:
    # (V ox V, the kind side's weights), of which _side_rows is the side;
    # the other side is not built
    return tensor(V, V), _side_weights(V)[_side_index(kind)]


def _side_annihilator(m: WeightModule, tops) -> dict:
    """Ann(I) by column (_ann_by_column) of the side I = _side_rows(m,
    tops), stored on m.  So a power of a side of V ox V and a triple
    product on the same tensor(V, V) at the same weights share one."""
    tops = frozenset(tops)
    return m._stored(
        ("side annihilator", tops),
        lambda: _ann_by_column(_side_rows(m, tops), m.weight_blocks(), m.modulus),
    )


@dataclass
class _Level:
    # the one entry of P^n on V: its blocks built so far, {weight: rows}
    # with [] for an empty one, and the full level once built and checked
    blocks: dict = field(default_factory=dict)
    full: dict | None = None


def _entry(V: WeightModule, kind: str, n: int) -> _Level:
    return V._stored(("power", _side_index(kind), n), _Level)


@contextmanager
def _dropping(V: WeightModule, kind: str, n: int):
    """On an exception, drop the entries of P^n and of every level built
    on it: a level that fails to build, to pass its Weyl check or to
    decompose is not stored, and the next call builds it again.  The
    levels below, already checked, stay."""
    side = _side_index(kind)
    try:
        yield
    except BaseException:
        while V._forget(("power", side, n)):
            n += 1
        raise


def _level(V: WeightModule, kind: str, n: int) -> dict:
    """P^n of the kind side of V ox V, {weight: rows} with entries in the
    field of V, built once and kept in its entry.  P^0 and P^1 are unit
    rows and P^2 the side's _side_rows on tensor(V, V): vectors of
    V^(ox n), as many as the classical dim C(d + 1, 2) or C(d, 2), else
    a TheoremViolation.  From degree 3 a level is all its _blocks, in
    both fields the row {a * d + b: c} standing for sum c * (row a of
    P^(n-1), in level order: weights sorted, then row order) ox e_b, a
    coordinate row over P^(n-1) ox V.  Each level's weight dims must be
    Weyl symmetric (check_weyl_symmetric), in both fields: a full level
    is the character of a module."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    entry = _entry(V, kind, n)
    if entry.full is None:
        one = field_one(V.modulus)
        with _dropping(V, kind, n):
            if n == 0:
                level = {(0,) * len(V.weights[0]): [{0: one}]}
            elif n == 1:
                blocks1 = V.weight_blocks()
                level = {w: [{i: one} for i in blocks1[w]] for w in sorted(blocks1)}
            elif n == 2:
                level = _side_rows(*_side(V, kind))
                got, want = weight_rows_dim(level), comb(V.dim + (kind == "sym"), 2)
                if got != want:
                    raise TheoremViolation(
                        f"{kind} side of {V.kind} has dim {got}, classical {want}"
                    )
            else:
                level = _blocks(V, kind, n, _meet_weights(_level(V, kind, n - 1), V))
            check_weyl_symmetric({w: len(rows) for w, rows in level.items()}, V.blocks)
        entry.full = level
    return entry.full


def _blocks(V: WeightModule, kind: str, n: int, weights) -> dict:
    """The blocks of P^n at weights (n >= 3), {weight: rows} in sorted
    weight order, an empty one left out, from P^n's entry.  The missing
    ones are built by one _power_step on the full P^(n-1); with none
    missing no step is taken.  So no block is built twice."""
    blocks = _entry(V, kind, n).blocks
    missing = set(weights) - blocks.keys()
    if missing:
        prev = _level(V, kind, n - 1)
        built = _power_step(prev, _side_annihilator(*_side(V, kind)), V, missing)
        blocks.update({w: built.get(w, []) for w in missing})
    return {w: blocks[w] for w in sorted(weights) if blocks[w]}


def _levels(V: WeightModule, kind: str, n: int) -> list:
    # [P^0, ..., P^n] of the kind side, each level as _level stores it
    return [_level(V, kind, m) for m in range(n + 1)]


def _ann_by_column(wrows: dict, blocks: dict, p) -> dict:
    """The annihilator of a weight-blocked subspace under the standard
    pairing x . y = sum_c x_c y_c, by column: {col: [(annihilator row,
    entry)]}, the rows numbered block by block, each block's kernel
    taken over Q(q) (p None) or F_p by qarith.kernel_basis.  blocks maps
    every weight of the ambient module to its columns; a weight that
    wrows leaves empty contributes its whole block."""
    ann_at: dict[int, list] = {}
    k = 0
    for w, cols in blocks.items():
        local = {c: i for i, c in enumerate(cols)}
        system = [{local[c]: e for c, e in row.items()} for row in wrows.get(w, [])]
        for z in kernel_basis(system, len(cols), p):
            for i, v in z.items():
                ann_at.setdefault(cols[i], []).append((k, v))
            k += 1
    return ann_at


def _meet_weights(prev: dict, back: WeightModule) -> set:
    # the weights of the blocks of (prev ox back) meet (head ox I)
    wts = set(back.weights)
    return {tuple(map(add, w, wb)) for w in prev for wb in wts}


def _meet_step(prev: dict, ann_at: dict, mid: int, back: WeightModule, weights) -> dict:
    """(prev ox back) meet (head ox I), one weight block at a time, over
    the field of back, at the weights in weights (all of them:
    _meet_weights); a block at another weight is never set up.
    prev is {weight: rows} over head ox M, its row {i * mid + c: t}
    standing for sum t * h_i ox e_c with M of dimension mid, and ann_at
    is Ann(I) of a subspace I of M ox back, by column (see
    _ann_by_column).  Blocks come back in sorted weight order, an empty
    one left out.

    The unknowns of a weight block are the pairs (a, b) of a row p_a of
    prev and a basis vector e_b of back.  Written over the basis h_i of
    the head, sum x_ab p_a ox e_b is sum_i h_i ox g_i with g_i in
    M ox back, and it lies in head ox I exactly when every g_i pairs to
    zero with Ann(I): one equation per (i, annihilator row k), in order
    of (i, k).  kernel_basis (fp_kernel over F_P, sp_kernel over Q(q))
    solves it, and each kernel vector comes back as the row {a * d + b: x_ab},
    numbering the rows of prev in level order (weights sorted, then row
    order).  Both kernels return the unique reduced basis of the kernel
    (sp_kernel's rows stripped), so a block is canonical relative to
    prev, and sp_kernel certifies its rows, so over Q(q) the block's dim
    is proved."""
    d, p = back.dim, back.modulus
    unknowns: dict[tuple, list] = {}
    a = 0
    for w in sorted(prev):
        # (b, weight of p_a ox e_b) for the e_b that land in weights
        at = [(b, tuple(map(add, w, wb))) for b, wb in enumerate(back.weights)]
        at = [(b, key) for b, key in at if key in weights]
        for row in prev[w]:
            for b, key in at:
                unknowns.setdefault(key, []).append((a * d + b, b, row))
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
        kernel = kernel_basis(system, len(cols), p)
        rows = [{cols[j][0]: v for j, v in z.items()} for z in kernel]
        if rows:
            out[w] = rows
    return out


def _level_rows(level: dict) -> list:
    # the rows of a level {weight: rows} in level order: weights sorted,
    # then row order
    return [row for w in sorted(level) for row in level[w]]


def power_dims(V: WeightModule, kind: str, up_to: int) -> list[int]:
    """[dim P^0, ..., dim P^up_to] of the kind side, sharing one
    recursion."""
    if up_to < 0:
        raise ValueError("degree must be nonnegative")
    return [weight_rows_dim(w) for w in _levels(V, kind, up_to)]


def _decompose(V: WeightModule, blocks: dict) -> IrrepMultiset:
    """Components of a submodule, over the gl blocks of V, from the row
    counts of its weight blocks {weight: rows}, of which the dominant
    ones are read: copied over each Weyl orbit (weyl_extend), they are
    its character, which the character formula decomposes
    (decompose_weight_dims).  The one route in both fields; the dominant
    dims are proved by the kernel certificate over Q(q), and read off
    Weyl-checked blocks over F_P (_level, _decompose_meet)."""
    dims = {w: len(rows) for w, rows in blocks.items() if dominant(w, V.blocks)}
    return decompose_weight_dims(weyl_extend(dims, V.blocks), V.blocks)


def _decompose_meet(back: WeightModule, prev: dict, build) -> IrrepMultiset:
    """Components of a meet (prev ox back) meet (head ox I), as
    _meet_step builds it, from its blocks {weight: rows} at the weights
    passed to build, which returns them.  The one place that chooses,
    by the field of back, which blocks of a meet a decomposition reads:
    over Q(q) those at the dominant weights of the meet (_meet_weights)
    alone, each dim proved by its kernel's certificate; over F_P, where
    no kernel is certified, all of them, whose dims must be Weyl
    symmetric (check_weyl_symmetric).  Either way _decompose reads the
    dominant dims."""
    weights = _meet_weights(prev, back)
    if back.modulus is None:
        return _decompose(back, build({w for w in weights if dominant(w, back.blocks)}))
    blocks = build(weights)
    check_weyl_symmetric({w: len(rows) for w, rows in blocks.items()}, back.blocks)
    return _decompose(back, blocks)


def decompose_power(V: WeightModule, kind: str, n: int) -> IrrepMultiset:
    """Decomposition of the n-th braided power of the kind side of V ox V
    from its dominant weight dims (_decompose).  From degree 3 the
    _blocks of the meet on the full P^(n-1) that _decompose_meet asks
    for are built and kept in P^n's entry, so a later full request
    builds only the rest; nothing is expanded into V^(ox n).  Through
    degree 2 the full level is read.  A decomposition that fails drops
    P^n's entry (_dropping)."""
    with _dropping(V, kind, n):
        if n < 3:
            return _decompose(V, _level(V, kind, n))
        return _decompose_meet(
            V, _level(V, kind, n - 1), lambda weights: _blocks(V, kind, n, weights)
        )


# ---------------------------------------------------------------------------
# closed forms and certified computations


def _pad(lam, size: int) -> tuple:
    return tuple(lam) + (0,) * (size - len(lam))


def _simple_closed_forms(l: int, kind: str, n: int) -> dict:
    if n <= 2:
        # V_(l,0)^n, or the Clebsch-Gordan layers (2l-m, m) of the square
        # whose m has the side's parity
        layers = [(2 * l - m, m) for m in range(kind == "ext", l + 1, 2)]
        return {"matches_low_degree_closed_form": [(n * l, 0)] if n < 2 else layers}
    if n == 3:
        closed = sym_cube_closed if kind == "sym" else ext_cube_closed
        return {"matches_cube_closed_form": list(closed(l))}
    if kind == "ext":
        return {"exterior_vanishes_from_degree_4": []}
    if l <= 2:
        # the flat square makes S^n the classical S^n(V): V_(0,0), V_(n,0)
        # or the (2n - 2j, 2j) with 2j <= n
        layers = [(2 * n - 2 * j, 2 * j) for j in range(n // 2 + 1)]
        return {"matches_flat_closed_form": [(l * n, 0)] if l < 2 else layers}
    return {}


def closed_forms(V: WeightModule, kind: str, n: int) -> dict:
    """{verdict name: IrrepMultiset}: the closed forms of the n-th braided
    power of the kind side of V, read off V's family, so a specialized
    module has its exact module's forms.  Over gl_d the standard module
    has S^n = V_(n) and Lambda^n = V_(1^n), zero for n > d.  The d x k
    matrix module A ox B has S^n = sum of S_lam A ox S_lam B over lam |- n
    with at most min(d, k) rows (Cauchy) and Lambda^n = sum of
    S_lam A ox S_lam' B over lam |- n in the d x k box (dual Cauchy;
    Macdonald, Symmetric Functions, I.4).  For V_(l,0) the powers through
    the square are classical, the cubes have closed forms, Lambda^n = 0
    from n = 4 (for l >= 3 the theorem ext-four checks), and for l <= 2
    the flat square gives every S^n.  Else {}: S^n V_(l,0) for l >= 3 and
    n >= 4 (only the growth law, a conjecture flag, speaks), V_(l1,l2)
    with l2 != 0, gl_3 simples, tensor products, and outer products other
    than of two standard modules."""
    _side_index(kind)
    if n < 0:
        raise ValueError("power must be nonnegative")
    family = _exact_kind(V)
    forms = {}
    if family[0] == "simple_gl2" and family[2] == 0:
        forms = _simple_closed_forms(family[1], kind, n)
    elif family[0] == "standard_gld":
        d = family[1]
        if kind == "sym":
            forms = {"polynomial_growth": [_pad((n,), d)]}
        else:
            top = [_pad((1,) * n, d)] if n <= d else []
            forms = {"matches_exterior_closed_form": top}
    elif family[0] == "outer" and family[1][0] == family[2][0] == "standard_gld":
        d, k = family[1][1], family[2][1]
        if kind == "sym":
            lams = [_pad(lam, d) + _pad(lam, k) for lam in _partitions(n, min(d, k))]
            forms = {"matches_cauchy": lams}
        else:
            # lam + its conjugate lam', whose i-th part counts the parts > i
            lams = [
                lam + _pad([sum(p > i for p in lam) for i in range(lam[0])], k)
                for lam in _partitions(n, d)
                if lam[0] <= k
            ]
            forms = {"matches_dual_cauchy": lams}
    # every form here is multiplicity free, a list of its components
    return {name: IrrepMultiset(dict.fromkeys(f, 1), V.blocks) for name, f in forms.items()}


def closed_form_verdicts(dec: IrrepMultiset, forms: dict) -> dict:
    """{verdict name: "pass" or "fail"} of a decomposition against closed
    forms as closed_forms gives them: a form passes when dec is exactly
    its components.  Every comparison of a decomposition with a closed
    form is this one."""
    return {
        name: "pass" if dict(dec) == dict(want) else "fail" for name, want in forms.items()
    }


def _certify(dec: IrrepMultiset, forms: dict, what: str) -> IrrepMultiset:
    # dec, or a TheoremViolation naming the first form it misses
    for name, verdict in closed_form_verdicts(dec, forms).items():
        if verdict == "fail":
            raise TheoremViolation(
                f"{what} decomposes as {dec.sorted_items()}, "
                f"{name} says {forms[name].sorted_items()}"
            )
    return dec


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
    dec = decompose_power(V, side, 3)
    return _certify(dec, closed_forms(V, side, 3), f"{side} cube of V_({l},0)")


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


def triple_closed_forms(beta, eps) -> dict:
    # the eps-triple product's closed form, keyed as closed_forms keys a power's
    return {"matches_admissibility": admissible_triples(beta, eps)}


def decompose_triple(beta, eps, mode: str = "exact", seed=None) -> IrrepMultiset:
    """Decomposition of V_b1 .e V_b2 .e V_b3 inside the triple tensor
    product, in one mode (run_mode), not compared with its closed form."""
    beta = tuple(int(b) for b in beta)
    if len(beta) != 3 or any(b < 0 for b in beta):
        raise ValueError("beta must be three nonnegative integers")
    parity = _parity_of_eps(eps)
    got, _ = run_mode(mode, seed, lambda q0: _triple_product_exact(beta, parity, q0))
    return got


def triple_product(beta, eps, mode: str = "exact", seed=None) -> IrrepMultiset:
    """decompose_triple, certified against the admissibility closed form."""
    dec = decompose_triple(beta, eps, mode, seed)
    what = f"triple product {tuple(beta)} eps={'+-'[_parity_of_eps(eps)]}"
    return _certify(dec, triple_closed_forms(beta, eps), what)


def _eps_layers(a: int, b: int, parity: int) -> tuple:
    # the components (a + b - k, k) of V_a ox V_b with k = parity mod 2,
    # whose sum is the bullet product V_a .e V_b
    return tuple((a + b - k, k) for k in range(parity, min(a, b) + 1, 2))


def _triple_product_exact(beta, parity: int, q0) -> IrrepMultiset:
    """(bullet12 ox V_b3) meet (V_b1 ox bullet23), its blocks built by
    one _meet_step at the weights _decompose_meet reads."""
    b1, b2, b3 = beta
    v1, v2, v3 = (at_point(simple_gl2(b, 0), q0) for b in beta)
    bullet12 = _side_rows(tensor(v1, v2), _eps_layers(b1, b2, parity))
    ann_at = _side_annihilator(tensor(v2, v3), _eps_layers(b2, b3, parity))
    return _decompose_meet(
        v3, bullet12, lambda weights: _meet_step(bullet12, ann_at, v2.dim, v3, weights)
    )


# ---------------------------------------------------------------------------
# flatness


def module_square(V: WeightModule) -> BraidedSquarePair:
    """Braided square of V, built once and stored on V.  A ValueError when
    V's character does not decide the sides (see _side_weights)."""
    return V._stored("square", lambda: _square_of(V))


def _square_of(V: WeightModule) -> BraidedSquarePair:
    # every module takes _square_sides; this route exists only because
    # bench/layertrace.py counts squares through the two family names
    route = {"simple_gl2": _square_of_simple, "standard_gld": _square_of_standard}
    return route.get(_exact_kind(V)[0], _square_sides)(V)


def _exact_kind(V: WeightModule) -> tuple:
    # the kind of V, or of the exact module a specialized V was made from
    return V.kind[2] if V.kind[0] == "specialized" else V.kind


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
) -> HilbertTable:
    """Dimensions of the braided powers of V_(l,0) through degree upto,
    read off the relative tower (_level), which is never expanded: over
    Q(q) in exact mode, over F_P at two sample points in the specialize
    mode (see run_mode).  Nothing here is guarded: the command line
    refuses exact mode past upto 4 or l 6."""
    _side_index(kind)
    if upto < 0:
        raise ValueError("upto must be nonnegative")
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
