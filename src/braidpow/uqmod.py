"""Finite-dimensional weight modules for quantized gl_d.

A module stores, per Chevalley generator, the sparse column maps of E_i
and F_i, plus the gl-weight of each basis vector.  The coefficients are
Laurent polynomials with int coefficients, in Z[q, 1/q], over Q(q), and
ints 0 < c < P over F_P for a specialized module (specialize_module).
The audit refuses any other coefficient type with ValueError, so every
module it passes can be computed on in both modes.  K_mu never needs a
matrix: it acts on a weight vector of weight w by q**(mu|w) with the
standard dot pairing.

The comultiplication is Delta(E) = E ox 1 + K ox E and
Delta(F) = F ox K^-1 + 1 ox F.  coproduct is its one implementation, on
any number of factors over either field: tensor applies it to basis
vectors and audit_module checks the defining relations on the result,
so a convention slip cannot survive construction, and the
highest-weight count of decompose acts by it.  The audit composes int
column maps in both fields (qarith.MapImages): over F_P the module's own
ints, over Q(q) each entry read at q = 2**s, with s past a bound on
every coefficient of a relation's difference, so a relation holds over
Z[q, 1/q] exactly when its two int maps are equal.

Each exact construction happens once per process.  simple_gl2 and
standard_gld return one shared, already audited instance per argument,
and tensor(a, b) and outer(a, b) store their product on a, keyed by the
b object.  A result that is a function of a module (its tensor and outer
products, its braided square and power levels, see braided) is stored on
that module, so it lives as long as the module does: for the shared
instances, as long as the process.  Modules and everything stored on
them are read-only.  A specialized module is never shared; each sample
builds its own.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import prod

from .errors import ModuleAuditError
from .laurent import ONE, P, fp, ladd, leval_fp, lmul, lqint, lshift
from .qarith import (
    MapImages,
    field_one,
    int_combine,
    int_compose,
    kernel_basis,
    sp_kernel,
)


def pairing(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


class WeightModule:
    """Basis-indexed weight module with sparse generator actions.  Every
    construction is checked against the defining relations
    (audit_module)."""

    def __init__(self, kind, alphas, blocks, weights, e_ops, f_ops, q0=None):
        self.kind = kind
        self.alphas = tuple(tuple(a) for a in alphas)
        self.blocks = tuple(blocks)
        self.weights = tuple(tuple(w) for w in weights)
        self.e_ops = tuple(e_ops)
        self.f_ops = tuple(f_ops)
        # q0 is None for generic q, with Laurent coefficients; a Fraction
        # once specialized, with int coefficients in F_P (modulus P) and q
        # at the image x of q0, where the audit checks the relations.
        self.q0 = q0
        self.x = None if q0 is None else fp(q0)
        self.modulus = None if q0 is None else P
        audit_module(self)

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def ngen(self) -> int:
        return len(self.alphas)

    def weight_blocks(self) -> dict:
        # {weight: basis indices of that weight}, stored on the module
        def build() -> dict:
            out: dict[tuple, list] = {}
            for i, w in enumerate(self.weights):
                out.setdefault(w, []).append(i)
            return out

        return self._stored("weight blocks", build)

    def _stored(self, key, build):
        """build() the first time key is asked for, the same object after
        that: a result that is a function of this module lives on it.  A
        build that raises stores nothing."""
        try:
            memo = self._memo
        except AttributeError:
            memo = self._memo = {}
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def _forget(self, key) -> bool:
        # drop key's entry; True when there was one
        return getattr(self, "_memo", {}).pop(key, None) is not None

    def __repr__(self):
        return f"WeightModule({self.kind}, dim={self.dim})"


def audit_module(m: WeightModule) -> None:
    """Check that every coefficient is an int (a ValueError names the
    module and the generator of one that is not, before any relation is
    checked), weight homogeneity, [E_i, F_j] = delta_ij [(alpha_i | w)] on
    weight w, and the commuting and Serre relations, each written without
    a difference (E_i F_j = F_j E_i + ...), in the module's field, on int
    column maps (qarith.MapImages): over F_P the module's own ints, over
    Q(q) each entry's image at q = 2**s.  The relations' products hold at
    most 3 maps; their scalars are q-integers [k], |k| <= K, K the
    largest |(alpha_i | w)|, and [2], so the lowest exponent of a scalar
    is at least 1 - max(K, 2), and the |coefficients| of one relation's
    scalars sum to at most K + 2 ([E_i, F_i]: 1, 1 and one [k] per
    column) or 4 (Serre: 1, 1 and [2]).  Each product of two maps is
    formed once per audit."""
    wts, p = m.weights, m.modulus
    for i, alpha in enumerate(m.alphas):
        for name, op, sign in (("E", m.e_ops[i], 1), ("F", m.f_ops[i], -1)):
            for c, col in op.items():
                want = tuple(w + sign * a for w, a in zip(wts[c], alpha))
                for r, v in col.items():
                    if wts[r] != want:
                        raise ModuleAuditError(
                            f"{m.kind}: generator {i} is not weight-homogeneous"
                        )
                    for x in v.values() if p is None else (v,):
                        if type(x) is not int:
                            raise ValueError(f"{m.kind}: {name}_{i} has a non-int coefficient")
    n = m.ngen
    ks = [[pairing(alpha, w) for w in wts] for alpha in m.alphas]
    top = max((abs(k) for row in ks for k in row), default=0)
    images = MapImages(
        m.e_ops + m.f_ops, p, m.x, lowest=1 - max(top, 2), weight=max(top + 2, 4), depth=3
    )
    # E_i is map i, F_i map n + i
    maps, unit, pairs = images.maps, images.unit, {}

    def pair(a: int, b: int) -> dict:
        if (a, b) not in pairs:
            pairs[a, b] = int_compose(maps[a], maps[b], p)
        return pairs[a, b]

    qints: dict[int, int] = {}
    for i in range(n):
        for j in range(n):
            ef, fe = pair(i, n + j), pair(n + j, i)
            if i == j:
                for k in ks[i]:
                    if k and k not in qints:
                        qints[k] = images.scalar(lqint(k), 2)
                diag = {c: {c: qints[k]} for c, k in enumerate(ks[i]) if k}
                ef = int_combine([(unit, ef)], p)
                fe = int_combine([(unit, fe), (1, diag)], p)
            if ef != fe:
                raise ModuleAuditError(f"{m.kind}: [E_{i}, F_{j}] relation fails")
    two = images.scalar(lqint(2))
    for base in (0, n):
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                aij = pairing(m.alphas[i], m.alphas[j])
                a, b = base + i, base + j
                if aij == 0:
                    if pair(a, b) != pair(b, a):
                        raise ModuleAuditError(
                            f"{m.kind}: orthogonal generators {i},{j} do not commute"
                        )
                elif aij == -1:
                    xii_j = int_compose(maps[a], pair(a, b), p)
                    xiji = int_compose(maps[a], pair(b, a), p)
                    xjii = int_compose(maps[b], pair(a, a), p)
                    lhs = int_combine([(unit, xii_j), (unit, xjii)], p)
                    if lhs != int_combine([(two, xiji)], p):
                        raise ModuleAuditError(
                            f"{m.kind}: Serre relation fails for {i},{j}"
                        )


# ---------------------------------------------------------------------------
# constructors


@cache
def simple_gl2(l1: int, l2: int) -> WeightModule:
    """Irreducible gl_2 module with highest weight (l1, l2); one shared
    instance per argument."""
    if l1 < l2:
        raise ValueError("highest weight must be dominant: l1 >= l2")
    ell = l1 - l2
    weights = [(l1 - i, l2 + i) for i in range(ell + 1)]
    e_op = {i: {i - 1: lqint(i)} for i in range(1, ell + 1)}
    f_op = {i: {i + 1: lqint(ell - i)} for i in range(ell)}
    return WeightModule(
        ("simple_gl2", l1, l2), [(1, -1)], (2,), weights, [e_op], [f_op]
    )


@cache
def standard_gld(d: int) -> WeightModule:
    """Vector representation of quantized gl_d on x_1 .. x_d; d = 1 is
    the rootless one-dimensional case.  One shared instance per d."""
    if d < 1:
        raise ValueError("gl_d needs d >= 1")
    weights = [tuple(1 if k == j else 0 for k in range(d)) for j in range(d)]
    alphas = [
        tuple(1 if k == i else -1 if k == i + 1 else 0 for k in range(d))
        for i in range(d - 1)
    ]
    e_ops = [{i + 1: {i: dict(ONE)}} for i in range(d - 1)]
    f_ops = [{i: {i + 1: dict(ONE)}} for i in range(d - 1)]
    return WeightModule(("standard_gld", d), alphas, (d,), weights, e_ops, f_ops)


def tensor(a: WeightModule, b: WeightModule) -> WeightModule:
    """Tensor product along Delta; both factors must live over the same
    gl_d (same simple roots and weight blocks).  The product is stored on
    a, keyed by the b object, so each pair is built and audited once."""
    return a._stored(("tensor", b), lambda: _tensor(a, b))


def coproduct(factors: tuple, i: int, lower: bool = False):
    """E_i, or F_i when lower is set, acting along Delta on the tensor
    product of the modules in factors: a function on sparse vectors
    whose index runs over the last factor fastest.  Delta(E) = E ox 1 +
    K ox E puts E_i on each slot times K_i on every slot before it, and
    Delta(F) = F ox K^-1 + 1 ox F puts F_i on each slot times K_i^-1 on
    every slot after it, so E walks the slots from the left and F from
    the right, twisting by the K-weights already walked: by powers of q
    over Q(q), of the factors' x over F_P, where every sum is reduced mod
    P.  With no factors both act as 0.  Strides, K-weights and slot
    operators are worked out once per action."""
    dims = [m.dim for m in factors]
    slots = [
        (
            m.f_ops[i] if lower else m.e_ops[i],
            prod(dims[s + 1 :]),
            m.dim,
            [(-1 if lower else 1) * pairing(m.alphas[i], w) for w in m.weights],
        )
        for s, m in enumerate(factors)
    ]
    if lower:
        slots.reverse()
    x = factors[0].x if factors else None

    def act(vec: dict) -> dict:
        out: dict = {}
        for idx, t in vec.items():
            shift = 0
            for op, stride, dim, kv in slots:
                j = idx // stride % dim
                col = op.get(j)
                if col:
                    # t times q**shift
                    tq = lshift(t, shift) if x is None else t * pow(x, shift, P) % P
                    for r, coeff in col.items():
                        tgt = idx + (r - j) * stride
                        if x is None:
                            s = ladd(out.get(tgt, {}), lmul(tq, coeff))
                        else:
                            s = (out.get(tgt, 0) + tq * coeff) % P
                        if s:
                            out[tgt] = s
                        else:
                            out.pop(tgt, None)
                shift += kv[j]
        return out

    return act


def _tensor(a: WeightModule, b: WeightModule) -> WeightModule:
    if a.alphas != b.alphas or a.blocks != b.blocks:
        raise ValueError("tensor factors live over different algebras")
    if a.q0 != b.q0:
        raise ValueError("tensor factors specialized at different points")
    weights = [
        tuple(x + y for x, y in zip(wa, wb)) for wa in a.weights for wb in b.weights
    ]
    one = field_one(a.modulus)
    e_ops, f_ops = [], []
    for i in range(a.ngen):
        for lower, ops in ((False, e_ops), (True, f_ops)):
            act = coproduct((a, b), i, lower)
            ops.append({c: col for c in range(len(weights)) if (col := act({c: one}))})
    return WeightModule(
        ("tensor", a.kind, b.kind),
        a.alphas,
        a.blocks,
        weights,
        e_ops,
        f_ops,
        q0=a.q0,
    )


def outer(a: WeightModule, b: WeightModule) -> WeightModule:
    """External product over gl_a x gl_b: a-generators act on the first
    index alone, b-generators on the second.  Stored on a, keyed by the b
    object, as tensor is."""
    return a._stored(("outer", b), lambda: _outer(a, b))


def _outer(a: WeightModule, b: WeightModule) -> WeightModule:
    if a.q0 != b.q0:
        raise ValueError("outer factors specialized at different points")
    la = len(a.weights[0]) if a.dim else 0
    lb = len(b.weights[0]) if b.dim else 0
    alphas = [tuple(al) + (0,) * lb for al in a.alphas] + [
        (0,) * la + tuple(bl) for bl in b.alphas
    ]
    weights = [tuple(wa) + tuple(wb) for wa in a.weights for wb in b.weights]
    # index c of one factor beside index o of the other is c * own + o * rest
    e_ops, f_ops = [], []
    for m, others, own, rest in ((a, b.dim, b.dim, 1), (b, a.dim, 1, b.dim)):
        for i in range(m.ngen):
            for ops, out in ((m.e_ops, e_ops), (m.f_ops, f_ops)):
                out.append({
                    c * own + o * rest: {r * own + o * rest: v for r, v in col.items()}
                    for c, col in ops[i].items()
                    for o in range(others)
                })
    return WeightModule(
        ("outer", a.kind, b.kind),
        alphas,
        a.blocks + b.blocks,
        weights,
        e_ops,
        f_ops,
        q0=a.q0,
    )


def specialize_module(m: WeightModule, q0) -> WeightModule:
    """Evaluate every action coefficient at the image x of the rational
    q0 in F_P, P = 2**61 - 1, and store it as an int 0 < c < P, the one
    entry type over F_P: the module operations (coproduct, tensor,
    outer, the audit) and qarith's int kernel take such ints, every
    coefficient stays within 61 bits, and the module decomposes from its
    character.

    A rank at x can only drop below the generic rank over Q(q), so a
    dimension computed at x may differ from the generic one; agreement
    at sample points is evidence for the generic answer, not a proof.
    A coefficient that is nonzero over Q(q) but vanishes at x would change
    the module itself; the sample is then outside the support of the
    module and ArithmeticError is raised."""
    if m.q0 is not None:
        raise ValueError("module is already specialized")
    q0 = Fraction(q0)
    if q0 == 0:
        raise ValueError("cannot specialize at q = 0")
    x = fp(q0)
    if not x:
        raise ArithmeticError(f"q0 = {q0} vanishes in F_P")

    def spec_ops(ops):
        out = []
        for op in ops:
            new = {}
            for c, col in op.items():
                newcol = {}
                for r, p in col.items():
                    v = leval_fp(p, x)
                    if not v:
                        raise ArithmeticError(
                            f"{m.kind}: a coefficient nonzero over Q(q) "
                            f"vanishes at q0 = {q0} in F_P"
                        )
                    newcol[r] = v
                if newcol:
                    new[c] = newcol
            out.append(new)
        return out

    return WeightModule(
        ("specialized", str(q0), m.kind),
        m.alphas,
        m.blocks,
        m.weights,
        spec_ops(m.e_ops),
        spec_ops(m.f_ops),
        q0=q0,
    )


# ---------------------------------------------------------------------------
# decomposition


def dominant(w, blocks) -> bool:
    pos = 0
    for n in blocks:
        seg = w[pos : pos + n]
        if any(seg[i] < seg[i + 1] for i in range(n - 1)):
            return False
        pos += n
    return True


def dim_irrep(lam, blocks=None) -> int:
    """Weyl dimension of the irreducible with highest weight lam; for a
    product of gl factors, the product over blocks."""
    lam = tuple(lam)
    if blocks is None:
        blocks = (len(lam),)
    if not dominant(lam, blocks):
        raise ValueError(f"weight {lam} is not dominant for blocks {blocks}")
    num = den = 1
    pos = 0
    for n in blocks:
        seg = lam[pos : pos + n]
        for i in range(n):
            for j in range(i + 1, n):
                num *= seg[i] - seg[j] + j - i
                den *= j - i
        pos += n
    total, rest = divmod(num, den)
    assert not rest
    return total


class IrrepMultiset(dict):
    """Dominant weights with multiplicities; remembers the gl blocks so
    it can price itself in dimensions."""

    def __init__(self, data=(), blocks=None):
        super().__init__(data)
        self.blocks = blocks

    def total_dim(self) -> int:
        return sum(k * dim_irrep(lam, self.blocks) for lam, k in self.items())

    def sorted_items(self):
        return sorted(self.items())

    def components(self) -> list:
        """[[weight as a list, multiplicity]], highest weight first."""
        return [[list(w), k] for w, k in sorted(self.items(), reverse=True)]


def weight_space_kernel(m: WeightModule, mu, gens) -> list[dict]:
    """Basis of the joint kernel of the E_i, i in gens, inside the mu
    weight space, in the module's ambient coordinates, in the module's
    field (qarith.kernel_basis; over Q(q) a certified kernel)."""
    idxs = m.weight_blocks().get(tuple(mu), [])
    sys_rows: dict[tuple, dict] = {}
    for gi in gens:
        op = m.e_ops[gi]
        for pos, c in enumerate(idxs):
            for r, p in op.get(c, {}).items():
                sys_rows.setdefault((gi, r), {})[pos] = p
    combos = kernel_basis(list(sys_rows.values()), len(idxs), m.modulus)
    return [{idxs[pos]: p for pos, p in z.items()} for z in combos]


def highest_weight_vectors(m: WeightModule, mu) -> list[dict]:
    """Joint kernel of all E_i inside the mu weight space, as the rows of
    its reduced basis in the module's ambient coordinates
    (weight_space_kernel over every generator)."""
    return weight_space_kernel(m, mu, range(m.ngen))


def hw_multiplicity_in_rows(apply_es, rows: list[dict]) -> int:
    """dim of {v in span(rows) : E_i v = 0 for all i} over Q(q), for
    independent rows: the dim of the certified kernel (qarith.sp_kernel)
    of the E_i images of the combinations of rows; apply_es is a list of
    callables acting on sparse vectors."""
    sys_rows: dict[tuple, dict] = {}
    for t, row in enumerate(rows):
        for gi, app in enumerate(apply_es):
            img = app(row)
            for r, p in img.items():
                sys_rows.setdefault((gi, r), {})[t] = p
    return len(sp_kernel(list(sys_rows.values()), len(rows)))


def decompose_weight_rows(weight_rows: dict, blocks, apply_es) -> IrrepMultiset:
    """Decompose a submodule over Q(q) from its dominant weight blocks,
    {weight: sparse rows}; blocks at other weights are not read, so a
    caller may pass the dominant ones alone.  The components are the
    highest-weight vectors counted in each dominant block, each count
    the dim of a certified kernel (hw_multiplicity_in_rows).  They are
    checked weight by weight against the same blocks: the dominant row
    counts, copied over each Weyl orbit (weyl_extend) and decomposed by
    decompose_weight_dims, must give the same multiplicities, else a
    ModuleAuditError names the highest weight where the two differ.
    decompose reads a module this way.  The braided powers and triple
    products are decomposed from their dominant dims alone
    (braided._decompose_meet); the tests count their highest-weight vectors
    here, on the dominant blocks expanded into the tensor product, as
    an oracle.  A specialized module is decomposed from its character
    instead (decompose_weight_dims)."""
    out = IrrepMultiset(blocks=blocks)
    dims = {}
    for w in sorted(weight_rows):
        if not dominant(w, blocks):
            continue
        dims[w] = len(weight_rows[w])
        k = hw_multiplicity_in_rows(apply_es, weight_rows[w])
        if k:
            out[w] = k
    by_dims = decompose_weight_dims(weyl_extend(dims, blocks), blocks)
    differ = [w for w in out.keys() | by_dims.keys() if out.get(w) != by_dims.get(w)]
    if differ:
        w = max(differ)
        raise ModuleAuditError(
            f"at {w} the weight dims give multiplicity {by_dims.get(w, 0)}, "
            f"the highest-weight count {out.get(w, 0)}"
        )
    return out


def _simple_positions(blocks) -> list:
    # the i whose transposition (i, i + 1) is a simple reflection of a block
    starts = [sum(blocks[:b]) for b in range(len(blocks))]
    return [i for s, n in zip(starts, blocks) for i in range(s, s + n - 1)]


def _reflect(w: tuple, i: int) -> tuple:
    return w[:i] + (w[i + 1], w[i]) + w[i + 2 :]


def check_weyl_symmetric(weight_dims: dict, blocks) -> None:
    """Raise ModuleAuditError naming a weight at which the dims
    {weight: dim} are not symmetric under a simple reflection of some gl
    block.  The character of every finite-dimensional module, and so of
    every braided power, is Weyl symmetric."""
    simple = _simple_positions(blocks)
    for w, k in weight_dims.items():
        for i in simple:
            if weight_dims.get(_reflect(w, i), 0) != k:
                raise ModuleAuditError(f"weight dims are not Weyl symmetric at {w}")


def weyl_extend(dominant_dims: dict, blocks) -> dict:
    """The Weyl-symmetric table {weight: dim} that agrees with
    dominant_dims, {dominant weight: dim}, at its weights: each dim
    copied over its weight's orbit, walked by simple reflections."""
    simple = _simple_positions(blocks)
    out = {}
    for mu, k in dominant_dims.items():
        out[mu] = k
        stack = [mu]
        while stack:
            w = stack.pop()
            for i in simple:
                v = _reflect(w, i)
                if v not in out:
                    out[v] = k
                    stack.append(v)
    return out


def decompose_weight_dims(weight_dims: dict, blocks) -> IrrepMultiset:
    """Decompose a module over the gl blocks `blocks` from its character
    {weight: dim}.  By Weyl's character formula, the character times the
    Weyl denominator, the product of (1 - e^-alpha) over the positive
    roots alpha = e_i - e_j (i < j) of every block, is the sum over the
    components V_lam and the Weyl group elements w of
    sign(w) e^(w(lam + rho) - rho).  That weight is dominant only when
    w(lam + rho) is strictly dominant, and the strictly dominant lam + rho
    is the only such weight of its orbit, fixed by w = 1 alone.  So only
    w = 1 leaves a dominant weight, and the product's coefficient at a
    dominant mu is the multiplicity of V_mu.  Each root is one pass
    new[mu] = old[mu] - old[mu + alpha]; for gl_2 that is
    dim_lam - dim_(lam + alpha).

    Raises ModuleAuditError when the dims are not symmetric under a
    simple reflection of some block, or a multiplicity is negative.  The
    count check after them cannot fail on a Weyl-symmetric table, whose
    components always account for every dimension; it stays as a safety
    assertion."""
    check_weyl_symmetric(weight_dims, blocks)
    starts = [sum(blocks[:b]) for b in range(len(blocks))]
    char = dict(weight_dims)
    for s, n in zip(starts, blocks):
        for i in range(s, s + n):
            for j in range(i + 1, s + n):
                new = dict(char)
                for mu, k in char.items():
                    lower = mu[:i] + (mu[i] - 1,) + mu[i + 1 : j] + (mu[j] + 1,) + mu[j + 1 :]
                    new[lower] = new.get(lower, 0) - k
                char = {mu: k for mu, k in new.items() if k}
    out = IrrepMultiset(blocks=blocks)
    for mu, mult in char.items():
        if not dominant(mu, blocks):
            continue
        if mult < 0:
            raise ModuleAuditError(f"negative multiplicity {mult} of {mu}")
        out[mu] = mult
    total = sum(weight_dims.values())
    if out.total_dim() != total:
        raise ModuleAuditError(
            f"decomposition accounts for {out.total_dim()} of {total} dimensions"
        )
    return out


def decompose(m: WeightModule) -> IrrepMultiset:
    """Isotypic decomposition of a completely reducible module over
    Q(q), its multiplicities the dims of certified kernels
    (decompose_weight_rows); a specialized module is refused with
    ValueError."""
    if m.modulus is not None:
        raise ValueError("decompose serves modules over Q(q) only")
    apply_es = [coproduct((m,), i) for i in range(m.ngen)]
    rows = {w: [{i: dict(ONE)} for i in idxs] for w, idxs in m.weight_blocks().items()}
    return decompose_weight_rows(rows, m.blocks, apply_es)
