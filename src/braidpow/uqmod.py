"""Finite-dimensional weight modules for quantized gl_d.

A module stores, per Chevalley generator, the sparse column maps of E_i
and F_i with Laurent polynomial coefficients, plus the gl-weight of each
basis vector.  K_mu never needs a matrix: it acts on a weight vector of
weight w by q**(mu|w) with the standard dot pairing.

The comultiplication is Delta(E) = E ox 1 + K ox E and
Delta(F) = F ox K^-1 + 1 ox F; every tensor construction below follows
it, and audit_module checks the defining relations on actual matrices,
so a convention slip cannot survive construction.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import ONE, ladd, lconst, leval, lqint, lqshift
from .qarith import (
    Subspace,
    sp_apply,
    sp_compose,
    sp_kernel,
    sp_map_add,
    sp_map_equal,
    sp_map_scale,
    sp_rank,
)


class ModuleAuditError(AssertionError):
    """A constructed action violates the defining relations."""


def pairing(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


class WeightModule:
    """Basis-indexed weight module with sparse generator actions."""

    def __init__(
        self, kind, alphas, blocks, weights, e_ops, f_ops, audit=True, q0=None
    ):
        self.kind = kind
        self.alphas = tuple(tuple(a) for a in alphas)
        self.blocks = tuple(blocks)
        self.weights = tuple(tuple(w) for w in weights)
        self.e_ops = tuple(e_ops)
        self.f_ops = tuple(f_ops)
        # q0 is None for generic q; a Fraction once specialized.  The audit
        # then checks the relations with q-integers evaluated at q0.
        self.q0 = q0
        if audit:
            audit_module(self)

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def ngen(self) -> int:
        return len(self.alphas)

    def weight_blocks(self) -> dict:
        try:
            return self._wblocks
        except AttributeError:
            out: dict[tuple, list] = {}
            for i, w in enumerate(self.weights):
                out.setdefault(w, []).append(i)
            self._wblocks = out
            return out

    def __repr__(self):
        return f"WeightModule({self.kind}, dim={self.dim})"


def _map_sub(a: dict, b: dict) -> dict:
    return sp_map_add(a, sp_map_scale(b, lconst(-1)))


def _commutator(a: dict, b: dict) -> dict:
    return _map_sub(sp_compose(a, b), sp_compose(b, a))


def _qint(k: int, q0) -> dict:
    return lqint(k) if q0 is None else lconst(leval(lqint(k), q0))


def audit_module(m: WeightModule) -> None:
    wts = m.weights
    for i, alpha in enumerate(m.alphas):
        for op, sign in ((m.e_ops[i], 1), (m.f_ops[i], -1)):
            for c, col in op.items():
                want = tuple(w + sign * a for w, a in zip(wts[c], alpha))
                for r in col:
                    if wts[r] != want:
                        raise ModuleAuditError(
                            f"{m.kind}: generator {i} is not weight-homogeneous"
                        )
    two = _qint(2, m.q0)
    for i in range(m.ngen):
        for j in range(m.ngen):
            comm = _commutator(m.e_ops[i], m.f_ops[j])
            if i == j:
                expect = {}
                for c, w in enumerate(wts):
                    k = pairing(m.alphas[i], w)
                    if k:
                        expect[c] = {c: _qint(k, m.q0)}
            else:
                expect = {}
            if not sp_map_equal(comm, expect):
                raise ModuleAuditError(f"{m.kind}: [E_{i}, F_{j}] relation fails")
    for ops in (m.e_ops, m.f_ops):
        for i in range(m.ngen):
            for j in range(m.ngen):
                if i == j:
                    continue
                aij = pairing(m.alphas[i], m.alphas[j])
                if aij == 0:
                    if not sp_map_equal(_commutator(ops[i], ops[j]), {}):
                        raise ModuleAuditError(
                            f"{m.kind}: orthogonal generators {i},{j} do not commute"
                        )
                elif aij == -1:
                    xii_j = sp_compose(ops[i], sp_compose(ops[i], ops[j]))
                    xiji = sp_compose(ops[i], sp_compose(ops[j], ops[i]))
                    xjii = sp_compose(ops[j], sp_compose(ops[i], ops[i]))
                    serre = sp_map_add(
                        _map_sub(xii_j, sp_map_scale(xiji, two)), xjii
                    )
                    if not sp_map_equal(serre, {}):
                        raise ModuleAuditError(
                            f"{m.kind}: Serre relation fails for {i},{j}"
                        )


# ---------------------------------------------------------------------------
# constructors


def simple_gl2(l1: int, l2: int) -> WeightModule:
    """Irreducible gl_2 module with highest weight (l1, l2)."""
    if l1 < l2:
        raise ValueError("highest weight must be dominant: l1 >= l2")
    ell = l1 - l2
    weights = [(l1 - i, l2 + i) for i in range(ell + 1)]
    e_op = {i: {i - 1: lqint(i)} for i in range(1, ell + 1)}
    f_op = {i: {i + 1: lqint(ell - i)} for i in range(ell)}
    return WeightModule(
        ("simple_gl2", l1, l2), [(1, -1)], (2,), weights, [e_op], [f_op]
    )


def standard_gld(d: int) -> WeightModule:
    """Vector representation of quantized gl_d on x_1 .. x_d; d = 1 is
    the rootless one-dimensional case."""
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
    gl_d (same simple roots and weight blocks)."""
    if a.alphas != b.alphas or a.blocks != b.blocks:
        raise ValueError("tensor factors live over different algebras")
    if a.q0 != b.q0:
        raise ValueError("tensor factors specialized at different points")
    db = b.dim
    weights = [
        tuple(x + y for x, y in zip(wa, wb)) for wa in a.weights for wb in b.weights
    ]
    e_ops, f_ops = [], []
    for i, alpha in enumerate(a.alphas):
        e_op: dict[int, dict] = {}
        f_op: dict[int, dict] = {}
        for ca in range(a.dim):
            ka = pairing(alpha, a.weights[ca])
            acol_e = a.e_ops[i].get(ca, {})
            acol_f = a.f_ops[i].get(ca, {})
            for cb in range(b.dim):
                idx = ca * db + cb
                kb = pairing(alpha, b.weights[cb])
                col_e: dict[int, dict] = {}
                for ra, p in acol_e.items():
                    col_e[ra * db + cb] = dict(p)
                for rb, p in b.e_ops[i].get(cb, {}).items():
                    tgt = ca * db + rb
                    s = ladd(col_e.get(tgt, {}), lqshift(p, ka, a.q0))
                    if s:
                        col_e[tgt] = s
                    else:
                        col_e.pop(tgt, None)
                if col_e:
                    e_op[idx] = col_e
                col_f: dict[int, dict] = {}
                for ra, p in acol_f.items():
                    col_f[ra * db + cb] = lqshift(p, -kb, a.q0)
                for rb, p in b.f_ops[i].get(cb, {}).items():
                    tgt = ca * db + rb
                    s = ladd(col_f.get(tgt, {}), p)
                    if s:
                        col_f[tgt] = s
                    else:
                        col_f.pop(tgt, None)
                if col_f:
                    f_op[idx] = col_f
        e_ops.append(e_op)
        f_ops.append(f_op)
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
    index alone, b-generators on the second."""
    if a.q0 != b.q0:
        raise ValueError("outer factors specialized at different points")
    la = len(a.weights[0]) if a.dim else 0
    lb = len(b.weights[0]) if b.dim else 0
    alphas = [tuple(al) + (0,) * lb for al in a.alphas] + [
        (0,) * la + tuple(bl) for bl in b.alphas
    ]
    db = b.dim
    weights = [tuple(wa) + tuple(wb) for wa in a.weights for wb in b.weights]
    e_ops, f_ops = [], []
    for i in range(a.ngen):
        e_op, f_op = {}, {}
        for ca, col in a.e_ops[i].items():
            for cb in range(db):
                e_op[ca * db + cb] = {ra * db + cb: dict(p) for ra, p in col.items()}
        for ca, col in a.f_ops[i].items():
            for cb in range(db):
                f_op[ca * db + cb] = {ra * db + cb: dict(p) for ra, p in col.items()}
        e_ops.append(e_op)
        f_ops.append(f_op)
    for i in range(b.ngen):
        e_op, f_op = {}, {}
        for cb, col in b.e_ops[i].items():
            for ca in range(a.dim):
                e_op[ca * db + cb] = {ca * db + rb: dict(p) for rb, p in col.items()}
        for cb, col in b.f_ops[i].items():
            for ca in range(a.dim):
                f_op[ca * db + cb] = {ca * db + rb: dict(p) for rb, p in col.items()}
        e_ops.append(e_op)
        f_ops.append(f_op)
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
    """Evaluate every action coefficient at q = q0 (kept as a constant
    Laurent polynomial so the whole sparse engine applies unchanged)."""
    if m.q0 is not None:
        raise ValueError("module is already specialized")
    q0 = Fraction(q0)
    if q0 == 0:
        raise ValueError("cannot specialize at q = 0")

    def spec_ops(ops):
        out = []
        for op in ops:
            new = {}
            for c, col in op.items():
                newcol = {}
                for r, p in col.items():
                    v = leval(p, q0)
                    if v:
                        newcol[r] = {0: v}
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
    total = Fraction(1)
    pos = 0
    for n in blocks:
        seg = lam[pos : pos + n]
        for i in range(n):
            for j in range(i + 1, n):
                total *= Fraction(seg[i] - seg[j] + j - i, j - i)
        pos += n
    assert total.denominator == 1
    return int(total)


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
    weight space, as stripped rows in the module's ambient coordinates."""
    idxs = m.weight_blocks().get(tuple(mu), [])
    sys_rows: dict[tuple, dict] = {}
    for gi in gens:
        op = m.e_ops[gi]
        for pos, c in enumerate(idxs):
            for r, p in op.get(c, {}).items():
                sys_rows.setdefault((gi, r), {})[pos] = p
    combos = sp_kernel(list(sys_rows.values()), len(idxs))
    return [{idxs[pos]: p for pos, p in z.items()} for z in combos]


def highest_weight_vectors(m: WeightModule, mu) -> Subspace:
    """Joint kernel of all E_i inside the mu weight space, embedded in the
    module's ambient coordinates."""
    return Subspace.from_sparse(m.dim, weight_space_kernel(m, mu, range(m.ngen)))


def hw_multiplicity_in_rows(apply_es, rows: list[dict]) -> int:
    """dim of {v in span(rows) : E_i v = 0 for all i}; apply_es is a list
    of callables acting on sparse vectors."""
    if not rows:
        return 0
    sys_rows: dict[tuple, dict] = {}
    for t, row in enumerate(rows):
        for gi, app in enumerate(apply_es):
            img = app(row)
            for r, p in img.items():
                sys_rows.setdefault((gi, r), {})[t] = p
    return len(rows) - sp_rank(list(sys_rows.values()))


def decompose_weight_rows(weight_rows: dict, blocks, apply_es) -> IrrepMultiset:
    """Decompose a submodule given as {weight: sparse rows}.  Counts
    highest weight vectors per dominant weight and certifies the total
    dimension against the row count."""
    out = IrrepMultiset(blocks=blocks)
    total_rows = 0
    for w in sorted(weight_rows):
        rows = weight_rows[w]
        total_rows += len(rows)
        if not dominant(w, blocks):
            continue
        k = hw_multiplicity_in_rows(apply_es, rows)
        if k:
            out[w] = k
    if out.total_dim() != total_rows:
        raise ModuleAuditError(
            f"decomposition accounts for {out.total_dim()} of {total_rows} dimensions"
        )
    return out


def module_weight_rows(m: WeightModule) -> dict:
    return {
        w: [{i: dict(ONE)} for i in idxs] for w, idxs in m.weight_blocks().items()
    }


def decompose(m: WeightModule) -> IrrepMultiset:
    """Isotypic decomposition of a completely reducible module."""
    apply_es = [
        (lambda vec, op=m.e_ops[i]: sp_apply(op, vec)) for i in range(m.ngen)
    ]
    return decompose_weight_rows(module_weight_rows(m), m.blocks, apply_es)
