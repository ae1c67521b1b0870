"""Reference routes the tests compare the program against, which no
command takes.

The relative tower keeps each level from degree 3 as coordinates over
the level below (braided._level); braided_power multiplies it out into
V^(ox n), where a level's rows are vectors that a highest-weight count
or a reference meet can read.  Each level's vectors are expanded once
per module and side and stored on the module (WeightModule._stored).
contains tests membership by one rank comparison (sp_rank, the pivot
count of qarith.sp_echelon), and sp_annihilator gives the annihilator
that the reference meet qarith.sp_intersect takes.

audit_module is the reference module audit: the defining relations
checked on the column maps themselves, with Laurent entries over Q(q)
and ints over F_P, by the map operations sp_compose, sp_map_add and
sp_map_scale in the field of the modulus p (None over Q(q)).  The
program's audit (uqmod.audit_module) checks the same relations on int
maps (qarith.MapImages) and must agree with it, message for message."""

from braidpow import braided
from braidpow.errors import ModuleAuditError
from braidpow.laurent import ladd, leval_fp, lmul, lqint
from braidpow.qarith import Subspace, _laurent_row, fp_rref, sp_apply, sp_echelon, sp_kernel
from braidpow.uqmod import pairing


def _expand(blocks: dict, below: list, d: int, p) -> dict:
    """blocks {weight: rows} of relative rows, the row {a * d + b: t}
    standing for sum t * below[a] ox e_b, as those vectors: each row's
    image under the front map {a * d + b: below[a] ox e_b}, by sp_apply
    over Q(q) (p None) or F_p."""
    front = {
        a * d + b: {c * d + b: v for c, v in row.items()}
        for a, row in enumerate(below)
        for b in range(d)
    }
    return {w: [sp_apply(front, row, p) for row in rows] for w, rows in blocks.items()}


def _vectors(V, kind: str, n: int) -> list:
    # the rows of P^n in level order as vectors of V^(ox n), expanded the
    # first time they are read and stored on V
    return V._stored(
        ("vectors", kind, n),
        lambda: braided._level_rows(_absolute(V, kind, n, braided._level(V, kind, n))),
    )


def _absolute(V, kind: str, n: int, blocks: dict) -> dict:
    """blocks {weight: rows} of P^n as vectors of V^(ox n).  Levels 0 to 2
    already are; from degree 3 the blocks are expanded over the rows of
    P^(n-1) as vectors (_vectors), so each level below is expanded once."""
    if n < 3:
        return blocks
    return _expand(blocks, _vectors(V, kind, n - 1), V.dim, V.modulus)


def braided_power(V, kind: str, n: int) -> Subspace:
    """n-th braided power of the kind side of V ox V, in both fields the
    level expanded into V^(ox n) (_absolute) and echelonized."""
    level = braided._level(V, kind, n)
    return braided.weight_rows_subspace(V.dim**n, _absolute(V, kind, n, level), V.modulus)


def sp_rank(rows) -> int:
    return len(sp_echelon(rows))


def contains(sub: Subspace, vector) -> bool:
    """Whether a dict or list row of int, Fraction or Laurent entries lies
    in the span; over F_modulus, a row {col: int}.  The row lies in it
    exactly when adding it leaves the rank at sub.dim."""
    if sub.modulus is not None:
        return len(fp_rref([*sub.rows, vector], sub.modulus)) == sub.dim
    return sp_rank([*sub.rows, _laurent_row(vector)]) == sub.dim


def sp_annihilator(rows, cols) -> list[dict]:
    """Basis of the annihilator of span(rows) under the standard pairing
    x . y = sum_c x_c y_c, inside the coordinates cols, which must hold
    every entry of every row.  Its dimension is len(cols) - rank(rows)."""
    cols = sorted(cols)
    local = {c: i for i, c in enumerate(cols)}
    system = [{local[c]: p for c, p in row.items()} for row in rows]
    return [
        {cols[i]: p for i, p in z.items()}
        for z in sp_kernel(system, len(cols))
    ]


def sp_compose(opa: dict, opb: dict, p=None) -> dict:
    """Column map of a∘b."""
    out = {}
    for c, col in opb.items():
        v = sp_apply(opa, col, p)
        if v:
            out[c] = v
    return out


def sp_map_add(opa: dict, opb: dict, p=None) -> dict:
    out: dict[int, dict] = {}
    for op in (opa, opb):
        for c, col in op.items():
            cur = out.setdefault(c, {})
            for r, t in col.items():
                s = ladd(cur.get(r, {}), t) if p is None else (cur.get(r, 0) + t) % p
                if s:
                    cur[r] = s
                else:
                    cur.pop(r, None)
    return {c: col for c, col in out.items() if col}


def sp_map_scale(op: dict, c, p=None) -> dict:
    """The map times the scalar c, a Laurent polynomial over Q(q) and an
    int over F_p."""
    out = {}
    for k, col in op.items():
        if p is None:
            col = {r: s for r, v in col.items() if (s := lmul(v, c))}
        else:
            col = {r: s for r, v in col.items() if (s := v * c % p)}
        if col:
            out[k] = col
    return out


def _qint(k: int, x):
    # the q-integer [k] over Q(q) (x None), its value at q = x in F_P
    return lqint(k) if x is None else leval_fp(lqint(k), x)


def audit_module(m) -> None:
    """The reference audit: weight homogeneity, [E_i, F_j] = delta_ij
    [(alpha_i | w)] on weight w, and the commuting and Serre relations,
    each written without a difference, on the column maps in the
    module's field; raises ModuleAuditError with uqmod.audit_module's
    messages."""
    wts, p = m.weights, m.modulus
    for i, alpha in enumerate(m.alphas):
        for op, sign in ((m.e_ops[i], 1), (m.f_ops[i], -1)):
            for c, col in op.items():
                want = tuple(w + sign * a for w, a in zip(wts[c], alpha))
                for r in col:
                    if wts[r] != want:
                        raise ModuleAuditError(
                            f"{m.kind}: generator {i} is not weight-homogeneous"
                        )
    two = _qint(2, m.x)
    for i in range(m.ngen):
        for j in range(m.ngen):
            expect = {}
            if i == j:
                for c, w in enumerate(wts):
                    k = pairing(m.alphas[i], w)
                    if k:
                        expect[c] = {c: _qint(k, m.x)}
            ef = sp_compose(m.e_ops[i], m.f_ops[j], p)
            fe = sp_map_add(sp_compose(m.f_ops[j], m.e_ops[i], p), expect, p)
            if ef != fe:
                raise ModuleAuditError(f"{m.kind}: [E_{i}, F_{j}] relation fails")
    for ops in (m.e_ops, m.f_ops):
        for i in range(m.ngen):
            for j in range(m.ngen):
                if i == j:
                    continue
                aij = pairing(m.alphas[i], m.alphas[j])
                if aij == 0:
                    ij, ji = sp_compose(ops[i], ops[j], p), sp_compose(ops[j], ops[i], p)
                    if ij != ji:
                        raise ModuleAuditError(
                            f"{m.kind}: orthogonal generators {i},{j} do not commute"
                        )
                elif aij == -1:
                    xii_j = sp_compose(ops[i], sp_compose(ops[i], ops[j], p), p)
                    xiji = sp_compose(ops[i], sp_compose(ops[j], ops[i], p), p)
                    xjii = sp_compose(ops[j], sp_compose(ops[i], ops[i], p), p)
                    if sp_map_add(xii_j, xjii, p) != sp_map_scale(xiji, two, p):
                        raise ModuleAuditError(
                            f"{m.kind}: Serre relation fails for {i},{j}"
                        )
