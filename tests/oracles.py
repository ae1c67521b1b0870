"""Reference routes the tests compare the program against, which no
command takes.

The relative tower keeps each level from degree 3 as coordinates over
the level below (braided._level); braided_power multiplies it out into
V^(ox n), where a level's rows are vectors that a highest-weight count
or a reference meet can read.  Each level's vectors are expanded once
per module and side and stored on the module (WeightModule._stored).
contains tests membership by one rank comparison (sp_rank, the pivot
count of qarith.sp_echelon), and sp_annihilator gives the annihilator
that the reference meet qarith.sp_intersect takes."""

from braidpow import braided
from braidpow.qarith import Subspace, _laurent_row, fp_rref, sp_apply, sp_echelon, sp_kernel


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
