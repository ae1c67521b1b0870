"""Sparse linear algebra over Q(q), and its one prime-field kernel.

The sp_* routines are a sparse fraction-free elimination over Laurent
rows: a row is a dict {column: Laurent dict} that stores no zero entry
and holds int coefficients only.  Elimination cross-multiplies rows
instead of dividing, then strips each row to the canonical
representative of its line: srow_strip removes the common q power,
integer content and any common polynomial factor (one GCDHEU pass over
the row, laurent.lcofactors), so every returned row holds primitive int
coefficients.  A reduced echelon basis of stripped rows is the canonical
form of a subspace.  Subspace.span and Subspace.contains are the one
boundary for rationals: they clear the denominators of a caller's row
before it enters the engine.

sp_rank, sp_kernel and through it sp_intersect first rank the system
over F_P at the fixed unit q = _SCREEN_X (_screen_rank).  That rank is a
lower bound of the rank over Q(q); when it already is the largest
possible rank, they answer without the exact elimination.  Any smaller
rank is discarded, so no result depends on the screen point.

Specialize mode never enters that engine.  fp_rref and fp_kernel
eliminate rows {col: int} over F_p with pivots scaled to 1 (fp_rref
also ranks the screen), and a Subspace over F_p holds fp_rref's rows;
Subspace.from_sparse and Subspace.contains are the one place that picks
between the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .laurent import (
    ONE,
    P,
    ladd,
    lconst,
    lcofactors,
    ldiv_exact,
    llcm,
    lmul,
    lneg,
    lshift,
    lsub,
)


# ---------------------------------------------------------------------------
# sparse row engine
#
# A row is {col: Laurent}; no zero polynomials stored.  Rows are kept
# content-stripped: int coefficients with no common q power, integer
# content, or polynomial factor across the entries.


def srow_strip(row: dict) -> dict:
    """Strip a row of int-coefficient Laurent entries of its common q
    power, its content and any common polynomial factor.  The result has
    coprime int coefficients and a positive leading coefficient in its
    first column."""
    if not row:
        return row
    shift = min(min(p) for p in row.values())
    if shift:
        row = {c: lshift(p, -shift) for c, p in row.items()}
    cont = 0
    for p in row.values():
        cont = gcd(cont, *p.values())
    lead = row[min(row)]
    if lead[max(lead)] < 0:
        cont = -cont
    if cont != 1:
        row = {c: {e: v // cont for e, v in p.items()} for c, p in row.items()}
    return dict(zip(row, lcofactors(list(row.values()))))


def _cross(row: dict, pivot_row: dict, col: int) -> dict:
    # pivot_row[col]*row - row[col]*pivot_row; the entry at col cancels
    # exactly and is skipped, and so is a multiplication by a pivot or
    # row entry 1
    a, b = pivot_row[col], row[col]
    if a == ONE:
        out = {c: p for c, p in row.items() if c != col}
    else:
        out = {c: lmul(a, p) for c, p in row.items() if c != col}
    for c, p in pivot_row.items():
        if c == col:
            continue
        s = lsub(out.get(c, {}), p if b == ONE else lmul(b, p))
        if s:
            out[c] = s
        else:
            out.pop(c, None)
    return out


def sp_echelon(rows, reduced: bool = True) -> dict:
    """Eliminate sparse Laurent rows.  Returns {pivot_col: row}; with
    reduced=True the rows form an RREF up to scaling (each row touches
    its own pivot column and free columns only)."""
    piv: dict[int, dict] = {}
    for row in rows:
        sp_pivot_insert(piv, row)
    if reduced:
        _back_reduce(piv)
    return piv


def _back_reduce(piv: dict) -> None:
    # clear every pivot column from the other rows, last pivot first
    if len(piv) < 2:
        return
    for c in sorted(piv, reverse=True):
        row = piv[c]
        others = [c2 for c2 in row if c2 != c and c2 in piv]
        for c2 in sorted(others):
            row = _cross(row, piv[c2], c2)
        piv[c] = srow_strip(row)


# The screen point: q is evaluated at this unit of F_P.  It is no root
# of unity of small order, where q-integers and the like would vanish.
_SCREEN_X = 1_000_000_007


def _screen_rank(rows, ncols: int) -> int:
    """Rank over F_P (P = laurent.P) of Laurent rows at q = _SCREEN_X,
    counted up to ncols.  Evaluation at a unit is a ring map from
    Z[q, 1/q] to F_P, so a minor that is nonzero at the point is nonzero
    over Q(q): this rank is a lower bound of the exact one.  It proves a
    full rank; a smaller one proves nothing and is not used."""
    # x**e once per exponent of the system, where leval_fp would take a
    # pow per term
    powers: dict[int, int] = {}
    images = []
    for row in rows:
        image = {}
        for c, poly in row.items():
            v = 0
            for e, coeff in poly.items():
                xe = powers.get(e)
                if xe is None:
                    xe = powers[e] = pow(_SCREEN_X, e, P)
                v += coeff * xe
            image[c] = v
        images.append(image)
    # fp_rref reduces the values mod P
    return len(fp_rref(images, P, ncols))


def sp_rank(rows) -> int:
    """Rank over Q(q); the F_P screen answers a rank of min(#rows,
    #columns) without the exact elimination."""
    rows = list(rows)
    full = min(len(rows), len({c for row in rows for c, p in row.items() if p}))
    if _screen_rank(rows, full) == full:
        return full
    return len(sp_echelon(rows, reduced=False))


def sp_pivot_insert(piv: dict, row: dict):
    """Reduce row against the pivot dict in place; on a new pivot, store
    the stripped row and return it, else return None."""
    row = {c: p for c, p in row.items() if p}
    while row:
        c = min(row)
        hit = piv.get(c)
        if hit is None:
            row = srow_strip(row)
            piv[c] = row
            return row
        row = srow_strip(_cross(row, hit, c))
    return None


def sp_kernel(rows, ncols: int) -> list[dict]:
    """Basis of {x : row . x = 0 for every row}, as stripped Laurent rows
    in echelon order.  Back-substitution stays fraction free: for a free
    column f, x_f is the lcm L of the pivot entries of the rows touching
    f, and each such row with pivot c gives x_c = -row[f] * (L / row[c]).
    A system of full column rank has the empty kernel: when the F_P
    screen proves that rank, no exact elimination runs, and otherwise the
    forward pass decides."""
    rows = list(rows)
    if _screen_rank(rows, ncols) == ncols:
        return []
    piv = sp_echelon(rows, reduced=False)
    if len(piv) == ncols:
        return []
    _back_reduce(piv)
    out = []
    for f in range(ncols):
        if f in piv:
            continue
        touching = [(c, prow) for c, prow in piv.items() if f in prow]
        den = dict(ONE)
        for c, prow in touching:
            den = llcm(den, prow[c])
        vec = {f: den}
        for c, prow in touching:
            vec[c] = lneg(lmul(prow[f], ldiv_exact(den, prow[c])))
        out.append(srow_strip(vec))
    return out


def sp_span_echelon(rows) -> list[dict]:
    piv = sp_echelon(rows, reduced=True)
    return [piv[c] for c in sorted(piv)]


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


def sp_intersect(rows: list[dict], ann: list[dict]) -> list[dict]:
    """Canonical reduced echelon basis of span(rows) meet ker(ann): the
    combinations of rows that pair to zero with every row of ann.  With
    ann = sp_annihilator(other, cols) this is span(rows) meet span(other).
    Only the pairing system M[j][i] = rows[j] . ann[i] is eliminated, one
    equation per annihilator row and one unknown per row.  The braided
    power step (braided._meet_step) is tested against this meet."""
    rows = [r for r in rows if r]
    if not rows:
        return []
    by_col: dict[int, list] = {}
    for j, row in enumerate(rows):
        for c, p in row.items():
            by_col.setdefault(c, []).append((j, p))
    system = []
    for a in ann:
        eq: dict[int, dict] = {}
        for c, pa in a.items():
            for j, p in by_col.get(c, ()):
                s = ladd(eq.get(j, {}), lmul(p, pa))
                if s:
                    eq[j] = s
                else:
                    del eq[j]
        if eq:
            system.append(eq)
    if not system:
        return sp_span_echelon(rows)
    return sp_combine(rows, sp_kernel(system, len(rows)))


def sp_combine(rows: list[dict], vectors) -> list[dict]:
    """Canonical reduced echelon basis of the span of the combinations
    sum_j z_j rows[j], one for each vector z = {j: Laurent}."""
    result = []
    for z in vectors:
        vec: dict[int, dict] = {}
        for j, coeff in z.items():
            for c, p in rows[j].items():
                s = ladd(vec.get(c, {}), lmul(coeff, p))
                if s:
                    vec[c] = s
                else:
                    vec.pop(c, None)
        if vec:
            result.append(srow_strip(vec))
    return sp_span_echelon(result) if result else []


# ---------------------------------------------------------------------------
# int rows over F_p
#
# Specialize mode eliminates rows {col: int} over F_p directly, without
# Laurent entries.  A row is kept in reduced row echelon form with its
# pivot scaled to 1, so an update is row -= f * pivot_row mod p and
# touches only the free columns of the pivot row.


def fp_rref(rows, p: int, ncols: int | None = None) -> dict:
    """Reduced row echelon form over F_p of rows {col: int} as
    {pivot col: row}: each row has pivot entry 1 and no entry in another
    pivot column.  Entries are reduced mod p on the way in, so one that p
    divides is zero and never a pivot.  Stops once ncols pivots exist."""
    piv: dict[int, dict] = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        for c in [c for c in row if c in piv]:
            f = row.pop(c)
            for k, v in piv[c].items():
                if k != c:
                    s = (row.get(k, 0) - f * v) % p
                    if s:
                        row[k] = s
                    else:
                        del row[k]
        if not row:
            continue
        j = min(row)
        inv = pow(row[j], -1, p)
        if inv != 1:
            row = {k: v * inv % p for k, v in row.items()}
        for prow in piv.values():
            f = prow.pop(j, 0)
            if f:
                for k, v in row.items():
                    if k != j:
                        s = (prow.get(k, 0) - f * v) % p
                        if s:
                            prow[k] = s
                        else:
                            del prow[k]
        piv[j] = row
        if len(piv) == ncols:
            break
    return piv


def fp_kernel(rows, ncols: int, p: int) -> list[dict]:
    """Basis of {x : row . x = 0 mod p for every row} in columns
    0..ncols-1, read off the reduced row echelon form: one vector per
    free column f, with x_f = 1 and x_c = -row[f] for the row of each
    pivot c, in order of f.  Entries are ints in 0 < x < p."""
    piv = fp_rref(rows, p, ncols)
    out = []
    for f in range(ncols):
        if f in piv:
            continue
        vec = {f: 1}
        for c, prow in piv.items():
            v = prow.get(f)
            if v:
                vec[c] = p - v
        out.append(vec)
    return out


def sp_apply(op: dict, vec: dict) -> dict:
    """Apply a column map {col: {row: Laurent}} to a sparse vector."""
    out: dict[int, dict] = {}
    for c, p in vec.items():
        column = op.get(c)
        if not column:
            continue
        for r, coeff in column.items():
            s = ladd(out.get(r, {}), lmul(p, coeff))
            if s:
                out[r] = s
            else:
                out.pop(r, None)
    return out


def sp_compose(opa: dict, opb: dict) -> dict:
    """Column map of a∘b."""
    out = {}
    for c, col in opb.items():
        v = sp_apply(opa, col)
        if v:
            out[c] = v
    return out


def sp_map_add(opa: dict, opb: dict) -> dict:
    out = {c: dict(col) for c, col in opa.items()}
    for c, col in opb.items():
        cur = out.setdefault(c, {})
        for r, p in col.items():
            s = ladd(cur.get(r, {}), p)
            if s:
                cur[r] = s
            else:
                cur.pop(r, None)
        if not cur:
            out.pop(c)
    return out


def sp_map_scale(op: dict, poly: dict) -> dict:
    if not poly:
        return {}
    return {c: {r: lmul(p, poly) for r, p in col.items()} for c, col in op.items()}


def sp_map_equal(opa: dict, opb: dict, modulus: int | None = None) -> bool:
    """Whether two column maps agree; over F_modulus, entry by entry
    mod modulus."""
    cols = set(opa) | set(opb)
    for c in cols:
        cola, colb = opa.get(c, {}), opb.get(c, {})
        if modulus is None:
            if cola != colb:
                return False
            continue
        for r in set(cola) | set(colb):
            diff = lsub(cola.get(r, {}), colb.get(r, {}))
            if any(v % modulus for v in diff.values()):
                return False
    return True


# ---------------------------------------------------------------------------
# subspaces


def _laurent_row(row) -> dict:
    # a dict or list row of int, Fraction or Laurent entries as a Laurent
    # row with int coefficients: the row times the lcm of its
    # denominators.  Its zero entries are dropped by the elimination.
    items = row.items() if isinstance(row, dict) else enumerate(row)
    row = {c: x if isinstance(x, dict) else lconst(x) for c, x in items}
    den = lcm(*(v.denominator for p in row.values() for v in p.values()))
    return {
        c: {e: v.numerator * (den // v.denominator) for e, v in p.items()}
        for c, p in row.items()
    }


@dataclass(frozen=True)
class Subspace:
    """Row span inside K^ambient as its reduced echelon basis in pivot
    order; each row's pivot is its first column.  K is Q(q) when modulus
    is None, with stripped Laurent rows; else K is F_modulus, with
    fp_rref's rows {col: int}, pivot entry 1.  The basis is canonical, so
    equal spans compare equal."""

    ambient: int
    rows: tuple
    modulus: int | None = None

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def from_sparse(cls, ambient: int, rows, modulus: int | None = None) -> "Subspace":
        """Span of Laurent rows, or over F_modulus of rows {col: int}."""
        if modulus is None:
            return cls(ambient, tuple(sp_span_echelon(rows)))
        piv = fp_rref(rows, modulus)
        return cls(ambient, tuple(piv[c] for c in sorted(piv)), modulus)

    @classmethod
    def span(cls, ambient: int, rows) -> "Subspace":
        """Span of dict or list rows of int, Fraction or Laurent entries."""
        return cls.from_sparse(ambient, [_laurent_row(r) for r in rows])

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls.from_sparse(ambient, [{i: dict(ONE)} for i in range(ambient)])

    def sparse_rows(self) -> list[dict]:
        return [dict(row) for row in self.rows]

    def contains(self, vector) -> bool:
        """Whether a dict or list row of int, Fraction or Laurent entries
        lies in the span; over F_modulus, a row {col: int}."""
        if self.modulus is not None:
            return len(fp_rref([*self.rows, vector], self.modulus)) == self.dim
        piv = {min(row): row for row in self.rows}
        return sp_pivot_insert(piv, _laurent_row(vector)) is None
