"""Exact linear algebra over the rational function field Q(q).

Everything here is a sparse fraction-free elimination over Laurent rows:
a row is a dict {column: Laurent dict} that stores no zero entry.
Elimination cross-multiplies rows instead of dividing, then strips each
row of its q-power, integer content, and any common polynomial factor.
Every row the engine returns holds primitive int coefficients; rationals
handed in by a caller (a specialized module, a Fraction scalar) are
cleared to integers by the first srow_strip.  A stripped row is the
canonical representative of its line, so a reduced echelon basis of
stripped rows is the canonical form of a subspace, and Subspace is no
more than the ambient dimension and that basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .laurent import (
    ONE,
    ladd,
    lconst,
    ldiv_exact,
    lgcd,
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


def _integral(row: dict) -> dict:
    # clear the denominators of a row that holds rational coefficients
    den = lcm(*(v.denominator for p in row.values() for v in p.values()))
    return {
        c: {e: v.numerator * (den // v.denominator) for e, v in p.items()}
        for c, p in row.items()
    }


def srow_strip(row: dict) -> dict:
    """Strip a row of its common q power, its content and any common
    polynomial factor.  The result has coprime int coefficients and a
    positive leading coefficient in its first column; rational input is
    cleared to integers here."""
    if not row:
        return row
    shift = min(min(p) for p in row.values())
    if shift:
        row = {c: lshift(p, -shift) for c, p in row.items()}
    if not all(type(v) is int for p in row.values() for v in p.values()):
        row = _integral(row)
    cont = 0
    for p in row.values():
        cont = gcd(cont, *p.values())
    lead = row[min(row)]
    if lead[max(lead)] < 0:
        cont = -cont
    if cont != 1:
        row = {c: {e: v // cont for e, v in p.items()} for c, p in row.items()}
    g: dict = {}
    for p in row.values():
        g = lgcd(p, g)
        if g == ONE:
            break
    if g and max(g) > 0:
        row = {c: ldiv_exact(p, g) for c, p in row.items()}
    return row


def _cross(row: dict, pivot_row: dict, col: int) -> dict:
    # pivot_row[col]*row - row[col]*pivot_row, entry at col cancels exactly
    a, b = pivot_row[col], row[col]
    out = {}
    for c, p in row.items():
        out[c] = lmul(a, p)
    for c, p in pivot_row.items():
        s = lsub(out.get(c, {}), lmul(b, p))
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
        row = {c: p for c, p in row.items() if p}
        while row:
            c = min(row)
            hit = piv.get(c)
            if hit is None:
                piv[c] = srow_strip(row)
                break
            row = srow_strip(_cross(row, hit, c))
    if reduced and len(piv) > 1:
        for c in sorted(piv, reverse=True):
            row = piv[c]
            others = [c2 for c2 in row if c2 != c and c2 in piv]
            for c2 in sorted(others):
                row = _cross(row, piv[c2], c2)
            piv[c] = srow_strip(row)
    return piv


def sp_rank(rows) -> int:
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
    f, and each such row with pivot c gives x_c = -row[f] * (L / row[c])."""
    piv = sp_echelon(rows, reduced=True)
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


def sp_intersect(rows_a: list[dict], rows_b: list[dict]) -> list[dict]:
    """Intersection of the row spans, as echelonized stripped rows."""
    rows_a = [r for r in rows_a if r]
    rows_b = [r for r in rows_b if r]
    if not rows_a or not rows_b:
        return []
    stacked = rows_a + rows_b
    transpose: dict[int, dict] = {}
    for i, row in enumerate(stacked):
        for c, p in row.items():
            transpose.setdefault(c, {})[i] = p
    combos = sp_kernel([transpose[c] for c in sorted(transpose)], len(stacked))
    result = []
    for z in combos:
        vec: dict[int, dict] = {}
        for i, coeff in z.items():
            if i >= len(rows_a):
                continue
            for c, p in rows_a[i].items():
                s = ladd(vec.get(c, {}), lmul(coeff, p))
                if s:
                    vec[c] = s
                else:
                    vec.pop(c, None)
        if vec:
            result.append(srow_strip(vec))
    return sp_span_echelon(result)


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


def sp_map_equal(opa: dict, opb: dict) -> bool:
    cols = set(opa) | set(opb)
    for c in cols:
        if opa.get(c, {}) != opb.get(c, {}):
            return False
    return True


# ---------------------------------------------------------------------------
# subspaces


def _laurent_row(row) -> dict:
    # a dict or list row of int, Fraction or Laurent entries as a Laurent
    # row; its zero entries are dropped by the elimination
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: x if isinstance(x, dict) else lconst(x) for c, x in items}


@dataclass(frozen=True)
class Subspace:
    """Row span inside Q(q)^ambient as its reduced echelon basis of
    stripped rows in pivot order; each row's pivot is its first column.
    The basis is canonical, so equal spans compare equal."""

    ambient: int
    rows: tuple

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def from_sparse(cls, ambient: int, rows) -> "Subspace":
        return cls(ambient, tuple(sp_span_echelon(rows)))

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
        lies in the span."""
        piv = {min(row): row for row in self.rows}
        return sp_pivot_insert(piv, _laurent_row(vector)) is None
