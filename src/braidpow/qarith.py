"""Exact linear algebra over the rational function field Q(q).

Scalars are RatScalar: a pair of Laurent polynomials num/den kept in a
canonical form (den has lowest exponent 0, leading coefficient 1, and no
common factor with num), so zero testing is exact and cost free.

The workhorse is a sparse fraction-free elimination over Laurent rows:
a row is a dict {column: Laurent dict}.  Elimination cross-multiplies
rows instead of dividing, then strips each row of its q-power, integer
content, and any common polynomial factor.  Every row the engine returns
holds primitive int coefficients; rationals handed in by a caller (a
specialized module, a RatScalar entry) are cleared to integers by the
first srow_strip or srow_from_rat.  Dense ExactMatrix / Subspace objects
are thin wrappers used at API boundaries; all heavy callers feed the
sparse engine directly with weight-blocked rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .laurent import (
    ONE,
    ladd,
    lconst,
    ldiv_exact,
    leval,
    lformat,
    lgcd,
    llcm,
    lmul,
    lneg,
    lqint,
    lscale,
    lshift,
    lsub,
)


class PoleError(ArithmeticError):
    """Denominator vanishes at the requested specialization point."""


def _as_laurent(x) -> dict:
    if isinstance(x, dict):
        return x
    if isinstance(x, RatScalar):
        raise TypeError("RatScalar is not a Laurent polynomial")
    return lconst(x)


class RatScalar:
    """Element of Q(q) as num/den in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_laurent(num)
        den = dict(ONE) if den is None else _as_laurent(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = {}, dict(ONE)
            return
        g = lgcd(num, den)
        if max(g) > 0:
            num = ldiv_exact(num, g)
            den = ldiv_exact(den, g)
        shift = min(den)
        if shift:
            num = lshift(num, -shift)
            den = lshift(den, -shift)
        lead = den[max(den)]
        if lead != 1:
            num = lscale(num, Fraction(1) / lead)
            den = lscale(den, Fraction(1) / lead)
        self.num, self.den = num, den

    @classmethod
    def of(cls, x) -> "RatScalar":
        if isinstance(x, RatScalar):
            return x
        return cls(lconst(x) if not isinstance(x, dict) else x)

    @classmethod
    def q_power(cls, e: int) -> "RatScalar":
        return cls({e: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other):
        other = RatScalar.of(other)
        return RatScalar(
            ladd(lmul(self.num, other.den), lmul(other.num, self.den)),
            lmul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        out = RatScalar.__new__(RatScalar)
        out.num, out.den = lneg(self.num), dict(self.den)
        return out

    def __sub__(self, other):
        return self + (-RatScalar.of(other))

    def __rsub__(self, other):
        return RatScalar.of(other) + (-self)

    def __mul__(self, other):
        other = RatScalar.of(other)
        return RatScalar(lmul(self.num, other.num), lmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatScalar.of(other)
        if not other.num:
            raise ZeroDivisionError("division by zero scalar")
        return RatScalar(lmul(self.num, other.den), lmul(self.den, other.num))

    def __rtruediv__(self, other):
        return RatScalar.of(other) / self

    def __eq__(self, other):
        if not isinstance(other, RatScalar):
            if isinstance(other, (int, Fraction, dict)):
                other = RatScalar.of(other)
            else:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    def specialize(self, q0) -> Fraction:
        d = leval(self.den, q0)
        if not d:
            raise PoleError("pole at specialization point")
        return leval(self.num, q0) / d

    def __repr__(self):
        if self.den == ONE:
            return lformat(self.num)
        return f"({lformat(self.num)})/({lformat(self.den)})"


R_ZERO = RatScalar(0)
R_ONE = RatScalar(1)


def quantum_integer(k: int, d: int = 1) -> RatScalar:
    """(k) in the balanced convention, at the d-th power of q."""
    return RatScalar(lqint(k, d))


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


def srow_from_rat(entries: dict) -> dict:
    """Clear denominators of a {col: RatScalar} row into a stripped
    Laurent row."""
    entries = {c: v for c, v in entries.items() if v.num}
    if not entries:
        return {}
    common = dict(ONE)
    for v in entries.values():
        common = llcm(common, v.den)
    row = {c: lmul(v.num, ldiv_exact(common, v.den)) for c, v in entries.items()}
    return srow_strip(row)


def sp_kernel(rows, ncols: int) -> list[dict]:
    """Basis of {x : row . x = 0 for every row}, as stripped Laurent rows
    in echelon order."""
    piv = sp_echelon(rows, reduced=True)
    pivots = set(piv)
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        entries = {f: R_ONE}
        for c, prow in piv.items():
            hit = prow.get(f)
            if hit:
                entries[c] = RatScalar(lneg(hit), prow[c])
        out.append(srow_from_rat(entries))
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
# dense API types


class ExactMatrix:
    """Dense matrix of RatScalar entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        self.data = [[RatScalar.of(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[R_ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[R_ONE if i == j else R_ZERO for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> RatScalar:
        return self.data[i][j]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def sparse_rows(self) -> list[dict]:
        return [
            srow_from_rat({j: v for j, v in enumerate(row) if v.num})
            for row in self.data
        ]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


def _dense_row(entries: dict, ncols: int, normalize_col: int | None = None) -> tuple:
    if normalize_col is not None:
        pivot = entries[normalize_col]
        scaled = {c: RatScalar(p, pivot) for c, p in entries.items()}
    else:
        scaled = {c: RatScalar(p) for c, p in entries.items()}
    return tuple(scaled.get(c, R_ZERO) for c in range(ncols))


@dataclass(frozen=True)
class Subspace:
    """Row span in reduced echelon form: pivot entries are 1 and pivot
    columns are otherwise clear."""

    ambient: int
    basis: tuple
    pivots: tuple

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @classmethod
    def from_sparse(cls, ambient: int, rows) -> "Subspace":
        piv = sp_echelon(rows, reduced=True)
        pivots = tuple(sorted(piv))
        basis = tuple(_dense_row(piv[c], ambient, normalize_col=c) for c in pivots)
        return cls(ambient, basis, pivots)

    @classmethod
    def span(cls, ambient: int, rows) -> "Subspace":
        sparse = []
        for row in rows:
            if isinstance(row, dict):
                sparse.append(srow_from_rat({c: RatScalar.of(v) for c, v in row.items()}))
            else:
                sparse.append(srow_from_rat({j: RatScalar.of(v) for j, v in enumerate(row)}))
        return cls.from_sparse(ambient, sparse)

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls.from_sparse(ambient, [{i: dict(ONE)} for i in range(ambient)])

    def sparse_rows(self) -> list[dict]:
        return [
            srow_from_rat({j: v for j, v in enumerate(row) if v.num})
            for row in self.basis
        ]

    def contains(self, vector) -> bool:
        if isinstance(vector, dict):
            rem = {c: RatScalar.of(v) for c, v in vector.items() if RatScalar.of(v).num}
        else:
            rem = {j: RatScalar.of(v) for j, v in enumerate(vector) if RatScalar.of(v).num}
        for p, row in zip(self.pivots, self.basis):
            coeff = rem.get(p)
            if coeff is None or not coeff.num:
                continue
            for c in range(self.ambient):
                v = row[c]
                if not v.num:
                    continue
                s = rem.get(c, R_ZERO) - coeff * v
                if s.num:
                    rem[c] = s
                else:
                    rem.pop(c, None)
        return not rem

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis)

    def __le__(self, other):
        return other.contains_subspace(self)


def row_reduce(m: ExactMatrix) -> Subspace:
    return Subspace.from_sparse(m.cols, m.sparse_rows())


def rank(m: ExactMatrix) -> int:
    return sp_rank(m.sparse_rows())


def kernel(m: ExactMatrix) -> Subspace:
    """Right null space {x : m @ x = 0}."""
    return Subspace.from_sparse(m.cols, sp_kernel(m.sparse_rows(), m.cols))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != b.ambient:
        raise ValueError("ambient dimensions differ")
    return Subspace.from_sparse(a.ambient, sp_intersect(a.sparse_rows(), b.sparse_rows()))


def specialize(m: ExactMatrix, q0) -> list[list[Fraction]]:
    """Evaluate every entry at q = q0; raises PoleError on a vanishing
    denominator."""
    q0 = Fraction(q0)
    if not q0:
        raise ValueError("specialization point must be a nonzero rational")
    return [[v.specialize(q0) for v in row] for row in m.data]
