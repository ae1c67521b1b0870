"""Sparse linear algebra over Q(q), and its one prime-field kernel.

The sp_* routines are a sparse fraction-free elimination over Laurent
rows: a row is a dict {column: Laurent dict} that stores no zero entry
and holds int coefficients only.  Elimination cross-multiplies rows
instead of dividing (_cross), with both multipliers first divided by
their gcd when neither is a monomial, then strips each row to the
canonical representative of its line: srow_strip removes the common q
power, integer content and any common polynomial factor (one GCDHEU pass
over the row, laurent.lcofactors), so every returned row holds primitive
int coefficients and the smaller multipliers change no result.  A
reduced echelon basis of stripped rows is the canonical form of a
subspace.  sp_intersect is the reference meet of the tests; the braided
power step (braided._meet_step) keeps its kernel vectors as coordinates
over the level below, so its meet takes no second elimination.
Subspace.span and Subspace.contains are the
one boundary for rationals: they clear the denominators of a caller's
row before it enters the engine.

sp_rank, sp_kernel and through it sp_intersect first rank the system
over F_P at the fixed unit q = _SCREEN_X (_screen).  That rank is a
lower bound of the rank over Q(q); when it already is the largest
possible rank, they answer without the exact elimination.  sp_kernel
then eliminates only the equations that raised the screen's rank and
certifies its result before returning it: every row pairs to exactly 0
with every equation, the rows are independent, and their number is
ncols minus the rank at _SCREEN_X or at one of a fixed list of further
points (_CERTIFY_X).  A result that fails raises ModuleAuditError, so
every exact kernel, and every exact block dim read off one, is proved.
No result depends on the points: a rank drop at one only costs work.

Specialize mode never enters that engine.  fp_rref and fp_kernel
eliminate rows {col: int} over F_p with pivots scaled to 1 (_fp_insert,
fp_rref's step, also ranks the screen), and a Subspace over F_p holds
fp_rref's rows.  An F_p kernel is not certified: a specialized run is
evidence at its samples, not a proof (see braided.run_mode).

Each field has one entry type: a Laurent dict over Q(q), an int over
F_p (reduced to 0 < c < p wherever this module returns one).  This is
the one module that picks between the fields, by the modulus p its
callers pass, None over Q(q): kernel_basis and span_basis choose the
engine, field_one is the unit, and the column-map operations sp_apply,
sp_compose, sp_map_add, sp_map_scale and sp_map_equal do their entry
arithmetic in the field of p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import ModuleAuditError
from .laurent import (
    ONE,
    P,
    ladd,
    lconst,
    lcofactors,
    ldiv_exact,
    lgcd,
    llcm,
    lmul,
    lneg,
    lshift,
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
    """a*row - b*pivot_row for a = pivot_row[col] and b = row[col], each
    divided first by g = lgcd(a, b) when both have two or more terms.
    That row spans the same line, so srow_strip gives the same row.  The
    entry at col cancels exactly and is skipped, a column of both rows is
    accumulated in one pass, and a multiplication by 1 is skipped."""
    a, b = pivot_row[col], row[col]
    if len(a) > 1 and len(b) > 1:
        g = lgcd(a, b)
        if g != ONE:
            a, b = ldiv_exact(a, g), ldiv_exact(b, g)
    b = lneg(b)
    a_one = a == ONE
    out = {}
    for c, p in row.items():
        if c == col:
            continue
        q = pivot_row.get(c)
        if q is None:
            out[c] = p if a_one else lmul(a, p)
            continue
        acc: dict[int, int] = {}
        for factor, poly in ((a, p), (b, q)):
            for ef, cf in factor.items():
                for e, v in poly.items():
                    e += ef
                    acc[e] = acc.get(e, 0) + cf * v
        acc = {e: v for e, v in acc.items() if v}
        if acc:
            out[c] = acc
    for c, q in pivot_row.items():
        if c != col and c not in row:
            out[c] = lmul(b, q)
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
# Further units, tried in this order when a kernel's row count is not
# ncols minus the rank at _SCREEN_X (see sp_kernel).  The list is fixed,
# so a run repeats exactly.
_CERTIFY_X = (123_456_789, 987_654_321, 555_555_555_555)


def _screen(rows, ncols: int, x: int = _SCREEN_X) -> list[int]:
    """The indices of the rows that raise the rank over F_P (P =
    laurent.P) of the Laurent rows at q = x, up to ncols of them, so its
    length is that rank.  Evaluation at a unit is a ring map from
    Z[q, 1/q] to F_P, so a minor that is nonzero at the point is nonzero
    over Q(q): the rank is a lower bound of the exact one, and the rows
    it picks are independent over Q(q)."""
    # x**e once per exponent of the system, where leval_fp would take a
    # pow per term
    powers: dict[int, int] = {}
    piv: dict[int, dict] = {}
    raised = []
    for i, row in enumerate(rows):
        image = {}
        for c, poly in row.items():
            v = 0
            for e, coeff in poly.items():
                xe = powers.get(e)
                if xe is None:
                    xe = powers[e] = pow(x, e, P)
                v += coeff * xe
            image[c] = v
        # _fp_insert reduces the values mod P
        if _fp_insert(piv, image, P):
            raised.append(i)
            if len(raised) == ncols:
                break
    return raised


def sp_rank(rows) -> int:
    """Rank over Q(q); the F_P screen answers a rank of min(#rows,
    #columns) without the exact elimination."""
    rows = list(rows)
    full = min(len(rows), len({c for row in rows for c, p in row.items() if p}))
    if len(_screen(rows, full)) == full:
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


def _kernel_rows(rows, ncols: int) -> list[dict]:
    """The elimination behind sp_kernel, uncertified: the basis of the
    kernel read off the reduced echelon form.  Back-substitution stays
    fraction free: for a free column f, x_f is the lcm L of the pivot
    entries of the rows touching f, and each such row with pivot c gives
    x_c = -row[f] * (L / row[c]).  A pivot row has no entry left of its
    pivot, so f is the last column of its kernel row."""
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


def _annihilated(rows, basis) -> bool:
    """Whether every row of basis pairs to exactly 0 with every row of
    rows over Z[q, 1/q], in one pass over the equations, each paired
    with every basis row at once.  The entries are shifted into Z[q] by
    the lowest exponent of the equations and of the basis, and read at
    q = 2**s (Kronecker substitution), so a pairing S becomes one int
    S(2**s).  A coefficient of S is at most M = (largest sum of
    |coefficients| over one equation) * (largest sum over one basis
    entry) in size, and 2**s > M, so S(2**s) = 0 only when S = 0: the
    lowest nonzero coefficient of S is not a multiple of 2**s."""
    rows = [row for row in rows if row]
    if not rows or not basis:
        return True
    lo_eq = min(e for row in rows for p in row.values() for e in p)
    lo_z = min(e for z in basis for p in z.values() for e in p)
    size = max(sum(abs(v) for p in row.values() for v in p.values()) for row in rows)
    size *= max(sum(map(abs, p.values())) for z in basis for p in z.values())
    s = size.bit_length()
    by_col: dict[int, list] = {}
    for k, z in enumerate(basis):
        for c, p in z.items():
            by_col.setdefault(c, []).append((k, sum(v << s * (e - lo_z) for e, v in p.items())))
    for eq in rows:
        acc = [0] * len(basis)
        for c, p in eq.items():
            hits = by_col.get(c)
            if hits:
                x = sum(v << s * (e - lo_eq) for e, v in p.items())
                for k, y in hits:
                    acc[k] += x * y
        if any(acc):
            return False
    return True


def sp_kernel(rows, ncols: int) -> list[dict]:
    """Basis of {x : row . x = 0 for every row}, as stripped Laurent rows
    in echelon order, certified before it is returned.

    The F_P screen (_screen) ranks the system at q = _SCREEN_X first.  A
    full rank r_x = ncols proves the empty kernel, with no exact
    elimination.  Otherwise only the r_x rows that raised the screen's
    rank, which are independent over Q(q), are eliminated (_kernel_rows).
    Their kernel holds the whole kernel and has dim ncols - r_x, so it
    is the whole kernel unless the exact rank exceeds r_x; then some
    other row rejects it, and every row is eliminated.  Either way the
    rows are the unique stripped reduced basis of the kernel.

    The certificate reads the rows alone: each pairs to exactly 0 with
    every row over Z[q, 1/q] (_annihilated); their last columns, which
    the elimination leaves free, are distinct, so they are independent;
    and there are ncols - r_x of them, where r_x, a lower bound of the
    exact rank, is the rank at _SCREEN_X or else at one of the fixed
    points _CERTIFY_X.  Independent kernel rows number at most the
    kernel's dim, which is at most ncols - r_x, so the rows are a basis.
    A result that fails raises ModuleAuditError."""
    rows = list(rows)
    raised = _screen(rows, ncols)
    if len(raised) == ncols:
        return []
    basis = _kernel_rows([rows[i] for i in raised], ncols)
    if not _annihilated(rows, basis):
        basis = _kernel_rows(rows, ncols)
        if not _annihilated(rows, basis):
            raise ModuleAuditError(
                f"a kernel row of a {ncols}-column system does not pair to 0 "
                "with every equation"
            )
    if len({max(z) for z in basis}) < len(basis):
        raise ModuleAuditError(f"two kernel rows of a {ncols}-column system share a free column")
    want = ncols - len(basis)
    if len(raised) != want and all(len(_screen(rows, ncols, x)) != want for x in _CERTIFY_X):
        raise ModuleAuditError(
            f"{len(basis)} kernel rows of a {ncols}-column system, "
            f"but its rank at q = {_SCREEN_X} leaves room for {ncols - len(raised)}"
        )
    return basis


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
    equation per annihilator row and one unknown per row; each kernel
    vector z gives sum_j z_j rows[j], and those are echelonized.  The
    braided power step (braided._meet_step) is tested against this
    meet."""
    rows = [r for r in rows if r]
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
    by_row = dict(enumerate(rows))
    result = [sp_apply(by_row, z) for z in sp_kernel(system, len(rows))]
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
        if _fp_insert(piv, row, p) and len(piv) == ncols:
            break
    return piv


def _fp_insert(piv: dict, row: dict, p: int) -> bool:
    """Reduce row against the reduced echelon rows piv over F_p; on a new
    pivot, scale it to 1, clear its column from the other rows, store
    it and return True."""
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
        return False
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
    return True


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


def field_one(p=None):
    """The unit of the field: the Laurent 1 over Q(q) (p None), the int 1
    over F_p."""
    return dict(ONE) if p is None else 1


def kernel_basis(rows, ncols: int, p=None) -> list[dict]:
    """The unique reduced basis of {x : row . x = 0 for every row} in
    columns 0..ncols-1: sp_kernel's stripped Laurent rows over Q(q) (p
    None), fp_kernel's rows {col: int} over F_p."""
    return sp_kernel(rows, ncols) if p is None else fp_kernel(rows, ncols, p)


def span_basis(rows, p=None) -> list[dict]:
    """The canonical reduced echelon basis of span(rows) in pivot order:
    stripped Laurent rows over Q(q) (p None), fp_rref's rows over F_p."""
    if p is None:
        return sp_span_echelon(rows)
    piv = fp_rref(rows, p)
    return [piv[c] for c in sorted(piv)]


# Column maps {col: {row: entry}} hold Laurent entries over Q(q) and ints
# over F_p; each map operation takes the modulus p, None over Q(q).  Over
# F_p an entry may come in unreduced and always goes out in 0 < c < p.


def sp_apply(op: dict, vec: dict, p=None) -> dict:
    """Apply a column map {col: {row: entry}} to a sparse vector."""
    out: dict = {}
    for c, t in vec.items():
        for r, v in op.get(c, {}).items():
            if p is None:
                s = ladd(out.get(r, {}), lmul(t, v))
            else:
                s = (out.get(r, 0) + t * v) % p
            if s:
                out[r] = s
            else:
                out.pop(r, None)
    return out


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


def sp_map_equal(opa: dict, opb: dict, p=None) -> bool:
    """Whether two column maps agree; over F_p, entry by entry mod p."""
    for c in opa.keys() | opb.keys():
        cola, colb = opa.get(c, {}), opb.get(c, {})
        if p is None:
            if cola != colb:
                return False
        elif any((cola.get(r, 0) - colb.get(r, 0)) % p for r in cola | colb):
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
        return cls(ambient, tuple(span_basis(rows, modulus)), modulus)

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
