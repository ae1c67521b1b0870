"""Sparse linear algebra over Q(q), and its one prime-field kernel.

The sp_* routines are a sparse fraction-free elimination over Laurent
rows: a row is a dict {column: Laurent dict} that stores no zero entry
and holds int coefficients only.  Dict rows are the boundary only.
sp_echelon, sp_pivot_insert, sp_kernel's elimination (_kernel_rows) and
srow_strip pack every entry, eliminate the packed rows and unpack the
result, and span_basis, sp_rank and sp_kernel go through them.  A
reduced echelon basis of stripped rows is the canonical form of a
subspace.  sp_intersect is the reference meet of the tests; the braided
power step (braided._meet_step) keeps its kernel vectors as coordinates
over the level below, so its meet takes no second elimination.
Subspace.span and Subspace.contains are the one boundary for
rationals: they clear the denominators of a caller's row before it
enters the engine.

Packed entries.  Each elimination has a step g: the gcd of the
exponent differences inside the entries of its input rows, or 1 when
every entry is a monomial (_measure).  The structure constants of the
U_q(gl_2) and U_q(gl_3) modules are balanced q-integers and Cartan twists
q**((alpha|w)), so an entry of their systems is q**lo times a
polynomial in q**2, and g is 2 or more as soon as one entry is not a
monomial.  The Laurent entry q**lo * f(t), t = q**g, f in Z[t] with
f(0) != 0, is the triple (lo, v, n1) with v = f(2**K) (Kronecker
substitution in t) and n1 >= |f|_1; one slot is one power of t, so no
slot holds the zero coefficients between powers of q**g.  Elimination
cross-multiplies rows instead of dividing (_cross): a new entry
a*p - b*r is two big-int products and a difference whose q powers x
and y differ by a multiple of g, shifted by K*(x - y)/g bits, taken
after a and b are divided by their gcd when neither is a constant.
Whole zero slots at the bottom of a difference raise its lo by
multiples of g.  The step is checked, never assumed: a cross whose
shift g does not divide raises _Ungraded, and that one elimination
starts again at g = 1 (_packed).  A system is graded, and never starts
again, when each entry's lo is r_i + c_j mod g for some r_i per row and
c_j per column, as the modules' weight blocks are.  Each row is then
stripped to the canonical representative of its line (_strip): the
common q power, the integer content and any common polynomial factor
go, so every returned row holds primitive int coefficients and the
smaller multipliers change no result.  A gcd in Z[q] of polynomials in
t is a polynomial in t (a Bezout identity over Q in t stays one in q),
so the stripped rows are the same in every step.

The slot invariant is 2*n1 + 4 <= 2**K for every entry.  It puts each
coefficient of f in (-2**(K-1), 2**(K-1)), so f is read back from the
balanced base-2**K digits of v (_digits).  An operation works out the
n1 of each entry it would produce before producing it: the bound
|a|_1*|p|_1 + |b|_1*|r|_1 for a cross, the exact norm of proved digits
for a quotient.  A miss raises _Widen, and that one elimination starts
again at 2K (_packed).  K starts at the least multiple of 32 that
holds one cross of two input entries: n1 <= 2*N**2 for N the largest
input norm.  So g and K follow from the inputs, and nothing sets them.
A slot is one or more 4- or 8-byte words, so reading digits costs no
Python loop per bit; a narrower slot would make no int operation
cheaper at these sizes, and would only start more eliminations again.

A strip is one heuristic gcd GCDHEU (Char, Geddes and Gonnet, J.
Symbolic Comput. 1989) in t at xi = 2**K that evaluates nothing, since
the packed ints are the values (_cofactors).  Let m be the gcd of the
values of the row's two shortest entries (the cheapest integer gcd), H
the primitive part of m's balanced digits and c their content.  Each
cofactor Q is the digit polynomial of v / H(xi), kept when H(xi)
divides v and 2*|H|_1*|Q|_inf < xi.  Then H*Q == f in Z[t]: the
invariant gives 2*|f|_inf < xi, and 2*|H*Q|_inf <= 2*|H|_1*|Q|_inf <
xi, so H*Q - f has every coefficient below xi in size and vanishes at
t = xi; xi would divide its lowest nonzero coefficient, so it has none.
And H is the gcd G2 of the two entries in Z[t].  G2 = H*T and G2(xi)
divides m = c*H(xi), so T(xi) divides c, and |c| <= xi/2 because c
divides a balanced digit.  A root of a nonconstant T is a common root,
of modulus at most n1 + 1 by Cauchy's bound, so xi >= 2*n1 + 4 makes
|T(xi)| > xi/2.  The gcd G of the row divides G2 = H, and H divides
every entry, so H == G.  When H(xi) does not divide some value, or a
cofactor is refused, m is taken over every value and tried once more.
By Gauss's lemma the row's content is the content of its cofactors,
and it divides c.  A single-digit m (below 2**(K-1)) proves G = 1, so
a row with m = 1 is only shifted and signed, without reading a digit.
The sign is that of the first column's value, which has the sign of
its top digit.  A refused cofactor unpacks the row and strips it with
laurent.lcofactors, the exact Euclidean gcd (_strip_unpacked), whose
quotients are again polynomials in t.  The multipliers' gcd (_coprime),
and the lcm and quotients of the kernel read-off (_lcm, _quotient),
prove their cofactors by the same bounds, and fall back to
laurent.lcofactors and ldiv_exact in the same way.

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
The certificate reads the unpacked dict rows with its own evaluation
at 2**s (_annihilated), and shares no code with the packing, so a
fault in packing or unpacking cannot certify its own result.

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

import sys
from array import array
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
    lmul,
)


# ---------------------------------------------------------------------------
# sparse row engine
#
# A row is {col: Laurent}; no zero polynomials stored.  Rows are kept
# content-stripped: int coefficients with no common q power, integer
# content, or polynomial factor across the entries.  The elimination
# itself runs on packed rows {col: entry}, one entry (lo, v, n1) per
# Laurent entry q**lo * f(q**g): f in Z[t] with f(0) != 0, v = f(2**K)
# and n1 >= |f|_1, for g the step of the elimination (see the module
# docstring); the dict rows are packed on the way in and unpacked on the
# way out.


class _Widen(Exception):
    """An entry that an operation would produce might not fit the slot."""


class _Ungraded(Exception):
    """A cross step would add two entries whose q powers differ by no
    multiple of the slot's step g."""


# array typecodes by item size, for reading slots as 4- or 8-byte words
_WORDS = {array(t).itemsize: t for t in "ILQ"}


class _Slot:
    """The packing of one elimination: the slot width K, a multiple of
    32, and the step g, each slot one power of t = q**g.  Its constants
    are xi = 2**K, half = 2**(K-1), room the largest n1 that keeps the
    slot invariant 2*n1 + 4 <= xi, width the bytes of a slot and pad one
    slot holding half, as little-endian bytes."""

    __slots__ = ("k", "step", "xi", "half", "room", "width", "pad")

    def __init__(self, k: int, step: int):
        self.k = k
        self.step = step
        self.xi = 1 << k
        self.half = 1 << (k - 1)
        self.room = self.half - 2
        self.width = k // 8
        self.pad = bytes(self.width - 1) + b"\x80"


def _slot_width(n1: int) -> int:
    """The least K, a multiple of 32, with 2*n1 + 4 <= 2**K."""
    return -(-(2 * n1 + 3).bit_length() // 32) * 32


def _pack(p: dict, s: _Slot) -> tuple:
    lo, k, g = min(p), s.k, s.step
    return lo, sum(c << k * (e - lo) // g for e, c in p.items()), sum(map(abs, p.values()))


def _repack(p: dict, s: _Slot) -> tuple:
    # a dict entry made by a fallback, with its exact norm and its
    # grading checked
    entry = _pack(p, s)
    if any((e - entry[0]) % s.step for e in p):
        raise _Ungraded
    if entry[2] > s.room:
        raise _Widen
    return entry


def _digits(v: int, s: _Slot) -> list:
    """The balanced base-2**K digits of v != 0, lowest first, each in
    [-2**(K-1), 2**(K-1)) and the top one nonzero.  Adding 2**(K-1) to
    every digit gives the plain digits of one nonnegative int; its bytes
    are read as an array of 8- or 4-byte words, which a wider slot
    joins."""
    n = v.bit_length() // s.k + 2
    w, half = s.width, s.half
    b = (v + int.from_bytes(s.pad * n, "little")).to_bytes(n * w, "little")
    size = 8 if w % 8 == 0 else 4
    words = array(_WORDS[size], b)
    if sys.byteorder == "big":
        words.byteswap()
    if size == w:
        out = [x - half for x in words]
    else:
        m, bits = w // size, 8 * size
        out = list(words[m - 1 :: m])
        for j in range(m - 2, -1, -1):
            out = [x << bits | y for x, y in zip(out, words[j::m])]
        out = [x - half for x in out]
    while not out[-1]:
        out.pop()
    return out


def _unpack(entry: tuple, s: _Slot) -> dict:
    lo, v, _ = entry
    g = s.step
    return {lo + g * i: d for i, d in enumerate(_digits(v, s)) if d}


def _unpack_row(row: dict, s: _Slot) -> dict:
    return {c: _unpack(entry, s) for c, entry in row.items()}


def _packed(rows, run, crosses: bool = True):
    """run(packed rows, slot) for the dict rows: in steps of the rows'
    step g (_measure), at the least slot width that holds one cross of
    two of their entries (with crosses False, the entries themselves).
    It starts again at twice the width, and so on, for as long as run
    raises _Widen, and at g = 1 when it raises _Ungraded.  Each start
    packs the dict rows afresh."""
    n1, g = _measure(rows)
    k = _slot_width(2 * n1 * n1 if crosses else n1)
    while True:
        s = _Slot(k, g)
        try:
            return run([{c: _pack(p, s) for c, p in row.items() if p} for row in rows], s)
        except _Widen:
            k *= 2
        except _Ungraded:
            g = 1


def _measure(rows) -> tuple:
    """(n1, g) for dict rows: n1 the largest |entry|_1, and g their step,
    the gcd of the exponent differences inside the entries, or 1 when
    every entry is a monomial."""
    n1 = g = 0
    for row in rows:
        for p in row.values():
            m = sum(map(abs, p.values()))
            if m > n1:
                n1 = m
            if g != 1 and len(p) > 1:
                terms = iter(p)
                lo = next(terms)
                for e in terms:
                    g = gcd(g, e - lo)
    return n1, g or 1


def _cofactors(entries: list, m: int, s: _Slot):
    """GCDHEU at xi = 2**K on packed entries, for m >= 2**(K-1) the gcd
    of the values of some of them: H is the primitive part of m's
    balanced digits, and each entry's cofactor is the digit polynomial Q
    of v / H(xi), kept when H(xi) divides v and 2*|H|_1*|Q|_inf < xi.
    Returns [(lo, u, digits)], u = v / H(xi), or None when a value or a
    cofactor is refused.  The slot invariant gives 2*|f|_inf < xi for
    every entry, so an accepted Q is f / H, and H is then the gcd of the
    entries whose values gave m (both by the module docstring's proof);
    it divides all of them, so it is their gcd G."""
    h = _digits(m, s)
    c = gcd(*h)
    hv, h1, xi = m // c, sum(map(abs, h)) // c, s.xi
    out = []
    for lo, v, _ in entries:
        u, rest = divmod(v, hv)
        if rest:
            return None
        d = _digits(u, s)
        if 2 * h1 * max(map(abs, d)) >= xi:
            return None
        out.append((lo, u, d))
    return out


def _coprime(a: tuple, b: tuple, s: _Slot) -> tuple:
    """(a / G, b / G) for G the primitive gcd of the two entries'
    polynomial parts; a divided entry carries the exact norm of its
    digits.  laurent.lcofactors, the exact Euclidean gcd, decides when
    _cofactors refuses."""
    m = gcd(a[1], b[1])
    if m < s.half:
        # G(xi) divides m < xi/2, which no nonconstant G does
        return a, b
    got = _cofactors([a, b], m, s)
    if got is None:
        return tuple(_repack(p, s) for p in lcofactors([_unpack(a, s), _unpack(b, s)]))
    out = []
    for lo, u, d in got:
        n1 = sum(map(abs, d))
        if n1 > s.room:
            raise _Widen
        out.append((lo, u, n1))
    return tuple(out)


def _strip(row: dict, s: _Slot) -> dict:
    """The packed form of srow_strip: the row divided by its common q
    power, its signed content and the gcd G of its entries.  G divides
    the gcd of the two shortest entries, whose values cost the least
    integer gcd m, so _cofactors tries that first.  When m, or failing
    that the gcd of every value, is below 2**(K-1), G is 1 and the
    content divides m, so a row with m = 1 is only shifted and signed
    without reading a digit; else _cofactors divides by G.  The content
    is the gcd of the cofactor digits, the sign that of the first
    column's value (its top digit).  A refused cofactor hands the row to
    the exact Euclidean gcd of laurent.lcofactors (_strip_unpacked)."""
    if not row:
        return row
    entries = list(row.values())
    shift = min(e[0] for e in entries)
    values = [e[1] for e in entries]
    pair = gcd(*sorted(values, key=int.bit_length)[:2])
    got = _cofactors(entries, pair, s) if pair >= s.half else None
    m = pair
    if got is None:
        m = gcd(pair, *values)
        if m >= s.half:
            got = _cofactors(entries, m, s) if m != pair else None
            if got is None:
                return _strip_unpacked(row, s)
    if got is None:
        cont = m
        for _, v, _ in entries:
            if cont == 1:
                break
            cont = gcd(cont, *_digits(v, s))
        if row[min(row)][1] < 0:
            cont = -cont
        if cont == 1 and not shift:
            return row
        return {c: (lo - shift, v // cont, n1 // abs(cont)) for c, (lo, v, n1) in row.items()}
    cont = 0
    for _, _, d in got:
        cont = gcd(cont, *d)
    out = dict(zip(row, got))
    if out[min(out)][1] < 0:
        cont = -cont
    for c, (lo, u, d) in out.items():
        n1 = sum(map(abs, d)) // abs(cont)
        if n1 > s.room:
            raise _Widen
        out[c] = (lo - shift, u // cont, n1)
    return out


def _strip_unpacked(row: dict, s: _Slot) -> dict:
    # _strip's fallback on the unpacked row: the shift, the signed
    # content and laurent.lcofactors, the exact Euclidean gcd
    row = _unpack_row(row, s)
    shift = min(min(p) for p in row.values())
    cont = 0
    for p in row.values():
        cont = gcd(cont, *p.values())
    lead = row[min(row)]
    if lead[max(lead)] < 0:
        cont = -cont
    row = {c: {e - shift: v // cont for e, v in p.items()} for c, p in row.items()}
    return {c: _repack(p, s) for c, p in zip(row, lcofactors(list(row.values())))}


def srow_strip(row: dict) -> dict:
    """Strip a row of int-coefficient Laurent entries of its common q
    power, its content and any common polynomial factor.  The result has
    coprime int coefficients and a positive leading coefficient in its
    first column.  The row is packed, stripped (_strip) and unpacked."""
    if not row:
        return row
    return _packed([row], lambda rows, s: _unpack_row(_strip(rows[0], s), s), crosses=False)


def _cross(row: dict, pivot_row: dict, col: int, s: _Slot) -> dict:
    """a*row - b*pivot_row on packed rows, for a = pivot_row[col] and
    b = row[col], each divided first by their gcd (_coprime) when
    neither is a constant times a power of q.  That row spans the same
    line, so _strip gives the same row.  The entry at col cancels and is
    skipped; every other entry is two big-int products and a shifted
    difference, its n1 the bound |a|_1*|p|_1 + |b|_1*|r|_1, checked
    against the slot before the products are taken."""
    a, b = pivot_row[col], row[col]
    half = s.half
    if not -half < a[1] < half and not -half < b[1] < half:
        a, b = _coprime(a, b, s)
    la, va, na = a
    lb, vb, nb = b
    k, g, room = s.k, s.step, s.room
    out = {}
    for c, (lp, vp, np) in row.items():
        if c == col:
            continue
        hit = pivot_row.get(c)
        if hit is None:
            n1 = na * np
            if n1 > room:
                raise _Widen
            out[c] = (la + lp, va * vp, n1)
            continue
        lr, vr, nr = hit
        n1 = na * np + nb * nr
        if n1 > room:
            raise _Widen
        x, y = la + lp, lb + lr
        if (x - y) % g:
            raise _Ungraded
        if x > y:
            v, lo = (va * vp << k * (x - y) // g) - vb * vr, y
        else:
            v, lo = va * vp - (vb * vr << k * (y - x) // g), x
        if v:
            # whole zero slots at the bottom raise lo by steps of g
            t = ((v & -v).bit_length() - 1) // k
            if t:
                v >>= k * t
                lo += g * t
            out[c] = (lo, v, n1)
    for c, (lr, vr, nr) in pivot_row.items():
        if c != col and c not in row:
            n1 = nb * nr
            if n1 > room:
                raise _Widen
            out[c] = (lb + lr, -vb * vr, n1)
    return out


def _insert(piv: dict, row: dict, s: _Slot):
    # sp_pivot_insert on packed rows
    while row:
        c = min(row)
        hit = piv.get(c)
        if hit is None:
            row = _strip(row, s)
            piv[c] = row
            return row
        row = _strip(_cross(row, hit, c, s), s)
    return None


def _echelon(rows, s: _Slot, reduced: bool) -> dict:
    piv: dict[int, dict] = {}
    for row in rows:
        _insert(piv, row, s)
    if reduced:
        _back_reduce(piv, s)
    return piv


def sp_echelon(rows, reduced: bool = True) -> dict:
    """Eliminate sparse Laurent rows.  Returns {pivot_col: row}; with
    reduced=True the rows form an RREF up to scaling (each row touches
    its own pivot column and free columns only)."""
    rows = list(rows)

    def run(packed, s):
        piv = _echelon(packed, s, reduced)
        return {c: _unpack_row(row, s) for c, row in piv.items()}

    return _packed(rows, run)


def _back_reduce(piv: dict, s: _Slot) -> None:
    # clear every pivot column from the other rows, last pivot first
    if len(piv) < 2:
        return
    for c in sorted(piv, reverse=True):
        row = piv[c]
        others = [c2 for c2 in row if c2 != c and c2 in piv]
        for c2 in sorted(others):
            row = _cross(row, piv[c2], c2, s)
        piv[c] = _strip(row, s)


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
    the stripped row and return it, else return None.  The pivot rows
    and row are packed for the reduction, and a new pivot row unpacked."""
    pivots = list(piv.values())

    def run(packed, s):
        *held, new = packed
        got = _insert(dict(zip(piv, held)), new, s)
        return None if got is None else (min(got), _unpack_row(got, s))

    found = _packed([*pivots, row], run)
    if found is None:
        return None
    c, piv[c] = found
    return piv[c]


def _lcm(a: tuple, b: tuple, s: _Slot) -> tuple:
    """The lcm of two entries' polynomial parts, up to units: a * (b / G)
    / d, for G their primitive gcd (_coprime) and d the gcd of their
    contents."""
    a, b = (0, a[1], a[2]), (0, b[1], b[2])
    a2, b2 = _coprime(a, b, s)
    d = gcd(a2[1], b2[1])
    if d > 1:
        d = gcd(d, *_digits(a2[1], s), *_digits(b2[1], s))
    n1 = a[2] * b2[2] // d
    if n1 > s.room:
        raise _Widen
    return 0, a[1] * b2[1] // d, n1


def _quotient(a: tuple, b: tuple, s: _Slot) -> tuple:
    """a / b for an entry b that divides a: the digit polynomial Q of
    a(xi) / b(xi), kept when 2*n1(b)*|Q|_inf < xi.  Then b*Q and a have
    every coefficient below xi/2 and one value at xi, so they are equal
    (the module docstring's proof); else laurent.ldiv_exact, exact long
    division, decides."""
    u, rest = divmod(a[1], b[1])
    if not rest:
        d = _digits(u, s)
        if 2 * b[2] * max(map(abs, d)) < s.xi:
            n1 = sum(map(abs, d))
            if n1 > s.room:
                raise _Widen
            return a[0] - b[0], u, n1
    return _repack(ldiv_exact(_unpack(a, s), _unpack(b, s)), s)


def _kernel_rows(rows, ncols: int) -> list[dict]:
    """The elimination behind sp_kernel, uncertified: the basis of the
    kernel read off the reduced echelon form.  Back-substitution stays
    fraction free: for a free column f, x_f is the lcm L of the pivot
    entries of the rows touching f, and each such row with pivot c gives
    x_c = -row[f] * (L / row[c]).  A pivot row has no entry left of its
    pivot, so f is the last column of its kernel row."""
    rows = list(rows)

    def run(packed, s):
        piv = _echelon(packed, s, reduced=False)
        if len(piv) == ncols:
            return []
        _back_reduce(piv, s)
        out = []
        for f in range(ncols):
            if f in piv:
                continue
            touching = [(c, prow) for c, prow in piv.items() if f in prow]
            den = (0, 1, 1)
            for c, prow in touching:
                den = _lcm(den, prow[c], s)
            vec = {f: den}
            for c, prow in touching:
                lo, u, n1 = _quotient(den, prow[c], s)
                lf, vf, nf = prow[f]
                if n1 * nf > s.room:
                    raise _Widen
                vec[c] = (lo + lf, -u * vf, n1 * nf)
            out.append(_strip(vec, s))
        return [_unpack_row(z, s) for z in out]

    return _packed(rows, run)


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
