"""Sparse linear algebra over Q(q), and its one prime-field kernel.

The sp_* routines are a sparse fraction-free elimination over Laurent
rows: a row is a dict {column: Laurent dict} that stores no zero entry
and holds int coefficients only.  Dict rows are the boundary only.
sp_echelon, sp_kernel's elimination (_kernel_rows) and srow_strip are
the three entry points that pack every entry, eliminate the packed rows
and unpack the result (each through _packed), and span_basis and
sp_kernel go through them.  A reduced echelon basis of stripped rows is
the canonical form of a subspace.  sp_intersect is the reference meet
of the tests; the braided power step (braided._meet_step) keeps its
kernel vectors as coordinates over the level below, so its meet takes
no second elimination.  Subspace.span is the one boundary for
rationals: its _laurent_row, the only code here that reads a Fraction,
clears the denominators of a caller's rows before they enter the
engine.

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
after a and b are stripped as one row when neither is a constant.
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
the packed ints are the values (_cofactors).  Let m be the gcd of every
value of the row, H the primitive part of m's balanced digits and c
their content.  Each cofactor Q is the digit polynomial of v / H(xi),
kept when H(xi) divides v and 2*|H|_1*|Q|_inf < xi.  Then H*Q == f in
Z[t]: the invariant gives 2*|f|_inf < xi, and 2*|H*Q|_inf <=
2*|H|_1*|Q|_inf < xi, so H*Q - f has every coefficient below xi in size
and vanishes at t = xi; xi would divide its lowest nonzero coefficient,
so it has none.  So H divides every entry, and the primitive gcd G of
the row is H*T in Z[t].  G(xi) divides every value, so it divides m =
c*H(xi), and T(xi) divides c, where |c| <= xi/2 because c divides a
balanced digit.  A root of a nonconstant T is a root of every entry,
of modulus at most n1 + 1 by Cauchy's bound, so xi >= 2*n1 + 4 makes
|T(xi)| > xi/2.  So T is a unit and H == G.  The same bound proves G =
1 when m is a single digit (below 2**(K-1)), and the content divides
m, so a row with m = 1 is only shifted and signed, without reading a
digit.  By Gauss's lemma the row's content is the content of its
cofactors, and it divides c.  The sign is that of the first column's
value, which has the sign of its top digit.  A strip makes one try: a
value H(xi) does not divide, or a refused cofactor, raises _Widen.
The cross step's multipliers and the two entries of the kernel
read-off's lcm (_cross, _lcm) are divided by stripping them as a
two-entry row, and the read-off's quotients (_quotient) are proved by
the same bounds.

A proof refused at xi = 2**K raises _Widen, as a slot miss does, and
that one elimination starts again at 2K.  This one restart rule ends.
An elimination has one pivot path, the same at every width: every
operation that returns gives the same entry, its n1 included, at every
K, so the n1 bounds do not depend on K and fit the slot from some
width on.  A quotient Q = a/b (_quotient) is the same at every width,
so its proof 2*n1(b)*|Q|_inf < xi holds from some fixed width on.  In
a strip, m is |G(xi)|*r, where r is the gcd of the values of the
cofactors f/G.  These are coprime, so r divides a fixed nonzero
integer, an integer combination of them (for two, their resultant).
Once xi > 2*|r|*|G|_inf, the balanced digits of m are the coefficients
of r*G, so H = G; once also xi > 2*|H|_1*|Q|_inf for every cofactor Q,
each is accepted.

sp_kernel, and through it sp_intersect, applies one rule at each
point of a fixed list of units, _SCREEN_X and then _CERTIFY_X, in turn.
It ranks the system over F_P at q = x (_screen).  That rank r_x is a
lower bound of the rank over Q(q), and the rows that raise it are
independent over Q(q).  A full rank answers the empty kernel without
the exact elimination.  Else only the r_x raised rows are eliminated,
and their kernel is certified: every row pairs to exactly 0 with every
equation (_annihilated), the rows are independent, and they number
ncols - r_x.  Only a pairing that fails, which happens exactly when r_x
is below the exact rank, moves on to the next point.  A result that
fails, or a list with no point of exact rank, raises ModuleAuditError,
so every exact kernel, and every exact dim or rank the program reads
off one, is proved.  No result depends on the points: a rank drop at
one only costs work.  The certificate reads the unpacked dict rows
with its own evaluation at 2**s (_annihilated), and shares no code
with the packing, so a fault in packing or unpacking cannot certify its
own result.

Specialize mode never enters that engine.  fp_rref and fp_kernel
eliminate rows {col: int} over F_p with pivots scaled to 1 (_fp_insert,
fp_rref's step, also ranks the screen), and a Subspace over F_p holds
fp_rref's rows.  fp_rref inserts its rows in decreasing order of their
leading column, so a new pivot mostly lies left of every stored pivot
row and no stored row is rewritten to clear it.  The order changes the
work only: a row space has one reduced echelon basis, so fp_rref,
fp_kernel, span_basis and Subspace return the same rows for every
order.  _fp_insert accumulates a row's reduction as plain ints and
takes each entry mod p once, at the end.  The screen inserts its rows
in their given order, because the rows it raises are the ones the
exact elimination then takes (sp_kernel), and another order would
choose other rows and so other exact work.  An F_p kernel is not
certified: a specialized run is evidence at its samples, not a proof
(see braided.run_mode).

Each field has one entry type: a Laurent dict with int coefficients
over Q(q), an int over F_p (reduced to 0 < c < p wherever this module
returns one).  This is the one module that picks between the fields,
by the modulus p its callers pass, None over Q(q): kernel_basis and
span_basis choose the engine, field_one is the unit, sp_apply applies
a column map in the field of p, and MapImages turns column maps into
int maps: over F_p the maps themselves, over Q(q) each entry's
Kronecker image at q = 2**s, with s past a proved bound on every
coefficient of a relation's difference; the bound reads the entries'
int coefficients as they are, since the module audit refuses any other
coefficient type.
int_compose and int_combine compose and add int maps, reducing mod p
over F_p, and return canonical entries, with no zero term and no
empty column, so a relation among the maps holds exactly when its two
sides' int maps compare == (the module audit, uqmod.audit_module).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from math import gcd, lcm

from .errors import ModuleAuditError
from .laurent import ONE, P, ladd, lconst, leval_fp, lmul


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
    """An entry that an operation would produce might not fit the slot,
    or a cofactor or quotient is past what xi = 2**K proves."""


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
    raises _Widen (a slot miss or a refused proof; the module docstring
    says why this ends), and at g = 1 when it raises _Ungraded.  Each
    start packs the dict rows afresh."""
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
    of their values: H is the primitive part of m's balanced digits, and
    each entry's cofactor is the digit polynomial Q of v / H(xi), kept
    when H(xi) divides v and 2*|H|_1*|Q|_inf < xi.  Returns [(lo, u,
    digits)], u = v / H(xi), or None when a value or a cofactor is
    refused.  The slot invariant gives 2*|f|_inf < xi for every entry, so
    an accepted Q is f / H, and H is then the entries' gcd G (both by the
    module docstring's proof)."""
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


def _strip(row: dict, s: _Slot) -> dict:
    """The packed form of srow_strip: the row divided by its common q
    power, its signed content and the gcd G of its entries.  m is the gcd
    of every value, taken shortest first so the gcd chain starts cheap.
    When m is below 2**(K-1), G is 1 and the content divides m, so a row
    with m = 1 is only shifted and signed without reading a digit; else
    _cofactors divides by G, and a refusal starts the elimination again
    at 2K (see the module docstring).  The content is the gcd of the
    cofactor digits, the sign that of the first column's value (its top
    digit)."""
    if not row:
        return row
    entries = list(row.values())
    shift = min(e[0] for e in entries)
    m = gcd(*sorted((e[1] for e in entries), key=int.bit_length))
    if m < s.half:
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
    got = _cofactors(entries, m, s)
    if got is None:
        raise _Widen
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
    b = row[col], first stripped as the row {0: a, 1: b} (_strip) when
    neither is a constant times a power of q.  That divides both by one
    unit, their common content and their gcd, so the row spans the same
    line and _strip gives the same row.  The entry at col cancels and is
    skipped; every other entry is two big-int products and a shifted
    difference, its n1 the bound |a|_1*|p|_1 + |b|_1*|r|_1, checked
    against the slot before the products are taken."""
    a, b = pivot_row[col], row[col]
    half = s.half
    if not -half < a[1] < half and not -half < b[1] < half:
        a, b = _strip({0: a, 1: b}, s).values()
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
    # reduce a packed row against the pivots; store and return it as a
    # new pivot row, or return None when it reduces to zero
    while row:
        c = min(row)
        hit = piv.get(c)
        if hit is None:
            row = _strip(row, s)
            piv[c] = row
            return row
        row = _strip(_cross(row, hit, c, s), s)
    return None


def _echelon(rows, s: _Slot) -> dict:
    piv: dict[int, dict] = {}
    for row in rows:
        _insert(piv, row, s)
    _back_reduce(piv, s)
    return piv


def sp_echelon(rows) -> dict:
    """Eliminate sparse Laurent rows.  Returns {pivot_col: row}, an RREF
    up to scaling: each row touches its own pivot column and free
    columns only."""
    rows = list(rows)

    def run(packed, s):
        piv = _echelon(packed, s)
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
# Further units, tried in this order when the kernel of the rows a point
# raised does not pair to 0 with every row (see sp_kernel).  The list is
# fixed, so a run repeats exactly.
_CERTIFY_X = (123_456_789, 987_654_321, 555_555_555_555)


def _screen(rows, ncols: int, x: int = _SCREEN_X) -> list[int]:
    """The indices of the rows that raise the rank over F_P (P =
    laurent.P) of the Laurent rows at q = x, up to ncols of them, so its
    length is that rank.  Evaluation at a unit is a ring map from
    Z[q, 1/q] to F_P, so a minor that is nonzero at the point is nonzero
    over Q(q): the rank is a lower bound of the exact one, and the rows
    it picks are independent over Q(q).

    The rows go to _fp_insert in their given order, not fp_rref's
    sorted one: the rank does not depend on the order, but the raised
    rows do, and they are the equations sp_kernel eliminates exactly,
    so another order would change the exact engine's work."""
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
            v %= P
            if v:
                image[c] = v
        if _fp_insert(piv, image, P):
            raised.append(i)
            if len(raised) == ncols:
                break
    return raised


def _lcm(a: tuple, b: tuple, s: _Slot) -> tuple:
    """The lcm of two entries' polynomial parts, up to units: a times the
    second entry of the stripped row {0: a, 1: b} (_strip), which is b
    divided by a unit and by the gcd of a and b, content included."""
    a = (0, a[1], a[2])
    _, b = _strip({0: a, 1: (0, b[1], b[2])}, s).values()
    n1 = a[2] * b[2]
    if n1 > s.room:
        raise _Widen
    return 0, a[1] * b[1], n1


def _quotient(a: tuple, b: tuple, s: _Slot) -> tuple:
    """a / b for an entry b that divides a: the digit polynomial Q of
    a(xi) / b(xi), kept when 2*n1(b)*|Q|_inf < xi.  Then b*Q and a have
    every coefficient below xi/2 and one value at xi, so they are equal
    (the module docstring's proof); else the elimination starts again at
    2K, since Q is the same at every width.  A remainder proves that b
    does not divide a, and raises ValueError, as laurent.ldiv_exact
    does."""
    u, rest = divmod(a[1], b[1])
    if rest:
        raise ValueError("inexact polynomial division")
    d = _digits(u, s)
    n1 = sum(map(abs, d))
    if 2 * b[2] * max(map(abs, d)) >= s.xi or n1 > s.room:
        raise _Widen
    return a[0] - b[0], u, n1


def _kernel_rows(rows, ncols: int) -> list[dict]:
    """The elimination behind sp_kernel, uncertified, of the rows one
    screen point raised: the basis of their kernel read off the reduced
    echelon form.  Back-substitution stays fraction free: for a free
    column f, x_f is the lcm L of the pivot entries of the rows touching
    f, and each such row with pivot c gives x_c = -row[f] * (L /
    row[c]).  A pivot row has no entry left of its pivot, so f is the
    last column of its kernel row."""
    rows = list(rows)

    def run(packed, s):
        piv = _echelon(packed, s)
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

    One rule, at each point x of _SCREEN_X, *_CERTIFY_X in turn: the F_P
    screen (_screen) ranks the system at q = x.  A full rank r_x = ncols
    proves the empty kernel, with no exact elimination.  Otherwise only
    the r_x rows that raised the screen's rank, which are independent
    over Q(q), are eliminated (_kernel_rows).  Their kernel holds the
    whole kernel and has dim ncols - r_x, so it is the whole kernel
    exactly when r_x is the exact rank; else some other row rejects it
    (_annihilated), and the next point is tried.  So the rule answers
    exactly when one of the points ranks the system exactly, as an
    elimination of every row would: its count too is only certified by
    a point of exact rank.

    The certificate reads the rows alone: each pairs to exactly 0 with
    every row over Z[q, 1/q] (_annihilated); their last columns, which
    the elimination leaves free, are distinct, so they are independent;
    and there are ncols - r_x of them, for r_x, a lower bound of the
    exact rank, the rank at the point where the rows paired to 0.
    Independent kernel rows number at most the kernel's dim, which is at
    most ncols - r_x, so the rows are the unique stripped reduced basis
    of the kernel.  r_x independent equations leave exactly ncols - r_x
    independent kernel rows, so a wrong count or a shared free column is
    a fault, not a bad point: it raises ModuleAuditError at once, as a
    list of points none of whose rows pair to 0 does."""
    rows = list(rows)
    for x in (_SCREEN_X, *_CERTIFY_X):
        raised = _screen(rows, ncols, x)
        if len(raised) == ncols:
            return []
        basis = _kernel_rows([rows[i] for i in raised], ncols)
        if _annihilated(rows, basis):
            break
    else:
        raise ModuleAuditError(
            f"a kernel row of a {ncols}-column system does not pair to 0 "
            "with every equation at any screen point"
        )
    if len({max(z) for z in basis}) < len(basis):
        raise ModuleAuditError(f"two kernel rows of a {ncols}-column system share a free column")
    if len(basis) != ncols - len(raised):
        raise ModuleAuditError(
            f"{len(basis)} kernel rows of a {ncols}-column system, "
            f"but its rank at q = {x} leaves room for {ncols - len(raised)}"
        )
    return basis


def sp_intersect(rows: list[dict], ann: list[dict]) -> list[dict]:
    """Canonical reduced echelon basis of span(rows) meet ker(ann): the
    combinations of rows that pair to zero with every row of ann.  With
    ann a basis of the annihilator of span(other) under the standard
    pairing x . y = sum_c x_c y_c, this is span(rows) meet span(other).
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
    if system:
        by_row = dict(enumerate(rows))
        rows = [sp_apply(by_row, z) for z in sp_kernel(system, len(rows))]
    return span_basis(rows) if rows else []


# ---------------------------------------------------------------------------
# int rows over F_p
#
# Specialize mode eliminates rows {col: int} over F_p directly, without
# Laurent entries.  A row is kept in reduced row echelon form with its
# pivot scaled to 1, so a reduction subtracts f * pivot_row and touches
# only the pivot column and the free columns of the pivot row.


def fp_rref(rows, p: int, ncols: int | None = None) -> dict:
    """Reduced row echelon form over F_p of rows {col: int} as
    {pivot col: row}: each row has pivot entry 1 and no entry in another
    pivot column.  Entries are reduced mod p on the way in, so one that p
    divides is zero and never a pivot.  Stops once ncols pivots exist.

    The rows are inserted in decreasing order of their leading column
    (a stable sort).  A stored pivot row's entries lie at or right of
    the leading column of the row it came from, so a row whose leading
    column is not a pivot yet becomes a pivot left of every stored one,
    which no stored row has an entry in: none has to be rewritten to
    clear it.  Only a row that is reduced past its leading column can
    land between stored pivots.  A row space has exactly one reduced
    echelon basis, so the order changes the work and never the result."""
    rows = [r for row in rows if (r := {c: s for c, v in row.items() if (s := v % p)})]
    rows.sort(key=min, reverse=True)
    piv: dict[int, dict] = {}
    for row in rows:
        if _fp_insert(piv, row, p) and len(piv) == ncols:
            break
    return piv


def _fp_insert(piv: dict, row: dict, p: int) -> bool:
    """Reduce row, entries 0 < c < p, against the reduced echelon rows
    piv over F_p; on a new pivot, scale it to 1, clear its column from
    the other rows, store it and return True.

    The reduction is accumulated as plain ints and each entry is taken
    mod p once, at the end.  The row's entries in pivot columns are the
    multipliers: a pivot row has no entry in another pivot column, so
    no subtraction changes them, and each one's own pivot row (pivot
    entry 1) leaves exactly 0 there."""
    acc = dict(row)
    for c, f in row.items():
        prow = piv.get(c)
        if prow is not None:
            for k, v in prow.items():
                acc[k] = acc.get(k, 0) - f * v
    row = {k: s for k, v in acc.items() if (s := v % p)}
    if not row:
        return False
    j = min(row)
    inv = pow(row[j], -1, p)
    if inv != 1:
        row = {k: v * inv % p for k, v in row.items()}
    for prow in piv.values():
        f = prow.get(j)
        if f:
            # row[j] == 1, so the pivot column's entry goes to 0 here too
            for k, v in row.items():
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
    piv = sp_echelon(rows) if p is None else fp_rref(rows, p)
    return [piv[c] for c in sorted(piv)]


# Column maps {col: {row: entry}} hold Laurent entries over Q(q) and ints
# over F_p; sp_apply takes the modulus p, None over Q(q).  Over F_p an
# entry may come in unreduced and always goes out in 0 < c < p.  The
# module audit checks relations among products of maps on int column maps
# in both fields (MapImages, int_compose, int_combine).


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


def _image_width(norm: int, weight: int, depth: int) -> int:
    """The least s with 2**s > weight * norm**depth (see MapImages)."""
    return (weight * norm**depth).bit_length()


class MapImages:
    """Column maps in the field of p as int column maps, on which a
    relation among products of at most depth maps holds exactly when the
    int maps of its two sides are equal.  A relation is a sum of terms,
    each a Laurent scalar times a product of maps (the identity map for
    none); weight bounds the sum of the scalars' |coefficients| over one
    relation, and lowest the lowest exponent of any scalar.

    Over F_p (x the image of q) the images are the maps themselves, ints
    that the composites reduce, and a scalar's image is its value at x.
    No pass over the entries is made.

    Over Q(q) (p None) the entries have int coefficients (the module
    audit refuses any other).  Let lo be the lowest exponent of any
    entry, or 0 if that is higher, and sigma = q**-min(lowest, 0).  A
    map's image is q**-lo times the map, each entry, now in Z[q], read at
    q = 2**s, and a scalar c standing in a term with `lacks` maps fewer
    than the relation's products has the image sigma c q**(-lo*lacks) at
    2**s (scalar); unit is the image of sigma, the factor of a term with
    no scalar.  A relation times sigma q**(-lo*t), for t the number of
    maps in its products, is so a relation between int maps, each entry
    of its difference Delta a polynomial in Z[q] read at 2**s.

    Bound.  Let N be the largest column 1-norm of a map, the sum of
    |coefficients| over the entries of one column, or 1 if that is
    lower.  As |f g|_1 <= |f|_1 |g|_1, a column of a product of t images
    has 1-norm at most N**t, and so does each entry.  A term with scalar
    c and `lacks` maps fewer has entries of 1-norm at most |c|_1
    N**(t - lacks) <= |c|_1 N**depth.  So every coefficient of Delta is
    at most weight * N**depth, below 2**s (_image_width), and Delta(2**s)
    = 0 only when Delta = 0: the lowest nonzero coefficient of Delta is
    not a multiple of 2**s (the argument of _annihilated).  A relation
    holds over Z[q, 1/q] exactly when its two int maps are equal, since
    composites and sums drop zero entries and empty columns
    (int_compose, int_combine)."""

    def __init__(self, maps, p=None, x=None, lowest=0, weight=1, depth=1):
        self.p, self.x = p, x
        if p is not None:
            self.maps, self.unit = list(maps), 1
            return
        lo, top = 0, 1
        for op in maps:
            for col in op.values():
                size = 0
                for poly in col.values():
                    lo = min(lo, *poly)
                    size += sum(map(abs, poly.values()))
                top = max(top, size)
        s = _image_width(top, weight, depth)
        self.lo, self.s, self.shift = lo, s, -min(lowest, 0)
        self.maps = [
            {
                c: {r: sum(v << s * (e - lo) for e, v in poly.items()) for r, poly in col.items()}
                for c, col in op.items()
            }
            for op in maps
        ]
        self.unit = 1 << s * self.shift

    def scalar(self, c: dict, lacks: int = 0) -> int:
        """The image of the Laurent scalar c (int coefficients) in a term
        with `lacks` maps fewer than its relation's products."""
        if self.p is not None:
            return leval_fp(c, self.x)
        s, base = self.s, self.shift - lacks * self.lo
        return sum(v << s * (e + base) for e, v in c.items())


def int_compose(opa: dict, opb: dict, p=None) -> dict:
    """Column map of a∘b for int column maps, each sum reduced mod p as
    it is formed over F_p; zero entries and empty columns are dropped."""
    out = {}
    for c, col in opb.items():
        acc: dict = {}
        for k, t in col.items():
            for r, v in opa.get(k, {}).items():
                s = acc.get(r, 0) + t * v
                if p is not None:
                    s %= p
                if s:
                    acc[r] = s
                else:
                    acc.pop(r, None)
        if acc:
            out[c] = acc
    return out


def int_combine(terms, p=None) -> dict:
    """The int column map sum(k * op) over terms (k, op), each sum
    reduced mod p as it is formed over F_p, with no zero entry or empty
    column.  A single term with k = 1 is returned as it is: it must
    already hold no zero entry or empty column (and over F_p, reduced
    entries), as a composite does."""
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    out: dict = {}
    for k, op in terms:
        for c, col in op.items():
            acc = out.setdefault(c, {})
            for r, v in col.items():
                s = acc.get(r, 0) + k * v
                if p is not None:
                    s %= p
                if s:
                    acc[r] = s
                else:
                    acc.pop(r, None)
    return {c: col for c, col in out.items() if col}


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

    def sparse_rows(self) -> list[dict]:
        return [dict(row) for row in self.rows]
