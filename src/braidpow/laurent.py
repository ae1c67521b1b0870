"""Laurent polynomials in one variable q over the rationals.

A Laurent polynomial is a plain dict {exponent: coefficient} with int
exponents and nonzero coefficients; the empty dict is zero.  Every
function here returns that canonical form, so equality is dict equality
and the zero test is emptiness.  No floats anywhere.

The ring operations (lconst, ladd, lsub, lneg, lmul, lscale, lshift,
lbar, leval) take any exact coefficients and use them as given.
Content, gcd and exact division (lcontent, lprimitive, ldiv_exact and
lgcd) work in Z[q, 1/q] and take int coefficients only, as do the rows
of the sparse engine in qarith.  lgcd is the Euclidean loop by
pseudo-division and ldiv_exact long division: exact algorithms that
always terminate.

qarith's elimination does not run on these dicts.  It packs each entry
q**lo * f(q**g), for g the step of its system, as (lo, f(2**K), n1),
with K a multiple of 32, and strips a row by the heuristic gcd GCDHEU
at xi = 2**K on the values it holds, with its own proof (see qarith);
a cofactor or quotient its bounds do not prove starts the elimination
again at 2K.  lgcd and ldiv_exact are the reference the tests compare
the packed engine against, an algorithm independent of GCDHEU, and
layers the benchmark's tracer binds by name.  The kernel certificate
reads the unpacked rows with its own evaluation, never the packing.
A rational enters a row in two places only: qarith.Subspace.span
clears a caller's denominators, and specialize mode maps q0 into F_P
with fp.

Specialize mode evaluates q at the image x of a rational sample point
in the prime field F_P, P = 2**61 - 1 (fp, leval_fp).  A specialized
module's coefficients are those values, ints 0 < c < P, not Laurent
polynomials: nothing in this file runs over F_P, and the module and row
operations that take a modulus (qarith's map operations and int kernel,
uqmod.coproduct) do the arithmetic mod P.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

ONE = {0: 1}

# The prime field of specialize mode: a Mersenne prime, so a reduced
# coefficient never needs more than 61 bits.
P = 2**61 - 1


def lconst(c) -> dict:
    return {0: c} if c else {}


def lq(e: int = 1) -> dict:
    """The monomial q**e."""
    return {e: 1}


def ladd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def lsub(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) - c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def lneg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def lmul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def lscale(a: dict, c) -> dict:
    if not c:
        return {}
    return {e: v * c for e, v in a.items()}


def lshift(a: dict, k: int) -> dict:
    """Multiply by q**k."""
    if not k:
        return dict(a)
    return {e + k: c for e, c in a.items()}


def ldeg(a: dict) -> int:
    """Top exponent; raises on the zero polynomial."""
    if not a:
        raise ValueError("zero polynomial has no degree")
    return max(a)


def lbar(a: dict) -> dict:
    """The substitution q -> q**-1."""
    return {-e: c for e, c in a.items()}


def leval(a: dict, q0) -> Fraction:
    q0 = Fraction(q0)
    if not q0:
        raise ZeroDivisionError("cannot evaluate a Laurent polynomial at q = 0")
    return sum((c * q0**e for e, c in a.items()), Fraction(0))


def fp(c) -> int:
    """The image in F_P of an int or a Fraction; raises ZeroDivisionError
    when P divides the denominator."""
    if type(c) is int:
        return c % P
    den = c.denominator % P
    if not den:
        raise ZeroDivisionError(f"{c} has no image in F_P")
    return c.numerator * pow(den, -1, P) % P


def leval_fp(a: dict, x: int) -> int:
    """The value of a at q = x in F_P, for a nonzero residue x."""
    return sum(fp(c) * pow(x, e, P) for e, c in a.items()) % P


def lqint(k: int) -> dict:
    """Balanced q-integer (k) = (q**k - q**-k) / (q - q**-1)."""
    if k < 0:
        return lneg(lqint(-k))
    return {k - 1 - 2 * j: 1 for j in range(k)}


def lcontent(a: dict) -> int:
    """The gcd of the int coefficients of a; 0 for the zero polynomial."""
    return gcd(*a.values())


def lprimitive(a: dict) -> tuple:
    """Split a as (c, p) with a == c*p, p with coprime int coefficients
    and a positive leading coefficient.  The q-power factor is left in
    place."""
    if not a:
        return 0, {}
    c = lcontent(a)
    if a[max(a)] < 0:
        c = -c
    return c, {e: v // c for e, v in a.items()}


def _divmod_poly(a: dict, b: dict) -> tuple[dict, dict]:
    # long division in Z[q]; requires int coefficients, min exponents
    # >= 0 and b != 0.  It stops at the first quotient coefficient that is
    # not an integer, leaving a nonzero remainder.
    r = dict(a)
    quot = {}
    db = max(b)
    lb = b[db]
    while r:
        dr = max(r)
        if dr < db:
            break
        c, rest = divmod(r[dr], lb)
        if rest:
            break
        e = dr - db
        quot[e] = c
        for eb, cb in b.items():
            ee = eb + e
            s = r.get(ee, 0) - c * cb
            if s:
                r[ee] = s
            else:
                r.pop(ee, None)
    return quot, r


def ldiv_exact(a: dict, b: dict) -> dict:
    """Exact quotient a/b of int-coefficient polynomials; raises
    ValueError if b does not divide a in Z[q, 1/q], so also when the
    quotient over Q(q) would have a rational coefficient."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return {}
    sa, sb = min(a), min(b)
    q, r = _divmod_poly(lshift(a, -sa), lshift(b, -sb))
    if r:
        raise ValueError("inexact polynomial division")
    return lshift(q, sa - sb)


def _unit_normal(a: dict) -> dict:
    # a divided by its content and its lowest power of q: int
    # coefficients, positive leading coefficient, lowest exponent 0
    if not a:
        return {}
    return lprimitive(lshift(a, -min(a)))[1]


def lgcd(a: dict, b: dict) -> dict:
    """gcd up to units: primitive, int coefficients, positive leading
    coefficient, lowest exponent 0.  lgcd(a, {}) is the unit-normalized
    form of a.

    The Euclidean loop on the unit-normal parts, by pseudo-division
    (Knuth, TAOCP Vol. 2, 4.6.1, Algorithm R): x is scaled by
    lc(y)**(deg x - deg y + 1) before it is divided by y, so every
    remainder stays in Z[q]; each is then made primitive."""
    x, y = _unit_normal(a), _unit_normal(b)
    while y:
        if not x or max(x) < max(y):
            x, y = y, x
            continue
        dy = max(y)
        _, r = _divmod_poly(lscale(x, y[dy] ** (max(x) - dy + 1)), y)
        x, y = y, _unit_normal(r)
    return x
