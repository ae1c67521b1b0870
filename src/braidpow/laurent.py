"""Laurent polynomials in one variable q over the rationals.

A Laurent polynomial is a plain dict {exponent: coefficient} with int
exponents and nonzero coefficients; the empty dict is zero.  Every
function here returns that canonical form, so equality is dict equality
and the zero test is emptiness.  No floats anywhere.

The ring operations (lconst, ladd, lsub, lneg, lmul, lscale, lshift,
lbar, leval) take any exact coefficients and use them as given.
Content, gcd and exact division (lcontent, lprimitive, ldiv_exact, lgcd,
lcofactors, llcm) work in Z[q, 1/q] and take int coefficients only, as
do the rows of the sparse engine in qarith.  Both gcds run the heuristic
GCDHEU (_gcd_heu), whose exact quotients prove its candidate: lgcd on two
operands, and lcofactors on every entry of a row at once, handing back
those quotients as the stripped entries.  Each quotient is read off the
values GCDHEU already has when their digits are small enough to be
proved (_value_quo), and otherwise comes from dense long division
(_dense_quo).  lcofactors first packs the entries by their common
exponent step g, as polynomials in t = q**g, since their gcd is one too.

qarith's elimination does not run on these dicts.  It packs each entry
q**lo * f as (lo, f(2**K), n1) with n1 >= |f|_1, and keeps the slot
invariant 2*n1 + 4 <= 2**K, checked before every entry it produces.
That invariant is exactly what _gcd_heu's proof asks of xi = 2**K: it
bounds every coefficient by xi/2 and every root by n1 + 1.  So a row
strip there is this GCDHEU at xi = 2**K on values it already holds, its
cofactors proved by _value_quo's condition and its content by Gauss's
lemma (see qarith).  When a packed cofactor is refused, the row is
unpacked and lcofactors strips it, keeping its Euclid fallback; the
packed engine's lcm and exact quotients fall back to lcofactors and
ldiv_exact the same way.  The kernel certificate reads the unpacked
rows with its own evaluation, never this packing.
A rational enters a row in two places only: qarith.Subspace.span and
Subspace.contains clear a caller's denominators, and specialize mode
maps q0 into F_P with fp.

Specialize mode evaluates q at the image x of a rational sample point
in the prime field F_P, P = 2**61 - 1 (fp, leval_fp).  A specialized
module's coefficients are those values, ints 0 < c < P, not Laurent
polynomials: nothing in this file runs over F_P, and the module and row
operations that take a modulus (qarith's map operations and int kernel,
uqmod.coproduct) do the arithmetic mod P.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

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


def lqint(k: int, d: int = 1) -> dict:
    """Balanced q-integer (k) = (q**(k*d) - q**(-k*d)) / (q**d - q**(-d))."""
    if k < 0:
        return lneg(lqint(-k, d))
    return {d * (k - 1 - 2 * j): 1 for j in range(k)}


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


# GCDHEU tries this many evaluation points before lgcd falls back to the
# Euclidean loop.
_HEU_TRIES = 6


def _dense(a: dict, low: int = 0, step: int = 1) -> list:
    # coefficient list of q**-low * a in t = q**step, lowest exponent
    # first; a has lowest exponent low and step divides every e - low
    out = [0] * ((max(a) - low) // step + 1)
    for e, c in a.items():
        out[(e - low) // step] = c
    return out


def _heu_eval(f: list, xi: int) -> int:
    v = 0
    for c in reversed(f):
        v = v * xi + c
    return v


def _heu_digits(v: int, xi: int) -> list:
    # balanced base-xi digits of v, lowest first; the top one has the
    # sign of v
    half = xi // 2
    out = []
    while v:
        d = v % xi
        if d > half:
            d -= xi
        out.append(d)
        v = (v - d) // xi
    return out


def _dense_quo(f: list, h: list):
    """The quotient f / h in Z[q] of dense int polynomials, or None when h
    does not divide f there; h has a nonzero top coefficient.  For a
    primitive h that is divisibility over Q too (Gauss's lemma), so a
    leading coefficient that does not divide ends the test."""
    dh = len(h) - 1
    if dh >= len(f):
        return None
    lh = h[-1]
    r = list(f)
    quo = [0] * (len(f) - dh)
    for i in range(len(f) - 1 - dh, -1, -1):
        c, rest = divmod(r[i + dh], lh)
        if rest:
            return None
        if c:
            quo[i] = c
            for j in range(dh):
                r[i + j] -= c * h[j]
    return None if any(r[:dh]) else quo


def _value_quo(v: int, hv: int, xi: int, size: int, h1: int):
    """The quotient f / h read off the values v = f(xi) and hv = h(xi):
    the balanced base-xi digits of v / hv, when hv divides v, they are
    size digits and 2 * h1 * (largest digit) < xi, h1 = |h|_1; else None.
    The caller also checks 2 * |f|_inf < xi (see _gcd_heu's proof)."""
    u, rest = divmod(v, hv)
    if rest:
        return None
    quo = _heu_digits(u, xi)
    if len(quo) != size or 2 * h1 * max(map(abs, quo)) >= xi:
        return None
    return quo


def _gcd_heu(fs: list):
    """GCDHEU on dense primitive int polynomials with nonzero constant
    terms and positive leading coefficients.  Returns (G, quotients), G
    their dense gcd and quotients[i] == fs[i] / G, or None when no
    evaluation point gives a candidate that divides every operand.

    Why a candidate that divides every operand is the gcd G: let h be the
    digit polynomial of gcd(f(xi) for f in fs) with content c and
    H = h/c dividing each f.  Then G = H*K, and G(xi) divides
    h(xi) = c*H(xi), so K(xi) divides c, and |c| <= xi/2 because c
    divides a balanced digit.  A root of K is a common root, of modulus
    below bound + 2 by Cauchy's bound, and xi >= 2*bound + 4, so a
    nonconstant K has |K(xi)| > xi/2.  Hence K is a unit and H == G.

    The quotients that prove H divides each f are the cofactors, each
    proved one of two ways.  From the values in hand (_value_quo): Q is
    the digit polynomial of f(xi) / H(xi), kept when H(xi) divides f(xi),
    deg Q = deg f - deg H, 2*|f|_inf < xi and 2*|H|_1*|Q|_inf < xi.  Then
    H*Q and f have every coefficient in (-xi/2, xi/2) and the same value
    at xi.  Their difference has coefficients below xi in modulus and
    vanishes at xi, so xi divides its lowest nonzero coefficient: there is
    none, and f == H*Q.  In every other case the exact long division
    _dense_quo decides."""
    norms = [max(map(abs, f)) for f in fs]
    bound = min(n // f[-1] for n, f in zip(norms, fs))
    # the start and growth of xi follow the published algorithm (as does
    # SymPy's dup_zz_heu_gcd); correctness needs only xi >= 2*bound + 4
    b = 2 * min(norms) + 29
    xi = max(min(b, 99 * isqrt(b)), 2 * bound + 4)
    for _ in range(_HEU_TRIES):
        # the operand that sets bound has no root as large as xi, so the
        # gcd of the values is positive
        vals = [_heu_eval(f, xi) for f in fs]
        v = gcd(*vals)
        h = _heu_digits(v, xi)
        c = gcd(*h)
        h = [d // c for d in h]
        if h == [1]:
            return h, list(fs)
        hv, h1 = v // c, sum(map(abs, h))
        quos = []
        for f, n, fv in zip(fs, norms, vals):
            quo = None
            if 2 * n < xi:
                quo = _value_quo(fv, hv, xi, len(f) - len(h) + 1, h1)
            if quo is None:
                quo = _dense_quo(f, h)
                if quo is None:
                    break
            quos.append(quo)
        else:
            return h, quos
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _lgcd_euclid(x: dict, y: dict) -> dict:
    """Euclidean gcd of two unit-normal polynomials (see lgcd) by
    pseudo-division (Knuth, TAOCP Vol. 2, 4.6.1, Algorithm R): x is
    scaled by lc(y)**(deg x - deg y + 1) before it is divided by y, so
    every remainder stays in Z[q]; each is then made primitive.  The
    fallback of lgcd, and the reference its tests compare GCDHEU
    against."""
    while y:
        if not x or max(x) < max(y):
            x, y = y, x
            continue
        dy = max(y)
        _, r = _divmod_poly(lscale(x, y[dy] ** (max(x) - dy + 1)), y)
        r = _unit_normal(r)
        x, y = y, r
    return x


def lgcd(a: dict, b: dict) -> dict:
    """gcd up to units: primitive, int coefficients, positive leading
    coefficient, lowest exponent 0.  lgcd(a, {}) is the unit-normalized
    form of a.

    The gcd of two nonconstant operands is computed by the heuristic
    integer gcd GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput.
    1989): evaluate both unit-normal operands at one large integer, take
    a single integer gcd, rebuild the candidate from its balanced digits
    and keep it only if it divides both operands exactly.  That exact
    division is the proof (see _gcd_heu).  If no evaluation point
    passes, the Euclidean loop _lgcd_euclid decides."""
    x, y = _unit_normal(a), _unit_normal(b)
    if not x or not y:
        return x or y
    if x == y:
        return x
    if x == ONE or y == ONE:
        return dict(ONE)
    heu = _gcd_heu([_dense(x), _dense(y)])
    if heu is None:
        return _lgcd_euclid(x, y)
    return {e: c for e, c in enumerate(heu[0]) if c}


def lcofactors(polys: list) -> list:
    """The quotients p / G of nonzero int-coefficient polynomials by
    their gcd G (unit normal, as lgcd gives it), in order: each keeps its
    sign, content and q power, and the common factor of positive degree
    is gone.

    One GCDHEU pass serves every operand: the unit-normal parts are
    evaluated at one integer xi, a single gcd of the values gives the
    candidate, and the quotients that prove it the gcd (see _gcd_heu)
    are the cofactors.  If no evaluation point passes, a pairwise lgcd
    fold and ldiv_exact decide.

    The parts are packed by their common exponent step g, the gcd of
    every gap e - min(p) within each entry p: each part is F(t) with
    t = q**g, and GCDHEU runs on the F.  That gives the same G.  Each part
    is unchanged by q -> zeta*q for a g-th root of unity zeta, so G(zeta*q)
    is a gcd too and, both having the same nonzero constant term, equals
    G(q); so G is a polynomial in q**g, the gcd of the F in t."""
    lows = []
    step = 0
    for p in polys:
        if len(p) == 1:
            # a unit of the Laurent ring: G is 1
            return list(polys)
        low = min(p)
        lows.append(low)
        if step != 1:
            step = gcd(step, *(e - low for e in p))
    parts = []
    for low, p in zip(lows, polys):
        f = _dense(p, low, step)
        c = gcd(*f)
        if f[-1] < 0:
            c = -c
        parts.append((low, c, [v // c for v in f]))
    if len(parts) == 1:
        low, c, _ = parts[0]
        return [{low: c}]
    heu = _gcd_heu([f for _, _, f in parts])
    if heu is None:
        g: dict = {}
        for p in polys:
            g = lgcd(p, g)
            if g == ONE:
                return list(polys)
        return [ldiv_exact(p, g) for p in polys]
    h, quos = heu
    if len(h) == 1:
        return list(polys)
    return [
        {low + step * e: c * v for e, v in enumerate(quo) if v}
        for (low, c, _), quo in zip(parts, quos)
    ]


def llcm(a: dict, b: dict) -> dict:
    """lcm up to units of two int-coefficient polynomials: the lcm of
    their contents times the lcm of their unit-normal primitive parts."""
    if not a or not b:
        return {}
    x, y = _unit_normal(a), _unit_normal(b)
    return lscale(ldiv_exact(lmul(x, y), lgcd(x, y)), lcm(lcontent(a), lcontent(b)))
