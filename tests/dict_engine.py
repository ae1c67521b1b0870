"""The Q(q) elimination on dict Laurent entries, kept as the reference the
packed engine in qarith is tested against.

These are the engine's earlier bodies: srow_strip's shift, signed content
and laurent.lcofactors, the cross step with its lgcd pre-division, the
pivot insertion, the back reduction and the fraction-free kernel read off
the reduced echelon form with its lcm (llcm).  Their gcds are laurent's
Euclidean ones (lgcd and the lcofactors fold), an algorithm independent
of the packed engine's GCDHEU.  Every row they return is the canonical stripped
representative of its line, so the packed engine must return the same
rows, dict for dict."""

from math import gcd, lcm

from braidpow.laurent import (
    ONE,
    lcofactors,
    lcontent,
    ldiv_exact,
    lgcd,
    lmul,
    lneg,
    lscale,
    lshift,
)


def llcm(a: dict, b: dict) -> dict:
    """lcm up to units of two int-coefficient polynomials: the lcm of
    their contents times the lcm of their unit-normal primitive parts
    (lgcd(p, {}) is the unit-normal form of p)."""
    if not a or not b:
        return {}
    x, y = lgcd(a, {}), lgcd(b, {})
    return lscale(ldiv_exact(lmul(x, y), lgcd(x, y)), lcm(lcontent(a), lcontent(b)))


def strip(row: dict) -> dict:
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


def cross(row: dict, pivot_row: dict, col: int) -> dict:
    # a*row - b*pivot_row for a = pivot_row[col] and b = row[col], each
    # divided first by lgcd(a, b) when both have two or more terms
    a, b = pivot_row[col], row[col]
    if len(a) > 1 and len(b) > 1:
        g = lgcd(a, b)
        if g != ONE:
            a, b = ldiv_exact(a, g), ldiv_exact(b, g)
    b = lneg(b)
    out = {}
    for c, p in row.items():
        if c == col:
            continue
        q = pivot_row.get(c)
        if q is None:
            out[c] = lmul(a, p)
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


def pivot_insert(piv: dict, row: dict):
    row = {c: p for c, p in row.items() if p}
    while row:
        c = min(row)
        hit = piv.get(c)
        if hit is None:
            row = strip(row)
            piv[c] = row
            return row
        row = strip(cross(row, hit, c))
    return None


def back_reduce(piv: dict) -> None:
    if len(piv) < 2:
        return
    for c in sorted(piv, reverse=True):
        row = piv[c]
        others = [c2 for c2 in row if c2 != c and c2 in piv]
        for c2 in sorted(others):
            row = cross(row, piv[c2], c2)
        piv[c] = strip(row)


def echelon(rows, reduced: bool = True) -> dict:
    piv: dict[int, dict] = {}
    for row in rows:
        pivot_insert(piv, row)
    if reduced:
        back_reduce(piv)
    return piv


def span_echelon(rows) -> list[dict]:
    piv = echelon(rows)
    return [piv[c] for c in sorted(piv)]


def kernel_rows(rows, ncols: int) -> list[dict]:
    piv = echelon(rows, reduced=False)
    if len(piv) == ncols:
        return []
    back_reduce(piv)
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
        out.append(strip(vec))
    return out
