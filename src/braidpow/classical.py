"""Degeneration at q = 1: bracketed algebras on the symmetric and
exterior algebras of the (l+1)-dimensional sl2 module.

The module has basis v_0..v_l with E(v_i) = i v_{i-1} and
F(v_i) = (l-i) v_{i+1}; both operators extend to even derivations of
S(V) and Lambda(V).  The bracket is {a, b} = E(a) F(b) - F(a) E(b),
antisymmetric on the symmetric algebra and symmetric on pairs of odd
elements of the exterior one.  It fails the super Jacobi identity,
and the quotients by the ideals generated by the degree-3 Jacobians
are the smallest bracketed quotients that satisfy it.  The graded
dimensions of those quotients are upper bounds for the corresponding
braided power dimensions, which they are expected to match.

`poisson_closure_dims` finds the rank of each degree of an ideal while
forming only the products that can still raise it, by three exact facts:
- The odd generators come from `jminus_six_terms`, one expansion per
  triple instead of three nested brackets; it is -`jminus` for every l
  (its docstring says why).
- E lowers one index by one and F raises one, so the bracket keeps the
  index sum, and so does every product of a Jacobian with a monomial.
  Products of different sums share no monomial, so the rank splits
  into one block per sum s.  The index reversal sigma: v_i -> v_(l-i) satisfies
  sigma E sigma = F, so sigma {a, b} = -{sigma a, sigma b}, sigma maps
  each Jacobian to +- a Jacobian, and it maps the block at s of degree
  n onto the block at n l - s.  Only the blocks with 2 s >= n l are
  eliminated; each rank off the middle counts twice.
- A block's rank is at most the number of degree-n monomials of its
  sum, so once a block reaches it, no further product is formed there.

Elements are dicts with integer coefficients.  Symmetric monomials
are exponent tuples of length l+1, exterior ones strictly increasing
index tuples.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cache
from itertools import combinations, combinations_with_replacement
from math import comb, gcd


def _addto(acc: dict, key, c) -> None:
    if not c:
        return
    c += acc.get(key, 0)
    if c:
        acc[key] = c
    else:
        acc.pop(key, None)


def combine(x: dict, y: dict, sy: int = 1) -> dict:
    out = dict(x)
    for k, c in y.items():
        _addto(out, k, sy * c)
    return out


def scale(x: dict, c: int) -> dict:
    return {k: c * v for k, v in x.items()} if c else {}


def gen_sym(l: int, i: int) -> dict:
    return {tuple(int(t == i) for t in range(l + 1)): 1}


def gen_lam(l: int, i: int) -> dict:
    if not 0 <= i <= l:
        return {}
    return {(i,): 1}


def _act_sym(x: dict, step: int, coeff) -> dict:
    out = {}
    for mono, c in x.items():
        for i, e in enumerate(mono):
            if not e:
                continue
            k = coeff(i) * e
            if not k:
                continue
            t = list(mono)
            t[i] -= 1
            t[i + step] += 1
            _addto(out, tuple(t), c * k)
    return out


def _act_lam(x: dict, step: int, coeff) -> dict:
    # moving one index by +-1 keeps the tuple sorted or collides with a
    # neighbor, so no resorting and no sign
    out = {}
    for mono, c in x.items():
        for t, i in enumerate(mono):
            k = coeff(i)
            if not k:
                continue
            j = i + step
            if j in mono:
                continue
            _addto(out, mono[:t] + (j,) + mono[t + 1 :], c * k)
    return out


def e_sym(x):
    return _act_sym(x, -1, lambda i: i)


def f_sym(l, x):
    return _act_sym(x, +1, lambda i: l - i)


def e_lam(x):
    return _act_lam(x, -1, lambda i: i)


def f_lam(l, x):
    return _act_lam(x, +1, lambda i: l - i)


def mul_sym(x: dict, y: dict) -> dict:
    out = {}
    for ka, ca in x.items():
        for kb, cb in y.items():
            _addto(out, tuple(a + b for a, b in zip(ka, kb)), ca * cb)
    return out


def _sort_inversions(seq) -> tuple[int, tuple]:
    # (number of inversions, sorted tuple), by insertion sort: each swap
    # of neighbours undoes one inversion
    lst = list(seq)
    inv = 0
    for a in range(1, len(lst)):
        b = a
        while b and lst[b - 1] > lst[b]:
            lst[b - 1], lst[b] = lst[b], lst[b - 1]
            inv += 1
            b -= 1
    return inv, tuple(lst)


def wedge(x: dict, y: dict) -> dict:
    out = {}
    for ka, ca in x.items():
        sa = set(ka)
        for kb, cb in y.items():
            if sa.intersection(kb):
                continue
            inv, key = _sort_inversions(ka + kb)
            _addto(out, key, (-1) ** inv * ca * cb)
    return out


def bracket_sym(l: int, a: dict, b: dict) -> dict:
    return combine(mul_sym(e_sym(a), f_sym(l, b)),
                   mul_sym(f_sym(l, a), e_sym(b)), -1)


def bracket_lam(l: int, a: dict, b: dict) -> dict:
    return combine(wedge(e_lam(a), f_lam(l, b)),
                   wedge(f_lam(l, a), e_lam(b)), -1)


def parity(x: dict) -> int:
    degs = {len(k) & 1 for k in x}
    if len(degs) > 1:
        raise ValueError("element is not parity homogeneous")
    return degs.pop() if degs else 0


def super_jacobian(l: int, a: dict, b: dict, c: dict, kind: str) -> dict:
    """(-1)^(eps gam) {a,{b,c}} + (-1)^(gam del) {c,{a,b}}
    + (-1)^(del eps) {b,{c,a}} for parity-homogeneous arguments."""
    if kind == "sym":
        br = lambda u, v: bracket_sym(l, u, v)
        pa = pb = pc = 0
    else:
        br = lambda u, v: bracket_lam(l, u, v)
        pa, pb, pc = parity(a), parity(b), parity(c)
    out = scale(br(a, br(b, c)), (-1) ** (pa * pc))
    out = combine(out, br(c, br(a, b)), (-1) ** (pc * pb))
    return combine(out, br(b, br(c, a)), (-1) ** (pb * pa))


def jplus(l: int, i: int, j: int, k: int) -> dict:
    return super_jacobian(l, gen_sym(l, i), gen_sym(l, j), gen_sym(l, k),
                          "sym")


def jminus(l: int, i: int, j: int, k: int) -> dict:
    return super_jacobian(l, gen_lam(l, i), gen_lam(l, j), gen_lam(l, k),
                          "ext")


def jminus_six_terms(l: int, i: int, j: int, k: int) -> dict:
    """Explicit expansion of the odd Jacobian over basis vectors.  Its
    overall sign is opposite to super_jacobian (the spans agree).

    For odd a, b, c each sign of super_jacobian is -1, so it is minus
    the cyclic sum of {a, {b, c}}.  Expanding the inner bracket by the
    Leibniz rule gives terms of two shapes.  Those with EE or FF on one
    factor cancel in pairs across the cyclic sum, for any two even
    derivations.  The rest pair up into E a ^ [F, E] b ^ F c and its
    rotations, and [E, F] v_j = ((l - j)(j + 1) - j(l - j + 1)) v_j
    = (l - 2j) v_j.  So each of the six terms puts E, H = [E, F] and F
    on the three slots in one order, with the coefficients below,
    whatever l is.  A term whose index leaves [0, l] has a zero
    coefficient, and one with two equal indices is zero in the
    exterior algebra."""
    out = {}
    for ci, cj, ck, di, dj, dk in (
        (i, 2 * j - l, l - k, -1, 0, 1),
        (-i, l - j, 2 * k - l, -1, 1, 0),
        (-(2 * i - l), j, l - k, 0, -1, 1),
        (2 * i - l, l - j, k, 0, 1, -1),
        (l - i, j, 2 * k - l, 1, -1, 0),
        (-(l - i), 2 * j - l, k, 1, 0, -1),
    ):
        c = ci * cj * ck
        a, b, d = i + di, j + dj, k + dk
        if c and len({a, b, d}) == 3:
            inv, key = _sort_inversions((a, b, d))
            _addto(out, key, (-1) ** inv * c)
    return out


# ---------------------------------------------------------------------------
# graded quotients by the Jacobian ideals


def _pivot_insert(piv: dict, row: dict):
    row = {c: v for c, v in row.items() if v}
    while row:
        c = min(row)
        hit = piv.get(c)
        if hit is None:
            g = 0
            for v in row.values():
                g = gcd(g, v)
            if g != 1:
                row = {col: v // g for col, v in row.items()}
            piv[c] = row
            return row
        # row <- a row - b hit, with a and b divided by their gcd
        a, b = hit[c], row[c]
        g = gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            row = {col: a * v for col, v in row.items()}
        for col, v in hit.items():
            v = row.get(col, 0) - b * v
            if v:
                row[col] = v
            else:
                del row[col]
    return None


def _picks(l: int, n: int, kind: str):
    """The degree-n monomials as sorted index tuples, repeats allowed
    for sym; the sum of a tuple is the monomial's index sum."""
    if kind == "sym":
        return combinations_with_replacement(range(l + 1), n)
    return combinations(range(l + 1), n)


def _monomial(l: int, picks: tuple, kind: str) -> tuple:
    if kind == "ext":
        return picks
    mono = [0] * (l + 1)
    for i in picks:
        mono[i] += 1
    return tuple(mono)


def _jacobian_generators(l: int, kind: str) -> dict:
    """The nonzero degree-3 Jacobians of basis vectors, by index sum."""
    if kind == "sym":
        # alternating in its arguments, so strict triples carry the span
        triples = combinations(range(l + 1), 3)
        jac = jplus
    else:
        # symmetric in its arguments; repeated entries still contribute.
        # The expansion is -jminus, one pass instead of three brackets.
        triples = combinations_with_replacement(range(l + 1), 3)
        jac = jminus_six_terms
    gens = defaultdict(list)
    for i, j, k in triples:
        g = jac(l, i, j, k)
        if g:
            gens[i + j + k].append(g)
    return gens


def _block_rank(products, size: int) -> int:
    """Rank of the rows in products, stopping once it reaches size."""
    piv = {}
    col = {}
    rank = 0
    for prod in products:
        row = {}
        for key, c in prod.items():
            row[col.setdefault(key, len(col))] = c
        if _pivot_insert(piv, row) is not None:
            rank += 1
            if rank == size:
                break
    return rank


def poisson_closure_dims(l: int, upto: int, kind: str = "sym") -> list:
    """Graded dimensions, degrees 0..upto, of the quotient by the
    ideal the degree-3 Jacobians generate.

    Degree n of the ideal is spanned by the products g x of the
    generators g with the monomials x of degree n - 3.  Its rank is
    found one index sum s at a time, from the products of sum s only:
    - E lowers one index by one and F raises one, so every Jacobian
      and every product has one index sum.  Products of different sums
      share no monomial, so the rank is the sum of the blocks' ranks.
    - sigma: v_i -> v_(l-i) satisfies sigma E sigma = F, so
      sigma {a, b} = -{sigma a, sigma b}.  It maps each Jacobian to +- a
      Jacobian, since the two signs of a nested bracket cancel, and the
      block at s onto the block at n l - s, with the same rank.  Only
      the blocks with 2 s >= n l are built; each rank off the middle
      counts twice.
    - A block's rank is at most the number of degree-n monomials of
      its sum, so a block takes no product once it reaches that."""
    if kind not in ("sym", "ext"):
        raise ValueError(f"unknown kind {kind!r}")
    mul = mul_sym if kind == "sym" else wedge
    gens = _jacobian_generators(l, kind)
    dims = []
    for n in range(upto + 1):
        full = comb(l + n, n) if kind == "sym" else comb(l + 1, n)
        if n < 3 or full == 0:
            dims.append(full)
            continue
        sizes = Counter(map(sum, _picks(l, n, kind)))
        lows = defaultdict(list)
        for picks in _picks(l, n - 3, kind):
            lows[sum(picks)].append({_monomial(l, picks, kind): 1})
        rank = 0
        for s, size in sizes.items():
            if 2 * s < n * l:
                continue
            products = (mul(g, x)
                        for t, xs in lows.items()
                        for g in gens.get(s - t, ())
                        for x in xs)
            r = _block_rank(products, size)
            rank += r if 2 * s == n * l else 2 * r
        dims.append(full - rank)
    return dims


def exterior_four_vanishes(l: int) -> bool:
    """Degree 4 of the exterior quotient is zero, i.e. the wedges of
    degree-3 Jacobians with vectors fill the fourth exterior power."""
    return poisson_closure_dims(l, 4, "ext")[4] == 0


# ---------------------------------------------------------------------------
# leading-monomial cover of the fourth exterior power

# min over the lexicographic order on sorted index tuples is a
# valuation: the leading monomial of a wedge of leading monomials


def valuation(x: dict) -> tuple:
    if not x:
        raise ValueError("zero has no valuation")
    return min(x)


def _xelt(l: int, jac: dict, m: int) -> dict:
    return wedge(jac, gen_lam(l, m))


def delta_coefficient(l: int, i: int, k: int) -> int:
    """Leading coefficient of the paired element at a two-step gap; it
    vanishes exactly at the middle weight 2i = l."""
    return -i * (2 * i - l) * (l - k + 1) * (
        (2 * k - 4 - l) * k + (k - 1) * (2 * k - l)
    )


def valuation_cover_check(l: int) -> dict:
    """Wedge the degree-3 Jacobians with basis vectors, pair them as
    needed to clear leading terms, and check that their leading
    monomials reach every 4-subset of [0, l]: degree-4 vanishing of the
    exterior quotient, monomial by monomial.  The 4-subsets left out go
    under "uncovered", the pairs (i, k) breaking the delta pattern under
    "delta_broken", each present only when nonempty.

    The cover is a second proof of vanishing where it is complete, so
    the Jacobians here are the bracket definition `jminus`, each built
    once.  It is not complete for every l: at l = 8, 10 and 12 the
    three families miss some 4-subsets, each containing l / 2, where
    `delta_coefficient` vanishes; at l = 8 they are (1, 2, 4, 5) and
    (3, 4, 6, 7).  A "covered": false there says only that these
    elements miss those subsets, not that the degree-4 quotient is
    nonzero: `exterior_four_vanishes` holds at each of these l."""
    targets = set(combinations(range(l + 1), 4))
    found = {"x": set(), "y": set(), "z": set()}
    jac = cache(lambda i, j, k: jminus(l, i, j, k))
    for i, j, k in combinations(range(l + 1), 3):
        g = jac(i, j, k)
        for m in range(l + 1):
            x = _xelt(l, g, m)
            if x:
                found["x"].add(valuation(x))
        y = combine(scale(_xelt(l, g, i - 1), i * (2 * j - 2 - l)),
                    scale(_xelt(l, jac(i, j - 1, k), i), j * (2 * i - l)), -1)
        if y:
            found["y"].add(valuation(y))
        z = combine(
            scale(_xelt(l, g, k + 1), (2 * j + 2 - l) * (l - k)),
            scale(_xelt(l, jac(i, j + 1, k), k), (l - j) * (2 * k - l)), -1)
        if z:
            found["z"].add(valuation(z))
    uncovered = sorted(targets - (found["x"] | found["y"] | found["z"]))
    # the pairing at a two-step gap stays alive away from the middle
    # weight: (2k-1)(2k-l-2) = 2 has no integer solutions for l > 0
    bad = [
        (i, k)
        for i in range(1, l + 1)
        for k in range(i + 2, l + 1)
        if (delta_coefficient(l, i, k) == 0) != (2 * i == l)
    ]
    report = {
        "l": l,
        "subsets": len(targets),
        "from_single": len(found["x"]),
        "from_low_pair": len(found["y"]),
        "from_high_pair": len(found["z"]),
        "covered": not uncovered,
    }
    if uncovered:
        report["uncovered"] = uncovered
    if bad:
        report["delta_broken"] = bad
    return report
