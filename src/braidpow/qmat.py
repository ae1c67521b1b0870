"""Quantum d x k matrix entries realized inside a braided tensor power
of q-polynomial rows.

One row is the q-polynomial algebra on x_0..x_{d-1} with
x_j x_i = q x_i x_j for i < j; monomials are exponent tuples and a
product picks up q to the number of straightening inversions.  The
k-fold braided tensor power multiplies columns by pushing generators
leftward across occupied slots with the standard braiding

    R(x_i (x) x_j) = x_j (x) x_i                         (i < j)
                     q x_i (x) x_i                       (i = j)
                     x_j (x) x_i + (q - q^-1) x_i (x) x_j  (i > j)

extended to monomials one letter at a time.  The entry generators
g[i][j] = x_i placed in slot j then satisfy the quantum 2 x 2
relations in every row pair and column pair, which
check_qmatrix_relations checks.  howe_dim_check prices out the bigraded
simple decomposition predicted for the entry algebra and compares it
with the full polynomial dimension in each degree.  Both return their
comparison, ok or not, rather than raise.

Elements are dicts mapping a k-tuple of exponent tuples to a Laurent
coefficient.  Indices are 0-based throughout.
"""

from __future__ import annotations

from math import comb

from .classical import _sort_inversions
from .laurent import ONE, ladd, lmul, lneg, lq, lshift, lsub
from .uqmod import dim_irrep

_QM1 = lsub(lq(1), lq(-1))


def r_standard(i: int, j: int) -> dict:
    """Braiding of x_i (x) x_j as {(left, right): Laurent}."""
    if i < j:
        return {(j, i): dict(ONE)}
    if i == j:
        return {(i, i): lq(1)}
    return {(j, i): dict(ONE), (i, j): dict(_QM1)}


def qpoly_mul_mono(a: tuple, b: tuple) -> tuple[int, tuple]:
    """Straighten x^a x^b: the q-exponent counts pairs with a bigger
    letter from a in front of a smaller one from b."""
    e = sum(a[i] * b[j] for i in range(1, len(a)) for j in range(i))
    return e, tuple(x + y for x, y in zip(a, b))


def _acc(out: dict, key, coeff: dict) -> None:
    if not coeff:
        return
    cur = out.get(key)
    if cur is None:
        out[key] = coeff
        return
    cur = ladd(cur, coeff)
    if cur:
        out[key] = cur
    else:
        del out[key]


def _letters(exps: tuple) -> list:
    word = []
    for i, e in enumerate(exps):
        word.extend([i] * e)
    return word


def _exps_of(d: int, letters) -> tuple:
    exps = [0] * d
    for t in letters:
        exps[t] += 1
    return tuple(exps)


def _cross_monomial(d: int, exps: tuple, mover: int) -> dict:
    """R(x^exps (x) x_mover) as {(mover_out, new_exps): Laurent}.  The
    mover meets the rightmost letter first; a crossing may hand the
    mover role to the letter it passes."""
    states = {(mover, ()): dict(ONE)}
    for t in reversed(_letters(exps)):
        nxt = {}
        for (mv, done), c in states.items():
            for (left, right), rc in r_standard(t, mv).items():
                _acc(nxt, (left, (right,) + done), lmul(c, rc))
        states = nxt
    out = {}
    for (mv, word), c in states.items():
        inv, _ = _sort_inversions(word)
        _acc(out, (mv, _exps_of(d, word)), lshift(c, inv))
    return out


def _mul_letter(d: int, x: dict, s: int, letter: int) -> dict:
    """Right-multiply x by the generator carrying x_letter in slot s."""
    out = {}
    for slots, coeff in x.items():
        movers = {(letter, slots): coeff}
        for t in range(len(slots) - 1, s, -1):
            nxt = {}
            for (mv, sl), c in movers.items():
                for (mv2, exps), c2 in _cross_monomial(d, sl[t], mv).items():
                    key = (mv2, sl[:t] + (exps,) + sl[t + 1 :])
                    _acc(nxt, key, lmul(c, c2))
            movers = nxt
        for (mv, sl), c in movers.items():
            e, exps = qpoly_mul_mono(sl[s], tuple(int(t == mv) for t in range(d)))
            _acc(out, sl[:s] + (exps,) + sl[s + 1 :], lshift(c, e))
    return out


def mat_mul(d: int, x: dict, y: dict) -> dict:
    """Product in the braided k-th power; slots multiply in ascending
    order so y factors into single letters with no crossings."""
    out = {}
    for slots, cy in y.items():
        cur = x
        for s, exps in enumerate(slots):
            for letter in _letters(exps):
                cur = _mul_letter(d, cur, s, letter)
        for key, c in cur.items():
            _acc(out, key, lmul(c, cy))
    return out


def mat_scale(x: dict, c: dict) -> dict:
    return {k: lmul(v, c) for k, v in x.items()} if c else {}


def mat_sub(x: dict, y: dict) -> dict:
    out = dict(x)
    for k, v in y.items():
        _acc(out, k, lneg(v))
    return out


def matrix_generator(d: int, k: int, i: int, j: int) -> dict:
    """The entry generator: x_i in slot j (0-based)."""
    unit = (0,) * d
    row = tuple(int(t == i) for t in range(d))
    return {tuple(row if s == j else unit for s in range(k)): dict(ONE)}


def check_qmatrix_relations(d: int, k: int) -> dict:
    """Compare every row pair and column pair of entry generators with
    the quantum 2 x 2 matrix relations inside the braided power.  Each
    relation that fails is listed under "failures", a key present only
    when some relation fails, as {"relation": name, "at": indices}; "ok"
    is true when none does."""
    g = [[matrix_generator(d, k, i, j) for j in range(k)] for i in range(d)]
    mm = lambda u, v: mat_mul(d, u, v)
    q = lq(1)
    checked = 0
    failures = []

    def demand(ok, name, where):
        nonlocal checked
        checked += 1
        if not ok:
            failures.append({"relation": name, "at": list(where)})

    for i in range(d):
        for j in range(k):
            for jp in range(j + 1, k):
                a, b = g[i][j], g[i][jp]
                demand(mm(b, a) == mat_scale(mm(a, b), q), "row q-swap",
                       (i, j, jp))
            for ip in range(i + 1, d):
                a, c = g[i][j], g[ip][j]
                demand(mm(c, a) == mat_scale(mm(a, c), q), "column q-swap",
                       (i, ip, j))
    for i in range(d):
        for ip in range(i + 1, d):
            for j in range(k):
                for jp in range(j + 1, k):
                    b, c = g[i][jp], g[ip][j]
                    dd, a = g[ip][jp], g[i][j]
                    demand(mm(c, b) == mm(b, c), "antidiagonal commute",
                           (i, ip, j, jp))
                    demand(
                        mat_sub(mm(dd, a), mm(a, dd))
                        == mat_scale(mm(b, c), _QM1),
                        "diagonal commutator",
                        (i, ip, j, jp),
                    )
    report = {"d": d, "k": k, "relations": checked, "ok": not failures}
    if failures:
        report["failures"] = failures
    return report


def _partitions(n: int, parts: int):
    """Weakly decreasing nonnegative tuples of the given length summing
    to n."""
    if parts == 1:
        yield (n,)
        return
    for head in range(n, (n - 1) // parts, -1):
        for tail in _partitions(n - head, parts - 1):
            if tail[0] <= head:
                yield (head,) + tail


def howe_dim_check(d: int, k: int, n: int) -> dict:
    """Compare the sum over partitions of n with at most d parts of the
    product of the two Weyl dimensions with the polynomial degree count
    C(dk + n - 1, n).  "ok" is true when they are equal; otherwise the
    count is in the report too, as "polynomial_count"."""
    if not 1 <= d <= k:
        raise ValueError("need 1 <= d <= k")
    terms = []
    total = 0
    for lam in _partitions(n, d):
        dim_left = dim_irrep(lam)
        dim_right = dim_irrep(lam + (0,) * (k - d))
        terms.append((lam, dim_left, dim_right))
        total += dim_left * dim_right
    expected = comb(d * k + n - 1, n)
    report = {"d": d, "k": k, "n": n, "dimension": total, "terms": terms,
              "ok": total == expected}
    if total != expected:
        report["polynomial_count"] = expected
    return report
