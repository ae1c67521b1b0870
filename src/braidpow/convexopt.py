"""Assignment optimization over a staircase sign pattern.

Fix a weakly increasing lam = (lam_1 <= ... <= lam_m) with values in
[0, n].  The grid [1,m] x [1,n] splits into S- (cells with j <= lam_i)
and S+ (the rest).  A matrix is lam-convex when the strict
two-by-two inequality a[i,j] + a[i',j'] > a[i',j] + a[i,j'] holds for
every i < i', j < j' whose four cells are sign-coherent per column:
both columns inside S-, both inside S+, or column j inside S- and
column j' inside S+.  Mixed columns carry no constraint.

A map kappa: [1,m] -> [1,n] induces signed column multiplicities; maps
sharing both multiplicity functions form one feasibility class.  An
inversion is a weight-class-preserving descent, and within each class
exactly one map is inversion-free; it strictly maximizes
sum_i a[i, kappa(i)] over the class for every lam-convex matrix.
kappa_star builds that map directly, certify_max checks the whole
claim by exhaustion on small grids.
"""

from __future__ import annotations

import random

from .errors import InfeasibleError, TheoremViolation


def check_reversed_partition(lam, n: int) -> tuple:
    lam = tuple(int(x) for x in lam)
    if not lam:
        raise ValueError("lam must be nonempty")
    if any(a > b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"{lam} is not weakly increasing")
    if lam[0] < 0 or lam[-1] > n:
        raise ValueError(f"{lam} leaves the range [0, {n}]")
    return lam


def cell_sign(lam, i: int, j: int) -> int:
    """-1 on the staircase region j <= lam_i, +1 above it (1-based)."""
    return -1 if j <= lam[i - 1] else 1


def multiplicities(lam, kappa, n: int) -> tuple[tuple, tuple]:
    """Signed column multiplicity functions (K-, K+) of kappa."""
    km, kp = [0] * n, [0] * n
    for i, j in enumerate(kappa, start=1):
        if cell_sign(lam, i, j) < 0:
            km[j - 1] += 1
        else:
            kp[j - 1] += 1
    return tuple(km), tuple(kp)


def is_inversion(lam, kappa, i: int, ip: int) -> bool:
    """Descent at i < ip whose transposition preserves both multiplicity
    functions; equivalently both touched columns are sign-pure across
    the two rows."""
    if not (1 <= i < ip <= len(kappa)):
        return False
    a, b = kappa[i - 1], kappa[ip - 1]
    if a <= b:
        return False
    return cell_sign(lam, i, a) == cell_sign(lam, ip, a) and cell_sign(
        lam, i, b
    ) == cell_sign(lam, ip, b)


def inversions(lam, kappa) -> list[tuple]:
    m = len(kappa)
    return [
        (i, ip)
        for i in range(1, m + 1)
        for ip in range(i + 1, m + 1)
        if is_inversion(lam, kappa, i, ip)
    ]


def transpose_at(kappa, i: int, ip: int) -> tuple:
    out = list(kappa)
    out[i - 1], out[ip - 1] = out[ip - 1], out[i - 1]
    return tuple(out)


def is_lambda_convex(a, lam) -> bool:
    """Strict two-by-two test on every column-coherent quadruple."""
    m = len(a)
    n = len(a[0]) if m else 0
    lam = check_reversed_partition(lam, n)
    if len(lam) != m:
        raise ValueError("lam length must match the row count")
    for i in range(1, m + 1):
        for ip in range(i + 1, m + 1):
            lo, hi = lam[i - 1], lam[ip - 1]
            for j in range(1, n + 1):
                for jp in range(j + 1, n + 1):
                    if jp <= lo or j > hi or (j <= lo and jp > hi):
                        if (
                            a[i - 1][j - 1] + a[ip - 1][jp - 1]
                            <= a[ip - 1][j - 1] + a[i - 1][jp - 1]
                        ):
                            return False
    return True


def kappa_weight(a, kappa):
    return sum(a[i][kappa[i] - 1] for i in range(len(kappa)))


_AMP = 4


def random_lambda_convex(m: int, n: int, rng: random.Random):
    """Product ramp plus noise bounded by _AMP; the ramp margin dominates
    the noise, so the result satisfies every strict quadruple
    inequality."""
    scale = 4 * _AMP + 1
    return [
        [(i + 1) * (j + 1) * scale + rng.randint(-_AMP, _AMP) for j in range(n)]
        for i in range(m)
    ]


# ---------------------------------------------------------------------------
# the extremal map


def _columns(kminus, kplus) -> int:
    """n, the length of both multiplicity functions; ValueError when
    they differ."""
    n = len(kminus)
    if len(kplus) != n:
        raise ValueError("multiplicity functions live on different column sets")
    return n


def _max_support(counts) -> int | None:
    for j in range(len(counts), 0, -1):
        if counts[j - 1]:
            return j
    return None


def kappa_star(lam, kminus, kplus) -> tuple:
    """The unique inversion-free member of the feasibility class
    (kminus, kplus).  Built back to front: the last row takes the top
    surviving minus-column or the top surviving plus-column, with the
    plus branch ruled out when its column is not above the staircase in
    the last row, and otherwise decided by the tail-count test; the
    result is validated against the requested multiplicities."""
    n = _columns(kminus, kplus)
    lam = check_reversed_partition(lam, n)
    m = len(lam)
    total = sum(kminus) + sum(kplus)
    if total != m:
        raise InfeasibleError(
            f"multiplicities account for {total} rows, the staircase has {m}"
        )
    km, kp = list(kminus), list(kplus)
    out = [0] * m
    for i in range(m, 0, -1):
        kmin = _max_support(km)
        kplu = _max_support(kp)
        if kplu is None or kplu <= lam[i - 1]:
            # a plus assignment at row i would sit inside S-, so only
            # the minus branch can close this row
            take, sign = kmin, -1
        elif kmin is None:
            take, sign = kplu, 1
        elif any(
            sum(km[lam[i0 - 1]:]) == i - i0 for i0 in range(1, i)
        ):
            take, sign = kmin, -1
        else:
            take, sign = kplu, 1
        if take is None:
            raise InfeasibleError(f"no viable column remains for row {i}")
        out[i - 1] = take
        if sign < 0:
            km[take - 1] -= 1
        else:
            kp[take - 1] -= 1
    kappa = tuple(out)
    got_km, got_kp = multiplicities(lam, kappa, n)
    if got_km != tuple(kminus) or got_kp != tuple(kplus):
        raise InfeasibleError(
            f"constructed map realizes K- = {got_km}, K+ = {got_kp}, "
            f"requested K- = {tuple(kminus)}, K+ = {tuple(kplus)}; "
            "the class is empty"
        )
    inv = inversions(lam, kappa)
    if inv:
        raise TheoremViolation(
            f"constructed map {kappa} still has inversions {inv}"
        )
    return kappa


def feasible_class(lam, kminus, kplus) -> list:
    """Every kappa with the multiplicities (kminus, kplus), in lex order:
    row i, first to last, takes column j, ascending, only while j's count
    on row i's side of the staircase lasts (kminus for j <= lam_i,
    kplus above).  A count of 0 or below is never available, so a
    negative count, or counts that do not sum to the number of rows,
    give the empty class; otherwise a full map has used every count, so
    its multiplicities are exactly (kminus, kplus).  The work is the
    class size times m n, plus the prefixes that run out of counts."""
    n = _columns(kminus, kplus)
    lam = check_reversed_partition(lam, n)
    m = len(lam)
    counts = (list(kminus), list(kplus))
    every = counts[0] + counts[1]
    if min(every, default=0) < 0 or sum(every) != m:
        return []
    out: list = []

    def walk(i: int, head: tuple) -> None:
        if i == m:
            out.append(head)
            return
        for j in range(1, n + 1):
            side = counts[j > lam[i]]
            if side[j - 1] > 0:
                side[j - 1] -= 1
                walk(i + 1, head + (j,))
                side[j - 1] += 1

    walk(0, ())
    return out


def certify_max(
    lam,
    kminus,
    kplus,
    trials: int = 3,
    seed=None,
) -> dict:
    """Exhaustively confirm, for one feasibility class: a unique
    inversion-free member, equal to kappa_star, strictly maximal for
    random lam-convex matrices."""
    n = _columns(kminus, kplus)
    lam = check_reversed_partition(lam, n)
    feas = feasible_class(lam, kminus, kplus)
    if not feas:
        raise InfeasibleError(
            f"no map realizes K- = {tuple(kminus)}, K+ = {tuple(kplus)} "
            f"over {lam}"
        )
    inv_free = [k for k in feas if not inversions(lam, k)]
    if len(inv_free) != 1:
        raise TheoremViolation(
            f"{len(inv_free)} inversion-free members in a class of {len(feas)}"
        )
    star = kappa_star(lam, kminus, kplus)
    if star != inv_free[0]:
        raise TheoremViolation(
            f"direct construction {star} disagrees with the exhaustive "
            f"winner {inv_free[0]}"
        )
    rng = random.Random(seed)
    m = len(lam)
    for _ in range(trials):
        a = random_lambda_convex(m, n, rng)
        if not is_lambda_convex(a, lam):
            raise AssertionError("generator produced a non-convex matrix")
        top = kappa_weight(a, star)
        for kappa in feas:
            if kappa != star and kappa_weight(a, kappa) >= top:
                raise TheoremViolation(
                    f"{kappa} matches or beats the extremal map on {a}"
                )
    return {
        "lam": lam,
        "class_size": len(feas),
        "kappa_star": star,
        "trials": trials,
        "ok": True,
    }


def random_feasibility_class(lam, n: int, rng: random.Random):
    """Multiplicity pair of a uniformly random kappa; nonempty by
    construction."""
    lam = check_reversed_partition(lam, n)
    kappa = tuple(rng.randint(1, n) for _ in lam)
    return multiplicities(lam, kappa, n)


def certify_random_class(m: int, n: int, rng: random.Random) -> dict:
    """certify_max on one random instance.  From rng, in this order: a
    staircase of m values in [0, n], the class of a random map over it,
    and certify_max's seed.  Returns the instance with its extremal map
    and class size."""
    lam = tuple(sorted(rng.randint(0, n) for _ in range(m)))
    km, kp = random_feasibility_class(lam, n, rng)
    report = certify_max(
        lam,
        km,
        kp,
        trials=2,
        seed=rng.randrange(2**30),
    )
    return {
        "lam": list(lam),
        "kminus": list(km),
        "kplus": list(kp),
        "kappa_star": list(report["kappa_star"]),
        "class_size": report["class_size"],
    }
