"""Dual canonical basis of a gl_3 simple module and its weight bases.

A basis element is a label m = (m1, m2, m12, m21) with m1*m2 = 0,
m1 + m12 <= l1 and m2 + m21 <= l2, where l1 = lam1 - lam2 and
l2 = lam2 - lam3.  Both generator actions are given by three-term
q-integer formulas on labels; terms whose target label leaves the label
set drop.  The construction is audited against the defining relations,
so the formulas cannot drift.

Inside one weight space the labels are totally ordered by the E_1
string depth ell_1^-.  Two other bases of the same weight space come
from the two embedded gl_2's: copy i seeds on ker E_i and walks down
with F_i.  Their expansions over the label basis are triangular from
opposite ends with all allowed coefficients nonzero, the coefficient
degrees climb by a fixed arithmetic rule, and the 2m expansion columns
are generic: every maximal minor of the m x 2m coordinate matrix is
nonzero.
"""

from __future__ import annotations

from itertools import combinations

from .errors import TheoremViolation
from .laurent import ldeg, lqint
from .qarith import sp_apply, sp_rank, srow_strip
from .uqmod import WeightModule, weight_space_kernel

ALPHA1 = (1, -1, 0)
ALPHA2 = (0, 1, -1)

# label shifts of the three E_1 terms, the three E_2 terms, and the two
# extra F shifts; everything else is a negation or reuse of these
_E1_SHIFTS = ((1, 0, 0, 0), (1, 0, -1, 1), (0, -1, 0, 1))
_E2_SHIFTS = ((0, 1, 0, 0), (0, 1, 1, -1), (-1, 0, 1, 0))
_F1_EXTRA = (-1, 0, 0, 1)
_F2_EXTRA = (0, -1, 1, 0)


def _pos(x: int) -> int:
    return x if x > 0 else 0


def _check_dominant(lam) -> tuple:
    lam = tuple(int(x) for x in lam)
    if len(lam) != 3 or not (lam[0] >= lam[1] >= lam[2]):
        raise ValueError(f"{lam} is not a dominant gl_3 weight")
    return lam


def _valid(label, l1: int, l2: int) -> bool:
    m1, m2, m12, m21 = label
    return (
        m1 >= 0
        and m2 >= 0
        and m12 >= 0
        and m21 >= 0
        and m1 * m2 == 0
        and m1 + m12 <= l1
        and m2 + m21 <= l2
    )


def label_weight(lam, label) -> tuple:
    m1, m2, m12, m21 = label
    a = m1 + m12 + m21
    b = m2 + m12 + m21
    return (lam[0] - a, lam[1] + a - b, lam[2] + b)


def ell_minus(lam, label, i: int) -> int:
    """Remaining F_i depth of a basis label (1-based generator)."""
    m1, m2, m12, m21 = label
    if i == 1:
        return m2 + (lam[0] - lam[1]) - m1 - m12
    if i == 2:
        return m1 + (lam[1] - lam[2]) - m2 - m21
    raise ValueError("generator index must be 1 or 2")


def ell_plus(lam, label, i: int) -> int:
    """Remaining E_i height of a basis label (1-based generator)."""
    m1, m2, m12, m21 = label
    if i == 1:
        return m1 + m21
    if i == 2:
        return m2 + m12
    raise ValueError("generator index must be 1 or 2")


def dcb_labels(lam) -> tuple:
    """All labels, sorted by weight (descending) and then by ell_1^-.
    Within one weight space ell_1^- takes each value once, so the order
    is total and the weight-space position reads off directly."""
    lam = _check_dominant(lam)
    l1, l2 = lam[0] - lam[1], lam[1] - lam[2]
    out = []
    for m1 in range(l1 + 1):
        for m2 in range(l2 + 1):
            if m1 and m2:
                continue
            for m12 in range(l1 - m1 + 1):
                for m21 in range(l2 - m2 + 1):
                    out.append((m1, m2, m12, m21))
    out.sort(
        key=lambda lab: (
            tuple(-w for w in label_weight(lam, lab)),
            ell_minus(lam, lab, 1),
        )
    )
    return tuple(out)


def _action_terms(label, gen: int, lower: bool, l1: int, l2: int):
    """(target, qint arg) pairs of E_gen or F_gen on one label; the
    caller drops terms whose target leaves the label set."""
    m1, m2, m12, m21 = label
    if gen == 1:
        s0, s1, s2 = _E1_SHIFTS
        extra = _F2_EXTRA
        if lower:
            mp = l1 - m1 - m12
            top, side = m2 + mp, mp
        else:
            top, side = m1 + m21, m21
    else:
        s0, s1, s2 = _E2_SHIFTS
        extra = _F1_EXTRA
        if lower:
            mp = l2 - m2 - m21
            top, side = m1 + mp, mp
        else:
            top, side = m2 + m12, m12
    if lower:
        moves = [(s2, top), (extra, side), (s0, side)]
        return [(tuple(x + s for x, s in zip(label, sh)), k) for sh, k in moves]
    moves = [(s0, top), (s1, side), (s2, side)]
    return [(tuple(x - s for x, s in zip(label, sh)), k) for sh, k in moves]


def dcb_module(lam) -> WeightModule:
    """The simple gl_3 module with highest weight lam on its dual
    canonical basis, in dcb_labels order."""
    lam = _check_dominant(lam)
    l1, l2 = lam[0] - lam[1], lam[1] - lam[2]
    labels = dcb_labels(lam)
    index = {lab: i for i, lab in enumerate(labels)}
    weights = [label_weight(lam, lab) for lab in labels]
    e_ops, f_ops = [], []
    for gen in (1, 2):
        for ops, lower in ((e_ops, False), (f_ops, True)):
            op: dict[int, dict] = {}
            for c, lab in enumerate(labels):
                col: dict[int, dict] = {}
                for tgt, k in _action_terms(lab, gen, lower, l1, l2):
                    if k <= 0 or not _valid(tgt, l1, l2):
                        continue
                    r = index[tgt]
                    if r in col:
                        raise TheoremViolation(
                            f"colliding action targets at {lab}, generator {gen}"
                        )
                    col[r] = lqint(k)
                if col:
                    op[c] = col
            ops.append(op)
    mod = WeightModule(
        ("dcb_gl3",) + lam, (ALPHA1, ALPHA2), (3,), weights, e_ops, f_ops
    )
    return mod


# ---------------------------------------------------------------------------
# weight spaces


def weight_multiplicity(lam, beta) -> int:
    """Dimension of the beta weight space, by counting labels."""
    lam = _check_dominant(lam)
    beta = tuple(int(b) for b in beta)
    l1, l2 = lam[0] - lam[1], lam[1] - lam[2]
    m1, m2 = _pos(beta[1] - lam[1]), _pos(lam[1] - beta[1])
    count = 0
    for m12 in range(l1 - m1 + 1):
        m21 = lam[0] - beta[0] - m1 - m12
        if 0 <= m21 <= l2 - m2:
            lab = (m1, m2, m12, m21)
            if label_weight(lam, lab) == beta:
                count += 1
    return count


def multiplicity_closed_form(lam, beta) -> int:
    """1 + lam1 - (b1-lam2)+ - (b3-lam2)+ - max(lam2, b2), clipped at 0.
    Stated for lam3 = 0; shifting lam and beta together changes lam1 and
    the max term by the same amount, so centering is free."""
    lam = _check_dominant(lam)
    beta = tuple(int(b) for b in beta)
    if sum(beta) != sum(lam):
        return 0
    val = (
        1
        + lam[0]
        - _pos(beta[0] - lam[1])
        - _pos(beta[2] - lam[1])
        - max(lam[1], beta[1])
    )
    return _pos(val)


def d_minus(lam, beta, i: int) -> int:
    """Smallest ell_i^- on the beta weight space."""
    lam, beta = _check_dominant(lam), tuple(beta)
    if i == 1:
        return _pos(beta[0] - lam[1]) + _pos(lam[1] - beta[1])
    if i == 2:
        return _pos(lam[1] - beta[2]) + _pos(beta[1] - lam[1])
    raise ValueError("generator index must be 1 or 2")


def d_plus(lam, beta, i: int) -> int:
    """Smallest ell_i^+ on the beta weight space."""
    if i == 1:
        return d_minus(lam, beta, 1) + beta[1] - beta[0]
    if i == 2:
        return d_minus(lam, beta, 2) + beta[2] - beta[1]
    raise ValueError("generator index must be 1 or 2")


def relabel(lam, beta, k: int) -> tuple:
    """Label of the k-th basis vector of the beta weight space, k = 1..m.
    Only weight differences enter, so the lam3 = 0 normalization costs
    nothing."""
    lam = _check_dominant(lam)
    beta = tuple(int(b) for b in beta)
    m1 = _pos(beta[1] - lam[1])
    m2 = _pos(lam[1] - beta[1])
    m12 = lam[0] - beta[1] - k - d_minus(lam, beta, 1) + 1
    m21 = lam[0] - beta[0] - m1 - m12
    return (m1, m2, m12, m21)


def block_positions(module: WeightModule, beta) -> list[int]:
    return module.weight_blocks().get(tuple(beta), [])


def gt_pair_bases(module: WeightModule, lam, beta) -> tuple[list, list]:
    """The two embedded-gl_2 bases of the beta weight space, each as
    sparse rows over the weight-space positions 1..m (0-based keys).
    Copy 1 walks F_1 strings, copy 2 walks F_2 strings; both are ordered
    by increasing string depth and content-normalized.  Built once per
    (module, lam, beta) and stored on module; the rows are read-only."""
    lam = _check_dominant(lam)
    beta = tuple(int(b) for b in beta)
    return module._stored(
        ("gt pair bases", lam, beta), lambda: _gt_pair_bases(module, lam, beta)
    )


def _gt_pair_bases(module: WeightModule, lam: tuple, beta: tuple) -> tuple[list, list]:
    idxs = block_positions(module, beta)
    m = len(idxs)
    pos = {c: p for p, c in enumerate(idxs)}
    out: list[list] = []
    for gen0, alpha in ((0, ALPHA1), (1, ALPHA2)):
        vecs = []
        # a seed at level t reaches beta only if its string is at least
        # t long, i.e. the landing depth beta_i - beta_{i+1} + t is >= 0
        t = _pos(beta[gen0 + 1] - beta[gen0])
        while len(vecs) < m:
            if t > lam[0] - lam[2] + 1:
                raise TheoremViolation(
                    f"ran out of seed candidates for weight {beta} of {lam}"
                )
            mu = tuple(b + t * a for b, a in zip(beta, alpha))
            seeds = weight_space_kernel(module, mu, [gen0])
            if len(seeds) > 1:
                raise TheoremViolation(
                    f"E_{gen0 + 1} kernel at {mu} in {lam} has dimension "
                    f"{len(seeds)}, expected at most 1"
                )
            if seeds:
                row = seeds[0]
                for _ in range(t):
                    row = sp_apply(module.f_ops[gen0], row)
                row = srow_strip(row)
                if not row:
                    raise TheoremViolation(
                        f"F_{gen0 + 1} string from {mu} dies before {beta}"
                    )
                depth = d_minus(lam, beta, gen0 + 1) + len(vecs)
                got = beta[gen0] - beta[gen0 + 1] + t
                if got != depth:
                    raise TheoremViolation(
                        f"string depth {got} at {beta} of {lam} is not "
                        f"d- + k - 1 = {depth}"
                    )
                vecs.append({pos[c]: p for c, p in row.items()})
            t += 1
        out.append(vecs)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# theorem checks


def _expected_labels(lam, beta, idxs, labels) -> bool:
    for k, c in enumerate(idxs, start=1):
        if labels[c] != relabel(lam, beta, k):
            return False
    return True


def degree_recursion_check(lam, module: WeightModule | None = None) -> dict:
    """Verify on every weight space: triangularity of both embedded
    bases against the label basis, nonzeroness of every allowed
    coefficient, and the degree climb
    deg c_k - deg c_(k-1) = |b2 - lam2| + 2(l - k) + 1."""
    lam = _check_dominant(lam)
    if module is None:
        module = dcb_module(lam)
    labels = dcb_labels(lam)
    failures: list[dict] = []
    blocks = comparisons = 0
    for beta, idxs in sorted(module.weight_blocks().items()):
        m = len(idxs)
        blocks += 1
        if weight_multiplicity(lam, beta) != m or multiplicity_closed_form(
            lam, beta
        ) != m:
            failures.append({"kind": "multiplicity", "beta": beta, "m": m})
            continue
        if not _expected_labels(lam, beta, idxs, labels):
            failures.append({"kind": "relabeling", "beta": beta})
            continue
        b1, b2 = gt_pair_bases(module, lam, beta)
        step0 = abs(beta[1] - lam[1])
        for name, vecs, posof in (
            ("copy1", b1, lambda k: k - 1),
            ("copy2", b2, lambda k: m - k),
        ):
            for l in range(1, m + 1):
                row = vecs[l - 1]
                want = {posof(k) for k in range(1, l + 1)}
                if set(row) != want:
                    failures.append(
                        {
                            "kind": "triangularity",
                            "basis": name,
                            "beta": beta,
                            "l": l,
                            "support": sorted(row),
                        }
                    )
                    continue
                for k in range(2, l + 1):
                    comparisons += 1
                    diff = ldeg(row[posof(k)]) - ldeg(row[posof(k - 1)])
                    want_diff = step0 + 2 * (l - k) + 1
                    if diff != want_diff:
                        failures.append(
                            {
                                "kind": "degree",
                                "basis": name,
                                "beta": beta,
                                "l": l,
                                "k": k,
                                "diff": diff,
                                "expected": want_diff,
                            }
                        )
    return {
        "lam": lam,
        "blocks": blocks,
        "comparisons": comparisons,
        "failures": failures,
        "ok": not failures,
    }


def genericity_check(lam, module: WeightModule | None = None) -> dict:
    """Every maximal minor of the m x 2m matrix whose columns are
    b2_m .. b2_1, b1_1 .. b1_m over the label basis is nonzero."""
    lam = _check_dominant(lam)
    if module is None:
        module = dcb_module(lam)
    failures: list[dict] = []
    blocks = minors = 0
    max_mult = 0
    for beta, idxs in sorted(module.weight_blocks().items()):
        m = len(idxs)
        max_mult = max(max_mult, m)
        blocks += 1
        b1, b2 = gt_pair_bases(module, lam, beta)
        cols = list(reversed(b2)) + b1
        for pick in combinations(range(2 * m), m):
            minors += 1
            if sp_rank([cols[j] for j in pick]) != m:
                failures.append({"beta": beta, "columns": pick})
    return {
        "lam": lam,
        "blocks": blocks,
        "max_mult": max_mult,
        "minors": minors,
        "failures": failures,
        "ok": not failures,
    }
