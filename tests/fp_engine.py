"""The F_p elimination as it ran before fp_rref sorted its rows, kept as
the reference that qarith's int kernel and its rank screen are tested
against.

Rows are inserted in the order given, and every update of an entry is
reduced mod p at once.  The reduced echelon basis of a row space is
unique, so qarith.fp_rref and fp_kernel must return the same rows, dict
for dict, on any order of the same rows, and qarith._screen, which keeps
its given order, must raise the same rows as screen.

Each function takes an optional Counter, which collects the work:
"updates", the entry updates of incoming and stored rows, and
"rewrites", the stored pivot rows rewritten to clear a new pivot's
column."""

from collections import Counter

from braidpow.laurent import P, leval_fp


def insert(piv: dict, row: dict, p: int, work: Counter | None = None) -> bool:
    work = Counter() if work is None else work
    row = {c: v % p for c, v in row.items() if v % p}
    for c in [c for c in row if c in piv]:
        f = row.pop(c)
        for k, v in piv[c].items():
            if k != c:
                work["updates"] += 1
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
            work["rewrites"] += 1
            for k, v in row.items():
                if k != j:
                    work["updates"] += 1
                    s = (prow.get(k, 0) - f * v) % p
                    if s:
                        prow[k] = s
                    else:
                        del prow[k]
    piv[j] = row
    return True


def rref(rows, p: int, ncols: int | None = None, work: Counter | None = None) -> dict:
    piv: dict[int, dict] = {}
    for row in rows:
        if insert(piv, row, p, work) and len(piv) == ncols:
            break
    return piv


def kernel(rows, ncols: int, p: int) -> list[dict]:
    piv = rref(rows, p, ncols)
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


def screen(rows, ncols: int, x: int) -> list[int]:
    """The indices of the Laurent rows that raise the rank over F_P at
    q = x, in the order given, up to ncols of them."""
    piv: dict[int, dict] = {}
    raised = []
    for i, row in enumerate(rows):
        if insert(piv, {c: leval_fp(poly, x) for c, poly in row.items()}, P):
            raised.append(i)
            if len(raised) == ncols:
                break
    return raised
