"""Every test starts without shared modules.

simple_gl2 and standard_gld hand out one instance per argument, and every
result memoized on an instance (tensor products, braided squares, power
levels) lives on it.  Clearing the two caches drops all of it, so a test
that patches a builder sees it called, whatever ran before.

The tests share two helpers: evaluated_at, an exact subspace read at a
sample point, to compare with the subspace computed there, and
slot_widths, the slots of the packed eliminations a test starts."""

import pytest

from braidpow import qarith
from braidpow.laurent import P, fp, leval_fp
from braidpow.qarith import Subspace
from braidpow.uqmod import simple_gl2, standard_gld


@pytest.fixture(autouse=True)
def fresh_shared_modules():
    simple_gl2.cache_clear()
    standard_gld.cache_clear()


def evaluated_at(sub: Subspace, q0) -> Subspace:
    """An exact subspace evaluated at the image x of q0 in F_P and
    re-canonicalized there."""
    x = fp(q0)
    rows = [{c: leval_fp(p, x) for c, p in row.items()} for row in sub.rows]
    return Subspace.from_sparse(sub.ambient, rows, P)


def slot_widths(monkeypatch) -> list:
    """The slot (K, g) of every packed elimination started from now on,
    in order: one per start, so a restart adds one."""
    widths = []
    slot = qarith._Slot
    monkeypatch.setattr(qarith, "_Slot", lambda k, g: widths.append((k, g)) or slot(k, g))
    return widths
