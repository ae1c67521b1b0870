"""The F_p elimination's row order changes its work, never its result:
fp_rref, fp_kernel and span_basis over F_P on any order of a system
equal the in-order reference (fp_engine), the rank screen keeps its
given order, and sorting the rows spares the stored pivot rows most
rewrites on a specialized tower."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import fp_engine

from braidpow import braided, qarith
from braidpow.braided import power_dims, sample_points
from braidpow.laurent import P
from braidpow.qarith import fp_kernel, fp_rref, span_basis
from braidpow.uqmod import simple_gl2, specialize_module

FIXED = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def int_systems(draw):
    """A system over n columns with its rows in a drawn order.  Entries
    are small ints, negative ones included, some lifted by multiples of
    P (so P divides some nonzero ints); some rows are combinations of
    earlier ones; and some systems hold n unit rows among the first, so
    an elimination that stops at n pivots stops early."""
    n = draw(st.integers(1, 7))
    entry = st.tuples(st.integers(-4, 4), st.integers(-2, 2)).map(lambda t: t[0] + t[1] * P)
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        if rows and draw(st.booleans()):
            # a combination of two earlier rows, entries left unreduced
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            row = {c: x * a.get(c, 0) + y * b.get(c, 0) for c in a.keys() | b.keys()}
            rows.append({c: v for c, v in row.items() if v})
        else:
            cols = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
            rows.append({c: v for c in cols if (v := draw(entry))})
    if draw(st.booleans()):
        at = draw(st.integers(0, min(2, len(rows))))
        units = [{c: 1 + draw(st.integers(-1, 1)) * P} for c in range(n)]
        rows[at:at] = draw(st.permutations(units))
    order = draw(st.permutations(range(len(rows))))
    return n, rows, [rows[i] for i in order]


@FIXED
@given(int_systems())
def test_any_order_gives_the_in_order_reference(case):
    n, rows, shuffled = case
    before = [dict(r) for r in shuffled]
    for ncols in (None, n):
        assert fp_rref(shuffled, P, ncols) == fp_engine.rref(rows, P, ncols)
    assert fp_kernel(shuffled, n, P) == fp_engine.kernel(rows, n, P)
    piv = fp_engine.rref(rows, P)
    assert span_basis(shuffled, P) == [piv[c] for c in sorted(piv)]
    # the rows a caller passes are never rewritten
    assert shuffled == before


@st.composite
def laurent_systems(draw):
    """Laurent rows over n columns, some entries vanishing at the screen
    point, and a point and a row bound."""
    x = draw(st.sampled_from((qarith._SCREEN_X, *qarith._CERTIFY_X)))
    n = draw(st.integers(1, 5))
    poly = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3).filter(bool), min_size=1, max_size=3)
    entry = st.one_of(poly, st.just({1: 1, 0: -x}))
    rows = draw(
        st.lists(
            st.dictionaries(st.integers(0, n - 1), entry, max_size=n),
            max_size=8,
        )
    )
    return rows, draw(st.integers(1, n)), x


@FIXED
@given(laurent_systems())
def test_the_screen_raises_the_in_order_reference_rows(case):
    rows, ncols, x = case
    assert qarith._screen(rows, ncols, x) == fp_engine.screen(rows, ncols, x)


def test_the_screen_keeps_its_given_order():
    # sorted by leading column the last row would come first and be raised
    one = {0: 1}
    rows = [{0: one}, {0: one, 1: one}, {1: one}]
    assert qarith._screen(rows, 2) == fp_engine.screen(rows, 2, qarith._SCREEN_X) == [0, 1]


def _rewrites(monkeypatch) -> Counter:
    """Counts the stored pivot rows that fp_rref's insertions rewrite from
    now on: the rows that held an entry in a new pivot's column."""
    work = Counter()
    insert = qarith._fp_insert

    def counted(piv, row, p):
        before = {c: set(prow) for c, prow in piv.items()}
        if not insert(piv, row, p):
            return False
        (j,) = piv.keys() - before.keys()
        work["rewrites"] += sum(j in cols for cols in before.values())
        return True

    monkeypatch.setattr(qarith, "_fp_insert", counted)
    return work


def test_sorted_rows_spare_the_stored_pivot_rows(monkeypatch):
    # the meet systems of one specialized tower, solved in the built order
    systems, inside = [], []
    meet, kernel_basis = braided._meet_step, braided.kernel_basis

    def meet_step(*args):
        inside.append(True)
        try:
            return meet(*args)
        finally:
            inside.pop()

    def recorded(rows, ncols, p=None):
        if inside:
            systems.append(([dict(r) for r in rows], ncols))
        return kernel_basis(rows, ncols, p)

    monkeypatch.setattr(braided, "_meet_step", meet_step)
    monkeypatch.setattr(braided, "kernel_basis", recorded)
    W = specialize_module(simple_gl2(5, 0), sample_points(3)[0])
    assert power_dims(W, "sym", 4) == [1, 6, 21, 36, 51]
    assert len(systems) > 20

    reference = Counter()
    for rows, ncols in systems:
        fp_engine.rref(rows, P, ncols, reference)
    work = _rewrites(monkeypatch)
    for rows, ncols in systems:
        assert fp_rref(rows, P, ncols) == fp_engine.rref(rows, P, ncols)
    # 165 against 958 when this was written
    assert 0 < 4 * work["rewrites"] < reference["rewrites"]
