"""The packed Q(q) elimination against the dict engine it replaced.

qarith eliminates on Kronecker-packed entries (lo, f(2**K), n1); the
dict bodies of the strip, the cross step, the pivot insertion, the back
reduction and the kernel read-off live on in dict_engine as the
reference.  Every row either returns is the canonical stripped
representative of its line, so the two must agree dict for dict."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_engine as D
from braidpow import laurent as L
from braidpow import qarith
from braidpow.errors import ModuleAuditError
from braidpow.qarith import sp_kernel, sp_rank, sp_span_echelon, srow_strip

FIXED = settings(derandomize=True, database=None, max_examples=60, deadline=None)

# small coefficients, and coefficients far past a machine word
coeffs = st.one_of(
    st.integers(-9, 9),
    st.integers(2**60, 2**80).flatmap(lambda c: st.sampled_from([c, -c])),
).filter(bool)


def laurents(max_terms=3, span=3):
    return st.dictionaries(st.integers(-span, span), coeffs, min_size=1, max_size=max_terms)


@st.composite
def systems(draw):
    """(ncols, rows): up to 5 rows over up to 4 columns, with negative
    exponents, and each row times a planted factor shared by its
    entries (a constant, a power of q or a polynomial)."""
    n = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        row = draw(st.dictionaries(st.integers(0, n - 1), laurents(), max_size=n))
        g = draw(laurents(max_terms=3, span=2))
        rows.append({c: L.lmul(p, g) for c, p in row.items()})
    return n, rows


def slot_widths(monkeypatch):
    """The slot widths K of every packed elimination, in order."""
    widths = []
    slot = qarith._Slot
    monkeypatch.setattr(qarith, "_Slot", lambda k: widths.append(k) or slot(k))
    return widths


@FIXED
@given(systems())
def test_packed_elimination_equals_the_dict_engine(case):
    n, rows = case
    assert sp_kernel(rows, n) == D.kernel_rows(rows, n)
    assert sp_span_echelon(rows) == D.span_echelon(rows)
    assert sp_rank(rows) == len(D.echelon(rows, reduced=False))
    for row in rows:
        row = {c: p for c, p in row.items() if p}
        assert srow_strip(row) == D.strip(row)


def _wide_system():
    # three equations in five unknowns, every coefficient of 71 or 72 bits
    rng = random.Random(5)

    def entry():
        return {
            e: rng.choice([-1, 1]) * rng.randrange(2**70, 2**72)
            for e in rng.sample(range(-2, 3), 2)
        }

    return [{c: entry() for c in range(5)} for _ in range(3)]


def test_a_kernel_past_its_starting_slot_restarts_at_twice_the_width(monkeypatch):
    # the start width, 160 bits, holds one cross step of two input
    # entries of norm below 2**74; the later steps need more, so the
    # elimination restarts at twice the width, twice, and still returns
    # the dict engine's kernel
    rows = _wide_system()
    widths = slot_widths(monkeypatch)
    got = sp_kernel(rows, 5)
    assert widths == [160, 320, 640]
    assert got == D.kernel_rows(rows, 5)
    assert max(abs(c) for z in got for p in z.values() for c in p.values()) > 2**200


def test_a_refused_packed_cofactor_falls_back_to_lcofactors(monkeypatch):
    # the packed counterpart of test_laurent's fold fallback: when the
    # packed proof refuses every cofactor, each strip that meets a common
    # factor goes through laurent.lcofactors, with the same rows
    g = {-1: 2, 1: 1, 2: 3}
    rows = [
        {0: L.lmul(u, g), 1: L.lmul(v, g), 2: L.lmul(w, g)}
        for u, v, w in (
            ({0: 3, 2: -5, 3: 7}, {0: -4, 1: 1}, {2: 2}),
            ({1: 1}, {0: 2, 1: 1}, {0: -1, 3: 4}),
        )
    ]
    want = (
        [srow_strip(r) for r in rows],
        sp_span_echelon(rows),
        sp_kernel(rows, 3),
    )
    folded = []
    lcofactors = qarith.lcofactors
    monkeypatch.setattr(qarith, "_cofactors", lambda *args: None)
    monkeypatch.setattr(qarith, "lcofactors", lambda polys: folded.append(1) or lcofactors(polys))
    got = (
        [srow_strip(r) for r in rows],
        sp_span_echelon(rows),
        sp_kernel(rows, 3),
    )
    assert got == want
    assert want[0] == [D.strip(r) for r in rows]
    assert folded


def test_the_kernel_certificate_does_not_share_the_packing(monkeypatch):
    # an unpacking fault that drops the top digit of every entry makes
    # wrong kernel rows; the certificate reads the dict rows with its own
    # evaluation at 2**s, so it rejects them instead of agreeing with them
    rng = random.Random(11)
    rows = [
        {c: {e: rng.randrange(1, 9) for e in range(3)} for c in range(4)}
        for _ in range(2)
    ]
    assert len(sp_kernel(rows, 4)) == 2
    unpack = qarith._unpack

    def drop_top(entry, s):
        p = unpack(entry, s)
        if len(p) > 1:
            del p[max(p)]
        return p

    monkeypatch.setattr(qarith, "_unpack", drop_top)
    with pytest.raises(ModuleAuditError):
        sp_kernel(rows, 4)
