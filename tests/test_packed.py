"""The packed Q(q) elimination against the dict engine it replaced.

qarith eliminates on Kronecker-packed entries (lo, f(2**K), n1), each
entry q**lo * f(q**g) for g the step of its system; the dict bodies of
the strip, the cross step, the pivot insertion, the back reduction and
the kernel read-off live on in dict_engine as the reference.  Every row
either returns is the canonical stripped representative of its line, so
the two must agree dict for dict."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

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


def in_steps(p, step):
    # p(q**step)
    return {step * e: c for e, c in p.items()}


@st.composite
def graded_systems(draw):
    """(ncols, rows) in q**2 or q**3: the entry at row i, column j is
    q**(r_i + c_j) U(q**g), with negative exponents, and each row times a
    planted factor q**s G(q**g).  So every entry is q**lo times a
    polynomial in q**g, and every cross shift is a multiple of g."""
    g = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4))
    cols = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        r = draw(st.integers(-3, 3))
        row = draw(st.dictionaries(st.integers(0, n - 1), laurents(), max_size=n))
        factor = L.lshift(in_steps(draw(laurents(max_terms=3, span=2)), g), draw(st.integers(-2, 2)))
        rows.append(
            {j: L.lmul(L.lshift(in_steps(p, g), r + cols[j]), factor) for j, p in row.items()}
        )
    return n, rows


def slot_widths(monkeypatch):
    """The slot (K, g) of every packed elimination, in order."""
    widths = []
    slot = qarith._Slot
    monkeypatch.setattr(qarith, "_Slot", lambda k, g: widths.append((k, g)) or slot(k, g))
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


@FIXED
@given(graded_systems())
def test_packed_elimination_in_steps_of_q_equals_the_dict_engine(case):
    n, rows = case
    assert sp_kernel(rows, n) == D.kernel_rows(rows, n)
    assert sp_span_echelon(rows) == D.span_echelon(rows)
    assert sp_rank(rows) == len(D.echelon(rows, reduced=False))
    for row in rows:
        row = {c: p for c, p in row.items() if p}
        assert srow_strip(row) == D.strip(row)


def test_an_ungraded_system_falls_back_to_steps_of_one(monkeypatch):
    # every entry is a polynomial in q**2 times a power of q, so the rows
    # pack in steps of 2; but clearing column 0 subtracts q * 1 from
    # (1 + q^2)(1 + 3q^2), entries whose q powers differ by one, which no
    # slot in q**2 holds.  The elimination starts again in steps of 1 and
    # still returns the dict engine's rows
    rows = [
        {0: {0: 1, 2: 1}, 1: {0: 1}, 2: {0: 2}},
        {0: {1: 1}, 1: {0: 1, 2: 3}, 2: {1: -1}},
    ]
    assert qarith._measure(rows)[1] == 2
    widths = slot_widths(monkeypatch)
    assert sp_span_echelon(rows) == D.span_echelon(rows)
    assert widths == [(32, 2), (32, 1)]
    assert sp_kernel(rows, 3) == D.kernel_rows(rows, 3)
    assert sp_rank(rows) == 2


def test_llcm_includes_content():
    assert D.llcm({0: 4}, {0: 6}) == {0: 12}
    # 2(q - 1) and 3(q^2 - 1): lcm 6(q^2 - 1), up to units
    a = {1: 2, 0: -2}
    b = {2: 3, 0: -3}
    assert D.llcm(a, b) == {2: 6, 0: -6}
    assert D.llcm(L.lshift(a, 3), b) == {2: 6, 0: -6}
    assert D.llcm(a, {}) == {}


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
    # elimination restarts at twice the width, twice, in the same steps
    # of q, and still returns the dict engine's kernel
    rows = _wide_system()
    widths = slot_widths(monkeypatch)
    got = sp_kernel(rows, 5)
    assert widths == [(160, 1), (320, 1), (640, 1)]
    assert got == D.kernel_rows(rows, 5)
    assert max(abs(c) for z in got for p in z.values() for c in p.values()) > 2**200


def test_a_refused_packed_cofactor_falls_back_to_lcofactors(monkeypatch):
    # when the packed proof refuses every cofactor, each strip that meets
    # a common factor goes through laurent.lcofactors, the exact
    # Euclidean gcd, with the same rows
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


# one exact power with a probe on the packed engine: the slot (K, g) of
# every elimination, in order, and the number of packed gcds
_WORK_PROBE = """
import json
from braidpow import qarith
from braidpow.braided import power_dims
from braidpow.uqmod import simple_gl2

widths, calls = [], []
slot, cofactors = qarith._Slot, qarith._cofactors
qarith._Slot = lambda k, g: widths.append((k, g)) or slot(k, g)
qarith._cofactors = lambda *args: calls.append(1) or cofactors(*args)
dims = power_dims(simple_gl2(4, 0), "sym", 4)
print(json.dumps([dims, widths, len(calls)]))
"""


def test_the_exact_work_does_not_depend_on_the_hash_seed():
    # str and bytes hashes change with PYTHONHASHSEED, and with them the
    # order of any set of them; no such order may reach the elimination
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", _WORK_PROBE],
            env=env, capture_output=True, text=True, check=True,
        )
        runs.append(json.loads(out.stdout))
    dims, widths, calls = runs[0]
    assert dims == [1, 5, 15, 28, 45] and widths and calls
    assert runs[1] == runs[0]


# the six exact_cubes requests of the benchmark with a probe on the packed
# engine: per elimination, whether an entry of its rows has two or more
# terms, and the slot (K, g) of each start
_CUBES_PROBE = """
import io, json
from contextlib import redirect_stdout
from braidpow import cli, qarith

runs = []
slot, packed = qarith._Slot, qarith._packed

def probe_slot(k, g):
    runs[-1][1].append((k, g))
    return slot(k, g)

def probe_packed(rows, *args, **kwargs):
    rows = list(rows)
    runs.append([any(len(p) > 1 for row in rows for p in row.values()), []])
    return packed(rows, *args, **kwargs)

qarith._Slot, qarith._packed = probe_slot, probe_packed
for l in (3, 4, 5):
    for side in ("sym", "ext"):
        with redirect_stdout(io.StringIO()):
            assert cli.run([side + "-power", "--l", str(l), "--n", "3"]) == 0
print(json.dumps(runs))
"""


def test_the_exact_cubes_pack_at_one_word_in_steps_of_q_squared():
    # every packed elimination of the exact sym and ext cubes of V_(l,0),
    # l = 3..5, starts and ends at K = 32; one with an entry of two or
    # more terms runs in steps g >= 2 (its entries are q-integers and
    # K-twists, polynomials in q**2 times a power of q), one of monomials
    # in steps of 1
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", _CUBES_PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    runs = json.loads(out.stdout)
    assert len(runs) == 160
    assert all(len(slots) == 1 and slots[0][0] == 32 for _, slots in runs)
    assert all((slots[0][1] >= 2) == wide for wide, slots in runs)
