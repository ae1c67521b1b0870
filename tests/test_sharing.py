"""Each exact construction happens once per process: shared modules,
stored tensor products, squares and power levels, down to each weight
block of a level.  Sharing must change no result, no caller may mutate a
shared result, and a failed construction is not stored."""

import hashlib
import json
from dataclasses import fields, is_dataclass
from fractions import Fraction

import pytest

import oracles
from oracles import braided_power, sp_annihilator

from braidpow import acceptance, braided, qarith, uqmod
from braidpow.braided import (
    admissible_triples,
    decompose_power,
    ext_cube_closed,
    module_square,
    power_dims,
    sym_cube_closed,
)
from braidpow.qarith import span_basis, sp_intersect
from braidpow.uqmod import (
    ModuleAuditError,
    WeightModule,
    dominant,
    simple_gl2,
    specialize_module,
    standard_gld,
    tensor,
)


def test_constructors_share_one_audited_instance(monkeypatch):
    audits = []
    audit = uqmod.audit_module
    monkeypatch.setattr(uqmod, "audit_module", lambda m: audits.append(m.kind) or audit(m))
    V = simple_gl2(3, 0)
    assert simple_gl2(3, 0) is V and standard_gld(2) is standard_gld(2)
    assert tensor(V, V) is tensor(V, V)
    assert module_square(V) is module_square(simple_gl2(3, 0))
    assert module_square(standard_gld(2)) is module_square(standard_gld(2))
    s3, d2 = ("simple_gl2", 3, 0), ("standard_gld", 2)
    assert audits == [s3, d2, ("tensor", s3, s3), ("tensor", d2, d2)]


def test_specialized_modules_are_not_shared():
    V = simple_gl2(2, 0)
    W1, W2 = (specialize_module(V, Fraction(97, 101)) for _ in range(2))
    assert W1 is not W2
    assert module_square(W1) is not module_square(W2)
    assert module_square(W1) is module_square(W1)


def test_power_levels_are_extended_only_as_far_as_asked(monkeypatch):
    # each step records the dim of the level it starts from
    steps = []
    step = braided._power_step
    monkeypatch.setattr(
        braided,
        "_power_step",
        lambda prev, ann, V, weights: steps.append(braided.weight_rows_dim(prev))
        or step(prev, ann, V, weights),
    )
    V = simple_gl2(3, 0)
    assert power_dims(V, "sym", 3) == [1, 4, 10, 16]
    assert power_dims(V, "sym", 2) == [1, 4, 10]
    assert power_dims(V, "sym", 4) == [1, 4, 10, 16, 22]
    assert steps == [10, 16]
    assert braided._level(V, "sym", 4) is braided._level(V, "sym", 4)


def test_a_failed_power_is_not_stored(monkeypatch):
    # the first step fails: level 3 fails, and the next call builds it
    # again rather than ending the list.  The module is a fresh,
    # unshared instance, so no level of it is stored yet.
    fails = [RuntimeError("step failed")]
    step = braided._power_step

    def flaky(*args):
        if fails:
            raise fails.pop()
        return step(*args)

    monkeypatch.setattr(braided, "_power_step", flaky)
    V = simple_gl2.__wrapped__(2, 0)
    with pytest.raises(RuntimeError, match="step failed"):
        power_dims(V, "sym", 3)
    assert power_dims(V, "sym", 3) == [1, 3, 6, 10]


# ---------------------------------------------------------------------------
# the audit stages against the shared results


def _snapshot(roots, degree: int) -> str:
    """Digest of the JSON of the shared modules roots, their tensor
    squares, braided squares and power levels through degree.  Builds
    what is not stored yet; once everything is stored it only reads."""
    shared = []
    for V in roots:
        pair = module_square(V)
        shared.append(pair)
        shared.extend(braided._levels(V, kind, degree) for kind in ("sym", "ext"))

    def canon(x):
        if isinstance(x, WeightModule):
            return [x.kind, canon(x.weights), canon(x.e_ops), canon(x.f_ops)]
        if is_dataclass(x):
            return [type(x).__name__, [canon(getattr(x, f.name)) for f in fields(x)]]
        if isinstance(x, dict):
            return [[canon(k), canon(v)] for k, v in x.items()]
        if isinstance(x, (list, tuple)):
            return [canon(v) for v in x]
        return x

    return hashlib.sha256(json.dumps(canon(shared)).encode()).hexdigest()


@pytest.fixture(scope="module")
def audit_twice():
    """run_all twice in one process on shared modules whose squares and
    cubes were built beforehand, with a snapshot of those results before
    and after each run."""
    simple_gl2.cache_clear()
    standard_gld.cache_clear()
    roots = [simple_gl2(l, 0) for l in range(7)] + [standard_gld(d) for d in range(1, 5)]
    snapshots = [_snapshot(roots, 3)]
    first = acceptance.run_all()
    snapshots.append(_snapshot(roots, 3))
    second = acceptance.run_all()
    snapshots.append(_snapshot(roots, 3))
    return first, second, snapshots


@pytest.mark.parametrize("index", range(len(acceptance.AUDIT_STAGES)))
def test_every_stage_reports_the_same_on_its_second_run(audit_twice, index):
    first, second, _ = audit_twice
    assert first["stages"][index]["ok"]
    assert second["stages"][index] == first["stages"][index]


def test_no_stage_mutates_a_shared_result(audit_twice):
    _, _, (built, after_first, after_second) = audit_twice
    assert after_first == built
    assert after_second == built


# ---------------------------------------------------------------------------
# dominant blocks first: a decomposition over Q(q) builds the dominant
# blocks of its top level, a later full request only the rest


def _spy_meet(monkeypatch) -> list:
    """Record (prev, weights built) of every _meet_step call."""
    calls = []
    meet = braided._meet_step

    def spy(prev, ann_at, mid, back, weights):
        calls.append((prev, set(weights)))
        return meet(prev, ann_at, mid, back, weights)

    monkeypatch.setattr(braided, "_meet_step", spy)
    return calls


@pytest.mark.parametrize("kind", ["sym", "ext"])
def test_a_decomposition_builds_the_dominant_blocks_and_a_full_level_the_rest(
    monkeypatch, kind
):
    # the level built in full from the start, on an unshared module
    want = braided._level(simple_gl2.__wrapped__(4, 0), kind, 3)
    calls = _spy_meet(monkeypatch)
    V = simple_gl2(4, 0)
    dec = decompose_power(V, kind, 3)
    [(prev, dom)] = calls
    every = braided._meet_weights(prev, V)
    assert dom == {w for w in every if dominant(w, V.blocks)} != every
    closed = sym_cube_closed(4) if kind == "sym" else ext_cube_closed(4)
    assert dict(dec) == dict(closed)
    calls.clear()
    assert power_dims(V, kind, 3)[3] == braided.weight_rows_dim(want)
    [(again, rest)] = calls
    assert again is prev and rest == every - dom
    level = braided._level(V, kind, 3)
    assert level == want and list(level) == list(want)
    calls.clear()
    assert decompose_power(V, kind, 3) == dec
    assert calls == []


def test_no_block_of_a_power_level_is_built_twice(monkeypatch):
    # every order of requests: each block of each level built exactly once
    calls = _spy_meet(monkeypatch)
    V = simple_gl2(3, 0)
    for kind in ("sym", "ext"):
        decompose_power(V, kind, 3)
        decompose_power(V, kind, 3)
        power_dims(V, kind, 3)
        braided_power(V, kind, 3)
        decompose_power(V, kind, 4)
        decompose_power(V, kind, 3)
        power_dims(V, kind, 4)
        decompose_power(V, kind, 5)
        braided_power(V, kind, 5)
        decompose_power(V, kind, 6)
    built = [(id(prev), w) for prev, weights in calls for w in weights]
    assert len(built) == len(set(built))
    for kind in ("sym", "ext"):
        levels = braided._levels(V, kind, 5)
        for prev in levels[2:5]:
            assert {w for p, ws in calls if p is prev for w in ws} == braided._meet_weights(
                prev, V
            )


def _mutate_kernel(monkeypatch, w, mutate):
    """Pass the kernel rows that the elimination finds for the block at w
    of each _meet_step through mutate, before the kernel's certificate
    (qarith.sp_kernel) reads them.  When the pairing pass rejects them,
    the rows the next screen point raises are eliminated, and mutated,
    again.  mutate itself runs on the unpatched elimination."""
    meet, kernel_basis, eliminate = braided._meet_step, braided.kernel_basis, qarith._kernel_rows

    def mutated(rows, n):
        found = eliminate(rows, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qarith, "_kernel_rows", eliminate)
            return mutate(found)

    def step(prev, ann_at, mid, back, weights):
        # _meet_step solves one kernel per weight, in sorted order
        order = iter(sorted(weights))

        def block_kernel(system, ncols, p):
            if next(order) != w:
                return kernel_basis(system, ncols, p)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(qarith, "_kernel_rows", mutated)
                return kernel_basis(system, ncols, p)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(braided, "kernel_basis", block_kernel)
            out = meet(prev, ann_at, mid, back, weights)
        assert next(order, None) is None
        return out

    monkeypatch.setattr(braided, "_meet_step", step)


def _dominant_cube_weights(l: int, kind: str) -> list:
    # the dominant weights (3l - k, k) of the nonzero blocks of the cube:
    # k from the lowest second entry of a component to the wall
    closed = sym_cube_closed(l) if kind == "sym" else ext_cube_closed(l)
    low = min(lam[1] for lam in closed)
    return [(3 * l - k, k) for k in range(low, 3 * l // 2 + 1)]


# every dominant block of five cubes, 25 in all; the highest-weight count
# missed the drops at (6, 6) of the V_(4,0) sym cube and at (9, 9) of the
# V_(6,0) ext cube, walls whose count drops with the row
_CUBE_BLOCKS = [
    (l, kind, w)
    for l, kind in ((3, "sym"), (4, "sym"), (4, "ext"), (5, "sym"), (6, "ext"))
    for w in _dominant_cube_weights(l, kind)
]


@pytest.mark.parametrize(
    "l, kind, w", _CUBE_BLOCKS, ids=[f"w{i}" for i in range(len(_CUBE_BLOCKS))]
)
def test_a_dominant_block_short_of_a_row_fails_the_decomposition(monkeypatch, l, kind, w):
    # one row dropped from the block at w: the kernel's certificate finds
    # fewer rows than the rank bound leaves room for, and the cube's level
    # is stored nowhere
    assert len(_CUBE_BLOCKS) == 25
    _mutate_kernel(monkeypatch, w, lambda rows: rows[:-1])
    V = simple_gl2(l, 0)
    with pytest.raises(ModuleAuditError, match="kernel rows of a .* leaves room for"):
        decompose_power(V, kind, 3)
    assert ("power", braided._side_index(kind), 3) not in V._memo


def test_a_changed_coefficient_of_a_kernel_row_fails_its_certificate(monkeypatch):
    # one coefficient of the first row of the (6, 6) block of the V_(4,0)
    # sym cube doubled, in the elimination's result at every screen point:
    # the pairing pass rejects it at each
    def double_one(rows):
        first = dict(rows[0])
        c = min(first)
        first[c] = {e: 2 * v if e == min(first[c]) else v for e, v in first[c].items()}
        return [first, *rows[1:]]

    _mutate_kernel(monkeypatch, (6, 6), double_one)
    V = simple_gl2(4, 0)
    with pytest.raises(ModuleAuditError, match="does not pair to 0"):
        decompose_power(V, "sym", 3)
    assert ("power", 0, 3) not in V._memo


def test_a_repeated_kernel_row_fails_its_certificate(monkeypatch):
    # the last row of the (6, 6) block of the V_(4,0) sym cube given twice:
    # both lie in the kernel, but they share a free column
    _mutate_kernel(monkeypatch, (6, 6), lambda rows: rows + rows[-1:])
    V = simple_gl2(4, 0)
    with pytest.raises(ModuleAuditError, match="share a free column"):
        decompose_power(V, "sym", 3)
    assert ("power", 0, 3) not in V._memo


def test_a_block_missing_exactly_its_highest_weight_line_fails_its_certificate(monkeypatch):
    # the (6, 6) block of the V_(4,0) sym cube replaced by its part in the
    # submodule that the block at (7, 5) generates: the F-images, 3 of its
    # 4 dims.  That part is E- and F-stable, so no stability check can see
    # the V_(6,6) line it misses; only the certificate's count does.
    V, d = simple_gl2(4, 0), 5
    level2 = braided._level(V, "sym", 2)
    square = braided._level_rows(level2)
    weights = [w for w in sorted(level2) for _ in level2[w]]
    # the unknowns of the (6, 6) block, in _meet_step's order: the pairs
    # (row a of P^2, e_b) of weight (6, 6), numbered a * d + b
    unknowns = [
        a * d + b
        for a, wa in enumerate(weights)
        for b, wb in enumerate(V.weights)
        if (wa[0] + wb[0], wa[1] + wb[1]) == (6, 6)
    ]
    # the F-images of the (7, 5) block of the cube, as vectors of V^(ox 3),
    # from the full level of an unshared copy of V
    copy = simple_gl2.__wrapped__(4, 0)
    above = oracles._absolute(copy, "sym", 3, braided._level(copy, "sym", 3))[(7, 5)]
    lower = uqmod.coproduct((V, V, V), 0, lower=True)
    images = [lower(v) for v in above]
    offset = d**3
    seen = []

    def keep_images(rows):
        # the combinations of the kernel rows whose vectors lie in the
        # span of the images, found by one meet over rows that carry their
        # coordinates beyond column offset; echelonized from the last
        # column, so their last columns stay distinct
        carried = []
        for z in rows:
            relative = {unknowns[j]: v for j, v in z.items()}
            [[vector]] = oracles._expand({0: [relative]}, square, d, None).values()
            carried.append({**vector, **{offset + j: v for j, v in z.items()}})
        every = {c for r in carried + images for c in r if c < offset}
        meet = sp_intersect(carried, sp_annihilator(images, every))
        n = len(unknowns)
        flipped = [{n - 1 - (c - offset): v for c, v in r.items() if c >= offset} for r in meet]
        kept = [{n - 1 - j: v for j, v in r.items()} for r in span_basis(flipped)]
        seen.append((len(rows), len(kept)))
        return kept

    _mutate_kernel(monkeypatch, (6, 6), keep_images)
    with pytest.raises(ModuleAuditError, match="3 kernel rows of a .* leaves room for 4"):
        decompose_power(V, "sym", 3)
    assert seen == [(4, 3)]
    assert ("power", 0, 3) not in V._memo


@pytest.mark.parametrize("q0", [None, Fraction(97, 101)])
def test_a_full_level_short_of_a_row_off_the_dominant_chamber_fails(monkeypatch, q0):
    # (4, 5) is not dominant, so no decomposition reads its block; the
    # Weyl symmetry of each full level catches it in both fields
    meet = braided._meet_step

    def short(prev, ann_at, mid, back, weights):
        out = meet(prev, ann_at, mid, back, weights)
        if (4, 5) in out:
            out[(4, 5)] = out[(4, 5)][:-1]
        return out

    monkeypatch.setattr(braided, "_meet_step", short)
    V = braided.at_point(simple_gl2(3, 0), q0)
    with pytest.raises(ModuleAuditError, match=r"not Weyl symmetric at \((5, 4|4, 5)\)"):
        power_dims(V, "sym", 3)
    # the failed level's blocks were dropped with it: the next call
    # builds them again
    monkeypatch.undo()
    assert power_dims(V, "sym", 3) == [1, 4, 10, 16]


def test_a_failed_decomposition_is_not_stored(monkeypatch):
    # one row of the (7, 2) block of the sym cube of V_(3,0) dropped once,
    # before the kernel's certificate: the decomposition fails and stores
    # nothing, so the next call and the full level build that block again
    shorts = [(7, 2)]

    def short_once(rows):
        if shorts:
            shorts.pop()
            return rows[:-1]
        return rows

    _mutate_kernel(monkeypatch, (7, 2), short_once)
    V = simple_gl2(3, 0)
    with pytest.raises(ModuleAuditError):
        decompose_power(V, "sym", 3)
    assert not shorts
    assert dict(decompose_power(V, "sym", 3)) == {(9, 0): 1, (7, 2): 1}
    assert power_dims(V, "sym", 3) == [1, 4, 10, 16]


def test_a_failed_decomposition_drops_the_levels_built_on_it(monkeypatch):
    # P^3 and P^4 stored in full, then the decomposition of P^3's
    # dominant dims fails: both are built again, on the P^2 that stays
    V = simple_gl2(3, 0)
    assert power_dims(V, "sym", 4) == [1, 4, 10, 16, 22]
    square = braided._level(V, "sym", 2)

    def refuse(*args):
        raise ModuleAuditError("decomposition refused")

    monkeypatch.setattr(braided, "decompose_weight_dims", refuse)
    with pytest.raises(ModuleAuditError, match="decomposition refused"):
        decompose_power(V, "sym", 3)
    monkeypatch.undo()
    steps = []
    step = braided._power_step
    monkeypatch.setattr(
        braided,
        "_power_step",
        lambda prev, ann, V, weights: steps.append(braided.weight_rows_dim(prev))
        or step(prev, ann, V, weights),
    )
    assert power_dims(V, "sym", 4) == [1, 4, 10, 16, 22]
    assert steps == [10, 16]
    assert braided._level(V, "sym", 2) is square


def test_each_level_below_is_expanded_once(monkeypatch):
    # the rows of each _expand call: a decomposition expands nothing, and
    # braided_power expands P^3 of V_(4,0) once and P^4 on each call
    sizes = []
    expand = oracles._expand

    def spy(blocks, below, d, p):
        sizes.append(braided.weight_rows_dim(blocks))
        return expand(blocks, below, d, p)

    monkeypatch.setattr(oracles, "_expand", spy)
    V = simple_gl2(4, 0)
    dec = decompose_power(V, "sym", 4)
    assert sizes == []
    assert braided_power(V, "sym", 4).dim == 45
    assert braided_power(V, "sym", 4).dim == 45
    assert decompose_power(V, "sym", 4) == dec
    assert sizes == [28, 45, 45]


def test_a_power_and_a_triple_product_share_a_side_annihilator(monkeypatch):
    # the sym side of V_(2,0) ox V_(2,0) is its + bullet product: the
    # cube and the triple product (2, 2, 2) read one Ann of it
    calls = []
    ann = braided._ann_by_column
    monkeypatch.setattr(
        braided, "_ann_by_column", lambda *args: calls.append(1) or ann(*args)
    )
    V = simple_gl2(2, 0)
    assert power_dims(V, "sym", 3)[3] == braided.dim_sym_cube(2)
    assert dict(braided.decompose_triple((2, 2, 2), "+")) == dict(
        admissible_triples((2, 2, 2), "+")
    )
    assert len(calls) == 1


def test_the_exact_triple_product_builds_its_dominant_blocks_only(monkeypatch):
    calls = _spy_meet(monkeypatch)
    beta = (2, 1, 2)
    assert dict(braided.decompose_triple(beta, "+")) == dict(admissible_triples(beta, "+"))
    [(prev, weights)] = calls
    every = braided._meet_weights(prev, simple_gl2(2, 0))
    assert weights == {w for w in every if dominant(w, (2,))} != every
