"""Each exact construction happens once per process: shared modules,
stored tensor products, squares and power levels.  Sharing must change
no result, no caller may mutate a shared result, and a failed
construction is not stored."""

import hashlib
import json
from dataclasses import fields, is_dataclass
from fractions import Fraction

import pytest

from braidpow import acceptance, braided, uqmod
from braidpow.braided import module_square, power_dims, square_gl2, square_standard
from braidpow.uqmod import WeightModule, simple_gl2, specialize_module, standard_gld, tensor


def test_constructors_share_one_audited_instance(monkeypatch):
    audits = []
    audit = uqmod.audit_module
    monkeypatch.setattr(uqmod, "audit_module", lambda m: audits.append(m.kind) or audit(m))
    V = simple_gl2(3, 0)
    assert simple_gl2(3, 0) is V and standard_gld(2) is standard_gld(2)
    assert tensor(V, V) is tensor(V, V)
    assert square_gl2(3) is module_square(V) is module_square(simple_gl2(3, 0))
    assert square_standard(2) is module_square(standard_gld(2))
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
        lambda prev, ann, V: steps.append(braided.weight_rows_dim(prev)) or step(prev, ann, V),
    )
    V = simple_gl2(3, 0)
    assert power_dims(V, "sym", 3) == [1, 4, 10, 16]
    assert power_dims(V, "sym", 2) == [1, 4, 10]
    assert power_dims(V, "sym", 4) == [1, 4, 10, 16, 22]
    assert steps == [10, 16]
    assert braided.power_weight_rows(V, "sym", 4) is braided.power_weight_rows(V, "sym", 4)


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
