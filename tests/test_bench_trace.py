"""The benchmark's per-layer tracer (bench/layertrace.py) wraps program
functions by name.  A rename of a traced function must fail here, not in
a traced benchmark run."""

import sys
from pathlib import Path

import pytest

import braidpow.acceptance  # noqa: F401  (the tracer wraps stages and cli.run)
import braidpow.cli  # noqa: F401
from braidpow import braided
from braidpow.qarith import Subspace
from braidpow.uqmod import simple_gl2

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import layertrace
        import workloads

        yield layertrace, workloads
    finally:
        sys.path.remove(str(BENCH))


def _bindings() -> dict:
    """Every name bound in a braidpow module or in Subspace's namespace."""
    spaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "braidpow"]
    return {
        (id(ns), attr): value
        for ns in spaces + [Subspace]
        for attr, value in vars(ns).items()
    }


def test_tracer_wraps_its_targets_and_restores_them(bench_modules):
    layertrace, workloads = bench_modules
    before = _bindings()
    tracer = layertrace.Tracer(workloads.stage_names())
    tracer.install()  # raises if a traced name no longer exists
    try:
        during = _bindings()
        wrapped = {k for k in before if during[k] is not before[k]}
        assert len(wrapped) >= sum(len(t) for t in tracer.targets.values())
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_builders_run_on_each_cache_miss_only(bench_modules):
    layertrace, workloads = bench_modules
    tracer = layertrace.Tracer(workloads.stage_names())
    tracer.install()
    try:
        for l in (2, 3, 3, 2):
            V = simple_gl2(l, 0)
            braided.module_square(V)
            braided.power_dims(V, "sym", 4)
    finally:
        tracer.uninstall()
    counts = tracer.metrics()
    assert counts["braided.module_square.calls"] == 2
    assert counts["braided.power_step.calls"] == 4
