"""braidpow benchmark: three certifier workloads, each pass in a fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 bench/run.py --compare A.jsonl B.jsonl

Run from the repository root; the program is imported from `src`.

With `--trace 0` it first starts a few set-up-only workers, then
runs whole passes of the workload, one after another, while the next pass
is expected to end within `--seconds` (at least one).  It reports the
end-to-end metrics named in BENCHMARK.json: `total_s` (median seconds to
finish the request list), `setup_s` (median seconds from starting the
interpreter until braidpow is imported and the request list is built),
`peak_rss_mb` (median `ru_maxrss` of a pass) and `ok_ratio` (requests that
succeeded / requests attempted; the record also carries `failed_ratio`).
Both times are taken at reference speed (see speedprobe.py): on a shared
host, raw wall times of one workload spread by 15-20% across runs.  The
raw wall seconds of every pass are in the record as `wall_total_s`.

With `--trace 1` it runs one untraced pass and two traced passes and
reports the per-layer metrics of BENCHMARK.json: counts from the traced
passes, times as their median, and `trace.overhead_s`, the traced minus
the untraced `total_s`.  It checks that all three passes give the same
payloads and verdicts, and that every count repeats exactly.

The last stdout line is the result object; the line before it is the full
record (environment, request list, every pass), which `--out` also appends
to FILE.  `--compare` reads two such files and prints, per workload and
metric, both medians and their ratio, marking each end-to-end metric that
got worse by more than its bound.  It is a report, not a gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from layertrace import is_count

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
PROGRAM = ROOT / "src" / "braidpow"
# A run must end within 180 s; stop starting workers after this.
DEADLINE_S = 170.0
SETUP_PROBES = 5


class _Run:
    """Accumulates the passes, failures and self-checks of one run."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.self_checks: list[str] = []

    def worker(self, *flags: str):
        """Start one worker and wait for it; returns (report or None, start, error)."""
        # a fixed hash seed keeps set iteration, and so every count, repeatable
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        argv = [sys.executable, str(BENCH / "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), *flags]
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, start, "worker timed out"
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0 or not out.strip():
            return None, start, f"worker exited {proc.returncode}: {err[-2000:]}"
        return json.loads(out.splitlines()[-1]), start, None

    def run_pass(self, *flags: str) -> dict | None:
        report, start, error = self.worker(*flags)
        n = len(workloads.requests(self.workload, self.seed))
        self.attempted += n
        if report is None:
            self.failed += n
            self.failures.append({"pass": list(flags), "problem": error})
            return None
        for r in report["results"]:
            if r["problems"]:
                self.failed += 1
                self.failures.append(r)
        report["setup_s"] = _setup_seconds(report, start)
        report["wall_s"] = time.monotonic() - start
        return report

    def setup_probes(self) -> list[float]:
        times = []
        for _ in range(SETUP_PROBES):
            report, start, error = self.worker("--setup-only")
            if report is None:
                self.self_checks.append(f"set-up probe failed: {error}")
                break
            times.append(_setup_seconds(report, start))
        return times


def _setup_seconds(report: dict, start: float) -> float:
    """Seconds from starting the worker until it was ready, less the speed
    probe's own time, at reference speed (see speedprobe.py)."""
    return (report["ready"] - start - report["setup_probe_s"]) * report["setup_factor"]


def _summary(report: dict) -> dict:
    keep = ("setup_s", "total_s", "wall_total_s", "peak_rss_mb", "wall_s")
    out = {k: report[k] for k in keep}
    out["request_seconds"] = {r["id"]: r["seconds"] for r in report["results"]}
    return out


def _untraced(run: _Run, seconds: float) -> tuple[dict, list]:
    setups = run.setup_probes()
    passes: list[dict] = []
    end = min(time.monotonic() + seconds, run.deadline)
    while True:
        report = run.run_pass()
        if report is None:
            break
        passes.append(report)
        if time.monotonic() + report["wall_s"] > end:
            break
    if not passes:
        return {}, []
    metrics = {
        "total_s": statistics.median(p["total_s"] for p in passes),
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
    }
    return metrics, passes


def _traced(run: _Run, names: list[str]) -> tuple[dict, list]:
    plain = run.run_pass()
    traced = [run.run_pass("--trace") for _ in range(2)]
    passes = [p for p in [plain] + traced if p is not None]
    if len(passes) < 3:
        run.self_checks.append("a pass did not finish; no per-layer metrics")
        return {}, passes
    digests = [[r["digest"] for r in p["results"]] for p in passes]
    if digests[1] != digests[0] or digests[2] != digests[0]:
        run.self_checks.append("traced payloads or verdicts differ from the untraced pass")
    first, second = traced[0]["layers"], traced[1]["layers"]
    for name in first:
        if is_count(name) and first[name] != second[name]:
            run.self_checks.append(f"count {name} differs: {first[name]} vs {second[name]}")
    metrics = {}
    for name in names:
        if name == "trace.overhead_s":
            metrics[name] = statistics.median(p["total_s"] for p in traced) - plain["total_s"]
        elif is_count(name):
            metrics[name] = first[name]
        else:
            metrics[name] = statistics.median([first[name], second[name]])
    return metrics, passes


def _git_sha():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of this tree
    return lines[1]


def _environment(seed: int, reqs: list) -> dict:
    src = hashlib.sha256()
    for path in sorted(PROGRAM.glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "requests": reqs,
    }


def _measure(args, spec: dict) -> int:
    deadline = time.monotonic() + DEADLINE_S
    run = _Run(args.workload, args.seed, deadline)
    group = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[group]}
    if args.trace:
        values, passes = _traced(run, list(declared))
    else:
        values, passes = _untraced(run, args.seconds)
    missing = sorted(set(declared) - set(values))
    if missing:
        run.self_checks.append(f"metrics not measured: {missing}")
    result = {
        "correct": run.failed == 0 and not run.self_checks,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in declared.items()
        },
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(args.seed, workloads.requests(args.workload, args.seed)),
        "passes": [_summary(p) for p in passes],
        "failed_ratio": result["failed"] / result["attempted"],
        "failures": run.failures,
        "self_checks": run.self_checks,
        "result": result,
    }
    line = json.dumps(record, sort_keys=True)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    print(line)
    print(json.dumps(result))
    return 0


def _load(path: str) -> dict:
    """(workload, metric) -> values, from a file of records."""
    values: dict[tuple, list] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, m in rec["result"]["metrics"].items():
                    values.setdefault((rec["workload"], name), []).append(m["value"])
    return values


def _compare(path_a: str, path_b: str, spec: dict) -> int:
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = _load(path_a), _load(path_b)
    print(f"{'workload':<20} {'metric':<46} {'median A':>12} {'median B':>12} {'B/A':>8}  runs")
    for key in sorted(set(a) & set(b)):
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        ratio = mb / ma if ma else float("nan")
        meta = declared.get(key[1], {})
        mark = ""
        if "bound" in meta and ma:
            worse = (mb - ma) / ma if meta["better"] == "lower" else (ma - mb) / ma
            if worse > meta["bound"]:
                mark = f"  <-- worse by {worse:.1%}, bound {meta['bound']:.0%}"
        print(f"{key[0]:<20} {key[1]:<46} {ma:>12.6g} {mb:>12.6g} {ratio:>8.3f}  "
              f"{len(a[key])}/{len(b[key])}{mark}")
    for key in sorted(set(a) ^ set(b)):
        print(f"{key[0]:<20} {key[1]:<46} only in {'A' if key in a else 'B'}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE", help="append the full record to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    # turn a termination request into an exception, so the worker is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not SPEC.is_file():
        print(f"{SPEC.name} not found next to the benchmark", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.compare:
        return _compare(*args.compare, spec)
    if not args.workload:
        parser.error("--workload is required")
    if not (PROGRAM / "__init__.py").is_file():
        print(f"the program source is missing: {PROGRAM}", file=sys.stderr)
        return 2
    return _measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
