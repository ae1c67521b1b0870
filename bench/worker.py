"""One pass of one workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--trace] [--setup-only]
    python3 bench/worker.py --record-corpus bench/corpus.json

Run with `src` on PYTHONPATH.  The worker imports braidpow and builds the
request list, which ends set-up; it reports `time.monotonic()` at that
moment, for run.py to compare with the moment it started the process.
It then issues the requests one after another and checks every output.
A request fails on an exception, a nonzero exit code, a `fail` verdict, a
payload or verdict that differs from the recorded corpus, or a cube that
differs from its closed form; the pass goes on either way.  Times are
reported both as wall seconds and as seconds at reference speed (see
speedprobe.py).  The last stdout line is one JSON object.

`--record-corpus` runs every workload at two seeds and writes the
seed-independent outputs as the corpus; a field that differs between the
two seeds stops it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import workloads
from speedprobe import SpeedProbe

CORPUS = Path(__file__).resolve().parent / "corpus.json"


def _canonical(obj):
    return json.loads(json.dumps(obj, sort_keys=True, default=str))


def _issue(req: dict, cli, acceptance) -> dict:
    """Run one request; the timed part is the call itself."""
    t0 = time.perf_counter()
    try:
        if req["kind"] == "cli":
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.run(list(req["argv"]))
            t1 = time.perf_counter()
            text = buf.getvalue()
            envelope = json.loads(text) if text.strip() else {}
            return {
                "span": (t0, t1),
                "code": code,
                "payload": envelope.get("payload"),
                "verdicts": envelope.get("verdicts", {}),
            }
        report = getattr(acceptance, req["name"])(**req["kwargs"])
        t1 = time.perf_counter()
        return {
            "span": (t0, t1),
            "code": 0,
            "payload": _canonical(report),
            "verdicts": {"ok": "pass" if report.get("ok") is True else "fail"},
        }
    except Exception as exc:  # an escaped exception is one failed request
        return {
            "span": (t0, time.perf_counter()),
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(limit=-3),
        }


def _seed_free(out: dict) -> dict:
    payload = out.get("payload") or {}
    return {
        "payload": {k: v for k, v in payload.items() if k not in workloads.SEED_FIELDS},
        "verdicts": out.get("verdicts"),
    }


def _closed_form_problems(req: dict, payload: dict, braided) -> list[str]:
    """Cross-check every cube the request computed against the closed forms."""

    def cube(l, side, dim, components):
        closed = braided.sym_cube_closed(l) if side == "sym" else braided.ext_cube_closed(l)
        want_dim = braided.dim_sym_cube(l) if side == "sym" else closed.total_dim()
        want = [[list(w), m] for w, m in sorted(closed.items(), reverse=True)]
        bad = []
        if components is not None and components != want:
            bad.append(f"{side} cube l={l} components {components} != closed form {want}")
        if dim != want_dim:
            bad.append(f"{side} cube l={l} dim {dim} != closed form {want_dim}")
        return bad

    if req["kind"] == "cli":
        cmd, argv = req["argv"][0], req["argv"]
        l, n = int(argv[argv.index("--l") + 1]), int(argv[argv.index("--n") + 1])
        if cmd == "hilbert":
            return cube(l, "sym", payload["dims"][3], None)
        if n == 3:
            return cube(l, cmd.split("-")[0], payload["dim"], payload["components"])
        return []
    name = req["name"]
    if name in ("sym_cubes", "ext_cubes"):
        side = name[:3]
        return [p for r in payload["rows"] for p in cube(r["l"], side, r["dim"], r["components"])]
    if name == "flatness_classification":
        return [p for r in payload["rows"] for p in cube(r["l"], "sym", r["sym_cube_dim"], None)]
    return []


def _problems(req: dict, out: dict, expected, braided) -> list[str]:
    if "error" in out:
        return [f"exception {out['error']}"]
    bad = []
    if out["code"] != 0:
        bad.append(f"exit code {out['code']}")
    failed = sorted(k for k, v in out["verdicts"].items() if v == "fail")
    if failed:
        bad.append(f"fail verdicts {failed}")
    if expected is None:
        bad.append("no corpus entry")
    elif _seed_free(out) != expected:
        bad.append("payload or verdicts differ from the corpus")
    if out["payload"] and not bad:
        try:
            bad += _closed_form_problems(req, out["payload"], braided)
        except (KeyError, TypeError, ValueError) as exc:
            bad.append(f"closed-form check could not read the payload: {exc!r}")
    return bad


def _digest(out: dict) -> str:
    keep = {k: out.get(k) for k in ("code", "payload", "verdicts", "error")}
    return hashlib.sha256(json.dumps(keep, sort_keys=True).encode()).hexdigest()


def _pass(workload: str, seed: int, trace: bool, setup_only: bool, probe: SpeedProbe) -> dict:
    started = time.perf_counter()
    from braidpow import acceptance, braided, cli

    reqs = workloads.requests(workload, seed)
    ready, ready_pc = time.monotonic(), time.perf_counter()
    setup = {
        "ready": ready,
        "setup_probe_s": probe.probe_time(started, ready_pc),
        "setup_factor": probe.factor(started, ready_pc),
    }
    if setup_only:
        return setup
    corpus = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
    tracer = None
    if trace:
        from layertrace import Tracer

        tracer = Tracer(workloads.stage_names())
        probe.on_sample = tracer.exclude
        tracer.install()
    outs = []
    try:
        for req in reqs:
            outs.append(_issue(req, cli, acceptance))
    finally:
        if tracer is not None:
            tracer.uninstall()
            probe.on_sample = None
    results = []
    for req, out in zip(reqs, outs):
        rid = workloads.request_id(req)
        t0, t1 = out["span"]
        results.append({
            "id": rid,
            "seconds": probe.scaled(t0, t1),
            "wall_s": t1 - t0,
            "digest": _digest(out),
            "problems": _problems(req, out, corpus.get(rid), braided),
            "traceback": out.get("traceback"),
        })
    total = sum(r["seconds"] for r in results)
    wall_total = sum(r["wall_s"] for r in results)
    layers = None
    if tracer is not None:
        # layer times at the pass's mean reference speed, comparable with total_s
        speed = total / wall_total if wall_total else 1.0
        layers = {k: v * speed if k.endswith("_s") else v for k, v in tracer.metrics().items()}
    return dict(
        setup,
        requests=reqs,
        total_s=total,
        wall_total_s=wall_total,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        results=results,
        layers=layers,
    )


def _record_corpus(path: Path) -> None:
    from braidpow import acceptance, cli

    corpus = {}
    for workload in workloads.WORKLOADS:
        seen = {}
        for seed in (1, 2):
            for req in workloads.requests(workload, seed):
                out = _issue(req, cli, acceptance)
                if "error" in out:
                    raise SystemExit(f"{workload}: {out['error']}")
                entry = _seed_free(out)
                rid = workloads.request_id(req)
                if seen.setdefault(rid, entry) != entry:
                    raise SystemExit(f"{rid}: output depends on the seed")
        corpus.update(seen)
    path.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-corpus", type=Path, metavar="PATH")
    args = parser.parse_args()
    if args.record_corpus:
        _record_corpus(args.record_corpus)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    probe = SpeedProbe()
    probe.start()
    try:
        report = _pass(args.workload, args.seed, args.trace, args.setup_only, probe)
    finally:
        probe.stop()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
