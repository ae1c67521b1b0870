"""Command line front end.

Every run prints one JSON envelope to stdout: command echo, config,
payload, verdicts, conjecture flags, and the wall time.  The payload is
deterministic for identical argv + seed (wall time lives outside it),
so runs can be diffed byte for byte.  Exit codes: 0 when every verdict
passes, 2 when a theorem check fails or the run itself fails (any
unexpected exception gives the payload {"error": "internal", ...} and
the verdict run: fail), 1 on usage or guard errors and on a --csv path
that cannot be written.

Commands with a natural dimension or component table export it as CSV
via --csv PATH.  Specialize mode requires --seed and computes results
over the prime field F_P at the images of two sampled rational points
(braided.run_mode runs both modes); agreement of the two is evidence,
not a proof, of the generic answer.
Exact mode ignores the seed except where a command is explicitly
randomized (convex-certify).
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time
from fractions import Fraction
from math import comb

from . import acceptance
from .braided import (
    admissible_triples,
    at_point,
    conjectural_sym_dim,
    decompose_power,
    dim_sym_cube,
    ext_cube_closed,
    flat_lower_bound,
    flatness_check,
    growth_flag,
    hilbert_table,
    koszul_series_probe,
    power_dims,
    run_mode,
    sym_cube_closed,
    triple_product,
)
from .classical import poisson_closure_dims, valuation_cover_check
from .convexopt import certify_random_class
from .errors import GuardError, InfeasibleError, TheoremViolation
from .gl3canon import dcb_module, degree_recursion_check, genericity_check
from .qmat import _partitions, check_qmatrix_relations, howe_dim_check
from .uqmod import ModuleAuditError, outer, simple_gl2, standard_gld


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _ints(text: str, want: int, flag: str) -> tuple:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated integers")
    if len(parts) != want:
        raise _UsageError(f"{flag} expects exactly {want} integers")
    return parts


def _plain(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, verdicts, conjecture_flags, table)


def _power_module(args):
    if (args.l is None) == (args.d is None):
        raise _UsageError("pass exactly one of --l (gl_2 simple) or --d")
    if args.d is None and args.k is not None:
        raise _UsageError("--k needs --d")
    if args.l is not None:
        return "simple", f"simple_gl2({args.l},0)"
    if args.k is not None:
        return "matrix", f"matrix({args.d},{args.k})"
    return "standard", f"standard_gld({args.d})"


def _build_module(args, family, q0):
    if family == "simple":
        V = simple_gl2(args.l, 0)
    elif family == "matrix":
        V = outer(standard_gld(args.d), standard_gld(args.k))
    else:
        V = standard_gld(args.d)
    return at_point(V, q0)


def _power_guard(args, family):
    if args.override_guards:
        return
    if family == "simple":
        if args.n > 4 or args.l > 6:
            raise GuardError(
                "exact powers of gl_2 simples are guarded to n <= 4 and "
                "l <= 6; use --mode specialize or --override-guards"
            )
    else:
        dim = args.d * (args.k if args.k is not None else 1)
        if dim**args.n > 4096:
            raise GuardError(
                f"ambient dimension {dim}**{args.n} exceeds 4096; "
                "pass --override-guards to force"
            )


def _pad(lam, size: int) -> tuple:
    return tuple(lam) + (0,) * (size - len(lam))


def _conjugate(lam) -> tuple:
    return tuple(sum(1 for p in lam if p > i) for i in range(max(lam, default=0)))


# The closed forms of the n-th braided power, keyed by (family, kind):
# each maps the arguments to {verdict name: components}, and a verdict
# passes when the computed decomposition is exactly those components.
# Over gl_d the powers of the standard module are S^n = V_(n) and
# Lambda^n = V_(1^n), zero for n > d.  The d x k matrix module A ox B
# has S^n = sum of S_lam A ox S_lam B over lam |- n with at most
# min(d, k) rows (Cauchy) and Lambda^n = sum of S_lam A ox S_lam' B over
# lam |- n inside the d x k box (dual Cauchy; Macdonald, Symmetric
# Functions, I.4).  For V_(l,0) the cubes have closed forms, and the
# exterior powers vanish from degree 4: for l <= 2 the square is flat
# and dim V <= 3, for l >= 3 it is the theorem ext-four checks.
_POWER_CLOSED_FORMS = {
    ("simple", "sym"): lambda a: (
        {"matches_cube_closed_form": sym_cube_closed(a.l)} if a.n == 3 else {}
    ),
    ("simple", "ext"): lambda a: (
        {"matches_cube_closed_form": ext_cube_closed(a.l)}
        if a.n == 3
        else {"exterior_vanishes_from_degree_4": {}} if a.n >= 4 else {}
    ),
    ("standard", "sym"): lambda a: {"polynomial_growth": {_pad((a.n,), a.d): 1}},
    ("standard", "ext"): lambda a: {
        "matches_exterior_closed_form": {_pad((1,) * a.n, a.d): 1} if a.n <= a.d else {}
    },
    ("matrix", "sym"): lambda a: {
        "matches_cauchy": {
            _pad(lam, a.d) + _pad(lam, a.k): 1
            for lam in _partitions(a.n, min(a.d, a.k))
        }
    },
    ("matrix", "ext"): lambda a: {
        "matches_dual_cauchy": {
            lam + _pad(_conjugate(lam), a.k): 1
            for lam in _partitions(a.n, a.d)
            if lam[0] <= a.k
        }
    },
}


def _decompose_power(args, family, kind, q0):
    dec = decompose_power(_build_module(args, family, q0), kind, args.n)
    return dec.total_dim(), dec


def _cmd_power(args, kind):
    family, name = _power_module(args)
    n = args.n
    if args.mode == "exact":
        _power_guard(args, family)
    (dim, dec), samples = run_mode(
        args.mode, args.seed, lambda q0: _decompose_power(args, family, kind, q0)
    )
    payload = {
        "module": name,
        "kind": kind,
        "n": n,
        "dim": dim,
        "components": dec.components(),
        "mode": args.mode,
        "samples": samples,
    }
    verdicts = {
        name: "pass" if dict(dec) == dict(want) else "fail"
        for name, want in _POWER_CLOSED_FORMS[family, kind](args).items()
    }
    flags = []
    if family == "simple" and kind == "sym" and n >= 4:
        flags.append(growth_flag(args.l, n, dim))
    table = (
        ["component", "multiplicity"],
        [[" ".join(str(x) for x in w), m] for w, m in dec.components()],
    )
    return payload, verdicts, flags, table


def _cmd_sym_power(args):
    return _cmd_power(args, "sym")


def _cmd_ext_power(args):
    return _cmd_power(args, "ext")


def _cmd_triple_product(args):
    beta = _ints(args.beta, 3, "--beta")
    if any(b < 0 for b in beta):
        raise _UsageError("--beta entries must be nonnegative")
    dec = triple_product(beta, args.eps, mode=args.mode, seed=args.seed)
    admissible = admissible_triples(beta, args.eps)
    payload = {
        "beta": list(beta),
        "eps": args.eps,
        "mode": args.mode,
        "dim": dec.total_dim(),
        "components": dec.components(),
        "admissible": admissible.components(),
    }
    verdicts = {"matches_admissibility": "pass"}
    table = (
        ["l1", "l2", "multiplicity"],
        [[w[0], w[1], m] for (w, m) in sorted(dec.items(), reverse=True)],
    )
    return payload, verdicts, [], table


def _cmd_flatness(args):
    l = args.l
    flat, report = flatness_check(simple_gl2(l, 0))
    bound = flat_lower_bound((l, 0))
    payload = dict(report)
    payload["l"] = l
    payload["lower_bound"] = bound
    payload["certified_by_bound"] = bound == comb(l + 3, 3)
    verdicts = {
        "matches_classification": "pass" if flat == (l <= 2) else "fail",
        "lower_bound_valid": (
            "pass" if bound <= report["sym_cube_dim"] else "fail"
        ),
    }
    table = (
        ["quantity", "value"],
        [[k, payload[k]] for k in sorted(payload) if k != "module"],
    )
    return payload, verdicts, [], table


def _cmd_hilbert(args):
    table_obj = hilbert_table(
        args.l,
        args.n,
        "sym",
        mode=args.mode,
        seed=args.seed,
        override_guards=args.override_guards,
    )
    payload = table_obj.as_dict()
    payload["upto"] = args.n
    verdicts = {}
    if args.n >= 3:
        verdicts["cube_matches_closed_form"] = (
            "pass" if table_obj.dims[3] == dim_sym_cube(args.l) else "fail"
        )
    flags = table_obj.conjecture
    table = (
        ["n", "dim"],
        [[n, d] for n, d in enumerate(table_obj.dims)],
    )
    return payload, verdicts, flags, table


def _cmd_koszul_probe(args):
    coeffs = koszul_series_probe(args.l, args.n)
    negatives = [i for i, c in enumerate(coeffs) if c < 0]
    payload = {
        "l": args.l,
        "terms": args.n,
        "coefficients": coeffs,
        "first_negative": negatives[0] if negatives else None,
    }
    if args.l >= 3:
        verdicts = {"series_goes_negative": "pass" if negatives else "fail"}
    else:
        verdicts = {"series_nonnegative": "fail" if negatives else "pass"}
    table = (["n", "coefficient"], [[n, c] for n, c in enumerate(coeffs)])
    return payload, verdicts, [], table


def _gl3_grid(args):
    if args.lam is not None:
        lam = _ints(args.lam, 3, "--lam")
        return [lam]
    return [(a, b, 0) for a in range(6) for b in range(a + 1)]


def _cmd_gl3(args, check, verdict_name):
    rows = []
    all_ok = True
    for lam in _gl3_grid(args):
        report = check(lam, dcb_module(lam))
        all_ok = all_ok and report["ok"]
        rows.append(report)
    payload = {"weights": len(rows), "rows": rows}
    verdicts = {verdict_name: "pass" if all_ok else "fail"}
    count_key = "minors" if "minors" in rows[0] else "comparisons"
    table = (
        ["lam", "blocks", count_key, "ok"],
        [
            [
                " ".join(str(x) for x in r["lam"]),
                r["blocks"],
                r[count_key],
                r["ok"],
            ]
            for r in rows
        ],
    )
    return payload, verdicts, [], table


def _cmd_gl3_generic(args):
    return _cmd_gl3(args, genericity_check, "minors_generic")


def _cmd_gl3_degrees(args):
    return _cmd_gl3(args, degree_recursion_check, "degrees_match")


def _cmd_convex_certify(args):
    if args.m < 1 or args.n < 1:
        raise _UsageError("--m and --n must be positive")
    if args.trials < 1:
        raise _UsageError("--trials must be positive")
    rng = random.Random(args.seed)
    instances = [
        certify_random_class(args.m, args.n, rng, args.override_guards)
        for _ in range(args.trials)
    ]
    certified = len(instances)
    payload = {
        "m": args.m,
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "certified": certified,
        "instances": instances,
    }
    verdicts = {"all_certified": "pass" if certified == args.trials else "fail"}
    table = (
        ["lam", "kminus", "kplus", "kappa_star", "class_size"],
        [
            [
                " ".join(str(x) for x in r["lam"]),
                " ".join(str(x) for x in r["kminus"]),
                " ".join(str(x) for x in r["kplus"]),
                " ".join(str(x) for x in r["kappa_star"]),
                r["class_size"],
            ]
            for r in instances
        ],
    )
    return payload, verdicts, [], table


def _cmd_poisson_closure(args):
    upto = args.n
    sym = poisson_closure_dims(args.l, upto, "sym", args.override_guards)
    ext = poisson_closure_dims(args.l, upto, "ext", args.override_guards)
    formula = [conjectural_sym_dim(args.l, n) for n in range(upto + 1)]
    payload = {
        "l": args.l,
        "upto": upto,
        "sym": sym,
        "ext": ext,
        "formula": formula,
    }
    verdicts = {}
    if upto >= 3:
        verdicts["cube_matches_closed_form"] = (
            "pass" if sym[3] == dim_sym_cube(args.l) else "fail"
        )
    if upto >= 4:
        verdicts["exterior_vanishes_from_degree_4"] = (
            "pass" if all(d == 0 for d in ext[4:]) else "fail"
        )
    flags = [growth_flag(args.l, n, sym[n]) for n in range(4, upto + 1)]
    table = (
        ["n", "sym", "ext", "formula"],
        [[n, sym[n], ext[n], formula[n]] for n in range(upto + 1)],
    )
    return payload, verdicts, flags, table


def _cmd_ext_four(args):
    l = args.l
    dims = poisson_closure_dims(l, 4, "ext", args.override_guards)
    payload = {"l": l, "classical_dims": dims, "braided_dims": None}
    verdicts = {"classical_vanishes": "pass" if dims[4] == 0 else "fail"}
    if l <= 5 or args.override_guards:
        bdims = power_dims(simple_gl2(l, 0), "ext", 4)
        payload["braided_dims"] = bdims
        verdicts["braided_vanishes"] = "pass" if bdims[4] == 0 else "fail"
    table = (
        ["n", "classical_dim"],
        [[n, d] for n, d in enumerate(dims)],
    )
    return payload, verdicts, [], table


def _cmd_valuation_cover(args):
    payload = valuation_cover_check(args.l)
    verdicts = {"cover_complete": "pass" if payload["covered"] else "fail"}
    table = (
        ["quantity", "value"],
        [[k, payload[k]] for k in sorted(payload)],
    )
    return payload, verdicts, [], table


def _cmd_qmatrix_check(args):
    payload = check_qmatrix_relations(args.d, args.k, args.override_guards)
    verdicts = {"relations_hold": "pass" if payload["ok"] else "fail"}
    table = (
        ["quantity", "value"],
        [[k, payload[k]] for k in sorted(payload)],
    )
    return payload, verdicts, [], table


def _cmd_howe_check(args):
    report = howe_dim_check(args.d, args.k, args.n)
    payload = dict(report)
    payload["terms"] = [
        [list(lam), dl, dr] for lam, dl, dr in report["terms"]
    ]
    verdicts = {"dimension_identity": "pass" if report["ok"] else "fail"}
    table = (
        ["lam", "dim_left", "dim_right"],
        [
            [" ".join(str(x) for x in lam), dl, dr]
            for lam, dl, dr in report["terms"]
        ],
    )
    return payload, verdicts, [], table


def _cmd_audit_all(args):
    report = acceptance.run_all(mode=args.mode, seed=args.seed)
    payload = {
        "stages": report["stages"],
        "passed": sum(1 for s in report["stages"] if s["ok"]),
        "total": len(report["stages"]),
    }
    verdicts = {
        s["stage"]: "pass" if s["ok"] else "fail" for s in report["stages"]
    }
    table = (
        ["stage", "ok"],
        [[s["stage"], s["ok"]] for s in report["stages"]],
    )
    return payload, verdicts, report["conjecture_flags"], table


_HANDLERS = {
    "sym-power": _cmd_sym_power,
    "ext-power": _cmd_ext_power,
    "triple-product": _cmd_triple_product,
    "flatness": _cmd_flatness,
    "hilbert": _cmd_hilbert,
    "koszul-probe": _cmd_koszul_probe,
    "gl3-generic": _cmd_gl3_generic,
    "gl3-degrees": _cmd_gl3_degrees,
    "convex-certify": _cmd_convex_certify,
    "poisson-closure": _cmd_poisson_closure,
    "ext-four": _cmd_ext_four,
    "valuation-cover": _cmd_valuation_cover,
    "qmatrix-check": _cmd_qmatrix_check,
    "howe-check": _cmd_howe_check,
    "audit-all": _cmd_audit_all,
}


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="braidpow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *groups):
        p = sub.add_parser(name, help=help_text)
        if "l" in groups:
            p.add_argument("--l", type=int, help="gl_2 highest weight (l, 0)")
        if "dk" in groups:
            p.add_argument("--d", type=int)
            p.add_argument("--k", type=int)
        if "mode" in groups:
            p.add_argument(
                "--mode", choices=("exact", "specialize"), default="exact"
            )
            p.add_argument("--seed", type=int, default=None)
        if "guards" in groups:
            p.add_argument("--override-guards", action="store_true")
        p.add_argument("--csv", metavar="PATH", default=None)
        return p

    for name in ("sym-power", "ext-power"):
        p = add(name, f"{name.split('-')[0]} side braided power", "l", "dk", "mode", "guards")
        p.add_argument("--n", type=int, required=True)

    p = add("triple-product", "three-factor braided product", "mode")
    p.add_argument("--beta", required=True, metavar="a,b,c")
    p.add_argument("--eps", required=True, choices=("+", "-"))

    p = add("flatness", "flat square classification for one weight")
    p.add_argument("--l", type=int, required=True)

    p = add("hilbert", "symmetric power dimension table", "mode", "guards")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("koszul-probe", "inverse exterior Hilbert series")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    for name, help_text in (
        ("gl3-generic", "maximal-minor genericity of paired bases"),
        ("gl3-degrees", "degree recursion on paired bases"),
    ):
        p = add(name, help_text)
        p.add_argument("--lam", metavar="a,b,c", default=None)

    p = add("convex-certify", "extremal maps on random staircases", "guards")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = add("poisson-closure", "classical closure dimension table", "guards")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("ext-four", "fourth exterior power vanishing", "guards")
    p.add_argument("--l", type=int, required=True)

    p = add("valuation-cover", "leading-monomial cover of 4-subsets")
    p.add_argument("--l", type=int, required=True)

    p = add("qmatrix-check", "quantum matrix relations", "guards")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("howe-check", "bigraded dimension identity")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    add("audit-all", "run every verification stage", "mode")
    return parser


def _write_csv(path: str, table) -> None:
    header, rows = table
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "mode", "exact") == "specialize" and args.seed is None:
            raise _UsageError("specialize mode requires --seed")
        if getattr(args, "l", None) is not None and args.l < 0:
            raise _UsageError("--l must be nonnegative")
        if getattr(args, "n", None) is not None and args.n < 0:
            raise _UsageError("--n must be nonnegative")
        for flag in ("d", "k"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise _UsageError(f"--{flag} must be positive")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    flags: list = []
    try:
        payload, verdicts, found, table = _HANDLERS[args.command](args)
        if table is not None and args.csv:
            _write_csv(args.csv, table)
        flags = found
        code = 2 if "fail" in verdicts.values() else 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (GuardError, InfeasibleError, ValueError, OSError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        verdicts = {}
        code = 1
    except (TheoremViolation, ModuleAuditError, ArithmeticError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        verdicts = {"run": "fail"}
        code = 2
    except Exception as exc:
        payload = {"error": "internal", "message": f"{type(exc).__name__}: {exc}"}
        verdicts = {"run": "fail"}
        code = 2

    envelope = {
        "command": args.command,
        "argv": argv,
        "config": {
            "mode": getattr(args, "mode", "exact"),
            "seed": getattr(args, "seed", None),
            "override_guards": bool(getattr(args, "override_guards", False)),
            "csv": args.csv,
        },
        "payload": payload,
        "verdicts": verdicts,
        "conjecture_flags": flags,
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    print(json.dumps(envelope, indent=2, sort_keys=True, default=_plain))
    return code


def main() -> None:
    sys.exit(run())
