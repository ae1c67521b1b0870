"""Command line front end.

Every run past argument checking prints one JSON envelope to stdout:
command echo, config, payload, verdicts, conjecture flags, and the wall
time.  The payload is deterministic for identical argv + seed (wall
time lives outside it), so runs can be diffed byte for byte.  Exit
codes: 0 when every verdict passes, 2 when a theorem check fails or the
run itself fails (any unexpected exception gives the payload
{"error": "internal", ...} and the verdict run: fail), 1 on a guard
error and on a --csv path that cannot be written, each in an envelope.
A usage error (a bad or missing argument, or specialize mode without
--seed) prints "usage error: ..." to stderr and no envelope, and exits
1.  One table, _COMMANDS, holds one record per command: its help line,
its flags, its handler and its size guard, if it has one.  Size guards
live only there, each checked before its handler runs.
Closed forms live only in braided: a power's and a triple product's
verdicts are braided.closed_form_verdicts of the computed decomposition,
so one off its closed form is printed with a fail verdict rather than
raised.

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
import functools
import json
import random
import sys
import time
from collections import namedtuple
from fractions import Fraction
from math import comb

from . import acceptance
from .braided import (
    at_point,
    closed_form_verdicts,
    closed_forms,
    conjectural_sym_dim,
    decompose_power,
    decompose_triple,
    dim_sym_cube,
    flat_lower_bound,
    flatness_check,
    growth_flag,
    hilbert_table,
    koszul_series_probe,
    power_dims,
    run_mode,
    triple_closed_forms,
)
from .classical import poisson_closure_dims, valuation_cover_check
from .convexopt import certify_random_class
from .errors import GuardError, InfeasibleError, TheoremViolation
from .gl3canon import dcb_module, degree_recursion_check, genericity_check
from .qmat import check_qmatrix_relations, howe_dim_check
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
    if args.l is not None:
        return simple_gl2(args.l, 0), f"simple_gl2({args.l},0)"
    if args.k is not None:
        return outer(standard_gld(args.d), standard_gld(args.k)), f"matrix({args.d},{args.k})"
    return standard_gld(args.d), f"standard_gld({args.d})"


def _cmd_power(args):
    kind = args.command.removesuffix("-power")
    V, name = _power_module(args)
    n = args.n
    dec, samples = run_mode(
        args.mode, args.seed, lambda q0: decompose_power(at_point(V, q0), kind, n)
    )
    payload = {
        "module": name,
        "kind": kind,
        "n": n,
        "dim": dec.total_dim(),
        "components": dec.components(),
        "mode": args.mode,
        "samples": samples,
    }
    forms = closed_forms(V, kind, n)
    if not forms:
        payload["closed_form_known"] = False
    verdicts = closed_form_verdicts(dec, forms)
    flags = []
    if args.l is not None and kind == "sym" and n >= 4:
        flags.append(growth_flag(args.l, n, payload["dim"]))
    table = (
        ["component", "multiplicity"],
        [[" ".join(str(x) for x in w), m] for w, m in dec.components()],
    )
    return payload, verdicts, flags, table


def _cmd_triple_product(args):
    beta = _ints(args.beta, 3, "--beta")
    if any(b < 0 for b in beta):
        raise _UsageError("--beta entries must be nonnegative")
    dec = decompose_triple(beta, args.eps, mode=args.mode, seed=args.seed)
    forms = triple_closed_forms(beta, args.eps)
    payload = {
        "beta": list(beta),
        "eps": args.eps,
        "mode": args.mode,
        "dim": dec.total_dim(),
        "components": dec.components(),
        "admissible": forms["matches_admissibility"].components(),
    }
    verdicts = closed_form_verdicts(dec, forms)
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
    table_obj = hilbert_table(args.l, args.n, "sym", mode=args.mode, seed=args.seed)
    payload = table_obj.as_dict()
    payload["upto"] = args.n
    verdicts = {}
    if args.n >= 3:
        verdicts["cube_matches_closed_form"] = (
            "pass" if table_obj.dims[3] == dim_sym_cube(args.l) else "fail"
        )
    flags = table_obj.conjecture
    table = (["n", "dim"], [[n, d] for n, d in enumerate(table_obj.dims)])
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


def _cmd_convex_certify(args):
    rng = random.Random(args.seed)
    instances, failures = [], []
    for _ in range(args.trials):
        # an instance that breaks its theorem is reported, not certified
        try:
            instances.append(certify_random_class(args.m, args.n, rng))
        except TheoremViolation as exc:
            failures.append(str(exc))
    certified = len(instances)
    payload = {
        "m": args.m,
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "certified": certified,
        "instances": instances,
    }
    if failures:
        payload["failures"] = failures
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
    sym = poisson_closure_dims(args.l, upto, "sym")
    ext = poisson_closure_dims(args.l, upto, "ext")
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
    dims = poisson_closure_dims(l, 4, "ext")
    payload = {"l": l, "classical_dims": dims, "braided_dims": None}
    verdicts = {"classical_vanishes": "pass" if dims[4] == 0 else "fail"}
    # the braided half is the exact ext-power --l l --n 4, under its row
    braided = argparse.Namespace(l=l, n=4, mode="exact")
    rule = None if args.override_guards else _exact_power_rule(braided)
    if rule is None:
        bdims = power_dims(simple_gl2(l, 0), "ext", 4)
        payload["braided_dims"] = bdims
        verdicts["braided_vanishes"] = "pass" if bdims[4] == 0 else "fail"
    else:
        payload["braided_guard"] = _refusal(args, rule)
    table = (["n", "classical_dim"], [[n, d] for n, d in enumerate(dims)])
    return payload, verdicts, [], table


def _cmd_valuation_cover(args):
    payload = valuation_cover_check(args.l)
    complete = payload["covered"] and "delta_broken" not in payload
    verdicts = {"cover_complete": "pass" if complete else "fail"}
    table = (
        ["quantity", "value"],
        [[k, payload[k]] for k in sorted(payload)],
    )
    return payload, verdicts, [], table


def _cmd_qmatrix_check(args):
    payload = check_qmatrix_relations(args.d, args.k)
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


# ---------------------------------------------------------------------------
# guards: a command's guard maps its parsed args to the text of the size
# rule they break, or None.  run() consults it once, after usage validation
# and before the handler, unless --override-guards is passed.  Commands
# without that flag have no guard, and library calls are not guarded.


def _exact_power_rule(args):
    if args.mode == "specialize":
        return None
    if args.l is not None:
        if args.n > 4 or args.l > 6:
            return "exact powers of gl_2 simples are guarded to n <= 4 and l <= 6"
        return None
    dim = args.d * (args.k or 1)
    # 2**13 already exceeds 4096, so capping the exponent keeps every
    # verdict and keeps a huge --n instant
    if dim ** min(args.n, 13) > 4096:
        return f"ambient dimension {dim}**{args.n} exceeds 4096"
    return None


def _closure_rule(args):
    # C(l+n, n) grows in l and in n and passes 10**4 once either does (for
    # the other nonzero), so capping both at 10**4 keeps every verdict
    l, n = min(args.l, 10**4), min(args.n, 10**4)
    if comb(l + n, n) > 10**4:
        return f"degree-{args.n} closure has C({args.l}+{args.n}, {args.n}) > 10**4 monomials"
    return None


def _refusal(args, rule: str) -> str:
    via = "--mode specialize or " if hasattr(args, "mode") else ""
    return f"{rule}; use {via}--override-guards"


# ---------------------------------------------------------------------------
# commands: one record per command holds its help line, its flags in the
# order its help lists them, its handler and its guard.  _parse builds only
# the invoked command's parser from it; the full parser, built from the same
# table, serves top-level help, an empty argv and an unknown command.


def _required_ints(*names):
    return tuple((f"--{name}", {"type": int, "required": True}) for name in names)


_CSV = ("--csv", {"metavar": "PATH", "default": None})
_MODE = (
    ("--mode", {"choices": ("exact", "specialize"), "default": "exact"}),
    ("--seed", {"type": int, "default": None}),
)
_OVERRIDE = ("--override-guards", {"action": "store_true"})
_POWER = (
    ("--l", {"type": int, "help": "gl_2 highest weight (l, 0)"}),
    ("--d", {"type": int}),
    ("--k", {"type": int}),
    *_MODE,
    _OVERRIDE,
    _CSV,
    *_required_ints("n"),
)
_LAM = (_CSV, ("--lam", {"metavar": "a,b,c", "default": None}))

_Command = namedtuple("_Command", "help flags handler guard", defaults=(None,))


_COMMANDS = {
    "sym-power": _Command("sym side braided power", _POWER, _cmd_power, _exact_power_rule),
    "ext-power": _Command("ext side braided power", _POWER, _cmd_power, _exact_power_rule),
    "triple-product": _Command(
        "three-factor braided product",
        (
            *_MODE,
            _CSV,
            ("--beta", {"required": True, "metavar": "a,b,c"}),
            ("--eps", {"required": True, "choices": ("+", "-")}),
        ),
        _cmd_triple_product,
    ),
    "flatness": _Command(
        "flat square classification for one weight", (_CSV, *_required_ints("l")), _cmd_flatness
    ),
    "hilbert": _Command(
        "symmetric power dimension table",
        (*_MODE, _OVERRIDE, _CSV, *_required_ints("l", "n")),
        _cmd_hilbert,
        _exact_power_rule,
    ),
    "koszul-probe": _Command(
        "inverse exterior Hilbert series", (_CSV, *_required_ints("l", "n")), _cmd_koszul_probe
    ),
    "gl3-generic": _Command(
        "maximal-minor genericity of paired bases",
        _LAM,
        lambda args: _cmd_gl3(args, genericity_check, "minors_generic"),
    ),
    "gl3-degrees": _Command(
        "degree recursion on paired bases",
        _LAM,
        lambda args: _cmd_gl3(args, degree_recursion_check, "degrees_match"),
    ),
    "convex-certify": _Command(
        "extremal maps on random staircases",
        (
            _OVERRIDE,
            _CSV,
            *_required_ints("m", "n"),
            ("--trials", {"type": int, "default": 100}),
            ("--seed", {"type": int, "default": 0}),
        ),
        _cmd_convex_certify,
        lambda a: "exhaustion is guarded to m <= 6 and n <= 5" if a.m > 6 or a.n > 5 else None,
    ),
    "poisson-closure": _Command(
        "classical closure dimension table",
        (_OVERRIDE, _CSV, *_required_ints("l", "n")),
        _cmd_poisson_closure,
        _closure_rule,
    ),
    "ext-four": _Command(
        "fourth exterior power vanishing", (_OVERRIDE, _CSV, *_required_ints("l")), _cmd_ext_four
    ),
    "valuation-cover": _Command(
        "leading-monomial cover of 4-subsets", (_CSV, *_required_ints("l")), _cmd_valuation_cover
    ),
    "qmatrix-check": _Command(
        "quantum matrix relations",
        (_OVERRIDE, _CSV, *_required_ints("d", "k")),
        _cmd_qmatrix_check,
        lambda a: (
            f"the {a.d} x {a.k} grid has {a.d * a.k} generators, more than 16"
            if a.d * a.k > 16
            else None
        ),
    ),
    "howe-check": _Command(
        "bigraded dimension identity", (_CSV, *_required_ints("d", "k", "n")), _cmd_howe_check
    ),
    "audit-all": _Command("run every verification stage", (*_MODE, _CSV), _cmd_audit_all),
}


def _add_flags(parser: _Parser, flags) -> _Parser:
    for flag, kwargs in flags:
        parser.add_argument(flag, **kwargs)
    return parser


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="braidpow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        _add_flags(sub.add_parser(name, help=command.help), command.flags)
    return parser


@functools.cache
def _command_parser(name: str) -> _Parser:
    # the parser _build_parser adds for name, standing alone
    return _add_flags(_Parser(prog=f"braidpow {name}"), _COMMANDS[name].flags)


def _parse(argv: list) -> argparse.Namespace:
    if argv and argv[0] in _COMMANDS:
        return _command_parser(argv[0]).parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return _build_parser().parse_args(argv)


def _write_csv(path: str, table) -> None:
    header, rows = table
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        if getattr(args, "mode", "exact") == "specialize" and args.seed is None:
            raise _UsageError("specialize mode requires --seed")
        if getattr(args, "l", None) is not None and args.l < 0:
            raise _UsageError("--l must be nonnegative")
        if getattr(args, "n", None) is not None and args.n < 0:
            raise _UsageError("--n must be nonnegative")
        for flag in ("d", "k", "m", "trials"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise _UsageError(f"--{flag} must be positive")
        if args.command in ("convex-certify", "koszul-probe") and args.n < 1:
            raise _UsageError("--n must be positive")
        if args.command in ("sym-power", "ext-power"):
            if (args.l is None) == (args.d is None):
                raise _UsageError("pass exactly one of --l (gl_2 simple) or --d")
            if args.d is None and args.k is not None:
                raise _UsageError("--k needs --d")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    t0 = time.perf_counter()

    def envelope(payload, verdicts, flags) -> str:
        return json.dumps(
            {
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
            },
            indent=2,
            sort_keys=True,
            default=_plain,
        )

    # the handler's envelope is written inside the try, so a payload that
    # _plain cannot write is an internal error with its own envelope
    try:
        command = _COMMANDS[args.command]
        rule = command.guard(args) if command.guard and not args.override_guards else None
        if rule is not None:
            raise GuardError(_refusal(args, rule))
        payload, verdicts, found, table = command.handler(args)
        if table is not None and args.csv:
            _write_csv(args.csv, table)
        code = 2 if "fail" in verdicts.values() else 0
        text = envelope(payload, verdicts, found)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (GuardError, InfeasibleError, ValueError, OSError) as exc:
        code = 1
        text = envelope({"error": type(exc).__name__, "message": str(exc)}, {}, [])
    except (TheoremViolation, ModuleAuditError, ArithmeticError) as exc:
        code = 2
        text = envelope({"error": type(exc).__name__, "message": str(exc)}, {"run": "fail"}, [])
    except Exception as exc:
        code = 2
        text = envelope(
            {"error": "internal", "message": f"{type(exc).__name__}: {exc}"}, {"run": "fail"}, []
        )
    print(text)
    return code


def main() -> None:
    sys.exit(run())
