"""Every function in src/braidpow has a program caller.

A def is live when it is reachable by name from a root: a module-level
statement other than an import, cli.main, an audit stage
(acceptance.AUDIT_STAGES), a target of the benchmark's per-layer tracer
(bench/layertrace.py), or a def that Python or a library calls for the
program: a dunder, or cli._Parser.error.  Reachability goes by name
alone: a def whose name a live def mentions, as a bare name or as an
attribute, is live.  So two defs of one name live or die together, which can only
keep a dead def, never flag a live one.  A reference route that only
the tests take belongs in tests/, beside dict_engine.py and oracles.py."""

import ast
import sys
from pathlib import Path

from braidpow import acceptance

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "braidpow"
BENCH = ROOT / "bench"

# argparse calls it; no name in the program does
CALLED_BY_ARGPARSE = "cli._Parser.error"


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names(node) -> set:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _scan(body, prefix: str, defs: dict, names: set) -> None:
    """Record every def under body in defs, {qualified name: node}, and
    the names its other statements mention in names."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{stmt.name}"
            defs[name] = stmt
            for inner in ast.walk(stmt):
                if inner is not stmt and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs[f"{name}.{inner.name}"] = inner
        elif isinstance(stmt, ast.ClassDef):
            for node in stmt.decorator_list + stmt.bases + stmt.keywords:
                names |= _names(node)
            _scan(stmt.body, f"{prefix}.{stmt.name}", defs, names)
        elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names |= _names(stmt)


def _tracer_targets() -> list:
    sys.path.insert(0, str(BENCH))
    try:
        import layertrace
        import workloads

        table = layertrace.layers(workloads.stage_names())
    finally:
        sys.path.remove(str(BENCH))
    return [t for targets in table.values() for t in targets]


def _dead_defs() -> list:
    defs: dict = {}
    names: set = set()
    for path in sorted(SRC.glob("*.py")):
        _scan(ast.parse(path.read_text()).body, path.stem, defs, names)
    roots = {"cli.main", CALLED_BY_ARGPARSE, *_tracer_targets()}
    roots |= {f"{fn.__module__.split('.')[-1]}.{fn.__qualname__}" for _, fn in acceptance.AUDIT_STAGES}
    # a root that names no def here would make this test vacuous for it
    assert roots <= defs.keys()
    roots |= {qual for qual, node in defs.items() if _dunder(node.name)}
    live = set()
    grown = True
    while grown:
        grown = False
        for qual, node in defs.items():
            if qual not in live and (qual in roots or node.name in names):
                live.add(qual)
                names |= _names(node)
                grown = True
    return sorted(defs.keys() - live)


def test_every_function_in_src_has_a_program_caller():
    dead = _dead_defs()
    assert not dead, f"no program caller reaches {', '.join(dead)}"
