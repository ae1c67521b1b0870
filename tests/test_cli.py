"""Envelope shape, worked examples, exit codes, determinism, CSV."""

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidpow import classical, cli, qmat
from braidpow.braided import closed_forms
from braidpow.errors import TheoremViolation
from braidpow.uqmod import IrrepMultiset, ModuleAuditError, outer, standard_gld


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    envelope = json.loads(captured.out) if captured.out.strip() else None
    return code, envelope, captured.err


def test_envelope_shape(capsys):
    code, env, _ = run_cli(capsys, "koszul-probe", "--l", "2", "--n", "4")
    assert code == 0
    assert set(env) == {
        "argv",
        "command",
        "config",
        "conjecture_flags",
        "payload",
        "verdicts",
        "wall_time_s",
    }
    assert env["command"] == "koszul-probe"
    assert env["argv"] == ["koszul-probe", "--l", "2", "--n", "4"]
    assert env["config"]["mode"] == "exact"


def test_sym_power_worked_example(capsys):
    code, env, _ = run_cli(capsys, "sym-power", "--l", "3", "--n", "3")
    assert code == 0
    assert env["payload"]["dim"] == 16
    assert env["payload"]["components"] == [[[9, 0], 1], [[7, 2], 1]]
    assert env["verdicts"] == {"matches_cube_closed_form": "pass"}


def test_flatness_worked_example(capsys):
    code, env, _ = run_cli(capsys, "flatness", "--l", "2")
    assert code == 0
    assert env["payload"]["flat"] is True
    assert env["payload"]["sym_cube_dim"] == 10
    assert env["payload"]["flat_cube_dim"] == 10
    assert all(v == "pass" for v in env["verdicts"].values())


def test_convex_certify_worked_example(capsys):
    code, env, _ = run_cli(
        capsys,
        "convex-certify", "--m", "4", "--n", "3", "--trials", "100",
        "--seed", "7",
    )
    assert code == 0
    assert env["payload"]["certified"] == 100
    assert env["payload"]["trials"] == 100
    assert len(env["payload"]["instances"]) == 100
    assert env["verdicts"] == {"all_certified": "pass"}


def test_convex_certify_reports_an_instance_that_fails(capsys, monkeypatch):
    real = cli.certify_random_class
    calls = []

    def once_wrong(m, n, rng):
        calls.append(1)
        if len(calls) == 3:
            raise TheoremViolation("forced extremal failure")
        return real(m, n, rng)

    monkeypatch.setattr(cli, "certify_random_class", once_wrong)
    code, env, _ = run_cli(
        capsys, "convex-certify", "--m", "3", "--n", "3", "--trials", "5", "--seed", "5"
    )
    assert code == 2
    assert env["verdicts"] == {"all_certified": "fail"}
    assert env["payload"]["certified"] == 4 == len(env["payload"]["instances"])
    assert env["payload"]["failures"] == ["forced extremal failure"]
    monkeypatch.setattr(cli, "certify_random_class", real)
    code, env, _ = run_cli(
        capsys, "convex-certify", "--m", "3", "--n", "3", "--trials", "5", "--seed", "5"
    )
    assert code == 0
    assert "failures" not in env["payload"]


def test_payloads_are_byte_identical_for_same_argv_and_seed(capsys):
    argv = ("convex-certify", "--m", "3", "--n", "3", "--trials", "25",
            "--seed", "5")
    _, env1, _ = run_cli(capsys, *argv)
    _, env2, _ = run_cli(capsys, *argv)
    blob1 = json.dumps(env1["payload"], sort_keys=True).encode()
    blob2 = json.dumps(env2["payload"], sort_keys=True).encode()
    assert blob1 == blob2
    assert env1["verdicts"] == env2["verdicts"]
    assert env1["conjecture_flags"] == env2["conjecture_flags"]


def test_specialized_run_agrees_with_exact(capsys):
    _, exact, _ = run_cli(capsys, "sym-power", "--l", "2", "--n", "3")
    _, sampled, _ = run_cli(
        capsys,
        "sym-power", "--l", "2", "--n", "3", "--mode", "specialize",
        "--seed", "3",
    )
    assert exact["payload"]["dim"] == sampled["payload"]["dim"]
    assert exact["payload"]["components"] == sampled["payload"]["components"]
    assert len(sampled["payload"]["samples"]) == 2


USAGE_ERRORS = (
    ("sym-power", "--n", "3"),
    ("sym-power", "--l", "2", "--d", "2", "--n", "2"),
    ("sym-power", "--k", "2", "--n", "2"),
    ("hilbert", "--l", "2", "--n", "3", "--mode", "specialize"),
    ("triple-product", "--beta", "1,2", "--eps", "+"),
    ("audit-all", "--override-guards"),
    ("no-such-command",),
)


def test_usage_errors_exit_one(capsys):
    for argv in USAGE_ERRORS:
        code, env, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert env is None
        assert err


def _parsed(parse, argv):
    """What parse makes of argv: a Namespace, a usage error's text, or
    the exit code and text of a help page."""
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            return parse(list(argv))
    except cli._UsageError as exc:
        return f"usage error: {exc}"
    except SystemExit as exc:
        return exc.code, out.getvalue()


def test_a_command_parses_alone_as_under_the_full_parser():
    # run() parses a known command with that command's parser alone; it
    # must read every argv as the full parser's subparser does
    golden = json.loads(Path(__file__).with_name("golden_envelopes.json").read_text())
    argvs = [
        *(entry["argv"] for entry in golden),
        *USAGE_ERRORS,
        *([name, "--help"] for name in cli._COMMANDS),
    ]
    full = cli._build_parser().parse_args
    for argv in argvs:
        assert _parsed(cli._parse, argv) == _parsed(full, argv), argv


def _exit_code(argv) -> int:
    try:
        return cli.run(list(argv))
    except SystemExit as exc:
        return exc.code


def test_only_help_and_errors_build_the_full_parser(capsys, monkeypatch):
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
    assert _exit_code(["koszul-probe", "--l", "2", "--n", "4"]) == 0
    assert _exit_code(["sym-power", "--n", "3"]) == 1
    for name in cli._COMMANDS:
        assert _exit_code([name, "--help"]) == 0
    assert built == []
    capsys.readouterr()
    assert _exit_code(["--help"]) == 0
    listing = capsys.readouterr().out
    assert all(name in listing for name in cli._COMMANDS)
    assert _exit_code([]) == 1
    assert _exit_code(["no-such-command"]) == 1
    assert len(built) == 3


# counts the argparse parsers built by importing the CLI, then by one
# command's parser, so a probe that counts nothing cannot pass
_IMPORT_PROBE = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)
from braidpow import cli
print(len(built))
cli._command_parser("flatness")
print(len(built))
"""


def test_importing_the_cli_builds_no_parser():
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["0", "1"]


def _set_handler(monkeypatch, name, handler):
    # command name's record with handler in place of its own
    monkeypatch.setitem(cli._COMMANDS, name, cli._COMMANDS[name]._replace(handler=handler))


def _stub_handlers(monkeypatch) -> list:
    # every handler records its command and computes nothing
    calls = []
    for name in cli._COMMANDS:
        _set_handler(monkeypatch, name, lambda args: calls.append(args.command) or ({}, {}, [], None))
    return calls


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(list(argv))
    return code, json.loads(out.getvalue()) if out.getvalue().strip() else None


def test_guard_errors_exit_one_with_envelope(capsys, monkeypatch):
    calls = _stub_handlers(monkeypatch)
    code, env, _ = run_cli(capsys, "hilbert", "--l", "3", "--n", "6")
    assert code == 1
    assert env["payload"]["error"] == "GuardError"
    assert env["verdicts"] == {}
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ("hilbert", "--l", "3", "--n", "6"),
        ("convex-certify", "--m", "7", "--n", "3"),
        ("poisson-closure", "--l", "20", "--n", "6"),
        ("qmatrix-check", "--d", "5", "--k", "4"),
    ],
    ids=lambda argv: argv[0],
)
def test_guard_messages_name_the_cli_flag(capsys, monkeypatch, argv):
    # each is refused before any work starts; the message names the flags
    # a CLI user passes, --mode specialize only where the command has it
    calls = _stub_handlers(monkeypatch)
    code, env, _ = run_cli(capsys, *argv)
    assert calls == []
    assert code == 1
    assert env["payload"]["error"] == "GuardError"
    via = "--mode specialize or " if argv[0] == "hilbert" else ""
    assert env["payload"]["message"].endswith(f"; use {via}--override-guards")
    assert "override_guards" not in env["payload"]["message"]


# The last admitted and the first refused argv of every guard row.
GUARD_REFUSED = [
    ("sym-power", "--l", "7", "--n", "1"),
    ("sym-power", "--l", "0", "--n", "5"),
    ("ext-power", "--l", "7", "--n", "1"),
    ("sym-power", "--d", "4", "--n", "7"),
    ("sym-power", "--d", "2", "--n", "13"),
    ("sym-power", "--d", "2", "--k", "3", "--n", "5"),
    ("ext-power", "--d", "2", "--k", "3", "--n", "5"),
    ("hilbert", "--l", "7", "--n", "0"),
    ("hilbert", "--l", "0", "--n", "5"),
    ("poisson-closure", "--l", "20", "--n", "4"),
    ("convex-certify", "--m", "7", "--n", "5"),
    ("convex-certify", "--m", "6", "--n", "6"),
    ("qmatrix-check", "--d", "3", "--k", "6"),
]
GUARD_ADMITTED = [
    ("sym-power", "--l", "6", "--n", "4"),
    ("ext-power", "--l", "6", "--n", "4"),
    ("sym-power", "--d", "4", "--n", "6"),
    ("sym-power", "--d", "2", "--n", "12"),
    ("sym-power", "--d", "2", "--k", "2", "--n", "6"),
    ("ext-power", "--d", "4", "--k", "1", "--n", "6"),
    ("hilbert", "--l", "6", "--n", "4"),
    ("poisson-closure", "--l", "19", "--n", "4"),
    ("convex-certify", "--m", "6", "--n", "5"),
    ("qmatrix-check", "--d", "4", "--k", "4"),
    # specialize mode is not guarded
    ("sym-power", "--l", "40", "--n", "9", "--mode", "specialize", "--seed", "1"),
    ("ext-power", "--d", "9", "--k", "9", "--n", "9", "--mode", "specialize", "--seed", "1"),
    ("hilbert", "--l", "40", "--n", "40", "--mode", "specialize", "--seed", "1"),
]


@pytest.mark.parametrize("argv", GUARD_REFUSED, ids=" ".join)
def test_guard_rows_refuse_before_the_handler(monkeypatch, argv):
    calls = _stub_handlers(monkeypatch)
    code, env = _run_quiet(argv)
    assert code == 1
    assert env["payload"]["error"] == "GuardError"
    assert env["verdicts"] == {}
    assert calls == []
    # --override-guards skips the row and reaches the handler
    assert _run_quiet([*argv, "--override-guards"])[0] == 0
    assert calls == [argv[0]]


@pytest.mark.parametrize("argv", GUARD_ADMITTED, ids=" ".join)
def test_guard_rows_admit_up_to_their_bound(monkeypatch, argv):
    calls = _stub_handlers(monkeypatch)
    code, env = _run_quiet(argv)
    assert code == 0
    assert env["payload"] == {}
    assert calls == [argv[0]]


_UPTO = 10**6
_PAST_A_BOUNDARY = st.one_of(
    # exact gl_2 simple powers: l <= 6 and n <= 4
    st.tuples(
        st.sampled_from(["sym-power", "ext-power", "hilbert"]),
        st.one_of(
            st.tuples(st.integers(7, _UPTO), st.integers(0, _UPTO)),
            st.tuples(st.integers(0, _UPTO), st.integers(5, _UPTO)),
        ),
    ).map(lambda t: (t[0], "--l", str(t[1][0]), "--n", str(t[1][1]))),
    # exact standard and matrix powers: (d k)**n <= 4096
    st.tuples(
        st.sampled_from(["sym-power", "ext-power"]),
        st.integers(1, _UPTO),
        st.integers(1, _UPTO),
        st.integers(0, _UPTO),
    )
    .filter(lambda t: (t[1] * t[2]) ** t[3] > 4096 if t[3] < 13 else t[1] * t[2] > 1)
    .map(lambda t: (t[0], "--d", str(t[1]), "--k", str(t[2]), "--n", str(t[3]))),
    # poisson-closure: C(l+n, n) <= 10**4, which grows in l and in n and
    # exceeds the bound from (20, 4), (4, 20), (10**4, 1) and (1, 10**4) on
    st.sampled_from([(20, 4), (4, 20), (10**4, 1), (1, 10**4)])
    .flatmap(lambda lo: st.tuples(st.integers(lo[0], _UPTO), st.integers(lo[1], _UPTO)))
    .map(lambda t: ("poisson-closure", "--l", str(t[0]), "--n", str(t[1]))),
    # convex-certify: m <= 6 and n <= 5
    st.one_of(
        st.tuples(st.integers(7, _UPTO), st.integers(1, _UPTO)),
        st.tuples(st.integers(1, _UPTO), st.integers(6, _UPTO)),
    ).map(lambda t: ("convex-certify", "--m", str(t[0]), "--n", str(t[1]))),
    # qmatrix-check: d k <= 16
    st.integers(1, _UPTO)
    .flatmap(lambda d: st.tuples(st.just(d), st.integers(16 // d + 1, _UPTO)))
    .map(lambda t: ("qmatrix-check", "--d", str(t[0]), "--k", str(t[1]))),
)


@settings(max_examples=150, deadline=None)
@given(_PAST_A_BOUNDARY)
def test_sizes_past_a_boundary_are_refused_up_front(argv):
    with pytest.MonkeyPatch.context() as mp:
        calls = _stub_handlers(mp)
        code, env = _run_quiet(argv)
    assert code == 1
    assert env["payload"]["error"] == "GuardError"
    assert calls == []


def test_usage_errors_beat_guards(monkeypatch):
    calls = _stub_handlers(monkeypatch)
    for argv in (
        ("sym-power", "--l", "7", "--d", "2", "--n", "3"),
        ("sym-power", "--k", "9", "--n", "9"),
        ("convex-certify", "--m", "0", "--n", "7"),
        ("convex-certify", "--m", "9", "--n", "0"),
        ("convex-certify", "--m", "9", "--n", "9", "--trials", "0"),
        ("qmatrix-check", "--d", "0", "--k", "99"),
    ):
        code, env = _run_quiet(argv)
        assert code == 1 and env is None, argv
    assert calls == []


def test_ext_four_says_why_its_braided_half_is_missing(capsys, monkeypatch):
    computed = []

    def fake_power_dims(V, kind, n):
        computed.append((kind, n))
        return [1, 0, 0, 0, 0]

    monkeypatch.setattr(cli, "power_dims", fake_power_dims)
    code, env, _ = run_cli(capsys, "ext-four", "--l", "7")
    assert code == 0
    assert env["payload"]["braided_dims"] is None
    assert env["payload"]["braided_guard"] == (
        "exact powers of gl_2 simples are guarded to n <= 4 and l <= 6; "
        "use --override-guards"
    )
    assert "braided_vanishes" not in env["verdicts"]
    assert computed == []
    for argv in (("ext-four", "--l", "6"), ("ext-four", "--l", "7", "--override-guards")):
        code, env, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "braided_guard" not in env["payload"]
        assert env["verdicts"]["braided_vanishes"] == "pass"
    assert len(computed) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("sym-power", "--d", "3", "--n", "3"),
        ("ext-power", "--d", "3", "--n", "3"),
        ("sym-power", "--d", "2", "--k", "2", "--n", "3"),
        ("ext-power", "--d", "2", "--k", "2", "--n", "3"),
    ],
)
def test_specialized_standard_and_matrix_powers_agree_with_exact(capsys, argv):
    _, exact, _ = run_cli(capsys, *argv)
    code, sampled, _ = run_cli(capsys, *argv, "--mode", "specialize", "--seed", "3")
    assert code == 0
    assert sampled["payload"].pop("mode") == "specialize"
    assert len(sampled["payload"].pop("samples")) == 2
    assert exact["payload"].pop("mode") == "exact"
    assert exact["payload"].pop("samples") == []
    assert sampled["payload"] == exact["payload"]
    assert sampled["verdicts"] == exact["verdicts"]


def test_domain_errors_exit_one(capsys):
    code, env, _ = run_cli(capsys, "howe-check", "--d", "3", "--k", "2",
                           "--n", "2")
    assert code == 1
    assert env["payload"]["error"] == "ValueError"


def test_failed_verdict_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(cli, "koszul_series_probe", lambda l, n: [1] * n)
    code, env, _ = run_cli(capsys, "koszul-probe", "--l", "3", "--n", "6")
    assert code == 2
    assert env["verdicts"] == {"series_goes_negative": "fail"}


def test_theorem_violation_exits_two(capsys, monkeypatch):
    def boom(*a, **k):
        raise TheoremViolation("forced")

    monkeypatch.setattr(cli, "valuation_cover_check", boom)
    code, env, _ = run_cli(capsys, "valuation-cover", "--l", "3")
    assert code == 2
    assert env["payload"]["error"] == "TheoremViolation"
    assert env["verdicts"] == {"run": "fail"}


def test_broken_qmatrix_relations_print_a_fail_verdict(capsys, monkeypatch):
    # a product that forgets its right factor breaks every q-swap
    monkeypatch.setattr(qmat, "mat_mul", lambda d, u, v: u)
    code, env, _ = run_cli(capsys, "qmatrix-check", "--d", "2", "--k", "2")
    assert code == 2
    assert env["verdicts"] == {"relations_hold": "fail"}
    assert env["payload"]["ok"] is False
    assert env["payload"]["relations"] == 6
    assert {"relation": "row q-swap", "at": [0, 0, 1]} in env["payload"]["failures"]


def test_a_broken_dimension_identity_prints_a_fail_verdict(capsys, monkeypatch):
    monkeypatch.setattr(qmat, "dim_irrep", lambda lam: 1)
    code, env, _ = run_cli(capsys, "howe-check", "--d", "2", "--k", "2", "--n", "2")
    assert code == 2
    assert env["verdicts"] == {"dimension_identity": "fail"}
    assert env["payload"]["dimension"] == 2
    assert env["payload"]["polynomial_count"] == 10


def test_a_broken_valuation_cover_prints_a_fail_verdict(capsys, monkeypatch):
    with monkeypatch.context() as m:
        # a pairing that vanishes everywhere breaks the delta pattern
        m.setattr(classical, "delta_coefficient", lambda l, i, k: 0)
        code, env, _ = run_cli(capsys, "valuation-cover", "--l", "4")
    assert code == 2
    assert env["verdicts"] == {"cover_complete": "fail"}
    assert env["payload"]["covered"] is True
    assert env["payload"]["delta_broken"] == [[1, 3], [1, 4]]
    # no leading monomial at all leaves every 4-subset uncovered
    monkeypatch.setattr(classical, "_xelt", lambda *a: {})
    code, env, _ = run_cli(capsys, "valuation-cover", "--l", "4")
    assert code == 2
    assert env["verdicts"] == {"cover_complete": "fail"}
    assert env["payload"]["covered"] is False
    assert len(env["payload"]["uncovered"]) == env["payload"]["subsets"] == 5
    assert "delta_broken" not in env["payload"]


def test_module_audit_error_exits_two_with_one_envelope(capsys, monkeypatch):
    def boom(*a, **k):
        raise ModuleAuditError("forced")

    monkeypatch.setattr(cli, "valuation_cover_check", boom)
    code = cli.run(["valuation-cover", "--l", "3"])
    out = capsys.readouterr().out
    env, end = json.JSONDecoder().raw_decode(out)
    assert not out[end:].strip()
    assert code == 2
    assert env["payload"] == {"error": "ModuleAuditError", "message": "forced"}
    assert env["verdicts"] == {"run": "fail"}


def test_fractions_and_sets_in_a_payload_print_as_json(capsys, monkeypatch):
    # json cannot write a Fraction or a set; the envelope writes them as
    # the fraction's text and the sorted list
    def handler(args):
        return {"ratio": Fraction(3, 2), "weights": {2, 1}}, {"ok": "pass"}, [], None

    _set_handler(monkeypatch, "valuation-cover", handler)
    code = cli.run(["valuation-cover", "--l", "3"])
    out = capsys.readouterr().out
    env, end = json.JSONDecoder().raw_decode(out)
    assert not out[end:].strip()
    assert code == 0
    assert env["payload"] == {"ratio": "3/2", "weights": [1, 2]}
    assert env["verdicts"] == {"ok": "pass"}


def test_a_payload_json_cannot_write_fails_the_run_with_one_envelope(capsys, monkeypatch):
    # _plain refuses an object it has no text for; the run still prints
    # one envelope, an internal error, and exits 2
    def handler(args):
        return {"x": object()}, {"ok": "pass"}, [], None

    _set_handler(monkeypatch, "valuation-cover", handler)
    code = cli.run(["valuation-cover", "--l", "3"])
    out = capsys.readouterr().out
    env, end = json.JSONDecoder().raw_decode(out)
    assert not out[end:].strip()
    assert code == 2
    assert env["payload"] == {"error": "internal", "message": "TypeError: cannot serialize object"}
    assert env["verdicts"] == {"run": "fail"}
    assert env["command"] == "valuation-cover"


def test_disagreeing_samples_fail_the_run(capsys, monkeypatch):
    def at_sample(V, kind, n):
        return IrrepMultiset({(V.q0.numerator, 0): 1}, V.blocks)

    monkeypatch.setattr(cli, "decompose_power", at_sample)
    code, env, _ = run_cli(
        capsys, "sym-power", "--l", "2", "--n", "3", "--mode", "specialize",
        "--seed", "1",
    )
    assert code == 2
    assert env["verdicts"] == {"run": "fail"}
    assert env["payload"]["error"] == "ArithmeticError"
    assert "samples disagree" in env["payload"]["message"]


def test_csv_export_matches_payload(capsys, tmp_path):
    path = tmp_path / "dims.csv"
    _, env, _ = run_cli(
        capsys, "hilbert", "--l", "3", "--n", "4", "--csv", str(path)
    )
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "dim"]
    assert [int(r[1]) for r in rows[1:]] == env["payload"]["dims"]


def test_csv_export_for_component_tables(capsys, tmp_path):
    path = tmp_path / "parts.csv"
    _, env, _ = run_cli(
        capsys,
        "triple-product", "--beta", "2,1,1", "--eps", "+", "--csv", str(path),
    )
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["l1", "l2", "multiplicity"]
    assert len(rows) - 1 == len(env["payload"]["components"])


def test_standard_module_powers(capsys):
    code, env, _ = run_cli(capsys, "ext-power", "--d", "3", "--n", "3")
    assert code == 0
    assert env["payload"]["dim"] == 1
    assert env["payload"]["components"] == [[[1, 1, 1], 1]]
    code, env, _ = run_cli(capsys, "sym-power", "--d", "2", "--n", "4")
    assert code == 0
    assert env["payload"]["dim"] == 5
    assert env["verdicts"]["polynomial_growth"] == "pass"


@pytest.mark.parametrize(
    "argv, verdict",
    [
        (("ext-power", "--d", "4", "--n", "2"), "matches_exterior_closed_form"),
        (("ext-power", "--d", "2", "--n", "3"), "matches_exterior_closed_form"),
        (("sym-power", "--d", "2", "--k", "3", "--n", "4"), "matches_cauchy"),
        (("ext-power", "--d", "2", "--k", "3", "--n", "4"), "matches_dual_cauchy"),
        (("ext-power", "--l", "6", "--n", "4"), "exterior_vanishes_from_degree_4"),
        (("ext-power", "--l", "2", "--n", "5"), "exterior_vanishes_from_degree_4"),
        (("ext-power", "--l", "4", "--n", "2"), "matches_low_degree_closed_form"),
        (("sym-power", "--l", "5", "--n", "2"), "matches_low_degree_closed_form"),
        (("ext-power", "--l", "5", "--n", "1"), "matches_low_degree_closed_form"),
        (("sym-power", "--l", "3", "--n", "0"), "matches_low_degree_closed_form"),
        (("sym-power", "--l", "0", "--n", "4"), "matches_flat_closed_form"),
        (("sym-power", "--l", "1", "--n", "5"), "matches_flat_closed_form"),
        (("sym-power", "--l", "2", "--n", "7"), "matches_flat_closed_form"),
    ],
)
def test_every_power_with_a_closed_form_has_its_verdict(capsys, argv, verdict):
    code, env, _ = run_cli(capsys, *argv, "--mode", "specialize", "--seed", "3")
    assert code == 0
    assert env["verdicts"] == {verdict: "pass"}


@pytest.mark.parametrize("d, k", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_cauchy_closed_forms_price_the_classical_powers(d, k):
    # the Cauchy and dual Cauchy components fill dim S^n and Lambda^n of
    # the d x k matrix module
    V = outer(standard_gld(d), standard_gld(k))
    for n in range(6):
        for kind, dim in (("sym", comb(d * k + n - 1, n)), ("ext", comb(d * k, n))):
            (want,) = closed_forms(V, kind, n).values()
            assert want.total_dim() == dim


def test_a_power_off_its_closed_form_fails_its_verdict(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "decompose_power", lambda *a: IrrepMultiset({(1, 1, 1, 1): 1}, (2, 2))
    )
    code, env, _ = run_cli(capsys, "ext-power", "--d", "2", "--k", "2", "--n", "2")
    assert code == 2
    assert env["verdicts"] == {"matches_dual_cauchy": "fail"}


def test_a_power_without_a_closed_form_says_so(capsys):
    code, env, _ = run_cli(
        capsys, "sym-power", "--l", "3", "--n", "4", "--mode", "specialize", "--seed", "3"
    )
    assert code == 0
    assert env["payload"]["closed_form_known"] is False
    assert env["verdicts"] == {}
    assert env["conjecture_flags"][0]["agree"] is True
    code, env, _ = run_cli(capsys, "ext-power", "--l", "3", "--n", "4")
    assert code == 0
    assert "closed_form_known" not in env["payload"]
    assert env["verdicts"] == {"exterior_vanishes_from_degree_4": "pass"}


def test_a_wrong_triple_product_prints_its_fail_verdict(capsys, monkeypatch):
    wrong = IrrepMultiset({(4, 0): 1}, (2,))
    monkeypatch.setattr(cli, "decompose_triple", lambda *a, **k: wrong)
    code, env, _ = run_cli(capsys, "triple-product", "--beta", "1,2,1", "--eps", "-")
    assert code == 2
    assert env["verdicts"] == {"matches_admissibility": "fail"}
    assert env["payload"]["components"] == [[[4, 0], 1]]
    assert env["payload"]["admissible"] == [[[2, 2], 1]]


def test_matrix_module_square(capsys):
    code, env, _ = run_cli(capsys, "sym-power", "--d", "2", "--k", "2",
                           "--n", "2")
    assert code == 0
    assert env["payload"]["dim"] == 10


def test_conjecture_flags_surface(capsys):
    code, env, _ = run_cli(capsys, "hilbert", "--l", "3", "--n", "4")
    assert code == 0
    assert env["conjecture_flags"] == [
        {"l": 3, "n": 4, "computed": 22, "predicted": 22, "agree": True}
    ]


def test_audit_all_aggregates_stage_verdicts(capsys, monkeypatch):
    def fake_run_all(mode="exact", seed=None):
        return {
            "stages": [
                {"stage": "sym-cubes", "ok": True, "report": {"ok": True}},
                {"stage": "koszul-probe", "ok": False,
                 "report": {"error": "TheoremViolation", "message": "x"}},
            ],
            "conjecture_flags": [{"l": 3, "n": 4, "agree": True}],
            "ok": False,
        }

    monkeypatch.setattr(cli.acceptance, "run_all", fake_run_all)
    code, env, _ = run_cli(capsys, "audit-all")
    assert code == 2
    assert env["verdicts"] == {"sym-cubes": "pass", "koszul-probe": "fail"}
    assert env["payload"]["passed"] == 1
    assert env["payload"]["total"] == 2
    assert env["conjecture_flags"] == [{"l": 3, "n": 4, "agree": True}]


def test_gl3_single_weight_payload(capsys):
    code, env, _ = run_cli(capsys, "gl3-generic", "--lam", "2,1,0")
    assert code == 0
    assert env["payload"]["weights"] == 1
    assert env["payload"]["rows"][0]["ok"] is True
    code, env, _ = run_cli(capsys, "gl3-degrees", "--lam", "2,1,0")
    assert code == 0
    assert env["verdicts"] == {"degrees_match": "pass"}


def test_zeroth_power_is_the_trivial_module(capsys):
    for side in ("sym-power", "ext-power"):
        for argv in (
            (side, "--l", "2", "--n", "0"),
            (side, "--l", "2", "--n", "0", "--mode", "specialize", "--seed", "1"),
            (side, "--d", "2", "--n", "0"),
        ):
            code, env, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            assert env["payload"]["dim"] == 1
            assert env["payload"]["components"] == [[[0, 0], 1]]


def test_poisson_formula_row_starts_at_the_module(capsys):
    # dim V_(4,0) is 5; the growth law's closed form alone says 6
    code, env, _ = run_cli(capsys, "poisson-closure", "--l", "4", "--n", "3")
    assert code == 0
    assert env["payload"]["formula"] == env["payload"]["sym"] == [1, 5, 15, 28]


def test_out_of_range_sizes_are_usage_errors(capsys):
    for argv in (
        ("hilbert", "--l", "2", "--n", "-1"),
        ("hilbert", "--l", "2", "--n", "-1", "--mode", "specialize", "--seed", "1"),
        ("valuation-cover", "--l", "-1"),
        ("qmatrix-check", "--d", "0", "--k", "2"),
        ("qmatrix-check", "--d", "2", "--k", "0"),
        ("sym-power", "--d", "0", "--n", "2"),
        ("sym-power", "--d", "2", "--k", "-1", "--n", "2"),
        ("ext-power", "--d", "-1", "--n", "2"),
        ("ext-power", "--d", "2", "--k", "0", "--n", "2"),
        ("howe-check", "--d", "0", "--k", "2", "--n", "2"),
        ("howe-check", "--d", "2", "--k", "-1", "--n", "2"),
        ("koszul-probe", "--l", "2", "--n", "0"),
    ):
        code, env, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert env is None
        assert err.startswith("usage error: ")
        for flag in ("--d", "--k"):
            if flag in argv and int(argv[argv.index(flag) + 1]) < 1:
                assert err.startswith(f"usage error: {flag} must be positive"), argv
        if argv[0] == "koszul-probe":
            assert err.startswith("usage error: --n must be positive"), argv


def test_negative_l_is_a_usage_error_naming_l(capsys):
    for argv in (
        ("poisson-closure", "--l", "-1", "--n", "2"),
        ("koszul-probe", "--l", "-2", "--n", "3"),
        ("flatness", "--l", "-1"),
        ("ext-four", "--l", "-1"),
        ("sym-power", "--l", "-1", "--n", "3"),
        ("hilbert", "--l", "-1", "--n", "3", "--mode", "specialize", "--seed", "1"),
    ):
        code, env, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert env is None
        assert err.startswith("usage error: --l ")


def test_negative_n_is_a_usage_error_naming_n(capsys):
    for argv in (
        ("sym-power", "--l", "2", "--n", "-1"),
        ("ext-power", "--d", "2", "--n", "-1"),
        ("hilbert", "--l", "3", "--n", "-1"),
        ("koszul-probe", "--l", "3", "--n", "-1"),
        ("convex-certify", "--m", "2", "--n", "-1"),
        ("poisson-closure", "--l", "3", "--n", "-1"),
        ("howe-check", "--d", "2", "--k", "2", "--n", "-1"),
    ):
        code, env, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert env is None
        assert err.startswith("usage error: --n "), argv


def test_unwritable_csv_path_ends_in_one_error_envelope(capsys, tmp_path):
    path = tmp_path / "missing" / "x.csv"
    for argv in (
        ("koszul-probe", "--l", "3", "--n", "8"),
        ("hilbert", "--l", "2", "--n", "4"),
    ):
        code = cli.run([*argv, "--csv", str(path)])
        captured = capsys.readouterr()
        env, end = json.JSONDecoder().raw_decode(captured.out)
        assert not captured.out[end:].strip()
        assert code == 1, argv
        assert env["payload"]["error"] == "FileNotFoundError"
        assert env["verdicts"] == {} and env["conjecture_flags"] == []
        assert not path.exists()


def test_unexpected_exception_is_an_internal_run_failure(capsys, monkeypatch):
    def boom(args):
        raise KeyError("forced")

    _set_handler(monkeypatch, "koszul-probe", boom)
    code = cli.run(["koszul-probe", "--l", "3", "--n", "4"])
    out = capsys.readouterr().out
    env, end = json.JSONDecoder().raw_decode(out)
    assert not out[end:].strip()
    assert code == 2
    assert env["payload"] == {"error": "internal", "message": "KeyError: 'forced'"}
    assert env["verdicts"] == {"run": "fail"}
