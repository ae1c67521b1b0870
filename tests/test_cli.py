"""Envelope shape, worked examples, exit codes, determinism, CSV."""

import csv
import json

import pytest

from braidpow import cli
from braidpow.errors import TheoremViolation
from braidpow.uqmod import ModuleAuditError


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


def test_usage_errors_exit_one(capsys):
    for argv in (
        ("sym-power", "--n", "3"),
        ("sym-power", "--l", "2", "--d", "2", "--n", "2"),
        ("sym-power", "--k", "2", "--n", "2"),
        ("hilbert", "--l", "2", "--n", "3", "--mode", "specialize"),
        ("triple-product", "--beta", "1,2", "--eps", "+"),
        ("no-such-command",),
    ):
        code, env, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert env is None
        assert err


def test_guard_errors_exit_one_with_envelope(capsys):
    code, env, _ = run_cli(capsys, "hilbert", "--l", "3", "--n", "6")
    assert code == 1
    assert env["payload"]["error"] == "GuardError"
    assert env["verdicts"] == {}


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


def test_out_of_range_sizes_are_usage_errors(capsys):
    for argv in (
        ("hilbert", "--l", "2", "--n", "-1"),
        ("hilbert", "--l", "2", "--n", "-1", "--mode", "specialize", "--seed", "1"),
        ("valuation-cover", "--l", "-1"),
        ("qmatrix-check", "--d", "0", "--k", "2"),
        ("qmatrix-check", "--d", "2", "--k", "0"),
    ):
        code, env, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert env is None
        assert err.startswith("usage error: ")
