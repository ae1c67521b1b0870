"""Envelope shape, worked examples, exit codes, determinism, CSV."""

import csv
import json
from argparse import Namespace
from math import comb

import pytest

from braidpow import cli
from braidpow.errors import TheoremViolation
from braidpow.uqmod import IrrepMultiset, ModuleAuditError


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
        ("audit-all", "--override-guards"),
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
def test_guard_messages_name_the_cli_flag(capsys, argv):
    # each is refused before any work starts; the message names the flag
    # a CLI user passes, and the Python keyword beside it
    code, env, _ = run_cli(capsys, *argv)
    assert code == 1
    assert env["payload"]["error"] == "GuardError"
    assert "--override-guards" in env["payload"]["message"]
    assert "override_guards=True from Python" in env["payload"]["message"]


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


def test_disagreeing_samples_fail_the_run(capsys, monkeypatch):
    def at_sample(args, family, kind, q0):
        return q0, None

    monkeypatch.setattr(cli, "_decompose_power", at_sample)
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
    for n in range(6):
        args = Namespace(d=d, k=k, n=n)
        for kind, dim in (("sym", comb(d * k + n - 1, n)), ("ext", comb(d * k, n))):
            (want,) = cli._POWER_CLOSED_FORMS["matrix", kind](args).values()
            assert IrrepMultiset(want, blocks=(d, k)).total_dim() == dim


def test_a_power_off_its_closed_form_fails_its_verdict(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "decompose_power", lambda *a: IrrepMultiset({(1, 1, 1, 1): 1}, (2, 2))
    )
    code, env, _ = run_cli(capsys, "ext-power", "--d", "2", "--k", "2", "--n", "2")
    assert code == 2
    assert env["verdicts"] == {"matches_dual_cauchy": "fail"}


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
    ):
        code, env, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert env is None
        assert err.startswith("usage error: ")
        for flag in ("--d", "--k"):
            if flag in argv and int(argv[argv.index(flag) + 1]) < 1:
                assert err.startswith(f"usage error: {flag} must be positive"), argv


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

    monkeypatch.setitem(cli._HANDLERS, "koszul-probe", boom)
    code = cli.run(["koszul-probe", "--l", "3", "--n", "4"])
    out = capsys.readouterr().out
    env, end = json.JSONDecoder().raw_decode(out)
    assert not out[end:].strip()
    assert code == 2
    assert env["payload"] == {"error": "internal", "message": "KeyError: 'forced'"}
    assert env["verdicts"] == {"run": "fail"}
