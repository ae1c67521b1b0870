"""Release gate: one test per verification stage, one line per verdict.

Run with -s (or read the failure output) to see the stage lines; each
test prints `<stage>: PASS|FAIL <summary>` and asserts the stage report.
The stages live in braidpow.acceptance so `braidpow audit-all` runs
exactly the same code.
"""

from braidpow import acceptance
from braidpow.errors import ModuleAuditError, TheoremViolation


def _line(name: str, report: dict, summary: str = "") -> None:
    verdict = "PASS" if report.get("ok") else "FAIL"
    print(f"{name}: {verdict} {summary}".rstrip())


def test_symmetric_cubes_match_closed_form():
    report = acceptance.sym_cubes(lmax=6)
    _line(
        "symmetric cubes l=0..6",
        report,
        f"dims {[r['dim'] for r in report['rows']]}",
    )
    assert report["ok"]
    assert [r["dim"] for r in report["rows"]] == [1, 4, 10, 16, 28, 36, 55]


def test_exterior_cubes_match_closed_form():
    report = acceptance.ext_cubes(lmax=6)
    _line(
        "exterior cubes l=0..6",
        report,
        f"dims {[r['dim'] for r in report['rows']]}",
    )
    assert report["ok"]
    assert [r["dim"] for r in report["rows"]] == [0, 0, 1, 0, 3, 0, 6]


def test_fourth_exterior_power_vanishes():
    report = acceptance.ext_fourth_power()
    _line(
        "fourth exterior power",
        report,
        f"direct l=3,4,5 and classical l={report['classical']}",
    )
    assert report["ok"]
    assert all(r["dims"][4] == 0 for r in report["direct"])
    assert report["classical"] == [3, 4, 5, 6, 7, 8]


def test_flat_squares_are_exactly_small_weights():
    report = acceptance.flatness_classification(lmax=6)
    _line("flatness classification", report, f"flat set {report['flat']}")
    assert report["ok"]
    assert report["flat"] == [0, 1, 2]
    certified = [
        r["l"] for r in report["rows"] if r["lower_bound"] == r["flat_cube_dim"]
    ]
    assert {1, 2} <= set(certified)


def test_standard_and_matrix_module_squares():
    report = acceptance.standard_and_matrix_squares()
    _line(
        "standard and matrix squares",
        report,
        f"relations {[r['relations'] for r in report['relations']]}",
    )
    assert report["ok"]
    assert report["matrix_square"] == {"sym": 10, "ext": 6}
    assert [r["relations"] for r in report["relations"]] == [6, 15, 36]


def test_triple_products_match_admissibility():
    report = acceptance.triple_product_sweep(bmax=3)
    _line(
        "triple products",
        report,
        f"{report['pairs']} pairs, {report['nonzero']} nonzero",
    )
    assert report["ok"]
    assert report["pairs"] == 128


def test_specialized_triple_products_match_admissibility():
    report = acceptance.triple_product_sweep(bmax=3, mode="specialize", seed=5)
    assert report["ok"]
    assert report["pairs"] == 128


def test_gl3_genericity_and_degree_recursion():
    report = acceptance.gl3_sweep(l1max=5)
    _line(
        "gl_3 paired bases",
        report,
        f"{report['weights']} weights, {report['minors']} minors, "
        f"{report['comparisons']} degree comparisons",
    )
    assert report["ok"]
    assert report["weights"] == 21


def test_extremal_map_certification():
    report = acceptance.extremal_sweep(instances=100)
    _line(
        "extremal maps",
        report,
        f"{report['certified']}/{report['instances']} instances",
    )
    assert report["ok"]
    assert report["certified"] == 100


def test_extremal_sweep_reports_an_instance_that_fails(monkeypatch):
    real = acceptance.certify_random_class
    calls = []

    def once_wrong(m, n, rng):
        calls.append(1)
        if len(calls) == 3:
            raise TheoremViolation("forced extremal failure")
        return real(m, n, rng)

    monkeypatch.setattr(acceptance, "certify_random_class", once_wrong)
    report = acceptance.extremal_sweep(instances=5)
    assert report["ok"] is False
    assert report["certified"] == 4
    assert report["failures"] == ["forced extremal failure"]
    monkeypatch.setattr(acceptance, "certify_random_class", real)
    report = acceptance.extremal_sweep(instances=5)
    assert report["ok"] is True
    assert "failures" not in report


def test_extremal_sweep_examples_are_pinned():
    """The examples depend on the order of the random draws per instance
    (staircase, then class, then certify_max's seed); the bench compares
    them across commits."""
    report = acceptance.extremal_sweep(instances=20)
    assert report["examples"] == [
        {"lam": [0, 0, 0, 0, 1], "kminus": [1], "kplus": [4],
         "kappa_star": [1, 1, 1, 1, 1], "class_size": 1},
        {"lam": [0, 0, 1, 1], "kminus": [2], "kplus": [2],
         "kappa_star": [1, 1, 1, 1], "class_size": 1},
        {"lam": [1, 2], "kminus": [1, 0], "kplus": [0, 1],
         "kappa_star": [2, 1], "class_size": 1},
        {"lam": [0, 0, 1, 1, 1], "kminus": [3], "kplus": [2],
         "kappa_star": [1, 1, 1, 1, 1], "class_size": 1},
        {"lam": [2, 2, 2], "kminus": [1, 0, 0, 0], "kplus": [0, 0, 2, 0],
         "kappa_star": [1, 3, 3], "class_size": 3},
    ]


def test_poisson_closure_growth():
    report = acceptance.poisson_growth(ls=(3, 4), upto=6)
    _line(
        "classical closures",
        report,
        f"dims {[r['dims'] for r in report['rows']]}",
    )
    assert report["ok"]
    assert report["rows"][0]["dims"][4] == 22
    assert all(flag["agree"] for flag in report["conjecture"])


def test_koszul_series_goes_negative():
    report = acceptance.koszul_probe_check()
    _line("series probe", report, f"coefficients {report['coefficients']}")
    assert report["ok"]
    assert report["coefficients"] == [1, 4, 10, 16, 4, -80]


def test_fourth_symmetric_power_conjecture_recorded():
    report = acceptance.sym_fourth_conjecture()
    flag = report["conjecture"][0]
    _line(
        "degree-4 growth conjecture",
        report,
        f"computed {flag['computed']}, predicted {flag['predicted']}, "
        f"agree {flag['agree']}",
    )
    # recorded either way; agreement itself is not a release gate
    assert report["ok"]
    assert isinstance(flag["agree"], bool)


def test_randomized_property_campaign():
    report = acceptance.property_campaign()
    _line(
        "property campaign",
        report,
        f"{report['cases']} cases, {len(report['failures'])} failures",
    )
    assert report["ok"]
    assert report["cases"] >= 500
    assert report["failures"] == []


def test_run_all_keeps_running_past_a_stage_that_raises(monkeypatch):
    # a falsified theorem, a failed audit and a sample disagreement each
    # become that stage's ok: false with the error named, and the later
    # stages still run
    def raising(exc):
        def stage():
            raise exc
        return stage

    stages = (
        ("theorem", raising(TheoremViolation("closed form missed"))),
        ("audit", raising(ModuleAuditError("kernel refused"))),
        ("samples", raising(ArithmeticError("samples disagree"))),
        ("last", lambda: {"ok": True, "conjecture": [{"n": 4, "agree": True}]}),
    )
    monkeypatch.setattr(acceptance, "AUDIT_STAGES", stages)
    report = acceptance.run_all()
    assert report["stages"] == [
        {"stage": "theorem", "ok": False,
         "report": {"error": "TheoremViolation", "message": "closed form missed"}},
        {"stage": "audit", "ok": False,
         "report": {"error": "ModuleAuditError", "message": "kernel refused"}},
        {"stage": "samples", "ok": False,
         "report": {"error": "ArithmeticError", "message": "samples disagree"}},
        {"stage": "last", "ok": True,
         "report": {"ok": True, "conjecture": [{"n": 4, "agree": True}]}},
    ]
    assert report["conjecture_flags"] == [{"n": 4, "agree": True, "stage": "last"}]
    assert report["ok"] is False
