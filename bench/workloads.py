"""Request lists of the three benchmark workloads.

A request is either a CLI argv handed to `braidpow.cli.run` or an
acceptance stage called with keyword arguments.  Each workload is one
closed-loop client: the worker issues its requests one after another.
This module imports nothing from `braidpow`, so run.py can list the
requests without paying for the program's import.
"""

from __future__ import annotations

import random

# Payload fields that depend on the seed and are left out of the corpus.
SEED_FIELDS = ("samples", "seed", "examples")


def _derived_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


# Exact cubes: a few large weight blocks whose Laurent coefficients grow
# (q-spans reach 162 at l = 5), so polynomial mul/gcd in laurent + qarith
# does nearly all the work.  Independent of the seed.
def _exact_cubes(seed: int) -> list[dict]:
    return [
        {"kind": "cli", "argv": [f"{side}-power", "--l", str(l), "--n", "3"]}
        for l in (3, 4, 5)
        for side in ("sym", "ext")
    ]


# The same braided pipeline at sampled points q0: every Laurent entry is a
# constant, so there is no polynomial gcd; the cost is Fraction content
# clearing, row bookkeeping and specialize_module.
def _specialized_powers(seed: int) -> list[dict]:
    argvs = [["hilbert", "--l", str(l), "--n", "4"] for l in (3, 4, 5)]
    argvs += [[f"{side}-power", "--l", "6", "--n", "3"] for side in ("sym", "ext")]
    return [
        {"kind": "cli", "argv": argv + ["--mode", "specialize", "--seed", str(s)]}
        for argv, s in zip(argvs, _derived_seeds(seed, len(argvs)))
    ]


# The acceptance stages at reduced grids, in AUDIT_STAGES order: many small
# blocks, the only workload reaching gl3canon, classical, convexopt and
# qmat, and the only repeated work (flatness rebuilds the sym cubes).
def _audit_mix(seed: int) -> list[dict]:
    extremal_seed, campaign_seed = _derived_seeds(seed, 2)
    stages = [
        ("sym_cubes", {"lmax": 4}),
        ("ext_cubes", {"lmax": 4}),
        ("ext_fourth_power", {}),
        ("flatness_classification", {"lmax": 4}),
        ("standard_and_matrix_squares", {}),
        ("triple_product_sweep", {"bmax": 3}),
        ("gl3_sweep", {}),
        ("extremal_sweep", {"seed": extremal_seed}),
        ("poisson_growth", {}),
        ("koszul_probe_check", {}),
        ("sym_fourth_conjecture", {}),
        ("property_campaign", {"seed": campaign_seed}),
    ]
    return [{"kind": "stage", "name": n, "kwargs": kw} for n, kw in stages]


WORKLOADS = {
    "exact_cubes": _exact_cubes,
    "specialized_powers": _specialized_powers,
    "audit_mix": _audit_mix,
}


def requests(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](seed)


def request_id(req: dict) -> str:
    """Seed-free name of a request, the key of its corpus entry."""
    if req["kind"] == "cli":
        argv = list(req["argv"])
        if "--seed" in argv:
            i = argv.index("--seed")
            del argv[i : i + 2]
        return " ".join(argv)
    kwargs = ", ".join(
        f"{k}={v}" for k, v in sorted(req["kwargs"].items()) if k != "seed"
    )
    return f"acceptance.{req['name']}({kwargs})"


def stage_names() -> list[str]:
    return [r["name"] for r in _audit_mix(0)]
