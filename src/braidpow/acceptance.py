"""End-to-end verification stages shared by `braidpow audit-all` and the
release test suite.

Each stage function returns a JSON-friendly report whose "ok" field is
True, or raises: TheoremViolation when a computation falsifies a claimed
closed form, AssertionError when an internal expectation breaks.  Stage
parameters default to the released verification grids; the two heavy
sweeps accept mode/seed so they can run at two sample points over F_P
(braided.run_mode) when exact arithmetic is too slow for interactive
use.  Records the CLI prints too come from the same builders:
braided.growth_flag for conjecture flags, convexopt.certify_random_class
for extremal instances.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import comb

from .braided import (
    admissible_triples,
    dim_ext_cube,
    dim_sym_cube,
    ext_cube_decomposition,
    flat_lower_bound,
    flatness_check,
    growth_flag,
    hilbert_table,
    koszul_series_probe,
    power_dims,
    sample_points,
    square_gl2,
    square_matrix_module,
    sym_cube_decomposition,
    sym_cube_closed,
    ext_cube_closed,
    decompose_power,
    triple_product,
)
from .classical import (
    bracket_lam,
    bracket_sym,
    combine,
    exterior_four_vanishes,
    gen_sym,
    jminus,
    jplus,
    mul_sym,
    parity,
    poisson_closure_dims,
    scale,
)
from .convexopt import (
    certify_random_class,
    inversions,
    kappa_star,
    kappa_weight,
    multiplicities,
    random_lambda_convex,
    transpose_at,
)
from .errors import TheoremViolation
from .gl3canon import dcb_module, degree_recursion_check, genericity_check
from .laurent import ladd, lbar, leval, lmul, lqint, lscale, lshift, lq
from .qmat import check_qmatrix_relations, mat_mul, matrix_generator
from .uqmod import (
    decompose,
    dim_irrep,
    outer,
    simple_gl2,
    specialize_module,
    standard_gld,
    tensor,
)

CAMPAIGN_SEED = 20260822


# ---------------------------------------------------------------------------
# braided cube and fourth-power stages


def sym_cubes(lmax: int = 6) -> dict:
    """Symmetric cubes of the gl_2 simples V_(l,0) match their closed
    form through l = lmax."""
    rows = []
    for l in range(lmax + 1):
        dec = sym_cube_decomposition(l)
        if dict(dec) != dict(sym_cube_closed(l)):
            raise TheoremViolation(f"symmetric cube open at l = {l}")
        dim = dec.total_dim()
        if dim != dim_sym_cube(l):
            raise TheoremViolation(
                f"symmetric cube of V_({l},0) has dim {dim}, "
                f"closed form {dim_sym_cube(l)}"
            )
        rows.append({"l": l, "dim": dim, "components": dec.components()})
    return {"lmax": lmax, "rows": rows, "ok": True}


def ext_cubes(lmax: int = 6) -> dict:
    """Exterior cubes vanish for odd l and carry a single multiplicity-
    free family for even l, through l = lmax."""
    rows = []
    for l in range(lmax + 1):
        dec = ext_cube_decomposition(l)
        if dict(dec) != dict(ext_cube_closed(l)):
            raise TheoremViolation(f"exterior cube open at l = {l}")
        dim = dec.total_dim()
        if dim != dim_ext_cube(l):
            raise TheoremViolation(
                f"exterior cube of V_({l},0) has dim {dim}, "
                f"closed form {dim_ext_cube(l)}"
            )
        if l % 2 == 1 and dec:
            raise TheoremViolation(f"odd l = {l} has a nonzero exterior cube")
        if l % 2 == 0 and dim != comb(l // 2 + 1, 2):
            raise TheoremViolation(f"even exterior cube size off at l = {l}")
        rows.append({"l": l, "dim": dim, "components": dec.components()})
    return {"lmax": lmax, "rows": rows, "ok": True}


def ext_fourth_power() -> dict:
    """The fourth braided exterior power of V_(l,0) is zero: directly
    for l = 3, 4, 5, and through the degree-4 classical quotient for
    l = 3..8."""
    direct = []
    for l in (3, 4, 5):
        dims = power_dims(simple_gl2(l, 0), "ext", 4)
        if dims[4] != 0:
            raise TheoremViolation(
                f"fourth exterior power of V_({l},0) has dim {dims[4]}"
            )
        direct.append({"l": l, "dims": dims})
    classical = []
    for l in range(3, 9):
        if not exterior_four_vanishes(l):
            raise TheoremViolation(
                f"classical degree-4 exterior quotient nonzero at l = {l}"
            )
        classical.append(l)
    return {"direct": direct, "classical": classical, "ok": True}


def flatness_classification(lmax: int = 6) -> dict:
    """V_(l,0) has a flat braided square exactly for l <= 2; the
    character lower bound certifies the flat cases without computing
    the cube."""
    rows = []
    flats = []
    for l in range(lmax + 1):
        flat, rep = flatness_check(simple_gl2(l, 0))
        bound = flat_lower_bound((l, 0))
        if bound > rep["sym_cube_dim"]:
            raise TheoremViolation(
                f"lower bound {bound} exceeds the cube at l = {l}"
            )
        rep["lower_bound"] = bound
        rep["l"] = l
        rows.append(rep)
        if flat:
            flats.append(l)
    if flats != [0, 1, 2]:
        raise TheoremViolation(f"flat set is {flats}, expected [0, 1, 2]")
    for l in (1, 2):
        if flat_lower_bound((l, 0)) != comb(l + 3, 3):
            raise TheoremViolation(
                f"lower bound fails to certify flatness at l = {l}"
            )
    return {"flat": flats, "rows": rows, "ok": True}


def standard_and_matrix_squares() -> dict:
    """Braided powers of the standard gl_d module grow like a polynomial
    algebra; the 2 x 2 matrix square splits 10 + 6; the quantum matrix
    relations hold on the released grids."""
    standard = []
    for d in range(1, 5):
        dims = power_dims(standard_gld(d), "sym", 4)
        want = [comb(d + n - 1, n) for n in range(5)]
        if dims != want:
            raise TheoremViolation(
                f"standard gl_{d} symmetric powers {dims} != {want}"
            )
        standard.append({"d": d, "dims": dims})
    pair = square_matrix_module(2, 2)
    if (pair.sym.dim, pair.ext.dim) != (10, 6):
        raise TheoremViolation(
            f"2 x 2 matrix square splits {pair.sym.dim} + {pair.ext.dim}, "
            "expected 10 + 6"
        )
    relations = [check_qmatrix_relations(d, k) for d, k in ((2, 2), (2, 3), (3, 3))]
    return {
        "standard": standard,
        "matrix_square": {"sym": pair.sym.dim, "ext": pair.ext.dim},
        "relations": relations,
        "ok": True,
    }


# ---------------------------------------------------------------------------
# triple products and gl_3 canonical bases


def triple_product_sweep(bmax: int = 3, mode: str = "exact", seed=None) -> dict:
    """Every eps-triple product with entries up to bmax decomposes as
    the admissibility closed form predicts (certified inside
    triple_product)."""
    count = 0
    nonzero = 0
    for beta in product(range(bmax + 1), repeat=3):
        for eps in ("+", "-"):
            got = triple_product(beta, eps, mode=mode, seed=seed)
            if dict(got) != dict(admissible_triples(beta, eps)):
                raise TheoremViolation(f"sweep mismatch at {beta}, {eps}")
            count += 1
            if got:
                nonzero += 1
    return {"bmax": bmax, "mode": mode, "pairs": count, "nonzero": nonzero, "ok": True}


def gl3_sweep(l1max: int = 5) -> dict:
    """Minor genericity and the degree recursion hold on every weight
    space of every gl_3 simple with highest weight (a, b, 0), a <= l1max."""
    rows = []
    blocks = 0
    minors = 0
    comparisons = 0
    for a in range(l1max + 1):
        for b in range(a + 1):
            lam = (a, b, 0)
            m = dcb_module(lam)
            g = genericity_check(lam, m)
            r = degree_recursion_check(lam, m)
            if not (g["ok"] and r["ok"]):
                raise TheoremViolation(
                    f"gl_3 checks fail at {lam}: "
                    f"{g['failures'] + r['failures']}"
                )
            blocks += g["blocks"]
            minors += g["minors"]
            comparisons += r["comparisons"]
            rows.append(
                {
                    "lam": list(lam),
                    "blocks": g["blocks"],
                    "max_mult": g["max_mult"],
                    "minors": g["minors"],
                    "comparisons": r["comparisons"],
                }
            )
    return {
        "l1max": l1max,
        "weights": len(rows),
        "blocks": blocks,
        "minors": minors,
        "comparisons": comparisons,
        "rows": rows,
        "ok": True,
    }


# ---------------------------------------------------------------------------
# extremal maps, classical closures, series probes


def extremal_sweep(instances: int = 100, seed: int = CAMPAIGN_SEED) -> dict:
    """certify_max on randomly generated feasible classes over random
    staircases with up to 5 rows and 4 columns (certify_random_class)."""
    rng = random.Random(seed)
    certified = 0
    examples = []
    for _ in range(instances):
        m = rng.randint(1, 5)
        n = rng.randint(1, 4)
        instance = certify_random_class(m, n, rng)
        certified += 1
        if len(examples) < 5:
            examples.append(instance)
    return {
        "instances": instances,
        "certified": certified,
        "seed": seed,
        "examples": examples,
        "ok": certified == instances,
    }


def poisson_growth(ls=(3, 4), upto: int = 6) -> dict:
    """Classical Poisson closures of the degree-3 relations reproduce
    the braided cube and the conjectured growth law in degrees 4..upto."""
    rows = []
    conjecture = []
    for l in ls:
        dims = poisson_closure_dims(l, upto)
        if dims[3] != dim_sym_cube(l):
            raise TheoremViolation(
                f"closure cube {dims[3]} != braided cube {dim_sym_cube(l)} "
                f"at l = {l}"
            )
        for n in range(4, upto + 1):
            flag = growth_flag(l, n, dims[n])
            conjecture.append(flag)
            if not flag["agree"]:
                raise TheoremViolation(
                    f"closure dim {dims[n]} at l = {l}, n = {n}; "
                    f"growth law says {flag['predicted']}"
                )
        rows.append({"l": l, "dims": dims})
    if rows and ls[0] == 3 and rows[0]["dims"][4] != 22:
        raise TheoremViolation("l = 3 degree-4 closure is not 22-dimensional")
    return {"upto": upto, "rows": rows, "conjecture": conjecture, "ok": True}


def koszul_probe_check() -> dict:
    """The inverse exterior Hilbert series of V_(3,0) goes negative,
    ruling out numerical Koszulity of the symmetric side."""
    got = koszul_series_probe(3, 6)
    want = [1, 4, 10, 16, 4, -80]
    if got != want:
        raise TheoremViolation(f"series probe emits {got}, expected {want}")
    first_negative = next(i for i, c in enumerate(got) if c < 0)
    return {
        "l": 3,
        "coefficients": got,
        "first_negative": first_negative,
        "ok": True,
    }


def sym_fourth_conjecture(mode: str = "exact", seed=None) -> dict:
    """Fourth symmetric power of V_(3,0) against the conjectured growth
    law.  Never fails: the comparison is recorded either way."""
    table = hilbert_table(3, 4, "sym", mode=mode, seed=seed)
    flag = table.conjecture[-1]
    return {
        "l": 3,
        "mode": mode,
        "dims": list(table.dims),
        "conjecture": [flag],
        "agree": flag["agree"],
        "ok": True,
    }


# ---------------------------------------------------------------------------
# randomized property campaign


def property_campaign(seed: int = CAMPAIGN_SEED, min_cases: int = 500) -> dict:
    """Seeded randomized invariants across the whole stack; every check
    counts as one case and the campaign must clear min_cases."""
    rng = random.Random(seed)
    cases = 0
    failures: list[str] = []

    def chk(ok, label):
        nonlocal cases
        cases += 1
        if not ok:
            failures.append(label)

    def rand_laurent():
        a = {}
        for _ in range(rng.randint(0, 4)):
            mono = lscale(
                lq(rng.randint(-4, 4)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            )
            a = ladd(a, mono)
        return a

    q0 = Fraction(3, 2)
    for t in range(30):
        a, b, c = rand_laurent(), rand_laurent(), rand_laurent()
        chk(lmul(a, b) == lmul(b, a), f"laurent commutativity #{t}")
        chk(
            lmul(a, lmul(b, c)) == lmul(lmul(a, b), c),
            f"laurent associativity #{t}",
        )
        chk(
            lmul(a, ladd(b, c)) == ladd(lmul(a, b), lmul(a, c)),
            f"laurent distributivity #{t}",
        )
        chk(lbar(lbar(a)) == a, f"bar involution #{t}")
        chk(
            lbar(lmul(a, b)) == lmul(lbar(a), lbar(b)),
            f"bar multiplicativity #{t}",
        )
        chk(
            leval(lmul(a, b), q0) == leval(a, q0) * leval(b, q0),
            f"evaluation homomorphism #{t}",
        )

    for t in range(25):
        m, n = rng.randint(0, 8), rng.randint(0, 8)
        lhs = lqint(m + n)
        rhs = ladd(lshift(lqint(m), n), lshift(lqint(n), -m))
        chk(lhs == rhs, f"q-integer splitting #{t}")

    for t in range(15):
        a, b = rng.randint(0, 4), rng.randint(0, 4)
        dec = decompose(tensor(simple_gl2(a, 0), simple_gl2(b, 0)))
        want = {(a + b - j, j): 1 for j in range(min(a, b) + 1)}
        chk(dict(dec) == want, f"Clebsch-Gordan #{t}")
        chk(dec.total_dim() == (a + 1) * (b + 1), f"tensor dimension #{t}")

    for t in range(12):
        l = rng.randint(0, 4)
        pair = square_gl2(l)
        sym_dec = decompose_power(pair.module, "sym", 2)
        ext_dec = decompose_power(pair.module, "ext", 2)
        chk(sym_dec.total_dim() == pair.sym.dim, f"sym side stable #{t}")
        chk(ext_dec.total_dim() == pair.ext.dim, f"ext side stable #{t}")

    for t in range(10):
        l = rng.randint(1, 3)
        q1 = sample_points(rng.randrange(2**20))[0]
        V = simple_gl2(l, 0)
        W = specialize_module(V, q1)
        for kind in ("sym", "ext"):
            chk(
                power_dims(V, kind, 3) == power_dims(W, kind, 3),
                f"specialized {kind} dims #{t}",
            )

    for t in range(120):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        lam = tuple(sorted(rng.randint(0, n) for _ in range(m)))
        kappa = tuple(rng.randint(1, n) for _ in range(m))
        inv = inversions(lam, kappa, n)
        if inv:
            i, ip = inv[0]
            a = random_lambda_convex(m, n, rng)
            chk(
                kappa_weight(a, transpose_at(kappa, i, ip))
                > kappa_weight(a, kappa),
                f"inversion transpose raises weight #{t}",
            )
        else:
            km, kp = multiplicities(lam, kappa, n)
            chk(
                kappa_star(lam, km, kp) == kappa,
                f"inversion-free map is extremal #{t}",
            )

    for t in range(30):
        l = rng.randint(2, 5)
        deg_a = rng.randint(1, min(3, l + 1))
        deg_b = rng.randint(1, min(3, l + 1))
        a = {tuple(sorted(rng.sample(range(l + 1), deg_a))): rng.randint(1, 3)}
        b = {tuple(sorted(rng.sample(range(l + 1), deg_b))): rng.randint(1, 3)}
        sign = -1 if (parity(a) * parity(b)) % 2 == 0 else 1
        chk(
            bracket_lam(l, b, a) == scale(bracket_lam(l, a, b), sign),
            f"bracket parity symmetry #{t}",
        )

    for t in range(20):
        l = rng.randint(1, 4)
        a = gen_sym(l, rng.randint(0, l))
        b = gen_sym(l, rng.randint(0, l))
        c = gen_sym(l, rng.randint(0, l))
        lhs = bracket_sym(l, a, mul_sym(b, c))
        rhs = combine(
            mul_sym(bracket_sym(l, a, b), c),
            mul_sym(b, bracket_sym(l, a, c)),
        )
        chk(lhs == rhs, f"Leibniz rule #{t}")

    for t in range(15):
        l = rng.randint(2, 5)
        i, j, k = (rng.randint(0, l) for _ in range(3))
        chk(
            jminus(l, i, j, k) == jminus(l, j, i, k) == jminus(l, i, k, j),
            f"odd Jacobian symmetric #{t}",
        )

    for t in range(15):
        l = rng.randint(2, 5)
        i, j, k = rng.sample(range(l + 1), 3)
        chk(
            jplus(l, j, i, k) == scale(jplus(l, i, j, k), -1),
            f"even Jacobian alternating #{t}",
        )

    grids = ((2, 2), (2, 3), (3, 2))
    for t in range(20):
        d, k = grids[rng.randrange(len(grids))]
        gs = [
            matrix_generator(d, k, rng.randrange(d), rng.randrange(k))
            for _ in range(3)
        ]
        left = mat_mul(d, mat_mul(d, gs[0], gs[1]), gs[2])
        right = mat_mul(d, gs[0], mat_mul(d, gs[1], gs[2]))
        chk(left == right, f"matrix algebra associativity #{t}")

    for t in range(8):
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        m = outer(simple_gl2(a, 0), simple_gl2(b, 0))
        chk(m.dim == (a + 1) * (b + 1), f"outer dimension #{t}")
        chk(
            decompose(m).total_dim() == m.dim,
            f"outer decomposition complete #{t}",
        )

    for t in range(30):
        hi = rng.randint(0, 6)
        lo = rng.randint(-3, hi)
        shift = rng.randint(-5, 5)
        chk(
            dim_irrep((hi + shift, lo + shift)) == dim_irrep((hi, lo)),
            f"Weyl dimension shift invariance #{t}",
        )

    return {
        "seed": seed,
        "cases": cases,
        "min_cases": min_cases,
        "failures": failures,
        "ok": not failures and cases >= min_cases,
    }


# ---------------------------------------------------------------------------
# aggregate runner


AUDIT_STAGES = (
    ("sym-cubes", sym_cubes),
    ("ext-cubes", ext_cubes),
    ("ext-fourth", ext_fourth_power),
    ("flatness", flatness_classification),
    ("standard-squares", standard_and_matrix_squares),
    ("triple-products", triple_product_sweep),
    ("gl3-canonical", gl3_sweep),
    ("extremal-maps", extremal_sweep),
    ("poisson-closure", poisson_growth),
    ("koszul-probe", koszul_probe_check),
    ("sym-fourth-conjecture", sym_fourth_conjecture),
    ("property-campaign", property_campaign),
)

_MODED_STAGES = ("triple-products", "sym-fourth-conjecture")


def run_all(mode: str = "exact", seed=None) -> dict:
    """Run every stage, trapping falsified claims into per-stage
    verdicts instead of dying at the first one."""
    stages = []
    flags = []
    for name, fn in AUDIT_STAGES:
        try:
            if name in _MODED_STAGES and mode != "exact":
                report = fn(mode=mode, seed=seed)
            else:
                report = fn()
            ok = bool(report.get("ok", False))
        except (TheoremViolation, AssertionError, ArithmeticError) as exc:
            report = {"error": type(exc).__name__, "message": str(exc)}
            ok = False
        for flag in report.get("conjecture", ()):
            entry = dict(flag)
            entry["stage"] = name
            flags.append(entry)
        stages.append({"stage": name, "ok": ok, "report": report})
    return {
        "stages": stages,
        "conjecture_flags": flags,
        "ok": all(s["ok"] for s in stages),
    }
