"""Exact braided symmetric and exterior powers of quantum-group modules.

Everything runs over the field of rational functions in q with no
floating point anywhere.  Its linear algebra works on rows of Laurent
polynomials with int coefficients; a caller's rationals are cleared
once, where Subspace.span takes a row.  A seeded specialization mode
estimates the heavier dimension counts over the prime field F_P at two
sampled evaluation points instead, which is evidence rather than
proof.
"""

from .braided import (
    BraidedSquarePair,
    admissible_triples,
    closed_form_verdicts,
    closed_forms,
    conjectural_sym_dim,
    decompose_power,
    decompose_triple,
    dim_ext_cube,
    dim_sym_cube,
    ext_cube_closed,
    ext_cube_decomposition,
    flat_lower_bound,
    flatness_check,
    hilbert_table,
    koszul_series_probe,
    module_square,
    power_dims,
    square_matrix_module,
    sym_cube_closed,
    sym_cube_decomposition,
    triple_product,
)
from .classical import (
    bracket_lam,
    bracket_sym,
    exterior_four_vanishes,
    poisson_closure_dims,
    super_jacobian,
    valuation_cover_check,
)
from .convexopt import (
    certify_max,
    is_lambda_convex,
    kappa_star,
    kappa_weight,
    multiplicities,
)
from .errors import GuardError, InfeasibleError, TheoremViolation
from .gl3canon import (
    dcb_module,
    degree_recursion_check,
    genericity_check,
    gt_pair_bases,
    multiplicity_closed_form,
)
from .qarith import Subspace
from .qmat import check_qmatrix_relations, howe_dim_check, mat_mul, matrix_generator
from .uqmod import (
    IrrepMultiset,
    WeightModule,
    decompose,
    dim_irrep,
    outer,
    simple_gl2,
    specialize_module,
    standard_gld,
    tensor,
)

__version__ = "0.1.0"

__all__ = [
    "BraidedSquarePair",
    "GuardError",
    "InfeasibleError",
    "IrrepMultiset",
    "Subspace",
    "TheoremViolation",
    "WeightModule",
    "admissible_triples",
    "bracket_lam",
    "bracket_sym",
    "certify_max",
    "check_qmatrix_relations",
    "closed_form_verdicts",
    "closed_forms",
    "conjectural_sym_dim",
    "dcb_module",
    "decompose",
    "decompose_power",
    "decompose_triple",
    "degree_recursion_check",
    "dim_ext_cube",
    "dim_irrep",
    "dim_sym_cube",
    "ext_cube_closed",
    "ext_cube_decomposition",
    "exterior_four_vanishes",
    "flat_lower_bound",
    "flatness_check",
    "genericity_check",
    "gt_pair_bases",
    "hilbert_table",
    "howe_dim_check",
    "is_lambda_convex",
    "kappa_star",
    "kappa_weight",
    "koszul_series_probe",
    "mat_mul",
    "matrix_generator",
    "module_square",
    "multiplicities",
    "multiplicity_closed_form",
    "outer",
    "poisson_closure_dims",
    "power_dims",
    "simple_gl2",
    "specialize_module",
    "square_matrix_module",
    "standard_gld",
    "super_jacobian",
    "sym_cube_closed",
    "sym_cube_decomposition",
    "tensor",
    "triple_product",
    "valuation_cover_check",
]
