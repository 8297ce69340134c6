"""ffmult: exact finite-field multiplicity toolkit.

Hasse derivatives and zero multiplicities of sparse multivariate
polynomials, multiplicity-constrained interpolation, Kakeya set analysis,
the curve merger with exact output statistics, and multiplicity-based
Reed-Solomon list decoding.
"""

from . import errors
from .ff import (
    FieldSpec,
    field_enumerate,
    field_make,
    field_sample,
    parse_field_spec,
    rng_stream,
)
from .interpolate import (
    InterpolationProblem,
    TotalDegreeBasis,
    WeightedDegreeBasis,
    count_total_degree_monomials,
    count_weighted_monomials,
    nullspace_vector,
    vanishing_constraints,
    vanishing_interpolation,
)
from .kakeya import (
    KakeyaInstance,
    StatKakeyaInstance,
    exhaustive_min_kakeya,
    homogeneous_vanishing_check,
    is_kakeya,
    kakeya_lower_bounds,
    statistical_kakeya_check,
)
from .merger import (
    Distribution,
    MergerSpec,
    SourceSpec,
    distance_to_min_entropy,
    exact_output_distribution,
    f_dw,
    merger_make,
    seed_length,
    statistical_distance,
    verify_merger_theorem,
)
from .mvpoly import (
    Curve,
    MultiPoly,
    compose_curve,
    hasse_derivative,
    homogeneous_part,
    multiplicities,
    multiplicity,
    multiplicity_mass,
    poly_eval,
    restrict_to_line,
    vector_binomial,
)
from .rs_decode import (
    GSParams,
    RSInstance,
    brute_force_decode,
    choose_params,
    gs_interpolate,
    list_decode,
    list_size_bound,
    y_roots,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "FieldSpec",
    "field_enumerate",
    "field_make",
    "field_sample",
    "parse_field_spec",
    "rng_stream",
    "InterpolationProblem",
    "TotalDegreeBasis",
    "WeightedDegreeBasis",
    "count_total_degree_monomials",
    "count_weighted_monomials",
    "nullspace_vector",
    "vanishing_constraints",
    "vanishing_interpolation",
    "KakeyaInstance",
    "StatKakeyaInstance",
    "exhaustive_min_kakeya",
    "homogeneous_vanishing_check",
    "is_kakeya",
    "kakeya_lower_bounds",
    "statistical_kakeya_check",
    "Distribution",
    "MergerSpec",
    "SourceSpec",
    "distance_to_min_entropy",
    "exact_output_distribution",
    "f_dw",
    "merger_make",
    "seed_length",
    "statistical_distance",
    "verify_merger_theorem",
    "Curve",
    "MultiPoly",
    "compose_curve",
    "hasse_derivative",
    "homogeneous_part",
    "multiplicities",
    "multiplicity",
    "multiplicity_mass",
    "poly_eval",
    "restrict_to_line",
    "vector_binomial",
    "GSParams",
    "RSInstance",
    "brute_force_decode",
    "choose_params",
    "gs_interpolate",
    "list_decode",
    "list_size_bound",
    "y_roots",
]
