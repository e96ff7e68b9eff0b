"""Transfinite diameter estimation on affine varieties in Noether position."""

from .bases import (
    BasisFamily,
    CmConstructionError,
    Coset,
    GradedBasis,
    QuadratureError,
    QuadratureSpec,
    bb_basis,
    bb_structured,
    cm_basis,
    cm_generators,
    default_quadrature_n,
    family_for,
    gram,
    inner_product,
    monomial_graded_basis,
    torus_quadrature,
    verify_cm_products,
)
from .families import (
    ComplianceVerdict,
    CoreResult,
    UnsupportedFamilyShape,
    check_compliant,
    family_difference,
    find_core,
    parse_family,
)
from .polyring import (
    Monomial,
    PolyParseError,
    Polynomial,
    grevlex_key,
    normal_form,
    parse_polynomial,
    s_poly_check,
    star,
    top_homogeneous,
)
from .scalars import Exact, ExactSqrtError, exact_sqrt
from .variety import (
    CountRecord,
    InfinityReport,
    NoetherReport,
    VarietyPresentation,
    asymptotic_ratios,
    count,
    count_table,
    decompose_A,
    distinct_infinity_check,
    load_variety,
    sandwich_check,
    validate_noether,
)
from .vdm import (
    CompareReport,
    DiameterEstimate,
    FeketeError,
    FeketeResult,
    ScaleBoundReport,
    VdmEvaluation,
    brute_force_max,
    compare_bases,
    diameter_sequence,
    fekete_maximize,
    file_sampler,
    log_abs_vdm,
    points_sampler,
    random_variety_points,
    row_scale_bound,
    segment_sampler,
    torus_sampler,
    vdm_matrix,
)

__version__ = "0.1.0"
