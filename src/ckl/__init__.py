"""Gaussian-kernel integral operators on embedded submanifolds.

Evaluates the Euclidean-distance Gaussian kernel operator on parametrized
Riemannian submanifolds, extracts its small-bandwidth expansion coefficients,
cross-checks them against curvature closed forms, and scans hypersurfaces for
equicurved points.
"""

__version__ = "0.1.0"

from .errors import (
    CklError,
    DegenerateChartError,
    DomainError,
    NumericsError,
    TruncatedPathError,
    ValidationError,
)
from .moments import (
    CpEstimate,
    HomogeneousPoly,
    MultiIndex,
    bell_generating_check,
    bell_partial,
    c_p,
    density_curvature_terms,
    pochhammer,
    poly_mul,
    poly_pow,
    poly_sphere_average,
    radial_power,
    sphere_moment,
)
from .manifold import (
    Chart,
    ChartPoint,
    ChordExpansion,
    CurvatureReport,
    EmbeddedManifold,
    GeodesicPath,
    GeodesicState,
    chord_expansion_check,
    curvature_at,
    geodesic_shoot,
    laplace_beltrami,
    ricci_frame,
    scalar_curvature_intrinsic,
    volume_density,
)
from .catalog import (
    CATALOG,
    catalog_manifold,
    load_manifold,
    load_manifold_text,
    make_graph,
    make_sphere,
    make_spheroid,
    make_torus,
)
from .coeffs import (
    EtaW,
    ExpansionCoefficients,
    TaylorData,
    a1_closed_form,
    alpha_terms,
    assemble_a,
    beta_terms,
    eta1_closed_form,
    eta_w,
    expansion_from_taylor,
    flat_taylor_data,
    sphere_taylor_data,
)
from .operator import (
    EpsLadder,
    LadderSample,
    QuadratureRule,
    TailEstimate,
    apply_operator,
    build_full_rule,
    build_localized_rule,
    default_eps_ladder,
    eps_sweep,
    k_eps,
    monte_carlo_operator,
    tail_estimate,
)
from .fit import (
    ClosedFormComparison,
    FitReport,
    compare_closed_form,
    fit_polynomial,
    richardson_sequence,
)
from .hypersurface import (
    EquicurvatureResult,
    LimitCriterionReport,
    PropositionReport,
    RefinedZeros,
    ScanResult,
    ShapeData,
    check_propositions,
    equicurvature_residual,
    limit_criterion_check,
    scan_equicurved,
    shape_at,
    synthetic_shape,
)
from .fields import (
    AmbientCoordField,
    ChartPolyField,
    ConstField,
    ScalarField,
    parse_function,
)
