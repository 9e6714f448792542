"""Minimal Lorentz surfaces in indefinite space forms: constructions and
numerical verification of the flat, pseudo-spherical and pseudo-hyperbolic
families, in arbitrary dimension and index."""

from .curves import (
    Curve,
    FamilyValidation,
    ParamFamily,
    builtin_curve,
    derivative_inner,
    make_example,
    null_check,
    seeded_null_pair,
    validate_family,
)
from .diffgeo import (
    FrameData,
    FundamentalForms,
    MetricData,
    fd_discrepancy,
    gauss_curvature,
    minimality_residual,
    partials,
    second_fundamental_form,
)
from .errors import (
    ConstraintViolationError,
    DegenerateMetricError,
    DomainError,
    InvalidInputError,
    PremiseError,
    SignatureMismatchError,
)
from .harness import (
    SurfaceSpec,
    VerificationReport,
    dumps_json,
    export_samples,
    list_families,
    sweep,
    verify,
)
from .indefinite import Ambient, AmbientKind, Signature
from .report import ConditionReport
from .surfaces import (
    Jet2,
    SurfaceMap,
    check_case_b_premises,
    check_case_c_conditions,
    check_case_ii_premises,
    check_case_iii_conditions,
    de_sitter_control,
    hyperbolic_case_ii,
    hyperbolic_case_iii,
    sphere_case_b,
    sphere_case_c,
    translation_surface,
)

__version__ = "0.1.0"
