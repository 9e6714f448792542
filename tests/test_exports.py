"""The package's public names: what ``import lorentzmin`` exports, and that
every module's ``__all__`` names something the module defines."""

import importlib
import pkgutil
import types

import pytest

import lorentzmin

EXPORTED = {
    "Ambient", "AmbientKind", "ConditionReport", "ConstraintViolationError", "Curve",
    "DegenerateMetricError", "DomainError", "FamilyValidation", "FrameData",
    "FundamentalForms", "InvalidInputError", "Jet2", "MetricData", "ParamFamily",
    "PremiseError", "Signature", "SignatureMismatchError", "SurfaceMap", "SurfaceSpec",
    "VerificationReport", "builtin_curve", "check_case_b_premises",
    "check_case_c_conditions", "check_case_ii_premises", "check_case_iii_conditions",
    "de_sitter_control", "derivative_inner", "dumps_json", "export_samples",
    "fd_discrepancy", "gauss_curvature", "hyperbolic_case_ii", "hyperbolic_case_iii",
    "list_families", "make_example", "minimality_residual", "null_check", "partials",
    "second_fundamental_form", "seeded_null_pair", "sphere_case_b", "sphere_case_c",
    "sweep", "translation_surface", "validate_family", "verify",
}

MODULES = sorted(m.name for m in pkgutil.iter_modules(lorentzmin.__path__))


def test_package_exports_are_pinned():
    public = {name for name, value in vars(lorentzmin).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == EXPORTED


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"lorentzmin.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
