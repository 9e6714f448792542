import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from lorentzmin.curves import (Curve, ParamFamily, builtin_curve, derivative_inner, hcosh, hsinh,
                               make_example)
from lorentzmin.errors import (
    DegenerateMetricError,
    DomainError,
    InvalidInputError,
    PremiseError,
    SignatureMismatchError,
)
from lorentzmin.harness import FD_SUBGRID, SURFACE_FAMILIES, SurfaceSpec, _resolve_curves
from lorentzmin.indefinite import Ambient, AmbientKind, Signature, indefinite_dot
from lorentzmin.report import DEFAULT_TOLS, ConditionReport
from lorentzmin.surfaces import (
    DE_SITTER_DOMAIN,
    FLAT_DOMAIN,
    _col,
    check_case_b_premises,
    check_case_c_conditions,
    check_case_ii_premises,
    check_case_iii_conditions,
    de_sitter_control,
    grid_axes,
    hyperbolic_case_ii,
    hyperbolic_case_iii,
    sphere_case_b,
    sphere_case_c,
    translation_surface,
)

REF_82 = {"a": 1 / math.sqrt(2), "b": 1 / math.sqrt(2),
             "p": 1.1, "q": 1.5, "r": 1.1, "s": 1.5}


def perturbed(curve: Curve, slot: int, component) -> Curve:
    comps = list(curve.components)
    comps[slot] += component
    return Curve(curve.signature, comps, curve.domain, curve.label + "+bump")


class TestTranslation:
    def test_totally_geodesic_plane(self):
        surf = translation_surface(builtin_curve("line2"), builtin_curve("line2_rev"))
        assert surf.ambient.kind is AmbientKind.FLAT
        jet = surf.jet(0.2, -0.4)
        assert indefinite_dot(jet.Lx, jet.Ly, 1) == pytest.approx(-2.0)
        assert np.all(jet.Lxy == 0)

    def test_hyperbolic_pair_on_safe_domain(self):
        # pairing 1 - sinh x sinh y is negative and bounded away from zero
        # for x, y in [1.05, 1.45]
        z = builtin_curve("hyp4")
        w = builtin_curve("hyp4_mirror")
        surf = translation_surface(z, w, ((1.05, 1.45), (1.05, 1.45)))
        jet = surf.jet(1.2, 1.3)
        pairing = indefinite_dot(jet.Lx, jet.Ly, 2)
        assert pairing == pytest.approx(1 - math.sinh(1.2) * math.sinh(1.3))
        assert pairing < 0
        # the flat chart (a = 1, b = 0) gives the curves' derivatives bit for bit
        x, y = grid_axes(surf.domain, (7, 9))
        jet, (dz, dw) = surf.jet(x, y), (z.derivatives(x, range(3)), w.derivatives(y, range(3)))
        expected = {"L": dz[0] + dw[0], "Lx": dz[1], "Ly": dw[1], "Lxx": dz[2], "Lyy": dw[2],
                    "Lxy": 0.0, "Lxxy": 0.0, "Lxyy": 0.0}
        for name, value in expected.items():
            assert np.array_equal(getattr(jet, name), np.broadcast_to(value, jet.L.shape)), name
        lx, ly = surf.tangent(x, y)
        assert np.array_equal(lx, jet.Lx) and np.array_equal(ly, jet.Ly)

    def test_vanishing_pairing_rejected(self):
        # null line with <z', w'> = 1 - sinh x, vanishing at arcsinh 1 ~ 0.881
        from lorentzmin.curves import const, poly

        z = builtin_curve("hyp4")
        w = Curve(Signature(4, 2), [poly(0, 1), poly(0, -1), const(0), poly(0, math.sqrt(2))])
        with pytest.raises(DegenerateMetricError):
            translation_surface(z, w, ((0.5, 1.2), (-0.5, 0.5)))

    def test_pairing_exactly_at_tol_passes_as_its_premise_report_does(self):
        # the constructor rejects a pairing by ConditionReport.from_min's rule:
        # a least |<z', w'>| equal to tol passes, and one below tol fails
        z, w = builtin_curve("hyp6"), builtin_curve("trig6")
        xs, ys = grid_axes(FLAT_DOMAIN, (41, 41))
        least = float(np.abs(derivative_inner(z, 1, w, 1, xs, ys)).min())
        assert ConditionReport.from_min("pairing", [least], least, "g").passed
        translation_surface(z, w, tol=least)
        with pytest.raises(DegenerateMetricError, match="vanishes"):
            translation_surface(z, w, tol=np.nextafter(least, np.inf))

    def test_non_null_curve_rejected(self):
        from lorentzmin.curves import const

        bad = Curve(Signature(4, 2), [hsinh(1), hcosh(1), const(0), const(0)])
        with pytest.raises(PremiseError) as exc:
            translation_surface(bad, builtin_curve("hyp4_conj"))
        assert "null-z" in exc.value.failed

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatchError):
            translation_surface(builtin_curve("line2"), builtin_curve("hyp4"))


class TestSphereCaseB:
    def test_example_71_ambient(self):
        z = make_example(ParamFamily("Ex7_1", {"a": 1, "p": 3, "q": 1, "r": 2}))
        surf = sphere_case_b(z)
        assert surf.ambient.kind is AmbientKind.SPHERE
        assert surf.ambient.surface_signature == Signature(6, 3)
        assert surf.ambient.embedding_signature == Signature(7, 3)
        assert surf.flags == ()

    def test_quadratic_curve_flags_geodesic_boundary(self):
        surf = sphere_case_b(builtin_curve("quadratic3"))
        assert "totally-geodesic-boundary" in surf.flags
        reports = check_case_b_premises(builtin_curve("quadratic3"))
        by_id = {r.condition_id: r for r in reports}
        assert by_id["lightcone-z"].passed
        assert by_id["speed-z"].passed
        assert by_id["acc-null-z"].passed
        assert not by_id["jerk-nonzero-z"].passed

    def test_wrong_curve_raises_premise_error(self):
        bad = Curve(Signature(2, 1), [hsinh(1), hcosh(1)])
        # (sinh t, cosh t): not on the light cone, speed -1 instead of 4
        with pytest.raises(PremiseError) as exc:
            sphere_case_b(bad, domain=((0.1, 0.9), (0.1, 0.9)))
        assert "lightcone-z" in exc.value.failed
        assert "speed-z" in exc.value.failed

    def test_premise_reports_kept_on_surface_and_error(self):
        ids = ["lightcone-z", "speed-z", "acc-null-z", "jerk-nonzero-z"]
        z = make_example(ParamFamily("Ex7_1", {"a": 1, "p": 3, "q": 1, "r": 2}))
        assert [r.condition_id for r in sphere_case_b(z).premises] == ids
        with pytest.raises(PremiseError) as exc:
            sphere_case_b(builtin_curve("trig3"))
        assert [r.condition_id for r in exc.value.reports] == ids
        assert exc.value.failed == [r.condition_id for r in exc.value.reports[:3]
                                    if not r.passed]

    def test_premises_checked_before_domain(self):
        # a bad domain and failed premises: the premises decide
        with pytest.raises(PremiseError):
            sphere_case_b(builtin_curve("trig3"), domain=((-0.5, 0.5), (-0.5, 0.5)))

    def test_domain_touching_pole_rejected(self):
        z = make_example(ParamFamily("Ex7_1", {"a": 1, "p": 3, "q": 1, "r": 2}))
        with pytest.raises(DomainError):
            sphere_case_b(z, domain=((-0.5, 0.5), (-0.5, 0.5)))

    def test_domain_exceeding_curve_rejected(self):
        z = make_example(ParamFamily("Ex7_1", {"a": 1, "p": 3, "q": 1, "r": 2}))
        with pytest.raises(InvalidInputError):
            sphere_case_b(z, domain=((0.1, 3.0), (0.1, 1.1)))

    def test_premises_all_pass_for_example_71(self):
        z = make_example(ParamFamily("Ex7_1", {"a": 1, "p": 3, "q": 1, "r": 2}))
        assert all(r.passed for r in check_case_b_premises(z))


class TestSphereCaseC:
    def test_example_72_radicand_valid(self):
        z, w = make_example(ParamFamily("Ex7_2", {"p": 3, "q": 1.5, "r": 1}))
        surf = sphere_case_c(z, w)
        assert surf.ambient.surface_signature == Signature(13, 6)
        reports = check_case_c_conditions(z, w)
        assert all(r.passed for r in reports)

    def test_halved_quadratic_pair_is_geodesic_instance(self):
        z = builtin_curve("half_quadratic")
        w = builtin_curve("half_quadratic_rev")
        reports = check_case_c_conditions(z, w)
        assert all(r.passed for r in reports)
        surf = sphere_case_c(z, w)
        # both thirds vanish, so the joint conditions hold as 0 = 0
        assert np.all(z.at(0.4, 3) == 0) and np.all(w.at(0.4, 3) == 0)
        assert surf.ambient.surface_signature == Signature(2, 1)

    def test_perturbed_second_curve_breaks_first_condition(self):
        z, w = make_example(ParamFamily("Ex7_2", {"p": 3, "q": 1.5, "r": 1}))
        w_bad = perturbed(w, 13, hsinh(0.01, 3))
        reports = check_case_c_conditions(z, w_bad)
        by_id = {r.condition_id: r for r in reports}
        assert not by_id["c.1"].passed
        assert by_id["c.1"].max_residual > 0.01

    def test_signature_mismatch(self):
        z, _ = make_example(ParamFamily("Ex7_2", {"p": 3, "q": 1.5, "r": 1}))
        with pytest.raises(SignatureMismatchError):
            sphere_case_c(z, builtin_curve("half_quadratic"))


class TestHyperbolicCaseII:
    def test_example_81_ambient(self):
        z = make_example(ParamFamily("Ex8_1", {"a": 1, "b": 1.1, "p": 1, "q": 1.5}))
        surf = hyperbolic_case_ii(z)
        assert surf.ambient.kind is AmbientKind.HYPERBOLIC
        assert surf.ambient.surface_signature == Signature(7, 3)
        assert surf.ambient.embedding_signature == Signature(8, 4)
        assert surf.flags == ()

    def test_degenerate_jerk_flags_geodesic_boundary(self):
        # components built from cosh(sqrt2 t)/sinh(sqrt2 t) have z''' = 2z'
        surf = hyperbolic_case_ii(builtin_curve("ads_null"))
        assert "totally-geodesic-boundary" in surf.flags
        reports = check_case_ii_premises(builtin_curve("ads_null"))
        assert [r.passed for r in reports] == [True, True, True, False]

    def test_spacelike_speed_curve_rejected(self):
        z71 = make_example(ParamFamily("Ex7_1", {"a": 1, "p": 3, "q": 1, "r": 2}))
        with pytest.raises(PremiseError) as exc:
            hyperbolic_case_ii(z71)
        assert "speed-z" in exc.value.failed  # <z',z'> = 4, not -2

    def test_premise_reports_kept_on_surface_and_error(self):
        ids = ["lightcone-z", "speed-z", "acc-norm-z", "nondegenerate-z"]
        z = make_example(ParamFamily("Ex8_1", {"a": 1, "b": 1.1, "p": 1, "q": 1.5}))
        assert [r.condition_id for r in hyperbolic_case_ii(z).premises] == ids
        z71 = make_example(ParamFamily("Ex7_1", {"a": 1, "p": 3, "q": 1, "r": 2}))
        with pytest.raises(PremiseError) as exc:
            hyperbolic_case_ii(z71)
        assert [r.condition_id for r in exc.value.reports] == ids

    def test_premises_pass_for_example_81(self):
        z = make_example(ParamFamily("Ex8_1", {"a": 1, "b": 1.1, "p": 1, "q": 1.5}))
        assert all(r.passed for r in check_case_ii_premises(z))


class TestHyperbolicCaseIII:
    def test_example_82_reference_parameters(self):
        z, w = make_example(ParamFamily("Ex8_2", REF_82))
        surf = hyperbolic_case_iii(z, w)
        assert surf.ambient.surface_signature == Signature(13, 7)
        assert all(r.passed for r in check_case_iii_conditions(z, w))

    def test_degenerate_split_pair_passes_all_conditions(self):
        # z has z''' = 2z', w is constant: every condition term vanishes
        # or reduces to the quadric identity, and the surface is the
        # totally geodesic anti-de Sitter instance
        z = builtin_curve("ads_null_open")
        w = builtin_curve("unit_const32")
        reports = check_case_iii_conditions(z, w)
        assert all(r.passed for r in reports)
        surf = hyperbolic_case_iii(z, w)
        jet = surf.jet(0.3, -0.2)
        assert indefinite_dot(jet.L, jet.L, 2) == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate_pair_zero_sides_but_wrong_norm(self):
        # both curves satisfy c''' = 2c', so the second and third
        # conditions hold as 0 = 0 even though the first one fails
        z = builtin_curve("ads_null")
        w = builtin_curve("ads_null")
        reports = check_case_iii_conditions(z, w)
        by_id = {r.condition_id: r for r in reports}
        assert not by_id["iii.1"].passed
        # 2z' - z''' vanishes up to (sqrt2)^3 vs 2 sqrt2 rounding
        assert by_id["iii.2"].passed and by_id["iii.2"].max_residual < 1e-12
        assert by_id["iii.3"].passed and by_id["iii.3"].max_residual < 1e-12

    def test_perturbed_second_curve_breaks_first_condition(self):
        z, w = make_example(ParamFamily("Ex8_2", REF_82))
        w_bad = perturbed(w, 13, hsinh(0.01, 3))
        reports = check_case_iii_conditions(z, w_bad)
        by_id = {r.condition_id: r for r in reports}
        assert not by_id["iii.1"].passed


def _de_sitter_closed_form(x, y):
    """The unit de Sitter surface's L = v/(x+y), v = (1-xy, x-y, 1+xy), and
    its jet fields, written out by hand."""
    def vec(*parts):  # the three components over the nodes, dim last
        return np.stack(np.broadcast_arrays(x + y, *parts)[1:], axis=-1)

    s = _col(x + y)
    v, vx, vy = vec(1 - x * y, x - y, 1 + x * y), vec(-y, 1.0, y), vec(-x, -1.0, x)
    vxy = vec(-1.0, 0.0, 1.0)
    return {
        "L": v / s,
        "Lx": vx / s - v / s**2,
        "Ly": vy / s - v / s**2,
        "Lxx": -2 * vx / s**2 + 2 * v / s**3,
        "Lxy": vxy / s - (vx + vy) / s**2 + 2 * v / s**3,
        "Lyy": -2 * vy / s**2 + 2 * v / s**3,
        "Lxxy": -2 * vxy / s**2 + 2 * (2 * vx + vy) / s**3 - 6 * v / s**4,
        "Lxyy": -2 * vxy / s**2 + 2 * (vx + 2 * vy) / s**3 - 6 * v / s**4,
    }


class TestDeSitterControl:
    def test_chart_matches_closed_form(self):
        # the sphere pair chart on half_quadratic and half_quadratic_rev is
        # the closed-form surface, with the same label, flags and ambient
        surf = de_sitter_control()
        assert (surf.label, surf.family, surf.flags) == (
            "de_sitter_control", "de_sitter_control", ("negative-control",))
        assert surf.ambient == Ambient.flat(Signature(3, 1))
        assert [c.label for c in surf.sources] == ["half_quadratic", "half_quadratic_rev"]
        x, y = grid_axes(DE_SITTER_DOMAIN, (21, 21))
        jet, expected = surf.jet(x, y), _de_sitter_closed_form(x, y)
        for name, value in expected.items():
            assert np.max(np.abs(getattr(jet, name) - value)) <= 1e-15, name
        assert np.max(np.abs(surf.position(x, y) - expected["L"])) <= 1e-15

    def test_unit_quadric_and_null_form(self):
        surf = de_sitter_control()
        assert surf.ambient.kind is AmbientKind.FLAT
        jet = surf.jet(0.95, 1.05)
        assert indefinite_dot(jet.L, jet.L, 1) == pytest.approx(1.0, abs=1e-12)
        assert abs(indefinite_dot(jet.Lx, jet.Lx, 1)) < 1e-12
        assert abs(indefinite_dot(jet.Ly, jet.Ly, 1)) < 1e-12
        s = 0.95 + 1.05
        assert indefinite_dot(jet.Lx, jet.Ly, 1) == pytest.approx(-2 / s**2)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            de_sitter_control(((-0.5, 0.5), (-0.5, 0.5)))


SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"


def _rich1(f, t, h):
    """Richardson-extrapolated central difference of f at t, step h per node."""
    d1 = (f(t + h) - f(t - h)) / _col(2 * h)
    d2 = (f(t + h / 2) - f(t - h / 2)) / _col(h)
    return (4 * d2 - d1) / 3


@pytest.mark.parametrize("name", sorted(p.stem for p in SPEC_DIR.glob("*.json")))
def test_third_order_jet_matches_richardson_of_mixed_partial(name):
    # L_xxy and L_xyy against Richardson central differences of the
    # analytic L_xy, relative at scale max(1, |analytic|)
    spec = SurfaceSpec.from_dict(json.loads((SPEC_DIR / f"{name}.json").read_text()))
    curves, _ = _resolve_curves(spec)
    surface = SURFACE_FAMILIES[spec.family].build(
        curves, spec.resolved_domain(), DEFAULT_TOLS["premise"])
    sub = surface.grid(FD_SUBGRID)
    x, y = sub[:, 0], sub[:, 1]
    jet = surface.jet(x, y)
    # every family is a chart: stackable, with a tangent map and a jet table
    assert all(f is not None for f in (surface.chart, surface.tangent, jet.table))
    hx, hy = 1e-3 * np.maximum(1.0, np.abs(x)), 1e-3 * np.maximum(1.0, np.abs(y))
    fd_x = _rich1(lambda t: surface.jet(t, y).Lxy, x, hx)
    fd_y = _rich1(lambda t: surface.jet(x, t).Lxy, y, hy)
    for analytic, fd in ((jet.Lxxy, fd_x), (jet.Lxyy, fd_y)):
        analytic = np.broadcast_to(analytic, fd.shape)
        scale = np.maximum(1.0, np.max(np.abs(analytic), axis=-1))
        assert np.max(np.max(np.abs(fd - analytic), axis=-1) / scale) <= 1e-7


@pytest.mark.parametrize("name, chart", [
    ("sphere_b_ex71", "_SPHERE_CHART"), ("sphere_c_ex72", "_SPHERE_CHART"),
    ("hyp_ii_ex81", "_HYPERBOLIC_CHART"), ("hyp_iii_ex82", "_HYPERBOLIC_CHART"),
])
def test_pde_xy_fails_when_L_disagrees_with_its_chart(monkeypatch, name, chart):
    # negative control: an immersion whose Z' coefficient is off by 1e-6
    # leaves the jet's L_xy (from the chart's coefficients) unchanged, so
    # pde-xy, which compares L_xy with L, must fail
    from lorentzmin import surfaces
    from lorentzmin.harness import verify

    good = getattr(surfaces, chart)
    monkeypatch.setattr(surfaces, chart, dataclasses.replace(
        good, immersion=lambda Z, Z1, s: good.immersion(Z, (1 + 1e-6) * Z1, s)))
    report = verify(json.loads((SPEC_DIR / f"{name}.json").read_text()))
    assert "pde-xy" in report.failed_checks()
