import json
import math
import pathlib

import numpy as np
import pytest

from lorentzmin import diffgeo
from lorentzmin.curves import ParamFamily, builtin_curve, make_example
from lorentzmin.diffgeo import (
    connection_data,
    fd_discrepancy,
    fd_jet,
    gauss_curvature,
    gauss_equation_residual,
    induced_metric,
    minimality_residual,
    partials,
    point_forms,
    second_fundamental_form,
)
from lorentzmin.errors import DegenerateMetricError, DomainError
from lorentzmin.harness import FD_SUBGRID, SURFACE_FAMILIES, SurfaceSpec, _resolve_curves
from lorentzmin.indefinite import indefinite_dot
from lorentzmin.report import DEFAULT_TOLS
from lorentzmin.surfaces import (
    Jet2,
    _col,
    de_sitter_control,
    hyperbolic_case_ii,
    hyperbolic_case_iii,
    sphere_case_b,
    translation_surface,
)

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"

REF_82 = {"a": 1 / math.sqrt(2), "b": 1 / math.sqrt(2),
             "p": 1.1, "q": 1.5, "r": 1.1, "s": 1.5}


@pytest.fixture(scope="module")
def plane():
    return translation_surface(builtin_curve("line2"), builtin_curve("line2_rev"))


@pytest.fixture(scope="module")
def sphere_71():
    z = make_example(ParamFamily("Ex7_1", {"a": 1, "p": 3, "q": 1, "r": 2}))
    return sphere_case_b(z)


@pytest.fixture(scope="module")
def hyp_81():
    z = make_example(ParamFamily("Ex8_1", {"a": 1, "b": 1.1, "p": 1, "q": 1.5}))
    return hyperbolic_case_ii(z)


@pytest.fixture(scope="module")
def hyp_82():
    z, w = make_example(ParamFamily("Ex8_2", REF_82))
    return hyperbolic_case_iii(z, w)


class TestPartials:
    def test_plane_second_partials_vanish(self, plane):
        jet = partials(plane, 0.3, -0.2)
        for name in ("Lxx", "Lxy", "Lyy"):
            assert np.all(getattr(jet, name) == 0)

    def test_analytic_vs_fd_on_example_surface(self, sphere_71):
        assert fd_discrepancy(sphere_71, 0.3, 0.5) < 1e-6

    def test_sphere_pde_for_mixed_partial(self, sphere_71):
        x, y = 0.3, 0.5
        jet = partials(sphere_71, x, y)
        np.testing.assert_allclose(jet.Lxy, 2 * jet.L / (x + y) ** 2, atol=1e-6)

    def test_point_outside_domain(self, sphere_71):
        with pytest.raises(DomainError):
            partials(sphere_71, 5.0, 5.0)

    def test_fd_only_surface(self, sphere_71):
        import dataclasses

        bare = dataclasses.replace(sphere_71, jet=None)
        jet_fd = partials(bare, 0.4, 0.6)
        jet_an = partials(sphere_71, 0.4, 0.6)
        assert np.max(np.abs(jet_fd.Lxx - jet_an.Lxx)) < 1e-5
        # no third-order jet, so K comes from the E-field stencil
        assert jet_fd.Lxxy is None and jet_fd.Lxyy is None
        assert gauss_curvature(bare, 0.4, 0.6) == pytest.approx(1.0, abs=1e-4)

    def test_grid_path_makes_one_jet_call_per_block(self, sphere_71):
        import dataclasses

        calls = []

        def jet(x, y):
            calls.append((x, y))
            return sphere_71.jet(x, y)

        counted = dataclasses.replace(sphere_71, jet=jet)
        (K,) = diffgeo.grid_values(counted, (81, 81), [lambda x, y, jet, f: f.K])
        rows = diffgeo.BLOCK_NODES // 81
        assert len(calls) == -(-81 // rows)
        assert np.max(np.abs(K - 1.0)) < 1e-7

    def test_fd_discrepancy_makes_one_position_call(self, sphere_71):
        import dataclasses

        calls = []

        def position(x, y):
            calls.append((x, y))
            return sphere_71.position(x, y)

        counted = dataclasses.replace(sphere_71, position=position)
        sub = counted.grid((5, 5))
        assert np.max(fd_discrepancy(counted, sub[:, 0], sub[:, 1])) < 1e-6
        assert len(calls) == 1
        assert np.shape(calls[0][0]) == (25, 25)  # offsets x nodes


class TestInducedMetric:
    def test_translation_plane(self, plane):
        md = induced_metric(plane, 0.1, 0.2)
        assert (md.g_xx, md.g_xy, md.g_yy) == (0.0, -2.0, 0.0)
        assert md.E == pytest.approx(math.sqrt(2))

    def test_sphere_example_at_fixed_point(self, sphere_71):
        md = induced_metric(sphere_71, 0.3, 0.5)
        assert md.g_xy == pytest.approx(-2 / 0.8**2, abs=1e-12)
        assert md.g_xy == pytest.approx(-3.125, abs=1e-12)
        assert abs(md.g_xx) < 1e-9 and abs(md.g_yy) < 1e-9

    def test_hyperbolic_example_at_fixed_point(self, hyp_81):
        md = induced_metric(hyp_81, 0.2, 0.1)
        expected = -1 / math.cosh(0.3 / math.sqrt(2)) ** 2
        assert md.g_xy == pytest.approx(expected, abs=1e-12)

    def test_positive_pairing_rejected(self):
        # reversed orientation: <z', w'> = +2 everywhere
        from lorentzmin.curves import Curve, poly
        from lorentzmin.indefinite import Signature

        w = Curve.from_components(Signature(2, 1), [poly(0, -1), poly(0, 1)])
        surf = translation_surface(builtin_curve("line2"), w)
        with pytest.raises(DegenerateMetricError):
            induced_metric(surf, 0.0, 0.0)


class TestGaussCurvature:
    def test_flat(self, plane):
        assert abs(gauss_curvature(plane, 0.2, -0.3)) < 1e-6

    def test_sphere_families(self, sphere_71):
        assert gauss_curvature(sphere_71, 0.5, 0.6) == pytest.approx(1.0, abs=1e-4)

    def test_hyperbolic_families(self, hyp_81):
        assert gauss_curvature(hyp_81, 0.2, -0.1) == pytest.approx(-1.0, abs=1e-4)


class TestConnection:
    def test_constant_factor_kills_coefficients(self, plane):
        fd = connection_data(plane, 0.1, 0.4)
        for value in (fd.gamma_x, fd.gamma_y, fd.omega_e1, fd.omega_e2):
            assert abs(value) < 1e-9

    def test_sphere_gamma(self, sphere_71):
        x, y = 0.3, 0.4
        fd = connection_data(sphere_71, x, y)
        assert fd.gamma_x == pytest.approx(-2 / (x + y), abs=1e-5)
        assert fd.gamma_y == pytest.approx(-2 / (x + y), abs=1e-5)
        assert fd.omega_e1 == pytest.approx(-1 / math.sqrt(2), abs=1e-5)

    def test_frame_products(self, hyp_82):
        idx = hyp_82.ambient.embedding_signature.index
        fd = connection_data(hyp_82, 0.3, -0.2)
        assert indefinite_dot(fd.e1, fd.e2, idx) == pytest.approx(-1.0, abs=1e-7)
        assert abs(indefinite_dot(fd.e1, fd.e1, idx)) < 1e-7
        assert abs(indefinite_dot(fd.e2, fd.e2, idx)) < 1e-7


class TestSecondFundamentalForm:
    def test_translation_is_exactly_minimal(self):
        z = builtin_curve("hyp6")
        w = builtin_curve("trig6")
        surf = translation_surface(z, w)
        forms = second_fundamental_form(surf, 0.4, -0.5)
        assert np.max(np.abs(forms.H)) == 0.0

    def test_h_consistency_identity(self, sphere_71):
        forms = second_fundamental_form(sphere_71, 0.4, 0.4)
        assert np.max(np.abs(forms.H + forms.h12)) == 0.0

    def test_de_sitter_is_umbilical(self):
        surf = de_sitter_control()
        x, y = 0.95, 1.02
        forms = second_fundamental_form(surf, x, y)
        L = surf.position(x, y)
        np.testing.assert_allclose(forms.H, -L, atol=1e-5)
        assert np.max(np.abs(forms.h11)) < 1e-9
        assert np.max(np.abs(forms.h22)) < 1e-9

    def test_sphere_normal_field_recovery(self, sphere_71):
        z = sphere_71.sources[0]
        x, y = 0.4, 0.7
        forms = second_fundamental_form(sphere_71, x, y)
        expected = -((x + y) ** 2) * z.at(x, 3) / 4
        rel = np.max(np.abs(forms.h11 - expected)) / np.max(np.abs(expected))
        assert rel < 1e-5

    def test_hyperbolic_normal_field_recovery(self, hyp_81):
        z = hyp_81.sources[0]
        x, y = 0.3, -0.4
        forms = second_fundamental_form(hyp_81, x, y)
        u = (x + y) / math.sqrt(2)
        expected = (
            math.sqrt(2) * z.at(x, 1) - z.at(x, 3) / math.sqrt(2)
        ) * math.cosh(u) ** 2
        rel = np.max(np.abs(forms.h11 - expected)) / np.max(np.abs(expected))
        assert rel < 1e-5

    def test_singular_gram_detected(self):
        with pytest.raises(DegenerateMetricError):
            diffgeo._gram_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]))


class TestMinimality:
    def test_plane_passes_tight(self, plane):
        rep = minimality_residual(plane, tol=1e-12)
        assert rep.passed and rep.max_residual < 1e-12

    def test_hyperbolic_pair_surface_passes(self, hyp_82):
        rep = minimality_residual(hyp_82, tol=1e-6)
        assert rep.passed

    def test_de_sitter_fails_near_one(self):
        rep = minimality_residual(de_sitter_control(), tol=1e-6)
        assert not rep.passed
        # max-norm of H = L peaks at the (0.9, 0.9) corner: (1+xy)/(x+y)
        assert rep.max_residual == pytest.approx(1.81 / 1.8, abs=2e-4)


class TestGaussEquation:
    def test_plane(self, plane):
        assert abs(gauss_equation_residual(plane, 0.2, 0.3)) < 1e-6

    def test_sphere_example(self, sphere_71):
        assert abs(gauss_equation_residual(sphere_71, 0.4, 0.5)) < 1e-3

    def test_de_sitter_with_flat_ambient(self):
        # K = 1, c = 0, and the umbilical form gives <h12,h12> = <L,L> = 1
        assert abs(gauss_equation_residual(de_sitter_control(), 1.0, 1.0)) < 1e-3

    def test_curvature_consistency_across_families(self, sphere_71, hyp_81, hyp_82):
        for surf in (sphere_71, hyp_81, hyp_82):
            (x0, x1), (y0, y1) = surf.domain
            for x, y in ((x0 + 0.1, y0 + 0.2), ((x0 + x1) / 2, (y0 + y1) / 2)):
                jet, forms = point_forms(surf, x, y)
                idx = surf.ambient.embedding_signature.index
                implied = (surf.ambient.curvature
                           - indefinite_dot(forms.h11, forms.h22, idx)
                           + indefinite_dot(forms.h12, forms.h12, idx))
                assert abs(forms.K - implied) < 2e-3


class TestNonFlatTranslation:
    def test_hyperbolic_pair_minimal_but_curved(self):
        # minimal by construction, yet K is far from zero since the
        # pairing 1 - sinh x sinh y genuinely varies
        surf = translation_surface(
            builtin_curve("hyp4"), builtin_curve("hyp4_mirror"),
            ((1.05, 1.45), (1.05, 1.45)),
        )
        rep = minimality_residual(surf, grid=(11, 11), tol=1e-7)
        assert rep.passed
        ks = [gauss_curvature(surf, x, y) for x, y in surf.grid((7, 7))]
        assert max(abs(k) for k in ks) > 1e-2
        assert abs(gauss_equation_residual(surf, 1.2, 1.25)) < 2e-3


class TestGeodesicBoundaryNormalField:
    def test_degenerate_jerk_gives_vanishing_form(self):
        # z''' = 2z' makes the expected normal field vanish; the surface
        # is totally geodesic and h must vanish on the whole frame
        surf = hyperbolic_case_ii(builtin_curve("ads_null"))
        forms = second_fundamental_form(surf, 0.3, -0.4)
        for h in (forms.h11, forms.h12, forms.h22):
            assert np.max(np.abs(h)) < 1e-9


class TestFdMixedPartial:
    def test_translation_mixed_partial_estimated_small(self):
        # the analytic jet has L_xy = 0; the FD estimate must stay under
        # 1e-7 in max-norm across the grid
        surf = translation_surface(builtin_curve("hyp6"), builtin_curve("trig6"))
        worst = max(
            float(np.max(np.abs(fd_jet(surf, x, y).Lxy)))
            for x, y in surf.grid((7, 7))
        )
        assert worst < 1e-7


class TestFdConvergence:
    def test_halving_step_improves_by_4x(self, sphere_71, hyp_81):
        for surf in (sphere_71, hyp_81):
            (x0, x1), (y0, y1) = surf.domain
            x, y = (x0 + x1) / 2, (y0 + y1) / 2
            coarse = fd_discrepancy(surf, x, y, h1=0.04, h2=0.04)
            fine = fd_discrepancy(surf, x, y, h1=0.02, h2=0.02)
            assert coarse / fine >= 4.0


# The per-offset Richardson differences that fd_jet replaced with one
# stacked position call; fd_jet must reproduce them bit for bit.


def _rich2(f, t, h):
    c = f(t)
    d1 = (f(t + h) - 2 * c + f(t - h)) / _col(h**2)
    d2 = (f(t + h / 2) - 2 * c + f(t - h / 2)) / _col((h / 2) ** 2)
    return (4 * d2 - d1) / 3


def _rich_cross(pos, x, y, h):
    def cross(hh):
        return (pos(x + hh, y + hh) - pos(x + hh, y - hh)
                - pos(x - hh, y + hh) + pos(x - hh, y - hh)) / _col(4 * hh * hh)

    return (4 * cross(h / 2) - cross(h)) / 3


def _per_offset_fd_jet(surface, x, y, h1=None, h2=None):
    x, y = diffgeo._nodes(x, y)
    pos = surface.position

    def step(h, base, t):
        return np.full(t.shape, float(h)) if h is not None else base * np.maximum(1.0, np.abs(t))

    hx1, hy1 = step(h1, diffgeo.FIRST_STEP, x), step(h1, diffgeo.FIRST_STEP, y)
    hx2, hy2 = step(h2, diffgeo.SECOND_STEP, x), step(h2, diffgeo.SECOND_STEP, y)
    return Jet2(
        L=pos(x, y),
        Lx=diffgeo._rich1(lambda t: pos(t, y), x, hx1),
        Ly=diffgeo._rich1(lambda t: pos(x, t), y, hy1),
        Lxx=_rich2(lambda t: pos(t, y), x, hx2),
        Lxy=_rich_cross(pos, x, y, np.maximum(hx2, hy2)),
        Lyy=_rich2(lambda t: pos(x, t), y, hy2),
    )


@pytest.mark.parametrize("name", sorted(p.stem for p in SPEC_DIR.glob("*.json")))
def test_stacked_fd_jet_matches_per_offset_differences(name):
    spec = SurfaceSpec.from_dict(json.loads((SPEC_DIR / f"{name}.json").read_text()))
    curves, _ = _resolve_curves(spec)
    surface = SURFACE_FAMILIES[spec.family].build(
        curves, spec.resolved_domain(), DEFAULT_TOLS["premise"])
    sub = surface.grid(FD_SUBGRID)
    (x0, x1), (y0, y1) = surface.domain
    for args in ((sub[:, 0], sub[:, 1]), (sub[:, 0], sub[:, 1], 0.04, 0.04),
                 ((x0 + x1) / 2, (y0 + y1) / 2)):
        stacked, reference = fd_jet(surface, *args), _per_offset_fd_jet(surface, *args)
        for field in ("L", "Lx", "Ly", "Lxx", "Lxy", "Lyy"):
            assert np.array_equal(getattr(stacked, field), getattr(reference, field)), field
