import json
import math
import pathlib

import numpy as np
import pytest

from lorentzmin import diffgeo
from lorentzmin.curves import ParamFamily, builtin_curve, make_example
from lorentzmin.diffgeo import (
    fd_discrepancy,
    fd_jet,
    gauss_curvature,
    mean_curvature_norm,
    minimality_residual,
    partials,
    point_forms,
    second_fundamental_form,
)
from lorentzmin.errors import DegenerateMetricError, DomainError, InvalidInputError
from lorentzmin.harness import FD_SUBGRID, SURFACE_FAMILIES, SurfaceSpec, _resolve_curves
from lorentzmin.indefinite import AmbientKind, indefinite_dot
from lorentzmin.report import DEFAULT_TOLS
from lorentzmin.surfaces import (
    _FIELDS,
    Jet2,
    SurfaceMap,
    _col,
    de_sitter_control,
    grid_axes,
    hyperbolic_case_ii,
    hyperbolic_case_iii,
    sphere_case_b,
    translation_surface,
)

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"

REF_82 = {"a": 1 / math.sqrt(2), "b": 1 / math.sqrt(2),
             "p": 1.1, "q": 1.5, "r": 1.1, "s": 1.5}


def gauss_equation_residual(surface, x, y):
    """K - c + <h11,h22> - <h12,h12> at one point; zero when the Gauss
    equation holds.  K comes from the intrinsic E-field, the h-terms from
    the extrinsic projection, so this cross-checks the two computations."""
    f = point_forms(surface, x, y)[1]
    idx = surface.ambient.embedding_signature.index
    return float(f.K - surface.ambient.curvature
                 + indefinite_dot(f.h11, f.h22, idx) - indefinite_dot(f.h12, f.h12, idx))


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

    @pytest.mark.parametrize("function", [fd_jet, fd_discrepancy])
    @pytest.mark.parametrize("h, error, match", [
        (0.15, DomainError, "within 0.2 of a singular locus"),  # the stencil meets x+y = 0
        (-0.15, InvalidInputError, "h must be a finite step > 0, got -0.15"),
        (-0.1, InvalidInputError, "h must be a finite step > 0, got -0.1"),
        (0.0, InvalidInputError, "h must be a finite step > 0, got 0.0"),
        (math.nan, InvalidInputError, "h must be a finite step > 0, got nan"),
        (math.inf, InvalidInputError, "h must be a finite step > 0, got inf"),
    ])
    def test_fd_step_must_be_finite_and_positive(self, sphere_71, function, h, error, match,
                                                 recwarn):
        # a negative h would put a stencil past the singular-locus guard, across
        # x+y = 0, and h = -0.1 or 0 would divide by a zero step
        with pytest.raises(error, match=match):
            function(sphere_71, 0.1, 0.1, h)
        assert not recwarn.list

    def test_fd_only_surface(self, sphere_71):
        jet_fd = fd_jet(sphere_71, 0.4, 0.6)
        jet_an = partials(sphere_71, 0.4, 0.6)
        assert np.max(np.abs(jet_fd.Lxx - jet_an.Lxx)) < 1e-5
        # the FD jet has no third-order fields
        assert jet_fd.Lxxy is None and jet_fd.Lxyy is None
        # and no surface runs on it alone: one needs its jet and tangent
        with pytest.raises(TypeError):
            SurfaceMap(sphere_71.ambient, sphere_71.position, sphere_71.domain)

    def test_grid_path_makes_one_jet_call_per_block(self, sphere_71):
        import dataclasses

        calls = []

        def jet(x, y, *d):
            calls.append((x, y))
            return sphere_71.jet(x, y, *d)

        counted = dataclasses.replace(sphere_71, jet=jet)
        (K,) = diffgeo.grid_values(counted, (81, 81), [lambda x, y, jet, f: f.K])
        rows = diffgeo.BLOCK_NODES // 81
        assert len(calls) == -(-81 // rows)
        assert np.max(np.abs(K - 1.0)) < 1e-7

    @pytest.mark.parametrize("name", ["sphere_b_ex71", "hyp_iii_ex82"])
    def test_long_rows_split_into_blocks_of_at_most_block_nodes(self, monkeypatch, name):
        _, surface = _build_spec_surface(name)
        shapes = []
        forms = diffgeo._forms

        def recording(surface, x, y, curvature="jet", d=None):
            shapes.append(np.broadcast_shapes(np.shape(x), np.shape(y)))
            return forms(surface, x, y, curvature, d)

        monkeypatch.setattr(diffgeo, "_forms", recording)
        fields = [lambda x, y, jet, f: jet.L, lambda x, y, jet, f: f.K,
                  lambda x, y, jet, f: f.h11]
        split = diffgeo.grid_values(surface, (3, 3000), fields)
        assert all(rows * cols <= diffgeo.BLOCK_NODES for rows, cols in shapes)
        assert sum(rows * cols for rows, cols in shapes) == 3 * 3000
        xs, ys = grid_axes(surface.domain, (3, 3000))
        jet, whole = forms(surface, xs, ys)
        for got, want in zip(split, (jet.L, whole.K, whole.h11)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name, shape, chunks", [
        ("sphere_c_ex72", (81, 81), (1, 1)), ("sphere_b_ex71", (81, 81), (1,)),
        ("hyp_iii_ex82", (3, 2400), (1, 3)), ("hyp_iii_ex82", (1200, 2), (2, 1))])
    def test_grid_pass_evaluates_each_curve_once_per_axis_chunk(self, monkeypatch, name, shape,
                                                                chunks):
        # the harness's grid checks, xi-recovery's derivatives of z included:
        # each curve is evaluated once per chunk of at most BLOCK_NODES
        # coordinates of its own axis, never inside the block loop
        from lorentzmin.curves import Curve
        from lorentzmin.harness import _check_plan

        _, surface = _build_spec_surface(name)
        calls = []
        derivatives = Curve.derivatives

        def counted(curve, t, orders):
            calls.append(curve)
            return derivatives(curve, t, orders)

        monkeypatch.setattr(Curve, "derivatives", counted)
        values = diffgeo.grid_values(surface, shape, [e[1] for e in _check_plan(surface)[0]])
        assert [calls.count(c) for c in surface.sources] == list(chunks)
        assert len(calls) == sum(chunks)
        assert all(v.shape[:2] == shape for v in values)

    @pytest.mark.parametrize("check", ["pair conditions", "grid values"])
    def test_long_thin_grid_memory_grows_with_the_outputs_alone(self, check):
        # the axis tables are chunked like the blocks, so going from
        # [2, 5000] to [2, 50000] adds about the outputs' bytes: three
        # residual rows and the grid points (40 bytes a node) for the pair
        # conditions, one value (8 bytes a node) for a grid_values field
        import tracemalloc

        from lorentzmin.surfaces import check_case_c_conditions

        spec, surface = _build_spec_surface("sphere_c_ex72")
        z, w = surface.sources
        run, per_node = {
            "pair conditions": (lambda g: check_case_c_conditions(z, w, g, surface.domain), 40),
            "grid values": (lambda g: diffgeo.grid_values(surface, g, [lambda x, y, jet, f: f.K]),
                            8)}[check]

        def peak(grid):
            run(grid)
            tracemalloc.start()
            try:
                run(grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        growth = peak((2, 50000)) - peak((2, 5000))
        assert growth <= 2 * per_node * 2 * 45000 + 2**19, growth / 2**20

    def test_a_blocks_table_and_forms_die_before_the_next_blocks_jet(self, monkeypatch):
        # the chart jet's table (which the block's jet fields view) and the
        # block's forms are released by the time the next block's jet runs
        import dataclasses
        import weakref

        from lorentzmin.harness import _check_plan

        _, surface = _build_spec_surface("hyp_iii_ex82")
        made, live = [], []

        def jet(x, y, *d):
            live.append(sum(ref() is not None for ref in made))
            j = surface.jet(x, y, *d)
            made.append(weakref.ref(j.table))
            return j

        forms = diffgeo._forms

        def recording(*args):
            j, f = forms(*args)
            made.append(weakref.ref(f))
            return j, f

        monkeypatch.setattr(diffgeo, "_forms", recording)
        diffgeo.grid_values(dataclasses.replace(surface, jet=jet), (81, 81),
                            [e[1] for e in _check_plan(surface)[0]])
        blocks = -(-81 // (diffgeo.BLOCK_NODES // 81))
        assert len(made) == 2 * blocks and live == [0] * blocks

    def test_hyp_iii_verify_at_81x81_peaks_below_the_512_node_blocks(self):
        # 2.80 MiB with 512-node blocks, whose jet was copied into the table;
        # 2.41 MiB with 1,024-node blocks whose jet is written into it; 2.67
        # MiB with the joint conditions in the grid pass, read from jet.L
        import tracemalloc

        from lorentzmin.harness import verify

        spec = {**json.loads((SPEC_DIR / "hyp_iii_ex82.json").read_text()), "grid": [81, 81]}
        verify(spec)  # first-call allocations
        tracemalloc.start()
        try:
            assert verify(spec).overall_pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.80 * 2**20, peak / 2**20

    def test_fd_discrepancy_makes_one_position_call_per_stencil_group(self, monkeypatch,
                                                                      sphere_71):
        import dataclasses

        from lorentzmin.curves import Curve

        calls, evaluated = [], []
        derivatives = Curve.derivatives

        def position(x, y, *d):
            calls.append((np.shape(x), np.shape(y)))
            return sphere_71.position(x, y, *d)

        def counted_derivatives(curve, t, orders):
            evaluated.append(np.shape(t))
            return derivatives(curve, t, orders)

        counted = dataclasses.replace(sphere_71, position=position)
        xs, ys = grid_axes(counted.domain, (5, 5))
        monkeypatch.setattr(Curve, "derivatives", counted_derivatives)
        assert np.max(fd_discrepancy(counted, xs, ys)) < 1e-6
        # z is evaluated once for the analytic jet and once for the FD jet,
        # at x and at its 7 stencil abscissae
        assert evaluated == [(5, 1), (7, 5, 1)]
        # the centres, then each group's four offsets in one call (25
        # nodes), read from those tables: the two crosses of L_xy on both
        # axes, L_x with L_xx on the x axis, L_y with L_yy on the y axis
        xy4 = ((4, 5, 1), (4, 1, 5))
        assert calls == [((5, 1), (1, 5)), xy4, xy4, ((4, 5, 1), (1, 1, 5)),
                         ((1, 5, 1), (4, 1, 5))]

    def test_fd_partials_takes_the_centres_from_the_subgrid_jet(self, sphere_71):
        # the subgrid pass's fd-partials check hands fd_jet the L that the
        # block's jet holds, so its position calls are the four groups' alone
        import dataclasses

        from lorentzmin.harness import _check_plan

        calls = []

        def position(x, y, *d):
            calls.append((np.shape(x), np.shape(y)))
            return sphere_71.position(x, y, *d)

        counted = dataclasses.replace(sphere_71, position=position)
        (gap,) = [e[1] for e in _check_plan(counted)[1] if e[0] == "fd-partials"]
        (got,) = diffgeo.grid_values(counted, (5, 5), [gap], curvature="stencil")
        xy4 = ((4, 5, 1), (4, 1, 5))
        assert calls == [xy4, xy4, ((4, 5, 1), (1, 1, 5)), ((1, 5, 1), (4, 1, 5))]
        xs, ys = grid_axes(counted.domain, (5, 5))
        assert np.array_equal(got, fd_discrepancy(sphere_71, xs, ys))


class TestInducedMetric:
    def test_translation_plane(self, plane):
        md = point_forms(plane, 0.1, 0.2)[1].metric
        assert (md.g_xx, md.g_xy, md.g_yy) == (0.0, -2.0, 0.0)
        assert md.E == pytest.approx(math.sqrt(2))

    def test_sphere_example_at_fixed_point(self, sphere_71):
        md = point_forms(sphere_71, 0.3, 0.5)[1].metric
        assert md.g_xy == pytest.approx(-2 / 0.8**2, abs=1e-12)
        assert md.g_xy == pytest.approx(-3.125, abs=1e-12)
        assert abs(md.g_xx) < 1e-9 and abs(md.g_yy) < 1e-9

    def test_hyperbolic_example_at_fixed_point(self, hyp_81):
        md = point_forms(hyp_81, 0.2, 0.1)[1].metric
        expected = -1 / math.cosh(0.3 / math.sqrt(2)) ** 2
        assert md.g_xy == pytest.approx(expected, abs=1e-12)

    def test_positive_pairing_rejected(self):
        # reversed orientation: <z', w'> = +2 everywhere
        from lorentzmin.curves import Curve, poly
        from lorentzmin.indefinite import Signature

        w = Curve(Signature(2, 1), [poly(0, -1), poly(0, 1)])
        surf = translation_surface(builtin_curve("line2"), w)
        with pytest.raises(DegenerateMetricError):
            point_forms(surf, 0.0, 0.0)


class TestGaussCurvature:
    def test_flat(self, plane):
        assert abs(gauss_curvature(plane, 0.2, -0.3)) < 1e-6

    def test_sphere_families(self, sphere_71):
        assert gauss_curvature(sphere_71, 0.5, 0.6) == pytest.approx(1.0, abs=1e-4)

    def test_hyperbolic_families(self, hyp_81):
        assert gauss_curvature(hyp_81, 0.2, -0.1) == pytest.approx(-1.0, abs=1e-4)


class TestConnection:
    def test_constant_factor_kills_coefficients(self, plane):
        fd = point_forms(plane, 0.1, 0.4)[1].frame
        for value in (fd.gamma_x, fd.gamma_y, fd.omega_e1, fd.omega_e2):
            assert abs(value) < 1e-9

    def test_sphere_gamma(self, sphere_71):
        x, y = 0.3, 0.4
        fd = point_forms(sphere_71, x, y)[1].frame
        assert fd.gamma_x == pytest.approx(-2 / (x + y), abs=1e-5)
        assert fd.gamma_y == pytest.approx(-2 / (x + y), abs=1e-5)
        assert fd.omega_e1 == pytest.approx(-1 / math.sqrt(2), abs=1e-5)

    def test_frame_products(self, hyp_82):
        idx = hyp_82.ambient.embedding_signature.index
        fd = point_forms(hyp_82, 0.3, -0.2)[1].frame
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
            diffgeo._gram_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([[1.0], [0.0]]))


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

    def test_mean_curvature_norm_is_the_max_norm_of_H(self):
        _, sphere = _build_spec_surface("sphere_b_ex71")
        for surface, x, y in ((sphere, 0.5, 0.6), (de_sitter_control(), 1.0, 1.0)):
            norm = mean_curvature_norm(surface, x, y)
            assert norm == np.max(np.abs(second_fundamental_form(surface, x, y).H))
        assert mean_curvature_norm(sphere, 0.5, 0.6) < 1e-12
        # H = -L, and L(1, 1) = (0, 0, 1)
        assert abs(mean_curvature_norm(de_sitter_control(), 1.0, 1.0) - 1.0) < 1e-12


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
            coarse = fd_discrepancy(surf, x, y, h=0.04)
            fine = fd_discrepancy(surf, x, y, h=0.02)
            assert coarse / fine >= 4.0


# The per-offset Richardson differences that fd_jet replaced with one
# position call per group of offsets; fd_jet must reproduce them bit for bit.


def _rich1(f, t, h):
    d1 = (f(t + h) - f(t - h)) / _col(2 * h)
    d2 = (f(t + h / 2) - f(t - h / 2)) / _col(h)
    return (4 * d2 - d1) / 3


def _rich2(f, t, h):
    c = f(t)
    d1 = (f(t + h) - 2 * c + f(t - h)) / _col(h**2)
    d2 = (f(t + h / 2) - 2 * c + f(t - h / 2)) / _col((h / 2) ** 2)
    return (4 * d2 - d1) / 3


def _rich_cross(pos, x, y, hx, hy):
    def cross(hx, hy):
        return (pos(x + hx, y + hy) - pos(x + hx, y - hy)
                - pos(x - hx, y + hy) + pos(x - hx, y - hy)) / _col(4 * hx * hy)

    return (4 * cross(hx / 2, hy / 2) - cross(hx, hy)) / 3


def _per_offset_fd_jet(surface, x, y, h=None):
    x, y = np.broadcast_arrays(x, y)
    pos = surface.position
    hx, hy = (np.full(t.shape, float(h)) if h is not None
              else diffgeo.FD_STEP * np.maximum(1.0, np.abs(t)) for t in (x, y))
    return Jet2(
        L=pos(x, y),
        Lx=_rich1(lambda t: pos(t, y), x, hx),
        Ly=_rich1(lambda t: pos(x, t), y, hy),
        Lxx=_rich2(lambda t: pos(t, y), x, hx),
        Lxy=_rich_cross(pos, x, y, hx, hy),
        Lyy=_rich2(lambda t: pos(x, t), y, hy),
    )


def _build_spec_surface(name):
    spec = SurfaceSpec.from_dict(json.loads((SPEC_DIR / f"{name}.json").read_text()))
    curves, _ = _resolve_curves(spec)
    return spec, SURFACE_FAMILIES[spec.family].build(
        curves, spec.resolved_domain(), DEFAULT_TOLS["premise"])


@pytest.mark.parametrize("name", sorted(p.stem for p in SPEC_DIR.glob("*.json")))
def test_stacked_fd_jet_matches_per_offset_differences(name):
    _, surface = _build_spec_surface(name)
    sub = surface.grid(FD_SUBGRID)
    (x0, x1), (y0, y1) = surface.domain
    for args in ((sub[:, 0], sub[:, 1]), (sub[:, 0], sub[:, 1], 0.04),
                 ((x0 + x1) / 2, (y0 + y1) / 2)):
        stacked, reference = fd_jet(surface, *args), _per_offset_fd_jet(surface, *args)
        for field in ("L", "Lx", "Ly", "Lxx", "Lxy", "Lyy"):
            assert np.array_equal(getattr(stacked, field), getattr(reference, field)), field


# The batched LAPACK solve that the closed-form adjugate solve replaced;
# the projection must agree with it.


def _solve(G, rhs):
    """``diffgeo._gram_solve`` on batched matrices, nodes + (n, n) and nodes
    + (n, k), which it takes component-major, (n, n) + nodes and (n, k) + nodes."""
    def cm(a):
        return np.moveaxis(a, (-2, -1), (0, 1))
    return np.moveaxis(diffgeo._gram_solve(cm(G), cm(rhs)), (0, 1), (-2, -1))


def _random_gram_stack(rng, nodes, n):
    """Symmetric indefinite n x n matrices Q diag(lam) Q^T with |lam| in
    [0.5, 2] and mixed signs (condition number at most 4)."""
    q, _ = np.linalg.qr(rng.normal(size=(nodes, n, n)))
    lam = rng.uniform(0.5, 2.0, size=(nodes, n)) * np.where(np.arange(n) % 2, -1.0, 1.0)
    return (q * lam[:, None, :]) @ np.swapaxes(q, -1, -2)


class TestClosedFormProjection:
    @pytest.mark.parametrize("n", [2, 3])
    def test_random_indefinite_stacks_match_lapack(self, n):
        rng = np.random.default_rng(n)
        G = _random_gram_stack(rng, 500, n)
        rhs = rng.normal(size=(500, n, 3))
        ref = np.linalg.solve(G, rhs)
        np.testing.assert_allclose(_solve(G, rhs), ref, rtol=1e-12, atol=1e-12)
        # the guard is relative: a scaled stack is just as regular
        np.testing.assert_allclose(_solve(1e-12 * G, rhs), 1e12 * ref,
                                   rtol=1e-12, atol=1e-12 * np.max(np.abs(1e12 * ref)))

    @pytest.mark.parametrize("name", sorted(p.stem for p in SPEC_DIR.glob("*.json")))
    def test_spec_grid_matches_lapack(self, name):
        spec, surface = _build_spec_surface(name)
        xs, ys = grid_axes(surface.domain, spec.grid)
        jet = surface.jet(xs, ys)  # the chart jet, which holds the table
        W, d, T, nodes = diffgeo._table(surface, jet)
        assert nodes == spec.grid
        # component-major: W is (fields, dim, nodes) and T (3, 6, nodes)
        W, T = np.moveaxis(W, -1, 0), np.moveaxis(T, -1, 0)
        n = 2 if surface.ambient.kind is AmbientKind.FLAT else 3
        G, rhs = T[..., :n, :n], T[..., :n, 3:]
        ref = np.linalg.solve(G, rhs)
        np.testing.assert_allclose(_solve(G, rhs), ref, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(ref)))
        normal = W[..., 3:6, :] - np.swapaxes(ref, -1, -2) @ W[..., :n, :]
        scale = np.max(np.abs(W[..., 3:6, :]))
        h = np.moveaxis(diffgeo._second_form(np.moveaxis(W, 0, -1), np.moveaxis(T, 0, -1), n),
                        -1, 0)
        np.testing.assert_allclose(h, normal, rtol=1e-12, atol=1e-12 * scale)
        # the table holds the products the checks read from it, in the
        # jet's row order (L_x, L_y, L, L_xy, L_xx, L_yy)
        idx = surface.ambient.embedding_signature.index
        for i, a in enumerate((jet.Lx, jet.Ly, jet.L)):
            for j, b in enumerate(getattr(jet, name) for name in _FIELDS[:6]):
                np.testing.assert_allclose(T[..., i, j], indefinite_dot(a, b, idx).ravel(),
                                           rtol=1e-12,
                                           atol=1e-12 * np.max(np.abs(a)) * np.max(np.abs(b)))

    @pytest.mark.parametrize("G", [
        [[1.0, 1.0], [1.0, 1.0]],
        [[1.0, 1.0], [1.0, 1.0 + 1e-10]],  # det 1e-10 <= GRAM_TOL * 2.0
        # Gram matrix of u, v, u + v in E^3_1, with u = (1, 0, 0), v = (0, 1, 1)
        [[-1.0, 0.0, -1.0], [0.0, 2.0, 2.0], [-1.0, 2.0, 1.0]],
    ], ids=["2x2", "2x2-near", "3x3"])
    def test_singular_guard_at_one_node_and_batched(self, G):
        G = np.array(G)
        n = len(G)
        with pytest.raises(DegenerateMetricError, match="singular Gram matrix"):
            _solve(G, np.ones((n, 3)))
        stack = _random_gram_stack(np.random.default_rng(0), 7, n)
        stack[4] = G
        with pytest.raises(DegenerateMetricError, match="singular Gram matrix"):
            _solve(stack, np.ones((7, n, 3)))
        stack[4] = np.eye(n)
        _solve(stack, np.ones((7, n, 3)))

    def test_guard_threshold_is_relative_to_row_norms(self):
        # det 1e-9 against GRAM_TOL times row norms of about 1.4 each
        G = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]])
        np.testing.assert_allclose(diffgeo._gram_solve(G, np.array([[1.0], [0.0]]))[:, 0],
                                   np.linalg.solve(G, np.array([1.0, 0.0])), rtol=1e-6)


def test_verify_makes_no_linalg_call(monkeypatch):
    from lorentzmin.harness import verify

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in ("solve", "det", "norm", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for path in sorted(SPEC_DIR.glob("*.json")):
        report = verify(json.loads(path.read_text()))
        assert report.overall_pass == (path.stem != "de_sitter_control"), path.stem
