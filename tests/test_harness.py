import dataclasses
import json
import math

import numpy as np
import pytest

from lorentzmin.cli import main
from lorentzmin.curves import FAMILIES
from lorentzmin.errors import ConstraintViolationError, InvalidInputError, PremiseError
from lorentzmin.harness import (
    SurfaceSpec,
    dumps_json,
    export_samples,
    list_families,
    sweep,
    verify,
)
from lorentzmin.report import ConditionReport

SPHERE_71 = {
    "family": "sphere_b",
    "curves": [{"family_id": "Ex7_1", "params": {"a": 1, "p": 3, "q": 1, "r": 2}}],
}
HYP_82 = {
    "family": "hyp_iii",
    "curves": [{
        "family_id": "Ex8_2",
        "params": {"a": 1 / math.sqrt(2), "b": 1 / math.sqrt(2),
                   "p": 1.1, "q": 1.5, "r": 1.1, "s": 1.5},
    }],
}
TRANSLATION = {
    "family": "translation",
    "curves": [{"name": "hyp6"}, {"name": "trig6"}],
}


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(InvalidInputError):
            SurfaceSpec.from_dict({"family": "moebius"})

    def test_bad_arity(self):
        with pytest.raises(InvalidInputError):
            verify({"family": "sphere_b", "curves": [{"name": "hyp4"}, {"name": "hyp4"}]})

    def test_pair_family_counts_as_two(self):
        spec = SurfaceSpec.from_dict(HYP_82)
        report = verify(spec)
        assert report.surface["constructed"]

    def test_unknown_spec_key(self):
        with pytest.raises(InvalidInputError):
            SurfaceSpec.from_dict({"family": "sphere_b", "grdi": [3, 3]})

    def test_unknown_tolerance_key(self):
        with pytest.raises(InvalidInputError):
            SurfaceSpec.from_dict({"family": "sphere_b", "tolerances": {"bogus": 1.0}})

    def test_bad_domain_shape(self):
        with pytest.raises(InvalidInputError):
            SurfaceSpec.from_dict({"family": "sphere_b", "domain": [0, 1]})

    def test_unknown_builtin_curve(self):
        with pytest.raises(InvalidInputError):
            verify({"family": "sphere_b", "curves": [{"name": "nope"}]})

    @pytest.mark.parametrize("spec", [
        SPHERE_71, HYP_82,
        {"family": "sphere_c",
         "curves": [{"family_id": "Ex7_2", "params": {"p": 3, "q": 1.5, "r": 1}}]},
        {"family": "hyp_ii",
         "curves": [{"family_id": "Ex8_1", "params": {"a": 1, "b": 1.1, "p": 1, "q": 1.5}}]},
    ], ids=["Ex7_1", "Ex8_2", "Ex7_2", "Ex8_1"])
    def test_family_coefficients_computed_once_per_verify(self, monkeypatch, spec):
        family = FAMILIES[spec["curves"][0]["family_id"]]
        calls = []
        coeffs = family["_coeffs"]
        monkeypatch.setitem(family, "_coeffs", lambda *args: calls.append(args) or coeffs(*args))
        verify(spec)
        assert len(calls) == 1

    def test_constraint_violation_propagates(self):
        bad = {"family": "sphere_c",
               "curves": [{"family_id": "Ex7_2", "params": {"p": 1.6, "q": 1.5, "r": 1.0}}]}
        with pytest.raises(ConstraintViolationError):
            verify(bad)


class TestGridCap:
    def test_absurd_grid_rejected_before_any_work(self, monkeypatch):
        import lorentzmin.harness as harness

        def started(spec):
            raise AssertionError("curves were built for a rejected grid")

        monkeypatch.setattr(harness, "_resolve_curves", started)
        with pytest.raises(InvalidInputError, match="nodes"):
            verify(dict(HYP_82, grid=[100_000, 100_000]))

    def test_cap_is_inclusive(self):
        from lorentzmin.surfaces import MAX_GRID_NODES

        SurfaceSpec.from_dict({"family": "de_sitter_control",
                               "grid": [2, MAX_GRID_NODES // 2]})
        with pytest.raises(InvalidInputError):
            SurfaceSpec.from_dict({"family": "de_sitter_control",
                                   "grid": [2, MAX_GRID_NODES // 2 + 1]})


class TestVerify:
    def test_sphere_example_passes(self):
        report = verify(SPHERE_71)
        assert report.overall_pass
        ids = {c.condition_id for c in report.checks}
        assert {"lightcone-z", "speed-z", "acc-null-z", "jerk-nonzero-z",
                "quadric", "metric-match", "metric-null-form", "minimality",
                "curvature", "xi-recovery", "gauss-equation", "fd-partials",
                "pde-xy", "pde-yy", "tangency", "frame-normalization"} <= ids
        assert report.curve_validations[0].ok

    def test_stencil_runs_only_on_the_fd_subgrid(self, monkeypatch):
        import numpy as np

        from lorentzmin import diffgeo
        from lorentzmin.harness import FD_SUBGRID

        nodes = []
        stencil = diffgeo._efield

        def counted(surface, x, y, *d):
            nodes.append(np.broadcast(x, y).size)
            return stencil(surface, x, y, *d)

        monkeypatch.setattr(diffgeo, "_efield", counted)
        report = verify(dict(SPHERE_71, grid=[41, 41]))
        assert report.overall_pass
        assert sum(nodes) == FD_SUBGRID[0] * FD_SUBGRID[1]
        by_id = {c.condition_id: c for c in report.checks}
        assert by_id["curvature"].grid.startswith("5x5")
        assert by_id["gauss-equation"].grid.startswith("5x5")
        for cid in ("curvature-analytic", "gauss-analytic"):
            assert by_id[cid].grid.startswith("41x41")
            assert by_id[cid].tol == 1e-7
            assert by_id[cid].max_residual <= 1e-7

    def test_de_sitter_control_fails_minimality_only(self):
        # also on a pole-free domain beyond the built-in curves' [-2, 2]
        for domain in (None, {"x": [2.5, 3], "y": [2.5, 3]}):
            report = verify({"family": "de_sitter_control", "domain": domain})
            assert not report.overall_pass
            assert report.failed_checks() == ["minimality"]

    def test_premise_failure_skips_construction(self):
        report = verify({"family": "sphere_b", "curves": [{"name": "trig3"}]})
        assert not report.overall_pass
        assert not report.surface["constructed"]
        # trig3 is null, so its speed is 0 instead of 2
        assert "speed-z" in report.failed_checks()

    @pytest.mark.parametrize("spec, checker", [
        (SPHERE_71, "check_case_b_premises"),
        ({"family": "hyp_ii",
          "curves": [{"family_id": "Ex8_1", "params": {"a": 1, "b": 1.1, "p": 1, "q": 1.5}}]},
         "check_case_ii_premises"),
        ({"family": "sphere_b", "curves": [{"name": "trig3"}]}, "check_case_b_premises"),
    ], ids=["sphere_b", "hyp_ii", "sphere_b-failed"])
    def test_premise_checker_runs_once(self, monkeypatch, spec, checker):
        from lorentzmin import harness, surfaces

        calls = []
        original = getattr(surfaces, checker)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (surfaces, harness):  # wherever the checker is looked up
            if hasattr(module, checker):
                monkeypatch.setattr(module, checker, counted)
        report = verify(dict(spec, grid=[5, 5]))
        assert len(calls) == 1
        assert [c.to_dict() for c in report.checks[:4]] == [
            r.to_dict() for r in original(*calls[0])]

    def test_translation_null_checks_run_once(self, monkeypatch):
        # the harness's null-z, null-w and pairing-nonzero reports are
        # handed to the constructor, which judges them and computes nothing
        # again: two null checks and one pairing on the spec's grid
        import pathlib

        from lorentzmin import surfaces

        calls = {"null_check": [], "derivative_inner": []}
        for name, made in calls.items():
            def counted(*args, original=getattr(surfaces, name), made=made):
                made.append(args)
                return original(*args)
            monkeypatch.setattr(surfaces, name, counted)
        spec = pathlib.Path(__file__).resolve().parent.parent / "specs" / "translation_demo.json"
        report = verify(json.loads(spec.read_text()))
        assert report.overall_pass
        assert len(calls["null_check"]) == 2
        ((*_, xs, ys),) = calls["derivative_inner"]
        assert (xs.size, ys.size) == (21, 21)

    def test_failed_premise_reported_even_on_a_bad_domain(self):
        # the premises run before the domain checks, so this is a report
        # (exit 1), not invalid input
        report = verify({"family": "sphere_b", "curves": [{"name": "trig3"}],
                         "domain": {"x": [-0.5, 0.5], "y": [-0.5, 0.5]}})
        assert not report.surface["constructed"]
        assert "speed-z" in report.failed_checks()

    def test_bad_domain_with_valid_premises_is_invalid_input(self):
        with pytest.raises(InvalidInputError):
            verify(dict(SPHERE_71, domain={"x": [-0.5, 0.5], "y": [-0.5, 0.5]}))

    def test_translation_premise_at_its_boundary_builds_the_surface(self, tmp_path, capsys):
        # min |<z', w'>| on the 41x41 grid is exactly 1.0, where the premise
        # report passes, so the constructor must build the surface too
        spec = dict(TRANSLATION, grid=[41, 41], tolerances={"premise": 1.0})
        report = verify(spec)
        pairing = next(c for c in report.checks if c.condition_id == "pairing-nonzero")
        assert pairing.passed and pairing.max_residual == 0.0
        assert report.surface["constructed"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["verify", "--spec", str(path), "--no-timings"]) in (0, 1)
        assert capsys.readouterr().err == ""

    def test_translation_passes(self):
        report = verify(TRANSLATION)
        assert report.overall_pass
        assert "pairing-nonzero" in {c.condition_id for c in report.checks}

    def test_pairing_on_the_axes_equals_the_flattened_grid(self):
        # <z'(x), w'(y)> broadcast over the grid's axes: the same residual,
        # worst point and bits as on every node's (x, y) pair
        from lorentzmin.curves import DEFAULT_SAMPLES, derivative_inner
        from lorentzmin.harness import SurfaceSpec, _resolve_curves
        from lorentzmin.report import default_tolerances
        from lorentzmin.surfaces import _translation_premises, grid_axes, grid_points

        spec = SurfaceSpec.from_dict({**TRANSLATION, "grid": [7, 5]})
        (z, w), _ = _resolve_curves(spec)
        pts = grid_points(spec.resolved_domain(), spec.grid)
        flat = derivative_inner(z, 1, w, 1, pts[:, 0], pts[:, 1])
        axes = derivative_inner(z, 1, w, 1, *grid_axes(spec.resolved_domain(), spec.grid))
        assert axes.shape == spec.grid and np.array_equal(axes.ravel(), flat)
        pairing = _translation_premises(z, w, spec.grid, spec.resolved_domain(), DEFAULT_SAMPLES,
                                        default_tolerances()["premise"])[-1]
        assert pairing.max_residual == 1e-9 - np.min(np.abs(flat))
        assert pairing.worst_point == tuple(pts[np.argmin(np.abs(flat))])

    def test_pairing_sign_change_reported_not_thrown(self):
        # 1 - sinh x sinh y changes sign on the default [-1,1]^2 domain
        report = verify({"family": "translation",
                         "curves": [{"name": "hyp4"}, {"name": "hyp4_mirror"}]})
        assert not report.overall_pass
        assert "pairing-nonzero" in report.failed_checks()
        assert not report.surface["constructed"]

    def test_pairing_checked_once_on_the_spec_grid(self, tmp_path, capsys):
        # <z', w'> = -1 - cos(x - y) vanishes on x - y = pi, between the
        # nodes of a 2x2 grid: pairing-nonzero passes there, the surface is
        # built from that report alone, and the subgrid's E-field meets the
        # zero.  The constructor on its own 41x41 grid refuses the surface.
        from lorentzmin.curves import builtin_curve
        from lorentzmin.errors import DegenerateMetricError
        from lorentzmin.surfaces import translation_surface

        (x0, x1), (y0, y1) = domain = (
            (math.pi / 2 - 0.6, math.pi / 2 + 0.2), (-math.pi / 2 - 0.4, -math.pi / 2 + 0.4))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "family": "translation", "curves": [{"name": "trig4"}, {"name": "trig4_anti"}],
            "domain": {"x": [x0, x1], "y": [y0, y1]}, "grid": [2, 2]}))
        assert main(["verify", "--spec", str(spec), "--no-timings"]) == 1
        out, err = capsys.readouterr()
        checks = {c["condition_id"]: c["passed"] for c in json.loads(out)["checks"]}
        assert err == "" and checks["pairing-nonzero"] and not checks["metric-signature"]
        csv = tmp_path / "mesh.csv"
        assert main(["export", "--spec", str(spec), "--format", "csv", "--out", str(csv)]) == 0
        rows = csv.read_text().splitlines()[1:]
        assert [tuple(map(float, r.split(",")[:2])) for r in rows] == [
            (x0, y0), (x0, y1), (x1, y0), (x1, y1)]
        with pytest.raises(DegenerateMetricError, match="vanishes"):
            translation_surface(builtin_curve("trig4"), builtin_curve("trig4_anti"), domain)

    def test_degenerate_pair_reports_its_conditions_then_metric_signature(self):
        # ads_null as both curves makes g_xy positive, which stops the grid
        # pass; the joint conditions still come from the chart jet alone
        report = verify({"family": "hyp_iii",
                         "curves": [{"name": "ads_null"}, {"name": "ads_null"}]})
        assert report.surface["constructed"] and not report.overall_pass
        assert [(c.condition_id, c.passed, c.max_residual, c.tol) for c in report.checks] == [
            ("iii.1", False, 1.79779344251198552e+01, 1e-7),
            ("iii.2", True, 5.47191932137619398e-15, 1e-7),
            ("iii.3", True, 5.47191932137619398e-15, 1e-7),
            ("metric-signature", False, 0.0, -1.0)]
        assert report.checks[-1].note.startswith("induced metric left null form: g_xy = 0.217056")

    def test_alt_pairing_descriptor(self):
        # the mismatched-partner variant leaves the light cone, which the
        # premise phase reports without throwing
        report = verify({
            "family": "hyp_ii",
            "curves": [{"family_id": "Ex8_1",
                        "params": {"a": 1, "b": 1.2, "p": 1.2, "q": 1.5},
                        "alt_pairing": True}],
        })
        assert not report.overall_pass
        assert "lightcone-z" in report.failed_checks()
        assert not report.surface["constructed"]

    def test_geodesic_boundary_flagged_and_failed(self):
        report = verify({"family": "sphere_b", "curves": [{"name": "quadratic3"}]})
        assert report.surface["constructed"]
        assert "totally-geodesic-boundary" in report.surface["flags"]
        assert report.failed_checks() == ["jerk-nonzero-z"]

    def test_tolerance_override(self):
        spec = dict(SPHERE_71)
        spec["tolerances"] = {"minimality": 1e-30}
        report = verify(spec)
        assert "minimality" in report.failed_checks()

    def test_determinism_excluding_timings(self):
        a = verify(SPHERE_71).to_dict(include_timings=False)
        b = verify(SPHERE_71).to_dict(include_timings=False)
        assert dumps_json(a) == dumps_json(b)

    def test_report_roundtrip_idempotent(self):
        text = dumps_json(verify(TRANSLATION).to_dict(include_timings=False))
        again = dumps_json(json.loads(text))
        assert text == again

    def test_floats_in_scientific_17_digits(self):
        text = dumps_json({"v": 0.1})
        assert text == '{"v":1.00000000000000006e-01}'
        assert json.loads(text)["v"] == 0.1

    def test_env_tolerance_override(self, monkeypatch):
        monkeypatch.setenv("LMS_DEFAULT_TOL", "1e-3")
        report = verify(SPHERE_71)
        by_id = {c.condition_id: c for c in report.checks}
        assert by_id["quadric"].tol == 1e-3
        assert by_id["lightcone-z"].tol == 1e-3
        assert by_id["minimality"].tol == 1e-6  # other tiers untouched

    def test_env_tolerance_invalid(self, monkeypatch, tmp_path, capsys):
        # nan or inf would pass every premise and quadric check vacuously;
        # lms verify must stop with one error line instead
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPHERE_71))
        for raw in ("banana", "nan", "inf", "-inf", "0", "-1e-9"):
            monkeypatch.setenv("LMS_DEFAULT_TOL", raw)
            with pytest.raises(ValueError):
                verify(SPHERE_71)
            assert main(["verify", "--spec", str(spec)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: LMS_DEFAULT_TOL") and err.count("\n") == 1, raw


class TestSweep:
    def test_ex71_sorted_box(self):
        summary = sweep("Ex7_1", sampler_config={"grid": [7, 7]}, n=50, rng_seed=3)
        assert summary["valid"] == 50
        assert summary["passed"] == 50
        assert summary["failed"] == 0

    def test_deterministic(self):
        a = sweep("Ex7_1", n=4, rng_seed=5)
        b = sweep("Ex7_1", n=4, rng_seed=5)
        assert dumps_json(a) == dumps_json(b)

    def test_ex72_chain_has_no_valid_draws(self):
        summary = sweep("Ex7_2", n=500, rng_seed=1)
        assert summary["valid"] == 0
        assert summary["invalid"] == 500

    def test_ex82_box_around_reference_values(self):
        summary = sweep("Ex8_2", sampler_config={"grid": [7, 7]}, n=50, rng_seed=2)
        assert summary["valid"] + summary["invalid"] == 50
        assert summary["failed"] == 0
        assert summary["valid"] >= 10

    def test_bad_family(self):
        with pytest.raises(InvalidInputError):
            sweep("Ex0_0", n=1)

    def test_zero_parameter_draw_rejected_not_raised(self):
        # p = 0 leaves a quotient of the advisory chain undefined
        summary = sweep("Ex8_1", {"center": [1, 1.1, 0, 1.5], "rel": 0}, n=2)
        assert (summary["valid"], summary["invalid"]) == (0, 2)

    @pytest.mark.parametrize("residuals, worst", [
        ([1e-3, math.nan], "nan"),          # max(1e-3, nan) is 1e-3
        ([math.nan, 1e-3], "nan"),
        ([-math.inf, math.nan], "nan"),     # max(-inf, nan) is -inf
        ([-math.inf, -math.inf], "-inf"),
        ([1e-3, math.inf], "inf"),
        ([1e-3, 2e-3], 2e-3),
    ])
    def test_non_finite_worst_residual_kept_and_serialized(self, monkeypatch, residuals,
                                                           worst):
        import lorentzmin.harness as harness

        draws, folds = iter(residuals), []

        def fake_premise_phases(spec, curves, tols, like=None):
            folds.append(curves[0]._lead[0])
            return [], np.arange(folds[-1]), spec

        def fake_check_rows(spec, surface, tols):
            return [[("x", np.array([[next(draws)] for _ in range(folds[-1])]), 1.0, "g", None,
                      "")]]

        # every draw builds, with no premise reports, then checks "x"
        monkeypatch.setattr(harness, "_premise_phases", fake_premise_phases)
        monkeypatch.setattr(harness, "_check_rows", fake_check_rows)
        summary = sweep("Ex7_1", n=len(residuals), rng_seed=0)
        assert summary["worst_residuals"] == {"x": worst}
        assert summary["failed"] == sum(not (math.isfinite(r) and r <= 1.0) for r in residuals)
        assert json.loads(dumps_json(summary))["worst_residuals"] == {"x": worst}


class TestExport:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "surface.csv"
        spec = {"family": "hyp_ii",
                "curves": [{"family_id": "Ex8_1",
                            "params": {"a": 1, "b": 1.1, "p": 1, "q": 1.5}}]}
        export_samples(spec, str(out), "csv")
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,y," + ",".join(f"L_{i}" for i in range(1, 9)) + ",residual"
        assert len(lines) == 1 + 21 * 21

    def test_obj_quad_mesh(self, tmp_path):
        out = tmp_path / "plane.obj"
        spec = dict(TRANSLATION, grid=[5, 4])
        export_samples(spec, str(out), "obj")
        lines = out.read_text().strip().split("\n")
        vs = [l for l in lines if l.startswith("v ")]
        fs = [l for l in lines if l.startswith("f ")]
        assert len(vs) == 20
        assert len(fs) == 4 * 3
        assert all(len(l.split()) == 5 for l in fs)

    def test_bad_format(self, tmp_path):
        with pytest.raises(InvalidInputError):
            export_samples(TRANSLATION, str(tmp_path / "x"), "stl")

    def test_refuses_what_verify_refuses(self, tmp_path):
        # the spec's premise tolerance blocks the surface in verify, so
        # export must not write it either
        spec = dict(SPHERE_71, tolerances={"premise": 1e-15})
        report = verify(spec)
        assert not report.surface["constructed"]
        out = tmp_path / "surface.csv"
        with pytest.raises(PremiseError) as info:
            export_samples(spec, str(out), "csv")
        assert "acc-null-z" in info.value.failed
        assert not out.exists()


class TestShippedSpecs:
    def test_spec_files_parse_and_resolve(self):
        import pathlib

        spec_dir = pathlib.Path(__file__).resolve().parent.parent / "specs"
        paths = sorted(spec_dir.glob("*.json"))
        assert len(paths) == 6
        families = set()
        for path in paths:
            spec = SurfaceSpec.from_dict(json.loads(path.read_text()))
            families.add(spec.family)
        assert families == {"translation", "sphere_b", "sphere_c",
                            "hyp_ii", "hyp_iii", "de_sitter_control"}


class TestThreads:
    def test_specs_verified_from_four_threads_match_serial(self):
        # the README's claim: grids can be evaluated from any number of threads
        import pathlib
        from concurrent.futures import ThreadPoolExecutor

        spec_dir = pathlib.Path(__file__).resolve().parent.parent / "specs"
        specs = [json.loads(p.read_text()) for p in sorted(spec_dir.glob("*.json"))]

        def report(spec):
            return verify(spec).to_dict(include_timings=False)

        serial = [report(spec) for spec in specs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(report, specs * 2))
        assert threaded == serial * 2


class TestListFamilies:
    def test_catalog_shape(self):
        cat = list_families()
        assert set(cat["surface_families"]) == {
            "translation", "sphere_b", "sphere_c", "hyp_ii", "hyp_iii",
            "de_sitter_control"}
        assert cat["curve_families"]["Ex7_1"]["params"] == ["a", "p", "q", "r"]
        assert "hyp4" in cat["builtin_curves"]


class TestCli:
    def _write_spec(self, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_verify_pass_exit_0(self, tmp_path, capsys):
        code = main(["verify", "--spec", self._write_spec(tmp_path, SPHERE_71)])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["overall_pass"] is True

    def test_verify_failure_exit_1(self, tmp_path):
        spec = self._write_spec(tmp_path, {"family": "de_sitter_control"})
        assert main(["verify", "--spec", spec]) == 1

    def test_verify_json_out(self, tmp_path):
        report_path = tmp_path / "report.json"
        spec = self._write_spec(tmp_path, TRANSLATION)
        code = main(["verify", "--spec", spec, "--json-out", str(report_path)])
        assert code == 0
        assert json.loads(report_path.read_text())["overall_pass"] is True

    def test_invalid_spec_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"family": "nope"}')
        assert main(["verify", "--spec", str(path)]) == 2

    def test_missing_file_exit_2(self):
        assert main(["verify", "--spec", "/nonexistent.json"]) == 2

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["verify", "--spec", str(path)]) == 2

    def test_bad_usage_exit_2(self):
        assert main(["verify"]) == 2

    @pytest.mark.parametrize("patch", [
        {"params": {"a": "x", "b": 1.1, "p": 1, "q": 1.5}},
        {"params": {"a": 1, "b": 1.1, "p": 0, "q": 1.5}},
        {"params": {"a": 1, "b": 1.1, "p": 1e200, "q": 1.5}},
        {"params": {"a": 10**400, "b": 1.1, "p": 1, "q": 1.5}},
        {"params": {"a": float("nan"), "b": 1.1, "p": 1, "q": 1.5}},
        {"params": {"a": True, "b": 1.1, "p": 1, "q": 1.5}},
        {"params": [1, 1.1, 1, 1.5]},
        {"grid": [21.7, "3"]},
        {"grid": [True, 5]},
        {"grid": [21]},
        {"grid": [100_000, 100_000]},
        {"grid": [-2000, -2000]},
        {"grid": [1, 5]},
        {"tolerances": {"minimality": None}},
        {"tolerances": [1]},
        {"tolerances": {"premise": 0}},
        {"tolerances": {"minimality": -1e-6}},
        {"tolerances": {"quadric": float("inf")}},
        {"curves": 5},
        {"curves": [5]},
        {"domain": {"x": [0.1, {}], "y": [0.1, 1.1]}},
        {"family": ["sphere_b"]},
    ], ids=["param-string", "param-zero", "param-overflow", "param-huge-int",
            "param-nan", "param-bool", "params-list",
            "grid-non-integer", "grid-bool", "grid-length", "grid-absurd",
            "grid-negative", "grid-too-small", "tolerance-null", "tolerances-list",
            "tolerance-zero", "tolerance-negative", "tolerance-inf",
            "curves-number", "curve-number", "domain-object-bound", "family-list"])
    def test_malformed_spec_exit_2_with_one_line_error(self, tmp_path, capsys, patch):
        curve = {"family_id": "Ex8_1", "params": {"a": 1, "b": 1.1, "p": 1, "q": 1.5}}
        curve.update({k: v for k, v in patch.items() if k == "params"})
        spec = {"family": "hyp_ii", "curves": [curve]}
        spec.update({k: v for k, v in patch.items() if k != "params"})
        code = main(["verify", "--spec", self._write_spec(tmp_path, spec)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_zero_denominator_exit_2_names_the_denominator(self, tmp_path, capsys):
        params = {"a": 1, "p": 3, "q": 2, "r": 2}
        spec = dict(SPHERE_71, curves=[{"family_id": "Ex7_1", "params": params}])
        assert main(["verify", "--spec", self._write_spec(tmp_path, spec)]) == 2
        assert capsys.readouterr().err == "error: denominator r^2-q^2 is not positive (= 0)\n"

    def test_non_finite_coefficient_exit_2_names_the_coefficient(self, tmp_path, capsys):
        # every radicand and denominator is finite and positive, but
        # q sqrt(r^2 - q^2) underflows to 0, so a coefficient of z is inf
        params = {"a": 1, "p": 3e-152, "q": 1e-200, "r": 2e-152}
        spec = dict(SPHERE_71, curves=[{"family_id": "Ex7_1", "params": params}])
        assert main(["verify", "--spec", self._write_spec(tmp_path, spec)]) == 2
        assert capsys.readouterr().err == (
            "error: Ex7_1(a=1,p=3e-152,q=1e-200,r=2e-152): coefficient of z's component 1 not "
            "finite (= inf)\n")

    def test_extreme_draw_sweep_leaks_no_warning(self, capsys):
        # the third draw builds, and the products of its Gram block overflow;
        # under the test suite's filterwarnings = error a RuntimeWarning there
        # ends the sweep
        config = '{"a_box": [1, 1], "pqr_box": [1e-160, 1e-150], "min_gap": 0}'
        assert main(["sweep", "--family", "Ex7_1", f"--sampler-config={config}", "--n", "3"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        summary = json.loads(out)
        assert [f["failed"] for f in summary["failures"]] == [
            ["lightcone-z", "jerk-nonzero-z"]] * 2 + [["jerk-nonzero-z", "metric-signature"]]
        assert summary["worst_residuals"]["lightcone-z"] > 1e288

    def test_sweep_exit_0(self, capsys):
        assert main(["sweep", "--family", "Ex7_2", "--n", "50", "--seed", "0"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["valid"] == 0

    @pytest.mark.parametrize("family, config", [
        ("Ex7_1", "[1]"),
        ("Ex7_1", '{"min_gap": "x"}'),
        ("Ex7_1", '{"a_box": 3}'),
        ("Ex7_1", '{"min_gap": 10}'),
        ("Ex7_1", '{"mode": "chain"}'),
        ("Ex7_1", '{"grid": 5}'),
        ("Ex7_1", '{"bogus": 1}'),
        ("Ex7_2", '{"qr_box": [1e308, -1e308]}'),
        ("Ex7_2", '{"qr_box": [-%d, %d]}' % (10**308, 10**308)),
        ("Ex7_2", '{"qr_box": [1, 2e154]}'),
        ("Ex8_1", '{"center": [1, 1.1, 1]}'),
        ("Ex8_1", '{"rel": 1e308}'),
        # a mode that draws other parameters than the family takes
        ("Ex7_1", '{"mode": "chain", "qr_box": [0.1, 3]}'),
        ("Ex8_1", '{"mode": "sorted_box", "a_box": [1, 2], "pqr_box": [1, 2], "min_gap": 0}'),
    ], ids=["list", "gap-string", "box-number", "gap-unsatisfiable", "mode-without-keys",
            "grid-number", "unknown-key", "box-reversed", "box-overflow", "box-square-overflow",
            "center-short", "rel-huge", "mode-for-other-params", "box-for-other-params"])
    def test_malformed_sampler_config_exit_2_with_one_line_error(self, capsys, family,
                                                                 config):
        code = main(["sweep", "--family", family, "--n", "2",
                     f"--sampler-config={config}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_export_exit_0(self, tmp_path):
        spec = self._write_spec(tmp_path, TRANSLATION)
        out = tmp_path / "mesh.csv"
        assert main(["export", "--spec", spec, "--format", "csv",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_export_of_a_surface_verify_refuses_exit_2(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path, dict(SPHERE_71, tolerances={"premise": 1e-15}))
        out = tmp_path / "mesh.csv"
        assert main(["verify", "--spec", spec, "--no-timings"]) == 1
        capsys.readouterr()
        assert main(["export", "--spec", spec, "--format", "csv", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: premise check failed: ") and err.count("\n") == 1
        assert "acc-null-z" in err
        assert not out.exists()

    def test_nan_residual_reported_exit_1(self, tmp_path, capsys, monkeypatch):
        # a jet that is NaN at one grid node (the domain's corner): the
        # checks that read L_xy fail with a "nan" residual at that node and
        # the report is still written
        import lorentzmin.harness as harness

        family = harness.SURFACE_FAMILIES["sphere_b"]

        def build(curves, domain, tol, premises=None):
            surface = family.build(curves, domain, tol, premises)
            (x0, _), (y0, _) = surface.domain

            def jet(x, y, *d):  # NaN written into the jet's table in place
                j = surface.jet(x, y, *d)
                hit = np.asarray((x == x0) & (y == y0))[..., None]
                np.copyto(j.Lxy, np.nan, where=hit)
                return j

            return dataclasses.replace(surface, jet=jet)

        monkeypatch.setitem(harness.SURFACE_FAMILIES, "sphere_b",
                            dataclasses.replace(family, build=build))
        code = main(["verify", "--spec", self._write_spec(tmp_path, SPHERE_71),
                     "--no-timings"])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        report = json.loads(out)
        assert report["overall_pass"] is False
        checks = {c["condition_id"]: c for c in report["checks"]}
        nan_ids = {cid for cid, c in checks.items() if c["max_residual"] == "nan"}
        assert {"pde-xy", "minimality", "fd-partials"} <= nan_ids
        for cid in nan_ids:
            assert checks[cid]["passed"] is False
            assert checks[cid]["worst_point"] == [0.1, 0.1]
        assert checks["quadric"]["passed"] and checks["pde-yy"]["passed"]

    def test_parser_is_built_once(self, monkeypatch, capsys):
        import lorentzmin.cli as cli

        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            assert [main(["list-families"]) for _ in range(3)] == [0, 0, 0]
            assert main(["verify"]) == 2  # a usage error leaves the parser as it was
            assert main(["list-families"]) == 0
        finally:
            cli._parser.cache_clear()
        assert built == [1]
        capsys.readouterr()

    def test_export_unwritable_exit_2(self, tmp_path):
        spec = self._write_spec(tmp_path, TRANSLATION)
        assert main(["export", "--spec", spec, "--format", "csv",
                     "--out", "/nonexistent_dir/mesh.csv"]) == 2

    def test_list_families_exit_0(self, capsys):
        assert main(["list-families"]) == 0
        assert "surface_families" in json.loads(capsys.readouterr().out)
