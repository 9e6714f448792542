"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned to their stated values here, independently of the
library defaults, so a drift in the defaults cannot silently weaken the
acceptance gate.
"""

import math

import numpy as np
import pytest

from lorentzmin import diffgeo
from lorentzmin.curves import PAIR_FLAVORS, ParamFamily, seeded_null_pair, validate_family
from lorentzmin.harness import dumps_json, sweep, verify
from lorentzmin.indefinite import indefinite_dot
from lorentzmin.surfaces import de_sitter_control, grid_points, translation_surface

SEED = 20250809

SPEC_71 = {
    "family": "sphere_b",
    "curves": [{"family_id": "Ex7_1", "params": {"a": 1, "p": 3, "q": 1, "r": 2}}],
}
SPEC_81 = {
    "family": "hyp_ii",
    "curves": [{"family_id": "Ex8_1",
                "params": {"a": 1, "b": 1.1, "p": 1, "q": 1.5}}],
}
SPEC_82 = {
    "family": "hyp_iii",
    "curves": [{"family_id": "Ex8_2",
                "params": {"a": 1 / math.sqrt(2), "b": 1 / math.sqrt(2),
                           "p": 1.1, "q": 1.5, "r": 1.1, "s": 1.5}}],
}
SPEC_72 = {
    "family": "sphere_c",
    "curves": [{"family_id": "Ex7_2", "params": {"p": 3, "q": 1.5, "r": 1}}],
}


def _line(criterion, ok, detail):
    text = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(text)
    assert ok, text


@pytest.fixture(scope="module")
def pair_pool():
    """20 seeded null-curve pairs: 5 per flavor, half constant-pairing."""
    rng = np.random.default_rng(SEED)
    pool = []
    for flavor in PAIR_FLAVORS:
        for _ in range(5):
            z, w, constant = seeded_null_pair(rng, flavor)
            surf = translation_surface(z, w, ((-1.0, 1.0), (-1.0, 1.0)))
            pool.append((surf, constant))
    return pool


@pytest.fixture(scope="module")
def report_71():
    return verify(SPEC_71)


@pytest.fixture(scope="module")
def report_81():
    return verify(SPEC_81)


@pytest.fixture(scope="module")
def report_82():
    return verify(SPEC_82)


def _residual(report, condition_id):
    for check in report.checks:
        if check.condition_id == condition_id:
            return check.max_residual
    raise AssertionError(f"missing check {condition_id}")


def test_criterion_1_translation_minimality(pair_pool):
    worst = 0.0
    for surf, _ in pair_pool:
        rep = diffgeo.minimality_residual(surf, grid=(21, 21), tol=1e-7)
        worst = max(worst, rep.max_residual)
    _line(1, worst < 1e-7,
          f"20 translation surfaces, worst minimality residual {worst:.3e} < 1e-7")


def test_criterion_2_flatness_dichotomy(pair_pool):
    const_surfs = [s for s, c in pair_pool if c]
    var_surfs = [s for s, c in pair_pool if not c][:5]
    assert len(const_surfs) == 10
    worst_const = max(
        max(abs(diffgeo.gauss_curvature(s, x, y)) for x, y in s.grid((21, 21)))
        for s in const_surfs
    )
    min_var = min(
        max(abs(diffgeo.gauss_curvature(s, x, y)) for x, y in s.grid((11, 11)))
        for s in var_surfs
    )
    ok = worst_const < 1e-3 and min_var > 1e-2
    _line(2, ok,
          f"10 constant-pairing surfaces |K| <= {worst_const:.3e} < 1e-3; "
          f"5 varying-pairing surfaces max|K| >= {min_var:.3e} > 1e-2")


def test_criterion_3_sphere_single_curve_example(report_71):
    stated = {
        "lightcone-z": 1e-9, "speed-z": 1e-9, "acc-null-z": 1e-9,
        "quadric": 1e-9, "metric-match": 1e-7, "metric-null-form": 1e-7,
        "minimality": 1e-6, "curvature": 1e-3, "xi-recovery": 1e-5,
    }
    residuals = {cid: _residual(report_71, cid) for cid in stated}
    ok = report_71.overall_pass and all(
        residuals[cid] < tol for cid, tol in stated.items()
    )
    detail = ", ".join(f"{cid}={residuals[cid]:.2e}" for cid in stated)
    _line(3, ok, f"sphere_b example (a,p,q,r)=(1,3,1,2): {detail}")


def test_criterion_4_hyperbolic_single_curve_example(report_81):
    stated = {
        "lightcone-z": 1e-9, "speed-z": 1e-9, "acc-norm-z": 1e-9,
        "quadric": 1e-9, "metric-match": 1e-7, "metric-null-form": 1e-7,
        "minimality": 1e-6, "curvature": 1e-3, "xi-recovery": 1e-5,
    }
    residuals = {cid: _residual(report_81, cid) for cid in stated}
    ok = report_81.overall_pass and all(
        residuals[cid] < tol for cid, tol in stated.items()
    )
    detail = ", ".join(f"{cid}={residuals[cid]:.2e}" for cid in stated)
    _line(4, ok, f"hyp_ii example (a,b,p,q)=(1,1.1,1,1.5): {detail}")


def test_criterion_5_hyperbolic_pair_example(report_82):
    fam = ParamFamily("Ex8_2", SPEC_82["curves"][0]["params"])
    validation = validate_family(fam)
    stated = {"iii.1": 1e-7, "iii.2": 1e-7, "iii.3": 1e-7,
              "minimality": 1e-6, "curvature": 1e-3}
    residuals = {cid: _residual(report_82, cid) for cid in stated}
    ok = (validation.ok and validation.chain_ok and report_82.overall_pass
          and all(residuals[cid] < tol for cid, tol in stated.items()))
    detail = ", ".join(f"{cid}={residuals[cid]:.2e}" for cid in stated)
    _line(5, ok, f"hyp_iii pair at the reference parameters: validator ok; {detail}")


def test_criterion_6_pair_family_chain_finding(tmp_path):
    summary = sweep("Ex7_2", n=10_000, rng_seed=SEED)
    report = verify(SPEC_72)  # radicand-valid parameters (3, 1.5, 1)
    archive = tmp_path / "sphere_pair_report.json"
    archive.write_text(dumps_json(report.to_dict(include_timings=False)) + "\n")
    documented = {c.condition_id: c.passed for c in report.checks
                  if c.condition_id.startswith("c.")}
    ok = summary["valid"] == 0 and summary["invalid"] == 10_000 and archive.exists()
    _line(6, ok,
          f"10^4 chain-sampled triples -> {summary['valid']} radicand-valid; "
          f"(p,q,r)=(3,1.5,1) report archived to {archive.name}, conditions "
          f"documented (not asserted): {documented}, overall={report.overall_pass}")


def test_criterion_7_gauss_equation_cross_check(
    pair_pool, report_71, report_81, report_82
):
    worst = 0.0
    for surf, _ in pair_pool:
        idx = surf.ambient.embedding_signature.index
        for x, y in grid_points(surf.domain, (11, 11)):
            _, forms = diffgeo.point_forms(surf, x, y)
            res = abs(forms.K - surf.ambient.curvature
                      + indefinite_dot(forms.h11, forms.h22, idx)
                      - indefinite_dot(forms.h12, forms.h12, idx))
            worst = max(worst, res)
    for rep in (report_71, report_81, report_82):
        worst = max(worst, _residual(rep, "gauss-equation"))
    _line(7, worst < 2e-3,
          f"Gauss-equation residual on all criteria-1..5 surfaces: {worst:.3e} < 2e-3")


def test_criterion_8_negative_control():
    surf = de_sitter_control()
    rep = diffgeo.minimality_residual(surf, grid=(21, 21), tol=1e-6)
    h_plus_l = max(
        float(np.max(np.abs(
            diffgeo.second_fundamental_form(surf, x, y).H + surf.position(x, y)
        )))
        for x, y in surf.grid((11, 11))
    )
    ok = (not rep.passed) and abs(rep.max_residual - 1.0) < 0.02 and h_plus_l < 1e-4
    _line(8, ok,
          f"de Sitter control: minimality residual {rep.max_residual:.6f} "
          f"(within 2% of 1), max-norm of H + L = {h_plus_l:.3e} < 1e-4")


def test_criterion_9_fd_soundness(report_71, report_81, report_82, pair_pool):
    worst_gap = max(
        _residual(rep, "fd-partials") for rep in (report_71, report_81, report_82)
    )
    for surf, _ in pair_pool[:2]:
        for x, y in grid_points(surf.domain, (3, 3)):
            worst_gap = max(worst_gap, diffgeo.fd_discrepancy(surf, x, y))

    from lorentzmin.curves import make_example
    from lorentzmin.surfaces import hyperbolic_case_ii, sphere_case_b

    z71 = make_example(ParamFamily("Ex7_1", SPEC_71["curves"][0]["params"]))
    z81 = make_example(ParamFamily("Ex8_1", SPEC_81["curves"][0]["params"]))
    worst_ratio = math.inf
    for surf in (sphere_case_b(z71), hyperbolic_case_ii(z81)):
        (x0, x1), (y0, y1) = surf.domain
        x, y = (x0 + x1) / 2, (y0 + y1) / 2
        coarse = diffgeo.fd_discrepancy(surf, x, y, h=0.04)
        fine = diffgeo.fd_discrepancy(surf, x, y, h=0.02)
        worst_ratio = min(worst_ratio, coarse / fine)
    ok = worst_gap < 1e-6 and worst_ratio >= 4.0
    _line(9, ok,
          f"analytic-vs-FD discrepancy {worst_gap:.3e} < 1e-6 on family surfaces; "
          f"halving the step improves it {worst_ratio:.1f}x (>= 4x)")
