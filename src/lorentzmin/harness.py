"""Verification pipelines, parameter sweeps, exports, and JSON reports.

A surface is described by a small JSON spec:

    {"family": "sphere_b",
     "curves": [{"family_id": "Ex7_1", "params": {"a": 1, "p": 3, "q": 1, "r": 2}}],
     "domain": {"x": [0.1, 1.1], "y": [0.1, 1.1]},
     "grid": [21, 21],
     "tolerances": {"minimality": 1e-6}}

Curve descriptors are either a built-in family id plus parameters or the
name of a named test curve.  ``verify`` builds the curves, runs the
family's premise or condition checkers, constructs the surface and runs
the full differential-geometry suite on the grid, returning a report that
never throws on a failed check (only on malformed input).  Reports
serialize deterministically: identical specs yield byte-identical JSON up
to the timings block, with every float printed in scientific notation at
17 significant digits.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import diffgeo
from .curves import (
    BUILTIN_CURVES,
    FAMILIES,
    Curve,
    FamilyValidation,
    ParamFamily,
    builtin_curve,
    derivative_inner,
    family_info,
    make_example,
    null_check,
    validate_family,
)
from .errors import DegenerateMetricError, InvalidInputError
from .indefinite import AmbientKind, indefinite_dot
from .report import ConditionReport, DEFAULT_TOLS, default_tolerances
from .surfaces import (
    FLAT_DOMAIN,
    HYPERBOLIC_DOMAIN,
    SPHERE_DOMAIN,
    SQRT2,
    SurfaceMap,
    _col,
    check_case_b_premises,
    check_case_c_conditions,
    check_case_ii_premises,
    check_case_iii_conditions,
    de_sitter_control,
    grid_points,
    hyperbolic_case_ii,
    hyperbolic_case_iii,
    sphere_case_b,
    sphere_case_c,
    translation_surface,
)

__all__ = [
    "SurfaceSpec",
    "VerificationReport",
    "verify",
    "sweep",
    "export_samples",
    "list_families",
    "dumps_json",
    "SURFACE_FAMILIES",
]

#: Surface families: curve arity and default domain.  The de Sitter
#: control takes no curves; it exists so the standard negative control is
#: addressable from a spec file.
SURFACE_FAMILIES: dict[str, dict] = {
    "translation": {"arity": 2, "domain": FLAT_DOMAIN},
    "sphere_b": {"arity": 1, "domain": SPHERE_DOMAIN},
    "sphere_c": {"arity": 2, "domain": SPHERE_DOMAIN},
    "hyp_ii": {"arity": 1, "domain": HYPERBOLIC_DOMAIN},
    "hyp_iii": {"arity": 2, "domain": HYPERBOLIC_DOMAIN},
    "de_sitter_control": {"arity": 0, "domain": ((0.9, 1.1), (0.9, 1.1))},
}

FD_SUBGRID = (5, 5)

#: Largest grid, in nodes, that a spec may ask for.  A verify holds about
#: 0.5 kB per node at its peak and takes about 13 us per node (sphere_c on
#: a 2-vCPU VM), so the cap is already about 0.5 GB and 15 s; a larger
#: grid is a typo (an [nx, ny] of [10**5, 10**5] would try to allocate
#: terabytes) and is rejected before any work starts.
MAX_GRID_NODES = 1_000_000


@dataclass(frozen=True)
class SurfaceSpec:
    """Machine-readable description of one surface to verify."""

    family: str
    curves: tuple[dict, ...] = ()
    domain: tuple[tuple[float, float], tuple[float, float]] | None = None
    grid: tuple[int, int] = (21, 21)
    tolerances: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in SURFACE_FAMILIES:
            raise InvalidInputError(
                f"unknown family {self.family!r}; known: {sorted(SURFACE_FAMILIES)}"
            )
        object.__setattr__(self, "curves", tuple(dict(c) for c in self.curves))
        if self.domain is not None:
            (x0, x1), (y0, y1) = self.domain
            object.__setattr__(
                self, "domain", ((float(x0), float(x1)), (float(y0), float(y1)))
            )
        grid = tuple(self.grid) if isinstance(self.grid, (list, tuple)) else ()
        if len(grid) != 2 or not all(
                isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in grid):
            raise InvalidInputError(f"grid must be two integers [nx, ny], got {self.grid!r}")
        nx, ny = int(grid[0]), int(grid[1])
        if nx < 2 or ny < 2:
            raise InvalidInputError(f"grid must be at least 2x2, got {[nx, ny]}")
        if nx * ny > MAX_GRID_NODES:
            raise InvalidInputError(
                f"grid {nx}x{ny} has {nx * ny} nodes, more than the {MAX_GRID_NODES} allowed")
        object.__setattr__(self, "grid", (nx, ny))
        unknown = set(self.tolerances) - set(DEFAULT_TOLS)
        if unknown:
            raise InvalidInputError(
                f"unknown tolerance keys {sorted(unknown)}; known: {sorted(DEFAULT_TOLS)}"
            )
        object.__setattr__(
            self, "tolerances", {k: float(v) for k, v in self.tolerances.items()}
        )

    @classmethod
    def from_dict(cls, data: dict) -> "SurfaceSpec":
        if not isinstance(data, dict):
            raise InvalidInputError("spec must be a JSON object")
        unknown = set(data) - {"family", "curves", "domain", "grid", "tolerances"}
        if unknown:
            raise InvalidInputError(f"unknown spec keys {sorted(unknown)}")
        if "family" not in data:
            raise InvalidInputError("spec is missing the 'family' key")
        domain = None
        if data.get("domain") is not None:
            dom = data["domain"]
            try:
                domain = (tuple(dom["x"]), tuple(dom["y"]))
            except (KeyError, TypeError) as exc:
                raise InvalidInputError(
                    "domain must be {'x': [lo, hi], 'y': [lo, hi]}"
                ) from exc
        return cls(
            family=data["family"],
            curves=tuple(data.get("curves", ())),
            domain=domain,
            grid=data.get("grid", (21, 21)),
            tolerances=dict(data.get("tolerances", {})),
        )

    def resolved_domain(self):
        return self.domain if self.domain is not None else SURFACE_FAMILIES[self.family]["domain"]

    def to_dict(self) -> dict:
        (x0, x1), (y0, y1) = self.resolved_domain()
        return {
            "family": self.family,
            "curves": [dict(c) for c in self.curves],
            "domain": {"x": [x0, x1], "y": [y0, y1]},
            "grid": list(self.grid),
            "tolerances": dict(sorted(self.tolerances.items())),
        }


@dataclass(frozen=True)
class VerificationReport:
    spec: dict
    surface: dict
    checks: tuple[ConditionReport, ...]
    curve_validations: tuple[FamilyValidation, ...]
    overall_pass: bool
    timings: dict[str, float]

    def to_dict(self, include_timings: bool = True) -> dict:
        out = {
            "spec": self.spec,
            "surface": self.surface,
            "checks": [c.to_dict() for c in self.checks],
            "curve_validations": [
                {
                    "family_id": v.family_id,
                    "ok": v.ok,
                    "radicands": dict(sorted(v.radicands.items())),
                    "denominators": dict(sorted(v.denominators.items())),
                    "failures": list(v.failures),
                    "chain": v.chain,
                    "chain_ok": v.chain_ok,
                }
                for v in self.curve_validations
            ],
            "overall_pass": self.overall_pass,
        }
        if include_timings:
            out["timings"] = dict(sorted(self.timings.items()))
        return out

    def failed_checks(self) -> list[str]:
        return [c.condition_id for c in self.checks if not c.passed]


# ---------------------------------------------------------------------------
# JSON with full-precision floats


def _fmt_json(obj, sort_keys: bool = True) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        import json as _json

        return _json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise InvalidInputError(f"cannot serialize non-finite float {obj}")
        return format_float(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items()) if sort_keys else obj.items()
        inner = ",".join(f"{_fmt_json(str(k))}:{_fmt_json(v, sort_keys)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_fmt_json(v, sort_keys) for v in obj) + "]"
    raise InvalidInputError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits in
    scientific notation (still plain JSON numbers)."""
    return _fmt_json(obj)


# ---------------------------------------------------------------------------
# curve resolution


def _resolve_curves(spec: SurfaceSpec):
    curves: list[Curve] = []
    validations: list[FamilyValidation] = []
    for desc in spec.curves:
        if "family_id" in desc:
            extra = set(desc) - {"family_id", "params", "alt_pairing"}
            if extra:
                raise InvalidInputError(f"unknown curve descriptor keys {sorted(extra)}")
            fam = ParamFamily(desc["family_id"], desc.get("params", {}))
            validations.append(validate_family(fam))
            built = make_example(fam, alt_pairing=bool(desc.get("alt_pairing", False)))
            curves.extend(built if isinstance(built, tuple) else (built,))
        elif "name" in desc:
            extra = set(desc) - {"name"}
            if extra:
                raise InvalidInputError(f"unknown curve descriptor keys {sorted(extra)}")
            curves.append(builtin_curve(desc["name"]))
        else:
            raise InvalidInputError(
                f"curve descriptor needs 'family_id' or 'name': {desc}"
            )
    arity = SURFACE_FAMILIES[spec.family]["arity"]
    if len(curves) != arity:
        raise InvalidInputError(
            f"family {spec.family} takes {arity} curve(s), got {len(curves)}"
        )
    return curves, validations


# ---------------------------------------------------------------------------
# verification


def _metric_model(family: str):
    if family in ("sphere_b", "sphere_c", "de_sitter_control"):
        return lambda x, y: -2.0 / (x + y) ** 2
    if family in ("hyp_ii", "hyp_iii"):
        return lambda x, y: -1.0 / np.cosh((x + y) / SQRT2) ** 2
    return None


def _curvature_model(family: str):
    return {"sphere_b": 1.0, "sphere_c": 1.0, "de_sitter_control": 1.0,
            "hyp_ii": -1.0, "hyp_iii": -1.0}.get(family)


def _vmax(v):
    """Max-norm over the embedding axis, per node."""
    return np.max(np.abs(v), axis=-1)


def _xi_expected(family: str, z: Curve):
    if family == "sphere_b":
        return lambda x, y: -_col((x + y) ** 2) * z.at(x, 3) / 4.0
    if family == "hyp_ii":
        # normal field of the single-curve hyperbolic construction; the
        # cosh^2 factor follows from substituting the immersion into its
        # own PDE system (and the numeric residual confirms it)
        return lambda x, y: ((SQRT2 * z.at(x, 1) - z.at(x, 3) / SQRT2)
                             * _col(np.cosh((x + y) / SQRT2) ** 2))
    return None


def _premise_phase(spec, curves, tols, grid_pts):
    """Family-specific curve checks.  Returns (reports, hard_failure_ids)."""
    family = spec.family
    reports: list[ConditionReport] = []
    hard: list[str] = []
    if family == "translation":
        z, w = curves
        for curve, cid in ((z, "null-z"), (w, "null-w")):
            reports.append(replace(null_check(curve, 41, tols["premise"]), condition_id=cid))
        values = derivative_inner(z, 1, w, 1, grid_pts[:, 0], grid_pts[:, 1])
        pairing = ConditionReport.from_min(
            "pairing-nonzero", np.abs(values), tols["premise"],
            f"{spec.grid[0]}x{spec.grid[1]} grid", grid_pts,
            note="min |<z'(x), w'(y)>| must stay positive")
        if values.min() < 0 < values.max():  # sign change proves a zero
            pairing = ConditionReport(
                pairing.condition_id, float(values.max() - values.min()), 0.0, False,
                pairing.grid, pairing.worst_point,
                "<z'(x), w'(y)> changes sign on the grid (residual = span)")
        reports.append(pairing)
        hard = [r.condition_id for r in reports if not r.passed]
    elif family in ("sphere_b", "hyp_ii"):
        check = check_case_b_premises if family == "sphere_b" else check_case_ii_premises
        reports = check(curves[0], 41, tols["premise"])
        hard = [r.condition_id for r in reports[:3] if not r.passed]
    elif family in ("sphere_c", "hyp_iii"):
        check = check_case_c_conditions if family == "sphere_c" else check_case_iii_conditions
        reports = check(curves[0], curves[1], spec.grid, spec.resolved_domain(),
                        tols["condition"])
    return reports, hard


def _build_surface(spec: SurfaceSpec, curves, premise_tol: float) -> SurfaceMap:
    family = spec.family
    domain = spec.resolved_domain()
    if family == "translation":
        return translation_surface(curves[0], curves[1], domain, tol=premise_tol)
    if family == "sphere_b":
        return sphere_case_b(curves[0], domain, tol=premise_tol)
    if family == "sphere_c":
        return sphere_case_c(curves[0], curves[1], domain)
    if family == "hyp_ii":
        return hyperbolic_case_ii(curves[0], domain, tol=premise_tol)
    if family == "hyp_iii":
        return hyperbolic_case_iii(curves[0], curves[1], domain)
    return de_sitter_control(domain)


def _surface_checks(spec, surface, tols) -> list[ConditionReport]:
    family = spec.family
    desc = surface.grid_description(spec.grid)
    idx = surface.ambient.embedding_signature.index

    def dot(a, b):
        return indefinite_dot(a, b, idx)

    # (condition id, residual of (x, y, jet, forms) on a block, tol key, note)
    planned: list[tuple] = []

    def add_max(cid, per_node, tol_key, note=""):
        planned.append((cid, per_node, tol_key, note))

    quadric_target = {"sphere_b": 1.0, "sphere_c": 1.0,
                      "hyp_ii": -1.0, "hyp_iii": -1.0,
                      "de_sitter_control": 1.0}.get(family)
    if quadric_target is not None:
        note = f"<L,L> = {quadric_target:g}"
        add_max("quadric",
                lambda x, y, jet, f: np.abs(dot(jet.L, jet.L) - quadric_target),
                "quadric", note=note)
    if surface.ambient.kind is not AmbientKind.FLAT:
        add_max("tangency",
                lambda x, y, jet, f: np.maximum(np.abs(dot(jet.L, jet.Lx)),
                                                np.abs(dot(jet.L, jet.Ly))),
                "tangency", note="<L,L_x> = <L,L_y> = 0")

    g_model = _metric_model(family)
    if g_model is not None:
        add_max("metric-match",
                lambda x, y, jet, f: np.abs(f.metric.g_xy - g_model(x, y)),
                "metric", note="g_xy matches the model conformal factor")
    add_max("metric-null-form",
            lambda x, y, jet, f: np.maximum(*f.metric.offdiag_residuals),
            "metric-null", note="|g_xx|, |g_yy|")
    add_max("frame-normalization",
            lambda x, y, jet, f: np.abs(dot(f.frame.e1, f.frame.e2) + 1.0),
            "frame", note="<e1,e2> = -1")

    if family in ("sphere_b", "sphere_c"):
        add_max("pde-xy",
                lambda x, y, jet, f: _vmax(jet.Lxy - 2 * jet.L / _col((x + y) ** 2)),
                "pde", note="L_xy = 2L/(x+y)^2")
    elif family in ("hyp_ii", "hyp_iii"):
        add_max("pde-xy",
                lambda x, y, jet, f: _vmax(
                    jet.Lxy + jet.L / _col(np.cosh((x + y) / SQRT2) ** 2)),
                "pde", note="L_xy = -sech^2((x+y)/sqrt2) L")
    if family == "sphere_b":
        add_max("pde-yy",
                lambda x, y, jet, f: _vmax(jet.Lyy + 2 * jet.Ly / _col(x + y)),
                "pde", note="L_yy = -2L_y/(x+y)")
    elif family == "hyp_ii":
        add_max("pde-yy",
                lambda x, y, jet, f: _vmax(
                    jet.Lyy + SQRT2 * _col(np.tanh((x + y) / SQRT2)) * jet.Ly),
                "pde", note="L_yy = -sqrt2 tanh((x+y)/sqrt2) L_y")

    minim_key = "minimality-flat" if family == "translation" else "minimality"
    add_max("minimality", lambda x, y, jet, f: _vmax(f.H),
            minim_key, note="max-norm of the mean curvature vector")

    # K and the Gauss equation are checked twice with the same residuals:
    # on the whole grid with K exact from the third-order jet, and on the
    # FD subgrid with K from the E-field stencil (the cross-check)
    stencil: list[tuple] = []
    k_model = _curvature_model(family)
    if k_model is not None:
        def k_res(x, y, jet, f):
            return np.abs(f.K - k_model)
        add_max("curvature-analytic", k_res, "analytic-k",
                note=f"K = {k_model:g} from the third-order jet")
        stencil.append(("curvature", k_res, "curvature", f"K = {k_model:g}"))

    xi = _xi_expected(family, surface.sources[0]) if surface.sources else None
    if xi is not None:
        def xi_res(x, y, jet, f):
            expected = xi(x, y)
            return _vmax(f.h11 - expected) / np.maximum(1.0, _vmax(expected))
        add_max("xi-recovery", xi_res, "xi",
                note="h(e1,e1) matches the expected normal field (relative)")

    c = surface.ambient.curvature

    def gauss_res(x, y, jet, f):
        return np.abs(f.K - c + dot(f.h11, f.h22) - dot(f.h12, f.h12))
    gauss_note = "K - c + <h11,h22> - <h12,h12> = 0"
    add_max("gauss-analytic", gauss_res, "analytic-k",
            note=gauss_note + ", K from the third-order jet")
    stencil.append(("gauss-equation", gauss_res, "gauss", gauss_note))

    try:
        columns = diffgeo.grid_values(surface, spec.grid, [p[1] for p in planned])
        stencil_columns = diffgeo.grid_values(
            surface, FD_SUBGRID, [p[1] for p in stencil], curvature="stencil")
    except DegenerateMetricError as exc:
        # tol -1 keeps the pass == (residual <= tol) invariant honest
        return [ConditionReport(
            "metric-signature", 0.0, -1.0, False, desc,
            note=f"induced metric left null form: {exc}")]

    def reports(entries, columns, shape):
        desc, pts = surface.grid_description(shape), surface.grid(shape)
        return [ConditionReport.from_max(cid, column, tols[tol_key], desc, pts, note=note)
                for (cid, _, tol_key, note), column in zip(entries, columns)]

    checks = reports(planned, columns, spec.grid)
    if surface.jet is not None:
        sub = surface.grid(FD_SUBGRID)
        checks.append(ConditionReport.from_max(
            "fd-partials", diffgeo.fd_discrepancy(surface, sub[:, 0], sub[:, 1]),
            tols["fd"], surface.grid_description(FD_SUBGRID), sub,
            note="analytic vs finite-difference jet (relative)"))
    return checks + reports(stencil, stencil_columns, FD_SUBGRID)


def verify(spec: SurfaceSpec | dict) -> VerificationReport:
    """Full pipeline: curves, premises/conditions, surface, geometry suite.

    Raises only on malformed input (unknown family, bad arity, violated
    factory constraints); failed checks are reported, not thrown.
    """
    if isinstance(spec, dict):
        spec = SurfaceSpec.from_dict(spec)
    tols = default_tolerances()
    tols.update(spec.tolerances)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    curves, validations = _resolve_curves(spec)
    # the premise phase needs the grid before the surface exists
    grid_pts = grid_points(spec.resolved_domain(), spec.grid)
    reports, hard = _premise_phase(spec, curves, tols, grid_pts)
    timings["premises"] = time.perf_counter() - t0

    surface_info: dict = {}
    t1 = time.perf_counter()
    if hard:
        surface_info = {"constructed": False, "reason": f"premises failed: {hard}"}
    else:
        surface = _build_surface(spec, curves, tols["premise"])
        surface_info = {
            "constructed": True,
            "label": surface.label,
            "ambient": surface.ambient.describe(),
            "flags": list(surface.flags),
        }
        reports = reports + _surface_checks(spec, surface, tols)
    timings["checks"] = time.perf_counter() - t1
    timings["total"] = time.perf_counter() - t0

    overall = bool(not hard and all(r.passed for r in reports))
    return VerificationReport(
        spec=spec.to_dict(),
        surface=surface_info,
        checks=tuple(reports),
        curve_validations=tuple(validations),
        overall_pass=overall,
        timings=timings,
    )


# ---------------------------------------------------------------------------
# parameter sweeps


def _default_sampler(family: str) -> dict:
    if family == "Ex7_1":
        return {"mode": "sorted_box", "a_box": [0.5, 2.0],
                "pqr_box": [0.2, 3.0], "min_gap": 0.1, "grid": [9, 9]}
    if family == "Ex7_2":
        return {"mode": "chain", "qr_box": [0.05, 3.0], "grid": [9, 9]}
    if family == "Ex8_1":
        return {"mode": "box_around", "center": [1.0, 1.1, 1.0, 1.5],
                "rel": 0.1, "grid": [9, 9]}
    if family == "Ex8_2":
        c = 1.0 / SQRT2
        return {"mode": "box_around", "center": [c, c, 1.1, 1.5, 1.1, 1.5],
                "rel": 0.1, "grid": [9, 9]}
    raise InvalidInputError(f"no sampler for family {family!r}")


def _draw_params(family: str, cfg: dict, rng: np.random.Generator) -> dict:
    names = FAMILIES[family]["params"]
    mode = cfg["mode"]
    if mode == "sorted_box":
        a = rng.uniform(*cfg["a_box"])
        while True:
            draws = np.sort(rng.uniform(*cfg["pqr_box"], 3))[::-1]
            if draws[0] - draws[1] >= cfg["min_gap"] and draws[1] - draws[2] >= cfg["min_gap"]:
                break
        return {"a": float(a), "p": float(draws[0]), "r": float(draws[1]),
                "q": float(draws[2])}
    if mode == "chain":
        # draw (q, r) until the chain has a nonempty p-interval, then draw
        # p^2 uniformly inside it, so every triple satisfies the chain
        while True:
            q, r = rng.uniform(*cfg["qr_box"], 2)
            mid = 80 + 189 * r**2 - 64 * q**2
            if mid > 0:
                break
        p = math.sqrt(rng.uniform(mid / 78.75, mid / 35.0))
        return {"p": float(p), "q": float(q), "r": float(r)}
    if mode == "box_around":
        center = cfg["center"]
        rel = cfg["rel"]
        vals = [c * rng.uniform(1 - rel, 1 + rel) for c in center]
        return dict(zip(names, map(float, vals)))
    raise InvalidInputError(f"unknown sampler mode {mode!r}")


def sweep(
    family: str,
    sampler_config: dict | None = None,
    n: int = 50,
    rng_seed: int = 0,
) -> dict:
    """Draw n parameter sets, filter by factory validation, verify the rest.

    Deterministic for a given seed.  An empty valid set is reported, not
    raised.  Returns counts plus the worst residual seen per check id.
    """
    if family not in FAMILIES:
        raise InvalidInputError(f"unknown curve family {family!r}")
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    cfg = dict(_default_sampler(family))
    cfg.update(sampler_config or {})
    rng = np.random.default_rng(rng_seed)
    surface_family = {"Ex7_1": "sphere_b", "Ex7_2": "sphere_c",
                      "Ex8_1": "hyp_ii", "Ex8_2": "hyp_iii"}[family]

    valid = passed = failed = invalid = 0
    worst: dict[str, float] = {}
    failures: list[dict] = []
    for _ in range(n):
        params = _draw_params(family, cfg, rng)
        fam = ParamFamily(family, params)
        if not validate_family(fam).ok:
            invalid += 1
            continue
        valid += 1
        report = verify(SurfaceSpec(
            family=surface_family,
            curves=({"family_id": family, "params": params},),
            grid=tuple(cfg["grid"]),
        ))
        for check in report.checks:
            prev = worst.get(check.condition_id, -math.inf)
            worst[check.condition_id] = max(prev, check.max_residual)
        if report.overall_pass:
            passed += 1
        else:
            failed += 1
            failures.append({"params": params, "failed": report.failed_checks()})
    return {
        "family": family,
        "surface_family": surface_family,
        "n": n,
        "seed": rng_seed,
        "sampler": {k: v for k, v in sorted(cfg.items())},
        "valid": valid,
        "invalid": invalid,
        "passed": passed,
        "failed": failed,
        "worst_residuals": dict(sorted(worst.items())),
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# exports


#: 17 significant digits in scientific notation: round-trips doubles exactly.
FLOAT_FORMAT = "%.17e"


def format_float(v: float) -> str:
    return FLOAT_FORMAT % float(v)

#: Rows formatted per write, which bounds the text held in memory.
EXPORT_ROWS = 1024


def export_samples(spec: SurfaceSpec | dict, path: str, format: str) -> None:
    """Write the grid of positions with per-vertex minimality residuals.

    csv: header "x,y,L_1,...,L_k,residual", one row per grid node.
    obj: quad mesh over the grid; vertices take the first three embedding
    coordinates (padded with zeros below dimension three).
    """
    if format not in ("csv", "obj"):
        raise InvalidInputError(f"format must be 'csv' or 'obj', got {format!r}")
    if isinstance(spec, dict):
        spec = SurfaceSpec.from_dict(spec)
    curves, _ = _resolve_curves(spec)
    surface = _build_surface(spec, curves, default_tolerances()["premise"])
    nx, ny = spec.grid
    dim = surface.ambient.embedding_signature.dim
    positions, residuals = diffgeo.grid_values(
        surface, spec.grid,
        [lambda x, y, jet, f: jet.L, lambda x, y, jet, f: _vmax(f.H)],
        curvature=None)
    positions = positions.reshape(-1, dim)

    if format == "csv":
        header = "x,y," + ",".join(f"L_{i + 1}" for i in range(dim)) + ",residual"
        table = np.column_stack([surface.grid(spec.grid), positions, residuals.ravel()])
        row = ",".join([FLOAT_FORMAT] * table.shape[1])
        faces = ()
    else:
        header = f"# {surface.label or spec.family}: {nx}x{ny} grid"
        table = np.zeros((nx * ny, 3))
        table[:, : min(3, dim)] = positions[:, : min(3, dim)]
        row = "v " + " ".join([FLOAT_FORMAT] * 3)
        faces = (f"f {a} {a + ny} {a + ny + 1} {a + 1}\n"
                 for a in (i * ny + j + 1 for i in range(nx - 1) for j in range(ny - 1)))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(0, len(table), EXPORT_ROWS):
            fh.write("".join(row % tuple(r) + "\n" for r in table[i:i + EXPORT_ROWS].tolist()))
        fh.writelines(faces)


def list_families() -> dict:
    """Catalog of surface families, curve families, and named test curves."""
    return {
        "surface_families": {
            name: {
                "arity": meta["arity"],
                "domain": {"x": list(meta["domain"][0]), "y": list(meta["domain"][1])},
            }
            for name, meta in SURFACE_FAMILIES.items()
        },
        "curve_families": {
            fid: {
                "params": list(family_info(fid)["params"]),
                "signature": str(family_info(fid)["signature"]),
                "pair": family_info(fid)["pair"],
                "ambient": family_info(fid)["ambient"],
                "advisory_chain": family_info(fid)["chain"],
            }
            for fid in sorted(FAMILIES)
        },
        "builtin_curves": sorted(BUILTIN_CURVES),
    }
