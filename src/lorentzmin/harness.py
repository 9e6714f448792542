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

import copy
import json
import math
import numbers
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from . import diffgeo
from .curves import (
    BUILTIN_CURVES,
    FAMILIES,
    Curve,
    FamilyValidation,
    ParamFamily,
    _finite_number,
    builtin_curve,
    derivative_inner,
    family_info,
    make_example,
    null_check,
    validate_family,
)
from .errors import DegenerateMetricError, InvalidInputError, PremiseError
from .indefinite import AmbientKind, indefinite_dot
from .report import ConditionReport, DEFAULT_TOLS, default_tolerances
from .surfaces import (
    DE_SITTER_DOMAIN,
    FLAT_DOMAIN,
    HYPERBOLIC_DOMAIN,
    SPHERE_DOMAIN,
    SQRT2,
    _col,
    check_case_c_conditions,
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

FD_SUBGRID = (5, 5)

#: Largest grid, in nodes, that a spec may ask for.  A verify holds about
#: 0.5 kB per node at its peak and takes about 13 us per node (sphere_c on
#: a 2-vCPU VM), so the cap is already about 0.5 GB and 15 s; a larger
#: grid is a typo (an [nx, ny] of [10**5, 10**5] would try to allocate
#: terabytes) and is rejected before any work starts.
MAX_GRID_NODES = 1_000_000


def _check_grid(grid) -> tuple[int, int]:
    """(nx, ny) from two integers, each at least 2, with at most
    MAX_GRID_NODES nodes in all."""
    shape = tuple(grid) if isinstance(grid, (list, tuple)) else ()
    if len(shape) != 2 or not all(
            isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in shape):
        raise InvalidInputError(f"grid must be two integers [nx, ny], got {grid!r}")
    nx, ny = int(shape[0]), int(shape[1])
    if nx < 2 or ny < 2:
        raise InvalidInputError(f"grid must be at least 2x2, got {[nx, ny]}")
    if nx * ny > MAX_GRID_NODES:
        raise InvalidInputError(
            f"grid {nx}x{ny} has {nx * ny} nodes, more than the {MAX_GRID_NODES} allowed")
    return nx, ny


@dataclass(frozen=True)
class SurfaceSpec:
    """Machine-readable description of one surface to verify."""

    family: str
    curves: tuple[dict, ...] = ()
    domain: tuple[tuple[float, float], tuple[float, float]] | None = None
    grid: tuple[int, int] = (21, 21)
    tolerances: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in SURFACE_FAMILIES:
            raise InvalidInputError(
                f"unknown family {self.family!r}; known: {sorted(SURFACE_FAMILIES)}"
            )
        if not (isinstance(self.curves, (list, tuple))
                and all(isinstance(c, Mapping) for c in self.curves)):
            raise InvalidInputError(
                f"curves must be a list of curve descriptor objects, got {self.curves!r}")
        object.__setattr__(self, "curves", tuple(dict(c) for c in self.curves))
        if self.domain is not None:
            try:
                (x0, x1), (y0, y1) = self.domain
                bounds = (x0, x1, y0, y1)
            except (TypeError, ValueError):
                bounds = ()
            if not (bounds and all(_finite_number(v) for v in bounds)):
                raise InvalidInputError(
                    f"domain must be two pairs of finite numbers, got {self.domain!r}")
            object.__setattr__(
                self, "domain", ((float(x0), float(x1)), (float(y0), float(y1)))
            )
        object.__setattr__(self, "grid", _check_grid(self.grid))
        if not isinstance(self.tolerances, Mapping):
            raise InvalidInputError(
                f"tolerances must map tolerance keys to numbers, got {self.tolerances!r}")
        unknown = set(self.tolerances) - set(DEFAULT_TOLS)
        if unknown:
            raise InvalidInputError(
                f"unknown tolerance keys {sorted(unknown)}; known: {sorted(DEFAULT_TOLS)}"
            )
        for key, value in self.tolerances.items():
            if not (_finite_number(value) and value > 0):
                raise InvalidInputError(
                    f"tolerance {key} must be a positive finite number, got {value!r}")
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
            if not (isinstance(dom, dict) and set(dom) == {"x", "y"}
                    and all(isinstance(dom[k], (list, tuple)) for k in "xy")):
                raise InvalidInputError("domain must be {'x': [lo, hi], 'y': [lo, hi]}")
            domain = (tuple(dom["x"]), tuple(dom["y"]))
        return cls(
            family=data["family"],
            curves=data.get("curves", ()),
            domain=domain,
            grid=data.get("grid", (21, 21)),
            tolerances=data.get("tolerances", {}),
        )

    def resolved_domain(self):
        return self.domain if self.domain is not None else SURFACE_FAMILIES[self.family].domain

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
        return json.dumps(obj)
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
            alt_pairing = desc.get("alt_pairing", False)
            if not isinstance(alt_pairing, bool):
                raise InvalidInputError(f"alt_pairing must be true or false, got {alt_pairing!r}")
            validations.append(validate_family(fam))
            built = make_example(fam, alt_pairing=alt_pairing)
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
    arity = SURFACE_FAMILIES[spec.family].arity
    if len(curves) != arity:
        raise InvalidInputError(
            f"family {spec.family} takes {arity} curve(s), got {len(curves)}"
        )
    return curves, validations


# ---------------------------------------------------------------------------
# verification


def _vmax(v):
    """Max-norm over the embedding axis, per node."""
    return np.max(np.abs(v), axis=-1)


@dataclass(frozen=True)
class SurfaceFamily:
    """Everything the harness knows about one surface family.

    ``build(curves, domain, premise_tol)`` constructs the surface;
    ``premises(curves, spec, tols)`` returns the reports made before
    building and the ids among them that block it.  ``k`` is both <L,L>
    and the model K, ``g_xy(x, y)`` the model conformal factor, ``pde``
    (check id, residual, note) triples, ``xi(z)`` the expected h(e1,e1)
    from the source curve z, ``minimality`` a tolerance key; None skips
    a check.  ``build`` and ``premises`` call constructors and checkers
    by module-global name, so a wrapper installed there sees every call."""

    arity: int
    domain: tuple[tuple[float, float], tuple[float, float]]
    build: Callable
    premises: Callable = lambda curves, spec, tols: ([], [])
    k: float | None = None
    g_xy: Callable | None = None
    pde: tuple[tuple[str, Callable, str], ...] = ()
    xi: Callable | None = None
    minimality: str = "minimality"


def _translation_premises(curves, spec, tols):
    """Null curves and a nonzero <z'(x), w'(y)> on the grid; all blocking."""
    z, w = curves
    grid_pts = grid_points(spec.resolved_domain(), spec.grid)
    reports = [replace(null_check(curve, 41, tols["premise"]), condition_id=cid)
               for curve, cid in ((z, "null-z"), (w, "null-w"))]
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
    return reports, [r.condition_id for r in reports if not r.passed]


#: Model K (which is also <L,L>) and conformal factor on each quadric
_ON_SPHERE = {"k": 1.0, "g_xy": lambda x, y: -2.0 / (x + y) ** 2}
_ON_HYPERBOLIC = {"k": -1.0, "g_xy": lambda x, y: -1.0 / np.cosh((x + y) / SQRT2) ** 2}
_SPHERE_PDE_XY = ("pde-xy", lambda x, y, jet, f: _vmax(jet.Lxy - 2 * jet.L / _col((x + y) ** 2)),
                  "L_xy = 2L/(x+y)^2")
_HYPERBOLIC_PDE_XY = ("pde-xy", lambda x, y, jet, f: _vmax(
    jet.Lxy + jet.L / _col(np.cosh((x + y) / SQRT2) ** 2)), "L_xy = -sech^2((x+y)/sqrt2) L")

#: The surface families by spec name.  The de Sitter control takes no
#: curves; it exists so the standard negative control is addressable
#: from a spec file.
SURFACE_FAMILIES: dict[str, SurfaceFamily] = {
    "translation": SurfaceFamily(
        2, FLAT_DOMAIN,
        build=lambda curves, domain, tol: translation_surface(*curves, domain, tol=tol),
        premises=_translation_premises, minimality="minimality-flat"),
    "sphere_b": SurfaceFamily(
        1, SPHERE_DOMAIN,
        build=lambda curves, domain, tol: sphere_case_b(*curves, domain, tol=tol),
        **_ON_SPHERE,
        pde=(_SPHERE_PDE_XY,
             ("pde-yy", lambda x, y, jet, f: _vmax(jet.Lyy + 2 * jet.Ly / _col(x + y)),
              "L_yy = -2L_y/(x+y)")),
        xi=lambda z: lambda x, y: -_col((x + y) ** 2) * z.at(x, 3) / 4.0),
    "sphere_c": SurfaceFamily(
        2, SPHERE_DOMAIN,
        build=lambda curves, domain, tol: sphere_case_c(*curves, domain),
        premises=lambda curves, spec, tols: (check_case_c_conditions(
            *curves, spec.grid, spec.resolved_domain(), tols["condition"]), []),
        **_ON_SPHERE, pde=(_SPHERE_PDE_XY,)),
    "hyp_ii": SurfaceFamily(
        1, HYPERBOLIC_DOMAIN,
        build=lambda curves, domain, tol: hyperbolic_case_ii(*curves, domain, tol=tol),
        **_ON_HYPERBOLIC,
        pde=(_HYPERBOLIC_PDE_XY,
             ("pde-yy", lambda x, y, jet, f: _vmax(
                 jet.Lyy + SQRT2 * _col(np.tanh((x + y) / SQRT2)) * jet.Ly),
              "L_yy = -sqrt2 tanh((x+y)/sqrt2) L_y")),
        # normal field of the single-curve hyperbolic construction; the
        # cosh^2 factor follows from substituting the immersion into its
        # own PDE system (and the numeric residual confirms it)
        xi=lambda z: lambda x, y: ((SQRT2 * z.at(x, 1) - z.at(x, 3) / SQRT2)
                                   * _col(np.cosh((x + y) / SQRT2) ** 2))),
    "hyp_iii": SurfaceFamily(
        2, HYPERBOLIC_DOMAIN,
        build=lambda curves, domain, tol: hyperbolic_case_iii(*curves, domain),
        premises=lambda curves, spec, tols: (check_case_iii_conditions(
            *curves, spec.grid, spec.resolved_domain(), tols["condition"]), []),
        **_ON_HYPERBOLIC, pde=(_HYPERBOLIC_PDE_XY,)),
    "de_sitter_control": SurfaceFamily(
        0, DE_SITTER_DOMAIN,
        build=lambda curves, domain, tol: de_sitter_control(domain),
        **_ON_SPHERE),
}


def _premise_phase(spec, curves, tols):
    """The family's premise checks, then the surface unless one blocks it:
    (reports, blocking ids, surface or None).  sphere_b and hyp_ii check
    their own premises and keep the reports on the surface or error."""
    family = SURFACE_FAMILIES[spec.family]
    reports, hard = family.premises(curves, spec, tols)
    if hard:
        return reports, hard, None
    try:
        surface = family.build(curves, spec.resolved_domain(), tols["premise"])
    except PremiseError as exc:
        return reports + list(exc.reports), exc.failed, None
    return reports + list(surface.premises), [], surface


def _surface_checks(spec, surface, tols) -> list[ConditionReport]:
    family = SURFACE_FAMILIES[spec.family]
    desc = surface.grid_description(spec.grid)
    idx = surface.ambient.embedding_signature.index

    def dot(a, b):
        return indefinite_dot(a, b, idx)

    # (condition id, residual of (x, y, jet, forms) on a block, tol key, note)
    planned: list[tuple] = []

    def add_max(cid, per_node, tol_key, note=""):
        planned.append((cid, per_node, tol_key, note))

    k = family.k
    if k is not None:
        add_max("quadric", lambda x, y, jet, f: np.abs(dot(jet.L, jet.L) - k),
                "quadric", note=f"<L,L> = {k:g}")
    if surface.ambient.kind is not AmbientKind.FLAT:
        add_max("tangency",
                lambda x, y, jet, f: np.maximum(np.abs(dot(jet.L, jet.Lx)),
                                                np.abs(dot(jet.L, jet.Ly))),
                "tangency", note="<L,L_x> = <L,L_y> = 0")

    if family.g_xy is not None:
        add_max("metric-match",
                lambda x, y, jet, f: np.abs(f.metric.g_xy - family.g_xy(x, y)),
                "metric", note="g_xy matches the model conformal factor")
    add_max("metric-null-form",
            lambda x, y, jet, f: np.maximum(*f.metric.offdiag_residuals),
            "metric-null", note="|g_xx|, |g_yy|")
    add_max("frame-normalization",
            lambda x, y, jet, f: np.abs(dot(f.frame.e1, f.frame.e2) + 1.0),
            "frame", note="<e1,e2> = -1")

    for cid, residual, note in family.pde:
        add_max(cid, residual, "pde", note=note)
    add_max("minimality", lambda x, y, jet, f: _vmax(f.H),
            family.minimality, note="max-norm of the mean curvature vector")

    # K and the Gauss equation are checked twice with the same residuals:
    # on the whole grid with K exact from the third-order jet, and on the
    # FD subgrid with K from the E-field stencil (the cross-check)
    stencil: list[tuple] = []
    if k is not None:
        def k_res(x, y, jet, f):
            return np.abs(f.K - k)
        add_max("curvature-analytic", k_res, "analytic-k",
                note=f"K = {k:g} from the third-order jet")
        stencil.append(("curvature", k_res, "curvature", f"K = {k:g}"))

    if family.xi is not None:
        xi = family.xi(surface.sources[0])

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
    reports, hard, surface = _premise_phase(spec, curves, tols)
    timings["premises"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    if hard:
        surface_info = {"constructed": False, "reason": f"premises failed: {hard}"}
    else:
        surface_info = {"constructed": True, "label": surface.label,
                        "ambient": surface.ambient.describe(), "flags": list(surface.flags)}
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


#: Sampler modes and the config keys each one reads, besides "mode" and
#: "grid".
SAMPLER_KEYS = {"sorted_box": ("a_box", "pqr_box", "min_gap"),
                "chain": ("qr_box",),
                "box_around": ("center", "rel")}

#: Draws a sampler may reject in a row before its config counts as one
#: that cannot be satisfied.
MAX_SAMPLER_TRIES = 10_000

#: Largest magnitude of a number in a sampler config, so that the squares
#: of the draws, times the constants of the chain and of the radicands,
#: stay finite.
SAMPLER_BOUND = 1e150


def _sampler_config(family: str, overrides) -> dict:
    """The family's default sampler updated with ``overrides``, checked
    so that drawing from it cannot fail on a type or overflow."""
    if overrides is None:
        overrides = {}
    if not isinstance(overrides, Mapping):
        raise InvalidInputError(f"sampler config must be a JSON object, got {overrides!r}")
    known = {"mode", "grid"}.union(*SAMPLER_KEYS.values())
    unknown = set(overrides) - known
    if unknown:
        raise InvalidInputError(
            f"unknown sampler config keys {sorted(unknown)}; known: {sorted(known)}")
    cfg = copy.deepcopy(FAMILIES[family]["sampler"])
    cfg.update(overrides)
    mode = cfg["mode"]
    if not isinstance(mode, str) or mode not in SAMPLER_KEYS:
        raise InvalidInputError(f"unknown sampler mode {mode!r}; known: {sorted(SAMPLER_KEYS)}")
    missing = [key for key in SAMPLER_KEYS[mode] if key not in cfg]
    if missing:
        raise InvalidInputError(f"sampler mode {mode} needs {missing}")
    _check_grid(cfg["grid"])

    def numbers_ok(value, size):
        return (isinstance(value, (list, tuple)) and len(value) == size
                and all(_finite_number(v) and abs(v) <= SAMPLER_BOUND for v in value))

    for key in SAMPLER_KEYS[mode]:
        value = cfg[key]
        if key == "center":
            size = len(FAMILIES[family]["params"])
            ok, want = numbers_ok(value, size), f"{size} numbers"
        elif key.endswith("_box"):
            ok, want = numbers_ok(value, 2) and value[0] <= value[1], "[lo, hi] with lo <= hi"
        else:  # rel, min_gap
            hi = 1.0 if key == "rel" else SAMPLER_BOUND
            ok, want = numbers_ok([value], 1) and 0 <= value <= hi, f"a number in [0, {hi:g}]"
        if not ok:
            raise InvalidInputError(
                f"sampler {key} must be {want} of magnitude at most {SAMPLER_BOUND:g}, "
                f"got {value!r}")
    return cfg


def _draw_params(family: str, cfg: dict, rng: np.random.Generator) -> dict:
    names = FAMILIES[family]["params"]
    mode = cfg["mode"]
    if mode == "sorted_box":
        a = rng.uniform(*cfg["a_box"])
        for _ in range(MAX_SAMPLER_TRIES):
            draws = np.sort(rng.uniform(*cfg["pqr_box"], 3))[::-1]
            if draws[0] - draws[1] >= cfg["min_gap"] and draws[1] - draws[2] >= cfg["min_gap"]:
                return {"a": float(a), "p": float(draws[0]), "r": float(draws[1]),
                        "q": float(draws[2])}
        raise InvalidInputError(
            f"sampler drew no (p, r, q) with gaps >= {cfg['min_gap']:g} from "
            f"{cfg['pqr_box']} in {MAX_SAMPLER_TRIES} tries")
    if mode == "chain":
        # draw (q, r) until the chain has a nonempty p-interval, then draw
        # p^2 uniformly inside it, so every triple satisfies the chain
        for _ in range(MAX_SAMPLER_TRIES):
            q, r = rng.uniform(*cfg["qr_box"], 2)
            mid = 80 + 189 * r**2 - 64 * q**2
            if mid > 0:
                p = math.sqrt(rng.uniform(mid / 78.75, mid / 35.0))
                return {"p": float(p), "q": float(q), "r": float(r)}
        raise InvalidInputError(
            f"sampler drew no (q, r) with a nonempty chain interval from {cfg['qr_box']} "
            f"in {MAX_SAMPLER_TRIES} tries")
    center = cfg["center"]
    rel = cfg["rel"]
    vals = [c * rng.uniform(1 - rel, 1 + rel) for c in center]
    return dict(zip(names, map(float, vals)))


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
    if not isinstance(family, str) or family not in FAMILIES:
        raise InvalidInputError(f"unknown curve family {family!r}")
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    cfg = _sampler_config(family, sampler_config)
    rng = np.random.default_rng(rng_seed)
    surface_family = FAMILIES[family]["surface"]

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
    surface = SURFACE_FAMILIES[spec.family].build(
        curves, spec.resolved_domain(), default_tolerances()["premise"])
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
                "arity": meta.arity,
                "domain": {"x": list(meta.domain[0]), "y": list(meta.domain[1])},
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
