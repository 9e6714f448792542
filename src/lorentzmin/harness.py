"""Verification pipelines, parameter sweeps, exports, and JSON reports.

A surface is described by a small JSON spec:

    {"family": "sphere_b",
     "curves": [{"family_id": "Ex7_1", "params": {"a": 1, "p": 3, "q": 1, "r": 2}}],
     "domain": {"x": [0.1, 1.1], "y": [0.1, 1.1]},
     "grid": [21, 21],
     "tolerances": {"minimality": 1e-6}}

Curve descriptors are either a built-in family id plus parameters or the
name of a named test curve.  ``verify`` takes ``sweep``'s route with the
spec's curves as one draw: premise rows (``_premise_phases``), the surface,
and the full differential-geometry suite (a pair's joint conditions too)
on the grid (``_check_rows``), returning a report that never throws on a
failed check (only on malformed input).  Reports serialize deterministically:
identical specs yield byte-identical JSON up to the timings block, with every
float in scientific notation at 18 significant digits (``%.17e``).
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from . import diffgeo
from .curves import (
    BUILTIN_CURVES,
    DEFAULT_SAMPLES,
    FAMILIES,
    Curve,
    FamilyValidation,
    ParamFamily,
    _family_curves,
    _finite_number,
    _valid_rows,
    builtin_curve,
)
from .errors import DegenerateMetricError, InvalidInputError, PremiseError
from .indefinite import AmbientKind, indefinite_dot
from .report import ConditionReport, DEFAULT_TOLS, _max_verdicts, default_tolerances, json_residual
from .sampling import _draw_chunks, _sampler_config
from .surfaces import (
    DEFAULT_GRID,
    DE_SITTER_DOMAIN,
    FLAT_DOMAIN,
    HYPERBOLIC_DOMAIN,
    SPHERE_DOMAIN,
    BLOCKING,
    _blocking,
    _check_grid,
    _condition_rows,
    _draw_count,
    _reports,
    _single_curve_premises,
    _translation_premises,
    de_sitter_control,
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

@dataclass(frozen=True)
class SurfaceSpec:
    """Machine-readable description of one surface to verify."""

    family: str
    curves: tuple[dict, ...] = ()
    domain: tuple[tuple[float, float], tuple[float, float]] | None = None
    grid: tuple[int, int] = DEFAULT_GRID
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
            grid=data.get("grid", DEFAULT_GRID),
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
    """Deterministic JSON: sorted keys, floats at 18 significant digits in
    scientific notation (``FLOAT_FORMAT``; still plain JSON numbers)."""
    return _fmt_json(obj)


# ---------------------------------------------------------------------------
# curve resolution


def _resolve_curves(spec: SurfaceSpec):
    curves: list[Curve] = []
    validations: list[FamilyValidation] = []
    for desc in spec.curves:
        if "family_id" not in desc and "name" not in desc:
            raise InvalidInputError(f"curve descriptor needs 'family_id' or 'name': {desc}")
        extra = set(desc) - ({"family_id", "params", "alt_pairing"} if "family_id" in desc
                             else {"name"})
        if extra:
            raise InvalidInputError(f"unknown curve descriptor keys {sorted(extra)}")
        if "name" in desc:
            curves.append(builtin_curve(desc["name"]))
            continue
        fam = ParamFamily(desc["family_id"], desc.get("params", {}))
        alt_pairing = desc.get("alt_pairing", False)
        if not isinstance(alt_pairing, bool):
            raise InvalidInputError(f"alt_pairing must be true or false, got {alt_pairing!r}")
        validation, built = _family_curves(fam, alt_pairing)
        validations.append(validation)
        curves.extend(built)
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
    """How the harness builds one surface family; the model its checks
    compare with is the chart of the surface built (``SurfaceMap.chart``).

    ``premises(curves, spec, tols)`` returns the rows of the checks made
    before building, over a fold's draws or a spec's one (by default none:
    a pair's joint conditions are checks of the grid pass); ``BLOCKING``
    ones block a draw.  ``build(curves, domain, premise_tol, premises)``
    constructs the surface from one draw's curves and reports.  ``build``
    and ``premises`` call constructors and checkers by module-global name,
    so a wrapper installed there sees every call."""

    arity: int
    domain: tuple[tuple[float, float], tuple[float, float]]
    build: Callable
    premises: Callable = lambda curves, spec, tols: []


#: The surface families by spec name.  The de Sitter control takes no
#: curves from its spec (it builds its own); it exists so the standard
#: negative control is addressable from a spec file.
SURFACE_FAMILIES: dict[str, SurfaceFamily] = {
    "translation": SurfaceFamily(
        2, FLAT_DOMAIN,
        build=lambda curves, domain, tol, premises=None: translation_surface(
            *curves, domain, tol=tol, _premises=premises),
        premises=lambda curves, spec, tols: _translation_premises(
            *curves, spec.grid, spec.resolved_domain(), DEFAULT_SAMPLES, tols["premise"])),
    "sphere_b": SurfaceFamily(
        1, SPHERE_DOMAIN,
        build=lambda curves, domain, tol, premises=None: sphere_case_b(
            *curves, domain, tol=tol, _premises=premises),
        premises=lambda curves, spec, tols: _single_curve_premises(
            *curves, DEFAULT_SAMPLES, tols["premise"], spec.family)),
    "sphere_c": SurfaceFamily(
        2, SPHERE_DOMAIN,
        build=lambda curves, domain, tol, *_: sphere_case_c(*curves, domain)),
    "hyp_ii": SurfaceFamily(
        1, HYPERBOLIC_DOMAIN,
        build=lambda curves, domain, tol, premises=None: hyperbolic_case_ii(
            *curves, domain, tol=tol, _premises=premises),
        premises=lambda curves, spec, tols: _single_curve_premises(
            *curves, DEFAULT_SAMPLES, tols["premise"], spec.family)),
    "hyp_iii": SurfaceFamily(
        2, HYPERBOLIC_DOMAIN,
        build=lambda curves, domain, tol, *_: hyperbolic_case_iii(*curves, domain)),
    "de_sitter_control": SurfaceFamily(
        0, DE_SITTER_DOMAIN,
        build=lambda curves, domain, tol, *_: de_sitter_control(domain)),
}


def _premise_phases(spec, curves, tols):
    """A fold's premises (``curves._valid_rows``), or a spec's plain curves'
    as one draw, as (condition id, residuals, verdicts) over the draws, each
    row reduced once; the reports of the first draw that builds (or of the
    first), read from those reductions; the draws that build (``BLOCKING``);
    and the surface that the family's constructor builds on those draws of
    the curves and that first draw's reports (None if no draw builds)."""
    family = SURFACE_FAMILIES[spec.family]
    rows = family.premises(curves, spec, tols)
    reduced = [(verdict or _max_verdicts)(r, tol) for _, r, tol, *_, verdict in rows]
    ok = np.ones(_draw_count(curves), dtype=bool)
    for _, _, passed, *_ in reduced[:BLOCKING]:
        ok &= passed
    built = np.flatnonzero(ok)
    reports = _reports(rows, built[0] if built.size else 0, reduced)
    verdicts = [(row[0], values, passed) for row, (values, _, passed, *_) in zip(rows, reduced)]
    surface = family.build(curves if ok.all() else tuple(c[built] for c in curves),
                           spec.resolved_domain(), tols["premise"], reports) if built.size else None
    return verdicts, reports, built, surface


def _check_plan(surface) -> tuple[list[tuple], list[tuple]]:
    """The checks of a surface (or of a block's draws of a fold's) as
    (condition id, residual of (x, y, jet, forms) on a block, tol key,
    note): those of the grid pass and of the subgrid pass.  They follow
    from the surface's chart (``surfaces._Chart``): first a pair's joint
    conditions on a quadric ambient (tol key "condition"), then the quadric
    and K checks where it has k, metric-match where it has g_xy, tangency
    and its PDE system on a quadric ambient, and pde-yy and xi-recovery from
    one source curve."""
    chart, ambient, k = surface.chart, surface.ambient, surface.chart.k
    idx, quadric = ambient.embedding_signature.index, ambient.kind is not AmbientKind.FLAT
    one_curve = len(surface.sources) == 1

    def dot(a, b):
        return indefinite_dot(a, b, idx)

    planned: list[tuple] = [
        (cid, lambda x, y, jet, f, r=residual: r(x + y, jet, idx), "condition", note)
        for cid, residual, note in (chart.conditions if quadric and not one_curve else ())]
    # <L,L>, <L,L_x> and <L,L_y> are read from the Gram matrix of (L_x, L_y, L)
    if k is not None:
        planned.append(("quadric", lambda x, y, jet, f: np.abs(f.metric.gram[..., 2, 2] - k),
                        "quadric", f"<L,L> = {k:g}"))
    if quadric:
        planned.append((
            "tangency", lambda x, y, jet, f: np.max(np.abs(f.metric.gram[..., 2, :2]), axis=-1),
            "tangency", "<L,L_x> = <L,L_y> = 0"))
    if chart.g_xy is not None:
        planned.append(("metric-match",
                        lambda x, y, jet, f: np.abs(f.metric.g_xy - chart.g_xy(x + y)),
                        "metric", "g_xy matches the model conformal factor"))
    planned.append(("metric-null-form",
                    lambda x, y, jet, f: np.maximum(*f.metric.offdiag_residuals),
                    "metric-null", "|g_xx|, |g_yy|"))
    planned.append(("frame-normalization",
                    lambda x, y, jet, f: np.abs(dot(f.frame.e1, f.frame.e2) + 1.0),
                    "frame", "<e1,e2> = -1"))
    for cid, residual, note in chart.pde[:1 + one_curve] if quadric else ():
        planned.append((cid, lambda x, y, jet, f, r=residual: _vmax(r(x + y, jet)), "pde", note))
    planned.append(("minimality", lambda x, y, jet, f: _vmax(f.H), chart.minimality,
                    "max-norm of the mean curvature vector"))

    # K and the Gauss equation are checked twice with the same residuals:
    # on the whole grid with K exact from the third-order jet, and on the
    # FD subgrid with K from the E-field stencil (the cross-check), whose
    # analytic jet is compared with the FD jet about the jet's own L
    stencil = [("fd-partials", lambda x, y, jet, f: diffgeo._fd_gap(jet, f.fd),
                "fd", "analytic vs finite-difference jet (relative)")]
    if k is not None:
        def k_res(x, y, jet, f):
            return np.abs(f.K - k)
        planned.append(("curvature-analytic", k_res, "analytic-k",
                        f"K = {k:g} from the third-order jet"))
        stencil.append(("curvature", k_res, "curvature", f"K = {k:g}"))

    if chart.xi is not None and one_curve:
        def xi_res(x, y, jet, f):
            expected = chart.xi(x + y, jet.curves[0])
            return _vmax(f.h11 - expected) / np.maximum(1.0, _vmax(expected))
        planned.append(("xi-recovery", xi_res, "xi",
                        "h(e1,e1) matches the expected normal field (relative)"))

    c = ambient.curvature

    def gauss_res(x, y, jet, f):
        return np.abs(f.K - c + dot(f.h11, f.h22) - dot(f.h12, f.h12))
    gauss_note = "K - c + <h11,h22> - <h12,h12> = 0"
    planned.append(("gauss-analytic", gauss_res, "analytic-k",
                    gauss_note + ", K from the third-order jet"))
    stencil.append(("gauss-equation", gauss_res, "gauss", gauss_note))

    return planned, stencil


def _check_rows(spec, surface, tols) -> list[list[tuple]]:
    """The checks of a surface built for ``spec``, on plain curves or on a
    fold's, which ``grid_values`` cuts into blocks of whole draws, in runs
    of draws: per run, (condition id, residuals as (draws, nodes) rows, tol,
    grid description, grid points, note) per check.  A fold whose metric is
    degenerate is rerun on surfaces built on one-draw slices of its curves
    (``_premise_phases``), so each draw gets the outcome it would get alone;
    a degenerate one still reports its joint conditions (``_condition_rows``)."""
    checks, draws = [], _draw_count(surface.sources)
    try:
        for plan, (shape, curvature) in zip(_check_plan(surface), (
                (spec.grid, "jet"), (FD_SUBGRID, "stencil"))):
            columns = diffgeo.grid_values(surface, shape, [e[1] for e in plan],
                                          curvature=curvature)
            desc, pts = surface.grid_description(shape), surface.grid(shape)
            checks += [(cid, np.reshape(column, (draws, -1)), tols[tol_key], desc, pts, note)
                       for (cid, _, tol_key, note), column in zip(plan, columns)]
    except DegenerateMetricError as exc:
        if draws > 1:
            return [run for i in range(draws) for run in _check_rows(spec, _premise_phases(
                spec, tuple(c[i:i + 1] for c in surface.sources), tols)[3], tols)]
        s = surface
        pair = any(key == "condition" for _, _, key, _ in _check_plan(s)[0])
        # tol -1 keeps the pass == (residual <= tol) invariant honest
        return [(_condition_rows(s.chart, s.sources, s.domain, spec.grid, tols["condition"])
                 if pair else []) + [("metric-signature", np.zeros((1, 1)), -1.0,
                                      s.grid_description(spec.grid), None,
                                      f"induced metric left null form: {exc}")]]
    return [checks]


def verify(spec: SurfaceSpec | dict) -> VerificationReport:
    """Full pipeline: curves, premises, surface, geometry suite.

    Raises only on malformed input (unknown family, bad arity, violated
    factory constraints); failed checks are reported, not thrown.
    """
    if isinstance(spec, dict):
        spec = SurfaceSpec.from_dict(spec)
    tols = {**default_tolerances(), **spec.tolerances}
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    curves, validations = _resolve_curves(spec)
    _, reports, built, surface = _premise_phases(spec, curves, tols)
    timings["premises"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    if built.size:
        surface_info = {"constructed": True, "label": surface.label,
                        "ambient": surface.ambient.describe(), "flags": list(surface.flags)}
        reports = reports + _reports(_check_rows(spec, surface, tols)[0])
    else:
        surface_info = {"constructed": False, "reason": f"premises failed: {_blocking(reports)}"}
    timings["checks"] = time.perf_counter() - t1
    timings["total"] = time.perf_counter() - t0

    overall = bool(built.size and all(r.passed for r in reports))
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


def sweep(
    family: str,
    sampler_config: dict | None = None,
    n: int = 50,
    rng_seed: int = 0,
) -> dict:
    """Draw n parameter sets, filter by factory validation, verify the rest.

    Deterministic for a given seed.  An empty valid set is reported, not
    raised.  Returns counts plus the worst residual seen per check id.
    Each draw gets ``verify``'s outcome: the draws are drawn and validated
    in chunks (``_draw_chunks``, ``curves._valid_rows``, which builds the
    valid draws' curves once, from the term tables their validation built),
    and checked in folds of one FD subgrid block (40 draws), slices of those
    curves, whose (draws, nodes) residual rows are reduced once per check: the
    worst residual is a max over draws (NaN wins), and only a draw that
    fails gets an entry.
    """
    if not isinstance(family, str) or family not in FAMILIES:
        raise InvalidInputError(f"unknown curve family {family!r}")
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidInputError(f"n must be an integer >= 1, got {n!r}")
    n = int(n)
    cfg = _sampler_config(family, sampler_config)
    rng = np.random.default_rng(rng_seed)
    surface_family = FAMILIES[family]["surface"]
    spec = SurfaceSpec(family=surface_family, grid=tuple(cfg["grid"]))
    tols = default_tolerances()
    names = FAMILIES[family]["params"]
    valid = invalid = 0
    worst: dict[str, float] = {}
    failures: list[dict] = []
    per = diffgeo._draws_per_block(FD_SUBGRID)
    for chunk in _draw_chunks(family, cfg, rng, n):
        rows, curves = _valid_rows(family, chunk)
        valid, invalid = valid + len(rows), invalid + len(chunk) - len(rows)
        for i in range(0, len(rows), per):  # check a fold together
            draws = chunk[rows[i:i + per]]
            verdicts, _, built, surface = _premise_phases(
                spec, tuple(c[i:i + per] for c in curves), tols)
            verdicts = [v + (np.arange(len(draws)),) for v in verdicts]
            for run in _check_rows(spec, surface, tols) if built.size else ():
                took, built = np.split(built, [len(run[0][1])])
                verdicts += [(cid, *_max_verdicts(r, tol)[:3:2], took) for cid, r, tol, *_ in run]
            failed = {}  # by draw, its failed check ids in order
            for cid, values, ok, took in verdicts:
                worst[cid] = float(np.max(values, initial=worst.get(cid, -math.inf)))
                for d in took[~ok].tolist():
                    failed.setdefault(d, []).append(cid)
            failures += [{"params": dict(zip(names, draws[d].tolist())), "failed": ids}
                         for d, ids in sorted(failed.items())]
    return {
        "family": family,
        "surface_family": surface_family,
        "n": n,
        "seed": rng_seed,
        "sampler": {k: v for k, v in sorted(cfg.items())},
        "valid": valid,
        "invalid": invalid,
        "passed": valid - len(failures),
        "failed": len(failures),
        "worst_residuals": {k: json_residual(v) for k, v in sorted(worst.items())},
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# exports


#: Scientific notation with 18 significant digits (one before the point, 17
#: after), which round-trips doubles exactly.
FLOAT_FORMAT = "%.17e"


def format_float(v: float) -> str:
    return FLOAT_FORMAT % float(v)


#: Values formatted per write, which bounds the writer's temporaries.  Six csv
#: exports at 81x81 took 91, 82, 78 and 83 ms at 2048, 4096, 8192 and 16384
#: (CPU time, median of 40 interleaved rounds on a shared 2-vCPU VM).
EXPORT_VALUES = 8192

#: 10**p for p = 0..56 as rows hi + lo (lo rounds the rest, 0 up to p = 22),
#: and the words of a formatted value (``_format_rows``), four ASCII bytes each:
#: the digits of 0..9999; the sign (NUL for +), first digit, '.' and second
#: digit, at 100 * signbit + the first two digits; "e", the sign and two
#: digits of an exponent k in -99..99, at k + 99.
_P10 = np.array([[float(10**p), float(10**p - int(float(10**p)))] for p in range(57)]).T
_DIGITS4 = np.stack(np.meshgrid(*[np.frombuffer(b"0123456789", np.uint8)] * 4, indexing="ij"),
                    -1).view(np.uint32).ravel()
_LEAD = np.frombuffer("".join(f"{s}{t // 10}.{t % 10}" for s in "\0-" for t in range(100))
                      .encode(), np.uint32)
_EXP = np.frombuffer("".join(f"e{k:+03d}" for k in range(-99, 100)).encode(), np.uint32)


def _times_p10(a, p):
    """floor(X) and X - floor(X) for X = a * 10**p < 2**63, estimated as ph + pl:
    Dekker's TwoProduct a * hi = ph + pl (exact; in place, which halves the
    temporaries), then a * lo added to pl.  ph is an integer, so floor(X) =
    ph + floor(pl), and the fraction pl - floor(pl) is exact."""
    hi = _P10[0].take(p)
    ph, a1, h1 = a * hi, a * 134217729.0, hi * 134217729.0  # Dekker's split, 2**27 + 1
    a1 -= a1 - a  # the high 26 bits of a
    h1 -= h1 - hi
    hi -= h1  # the low half of hi
    pl = a1 * h1 - ph
    pl += a1 * hi
    a1 -= a  # minus the low half of a
    pl -= a1 * h1
    pl -= a1 * hi
    pl += a * _P10[1].take(p)
    whole = np.floor(pl)
    pl -= whole
    return ph.astype(np.int64) + whole.astype(np.int64), pl


def _decimal(a):
    """The 18 significant digits (an integer) and the decimal exponent k of each
    ``a`` in (1e-38, 1e17), rounded half to even as ``FLOAT_FORMAT`` is, from
    ``_times_p10``: exact while 10**(17 - k) is a double; above, within 4e-14
    (three roundings), so a fraction within 1e-9 of 0, 1/2 or 1 is too close to call."""
    k = np.floor(np.log10(a) + 1e-12).astype(np.int64)  # floor(log10 a) or one above it
    floor, frac = _times_p10(a, 17 - k)
    low = np.flatnonzero(floor < 10**17)
    if low.size:
        k[low] -= 1
        floor[low], frac[low] = _times_p10(a[low], 17 - k[low])
    tie = np.flatnonzero(frac == 0.5)
    floor[tie] += floor[tie] & 1
    close = (k < -5) & (np.abs(np.abs(frac - 0.5) - 0.25) > 0.25 - 1e-9)
    return floor + (frac > 0.5), k, close  # no double there rounds up to 10**18


def _format_rows(table: np.ndarray, sep: str, prefix: str = "") -> str:
    """``prefix + sep.join(FLOAT_FORMAT % v for v in row) + "\\n"`` for each
    row of ``table``, formatted as one block; ``sep`` is one character.  A
    value is seven words (``_LEAD``, four of ``_DIGITS4``, ``_EXP`` and the
    separator, after three NULs), and the NULs are dropped at the end."""
    rows, cols = table.shape
    a = np.abs(table).ravel()
    exact = (a > 1e-38) & (a < 1e17)
    digits, k, close = _decimal(np.where(exact, a, 1.0))
    digits[~exact], k[~exact] = 0, 0  # right for zeros; the others are replaced below
    digits, k = digits.reshape(rows, cols), k.reshape(rows, cols)
    lead = -(-len(prefix) // 4)  # the prefix's words, padded with NULs
    words = np.empty((rows, lead + 7 * cols), np.uint32)
    words[:, :lead] = np.frombuffer(prefix.encode().ljust(4 * lead, b"\0"), np.uint32)
    cell = words[:, lead:].reshape(rows, cols, 7)
    for j in (4, 3, 2, 1):  # x - (x // c) * c, as numpy's % costs about 4x more
        cell[..., j] = _DIGITS4.take(digits - (digits := digits // 10000) * 10000)
    cell[..., 0] = _LEAD.take(digits + 100 * np.signbit(table))
    cell[..., 5] = _EXP.take(k + 99)
    cell[..., 6] = np.frombuffer(f"\0\0\0{sep}".encode(), np.uint32)
    cell[:, -1, 6] = np.frombuffer(b"\0\0\0\n", np.uint32)
    text = cell.view(np.uint8)  # 28 bytes a value, the separator last
    for i, j in zip(*np.nonzero((~exact & (a != 0) | close).reshape(rows, cols))):
        text[i, j, :27] = list(format_float(table[i, j]).encode().ljust(27, b"\0"))
    return str(words.tobytes().translate(None, b"\0"), "ascii")


def export_samples(spec: SurfaceSpec | dict, path: str, format: str) -> None:
    """Write the grid of positions with per-vertex minimality residuals.

    csv: header "x,y,L_1,...,L_k,residual", one row per grid node.
    obj: quad mesh over the grid; vertices take the first three embedding
    coordinates (padded with zeros below dimension three).  A surface that
    ``verify`` would not build (a blocking premise fails under the spec's
    tolerances) raises ``PremiseError`` before the file is opened.
    """
    if format not in ("csv", "obj"):
        raise InvalidInputError(f"format must be 'csv' or 'obj', got {format!r}")
    if isinstance(spec, dict):
        spec = SurfaceSpec.from_dict(spec)
    curves, _ = _resolve_curves(spec)
    _, reports, built, surface = _premise_phases(spec, curves, {**default_tolerances(),
                                                                **spec.tolerances})
    if not built.size:
        raise PremiseError(_blocking(reports), reports)
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
        sep, prefix, faces = ",", "", np.empty((0, 4), dtype=int)
    else:
        header = f"# {surface.label or spec.family}: {nx}x{ny} grid"
        table = np.zeros((nx * ny, 3))
        table[:, : min(3, dim)] = positions[:, : min(3, dim)]
        sep, prefix = " ", "v "
        a = (np.arange(nx - 1)[:, None] * ny + np.arange(1, ny)).ravel()  # 1-based corners
        faces = np.column_stack([a, a + ny, a + ny + 1, a + 1])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        step = max(1, EXPORT_VALUES // table.shape[1])
        for i in range(0, len(table), step):
            fh.write(_format_rows(table[i:i + step], sep, prefix))
        for i in range(0, len(faces), EXPORT_VALUES // 4):
            quads = faces[i:i + EXPORT_VALUES // 4]
            fh.write("f %d %d %d %d\n" * len(quads) % tuple(quads.ravel().tolist()))


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
                "params": list(info["params"]),
                "signature": str(info["signature"]),
                "pair": info["pair"],
                "ambient": info["ambient"],
                "advisory_chain": info["chain"],
            }
            for fid, info in sorted(FAMILIES.items())
        },
        "builtin_curves": sorted(BUILTIN_CURVES),
    }
