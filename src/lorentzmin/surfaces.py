"""Constructors and premise checks for the five minimal-surface families.

One constructor per family:

* ``translation``: L(x,y) = z(x) + w(y) in flat E^m_s, z and w null
  curves with nowhere-vanishing <z'(x), w'(y)>.
* ``sphere_b``:  L = z(x)/(x+y) - z'(x)/2 in S^m_s(1), from a single
  constant-speed-2 spacelike light-cone curve with <z'',z''> = 0.
* ``sphere_c``:  L = (z+w)/(x+y) - (z'+w')/2 from a pair of curves
  subject to the joint conditions (c.1)-(c.3).
* ``hyp_ii``:    L = z(x) tanh((x+y)/sqrt2) - z'(x)/sqrt2 in H^m_s(-1),
  from a constant-speed-sqrt2 timelike light-cone curve with
  <z'',z''> = 4.
* ``hyp_iii``:   L = (z+w) tanh((x+y)/sqrt2) - (z'+w')/sqrt2 from a pair
  subject to (iii.1)-(iii.3).

Every constructor attaches an analytic jet assembled from the exact curve
derivatives: first and second partials plus the third-order L_xxy and
L_xyy, which make the Gaussian curvature and the connection exact.  The
finite-difference layer is then a cross-check rather than the only source
of derivatives.  ``position`` and ``jet`` broadcast over numpy arrays of x
and y; z is evaluated on the x values and w on the y values only, so
``jet(xs[:, None], ys[None, :])`` costs O(nx + ny) curve evaluations on an
nx x ny grid.  Premise checkers return per-condition reports with the
worst sample point; constructors raise on algebraic premise failures and
merely flag the non-degeneracy ones (a vanishing jerk term is the totally
geodesic boundary case, not an error).  The single-curve constructors run
their premise checks before anything else and keep the reports, on the
surface (``premises``) or on the ``PremiseError``, so a caller never needs
to run them twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curves import Curve, derivative_inner, null_check
from .errors import (
    DegenerateMetricError,
    DomainError,
    InvalidInputError,
    PremiseError,
    SignatureMismatchError,
)
from .indefinite import Ambient, Signature, indefinite_dot
from .report import ConditionReport

__all__ = [
    "Jet2",
    "SurfaceMap",
    "grid_axes",
    "grid_points",
    "translation_surface",
    "sphere_case_b",
    "check_case_b_premises",
    "sphere_case_c",
    "check_case_c_conditions",
    "hyperbolic_case_ii",
    "check_case_ii_premises",
    "hyperbolic_case_iii",
    "check_case_iii_conditions",
    "de_sitter_control",
    "SPHERE_DOMAIN",
    "HYPERBOLIC_DOMAIN",
    "FLAT_DOMAIN",
    "DE_SITTER_DOMAIN",
]

SQRT2 = math.sqrt(2.0)

#: Default (x, y) domains.  Sphere-family charts have a pole on x+y = 0,
#: so their default keeps x+y >= 0.2; the others are singularity-free.
SPHERE_DOMAIN = ((0.1, 1.1), (0.1, 1.1))
HYPERBOLIC_DOMAIN = ((-1.0, 1.0), (-1.0, 1.0))
FLAT_DOMAIN = ((-1.0, 1.0), (-1.0, 1.0))
DE_SITTER_DOMAIN = ((0.9, 1.1), (0.9, 1.1))

#: Minimum distance from a sphere-family domain to the x+y = 0 pole.
SINGULAR_MARGIN = 0.01

DEFAULT_SAMPLES = 41
DEFAULT_TOL = 1e-9
DEFAULT_GRID = (21, 21)


@dataclass(frozen=True)
class Jet2:
    """Position and partial derivatives of an immersion at one point, or
    at an array of points (each field then has shape nodes + (dim,)).

    The third-order ``Lxxy`` and ``Lxyy`` give K and the connection
    exactly; a jet without them (``fd_jet``) leaves both None."""

    L: np.ndarray
    Lx: np.ndarray
    Ly: np.ndarray
    Lxx: np.ndarray
    Lxy: np.ndarray
    Lyy: np.ndarray
    Lxxy: np.ndarray | None = None
    Lxyy: np.ndarray | None = None


@dataclass(frozen=True)
class SurfaceMap:
    """An immersion (x, y) -> embedding space, with its ambient.

    ``position`` and ``jet`` are stateless closures valid on a
    neighborhood of the declared ``domain`` rectangle (finite-difference
    stencils may poke slightly outside it); both take scalars or arrays of
    x and y that broadcast against each other.  ``singular_margin``, when
    present, gives the distance from a point to the nearest singular
    locus of the chart.  ``premises`` keeps the premise reports of a
    constructor that checks its curve (sphere_b and hyp_ii).
    """

    ambient: Ambient
    position: Callable[[float, float], np.ndarray]
    domain: tuple[tuple[float, float], tuple[float, float]]
    jet: Callable[[float, float], Jet2] | None = None
    singular_margin: Callable[[float, float], float] | None = None
    sources: tuple[Curve, ...] = ()
    flags: tuple[str, ...] = ()
    family: str = ""
    label: str = ""
    premises: tuple[ConditionReport, ...] = ()

    def grid(self, shape=DEFAULT_GRID):
        return grid_points(self.domain, shape)

    def grid_description(self, shape=DEFAULT_GRID) -> str:
        return grid_description(self.domain, shape)


def grid_axes(domain, shape):
    """(xs[:, None], ys[None, :]): the grid's axes, ready to broadcast."""
    (x0, x1), (y0, y1) = domain
    nx, ny = shape
    if nx < 2 or ny < 2:
        raise InvalidInputError(f"grid must be at least 2x2, got {shape}")
    return np.linspace(x0, x1, nx)[:, None], np.linspace(y0, y1, ny)[None, :]


def grid_points(domain, shape) -> np.ndarray:
    """(nx * ny, 2) array of the grid nodes in x-major order."""
    return np.stack(np.broadcast_arrays(*grid_axes(domain, shape)), axis=-1).reshape(-1, 2)


def grid_description(domain, shape) -> str:
    (x0, x1), (y0, y1) = domain
    return f"{shape[0]}x{shape[1]} on [{x0:g},{x1:g}]x[{y0:g},{y1:g}]"


def _col(a) -> np.ndarray:
    """Append an axis so that a per-node scalar scales per-node vectors."""
    return np.asarray(a, dtype=float)[..., None]


def _check_domain(domain):
    (x0, x1), (y0, y1) = domain
    if not (x0 < x1 and y0 < y1):
        raise InvalidInputError(f"empty surface domain {domain}")
    return (float(x0), float(x1)), (float(y0), float(y1))


def _require_coverage(curve: Curve, span, axis: str):
    lo, hi = curve.domain
    if span[0] < lo or span[1] > hi:
        raise InvalidInputError(
            f"surface {axis}-range {span} exceeds curve domain [{lo}, {hi}]"
            f" of {curve.label or 'curve'}"
        )


def _require_same_signature(z: Curve, w: Curve):
    if z.signature != w.signature:
        raise SignatureMismatchError(
            f"curve signatures differ: {z.signature} vs {w.signature}"
        )


def _sphere_domain_guard(domain):
    (x0, x1), (y0, y1) = domain
    lo, hi = x0 + y0, x1 + y1
    if lo <= SINGULAR_MARGIN and hi >= -SINGULAR_MARGIN:
        raise DomainError(
            f"domain touches the x+y=0 pole (x+y in [{lo:g}, {hi:g}])"
        )


def _single_curve_premises(z: Curve, samples, tol, speed, acc, nonzero):
    """<z,z> = 0, <z',z'> = speed, <z'',z''> = acc[1] (check id acc[0]) and
    a vector nonzero[1](t) that must not vanish (check id nonzero[0], note
    nonzero[2]), at samples points of z's domain."""
    ts = z.sample_grid(samples)
    pts = ts[:, None]
    grid = f"{samples} samples on [{z.domain[0]:g}, {z.domain[1]:g}]"

    def sq(k):
        return derivative_inner(z, k, z, k, ts, ts)

    return [
        ConditionReport.from_max("lightcone-z", np.abs(sq(0)), tol, grid, pts),
        ConditionReport.from_max(
            "speed-z", np.abs(sq(1) - speed), tol, grid, pts, note=f"<z',z'> = {speed:g}"),
        ConditionReport.from_max(
            acc[0], np.abs(sq(2) - acc[1]), tol, grid, pts, note=f"<z'',z''> = {acc[1]:g}"),
        ConditionReport.from_min(
            nonzero[0], np.max(np.abs(nonzero[1](ts)), axis=-1), tol, grid, pts,
            note=nonzero[2]),
    ]


def _premise_flags(reports: list[ConditionReport]) -> tuple[str, ...]:
    """Raise on failed algebraic premises (the first three reports), with
    all the reports on the error; a failed non-degeneracy one only flags
    the totally geodesic boundary."""
    hard_failures = [r.condition_id for r in reports[:3] if not r.passed]
    if hard_failures:
        raise PremiseError(hard_failures, reports)
    return () if reports[3].passed else ("totally-geodesic-boundary",)


# ---------------------------------------------------------------------------
# flat ambient: translation surfaces


def translation_surface(
    z: Curve,
    w: Curve,
    domain=FLAT_DOMAIN,
    *,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
) -> SurfaceMap:
    """L(x,y) = z(x) + w(y) for null curves with <z'(x), w'(y)> != 0.

    The pairing <z', w'> is sampled on a samples x samples grid; a value
    within tol of zero anywhere makes the induced metric degenerate and
    raises.  (A positive pairing is accepted here - the surface is still
    minimal - but the null-coordinate analysis downstream requires a
    negative one; reverse the parameter of one curve to flip the sign.)
    """
    _require_same_signature(z, w)
    domain = _check_domain(domain)
    _require_coverage(z, domain[0], "x")
    _require_coverage(w, domain[1], "y")
    failed = []
    for curve, name in ((z, "null-z"), (w, "null-w")):
        if not null_check(curve, samples, tol).passed:
            failed.append(name)
    if failed:
        raise PremiseError(failed)

    xs, ys = grid_axes(domain, (samples, samples))
    values = derivative_inner(z, 1, w, 1, xs, ys)
    near = np.abs(values) <= tol
    if near.any():
        i, j = np.unravel_index(np.argmax(near), near.shape)
        raise DegenerateMetricError(
            f"<z'(x), w'(y)> vanishes near (x, y) = ({xs[i, 0]:g}, {ys[0, j]:g})")
    lo, hi = values.min(), values.max()
    if lo < 0 < hi:  # continuous, so a sign change proves a zero
        raise DegenerateMetricError(
            f"<z'(x), w'(y)> changes sign on the domain ({lo:g} to {hi:g})")

    zero = np.zeros(z.signature.dim)

    def position(x, y):
        return z.at(x) + w.at(y)

    def jet(x, y):
        return Jet2(L=z.at(x) + w.at(y), Lx=z.at(x, 1), Ly=w.at(y, 1),
                    Lxx=z.at(x, 2), Lxy=zero, Lyy=w.at(y, 2), Lxxy=zero, Lxyy=zero)

    return SurfaceMap(
        ambient=Ambient.flat(z.signature),
        position=position, jet=jet, domain=domain,
        sources=(z, w),
        family="translation",
        label=f"translation[{z.label or 'z'}, {w.label or 'w'}]",
    )


# ---------------------------------------------------------------------------
# pseudo-sphere ambient


def check_case_b_premises(
    z: Curve, samples: int = DEFAULT_SAMPLES, tol: float = DEFAULT_TOL
) -> list[ConditionReport]:
    """Premises of the single-curve sphere construction.

    The curve must lie on the light cone with constant speed 2 and null
    acceleration; the jerk must not vanish (its vanishing is the totally
    geodesic boundary case).
    """
    return _single_curve_premises(
        z, samples, tol, 4.0, ("acc-null-z", 0.0),
        ("jerk-nonzero-z", lambda t: z.at(t, 3), "max-norm of z''' must stay positive"))


def _sphere_ambient(signature: Signature) -> Ambient:
    return Ambient.sphere(Signature(signature.dim - 1, signature.index))


def _derivatives(w: Curve | None, t, orders=4):
    """w and its derivatives below the given order at t; a missing curve is zero."""
    return tuple(w.at(t, k) for k in range(orders)) if w is not None else (0.0,) * orders


def _sphere_immersion(zw, zw1, s):  # L from z+w, z'+w' and s = _col(x+y)
    return zw / s - zw1 / 2


def _sphere_maps(z: Curve, w: Curve | None):
    """position and jet of L = (z(x)+w(y))/(x+y) - (z'(x)+w'(y))/2; the
    single-curve construction is the case w = 0."""

    def position(x, y):
        w0, w1 = _derivatives(w, y, 2)
        return _sphere_immersion(z.at(x) + w0, z.at(x, 1) + w1, _col(x + y))

    def jet(x, y):
        s = _col(x + y)
        z0, z1, z2, z3 = _derivatives(z, x)
        w0, w1, w2, w3 = _derivatives(w, y)
        zw, zw1 = z0 + w0, z1 + w1
        return Jet2(
            L=_sphere_immersion(zw, zw1, s),
            Lx=z1 / s - zw / s**2 - z2 / 2,
            Ly=w1 / s - zw / s**2 - w2 / 2,
            Lxx=z2 / s - 2 * z1 / s**2 + 2 * zw / s**3 - z3 / 2,
            Lxy=2 * zw / s**3 - zw1 / s**2,
            Lyy=w2 / s - 2 * w1 / s**2 + 2 * zw / s**3 - w3 / 2,
            Lxxy=2 * z1 / s**3 - 6 * zw / s**4 - z2 / s**2 + 2 * zw1 / s**3,
            Lxyy=2 * w1 / s**3 - 6 * zw / s**4 - w2 / s**2 + 2 * zw1 / s**3,
        )

    return position, jet


def sphere_case_b(
    z: Curve,
    domain=SPHERE_DOMAIN,
    *,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
) -> SurfaceMap:
    """L(x,y) = z(x)/(x+y) - z'(x)/2 on the pseudo-sphere quadric.

    The premises (``check_case_b_premises``) run first, before the domain
    and coverage checks, so a failed premise raises ``PremiseError`` even
    on a bad domain.  Their four reports are kept on the error
    (``reports``) or on the returned surface (``premises``).
    """
    premises = check_case_b_premises(z, samples, tol)
    flags = _premise_flags(premises)
    domain = _check_domain(domain)
    _sphere_domain_guard(domain)
    _require_coverage(z, domain[0], "x")
    position, jet = _sphere_maps(z, None)
    return SurfaceMap(
        ambient=_sphere_ambient(z.signature),
        position=position, jet=jet, domain=domain,
        singular_margin=lambda x, y: abs(x + y),
        sources=(z,),
        flags=flags,
        family="sphere_b",
        label=f"sphere_b[{z.label or 'z'}]",
        premises=tuple(premises),
    )


def check_case_c_conditions(
    z: Curve,
    w: Curve,
    grid=DEFAULT_GRID,
    domain=SPHERE_DOMAIN,
    tol: float = 1e-7,
) -> list[ConditionReport]:
    """The three joint conditions of the sphere pair construction:
    (c.1) <L,L> = 1, (c.2) 2<z+w, z'''> = (x+y)<z'+w', z'''> and (c.3)
    the same with w'''.  No premises on z and w individually are checked;
    the printed conditions are exactly what is verified.
    """
    _require_same_signature(z, w)
    domain = _check_domain(domain)
    _sphere_domain_guard(domain)
    x, y = grid_axes(domain, grid)
    idx = z.signature.index
    s = x + y
    z0, z1, z3 = z.at(x), z.at(x, 1), z.at(x, 3)
    w0, w1, w3 = w.at(y), w.at(y, 1), w.at(y, 3)
    zw, zw1 = z0 + w0, z1 + w1
    L = _sphere_immersion(zw, zw1, _col(s))
    r1 = np.abs(indefinite_dot(L, L, idx) - 1.0)
    r2 = np.abs(2 * indefinite_dot(zw, z3, idx) - s * indefinite_dot(zw1, z3, idx))
    r3 = np.abs(2 * indefinite_dot(zw, w3, idx) - s * indefinite_dot(zw1, w3, idx))
    pts = grid_points(domain, grid)
    desc = grid_description(domain, grid)
    return [
        ConditionReport.from_max("c.1", r1, tol, desc, pts, note="<L,L> = 1"),
        ConditionReport.from_max("c.2", r2, tol, desc, pts),
        ConditionReport.from_max("c.3", r3, tol, desc, pts),
    ]


def sphere_case_c(z: Curve, w: Curve, domain=SPHERE_DOMAIN) -> SurfaceMap:
    """L(x,y) = (z(x)+w(y))/(x+y) - (z'(x)+w'(y))/2 on the pseudo-sphere."""
    _require_same_signature(z, w)
    domain = _check_domain(domain)
    _sphere_domain_guard(domain)
    _require_coverage(z, domain[0], "x")
    _require_coverage(w, domain[1], "y")
    position, jet = _sphere_maps(z, w)
    return SurfaceMap(
        ambient=_sphere_ambient(z.signature),
        position=position, jet=jet, domain=domain,
        singular_margin=lambda x, y: abs(x + y),
        sources=(z, w),
        family="sphere_c",
        label=f"sphere_c[{z.label or 'z'}, {w.label or 'w'}]",
    )


# ---------------------------------------------------------------------------
# pseudo-hyperbolic ambient


def check_case_ii_premises(
    z: Curve, samples: int = DEFAULT_SAMPLES, tol: float = DEFAULT_TOL
) -> list[ConditionReport]:
    """Premises of the single-curve hyperbolic construction: light-cone
    position, <z',z'> = -2, <z'',z''> = 4, and z''' != 2 z' (whose failure
    is the totally geodesic boundary case)."""
    return _single_curve_premises(
        z, samples, tol, -2.0, ("acc-norm-z", 4.0),
        ("nondegenerate-z", lambda t: z.at(t, 3) - 2 * z.at(t, 1),
         "max-norm of z''' - 2z' must stay positive"))


def _hyperbolic_ambient(signature: Signature) -> Ambient:
    if signature.index < 1:
        raise InvalidInputError(
            f"hyperbolic ambient needs embedding index >= 1, got {signature}"
        )
    return Ambient.hyperbolic(Signature(signature.dim - 1, signature.index - 1))


def _hyperbolic_immersion(zw, zw1, T):  # L from z+w, z'+w' and T = _col(tanh(u))
    return zw * T - zw1 / SQRT2


def _hyperbolic_maps(z: Curve, w: Curve | None):
    """position and jet of L = (z(x)+w(y)) tanh((x+y)/sqrt2) -
    (z'(x)+w'(y))/sqrt2; the single-curve construction is the case w = 0."""

    def position(x, y):
        w0, w1 = _derivatives(w, y, 2)
        return _hyperbolic_immersion(
            z.at(x) + w0, z.at(x, 1) + w1, _col(np.tanh((x + y) / SQRT2)))

    def jet(x, y):
        u = (x + y) / SQRT2
        T, S2 = _col(np.tanh(u)), _col(1.0 / np.cosh(u) ** 2)
        z0, z1, z2, z3 = _derivatives(z, x)
        w0, w1, w2, w3 = _derivatives(w, y)
        zw = z0 + w0
        L = _hyperbolic_immersion(zw, z1 + w1, T)
        Lx = z1 * T + zw * S2 / SQRT2 - z2 / SQRT2
        Ly = w1 * T + zw * S2 / SQRT2 - w2 / SQRT2
        return Jet2(
            L=L, Lx=Lx, Ly=Ly,
            Lxx=z2 * T + SQRT2 * z1 * S2 - zw * S2 * T - z3 / SQRT2,
            Lxy=-S2 * L,
            Lyy=w2 * T + SQRT2 * w1 * S2 - zw * S2 * T - w3 / SQRT2,
            # (sech^2 u)_x = -sqrt2 sech^2 u tanh u
            Lxxy=SQRT2 * S2 * T * L - S2 * Lx,
            Lxyy=SQRT2 * S2 * T * L - S2 * Ly,
        )

    return position, jet


def hyperbolic_case_ii(
    z: Curve,
    domain=HYPERBOLIC_DOMAIN,
    *,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
) -> SurfaceMap:
    """L(x,y) = z(x) tanh((x+y)/sqrt2) - z'(x)/sqrt2 on the hyperbolic quadric.

    As in ``sphere_case_b``, the premises (``check_case_ii_premises``) run
    before the domain and coverage checks, and their four reports are kept
    on the ``PremiseError`` (``reports``) or on the surface (``premises``).
    """
    premises = check_case_ii_premises(z, samples, tol)
    flags = _premise_flags(premises)
    domain = _check_domain(domain)
    _require_coverage(z, domain[0], "x")
    position, jet = _hyperbolic_maps(z, None)
    return SurfaceMap(
        ambient=_hyperbolic_ambient(z.signature),
        position=position, jet=jet, domain=domain,
        sources=(z,),
        flags=flags,
        family="hyp_ii",
        label=f"hyp_ii[{z.label or 'z'}]",
        premises=tuple(premises),
    )


def check_case_iii_conditions(
    z: Curve,
    w: Curve,
    grid=DEFAULT_GRID,
    domain=HYPERBOLIC_DOMAIN,
    tol: float = 1e-7,
) -> list[ConditionReport]:
    """The three joint conditions of the hyperbolic pair construction:
    (iii.1) <L,L> = -1 and (iii.2)/(iii.3)
    sqrt2 <z+w, 2c'-c'''> tanh((x+y)/sqrt2) = <z'+w', 2c'-c'''> for
    c = z and c = w respectively."""
    _require_same_signature(z, w)
    domain = _check_domain(domain)
    x, y = grid_axes(domain, grid)
    idx = z.signature.index
    T = np.tanh((x + y) / SQRT2)
    z0, z1 = z.at(x), z.at(x, 1)
    w0, w1 = w.at(y), w.at(y, 1)
    az = 2 * z1 - z.at(x, 3)
    aw = 2 * w1 - w.at(y, 3)
    zw, zw1 = z0 + w0, z1 + w1
    L = _hyperbolic_immersion(zw, zw1, _col(T))
    r1 = np.abs(indefinite_dot(L, L, idx) + 1.0)
    r2 = np.abs(SQRT2 * indefinite_dot(zw, az, idx) * T - indefinite_dot(zw1, az, idx))
    r3 = np.abs(SQRT2 * indefinite_dot(zw, aw, idx) * T - indefinite_dot(zw1, aw, idx))
    pts = grid_points(domain, grid)
    desc = grid_description(domain, grid)
    return [
        ConditionReport.from_max("iii.1", r1, tol, desc, pts, note="<L,L> = -1"),
        ConditionReport.from_max("iii.2", r2, tol, desc, pts),
        ConditionReport.from_max("iii.3", r3, tol, desc, pts),
    ]


def hyperbolic_case_iii(z: Curve, w: Curve, domain=HYPERBOLIC_DOMAIN) -> SurfaceMap:
    """L = (z(x)+w(y)) tanh((x+y)/sqrt2) - (z'(x)+w'(y))/sqrt2."""
    _require_same_signature(z, w)
    domain = _check_domain(domain)
    _require_coverage(z, domain[0], "x")
    _require_coverage(w, domain[1], "y")
    position, jet = _hyperbolic_maps(z, w)
    return SurfaceMap(
        ambient=_hyperbolic_ambient(z.signature),
        position=position, jet=jet, domain=domain,
        sources=(z, w),
        family="hyp_iii",
        label=f"hyp_iii[{z.label or 'z'}, {w.label or 'w'}]",
    )


# ---------------------------------------------------------------------------
# negative control


def de_sitter_control(domain=DE_SITTER_DOMAIN) -> SurfaceMap:
    """The unit de Sitter surface S^2_1(1) in E^3_1, treated with a flat
    ambient, in null coordinates: L = ((1-xy)/(x+y), (x-y)/(x+y), (1+xy)/(x+y)).

    Totally umbilical with mean curvature vector H = -L, hence a clean
    non-minimal control: the minimality residual is ~1 while everything
    intrinsic (null metric form, K = 1) still passes.
    """
    domain = _check_domain(domain)
    _sphere_domain_guard(domain)

    def vec(*parts):
        return np.stack(np.broadcast_arrays(*parts), axis=-1)

    def position(x, y):
        return vec(1 - x * y, x - y, 1 + x * y) / _col(x + y)

    def jet(x, y):
        s = _col(x + y)
        v = vec(1 - x * y, x - y, 1 + x * y)
        vx = vec(-y, 1.0, y)
        vy = vec(-x, -1.0, x)
        vxy = np.array([-1.0, 0.0, 1.0])
        return Jet2(
            L=v / s,
            Lx=vx / s - v / s**2,
            Ly=vy / s - v / s**2,
            Lxx=-2 * vx / s**2 + 2 * v / s**3,
            Lxy=vxy / s - (vx + vy) / s**2 + 2 * v / s**3,
            Lyy=-2 * vy / s**2 + 2 * v / s**3,
            Lxxy=-2 * vxy / s**2 + 2 * (2 * vx + vy) / s**3 - 6 * v / s**4,
            Lxyy=-2 * vxy / s**2 + 2 * (vx + 2 * vy) / s**3 - 6 * v / s**4,
        )

    return SurfaceMap(
        ambient=Ambient.flat(Signature(3, 1)),
        position=position, jet=jet, domain=domain,
        singular_margin=lambda x, y: abs(x + y),
        flags=("negative-control",),
        family="de_sitter_control",
        label="de_sitter_control",
    )
