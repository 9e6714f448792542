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
of derivatives.  Every constructor builds one chart formula,
L = a(x+y) Z + b Z' with Z = z(x)+w(y) and Z' = z'(x)+w'(y): ``_chart_maps``
takes L from the family's own expression and its partials from a's
derivatives by the product rule, so a PDE check compares two independent
computations.  Translation is the chart with a = 1 and b = 0, and the de
Sitter control the sphere pair chart on two built-in curves.  The chart
(``_Chart``) also holds the model that the harness checks the surface
against, the pair conditions (c.1)-(c.3) and (iii.1)-(iii.3) included, and
every surface carries its chart (``SurfaceMap.chart``).
``position`` and ``jet`` broadcast over numpy arrays of x and y, z
evaluated on the x values and w on the y values only; a grid pass
evaluates each curve once per axis chunk of BLOCK_NODES coordinates, for
all of a fold's draws (``_grid_blocks``), and hands ``jet`` each block's
slice.  They compute component-major (embedding axis first) and return
dim-last views.  ``tangent`` gives L_x and L_y alone (curve orders 0-2) for
the E-field stencil; it and ``position`` take the stencils' tables too.
Premise checkers return per-condition reports with the worst sample point
(a pair checker's from its chart's jet: ``_condition_rows``); constructors
raise on algebraic premise failures and merely flag the non-degeneracy
ones (a vanishing jerk term is the totally geodesic boundary case, not an
error).  The single-curve constructors run their premise checks before
anything else and keep the reports, on the surface (``premises``) or on
the ``PremiseError``; they and ``translation_surface`` (whose checker is
``_translation_premises``) also take reports made already (``_premises``)
and judge those, so a caller never needs to run them twice.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .curves import BUILTIN_CURVES, DEFAULT_SAMPLES, Curve, derivative_inner, null_check
from .errors import (
    DegenerateMetricError,
    DomainError,
    InvalidInputError,
    PremiseError,
    SignatureMismatchError,
)
from .indefinite import Ambient, Signature, indefinite_dot
from .report import DEFAULT_TOLS, ConditionReport, _min_verdicts

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

DEFAULT_GRID = (21, 21)

#: Most nodes in one block of a grid evaluation (``_grid_blocks``); a grid
#: pass holds about 19 arrays of BLOCK_NODES x dim floats (hyp_iii, tracemalloc).
BLOCK_NODES = 1024


@dataclass(frozen=True)
class Jet2:
    """Position and partial derivatives of an immersion at one point, or
    at an array of points (each field then has shape nodes + (dim,)).

    The third-order ``Lxxy`` and ``Lxyy`` give K and the connection
    exactly; a jet without them (``fd_jet``) leaves both None.  ``curves``
    keeps the source curves' ``derivatives`` (orders 0-3, z's at x, w's at
    y) that a chart's jet was built from."""

    L: np.ndarray
    Lx: np.ndarray
    Ly: np.ndarray
    Lxx: np.ndarray
    Lxy: np.ndarray
    Lyy: np.ndarray
    Lxxy: np.ndarray | None = None
    Lxyy: np.ndarray | None = None
    curves: tuple[np.ndarray, ...] = ()
    #: the fields as rows (``_FIELDS``) of one (8, dim) + nodes array, when a chart's jet
    #: computed them there; not an init field, so ``dataclasses.replace`` drops it
    table: np.ndarray | None = field(default=None, init=False, repr=False)


#: The jet's fields in the row order of ``Jet2.table`` and ``diffgeo._table``'s W
_FIELDS = ("Lx", "Ly", "L", "Lxx", "Lxy", "Lyy", "Lxxy", "Lxyy")


@dataclass(frozen=True)
class SurfaceMap:
    """An immersion (x, y) -> embedding space, with its ambient.

    ``position``, ``jet`` and ``tangent`` (the jet's L_x and L_y alone, so
    replace it with ``jet``) are stateless closures valid on a
    neighborhood of the declared ``domain`` rectangle (finite-difference
    stencils may poke slightly outside it); all take scalars or arrays of
    x and y that broadcast against each other, and also the sources'
    ``derivatives`` there (``_tables``; ``Jet2.curves``).  ``singular_margin``, when
    present, gives the distance from a point to the nearest singular
    locus of the chart.  ``premises`` keeps the premise reports of a
    constructor that checks its curve (sphere_b and hyp_ii).  ``chart``
    (``_Chart``, set by every constructor) holds the family's model, and
    with ``sources`` made ``position``, ``jet`` and ``tangent``
    (``_chart_maps``, which ``_stacked`` runs on a fold's sources).
    """

    ambient: Ambient
    position: Callable[[float, float], np.ndarray]
    domain: tuple[tuple[float, float], tuple[float, float]]
    jet: Callable[[float, float], Jet2]
    tangent: Callable[[float, float], tuple[np.ndarray, np.ndarray]]
    singular_margin: Callable[[float, float], float] | None = None
    sources: tuple[Curve, ...] = ()
    flags: tuple[str, ...] = ()
    family: str = ""
    label: str = ""
    premises: tuple[ConditionReport, ...] = ()
    chart: _Chart | None = None

    def grid(self, shape=DEFAULT_GRID):
        return grid_points(self.domain, shape)

    def grid_description(self, shape=DEFAULT_GRID) -> str:
        return grid_description(self.domain, shape)


@dataclass(frozen=True)
class _Chart:
    """A family's L = a(s) Z + b Z' (s = x+y; w = 0 for one curve) and the
    model its checks compare with.

    ``immersion(Z, Z', s)`` is its own expression for L, ``coefficients(s)``
    gives a, a', a'' and a''' at s.  The model, None or empty where a check
    does not apply: ``k`` is both <L,L> and K, ``g_xy(s)`` the conformal
    factor, ``pde`` the (check id, residual vector of (s, jet), note) of
    pde-xy and pde-yy (pde-yy holds for one curve), ``conditions`` the
    (check id, residual of (s, jet, embedding index), note) of a pair's joint
    conditions, from ``jet.L`` and ``jet.curves``, ``xi(s, dz)`` the
    expected h(e1,e1) of one curve from z's derivatives dz (orders 0-3) at
    x; ``pole`` a pole on x+y = 0, which sets the surface's singular margin;
    ``minimality`` a tolerance key."""

    immersion: Callable
    coefficients: Callable
    b: float
    k: float | None = None
    g_xy: Callable | None = None
    pde: tuple[tuple[str, Callable, str], ...] = ()
    conditions: tuple[tuple[str, Callable, str], ...] = ()
    xi: Callable | None = None
    pole: bool = False
    minimality: str = "minimality"


def _chart_maps(chart: _Chart, *sources):
    """position, jet and tangent of ``chart`` on its sources (z, or z and w):
    L is the chart's immersion, and its partials the product rule on
    a(x+y) Z + b Z' (L_xy = a''Z + a'Z', L_xxy = a'''Z + a''(z' + Z') + a'z'').
    ``jet`` writes each field into a row of one table (``Jet2.table``).  One source
    skips w = 0's terms but keeps Z = z + 0.0 and Z' = z' + 0.0, so L's zeros keep their signs."""
    b, pair = chart.b, len(sources) > 1

    def parts(x, y, d, rows):  # s, a to a''', Z, z's and w's derivatives (component-major),
        # and a table of ``rows`` fields whose first two rows hold L_x and L_y
        s = x + y
        a = chart.coefficients(s)
        dz, dw = _component_major(d, x, y)
        Z = dz[0] + dw[0]
        W = np.empty((rows,) + np.broadcast_shapes(Z.shape, np.shape(s)), Z.dtype)
        a1Z = np.multiply(a[1], Z, out=None if pair else W[1])  # in L_x and L_y, or L_y alone
        for c, row in zip((dz, dw)[:1 + pair], W):
            np.add(a1Z + a[0] * c[1], b * c[2], out=row)
        return s, a, Z, dz, dw, W

    def position(x, y, *d):
        (z0, z1, *_), (w0, w1, *_) = _component_major(d or _derivatives(sources, x, y, 2), x, y)
        return _dim_last(chart.immersion(z0 + w0, z1 + w1, x + y))

    def jet(x, y, *d):
        d = d or _derivatives(sources, x, y, 4)
        s, (a0, a1, a2, a3), Z, (_, z1, z2, z3), (_, w1, w2, w3), W = parts(x, y, d, 8)
        _, _, L, Lxx, Lxy, Lyy, Lxxy, Lxyy = W
        Z1 = z1 + w1
        L[...] = chart.immersion(Z, Z1, s)
        a2Z = np.multiply(a2, Z, out=None if pair else Lyy)  # shared by fields, or L_yy alone
        a3Z = a3 * Z
        np.add(a2Z + 2 * a1 * z1 + a0 * z2, b * z3, out=Lxx)
        np.add(a2Z, a1 * Z1, out=Lxy)
        np.add(a3Z + a2 * (z1 + Z1), a1 * z2, out=Lxxy)
        if pair:
            np.add(a2Z + 2 * a1 * w1 + a0 * w2, b * w3, out=Lyy)
            np.add(a3Z + a2 * (w1 + Z1), a1 * w2, out=Lxyy)
        else:
            np.add(a3Z, a2 * Z1, out=Lxyy)
        jet = Jet2(**{k: _dim_last(v) for k, v in zip(_FIELDS, W)}, curves=tuple(d))
        object.__setattr__(jet, "table", W)  # frozen, and not an init field
        return jet

    return position, jet, lambda x, y, *d: [*map(_dim_last, parts(
        x, y, d or _derivatives(sources, x, y, 3), 2)[-1])]


def _mapped(family, chart, ambient, domain, sources, label=None, **fields) -> SurfaceMap:
    """The surface of ``chart`` on its source curves, labelled family[z, w] (or
    ``label``), with the singular margin |x+y| if the chart has a pole."""
    position, jet, tangent = _chart_maps(chart, *sources)
    names = ", ".join(c.label or name for c, name in zip(sources, "zw"))
    margin = (lambda x, y: abs(x + y)) if chart.pole else None
    return SurfaceMap(ambient, position, domain, jet, tangent, margin, sources, family=family,
                      label=label or f"{family}[{names}]", chart=chart, **fields)


def _stacked(surface, sources) -> SurfaceMap:
    """``surface`` on ``sources``, a fold's curves (``curves._fold_curves``)
    or some of its draws: its maps put the draw axis before the two node
    axes of x and y, and it keeps the surface's other fields."""
    position, jet, tangent = (
        lambda x, y, *d, f=f: f(np.expand_dims(x, -3), np.expand_dims(y, -3), *d)
        for f in _chart_maps(surface.chart, *sources))
    return replace(surface, sources=sources, position=position, jet=jet, tangent=tangent)


def _draw_count(surface) -> int:
    """The draws of a surface on a fold's curves (``_stacked``); 1 for any other."""
    return surface.sources[0]._lead[0] if surface.sources and surface.sources[0]._lead else 1


def _draws_per_block(shape) -> int:
    """Whole draws of a grid in one block (``diffgeo.grid_values``): BLOCK_NODES
    counts draws x nodes, so 12 draws at 9x9, and 40 on the 5x5 FD subgrid
    (a sweep's fold; 3.9 MiB at most)."""
    return max(1, BLOCK_NODES // (shape[0] * shape[1]))


#: Largest grid, in nodes, that a spec may ask for.  A verify holds about
#: 0.1 kB per node at its peak and takes 2-3 us per node (sphere_c, hyp_iii
#: at 300x300 on a 2-vCPU VM), so the cap is about 0.1 GB and 3 s; a larger
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


def _tables(curves, t, parts=((4, ...),)) -> list:
    """Each curve's ``derivatives`` (orders 0-3) at t, component-major and
    viewed dim-last, or its ``parts`` (orders, index of t's first axis) each,
    curve by curve; a fold's (``_stacked``) with the draw axis third from last."""
    if curves and curves[0]._lead:
        t = np.expand_dims(t, -3)
    cm = (np.moveaxis(c.derivatives(t, range(4)), -1, 1) for c in curves)  # one at a time
    return [_dim_last(table[:n, :, at].copy(), 1) for table in cm for n, at in parts]


def _grid_blocks(shape, xs, ys, sources=(), tables=_tables):
    """(at, x, y, d) of a grid's blocks of at most BLOCK_NODES draws x nodes:
    the block's index (after a fold's draw axis), axes, and the sources'
    ``tables`` there, z's at x, then w's at y.  A block holds
    ``_draws_per_block`` whole draws when a draw's grid fits, else whole rows
    of one draw when a row fits, and part of one row otherwise.  Each curve
    is evaluated once per axis chunk of at most BLOCK_NODES coordinates (w
    once per chunk of x too when both axes exceed it), all draws at once."""
    fold, per = bool(sources and sources[0]._lead), _draws_per_block(shape)
    draws = sources[0]._lead[0] if fold else 1
    group = draws if per > 1 else 1  # the draws evaluated together
    cols = min(shape[1], BLOCK_NODES)
    rows = BLOCK_NODES // cols
    span = BLOCK_NODES // rows * rows
    for g in range(0, draws, group):
        part = tuple(s[g:g + 1] for s in sources) if group < draws else sources
        dw = None
        for i in range(0, shape[0], span):
            dz = tables(part[:1], xs[i:i + span])
            for j in range(0, shape[1], cols):
                c = slice(j, j + cols)
                if dw is None or cols < shape[1]:
                    dw = tables(part[1:], ys[:, c])
                for k in range(0, min(span, shape[0] - i), rows):
                    r, d = slice(i + k, i + k + rows), [t[..., k:k + rows, :, :] for t in dz] + dw
                    for b in range(g, g + group, per):  # whole draws of a fold, a slice each
                        yield ((slice(b, b + per),) * fold + (r, c), xs[r], ys[:, c],
                               [t[..., b - g:b - g + per, :, :, :] for t in d] if fold else d)


def grid_description(domain, shape) -> str:
    (x0, x1), (y0, y1) = domain
    return f"{shape[0]}x{shape[1]} on [{x0:g},{x1:g}]x[{y0:g},{y1:g}]"


def _col(a) -> np.ndarray:
    """Append an axis so that a per-node scalar scales per-node vectors."""
    return np.asarray(a, dtype=float)[..., None]


def _dim_last(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """The dim-last view of ``a``, whose embedding axis is ``axis``."""
    return a.transpose(*range(axis), *range(axis + 1, a.ndim), axis)


def _derivatives(sources, x, y, orders):  # of orders below ``orders``, z's at x, w's at y
    return [c.derivatives(t, range(orders)) for c, t in zip(sources, (x, y))]


def _component_major(d, x, y):
    """``_derivatives`` tables at x and y as views of shape (orders, dim) +
    node axes (padded on the left to the nodes'), component-major where
    ``_grid_blocks`` laid them out so; a missing w is zero."""
    ndim = max(np.ndim(x), np.ndim(y), *(t.ndim - 2 for t in d))
    cm = [t.transpose(0, t.ndim - 1, *range(1, t.ndim - 1)) for t in d]
    return ([c.reshape(c.shape[:2] + (1,) * (ndim + 2 - c.ndim) + c.shape[2:]) for c in cm]
            + [(0.0,) * len(d[0])] * (2 - len(d)))


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


def _condition_rows(chart, sources, domain, grid, tol) -> list[tuple]:
    """(id, (1, nodes) residuals, tol, grid description, grid points, note)
    of ``chart``'s joint conditions on a pair over a grid, from one jet call
    per block (``_grid_blocks``) and no metric: for the pair checkers, and
    for the grid pass's checks when a degenerate metric stops it."""
    jet, idx = _chart_maps(chart, *sources)[1], sources[0].signature.index
    rows = [np.empty(tuple(grid)) for _ in chart.conditions]
    for at, x, y, d in _grid_blocks(grid, *grid_axes(domain, grid), sources):
        block = jet(x, y, *d)
        for row, (_, residual, _) in zip(rows, chart.conditions):
            row[at[-2:]] = residual(x + y, block, idx)  # a one-draw fold's too
    desc, pts = grid_description(domain, grid), grid_points(domain, grid)
    return [(cid, row.reshape(1, -1), tol, desc, pts, note)
            for (cid, _, note), row in zip(chart.conditions, rows)]


def _curve_conditions(ids, residual) -> tuple[tuple[str, Callable, str], ...]:
    """Conditions ``ids`` on z and on w, each residual(s, c, dot) of that
    curve's derivatives c (``Jet2.curves``) and dot(k, v) = <z^(k) + w^(k), v>,
    whose sum dies with the product that reads it."""
    def on(i):
        def condition(s, jet, idx):
            dz, dw = jet.curves
            return residual(s, jet.curves[i], lambda k, v: indefinite_dot(dz[k] + dw[k], v, idx))
        return condition
    return tuple((cid, on(i), "") for i, cid in enumerate(ids))


def _single_curve_premises(z, samples, tol, speed, acc, nonzero):
    """<z,z> = 0, <z',z'> = speed, <z'',z''> = acc[1] (check id acc[0]) and a
    vector nonzero[1](d) of d = (z, z', z'', z''') that must not vanish (check
    id nonzero[0], note nonzero[2]), at samples points of z's domain: their
    reports, or, for a fold's curve (``curves._fold_curves``), their (draws,
    samples) rows as ``ConditionReport._from_rows``'s arguments."""
    ts = z.sample_grid(samples)
    pts = ts[:, None]
    grid = f"{samples} samples on [{z.domain[0]:g}, {z.domain[1]:g}]"
    d = z.derivatives(ts, range(4))
    sq = [indefinite_dot(d[k], d[k], z.signature.index) for k in range(3)]
    rows = [(cid, np.reshape(r, (z._lead[:1] or (1,)) + (-1,)), tol, grid, pts, note, verdicts)
            for cid, r, note, verdicts in (
                ("lightcone-z", np.abs(sq[0]), "", None),
                ("speed-z", np.abs(sq[1] - speed), f"<z',z'> = {speed:g}", None),
                (acc[0], np.abs(sq[2] - acc[1]), f"<z'',z''> = {acc[1]:g}", None),
                (nonzero[0], np.max(np.abs(nonzero[1](d)), axis=-1), nonzero[2], _min_verdicts))]
    return rows if z._lead else [ConditionReport._from_rows(*row)[0] for row in rows]


#: The premises whose failure blocks a build: the first three (a single
#: curve's algebraic ones, or translation's nulls and pairing)
BLOCKING = 3


def _blocking(reports: list[ConditionReport]) -> list[str]:
    """The failed premises that block a build (``BLOCKING``)."""
    return [r.condition_id for r in reports[:BLOCKING] if not r.passed]


def _premise_flags(reports: list[ConditionReport]) -> tuple[str, ...]:
    """Raise on failed algebraic premises (``_blocking``), with all the
    reports on the error; a failed non-degeneracy one only flags the
    totally geodesic boundary."""
    hard_failures = _blocking(reports)
    if hard_failures:
        raise PremiseError(hard_failures, reports)
    return () if reports[3].passed else ("totally-geodesic-boundary",)


# ---------------------------------------------------------------------------
# flat ambient: translation surfaces


#: L = z + w: a = 1 and b = 0
_FLAT_CHART = _Chart(lambda Z, Z1, s: Z, lambda s: (1.0, 0.0, 0.0, 0.0), 0.0,
                     minimality="minimality-flat")


def _translation_premises(z, w, grid, domain, samples, tol) -> list[ConditionReport]:
    """null-z and null-w (``null_check`` at samples points), then
    pairing-nonzero: min |<z'(x), w'(y)>| on the grid over domain must reach
    tol, and a sign change, which proves a zero between nodes, fails with
    the span of the values as residual."""
    reports = [replace(null_check(curve, samples, tol), condition_id=cid)
               for curve, cid in ((z, "null-z"), (w, "null-w"))]
    values = derivative_inner(z, 1, w, 1, *grid_axes(domain, grid))
    pairing = ConditionReport.from_min(
        "pairing-nonzero", np.abs(values), tol, f"{grid[0]}x{grid[1]} grid",
        grid_points(domain, grid), note="min |<z'(x), w'(y)>| must stay positive")
    if values.min() < 0 < values.max():
        pairing = ConditionReport(
            pairing.condition_id, float(values.max() - values.min()), 0.0, False, pairing.grid,
            pairing.worst_point, "<z'(x), w'(y)> changes sign on the grid (residual = span)")
    return reports + [pairing]


def translation_surface(
    z: Curve,
    w: Curve,
    domain=FLAT_DOMAIN,
    *,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOLS["premise"],
    _premises: list[ConditionReport] | None = None,
) -> SurfaceMap:
    """L(x,y) = z(x) + w(y) for null curves with <z'(x), w'(y)> != 0.

    The premises (``_translation_premises``) run on a samples x samples
    grid, or are handed in (``_premises``, made on any grid).  A failed
    null check raises ``PremiseError``; a pairing that vanishes, below tol
    at a node or between nodes where it changes sign, makes the induced
    metric degenerate and raises.  (A positive pairing is accepted here -
    the surface is still minimal - but the null-coordinate analysis
    downstream requires a negative one; reverse the parameter of one curve
    to flip the sign.)
    """
    _require_same_signature(z, w)
    domain = _check_domain(domain)
    _require_coverage(z, domain[0], "x")
    _require_coverage(w, domain[1], "y")
    premises = _premises or _translation_premises(z, w, (samples, samples), domain, samples, tol)
    failed = _blocking(premises[:2])
    if failed:
        raise PremiseError(failed, premises)
    if not premises[2].passed:
        raise DegenerateMetricError("<z'(x), w'(y)> vanishes near (x, y) = ({:g}, {:g})".format(
            *premises[2].worst_point))

    return _mapped("translation", _FLAT_CHART, Ambient.flat(z.signature), domain, (z, w))


# ---------------------------------------------------------------------------
# pseudo-sphere ambient


def check_case_b_premises(
    z: Curve, samples: int = DEFAULT_SAMPLES, tol: float = DEFAULT_TOLS["premise"]
) -> list[ConditionReport]:
    """Premises of the single-curve sphere construction.

    The curve must lie on the light cone with constant speed 2 and null
    acceleration; the jerk must not vanish (its vanishing is the totally
    geodesic boundary case).
    """
    return _single_curve_premises(
        z, samples, tol, 4.0, ("acc-null-z", 0.0),
        ("jerk-nonzero-z", lambda d: d[3], "max-norm of z''' must stay positive"))


def _sphere_ambient(signature: Signature) -> Ambient:
    return Ambient.sphere(Signature(signature.dim - 1, signature.index))


#: L = (z+w)/(x+y) - (z'+w')/2: a(s) = 1/s and b = -1/2, on S^m_s(1)
_SPHERE_CHART = _Chart(
    lambda Z, Z1, s: Z / s - Z1 / 2, lambda s: (1 / s, -1 / s**2, 2 / s**3, -6 / s**4), -0.5,
    k=1.0, g_xy=lambda s: -2.0 / s ** 2,
    pde=(("pde-xy", lambda s, jet: jet.Lxy - 2 * jet.L / _col(s ** 2), "L_xy = 2L/(x+y)^2"),
         ("pde-yy", lambda s, jet: jet.Lyy + 2 * jet.Ly / _col(s), "L_yy = -2L_y/(x+y)")),
    conditions=(("c.1", lambda s, jet, idx: np.abs(indefinite_dot(jet.L, jet.L, idx) - 1.0),
                 "<L,L> = 1"),
                *_curve_conditions(("c.2", "c.3"), lambda s, c, dot: np.abs(
                    2 * dot(0, c[3]) - s * dot(1, c[3])))),
    xi=lambda s, z: -_col(s ** 2) * z[3] / 4.0, pole=True)


def sphere_case_b(
    z: Curve,
    domain=SPHERE_DOMAIN,
    *,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOLS["premise"],
    _premises: list[ConditionReport] | None = None,
) -> SurfaceMap:
    """L(x,y) = z(x)/(x+y) - z'(x)/2 on the pseudo-sphere quadric.

    The premises (``check_case_b_premises``) run first, before the domain
    and coverage checks, so a failed premise raises ``PremiseError`` even
    on a bad domain.  Their four reports are kept on the error
    (``reports``) or on the returned surface (``premises``); ``_premises``
    hands in these reports when they were made already (for many draws at
    once, by a sweep).
    """
    premises = _premises if _premises is not None else check_case_b_premises(z, samples, tol)
    flags = _premise_flags(premises)
    domain = _check_domain(domain)
    _sphere_domain_guard(domain)
    _require_coverage(z, domain[0], "x")
    return _mapped("sphere_b", _SPHERE_CHART, _sphere_ambient(z.signature), domain, (z,),
                   flags=flags, premises=tuple(premises))


def check_case_c_conditions(
    z: Curve,
    w: Curve,
    grid=DEFAULT_GRID,
    domain=SPHERE_DOMAIN,
    tol: float = DEFAULT_TOLS["condition"],
) -> list[ConditionReport]:
    """The three joint conditions of the sphere pair construction:
    (c.1) <L,L> = 1, (c.2) 2<z+w, z'''> = (x+y)<z'+w', z'''> and (c.3)
    the same with w'''.  No premises on z and w individually are checked;
    the printed conditions are exactly what is verified.
    """
    _require_same_signature(z, w)
    domain = _check_domain(domain)
    _sphere_domain_guard(domain)
    return [ConditionReport.from_max(*row)
            for row in _condition_rows(_SPHERE_CHART, (z, w), domain, grid, tol)]


def sphere_case_c(z: Curve, w: Curve, domain=SPHERE_DOMAIN) -> SurfaceMap:
    """L(x,y) = (z(x)+w(y))/(x+y) - (z'(x)+w'(y))/2 on the pseudo-sphere."""
    _require_same_signature(z, w)
    domain = _check_domain(domain)
    _sphere_domain_guard(domain)
    _require_coverage(z, domain[0], "x")
    _require_coverage(w, domain[1], "y")
    return _mapped("sphere_c", _SPHERE_CHART, _sphere_ambient(z.signature), domain, (z, w))


# ---------------------------------------------------------------------------
# pseudo-hyperbolic ambient


def check_case_ii_premises(
    z: Curve, samples: int = DEFAULT_SAMPLES, tol: float = DEFAULT_TOLS["premise"]
) -> list[ConditionReport]:
    """Premises of the single-curve hyperbolic construction: light-cone
    position, <z',z'> = -2, <z'',z''> = 4, and z''' != 2 z' (whose failure
    is the totally geodesic boundary case)."""
    return _single_curve_premises(
        z, samples, tol, -2.0, ("acc-norm-z", 4.0),
        ("nondegenerate-z", lambda d: d[3] - 2 * d[1],
         "max-norm of z''' - 2z' must stay positive"))


def _hyperbolic_ambient(signature: Signature) -> Ambient:
    if signature.index < 1:
        raise InvalidInputError(
            f"hyperbolic ambient needs embedding index >= 1, got {signature}"
        )
    return Ambient.hyperbolic(Signature(signature.dim - 1, signature.index - 1))


def _tanh_coefficients(s):  # tanh(s/sqrt2) and its first three derivatives
    u = s / SQRT2
    T, S2 = np.tanh(u), 1.0 / np.cosh(u) ** 2
    return T, S2 / SQRT2, -S2 * T, S2 * (2 * T**2 - S2) / SQRT2


#: L = (z+w) tanh((x+y)/sqrt2) - (z'+w')/sqrt2: a(s) = tanh(s/sqrt2), b = -1/sqrt2,
#: on H^m_s(-1).  Its xi's cosh^2 factor follows from substituting the
#: immersion into its own PDE system (and the numeric residual confirms it).
_HYPERBOLIC_CHART = _Chart(
    lambda Z, Z1, s: Z * np.tanh(s / SQRT2) - Z1 / SQRT2, _tanh_coefficients, -1 / SQRT2,
    k=-1.0, g_xy=lambda s: -1.0 / np.cosh(s / SQRT2) ** 2,
    pde=(("pde-xy", lambda s, jet: jet.Lxy + jet.L / _col(np.cosh(s / SQRT2) ** 2),
          "L_xy = -sech^2((x+y)/sqrt2) L"),
         ("pde-yy", lambda s, jet: jet.Lyy + SQRT2 * _col(np.tanh(s / SQRT2)) * jet.Ly,
          "L_yy = -sqrt2 tanh((x+y)/sqrt2) L_y")),
    conditions=(("iii.1", lambda s, jet, idx: np.abs(indefinite_dot(jet.L, jet.L, idx) + 1.0),
                 "<L,L> = -1"),
                *_curve_conditions(("iii.2", "iii.3"), lambda s, c, dot: np.abs(
                    SQRT2 * dot(0, a := 2 * c[1] - c[3]) * np.tanh(s / SQRT2) - dot(1, a)))),
    xi=lambda s, z: (SQRT2 * z[1] - z[3] / SQRT2) * _col(np.cosh(s / SQRT2) ** 2))


def hyperbolic_case_ii(
    z: Curve,
    domain=HYPERBOLIC_DOMAIN,
    *,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOLS["premise"],
    _premises: list[ConditionReport] | None = None,
) -> SurfaceMap:
    """L(x,y) = z(x) tanh((x+y)/sqrt2) - z'(x)/sqrt2 on the hyperbolic quadric.

    As in ``sphere_case_b``, the premises (``check_case_ii_premises``) run
    before the domain and coverage checks, and their four reports are kept
    on the ``PremiseError`` (``reports``) or on the surface (``premises``),
    or are handed in (``_premises``).
    """
    premises = _premises if _premises is not None else check_case_ii_premises(z, samples, tol)
    flags = _premise_flags(premises)
    domain = _check_domain(domain)
    _require_coverage(z, domain[0], "x")
    return _mapped("hyp_ii", _HYPERBOLIC_CHART, _hyperbolic_ambient(z.signature), domain, (z,),
                   flags=flags, premises=tuple(premises))


def check_case_iii_conditions(
    z: Curve,
    w: Curve,
    grid=DEFAULT_GRID,
    domain=HYPERBOLIC_DOMAIN,
    tol: float = DEFAULT_TOLS["condition"],
) -> list[ConditionReport]:
    """The three joint conditions of the hyperbolic pair construction:
    (iii.1) <L,L> = -1 and (iii.2)/(iii.3)
    sqrt2 <z+w, 2c'-c'''> tanh((x+y)/sqrt2) = <z'+w', 2c'-c'''> for
    c = z and c = w respectively."""
    _require_same_signature(z, w)
    return [ConditionReport.from_max(*row) for row in _condition_rows(
        _HYPERBOLIC_CHART, (z, w), _check_domain(domain), grid, tol)]


def hyperbolic_case_iii(z: Curve, w: Curve, domain=HYPERBOLIC_DOMAIN) -> SurfaceMap:
    """L = (z(x)+w(y)) tanh((x+y)/sqrt2) - (z'(x)+w'(y))/sqrt2."""
    _require_same_signature(z, w)
    domain = _check_domain(domain)
    _require_coverage(z, domain[0], "x")
    _require_coverage(w, domain[1], "y")
    return _mapped("hyp_iii", _HYPERBOLIC_CHART, _hyperbolic_ambient(z.signature), domain, (z, w))


# ---------------------------------------------------------------------------
# negative control


def de_sitter_control(domain=DE_SITTER_DOMAIN) -> SurfaceMap:
    """The unit de Sitter surface S^2_1(1) in E^3_1, treated with a flat
    ambient, in null coordinates: L = ((1-xy)/(x+y), (x-y)/(x+y), (1+xy)/(x+y)),
    the sphere pair chart on ``half_quadratic`` and ``half_quadratic_rev``.

    Totally umbilical with mean curvature vector H = -L, hence a clean
    non-minimal control: the minimality residual is ~1 while everything
    intrinsic (null metric form, K = 1) still passes.
    """
    domain = _check_domain(domain)
    _sphere_domain_guard(domain)

    def covering(name, span):  # the built-in curve on its domain widened to cover span
        lo, hi = BUILTIN_CURVES[name].domain
        return replace(BUILTIN_CURVES[name], domain=(min(lo, span[0]), max(hi, span[1])))

    z, w = covering("half_quadratic", domain[0]), covering("half_quadratic_rev", domain[1])
    return _mapped("de_sitter_control", _SPHERE_CHART, Ambient.flat(z.signature), domain, (z, w),
                   label="de_sitter_control", flags=("negative-control",))
