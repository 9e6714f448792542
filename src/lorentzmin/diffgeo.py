"""Numerical differential geometry of a Lorentz surface in its ambient.

All quantities are phrased in null coordinates: the induced metric must
have the form g = -E^2 (dx dy + dy dx), i.e. <L_x,L_x> = <L_y,L_y> = 0
and <L_x,L_y> = -E^2 < 0, with the null frame e1 = L_x/E, e2 = L_y/E
satisfying <e1,e2> = -1.  In that frame:

* Gaussian curvature   K = (2 E E_xy - 2 E_x E_y) / E^4,
* connection           Gamma_x = 2E_x/E, Gamma_y = 2E_y/E,
  connection form      omega(e1) = E_x/E^2, omega(e2) = -E_y/E^2,
* mean curvature       H = -h(e1, e2),
* Gauss equation       K = c - <h11,h22> + <h12,h12>.

The second fundamental form is obtained by subtracting from the second
partials their projection onto the tangent plane (and, on a quadric
ambient, onto the position vector, which spans the quadric's normal), by
solving the indefinite Gram system directly.  K is always computed
intrinsically from the E-field, never from the ambient, so the
Gauss-equation check is an independent cross-validation.  When the jet
carries L_xxy and L_xyy, the E-field is exact: differentiating
g_xy = <L_x,L_y> = -E^2 gives

    E_x = -(g_xy)_x / 2E,  E_y = -(g_xy)_y / 2E,
    E_xy = -(g_xy)_xy / 2E - E_x E_y / E,

    (g_xy)_x  = <L_xx,L_y> + <L_x,L_xy>,
    (g_xy)_y  = <L_xy,L_y> + <L_x,L_yy>,
    (g_xy)_xy = <L_xxy,L_y> + <L_xx,L_yy> + <L_xy,L_xy> + <L_x,L_xyy>.

Without them (a surface with no analytic jet), or on request for the
cross-check, E_x, E_y and E_xy come from central differences of E (the
E-field stencil, eight more jets per node).

One routine, ``_forms``, computes all of it on arrays of nodes at once:
one ``jet`` call for the jet, one ``einsum`` for the Gram matrices, one
batched ``np.linalg.solve`` behind a degeneracy guard for the projection,
and a few indefinite products for the E-field.  ``grid_values`` runs it
over a grid in blocks of at most ``BLOCK_NODES`` nodes, so the working
set stays bounded; the point functions (``point_forms`` and the rest) run
it on a single node.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError, DomainError
from .indefinite import AmbientKind, _metric_diagonal, indefinite_dot
from .report import ConditionReport
from .surfaces import Jet2, SurfaceMap, _col, grid_axes

__all__ = [
    "MetricData",
    "FrameData",
    "FundamentalForms",
    "partials",
    "fd_jet",
    "fd_discrepancy",
    "grid_values",
    "induced_metric",
    "gauss_curvature",
    "connection_data",
    "point_forms",
    "second_fundamental_form",
    "mean_curvature_norm",
    "minimality_residual",
    "gauss_equation_residual",
]

#: Default FD steps (scaled by max(1, |coordinate|)); each uses one
#: Richardson level.  SECOND_STEP balances Richardson roundoff
#: (~23 eps |L| / h^2) against pole truncation (~h^4 |L^(6)| / 480): both
#: stay near 1e-7 relative at 3e-4.  The E-field stencil uses plain central
#: differences: E_FIRST_STEP for E_x/E_y and a wider mixed step for E_xy
#: (K_STEP_ANALYTIC when analytic partials back the metric, K_STEP_FD
#: otherwise), because the E-field's own noise floor is amplified by 1/h^2.
FIRST_STEP = 1e-5
SECOND_STEP = 3e-4
E_FIRST_STEP = 1e-4
K_STEP_ANALYTIC = 5e-4
K_STEP_FD = 1e-3

#: A Gram matrix whose |det| falls below this fraction of the product of
#: its row norms is singular to working precision (the Gram determinant
#: in null coordinates is -g_xy^2 <L,L>, so singularity always means bad
#: input).
GRAM_TOL = 1e-10

#: Nodes per block of grid rows in ``grid_values``; a jet call holds about
#: twenty arrays of BLOCK_NODES x dim floats at its peak.
BLOCK_NODES = 512


@dataclass(frozen=True)
class MetricData:
    """Induced metric components and the conformal factor E = sqrt(-g_xy)
    (scalars at one node, arrays over a block of nodes)."""

    g_xx: float
    g_xy: float
    g_yy: float
    E: float
    offdiag_residuals: tuple[float, float]  # (|g_xx|, |g_yy|)


@dataclass(frozen=True)
class FrameData:
    """Null frame e1 = L_x/E, e2 = L_y/E with connection coefficients."""

    e1: np.ndarray
    e2: np.ndarray
    gamma_x: float   # coefficient of d/dx in nabla_{d/dx} d/dx, = 2E_x/E
    gamma_y: float   # coefficient of d/dy in nabla_{d/dy} d/dy, = 2E_y/E
    omega_e1: float  # omega(e1) = E_x/E^2
    omega_e2: float  # omega(e2) = -E_y/E^2


@dataclass(frozen=True)
class FundamentalForms:
    metric: MetricData
    frame: FrameData
    h11: np.ndarray
    h12: np.ndarray
    h22: np.ndarray
    H: np.ndarray    # mean curvature vector, = -h12
    K: float


# ---------------------------------------------------------------------------
# node arrays


def _nodes(x, y):
    """x and y as float arrays of one common node shape."""
    return np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def _first(mask) -> int:
    """Flat index of the first True node."""
    return int(np.argmax(np.ravel(mask)))


# ---------------------------------------------------------------------------
# jets


def _check_point(surface: SurfaceMap, x, y, reach):
    x, y, reach = np.broadcast_arrays(*_nodes(x, y), reach)
    (x0, x1), (y0, y1) = surface.domain
    pad_x, pad_y = 0.1 * (x1 - x0), 0.1 * (y1 - y0)
    inside = (x0 - pad_x <= x) & (x <= x1 + pad_x) & (y0 - pad_y <= y) & (y <= y1 + pad_y)
    if not inside.all():
        i = _first(~inside)
        raise DomainError(f"point ({x.flat[i]:g}, {y.flat[i]:g}) outside surface domain")
    if surface.singular_margin is not None:
        margin = np.broadcast_to(surface.singular_margin(x, y), x.shape)
        close = margin <= 2 * reach + 1e-12
        if close.any():
            i = _first(close)
            raise DomainError(
                f"point ({x.flat[i]:g}, {y.flat[i]:g}) within {margin.flat[i]:g} of a "
                f"singular locus (need > {2 * reach.flat[i]:g})"
            )


def _rich1(f, t, h) -> np.ndarray:
    d1 = (f(t + h) - f(t - h)) / _col(2 * h)
    d2 = (f(t + h / 2) - f(t - h / 2)) / _col(h)
    return (4 * d2 - d1) / 3


def _rich2(f, t, h) -> np.ndarray:
    c = f(t)
    d1 = (f(t + h) - 2 * c + f(t - h)) / _col(h**2)
    d2 = (f(t + h / 2) - 2 * c + f(t - h / 2)) / _col((h / 2) ** 2)
    return (4 * d2 - d1) / 3


def _rich_cross(pos, x, y, h) -> np.ndarray:
    def cross(hh):
        return (pos(x + hh, y + hh) - pos(x + hh, y - hh)
                - pos(x - hh, y + hh) + pos(x - hh, y - hh)) / _col(4 * hh * hh)

    return (4 * cross(h / 2) - cross(h)) / 3


def fd_jet(surface: SurfaceMap, x, y, h1: float | None = None, h2: float | None = None) -> Jet2:
    """Jet from Richardson-extrapolated central differences of the position,
    at one node or at arrays of nodes."""
    x, y = _nodes(x, y)
    pos = surface.position

    def step(h, base, t):  # the given step, or base * max(1, |t|) per node
        return np.full(t.shape, float(h)) if h is not None else base * np.maximum(1.0, np.abs(t))

    hx1, hy1 = step(h1, FIRST_STEP, x), step(h1, FIRST_STEP, y)
    hx2, hy2 = step(h2, SECOND_STEP, x), step(h2, SECOND_STEP, y)
    hxy = np.maximum(hx2, hy2)
    _check_point(surface, x, y, np.maximum.reduce([hx1, hy1, hxy]))
    return Jet2(
        L=pos(x, y),
        Lx=_rich1(lambda t: pos(t, y), x, hx1),
        Ly=_rich1(lambda t: pos(x, t), y, hy1),
        Lxx=_rich2(lambda t: pos(t, y), x, hx2),
        Lxy=_rich_cross(pos, x, y, hxy),
        Lyy=_rich2(lambda t: pos(x, t), y, hy2),
    )


def partials(surface: SurfaceMap, x, y) -> Jet2:
    """Analytic jet when the surface provides one, FD jet otherwise.

    x and y may be arrays that broadcast against each other; every field
    comes back with shape nodes + (dim,)."""
    if surface.jet is None:
        return fd_jet(surface, x, y)
    _check_point(surface, x, y, 0.0)
    jet = surface.jet(x, y)
    shape = np.broadcast_shapes(np.shape(x), np.shape(y)) + jet.L.shape[-1:]
    return Jet2(*(None if v is None else np.broadcast_to(v, shape)
                  for v in (getattr(jet, f.name) for f in dataclasses.fields(Jet2))))


def fd_discrepancy(surface: SurfaceMap, x, y, h1: float | None = None, h2: float | None = None):
    """Max relative max-norm gap between analytic and FD partials, per node.

    Only meaningful for surfaces with analytic partials; each of the five
    derivatives is compared at scale max(1, |analytic|).
    """
    if surface.jet is None:
        raise DomainError("surface provides no analytic partials to compare")
    an = partials(surface, x, y)
    fd = fd_jet(surface, x, y, h1, h2)
    worst = 0.0
    for name in ("Lx", "Ly", "Lxx", "Lxy", "Lyy"):
        a = getattr(an, name)
        gap = np.max(np.abs(getattr(fd, name) - a), axis=-1)
        worst = np.maximum(worst, gap / np.maximum(1.0, np.max(np.abs(a), axis=-1)))
    return worst


# ---------------------------------------------------------------------------
# metric, projection, E-field


def _gram(surface: SurfaceMap, jet: Jet2):
    """Projection basis (L_x, L_y and, on a quadric, L) stacked on axis -2,
    with its indefinite Gram matrices."""
    basis = [jet.Lx, jet.Ly]
    if surface.ambient.kind is not AmbientKind.FLAT:
        basis.append(jet.L)
    B = np.stack(basis, axis=-2)
    d = _metric_diagonal(B.shape[-1], surface.ambient.embedding_signature.index)
    return B, d, np.einsum("...id,...jd->...ij", B * d, B)


def _metric(G) -> MetricData:
    # [()] makes a single node's entries scalars and leaves arrays as they are
    g_xx, g_xy, g_yy = G[..., 0, 0][()], G[..., 0, 1][()], G[..., 1, 1][()]
    bad = g_xy >= 0
    if bad.any():
        raise DegenerateMetricError(
            f"g_xy = {np.ravel(g_xy)[_first(bad)]:g} >= 0: not a Lorentz surface in "
            "null coordinates (if the pairing is positive, reverse one coordinate)"
        )
    return MetricData(g_xx, g_xy, g_yy, np.sqrt(-g_xy), (np.abs(g_xx), np.abs(g_yy)))


def _gram_solve(G, rhs):
    """Solve the batched Gram systems G c = rhs; a system whose |det|
    falls below GRAM_TOL times the product of its row norms raises."""
    det = np.linalg.det(G)
    singular = np.abs(det) <= GRAM_TOL * np.prod(np.linalg.norm(G, axis=-1), axis=-1)
    if singular.any():
        raise DegenerateMetricError(
            f"singular Gram matrix (det {np.ravel(det)[_first(singular)]:.3e})"
        )
    return np.linalg.solve(G, rhs)


def _second_form(jet: Jet2, B, d, G):
    """Normal parts of L_xx, L_xy, L_yy (coordinate h_xx, h_xy, h_yy)."""
    V = np.stack([jet.Lxx, jet.Lxy, jet.Lyy], axis=-2)
    C = _gram_solve(G, np.einsum("...id,...kd->...ik", B * d, V))
    N = V - np.einsum("...ik,...id->...kd", C, B)
    return N[..., 0, :], N[..., 1, :], N[..., 2, :]


def _conformal(surface: SurfaceMap, x, y):
    """E = sqrt(-g_xy) at arrays of nodes, from the jet's L_x and L_y (or
    their finite differences when the surface has no analytic jet)."""
    if surface.jet is not None:
        jet = surface.jet(x, y)
        Lx, Ly = jet.Lx, jet.Ly
    else:
        pos = surface.position
        h = FIRST_STEP * np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
        Lx = _rich1(lambda t: pos(t, y), x, h)
        Ly = _rich1(lambda t: pos(x, t), y, h)
    g_xy = np.broadcast_to(
        indefinite_dot(Lx, Ly, surface.ambient.embedding_signature.index), x.shape)
    bad = g_xy >= 0
    if bad.any():
        i = _first(bad)
        raise DegenerateMetricError(
            f"g_xy = {g_xy.flat[i]:g} >= 0 at ({x.flat[i]:g}, {y.flat[i]:g})")
    return np.sqrt(-g_xy)


def _efield(surface: SurfaceMap, x, y):
    """E_x, E_y and E_xy by plain central differences of E = sqrt(-g_xy).

    First derivatives use E_FIRST_STEP (truncation-limited); the mixed one
    uses the wider K step (noise-limited, divided by h^2).  The eight
    offsets of all nodes are stacked into one evaluation."""
    scale = np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
    h = (K_STEP_ANALYTIC if surface.jet is not None else K_STEP_FD) * scale
    h1 = E_FIRST_STEP * scale
    _check_point(surface, x, y, np.maximum(h, h1))
    zero = np.zeros_like(h)
    dx = np.stack([h1, -h1, zero, zero, h, h, -h, -h])
    dy = np.stack([zero, zero, h1, -h1, h, -h, h, -h])
    e = _conformal(surface, x + dx, y + dy)
    ex = (e[0] - e[1]) / (2 * h1)
    ey = (e[2] - e[3]) / (2 * h1)
    exy = (e[4] - e[5] - e[6] + e[7]) / (4 * h * h)
    return ex, ey, exy


def _connection(E, ex, ey, exy):
    """(gamma_x, gamma_y, omega_e1, omega_e2) and K from the E-field."""
    return (2 * ex / E, 2 * ey / E, ex / E**2, -ey / E**2), (2 * E * exy - 2 * ex * ey) / E**4


def _jet_efield(jet: Jet2, d, E):
    """E_x, E_y and E_xy exactly, from the derivatives of g_xy = -E^2."""
    def dot(a, b):
        return (a * b) @ d

    dx = dot(jet.Lxx, jet.Ly) + dot(jet.Lx, jet.Lxy)  # (g_xy)_x
    dy = dot(jet.Lxy, jet.Ly) + dot(jet.Lx, jet.Lyy)  # (g_xy)_y
    dxy = (dot(jet.Lxxy, jet.Ly) + dot(jet.Lxx, jet.Lyy)
           + dot(jet.Lxy, jet.Lxy) + dot(jet.Lx, jet.Lxyy))
    ex, ey = -dx / (2 * E), -dy / (2 * E)
    return ex, ey, -dxy / (2 * E) - ex * ey / E


def _forms(surface: SurfaceMap, x, y, curvature="jet"):
    """Jet and fundamental forms at arrays of nodes (x, y broadcast).

    ``curvature`` picks the source of the E-field behind K and the
    connection: "jet" takes it exactly from the third-order jet, or from
    the stencil when the jet has no third-order fields; "stencil" always
    uses the stencil (the cross-check); None skips it and leaves the
    connection coefficients and K None."""
    jet = partials(surface, x, y)
    B, d, G = _gram(surface, jet)
    md = _metric(G)
    h_xx, h_xy, h_yy = _second_form(jet, B, d, G)
    E, E2 = _col(md.E), _col(md.E**2)
    connection, K = (None,) * 4, None
    if curvature is not None:
        if curvature == "jet" and jet.Lxxy is not None:
            ex, ey, exy = _jet_efield(jet, d, md.E)
        else:
            ex, ey, exy = _efield(surface, *_nodes(x, y))
        connection, K = _connection(md.E, ex, ey, exy)
    frame = FrameData(jet.Lx / E, jet.Ly / E, *connection)
    h12 = h_xy / E2
    forms = FundamentalForms(md, frame, h_xx / E2, h12, h_yy / E2, -h12, K)
    return jet, forms


def grid_values(surface: SurfaceMap, shape, fields, *, curvature="jet"):
    """Per-node quantities over a grid, computed block by block.

    Each entry of ``fields`` maps ``(x, y, jet, forms)`` on a block of
    nodes (x, y of shape (rows, ny)) to an array with that leading shape.
    One array per field comes back, of shape (nx, ny) plus whatever the
    field appends, in the node order of ``grid_points``.  ``curvature``
    is passed to ``_forms``: "stencil" takes K from the E-field stencil,
    None skips K (the forms then carry none).
    """
    xs, ys = grid_axes(surface.domain, shape)
    rows = max(1, BLOCK_NODES // ys.size)
    out = [[] for _ in fields]
    for i in range(0, len(xs), rows):
        x, y = xs[i:i + rows], ys
        jet, forms = _forms(surface, x, y, curvature)
        x, y = _nodes(x, y)
        for acc, field in zip(out, fields):
            acc.append(field(x, y, jet, forms))
    return [np.concatenate(acc) for acc in out]


# ---------------------------------------------------------------------------
# point views


def induced_metric(surface: SurfaceMap, x: float, y: float) -> MetricData:
    """g_ij = <L_i, L_j>; E = sqrt(-g_xy), defined only for g_xy < 0."""
    return _metric(_gram(surface, partials(surface, x, y))[2])


def point_forms(surface: SurfaceMap, x: float, y: float) -> tuple[Jet2, FundamentalForms]:
    """Jet plus fundamental forms at one point."""
    return _forms(surface, x, y)


def second_fundamental_form(surface: SurfaceMap, x: float, y: float) -> FundamentalForms:
    """Metric, frame, h on the null frame, mean curvature vector, and K."""
    return point_forms(surface, x, y)[1]


def gauss_curvature(surface: SurfaceMap, x: float, y: float) -> float:
    """K = (2 E E_xy - 2 E_x E_y)/E^4, exact from the third-order jet (from
    the E-field stencil on a surface without an analytic jet)."""
    return point_forms(surface, x, y)[1].K


def connection_data(surface: SurfaceMap, x: float, y: float) -> FrameData:
    """Null frame and connection coefficients at one point."""
    return point_forms(surface, x, y)[1].frame


def _hnorm(x, y, jet, forms):
    return np.max(np.abs(forms.H), axis=-1)


def mean_curvature_norm(surface: SurfaceMap, x: float, y: float) -> float:
    """Max-norm of the mean curvature vector H = -h(e1,e2) at one point."""
    return _hnorm(x, y, *_forms(surface, x, y, curvature=None))


def minimality_residual(surface: SurfaceMap, grid=(21, 21), tol: float = 1e-6) -> ConditionReport:
    """Max over the grid of the max-norm of H; pass iff below tol."""
    (residuals,) = grid_values(surface, grid, [_hnorm], curvature=None)
    return ConditionReport.from_max(
        "minimality", residuals, tol, surface.grid_description(grid), surface.grid(grid),
        note="max-norm of the mean curvature vector")


def gauss_equation_residual(surface: SurfaceMap, x: float, y: float) -> float:
    """K - c + <h11,h22> - <h12,h12>; zero when the Gauss equation holds.

    K comes from the intrinsic E-field, the h-terms from the extrinsic
    projection, so this genuinely cross-checks the two computations.
    """
    f = second_fundamental_form(surface, x, y)
    idx = surface.ambient.embedding_signature.index
    return float(f.K - surface.ambient.curvature
                 + indefinite_dot(f.h11, f.h22, idx) - indefinite_dot(f.h12, f.h12, idx))
