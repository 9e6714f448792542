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

For the cross-check, E_x, E_y and E_xy come from central differences of
E instead (the E-field stencil: L_x and L_y alone, the surface's
``tangent``, at the four offsets of one cross per node).  ``fd_jet`` is
the derivative-free counterpart of the analytic jet: Richardson-extrapolated
central differences of the position at 17 offsets per node, one step per
stencil; ``fd_discrepancy`` compares it with the analytic jet (the
``fd-partials`` cross-check).  Each stencil step scales with its own
coordinate, so all offsets lie on a block's x and y axes: each curve is
evaluated once per block, at 7 points about each coordinate
(``_abscissae``), and ``position`` and ``tangent`` read the offsets from
those tables (``_at``).

One routine, ``_forms``, computes all of it on arrays of nodes at once:
one ``jet`` call, one table of the indefinite products that the
projection, (g_xy)_x, (g_xy)_y and the checks need, the at most 3x3 Gram
systems solved in closed form from their adjugates behind a degeneracy
guard, and four products for (g_xy)_xy, all component-major (embedding
axis first in memory), returning dim-last views.  Without curvature
(``curvature=None``: exports, ``minimality_residual`` and
``mean_curvature_norm``) it computes H = -h(e1, e2) = -(L_xy)^perp / E^2
alone: ``jet`` fills L_x, L_y, L and L_xy, the table holds the Gram block
and one right-hand side, and only L_xy is projected.  ``grid_values`` runs it
in blocks of at most ``BLOCK_NODES`` draws x nodes, with the grid's axes
checked once and each block handed its slice of the curves' per-axis
derivatives, made once for a fold's draws (``surfaces._grid_blocks``); the
point functions (``point_forms`` and the functions built on it) run it on
a single node.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .curves import DOMAIN_PAD_FRACTION
from .errors import DegenerateMetricError, DomainError, InvalidInputError
from .indefinite import AmbientKind, _metric_diagonal, indefinite_dot
from .report import DEFAULT_TOLS, ConditionReport
from .surfaces import (_FIELDS, BLOCK_NODES, DEFAULT_GRID, Jet2, SurfaceMap, _col, _dim_last,
                       _draw_count, _draws_per_block, _grid_blocks, _tables, grid_axes)

__all__ = [
    "MetricData",
    "FrameData",
    "FundamentalForms",
    "partials",
    "fd_jet",
    "fd_discrepancy",
    "grid_values",
    "gauss_curvature",
    "point_forms",
    "second_fundamental_form",
    "mean_curvature_norm",
    "minimality_residual",
]

#: Default FD steps (scaled by max(1, |coordinate|)), one per stencil.
#: FD_STEP gives each of fd_jet's Richardson quotients (one level) its h: it
#: balances the second derivative's roundoff (~23 eps |L| / h^2) against pole
#: truncation (~h^4 |L^(6)| / 480), both near 1e-7 relative at 3e-4, and
#: leaves the first derivative's roundoff (~eps |L| / h) far below.  The
#: E-field stencil takes plain central differences on one cross of half-width
#: K_STEP_ANALYTIC, wide because the E-field's own noise floor is amplified
#: by 1/h^2 in E_xy.
FD_STEP = 3e-4
K_STEP_ANALYTIC = 5e-4

#: A Gram matrix whose |det| falls below this fraction of the product of
#: its row norms is singular to working precision (the Gram determinant
#: in null coordinates is -g_xy^2 <L,L>, so singularity always means bad
#: input).
GRAM_TOL = 1e-10


@dataclass(frozen=True)
class MetricData:
    """Induced metric components and the conformal factor E = sqrt(-g_xy)
    (scalars at one node, arrays over a block of nodes)."""

    g_xx: float
    g_xy: float
    g_yy: float
    E: float
    offdiag_residuals: tuple[float, float]  # (|g_xx|, |g_yy|)
    gram: np.ndarray  # <B_i, B_j> for B = (L_x, L_y, L), shape nodes + (3, 3)


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
    frame: FrameData | None  # None, with h11, h22 and K, from a pass for H alone
    h11: np.ndarray | None
    h12: np.ndarray
    h22: np.ndarray | None
    H: np.ndarray    # mean curvature vector, = -h12
    K: float | None
    fd: Jet2 | None = None  # the FD jet (``fd_jet``) of a "stencil" pass


# ---------------------------------------------------------------------------
# node arrays


def _first(mask) -> int:
    """Flat index of the first True node."""
    return int(np.argmax(np.ravel(mask)))


# ---------------------------------------------------------------------------
# jets


def _check_point(surface: SurfaceMap, x, y, reach):
    x, y, reach = np.broadcast_arrays(*(np.asarray(t, dtype=float) for t in (x, y)), reach)
    (x0, x1), (y0, y1) = surface.domain
    pad_x, pad_y = DOMAIN_PAD_FRACTION * (x1 - x0), DOMAIN_PAD_FRACTION * (y1 - y0)
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


def _abscissae(t, h=None):
    """(points, h, k): where the stencils evaluate the curves about
    coordinates t, on a leading axis: t; t + h, t - h, t + h/2, t - h/2 for
    fd_jet's quotients and crosses (h given, or FD_STEP * max(1, |t|); hx/2
    is 0.5 hx exactly); t + k, t - k for the E-field (K_STEP_ANALYTIC)."""
    scale = np.maximum(1.0, np.abs(t))
    h, k = FD_STEP * scale if h is None else np.full(np.shape(t), float(h)), K_STEP_ANALYTIC * scale
    return np.stack([t, t + h, t - h, t + 0.5 * h, t - 0.5 * h, t + k, t - k]), h, k


#: (orders, abscissae) of the curves' tables that the stencils keep: the
#: nodes' for the jet, fd_jet's offsets for ``position``, the E-field's for ``tangent``
_PARTS = ((4, slice(0, 1)), (2, slice(1, 5)), (3, slice(5, 7)))
#: A cross's offsets (+, +), (+, -), (-, +), (-, -), as rows of x's and y's abscissae
_CROSS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def _stencil_tables(surface: SurfaceMap, X, Y):  # z's at the abscissae X, then w's at Y
    return _tables(surface.sources[:1], X, _PARTS) + _tables(surface.sources[1:], Y, _PARTS)


def _at(f, X, Y, d, parts, pairs):
    """[f at (X[i], Y[j]) for (i, j) in pairs]: f at rows of the ``_abscissae``
    X of x and Y of y, of their ``parts`` (indices of ``_PARTS``, x's and
    y's), with the curves' tables there (of d, z's then w's), in calls on at
    most 2 BLOCK_NODES node-offsets each; a row that a call repeats is broadcast."""
    (n, sx), (m, sy) = (_PARTS[p] for p in parts)
    X, Y, d = X[sx], Y[sy], d[parts[0]:parts[0] + 1] + d[3 + parts[1]:4 + parts[1]]
    if d[0].ndim > X.ndim + 2:  # a fold's tables, whose draw axis follows the offsets'
        X, Y = X[:, None], Y[:, None]
    each = max(1, 2 * BLOCK_NODES // np.broadcast(X[0], Y[0], *(t[0, 0, ..., 0] for t in d)).size)
    out = []
    for k in range(0, len(pairs), each):
        rows = [list(r) if len(set(r)) > 1 else slice(r[0], r[0] + 1)
                for r in zip(*pairs[k:k + each])]
        out += list(f(X[rows[0]], Y[rows[1]], *(  # tables picked component-major
            _dim_last(np.moveaxis(t, -1, 1)[:min(n, m), :, r], 1) for t, r in zip(d, rows))))
    return out


def fd_jet(surface: SurfaceMap, x, y, h: float | None = None, *, _centre=None, _d=None) -> Jet2:
    """Jet from Richardson-extrapolated central differences of the position,
    at one node or at arrays of nodes (x and y broadcast against each other).

    The stencils need 17 offsets per node, at one step per coordinate (h if
    given, else FD_STEP * max(1, |x|) and FD_STEP * max(1, |y|)): the centre;
    x at +-hx and +-hx/2, for L_x and L_xx alike, and y likewise; the
    crosses (+-hx, +-hy) and (+-hx/2, +-hy/2) for L_xy.  ``position`` reads
    them from the sources' tables at the ``_abscissae`` (``_d`` hands in
    those of a grid pass); ``_centre``, the position at the nodes.  A step h
    that is not finite and positive raises ``InvalidInputError``."""
    if h is not None and not (np.isfinite(h) and h > 0):
        raise InvalidInputError(f"h must be a finite step > 0, got {h!r}")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    (X, hx, _), (Y, hy, _) = _abscissae(x, h), _abscissae(y, h)
    _check_point(surface, x, y, np.maximum(hx, hy))
    d = _d or _stencil_tables(surface, X, Y)
    c = surface.position(x, y, *(t[:2, 0] for t in d[::3])) if _centre is None else _centre

    def richardson(q, h):  # (first, second) derivative from the position at +h, -h, +h/2, -h/2
        d1 = (q[0] - q[1]) / _col(2 * h)
        d2 = (q[2] - q[3]) / _col(h)
        s1 = (q[0] - 2 * c + q[1]) / _col(h**2)
        s2 = (q[2] - 2 * c + q[3]) / _col((h / 2) ** 2)
        return (4 * d2 - d1) / 3, (4 * s2 - s1) / 3

    def cross(p, hx, hy):  # from the position at (x + hx, y + hy), (x + hx, y - hy), ...
        return (p[0] - p[1] - p[2] + p[3]) / _col(4 * hx * hy)

    def at(parts, pairs):  # the position at those offsets
        return _at(surface.position, X, Y, d, parts, pairs)

    Lxy = (4 * cross(at((1, 1), [(i + 2, j + 2) for i, j in _CROSS]), hx / 2, hy / 2)
           - cross(at((1, 1), _CROSS), hx, hy)) / 3  # first, while few results are held
    Lx, Lxx = richardson(at((1, 0), [(i, 0) for i in range(4)]), hx)
    Ly, Lyy = richardson(at((0, 1), [(0, j) for j in range(4)]), hy)
    return Jet2(L=c, Lx=Lx, Ly=Ly, Lxx=Lxx, Lxy=Lxy, Lyy=Lyy)


def partials(surface: SurfaceMap, x, y) -> Jet2:
    """The surface's analytic jet at one node or at arrays of nodes.

    x and y may be arrays that broadcast against each other; every field
    comes back with shape nodes + (dim,)."""
    _check_point(surface, x, y, 0.0)
    jet = surface.jet(x, y)
    # the nodes' shape (after the draw axis of a stack of draws) + (dim,)
    shape = np.broadcast_shapes(np.shape(x) + (1,), np.shape(y) + (1,), jet.L.shape)
    return dataclasses.replace(jet, **{f: np.broadcast_to(v, shape) for f in _FIELDS if (
        v := getattr(jet, f)) is not None and v.shape != shape})


def _fd_gap(an: Jet2, fd: Jet2):
    """``fd_discrepancy`` of an analytic and an FD jet at the same nodes."""
    worst = 0.0
    for name in ("Lx", "Ly", "Lxx", "Lxy", "Lyy"):
        a = getattr(an, name)
        gap = np.max(np.abs(getattr(fd, name) - a), axis=-1)
        worst = np.maximum(worst, gap / np.maximum(1.0, np.max(np.abs(a), axis=-1)))
    return worst


def fd_discrepancy(surface: SurfaceMap, x, y, h: float | None = None):
    """Max relative max-norm gap between analytic and FD partials (``fd_jet``
    at step h), per node; each of the five derivatives is compared at scale
    max(1, |analytic|)."""
    return _fd_gap(partials(surface, x, y), fd_jet(surface, x, y, h))


# ---------------------------------------------------------------------------
# metric, projection, E-field


def _table(surface: SurfaceMap, jet: Jet2):
    """(W, d, T, nodes): the chart jet's own table (``Jet2.table``), its
    eight fields (``_FIELDS``) component-major, shape (8, dim, n nodes), or
    the first four of a jet made for H alone; the metric diagonal; T =
    <W_i, W_j> for i < 3 and j < 6 (j < 4 for H alone), shape (3, 6 or 4, n);
    the nodes' shape.  On the basis B = (L_x, L_y[, L]) of n = 2 (flat) or 3
    vectors, the Gram matrix is T[:n, :n] and the right-hand sides T[:n, 3:],
    those of L_xy, L_xx and L_yy."""
    nodes = jet.table.shape[2:]
    W = jet.table.reshape(jet.table.shape[:2] + (-1,))
    d = _metric_diagonal(W.shape[1], surface.ambient.embedding_signature.index)
    T = np.empty((3, min(len(W), 6), W.shape[-1]))
    # the basis scaled by the diagonal (exactly, by +-1) once: for the einsum,
    # then node-major for the Gram block by a matmul per node, whose summation
    # order the quadric verdicts at an LMS_DEFAULT_TOL near rounding level depend on
    D = W[:3] * d[:, None]
    T[:, 3:] = np.einsum("ikn,jkn->ijn", D, W[3:len(T[0])])
    D = np.ascontiguousarray(D.transpose(2, 0, 1))  # the one above dies before B is made
    B = np.ascontiguousarray(W[:3].transpose(2, 0, 1))
    with np.errstate(over="ignore", invalid="ignore"):  # an extreme draw's products are inf
        T[:, :3] = (D @ B.transpose(0, 2, 1)).transpose(1, 2, 0)
    bad = T[0, 1] >= 0
    if bad.any():
        raise DegenerateMetricError(
            f"g_xy = {T[0, 1, _first(bad)]:g} >= 0: not a Lorentz surface in "
            "null coordinates (if the pairing is positive, reverse one coordinate)"
        )
    return W, d, T, nodes


def _gram_solve(G, rhs):
    """Solve the symmetric Gram systems G c = rhs (2x2 or 3x3, shape (n, n) +
    nodes, rhs (n, k) + nodes) in closed form from the adjugate; a system
    whose |det| falls below GRAM_TOL times its row norms' product raises."""
    a, b, e = G[0, 0], G[0, 1], G[1, 1]
    if len(G) == 2:
        det, adj = a * e - b * b, [[e, -b], [-b, a]]
    else:
        c, f, i = G[0, 2], G[1, 2], G[2, 2]
        A00, A01, A02 = e * i - f * f, c * f - b * i, b * f - c * e
        A11, A12, A22 = a * i - c * c, b * c - a * f, a * e - b * b
        det, adj = a * A00 + b * A01 + c * A02, [[A00, A01, A02], [A01, A11, A12], [A02, A12, A22]]
    singular = np.abs(det) <= GRAM_TOL * np.prod(np.sqrt(np.sum(G * G, axis=1)), axis=0)
    if singular.any():
        raise DegenerateMetricError(
            f"singular Gram matrix (det {np.ravel(det)[_first(singular)]:.3e})")
    return np.einsum("ik...,kj...->ij...", np.array(adj) / det, rhs)


def _second_form(W, T, n):
    """Normal parts of L_xy, L_xx and L_yy (coordinate h_xy, h_xx, h_yy), or
    of L_xy alone for a table made for H alone, shape (3 or 1, dim, nodes): V
    minus B C, where G C = <B, V> on the basis B = W[:n]."""
    C = _gram_solve(T[:n, :n], T[:n, 3:])
    return W[3:len(T[0])] - np.einsum("ijn,ikn->jkn", C, W[:n])


def _conformal(surface: SurfaceMap, x, y, *d):
    """E = sqrt(-g_xy) at arrays of nodes the caller has checked, from the
    surface's ``tangent`` (the analytic L_x and L_y; ``d`` as it takes them)."""
    lx, ly = surface.tangent(x, y, *d)
    g_xy = indefinite_dot(lx, ly, surface.ambient.embedding_signature.index)
    bad = g_xy >= 0
    if bad.any():
        x, y, g_xy = np.broadcast_arrays(x, y, g_xy)
        i = _first(bad)
        raise DegenerateMetricError(
            f"g_xy = {g_xy.flat[i]:g} >= 0 at ({x.flat[i]:g}, {y.flat[i]:g})")
    return np.sqrt(-g_xy)


def _efield(surface: SurfaceMap, x, y, d=None):
    """E_x, E_y and E_xy by plain central differences of E = sqrt(-g_xy) on
    one cross, E(x +- kx, y +- ky), at nodes x and y that broadcast (a grid
    block's axes).

    The half-widths are K_STEP_ANALYTIC * max(1, |x|) and * max(1, |y|);
    ``tangent`` reads the offsets from the sources' tables at the
    ``_abscissae`` (``d`` hands in those of a grid pass)."""
    (X, _, kx), (Y, _, ky) = _abscissae(x), _abscissae(y)
    _check_point(surface, x, y, np.maximum(kx, ky))
    e = _at(lambda u, v, *t: _conformal(surface, u, v, *t), X, Y,
            d or _stencil_tables(surface, X, Y), (2, 2), _CROSS)
    return ((e[0] + e[1] - e[2] - e[3]) / (4 * kx), (e[0] - e[1] + e[2] - e[3]) / (4 * ky),
            (e[0] - e[1] - e[2] + e[3]) / (4 * kx * ky))


def _connection(E, ex, ey, exy):
    """(gamma_x, gamma_y, omega_e1, omega_e2) and K from the E-field."""
    return (2 * ex / E, 2 * ey / E, ex / E**2, -ey / E**2), (2 * E * exy - 2 * ex * ey) / E**4


def _jet_efield(W, d, T, E):
    """E_x, E_y and E_xy exactly, from the derivatives of g_xy = -E^2 (two in T)."""
    ex = -(T[1, 4] + T[0, 3]) / (2 * E)  # (g_xy)_x = <L_y,L_xx> + <L_x,L_xy>
    ey = -(T[1, 3] + T[0, 5]) / (2 * E)  # (g_xy)_y = <L_y,L_xy> + <L_x,L_yy>
    Lx, Ly, _, Lxy, Lxx, Lyy, Lxxy, Lxyy = W
    dxy = np.einsum("k,kn->n", d, Lxxy * Ly + Lxx * Lyy + Lxy * Lxy + Lx * Lxyy)
    return ex, ey, -dxy / (2 * E) - ex * ey / E


def _forms(surface: SurfaceMap, x, y, curvature="jet", d=None):
    """Jet and fundamental forms at arrays of nodes (x, y broadcast).

    ``curvature`` picks the source of the E-field behind K and the
    connection: "jet" takes it exactly from the third-order jet; "stencil"
    uses the stencil and adds the FD jet (``fd``), the cross-checks; None
    computes H alone: a jet of L, L_x, L_y and L_xy, the Gram block and the
    normal part of L_xy, and forms whose frame, h11, h22 and K are None.
    ``d`` hands ``jet`` the curves' derivatives on a grid ``grid_values`` has
    checked (for "stencil", ``_stencil_tables``); without it the nodes are
    checked here.  The chart's jet comes back."""
    if d is None:
        _check_point(surface, x, y, 0.0)
    stencil = d if curvature == "stencil" else None  # tables at the stencils' abscissae
    jet = surface.jet(x, y, *(t[:, 0] for t in stencil[::3]) if stencil else d or (),
                      **({} if curvature else {"rows": 4}))
    W, g, T, nodes = _table(surface, jet)
    h = _second_form(W, T, 2 if surface.ambient.kind is AmbientKind.FLAT else 3)
    E = np.sqrt(-T[0, 1])
    K = fd = None
    if curvature is not None:
        if curvature == "jet":
            ex, ey, exy = _jet_efield(W, g, T, E)
        else:
            ex, ey, exy = (np.reshape(e, -1) for e in _efield(surface, x, y, stencil))
            fd = fd_jet(surface, x, y, _centre=jet.L, _d=stencil)
        connection, K = _connection(E, ex, ey, exy)

    def scalar(a):  # per node -> the nodes' shape; a float at one node
        return a if a is None else a.reshape(nodes)[()]

    def vectors(a):  # (k, dim, n) -> k arrays of shape nodes + (dim,)
        return _dim_last(a.reshape(a.shape[:2] + nodes), 1)

    g_xx, g_xy, g_yy = T[0, 0], T[0, 1], T[1, 1]
    md = MetricData(scalar(g_xx), scalar(g_xy), scalar(g_yy), scalar(E),
                    (scalar(np.abs(g_xx)), scalar(np.abs(g_yy))),
                    np.moveaxis(T[:3, :3].reshape((3, 3) + nodes), (0, 1), (-2, -1)))
    frame = None if curvature is None else FrameData(*vectors(W[:2] / E), *map(scalar, connection))
    h12, h11, h22 = [*vectors(np.divide(h, E**2, out=h)), None, None][:3]  # h12 alone for H
    forms = FundamentalForms(md, frame, h11, h12, h22, -h12, scalar(K), fd)
    return jet, forms


def grid_values(surface: SurfaceMap, shape, fields, *, curvature="jet"):
    """Per-node quantities over a grid, computed block by block.

    Each entry of ``fields`` maps ``(x, y, jet, forms)`` on a block of
    nodes (the block's axes, x of shape (rows, 1) and y of shape (1, cols))
    to an array of leading shape (rows, cols).
    A block spans whole rows of the grid when a row fits in BLOCK_NODES,
    and part of one row otherwise.  One array per field comes back, of
    shape (nx, ny) plus whatever the field appends, in the node order of
    ``grid_points``.  ``curvature`` is passed to ``_forms``: "stencil"
    takes K from the E-field stencil and adds the FD jet; None computes H
    alone (the jet then carries L, L_x, L_y and L_xy, and the forms the
    metric, h12 and H).

    ``surface`` may be built on a fold's curves: each array then gets a
    leading draw axis, and a block holds at most
    ``_draws_per_block`` whole draws (``_grid_blocks``).
    """
    xs, ys = grid_axes(surface.domain, shape)
    _check_point(surface, xs, ys, 0.0)
    out, draws = [None] * len(fields), _draw_count(surface.sources)
    stencil = curvature == "stencil"  # the sources at the stencils' abscissae too
    for at, x, y, d in _grid_blocks(shape, xs, ys, surface.sources, lambda c, t: _tables(
            c, _abscissae(t)[0], _PARTS) if stencil else _tables(c, t)):
        jet, forms = _forms(surface, x, y, curvature, d)
        for i, field in enumerate(fields):
            value = field(x, y, jet, forms)
            if out[i] is None:
                out[i] = np.empty((draws,) * (len(at) - 2) + (xs.size, ys.size)
                                  + value.shape[len(at):], value.dtype)
            out[i][at] = value
        jet = forms = value = None  # this block's arrays die before the next block's jet
    return out


# ---------------------------------------------------------------------------
# point views


def point_forms(surface: SurfaceMap, x: float, y: float) -> tuple[Jet2, FundamentalForms]:
    """Jet plus fundamental forms at one point."""
    return _forms(surface, x, y)


def second_fundamental_form(surface: SurfaceMap, x: float, y: float) -> FundamentalForms:
    """Metric, frame, h on the null frame, mean curvature vector, and K."""
    return point_forms(surface, x, y)[1]


def gauss_curvature(surface: SurfaceMap, x: float, y: float) -> float:
    """K = (2 E E_xy - 2 E_x E_y)/E^4, exact from the third-order jet."""
    return point_forms(surface, x, y)[1].K


def _hnorm(x, y, jet, forms):
    return np.max(np.abs(forms.H), axis=-1)


def mean_curvature_norm(surface: SurfaceMap, x: float, y: float) -> float:
    """Max-norm of the mean curvature vector H = -h(e1,e2) at one point."""
    return _hnorm(x, y, *_forms(surface, x, y, curvature=None))


def minimality_residual(surface: SurfaceMap, grid=DEFAULT_GRID,
                        tol: float = DEFAULT_TOLS["minimality"]) -> ConditionReport:
    """Max over the grid of the max-norm of H; pass iff below tol."""
    (residuals,) = grid_values(surface, grid, [_hnorm], curvature=None)
    return ConditionReport.from_max(
        "minimality", residuals, tol, surface.grid_description(grid), surface.grid(grid),
        note="max-norm of the mean curvature vector")
