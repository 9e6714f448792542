"""The FD subgrid's stencils are light enough to check a sweep's whole
fold of draws at once, and give the same bits as the full stencils did:
``tangent`` is the jet's (L_x, L_y); ``fd_jet`` and the E-field stencil,
which evaluate their offsets on a block's own axes, a group at a time,
equal the stencils evaluated on every node, one offset at a time.  Each
is checked on a single surface and on a fold of draws, built as a sweep
builds it (``curves._valid_rows``, ``harness._premise_phases``).  The
subgrid pass over a fold of 40 draws peaks at most 2x the grid pass over
a 9x9 block of 12 draws.  The chart jet, which writes its fields into the
grid pass's table, gives the bits of the point path."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from lorentzmin import diffgeo, harness
from lorentzmin.curves import FAMILIES, _valid_rows
from lorentzmin.errors import DegenerateMetricError
from lorentzmin.harness import FD_SUBGRID, SURFACE_FAMILIES, SurfaceSpec
from lorentzmin.indefinite import indefinite_dot
from lorentzmin.report import default_tolerances
from lorentzmin.surfaces import _FIELDS, Jet2, _col, _draw_count, grid_axes

#: 40 valid parameter sets of each curve-built family (a sweep's fold), one
#: term structure each
DRAWS = {
    "sphere_b": ("Ex7_1", [{"a": a, "p": 3, "q": 1, "r": 2} for a in np.linspace(1, 1.25, 40)]),
    "sphere_c": ("Ex7_2", [{"p": p, "q": 1.5, "r": 1} for p in np.linspace(2.9, 3.15, 40)]),
    "hyp_ii": ("Ex8_1", [{"a": 1, "b": b, "p": 1, "q": 1.5} for b in np.linspace(1.1, 1.35, 40)]),
    "hyp_iii": ("Ex8_2", [{"a": a, "b": 0.7, "p": 1.1, "q": 1.5, "r": 1.1, "s": 1.5}
                          for a in np.linspace(0.6, 0.7, 40)]),
}


def _curves(family, grid=(9, 9), draws=None):
    """The spec and each draw's curves (the first ``draws`` draws)."""
    curve_family, params = DRAWS[family]
    specs = [SurfaceSpec(family=family, grid=grid, curves=(
        {"family_id": curve_family, "params": dict(p)},)) for p in params[:draws]]
    return specs[0], [tuple(harness._resolve_curves(spec)[0]) for spec in specs]


def _surfaces(family, draws=6):
    spec, curves = _curves(family, draws=draws)
    premise = default_tolerances()["premise"]
    return [SURFACE_FAMILIES[family].build(c, spec.resolved_domain(), premise) for c in curves]


def _surface(family, draws):
    """The first draw's surface, or the first ``draws`` draws as a sweep's
    fold makes them: curves from the tables their validation built, then one
    surface."""
    if draws == 1:
        return _surfaces(family, 1)[0]
    curve_family, params = DRAWS[family]
    values = np.array([[p[k] for k in FAMILIES[curve_family]["params"]] for p in params[:draws]])
    rows, curves = _valid_rows(curve_family, values)
    spec = SurfaceSpec(family=family, grid=(9, 9))
    *_, surface = harness._premise_phases(spec, curves, default_tolerances())
    assert len(rows) == _draw_count(surface.sources) == draws
    return surface


def _fd_jet_on_every_node(surface, x, y):
    """``fd_jet`` as it was before its line offsets were evaluated per axis:
    all 17 offsets of every node stacked into one ``position`` call."""
    x, y = np.broadcast_arrays(x, y)
    hx, hy = (diffgeo.FD_STEP * np.maximum(1.0, np.abs(t)) for t in (x, y))
    zero = np.zeros_like(x)
    offsets = [(zero, zero)]
    offsets += [(hx, zero), (-hx, zero), (hx / 2, zero), (-hx / 2, zero)]
    offsets += [(zero, hy), (zero, -hy), (zero, hy / 2), (zero, -hy / 2)]
    for u, v in ((hx, hy), (hx / 2, hy / 2)):
        offsets += [(u, v), (u, -v), (-u, v), (-u, -v)]
    dx, dy = (np.stack(d) for d in zip(*offsets))
    p = surface.position(x + dx, y + dy)
    c = p[0]

    def rich1(q, h):
        d1 = (q[0] - q[1]) / _col(2 * h)
        d2 = (q[2] - q[3]) / _col(h)
        return (4 * d2 - d1) / 3

    def rich2(q, h):
        d1 = (q[0] - 2 * c + q[1]) / _col(h**2)
        d2 = (q[2] - 2 * c + q[3]) / _col((h / 2) ** 2)
        return (4 * d2 - d1) / 3

    def cross(q, hx, hy):
        return (q[0] - q[1] - q[2] + q[3]) / _col(4 * hx * hy)

    return Jet2(L=c, Lx=rich1(p[1:5], hx), Ly=rich1(p[5:9], hy), Lxx=rich2(p[1:5], hx),
                Lxy=(4 * cross(p[13:17], hx / 2, hy / 2) - cross(p[9:13], hx, hy)) / 3,
                Lyy=rich2(p[5:9], hy))


def _efield_per_offset(surface, x, y):
    """``diffgeo._efield`` with one ``tangent`` call per offset, on every node."""
    x, y = np.broadcast_arrays(x, y)
    hx, hy = (diffgeo.K_STEP_ANALYTIC * np.maximum(1.0, np.abs(t)) for t in (x, y))

    def e(u, v):
        lx, ly = surface.tangent(u, v)
        return np.sqrt(-indefinite_dot(lx, ly, surface.ambient.embedding_signature.index))

    pp, pm, mp, mm = e(x + hx, y + hy), e(x + hx, y - hy), e(x - hx, y + hy), e(x - hx, y - hy)
    return ((pp + pm - mp - mm) / (4 * hx), (pp - pm + mp - mm) / (4 * hy),
            (pp - pm - mp + mm) / (4 * hx * hy))


@pytest.mark.parametrize("draws", [1, 6])
@pytest.mark.parametrize("family", sorted(DRAWS))
def test_tangent_is_the_jets_lx_and_ly(family, draws):
    surface = _surface(family, draws)
    x, y = np.broadcast_arrays(*grid_axes(surface.domain, FD_SUBGRID))
    # offsets on a leading axis, as the E-field stencil passes them
    d = np.linspace(-1e-3, 1e-3, 8)[:, None, None]
    lx, ly = surface.tangent(x + d, y - d)
    jet = surface.jet(x + d, y - d)
    assert lx.shape == jet.Lx.shape == (8,) + (draws,) * (draws > 1) + FD_SUBGRID + (
        surface.ambient.embedding_signature.dim,)
    assert np.array_equal(lx, jet.Lx) and np.array_equal(ly, jet.Ly)


@pytest.mark.parametrize("draws", [1, 6])
@pytest.mark.parametrize("family", sorted(DRAWS))
def test_per_axis_fd_jet_equals_the_stencil_on_every_node(family, draws):
    surface = _surface(family, draws)
    xs, ys = grid_axes(surface.domain, FD_SUBGRID)
    got, want = diffgeo.fd_jet(surface, xs, ys), _fd_jet_on_every_node(surface, xs, ys)
    for field in ("L", "Lx", "Ly", "Lxx", "Lxy", "Lyy"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize("draws", [1, 3])
@pytest.mark.parametrize("family", sorted(DRAWS))
def test_table_jet_gives_the_bits_of_copied_fields_and_of_the_point_path(family, draws):
    # the chart jet writes its fields into the table of diffgeo._table
    # (Jet2.table); the fields the grid pass copies out of it, over two
    # blocks, have the bits of partials()'s
    surface = _surface(family, draws)
    shape = (40, 40)  # two blocks of 1,024 nodes at most
    axes = grid_axes(surface.domain, shape)
    assert surface.jet(*axes).table is not None
    fields = [lambda x, y, jet, f, name=name: getattr(jet, name) for name in _FIELDS]
    table = diffgeo.grid_values(surface, shape, fields)
    jet = diffgeo.partials(surface, *axes)
    for got, name in zip(table, _FIELDS):
        assert got.tobytes() == np.ascontiguousarray(getattr(jet, name)).tobytes(), name


@pytest.mark.parametrize("draws", [1, 40])
@pytest.mark.parametrize("family", sorted(DRAWS))
def test_axis_efield_equals_the_stencil_on_every_node(family, draws):
    # 40 draws of 25 nodes take two offsets per tangent call
    surface = _surface(family, draws)
    xs, ys = grid_axes(surface.domain, FD_SUBGRID)
    for got, want in zip(diffgeo._efield(surface, xs, ys), _efield_per_offset(surface, xs, ys)):
        assert got.shape == want.shape and np.array_equal(got, want)


def _peak(run):
    run()  # warm-up
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _pass_peak(family, draws, shape, curvature, pick):
    stack = _surface(family, draws)
    fields = [e[1] for e in harness._check_plan(stack)[pick]]
    return _peak(lambda: diffgeo.grid_values(stack, shape, fields, curvature=curvature))


def test_subgrid_pass_of_six_draws_peaks_near_the_grid_pass():
    # measured at 1.12x (1.14 vs 1.02 MiB) with the E-field's offsets and the
    # FD crosses two at a time, 1.30x (1.92 vs 1.47 MiB) with each eight in one
    # call; the full stencils, before the per-axis FD jet and the tangent-only
    # E-field, peaked at 3.50 MiB (2.6x)
    grid = _pass_peak("hyp_iii", 6, (9, 9), "jet", 0)
    subgrid = _pass_peak("hyp_iii", 6, FD_SUBGRID, "stencil", 1)
    assert subgrid <= 1.5 * grid, (subgrid / 2**20, grid / 2**20)


@pytest.mark.parametrize("family", sorted(DRAWS))
def test_subgrid_pass_of_a_fold_peaks_near_a_grid_block(family):
    # a sweep's fold is one subgrid block of 40 draws; the grid pass's 9x9
    # block holds 12.  With the E-field and FD steps scaled by max(1, |x|,
    # |y|) and their offsets on every node, the ratio was 2.28-3.27x
    per = diffgeo._draws_per_block(FD_SUBGRID)
    assert per == 40 and diffgeo._draws_per_block((9, 9)) == 12
    grid = _pass_peak(family, 12, (9, 9), "jet", 0)
    subgrid = _pass_peak(family, per, FD_SUBGRID, "stencil", 1)
    assert subgrid <= 2 * grid, (subgrid / 2**20, grid / 2**20)


def test_efield_names_the_offset_where_g_xy_turns(monkeypatch):
    # L_y reversed at one E-field offset, (x - h, y - h) of the subgrid node
    # (0.6, 0.85), makes g_xy positive there alone; the grid pass uses the jet
    spec = SurfaceSpec(family="sphere_b", grid=(5, 5), curves=(
        {"family_id": "Ex7_1", "params": DRAWS["sphere_b"][1][0]},))
    surface = _surfaces("sphere_b", 1)[0]
    x0, y0 = 0.6 - diffgeo.K_STEP_ANALYTIC, 0.85 - diffgeo.K_STEP_ANALYTIC
    lx, ly = surface.tangent(x0, y0)
    g = -indefinite_dot(lx, ly, surface.ambient.embedding_signature.index)
    message = f"g_xy = {g:g} >= 0 at ({x0:g}, {y0:g})"

    def tangent(x, y, *d):
        lx, ly = surface.tangent(x, y, *d)
        at = np.broadcast_to((x == x0) & (y == y0), lx.shape[:-1])
        return lx, np.where(at[..., None], -ly, ly)

    reversed_ = dataclasses.replace(surface, tangent=tangent)
    with pytest.raises(DegenerateMetricError) as err:
        diffgeo._efield(reversed_, *grid_axes(surface.domain, FD_SUBGRID))
    assert str(err.value) == message
    build = SURFACE_FAMILIES["sphere_b"].build
    monkeypatch.setitem(SURFACE_FAMILIES, "sphere_b", dataclasses.replace(
        SURFACE_FAMILIES["sphere_b"], build=lambda *a: dataclasses.replace(
            build(*a), tangent=tangent)))
    report = harness.verify(spec)
    assert not report.overall_pass
    (check,) = [c for c in report.checks if not c.passed]
    assert check.condition_id == "metric-signature"
    assert check.note == f"induced metric left null form: {message}"
