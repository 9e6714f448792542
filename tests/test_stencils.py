"""The FD subgrid's stencils are light enough to check a sweep's whole
block of draws at once, and give the same bits as the full stencils did:
``tangent`` is the jet's (L_x, L_y), and ``fd_jet``, which evaluates its
line offsets on a block's own axes, equals the 25-offset stencil evaluated
on every node.  Each is checked on a single surface and on a stack of six
draws (``surfaces._stacked``), and the subgrid pass over six draws must
stay within 1.5x the memory of the grid pass over the same draws.  The
chart jet, which writes its fields into the grid pass's table, gives the
bits of a jet whose fields are copied there and of the point path."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from lorentzmin import diffgeo, harness
from lorentzmin.harness import FD_SUBGRID, SURFACE_FAMILIES, SurfaceSpec
from lorentzmin.report import default_tolerances
from lorentzmin.surfaces import _FIELDS, Jet2, _col, _stacked, grid_axes

#: Six valid parameter sets of each curve-built family, one term structure each
DRAWS = {
    "sphere_b": ("Ex7_1", [{"a": a, "p": 3, "q": 1, "r": 2} for a in np.linspace(1, 1.25, 6)]),
    "sphere_c": ("Ex7_2", [{"p": p, "q": 1.5, "r": 1} for p in np.linspace(2.9, 3.15, 6)]),
    "hyp_ii": ("Ex8_1", [{"a": 1, "b": b, "p": 1, "q": 1.5} for b in np.linspace(1.1, 1.35, 6)]),
    "hyp_iii": ("Ex8_2", [{"a": a, "b": 0.7, "p": 1.1, "q": 1.5, "r": 1.1, "s": 1.5}
                          for a in np.linspace(0.6, 0.7, 6)]),
}


def _surfaces(family):
    curve_family, params = DRAWS[family]
    tols = default_tolerances()
    out = []
    for p in params:
        spec = SurfaceSpec(family=family, grid=(9, 9),
                           curves=({"family_id": curve_family, "params": dict(p)},))
        curves, _ = harness._resolve_curves(spec)
        out.append(SURFACE_FAMILIES[family].build(curves, spec.resolved_domain(),
                                                  tols["premise"]))
    return out


def _fd_jet_on_every_node(surface, x, y):
    """``fd_jet`` as it was before its line offsets were evaluated per axis:
    all 25 offsets of every node stacked into one ``position`` call."""
    x, y = diffgeo._nodes(x, y)
    hx1, hy1 = (diffgeo.FIRST_STEP * np.maximum(1.0, np.abs(t)) for t in (x, y))
    hx2, hy2 = (diffgeo.SECOND_STEP * np.maximum(1.0, np.abs(t)) for t in (x, y))
    hxy = np.maximum(hx2, hy2)
    zero = np.zeros_like(x)
    offsets = [(zero, zero)]
    for h in (hx1, hx2):
        offsets += [(h, zero), (-h, zero), (h / 2, zero), (-h / 2, zero)]
    for h in (hy1, hy2):
        offsets += [(zero, h), (zero, -h), (zero, h / 2), (zero, -h / 2)]
    for h in (hxy, hxy / 2):
        offsets += [(h, h), (h, -h), (-h, h), (-h, -h)]
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

    def cross(q, h):
        return (q[0] - q[1] - q[2] + q[3]) / _col(4 * h * h)

    return Jet2(L=c, Lx=rich1(p[1:5], hx1), Ly=rich1(p[9:13], hy1), Lxx=rich2(p[5:9], hx2),
                Lxy=(4 * cross(p[21:25], hxy / 2) - cross(p[17:21], hxy)) / 3,
                Lyy=rich2(p[13:17], hy2))


@pytest.mark.parametrize("draws", [1, 6])
@pytest.mark.parametrize("family", sorted(DRAWS))
def test_tangent_is_the_jets_lx_and_ly(family, draws):
    surface = _stacked(_surfaces(family)[:draws])
    x, y = diffgeo._nodes(*grid_axes(surface.domain, FD_SUBGRID))
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
    surface = _stacked(_surfaces(family)[:draws])
    xs, ys = grid_axes(surface.domain, FD_SUBGRID)
    got, want = diffgeo.fd_jet(surface, xs, ys), _fd_jet_on_every_node(surface, xs, ys)
    for field in ("L", "Lx", "Ly", "Lxx", "Lxy", "Lyy"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize("draws", [1, 3])
@pytest.mark.parametrize("family", sorted(DRAWS))
def test_table_jet_gives_the_bits_of_copied_fields_and_of_the_point_path(family, draws):
    # the chart jet writes its fields into the table of diffgeo._table
    # (Jet2.table); rebuilt by dataclasses.replace, a jet has no table, and
    # _table copies its fields as for any other jet.  Both runs give the
    # same bits, over two blocks, and the blocks' fields are partials()'s.
    spec = SurfaceSpec(family=family, grid=(9, 9))
    surface = _stacked(_surfaces(family)[:draws])
    copied = dataclasses.replace(
        surface, jet=lambda x, y, *d: dataclasses.replace(surface.jet(x, y, *d)))
    shape = (40, 40)  # two blocks of 1,024 nodes at most
    axes = grid_axes(surface.domain, shape)
    assert surface.jet(*axes).table is not None and copied.jet(*axes).table is None
    fields = [lambda x, y, jet, f, name=name: getattr(jet, name) for name in _FIELDS] + [
        e[1] for e in harness._check_plan(spec, surface)[0]]
    table, copy = (diffgeo.grid_values(s, shape, fields) for s in (surface, copied))
    for got, want in zip(table, copy):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    jet = diffgeo.partials(surface, *axes)
    for got, name in zip(table, _FIELDS):
        assert got.tobytes() == np.ascontiguousarray(getattr(jet, name)).tobytes(), name


def test_subgrid_pass_of_six_draws_peaks_near_the_grid_pass():
    # measured at 1.12x (1.14 vs 1.02 MiB) with the E-field's offsets and the
    # FD crosses two at a time, 1.30x (1.92 vs 1.47 MiB) with each eight in one
    # call; the full stencils, before the per-axis FD jet and the tangent-only
    # E-field, peaked at 3.50 MiB (2.6x)
    spec = SurfaceSpec(family="hyp_iii", grid=(9, 9))
    stack = _stacked(_surfaces("hyp_iii"))
    assert diffgeo._draws_per_block(FD_SUBGRID) >= 6  # a sweep's block is one subgrid block

    def peak(shape, curvature, pick):
        fields = [e[1] for e in harness._check_plan(spec, stack)[pick]]
        diffgeo.grid_values(stack, shape, fields, curvature=curvature)  # warm-up
        tracemalloc.start()
        try:
            diffgeo.grid_values(stack, shape, fields, curvature=curvature)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    grid, subgrid = peak(spec.grid, "jet", 0), peak(FD_SUBGRID, "stencil", 1)
    assert subgrid <= 1.5 * grid, (subgrid / 2**20, grid / 2**20)
