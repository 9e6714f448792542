"""The export writer: ``harness._format_rows`` prints every double exactly as
``FLOAT_FORMAT % v`` does, and ``lms export`` round-trips the grid values
bit for bit, as the README claims."""

from __future__ import annotations

import json
import pathlib
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lorentzmin import diffgeo, harness
from lorentzmin.harness import (EXPORT_VALUES, FLOAT_FORMAT, SurfaceSpec, _decimal,
                                _format_rows, _times_p10, export_samples)
from lorentzmin.report import default_tolerances

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"
SPECS = sorted(p.stem for p in SPEC_DIR.glob("*.json"))
SEPARATORS = [(",", ""), (" ", "v ")]


def reference(table, sep: str, prefix: str = "") -> str:
    """The per-row ``%`` writer that exports used before the vectorised one."""
    row = prefix + sep.join([FLOAT_FORMAT] * np.shape(table)[1])
    return "".join(row % tuple(r) + "\n" for r in np.asarray(table, float).tolist())


def blocks(values, cols: int = 17, rows: int = 120):
    """``values`` as tables of ``cols`` columns, ``rows`` rows at a time."""
    table = np.asarray(values, float).reshape(-1, cols)
    return [table[i:i + rows] for i in range(0, len(table), rows)]


def is_tie(v: float) -> bool:
    """True if ``%.17e`` rounds ``v`` from exactly halfway between two outputs."""
    digits = Decimal(v).normalize().as_tuple().digits
    return len(digits) == 19 and digits[-1] == 5


class TestExactness:
    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20240612).integers(0, 2**64, 17 * 12_000, np.uint64)
        for table in blocks(bits.view(np.float64)):
            assert _format_rows(table, ",") == reference(table, ",")

    def test_every_decade_of_the_exact_range(self):
        rng = np.random.default_rng(7)
        values = 10 ** rng.uniform(-40, 18, 17 * 6_000) * rng.choice([-1.0, 1.0], 17 * 6_000)
        for table in blocks(values):
            assert _format_rows(table, " ", "v ") == reference(table, " ", "v ")

    @pytest.mark.parametrize("scale, base", [(2.0**-18, 2**20), (2.0**-30, 1)],
                             ids=["2**-18", "2**-30"])
    def test_exact_ties_round_half_to_even(self, scale, base):
        values = [(base + j) * scale for j in range(17 * 120)]
        assert sum(map(is_tie, values)) >= 20
        (table,) = blocks(values)
        assert _format_rows(table, ",") == reference(table, ",")

    def test_edges(self):
        powers = [float(f"1e{k}") for k in range(-39, 18)]
        edges = [0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max, np.nan, np.inf, -np.inf,
                 1 + 2**-18, 1 + 3 * 2**-18, 9.999999999999999e16, 1e-38, -1e-38,
                 np.nextafter(1e-38, 0), np.nextafter(1e-38, 1)]
        edges += [w for v in powers for w in (np.nextafter(v, 0), v, np.nextafter(v, np.inf))]
        table = np.array(edges)[:, None]
        assert _format_rows(table, ",") == reference(table, ",")
        text = _format_rows(np.array([[0.0, -0.0, 1 + 2**-18]]), ",")
        assert text == "0.00000000000000000e+00,-0.00000000000000000e+00,1.00000381469726562e+00\n"

    def test_estimate_is_exact_to_ten_to_the_22_and_within_1e_12_above(self):
        rng = np.random.default_rng(11)
        a = 10 ** (np.repeat(np.arange(-38, 17), 200) + rng.uniform(0, 1, 55 * 200))
        a = a[(a > 1e-38) & (a < 1e17)]
        p = 17 - _decimal(a)[1]
        floor, frac = _times_p10(a, p)
        errors = [abs(int(f) + Fraction(r) - Fraction(v) * 10**q)
                  for v, q, f, r in zip(a.tolist(), p.tolist(), floor.tolist(), frac.tolist())]
        exact = [e for e, q in zip(errors, p.tolist()) if q <= 22]
        above = [e for e, q in zip(errors, p.tolist()) if q > 22]
        assert len(exact) >= 2_000 and len(above) >= 2_000
        assert max(exact) == 0
        # at least 1000x inside the 1e-9 window that sends a value to ``%``
        assert max(above) < 1e-12

    def test_values_too_close_to_call_print_as_percent(self, monkeypatch):
        # the 2**-30 ties above: all of them have 17 - k > 22
        values = np.array([(1 + j) * 2.0**-30 for j in range(17 * 120)])
        close = _decimal(values)[2]
        assert close.sum() >= 20
        printed = []
        monkeypatch.setattr(harness, "format_float",
                            lambda v: printed.append(v) or FLOAT_FORMAT % v)
        (table,) = blocks(values)
        assert _format_rows(table, ",") == reference(table, ",")
        assert printed == values[close].tolist()

    @given(st.sampled_from([1, 3, 17]).flatmap(
               lambda width: st.lists(st.lists(st.floats(), min_size=width, max_size=width),
                                      min_size=1, max_size=6)),
           st.sampled_from(SEPARATORS))
    def test_any_floats(self, table, separator):
        sep, prefix = separator
        assert _format_rows(np.array(table), sep, prefix) == reference(table, sep, prefix)


def grid_values(spec: SurfaceSpec):
    """The exported columns of ``spec``, computed as ``export_samples`` does."""
    curves, _ = harness._resolve_curves(spec)
    *_, surface = harness._premise_phases(spec, curves,
                                          {**default_tolerances(), **spec.tolerances})
    positions, residuals = diffgeo.grid_values(
        surface, spec.grid,
        [lambda x, y, jet, f: jet.L, lambda x, y, jet, f: harness._vmax(f.H)], curvature=None)
    return surface.grid(spec.grid), positions.reshape(len(residuals.ravel()), -1), residuals


@pytest.mark.parametrize("name, n", [pytest.param(name, 9, id=name) for name in SPECS]
                         + [pytest.param("hyp_iii_ex82", 41, id="hyp_iii_ex82-41x41")])
def test_exports_round_trip_the_grid_values(name, n, tmp_path):
    spec = SurfaceSpec.from_dict({**json.loads((SPEC_DIR / f"{name}.json").read_text()),
                                  "grid": [n, n]})
    nodes, positions, residuals = grid_values(spec)
    table = np.column_stack([nodes, positions, residuals.ravel()])
    # 9x9 is one csv write; hyp_iii's 17 columns at 41x41 take four
    assert table.size < EXPORT_VALUES if n == 9 else table.size > 3 * EXPORT_VALUES

    export_samples(spec, str(tmp_path / "s.csv"), "csv")
    header, body = (tmp_path / "s.csv").read_text().split("\n", 1)
    assert body == reference(table, ",")
    parsed = np.array([[float(cell) for cell in line.split(",")] for line in body.splitlines()])
    assert len(header.split(",")) == table.shape[1] == parsed.shape[1]
    # bit for bit, so the sign of zero counts
    assert np.array_equal(parsed.view(np.uint64), table.view(np.uint64))

    export_samples(spec, str(tmp_path / "s.obj"), "obj")
    vertices = [line[2:] for line in (tmp_path / "s.obj").read_text().splitlines()
                if line.startswith("v ")]
    first3 = np.zeros((len(positions), 3))
    first3[:, :min(3, positions.shape[1])] = positions[:, :3]
    assert np.array_equal(np.array([[float(c) for c in v.split(" ")] for v in vertices])
                          .view(np.uint64), first3.view(np.uint64))
    assert "".join(f"v {v}\n" for v in vertices) == reference(first3, " ", "v ")


def reference_faces(nx: int, ny: int) -> str:
    """The per-face f-string generator that obj exports used before the
    vectorised writer."""
    return "".join(f"f {a} {a + ny} {a + ny + 1} {a + 1}\n"
                   for a in (i * ny + j + 1 for i in range(nx - 1) for j in range(ny - 1)))


FACE_GRIDS = [(2, 2), (5, 4), (3, 7), (30, 25), (60, 50)]


@pytest.mark.parametrize("grid", FACE_GRIDS)
def test_obj_faces_equal_the_per_face_writer(grid, tmp_path):
    # (60, 50) has 2891 faces, more than one write of EXPORT_VALUES // 4
    assert max((nx - 1) * (ny - 1) for nx, ny in FACE_GRIDS) > EXPORT_VALUES // 4
    spec = {"family": "translation", "curves": [{"name": "hyp6"}, {"name": "trig6"}],
            "grid": list(grid)}
    export_samples(spec, str(tmp_path / "s.obj"), "obj")
    text = (tmp_path / "s.obj").read_text()
    assert text[text.index("\nf ") + 1:] == reference_faces(*grid)
