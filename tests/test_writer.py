"""The export writer: ``harness._format_rows`` prints every double exactly as
``FLOAT_FORMAT % v`` does, and ``lms export`` round-trips the grid values
bit for bit, as the README claims."""

from __future__ import annotations

import json
import pathlib
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lorentzmin import diffgeo, harness
from lorentzmin.harness import FLOAT_FORMAT, SurfaceSpec, _format_rows, export_samples
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


@pytest.mark.parametrize("name", SPECS)
def test_exports_round_trip_the_grid_values(name, tmp_path):
    spec = SurfaceSpec.from_dict({**json.loads((SPEC_DIR / f"{name}.json").read_text()),
                                  "grid": [9, 9]})
    nodes, positions, residuals = grid_values(spec)
    table = np.column_stack([nodes, positions, residuals.ravel()])

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


@pytest.mark.parametrize("grid", [(2, 2), (5, 4), (3, 7), (30, 25)])
def test_obj_faces_equal_the_per_face_writer(grid, tmp_path):
    # (30, 25) has 696 faces, more than one write of EXPORT_VALUES // 4
    spec = {"family": "translation", "curves": [{"name": "hyp6"}, {"name": "trig6"}],
            "grid": list(grid)}
    export_samples(spec, str(tmp_path / "s.obj"), "obj")
    text = (tmp_path / "s.obj").read_text()
    assert text[text.index("\nf ") + 1:] == reference_faces(*grid)
