"""Fuzzing of the CLI's input handling.

Specs and sampler configs start well-formed (the shipped specs on grids
of at most 5x5, the samplers' own keys) and then have up to three values,
at any depth, replaced by or added as arbitrary JSON values.  Whatever the
input, ``lms`` must exit 0, 1 or 2 without an exception escaping; exit 2
prints exactly one ``error:`` line, and exits 0 and 1 print a result
whose verdict matches the code.  Anything put under "grid" is again a
grid of at most 5x5, so the suite stays fast.
"""

import copy
import json
import pathlib

from hypothesis import given
from hypothesis import strategies as st

from lorentzmin.cli import main
from lorentzmin.curves import FAMILIES
from lorentzmin.harness import _default_sampler
from lorentzmin.report import DEFAULT_TOLS

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"
SHIPPED = [json.loads(p.read_text()) for p in sorted(SPEC_DIR.glob("*.json"))]

SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=4))
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)
#: numbers at the edges of the parameter domains and of the double range
EXTREMES = st.sampled_from([0, -1, 1, 1e-200, 1e200, 10**400, float("nan"), float("inf")])
VALUES = EXTREMES | st.floats(-2, 4) | JSON

SMALL_GRID = st.lists(st.integers(2, 5), min_size=2, max_size=2)
#: what a corruption puts under "grid": never a grid above 5x5
GRID = SMALL_GRID | st.lists(st.integers(-1, 5) | SCALARS.filter(
    lambda v: not isinstance(v, int) or isinstance(v, bool)), max_size=3) | SCALARS

#: keys a corruption may add to an object, besides arbitrary text
KEYS = sorted({"family", "curves", "domain", "grid", "tolerances", "x", "y", "family_id",
               "params", "name", "alt_pairing", "mode", "a_box", "pqr_box", "min_gap",
               "qr_box", "center", "rel", *DEFAULT_TOLS,
               *(p for f in FAMILIES.values() for p in f["params"])})


def _containers(value, path=()):
    """Paths to every object and array inside a JSON value."""
    if isinstance(value, (dict, list)):
        yield path
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _containers(item, path + (key,))


@st.composite
def corrupted(draw, base):
    value = copy.deepcopy(base)
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_containers(value))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        container = value
        for key in path:
            container = container[key]
        if isinstance(container, dict):
            key = draw(st.sampled_from(sorted(container) + KEYS) | st.text(max_size=4))
        else:
            key = draw(st.integers(0, len(container)))
        grid = "grid" in path or key == "grid"
        new = draw(GRID if grid else VALUES)
        if grid and "grid" in path:  # replace the whole grid
            container, key = value, "grid"
        if isinstance(container, list) and key == len(container):
            container.append(new)
        else:
            container[key] = new
    return value


SPECS = st.builds(lambda spec, grid: {**spec, "grid": grid},
                  st.sampled_from(SHIPPED), SMALL_GRID).flatmap(corrupted)

#: (curve family, sampler config): the family's default config on a small
#: grid, corrupted
SWEEPS = st.tuples(st.sampled_from(sorted(FAMILIES)), SMALL_GRID).flatmap(
    lambda fg: st.tuples(st.just(fg[0]),
                         corrupted({**_default_sampler(fg[0]), "grid": fg[1]})))


def _check_exit(code, out, err, verdict):
    # stderr may also carry numpy's overflow warnings, before the error
    assert code in (0, 1, 2)
    if code == 2:
        errors = [line for line in err.split("\n") if line.startswith("error: ")]
        assert len(errors) == 1 and err.endswith(errors[0] + "\n"), err
    else:
        assert verdict(json.loads(out)) == (code == 0)


def test_verify_fuzz_exits_cleanly(tmp_path, capsys):
    path = tmp_path / "spec.json"

    @given(spec=SPECS)
    def run(spec):
        path.write_text(json.dumps(spec))
        code = main(["verify", "--spec", str(path), "--no-timings"])
        out, err = capsys.readouterr()
        _check_exit(code, out, err, lambda report: report["overall_pass"])

    run()


def test_sweep_sampler_config_fuzz_exits_cleanly(capsys):
    @given(sweep=SWEEPS, n=st.integers(1, 2))
    def run(sweep, n):
        family, config = sweep
        code = main(["sweep", "--family", family, "--n", str(n), "--seed", "0",
                     f"--sampler-config={json.dumps(config)}"])
        out, err = capsys.readouterr()
        _check_exit(code, out, err, lambda summary: summary["failed"] == 0)

    run()
