"""Golden reports: every shipped spec in ``specs/`` must keep its report,
and every built-in curve family its default sweep.

``tests/golden/<spec>.json`` holds ``verify(spec).to_dict(include_timings=False)``
for each spec, ``tests/golden/sweeps/<family>.json`` the summary of
``sweep(family, n=5, rng_seed=0)`` with the family's default sampler,
``tests/golden/sweeps/Ex7_2-box.json`` that of an Ex7_2 sweep whose draws
are valid (``SWEEPS``), and ``tests/golden/list_families.json`` the catalog
of ``list_families()``.
After an intended change to a report, regenerate them from the current
code with

    PYTHONPATH=src python tests/test_golden.py --write

and review the diff.  The comparison rules:

* everything outside the check residuals and worst points matches exactly,
  including check ids, their order and their verdicts;
* residuals agree within a factor of 10, or within 1e-15 absolute;
* worst points match exactly for failing checks and for lower-bound
  checks (``tol == 0``, see ``ConditionReport.from_min``);
* for passing upper-bound checks only the residual is compared: their
  worst point sits at floating-point noise level and moves with the
  summation order;
* a sweep summary matches exactly outside its worst residuals, which
  follow the residual rule above;
* the catalog matches exactly.
"""

from __future__ import annotations

import argparse
import json
import pathlib

import pytest

from lorentzmin.curves import FAMILIES
from lorentzmin.harness import dumps_json, list_families, sweep, verify

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC_DIR = ROOT / "specs"
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
SPECS = sorted(p.stem for p in SPEC_DIR.glob("*.json"))
SWEEP_DIR = GOLDEN_DIR / "sweeps"
SWEEP_N, SWEEP_SEED = 5, 0
#: The golden sweeps by name: (family, sampler config, n), each on seed
#: SWEEP_SEED.  Ex7_2's default chain sampler draws no valid set, so it
#: has a box of 10% about sphere_c_ex72's (p, q, r) too: 18 of its 20
#: draws are valid, and all of them pass
SWEEPS = {**{family: (family, None, SWEEP_N) for family in sorted(FAMILIES)},
          "Ex7_2-box": ("Ex7_2", {"mode": "box_around", "center": [3, 1.5, 1], "rel": 0.1}, 20)}
CATALOG = GOLDEN_DIR / "list_families.json"

RESIDUAL_FACTOR = 10.0
RESIDUAL_ABS = 1e-15


def current_report(name: str) -> dict:
    spec = json.loads((SPEC_DIR / f"{name}.json").read_text())
    return json.loads(dumps_json(verify(spec).to_dict(include_timings=False)))


def residuals_agree(got: float, want: float) -> bool:
    if abs(got - want) <= RESIDUAL_ABS:
        return True
    if got * want <= 0:
        return False
    lo, hi = sorted((abs(got), abs(want)))
    return hi <= RESIDUAL_FACTOR * lo


def assert_matches(got: dict, want: dict) -> None:
    strip = ("checks",)
    assert {k: v for k, v in got.items() if k not in strip} == {
        k: v for k, v in want.items() if k not in strip}
    assert [c["condition_id"] for c in got["checks"]] == [
        c["condition_id"] for c in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        cid = g["condition_id"]
        for key in ("passed", "tol", "grid", "note"):
            assert g[key] == w[key], (cid, key, g[key], w[key])
        assert residuals_agree(g["max_residual"], w["max_residual"]), (
            cid, g["max_residual"], w["max_residual"])
        if not w["passed"] or w["tol"] == 0.0:
            assert g["worst_point"] == w["worst_point"], (
                cid, g["worst_point"], w["worst_point"])


def current_sweep(name: str) -> dict:
    family, config, n = SWEEPS[name]
    return json.loads(dumps_json(sweep(family, config, n=n, rng_seed=SWEEP_SEED)))


def assert_sweep_matches(got: dict, want: dict) -> None:
    strip = ("worst_residuals",)
    assert {k: v for k, v in got.items() if k not in strip} == {
        k: v for k, v in want.items() if k not in strip}
    assert sorted(got["worst_residuals"]) == sorted(want["worst_residuals"])
    for cid, value in want["worst_residuals"].items():
        assert residuals_agree(got["worst_residuals"][cid], value), (
            cid, got["worst_residuals"][cid], value)


def current_catalog() -> dict:
    return json.loads(dumps_json(list_families()))


def test_every_spec_has_a_golden_report():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json") if p != CATALOG) == SPECS


@pytest.mark.parametrize("name", SPECS)
def test_report_matches_golden(name):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert_matches(current_report(name), want)


def test_every_curve_family_has_a_golden_sweep():
    assert sorted(p.stem for p in SWEEP_DIR.glob("*.json")) == sorted(SWEEPS)
    assert set(FAMILIES) < set(SWEEPS)
    box = json.loads((SWEEP_DIR / "Ex7_2-box.json").read_text())
    assert box["surface_family"] == "sphere_c" and box["passed"] == box["valid"] == 18


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_golden(name):
    want = json.loads((SWEEP_DIR / f"{name}.json").read_text())
    assert_sweep_matches(current_sweep(name), want)


def test_catalog_matches_golden():
    assert current_catalog() == json.loads(CATALOG.read_text())


@pytest.mark.parametrize("got, want, ok", [
    (1e-12, 9e-12, True),
    (1e-12, 2e-11, False),
    (0.0, 5e-16, True),
    (0.0, 1e-13, False),
    (-1.0, 1.0, False),
])
def test_residual_rule(got, want, ok):
    assert residuals_agree(got, want) is ok


def write_goldens() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in SPECS:
        report = current_report(name)
        text = json.dumps(report, indent=1, sort_keys=True)
        (GOLDEN_DIR / f"{name}.json").write_text(text + "\n")
        print(f"wrote {GOLDEN_DIR / name}.json")
    SWEEP_DIR.mkdir(exist_ok=True)
    for name in sorted(SWEEPS):
        text = json.dumps(current_sweep(name), indent=1, sort_keys=True)
        (SWEEP_DIR / f"{name}.json").write_text(text + "\n")
        print(f"wrote {SWEEP_DIR / name}.json")
    CATALOG.write_text(json.dumps(current_catalog(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {CATALOG}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate tests/golden/ from the current code")
    if parser.parse_args().write:
        write_goldens()
    else:
        parser.print_help()
