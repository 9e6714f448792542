"""The scripts under ``scripts/`` run and exit 0."""

import hashlib
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPECS = sorted(p.stem for p in (ROOT / "specs").glob("*.json"))


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})


def test_verify_examples_reports_every_shipped_spec(tmp_path):
    result = run_script("verify_examples.py", "--json-out", str(tmp_path))
    assert result.returncode == 0, result.stdout + result.stderr
    rows = result.stdout.splitlines()
    assert len(rows) == 6
    assert [row.split()[0] for row in rows] == SPECS
    assert sorted(p.stem for p in tmp_path.glob("*.json")) == SPECS
    report = json.loads((tmp_path / "de_sitter_control.json").read_text())
    assert report["overall_pass"] is False


def test_sweep_examples_has_no_failed_draw():
    result = run_script("sweep_examples.py", "--chain-draws", "300")
    assert result.returncode == 0, result.stdout + result.stderr
    summaries = [line for line in result.stdout.splitlines() if not line.startswith(" ")]
    assert [line.split(":")[0] for line in summaries] == ["Ex7_1", "Ex7_2", "Ex8_1", "Ex8_2"]
    assert all(line.endswith("failed=0") for line in summaries)


def test_deterministic_outputs_names_each_output_once_and_writes_one(tmp_path):
    listed = run_script("deterministic_outputs.py", "--list")
    assert listed.returncode == 0, listed.stderr
    names = listed.stdout.split()
    assert len(names) == len(set(names)) == 86
    name = "export-translation_demo.csv"
    result = run_script("deterministic_outputs.py", "--out", str(tmp_path), "--only", name)
    assert result.returncode == 0, result.stdout + result.stderr
    manifest = (tmp_path / "MANIFEST").read_text()
    digest, code, written = manifest.split()
    assert (code, written) == ("0", name)
    assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert (tmp_path / name).read_text().startswith("x,y,L_1,")
    # --compare names each output whose digest or exit code differs, and says
    # what moved when the old output sits beside the old manifest
    (tmp_path / "bare").mkdir()
    for old, code, beside, bare in (
            (manifest, 0, [], []),
            (manifest.replace(" 0 ", " 1 "), 1, [name, "verdicts"], [name]),
            ("0" * 64 + f" 0 {name}\n", 1, [name, "residuals", "1"], [name])):
        for where, out in ((tmp_path, beside), (tmp_path / "bare", bare)):
            (where / "OLD").write_text(old)
            result = run_script("deterministic_outputs.py", "--out", str(tmp_path / "again"),
                                "--only", name, "--compare", str(where / "OLD"))
            assert (result.returncode, result.stdout.split()[1:]) == (code, out)


def test_deterministic_outputs_compare_tells_verdicts_from_residuals(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "outputs", ROOT / "scripts" / "deterministic_outputs.py")
    outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs)
    # a residual that turns NaN, or from NaN to a number, moved without bound
    assert outputs._ratio(1e-8, "nan") == outputs._ratio("nan", 1e-8) == math.inf
    assert outputs._ratio("nan", "nan") == outputs._ratio(2.0, -2.0) == 1.0
    name = "verify-translation_demo-21.json"
    old = tmp_path / "old"
    result = run_script("deterministic_outputs.py", "--out", str(old), "--only", name)
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads((old / name).read_text())
    (old / "MANIFEST").write_text("0" * 64 + f" 0 {name}\n")
    fd = [c["condition_id"] == "fd-partials" for c in report["checks"]]
    flipped = {**report, "checks": [{**c, "passed": not c["passed"]} if f else c
                                    for c, f in zip(report["checks"], fd)]}

    def scaled(factors):  # the old report, with these checks' residuals scaled
        return {**report, "checks": [
            {**c, "max_residual": c["max_residual"] * factors[c["condition_id"]]}
            if c["condition_id"] in factors else c for c in report["checks"]]}

    # each moved residual, largest ratio first, and which way it moved
    for changed, out in (
            (scaled({"fd-partials": 3}), [name, "residuals", "3", "fd-partials", "fell"]),
            (scaled({"fd-partials": 1 / 4}), [name, "residuals", "4", "fd-partials", "rose"]),
            (scaled({"fd-partials": math.nan}), [name, "residuals", "inf", "fd-partials", "fell"]),
            (scaled({"null-z": 1 / 2, "fd-partials": 5}),
             [name, "residuals", "5", "fd-partials", "fell,", "null-z", "rose"]),
            (flipped, [name, "verdicts"])):
        (old / name).write_text(json.dumps(changed))
        result = run_script("deterministic_outputs.py", "--out", str(tmp_path / "new"),
                            "--only", name, "--compare", str(old / "MANIFEST"))
        assert (result.returncode, result.stdout.split()[1:]) == (1, out)
