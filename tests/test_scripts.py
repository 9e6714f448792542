"""The scripts under ``scripts/`` run and exit 0."""

import hashlib
import json
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
    assert len(names) == len(set(names)) == 85
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
    name = "verify-translation_demo-21.json"
    old = tmp_path / "old"
    result = run_script("deterministic_outputs.py", "--out", str(old), "--only", name)
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads((old / name).read_text())
    (old / "MANIFEST").write_text("0" * 64 + f" 0 {name}\n")
    fd = [c["condition_id"] == "fd-partials" for c in report["checks"]]
    scaled = {**report, "checks": [{**c, "max_residual": c["max_residual"] * 3} if f else c
                                   for c, f in zip(report["checks"], fd)]}
    flipped = {**report, "checks": [{**c, "passed": not c["passed"]} if f else c
                                    for c, f in zip(report["checks"], fd)]}
    for changed, out in ((scaled, [name, "residuals", "3"]), (flipped, [name, "verdicts"])):
        (old / name).write_text(json.dumps(changed))
        result = run_script("deterministic_outputs.py", "--out", str(tmp_path / "new"),
                            "--only", name, "--compare", str(old / "MANIFEST"))
        assert (result.returncode, result.stdout.split()[1:]) == (1, out)
