"""The example scripts under ``scripts/`` run and exit 0."""

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
