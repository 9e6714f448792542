"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q

Each test starts ``perfbench/run.py`` as a separate process, so they cover
the command line, the output contract and the correctness oracle.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every end-to-end metric the report line carries; the last line carries
#: those BENCHMARK.json lists.
END_TO_END = {"setup_s": "s", "nodes_per_s": "nodes/s", "latency_p50_ms": "ms",
              "latency_tail_ms": "ms", "failed_frac": "ratio", "peak_rss_mb": "MiB"}
PER_LAYER_ONLY_IN_REPORT = {"diffgeo.point_forms_self_s", "diffgeo.hnorm_self_s",
                            "diffgeo.fd_s", "harness.verify_self_s"}
TINY = ["--grid", "5", "--draws", "15", "--seconds", "0.1"]


def bench(*args, cwd=ROOT, root=ROOT):
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc, lines = bench("--workload", workload, "--seed", "3", "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stderr
    report, result = json.loads(lines[-2]), json.loads(lines[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name

    assert {name: m["unit"] for name, m in report["end_to_end"].items()} == END_TO_END
    assert report["end_to_end"]["failed_frac"]["value"] == 0.0
    p50 = report["end_to_end"]["latency_p50_ms"]["value"]
    tail = report["end_to_end"]["latency_tail_ms"]
    if workload == "sweep-small":
        assert tail["samples"] >= 20
        assert tail["value"] >= p50 > 0
        assert 50 <= tail["percentile"] < 100
    else:  # six operations per pass: too few for latencies
        assert tail["samples"] == 6 and tail["value"] is None and p50 is None
    env = report["env"]
    assert env["nproc"] >= 1 and env["python"] and env["numpy"] and "git_commit" in env
    assert all(int(v) <= 2 for v in env["thread_caps"].values())
    assert report["seed"] == 3

    if trace:
        layers = report["per_layer"]
        assert set(layers) == {m["name"] for m in BENCHMARK["per_layer"]} | PER_LAYER_ONLY_IN_REPORT
        assert report["missing_spans"] == []
        assert layers["curves.at_calls"]["value"] > 0
        assert layers["indefinite.dot_calls"]["value"] > 0
        per_node = layers["surfaces.jets_per_node"]["value"]
        if workload == "export-large":
            assert per_node == 1.0
        else:
            # 1 jet for the projection and 9 for the E-field stencil per node,
            # plus one per node of the 5x5 FD subgrid, which is the whole grid here
            assert per_node == 11.0
        assert report["overhead"]["traced_nodes_per_s"] > 0
        assert 0 < report["split"]["efield_share_of_point_forms"] < 1


def test_fault_injected_spec_counts_as_failed(tmp_path):
    # alt_pairing with p != q breaks the light-cone premises of Ex8_1, but
    # the spec's family says it should pass like every other positive spec
    spec = {"family": "hyp_ii", "curves": [{"family_id": "Ex8_1", "alt_pairing": True,
                                             "params": {"a": 1, "b": 1.1, "p": 1.2, "q": 1.5}}]}
    (tmp_path / "faulty.json").write_text(json.dumps(spec))
    # verify reports the failed premises; export refuses to build the surface
    for workload, message in (("grid-large", "lightcone-z"), ("export-large", "exit 2")):
        proc, lines = bench("--workload", workload, "--seed", "0", "--trace", "0",
                            "--specs", str(tmp_path), *TINY)
        assert proc.returncode == 1
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        assert result["correct"] is False and result["failed"] >= 1
        assert report["end_to_end"]["failed_frac"]["value"] > 0
        assert report["first_mismatch"].startswith("faulty: ")
        assert message in report["first_mismatch"]
        assert "mismatch: faulty" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, lines = bench("--workload", "grid-large", "--seed", "0", "--trace", "0",
                        *TINY, cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert lines == []
