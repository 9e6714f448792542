#!/usr/bin/env python3
"""The lorentzmin benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Each workload is a closed loop: one client
in this process calls ``lorentzmin.cli.main`` (what ``lms`` runs) with one
argument list after another, so each operation starts when the previous
one has ended.  An operation is one surface verified or one surface
exported.  Each operation first runs once, untimed, at a small size (the
warm-up).  Then the benchmark runs the workload's operations in turn, round
and round, until ``--seconds`` have elapsed and each has run at least once;
every operation is timed at the median of its runs.  A traced run makes one
pass in which each operation runs untraced and then traced.

Workloads (why each was chosen is in README.md):

* ``grid-large``: ``lms verify`` on the six ``specs/`` at an 81x81 grid;
* ``sweep-small``: ``lms sweep`` of Ex7_1, Ex8_1 and Ex8_2 (50 draws each,
  9x9 grid) and 2000 Ex7_2 chain draws, all with the benchmark's seed;
* ``export-large``: ``lms export --format csv`` of the six specs at 81x81.

Every output is checked by ``oracle.py``.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  The line before it is a report with the
environment, the seed, the tail latency and failure fraction, and, when
traced, the full per-layer table, the tracing overhead and the E-field /
projection split.  The exit code is 0 when every output was correct, 1 when
one was not, and 2 when the benchmark could not run at all.

``--grid``, ``--draws`` and ``--specs`` shrink or replace the inputs for
the benchmark's own tests; the measured workloads use their defaults.
"""

from __future__ import annotations

import os

#: One client, one thread: cap the BLAS and OpenMP pools before numpy loads.
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
WORKLOADS = ("grid-large", "sweep-small", "export-large")
#: Fresh interpreters started per run to measure set-up time; the median
#: is reported, which also hides the one that compiles bytecode.
SETUP_REPEATS = 5
#: Samples beyond the tail percentile, and the fewest operations for which
#: latencies are reported (with fewer, the "tail" sits below the median).
TAIL_BEYOND = 10
MIN_LATENCY_SAMPLES = 2 * TAIL_BEYOND


class SetupError(RuntimeError):
    pass


def set_up(args, work: Path) -> dict:
    """Start prepare.py SETUP_REPEATS times; time each from the outside."""
    cmd = [sys.executable, str(HERE / "prepare.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(work), "--draws", str(args.draws),
           "--specs", str(args.specs)]
    if args.grid is not None:
        cmd += ["--grid", str(args.grid)]
    wall, imports = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        wall.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError(f"prepare.py exited {proc.returncode}: {proc.stderr.strip()}")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(last["import_s"])
    manifest = json.loads(Path(last["manifest"]).read_text())
    return {"setup_s": statistics.median(wall), "import_s": statistics.median(imports),
            "setup_samples_s": wall, "ops": manifest["ops"], "warmup": manifest["warmup"]}


def worst_tol_ratio(report) -> float:
    return max((c.max_residual / c.tol for c in report.checks if c.tol > 0), default=0.0)


class DrawClock:
    """Times each ``harness.verify`` call, which is one surface verified
    inside ``lms sweep`` (and inside ``lms verify``)."""

    def __init__(self):
        self.draws: list[tuple[float, float]] = []  # (seconds, worst tol ratio)

    def wrap(self, verify):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            report = verify(*args, **kwargs)
            self.draws.append((time.perf_counter() - t0, worst_tol_ratio(report)))
            return report

        return timed


class Tally:
    """What a series of passes measured and what the oracle found."""

    def __init__(self):
        self.op_seconds: dict[str, list[float]] = {}  # per operation, one per pass
        self.op_nodes: dict[str, int] = {}
        self.op_bytes: dict[str, int] = {}
        self.latency: dict[tuple, list[float]] = {}
        self.attempted = self.failed = 0
        self.first_mismatch: str | None = None
        self.worst_tol_ratio = 0.0

    def record(self, op: dict, seconds: float, outcome: oracle.Outcome, draws) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        if outcome.mismatch and self.first_mismatch is None:
            self.first_mismatch = outcome.mismatch
            print(f"perfbench: mismatch: {outcome.mismatch}", file=sys.stderr)
        name = op["name"]
        self.op_seconds.setdefault(name, []).append(seconds)
        self.op_nodes[name] = outcome.nodes
        self.op_bytes[name] = outcome.bytes_written
        self.worst_tol_ratio = max(self.worst_tol_ratio, outcome.worst_tol_ratio)
        if op["kind"] == "sweep":
            for i, (draw_seconds, ratio) in enumerate(draws):
                self.latency.setdefault((name, i), []).append(draw_seconds)
                self.worst_tol_ratio = max(self.worst_tol_ratio, ratio)
        else:
            self.latency.setdefault((name,), []).append(seconds)

    def passes(self) -> list[float]:
        """Operation seconds of each complete pass."""
        return [sum(times) for times in zip(*self.op_seconds.values())]

    def nodes_per_s(self) -> float:
        """Nodes of one pass over the time of a median pass, in which each
        operation takes the median of its times."""
        seconds = sum(statistics.median(v) for v in self.op_seconds.values())
        return sum(self.op_nodes.values()) / seconds

    def latency_ms(self) -> dict:
        """Median and tail over distinct operations; an operation repeated
        in several passes counts once, at the median of its repeats.  Both
        are null below MIN_LATENCY_SAMPLES operations."""
        per_op = sorted(1e3 * statistics.median(v) for v in self.latency.values())
        n = len(per_op)
        if n < MIN_LATENCY_SAMPLES:
            return {"samples": n, "p50_ms": None, "tail_ms": None, "tail_percentile": None}
        return {"samples": n, "p50_ms": statistics.median(per_op),
                "tail_ms": per_op[n - TAIL_BEYOND - 1],
                "tail_percentile": round(100.0 * (n - TAIL_BEYOND) / n, 2)}


def run_op(cli, op: dict, clock: DrawClock, tally: Tally) -> None:
    """Run one operation through ``lms``, time it, and judge its output."""
    Path(op["output"]).unlink(missing_ok=True)
    clock.draws.clear()
    sink = io.StringIO()
    error = rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(op["argv"])
    except Exception as exc:  # the oracle counts it as a failed operation
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    tally.record(op, seconds, oracle.check(op, rc, error), clock.draws)


def measure(cli, ops, clock: DrawClock, seconds: float) -> Tally:
    """``ops`` in turn, round and round, until ``seconds`` have elapsed and
    each has run at least once."""
    tally = Tally()
    start = time.perf_counter()
    for i in itertools.count():
        if i >= len(ops) and time.perf_counter() - start >= seconds:
            return tally
        run_op(cli, ops[i % len(ops)], clock, tally)


def paired_pass(cli, ops, clock: DrawClock) -> tuple[Tally, Tally, spans.Tracer]:
    """One pass in which each operation runs untraced and then traced, so
    that both runs of an operation see the machine in the same state."""
    untraced, traced, tracer = Tally(), Tally(), spans.Tracer()
    for op in ops:
        run_op(cli, op, clock, untraced)
        tracer.begin_op()
        with tracer.installed():
            run_op(cli, op, clock, traced)
        tracer.end_op(op["name"])
    return untraced, traced, tracer


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "lorentzmin").glob("*.py")):
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has no commit to report
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "thread_caps": THREAD_CAPS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "platform": platform.platform()}


def per_layer(untraced: Tally, traced: Tally, tracer: spans.Tracer) -> dict:
    """The per-layer table of a paired pass, the tracing overhead, and the
    E-field / projection split from the untraced probe."""
    totals = tracer.totals()
    layers = spans.layer_metrics(totals, sum(traced.op_nodes.values()))
    layers["harness.bytes_written"] = sum(traced.op_bytes.values())
    probe = spans.probe_split(list(tracer.surfaces.values()))
    layers["diffgeo.efield_probe_s"] = probe["efield"]
    layers["diffgeo.projection_probe_s"] = probe["projection"]

    def share(part, whole):
        return part / whole if whole else None

    efield = share(probe["efield"], probe["point_forms"])
    projection = share(probe["projection"], probe["point_forms"])
    split = {"probe_nodes": probe["nodes"], "efield_share_of_point_forms": efield,
             "projection_share_of_point_forms": projection,
             "roadmap_efield_share": 0.55, "roadmap_projection_share": 0.38}
    # point_forms' share of verify comes from the same traced operations
    forms_of_verify = share(spans.total_s(totals, "diffgeo.point_forms"),
                            spans.total_s(totals, "harness.verify"))
    if forms_of_verify and efield is not None:
        split["efield_share_of_verify"] = efield * forms_of_verify
        split["projection_share_of_verify"] = projection * forms_of_verify
    untraced_nps, traced_nps = untraced.nodes_per_s(), traced.nodes_per_s()
    return {
        "layers": layers,
        "overhead": {"untraced_nodes_per_s": untraced_nps, "traced_nodes_per_s": traced_nps,
                     "slowdown": share(untraced_nps, traced_nps)},
        "split": split,
        "missing_spans": tracer.missing,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--grid", type=int, help="grid size (default: 81, sweeps 9)")
    parser.add_argument("--draws", type=int, default=50, help="sweep draws per family")
    parser.add_argument("--specs", default=str(ROOT / "specs"), help="spec directory")
    args = parser.parse_args(argv)

    if not (SRC / "lorentzmin" / "cli.py").is_file():
        print(f"perfbench: no lorentzmin sources under {SRC}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        try:
            setup = set_up(args, work)
        except (SetupError, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
            return 2
        sys.path.insert(0, str(SRC))
        import lorentzmin.cli as cli
        import lorentzmin.harness as harness

        clock = DrawClock()
        spans.replace_everywhere(harness.verify, clock.wrap(harness.verify))
        ops = setup["ops"]
        warm = Tally()
        for op in setup["warmup"]:
            run_op(cli, op, clock, warm)
        if args.trace:
            tally, traced, tracer = paired_pass(cli, ops, clock)
            tallies = (warm, tally, traced)
        else:
            tally = measure(cli, ops, clock, args.seconds)
            tallies = (warm, tally)
        attempted = sum(t.attempted for t in tallies)
        failed = sum(t.failed for t in tallies)
        latency = tally.latency_ms()
        end_to_end = {
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "nodes_per_s": {"value": tally.nodes_per_s(), "unit": "nodes/s"},
            # the grid workloads have too few operations: values null
            "latency_p50_ms": {"value": latency["p50_ms"], "unit": "ms"},
            "latency_tail_ms": {"value": latency["tail_ms"], "unit": "ms",
                                "percentile": latency["tail_percentile"],
                                "samples": latency["samples"]},
            "failed_frac": {"value": failed / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MiB"},
        }
        report = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": environment(),
            "ops_per_pass": len(ops), "nodes_per_pass": sum(tally.op_nodes.values()),
            "pass_s": tally.passes(), "setup_samples_s": setup["setup_samples_s"],
            "end_to_end": end_to_end,
        }
        if args.trace:
            traced_report = per_layer(tally, traced, tracer)
            layers = traced_report.pop("layers")
            layers["cli.import_s"] = setup["import_s"]
            layers["report.worst_tol_ratio"] = max(tally.worst_tol_ratio,
                                                   traced.worst_tol_ratio)
            report["per_layer"] = {name: {"value": value, "unit": spans.unit_of(name)}
                                   for name, value in layers.items()}
            report.update(traced_report)
        report.update(attempted=attempted, failed=failed, first_mismatch=next(
            (t.first_mismatch for t in tallies if t.first_mismatch), None))
        if args.trace:
            trace_file = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({"report": report, "ops": tracer.dump()}) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    table = report["per_layer"] if args.trace else end_to_end
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    correct = failed == 0
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": table[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
