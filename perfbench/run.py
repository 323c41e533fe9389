#!/usr/bin/env python3
"""periwave benchmark: whole CLI commands end to end, plus a traced breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload certify-n1024 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` is a separate run that alternates untraced and traced passes
and reports per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The line before it holds the machine record and the sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from spantrace import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PERIWAVE_THREADS")
# ROADMAP's per-layer baseline table, plus the two costs it misses.
REPORT_ROWS = (
    "spectral.multiplier_matrix",
    "waves.solve_newton",
    "linop.assemble",
    "linop.h1_constants",
    "waves.param_derivatives",
    "stability.hamiltonian_spectrum",
    "stability.lyapunov_sigma",
    "evolution.orbital_distance",
    "linop.constrained_min_rayleigh",
    "config.load_config",
)

# A fresh interpreter: import the CLI, load the first config, say so.
_SETUP_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import periwave.cli as cli\n"
    "cli.load_config(None, sys.argv[2], [])\n"
    "print('ready', flush=True)\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (as opposed to a failed item)."""


def import_cli():
    """Import periwave.cli from this checkout's source tree, never elsewhere."""
    if not (SRC / "periwave" / "cli.py").is_file():
        raise BenchError(f"no periwave source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import periwave.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "periwave").resolve():
        raise BenchError(f"imported periwave from {cli.__file__}, not {SRC}")
    return cli


def measure_setup(preset: str) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first loaded config."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), preset],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up child failed (exit {proc.returncode}): {err.strip()}")
        samples.append(elapsed)
    return samples


def _git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


def timed_run(cli, workload: wl.Workload, seconds: float, outroot: str) -> tuple[dict, dict, wl.Summary]:
    """Closed loop of whole passes for ``seconds``.  There is no warm-up pass:
    first-call costs are milliseconds against passes of seconds, a CLI user
    pays them on every command, and the fastest pass leaves them out."""
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(wl.run_pass(cli, workload, outroot)[0])
    summary = wl.summarize(passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "work_per_s": (summary.work_per_s, "1/s"),
        "item_best_s": (summary.item_best_s, "s"),
        "ok_ratio": (summary.ok_ratio, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "passes": len(passes),
        # Reported, not gated: between runs they swing with the host's load.
        "item_p50_s": summary.item_p50_s,
        "item_tail_s": summary.item_tail_s,
        "latency_samples": len(summary.latencies),
        "tail_percentile": wl.TAIL_PERCENTILE,
        "samples_beyond_tail": summary.samples_beyond_tail,
        "work": summary.work,
        "pass_rates": summary.pass_rates,
        "latencies_s": summary.by_command,
    }
    return metrics, info, summary


def traced_run(cli, workload: wl.Workload, seconds: float, outroot: str, spans_path: Path):
    """Alternate untraced and traced passes; per-layer numbers come from the
    traced ones, and the difference in pass wall time is the overhead."""
    tracer = Tracer()
    item_ids = iter(range(1 << 62))

    def on_start(item):
        tracer.item = next(item_ids)

    passes, plain_walls, traced_walls = [], [], []
    t0 = time.perf_counter()
    while not traced_walls or time.perf_counter() - t0 < seconds:
        batch, wall = wl.run_pass(cli, workload, outroot)
        passes.append(batch)
        plain_walls.append(wall)
        with tracer:
            batch, wall = wl.run_pass(cli, workload, outroot, on_start)
        passes.append(batch)
        traced_walls.append(wall)
    summary = wl.summarize(passes)
    metrics = tracer.layer_metrics(len(traced_walls))
    plain, traced = statistics.median(plain_walls), statistics.median(traced_walls)
    metrics["trace.untraced_pass_s"] = (plain, "s")
    metrics["trace.traced_pass_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - plain, "s")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"workload": workload.name, "spans": tracer.dump()}))
    info = {
        "traced_passes": len(traced_walls),
        "untraced_passes": len(plain_walls),
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return metrics, info, summary


def layer_report(metrics: dict) -> str:
    lines = [f"{'layer':34s} {'calls/pass':>10s} {'ms/call':>9s} {'self ms/pass':>12s}"]
    for name in REPORT_ROWS:
        calls = metrics[f"{name}.calls"][0]
        busy = metrics[f"{name}.busy_s"][0]
        own = metrics[f"{name}.self_s"][0]
        per_call = 1e3 * busy / calls if calls else 0.0
        lines.append(f"{name:34s} {calls:10.1f} {per_call:9.2f} {1e3 * own:12.2f}")
    steps = metrics["evolution.integrate.steps_per_s"][0]
    lines.append(f"{'ETDRK4 steps/s (integrate)':34s} {steps:10.0f}")
    return "\n".join(lines)


def measure(cli, workload: wl.Workload, seconds: float, trace: bool, outroot: str, spans_path: Path):
    """End-to-end metrics (``trace`` false) or per-layer metrics (true)."""
    if trace:
        return traced_run(cli, workload, seconds, outroot, spans_path)
    setup = measure_setup(workload.items[0].preset)
    metrics, info, summary = timed_run(cli, workload, seconds, outroot)
    metrics["setup_s"] = (statistics.median(setup), "s")
    info["setup_samples_s"] = setup
    return metrics, info, summary


def result_line(metrics: dict, summary: wl.Summary) -> dict:
    """The final JSON object.  ``correct`` is false only for a result that
    disagrees with the reference; an item that errors out is ``failed``."""
    return {
        "correct": summary.wrong == 0,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    outroot = OUT / f"run-{os.getpid()}"
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    try:
        cli = import_cli()
        workload = wl.build_workload(args.workload, args.seed)
        try:
            metrics, info, summary = measure(
                cli, workload, args.seconds, bool(args.trace), str(outroot), spans_path
            )
        finally:
            shutil.rmtree(outroot, ignore_errors=True)
    except (BenchError, ImportError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    info.update(
        workload=args.workload,
        machine=machine_record(args.seed),
        failures=summary.failures,
    )
    if args.trace:
        print(layer_report(metrics), file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result_line(metrics, summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
