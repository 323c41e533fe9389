"""Workloads, per-item correctness checks and pass summaries.

A workload is one *pass*: a fixed list of CLI commands run one after another
in this process through ``periwave.cli.main(argv)``.  Each command is an
*item*; its outcome is checked against ``reference.json`` after it returns.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

CERTIFY_PRESETS = ("kdv-cnoidal", "gkdv-p", "bo", "ilw", "regularized-bbm-like")
SWEEP_PRESETS = ("kdv-cnoidal", "gkdv-p", "bo", "ilw")
CERTIFY_N = 1024
EVOLVE_PRESET = "kdv-cnoidal"
EVOLVE_T = 1.0
EVOLVE_AMPLITUDES = (1e-3, 1e-2)
# Acceptance criterion 5's frozen drift bounds.
DRIFT_BOUNDS = {"drift_P": 1e-7, "drift_F": 1e-7, "drift_M": 1e-7, "drift_V": 1e-8}
VERDICT_FIELDS = ("conclusion", "fired_criterion", "n_neg", "zero_dim", "k_r")
CURVE_RTOL = 1e-6
SIGMA_RTOL = 1e-9

EXIT_CODES_WITH_VERDICT = (0, 3)
TAIL_PERCENTILE = 90.0


@dataclass(frozen=True)
class Item:
    """One CLI command and what its outputs must match."""

    command: str            # "certify" | "sweep" | "evolve"
    preset: str
    overrides: tuple = ()
    reference: dict = field(default_factory=dict)
    steps: int = 0          # ETDRK4 steps (evolve only), summed over amplitudes

    @property
    def label(self) -> str:
        return f"{self.command}:{self.preset}"

    def argv(self, out: str) -> list[str]:
        argv = [self.command, "--preset", self.preset, "--out", out]
        for spec in self.overrides:
            argv += ["--override", spec]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple             # one pass


@dataclass
class Outcome:
    item: Item
    exit_code: int
    latency_s: float
    work: int = 0            # verdicts reached, or ETDRK4 steps for evolve
    error: str | None = None  # no result: solver failure, crash, ...
    wrong: str | None = None  # a result that disagrees with the reference

    @property
    def failed(self) -> bool:
        return self.error is not None or self.wrong is not None


# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------

def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def evolve_overrides(seed: int, T: float, amplitudes) -> tuple:
    return (
        f"evolve.T={T!r}",
        "evolve.amplitudes=" + json.dumps(list(amplitudes)),
        f"evolve.seed={int(seed)}",
    )


def evolve_steps(dt: float, T: float, n_amplitudes: int) -> int:
    return n_amplitudes * int(round(T / dt))


def build_workload(name: str, seed: int, reference: dict | None = None) -> Workload:
    """The named workload's pass.  Only ``evolve-kdv`` depends on the seed
    (the perturbation direction); certify and sweep inputs are fixed presets."""
    ref = load_reference() if reference is None else reference
    if name == "certify-n1024":
        # The reference is each preset's verdict at its own N: verdicts must
        # not depend on N.
        items = tuple(
            Item("certify", p, (f"grid.N={CERTIFY_N}",), ref["certify"][p])
            for p in CERTIFY_PRESETS
        )
        return Workload(name, items)
    if name == "sweep-presets":
        items = tuple(Item("sweep", p, (), ref["sweep"][p]) for p in SWEEP_PRESETS)
        return Workload(name, items)
    if name == "evolve-kdv":
        evo = ref["evolve"]
        steps = evolve_steps(evo["dt"], EVOLVE_T, len(evo["amplitudes"]))
        overrides = evolve_overrides(seed, EVOLVE_T, evo["amplitudes"])
        item = Item("evolve", EVOLVE_PRESET, overrides, evo, steps)
        return Workload(name, (item,))
    raise KeyError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("certify-n1024", "sweep-presets", "evolve-kdv")


# ---------------------------------------------------------------------------
# output extraction and checks
# ---------------------------------------------------------------------------

def read_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def certify_fields(certify_json: dict) -> dict:
    h0 = certify_json.get("h0") or {}
    return {
        "conclusion": certify_json.get("conclusion"),
        "fired_criterion": certify_json.get("fired_criterion"),
        "n_neg": h0.get("n_neg"),
        "zero_dim": h0.get("zero_dim"),
        "k_r": certify_json.get("k_r"),
    }


def sweep_fields(sweep_json: dict) -> dict:
    return {
        "verdicts": [m["verdict"] for m in sweep_json.get("members", [])],
        "curve_criterion": sweep_json.get("curve_criterion"),
        "partial": sweep_json.get("partial"),
    }


def evolve_fields(summary: dict) -> dict:
    return {
        "amplitudes": [t["amplitude"] for t in summary.get("traces", [])],
        "lyapunov": summary.get("lyapunov"),
        "drifts": [{k: t[k] for k in DRIFT_BOUNDS} for t in summary.get("traces", [])],
        "sup_ratio": [t["sup_ratio"] for t in summary.get("traces", [])],
    }


def _close(a, b, rtol) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rtol * max(1.0, abs(b))


def check_outcome(item: Item, exit_code: int, out: str) -> tuple[int, str | None, str | None]:
    """Return (work, error, wrong) for a finished command."""
    ref = item.reference
    if item.command == "certify":
        if exit_code not in EXIT_CODES_WITH_VERDICT:
            return 0, f"exit {exit_code}", None
        got = certify_fields(read_json(os.path.join(out, "certify.json")))
        diffs = [f"{k}={got[k]!r} (ref {ref.get(k)!r})" for k in VERDICT_FIELDS if got[k] != ref.get(k)]
        if exit_code != ref.get("exit_code"):
            diffs.append(f"exit {exit_code} (ref {ref.get('exit_code')})")
        return 1, None, "; ".join(diffs) or None
    if item.command == "sweep":
        if exit_code != 0:
            return 0, f"exit {exit_code}", None
        got = sweep_fields(read_json(os.path.join(out, "sweep.json")))
        work = len(got["verdicts"])
        diffs = []
        if got["verdicts"] != ref.get("verdicts"):
            diffs.append(f"member verdicts {got['verdicts']} (ref {ref.get('verdicts')})")
        if not _close(got["curve_criterion"], ref.get("curve_criterion"), CURVE_RTOL):
            diffs.append(f"curve_criterion {got['curve_criterion']!r} (ref {ref.get('curve_criterion')!r})")
        if got["partial"]:
            diffs.append("partial sweep")
        return work, None, "; ".join(diffs) or None
    if item.command == "evolve":
        if exit_code != 0:
            return 0, f"exit {exit_code}", None
        got = evolve_fields(read_json(os.path.join(out, "evolve_summary.json")))
        diffs = []
        if got["amplitudes"] != ref.get("amplitudes"):
            diffs.append(f"amplitudes {got['amplitudes']} (ref {ref.get('amplitudes')})")
        lyap, ref_lyap = got["lyapunov"] or {}, ref.get("lyapunov") or {}
        for key in ("mu", "nu", "sigma"):
            if not _close(lyap.get(key), ref_lyap.get(key), SIGMA_RTOL):
                diffs.append(f"lyapunov {key}={lyap.get(key)!r} (ref {ref_lyap.get(key)!r})")
        for drifts in got["drifts"]:
            for key, bound in DRIFT_BOUNDS.items():
                if not drifts[key] < bound:
                    diffs.append(f"{key}={drifts[key]!r} >= {bound}")
        for ratio in got["sup_ratio"]:
            if ratio is None or not math.isfinite(ratio):
                diffs.append(f"sup_ratio {ratio!r}")
        return item.steps, None, "; ".join(diffs) or None
    raise ValueError(f"unknown command {item.command!r}")


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def run_item(cli, item: Item, out: str, on_start=None) -> Outcome:
    """Run one command in-process, timing ``cli.main`` only, then check it."""
    sink = io.StringIO()
    if on_start is not None:
        on_start(item)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            exit_code = cli.main(item.argv(out))
    except Exception as exc:  # a crash is a failed item, not a benchmark error
        latency = time.perf_counter() - t0
        return Outcome(item, -1, latency, error=f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0
    try:
        work, error, wrong = check_outcome(item, exit_code, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        work, error, wrong = 0, None, f"unreadable output: {type(exc).__name__}: {exc}"
    return Outcome(item, exit_code, latency, work, error, wrong)


def run_pass(cli, workload: Workload, outroot: str, on_start=None) -> tuple[list, float]:
    """One pass over the workload's items; returns (outcomes, wall seconds)."""
    t0 = time.perf_counter()
    outcomes = [
        run_item(cli, item, os.path.join(outroot, f"item{i}"), on_start)
        for i, item in enumerate(workload.items)
    ]
    return outcomes, time.perf_counter() - t0


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass
class Summary:
    attempted: int
    failed: int
    wrong: int
    work: int
    pass_rates: list        # work per second of command time, one per pass
    by_command: dict        # item label -> latencies of its timed items
    failures: dict = field(default_factory=dict)

    @property
    def latencies(self) -> list:
        return [x for xs in self.by_command.values() for x in xs]

    @property
    def work_per_s(self) -> float:
        """The fastest pass's rate.  On a shared host the speed swings by
        about 20% in spells of 10-30 s; the fastest pass tracks the unloaded
        speed and varies a third as much between runs as the median does."""
        return max(self.pass_rates)

    @property
    def ok_ratio(self) -> float:
        return (self.attempted - self.failed) / self.attempted

    @property
    def item_best_s(self) -> float:
        """Median over commands of each command's fastest latency."""
        return statistics.median(min(xs) for xs in self.by_command.values())

    @property
    def item_p50_s(self) -> float:
        """Median over commands of each command's median latency.  A pass
        mixes commands of very different cost (0.2 s and 0.9 s sweeps), and a
        pooled median would fall in the gap between two of them."""
        return statistics.median(statistics.median(xs) for xs in self.by_command.values())

    @property
    def item_tail_s(self) -> float:
        return percentile(self.latencies, TAIL_PERCENTILE)

    @property
    def samples_beyond_tail(self) -> int:
        tail = self.item_tail_s
        return sum(1 for x in self.latencies if x > tail)


def _work(outcomes) -> int:
    return sum(o.work for o in outcomes if not o.failed)


def summarize(passes: list) -> Summary:
    """Summarize whole passes (lists of outcomes); work counts only items
    with a correct result, and the rate's time is every command's time."""
    outcomes = [o for batch in passes for o in batch]
    # Latency is over items that reached a correct result; if none did,
    # over every attempt, so the numbers stay defined.
    timed = [o for o in outcomes if not o.failed] or outcomes
    by_command: dict = {}
    for o in timed:
        by_command.setdefault(o.item.label, []).append(o.latency_s)
    failures: dict = {}
    for o in outcomes:
        if o.failed:
            failures.setdefault(o.item.label, o.wrong if o.wrong is not None else o.error)
    return Summary(
        attempted=len(outcomes),
        failed=sum(o.failed for o in outcomes),
        wrong=sum(o.wrong is not None for o in outcomes),
        work=_work(outcomes),
        pass_rates=[_work(b) / sum(o.latency_s for o in b) for b in passes],
        by_command=by_command,
        failures=failures,
    )
