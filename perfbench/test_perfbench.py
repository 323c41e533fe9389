"""Fast self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench

Checks that every metric BENCHMARK.json names is emitted with its unit, that
an item disagreeing with its reference counts as failed, that traced self
times add up to the traced commands' wall time, and that the benchmark
refuses to run without the source tree.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads as wl

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_T = 0.01


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def tiny_workload() -> wl.Workload:
    """One cheap item per command kind, at the presets' own N."""
    ref = wl.load_reference()
    evo = ref["evolve"]
    evolve = wl.Item(
        "evolve",
        wl.EVOLVE_PRESET,
        wl.evolve_overrides(3, TINY_T, evo["amplitudes"]),
        evo,
        wl.evolve_steps(evo["dt"], TINY_T, len(evo["amplitudes"])),
    )
    return wl.Workload(
        "tiny",
        (
            wl.Item("certify", "bo", (), ref["certify"]["bo"]),
            wl.Item("certify", "kdv-cnoidal", ("grid.N=1024",), ref["certify"]["kdv-cnoidal"]),
            wl.Item("sweep", "bo", (), ref["sweep"]["bo"]),
            evolve,
        ),
    )


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(cli, tmp_path, trace, section):
    metrics, info, summary = run.measure(
        cli, tiny_workload(), 0.0, trace, str(tmp_path / "out"), tmp_path / "spans.json"
    )
    line = run.result_line(metrics, summary)
    emitted = {name: m["unit"] for name, m in line["metrics"].items()}
    assert emitted == _units(section)
    assert line["correct"] is True
    # kdv-cnoidal at N=1024 is a known solver failure: failed, not wrong.
    assert line["failed"] == summary.attempted // 4
    for m in line["metrics"].values():
        assert isinstance(m["value"], float)
    if not trace:
        for m in line["metrics"].values():
            assert m["value"] > 0
        assert info["item_p50_s"] > 0 and info["item_tail_s"] > 0


def test_wrong_verdict_reference_counts_as_failure(cli, tmp_path):
    workload = tiny_workload()
    bad = dict(workload.items[0].reference, conclusion="spectrally_unstable")
    items = (dataclasses.replace(workload.items[0], reference=bad),) + workload.items[1:]
    outcomes, _ = wl.run_pass(cli, dataclasses.replace(workload, items=items), str(tmp_path))
    assert outcomes[0].wrong and "conclusion" in outcomes[0].wrong
    summary = wl.summarize([outcomes])
    assert summary.wrong == 1
    assert summary.failed == 2  # the wrong verdict plus the known N=1024 failure
    line = run.result_line({}, summary)
    assert line["correct"] is False and line["failed"] == 2


def test_traced_self_times_add_up_to_wall_minus_glue(cli, tmp_path):
    metrics, info, _ = run.measure(
        cli, tiny_workload(), 0.0, True, str(tmp_path / "out"), tmp_path / "spans.json"
    )
    commands = metrics["cli.main.busy_s"][0]
    self_total = sum(v for name, (v, _) in metrics.items() if name.endswith(".self_s"))
    # Every span nests under cli.main, so self times partition its busy time.
    assert self_total == pytest.approx(commands, rel=1e-9)
    glue = metrics["trace.traced_pass_s"][0] - commands
    assert 0.0 <= glue < 0.2 * metrics["trace.traced_pass_s"][0]
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert len(spans) == info["spans"]
    assert {s["item"] for s in spans} == set(range(len(tiny_workload().items)))


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "evolve-kdv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
