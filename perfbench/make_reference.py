#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the current source tree.

    python3 perfbench/make_reference.py

The reference holds each preset's certify verdict at its own N (the
certify-n1024 items must agree with it), the member verdicts and curve
criterion of each preset sweep, and the evolve run's Lyapunov weights.
Regenerate only when a verdict change is intended, and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import workloads as wl
from run import import_cli


def _run(cli, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def build_reference(cli) -> dict:
    ref = {"certify": {}, "sweep": {}}
    with tempfile.TemporaryDirectory(dir=wl.HERE) as tmp:
        for preset in wl.CERTIFY_PRESETS:
            out = os.path.join(tmp, f"certify-{preset}")
            code = _run(cli, ["certify", "--preset", preset, "--out", out])
            fields = wl.certify_fields(wl.read_json(os.path.join(out, "certify.json")))
            ref["certify"][preset] = {"exit_code": code, **fields}
        for preset in wl.SWEEP_PRESETS:
            out = os.path.join(tmp, f"sweep-{preset}")
            code = _run(cli, ["sweep", "--preset", preset, "--out", out])
            if code != 0:
                raise RuntimeError(f"sweep {preset} exited {code}")
            fields = wl.sweep_fields(wl.read_json(os.path.join(out, "sweep.json")))
            del fields["partial"]
            ref["sweep"][preset] = fields
        out = os.path.join(tmp, "evolve")
        amplitudes = list(wl.EVOLVE_AMPLITUDES)
        argv = ["evolve", "--preset", wl.EVOLVE_PRESET, "--out", out]
        for spec in wl.evolve_overrides(0, wl.EVOLVE_T, amplitudes):
            argv += ["--override", spec]
        code = _run(cli, argv)
        if code != 0:
            raise RuntimeError(f"evolve exited {code}")
        summary = wl.read_json(os.path.join(out, "evolve_summary.json"))
        ref["evolve"] = {
            "dt": cli.load_config(None, wl.EVOLVE_PRESET, [])["evolve"]["dt"],
            "amplitudes": amplitudes,
            "lyapunov": summary["lyapunov"],
        }
    return ref


def main() -> int:
    ref = build_reference(import_cli())
    wl.REFERENCE_PATH.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
