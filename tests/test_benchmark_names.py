"""The benchmark reaches into periwave by name; every such name must exist."""

import importlib
import inspect
import math
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spantrace  # noqa: E402
from spantrace import PACKAGE, TRACED  # noqa: E402

NAMES = [(mod, fn) for mod, fns in TRACED.items() for fn in fns] + [("cli", "load_config")]


@pytest.mark.parametrize("module,name", NAMES, ids=[f"{m}.{f}" for m, f in NAMES])
def test_traced_name_exists(module, name):
    mod = importlib.import_module(f"{PACKAGE}.{module}")
    assert callable(getattr(mod, name, None)), f"{PACKAGE}.{module}.{name} is gone"


def _hook_counts(qualname, *args, result=None, **kwargs):
    """Run the tracer's result hook for ``qualname`` on arguments bound to the
    real signature, as ``--trace 1`` does."""
    module, name = qualname.split(".")
    fn = getattr(importlib.import_module(f"{PACKAGE}.{module}"), name)
    counts = Counter()
    spantrace._RESULT_HOOKS[qualname](
        counts, inspect.signature(fn).bind_partial(*args, **kwargs), result
    )
    return counts


def test_integrate_hook_reads_cfg():
    from periwave.evolution import EvolutionConfig

    counts = _hook_counts("evolution.integrate", cfg=EvolutionConfig(dt=0.01, T=1.0))
    assert counts["evolution.integrate.steps"] == 100


def test_atomic_write_hook_reads_text():
    counts = _hook_counts("io.atomic_write_text", text="abc")
    assert counts["io.bytes_written"] == 3


def test_lyapunov_sigma_hook_reads_a_power_of_4(kdv_stable):
    from periwave.stability import certify, lyapunov_sigma

    c = certify(kdv_stable)
    args = (c.core, c.operator, c.surface, *c.verdict.mu_nu)
    result = lyapunov_sigma(*args)
    sigma, margin = result
    assert margin > 0.0
    assert sigma >= 1.0 and sigma == 4.0 ** round(math.log(sigma, 4.0))
    counts = _hook_counts("stability.lyapunov_sigma", *args, result=result)
    assert 4.0 ** counts["stability.lyapunov_sigma.sigma_steps"] == sigma
