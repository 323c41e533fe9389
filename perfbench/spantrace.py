"""Span tracing of periwave's public functions from outside the package.

``Tracer`` replaces each traced function by a wrapper in *every* periwave
module that holds it, because the package imports with ``from .x import y``:
``periwave.stability.assemble`` and ``periwave.linop.multiplier_matrix`` are
separate names for the same functions as ``periwave.linop.assemble`` and
``periwave.spectral.multiplier_matrix``.  Spans are kept in memory; counts
that need a call's arguments or result are taken at the same boundary.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

PACKAGE = "periwave"
TRACED = {
    "spectral": ("multiplier_matrix", "derivative_matrix", "sobolev_weight_matrix"),
    "linop": ("assemble", "check_H0", "h1_constants", "constrained_min_rayleigh"),
    "stability": (
        "certify",
        "hamiltonian_spectrum",
        "resolvent_consistency",
        "lyapunov_sigma",
        "curve_criterion",
    ),
    "waves": (
        "solve_newton",
        "continue_family",
        "param_derivatives",
        "cnoidal_wave",
        "ilw_wave",
        "bbm_dnoidal_wave",
    ),
    "evolution": ("stability_experiment", "integrate", "orbital_distance"),
    "io": ("save_wave", "save_eigenvalues_csv", "save_trace_csv", "atomic_write_text"),
    "config": ("load_config",),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Counts taken from a call's arguments or result, beyond calls/busy/self.
EXTRA_COUNTS = (
    "waves.solve_newton.iterations",
    "waves.solve_newton.failures",
    "waves.continue_family.members_converged",
    "waves.continue_family.members_attempted",
    "stability.lyapunov_sigma.sigma_steps",
    "evolution.integrate.steps",
    "evolution.integrate.steps_per_s",
    "io.bytes_written",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index into Tracer.spans
    item: int | None        # the benchmark item the call belongs to
    failed: bool = False


def _count_solve_newton(counts, bound, result):
    counts["waves.solve_newton.iterations"] += len(result.newton_history)


def _count_lyapunov_sigma(counts, bound, result):
    sigma0 = bound.arguments.get("sigma0", 1.0)
    growth = bound.arguments.get("growth", 4.0)
    counts["stability.lyapunov_sigma.sigma_steps"] += int(
        round(math.log(result[0] / sigma0) / math.log(growth))
    )


def _count_integrate(counts, bound, result):
    cfg = bound.arguments["cfg"]
    counts["evolution.integrate.steps"] += int(round(cfg.T / cfg.dt))


def _count_atomic_write(counts, bound, result):
    counts["io.bytes_written"] += len(bound.arguments["text"].encode())


_RESULT_HOOKS = {
    "waves.solve_newton": _count_solve_newton,
    "stability.lyapunov_sigma": _count_lyapunov_sigma,
    "evolution.integrate": _count_integrate,
    "io.atomic_write_text": _count_atomic_write,
}


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.item: int | None = None
        self._local = threading.local()
        self._root: int | None = None
        self._main_thread = threading.get_ident()
        self._patched: list = []
        self._lock = threading.Lock()

    # -- installation ------------------------------------------------------

    @staticmethod
    def _modules():
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self):
        modules = self._modules()
        for mod_name, fn_names in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, func):
        hook = _RESULT_HOOKS.get(name)
        signature = inspect.signature(func) if hook else None
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != tracer._main_thread:
                parent = tracer._root  # worker thread of an open command
            else:
                parent = None
            span = Span(name, 0.0, 0.0, parent, tracer.item)
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            if parent is None:
                tracer._root = index
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                with tracer._lock:
                    hook(tracer.counts, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    # -- derived numbers ---------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = []
        for i, span in enumerate(self.spans):
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(i, ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(span.end - span.start - covered)
        return out

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass calls, busy and self seconds per function, plus counts."""
        calls, busy, own = Counter(), defaultdict(float), defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            calls[span.name] += 1
            busy[span.name] += span.end - span.start
            own[span.name] += self_s
        counts = Counter(self.counts)
        counts["waves.solve_newton.failures"] = sum(
            s.failed for s in self.spans if s.name == "waves.solve_newton"
        )
        for i, span in enumerate(self.spans):
            if span.name != "waves.continue_family":
                continue
            members = [c for c in self.spans if c.parent == i and c.name == "waves.solve_newton"]
            counts["waves.continue_family.members_attempted"] += len(members)
            counts["waves.continue_family.members_converged"] += sum(not c.failed for c in members)
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = (calls[name] / passes, "count")
            metrics[f"{name}.busy_s"] = (busy[name] / passes, "s")
            metrics[f"{name}.self_s"] = (own[name] / passes, "s")
        for name in EXTRA_COUNTS:
            unit = "bytes" if name == "io.bytes_written" else "count"
            metrics[name] = (counts[name] / passes, unit)
        integrate_s = busy["evolution.integrate"]
        metrics["evolution.integrate.steps_per_s"] = (
            counts["evolution.integrate.steps"] / integrate_s if integrate_s else 0.0,
            "1/s",
        )
        return metrics

    def dump(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "item": s.item,
                "failed": s.failed,
            }
            for s in self.spans
        ]
