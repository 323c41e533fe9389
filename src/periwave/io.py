"""File formats: CSV tables, JSON reports, wave files with sidecars.

Every float is printed with 17 significant digits (round-trip exact for
doubles), keys are sorted, and files are written atomically (temp file +
rename), so identical inputs yield byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import warnings
from dataclasses import replace

import numpy as np

from .spectral import DispersionSymbol, Field, PeriodicGrid
from .waves import Nonlinearity, TravelingWave, residual

__all__ = [
    "format_float",
    "canonical_json",
    "config_hash",
    "atomic_write_text",
    "save_field_csv",
    "save_wave",
    "load_wave",
    "symbol_from_dict",
    "nonlinearity_from_dict",
    "save_trace_csv",
]


def format_float(x: float) -> str:
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return "NaN" if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")
    return format(float(x), ".17g")


def _emit(obj, parts: list, indent: int):
    pad = "  " * indent
    if obj is None:
        parts.append("null")
    elif obj is True or obj is False:
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            parts.append(json.dumps(format_float(x)))
        else:
            parts.append(format_float(x))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        keys = sorted(obj.keys())
        for i, key in enumerate(keys):
            parts.append(f'{pad}  {json.dumps(str(key))}: ')
            _emit(obj[key], parts, indent + 1)
            parts.append(",\n" if i < len(keys) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, item in enumerate(seq):
            parts.append(pad + "  ")
            _emit(item, parts, indent + 1)
            parts.append(",\n" if i < len(seq) - 1 else "\n")
        parts.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, 2-space indent, .17g floats."""
    parts: list = []
    _emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def atomic_write_text(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: list[str], columns: list) -> str:
    """CSV table of the columns: numbers as .17g floats, strings unchanged."""
    rows = [",".join(header)]
    for cells in zip(*columns):
        rows.append(",".join(c if isinstance(c, str) else format_float(c) for c in cells))
    return "\n".join(rows) + "\n"


def save_field_csv(u: Field, path: str):
    atomic_write_text(path, _csv_text(["x", "u"], [u.grid.nodes, u.values]))


def _symbol_to_dict(symbol: DispersionSymbol) -> dict:
    out = {"kind": symbol.kind, "m": symbol.order, "L": symbol.length}
    if symbol.delta is not None:
        out["delta"] = symbol.delta
    return out


def symbol_from_dict(data: dict, length: float) -> DispersionSymbol:
    kind = data["kind"]
    if kind == "second_derivative":
        return DispersionSymbol.second_derivative(length)
    if kind == "hilbert_derivative":
        return DispersionSymbol.hilbert_derivative(length)
    if kind == "ilw":
        return DispersionSymbol.ilw(float(data["delta"]), length)
    if kind == "power":
        return DispersionSymbol.power(float(data["m"]), length)
    raise ValueError(f"unknown symbol kind {kind!r}")


def _nonlinearity_to_dict(nl: Nonlinearity) -> dict:
    if nl.name == "quadratic":
        return {"kind": "quadratic"}
    p, c = nl.params
    return {"kind": "power", "p": p, "c": c}


def nonlinearity_from_dict(data: dict) -> Nonlinearity:
    if data["kind"] == "quadratic":
        return Nonlinearity.quadratic()
    if data["kind"] == "power":
        return Nonlinearity.power_law(int(data.get("p", 1)), float(data.get("c", 1.0)))
    raise ValueError(f"unknown nonlinearity kind {data['kind']!r}")


def save_wave(w: TravelingWave, basepath: str, extra: dict | None = None):
    """Write <basepath>.csv (x, phi) and the <basepath>.json sidecar."""
    save_field_csv(w.profile, basepath + ".csv")
    sidecar = {
        "L": w.grid.length,
        "N": w.grid.size,
        "omega": w.omega,
        "A": w.A,
        "symbol": _symbol_to_dict(w.symbol),
        "nonlinearity": _nonlinearity_to_dict(w.nonlinearity),
        "residual_norm": w.residual_norm,
        "variant": w.variant,
        "constraint": w.constraint,
    }
    if extra:
        sidecar.update(extra)
    atomic_write_text(basepath + ".json", canonical_json(sidecar))


def load_wave(basepath: str) -> TravelingWave:
    """Read a saved wave, recomputing its residual instead of trusting the sidecar.

    A profile without x, u rows or whose length differs from the sidecar's N,
    or a sidecar that is not a JSON object or lacks an entry, raises
    ValueError.
    """
    with open(basepath + ".json") as handle:
        meta = json.load(handle)
    if not isinstance(meta, dict):
        raise ValueError(f"sidecar {basepath}.json is not a JSON object")
    with warnings.catch_warnings():  # an empty table is refused just below
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(basepath + ".csv", delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] < 2:
        raise ValueError(f"profile {basepath}.csv holds no x, u rows")
    try:
        grid = PeriodicGrid(float(meta["L"]), int(meta["N"]))
        w = TravelingWave(
            profile=Field(grid, data[:, 1]),
            omega=float(meta["omega"]),
            A=float(meta["A"]),
            symbol=symbol_from_dict(meta["symbol"], grid.length),
            nonlinearity=nonlinearity_from_dict(meta["nonlinearity"]),
            variant=meta.get("variant", "standard"),
            constraint=meta.get("constraint", ""),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"sidecar {basepath}.json: bad or missing entry ({exc!r})") from None
    return replace(w, residual_norm=residual(w).sup_norm())


def save_eigenvalues_csv(operator, path: str):
    """Operator spectrum as CSV with columns index, eigenvalue (ascending)."""
    idx = np.arange(len(operator.eigenvalues), dtype=float)
    atomic_write_text(
        path, _csv_text(["index", "eigenvalue"], [idx, operator.eigenvalues])
    )


def save_trace_csv(trace, path: str):
    atomic_write_text(
        path,
        _csv_text(
            ["t", "d_orbit", "r_star", "P", "F", "M", "V"],
            [
                trace.times,
                trace.d_orbit,
                trace.r_star,
                trace.energy,
                trace.momentum,
                trace.mass,
                trace.lyapunov,
            ],
        ),
    )
