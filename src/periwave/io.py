"""File formats: CSV tables, JSON reports, wave files with sidecars.

Every float is printed with 17 significant digits (round-trip exact for
doubles), keys are sorted, and files are written atomically (temp file +
rename), so identical inputs yield byte-identical outputs.  A file holds its
text's UTF-8 bytes, with no newline translation; a missing parent directory is
made on demand.  The presets'
outputs are also byte-identical at 1 and 2 OpenBLAS threads (c3, the one
value that differed, now comes from L's parity blocks); compare a wave that
is not even, whose L is one K x K block, at one thread count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import warnings
from dataclasses import replace
from functools import lru_cache
from itertools import chain

import numpy as np

from .spectral import _CACHE_SIZE, DispersionSymbol, Field, PeriodicGrid
from .waves import Nonlinearity, TravelingWave, residual

__all__ = [
    "format_float",
    "canonical_json",
    "config_hash",
    "atomic_write_text",
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


_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def atomic_write_text(path: str, text: str):
    """Write ``text``'s UTF-8 bytes via a temp file beside ``path``; the mode follows the umask."""
    data, tmp = memoryview(text.encode()), f"{path}.{os.getpid()}.tmp"
    try:
        try:
            fd = os.open(tmp, _WRITE_FLAGS, 0o666)
        except FileNotFoundError:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            fd = os.open(tmp, _WRITE_FLAGS, 0o666)
        try:
            while data:  # os.write may write fewer bytes than it is given
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_column(col) -> tuple[str, list]:
    """The printf conversion and the cells of one ``_csv_text`` column."""
    values = np.asarray(col)
    if values.dtype.kind in "fiu" and np.isfinite(values).all():
        return "%.17g", values.astype(float).tolist()
    return "%s", [c if isinstance(c, str) else format_float(c) for c in col]


def _csv_text(header: list[str], columns: list, formatted: tuple = ()) -> str:
    """CSV table of the columns in one printf pass: a numeric column of finite
    values by "%.17g" (format_float's conversion), any other column cell by
    cell, strings unchanged and numbers by format_float (NaN, Infinity).
    ``formatted`` holds leading columns already in ``_csv_column``'s form."""
    formats, cols = zip(*formatted, *map(_csv_column, columns))
    row = ",".join(formats) + "\n"
    return ",".join(header) + "\n" + (row * len(cols[0])) % tuple(chain.from_iterable(zip(*cols)))


@lru_cache(maxsize=_CACHE_SIZE)
def _node_column(grid: PeriodicGrid) -> tuple:
    return "%s", tuple(map("%.17g".__mod__, grid.nodes.tolist()))


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
        return Nonlinearity.power_law(data.get("p", 1), float(data.get("c", 1.0)))
    raise ValueError(f"unknown nonlinearity kind {data['kind']!r}")


def _equation_fields(w: TravelingWave) -> dict:
    """The sidecar entries a sweep's members share: its grid, equation and constraint."""
    return {
        "L": w.grid.length,
        "N": w.grid.size,
        "symbol": _symbol_to_dict(w.symbol),
        "nonlinearity": _nonlinearity_to_dict(w.nonlinearity),
        "variant": w.variant,
        "constraint": w.constraint,
    }


def save_wave(w: TravelingWave, basepath: str, extra: dict | None = None):
    """Write <basepath>.csv (x, u: the profile) and the <basepath>.json sidecar."""
    atomic_write_text(basepath + ".csv",
                      _csv_text(["x", "u"], [w.profile.values], (_node_column(w.grid),)))
    sidecar = {**_equation_fields(w), "omega": w.omega, "A": w.A,
               "residual_norm": w.residual_norm, **(extra or {})}
    atomic_write_text(basepath + ".json", canonical_json(sidecar))


def load_wave(basepath: str) -> TravelingWave:
    """Read a saved wave, recomputing its residual instead of trusting the sidecar.

    ``DIR#k`` names member k of the sweep in DIR: sweep.json's top level with
    its k-th member row, and column k + 1 of members.csv.  A profile without
    x, u rows or whose length differs from the sidecar's N, a sidecar that is
    not a JSON object or lacks an entry, or no member k raises ValueError.
    """
    sidecar, table, column = basepath + ".json", basepath + ".csv", 1
    if member := re.fullmatch(r"(.*)#(\d+)", basepath):
        sidecar, table = (os.path.join(member[1], name) for name in ("sweep.json", "members.csv"))
        column = int(member[2]) + 1
    with open(sidecar) as handle:
        meta = json.load(handle)
    if not isinstance(meta, dict):
        raise ValueError(f"sidecar {sidecar} is not a JSON object")
    if member:
        rows = meta.get("members")
        row = rows[column - 1] if isinstance(rows, list) and column <= len(rows) else None
        if not isinstance(row, dict):
            raise ValueError(f"sweep {sidecar} has no member {member[2]}")
        meta = {**meta, **row}
    with warnings.catch_warnings():  # an empty table is refused just below
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(table, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] <= column:
        raise ValueError(f"profile {table} holds no x, u rows")
    try:
        grid = PeriodicGrid(float(meta["L"]), int(meta["N"]))
        entries = dict(
            omega=float(meta["omega"]),
            A=float(meta["A"]),
            symbol=symbol_from_dict(meta["symbol"], grid.length),
            nonlinearity=nonlinearity_from_dict(meta["nonlinearity"]),
            variant=meta.get("variant", "standard"),
            constraint=meta.get("constraint", ""),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"sidecar {sidecar}: bad or missing entry ({exc!r})") from None
    w = TravelingWave(profile=Field(grid, data[:, column]), **entries)
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
