"""Run configuration: presets, overrides, validation against one spec."""

from __future__ import annotations

import copy
import json
import math
import sys
from importlib import resources

from .io import nonlinearity_from_dict, symbol_from_dict
from .spectral import DispersionSymbol, PeriodicGrid
from .waves import Constraint, Nonlinearity

__all__ = [
    "ConfigError",
    "load_config",
    "list_presets",
    "grid_from_config",
    "symbol_from_config",
    "nonlinearity_from_config",
    "constraint_from_config",
]


class ConfigError(ValueError):
    pass


def _is_number(x) -> bool:
    # type() leaves out booleans; NaN, +-Infinity and ints beyond any float fail the bound
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


_NUMBER = (_is_number, "a finite number")
_POSITIVE = (lambda x: _is_number(x) and x > 0, "a finite number > 0")
_BOOLEAN = (lambda x: isinstance(x, bool), "true or false")


def _integer(least: int, step: int = 1):
    return (lambda x: _is_number(x) and x % step == 0 and x >= least,
            f"an integer >= {least}" + (f" divisible by {step}" if step > 1 else ""))


def _one_of(*names: str):
    return (lambda x: x in names, "one of " + ", ".join(names))


# Nested spec of the run config.  A dict is an object, a one-item list a list
# of its item, a (predicate, description) pair a leaf; "*" marks a required key.
_SPEC = {
    "equation*": {
        "symbol*": {
            "kind*": _one_of("second_derivative", "hilbert_derivative", "ilw", "power"),
            "delta": _POSITIVE,
            "m": _POSITIVE,
        },
        "nonlinearity*": {
            "kind*": _one_of("power", "quadratic"),
            "p": _integer(1),
            "c": _NUMBER,
        },
        "variant": _one_of("standard", "regularized"),
    },
    "grid*": {"L*": _POSITIVE, "N*": _integer(16, step=2)},
    "solve": {
        "constraint": {
            "mode*": _one_of("fixed_A", "zero_mean", "fixed_mean"),
            "value": _NUMBER,
        },
        "tol": _POSITIVE,
        "max_iter": _integer(1),
        "omega": _NUMBER,
        "guess": {
            "type*": _one_of("cnoidal", "ilw", "bbm_dnoidal", "cosine"),
            "k": (lambda x: _is_number(x) and 0 < x < 1, "a number in (0, 1)"),
            "delta": _POSITIVE,
            "amplitude": _NUMBER,
            "mode": _integer(1),
            "newton_polish": _BOOLEAN,
        },
    },
    "sweep": {
        "parameter*": _one_of("omega", "A", "xi"),
        "start*": _NUMBER,
        "stop*": _NUMBER,
        "count*": _integer(1),
        "omega_coeffs": [_NUMBER],
        "A_coeffs": [_NUMBER],
    },
    "evolve": {
        "dt": _POSITIVE,
        "T": _POSITIVE,
        "integrator": _one_of("etdrk4", "implicit_midpoint"),
        "amplitudes": [(lambda x: _is_number(x) and x >= 0, "a finite number >= 0")],
        "seed": _integer(0),
        "sample_interval": _POSITIVE,
        "dealias": _BOOLEAN,
    },
    "output": {"directory": (lambda x: isinstance(x, str), "a string")},
}


def _fail(path: tuple, message: str):
    location = "/".join(str(p) for p in path) or "<root>"
    raise ConfigError(f"config schema violation at {location}: {message}")


def _validate(value, spec, path: tuple = ()):
    """Check ``value`` against a ``_SPEC`` node; ConfigError names the path."""
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            _fail(path, f"{value!r} is not an object")
        keys = {key.rstrip("*"): key for key in spec}
        for name in value:
            if name not in keys:
                _fail(path, f"unknown key {name!r}")
        for name, key in keys.items():
            if name in value:
                _validate(value[name], spec[key], path + (name,))
            elif key.endswith("*"):
                _fail(path, f"missing required key {name!r}")
    elif isinstance(spec, list):
        if not isinstance(value, list):
            _fail(path, f"{value!r} is not a list")
        for i, item in enumerate(value):
            _validate(item, spec[0], path + (i,))
    elif not spec[0](value):
        _fail(path, f"{value!r} is not {spec[1]}")


_DEFAULTS = {
    "equation": {"variant": "standard"},
    "solve": {
        "constraint": {"mode": "zero_mean", "value": 0.0},
        "tol": 1e-10,
        "max_iter": 50,
    },
    "evolve": {
        "dt": 2e-4,
        "T": 50.0,
        "integrator": "etdrk4",
        "amplitudes": [1e-3],
        "seed": 7,
        "sample_interval": 0.5,
        "dealias": True,
    },
    "output": {"directory": "periwave-out"},
}


def list_presets() -> list[str]:
    files = resources.files("periwave").joinpath("presets")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def _load_preset(name: str) -> dict:
    path = resources.files("periwave").joinpath("presets", f"{name}.json")
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(list_presets())}"
        ) from None


def _deep_update(base: dict, extra: dict):
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value


def _apply_override(config: dict, spec: str):
    if "=" not in spec:
        raise ConfigError(f"override must look like key.path=value, got {spec!r}")
    path, raw = spec.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    keys = path.split(".")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {path!r} does not address an object")
    node[keys[-1]] = value


def load_config(
    path: str | None = None,
    preset: str | None = None,
    overrides: list[str] | None = None,
) -> dict:
    """Assemble a validated run configuration.

    Precedence: built-in defaults < preset < config file < overrides.
    """
    config = copy.deepcopy(_DEFAULTS)
    if preset:
        _deep_update(config, _load_preset(preset))
    if path:
        try:
            with open(path) as handle:
                data = json.load(handle)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} is not a JSON object")
        _deep_update(config, data)
    for spec in overrides or []:
        _apply_override(config, spec)
    _validate(config, _SPEC)
    # relations between keys, which the spec's leaves cannot express
    ev, sweep = config["evolve"], config.get("sweep", {})
    if ev.get("dt", 0.0) >= ev.get("T", math.inf):
        _fail(("evolve", "dt"), f"{ev['dt']!r} is not below evolve.T = {ev['T']!r}")
    if sweep.get("parameter") == "xi" and not (sweep.get("omega_coeffs")
                                               and sweep.get("A_coeffs")):
        _fail(("sweep",), "xi sweeps need nonempty omega_coeffs and A_coeffs")
    return config


def grid_from_config(config: dict) -> PeriodicGrid:
    g = config["grid"]
    return PeriodicGrid(float(g["L"]), int(g["N"]))


def symbol_from_config(config: dict) -> DispersionSymbol:
    sym = config["equation"]["symbol"]
    try:
        return symbol_from_dict(sym, float(config["grid"]["L"]))
    except KeyError as exc:
        raise ConfigError(
            f"{sym['kind']} symbol requires equation.symbol.{exc.args[0]}"
        ) from None


def nonlinearity_from_config(config: dict) -> Nonlinearity:
    return nonlinearity_from_dict(config["equation"]["nonlinearity"])


def constraint_from_config(config: dict) -> Constraint:
    con = config["solve"]["constraint"]
    return Constraint(con["mode"], float(con.get("value", 0.0)))
