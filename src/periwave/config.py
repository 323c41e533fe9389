"""Run configuration: JSON schema, presets, validation, overrides."""

from __future__ import annotations

import copy
import json
from importlib import resources

import jsonschema

from .io import nonlinearity_from_dict, symbol_from_dict
from .spectral import DispersionSymbol, PeriodicGrid
from .waves import Constraint, Nonlinearity

__all__ = [
    "CONFIG_SCHEMA",
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


CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["equation", "grid"],
    "additionalProperties": False,
    "properties": {
        "equation": {
            "type": "object",
            "required": ["symbol", "nonlinearity"],
            "additionalProperties": False,
            "properties": {
                "symbol": {
                    "type": "object",
                    "required": ["kind"],
                    "additionalProperties": False,
                    "properties": {
                        "kind": {
                            "enum": [
                                "second_derivative",
                                "hilbert_derivative",
                                "ilw",
                                "power",
                            ]
                        },
                        "delta": {"type": "number", "exclusiveMinimum": 0},
                        "m": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
                "nonlinearity": {
                    "type": "object",
                    "required": ["kind"],
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["power", "quadratic"]},
                        "p": {"type": "integer", "minimum": 1},
                        "c": {"type": "number"},
                    },
                },
                "variant": {"enum": ["standard", "regularized"]},
            },
        },
        "grid": {
            "type": "object",
            "required": ["L", "N"],
            "additionalProperties": False,
            "properties": {
                "L": {"type": "number", "exclusiveMinimum": 0},
                "N": {"type": "integer", "minimum": 16, "multipleOf": 2},
            },
        },
        "solve": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "constraint": {
                    "type": "object",
                    "required": ["mode"],
                    "additionalProperties": False,
                    "properties": {
                        "mode": {"enum": ["fixed_A", "zero_mean", "fixed_mean"]},
                        "value": {"type": "number"},
                    },
                },
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "max_iter": {"type": "integer", "minimum": 1},
                "omega": {"type": "number"},
                "guess": {
                    "type": "object",
                    "required": ["type"],
                    "additionalProperties": False,
                    "properties": {
                        "type": {"enum": ["cnoidal", "ilw", "bbm_dnoidal", "cosine"]},
                        "k": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                        "delta": {"type": "number", "exclusiveMinimum": 0},
                        "amplitude": {"type": "number"},
                        "mode": {"type": "integer", "minimum": 1},
                        "newton_polish": {"type": "boolean"},
                    },
                },
            },
        },
        "sweep": {
            "type": "object",
            "required": ["parameter", "start", "stop", "count"],
            "additionalProperties": False,
            "properties": {
                "parameter": {"enum": ["omega", "A", "xi"]},
                "start": {"type": "number"},
                "stop": {"type": "number"},
                "count": {"type": "integer", "minimum": 1},
                "omega_coeffs": {"type": "array", "items": {"type": "number"}},
                "A_coeffs": {"type": "array", "items": {"type": "number"}},
            },
        },
        "evolve": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "T": {"type": "number", "exclusiveMinimum": 0},
                "integrator": {"enum": ["etdrk4", "implicit_midpoint"]},
                "amplitudes": {"type": "array", "items": {"type": "number", "minimum": 0}},
                "seed": {"type": "integer", "minimum": 0},
                "sample_interval": {"type": "number", "exclusiveMinimum": 0},
                "dealias": {"type": "boolean"},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "directory": {"type": "string"},
            },
        },
    },
}

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


def _deep_update(base: dict, extra: dict) -> dict:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value
    return base


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
                _deep_update(config, json.load(handle))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
    for spec in overrides or []:
        _apply_override(config, spec)
    try:
        jsonschema.validate(config, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        location = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config schema violation at {location}: {exc.message}") from None
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
