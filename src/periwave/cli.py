"""Batch front door: solve, certify, sweep, evolve.

Exit codes: 0 success, 1 configuration error, 2 solver failure,
3 certification prerequisites failed (inconclusive verdict),
4 sweep aborted partway (family.csv, members.csv and sweep.json, marked
partial, hold the members converged so far, possibly none), 5 blowup detected.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    constraint_from_config,
    grid_from_config,
    load_config,
    nonlinearity_from_config,
    symbol_from_config,
)
from .evolution import (
    BlowupError,
    EvolutionConfig,
    mass,
    momentum,
    stability_experiment,
)
from .io import (
    _csv_text,
    _equation_fields,
    _node_column,
    _nonlinearity_to_dict,
    _symbol_to_dict,
    atomic_write_text,
    canonical_json,
    config_hash,
    format_float,
    load_wave,
    save_eigenvalues_csv,
    save_trace_csv,
    save_wave,
)
from .spectral import Field, mean_value
from .stability import certify, curve_criterion, lyapunov_sigma
from .waves import (
    ConstantGuessError,
    Constraint,
    SolverError,
    TravelingWave,
    bbm_dnoidal_wave,
    cnoidal_wave,
    continue_family,
    ilw_wave,
    residual_bound,
    solve_newton,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVE = 2
EXIT_PREREQUISITES = 3
EXIT_SWEEP_PARTIAL = 4
EXIT_BLOWUP = 5


def _stamp(config: dict) -> dict:
    return {"config_sha256": config_hash(config), "tool_version": __version__}


def _write_json(payload: dict, stamp: dict, path: str):
    payload = dict(payload)
    payload.update(stamp)
    atomic_write_text(path, canonical_json(payload))


def _check_matches(wave: TravelingWave, config: dict, source: str):
    """ConfigError naming the first field where ``wave``'s grid or equation
    differs from the config's."""
    grid = grid_from_config(config)
    for name, theirs, configured in (
        ("grid.L", wave.grid.length, grid.length),
        ("grid.N", wave.grid.size, grid.size),
        ("equation.symbol", _symbol_to_dict(wave.symbol),
         _symbol_to_dict(symbol_from_config(config))),
        ("equation.nonlinearity", _nonlinearity_to_dict(wave.nonlinearity),
         _nonlinearity_to_dict(nonlinearity_from_config(config))),
        ("equation.variant", wave.variant, config["equation"]["variant"]),
    ):
        if theirs != configured:
            raise ConfigError(
                f"{source} does not match the config: {name} is {theirs!r} "
                f"in the wave, {configured!r} in the config"
            )


def _solve_wave(config: dict) -> TravelingWave:
    """Build the configured wave: a closed form, or Newton from a cosine
    guess.  A closed form solves its own equation, so one that does not match
    the config, or lacks its parameter, is a ConfigError."""
    grid = grid_from_config(config)
    solve = config["solve"]
    guess_spec = solve.get("guess")
    if guess_spec is None:
        raise ConfigError("solve.guess section is required")
    kind = guess_spec["type"]

    if kind != "cosine":
        try:
            if kind == "cnoidal":
                wave = cnoidal_wave(grid.length, guess_spec["k"], grid.size)
            elif kind == "bbm_dnoidal":
                wave = bbm_dnoidal_wave(grid.length, guess_spec["k"], grid.size)
            else:
                wave = ilw_wave(grid.length, guess_spec["delta"], guess_spec["k"], grid.size)
        except KeyError as exc:
            raise ConfigError(f"{kind} guesses require solve.guess.{exc.args[0]}") from None
        _check_matches(wave, config, f"the {kind} closed form")
        return wave
    if "omega" not in solve:
        raise ConfigError("cosine guesses need solve.omega")
    amp = guess_spec.get("amplitude", 1.0)
    mode = guess_spec.get("mode", 1)
    values = amp * np.cos(2.0 * math.pi * mode * grid.nodes / grid.length)
    try:
        return solve_newton(
            Field(grid, values),
            float(solve["omega"]),
            constraint_from_config(config),
            symbol_from_config(config),
            nonlinearity_from_config(config),
            tol=solve["tol"],
            max_iter=solve["max_iter"],
            variant=config["equation"]["variant"],
        )
    except ConstantGuessError as exc:
        raise ConfigError(f"solve.guess: {exc}") from None


def _load_or_solve(args, config: dict) -> TravelingWave:
    """The configured wave, or the saved one given by --wave.

    A saved wave must match the config's grid and equation (ConfigError
    otherwise) and must solve its equation to roundoff: a recomputed residual
    above ``residual_bound`` raises SolverError.
    """
    if not args.wave:
        return _solve_wave(config)
    try:
        wave = load_wave(args.wave)
    except ValueError as exc:
        raise ConfigError(f"cannot load wave {args.wave}: {exc}") from None
    _check_matches(wave, config, f"wave {args.wave}")
    bound = residual_bound(wave.symbol, wave.profile)
    if not wave.residual_norm <= bound:
        raise SolverError(
            f"wave {args.wave} does not solve its equation: recomputed residual "
            f"{wave.residual_norm:.3e} above the roundoff bound {bound:.3e}"
        )
    return wave


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_solve(out: str, wave: TravelingWave, config: dict) -> int:
    base = os.path.join(out, "wave")
    stamp = _stamp(config)
    save_wave(wave, base, extra=stamp)
    _write_json(
        {
            "omega": wave.omega,
            "A": wave.A,
            "residual_norm": wave.residual_norm,
            "constraint": wave.constraint,
            "files": {"profile": "wave.csv", "sidecar": "wave.json"},  # beside this report
            **wave.newton_report(),
        },
        stamp,
        os.path.join(out, "solve_report.json"),
    )
    print(f"residual_norm = {format_float(wave.residual_norm)}")
    return EXIT_OK


def cmd_certify(out: str, wave: TravelingWave, config: dict) -> int:
    cert = certify(wave)
    _write_json(cert.to_dict(), _stamp(config), os.path.join(out, "certify.json"))
    save_eigenvalues_csv(cert.operator, os.path.join(out, "spectrum.csv"))
    print(f"conclusion = {cert.verdict.conclusion}"
          + (f" (criterion {cert.verdict.fired_criterion})" if cert.verdict.fired_criterion else ""))
    if cert.verdict.conclusion == "inconclusive":
        print(f"reason: {cert.verdict.reason}", file=sys.stderr)
        return EXIT_PREREQUISITES
    return EXIT_OK


def cmd_sweep(out: str, seed_wave: TravelingWave, config: dict) -> int:
    sweep = config["sweep"]
    values = np.linspace(sweep["start"], sweep["stop"], sweep["count"])
    # each member's (omega, constraint): an omega sweep holds the seed's A, its
    # mean or zero mean; an A sweep holds its speed; xi follows the two maps
    if sweep["parameter"] == "omega":
        con = Constraint.zero_mean()
        if seed_wave.constraint == "fixed_A":
            con = Constraint.fixed_A(seed_wave.A)
        elif seed_wave.constraint == "fixed_mean":
            con = Constraint.fixed_mean(mean_value(seed_wave.profile))
        targets = [(float(x), con) for x in values]
    elif sweep["parameter"] == "A":
        targets = [(seed_wave.omega, Constraint.fixed_A(float(x))) for x in values]
    else:
        targets = [(float(np.polyval(sweep["omega_coeffs"][::-1], x)),
                    Constraint.fixed_A(float(np.polyval(sweep["A_coeffs"][::-1], x))))
                   for x in values]
    rows, profiles = [], []

    def visit(w: TravelingWave):
        """Certify and keep one member; its tangent predicts the next."""
        cert = certify(w)
        profiles.append(w.profile.values)
        rows.append(
            {
                "xi": float(values[len(rows)]),
                "omega": w.omega,
                "A": w.A,
                "mass": mass(w.profile),
                "momentum": momentum(w.profile, symbol=w.symbol, variant=w.variant),
                "verdict": cert.verdict.conclusion,
                "newton_steps": w.newton_report()["newton_steps"],
                "residual_norm": w.residual_norm,
            }
        )
        return None if cert.eta is None else (cert.eta, cert.beta)

    partial = False
    try:
        continue_family(seed_wave, targets, tol=config["solve"]["tol"],
                        max_iter=config["solve"]["max_iter"], visit=visit)
    except SolverError as exc:
        print(f"sweep aborted: {exc}", file=sys.stderr)
        partial = True

    columns = [[row[key] for row in rows]
               for key in ("xi", "omega", "A", "mass", "momentum", "verdict")]
    atomic_write_text(os.path.join(out, "family.csv"),
                      _csv_text(["xi", "omega", "A", "M", "F", "verdict"], columns))
    atomic_write_text(os.path.join(out, "members.csv"),
                      _csv_text(["x", *(f"u_{k:03d}" for k in range(len(profiles)))],
                                profiles, (_node_column(seed_wave.grid),)))

    curve_value, curve_mu_nu = curve_criterion(*columns[:5]) if len(rows) >= 3 else (None, None)
    _write_json(
        {
            "curve_criterion": curve_value,
            "curve_mu_nu": list(curve_mu_nu) if curve_mu_nu else None,
            "members": rows,
            "partial": partial,
            # the entries every member's sidecar shares; its row holds the rest
            **_equation_fields(seed_wave), "constraint": targets[0][1].mode,
        },
        _stamp(config),
        os.path.join(out, "sweep.json"),
    )
    if curve_value is not None:
        print(f"curve criterion value = {format_float(curve_value)}")
    return EXIT_SWEEP_PARTIAL if partial else EXIT_OK


def _save_traces(out: str, traces) -> list[dict]:
    """Write each trace to ``out``/trace_NNN.csv; returns their summary entries."""
    summary = []
    for i, trace in enumerate(traces):
        name = f"trace_{i:03d}.csv"
        save_trace_csv(trace, os.path.join(out, name))
        ratio = trace.sup_ratio()
        summary.append(
            {
                "amplitude": trace.amplitude,
                "sup_ratio": ratio if math.isfinite(ratio) else None,
                "sup_distance": float(trace.d_orbit.max()),
                "drift_P": trace.drift(trace.energy),
                "drift_F": trace.drift(trace.momentum),
                "drift_M": trace.drift(trace.mass),
                "drift_V": trace.drift(trace.lyapunov),
                "trace_file": name,
            }
        )
    return summary


def cmd_evolve(out: str, wave: TravelingWave, config: dict) -> int:
    ev = config["evolve"]
    cfg = EvolutionConfig(
        dt=ev["dt"],
        T=ev["T"],
        sample_interval=ev["sample_interval"],
    )
    # without the verdict's (mu, nu) or their sigma, evolve with the unit
    # weight, and say why; with them, record sigma's margin
    sigma, mu, nu, noted = 1.0, 0.0, 1.0, {}
    cert = certify(wave)
    verdict = cert.verdict
    if verdict.mu_nu is None:
        noted = {"reason": f"verdict {verdict.conclusion} gives no (mu, nu)"
                 + (f": {verdict.reason}" if verdict.reason else "")}
    else:
        mu, nu = verdict.mu_nu
        try:
            sigma, noted["margin"] = lyapunov_sigma(cert.core, cert.operator, cert.surface, mu, nu)
        except SolverError as exc:
            noted = {"reason": str(exc)}
    start, blowup = time.perf_counter(), {}
    try:
        traces = stability_experiment(
            wave, ev["amplitudes"], cfg, seed=ev["seed"], sigma=sigma, mu=mu, nu=nu
        )
    except BlowupError as exc:  # every amplitude's trace up to the sample before it
        traces, blowup = exc.traces, {"blowup_time": exc.time, "error": str(exc)}
    seconds = time.perf_counter() - start

    summary = _save_traces(out, traces)
    _write_json(
        {"traces": summary, "lyapunov": {"sigma": sigma, "mu": mu, "nu": nu, **noted}, **blowup},
        _stamp(config),
        os.path.join(out, "evolve_summary.json"),
    )
    if blowup:
        print(f"blowup detected: {blowup['error']}", file=sys.stderr)
        return EXIT_BLOWUP
    for item in summary:
        ratio = item["sup_ratio"]
        print(
            f"a={format_float(item['amplitude'])}: sup_ratio="
            + ("inf" if ratio is None else format_float(ratio))
            + f" drift_P={format_float(item['drift_P'])}"
        )
    n_steps = int(round(cfg.T / cfg.dt))
    print(
        f"evolved {len(traces)} amplitudes x {n_steps} steps in {seconds:.3f} s "
        f"({len(traces) * n_steps / seconds:.0f} steps/s)",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "solve": cmd_solve,
    "certify": cmd_certify,
    "sweep": cmd_sweep,
    "evolve": cmd_evolve,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="periwave",
        description="Periodic traveling waves: solve, certify stability, sweep, evolve.",
    )
    parser.add_argument("--version", action="version", version=f"periwave {__version__}")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--preset", help="named built-in preset")
    parser.add_argument("--out", help="output directory (defaults to config output.directory)")
    parser.add_argument("--override", action="append", default=[], metavar="KEY.PATH=VALUE",
                        help="override a config entry (value parsed as JSON)")
    parser.add_argument("--wave", help="BASEPATH of a saved .csv/.json pair, or DIR#k for "
                        "member k of the sweep in DIR; not for solve")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve" and args.wave:
        parser.error("solve takes no --wave")
    if not args.config and not args.preset:
        print("need --config or --preset (also with --wave)", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = load_config(args.config, args.preset, args.override)
        if args.command == "sweep" and "sweep" not in config:
            raise ConfigError("config has no sweep section")
        out = args.out or config["output"]["directory"]
        os.makedirs(out, exist_ok=True)
        try:
            wave = _load_or_solve(args, config)
        except SolverError as exc:
            print(f"solve failed: {exc}", file=sys.stderr)
            return EXIT_SOLVE
        return _COMMANDS[args.command](out, wave, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
