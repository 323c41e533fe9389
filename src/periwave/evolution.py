"""Time evolution, conserved quantities, Lyapunov monitoring, orbital distance.

The standard evolution is, mode by mode,

    u_hat_t = i xi(kappa) [ theta(kappa) u_hat - f(u)_hat ],

and the regularized one divides the whole right-hand side by 1 + theta
(well defined since the built-in symbols are nonnegative).  The integrator
is ETDRK4 with contour-evaluated phi-functions, which treats the stiff
dispersive part exactly.  It works on the N//2 + 1 modes of the real
transform, and ``integrate`` evolves several states together as the rows of
one array: ``stability_experiment`` advances all its amplitudes as one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.fft import _pocketfft_umath

from .spectral import (
    DispersionSymbol,
    Field,
    PeriodicGrid,
    _check_same_grid,
    _sobolev_weights,
    apply_multiplier,
    integral,
    random_smooth_field,
    sobolev_inner,
)
from .waves import Nonlinearity, TravelingWave, _linear_coefficients

__all__ = [
    "BlowupError",
    "EvolutionConfig",
    "Trajectory",
    "EvolutionTrace",
    "mass",
    "momentum",
    "energy",
    "orbital_distance",
    "integrate",
    "stability_experiment",
]


class BlowupError(RuntimeError):
    """Raised at the first sample where an evolved state leaves its ball;
    ``row`` is the index of that state among the ones evolved together.

    ``trajectories`` holds every state's samples before the failing one, as
    ``integrate`` would have returned them, and ``traces`` the monitors
    ``stability_experiment`` reads off them (empty when ``integrate`` raised).
    """

    def __init__(self, message: str, time: float, row: int = 0, trajectories=(), traces=()):
        super().__init__(message)
        self.time = time
        self.row = row
        self.trajectories = list(trajectories)
        self.traces = list(traces)


# ---------------------------------------------------------------------------
# conserved quantities
# ---------------------------------------------------------------------------

def mass(u: Field) -> float:
    """M(u) = integral of u over one period."""
    return integral(u)


def momentum(u: Field, symbol: DispersionSymbol | None = None, variant: str = "standard") -> float:
    """F(u) = (1/2) int u^2 (standard) or (1/2) int (u M u + u^2) (regularized)."""
    if variant == "standard":
        return 0.5 * integral(u * u)
    if symbol is None:
        raise ValueError("regularized momentum needs the dispersion symbol")
    Mu = apply_multiplier(symbol, u)
    return 0.5 * (integral(u * Mu) + integral(u * u))


def energy(u: Field, symbol: DispersionSymbol, nl: Nonlinearity) -> float:
    """Hamiltonian P(u) = (1/2) int u M u - int W(u), with W' = f.

    Note the primitive enters unhalved: this is the combination whose
    gradient M u - f(u) generates the flow, and the one the time
    evolution conserves.
    """
    Mu = apply_multiplier(symbol, u)
    W = Field(u.grid, nl.primitive(u.values))
    return 0.5 * integral(u * Mu) - integral(W)


# ---------------------------------------------------------------------------
# orbital distance
# ---------------------------------------------------------------------------

def orbital_distance(v: Field, w: TravelingWave, s: float | None = None) -> tuple[float, float]:
    """Distance from v to the translation orbit of the wave in H^s.

    Minimizes h(r) = ||v - phi(. + r)||_s^2 over r in [0, L): the N grid
    translates are scanned at once through one transform of the weighted
    cross-spectrum, then the best one is refined by Newton on h'(r) = 0
    (with a shrinking-step fallback).  At the optimum the deviation is
    H^s-orthogonal to the translated phi'.  The distance is the weighted norm
    of v - phi(. + r) at the refined r.
    """
    s = w.sobolev_index if s is None else s
    g = v.grid
    if not g.same_as(w.grid):
        raise ValueError("fields live on different grids")
    phi = w.profile
    weights = _sobolev_weights(g, s)
    scale = g.length / g.size**2
    cross = weights * v.spectrum * np.conj(phi.spectrum)

    # g(r) = (v, phi(.+r))_s sampled at all grid shifts r_j = j L / N
    # equals Re sum_k cross_k e^{-i xi_k r_j}, i.e. a forward transform of cross.
    corr = scale * np.fft.fft(cross).real
    j0 = int(np.argmax(corr))

    vv = sobolev_inner(v, v, s)
    pp = sobolev_inner(phi, phi, s)

    def corr_derivs(r):
        phase = np.exp(-1j * g.frequencies * r)
        base = cross * phase
        c0 = scale * np.real(base.sum())
        c1 = scale * np.real((-1j * g.frequencies * base).sum())
        c2 = scale * np.real((-(g.frequencies**2) * base).sum())
        return c0, c1, c2

    r = j0 * g.spacing
    span = g.spacing
    tol = 1e-12 * max(1.0, math.sqrt(max(vv, 0.0) * max(pp, 0.0)))
    for _ in range(60):
        c0, c1, c2 = corr_derivs(r)
        if abs(c1) <= tol:
            break
        if c2 < 0.0 and abs(c1 / c2) < 2.0 * span:
            r -= c1 / c2
        else:  # fall back to a golden-section-style shrink around the node
            r += 0.5 * span * (1.0 if c1 > 0 else -1.0)
            span *= 0.6
    # d from the deviation itself: vv - 2 c0 + pp cancels away the digits of
    # a small distance
    dev = v.spectrum - phi.spectrum * np.exp(1j * g.frequencies * r)
    d2 = scale * float(np.sum(weights * np.abs(dev) ** 2))
    return math.sqrt(d2), r % g.length


# ---------------------------------------------------------------------------
# integrator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvolutionConfig:
    """ETDRK4 settings: step ``dt`` (rounded so whole steps span horizon
    ``T``), ``variant`` (``stability_experiment`` sets the wave's) and
    ``sample_interval`` between stored states (T/200 when None)."""

    dt: float
    T: float
    variant: str = "standard"
    sample_interval: float | None = None

    def __post_init__(self):
        if self.dt <= 0 or self.T <= 0 or self.dt >= self.T:
            raise ValueError("need 0 < dt < T")
        if self.variant not in ("standard", "regularized"):
            raise ValueError(f"unknown variant {self.variant!r}")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: tuple  # Field at each sample time


def _etdrk4_coefficients(z: np.ndarray, dt: float):
    """phi-function coefficients by 32-point contour averaging (stable for small |z|).

    Returns (exp_full, exp_half, Q, f1, 2 f2, f3); the doubled f2 is the
    weight of na + nb in the step.
    """
    roots = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
    LR = z[:, None] + roots[None, :]
    exp_half = np.exp(z / 2.0)
    exp_full = np.exp(z)
    Q = dt * np.mean((np.exp(LR / 2.0) - 1.0) / LR, axis=1)
    f1 = dt * np.mean((-4.0 - LR + np.exp(LR) * (4.0 - 3.0 * LR + LR**2)) / LR**3, axis=1)
    f2 = dt * np.mean((2.0 + LR + np.exp(LR) * (LR - 2.0)) / LR**3, axis=1)
    f3 = dt * np.mean((-4.0 - 3.0 * LR - LR**2 + np.exp(LR) * (4.0 - LR)) / LR**3, axis=1)
    return exp_full, exp_half, Q, f1, 2.0 * f2, f3


class _Semidiscretization:
    """Right-hand side on the N//2 + 1 rfft modes: the linear symbol, and
    ``nl_scale``, the mode-wise factor of the flux's transform.

    The Nyquist mode is zeroed in both parts, and the 2/3-rule dealias mask
    is folded into ``nl_scale``.
    """

    def __init__(self, grid: PeriodicGrid, symbol: DispersionSymbol, variant: str):
        half = grid.size // 2
        xi = grid.frequencies[: half + 1].copy()
        xi[half] = 0.0  # zeroes both parts at Nyquist
        theta = symbol.values_on(grid)[: half + 1]
        if variant == "standard":
            self.linear = 1j * xi * theta
            self.nl_scale = -1j * xi
        else:
            self.linear = -1j * xi / (1.0 + theta)
            self.nl_scale = -1j * xi / (1.0 + theta)
        self.nl_scale[np.arange(half + 1) > (2 * half) // 3] = 0.0


def integrate(
    u0,
    cfg: EvolutionConfig,
    symbol: DispersionSymbol,
    nl: Nonlinearity,
) -> list[Trajectory]:
    """Evolve each Field of the sequence u0 over [0, T]; returns one
    Trajectory per Field, with its states at the sampling cadence.

    The Fields share one grid and are evolved as the rows of one
    half-spectrum array; each row follows the same arithmetic as it would
    alone.

    The flux is c u^(p+1)/(p+1), with (p, c) from ``nl.params``: c/(p+1)
    and ``nl_scale`` are multiplied into the stage coefficients Q, f1, 2 f2
    and f3 once per call, so a nonlinear evaluation is two transforms and a power.
    All six are copied to the batch's shape, so each product of a coefficient
    and a stage runs numpy's same-shape loop, bitwise as before: 5,000 steps of
    two rows at N=256 went from about 215 to 175 ms on a 2-core Xeon host.

    The ETDRK4 loop allocates nothing per step: its stages and states live in
    arrays made once per call and overwritten at every step, and each sample
    is a fresh array, never a view of them.

    Raises BlowupError (with the detection time, the row and every row's
    trajectory up to the sample before) at the first sample where a row
    leaves the ball of radius 1e6 (1 + sup|row at t = 0|) or develops
    non-finite values.
    """
    fields = list(u0)
    if not fields:
        return []
    grid = fields[0].grid
    for u in fields:
        _check_same_grid(fields[0], u)
    sd = _Semidiscretization(grid, symbol, cfg.variant)
    n_steps = int(round(cfg.T / cfg.dt))
    dt = cfg.T / n_steps
    sample_every = (
        max(1, int(round((cfg.sample_interval or cfg.T / 200) / dt)))
    )
    bound = 1e6 * (1.0 + np.array([u.sup_norm() for u in fields]))

    uh = np.fft.rfft(np.stack([u.values for u in fields]))
    spare = np.empty_like(uh)  # the step writes here, then the two swap
    times = [0.0]
    samples = []

    p, const = nl.params
    exp_full, exp_half, Q, f1, f2, f3 = _etdrk4_coefficients(dt * sd.linear, dt)
    scale = const / (p + 1.0) * sd.nl_scale
    # copies at the batch's shape: numpy's loop for two operands of one shape is
    # about twice as fast as the one that broadcasts (N/2+1,), or a stride-0 view
    exp_full, exp_half, Q, f1, f2, f3 = (np.broadcast_to(x, uh.shape).copy() for x in (
        exp_full, exp_half, Q * scale, f1 * scale, f2 * scale, f3 * scale))
    # operand order as in exp_half * uh + Q * n0 etc.: complex products
    # round differently with their factors swapped
    n0, na, nb, nc, half, a, b, c, tmp = np.empty((9,) + uh.shape, dtype=complex)
    phys = np.empty((len(fields), grid.size))
    # the pocketfft gufuncs that np.fft.irfft(uh, N) and np.fft.rfft (N is
    # even) call, with the same factors 1/N and 1: bitwise their results,
    # without the wrappers' argument handling at every call
    irfft, rfft = _pocketfft_umath.irfft, _pocketfft_umath.rfft_n_even
    inv_n = np.reciprocal(grid.size, dtype=float)
    # u^(p+1) in place; np.square, which u ** 2 uses, is about twice as fast as np.power
    power, power_args = (np.square, (phys, phys)) if p == 1 else (np.power, (phys, p + 1, phys))

    def trajectories():
        return [
            Trajectory(np.asarray(times), (start,) + tuple(Field(grid, u[row]) for u in samples))
            for row, start in enumerate(fields)
        ]

    # blowing-up iterates produce transient overflow before the sample
    # check raises BlowupError; keep those warnings quiet
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):  # each stage: irfft into phys, the power, rfft
            irfft(uh, inv_n, phys)
            rfft(power(*power_args), 1.0, n0)
            np.multiply(exp_half, uh, half)
            np.add(half, np.multiply(Q, n0, a), a)
            irfft(a, inv_n, phys)
            rfft(power(*power_args), 1.0, na)
            np.add(half, np.multiply(Q, na, b), b)
            irfft(b, inv_n, phys)
            rfft(power(*power_args), 1.0, nb)
            np.subtract(np.multiply(2.0, nb, c), n0, c)
            np.add(np.multiply(exp_half, a, tmp), np.multiply(Q, c, c), c)
            irfft(c, inv_n, phys)
            rfft(power(*power_args), 1.0, nc)
            np.multiply(exp_full, uh, spare)
            spare += np.multiply(f1, n0, tmp)
            spare += np.multiply(f2, np.add(na, nb, tmp), tmp)
            spare += np.multiply(f3, nc, tmp)
            uh, spare = spare, uh
            if (i + 1) % sample_every == 0 or i == n_steps - 1:
                u = np.fft.irfft(uh, grid.size)
                t = (i + 1) * dt
                failed = ~np.isfinite(u).all(axis=1) | (np.abs(u).max(axis=1) > bound)
                if failed.any():
                    raise BlowupError(f"solution blew up by t = {t:.6g}", time=t,
                                      row=int(np.argmax(failed)), trajectories=trajectories())
                times.append(t)
                samples.append(u)
    return trajectories()


# ---------------------------------------------------------------------------
# perturbation experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvolutionTrace:
    amplitude: float
    times: np.ndarray
    d_orbit: np.ndarray
    r_star: np.ndarray
    energy: np.ndarray
    momentum: np.ndarray
    mass: np.ndarray
    lyapunov: np.ndarray

    def sup_ratio(self) -> float:
        """sup_t d(u(t), orbit) / d(u(0), orbit); inf if the start is on the orbit."""
        d0 = self.d_orbit[0]
        if d0 == 0.0:
            return math.inf
        return float(self.d_orbit.max() / d0)

    def drift(self, series: np.ndarray) -> float:
        """Max deviation from the initial value, relative with unit floor."""
        return float(np.abs(series - series[0]).max() / max(1.0, abs(series[0])))


def stability_experiment(
    w: TravelingWave,
    amplitudes,
    cfg: EvolutionConfig,
    seed: int = 0,
    sigma: float = 1.0,
    mu: float = 0.0,
    nu: float = 1.0,
) -> list[EvolutionTrace]:
    """Perturb, evolve, and record orbital distance plus conserved monitors.

    The perturbation direction is one fixed seeded mean-free random field of
    unit H^(m/2) norm shared by all amplitudes, so traces are comparable;
    orbital distances are measured in the same norm.
    Finite-horizon runs can only falsify stability, never prove it.  The run
    uses cfg with the wave's variant, and all amplitudes are evolved together
    by one ``integrate`` call.

    Each sample records P, F and M, and the Lyapunov functional read off them:
    V = G - G(phi) + sigma (Q - Q(phi))^2, with G = P + b F + A M (b the
    identity coefficient of the profile map: omega, or omega - 1 in the
    regularized variant) and Q = mu M + nu F.  sigma must be positive and
    (mu, nu) != (0, 0); either failure is a ValueError before any evolution.

    A BlowupError names the failing amplitude and carries, in ``traces``,
    every amplitude's trace up to the sample before the blowup.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if mu == 0.0 and nu == 0.0:
        raise ValueError("Q = mu M + nu F needs (mu, nu) != (0, 0)")
    s = w.sobolev_index
    cfg = replace(cfg, variant=w.variant)
    amplitudes = [float(a) for a in amplitudes]
    if any(a < 0 for a in amplitudes):
        raise ValueError("amplitudes must be nonnegative")
    direction = random_smooth_field(w.grid, seed, norm_s=s)
    _, b = _linear_coefficients(w.variant, w.omega)

    def conserved(u: Field) -> tuple[float, ...]:
        """(P, F, M, G, Q) at u."""
        P = energy(u, w.symbol, w.nonlinearity)
        F = momentum(u, symbol=w.symbol, variant=w.variant)
        M = mass(u)
        return P, F, M, P + b * F + w.A * M, mu * M + nu * F

    *_, g0, q0 = conserved(w.profile)

    def traces(trajectories) -> list[EvolutionTrace]:
        out = []
        for a, traj in zip(amplitudes, trajectories):
            rows = []
            for u in traj.states:
                P, F, M, G, Q = conserved(u)
                rows.append((*orbital_distance(u, w, s), P, F, M, G - g0 + sigma * (Q - q0) ** 2))
            d, r, P, F, M, V = np.array(rows).T
            out.append(EvolutionTrace(a, traj.times, d_orbit=d, r_star=r, energy=P,
                                      momentum=F, mass=M, lyapunov=V))
        return out

    try:
        trajectories = integrate(
            [w.profile + direction * a for a in amplitudes], cfg, w.symbol, w.nonlinearity
        )
    except BlowupError as exc:
        raise BlowupError(
            f"{exc} at amplitude {amplitudes[exc.row]:g}", exc.time, exc.row,
            exc.trajectories, traces(exc.trajectories),
        ) from None
    return traces(trajectories)
