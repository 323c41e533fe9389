"""Time evolution, conserved quantities, Lyapunov monitoring, orbital distance.

The standard evolution is, mode by mode,

    u_hat_t = i xi(kappa) [ theta(kappa) u_hat - f(u)_hat ],

and the regularized one divides the whole right-hand side by 1 + theta
(well defined since the built-in symbols are nonnegative).  The default
integrator is ETDRK4 with contour-evaluated phi-functions, which treats the
stiff dispersive part exactly; an implicit-midpoint step is available as a
conservation-favoring alternative.

Both integrators work on the N//2 + 1 modes of the real transform, and
``integrate`` evolves several states together as the rows of one array:
``stability_experiment`` advances all its amplitudes as one such batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

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
    "constrained_energy",
    "auxiliary_quantity",
    "lyapunov_value",
    "orbital_distance",
    "integrate",
    "stability_experiment",
]


class BlowupError(RuntimeError):
    """Raised at the first sample where an evolved state leaves its ball;
    ``row`` is the index of that state among the ones evolved together."""

    def __init__(self, message: str, time: float, row: int = 0):
        super().__init__(message)
        self.time = time
        self.row = row


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
    integrators conserve.
    """
    Mu = apply_multiplier(symbol, u)
    W = Field(u.grid, nl.primitive(u.values))
    return 0.5 * integral(u * Mu) - integral(W)


def constrained_energy(u: Field, w: TravelingWave) -> float:
    """G(u) = P(u) + b F(u) + A M(u) with the variant's momentum F, where b is
    the identity coefficient of the profile map: omega, or omega - 1 in the
    regularized variant."""
    _, b = _linear_coefficients(w.variant, w.omega)
    F = momentum(u, symbol=w.symbol, variant=w.variant)
    return energy(u, w.symbol, w.nonlinearity) + b * F + w.A * mass(u)


def auxiliary_quantity(
    u: Field,
    mu: float,
    nu: float,
    symbol: DispersionSymbol | None = None,
    variant: str = "standard",
) -> float:
    """Q(u) = mu M(u) + nu F(u), with (mu, nu) != (0, 0)."""
    if mu == 0.0 and nu == 0.0:
        raise ValueError("auxiliary quantity needs (mu, nu) != (0, 0)")
    return mu * mass(u) + nu * momentum(u, symbol=symbol, variant=variant)


def lyapunov_value(v: Field, w: TravelingWave, sigma: float, mu: float, nu: float) -> float:
    """V(v) = G(v) - G(phi) + sigma (Q(v) - Q(phi))^2; zero on the wave orbit."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    q1 = constrained_energy(w.profile, w)
    q2 = auxiliary_quantity(w.profile, mu, nu, symbol=w.symbol, variant=w.variant)
    Q = auxiliary_quantity(v, mu, nu, symbol=w.symbol, variant=w.variant)
    return constrained_energy(v, w) - q1 + sigma * (Q - q2) ** 2


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
# integrators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    T: float
    integrator: str = "etdrk4"
    dealias: bool = True
    variant: str = "standard"
    sample_interval: float | None = None
    blowup_factor: float = 1e6

    def __post_init__(self):
        if self.dt <= 0 or self.T <= 0 or self.dt >= self.T:
            raise ValueError("need 0 < dt < T")
        if self.integrator not in ("etdrk4", "implicit_midpoint"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.variant not in ("standard", "regularized"):
            raise ValueError(f"unknown variant {self.variant!r}")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: tuple  # Field at each sample time
    config: EvolutionConfig

    def final(self) -> Field:
        return self.states[-1]


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
    """Right-hand side on the N//2 + 1 rfft modes, split into the linear symbol
    and the nonlinear term; arrays of states carry one row per state.

    The Nyquist mode is zeroed in both parts, and the dealias mask is folded
    into ``nl_scale``.
    """

    def __init__(self, grid: PeriodicGrid, symbol: DispersionSymbol, nl: Nonlinearity,
                 variant: str, dealias: bool):
        half = grid.size // 2
        self.size = grid.size
        self.f = nl.f
        xi = grid.frequencies[: half + 1].copy()
        xi[half] = 0.0  # zeroes both parts at Nyquist
        theta = symbol.values_on(grid)[: half + 1]
        if variant == "standard":
            self.linear = 1j * xi * theta
            self.nl_scale = -1j * xi
        else:
            self.linear = -1j * xi / (1.0 + theta)
            self.nl_scale = -1j * xi / (1.0 + theta)
        if dealias:
            self.nl_scale[np.arange(half + 1) > (2 * half) // 3] = 0.0

    def nonlinear(self, uh: np.ndarray) -> np.ndarray:
        fh = np.fft.rfft(self.f(np.fft.irfft(uh, self.size)))
        fh *= self.nl_scale
        return fh


def integrate(
    u0,
    cfg: EvolutionConfig,
    symbol: DispersionSymbol,
    nl: Nonlinearity,
) -> Trajectory | list[Trajectory]:
    """Evolve u0 over [0, T]; returns states at the sampling cadence.

    ``u0`` is one Field, which gives one Trajectory, or a sequence of Fields
    on one grid, which gives one Trajectory per Field.  A sequence is evolved
    as the rows of one half-spectrum array, and each row follows the same
    arithmetic as it would alone.

    Raises BlowupError (with the detection time and the row) at the first
    sample where a row leaves the ball of radius blowup_factor (1 + sup|row
    at t = 0|) or develops non-finite values.
    """
    fields = [u0] if isinstance(u0, Field) else list(u0)
    if not fields:
        return []
    grid = fields[0].grid
    for u in fields:
        _check_same_grid(fields[0], u)
    sd = _Semidiscretization(grid, symbol, nl, cfg.variant, cfg.dealias)
    n_steps = int(round(cfg.T / cfg.dt))
    dt = cfg.T / n_steps
    sample_every = (
        max(1, int(round((cfg.sample_interval or cfg.T / 200) / dt)))
    )
    bound = cfg.blowup_factor * (1.0 + np.array([u.sup_norm() for u in fields]))

    uh = np.fft.rfft(np.stack([u.values for u in fields]))
    times = [0.0]
    samples = []

    if cfg.integrator == "etdrk4":
        exp_full, exp_half, Q, f1, f2, f3 = _etdrk4_coefficients(dt * sd.linear, dt)

        def step(uh):
            n0 = sd.nonlinear(uh)
            half_uh = exp_half * uh
            a = half_uh + Q * n0
            na = sd.nonlinear(a)
            b = half_uh + Q * na
            nb = sd.nonlinear(b)
            c = exp_half * a + Q * (2.0 * nb - n0)
            nc = sd.nonlinear(c)
            out = exp_full * uh
            out += f1 * n0
            out += f2 * (na + nb)
            out += f3 * nc
            return out

    else:  # implicit midpoint; the diagonal linear part is inverted exactly
        lin_minus = 1.0 - 0.5 * dt * sd.linear
        half_dt = 0.5 * dt

        def step(uh):
            # each row iterates until its own fixed-point update settles
            mid = uh.copy()
            rows = np.arange(len(uh))
            for _ in range(50):
                new_mid = (uh[rows] + half_dt * sd.nonlinear(mid[rows])) / lin_minus
                moving = (np.abs(new_mid - mid[rows]).max(axis=1)
                          > 1e-13 * (1.0 + np.abs(new_mid).max(axis=1)))
                mid[rows] = new_mid
                rows = rows[moving]
                if not rows.size:
                    break
            return 2.0 * mid - uh

    # blowing-up iterates produce transient overflow before the sample
    # check raises BlowupError; keep those warnings quiet
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            uh = step(uh)
            if (i + 1) % sample_every == 0 or i == n_steps - 1:
                u = np.fft.irfft(uh, grid.size)
                t = (i + 1) * dt
                failed = ~np.isfinite(u).all(axis=1) | (np.abs(u).max(axis=1) > bound)
                if failed.any():
                    row = int(np.argmax(failed))
                    raise BlowupError(f"solution blew up by t = {t:.6g}", time=t, row=row)
                times.append(t)
                samples.append(u)
    trajectories = [
        Trajectory(np.asarray(times), (start,) + tuple(Field(grid, u[row]) for u in samples), cfg)
        for row, start in enumerate(fields)
    ]
    return trajectories[0] if isinstance(u0, Field) else trajectories


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
    metadata: dict = field(default_factory=dict)

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
    Finite-horizon runs can only falsify stability, never prove it; the
    metadata carries that caveat.  The run uses cfg with the wave's variant,
    and all amplitudes are evolved together by one ``integrate`` call.
    """
    s = w.sobolev_index
    cfg = replace(cfg, variant=w.variant)
    amplitudes = [float(a) for a in amplitudes]
    if any(a < 0 for a in amplitudes):
        raise ValueError("amplitudes must be nonnegative")
    direction = random_smooth_field(w.grid, seed, norm_s=s)
    try:
        trajectories = integrate(
            [w.profile + direction * a for a in amplitudes], cfg, w.symbol, w.nonlinearity
        )
    except BlowupError as exc:
        raise BlowupError(
            f"{exc} at amplitude {amplitudes[exc.row]:g}", exc.time, exc.row
        ) from None
    traces = []
    for a, traj in zip(amplitudes, trajectories):
        ds, rs, Ps, Fs, Ms, Vs = [], [], [], [], [], []
        for u in traj.states:
            d, r = orbital_distance(u, w, s)
            ds.append(d)
            rs.append(r)
            Ps.append(energy(u, w.symbol, w.nonlinearity))
            Fs.append(momentum(u, symbol=w.symbol, variant=w.variant))
            Ms.append(mass(u))
            Vs.append(lyapunov_value(u, w, sigma, mu, nu))
        traces.append(
            EvolutionTrace(
                amplitude=a,
                times=traj.times,
                d_orbit=np.asarray(ds),
                r_star=np.asarray(rs),
                energy=np.asarray(Ps),
                momentum=np.asarray(Fs),
                mass=np.asarray(Ms),
                lyapunov=np.asarray(Vs),
                metadata={
                    "seed": seed,
                    "sobolev_index": s,
                    "dt": cfg.dt,
                    "integrator": cfg.integrator,
                    "sigma": sigma,
                    "mu": mu,
                    "nu": nu,
                    "note": "finite-horizon falsification run, not a proof of stability",
                },
            )
        )
    return traces
