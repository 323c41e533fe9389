"""Time evolution, conserved quantities, Lyapunov monitoring, orbital distance.

The standard evolution is, mode by mode,

    u_hat_t = i xi(kappa) [ theta(kappa) u_hat - f(u)_hat ],

and the regularized one divides the whole right-hand side by 1 + theta
(well defined since the built-in symbols are nonnegative).  The default
integrator is ETDRK4 with contour-evaluated phi-functions, which treats the
stiff dispersive part exactly; an implicit-midpoint step is available as a
conservation-favoring alternative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .spectral import (
    DispersionSymbol,
    Field,
    PeriodicGrid,
    _sobolev_weights,
    apply_multiplier,
    integral,
    random_smooth_field,
    sobolev_inner,
)
from .waves import Nonlinearity, TravelingWave

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
    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


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
    """G(u) = P(u) + omega F(u) + A M(u); the regularized variant uses the
    coefficient (omega - 1) with its own momentum."""
    P = energy(u, w.symbol, w.nonlinearity)
    if w.variant == "standard":
        return P + w.omega * momentum(u) + w.A * mass(u)
    F = momentum(u, symbol=w.symbol, variant="regularized")
    return P + (w.omega - 1.0) * F + w.A * mass(u)


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
    H^s-orthogonal to the translated phi'.
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
    c0, _, _ = corr_derivs(r)
    d2 = max(vv - 2.0 * c0 + pp, 0.0)
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
    """phi-function coefficients by 32-point contour averaging (stable for small |z|)."""
    roots = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
    LR = z[:, None] + roots[None, :]
    exp_half = np.exp(z / 2.0)
    exp_full = np.exp(z)
    Q = dt * np.mean((np.exp(LR / 2.0) - 1.0) / LR, axis=1)
    f1 = dt * np.mean((-4.0 - LR + np.exp(LR) * (4.0 - 3.0 * LR + LR**2)) / LR**3, axis=1)
    f2 = dt * np.mean((2.0 + LR + np.exp(LR) * (LR - 2.0)) / LR**3, axis=1)
    f3 = dt * np.mean((-4.0 - 3.0 * LR - LR**2 + np.exp(LR) * (4.0 - LR)) / LR**3, axis=1)
    return exp_full, exp_half, Q, f1, f2, f3


class _Semidiscretization:
    """Fourier-space right-hand side split into linear symbol and nonlinear term."""

    def __init__(self, grid: PeriodicGrid, symbol: DispersionSymbol, nl: Nonlinearity,
                 variant: str, dealias: bool):
        self.grid = grid
        self.nl = nl
        self.dealias = dealias
        xi = grid.frequencies.copy()
        xi[grid.nyquist_index] = 0.0
        theta = symbol.values_on(grid).copy()
        theta[grid.nyquist_index] = 0.0
        if variant == "standard":
            self.linear = 1j * xi * theta
            self.nl_scale = -1j * xi
        else:
            self.linear = -1j * xi / (1.0 + theta)
            self.nl_scale = -1j * xi / (1.0 + theta)
        half = grid.size // 2
        kap = grid.wavenumbers
        self.mask = np.abs(kap) <= (2 * half) // 3 if dealias else np.ones_like(kap, bool)

    def nonlinear(self, uh: np.ndarray) -> np.ndarray:
        # blowing-up iterates produce transient overflow before the sample
        # check raises BlowupError; keep those warnings quiet
        with np.errstate(over="ignore", invalid="ignore"):
            u = np.fft.ifft(uh).real
            fh = np.fft.fft(self.nl.f(u))
            return self.nl_scale * np.where(self.mask, fh, 0.0)


def integrate(
    u0: Field,
    cfg: EvolutionConfig,
    symbol: DispersionSymbol,
    nl: Nonlinearity,
) -> Trajectory:
    """Evolve u0 over [0, T]; returns states at the sampling cadence.

    Raises BlowupError (with the detection time) if the solution leaves a
    large ball or develops non-finite values.
    """
    grid = u0.grid
    sd = _Semidiscretization(grid, symbol, nl, cfg.variant, cfg.dealias)
    n_steps = int(round(cfg.T / cfg.dt))
    dt = cfg.T / n_steps
    sample_every = (
        max(1, int(round((cfg.sample_interval or cfg.T / 200) / dt)))
    )
    bound = cfg.blowup_factor * (1.0 + u0.sup_norm())

    uh = u0.spectrum.astype(complex)
    times = [0.0]
    states = [u0]

    if cfg.integrator == "etdrk4":
        exp_full, exp_half, Q, f1, f2, f3 = _etdrk4_coefficients(dt * sd.linear, dt)

        def step(uh):
            n0 = sd.nonlinear(uh)
            a = exp_half * uh + Q * n0
            na = sd.nonlinear(a)
            b = exp_half * uh + Q * na
            nb = sd.nonlinear(b)
            c = exp_half * a + Q * (2.0 * nb - n0)
            nc = sd.nonlinear(c)
            return exp_full * uh + f1 * n0 + 2.0 * f2 * (na + nb) + f3 * nc

    else:  # implicit midpoint; the diagonal linear part is inverted exactly
        lin_minus = 1.0 - 0.5 * dt * sd.linear

        def step(uh):
            mid = uh.copy()
            for _ in range(50):
                new_mid = (uh + 0.5 * dt * sd.nonlinear(mid)) / lin_minus
                if np.max(np.abs(new_mid - mid)) <= 1e-13 * (1.0 + np.max(np.abs(new_mid))):
                    mid = new_mid
                    break
                mid = new_mid
            return 2.0 * mid - uh

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            uh = step(uh)
            if (i + 1) % sample_every == 0 or i == n_steps - 1:
                u = Field.from_spectrum(grid, uh)
                t = (i + 1) * dt
                if not np.isfinite(u.values).all() or u.sup_norm() > bound:
                    raise BlowupError(f"solution blew up by t = {t:.6g}", time=t)
                times.append(t)
                states.append(u)
    return Trajectory(np.asarray(times), tuple(states), cfg)


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
    s: float | None = None,
    sigma: float = 1.0,
    mu: float = 0.0,
    nu: float = 1.0,
) -> list[EvolutionTrace]:
    """Perturb, evolve, and record orbital distance plus conserved monitors.

    The perturbation direction is one fixed seeded mean-free random field of
    unit H^(m/2) norm shared by all amplitudes, so traces are comparable.
    Finite-horizon runs can only falsify stability, never prove it; the
    metadata carries that caveat.  The run uses cfg with the wave's variant.
    """
    s = w.sobolev_index if s is None else s
    cfg = replace(cfg, variant=w.variant)
    direction = random_smooth_field(w.grid, seed, mean_free=True, norm_s=s)
    traces = []
    for a in amplitudes:
        if a < 0:
            raise ValueError("amplitudes must be nonnegative")
        u0 = w.profile + direction * a
        traj = integrate(u0, cfg, w.symbol, w.nonlinearity)
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
                amplitude=float(a),
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
