"""Traveling-wave profiles: Newton solver, closed forms, and families.

The profile equation is ``M phi + omega phi - f(phi) + A = 0`` for the
standard evolution and ``omega M phi + (omega - 1) phi - f(phi) + A = 0``
for the regularized one.  Translation degeneracy is removed by solving on
the even (cosine) subspace about x = 0, so no phase conditions or Lagrange
multipliers are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import elliptic
from .spectral import (
    _EPS,
    DispersionSymbol,
    Field,
    PeriodicGrid,
    _band_size,
    _even_odd_blocks,
    _mode_weights,
    _resample,
    apply_multiplier,
    integral,
    mean_value,
)

__all__ = [
    "Nonlinearity",
    "Constraint",
    "TravelingWave",
    "SolverError",
    "ConvergenceError",
    "BifurcationError",
    "DegenerateBranchError",
    "ResolutionError",
    "NearSingularError",
    "ConstantGuessError",
    "residual",
    "residual_bound",
    "solve_newton",
    "cnoidal_wave",
    "ilw_wave",
    "bbm_dnoidal_wave",
    "constant_state",
    "continue_family",
    "param_derivatives",
]


class SolverError(RuntimeError):
    """Base class for wave-solver failures."""


class ConvergenceError(SolverError):
    pass


class BifurcationError(SolverError):
    """Singular Jacobian on the symmetric subspace."""


class DegenerateBranchError(SolverError):
    """Newton collapsed onto the constant-state branch."""


class ResolutionError(SolverError):
    """Requested construction is not resolved at the given truncation."""


class NearSingularError(SolverError):
    """Linearized operator is numerically singular beyond its kernel."""


class ConstantGuessError(ValueError):
    """The Newton guess is constant; the trivial branch is excluded."""


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Nonlinearity:
    """Flux f(u), its derivative, and its primitive W with W' = f."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray]
    primitive: Callable[[np.ndarray], np.ndarray]
    params: tuple = ()

    @classmethod
    def power_law(cls, p: int, c: float = 1.0) -> "Nonlinearity":
        """f(u) = c u^(p+1) / (p+1) for an integer p >= 1; p = 1, c = 1 is the KdV flux."""
        number = isinstance(p, (int, float, np.integer)) and not isinstance(p, bool)
        if not (number and p >= 1 and p % 1 == 0):
            raise ValueError(f"power-law exponent must be an integer >= 1, got {p!r}")
        p = int(p)

        def f(u):
            return c * u ** (p + 1) / (p + 1)

        def fprime(u):
            return c * u**p

        def primitive(u):
            return c * u ** (p + 2) / ((p + 1) * (p + 2))

        return cls(f"power(p={p},c={c:g})", f, fprime, primitive, (p, c))

    @classmethod
    def kdv(cls) -> "Nonlinearity":
        return cls.power_law(1, 1.0)

    @classmethod
    def quadratic(cls) -> "Nonlinearity":
        """f(u) = u^2 (the ILW/BO convention): the power law p = 1, c = 2."""
        return replace(cls.power_law(1, 2.0), name="quadratic")


# ---------------------------------------------------------------------------
# constraints and waves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constraint:
    """How the integration constant A is pinned during a solve."""

    mode: str  # "fixed_A" | "zero_mean" | "fixed_mean"
    value: float = 0.0

    @classmethod
    def fixed_A(cls, A: float) -> "Constraint":
        return cls("fixed_A", float(A))

    @classmethod
    def zero_mean(cls) -> "Constraint":
        return cls("zero_mean", 0.0)

    @classmethod
    def fixed_mean(cls, target: float) -> "Constraint":
        return cls("fixed_mean", float(target))

    def target_mean(self) -> float:
        return 0.0 if self.mode == "zero_mean" else self.value


@dataclass(frozen=True)
class TravelingWave:
    profile: Field
    omega: float
    A: float
    symbol: DispersionSymbol
    nonlinearity: Nonlinearity
    variant: str = "standard"
    residual_norm: float = float("nan")
    constraint: str = ""
    newton_history: tuple = ()
    newton_size: int | None = None

    def __post_init__(self):
        if self.variant not in ("standard", "regularized"):
            raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def grid(self) -> PeriodicGrid:
        return self.profile.grid

    @property
    def sobolev_index(self) -> float:
        """The energy-space exponent m/2 of the underlying symbol."""
        return 0.5 * self.symbol.order

    def newton_report(self) -> dict:
        """Newton's step count and final working size (None unless Newton made
        the wave) and the roundoff bound the residual is held to."""
        steps = len(self.newton_history) - 1 if self.newton_history else None
        return {"newton_steps": steps, "newton_size": self.newton_size,
                "residual_bound": residual_bound(self.symbol, self.profile)}


def _linear_coefficients(variant: str, omega: float) -> tuple[float, float]:
    """(a, b) such that the linear part of the profile map is a*M + b*I."""
    if variant == "standard":
        return 1.0, omega
    return omega, omega - 1.0


def _profile_map(u: Field, symbol: DispersionSymbol, a, b, f, A) -> np.ndarray:
    """a M u + b u - f(u) + A: M by FFT, f pointwise."""
    return a * apply_multiplier(symbol, u).values + b * u.values - f(u.values) + A


def residual(w: TravelingWave) -> Field:
    """Pointwise residual of the profile equation for the wave's variant."""
    a, b = _linear_coefficients(w.variant, w.omega)
    return w.profile.with_values(
        _profile_map(w.profile, w.symbol, a, b, w.nonlinearity.f, w.A)
    )


def residual_bound(symbol: DispersionSymbol, profile: Field) -> float:
    """Roundoff bound 1e3 eps max|theta| sup|phi| for the residual of a profile.

    Applying M by FFT amplifies the rounding of the samples of phi by the
    largest symbol value, so the attainable residual grows with N; a fixed
    absolute tolerance cannot hold at every resolution.
    """
    return 1e3 * _EPS * symbol.max_on(profile.grid) * profile.sup_norm()


def constant_state(
    grid: PeriodicGrid,
    c: float,
    omega: float,
    symbol: DispersionSymbol,
    nonlinearity: Nonlinearity,
) -> TravelingWave:
    """The trivial branch phi == c of the standard variant, with A chosen so
    the profile equation holds."""
    w = TravelingWave(
        profile=Field.constant(grid, c),
        omega=omega,
        A=float(nonlinearity.f(np.asarray(c)) - omega * c),
        symbol=symbol,
        nonlinearity=nonlinearity,
        residual_norm=0.0,
        constraint="constant",
    )
    return replace(w, residual_norm=residual(w).sup_norm())


# ---------------------------------------------------------------------------
# Newton solver on the even subspace
# ---------------------------------------------------------------------------

def solve_newton(
    guess: Field,
    omega: float,
    constraint: Constraint,
    symbol: DispersionSymbol,
    nonlinearity: Nonlinearity,
    tol: float = 1e-10,
    max_iter: int = 50,
    variant: str = "standard",
) -> TravelingWave:
    """Newton iteration for the profile equation on the cosine subspace.

    The unknown is the real half spectrum rfft(phi): the guess's even part to
    start, less its coefficients below eps times the largest (the rounding of
    its samples), so that a solution carries no rounding above its band into
    the next solve.  An even profile makes the translation mode phi' odd,
    hence invisible to the Jacobian.  Under ``fixed_A`` the constant A is
    prescribed; under ``zero_mean`` or ``fixed_mean`` A joins the unknowns,
    starting from the zero mode of the profile equation at the guess
    (theta(0) = 0), and the mean of phi, its zero mode, is the extra equation.

    Every iterate's residual is the one ``residual`` evaluates at N, and the
    acceptance tests below read it there.  The Jacobian, L's even block
    (``_even_odd_blocks``, f'(phi) sampled at N), alone is cut to the modes
    below K_s/2 + 1 for a working size K_s: the band rule of ``_band_size``
    on the iterate, never shrinking, doubled while the residual's modes
    |kappa| >= K_s/2 sum above ``residual_bound``, and capped at N; each step
    moves those modes, and the wave records the last K_s as ``newton_size``.
    An iterate is accepted once its residual is below both ``tol`` and
    ``residual_bound``, or once it has stalled within ``residual_bound``: its
    residual is above half the previous one and its step is no smaller than
    the previous step.  An iterate within max(tol, residual_bound) whose
    profile is constant raises DegenerateBranchError (its residual_bound is 0).
    """
    grid = guess.grid
    N = grid.size
    half = N // 2

    v = np.fft.rfft(guess.values).real
    v[np.abs(v) <= _EPS * np.abs(v).max()] = 0.0
    a_M, b_lin = _linear_coefficients(variant, omega)
    diag = a_M * symbol.values_on(grid)[: half + 1] + b_lin
    # the block's orthonormal coordinates, scaled so that the zero mode is the
    # mean of phi and A's column is the zero mode
    scale = _mode_weights(N, half + 1) * (2.0**0.5 / N)
    solve_A = constraint.mode in ("zero_mean", "fixed_mean")
    A = constraint.value if constraint.mode == "fixed_A" else 0.0

    history, last_step, Ks = [], np.inf, 0
    for _ in range(max_iter):
        phi = Field(grid, np.fft.irfft(v, N))
        if not history and np.ptp(phi.values) < 1e-14 * (1.0 + np.abs(phi.values).max()):
            raise ConstantGuessError("guess is constant; the trivial branch is excluded")
        with np.errstate(over="ignore", invalid="ignore"):
            if solve_A and not history:
                A = float(np.mean(nonlinearity.f(phi.values) - b_lin * phi.values))
            res_full = _profile_map(phi, symbol, a_M, b_lin, nonlinearity.f, A)
        sup = float(np.abs(res_full).max())
        if not np.isfinite(sup):
            raise ConvergenceError(f"Newton iterates diverged (omega={omega})")
        history.append(sup)
        Ks = max(Ks, _band_size(phi)[1])
        mean_defect = v[0] / N - constraint.target_mean() if solve_A else 0.0
        mean_ok = abs(mean_defect) <= tol
        bound = residual_bound(symbol, phi)
        if sup <= max(tol, bound) and np.ptp(phi.values) < 1e-10 * (1.0 + phi.sup_norm()):
            raise DegenerateBranchError(
                f"Newton collapsed to the constant branch (omega={omega})"
            )
        if sup <= min(tol, bound) and mean_ok:
            break

        spec = np.fft.rfft(res_full)
        tail = np.abs(spec) * (2.0 / N)
        while Ks < N and tail[Ks // 2:].sum() >= bound:
            Ks = min(2 * Ks, N)
        K = Ks // 2 + 1
        with np.errstate(over="ignore", invalid="ignore"):
            jac = _even_odd_blocks(diag[:K], nonlinearity.fprime(phi.values))[0]
        rhs = scale[:K] * spec.real[:K]

        try:
            if solve_A:
                aug = np.zeros((K + 1, K + 1))
                aug[:K, :K] = jac
                aug[0, K] = aug[K, 0] = 1.0
                step = np.linalg.solve(aug, np.append(rhs, mean_defect))
            else:
                step = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError as exc:
            raise BifurcationError(
                f"singular Jacobian on the symmetric subspace (omega={omega})"
            ) from exc
        # at the roundoff floor neither residual nor step falls any more; a slow
        # approach (near-singular Jacobian) still shrinks its step
        size = float(np.abs(step).max())
        stalled = len(history) > 1 and sup > 0.5 * history[-2] and size >= last_step
        if stalled and mean_ok and sup <= bound:
            break
        last_step = size
        v[:K] -= step[:K] / scale[:K]
        if solve_A:
            A -= step[K]
        if not np.all(np.isfinite(v)):
            raise ConvergenceError(f"Newton iterates diverged (omega={omega})")
    else:
        raise ConvergenceError(
            f"no convergence in {max_iter} iterations (omega={omega}, "
            f"last residual {history[-1]:.3e}, roundoff bound {bound:.3e})"
        )

    return TravelingWave(
        profile=phi,
        omega=float(omega),
        A=float(A),
        symbol=symbol,
        nonlinearity=nonlinearity,
        variant=variant,
        residual_norm=history[-1],
        constraint=constraint.mode,
        newton_history=tuple(history),
        newton_size=Ks,
    )


# ---------------------------------------------------------------------------
# closed-form reference waves
# ---------------------------------------------------------------------------

def _certified(wave: TravelingWave, name: str) -> TravelingWave:
    """The closed-form wave with its residual attached, if within residual_bound."""
    res_norm = residual(wave).sup_norm()
    bound = residual_bound(wave.symbol, wave.profile)
    if not res_norm <= bound:
        raise ResolutionError(
            f"{name} residual {res_norm:.3e} above the roundoff bound {bound:.3e}"
        )
    return replace(wave, residual_norm=res_norm)


def _dnoidal_wave(L: float, k, N: int, variant: str) -> TravelingWave:
    """Zero-mean dnoidal-squared wave of the flux f(u) = u^2/2 with M = -d^2/dx^2.

    The ansatz phi = beta (dn^2(alpha x, k) - E/K), alpha = 2K/L, solves
    a M phi + b phi - phi^2/2 + A = 0, with (a, b) from
    ``_linear_coefficients``, once the dn^4, dn^2 and constant terms are
    matched, which forces

        b = s a,  beta = 12 a alpha^2,  s = 4 alpha^2 (2 - k^2 - 3 E/K),

    so omega = s in the standard variant and omega = 1/(1 - s) in the
    regularized one.  The samples are formed as (1 - E/K) - k^2 sn^2: at
    small k, dn^2 - E/K would cancel leading digits, while the rounding of
    the constant 1 - E/K lands in the zero mode, which M does not amplify.
    A is the zero mode of the profile equation, mean(phi^2/2 - b phi), since
    theta(0) = 0; summing the samples avoids the cancellation of terms of
    size beta^2 that its closed form suffers at small k.  The wave is
    certified by the pointwise residual check.
    """
    name = "cnoidal" if variant == "standard" else "dnoidal"
    k = float(k)
    if not (0.0 < k < 1.0):
        raise ValueError(f"{name} modulus must lie in (0, 1), got {k}")
    K = elliptic.complete_K(k)
    e = elliptic.complete_E(k) / K
    alpha = 2.0 * K / L
    grid = PeriodicGrid(L, N)
    sn, _, _ = elliptic.jacobi_sn_cn_dn(alpha * grid.nodes, k)
    omega = s = 4.0 * alpha**2 * (2.0 - k * k - 3.0 * e)
    if variant == "regularized":
        if abs(1.0 - s) < 1e-12:
            raise SolverError("degenerate dnoidal speed (denominator vanished)")
        omega = 1.0 / (1.0 - s)
    a, b = _linear_coefficients(variant, omega)
    phi = 12.0 * a * alpha**2 * ((1.0 - e) - k * k * sn**2)
    wave = TravelingWave(
        profile=Field(grid, phi),
        omega=omega,
        A=float(np.mean(0.5 * phi**2 - b * phi)),
        symbol=DispersionSymbol.second_derivative(L),
        nonlinearity=Nonlinearity.kdv(),
        variant=variant,
        constraint="zero_mean",
    )
    return _certified(wave, name)


def cnoidal_wave(L: float, k, N: int) -> TravelingWave:
    """Zero-mean dnoidal-squared wave of KdV (see ``_dnoidal_wave``)."""
    return _dnoidal_wave(L, k, N, "standard")


def bbm_dnoidal_wave(L: float, k, N: int) -> TravelingWave:
    """Zero-mean dnoidal-squared wave of the regularized (BBM-type) equation
    (see ``_dnoidal_wave``)."""
    return _dnoidal_wave(L, k, N, "regularized")


def ilw_wave(L: float, delta: float, k, N: int) -> TravelingWave:
    """Zero-mean intermediate-long-wave profile from the Jacobi Zeta series.

    The complex-shifted Zeta combination reduces to the real cosine series

        phi(x) = sum_{n>=1} d_n cos(2 pi n x / L),
        d_n = (8 pi / L) q^n sinh(2 pi n delta / L) / (1 - q^{2n}),

    because sin at argument shifted by +-i delta produces conjugate
    sinh/cosh factors whose difference is real and even.  The series
    converges only while 2 pi delta / L < pi K'/K (the Zeta poles stay off
    the evaluation strip); outside that window a ResolutionError is raised.
    The speed omega is the least-squares minimizer of the profile-equation
    residual with A = (1/L) integral phi^2, then certified pointwise.
    """
    k = float(k)
    if not (0.0 < k < 1.0):
        raise ValueError(f"ilw modulus must lie in (0, 1), got {k}")
    if delta <= 0:
        raise ValueError(f"ilw depth must be positive, got {delta}")
    grid = PeriodicGrid(L, N)
    q = elliptic.nome(k)
    growth = q * math.exp(2.0 * math.pi * delta / L)
    if growth >= 1.0 - 1e-9:
        raise ResolutionError(
            f"zeta series diverges for delta={delta}, L={L}, k={k} "
            f"(needs delta < L K'/(2K) = {-L * math.log(q) / (2 * math.pi):.4f})"
        )
    n_cut = grid.size // 2 - 1
    n = np.arange(1, n_cut + 1, dtype=float)
    # q^n sinh(a n) as a difference of two decaying exponentials: sinh alone
    # overflows at large N, while ln q + a < 0 because growth < 1
    a, log_q = 2.0 * math.pi * delta / L, math.log(q)
    qn_sinh = 0.5 * (np.exp(n * (log_q + a)) - np.exp(n * (log_q - a)))
    d = (8.0 * math.pi / L) * qn_sinh / (1.0 - q ** (2 * n))
    scale = np.abs(d).max()
    tail = abs(d[-1]) * growth / (1.0 - growth)
    if tail > 1e-12 * scale:
        raise ResolutionError(
            f"cosine-series tail {tail:.2e} above 1.0e-12 x max coefficient; increase N"
        )
    spectrum = np.zeros(N, dtype=complex)
    spectrum[1 : n_cut + 1] = 0.5 * d * N
    spectrum[-1 : -n_cut - 1 : -1] = 0.5 * d * N
    phi = Field.from_spectrum(grid, spectrum)

    symbol = DispersionSymbol.ilw(delta, L)
    nl = Nonlinearity.quadratic()
    A = integral(phi * phi) / L
    Mphi = apply_multiplier(symbol, phi)
    fixed_part = Mphi.values - phi.values**2 + A
    omega = -float(phi.values @ fixed_part) / float(phi.values @ phi.values)
    wave = TravelingWave(
        profile=phi,
        omega=omega,
        A=A,
        symbol=symbol,
        nonlinearity=nl,
        constraint="zero_mean",
    )
    return _certified(wave, "ilw")


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def continue_family(
    seed: TravelingWave,
    parameter: str,
    values: Sequence[float],
    omega_map: Callable[[float], float] | None = None,
    A_map: Callable[[float], float] | None = None,
    tol: float = 1e-10,
    max_iter: int = 50,
    visit: Callable[[TravelingWave], tuple[Field, Field] | None] | None = None,
) -> tuple[TravelingWave, ...]:
    """Continuation along the wave surface: each converged wave seeds the next.

    ``parameter`` is "omega" (the seed's constraint carried along: its A,
    zero mean, or its mean), "A" (fixed-A solves at the seed speed), or
    "xi" with explicit omega/A maps.  ``visit`` gets each converged member
    and may return its tangents (eta, beta) = (d phi/d omega, d phi/d A) on
    any grid of the period; the next guess is phi + d_omega eta + d_A beta
    (d_A the prescribed step in A or, holding the mean to first order,
    -d_omega int eta / int beta) if that step is within sup|phi| / 2, else
    the previous profile, as without tangents (and for the first member).
    Returns the converged waves, one per value; a failed solve raises
    SolverError, after ``visit`` has seen every member before it.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("parameter grid must be a nonempty 1-D sequence")

    if parameter == "omega":
        constraint = Constraint.zero_mean()
        if seed.constraint == "fixed_A":
            constraint = Constraint.fixed_A(seed.A)
        elif seed.constraint == "fixed_mean":
            constraint = Constraint.fixed_mean(mean_value(seed.profile))
    elif parameter == "A":
        pass
    elif parameter == "xi":
        if omega_map is None or A_map is None:
            raise ValueError("xi-continuation needs omega_map and A_map")
    else:
        raise ValueError(f"unknown continuation parameter {parameter!r}")

    waves, tangent = [], None
    guess = seed.profile
    for value in values:
        if parameter == "omega":
            omega, con = float(value), constraint
        elif parameter == "A":
            omega, con = seed.omega, Constraint.fixed_A(float(value))
        else:
            omega, con = float(omega_map(value)), Constraint.fixed_A(float(A_map(value)))
        if tangent is not None:
            (eta, beta), N, d_omega = tangent, guess.grid.size, omega - waves[-1].omega
            d_A = (con.value - waves[-1].A if con.mode == "fixed_A"
                   else -d_omega * integral(eta) / integral(beta))
            step = d_omega * _resample(eta.values, N) + d_A * _resample(beta.values, N)
            if np.abs(step).max() <= 0.5 * guess.sup_norm():  # a farther one may change branch
                guess = guess.with_values(guess.values + step)
        try:
            w = solve_newton(
                guess,
                omega,
                con,
                seed.symbol,
                seed.nonlinearity,
                tol=tol,
                max_iter=max_iter,
                variant=seed.variant,
            )
        except SolverError as exc:
            raise type(exc)(f"continuation failed at {parameter}={value}: {exc}") from exc
        waves.append(w)
        guess = w.profile
        tangent = None if visit is None else visit(w)
    return tuple(waves)


# ---------------------------------------------------------------------------
# parameter derivatives along the (omega, A) surface
# ---------------------------------------------------------------------------

def speed_gradient_field(w: TravelingWave) -> Field:
    """Right-hand side -d(residual)/d(omega): phi for the standard variant,
    M phi + phi for the regularized one."""
    if w.variant == "standard":
        return w.profile
    return apply_multiplier(w.symbol, w.profile) + w.profile


def param_derivatives(w: TravelingWave, lin) -> tuple[Field, Field]:
    """Surface derivatives eta = d phi/d omega and beta = d phi/d A.

    Obtained from the linear solves L eta = -(speed gradient) and
    L beta = -1, both by one solve of L's first block (``linop._solve_tangent``):
    the even block for an even wave, else the one block bordered by the
    translation mode.  Requires the zero eigenvalue (when present) to be
    simple; a second near-zero eigenvalue, within ten times the operator's
    kernel band, raises NearSingularError.
    """
    lam = np.sort(np.abs(lin.eigenvalues))
    if lam.size >= 2 and lam[1] <= 10.0 * lin.zero_tol:
        raise NearSingularError(
            f"second-smallest |eigenvalue| {lam[1]:.3e} within the kernel band"
        )
    from .linop import _solve_tangent  # linop imports this module

    g = speed_gradient_field(w).values
    eta, beta = _solve_tangent(lin, np.stack((-g, np.full_like(g, -1.0))))
    return Field(w.grid, eta), Field(w.grid, beta)
