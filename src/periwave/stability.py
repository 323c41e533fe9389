"""Stability criteria: surface derivatives, quadratic-form witnesses, verdicts.

Quantities on the (omega, A) wave surface:

    M_omega = int eta dx      M_A = int beta dx
    F_omega = int g eta dx    F_A = int g beta dx

with eta, beta the parameter derivatives of the profile and g the gradient
of the momentum functional at phi (g = phi for the standard variant,
g = M phi + phi for the regularized one).  They coincide with the resolvent
pairings -(L^-1 g, 1), -(L^-1 1, 1), -(L^-1 g, g) whenever the kernel solve
is well posed, and satisfy F_A = M_omega identically.

Delta(x, y) = x^2 M_A + x y (M_omega + F_A) + y^2 F_omega is the form of
the symmetric matrix S = [[M_A, m], [m, F_omega]], m = (M_omega + F_A)/2.
Once H0 (n(L) = 1), H1 and the residual gate hold, the verdict is the sign
of S's top eigenvalue lambda:

- lambda > 0: orbitally stable.  The paper's criteria M_A > 0, F_omega > 0,
  M_omega^2 - F_omega M_A > 0 and a Delta witness each exhibit a positive
  direction; the first that holds is reported, with (mu, nu) = (1, 0),
  (0, 1) or the top eigenvector.
- lambda < 0: spectrally unstable, since n(L) - n_+(S) = 1 is odd
  (Grillakis-Shatah-Strauss 1990).
- lambda = 0: inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .evolution import mass, momentum
from .linop import (
    LinearizedOperator,
    SpectralReport,
    _complement_basis,
    _coordinates,
    _dense,
    _diagonal,
    assemble,
    check_H0,
    constrained_min_rayleigh,
    h1_constants,
)
from .spectral import (
    Field,
    PeriodicGrid,
    _band_size,
    _resample,
    _sobolev_weights,
    derivative,
    integral,
    verify_symbol_bounds,
)
from .waves import (
    Constraint,
    NearSingularError,
    SolverError,
    TravelingWave,
    _linear_coefficients,
    param_derivatives,
    residual,
    residual_bound,
    solve_newton,
    speed_gradient_field,
)

__all__ = [
    "SurfaceDerivatives",
    "StabilityVerdict",
    "HamiltonianSpectrum",
    "Certification",
    "surface_derivatives",
    "finite_difference_surface_derivatives",
    "resolvent_consistency",
    "delta_form",
    "find_delta_witness",
    "decide",
    "curve_criterion",
    "hamiltonian_spectrum",
    "lyapunov_sigma",
    "certify",
]

ORBITALLY_STABLE = "orbitally_stable"
SPECTRALLY_UNSTABLE = "spectrally_unstable"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SurfaceDerivatives:
    M_omega: float
    M_A: float
    F_omega: float
    F_A: float

    def det_condition(self) -> float:
        """The quantity M_omega^2 - F_omega * M_A (criterion (iii) when positive)."""
        return self.M_omega**2 - self.F_omega * self.M_A

    @cached_property
    def _delta_eigh(self):
        """Ascending eigenpairs of S, the matrix of Delta; one eigensolve serves
        both ``find_delta_witness`` and ``decide``."""
        m = 0.5 * (self.M_omega + self.F_A)
        return np.linalg.eigh(np.array([[self.M_A, m], [m, self.F_omega]]))


def surface_derivatives(w: TravelingWave, eta: Field, beta: Field) -> SurfaceDerivatives:
    g = speed_gradient_field(w)
    return SurfaceDerivatives(
        M_omega=integral(eta),
        M_A=integral(beta),
        F_omega=integral(g * eta),
        F_A=integral(g * beta),
    )


def finite_difference_surface_derivatives(w: TravelingWave) -> SurfaceDerivatives:
    """Surface derivatives from re-solved fixed-A neighbors (central differences).

    This is the path independent of the kernel solve: four Newton solves
    seeded by the wave itself, with steps 1e-4 max(1, |omega|) and
    1e-4 max(1, |A|), then difference quotients of the mass and momentum
    functionals.  The solver tolerance floor accounts for the roundoff level
    of the multiplier application at the wave's resolution.
    """
    h_omega = 1e-4 * max(1.0, abs(w.omega))
    h_A = 1e-4 * max(1.0, abs(w.A))
    tol = max(1e-10, 5.0 * w.residual_norm)

    def resolve(omega, A):
        return solve_newton(
            w.profile,
            omega,
            Constraint.fixed_A(A),
            w.symbol,
            w.nonlinearity,
            tol=tol,
            variant=w.variant,
        )

    w_op = resolve(w.omega + h_omega, w.A)
    w_om = resolve(w.omega - h_omega, w.A)
    w_ap = resolve(w.omega, w.A + h_A)
    w_am = resolve(w.omega, w.A - h_A)

    def d_mass(wp, wm, h):
        return (mass(wp.profile) - mass(wm.profile)) / (2.0 * h)

    def d_momentum(wp, wm, h):
        return (
            momentum(wp.profile, symbol=w.symbol, variant=w.variant)
            - momentum(wm.profile, symbol=w.symbol, variant=w.variant)
        ) / (2.0 * h)

    return SurfaceDerivatives(
        M_omega=d_mass(w_op, w_om, h_omega),
        M_A=d_mass(w_ap, w_am, h_A),
        F_omega=d_momentum(w_op, w_om, h_omega),
        F_A=d_momentum(w_ap, w_am, h_A),
    )


def resolvent_consistency(w: TravelingWave, lin: LinearizedOperator) -> SurfaceDerivatives:
    """The surface from ``param_derivatives``' kernel solves: -(L^-1 g, 1),
    -(L^-1 1, 1), -(L^-1 g, g) and -(L^-1 1, g)."""
    return surface_derivatives(w, *param_derivatives(w, lin))


# ---------------------------------------------------------------------------
# quadratic form and witnesses
# ---------------------------------------------------------------------------

def delta_form(sd: SurfaceDerivatives, x: float, y: float) -> float:
    return x * x * sd.M_A + x * y * (sd.M_omega + sd.F_A) + y * y * sd.F_omega


def find_delta_witness(sd: SurfaceDerivatives) -> Optional[tuple[float, float]]:
    """Maximizing direction of the Delta quadratic form, if positive anywhere:
    the leading eigenvector of S when its eigenvalue is positive, else None."""
    lam, vec = sd._delta_eigh
    if not lam[-1] > 0.0:
        return None
    a, b = vec[:, -1]
    return float(a), float(b)


# ---------------------------------------------------------------------------
# verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityVerdict:
    conclusion: str
    fired_criterion: Optional[str]
    criteria: dict
    delta_witness: Optional[tuple]
    mu_nu: Optional[tuple]
    prerequisites: dict
    reason: Optional[str] = None

    def to_dict(self) -> dict:
        return asdict(self)


def decide(
    sd: Optional[SurfaceDerivatives], h0: SpectralReport, h1_pass: bool,
    wave_residual: tuple[float, float] = (0.0, 0.0),
) -> StabilityVerdict:
    """Pure decision function; deterministic in its inputs.

    A wave residual above its roundoff bound (or NaN), or ``sd`` None after a
    near-singular kernel solve, leaves the verdict inconclusive whatever the
    prerequisites say.  ``wave_residual`` is (residual, roundoff bound).
    """
    criteria, witness = {}, None
    fired = mu_nu = reason = None
    conclusion = INCONCLUSIVE
    if sd is not None:
        criteria = {
            "M_A": sd.M_A,
            "F_omega": sd.F_omega,
            "M_omega": sd.M_omega,
            "det_condition": sd.det_condition(),
        }
        witness = find_delta_witness(sd)
    res, bound = wave_residual
    if not res <= bound:
        reason = f"wave residual {res:.3e} above the roundoff bound {bound:.3e}"
    elif sd is None:
        reason = "kernel solve for the surface derivatives is near-singular"
    elif not (h0.h0_pass and h1_pass):
        reason = (
            "spectral prerequisites failed "
            f"(n_neg={h0.n_negative}, zero_dim={h0.zero_dim}, h1={h1_pass})"
        )
    elif witness is not None:
        conclusion = ORBITALLY_STABLE
        fired = next((c for c in ("M_A", "F_omega", "det_condition") if criteria[c] > 0.0),
                     "delta_witness")
        mu_nu = {"M_A": (1.0, 0.0), "F_omega": (0.0, 1.0)}.get(fired, witness)
    elif sd._delta_eigh[0][-1] < 0.0:
        conclusion = SPECTRALLY_UNSTABLE
    else:
        reason = "no stability criterion fired and instability premises unmet"
    return StabilityVerdict(
        conclusion=conclusion,
        fired_criterion=fired,
        criteria=criteria,
        delta_witness=witness,
        mu_nu=mu_nu,
        prerequisites={"h0_pass": h0.h0_pass, "h1_pass": h1_pass},
        reason=reason,
    )


# ---------------------------------------------------------------------------
# parametrization-free criteria
# ---------------------------------------------------------------------------

def curve_criterion(xi, omega, A, M, F) -> tuple[float, tuple[float, float]]:
    """Curve form -A'(xi) dM/dxi - omega'(xi) dF/dxi by central differences.

    Reads sweep's family.csv columns: the sampled curve xi -> (omega, A)
    and each member's mass M and momentum F.  The maximum over the interior
    points is returned, so a negative result certifies the criterion along
    the sampled curve, with (mu, nu) = (dA/dxi, domega/dxi) at the middle one.
    """
    if len(xi) < 3:
        raise ValueError("curve criterion needs at least 3 family members")
    dA, dom, dM, dF = (np.gradient(col, xi)[1:-1] for col in (A, omega, M, F))
    value = float(np.max(-dA * dM - dom * dF))
    mid = len(dA) // 2
    return value, (float(dA[mid]), float(dom[mid]))


# ---------------------------------------------------------------------------
# Hamiltonian spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianSpectrum:
    eigenvalues: np.ndarray
    k_r: int
    re_tol: float
    im_tol: float


def _hamiltonian_matrix(lin: LinearizedOperator) -> np.ndarray:
    """d/dx composed with L in ``linop._coordinates``, where d/dx maps cos jx to
    -xi_j sin jx and sin jx to xi_j cos jx (modes 0 and K/2 to zero): a signed
    swap of L's rows, made in place on L's one K x K matrix."""
    H, h = _dense(lin), lin.size // 2
    xi = lin.grid.frequencies[1:h, None]
    sin_rows = H[h + 1:].copy()
    np.multiply(H[1:h], -xi, out=H[h + 1:])  # sin jx rows: -xi_j times L's cos jx rows
    np.multiply(sin_rows, xi, out=H[1:h])    # cos jx rows: xi_j times L's sin jx rows
    H[[0, h]] = 0.0
    return H


def hamiltonian_spectrum(lin: LinearizedOperator) -> HamiltonianSpectrum:
    """Eigenvalues of d/dx composed with L, with the real-axis count k_r.

    k_r counts eigenvalues with real part above re_tol and imaginary part
    within im_tol of zero, both 1e-6 times the spectral norm of L.
    """
    if lin.variant != "standard":
        raise ValueError("hamiltonian spectrum is defined for the standard variant")
    re_tol = im_tol = 1e-6 * lin.norm
    ev = np.linalg.eigvals(_hamiltonian_matrix(lin))
    k_r = int(np.sum((ev.real > re_tol) & (np.abs(ev.imag) < im_tol)))
    return HamiltonianSpectrum(eigenvalues=ev, k_r=k_r, re_tol=re_tol, im_tol=im_tol)


# ---------------------------------------------------------------------------
# Lyapunov coefficient
# ---------------------------------------------------------------------------

def lyapunov_sigma(
    w: TravelingWave,
    lin: LinearizedOperator,
    sd: SurfaceDerivatives,
    mu: float,
    nu: float,
) -> tuple[float, float]:
    """Penalty weight sigma making (Lv,v) + 2 sigma (q,v)^2 coercive on {phi'}^perp.

    q = mu + nu g is the gradient of mu M + nu F at the wave; orthogonality is
    in the H^(m/2) inner product of the Lyapunov function's second variation.
    With n(L) = 1, (L^-1 q, q) = -Delta(mu, nu), Delta taken from sd, the
    surface derivatives of ``w`` its caller holds (``Certification.surface``),
    so the form is coercive exactly when 2 sigma Delta > 1: sigma is the least
    of 1, 4, 16, ... above 1/(2 Delta).  Returns (sigma, margin), margin the
    least generalized Rayleigh quotient against the H^(m/2) norm; Delta <= 0
    or margin <= 0 raises SolverError.
    """
    delta = delta_form(sd, mu, nu)
    sigma = 1.0
    while 0.0 < 2.0 * sigma * delta <= 1.0:
        sigma *= 4.0
    # in ``linop._coordinates``, where W^(+-1/2) are diagonal
    g, s = w.grid, w.sobolev_index
    half_inv = _diagonal(_sobolev_weights(g, -0.5 * s))
    y0 = _diagonal(_sobolev_weights(g, 0.5 * s)) * _coordinates(derivative(w.profile).values)[0]
    B = _complement_basis((y0 / np.linalg.norm(y0))[:, None])
    qy = half_inv * _coordinates(mu + nu * speed_gradient_field(w).values)[0]
    A = half_inv[:, None] * _dense(lin) * half_inv + (2.0 * sigma * g.spacing) * np.outer(qy, qy)
    margin = float(np.linalg.eigvalsh(B.T @ A @ B)[0])
    if not (delta > 0.0 and margin > 0.0):
        raise SolverError(
            f"no coercive penalty weight: Delta(mu, nu) = {delta:.3e}, "
            f"sigma = {sigma:.3e}, margin {margin:.3e}"
        )
    return sigma, margin


# ---------------------------------------------------------------------------
# end-to-end certification
# ---------------------------------------------------------------------------

def _core(w: TravelingWave):
    """The wave truncated to its low-mode core, with L and H1's c1 there.

    J is the highest mode of f'(phi) above eps sup|f'(phi)|, and the core
    size K the least even size >= 16 above 3J, capped at N (the 3/2 rule
    of ``_band_size``: f'(phi) v does not alias onto the band).  K doubles
    until the modes it drops, K/2 <= |kappa| <= N/2, are certified inert.
    By Weyl their block of L is at least gamma = min(a theta + b) -
    sup|f'(phi)| > 0, and by Haynsworth In L_N = In(that block) + In(Schur
    complement).  The complement moves the core's eigenvalues by at most
    delta = (sum_{j != 0} |f'(phi)^_j|)^2 / gamma, which must stay below the
    gap, the least |eigenvalue| of the core's L off the kernel band.  The
    dropped block of L - c1 W must also stay above -c2, so c2 is set on the core;
    since c2 >= 0, it is computed only when that block is not positive.
    With K = N the core is the wave itself.
    """
    grid, sym, N = w.grid, w.symbol, w.grid.size
    v = w.profile.with_values(w.nonlinearity.fprime(w.profile.values))
    modes, K = _band_size(v)
    coupling = float((np.abs(v.spectrum) / N)[1:].sum())
    kappa = np.abs(grid.wavenumbers)
    a, b = _linear_coefficients(w.variant, w.omega)
    level = a * sym.values_on(grid) + b - v.sup_norm()
    c1 = 0.5 * sym.lower_bound
    shifted = level - c1 * _sobolev_weights(grid, 0.5 * sym.order)
    while True:
        K = min(K, N)
        core = w
        if K < N:
            core = replace(w, profile=Field(PeriodicGrid(grid.length, K),
                                            _resample(w.profile.values, K)))
        lin = assemble(core)
        lam = np.abs(lin.eigenvalues)
        guard = {"N": N, "K": K, "modes": modes, "gamma": None, "delta": None,
                 "gap": float(lam[lam > lin.zero_tol].min(initial=math.inf))}
        if K == N:
            return core, lin, c1, guard
        dropped = kappa >= K // 2
        gamma = float(level[dropped].min())
        delta = coupling**2 / gamma if gamma > 0.0 else math.inf
        floor = shifted[dropped].min()
        if delta < guard["gap"] and (floor > 0.0 or floor > -h1_constants(lin)[1]):
            guard.update(gamma=gamma, delta=delta)
            return core, lin, c1, guard
        K *= 2


@dataclass(frozen=True)
class Certification:
    wave: TravelingWave
    core: TravelingWave
    core_guard: dict
    operator: LinearizedOperator
    spectral_report: SpectralReport
    c1: float
    surface: Optional[SurfaceDerivatives]
    eta: Optional[Field]
    beta: Optional[Field]
    verdict: StabilityVerdict

    @cached_property
    def c2(self) -> float:
        """H1's Garding shift on the core (see ``h1_constants``)."""
        return h1_constants(self.operator)[1]

    @cached_property
    def c3(self) -> Optional[float]:
        """Least Rayleigh quotient of L over {phi', mu + nu g}^perp (g the momentum
        gradient) for the verdict's (mu, nu); None when the verdict chose none."""
        if self.verdict.mu_nu is None:
            return None
        mu, nu = self.verdict.mu_nu
        q = Field(self.core.grid, mu + nu * speed_gradient_field(self.core).values)
        return constrained_min_rayleigh(self.operator, [derivative(self.core.profile), q])

    @cached_property
    def k_r(self) -> Optional[int]:
        """Real-axis count of the Hamiltonian spectrum (standard variant only)."""
        if self.wave.variant != "standard":
            return None
        return hamiltonian_spectrum(self.operator).k_r

    def to_dict(self) -> dict:
        out = {
            "h0": self.spectral_report.to_dict(),
            "h1": {"c1": self.c1, "c2": self.c2},
            "surface_derivatives": None if self.surface is None else asdict(self.surface),
            "c3": self.c3,
            "core": dict(self.core_guard),
            "k_r": self.k_r,
            "wave": {
                "omega": self.wave.omega,
                "A": self.wave.A,
                "residual_norm": self.wave.residual_norm,
                "variant": self.wave.variant,
                **self.wave.newton_report(),
            },
        }
        out.update(self.verdict.to_dict())
        return out


def certify(w: TravelingWave) -> Certification:
    """Full pipeline: assemble, H0/H1 checks, surface derivatives, verdict.

    Every step past the symbol bounds runs on the wave's low-mode core (see
    ``_core``); the operator, spectra and kernel band are the core's.  H1
    needs c1 > 0 and the symbol's stored growth bounds on the wave's own
    grid, and the residual, recomputed at N, must be within
    ``residual_bound``.  H1's c2 and the cross-checks c3 and k_r are computed
    when first read.  ``eta`` and ``beta``, the core fields behind the
    surface derivatives, are None when the surface is.
    """
    core, lin, c1, guard = _core(w)
    res = residual(w).sup_norm(), residual_bound(w.symbol, w.profile)
    h0 = check_H0(lin)
    h1_pass = c1 > 0.0 and verify_symbol_bounds(w.symbol, w.grid).passed

    surface = eta = beta = None
    try:
        eta, beta = param_derivatives(core, lin)
        surface = surface_derivatives(core, eta, beta)
    except NearSingularError:
        pass

    return Certification(
        wave=w,
        core=core,
        core_guard=guard,
        operator=lin,
        spectral_report=h0,
        c1=c1,
        surface=surface,
        eta=eta,
        beta=beta,
        verdict=decide(surface, h0, h1_pass, res),
    )
