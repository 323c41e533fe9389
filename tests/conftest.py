import math
from dataclasses import replace

import numpy as np
import pytest

from periwave import elliptic
from periwave.cli import _solve_wave
from periwave.config import load_config
from periwave.evolution import _lyapunov_functional
from periwave.spectral import (
    DispersionSymbol,
    Field,
    PeriodicGrid,
    _check_same_grid,
    derivative,
    multiplier_matrix,
)
from periwave.stability import certify
from periwave.waves import (
    Constraint,
    Nonlinearity,
    _linear_coefficients,
    cnoidal_wave,
    bbm_dnoidal_wave,
    ilw_wave,
    solve_newton,
)

TWO_PI = 2.0 * math.pi


def inner(u: Field, v: Field) -> float:
    """L2 pairing over one period."""
    _check_same_grid(u, v)
    return float(u.grid.spacing * (u.values * v.values).sum())


def collocation(w) -> np.ndarray:
    """L about the wave w as its collocation matrix L_K = a M + diag(b - f'(phi))
    on the nodes, M the multiplier's circulant, symmetrized: the reference,
    built apart from the operator's real Fourier blocks, that the tests check
    them against."""
    a, b = _linear_coefficients(w.variant, w.omega)
    mat, diag = a * multiplier_matrix(w.symbol, w.grid), slice(None, None, w.grid.size + 1)
    mat.flat[diag] = mat.flat[diag] + b - w.nonlinearity.fprime(w.profile.values)
    return 0.5 * (mat + mat.T)


def apply(w, u: Field) -> Field:
    """L u by the collocation matrix of L about the wave w."""
    if not u.grid.same_as(w.grid):
        raise ValueError("field grid does not match the wave's grid")
    return Field(w.grid, collocation(w) @ u.values)


def bordered_solve(w, b: Field) -> Field:
    """x with L_K x + t v = b and (v, x) = 0, v = phi'/|phi'|: L^-1 b off the
    translation kernel, by the collocation matrix bordered by v."""
    pp = derivative(w.profile).values
    v = pp / np.linalg.norm(pp)
    bordered = np.block([[collocation(w), v[:, None]], [v, 0.0]])
    return Field(w.grid, np.linalg.solve(bordered, np.append(b.values, 0.0))[:-1])


def symmetry_defect(spec) -> float:
    """Worst relative distance from a Hamiltonian spectrum to its negation (0 when symmetric)."""
    ev = spec.eigenvalues
    dist = np.abs(ev[:, None] + ev[None, :]).min(axis=1)
    return float(dist.max() / max(1.0, np.abs(ev).max()))


def shift(u: Field, r: float) -> Field:
    """Exact translate u(. + r) via Fourier phase factors (r need not be a node)."""
    g = u.grid
    steps = r / g.spacing
    if abs(steps - round(steps)) < 1e-13:
        return Field(g, np.roll(u.values, -int(round(steps)) % g.size))
    phase = np.exp(1j * g.frequencies * r)
    return Field.from_spectrum(g, u.spectrum * phase)


def lyapunov_value(v: Field, w, sigma: float, mu: float, nu: float) -> float:
    """V(v) = G(v) - G(phi) + sigma (Q(v) - Q(phi))^2; zero on the wave orbit."""
    return _lyapunov_functional(w, sigma, mu, nu)(v)


@pytest.fixture(scope="session")
def kdv_stable():
    """Cnoidal wave in the certifiable regime (omega > 0)."""
    return cnoidal_wave(TWO_PI, 0.99, 256)


@pytest.fixture(scope="session")
def kdv_midk():
    """Cnoidal wave on the omega < 0 part of the zero-mean branch."""
    return cnoidal_wave(TWO_PI, 0.9, 256)


@pytest.fixture(scope="session")
def ilw_stable():
    return ilw_wave(TWO_PI, 1.0, 0.97, 256)


@pytest.fixture(scope="session")
def bbm_wave():
    return bbm_dnoidal_wave(TWO_PI, 0.99, 256)


def make_gkdv2_wave(N=128):
    """mKdV (p=2) wave from the exact cn ansatz, polished by Newton at A = 0."""
    L = TWO_PI
    grid = PeriodicGrid(L, N)
    k = 0.8
    K = elliptic.complete_K(k)
    alpha = 4.0 * K / L
    amp = math.sqrt(6.0) * k * alpha
    omega = alpha * alpha * (2.0 * k * k - 1.0)
    _, cn, _ = elliptic.jacobi_sn_cn_dn(alpha * grid.nodes, k)
    return solve_newton(
        Field(grid, amp * cn),
        omega,
        Constraint.fixed_A(0.0),
        DispersionSymbol.second_derivative(L),
        Nonlinearity.power_law(2),
        tol=1e-11,
    )


def make_gkdv3_wave(N=128):
    L = TWO_PI
    grid = PeriodicGrid(L, N)
    return solve_newton(
        Field(grid, 1.2 * np.cos(grid.nodes)),
        -1.1,
        Constraint.fixed_A(0.0),
        DispersionSymbol.second_derivative(L),
        Nonlinearity.power_law(3),
        tol=1e-11,
    )


def make_bo_wave(N=128):
    L = TWO_PI
    grid = PeriodicGrid(L, N)
    return solve_newton(
        Field(grid, np.cos(grid.nodes)),
        -0.5,
        Constraint.zero_mean(),
        DispersionSymbol.hilbert_derivative(L),
        Nonlinearity.quadratic(),
        tol=1e-11,
    )


def certified_tangent(w):
    """A ``continue_family`` visit: the member's (eta, beta) from ``certify``."""
    cert = certify(w)
    return None if cert.eta is None else (cert.eta, cert.beta)


def omega_targets(omegas, constraint=Constraint.zero_mean()):
    """``continue_family`` targets along omega, every member held to ``constraint``."""
    return [(float(omega), constraint) for omega in omegas]


def make_gkdv5_wave(N, omega):
    """gKdV p=5 wave at A = 0 from the solitary sech^(2/5) guess centred at 0."""
    grid = PeriodicGrid(TWO_PI, N)
    x = np.where(grid.nodes < math.pi, grid.nodes, grid.nodes - TWO_PI)
    guess = (21.0 * omega) ** 0.2 / np.cosh(2.5 * math.sqrt(omega) * x) ** 0.4
    return solve_newton(
        Field(grid, guess),
        omega,
        Constraint.fixed_A(0.0),
        DispersionSymbol.second_derivative(TWO_PI),
        Nonlinearity.power_law(5),
    )


@pytest.fixture(scope="session")
def preset_wave():
    """preset_wave(name, N): the preset's wave at grid size N (None: its own N).

    Each (name, N) is solved once per session.
    """
    cache = {}

    def get(name, N=None):
        if (name, N) not in cache:
            overrides = [] if N is None else [f"grid.N={N}"]
            cache[name, N] = _solve_wave(load_config(preset=name, overrides=overrides))
        return cache[name, N]

    return get


@pytest.fixture(scope="session")
def preset_cert(preset_wave):
    """preset_cert(name, N, roll): ``certify`` of the preset's wave at grid size N
    (None: its own N), translated by ``np.roll`` of ``roll`` nodes.

    Each (name, N, roll) is certified once per session.
    """
    cache = {}

    def get(name, N=None, roll=0):
        if (name, N, roll) not in cache:
            w = preset_wave(name, N)
            if roll:
                w = replace(w, profile=Field(w.grid, np.roll(w.profile.values, roll)))
            cache[name, N, roll] = certify(w)
        return cache[name, N, roll]

    return get


@pytest.fixture(scope="session")
def gkdv2_wave():
    return make_gkdv2_wave()


@pytest.fixture(scope="session")
def gkdv3_wave():
    return make_gkdv3_wave()


@pytest.fixture(scope="session")
def bo_wave():
    return make_bo_wave()


@pytest.fixture(scope="session")
def wave_corpus(kdv_stable, gkdv2_wave, gkdv3_wave, bo_wave, ilw_stable):
    """The identity-suite corpus: KdV, gKdV p=2,3, BO, ILW."""
    return {
        "kdv": kdv_stable,
        "gkdv_p2": gkdv2_wave,
        "gkdv_p3": gkdv3_wave,
        "bo": bo_wave,
        "ilw": ilw_stable,
    }
