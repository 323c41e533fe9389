"""Periodic grid, Fourier fields, dispersion symbols, and multiplier calculus.

Conventions
-----------
A field lives on ``x_j = j L / N`` with integer wavenumbers
``kappa in {-N/2, ..., N/2 - 1}`` (FFT layout) and physical frequencies
``xi = 2 pi kappa / L``.  Transforms are the unnormalized numpy FFT; the
L2 pairing on the grid is the trapezoid rule ``(L/N) sum u v``, which is
exact for band-limited integrands.  The Nyquist mode ``kappa = -N/2`` is
zeroed in the derivative (the odd symbol has no well-defined sign there on
a real grid) but kept in even multipliers and norms: an even symbol is
unambiguous at Nyquist, and zeroing it there plants a spurious eigenvalue
at the potential level in assembled operators (it breaks the N -> 2N
eigenvalue-stability check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = [
    "PeriodicGrid",
    "DispersionSymbol",
    "Field",
    "SymbolBoundsReport",
    "derivative",
    "integral",
    "mean_value",
    "inner",
    "sobolev_inner",
    "sobolev_norm",
    "apply_multiplier",
    "shift",
    "random_smooth_field",
    "multiplier_matrix",
    "derivative_matrix",
    "sobolev_weight_matrix",
    "verify_symbol_bounds",
]


@dataclass(frozen=True)
class PeriodicGrid:
    """Equispaced collocation grid on a period [0, L)."""

    length: float
    size: int

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError(f"period must be positive, got {self.length}")
        if self.size < 16 or self.size % 2 != 0:
            raise ValueError(f"collocation count must be even and >= 16, got {self.size}")

    @cached_property
    def nodes(self) -> np.ndarray:
        return self.length * np.arange(self.size) / self.size

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers in FFT layout: 0, 1, ..., N/2-1, -N/2, ..., -1."""
        return np.fft.fftfreq(self.size, 1.0 / self.size)

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Physical frequencies xi(kappa) = 2 pi kappa / L in FFT layout."""
        return 2.0 * math.pi * self.wavenumbers / self.length

    @property
    def spacing(self) -> float:
        return self.length / self.size

    @property
    def nyquist_index(self) -> int:
        return self.size // 2

    def same_as(self, other: "PeriodicGrid") -> bool:
        return self.size == other.size and abs(self.length - other.length) <= 1e-12 * self.length


def _coerce_values(values, size):
    arr = np.asarray(values, dtype=float)
    if arr.shape != (size,):
        raise ValueError(f"field values must have shape ({size},), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class Field:
    """Real samples on a periodic grid with a cached Fourier transform."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _coerce_values(self.values, self.grid.size))

    @cached_property
    def spectrum(self) -> np.ndarray:
        return np.fft.fft(self.values)

    def with_values(self, values) -> "Field":
        return Field(self.grid, values)

    @classmethod
    def from_spectrum(cls, grid: PeriodicGrid, spectrum) -> "Field":
        return cls(grid, np.fft.ifft(np.asarray(spectrum)).real)

    @classmethod
    def constant(cls, grid: PeriodicGrid, value: float) -> "Field":
        return cls(grid, np.full(grid.size, float(value)))

    def __add__(self, other):
        if isinstance(other, Field):
            _check_same_grid(self, other)
            return Field(self.grid, self.values + other.values)
        return Field(self.grid, self.values + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Field):
            _check_same_grid(self, other)
            return Field(self.grid, self.values - other.values)
        return Field(self.grid, self.values - float(other))

    def __rsub__(self, other):
        return Field(self.grid, float(other) - self.values)

    def __mul__(self, other):
        if isinstance(other, Field):
            _check_same_grid(self, other)
            return Field(self.grid, self.values * other.values)
        return Field(self.grid, self.values * float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.values)

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


def _check_same_grid(u: Field, v: Field):
    if not u.grid.same_as(v.grid):
        raise ValueError("fields live on different grids")


# ---------------------------------------------------------------------------
# dispersion symbols
# ---------------------------------------------------------------------------

def _coth_positive(x):
    """coth(x) for x > 0 as 1 + 2/(e^{2x} - 1), safe against overflow."""
    with np.errstate(over="ignore"):
        return 1.0 + 2.0 / np.expm1(np.minimum(2.0 * x, 1400.0))


@dataclass(frozen=True)
class DispersionSymbol:
    """Even Fourier multiplier theta(kappa) with power-growth metadata.

    ``order`` is the growth exponent m, and ``(lower_bound, upper_bound,
    threshold)`` are constants (v1, v2, kappa0) such that
    ``v1 |kappa|^m <= theta(kappa) <= v2 |kappa|^m`` for |kappa| >= kappa0.
    The bounds are tied to the period stored in ``length``.
    """

    kind: str
    length: float
    order: float
    lower_bound: float
    upper_bound: float
    threshold: int
    delta: float | None = None

    @classmethod
    def second_derivative(cls, length: float) -> "DispersionSymbol":
        """Symbol of -d^2/dx^2: theta(kappa) = (2 pi kappa / L)^2, the power m = 2."""
        return replace(cls.power(2.0, length), kind="second_derivative")

    @classmethod
    def hilbert_derivative(cls, length: float) -> "DispersionSymbol":
        """Symbol of H d/dx: theta(kappa) = 2 pi |kappa| / L, the power m = 1."""
        return replace(cls.power(1.0, length), kind="hilbert_derivative")

    @classmethod
    def ilw(cls, delta: float, length: float) -> "DispersionSymbol":
        """Intermediate-long-wave symbol (2 pi kappa/L) coth(2 pi kappa delta/L) - 1/delta.

        The threshold kappa0 is the smallest integer with delta > L/(kappa0 pi)
        plus one, which makes v1 = (2 pi / L - 2/(kappa0 delta)) / 2 a valid
        lower-bound constant; v2 = 2 pi / L is sharp.
        """
        if delta <= 0:
            raise ValueError(f"ilw depth must be positive, got {delta}")
        kappa0 = int(math.ceil(length / (math.pi * delta))) + 1
        v2 = 2.0 * math.pi / length
        v1 = 0.5 * (v2 - 2.0 / (kappa0 * delta))
        return cls("ilw", length, 1.0, v1, v2, kappa0, delta=delta)

    @classmethod
    def power(cls, m: float, length: float) -> "DispersionSymbol":
        """Pure power symbol |2 pi kappa / L|^m, m > 0."""
        if m <= 0:
            raise ValueError(f"power symbol order must be positive, got {m}")
        v = (2.0 * math.pi / length) ** m
        return cls("power", length, float(m), v, v, 1)

    def value(self, kappa):
        """theta(kappa) for integer kappa (scalar or array)."""
        xi = 2.0 * math.pi * np.abs(np.asarray(kappa, dtype=float)) / self.length
        if self.kind in ("power", "second_derivative", "hilbert_derivative"):
            out = xi**self.order
        elif self.kind == "ilw":
            arg = xi * self.delta
            safe = np.where(arg > 0, arg, 1.0)
            out = np.where(arg > 0, xi * _coth_positive(safe) - 1.0 / self.delta, 0.0)
        else:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        return out if out.shape else float(out)

    def values_on(self, grid: PeriodicGrid) -> np.ndarray:
        self._check_grid(grid)
        return np.asarray(self.value(grid.wavenumbers))

    def _check_grid(self, grid: PeriodicGrid):
        if abs(grid.length - self.length) > 1e-12 * self.length:
            raise ValueError(
                f"symbol was built for period {self.length}, grid has {grid.length}"
            )


# ---------------------------------------------------------------------------
# calculus on fields
# ---------------------------------------------------------------------------

def derivative(u: Field) -> Field:
    """Spectral d/dx with the Nyquist mode zeroed."""
    uh = u.spectrum * (1j * u.grid.frequencies)
    uh[u.grid.nyquist_index] = 0.0
    return Field.from_spectrum(u.grid, uh)


def integral(u: Field) -> float:
    """Integral over one period (trapezoid rule on equispaced nodes)."""
    return float(u.grid.spacing * u.values.sum())


def mean_value(u: Field) -> float:
    return integral(u) / u.grid.length


def inner(u: Field, v: Field) -> float:
    """L2 pairing over one period."""
    _check_same_grid(u, v)
    return float(u.grid.spacing * (u.values * v.values).sum())


def _sobolev_weights(grid: PeriodicGrid, s: float) -> np.ndarray:
    return (1.0 + grid.frequencies**2) ** s


def sobolev_inner(u: Field, v: Field, s: float) -> float:
    """H^s pairing sum (1 + xi^2)^s Re[u_hat conj(v_hat)], scaled to L2 at s=0."""
    _check_same_grid(u, v)
    g = u.grid
    w = _sobolev_weights(g, s)
    return float(
        (g.length / g.size**2) * np.real(w * u.spectrum * np.conj(v.spectrum)).sum()
    )


def sobolev_norm(u: Field, s: float) -> float:
    if s < 0:
        raise ValueError(f"sobolev_norm requires s >= 0, got {s}")
    return math.sqrt(max(sobolev_inner(u, u, s), 0.0))


def apply_multiplier(symbol: DispersionSymbol, u: Field) -> Field:
    """Apply the Fourier multiplier: output spectrum theta(kappa) u_hat(kappa).

    The symbol is even, so the Nyquist mode is kept at its true value.
    """
    symbol._check_grid(u.grid)
    return Field.from_spectrum(u.grid, u.spectrum * symbol.values_on(u.grid))


def shift(u: Field, r: float) -> Field:
    """Exact translate u(. + r) via Fourier phase factors (r need not be a node)."""
    g = u.grid
    steps = r / g.spacing
    if abs(steps - round(steps)) < 1e-13:
        return Field(g, np.roll(u.values, -int(round(steps)) % g.size))
    phase = np.exp(1j * g.frequencies * r)
    return Field.from_spectrum(g, u.spectrum * phase)


def random_smooth_field(grid: PeriodicGrid, seed: int, norm_s: float | None = None) -> Field:
    """Seeded random mean-free real field with spectrum decaying like (1+|kappa|)^-4.

    With ``norm_s`` given, the result is normalized to unit H^s norm.
    """
    rng = np.random.default_rng(seed)
    N = grid.size
    half = N // 2
    coeff = np.zeros(N, dtype=complex)
    mags = (1.0 + np.arange(1, half)) ** -4.0
    coeff[1:half] = (rng.standard_normal(half - 1) + 1j * rng.standard_normal(half - 1)) * mags
    coeff[-1 : -half : -1] = np.conj(coeff[1:half])
    u = Field.from_spectrum(grid, coeff * N)
    if norm_s is not None:
        u = u * (1.0 / sobolev_norm(u, norm_s))
    return u


# ---------------------------------------------------------------------------
# dense matrices (collocation representation)
# ---------------------------------------------------------------------------

def _conjugated_diagonal(grid: PeriodicGrid, diag: np.ndarray) -> np.ndarray:
    """Real collocation matrix of a Fourier-diagonal operator F^-1 diag F.

    The matrix is circulant: entry (j, l) is c[(j - l) mod N] with
    c = F^-1 diag, so one inverse transform of the diagonal builds it.
    """
    c = np.fft.ifft(diag).real
    n = np.arange(grid.size)
    return c[(n[:, None] - n[None, :]) % grid.size]


def multiplier_matrix(symbol: DispersionSymbol, grid: PeriodicGrid) -> np.ndarray:
    return _conjugated_diagonal(grid, symbol.values_on(grid))


def derivative_matrix(grid: PeriodicGrid) -> np.ndarray:
    d = (1j * grid.frequencies).copy()
    d[grid.nyquist_index] = 0.0
    return _conjugated_diagonal(grid, d)


def sobolev_weight_matrix(grid: PeriodicGrid, s: float) -> np.ndarray:
    """Collocation matrix of the H^s weight (1 + xi^2)^s (kept at Nyquist: it is a norm, not a derivative)."""
    return _conjugated_diagonal(grid, _sobolev_weights(grid, s))


# ---------------------------------------------------------------------------
# symbol bound verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolBoundsReport:
    kind: str
    order: float
    threshold: int
    stored_lower: float
    stored_upper: float
    tightest_lower: float
    tightest_upper: float
    passed: bool


def verify_symbol_bounds(symbol: DispersionSymbol, grid: PeriodicGrid) -> SymbolBoundsReport:
    """Enumerate |kappa| in [max(kappa0, 1), N/2] and check the growth bounds.

    Returns the tightest feasible constants on that range together with a
    pass/fail against the constants stored in the symbol.
    """
    symbol._check_grid(grid)
    k_lo = max(symbol.threshold, 1)
    k_hi = grid.size // 2
    ks = np.arange(k_lo, k_hi + 1, dtype=float)
    theta = np.asarray(symbol.value(ks))
    ratio = theta / ks**symbol.order
    tight_lo = float(ratio.min())
    tight_hi = float(ratio.max())
    slack = 1e-12 * max(1.0, tight_hi)
    passed = symbol.lower_bound <= tight_lo + slack and symbol.upper_bound >= tight_hi - slack
    return SymbolBoundsReport(
        kind=symbol.kind,
        order=symbol.order,
        threshold=symbol.threshold,
        stored_lower=symbol.lower_bound,
        stored_upper=symbol.upper_bound,
        tightest_lower=tight_lo,
        tightest_upper=tight_hi,
        passed=passed,
    )
