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
from functools import cached_property, lru_cache

import numpy as np

# entries of each per-process cache of a vector that depends only on the
# grid, the symbol or the Sobolev index, keyed by value
_CACHE_SIZE = 64

_EPS = float(np.finfo(float).eps)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, which a cache shares, made read-only: a write into it raises ValueError."""
    arr.flags.writeable = False
    return arr


__all__ = [
    "PeriodicGrid",
    "DispersionSymbol",
    "Field",
    "SymbolBoundsReport",
    "derivative",
    "integral",
    "mean_value",
    "sobolev_inner",
    "sobolev_norm",
    "apply_multiplier",
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

    @property
    @lru_cache(maxsize=_CACHE_SIZE)
    def nodes(self) -> np.ndarray:
        return _read_only(self.length * np.arange(self.size) / self.size)

    @property
    @lru_cache(maxsize=_CACHE_SIZE)
    def wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers in FFT layout: 0, 1, ..., N/2-1, -N/2, ..., -1."""
        return _read_only(np.fft.fftfreq(self.size, 1.0 / self.size))

    @property
    @lru_cache(maxsize=_CACHE_SIZE)
    def frequencies(self) -> np.ndarray:
        """Physical frequencies xi(kappa) = 2 pi kappa / L in FFT layout."""
        return _read_only(2.0 * math.pi * self.wavenumbers / self.length)

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

    @lru_cache(maxsize=_CACHE_SIZE)
    def values_on(self, grid: PeriodicGrid) -> np.ndarray:
        if abs(grid.length - self.length) > 1e-12 * self.length:
            raise ValueError(
                f"symbol was built for period {self.length}, grid has {grid.length}"
            )
        return _read_only(self.value(grid.wavenumbers))

    @lru_cache(maxsize=_CACHE_SIZE)
    def max_on(self, grid: PeriodicGrid) -> float:
        """max |theta| over the grid's wavenumbers."""
        return float(np.abs(self.values_on(grid)).max())


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


@lru_cache(maxsize=_CACHE_SIZE)
def _sobolev_weights(grid: PeriodicGrid, s: float) -> np.ndarray:
    return _read_only((1.0 + grid.frequencies**2) ** s)


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
    return Field.from_spectrum(u.grid, u.spectrum * symbol.values_on(u.grid))


def _band_size(u: Field) -> tuple[int, int]:
    """(J, K): J the highest mode above eps sup|u|, K the least even size
    >= 16 above 3J (the 3/2 rule: no aliasing onto the band), capped at N."""
    coef, N = np.abs(u.spectrum) / u.grid.size, u.grid.size
    J = int(np.abs(u.grid.wavenumbers)[coef > _EPS * u.sup_norm()].max(initial=0))
    return J, min(N, max(16, 2 * (3 * J // 2 + 1)))


def _resample(values: np.ndarray, size: int) -> np.ndarray:
    """``values`` spectrally truncated or zero-padded to ``size`` nodes, without
    the smaller grid's Nyquist mode; the same size returns ``values`` itself."""
    n, m = values.size, min(size, values.size) // 2
    if size == n:
        return values
    spec = np.zeros(size // 2 + 1, dtype=complex)
    spec[:m] = np.fft.rfft(values)[:m] * (size / n)
    return np.fft.irfft(spec, size)


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

def _circulant(d: np.ndarray) -> np.ndarray:
    """Real collocation matrix of the Fourier-diagonal operator F^-1 diag(d) F:
    entry (j, l) is c[(j - l) mod N] with c = F^-1 d."""
    j = np.arange(d.size)
    return np.fft.ifft(d).real[(j[:, None] - j) % d.size]


def multiplier_matrix(symbol: DispersionSymbol, grid: PeriodicGrid) -> np.ndarray:
    return _circulant(symbol.values_on(grid))


def derivative_matrix(grid: PeriodicGrid) -> np.ndarray:
    return _circulant(np.where(np.arange(grid.size) == grid.nyquist_index, 0.0, 1j * grid.frequencies))


def sobolev_weight_matrix(grid: PeriodicGrid, s: float) -> np.ndarray:
    """Collocation matrix of the H^s weight (1 + xi^2)^s (kept at Nyquist: it is a norm, not a derivative)."""
    return _circulant(_sobolev_weights(grid, s))


@lru_cache(maxsize=_CACHE_SIZE)
def _mode_weights(N: int, m: int) -> np.ndarray:
    """t_j for modes j < m: 1/sqrt 2 at modes 0 and N/2, 1 elsewhere."""
    return _read_only(np.where(np.arange(m) % (N // 2) == 0, 0.5**0.5, 1.0))


@lru_cache(maxsize=_CACHE_SIZE)
def _window_index(N: int, m: int) -> np.ndarray:
    """|i - m + 1| mod N for i < 3m - 2: the gather of ``_even_odd_blocks``' window."""
    return _read_only(np.abs(np.arange(1 - m, 2 * m - 1)) % N)


def _even_odd_blocks(diag: np.ndarray, fprime: np.ndarray, split: bool = True):
    """L = diag(d) - f'(phi) on the modes 0..m-1 of the multiplier's diagonal
    d = a theta + b (m <= N/2 + 1) and the N samples of f'(phi), in the
    orthonormal real Fourier basis cos 0, sqrt2 cos jx, cos (N/2)x | sqrt2 sin jx
    (sin drops modes 0 and N/2, where it vanishes on the grid).  With
    g = fft(f'(phi))/N, indices mod N and t from ``_mode_weights``, the even
    block's entry (j, l) is d_j delta_jl - t_j t_l (Re g_|j-l| + Re g_(j+l)), the
    odd block's d_j delta_jl - (Re g_|j-l| - Re g_(j+l)), and the cross block's
    C[j, l] = t_j (Im g_(l-j) + Im g_(j+l)).  (even, odd) when ``split`` (the
    caller's phi is even) and f'(phi) is even to tau = 1e-10 max(1, max|L_ij|):
    the dropped C, from an odd part of sup at most tau, moves each eigenvalue by
    at most tau.  Otherwise the one block [[even, C], [C', odd]], and only then
    is C built."""
    N, m, h, step = fprime.size, diag.size, fprime.size // 2, np.dtype(float).itemsize
    spec, t = np.fft.fft(fprime), _mode_weights(N, m)
    # near[j, l] = g_|j-l| and far[j, l] = g_(j+l): windows onto r_i = Re g_|i-m+1|
    r = spec.real[_window_index(N, m)] / N
    near = np.ndarray((m, m), float, r, (m - 1) * step, (-step, step))
    far = np.ndarray((m, m), float, r, (m - 1) * step, (step, step))
    # d added in place on the diagonal: d + (-x) = d - x and d + (b - a) = d - (a - b)
    even = near + far
    even *= np.outer(-t, t)
    even.reshape(-1)[::m + 1] += diag
    odd = far[1:h, 1:h] - near[1:h, 1:h]
    odd.reshape(-1)[::odd.shape[0] + 1] += diag[1:h]
    tau = 1e-10 * max(1.0, np.abs(even).max(), np.abs(odd).max())
    if split and not np.abs(fprime - fprime[-np.arange(N) % N]).max() > tau:
        return even, odd
    # the same windows onto r_i = Im g_(i-m+1), whose index keeps its sign
    r = spec.imag[np.arange(1 - m, 2 * m - 1) % N] / N
    near, far = (np.ndarray((m, m), float, r, (m - 1) * step, (k * step, step)) for k in (-1, 1))
    cross = t[:, None] * (near + far)[:, 1:h]
    return (np.block([[even, cross], [cross.T, odd]]),)


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


@lru_cache(maxsize=_CACHE_SIZE)
def verify_symbol_bounds(symbol: DispersionSymbol, grid: PeriodicGrid) -> SymbolBoundsReport:
    """Enumerate |kappa| in [max(kappa0, 1), N/2] and check the growth bounds.

    Returns the tightest feasible constants on that range together with a
    pass/fail against the constants stored in the symbol.  An empty range
    (kappa0 > N/2) checks nothing: its constants are NaN, and it fails.
    """
    k_lo = max(symbol.threshold, 1)
    k_hi = grid.size // 2
    ks = np.arange(k_lo, k_hi + 1, dtype=float)
    theta = symbol.values_on(grid)[k_lo : k_hi + 1]  # theta(N/2) is stored at -N/2
    ratio = theta / ks**symbol.order if ks.size else np.array([math.nan])
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
