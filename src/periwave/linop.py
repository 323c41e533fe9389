"""Assembly and spectral analysis of the linearized operator.

The linearization about a profile phi is ``L = M + omega - f'(phi)`` for the
standard evolution and ``L = omega M + (omega - 1) - f'(phi)`` for the
regularized one.  L is held in the orthonormal real Fourier basis, where the
multiplier and the H^s weight are diagonal (``spectral._even_odd_blocks``), as
its even and odd blocks when phi is even about x = 0, else as one block.
Everything read here comes from them, samples mapped in by ``_coordinates``:
the eigenvalues (never an eigenbasis), the kernel's Davis-Kahan check against
the unit translation mode v = phi'/|phi'|, H1's shift, c3 and the tangent's
one solve, of the even block or of the one block bordered by v.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .spectral import (
    _EPS,
    PeriodicGrid,
    _even_odd_blocks,
    _mode_weights,
    _sobolev_weights,
    derivative,
)
from .waves import NearSingularError, _linear_coefficients

if TYPE_CHECKING:  # pragma: no cover
    from .spectral import DispersionSymbol
    from .waves import TravelingWave

__all__ = [
    "LinearizedOperator",
    "SpectralReport",
    "assemble",
    "check_H0",
    "h1_constants",
    "constrained_min_rayleigh",
]


@dataclass(frozen=True)
class LinearizedOperator:
    """L about a wave, held as its blocks in ``_coordinates``; eigenvalues are computed on read."""

    grid: PeriodicGrid
    variant: str
    symbol: "DispersionSymbol"
    translation_mode: np.ndarray | None  # phi'/|phi'|; None when phi' vanishes
    blocks: tuple                # (even, odd), or (one block,) for a wave that is not even

    @property
    def size(self) -> int:
        return self.grid.size

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending; of the blocks."""
        return np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in self.blocks]))

    @property
    def norm(self) -> float:
        """Spectral norm (largest |eigenvalue|)."""
        return float(np.abs(self.eigenvalues).max())

    @property
    def zero_tol(self) -> float:
        """The kernel band, 1e-8 times the spectral norm."""
        return 1e-8 * self.norm


def assemble(w: "TravelingWave") -> LinearizedOperator:
    """The linearization about a solved wave, for the wave's own variant."""
    a_M, b_lin = _linear_coefficients(w.variant, w.omega)
    grid, fprime = w.grid, w.nonlinearity.fprime(w.profile.values)
    N, pp = grid.size, derivative(w.profile).values
    norm_pp = np.linalg.norm(pp)
    mode = pp / norm_pp if norm_pp >= 1e-14 * (1.0 + w.profile.sup_norm()) else None
    # two blocks only for an even phi (phi' odd): the tangent solves the even block alone
    even = np.abs(pp + pp[-np.arange(N) % N]).max() <= 1e-10 * max(1.0, np.abs(pp).max())
    blocks = _even_odd_blocks(a_M * w.symbol.values_on(grid)[:N // 2 + 1] + b_lin, fprime, even)
    lin = LinearizedOperator(grid, w.variant, w.symbol, translation_mode=mode, blocks=blocks)
    lin.eigenvalues  # the eigensolve is part of assembly, and of its time
    return lin


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralReport:
    """Negative/zero eigenvalue counts and kernel alignment with phi'.

    ``kernel_alignment`` is a certified lower bound in [0, 1] on the cosine
    between phi' and the eigenvector of L nearest its Rayleigh quotient (the
    Davis-Kahan bound of ``check_H0``); 0 when phi' vanishes.
    """

    n_negative: int
    zero_dim: int
    kernel_alignment: float
    h0_pass: bool
    zero_tol: float
    ambiguous_eigenvalues: tuple = ()

    def to_dict(self) -> dict:
        return {
            "n_neg": self.n_negative,
            "zero_dim": self.zero_dim,
            "kernel_alignment": self.kernel_alignment,
            "h0_pass": self.h0_pass,
            "zero_tol": self.zero_tol,
            "ambiguous_eigenvalues": list(self.ambiguous_eigenvalues),
        }


def check_H0(lin: LinearizedOperator) -> SpectralReport:
    """Count negative/zero eigenvalues of L and test the translation-kernel shape.

    Passes iff there is exactly one negative eigenvalue, the zero eigenvalue
    is simple, and the kernel aligns with phi' to 1 - 1e-6.  The alignment is
    the Davis-Kahan lower bound sqrt(1 - min(1, r/delta)^2) for the unit
    v = phi'/|phi'|, with rho = v'Lv, r = |Lv - rho v| (in ``_coordinates``)
    and delta the distance from rho to the rest of the spectrum (Davis &
    Kahan 1970).  Eigenvalues within a decade above the zero band are
    reported as ambiguous (a warning, never a silent resolution).
    """
    tol, lam, v = lin.zero_tol, lin.eigenvalues, lin.translation_mode
    n_neg = int(np.sum(lam < -tol))
    zero_dim = int(np.sum(np.abs(lam) <= tol))
    ambiguous = tuple(float(x) for x in lam[(np.abs(lam) > tol) & (np.abs(lam) <= 10.0 * tol)])

    alignment = 0.0
    if v is not None:
        v = _coordinates(v)[0]
        Lv = np.concatenate([b @ x for b, x in zip(lin.blocks, _parts(lin, v))])
        rho = float(v @ Lv)
        r = float(np.linalg.norm(Lv - rho * v))
        delta = np.abs(np.delete(lam, np.argmin(np.abs(lam - rho))) - rho).min(initial=np.inf)
        sin = r / delta if r < delta else 1.0
        alignment = float(np.sqrt(1.0 - sin * sin))

    h0 = n_neg == 1 and zero_dim == 1 and alignment > 1.0 - 1e-6
    return SpectralReport(
        n_negative=n_neg,
        zero_dim=zero_dim,
        kernel_alignment=alignment,
        h0_pass=bool(h0),
        zero_tol=tol,
        ambiguous_eigenvalues=ambiguous,
    )


def h1_constants(lin: LinearizedOperator) -> tuple[float, float]:
    """Garding-inequality constants (c1, c2).

    c1 is fixed at half the symbol's lower growth constant; c2 is the
    smallest nonnegative shift making L - c1 W + c2 I positive
    semidefinite, where W is the H^(m/2) weight, diagonal in ``_coordinates``:
    each block's own diagonal is shifted.
    """
    c1, s = 0.5 * lin.symbol.lower_bound, 0.5 * lin.symbol.order
    weight = _parts(lin, c1 * _diagonal(_sobolev_weights(lin.grid, s)))
    return c1, max(0.0, -min(float(np.linalg.eigvalsh(b - np.diag(x))[0])
                             for b, x in zip(lin.blocks, weight)))


def _complement_basis(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the given columns."""
    N, m = vectors.shape
    u, s, _ = np.linalg.svd(vectors, full_matrices=True)
    rank = int(np.sum(s > 1e-12 * (s[0] if s.size else 1.0)))
    if rank < m:
        raise ValueError("constraint fields are linearly dependent")
    return u[:, rank:]


def constrained_min_rayleigh(lin: LinearizedOperator, constraints: list) -> float:
    """Least Rayleigh quotient of L over the orthogonal complement of the constraints.

    A positive value certifies coercivity of L on that subspace (the
    codimension-two positivity hypothesis when the constraints are phi' and
    the gradient of the auxiliary quantity).  When L splits and each constraint
    is even or odd (its other part below 1e-10 of it), it is the lesser of the
    two blocks' values, each on its own parity's constraints; else, that of
    L's one K x K matrix in ``_coordinates``.
    """
    if not constraints:
        return float(lin.eigenvalues[0])
    rows = _coordinates(np.stack([c.values for c in constraints]))[0]
    pairs = list(zip(lin.blocks, _parts(lin, rows)))
    if len(pairs) == 2:
        norms = [np.linalg.norm(x, axis=1) for _, x in pairs]
        single = [norms[1] <= 1e-10 * norms[0], norms[0] <= 1e-10 * norms[1]]
        pairs = ([(b, x[keep]) for (b, x), keep in zip(pairs, single)]
                 if np.all(single[0] | single[1]) else [(_dense(lin), rows)])
    bases = [(b, _complement_basis(x.T)) for b, x in pairs]
    return min(float(np.linalg.eigvalsh(B.T @ b @ B)[0]) for b, B in bases)


def _certified(lin: LinearizedOperator, x: np.ndarray, residual: np.ndarray,
               b_norm) -> np.ndarray:
    """x, once the residual of each row is within 1e-9 max(1, |b|) plus the
    evaluation floor eps |L| |x| that even the exact solution cannot beat."""
    floor = 100.0 * _EPS * lin.norm * np.linalg.norm(x, axis=-1)
    res = np.linalg.norm(residual, axis=-1)
    if np.any(res > 1e-9 * np.maximum(1.0, b_norm) + floor):
        raise NearSingularError(
            f"solve residual {res.max():.3e} exceeds tolerance (ill-conditioned operator)"
        )
    return x


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve``, an exactly singular ``a`` raising NearSingularError."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NearSingularError(f"singular system ({exc})") from exc


def _coordinates(b: np.ndarray):
    """Rows b (K samples) in L's orthonormal real Fourier basis: (x, s), x the
    even coordinates Re rfft(b) s on modes 0..K/2, then the odd ones
    -Im rfft(b) s on modes 1..K/2-1, s = t sqrt(2/K) (``_mode_weights``); each
    row of x has the norm of its row of b."""
    K = b.shape[-1]
    f, s = np.fft.rfft(b), _mode_weights(K, K // 2 + 1) * (2.0 / K) ** 0.5
    return np.concatenate((f.real * s, -(f.imag * s)[..., 1:K // 2]), axis=-1), s


def _diagonal(d: np.ndarray) -> np.ndarray:
    """The diagonal in ``_coordinates`` of an even Fourier multiplier d (FFT layout)."""
    return np.concatenate((d[:d.size // 2 + 1], d[1:d.size // 2]))


def _parts(lin: LinearizedOperator, x: np.ndarray) -> list:
    """Coordinates x cut into the pieces that ``lin.blocks`` act on, in order."""
    return [x[..., :len(lin.blocks[0])], x[..., len(lin.blocks[0]):]][:len(lin.blocks)]


def _dense(lin: LinearizedOperator) -> np.ndarray:
    """L as one K x K matrix in ``_coordinates``, its blocks on the diagonal."""
    mat, i = np.zeros((lin.size, lin.size)), 0
    for b in lin.blocks:
        mat[i:i + len(b), i:i + len(b)] = b
        i += len(b)
    return mat


def _solve_tangent(lin: LinearizedOperator, b: np.ndarray) -> np.ndarray:
    """Rows x of L x = b for the tangent's rows b (-g and -1, orthogonal to
    phi' always, and even about x = 0 when L has two blocks, which ``assemble``
    keeps only for an even phi), by one solve of L's first block in
    ``_coordinates``: with two blocks, the even block (nonsingular: the kernel
    phi' is odd); with one, the system bordered by
    the translation mode v, [[L, v], [v', 0]] [x; t] = [b; 0], and
    NearSingularError when phi' vanishes.  Each row's residual is checked in
    those coordinates, and x comes back by irfft."""
    x, s = _coordinates(b)
    a, bc = lin.blocks[0], x[..., :len(lin.blocks[0])]
    if len(lin.blocks) == 1:
        if lin.translation_mode is None:
            raise NearSingularError("no translation mode to border a wave that is not even by")
        v = _coordinates(lin.translation_mode)[0]
        a, bc = np.block([[a, v[:, None]], [v, 0.0]]), np.pad(bc, ((0, 0), (0, 1)))
    c = _solve(a, bc.T).T
    _certified(lin, c, c @ a - bc, np.linalg.norm(b, axis=-1))
    # the even coordinates, then the odd ones on modes 1..K/2-1 (none from the even block)
    f, odd = (c[..., :s.size] / s).astype(complex), c[..., s.size:lin.size]
    f.imag[..., 1:1 + odd.shape[-1]] = -odd / s[1:1 + odd.shape[-1]]
    return np.fft.irfft(f, lin.size)
