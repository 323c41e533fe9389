"""Assembly and spectral analysis of the linearized operator.

The linearization about a profile phi is ``L = M + omega - f'(phi)`` for the
standard evolution and ``L = omega M + (omega - 1) - f'(phi)`` for the
regularized one.  Its collocation matrix (the multiplier a transform-conjugated
diagonal, f'(phi) diagonal) is real symmetric N x N and is diagonalized once at
assembly by dense solves (they win at N <= 1024): when f'(phi) is even about
x = 0, in its two parity blocks in the real Fourier basis, where the multiplier
and the H^s weight are diagonal (``spectral._even_odd_blocks``); else whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .spectral import (
    Field,
    PeriodicGrid,
    _even_odd_blocks,
    _mode_weights,
    _sobolev_weights,
    derivative,
    multiplier_matrix,
    sobolev_weight_matrix,
)
from .waves import NearSingularError, _linear_coefficients

if TYPE_CHECKING:  # pragma: no cover
    from .spectral import DispersionSymbol
    from .waves import TravelingWave

__all__ = [
    "LinearizedOperator",
    "SpectralReport",
    "KernelIncompatibilityError",
    "assemble",
    "check_H0",
    "h1_constants",
    "constrained_min_rayleigh",
    "solve_on_complement",
]


class KernelIncompatibilityError(RuntimeError):
    """Right-hand side has a significant component along the numerical kernel."""


@dataclass(frozen=True)
class LinearizedOperator:
    grid: PeriodicGrid
    matrix: np.ndarray
    variant: str
    omega: float
    symbol: "DispersionSymbol"
    eigenvalues: np.ndarray      # ascending
    eigenvectors: np.ndarray     # orthonormal columns, matching order
    zero_tol: float
    blocks: tuple | None = None  # (even, odd) from _even_odd_blocks; None if not even

    @property
    def size(self) -> int:
        return self.grid.size

    @property
    def norm(self) -> float:
        """Spectral norm (largest |eigenvalue|)."""
        return float(np.abs(self.eigenvalues).max())

    def apply(self, u: Field) -> Field:
        if not u.grid.same_as(self.grid):
            raise ValueError("field grid does not match operator grid")
        return Field(self.grid, self.matrix @ u.values)


def _synthesized_eigh(even: np.ndarray, odd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of the parity blocks of ``_even_odd_blocks``.  Each
    vector is synthesized on nodes 0..K/2 from the orthonormal cos and sin basis
    (read off one table at n j mod K) and mirrored onto the rest of the K
    nodes, so it is exactly even or odd."""
    (lam_e, vec_e), (lam_o, vec_o) = map(np.linalg.eigh, (even, odd))
    h = even.shape[0] - 1
    K = 2 * h
    nj, angle = np.outer(np.arange(h + 1), np.arange(h + 1)), np.pi * np.arange(K) / h
    cos, sin = np.cos(angle) * (2.0 / K) ** 0.5, np.sin(angle) * (2.0 / K) ** 0.5
    sin[h] = 0.0  # sin(pi): odd vectors vanish at node K/2 to the bit, as at node 0
    vec = np.empty((K, K))
    vec[:h + 1, :h + 1] = np.take(cos, nj, mode="wrap") * _mode_weights(K, h + 1) @ vec_e
    vec[:h + 1, h + 1:] = np.take(sin, nj[:, 1:h], mode="wrap") @ vec_o
    vec[K - 1:h:-1] = vec[1:h] * np.repeat([1.0, -1.0], [h + 1, h - 1])
    lam = np.concatenate((lam_e, lam_o))
    order = np.argsort(lam, kind="stable")
    return lam[order], vec[:, order]


def assemble(w: "TravelingWave") -> LinearizedOperator:
    """Collocation matrix of the linearization about a solved wave, for the
    wave's own variant; its kernel band is 1e-8 times the spectral norm."""
    a_M, b_lin = _linear_coefficients(w.variant, w.omega)
    grid = w.grid
    fprime = w.nonlinearity.fprime(w.profile.values)
    mat = a_M * multiplier_matrix(w.symbol, grid)
    mat.flat[::grid.size + 1] = mat.flat[::grid.size + 1] + b_lin - fprime  # + b I - f'(phi)
    asym = np.abs(mat - mat.T).max()
    if asym > 1e-10 * max(1.0, np.abs(mat).max()):
        raise ValueError(f"assembled operator is not symmetric (defect {asym:.3e})")
    mat = 0.5 * (mat + mat.T)
    blocks = _even_odd_blocks(a_M * w.symbol.values_on(grid)[:grid.size // 2 + 1] + b_lin, fprime)
    lam, vec = np.linalg.eigh(mat) if blocks is None else _synthesized_eigh(*blocks)
    return LinearizedOperator(
        grid=grid,
        matrix=mat,
        variant=w.variant,
        omega=w.omega,
        symbol=w.symbol,
        eigenvalues=lam,
        eigenvectors=vec,
        zero_tol=1e-8 * float(np.abs(lam).max()),
        blocks=blocks,
    )


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralReport:
    """Negative/zero eigenvalue counts and kernel alignment with phi'."""

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


def check_H0(lin: LinearizedOperator, w: "TravelingWave") -> SpectralReport:
    """Count negative/zero eigenvalues and test the translation-kernel shape.

    Passes iff there is exactly one negative eigenvalue, the zero eigenvalue
    is simple, and its eigenvector aligns with phi' to 1 - 1e-6.  Eigenvalues
    within a decade above the zero band are reported as ambiguous (a warning,
    never a silent resolution).
    """
    tol = lin.zero_tol
    lam = lin.eigenvalues
    n_neg = int(np.sum(lam < -tol))
    kernel = np.flatnonzero(np.abs(lam) <= tol)
    zero_dim = int(kernel.size)
    ambiguous = tuple(float(x) for x in lam[(np.abs(lam) > tol) & (np.abs(lam) <= 10.0 * tol)])

    phi_prime = derivative(w.profile).values
    norm_pp = np.linalg.norm(phi_prime)
    if norm_pp < 1e-14 * (1.0 + np.abs(w.profile.values).max()):
        alignment = 0.0
    else:
        if zero_dim > 0:
            # pick the kernel vector best aligned with phi'
            overlaps = np.abs(phi_prime @ lin.eigenvectors[:, kernel]) / norm_pp
            idx = kernel[int(np.argmax(overlaps))]
        else:
            idx = int(np.argmin(np.abs(lam)))
        v0 = lin.eigenvectors[:, idx]
        alignment = float(abs(v0 @ phi_prime) / (np.linalg.norm(v0) * norm_pp))

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
    semidefinite, where W is the H^(m/2) weight: diagonal in the parity
    blocks, a collocation circulant for a wave that is not even.
    """
    c1, s, h = 0.5 * lin.symbol.lower_bound, 0.5 * lin.symbol.order, lin.size // 2
    if lin.blocks is None:
        parts = (lin.matrix - c1 * sobolev_weight_matrix(lin.grid, s),)
    else:
        weight = c1 * _sobolev_weights(lin.grid, s)[:h + 1]
        parts = (lin.blocks[0] - np.diag(weight), lin.blocks[1] - np.diag(weight[1:h]))
    return c1, max(0.0, -min(float(np.linalg.eigvalsh(b)[0]) for b in parts))


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
    the gradient of the auxiliary quantity).
    """
    if not constraints:
        return float(lin.eigenvalues[0])
    B = _complement_basis(np.stack([c.values for c in constraints], axis=1))
    return float(np.linalg.eigvalsh(B.T @ lin.matrix @ B)[0])


def solve_on_complement(lin: LinearizedOperator, b: Field) -> Field:
    """Solve L x = b on the orthogonal complement of the numerical kernel.

    With no numerical kernel the solve is plain (L invertible).  A right-hand
    side lying essentially inside the kernel projects to zero and returns the
    zero field; a mixed significant kernel component raises
    KernelIncompatibilityError.
    """
    if not b.grid.same_as(lin.grid):
        raise ValueError("field grid does not match operator grid")
    kernel = np.flatnonzero(np.abs(lin.eigenvalues) <= lin.zero_tol)
    coeff = lin.eigenvectors.T @ b.values
    b_norm = np.linalg.norm(b.values)
    if kernel.size == 0:
        x = lin.eigenvectors @ (coeff / lin.eigenvalues)
        return Field(lin.grid, x)
    if b_norm == 0.0:
        return Field(lin.grid, np.zeros(lin.size))
    kernel_frac = np.linalg.norm(coeff[kernel]) / b_norm
    if kernel_frac >= 1.0 - 1e-8:
        return Field(lin.grid, np.zeros(lin.size))
    if kernel_frac > 1e-8:
        raise KernelIncompatibilityError(
            f"right-hand side has kernel fraction {kernel_frac:.3e}"
        )
    inv = np.zeros_like(coeff)
    nonker = np.abs(lin.eigenvalues) > lin.zero_tol
    inv[nonker] = coeff[nonker] / lin.eigenvalues[nonker]
    x = lin.eigenvectors @ inv
    # certify the projected system; the bound includes the evaluation floor
    # eps ||L|| ||x|| that even the exact solution cannot beat
    proj_b = b.values - lin.eigenvectors[:, kernel] @ coeff[kernel]
    res = np.linalg.norm(lin.matrix @ x - proj_b)
    floor = 100.0 * np.finfo(float).eps * lin.norm * np.linalg.norm(x)
    if res > 1e-9 * max(1.0, b_norm) + floor:
        raise NearSingularError(
            f"projected solve residual {res:.3e} exceeds tolerance (ill-conditioned operator)"
        )
    return Field(lin.grid, x)
