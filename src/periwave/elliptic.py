"""Jacobi elliptic functions and complete elliptic integrals.

Everything here is built from the arithmetic-geometric mean (AGM) and the
descending Landen transformation, which converge quadratically in double
precision.  No lookup tables, no external special-function libraries.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "complete_K",
    "complete_E",
    "jacobi_sn_cn_dn",
    "nome",
]

_AGM_TOL = 1e-15
_AGM_MAX_ITER = 64


def complete_K(k) -> float:
    """Complete elliptic integral of the first kind K(k).

    Computed as pi / (2 agm(1, k')).  Diverges as k -> 1, so k = 1 is
    rejected.
    """
    k = float(k)
    if not (0.0 <= k < 1.0):
        raise ValueError(f"complete_K requires 0 <= k < 1, got {k}")
    a, b = 1.0, math.sqrt((1.0 - k) * (1.0 + k))
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) <= _AGM_TOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (a + b)


def complete_E(k) -> float:
    """Complete elliptic integral of the second kind E(k), 0 <= k <= 1."""
    k = float(k)
    if not (0.0 <= k <= 1.0):
        raise ValueError(f"complete_E requires 0 <= k <= 1, got {k}")
    if k == 1.0:
        return 1.0
    a, b, c = 1.0, math.sqrt((1.0 - k) * (1.0 + k)), k
    csum = 0.5 * c * c
    power = 0.5
    for _ in range(_AGM_MAX_ITER):
        if abs(c) <= _AGM_TOL * a:
            break
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        power *= 2.0
        csum += power * c * c
    K = math.pi / (2.0 * a)
    return K * (1.0 - csum)


def jacobi_sn_cn_dn(u, k):
    """Jacobi elliptic sn, cn, dn at real argument u (scalar or array).

    Uses the AGM scales a_n, c_n and the backward amplitude recurrence
    phi_{n-1} = (phi_n + asin((c_n / a_n) sin phi_n)) / 2 (DLMF 22.20(ii)).
    dn is recovered from dn^2 = 1 - k^2 sn^2, which is exact for real
    arguments and 0 <= k < 1 since dn >= k' > 0 there.
    """
    k = float(k)
    if not (0.0 <= k < 1.0):
        raise ValueError(f"jacobi_sn_cn_dn requires 0 <= k < 1, got {k}")
    u = np.asarray(u, dtype=float)
    if k == 0.0:
        sn, cn = np.sin(u), np.cos(u)
        return sn, cn, np.ones_like(u)

    a_seq = [1.0]
    c_seq = [k]
    b = math.sqrt((1.0 - k) * (1.0 + k))
    while abs(c_seq[-1]) > _AGM_TOL * a_seq[-1] and len(a_seq) < _AGM_MAX_ITER:
        a_prev = a_seq[-1]
        a_seq.append(0.5 * (a_prev + b))
        c_seq.append(0.5 * (a_prev - b))
        b = math.sqrt(a_prev * b)
    n_last = len(a_seq) - 1

    phi = (2.0**n_last) * a_seq[n_last] * u
    for n in range(n_last, 0, -1):
        ratio = np.clip((c_seq[n] / a_seq[n]) * np.sin(phi), -1.0, 1.0)
        phi = 0.5 * (phi + np.arcsin(ratio))
    sn = np.sin(phi)
    cn = np.cos(phi)
    dn = np.sqrt(1.0 - (k * sn) ** 2)
    return sn, cn, dn


def nome(k) -> float:
    """Elliptic nome q = exp(-pi K(k') / K(k)) for 0 < k < 1."""
    k = float(k)
    if not (0.0 < k < 1.0):
        raise ValueError(f"nome requires 0 < k < 1, got {k}")
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    return math.exp(-math.pi * complete_K(kp) / complete_K(k))
