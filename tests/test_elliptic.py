import math

import numpy as np
import pytest
from scipy import integrate

from periwave.elliptic import complete_E, complete_K, jacobi_sn_cn_dn


def quad_K(k):
    """Independent oracle: quadrature of the defining integral of K."""
    val, err = integrate.quad(
        lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
        0.0,
        math.pi / 2.0,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    assert err < 1e-13
    return val


def quad_E(k):
    val, err = integrate.quad(
        lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2),
        0.0,
        math.pi / 2.0,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    assert err < 1e-13
    return val


class TestCompleteIntegrals:
    def test_K_at_zero(self):
        assert complete_K(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_K_monotone_near_one(self):
        assert complete_K(0.999) > complete_K(0.99)

    def test_K_against_quadrature(self):
        # frozen from the quadrature oracle: K(0.5) = 1.6857503548125961
        assert quad_K(0.5) == pytest.approx(1.6857503548125961, abs=1e-13)
        assert complete_K(0.5) == pytest.approx(quad_K(0.5), abs=1e-12)

    def test_K_domain(self):
        with pytest.raises(ValueError):
            complete_K(1.0)
        with pytest.raises(ValueError):
            complete_K(-0.1)

    def test_E_endpoints(self):
        assert complete_E(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert complete_E(1.0) == 1.0

    def test_E_decreasing(self):
        ks = np.linspace(0.0, 1.0, 11)
        vals = [complete_E(k) for k in ks]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_E_against_quadrature(self):
        # frozen from the quadrature oracle: E(0.5) = 1.4674622093394274
        assert quad_E(0.5) == pytest.approx(1.4674622093394274, abs=1e-13)
        assert complete_E(0.5) == pytest.approx(quad_E(0.5), abs=1e-12)

    def test_E_domain(self):
        with pytest.raises(ValueError):
            complete_E(1.2)

    def test_legendre_relation(self):
        # E K' + E' K - K K' = pi/2, an independent consistency identity
        for k in (0.2, 0.5, 0.8, 0.95):
            kp = math.sqrt(1.0 - k * k)
            lhs = (
                complete_E(k) * complete_K(kp)
                + complete_E(kp) * complete_K(k)
                - complete_K(k) * complete_K(kp)
            )
            assert lhs == pytest.approx(math.pi / 2.0, abs=1e-12)


class TestJacobiFunctions:
    def test_origin(self):
        sn, cn, dn = jacobi_sn_cn_dn(0.0, 0.7)
        assert sn == pytest.approx(0.0, abs=1e-15)
        assert cn == pytest.approx(1.0, abs=1e-15)
        assert dn == pytest.approx(1.0, abs=1e-15)

    def test_quarter_period(self):
        for k in (0.3, 0.7, 0.95):
            K = complete_K(k)
            sn, cn, dn = jacobi_sn_cn_dn(K, k)
            assert sn == pytest.approx(1.0, abs=1e-12)
            assert cn == pytest.approx(0.0, abs=1e-12)
            assert dn == pytest.approx(math.sqrt(1.0 - k * k), abs=1e-12)

    def test_dn_periodicity(self):
        rng = np.random.default_rng(3)
        for k in (0.4, 0.9):
            K = complete_K(k)
            u = rng.uniform(-10.0, 10.0, size=50)
            _, _, dn1 = jacobi_sn_cn_dn(u, k)
            _, _, dn2 = jacobi_sn_cn_dn(u + 2.0 * K, k)
            assert np.abs(dn1 - dn2).max() < 1e-12

    def test_identities_random(self):
        rng = np.random.default_rng(7)
        u = rng.uniform(-20.0, 20.0, size=1000)
        k = rng.uniform(0.0, 0.999, size=1000)
        for ui, ki in zip(u, k):
            sn, cn, dn = jacobi_sn_cn_dn(ui, ki)
            assert abs(sn * sn + cn * cn - 1.0) < 1e-12
            assert abs(dn * dn + (ki * sn) ** 2 - 1.0) < 1e-12

    def test_k_zero_reduces_to_trig(self):
        u = np.linspace(-3, 3, 20)
        sn, cn, dn = jacobi_sn_cn_dn(u, 0.0)
        assert np.allclose(sn, np.sin(u), atol=1e-15)
        assert np.allclose(cn, np.cos(u), atol=1e-15)
        assert np.allclose(dn, 1.0)
