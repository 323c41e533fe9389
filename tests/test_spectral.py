import math

import numpy as np
import pytest

from conftest import inner, shift
from periwave.spectral import (
    DispersionSymbol,
    Field,
    PeriodicGrid,
    _band_size,
    _conjugated_diagonal,
    _even_odd_blocks,
    _mode_weights,
    _window_index,
    apply_multiplier,
    derivative,
    derivative_matrix,
    integral,
    mean_value,
    multiplier_matrix,
    random_smooth_field,
    sobolev_norm,
    sobolev_weight_matrix,
    verify_symbol_bounds,
)
from periwave.waves import Nonlinearity, _profile_map

TWO_PI = 2.0 * math.pi


@pytest.fixture
def grid():
    return PeriodicGrid(TWO_PI, 64)


@pytest.mark.parametrize("mode,N,expected", [
    (44, 1024, (44, 134)),   # 3J = 132: the least even size above it
    (45, 1024, (45, 136)),   # 3J = 135 is odd
    (3, 1024, (3, 16)),      # at least 16
    (44, 128, (44, 128)),    # capped at N
])
def test_band_size_is_the_least_even_size_above_3J(mode, N, expected):
    # the phase reduced exactly, so that the samples carry no mode above
    # eps of their own
    phase = (mode * np.arange(N)) % N
    assert _band_size(Field(PeriodicGrid(TWO_PI, N), np.cos(TWO_PI * phase / N))) == expected


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(0.0, 64)
    with pytest.raises(ValueError):
        PeriodicGrid(1.0, 63)
    with pytest.raises(ValueError):
        PeriodicGrid(1.0, 8)


def test_grid_wavenumbers(grid):
    ks = np.sort(grid.wavenumbers)
    assert ks[0] == -32 and ks[-1] == 31
    assert len(ks) == 64


def test_field_roundtrip(grid):
    u = random_smooth_field(grid, seed=1)
    back = Field.from_spectrum(grid, u.spectrum)
    assert np.abs(back.values - u.values).max() < 1e-12


def test_field_spectrum_hermitian(grid):
    u = random_smooth_field(grid, seed=14)
    spec = u.spectrum
    mirrored = np.conj(spec[np.r_[0, np.arange(grid.size - 1, 0, -1)]])
    assert np.abs(spec - mirrored).max() < 1e-10 * (1 + np.abs(spec).max())


def test_derivative_of_sin(grid):
    u = Field(grid, np.sin(grid.nodes))
    du = derivative(u)
    assert np.abs(du.values - np.cos(grid.nodes)).max() < 1e-12


def test_derivative_of_constant(grid):
    assert derivative(Field.constant(grid, 3.0)).sup_norm() < 1e-13


def test_integral_of_one(grid):
    assert integral(Field.constant(grid, 1.0)) == pytest.approx(TWO_PI, abs=1e-13)
    assert mean_value(Field.constant(grid, 2.5)) == pytest.approx(2.5, abs=1e-13)


def test_inner_matches_l2_norm(grid):
    u = random_smooth_field(grid, seed=2)
    assert inner(u, u) == pytest.approx(sobolev_norm(u, 0.0) ** 2, abs=1e-12)


def test_inner_grid_mismatch(grid):
    other = PeriodicGrid(TWO_PI, 128)
    with pytest.raises(ValueError):
        inner(Field.constant(grid, 1.0), Field.constant(other, 1.0))


class TestSobolevNorm:
    def test_zero_field(self, grid):
        assert sobolev_norm(Field.constant(grid, 0.0), 1.5) == 0.0

    def test_constant_l2(self, grid):
        assert sobolev_norm(Field.constant(grid, 1.0), 0.0) == pytest.approx(
            math.sqrt(TWO_PI), abs=1e-13
        )

    def test_h1_matches_derivative_oracle(self, grid):
        u = random_smooth_field(grid, seed=3)
        du = derivative(u)
        oracle = math.sqrt(sobolev_norm(u, 0.0) ** 2 + sobolev_norm(du, 0.0) ** 2)
        assert sobolev_norm(u, 1.0) == pytest.approx(oracle, abs=1e-10)

    def test_negative_order_rejected(self, grid):
        with pytest.raises(ValueError):
            sobolev_norm(Field.constant(grid, 1.0), -0.5)


class TestSymbolValues:
    def test_second_derivative_zero_mode(self):
        s = DispersionSymbol.second_derivative(TWO_PI)
        assert s.value(0) == 0.0
        assert s.value(3) == pytest.approx(9.0, abs=1e-13)

    def test_ilw_zero_mode_limit(self):
        s = DispersionSymbol.ilw(1.0, TWO_PI)
        assert s.value(0) == 0.0

    def test_ilw_coth_envelope(self):
        # theta(kappa) + 1/delta stays within 1/delta of the hilbert slope
        L = TWO_PI
        delta = L
        s = DispersionSymbol.ilw(delta, L)
        for kappa in (8, -8):
            val = s.value(kappa) + 1.0 / delta
            slope = 2.0 * math.pi * abs(kappa) / L
            assert slope - 1.0 / delta <= val <= slope + 1.0 / delta

    def test_ilw_large_depth_approaches_hilbert(self):
        L = TWO_PI
        s = DispersionSymbol.ilw(1e7, L)
        h = DispersionSymbol.hilbert_derivative(L)
        for kappa in range(1, 9):
            assert abs(s.value(kappa) - h.value(kappa)) < 1e-6

    def test_symbols_even(self):
        L = TWO_PI
        for s in (
            DispersionSymbol.second_derivative(L),
            DispersionSymbol.hilbert_derivative(L),
            DispersionSymbol.ilw(0.7, L),
            DispersionSymbol.power(1.5, L),
        ):
            ks = np.arange(1, 33)
            assert np.abs(np.asarray(s.value(ks)) - np.asarray(s.value(-ks))).max() < 1e-13

    def test_ilw_depth_validation(self):
        with pytest.raises(ValueError):
            DispersionSymbol.ilw(0.0, TWO_PI)


class TestApplyMultiplier:
    @pytest.mark.parametrize("maker", ["second_derivative", "hilbert_derivative", "ilw"])
    def test_constant_maps_to_zero(self, grid, maker):
        if maker == "ilw":
            s = DispersionSymbol.ilw(1.0, TWO_PI)
        else:
            s = getattr(DispersionSymbol, maker)(TWO_PI)
        out = apply_multiplier(s, Field.constant(grid, 4.0))
        assert out.sup_norm() < 1e-13

    def test_single_mode_eigenfunction(self, grid):
        s = DispersionSymbol.second_derivative(TWO_PI)
        u = Field(grid, np.cos(grid.nodes))
        out = apply_multiplier(s, u)
        assert np.abs(out.values - u.values).max() < 1e-12

    def test_matches_dense_matrix(self, grid):
        u = random_smooth_field(grid, seed=5)
        for s in (
            DispersionSymbol.ilw(0.8, TWO_PI),
            DispersionSymbol.hilbert_derivative(TWO_PI),
            DispersionSymbol.second_derivative(TWO_PI),
        ):
            dense = multiplier_matrix(s, grid) @ u.values
            assert np.abs(apply_multiplier(s, u).values - dense).max() < 1e-12, s.kind
        # a Nyquist component is annihilated by both derivative forms
        v = u + Field(grid, np.cos(np.pi * np.arange(grid.size)))
        dense = derivative_matrix(grid) @ v.values
        assert np.abs(derivative(v).values - dense).max() < 1e-12
        for s in (0.5, 1.0):
            product = sobolev_weight_matrix(grid, s) @ sobolev_weight_matrix(grid, -s)
            assert np.abs(product - np.eye(grid.size)).max() < 1e-12

    @pytest.mark.parametrize("N", [16, 62, 128])
    def test_circulant_matches_index_formula(self, N):
        # entry (j, l) is c[(j - l) mod N], bit for bit
        diag = np.random.default_rng(N).standard_normal(N)
        c = np.fft.ifft(diag).real
        n = np.arange(N)
        # the key is the function itself: a fresh lambda misses the cache
        assert np.array_equal(_conjugated_diagonal(lambda: diag), c[(n[:, None] - n[None, :]) % N])

    def test_grid_mismatch(self, grid):
        s = DispersionSymbol.second_derivative(3.0)
        with pytest.raises(ValueError):
            apply_multiplier(s, Field.constant(grid, 1.0))

    def test_translation_commutes(self, grid):
        s = DispersionSymbol.ilw(1.3, TWO_PI)
        u = random_smooth_field(grid, seed=6)
        shifted_then = apply_multiplier(s, shift(u, 5 * grid.spacing))
        then_shifted = shift(apply_multiplier(s, u), 5 * grid.spacing)
        assert (shifted_then - then_shifted).sup_norm() < 1e-12


class TestShift:
    def test_grid_shift_is_roll(self, grid):
        u = random_smooth_field(grid, seed=8)
        v = shift(u, 3 * grid.spacing)
        assert np.array_equal(v.values, np.roll(u.values, -3))

    def test_fractional_shift_inverts(self, grid):
        u = random_smooth_field(grid, seed=9)
        v = shift(shift(u, 0.37), -0.37)
        assert (v - u).sup_norm() < 1e-12


class TestSymbolBounds:
    def test_second_derivative_exact_power(self, grid):
        s = DispersionSymbol.second_derivative(TWO_PI)
        rep = verify_symbol_bounds(s, grid)
        assert rep.passed
        assert rep.tightest_lower == pytest.approx(1.0, abs=1e-12)
        assert rep.tightest_upper == pytest.approx(1.0, abs=1e-12)

    def test_hilbert(self, grid):
        rep = verify_symbol_bounds(DispersionSymbol.hilbert_derivative(TWO_PI), grid)
        assert rep.passed and rep.order == 1.0

    def test_ilw_default_constants_pass(self, grid):
        for delta in (0.5, 1.0, 2.0):
            s = DispersionSymbol.ilw(delta, TWO_PI)
            assert s.threshold == math.ceil(TWO_PI / (math.pi * delta)) + 1
            rep = verify_symbol_bounds(s, grid)
            assert rep.passed, rep

    def test_power(self, grid):
        rep = verify_symbol_bounds(DispersionSymbol.power(1.5, TWO_PI), grid)
        assert rep.passed

    def test_bad_stored_bounds_fail(self, grid):
        s = DispersionSymbol("hilbert_derivative", TWO_PI, 1.0, 2.0, 0.5, 1)
        rep = verify_symbol_bounds(s, grid)
        assert not rep.passed

    def test_threshold_above_nyquist_checks_nothing(self):
        # kappa0 = 12 > N/2 = 8 leaves no mode to check: NaN bounds, failed
        s = DispersionSymbol.ilw(0.3, 10.0)
        assert s.threshold == 12
        rep = verify_symbol_bounds(s, PeriodicGrid(10.0, 16))
        assert rep.passed is False
        assert math.isnan(rep.tightest_lower) and math.isnan(rep.tightest_upper)


class TestEvenOddBlocks:
    """The parity blocks are the profile map's Jacobian in the orthonormal
    real Fourier basis, so Newton's matrix is the even block."""

    @pytest.mark.parametrize("Ks", [96, 48])
    def test_blocks_are_the_profile_maps_jacobian(self, Ks):
        # full-band even samples: g_(j+l) wraps mod N, and at K_s = N the
        # even block reaches the Nyquist mode, weighted 1/sqrt 2
        N, m, h = 96, Ks // 2 + 1, 1e-5
        grid = PeriodicGrid(TWO_PI, N)
        symbol, nl = DispersionSymbol.second_derivative(TWO_PI), Nonlinearity.power_law(2)
        a, b = 1.0, 0.7
        v = np.random.default_rng(8).standard_normal(N)
        phi = 0.5 * (v + v[-np.arange(N) % N])
        angles = 2.0 * np.pi * np.outer(np.arange(m), np.arange(N)) / N
        cos = np.cos(angles) * (_mode_weights(N, m) * (2.0 / N) ** 0.5)[:, None]
        sin = (np.sin(angles) * (2.0 / N) ** 0.5)[1:N // 2]

        def jacobian(basis):
            def P(u):
                return _profile_map(Field(grid, u), symbol, a, b, nl.f, 0.0)
            return basis @ np.array([(P(phi + h * c) - P(phi - h * c)) / (2.0 * h)
                                     for c in basis]).T

        diag = a * symbol.values_on(grid)[: N // 2 + 1] + b
        even, odd = _even_odd_blocks(diag[:m], nl.fprime(phi))
        for block, basis in ((even, cos), (odd, sin)):
            fd = jacobian(basis)
            assert block.shape == fd.shape
            assert np.abs(block - fd).max() < 1e-8 * np.abs(fd).max()

    @pytest.mark.parametrize("m", [2, 17, 49])
    def test_blocks_equal_their_entry_formula_bit_for_bit(self, m):
        # m < N/2 + 1 clips the odd block to (m - 1)^2, as Newton's call does;
        # m = N/2 + 1 gives assemble's full (m - 2)^2 odd block
        N = 96
        rng = np.random.default_rng(m)
        v = rng.standard_normal(N)
        fprime, d = 0.5 * (v + v[-np.arange(N) % N]), rng.standard_normal(m)
        g = np.fft.fft(fprime).real / N
        t = [math.sqrt(0.5) if j in (0, N // 2) else 1.0 for j in range(m)]

        def entry(j, l, sign, weight):
            diag = d[j] if j == l else 0.0
            return diag - weight * (g[abs(j - l) % N] + sign * g[(j + l) % N])

        even, odd = _even_odd_blocks(d, fprime)
        odd_modes = range(1, min(m, N // 2))
        assert even.shape == (m, m)
        assert odd.shape == (len(odd_modes),) * 2 == ((m - 1,) * 2 if m < 49 else (m - 2,) * 2)
        assert all(even[j, l] == entry(j, l, 1.0, t[j] * t[l])
                   for j in range(m) for l in range(m))
        assert all(odd[j - 1, l - 1] == entry(j, l, -1.0, 1.0)
                   for j in odd_modes for l in odd_modes)
        again = _even_odd_blocks(d, fprime)
        assert all(a.tobytes() == b.tobytes() for a, b in zip((even, odd), again))
        for cached in (_window_index(N, m), _mode_weights(N, m)):
            with pytest.raises(ValueError):
                cached[0] = 1
