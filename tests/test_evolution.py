import dataclasses
import math

import numpy as np
import pytest

from conftest import constrained_energy, lyapunov_value, shift
from periwave import evolution
from periwave.evolution import (
    BlowupError,
    EvolutionConfig,
    energy,
    integrate,
    mass,
    momentum,
    orbital_distance,
    stability_experiment,
)
from periwave.spectral import (
    DispersionSymbol,
    Field,
    PeriodicGrid,
    random_smooth_field,
    sobolev_inner,
    sobolev_norm,
)
from periwave.waves import Nonlinearity, cnoidal_wave

TWO_PI = 2.0 * math.pi


def _full_spectrum_reference(u0, cfg, symbol, nl, n_steps):
    """Reference ETDRK4 on all N complex modes, with an explicit 2/3-rule
    dealias mask, applied n_steps times at step cfg.dt; returns the final
    values."""
    g = u0.grid
    xi = g.frequencies.copy()
    xi[g.nyquist_index] = 0.0
    theta = symbol.values_on(g).copy()
    theta[g.nyquist_index] = 0.0
    if cfg.variant == "standard":
        linear, nl_scale = 1j * xi * theta, -1j * xi
    else:
        linear = nl_scale = -1j * xi / (1.0 + theta)
    half = g.size // 2
    mask = np.abs(g.wavenumbers) <= (2 * half) // 3

    def nonlinear(uh):
        fh = np.fft.fft(nl.f(np.fft.ifft(uh).real))
        return nl_scale * np.where(mask, fh, 0.0)

    dt = cfg.dt
    z = dt * linear
    LR = z[:, None] + np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)[None, :]
    E, E2 = np.exp(z), np.exp(z / 2.0)
    Q = dt * np.mean((np.exp(LR / 2.0) - 1.0) / LR, axis=1)
    f1 = dt * np.mean((-4.0 - LR + np.exp(LR) * (4.0 - 3.0 * LR + LR**2)) / LR**3, axis=1)
    f2 = dt * np.mean((2.0 + LR + np.exp(LR) * (LR - 2.0)) / LR**3, axis=1)
    f3 = dt * np.mean((-4.0 - 3.0 * LR - LR**2 + np.exp(LR) * (4.0 - LR)) / LR**3, axis=1)

    def step(uh):
        n0 = nonlinear(uh)
        a = E2 * uh + Q * n0
        na = nonlinear(a)
        b = E2 * uh + Q * na
        nb = nonlinear(b)
        c = E2 * a + Q * (2.0 * nb - n0)
        nc = nonlinear(c)
        return E * uh + f1 * n0 + 2.0 * f2 * (na + nb) + f3 * nc

    uh = u0.spectrum.astype(complex)
    for _ in range(n_steps):
        uh = step(uh)
    return np.fft.ifft(uh).real


def _allocating_etdrk4(starts, cfg, symbol, nl):
    """The ETDRK4 loop written with a fresh array for every stage, the power
    u^(p+1) as the expression ``u ** (p + 1)``, and the flux constant c/(p+1)
    and the mode-wise nl_scale multiplied into the four stage coefficients;
    returns the (rows, N) values after each step."""
    g = starts[0].grid
    p, c = nl.params
    sd = evolution._Semidiscretization(g, symbol, cfg.variant)

    def nonlinear(uh):
        return np.fft.rfft(np.fft.irfft(uh, g.size) ** (p + 1))

    n_steps = int(round(cfg.T / cfg.dt))
    dt = cfg.T / n_steps
    exp_full, exp_half, Q, f1, f2, f3 = evolution._etdrk4_coefficients(dt * sd.linear, dt)
    scale = c / (p + 1.0) * sd.nl_scale
    Q, f1, f2, f3 = Q * scale, f1 * scale, f2 * scale, f3 * scale
    uh = np.fft.rfft(np.stack([u.values for u in starts]))
    states = []
    for _ in range(n_steps):
        n0 = nonlinear(uh)
        half_uh = exp_half * uh
        a = half_uh + Q * n0
        na = nonlinear(a)
        b = half_uh + Q * na
        nb = nonlinear(b)
        cc = exp_half * a + Q * (2.0 * nb - n0)
        nc = nonlinear(cc)
        uh = exp_full * uh
        uh += f1 * n0
        uh += f2 * (na + nb)
        uh += f3 * nc
        states.append(np.fft.irfft(uh, g.size))
    return states


@pytest.fixture
def grid():
    return PeriodicGrid(TWO_PI, 64)


@pytest.fixture(scope="module")
def kdv_n96():
    """A cnoidal wave at N = 96, where dividing by N and multiplying by the
    factor 1/N round differently."""
    return cnoidal_wave(TWO_PI, 0.9, 96)


class TestConservedQuantities:
    def test_zero_field(self, grid):
        z = Field.constant(grid, 0.0)
        sym = DispersionSymbol.second_derivative(TWO_PI)
        assert energy(z, sym, Nonlinearity.kdv()) == 0.0
        assert momentum(z) == 0.0
        assert mass(z) == 0.0

    def test_constant_one_kdv(self, grid):
        # theta(0) = 0 and W(u) = u^3/6, so P(1) = -integral W = -L/6
        u = Field.constant(grid, 1.0)
        sym = DispersionSymbol.second_derivative(TWO_PI)
        assert energy(u, sym, Nonlinearity.kdv()) == pytest.approx(-TWO_PI / 6.0, rel=1e-12)
        assert momentum(u) == pytest.approx(math.pi, rel=1e-12)
        assert mass(u) == pytest.approx(TWO_PI, rel=1e-12)

    def test_momentum_is_half_l2_norm_squared(self, grid):
        u = random_smooth_field(grid, seed=4)
        assert momentum(u) == pytest.approx(0.5 * sobolev_norm(u, 0.0) ** 2, rel=1e-12)

    def test_regularized_momentum(self, grid):
        sym = DispersionSymbol.second_derivative(TWO_PI)
        u = random_smooth_field(grid, seed=5)
        du_sq = sobolev_norm(u, 1.0) ** 2 - sobolev_norm(u, 0.0) ** 2  # int u_x^2
        expected = 0.5 * (du_sq + sobolev_norm(u, 0.0) ** 2)
        assert momentum(u, symbol=sym, variant="regularized") == pytest.approx(
            expected, rel=1e-9
        )

    def test_regularized_momentum_needs_symbol(self, grid):
        with pytest.raises(ValueError):
            momentum(Field.constant(grid, 1.0), variant="regularized")


class TestConstrainedEnergy:
    def test_critical_point_at_wave(self, kdv_stable):
        w = kdv_stable
        rng = np.random.default_rng(6)
        h = 1e-6
        scale = abs(constrained_energy(w.profile, w)) + 1.0
        for seed in range(5):
            v = random_smooth_field(w.grid, seed=100 + seed, norm_s=0.0)
            gp = constrained_energy(w.profile + v * h, w)
            gm = constrained_energy(w.profile - v * h, w)
            assert abs(gp - gm) / (2 * h) < 1e-7 * scale

    def test_critical_point_regularized(self, bbm_wave):
        w = bbm_wave
        h = 1e-6
        for seed in range(3):
            v = random_smooth_field(w.grid, seed=200 + seed, norm_s=0.0)
            gp = constrained_energy(w.profile + v * h, w)
            gm = constrained_energy(w.profile - v * h, w)
            assert abs(gp - gm) / (2 * h) < 1e-6

    def test_translation_invariance_exact_on_nodes(self, kdv_stable):
        w = kdv_stable
        base = constrained_energy(w.profile, w)
        for n in (1, 7, 130):
            moved = shift(w.profile, n * w.grid.spacing)
            assert constrained_energy(moved, w) == pytest.approx(base, abs=1e-10)

    def test_auxiliary_reduces_to_momentum(self, kdv_stable, monkeypatch):
        w = kdv_stable
        cfg = EvolutionConfig(dt=5e-4, T=0.05, sample_interval=0.025)
        (trace,) = stability_experiment(w, [1e-2], cfg, seed=3, sigma=2.0, mu=0.0, nu=1.0)
        G = trace.energy + w.omega * trace.momentum + w.A * trace.mass
        F_phi = momentum(w.profile)
        G_phi = constrained_energy(w.profile, w)
        assert np.array_equal(trace.lyapunov, G - G_phi + 2.0 * (trace.momentum - F_phi) ** 2)
        monkeypatch.setattr(evolution, "integrate", None)  # refused before evolving
        with pytest.raises(ValueError, match=r"\(mu, nu\) != \(0, 0\)"):
            stability_experiment(w, [1e-2], cfg, mu=0.0, nu=0.0)


class TestLyapunov:
    def test_zero_on_the_wave(self, kdv_stable):
        assert lyapunov_value(kdv_stable.profile, kdv_stable, 1.0, 0.0, 1.0) == 0.0

    def test_zero_on_the_orbit(self, kdv_stable):
        w = kdv_stable
        for j in range(16):
            v = Field(w.grid, shift(w.profile, j * TWO_PI / 16.0).values)
            assert abs(lyapunov_value(v, w, 1.0, 0.0, 1.0)) < 1e-10

    def test_positive_near_orbit(self, kdv_stable):
        w = kdv_stable
        for seed in (1, 2, 3):
            p = random_smooth_field(w.grid, seed=seed, norm_s=1.0)
            v = w.profile + p * 1e-2
            val = lyapunov_value(v, w, 1.0, 0.0, 1.0)
            d, _ = orbital_distance(v, w)
            assert val > 0
            assert val >= 1e-3 * d * d

    def test_sigma_must_be_positive(self, kdv_stable, monkeypatch):
        monkeypatch.setattr(evolution, "integrate", None)  # refused before evolving
        cfg = EvolutionConfig(dt=5e-4, T=0.05)
        for sigma in (0.0, -1.0):
            with pytest.raises(ValueError, match="sigma must be positive"):
                stability_experiment(kdv_stable, [1e-2], cfg, sigma=sigma)

    @pytest.mark.parametrize("wave", ["kdv_stable", "bbm_wave"])
    def test_experiment_records_the_reference_functional(self, request, wave):
        # the lyapunov column, read off the recorded P, F and M, equals V
        # computed afresh at each evolved state, to the last bit
        w = request.getfixturevalue(wave)
        amplitudes, sigma, mu, nu = [1e-3, 1e-1], 4.0, 0.6, 0.8
        cfg = EvolutionConfig(dt=5e-4, T=0.1, sample_interval=0.025, variant=w.variant)
        traces = stability_experiment(w, amplitudes, cfg, seed=3, sigma=sigma, mu=mu, nu=nu)
        direction = random_smooth_field(w.grid, 3, norm_s=w.sobolev_index)
        trajs = integrate([w.profile + direction * a for a in amplitudes], cfg, w.symbol,
                          w.nonlinearity)
        for trace, traj in zip(traces, trajs):
            assert len(trace.lyapunov) == len(traj.states) == 5
            for V, u in zip(trace.lyapunov, traj.states):
                assert V == lyapunov_value(u, w, sigma, mu, nu)


class TestOrbitalDistance:
    def test_orbit_member_distance_zero(self, kdv_stable):
        w = kdv_stable
        r0 = 0.3 * TWO_PI
        v = Field(w.grid, shift(w.profile, r0).values)
        d, r = orbital_distance(v, w)
        assert d < 1e-10
        assert r == pytest.approx(r0, abs=1e-8)

    def test_infimum_bound(self, kdv_stable):
        w = kdv_stable
        s = w.sobolev_index
        p = random_smooth_field(w.grid, seed=3, norm_s=s)
        v = w.profile + p * 1e-3
        d, _ = orbital_distance(v, w)
        assert d <= sobolev_norm(v - w.profile, s) + 1e-14

    def test_optimality_orthogonality(self, kdv_stable):
        w = kdv_stable
        s = w.sobolev_index
        p = random_smooth_field(w.grid, seed=8, norm_s=s)
        v = w.profile + p * 1e-2
        d, r = orbital_distance(v, w)
        phi_r = Field(w.grid, shift(w.profile, r).values)
        from periwave.spectral import derivative

        pp_r = derivative(phi_r)
        resid = abs(sobolev_inner(v - phi_r, pp_r, s))
        assert resid < 1e-8 * sobolev_norm(v, s) * sobolev_norm(pp_r, s)

    @pytest.mark.parametrize("eps", [1e-3, 1e-6])
    def test_constant_offset_distance_has_no_cancellation(self, kdv_stable, eps):
        # the offset is H^s-orthogonal to the zero-mean orbit: d = eps sqrt(L)
        w = kdv_stable
        v = shift(w.profile, 0.3 * TWO_PI) + eps
        d, _ = orbital_distance(v, w)
        exact = eps * math.sqrt(w.grid.length)
        assert abs(d - exact) < 1e-9 * exact

    def test_pseudometric_shift_invariance(self, kdv_stable):
        w = kdv_stable
        p = random_smooth_field(w.grid, seed=9, norm_s=1.0)
        v = w.profile + p * 1e-2
        d1, _ = orbital_distance(v, w)
        d2, _ = orbital_distance(shift(v, 11 * w.grid.spacing), w)
        assert abs(d1 - d2) < 1e-10


class TestIntegrate:
    def test_traveling_wave_exactness(self, kdv_stable):
        w = kdv_stable
        cfg = EvolutionConfig(dt=5e-4, T=1.0)
        traj = integrate([w.profile], cfg, w.symbol, w.nonlinearity)[0]
        exact = shift(w.profile, -w.omega * 1.0)
        assert (traj.states[-1] - exact).sup_norm() < 1e-6

    def test_linear_phase_evolution(self, grid):
        # tiny amplitude: nonlinearity negligible, each mode rotates by e^{i xi theta t}
        sym = DispersionSymbol.second_derivative(TWO_PI)
        amp = 1e-8
        u0 = Field(grid, amp * np.cos(grid.nodes))
        cfg = EvolutionConfig(dt=1e-4, T=0.1)
        traj = integrate([u0], cfg, sym, Nonlinearity.kdv())[0]
        xi, theta = 1.0, 1.0
        expected = amp * np.cos(grid.nodes + xi * theta * 0.1)
        assert np.abs(traj.states[-1].values - expected).max() < 1e-8 * amp

    def test_fourth_order_self_convergence(self, kdv_midk):
        # dt window chosen above the roundoff floor (~1e-12 at this resolution)
        w = kdv_midk
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            traj = integrate([w.profile], EvolutionConfig(dt=dt, T=1.0), w.symbol,
                             w.nonlinearity)[0]
            exact = shift(w.profile, -w.omega * 1.0)
            errs.append((traj.states[-1] - exact).sup_norm())
        assert math.log2(errs[0] / errs[1]) > 3.8
        assert math.log2(errs[1] / errs[2]) > 3.5

    def test_translation_equivariance(self, kdv_midk):
        w = kdv_midk
        cfg = EvolutionConfig(dt=5e-4, T=0.5)
        r = 9 * w.grid.spacing
        a = integrate([shift(w.profile, r)], cfg, w.symbol, w.nonlinearity)[0].states[-1]
        b = shift(integrate([w.profile], cfg, w.symbol, w.nonlinearity)[0].states[-1], r)
        assert (a - b).sup_norm() < 1e-9

    def test_mass_conserved_to_roundoff(self, kdv_midk):
        w = kdv_midk
        u0 = w.profile + random_smooth_field(w.grid, seed=2, norm_s=0.0) * 1e-3
        traj = integrate([u0], EvolutionConfig(dt=5e-4, T=1.0), w.symbol, w.nonlinearity)[0]
        assert abs(mass(traj.states[-1]) - mass(u0)) < 1e-12

    def test_short_horizon_conservation(self, kdv_midk):
        w = kdv_midk
        u0 = w.profile + random_smooth_field(w.grid, seed=2, norm_s=1.0) * 1e-3
        traj = integrate([u0], EvolutionConfig(dt=2e-4, T=2.0), w.symbol, w.nonlinearity)[0]
        P0 = energy(u0, w.symbol, w.nonlinearity)
        F0 = momentum(u0)
        assert abs(energy(traj.states[-1], w.symbol, w.nonlinearity) - P0) < 1e-7 * max(1, abs(P0))
        assert abs(momentum(traj.states[-1]) - F0) < 1e-7 * max(1, abs(F0))

    def test_regularized_short_horizon_conservation(self, bbm_wave):
        w = bbm_wave
        u0 = w.profile + random_smooth_field(w.grid, seed=2, norm_s=1.0) * 1e-3
        cfg = EvolutionConfig(dt=1e-3, T=1.0, variant="regularized")
        traj = integrate([u0], cfg, w.symbol, w.nonlinearity)[0]
        P0 = energy(u0, w.symbol, w.nonlinearity)
        F0 = momentum(u0, symbol=w.symbol, variant="regularized")
        P1 = energy(traj.states[-1], w.symbol, w.nonlinearity)
        F1 = momentum(traj.states[-1], symbol=w.symbol, variant="regularized")
        assert abs(P1 - P0) < 1e-7 * max(1, abs(P0))
        assert abs(F1 - F0) < 1e-7 * max(1, abs(F0))

    def test_regularized_traveling_wave(self, bbm_wave):
        w = bbm_wave
        cfg = EvolutionConfig(dt=1e-3, T=1.0, variant="regularized")
        traj = integrate([w.profile], cfg, w.symbol, w.nonlinearity)[0]
        exact = shift(w.profile, -w.omega * 1.0)
        assert (traj.states[-1] - exact).sup_norm() < 1e-6

    def test_blowup_detection(self, grid):
        sym = DispersionSymbol.second_derivative(TWO_PI)
        u0 = Field(grid, 80.0 * np.cos(grid.nodes))
        cfg = EvolutionConfig(dt=0.05, T=5.0)
        with pytest.raises(BlowupError) as info:
            integrate([u0], cfg, sym, Nonlinearity.kdv())
        assert info.value.time > 0
        # the samples taken before the failing one come with the error
        (traj,) = info.value.trajectories
        assert info.value.traces == []
        assert traj.states[0] is u0 and len(traj.states) == len(traj.times)
        assert traj.times[-1] < info.value.time
        assert all(np.isfinite(u.values).all() for u in traj.states)

    @pytest.mark.parametrize(
        "wave", ["kdv_midk", "bbm_wave", "kdv_n96", "gkdv3_wave", "bo_wave"])
    def test_half_spectrum_steps_match_full_spectrum(self, request, wave):
        w = request.getfixturevalue(wave)
        g = w.grid
        # a rough perturbation and a Nyquist component make the dealias mask
        # and the Nyquist convention visible above roundoff
        u0 = (w.profile + random_smooth_field(g, seed=5, norm_s=0.0) * 0.1
              + Field(g, 1e-3 * (-1.0) ** np.arange(g.size)))
        dt = 1e-3
        cfg = EvolutionConfig(dt=dt, T=2 * dt, variant=w.variant, sample_interval=dt)
        traj = integrate([u0], cfg, w.symbol, w.nonlinearity)[0]
        for n_steps in (1, 2):
            ref = _full_spectrum_reference(u0, cfg, w.symbol, w.nonlinearity, n_steps)
            got = traj.states[n_steps].values
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("wave", ["kdv_stable", "bbm_wave", "kdv_n96", "gkdv2_wave"])
    def test_etdrk4_bitwise_equal_to_allocating_step(self, request, wave, rows):
        # every step is sampled, so a sample that aliased a reused stage
        # buffer would be overwritten by later steps and differ here; the
        # reference multiplies by the (N/2+1,) coefficients, broadcast over
        # the rows, where integrate uses copies at the batch's shape; p = 2
        # takes the np.power branch
        w = request.getfixturevalue(wave)
        p = random_smooth_field(w.grid, seed=4, norm_s=1.0)
        starts = [w.profile + p * a for a in (1e-2, 1e-1, 0.0)][:rows]
        dt = 1e-3
        cfg = EvolutionConfig(dt=dt, T=50 * dt, variant=w.variant, sample_interval=dt)
        trajs = integrate(starts, cfg, w.symbol, w.nonlinearity)
        ref = _allocating_etdrk4(starts, cfg, w.symbol, w.nonlinearity)
        assert len(ref) == 50
        for row, traj in enumerate(trajs):
            assert len(traj.states) == 51
            for state, values in zip(traj.states[1:], ref):
                assert np.array_equal(state.values, values[row])

    @pytest.mark.parametrize("N", [16, 96, 256])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_step_transforms_bitwise_equal_to_public_fft(self, rows, N):
        # the gufuncs integrate calls, with its buffers as positional outputs
        # and phys squared in place, against np.fft's public functions; at
        # N = 96, dividing by N rounds differently from the factor 1/N
        pfu = evolution._pocketfft_umath
        rng = np.random.default_rng(rows * N)
        phys = np.empty((rows, N))
        out = np.empty((rows, N // 2 + 1), dtype=complex)
        inv_n = np.reciprocal(N, dtype=float)
        for _ in range(2):  # a second pass through the same buffers
            y = rng.standard_normal((rows, N // 2 + 1)) + 1j * rng.standard_normal(
                (rows, N // 2 + 1))
            want_phys = np.fft.irfft(y, N)
            assert pfu.irfft(y, inv_n, phys) is phys
            assert np.array_equal(phys, want_phys)
            want_out = np.fft.rfft(want_phys ** 2)
            assert pfu.rfft_n_even(np.square(phys, phys), 1.0, out) is out
            assert np.array_equal(out, want_out)

    def test_public_fft_calls_scale_with_samples_not_steps(self, kdv_midk, monkeypatch):
        w = kdv_midk
        calls = []
        for name in ("rfft", "irfft"):
            original = getattr(np.fft, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counting)
        cfg = EvolutionConfig(dt=5e-4, T=0.1, sample_interval=0.025)
        traj = integrate([w.profile, w.profile * 1.01], cfg, w.symbol, w.nonlinearity)[0]
        n_samples = len(traj.times) - 1
        assert n_samples == 4
        # one forward transform of the starts, one inverse per sample; the
        # 200 steps make none
        assert calls.count("rfft") == 1
        assert calls.count("irfft") == n_samples

    @pytest.mark.parametrize("c", [1.0, 2.0])
    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_flux_into_out_is_bitwise_equal(self, grid, p, c):
        nl = Nonlinearity.power_law(p, c)
        u = 1.5 * random_smooth_field(grid, seed=6, norm_s=0.0).values
        want = nl.f(u)
        assert np.array_equal(want, c * u ** (p + 1) / (p + 1))

    @pytest.mark.parametrize("wave", ["kdv_midk", "bbm_wave"])
    def test_sequence_gives_one_trajectory_per_field(self, request, wave):
        w = request.getfixturevalue(wave)
        p = random_smooth_field(w.grid, seed=2, norm_s=1.0)
        starts = [p * 1e-6, w.profile + p * 1e-1]
        cfg = EvolutionConfig(dt=5e-4, T=0.1, sample_interval=0.05, variant=w.variant)
        trajs = integrate(starts, cfg, w.symbol, w.nonlinearity)
        assert len(trajs) == 2
        for start, traj in zip(starts, trajs):
            alone = integrate([start], cfg, w.symbol, w.nonlinearity)[0]
            assert traj.states[0] is start
            assert np.array_equal(traj.times, alone.times)
            for a, b in zip(traj.states, alone.states):
                assert np.array_equal(a.values, b.values)
        assert integrate([], cfg, w.symbol, w.nonlinearity) == []

    def test_each_row_keeps_its_own_blowup_bound(self, grid):
        # a large constant row stays put; its wide bound must not delay the
        # detection in the row that blows up
        sym = DispersionSymbol.second_derivative(TWO_PI)
        u_big = Field(grid, 80.0 * np.cos(grid.nodes))
        cfg = EvolutionConfig(dt=0.05, T=5.0)
        with pytest.raises(BlowupError) as alone:
            integrate([u_big], cfg, sym, Nonlinearity.kdv())
        with pytest.raises(BlowupError) as batch:
            integrate([Field.constant(grid, 1e4), u_big], cfg, sym, Nonlinearity.kdv())
        assert batch.value.time == alone.value.time
        assert batch.value.row == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(dt=0.1, T=0.05)

    @pytest.mark.parametrize("field, value", [
        ("integrator", "etdrk4"), ("dealias", True), ("blowup_factor", 1e3)])
    def test_config_has_no_scheme_choice(self, field, value):
        # ETDRK4 with the 2/3 rule and a fixed blowup radius is the only
        # scheme; no field selects another
        with pytest.raises(TypeError):
            EvolutionConfig(dt=1e-3, T=1.0, **{field: value})
        assert [f.name for f in dataclasses.fields(EvolutionConfig)] == [
            "dt", "T", "variant", "sample_interval"]

    def test_etdrk4_coefficients_match_closed_forms(self):
        # the contour averages equal the phi-function formulas away from 0,
        # and their limits at z = 0, where the formulas cancel
        dt = 0.3
        z = np.array([0.0, -2.0, 1.5, 5j, -50.0, -1.0 + 3j, 40j])
        got = evolution._etdrk4_coefficients(z, dt)
        zz, ez = z[1:], np.exp(z[1:])
        assert np.array_equal(got[0], np.exp(z))
        assert np.array_equal(got[1], np.exp(z / 2.0))
        want = (
            dt * np.expm1(zz / 2.0) / zz,
            dt * (-4.0 - zz + ez * (4.0 - 3.0 * zz + zz**2)) / zz**3,
            2.0 * dt * (2.0 + zz + ez * (zz - 2.0)) / zz**3,
            dt * (-4.0 - 3.0 * zz - zz**2 + ez * (4.0 - zz)) / zz**3,
        )
        limits = (dt / 2.0, dt / 6.0, dt / 3.0, dt / 6.0)
        for coeff, formula, limit in zip(got[2:], want, limits):
            assert abs(coeff[0] - limit) <= 1e-14 * limit
            assert np.max(np.abs(coeff[1:] - formula) / np.abs(formula)) < 1e-13


class TestStabilityExperiment:
    def test_zero_amplitude_stays_on_orbit(self, kdv_midk):
        w = kdv_midk
        cfg = EvolutionConfig(dt=5e-4, T=2.0, sample_interval=0.5)
        traces = stability_experiment(w, [0.0], cfg, seed=3)
        assert traces[0].d_orbit.max() < 1e-6

    def test_small_perturbation_trace(self, kdv_midk):
        w = kdv_midk
        cfg = EvolutionConfig(dt=5e-4, T=2.0, sample_interval=0.5)
        (trace,) = stability_experiment(w, [1e-3], cfg, seed=3, sigma=1.0)
        assert trace.d_orbit[0] == pytest.approx(1e-3, rel=0.3)
        assert trace.sup_ratio() < 20.0
        assert trace.drift(trace.mass) < 1e-12

    @pytest.mark.parametrize("wave", ["kdv_midk", "bbm_wave"])
    def test_batch_equals_single_amplitude_runs(self, request, wave):
        w = request.getfixturevalue(wave)
        cfg = EvolutionConfig(dt=5e-4, T=0.2, sample_interval=0.05)
        both = stability_experiment(w, [1e-3, 1e-2], cfg, seed=3)
        for trace in both:
            (alone,) = stability_experiment(w, [trace.amplitude], cfg, seed=3)
            for name in ("times", "d_orbit", "r_star", "energy", "momentum", "mass",
                         "lyapunov"):
                assert np.array_equal(getattr(trace, name), getattr(alone, name)), name

    def test_one_integrate_call_for_all_amplitudes(self, kdv_midk, monkeypatch):
        calls = []
        original = evolution.integrate

        def counting(u0, *args, **kwargs):
            calls.append(len(u0))
            return original(u0, *args, **kwargs)

        monkeypatch.setattr(evolution, "integrate", counting)
        cfg = EvolutionConfig(dt=5e-4, T=0.05)
        traces = stability_experiment(kdv_midk, [1e-3, 1e-2], cfg, seed=3)
        assert calls == [2]
        assert [t.amplitude for t in traces] == [1e-3, 1e-2]

    def test_batch_blowup_names_the_failing_amplitude(self):
        # only the larger amplitude blows up; the batch stops at its time
        w = cnoidal_wave(TWO_PI, 0.9, 128)
        cfg = EvolutionConfig(dt=0.05, T=5.0)
        (small,) = stability_experiment(w, [1e-3], cfg)
        with pytest.raises(BlowupError) as alone:
            stability_experiment(w, [20.0], cfg)
        with pytest.raises(BlowupError) as batch:
            stability_experiment(w, [1e-3, 20.0], cfg)
        exc = batch.value
        assert exc.time == alone.value.time > 1.0
        assert exc.row == 1
        assert str(exc).endswith("at amplitude 20")
        # each row's trace up to the sample before the blowup is bitwise the
        # start of that amplitude's trace when it runs alone
        assert [t.amplitude for t in exc.traces] == [1e-3, 20.0]
        n = len(exc.traces[0].times)
        assert 1 < n < len(small.times)
        assert small.times[n] == exc.time
        for name in ("times", "d_orbit", "r_star", "energy", "momentum", "mass", "lyapunov"):
            assert np.array_equal(getattr(exc.traces[0], name), getattr(small, name)[:n]), name
            assert np.array_equal(getattr(exc.traces[1], name),
                                  getattr(alone.value.traces[0], name)), name
        for traj, trace in zip(exc.trajectories, exc.traces, strict=True):
            assert np.array_equal(traj.times, trace.times)
            assert len(traj.states) == n

    def test_negative_amplitude_rejected(self, kdv_midk):
        cfg = EvolutionConfig(dt=5e-4, T=1.0)
        with pytest.raises(ValueError):
            stability_experiment(kdv_midk, [-1e-3], cfg)
