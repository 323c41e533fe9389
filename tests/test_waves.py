import math
import re

import numpy as np
import pytest

from conftest import apply, certified_tangent, constrained_energy, omega_targets, shift
from periwave import elliptic, waves
from periwave.cli import _solve_wave
from periwave.config import load_config
from periwave.evolution import energy, mass, momentum
from periwave.linop import assemble
from periwave.spectral import (
    DispersionSymbol,
    Field,
    PeriodicGrid,
    _resample,
    mean_value,
    random_smooth_field,
)
from periwave.waves import (
    Constraint,
    ConvergenceError,
    DegenerateBranchError,
    Nonlinearity,
    ResolutionError,
    TravelingWave,
    _certified,
    bbm_dnoidal_wave,
    cnoidal_wave,
    constant_state,
    continue_family,
    ilw_wave,
    param_derivatives,
    residual,
    residual_bound,
    solve_newton,
)

TWO_PI = 2.0 * math.pi


class TestNonlinearity:
    @pytest.mark.parametrize("nl", [Nonlinearity.kdv(), Nonlinearity.power_law(2),
                                    Nonlinearity.power_law(3, 0.5), Nonlinearity.quadratic()])
    def test_finite_difference_consistency(self, nl):
        rng = np.random.default_rng(0)
        u = rng.uniform(-2.0, 2.0, size=40)
        h = 1e-6
        fd_f = (nl.primitive(u + h) - nl.primitive(u - h)) / (2.0 * h)
        assert np.abs(fd_f - nl.f(u)).max() < 1e-8 * (1.0 + np.abs(nl.f(u)).max())
        fd_fp = (nl.f(u + h) - nl.f(u - h)) / (2.0 * h)
        assert np.abs(fd_fp - nl.fprime(u)).max() < 1e-8 * (1.0 + np.abs(nl.fprime(u)).max())

    def test_power_validation(self):
        with pytest.raises(ValueError):
            Nonlinearity.power_law(0)

    @pytest.mark.parametrize("p", [2.7, 1.5, True, False, "2", math.inf, math.nan])
    def test_power_exponent_must_be_an_integer(self, p):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            Nonlinearity.power_law(p)

    def test_integral_float_exponent_is_that_integer(self):
        assert Nonlinearity.power_law(2.0).params == (2, 1.0)
        assert type(Nonlinearity.power_law(np.int64(3)).params[0]) is int


class TestNamedCasesOfGeneralPath:
    """The named flux, symbols, closed forms and energy are parameter values of
    the general routines and give the dedicated formulas bit for bit."""

    def test_quadratic_flux_is_power_law(self):
        u = np.random.default_rng(5).uniform(-4.0, 4.0, size=500)
        nl = Nonlinearity.quadratic()
        assert np.array_equal(nl.f(u), u * u)
        assert np.array_equal(nl.fprime(u), 2.0 * u)
        assert np.array_equal(nl.primitive(u), u**3 / 3.0)

    @pytest.mark.parametrize("L, N", [(TWO_PI, 64), (3.0, 256)])
    def test_derivative_symbols_are_powers(self, L, N):
        grid = PeriodicGrid(L, N)
        xi = 2.0 * math.pi * np.abs(grid.wavenumbers) / L
        second = DispersionSymbol.second_derivative(L)
        hilbert = DispersionSymbol.hilbert_derivative(L)
        assert np.array_equal(second.values_on(grid), xi**2)
        assert np.array_equal(hilbert.values_on(grid), xi)
        assert second.value(-3) == (2.0 * math.pi * 3 / L) ** 2
        assert hilbert.value(-3) == 2.0 * math.pi * 3 / L
        assert (second.order, second.lower_bound, second.upper_bound, second.threshold) == (
            2.0, (2.0 * math.pi / L) ** 2, (2.0 * math.pi / L) ** 2, 1)
        assert (hilbert.order, hilbert.lower_bound, hilbert.upper_bound, hilbert.threshold) == (
            1.0, 2.0 * math.pi / L, 2.0 * math.pi / L, 1)

    @pytest.mark.parametrize("k", [0.5, 0.9, 0.99])
    def test_dnoidal_waves_match_their_closed_forms(self, k):
        L, N = TWO_PI, 256
        K = elliptic.complete_K(k)
        e = elliptic.complete_E(k) / K
        alpha = 2.0 * K / L
        sn, _, _ = elliptic.jacobi_sn_cn_dn(alpha * PeriodicGrid(L, N).nodes, k)
        shape = (1.0 - e) - k * k * sn**2

        kdv = cnoidal_wave(L, k, N)
        omega = 4.0 * alpha**2 * (2.0 - k * k - 3.0 * e)
        phi = 12.0 * alpha**2 * shape
        assert kdv.omega == omega and kdv.variant == "standard"
        assert np.array_equal(kdv.profile.values, phi)
        assert kdv.A == float(np.mean(0.5 * phi**2 - omega * phi))

        bbm = bbm_dnoidal_wave(L, k, N)
        omega = 1.0 / (1.0 - 4.0 * alpha**2 * (2.0 - k * k - 3.0 * e))
        phi = 12.0 * omega * alpha**2 * shape
        assert bbm.omega == omega and bbm.variant == "regularized"
        assert np.array_equal(bbm.profile.values, phi)
        assert bbm.A == float(np.mean(0.5 * phi**2 - (omega - 1.0) * phi))

    def test_constrained_energy_of_both_variants(self, kdv_stable, bbm_wave):
        for w in (kdv_stable, bbm_wave):
            u = w.profile + random_smooth_field(w.grid, seed=2) * 1e-2
            P = energy(u, w.symbol, w.nonlinearity)
            if w.variant == "standard":
                expected = P + w.omega * momentum(u) + w.A * mass(u)
            else:
                F = momentum(u, symbol=w.symbol, variant="regularized")
                expected = P + (w.omega - 1.0) * F + w.A * mass(u)
            assert constrained_energy(u, w) == expected


class TestResidual:
    def test_constant_state_zero_residual(self):
        grid = PeriodicGrid(TWO_PI, 64)
        w = constant_state(grid, 1.7, 0.9, DispersionSymbol.ilw(1.0, TWO_PI), Nonlinearity.kdv())
        assert residual(w).sup_norm() < 1e-13

    def test_perturbation_scales_linearly(self, kdv_stable):
        w = kdv_stable
        base = residual(w).sup_norm()
        for eps in (1e-4, 1e-5):
            pert = w.profile + Field(w.grid, eps * np.cos(w.grid.nodes))
            wp = TravelingWave(pert, w.omega, w.A, w.symbol, w.nonlinearity)
            grown = residual(wp).sup_norm()
            assert grown < base + 10.0 * eps
            assert grown > 0.05 * eps


class TestCnoidal:
    @pytest.mark.parametrize("k", [0.3, 0.6, 0.9, 0.99])
    def test_zero_mean_and_residual(self, k):
        w = cnoidal_wave(TWO_PI, k, 256)
        assert abs(mean_value(w.profile)) < 1e-12
        assert w.residual_norm < 1e-9
        # A = (1/2L) integral phi^2 follows from the zero-mean construction
        A_from_profile = 0.5 * (w.grid.spacing * (w.profile.values**2).sum()) / TWO_PI
        assert w.A == pytest.approx(A_from_profile, rel=1e-10)

    @pytest.mark.parametrize("k, N", [(1e-2, 256), (1e-3, 16), (1e-3, 32), (1e-3, 64)])
    @pytest.mark.parametrize(
        "closed_form", [cnoidal_wave, bbm_dnoidal_wave], ids=["cnoidal", "bbm_dnoidal"]
    )
    def test_small_k_limit(self, closed_form, k, N):
        # a hand-expanded A cancels terms of size beta^2, which the roundoff
        # bound refused at k = 1e-3, N <= 64 (cnoidal N=16: 7.1e-16 against
        # 2.1e-17); the zero mode of the profile equation does not
        w = closed_form(TWO_PI, k, N)
        assert w.profile.sup_norm() < 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            cnoidal_wave(TWO_PI, 1.0, 256)

    def test_underresolved_refused_naming_residual_and_bound(self):
        # N=32 truncates the k=0.99 profile: residual 5.6e-7 against 5.4e-10
        with pytest.raises(ResolutionError) as info:
            cnoidal_wave(TWO_PI, 0.99, 32)
        msg = str(info.value)
        assert "cnoidal residual 5.594e-07 above the roundoff bound 5.401e-10" in msg
        assert "increase N" not in msg

    def test_wrong_speed_refused(self, kdv_stable):
        moved = TravelingWave(
            kdv_stable.profile, kdv_stable.omega + 0.5, kdv_stable.A,
            kdv_stable.symbol, kdv_stable.nonlinearity,
        )
        with pytest.raises(ResolutionError, match="above the roundoff bound"):
            _certified(moved, "cnoidal")

    def test_nan_profile_refused(self, kdv_stable):
        broken = TravelingWave(
            kdv_stable.profile.with_values(np.full(kdv_stable.grid.size, np.nan)),
            kdv_stable.omega, kdv_stable.A, kdv_stable.symbol, kdv_stable.nonlinearity,
        )
        with pytest.raises(ResolutionError):
            _certified(broken, "cnoidal")

    def test_translation_covariance(self, kdv_stable, ilw_stable):
        # 1e-12 is attainable for the order-1 symbol; the KdV multiplier
        # amplifies FFT roundoff by theta_max ~ (N/2)^2, hence the scaled bound.
        moved = TravelingWave(
            shift(ilw_stable.profile, 17 * ilw_stable.grid.spacing),
            ilw_stable.omega, ilw_stable.A, ilw_stable.symbol, ilw_stable.nonlinearity,
        )
        assert abs(residual(moved).sup_norm() - ilw_stable.residual_norm) < 1e-12

        w = kdv_stable
        theta_max = w.symbol.value(w.grid.size // 2)
        roundoff = 30.0 * np.finfo(float).eps * theta_max * w.profile.sup_norm()
        moved = TravelingWave(
            shift(w.profile, 17 * w.grid.spacing), w.omega, w.A, w.symbol, w.nonlinearity
        )
        assert abs(residual(moved).sup_norm() - w.residual_norm) < roundoff

    def test_spectral_tail_resolved(self, kdv_stable):
        # largest |u_hat| over the last octave of modes against the overall peak
        spec = np.abs(kdv_stable.profile.spectrum)
        half = kdv_stable.grid.size // 2
        assert spec[half // 2 : half + 1].max() < 1e-10 * spec.max()


class TestNewton:
    def test_recovers_cnoidal_from_noisy_guess(self, kdv_stable):
        w = kdv_stable
        noise = random_smooth_field(w.grid, seed=4, norm_s=0.0)
        guess = w.profile + noise * 1e-3
        out = solve_newton(
            guess, w.omega, Constraint.zero_mean(), w.symbol, w.nonlinearity, tol=1e-10
        )
        assert (out.profile - w.profile).sup_norm() < 1e-8
        assert out.A == pytest.approx(w.A, abs=1e-9)

    def test_zero_mean_enforced(self, kdv_stable):
        w = kdv_stable
        out = solve_newton(
            w.profile + 1e-3, w.omega, Constraint.zero_mean(), w.symbol, w.nonlinearity
        )
        assert abs(mean_value(out.profile)) < 1e-12

    def test_fixed_mean(self, kdv_stable):
        w = kdv_stable
        out = solve_newton(
            w.profile, w.omega, Constraint.fixed_mean(0.25), w.symbol, w.nonlinearity
        )
        assert mean_value(out.profile) == pytest.approx(0.25, abs=1e-12)

    def test_stokes_branch_near_bifurcation(self):
        # KdV with A = 0 bifurcates subcritically: omega + theta(1) = -(5/24) a^2
        grid = PeriodicGrid(TWO_PI, 128)
        omega = -1.05
        a_pred = math.sqrt(24.0 * (-1.0 - omega) / 5.0)
        guess = Field(grid, a_pred * np.cos(grid.nodes))
        w = solve_newton(
            guess, omega, Constraint.fixed_A(0.0),
            DispersionSymbol.second_derivative(TWO_PI), Nonlinearity.kdv(),
        )
        spec = np.abs(w.profile.spectrum) / grid.size
        assert int(np.argmax(spec[1:8])) == 0  # leading harmonic kappa = 1
        assert 2.0 * spec[1] == pytest.approx(a_pred, rel=0.1)

    def test_constant_guess_rejected(self):
        grid = PeriodicGrid(TWO_PI, 64)
        with pytest.raises(ValueError):
            solve_newton(
                Field.constant(grid, 1.0), 0.5, Constraint.fixed_A(0.0),
                DispersionSymbol.second_derivative(TWO_PI), Nonlinearity.kdv(),
            )

    def test_no_convergence_raises(self, kdv_stable):
        w = kdv_stable
        noise = random_smooth_field(w.grid, seed=4, norm_s=0.0)
        with pytest.raises(ConvergenceError):
            solve_newton(
                w.profile + noise * 0.05, w.omega, Constraint.zero_mean(),
                w.symbol, w.nonlinearity, tol=1e-12, max_iter=2,
            )

    @pytest.mark.parametrize("amplitude, omega", [(1e-3, 2.0), (0.1, 5.0)])
    def test_collapse_to_constant_branch_named(self, amplitude, omega):
        # zero-mean KdV: both guesses fall onto phi = 0, whose roundoff bound is 0
        grid = PeriodicGrid(TWO_PI, 64)
        with pytest.raises(DegenerateBranchError, match="collapsed to the constant branch"):
            solve_newton(
                Field(grid, amplitude * np.cos(grid.nodes)), omega, Constraint.zero_mean(),
                DispersionSymbol.second_derivative(TWO_PI), Nonlinearity.kdv(),
            )

    def test_no_convergence_names_roundoff_bound(self, kdv_stable):
        w = kdv_stable
        noise = random_smooth_field(w.grid, seed=4, norm_s=0.0)
        with pytest.raises(ConvergenceError) as info:
            solve_newton(
                w.profile + noise * 0.05, w.omega, Constraint.zero_mean(),
                w.symbol, w.nonlinearity, tol=1e-12, max_iter=2,
            )
        msg = str(info.value)
        found = re.search(r"no convergence in 2 iterations .*last residual (\S+), "
                          r"roundoff bound (\S+)\)", msg)
        assert found is not None, msg
        last, bound = float(found.group(1)), float(found.group(2))
        floor = residual_bound(w.symbol, w.profile)
        assert bound == pytest.approx(floor, rel=0.05)
        assert last > bound

    def test_residual_norm_is_last_history_entry(self, kdv_stable, gkdv2_wave, preset_wave):
        w = kdv_stable
        out = solve_newton(w.profile, w.omega, Constraint.zero_mean(), w.symbol, w.nonlinearity)
        for wave in (out, gkdv2_wave, preset_wave("bo", 1024)):
            assert wave.residual_norm == wave.newton_history[-1]
            assert wave.residual_norm == residual(wave).sup_norm()

    @pytest.mark.parametrize("preset", ["bo", "gkdv-p"])
    def test_jacobian_at_working_size(self, monkeypatch, preset):
        # only the Jacobian solve leaves N: one even block per step, on the
        # modes below K_s/2 + 1, each K_s below N, the sizes never shrinking
        sizes = []
        real = waves._even_odd_blocks
        monkeypatch.setattr(waves, "_even_odd_blocks",
                            lambda diag, fprime: sizes.append(2 * (diag.size - 1))
                            or real(diag, fprime))
        w = _solve_wave(load_config(preset=preset, overrides=["grid.N=1024"]))
        assert sizes and max(sizes) < 1024
        assert sizes == sorted(sizes) and w.newton_size == sizes[-1]
        assert w.residual_norm <= residual_bound(w.symbol, w.profile)

    def test_polish_without_a_step_builds_no_matrix(self, monkeypatch):
        w = cnoidal_wave(TWO_PI, 0.99, 1024)
        monkeypatch.setattr(waves, "_even_odd_blocks", None)
        out = solve_newton(
            w.profile, w.omega, Constraint.fixed_A(w.A), w.symbol, w.nonlinearity, tol=1e-8
        )
        assert len(out.newton_history) == 1 and out.newton_report()["newton_steps"] == 0

    def test_solution_at_n_is_the_padded_coarse_solution(self, preset_wave):
        fine, coarse = preset_wave("bo", 1024), preset_wave("bo", 256)
        padded = _resample(coarse.profile.values, 1024)
        assert np.abs(fine.profile.values - padded).max() <= 1e-13 * fine.profile.sup_norm()

    def test_tol_above_bound_does_not_stop_early(self, kdv_stable):
        w = kdv_stable
        # the perturbed guess already meets tol, but not the roundoff bound
        guess = w.profile + random_smooth_field(w.grid, seed=4, norm_s=0.0) * 1e-6
        out = solve_newton(
            guess, w.omega, Constraint.fixed_A(w.A), w.symbol, w.nonlinearity, tol=1e-3
        )
        assert out.newton_history[0] <= 1e-3 and len(out.newton_history) > 1
        assert out.residual_norm <= residual_bound(out.symbol, out.profile)

    def test_accepts_stalled_residual_within_bound(self, kdv_stable):
        # tol below the roundoff floor: the residual stops falling within the
        # bound and the iterate is accepted instead of exhausting max_iter
        w = kdv_stable
        out = solve_newton(
            w.profile, w.omega, Constraint.zero_mean(), w.symbol, w.nonlinearity, tol=1e-15
        )
        hist = out.newton_history
        assert len(hist) < 50
        assert hist[-1] > 0.5 * hist[-2]
        bound = residual_bound(out.symbol, out.profile)
        assert 1e-15 < out.residual_norm <= bound

    @pytest.mark.parametrize(
        "N, shift, omega0, amp",
        [(256, 10.0, -1.0000001, 3.0), (1024, 10.0, -1.000001, 3.0)],
    )
    def test_slow_convergence_near_bifurcation_not_taken_for_a_stall(
        self, N, shift, omega0, amp
    ):
        # The Stokes branch of test_stokes_branch_near_bifurcation, carried by
        # the Galilean shift phi -> shift + phi (omega -> omega + shift,
        # A -> shift^2/2 - omega shift).  The branch omega0 = -1 - (5/24) a^2
        # exists only for omega0 < -1, so both cases sit just on that side.
        # So close to the bifurcation the Jacobian is nearly singular: the
        # residual falls by less than half per step while already within
        # residual_bound (the bound is 1e3 times the roundoff floor).  Newton
        # must go on to the floor, and land on the small wave.
        grid = PeriodicGrid(TWO_PI, N)
        omega = omega0 + shift
        a_pred = math.sqrt(24.0 * abs(1.0 + omega0) / 5.0)
        guess = Field(
            grid, shift + amp * a_pred * np.cos(grid.nodes) + 1e-3 * np.cos(2 * grid.nodes)
        )
        w = solve_newton(
            guess, omega, Constraint.fixed_A(0.5 * shift**2 - omega * shift),
            DispersionSymbol.second_derivative(TWO_PI), Nonlinearity.kdv(),
        )
        assert w.residual_norm < 1e-2 * residual_bound(w.symbol, w.profile)
        assert 2.0 * abs(w.profile.spectrum[1]) / N == pytest.approx(a_pred, rel=1e-2)

    def test_quadratic_convergence_history(self, bo_wave):
        # order estimate q_n = ln r_{n+1} / ln r_n on residuals inside the
        # asymptotic window (below 0.1, above the roundoff floor)
        hist = bo_wave.newton_history
        ratios = [
            math.log(b) / math.log(a)
            for a, b in zip(hist, hist[1:])
            if a < 0.1 and b > 1e-12
        ]
        assert len(ratios) >= 3
        assert min(ratios[-3:]) > 1.9


class TestIlw:
    def test_even_and_real(self, ilw_stable):
        vals = ilw_stable.profile.values
        assert np.abs(vals[1:] - vals[:0:-1]).max() < 1e-12

    def test_residual(self, ilw_stable):
        assert ilw_stable.residual_norm < 1e-8

    def test_A_is_mean_square(self, ilw_stable):
        w = ilw_stable
        A_oracle = (w.grid.spacing * (w.profile.values**2).sum()) / TWO_PI
        assert w.A == pytest.approx(A_oracle, rel=1e-12)

    def test_strip_limit_raises(self):
        with pytest.raises(ResolutionError):
            ilw_wave(TWO_PI, 5.0, 0.5, 256)

    def test_undersized_grid_raises(self):
        # series converges but the cosine truncation at N/2-1 modes is unresolved
        with pytest.raises(ResolutionError):
            ilw_wave(TWO_PI, 2.0, 0.9, 16)


class TestBbmDnoidal:
    def test_residual_and_variant(self, bbm_wave):
        assert bbm_wave.variant == "regularized"
        assert bbm_wave.residual_norm < 1e-9
        assert abs(mean_value(bbm_wave.profile)) < 1e-12

    def test_speed_above_one(self, bbm_wave):
        assert bbm_wave.omega > 1.0


def _A_targets(w, values):
    """``continue_family`` targets at w's speed, one fixed A per value."""
    return [(w.omega, Constraint.fixed_A(a)) for a in values]


class TestFamily:
    def test_continuation_residuals(self, kdv_stable):
        w = kdv_stable
        fam = continue_family(w, omega_targets(np.linspace(w.omega, w.omega + 0.45, 10)))
        assert len(fam) == 10
        assert all(m.residual_norm < 1e-8 for m in fam)
        assert all(abs(mean_value(m.profile)) < 1e-12 for m in fam)
        # consecutive profiles stay close (continuity along the branch)
        jump = max((b.profile - a.profile).sup_norm() for a, b in zip(fam, fam[1:]))
        assert 0.0 < jump < 1.0

    def test_amplitude_monotone_on_zero_mean_branch(self, kdv_stable):
        w = kdv_stable
        fam = continue_family(w, omega_targets(np.linspace(w.omega, w.omega + 0.45, 6)))
        amps = [m.profile.sup_norm() for m in fam]
        assert all(a < b for a, b in zip(amps, amps[1:]))

    def test_single_point_family(self, kdv_stable):
        w = kdv_stable
        fam = continue_family(w, omega_targets([w.omega]))
        assert len(fam) == 1
        assert (fam[0].profile - w.profile).sup_norm() < 1e-9

    def test_A_sweep(self, gkdv2_wave):
        fam = continue_family(gkdv2_wave, _A_targets(gkdv2_wave, np.linspace(0.0, 0.02, 3)))
        assert [m.A for m in fam] == pytest.approx([0.0, 0.01, 0.02])
        assert all(m.residual_norm < 1e-8 for m in fam)

    def test_A_sweep_predicted_from_tangent(self, gkdv2_wave):
        # a fixed-A step follows beta alone: d_omega = 0, d_A the prescribed step
        targets = _A_targets(gkdv2_wave, np.linspace(0.0, 0.02, 3))
        plain = continue_family(gkdv2_wave, targets)
        seen = []

        def visit(w):
            seen.append(w)
            return certified_tangent(w)

        fam = continue_family(gkdv2_wave, targets, visit=visit)
        assert seen == list(fam)
        assert [m.A for m in fam] == pytest.approx([0.0, 0.01, 0.02])
        assert all(m.residual_norm < 1e-8 for m in fam)
        for a, b in zip(plain, fam):
            assert (a.profile - b.profile).sup_norm() <= 1e-10
        steps = [len(m.newton_history) - 1 for m in fam]
        assert steps[0] == len(plain[0].newton_history) - 1
        assert sum(steps[1:]) < sum(len(m.newton_history) - 1 for m in plain[1:])

    def test_xi_maps(self, kdv_stable):
        w = kdv_stable
        fam = continue_family(
            w, [(w.omega + 0.05 * x, Constraint.fixed_A(w.A)) for x in np.linspace(0.0, 1.0, 3)]
        )
        assert all(m.A == w.A for m in fam)

    def test_propagates_failure_with_value(self, kdv_stable):
        w = kdv_stable
        with pytest.raises(ConvergenceError, match=r"member 1 \(omega=-25.0, zero_mean 0.0\)"):
            continue_family(w, omega_targets([w.omega, -25.0]), max_iter=3)

    def test_no_targets_no_members(self, kdv_stable):
        assert continue_family(kdv_stable, []) == ()


class TestParamDerivatives:
    def test_beta_solves_its_equation(self, kdv_stable):
        w = kdv_stable
        lin = assemble(w)
        _, beta = param_derivatives(w, lin)
        res = apply(w, beta) + Field.constant(w.grid, 1.0)
        assert res.sup_norm() < 1e-9

    def test_eta_matches_finite_difference(self, kdv_stable):
        w = kdv_stable
        lin = assemble(w)
        eta, _ = param_derivatives(w, lin)
        h = 1e-4 * abs(w.omega)
        wp = solve_newton(w.profile, w.omega + h, Constraint.fixed_A(w.A),
                          w.symbol, w.nonlinearity, tol=1e-10)
        wm = solve_newton(w.profile, w.omega - h, Constraint.fixed_A(w.A),
                          w.symbol, w.nonlinearity, tol=1e-10)
        fd = (wp.profile.values - wm.profile.values) / (2.0 * h)
        rel = np.abs(fd - eta.values).max() / np.abs(eta.values).max()
        assert rel < 1e-4

    def test_constant_state_analytic_beta(self):
        grid = PeriodicGrid(TWO_PI, 64)
        c, omega = 0.4, 2.0
        w = constant_state(grid, c, omega, DispersionSymbol.second_derivative(TWO_PI),
                           Nonlinearity.kdv())
        lin = assemble(w)
        _, beta = param_derivatives(w, lin)
        expected = -1.0 / (omega - c)  # f'(c) = c for the KdV flux
        assert np.abs(beta.values - expected).max() < 1e-12


class TestRefinement:
    """Construction at growing N: residuals stay within the roundoff bound.

    ILW at N=2048 used to overflow in sinh and return a NaN profile."""

    @pytest.mark.parametrize("N", [512, 1024, 2048])
    @pytest.mark.parametrize(
        "build",
        [
            lambda N: cnoidal_wave(TWO_PI, 0.99, N),
            lambda N: bbm_dnoidal_wave(TWO_PI, 0.99, N),
            lambda N: ilw_wave(TWO_PI, 1.0, 0.97, N),
        ],
        ids=["cnoidal", "bbm_dnoidal", "ilw"],
    )
    def test_closed_forms(self, build, N):
        w = build(N)
        assert w.grid.size == N
        assert np.all(np.isfinite(w.profile.values))
        assert w.residual_norm <= residual_bound(w.symbol, w.profile)

    @pytest.mark.parametrize("N", [1024, 2048])
    def test_gkdv_newton(self, N):
        # the gkdv-p preset's cosine guess for the p=2 flux at A = 0
        grid = PeriodicGrid(TWO_PI, N)
        w = solve_newton(
            Field(grid, 1.4 * np.cos(grid.nodes)), -0.5, Constraint.fixed_A(0.0),
            DispersionSymbol.second_derivative(TWO_PI), Nonlinearity.power_law(2),
        )
        assert len(w.newton_history) < 10
        assert w.residual_norm <= residual_bound(w.symbol, w.profile)
