import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    bordered_solve,
    certified_tangent,
    collocation,
    make_gkdv5_wave,
    omega_targets,
    symmetry_defect,
)
from periwave.config import list_presets, load_config
from periwave.evolution import mass, momentum
from periwave.linop import (
    SpectralReport,
    assemble,
    check_H0,
    constrained_min_rayleigh,
    h1_constants,
)
from periwave.spectral import (
    DispersionSymbol,
    Field,
    PeriodicGrid,
    _band_size,
    _resample,
    _sobolev_weights,
    apply_multiplier,
    derivative,
    derivative_matrix,
    integral,
)
from periwave.stability import (
    INCONCLUSIVE,
    ORBITALLY_STABLE,
    SPECTRALLY_UNSTABLE,
    SurfaceDerivatives,
    _core,
    _hamiltonian_matrix,
    certify,
    curve_criterion,
    decide,
    delta_form,
    find_delta_witness,
    finite_difference_surface_derivatives,
    hamiltonian_spectrum,
    lyapunov_sigma,
    resolvent_consistency,
    surface_derivatives,
)
from periwave.waves import (
    Constraint,
    Nonlinearity,
    SolverError,
    _linear_coefficients,
    constant_state,
    continue_family,
    param_derivatives,
    residual,
    residual_bound,
    speed_gradient_field,
)

TWO_PI = 2.0 * math.pi


def _passing_h0(n_neg=1):
    return SpectralReport(
        n_negative=n_neg, zero_dim=1, kernel_alignment=1.0, h0_pass=(n_neg == 1),
        zero_tol=1e-10,
    )


class TestSurfaceDerivatives:
    def test_constant_state_analytic(self):
        grid = PeriodicGrid(TWO_PI, 64)
        c, omega = 0.4, 2.0
        w = constant_state(grid, c, omega, DispersionSymbol.second_derivative(TWO_PI),
                           Nonlinearity.kdv())
        lin = assemble(w)
        eta, beta = param_derivatives(w, lin)
        sd = surface_derivatives(w, eta, beta)
        gap = omega - c
        L = TWO_PI
        assert sd.M_A == pytest.approx(-L / gap, rel=1e-12)
        assert sd.M_omega == pytest.approx(-c * L / gap, rel=1e-12)
        assert sd.F_A == pytest.approx(-c * L / gap, rel=1e-12)
        assert sd.F_omega == pytest.approx(-c * c * L / gap, rel=1e-12)

    def test_momentum_duality_on_corpus(self, wave_corpus):
        for name, w in wave_corpus.items():
            lin = assemble(w)
            eta, beta = param_derivatives(w, lin)
            sd = surface_derivatives(w, eta, beta)
            assert abs(sd.F_A - sd.M_omega) < 1e-5 * (1 + abs(sd.M_omega)), name

    @pytest.mark.parametrize("N", [None, 1024])
    @pytest.mark.parametrize("preset", list_presets())
    def test_M_omega_equals_F_A_to_roundoff(self, preset_cert, preset, N):
        # int eta = -(eta, L beta) = -(L eta, beta) = int beta g: both are
        # d^2 d / d omega dA of the wave surface's d(omega, A)
        sd = preset_cert(preset, N).surface
        eps = np.finfo(float).eps
        assert abs(sd.M_omega - sd.F_A) <= 16.0 * eps * max(1.0, abs(sd.M_omega))

    def test_resolvent_two_paths(self, kdv_stable):
        w = kdv_stable
        lin = assemble(w)
        # independent finite-difference path
        fd = finite_difference_surface_derivatives(w)
        rep_fd = resolvent_consistency(w, lin, fd)
        assert rep_fd.max_deviation() < 1e-4

    def test_regularized_variant_identity(self, bbm_wave):
        lin = assemble(bbm_wave)
        eta, beta = param_derivatives(bbm_wave, lin)
        sd = surface_derivatives(bbm_wave, eta, beta)
        assert abs(sd.F_A - sd.M_omega) < 1e-5 * (1 + abs(sd.M_omega))
        # independent finite-difference path for the regularized variant
        rep = resolvent_consistency(bbm_wave, lin, finite_difference_surface_derivatives(bbm_wave))
        assert rep.max_deviation() < 1e-4


class TestDeltaForm:
    sd = SurfaceDerivatives(M_omega=1.2, M_A=-0.4, F_omega=2.5, F_A=1.2)

    def test_axis_values(self):
        assert delta_form(self.sd, 1.0, 0.0) == pytest.approx(self.sd.M_A)
        assert delta_form(self.sd, 0.0, 1.0) == pytest.approx(self.sd.F_omega)

    def test_matches_symmetric_matrix_form(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.uniform(-2, 2, size=2)
            quad = (
                x * x * self.sd.M_A + 2 * x * y * self.sd.M_omega + y * y * self.sd.F_omega
            )
            assert delta_form(self.sd, x, y) == pytest.approx(quad, abs=1e-12)

    def test_witness_scaling_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            vals = rng.uniform(-3, 3, size=3)
            sd = SurfaceDerivatives(vals[0], vals[1], vals[2], vals[0])
            w = find_delta_witness(sd)
            if w is None:
                continue
            a, b = w
            for t in (0.5, -2.0, 7.0):
                assert delta_form(sd, t * a, t * b) == pytest.approx(
                    t * t * delta_form(sd, a, b), rel=1e-12
                )
                assert delta_form(sd, t * a, t * b) > 0


class TestFindWitness:
    def test_positive_M_A(self):
        sd = SurfaceDerivatives(M_omega=0.0, M_A=1.0, F_omega=-5.0, F_A=0.0)
        w = find_delta_witness(sd)
        assert w is not None and delta_form(sd, *w) > 0

    def test_indefinite_det(self):
        sd = SurfaceDerivatives(M_omega=3.0, M_A=-1.0, F_omega=-2.0, F_A=3.0)
        assert sd.det_condition() > 0
        w = find_delta_witness(sd)
        assert w is not None and delta_form(sd, *w) > 0

    def test_negative_definite_no_witness(self):
        sd = SurfaceDerivatives(M_omega=0.0, M_A=-1.0, F_omega=-1.0, F_A=0.0)
        assert find_delta_witness(sd) is None


class TestDecide:
    def test_precedence_M_A_first(self):
        sd = SurfaceDerivatives(M_omega=0.0, M_A=0.5, F_omega=2.0, F_A=0.0)
        v = decide(sd, _passing_h0(), True)
        assert v.conclusion == ORBITALLY_STABLE
        assert v.fired_criterion == "M_A"
        assert v.mu_nu == (1.0, 0.0)

    def test_F_omega_second(self):
        sd = SurfaceDerivatives(M_omega=0.0, M_A=-0.5, F_omega=2.0, F_A=0.0)
        v = decide(sd, _passing_h0(), True)
        assert v.fired_criterion == "F_omega"
        assert v.mu_nu == (0.0, 1.0)

    def test_det_condition_third(self):
        sd = SurfaceDerivatives(M_omega=3.0, M_A=-1.0, F_omega=-2.0, F_A=3.0)
        v = decide(sd, _passing_h0(), True)
        assert v.fired_criterion == "det_condition"
        assert v.mu_nu is not None and delta_form(sd, *v.mu_nu) > 0

    def test_prerequisites_force_inconclusive(self):
        sd = SurfaceDerivatives(M_omega=0.0, M_A=1.0, F_omega=1.0, F_A=0.0)
        v = decide(sd, _passing_h0(n_neg=2), True)
        assert v.conclusion == INCONCLUSIVE
        assert "prerequisites" in v.reason

    def test_remark_det_unstable_case(self):
        # both negative with negative determinant condition: Delta is negative
        # definite and n(L) - n_+(S) = 1 - 0 = 1
        sd = SurfaceDerivatives(M_omega=0.0, M_A=-1.0, F_omega=-1.0, F_A=0.0)
        v = decide(sd, _passing_h0(), True)
        assert v.conclusion == SPECTRALLY_UNSTABLE

    def test_delta_witness_fourth(self):
        # M_A, F_omega and the determinant condition all negative, yet the
        # form is positive along (1, 1): the general witness fires
        sd = SurfaceDerivatives(0.0, -1.0, -1.0, 3.0)
        v = decide(sd, _passing_h0(), True)
        assert v.conclusion == ORBITALLY_STABLE
        assert v.fired_criterion == "delta_witness"
        assert np.abs(v.mu_nu) == pytest.approx([math.sqrt(0.5)] * 2, rel=1e-12)
        assert v.mu_nu == v.delta_witness
        assert v.reason is None

    def test_premises_unmet_inconclusive(self):
        # M_A = 0: Delta is negative semidefinite, its top eigenvalue 0
        sd = SurfaceDerivatives(0.0, 0.0, -1.0, 0.0)
        v = decide(sd, _passing_h0(), True)
        assert v.conclusion == INCONCLUSIVE
        assert v.fired_criterion is None
        assert v.mu_nu is None
        assert v.reason == "no stability criterion fired and instability premises unmet"

    def test_remark_det_premises_checked(self):
        # determinant condition positive: not the Remark's case (and (iii) fires)
        sd = SurfaceDerivatives(M_omega=2.0, M_A=-1.0, F_omega=-1.0, F_A=2.0)
        v = decide(sd, _passing_h0(), True)
        assert v.conclusion == ORBITALLY_STABLE
        # n(L) = 2 blocks the Remark even with the sign pattern
        sd2 = SurfaceDerivatives(M_omega=0.0, M_A=-1.0, F_omega=-1.0, F_A=0.0)
        v2 = decide(sd2, _passing_h0(n_neg=2), True)
        assert v2.conclusion == INCONCLUSIVE

    def test_verdict_is_sign_of_top_eigenvalue(self):
        # F_A is drawn apart from M_omega, which no real wave does; the last
        # input has det_condition > 0 but a negative definite Delta
        rng = np.random.default_rng(3)
        cases = [SurfaceDerivatives(*rng.uniform(-3.0, 3.0, size=4)) for _ in range(200)]
        cases.append(SurfaceDerivatives(M_omega=2.0, M_A=-1.0, F_omega=-1.0, F_A=-2.0))
        for sd in cases:
            m = 0.5 * (sd.M_omega + sd.F_A)
            top = np.linalg.eigvalsh([[sd.M_A, m], [m, sd.F_omega]])[-1]
            v = decide(sd, _passing_h0(), True)
            assert (v.conclusion == ORBITALLY_STABLE) == (top > 0.0)
            assert (v.conclusion == SPECTRALLY_UNSTABLE) == (top < 0.0)
            if top > 0.0:
                assert v.mu_nu is not None and delta_form(sd, *v.mu_nu) > 0.0

    def test_residual_above_bound_forces_inconclusive(self):
        sd = SurfaceDerivatives(M_omega=0.0, M_A=1.0, F_omega=1.0, F_A=0.0)
        for res in (2e-12, math.nan):
            v = decide(sd, _passing_h0(), True, (res, 1e-12))
            assert v.conclusion == INCONCLUSIVE and v.mu_nu is None
            assert v.reason == f"wave residual {res:.3e} above the roundoff bound 1.000e-12"
            assert v.criteria["M_A"] == 1.0
        assert decide(sd, _passing_h0(), True, (1e-12, 1e-12)).conclusion == ORBITALLY_STABLE

    def test_determinism(self, kdv_stable):
        lin = assemble(kdv_stable)
        eta, beta = param_derivatives(kdv_stable, lin)
        sd = surface_derivatives(kdv_stable, eta, beta)
        h0 = check_H0(lin)
        a = decide(sd, h0, True)
        b = decide(sd, h0, True)
        assert a == b


class TestVerdictOnWaves:
    def test_stable_cnoidal_fires_F_omega(self, kdv_stable):
        lin = assemble(kdv_stable)
        eta, beta = param_derivatives(kdv_stable, lin)
        sd = surface_derivatives(kdv_stable, eta, beta)
        v = decide(sd, check_H0(lin), h1_constants(lin)[0] > 0.0)
        assert v.conclusion == ORBITALLY_STABLE
        assert v.fired_criterion == "F_omega"

    def test_midk_cnoidal_fires_det_condition(self, kdv_midk):
        c = certify(kdv_midk)
        assert c.verdict.conclusion == ORBITALLY_STABLE
        assert c.verdict.fired_criterion == "det_condition"
        assert c.c3 > 0.0

    def test_ilw_stable(self, ilw_stable):
        c = certify(ilw_stable)
        assert c.verdict.conclusion == ORBITALLY_STABLE

    def test_certify_recomputes_residual(self, kdv_stable):
        # the perturbed profile passes every spectral check, but it no longer
        # solves its equation; the stored residual_norm is not trusted
        phi = kdv_stable.profile
        w = dataclasses.replace(
            kdv_stable, profile=phi.with_values(phi.values + 1e-6 * np.cos(phi.grid.nodes))
        )
        assert w.residual_norm == kdv_stable.residual_norm
        c = certify(w)
        res, bound = residual(w).sup_norm(), residual_bound(w.symbol, w.profile)
        assert res > 100 * bound
        assert c.verdict.conclusion == INCONCLUSIVE
        assert c.verdict.reason == (
            f"wave residual {res:.3e} above the roundoff bound {bound:.3e}"
        )
        assert c.verdict.prerequisites == {"h0_pass": True, "h1_pass": True}

    def test_constant_state_inconclusive(self):
        grid = PeriodicGrid(TWO_PI, 64)
        w = constant_state(grid, 0.1, 1.0, DispersionSymbol.second_derivative(TWO_PI),
                           Nonlinearity.kdv())
        c = certify(w)
        assert c.verdict.conclusion == INCONCLUSIVE
        assert not c.verdict.prerequisites["h0_pass"]

    def test_double_kernel_is_near_singular(self):
        # L = -d^2/dx^2 + 0.1 - 1.1 vanishes at kappa = +-1: a double zero
        # eigenvalue fails H0 and makes the kernel solve near-singular; the
        # near-singular reason wins
        grid = PeriodicGrid(TWO_PI, 64)
        w = constant_state(grid, 1.1, 0.1, DispersionSymbol.second_derivative(TWO_PI),
                           Nonlinearity.kdv())
        c = certify(w)
        v = c.verdict
        assert v.conclusion == INCONCLUSIVE
        assert v.fired_criterion is None
        assert v.mu_nu is None
        assert v.criteria == {}
        assert v.reason == "kernel solve for the surface derivatives is near-singular"
        assert c.surface is None
        assert c.spectral_report.zero_dim == 2
        assert v.prerequisites == {"h0_pass": False, "h1_pass": True}

    def test_h1_checks_symbol_bounds(self, kdv_stable):
        # a lower growth constant above the symbol's true one fails H1
        sym = dataclasses.replace(kdv_stable.symbol, lower_bound=2.0)
        c = certify(dataclasses.replace(kdv_stable, symbol=sym))
        assert c.c1 > 0.0
        assert c.verdict.prerequisites["h1_pass"] is False
        assert c.verdict.conclusion == INCONCLUSIVE
        assert "h1=False" in c.verdict.reason

    def test_near_bifurcation_mode_reported_ambiguous(self):
        # at small modulus the physical near-zero even mode (2.94e-6 at
        # k = 0.05) lies within a decade of the kernel band (3.2e-7 on the
        # K = 16 core): inconclusive, with the mode reported as ambiguous
        from periwave.waves import bbm_dnoidal_wave

        c = certify(bbm_dnoidal_wave(TWO_PI, 0.05, 256))
        assert c.verdict.conclusion == INCONCLUSIVE
        assert c.spectral_report.ambiguous_eigenvalues

    def test_kernel_band_is_the_operators_own(self, kdv_stable):
        # the band is 1e-8 ||L_K|| on the core; no caller can set another
        with pytest.raises(TypeError):
            certify(kdv_stable, zero_tol=1e-7)
        c = certify(kdv_stable)
        assert c.spectral_report.zero_tol == c.operator.zero_tol == pytest.approx(
            1e-8 * np.abs(c.operator.eigenvalues).max(), rel=1e-15)

    @pytest.mark.parametrize("N", [128, 256, 1024])
    def test_near_bifurcation_band_does_not_grow_with_N(self, N):
        # the physical mode 4.73e-5 at k = 0.1 lies above the band of the
        # K = 32 core (1.3e-6) at every N; a band of 1e-8 ||L_N|| would
        # swallow it (2.0e-5 at N = 128, 1.3e-3 at N = 1024)
        from periwave.waves import bbm_dnoidal_wave

        c = certify(bbm_dnoidal_wave(TWO_PI, 0.1, N))
        assert c.verdict.conclusion == ORBITALLY_STABLE
        assert c.spectral_report.zero_dim == 1


def _curve_columns(values, fam):
    """family.csv's xi, omega, A, M and F columns for a continuation."""
    return (values, [m.omega for m in fam], [m.A for m in fam],
            [mass(m.profile) for m in fam], [momentum(m.profile) for m in fam])


class TestCurveCriterion:
    def test_needs_three_members(self, kdv_stable):
        values = [kdv_stable.omega]
        fam = continue_family(kdv_stable, omega_targets(values))
        with pytest.raises(ValueError):
            curve_criterion(*_curve_columns(values, fam))

    def test_cnoidal_branch_negative(self, kdv_stable):
        w = kdv_stable
        values = np.linspace(w.omega, w.omega + 0.2, 5)
        columns = _curve_columns(values, continue_family(w, omega_targets(values)))
        value, _ = curve_criterion(*columns)
        assert value < 0.0
        # on the zero-mean branch it reduces to -dF/domega
        dF = np.gradient(columns[4], values)[1:-1]
        assert value == pytest.approx(-dF.min(), rel=1e-6)

    def test_fixed_A_family_reduces_to_momentum_slope(self, gkdv2_wave):
        # A identically zero: the form is -omega'(xi) dF/dxi = -dF/domega
        w = gkdv2_wave
        values = np.linspace(w.omega, w.omega + 0.06, 5)
        targets = omega_targets(values, Constraint.fixed_A(w.A))
        columns = _curve_columns(values, continue_family(w, targets))
        assert max(map(abs, columns[2])) == 0.0
        dF = np.gradient(columns[4], values)[1:-1]
        assert curve_criterion(*columns)[0] == pytest.approx(-dF.min(), rel=1e-6)


class TestTangentPredictor:
    def test_kdv_cnoidal_sweep_matches_plain_continuation(self, preset_wave):
        sweep = load_config(preset="kdv-cnoidal")["sweep"]
        values = np.linspace(sweep["start"], sweep["stop"], sweep["count"])
        seed = preset_wave("kdv-cnoidal")
        plain = continue_family(seed, omega_targets(values))
        fam = continue_family(seed, omega_targets(values), visit=certified_tangent)

        def steps(family):
            return sum(len(m.newton_history) - 1 for m in family)

        assert steps(fam) < 30 <= steps(plain)
        for a, b in zip(plain, fam):
            bound = max(1e-10, residual_bound(b.symbol, b.profile))
            assert (a.profile - b.profile).sup_norm() <= bound
            assert abs(a.A - b.A) <= bound
            assert certify(a).verdict.conclusion == certify(b).verdict.conclusion

    def test_xi_sweep_takes_the_prescribed_steps(self, kdv_stable):
        # fixed-A xi steps: d_omega and d_A both come from the targets
        w = kdv_stable
        targets = [(w.omega + 0.05 * x, Constraint.fixed_A(w.A + 0.01 * x))
                   for x in np.linspace(0.0, 1.0, 4)]
        plain = continue_family(w, targets)
        fam = continue_family(w, targets, visit=certified_tangent)
        assert [m.A for m in fam] == [m.A for m in plain]
        for a, b in zip(plain, fam):
            assert (a.profile - b.profile).sup_norm() <= 1e-10
        assert len(fam[-1].newton_history) < len(plain[-1].newton_history)

    def test_far_step_is_seeded_by_the_previous_profile(self, preset_wave):
        # a step of 20 in omega is ten times sup|phi| along the tangent: the
        # linear guess would converge to a 5-humped wave on another branch, so
        # the previous profile seeds it and it collapses as without a tangent
        seed = preset_wave("kdv-cnoidal", 128)
        values = [0.46, -19.77]
        errors, converged = [], []
        for tangent in (lambda w: None, certified_tangent):
            members = []
            converged.append(members)

            def visit(w):
                members.append(w)
                return tangent(w)

            with pytest.raises(SolverError, match="collapsed") as info:
                continue_family(seed, omega_targets(values), visit=visit)
            errors.append(info.value)
        assert str(errors[0]) == str(errors[1])
        assert len(converged[1]) == 1
        assert np.array_equal(converged[0][0].profile.values,
                              converged[1][0].profile.values)


class TestHamiltonianSpectrum:
    def test_stable_wave_has_no_right_real_eigenvalues(self, kdv_stable):
        spec = hamiltonian_spectrum(assemble(kdv_stable))
        assert spec.k_r == 0
        assert symmetry_defect(spec) < 1e-6

    def test_unstable_supercritical_wave_shows_k_r(self):
        # large-amplitude gKdV p=4 wave: a genuine real unstable eigenvalue.
        # Two negative directions here, so the Krein-count shortcut does not
        # apply (premises require one) and the verdict correctly stays
        # inconclusive while the spectrum detector reports the instability.
        grid = PeriodicGrid(TWO_PI, 128)
        sym = DispersionSymbol.second_derivative(TWO_PI)
        nl = Nonlinearity.power_law(4)
        from periwave.waves import Constraint, solve_newton
        from periwave.spectral import Field
        import numpy as np

        seed = solve_newton(
            Field(grid, 1.43 * np.cos(grid.nodes)), -0.5, Constraint.fixed_A(0.0),
            sym, nl, tol=1e-10,
        )
        targets = omega_targets(np.linspace(-0.5, 1.0, 8), Constraint.fixed_A(0.0))
        fam = continue_family(seed, targets, tol=1e-10)
        w = fam[-1]
        cert = certify(w)
        assert cert.spectral_report.n_negative == 2
        assert cert.verdict.conclusion == INCONCLUSIVE
        assert cert.k_r >= 1
        spec = hamiltonian_spectrum(assemble(w))
        assert symmetry_defect(spec) < 1e-6

    def test_constant_state_purely_imaginary(self):
        grid = PeriodicGrid(TWO_PI, 64)
        c, omega = 0.3, 1.5
        w = constant_state(grid, c, omega, DispersionSymbol.second_derivative(TWO_PI),
                           Nonlinearity.kdv())
        spec = hamiltonian_spectrum(assemble(w))
        ks = grid.wavenumbers.copy()
        ks[grid.nyquist_index] = 0.0  # derivative zeroes the Nyquist mode
        theta = np.asarray(w.symbol.value(grid.wavenumbers))
        expected = 1j * ks * (theta + omega - c)
        expected = expected[np.argsort(expected.imag)]
        got = spec.eigenvalues[np.argsort(spec.eigenvalues.imag)]
        scale = 1.0 + np.abs(expected).max()
        assert np.abs(got - expected).max() < 1e-10 * scale

    def test_regularized_variant_rejected(self, bbm_wave):
        with pytest.raises(ValueError):
            hamiltonian_spectrum(assemble(bbm_wave))


def real_fourier_basis(K):
    """Rows: the parity blocks' orthonormal basis on K nodes, cos 0,
    sqrt2 cos jx, cos (K/2)x | sqrt2 sin jx, each over sqrt K."""
    x = 2.0 * math.pi * np.arange(K) / K
    j = np.arange(K // 2 + 1)[:, None]
    even = np.cos(j * x) * np.where(j % (K // 2) == 0, 1.0, math.sqrt(2.0))
    odd = np.sin(j[1:K // 2] * x) * math.sqrt(2.0)
    return np.vstack((even, odd)) / math.sqrt(K)


def collocation_k_r(cert):
    """``hamiltonian_spectrum``'s k_r from the eigenvalues of Dx L_K on the core's nodes."""
    ev = np.linalg.eigvals(derivative_matrix(cert.core.grid) @ collocation(cert.core))
    tol = 1e-6 * cert.operator.norm
    return int(np.sum((ev.real > tol) & (np.abs(ev.imag) < tol)))


class TestHamiltonianOnTheBlocks:
    """d/dx L is a signed swap of the rows of L's blocks in the real Fourier basis."""

    @pytest.mark.parametrize("roll", [0, 17])
    @pytest.mark.parametrize("N", [None, 1024])
    @pytest.mark.parametrize("name", list_presets())
    def test_block_matrix_is_Dx_L_in_the_fourier_basis(self, preset_cert, name, N, roll):
        cert = preset_cert(name, N, roll)
        lin = cert.operator
        assert len(lin.blocks) == (1 if roll else 2)
        Q = real_fourier_basis(lin.size)
        assert np.abs(Q @ Q.T - np.eye(lin.size)).max() < 1e-13
        DL = derivative_matrix(lin.grid) @ collocation(cert.core)
        assert np.abs(_hamiltonian_matrix(lin) - Q @ DL @ Q.T).max() <= 1e-12 * np.linalg.norm(DL, 2)

    @pytest.mark.parametrize("N", [None, 1024])
    @pytest.mark.parametrize("name", ["kdv-cnoidal", "gkdv-p", "bo", "ilw"])
    def test_k_r_matches_the_collocation_route_on_presets(self, preset_cert, name, N):
        cert = preset_cert(name, N)
        assert cert.k_r == collocation_k_r(cert)

    @pytest.mark.parametrize("N", [256, 1024])
    @pytest.mark.parametrize("omega", [2.0, 2.3, 2.644, 3.0])
    def test_k_r_matches_the_collocation_route_on_gkdv5(self, omega, N):
        cert = certify(make_gkdv5_wave(N, omega))
        assert len(cert.operator.blocks) == 2
        assert cert.k_r == collocation_k_r(cert)


class TestLyapunovSigma:
    def test_certifies_coercivity(self, kdv_stable):
        lin = assemble(kdv_stable)
        sd = surface_derivatives(kdv_stable, *param_derivatives(kdv_stable, lin))
        sigma, margin = lyapunov_sigma(kdv_stable, lin, sd, 0.0, 1.0)
        assert sigma > 0 and margin > 0

    def test_witness_direction_at_midk(self, kdv_midk):
        c = certify(kdv_midk)
        mu, nu = c.verdict.mu_nu
        lin = assemble(kdv_midk)
        sd = surface_derivatives(kdv_midk, *param_derivatives(kdv_midk, lin))
        sigma, margin = lyapunov_sigma(kdv_midk, lin, sd, mu, nu)
        assert margin > 0

    @pytest.mark.parametrize("name", ["kdv-cnoidal", "bo", "ilw", "regularized-bbm-like"])
    def test_sigma_is_least_power_of_4_above_half_inverse_delta(
        self, preset_wave, monkeypatch, name
    ):
        eigvalsh_calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a: eigvalsh_calls.append(1) or eigvalsh(a)
        )
        w = preset_wave(name)
        c = certify(w)
        mu, nu = c.verdict.mu_nu
        for wave, lin in ((c.core, c.operator), (w, assemble(w))):
            sd = surface_derivatives(wave, *param_derivatives(wave, lin))
            delta = delta_form(sd, mu, nu)
            # the identity behind the closed form: (L^-1 q, q) = -Delta(mu, nu)
            q = Field(wave.grid, mu + nu * speed_gradient_field(wave).values)
            assert integral(q * bordered_solve(wave, q)) == pytest.approx(-delta, rel=1e-8)
            eigvalsh_calls.clear()
            sigma, margin = lyapunov_sigma(wave, lin, sd, mu, nu)
            assert len(eigvalsh_calls) == 1
            assert margin > 0.0
            assert sigma == 4.0 ** round(math.log(sigma, 4.0)) >= 1.0
            assert 2.0 * sigma * delta > 1.0 and (sigma == 1.0 or 0.5 * sigma * delta <= 1.0)

    @pytest.mark.parametrize("name", ["kdv-cnoidal", "bo", "ilw", "regularized-bbm-like"])
    def test_translate_has_the_even_waves_sigma_and_margin(self, preset_cert, name):
        # evolve's call, on the core and its operator: a translate's one block
        # gives the even wave's weight, and its margin to roundoff
        got = []
        for roll in (0, 17):
            c = preset_cert(name, None, roll)
            assert len(c.operator.blocks) == (1 if roll else 2)
            got.append(lyapunov_sigma(c.core, c.operator, c.surface, *c.verdict.mu_nu))
        (sigma, margin), (sigma_moved, margin_moved) = got
        assert sigma_moved == sigma
        assert margin_moved == pytest.approx(margin, rel=1e-12)

    def test_no_positive_delta_raises(self, kdv_stable):
        # mu = 1, nu = 0 gives Delta = M_A < 0: no weight makes the form coercive
        lin = assemble(kdv_stable)
        sd = surface_derivatives(kdv_stable, *param_derivatives(kdv_stable, lin))
        assert sd.M_A < 0.0
        with pytest.raises(SolverError, match="Delta"):
            lyapunov_sigma(kdv_stable, lin, sd, 1.0, 0.0)


class TestCertify:
    def test_full_audit_fields(self, kdv_stable):
        c = certify(kdv_stable)
        d = c.to_dict()
        for key in ("h0", "h1", "surface_derivatives", "c3", "k_r", "conclusion",
                    "fired_criterion", "criteria", "prerequisites"):
            assert key in d
        assert d["criteria"]["F_omega"] > 0
        assert d["k_r"] == 0

    def test_verdict_constraints_rayleigh_positive(self, ilw_stable):
        c = certify(ilw_stable)
        mu, nu = c.verdict.mu_nu
        lin = assemble(ilw_stable)
        q = Field(ilw_stable.grid, mu + nu * ilw_stable.profile.values)
        value = constrained_min_rayleigh(lin, [derivative(ilw_stable.profile), q])
        assert value == pytest.approx(c.c3)
        assert value > 0

    def test_regularized_c3_constrains_momentum_gradient(self, bbm_wave):
        # the regularized momentum gradient is g = M phi + phi, not phi
        c = certify(bbm_wave)
        mu, nu = c.verdict.mu_nu
        assert nu != 0.0
        phi = c.core.profile
        q = Field(phi.grid, mu + nu * (apply_multiplier(c.core.symbol, phi) + phi).values)
        assert c.c3 == constrained_min_rayleigh(c.operator, [derivative(phi), q])


NONE_CALLED = {"hamiltonian_spectrum": 0, "constrained_min_rayleigh": 0, "h1_constants": 0}


class TestCrossChecksOnRead:
    """c2, c3 and k_r are computed when first read, and only then."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from periwave import stability

        counts = dict(NONE_CALLED)
        for name in counts:
            original = getattr(stability, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(stability, name, counted)
        return counts

    def test_computed_once_on_first_read(self, kdv_stable, calls):
        c = certify(kdv_stable)
        assert c.verdict.conclusion == ORBITALLY_STABLE
        assert calls == NONE_CALLED
        first = (c.k_r, c.c3, c.c2)
        assert (c.k_r, c.c3, c.c2) == first
        assert first[0] == 0 and first[1] > 0.0
        assert first[2] == h1_constants(c.operator)[1]
        assert calls == {"hamiltonian_spectrum": 1, "constrained_min_rayleigh": 1,
                         "h1_constants": 1}

    @pytest.mark.parametrize("name", ["kdv-cnoidal", "gkdv-p", "bo", "ilw"])
    def test_sweep_computes_none(self, tmp_path, calls, name):
        from periwave.cli import main

        assert main(["sweep", "--preset", name, "--out", str(tmp_path)]) == 0
        assert calls == NONE_CALLED

    def test_regularized_k_r_is_none_without_a_call(self, bbm_wave, calls):
        c = certify(bbm_wave)
        assert c.verdict.mu_nu is not None
        assert c.k_r is None
        assert calls == NONE_CALLED


PRESETS = ["kdv-cnoidal", "gkdv-p", "bo", "ilw", "regularized-bbm-like"]


def _eager_core(w):
    """``_core``'s rule with H1's c2 computed at every K tried; returns the
    chosen K, the guard and c2."""
    grid, sym, N = w.grid, w.symbol, w.grid.size
    v = w.profile.with_values(w.nonlinearity.fprime(w.profile.values))
    modes, K = _band_size(v)
    coupling = float((np.abs(v.spectrum) / N)[1:].sum())
    a, b = _linear_coefficients(w.variant, w.omega)
    level = a * sym.values_on(grid) + b - v.sup_norm()
    weight = _sobolev_weights(grid, 0.5 * sym.order)
    while True:
        K = min(K, N)
        core = w if K == N else dataclasses.replace(
            w, profile=Field(PeriodicGrid(grid.length, K), _resample(w.profile.values, K)))
        lin = assemble(core)
        c1, c2 = h1_constants(lin)
        lam = np.abs(lin.eigenvalues)
        guard = {"N": N, "K": K, "modes": modes, "gamma": None, "delta": None,
                 "gap": float(lam[lam > lin.zero_tol].min(initial=math.inf))}
        if K == N:
            return K, guard, c2
        dropped = np.abs(grid.wavenumbers) >= K // 2
        gamma = float(level[dropped].min())
        delta = coupling**2 / gamma if gamma > 0.0 else math.inf
        if delta < guard["gap"] and (level - c1 * weight)[dropped].min() > -c2:
            guard.update(gamma=gamma, delta=delta)
            return K, guard, c2
        K *= 2


class TestCore:
    @pytest.mark.parametrize("N", [None, 1024])
    @pytest.mark.parametrize("name", PRESETS)
    def test_lazy_c2_guard_matches_eager_rule(self, preset_wave, name, N):
        w = preset_wave(name, N)
        K, guard, c2 = _eager_core(w)
        core, lin, c1, lazy_guard = _core(w)
        assert lazy_guard == guard and lin.size == core.grid.size == K
        assert c1 == h1_constants(lin)[0]
        assert certify(w).c2 == c2

    def test_guard_computes_c2_only_when_the_dropped_block_is_not_positive(
        self, monkeypatch
    ):
        # L - c1 W is (1 - c1) kappa^2 - 90.5 - c1 for the constant state 91
        # at omega = 0.5, c1 = v1 / 2.  On the K = 32 core's dropped modes
        # |kappa| >= 16 it is positive at v1 = 1; at v1 = 1.8 it is not, but
        # stays above -c2 = -91.4
        from periwave import stability

        seen = []

        def counted(lin):
            seen.append(lin.size)
            return h1_constants(lin)

        monkeypatch.setattr(stability, "h1_constants", counted)
        grid = PeriodicGrid(TWO_PI, 64)
        for v1, needs_c2, c2_exact in ((1.0, False, 91.0), (1.8, True, 91.4)):
            sym = dataclasses.replace(DispersionSymbol.second_derivative(TWO_PI), lower_bound=v1)
            w = constant_state(grid, 91.0, 0.5, sym, Nonlinearity.kdv())
            seen.clear()
            guard = _core(w)[3]
            assert seen == ([32] if needs_c2 else [])
            K, eager_guard, c2 = _eager_core(w)
            assert guard == eager_guard and K == 32
            assert c2 == pytest.approx(c2_exact, rel=1e-12)

    def test_guard_raises_K(self):
        # f'(phi) = 91 has no modes, so the resolution rule gives K = 16, but
        # modes 8..15 of L = kappa^2 + 0.5 - 91 are negative: the guard must
        # keep them, and n_neg counts every kappa^2 < 90.5 of the grid
        grid = PeriodicGrid(TWO_PI, 64)
        w = constant_state(grid, 91.0, 0.5, DispersionSymbol.second_derivative(TWO_PI),
                           Nonlinearity.kdv())
        c = certify(w)
        assert c.operator.size == 32
        assert c.to_dict()["core"]["K"] == 32
        assert c.spectral_report.n_negative == int(np.sum(grid.wavenumbers**2 < 90.5)) == 19

    def test_core_sizes(self, preset_wave):
        c = certify(preset_wave("kdv-cnoidal", 1024))
        assert c.operator.size == 80 and c.core.grid.size == 80
        core = c.to_dict()["core"]
        assert (core["N"], core["K"], core["modes"]) == (1024, 80, 26)
        assert 0.0 < core["delta"] < core["gap"] and core["gamma"] > 0.0
        bo = certify(preset_wave("bo"))
        assert bo.operator.size == bo.wave.grid.size == 128
        assert bo.core is bo.wave

    @pytest.mark.parametrize("name", PRESETS)
    def test_same_results_at_own_N_and_1024(self, preset_wave, name):
        own, big = certify(preset_wave(name)), certify(preset_wave(name, 1024))
        assert big.wave.grid.size == 1024 != own.wave.grid.size
        d_own, d_big = own.to_dict(), big.to_dict()
        for f in ("conclusion", "fired_criterion", "k_r"):
            assert d_own[f] == d_big[f]
        for f in ("n_neg", "zero_dim"):
            assert d_own["h0"][f] == d_big["h0"][f]
        for f in ("M_omega", "M_A", "F_omega", "F_A"):
            # gkdv-p's M_omega = F_A is a roundoff zero, hence the absolute term
            assert getattr(big.surface, f) == pytest.approx(
                getattr(own.surface, f), rel=1e-9, abs=1e-10
            )
        assert (own.c3 is None) == (big.c3 is None)
        if own.c3 is not None:
            assert big.c3 == pytest.approx(own.c3, rel=1e-9)

    @pytest.mark.parametrize("name", PRESETS)
    def test_guard_against_the_operator_at_N(self, preset_wave, name):
        # the guard's claim, checked on the full L_N: the low end of the
        # spectrum moves by less than delta, and n(L) is the core's
        c = certify(preset_wave(name, 1024))
        lam_N = np.linalg.eigvalsh(collocation(c.wave))
        assert np.abs(c.operator.eigenvalues[:6] - lam_N[:6]).max() < c.core_guard["delta"]
        assert int(np.sum(lam_N < -c.spectral_report.zero_tol)) == c.spectral_report.n_negative

    @pytest.mark.parametrize("N", [256, 512, 1024])
    def test_unstable_gkdv5_k_r_independent_of_N(self, N):
        # near det_condition's sign change (omega ~ 2.643) max Re lambda is
        # 0.14; a real-axis threshold of 1e-6 ||L_N|| reached 0.26 at N = 1024
        c = certify(make_gkdv5_wave(N, 2.644))
        assert c.verdict.conclusion == SPECTRALLY_UNSTABLE
        assert c.k_r == 1
