import json
import math
import os
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import apply, bordered_solve, collocation, inner, shift
from periwave.cli import _solve_wave, main
from periwave.config import list_presets, load_config
from periwave.io import save_wave
from periwave import cli, evolution, linop, spectral, stability, waves
from periwave.linop import (
    _complement_basis,
    assemble,
    check_H0,
    constrained_min_rayleigh,
    h1_constants,
)
from periwave.spectral import (
    DispersionSymbol,
    Field,
    PeriodicGrid,
    apply_multiplier,
    derivative,
    random_smooth_field,
    sobolev_weight_matrix,
)
from periwave.stability import certify
from periwave.waves import (
    Nonlinearity,
    cnoidal_wave,
    constant_state,
    param_derivatives,
    speed_gradient_field,
)

TWO_PI = 2.0 * math.pi


def make_constant(c=0.3, omega=2.0, N=64, symbol=None):
    grid = PeriodicGrid(TWO_PI, N)
    symbol = symbol or DispersionSymbol.second_derivative(TWO_PI)
    return constant_state(grid, c, omega, symbol, Nonlinearity.kdv())


def _nodes(roll, cert):
    """A roll of ``roll`` nodes, or of a quarter of the certified wave's grid ("N/4")."""
    return cert.wave.grid.size // 4 if roll == "N/4" else roll


class TestAssemble:
    def test_constant_state_spectrum_is_diagonal(self):
        w = make_constant(c=0.3, omega=2.0)
        lin = assemble(w)
        kappa = np.arange(0, 33)
        theta = np.asarray(w.symbol.value(kappa))
        # kappa = 0 and the Nyquist mode appear once, interior modes twice
        expected = np.sort(np.concatenate([theta, theta[1:-1]]) + 2.0 - 0.3)
        assert np.abs(lin.eigenvalues - expected).max() < 1e-10 * (1 + expected.max())

    def test_symmetry(self, kdv_stable):
        lin, L_K = assemble(kdv_stable), collocation(kdv_stable)
        assert all(np.array_equal(b, b.T) for b in lin.blocks)
        assert np.abs(L_K - L_K.T).max() < 1e-10

    def test_translation_mode_in_kernel(self, kdv_stable):
        lin = assemble(kdv_stable)
        pp = derivative(kdv_stable.profile)
        ratio = apply(kdv_stable, pp).sup_norm() / pp.sup_norm()
        assert ratio < 1e-8

    def test_apply_matches_multiplier_plus_pointwise(self, kdv_stable):
        w = kdv_stable
        u = random_smooth_field(w.grid, seed=21)
        direct = (
            apply_multiplier(w.symbol, u).values
            + w.omega * u.values
            - w.nonlinearity.fprime(w.profile.values) * u.values
        )
        assert np.abs(apply(w, u).values - direct).max() < 1e-10 * (
            1 + np.abs(direct).max()
        )

    def test_self_adjointness(self, kdv_stable):
        w = kdv_stable
        u = random_smooth_field(w.grid, seed=1)
        v = random_smooth_field(w.grid, seed=2)
        a = inner(apply(w, u), v)
        b = inner(u, apply(w, v))
        assert abs(a - b) < 1e-10 * (1 + abs(a))

    def test_regularized_variant_assembly(self, bbm_wave):
        lin = assemble(bbm_wave)
        assert lin.variant == "regularized"
        u = random_smooth_field(lin.grid, seed=3)
        direct = (
            bbm_wave.omega * apply_multiplier(bbm_wave.symbol, u).values
            + (bbm_wave.omega - 1.0) * u.values
            - bbm_wave.profile.values * u.values
        )
        assert np.abs(apply(bbm_wave, u).values - direct).max() < 1e-9

    def test_refinement_stability_of_eigenvalues(self):
        lam = {}
        for N in (128, 256):
            lin = assemble(cnoidal_wave(TWO_PI, 0.9, N))
            lam[N] = lin.eigenvalues[:10]
        assert np.abs(lam[128] - lam[256]).max() < 1e-6


class TestParitySplit:
    """An even wave's L keeps the eigenvalues of its even and odd blocks, and
    its tangent comes from one even-block solve."""

    @pytest.mark.parametrize("overrides", [[], ["grid.N=1024"]])
    @pytest.mark.parametrize("preset", list_presets())
    def test_split_matches_full_eigh(self, preset_cert, preset, overrides):
        cert = preset_cert(preset, 1024 if overrides else None)
        lin, L_K = cert.operator, collocation(cert.core)
        lam, scale = lin.eigenvalues, lin.norm
        assert len(lin.blocks) == 2
        assert np.abs(lam - np.linalg.eigvalsh(L_K)).max() < 1e-12 * scale
        W = sobolev_weight_matrix(lin.grid, 0.5 * lin.symbol.order)
        c2 = max(0.0, -np.linalg.eigvalsh(L_K - cert.c1 * W)[0])
        assert abs(cert.c2 - c2) < 1e-12 * scale
        # the even-block tangent is the bordered solve's, and phi' is odd
        w, v = cert.core, lin.translation_mode
        assert np.abs(v[-np.arange(lin.size) % lin.size] + v).max() < 1e-12
        eta = bordered_solve(w, -speed_gradient_field(w))
        beta = bordered_solve(w, Field.constant(w.grid, -1.0))
        for got, ref in ((cert.eta, eta), (cert.beta, beta)):
            assert (got - ref).sup_norm() < 1e-12 * ref.sup_norm()

    def test_eigenpairs_at_n96_match_eigvalsh(self):
        # 96 is not a power of two: the blocks and the coefficient map of the
        # even-block solve hold at any even N
        w = cnoidal_wave(TWO_PI, 0.9, 96)
        lin, L_K = assemble(w), collocation(w)
        lam, scale = lin.eigenvalues, lin.norm
        assert len(lin.blocks) == 2
        assert np.abs(lam - np.linalg.eigvalsh(L_K)).max() < 1e-12 * scale
        eta, beta = param_derivatives(w, lin)
        for x, b in ((eta, -speed_gradient_field(w)), (beta, Field.constant(w.grid, -1.0))):
            assert np.abs(L_K @ x.values - b.values).max() < 1e-12 * scale * x.sup_norm()
            assert np.abs(x.values[-np.arange(96) % 96] - x.values).max() < 1e-12 * x.sup_norm()

    @pytest.mark.parametrize("N", [None, 1024])
    @pytest.mark.parametrize("preset", list_presets())
    def test_translate_block_is_the_collocation_matrix_in_the_basis(self, preset_cert, preset, N):
        # the one block of a wave that is not even is L_K in the real Fourier
        # basis, Q L_K Q' with Q's columns the coordinates of the unit samples
        cert = preset_cert(preset, N, 17)
        lin, L_K = cert.operator, collocation(cert.core)
        (block,) = lin.blocks
        Q = linop._coordinates(np.eye(lin.size))[0].T
        assert np.abs(block - Q @ L_K @ Q.T).max() <= 1e-13 * lin.norm
        assert np.abs(lin.eigenvalues - np.linalg.eigvalsh(L_K)).max() <= 1e-14 * lin.norm

    @pytest.mark.parametrize("roll", [0, 17])
    @pytest.mark.parametrize("N", [None, 1024])
    @pytest.mark.parametrize("preset", list_presets())
    def test_kernel_alignment_is_a_lower_bound_on_the_cosine(self, preset_cert, preset, N, roll):
        # a cosine, it lies in [0, 1]; a bound, it is at most the cosine
        # between phi' and the kernel eigenvector of the full eigh
        cert = preset_cert(preset, N, roll)
        lin, bound = cert.operator, cert.spectral_report.kernel_alignment
        assert 0.0 <= bound <= 1.0
        assert bound > 1.0 - 1e-6
        lam, vec = np.linalg.eigh(collocation(cert.core))
        kernel = vec[:, np.argmin(np.abs(lam))]
        pp = derivative(cert.core.profile).values
        assert bound <= abs(kernel @ pp) / np.linalg.norm(pp) + 1e-15

    @pytest.mark.parametrize("roll", [17, "N/4"])
    @pytest.mark.parametrize("N", [None, 1024])
    @pytest.mark.parametrize("preset", list_presets())
    def test_translate_takes_the_full_matrix_path(self, preset_cert, preset, N, roll):
        # N/4 nodes make gkdv-p's phi odd (phi(x + L/2) = -phi(x)) and its f' = phi^2
        # even: a wave that is not even takes one block even when f' reflects
        even = preset_cert(preset, N)
        moved = preset_cert(preset, N, _nodes(roll, even))
        assert len(even.operator.blocks) == 2
        assert len(moved.operator.blocks) == 1
        assert moved.verdict.conclusion == even.verdict.conclusion
        for key in ("n_neg", "zero_dim"):
            assert moved.spectral_report.to_dict()[key] == even.spectral_report.to_dict()[key]
        assert moved.k_r == even.k_r
        assert moved.core_guard["K"] == even.core_guard["K"]
        for key, x in asdict(even.surface).items():
            assert abs(getattr(moved.surface, key) - x) <= 1e-11 * max(1.0, abs(x)), key

    @pytest.mark.parametrize("roll", [17, "N/4"])
    @pytest.mark.parametrize("N", [None, 1024])
    @pytest.mark.parametrize("preset", list_presets())
    def test_translate_tangent_is_the_even_waves_translated(self, preset_cert, preset, N, roll):
        # the one block's bordered solve and the even block's plain solve
        # agree: the translate's eta and beta, moved back, are the even wave's
        even = preset_cert(preset, N)
        nodes = _nodes(roll, even)
        moved = preset_cert(preset, N, nodes)
        r = nodes * moved.wave.grid.spacing
        for got, ref in ((moved.eta, even.eta), (moved.beta, even.beta)):
            assert np.abs(shift(got, r).values - ref.values).max() <= 1e-12 * ref.sup_norm()

    @pytest.mark.parametrize("preset", ["bo", "kdv-cnoidal"])
    def test_translated_wave_certifies_as_the_wave(self, tmp_path, preset):
        # a translate is not even about x = 0, so its L takes one full eigh
        w = _solve_wave(load_config(preset=preset))
        moved = replace(w, profile=Field(w.grid, np.roll(w.profile.values, 17)))
        even, translate = certify(w), certify(moved)
        assert len(even.operator.blocks) == 2
        assert len(translate.operator.blocks) == 1
        base, out = str(tmp_path / "moved"), str(tmp_path / "run")
        save_wave(moved, base)
        assert main(["certify", "--wave", base, "--preset", preset, "--out", out]) == 0
        with open(os.path.join(out, "certify.json")) as handle:
            from_cli = json.load(handle)
        for report in (translate.to_dict(), from_cli):
            assert report["conclusion"] == even.verdict.conclusion == "orbitally_stable"
            assert report["h0"]["n_neg"] == even.spectral_report.n_negative == 1
            assert report["h0"]["zero_dim"] == even.spectral_report.zero_dim == 1
            assert report["h0"]["kernel_alignment"] > 1.0 - 1e-6


NO_BUILDS = {"multiplier_matrix": 0, "derivative_matrix": 0, "sobolev_weight_matrix": 0}


@pytest.fixture
def builder_calls(monkeypatch):
    """Calls of the collocation builders, counted in every module that binds them."""
    calls, real = dict(NO_BUILDS), {name: getattr(spectral, name) for name in NO_BUILDS}
    for module in (spectral, linop, stability, waves, evolution, cli):
        for name in calls:
            if hasattr(module, name):
                def counted(*args, _name=name):
                    calls[_name] += 1
                    return real[_name](*args)

                monkeypatch.setattr(module, name, counted)
    return calls


def dense_c3(w, constraints):
    """c3's least Rayleigh quotient taken on the wave's whole collocation matrix."""
    B = _complement_basis(np.stack([c.values for c in constraints], axis=1))
    return float(np.linalg.eigvalsh(B.T @ collocation(w) @ B)[0])


class TestBlockRoute:
    """A wave is certified, evolved and solved on L's blocks in the real Fourier
    basis alone: no route builds L_K, Dx or the H^s weight's circulant."""

    @pytest.mark.parametrize("N", [None, 1024])
    @pytest.mark.parametrize("preset", list_presets())
    def test_certify_builds_no_collocation_matrix(self, preset_wave, builder_calls, preset, N):
        cert = certify(preset_wave(preset, N))
        cert.to_dict()
        assert len(cert.operator.blocks) == 2
        assert builder_calls == NO_BUILDS

    @pytest.mark.parametrize("preset", ["kdv-cnoidal", "gkdv-p", "bo", "ilw"])
    def test_sweep_builds_no_collocation_matrix(self, tmp_path, builder_calls, preset):
        assert main(["sweep", "--preset", preset, "--out", str(tmp_path)]) == 0
        assert builder_calls == NO_BUILDS

    def test_translate_builds_no_collocation_matrix(self, preset_wave, builder_calls):
        w = preset_wave("bo")
        cert = certify(replace(w, profile=Field(w.grid, np.roll(w.profile.values, 17))))
        cert.to_dict()
        assert len(cert.operator.blocks) == 1
        assert builder_calls == NO_BUILDS

    @pytest.mark.parametrize("roll", [0, 17])
    def test_evolve_builds_no_collocation_matrix(self, tmp_path, preset_wave, builder_calls, roll):
        # evolve certifies the wave and takes lyapunov_sigma on its core
        w = preset_wave("kdv-cnoidal")
        base = str(tmp_path / "wave")
        save_wave(replace(w, profile=Field(w.grid, np.roll(w.profile.values, roll))), base)
        argv = ["evolve", "--wave", base, "--preset", "kdv-cnoidal",
                "--override", "evolve.T=0.2", "--out", str(tmp_path / "run")]
        assert main(argv) == 0
        with open(tmp_path / "run" / "evolve_summary.json") as handle:
            assert json.load(handle)["lyapunov"]["sigma"] >= 1.0
        assert builder_calls == NO_BUILDS

    @pytest.mark.parametrize("roll", [0, 17])
    def test_param_derivatives_builds_no_collocation_matrix(self, preset_cert, builder_calls,
                                                            roll):
        cert = preset_cert("kdv-cnoidal", None, roll)
        assert len(cert.operator.blocks) == (1 if roll else 2)
        _, beta = param_derivatives(cert.core, cert.operator)
        assert (apply(cert.core, beta) + 1.0).sup_norm() < 1e-9
        assert builder_calls == NO_BUILDS

    @pytest.mark.parametrize("preset", list_presets())
    def test_c3_agrees_at_own_N_and_1024(self, preset_cert, preset):
        own, big = preset_cert(preset).c3, preset_cert(preset, 1024).c3
        assert (own is None) == (big is None)
        if own is not None:
            assert abs(big - own) <= 5e-14 * abs(own)

    @pytest.mark.parametrize("N", [None, 1024])
    @pytest.mark.parametrize("preset", list_presets())
    def test_c3_matches_the_whole_matrix(self, preset_cert, preset, N):
        cert = preset_cert(preset, N)
        if cert.c3 is None:
            return
        mu, nu = cert.verdict.mu_nu
        q = Field(cert.core.grid, mu + nu * speed_gradient_field(cert.core).values)
        dense = dense_c3(cert.core, [derivative(cert.core.profile), q])
        # both are eigenvalues computed to roundoff, eps ||L|| times a modest factor
        assert abs(cert.c3 - dense) <= 1e-14 * cert.operator.norm

    def test_single_and_mixed_parity_constraints(self, kdv_stable):
        w = kdv_stable
        lin = assemble(w)
        pp, one = derivative(w.profile), Field.constant(w.grid, 1.0)
        mixed = w.profile.with_values(np.roll(w.profile.values, 5))
        for constraints in ([pp], [one, w.profile], [pp, one, w.profile], [pp, mixed]):
            got = constrained_min_rayleigh(lin, constraints)
            assert abs(got - dense_c3(w, constraints)) <= 1e-11 * lin.norm


class TestCheckH0:
    def test_stable_cnoidal_passes(self, kdv_stable):
        lin = assemble(kdv_stable)
        rep = check_H0(lin)
        assert rep.h0_pass
        assert rep.n_negative == 1
        assert rep.zero_dim == 1
        assert rep.kernel_alignment > 1.0 - 1e-6

    def test_midk_cnoidal_passes(self, kdv_midk):
        # holds along the whole zero-mean branch, including omega < 0
        rep = check_H0(assemble(kdv_midk))
        assert rep.h0_pass and rep.n_negative == 1

    def test_sign_changing_cn_wave_fails(self, gkdv2_wave):
        # the cn-type branch carries two genuine negative directions
        rep = check_H0(assemble(gkdv2_wave))
        assert rep.n_negative == 2
        assert rep.zero_dim == 1
        assert not rep.h0_pass

    def test_positive_constant_state_fails(self):
        w = make_constant(c=0.1, omega=1.0)
        rep = check_H0(assemble(w))
        assert rep.n_negative == 0
        assert not rep.h0_pass
        assert rep.kernel_alignment == 0.0  # phi' vanishes identically

    def test_ambiguous_band_reported(self):
        # place an eigenvalue between zero_tol and 10 zero_tol
        w = make_constant(c=0.0, omega=5e-5, N=64)
        lin = assemble(w)
        rep = check_H0(lin)
        assert rep.ambiguous_eigenvalues


class TestH1Constants:
    def test_positive_constant_state_needs_no_shift(self):
        w = make_constant(c=0.0, omega=1.0)
        c1, c2 = h1_constants(assemble(w))
        assert c1 == pytest.approx(0.5)
        assert c2 == 0.0

    def test_cnoidal_constants_certify_inequality(self, kdv_stable):
        lin = assemble(kdv_stable)
        c1, c2 = h1_constants(lin)
        assert c1 > 0 and c2 >= 0
        from periwave.spectral import sobolev_weight_matrix

        W = sobolev_weight_matrix(lin.grid, 0.5 * lin.symbol.order)
        lam_min = np.linalg.eigvalsh(collocation(kdv_stable) - c1 * W + c2 * np.eye(lin.size))[0]
        assert lam_min > -1e-9 * (1 + abs(c2))

    def test_shift_moves_c2_by_at_most_shift(self, kdv_stable):
        import dataclasses

        lin = assemble(kdv_stable)
        _, c2 = h1_constants(lin)
        shift = 0.7
        # the blocks define the operator: its eigenvalues follow them
        shifted = dataclasses.replace(
            lin, blocks=tuple(b - shift * np.eye(len(b)) for b in lin.blocks)
        )
        assert np.abs(shifted.eigenvalues - (lin.eigenvalues - shift)).max() < 1e-12 * lin.norm
        _, c2_shifted = h1_constants(shifted)
        assert c2_shifted <= c2 + shift + 1e-10


class TestConstrainedRayleigh:
    def test_no_constraints_gives_least_eigenvalue(self, kdv_stable):
        lin = assemble(kdv_stable)
        value = constrained_min_rayleigh(lin, [])
        assert value == pytest.approx(lin.eigenvalues[0], abs=1e-12)

    def test_constant_state_mean_free_minimum(self):
        w = make_constant(c=0.3, omega=2.0)
        lin = assemble(w)
        value = constrained_min_rayleigh(lin, [Field.constant(w.grid, 1.0)])
        expected = float(w.symbol.value(1)) + 2.0 - 0.3
        assert value == pytest.approx(expected, rel=1e-10)

    def test_rank_deficient_constraints(self, kdv_stable):
        lin = assemble(kdv_stable)
        u = Field.constant(lin.grid, 1.0)
        with pytest.raises(ValueError):
            constrained_min_rayleigh(lin, [u, u * 2.0])

    def test_verdict_constraints_positive_at_stable_wave(self, kdv_stable):
        # (mu, nu) = (0, 1): constraints {phi', phi}
        w = kdv_stable
        lin = assemble(w)
        value = constrained_min_rayleigh(lin, [derivative(w.profile), w.profile])
        assert value > 0.0


class TestTangentSolve:
    def test_beta_matches_the_bordered_reference(self, kdv_stable):
        w = kdv_stable
        lin = assemble(w)
        _, beta = param_derivatives(w, lin)
        x = bordered_solve(w, Field.constant(w.grid, -1.0))
        assert (x - beta).sup_norm() < 1e-12

    def test_constant_state_diagonal_solve(self):
        # L = M + omega - c annihilates no constant: eta = -c/(omega - c), beta = -1/(omega - c)
        w = make_constant(c=0.4, omega=2.0)
        eta, beta = param_derivatives(w, assemble(w))
        assert np.abs(eta.values + 0.4 / (2.0 - 0.4)).max() < 1e-12
        assert np.abs(beta.values + 1.0 / (2.0 - 0.4)).max() < 1e-12

    def test_solution_recovers_projected_rhs(self, kdv_stable):
        # a translate's tangent solves its bordered system: L eta = -g, L beta = -1
        w = kdv_stable
        w = replace(w, profile=Field(w.grid, np.roll(w.profile.values, 17)))
        lin = assemble(w)
        assert len(lin.blocks) == 1
        eta, beta = param_derivatives(w, lin)
        for x, b in ((eta, -speed_gradient_field(w)), (beta, Field.constant(w.grid, -1.0))):
            assert (apply(w, x) - b).sup_norm() < 1e-9 * max(1.0, b.sup_norm())
