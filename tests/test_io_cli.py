import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from periwave.cli import main
from periwave.config import ConfigError, list_presets, load_config, symbol_from_config
from periwave.io import (
    canonical_json,
    config_hash,
    format_float,
    load_wave,
    save_field_csv,
    save_wave,
)
from periwave.spectral import PeriodicGrid, mean_value, random_smooth_field
from periwave.waves import residual_bound

TWO_PI = 2.0 * math.pi


class TestSerialization:
    def test_float_formatting_roundtrip(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-1e6, 1e6, size=50):
            assert float(format_float(x)) == x

    def test_canonical_json_is_sorted_and_deterministic(self):
        obj = {"b": 1.5, "a": [1, 2.0, None, True], "c": {"z": "s", "y": float("nan")}}
        text = canonical_json(obj)
        assert text == canonical_json(obj)
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')

    def test_config_hash_stable(self):
        cfg = {"grid": {"L": TWO_PI, "N": 64}}
        assert config_hash(cfg) == config_hash(json.loads(json.dumps(cfg)))

    def test_field_csv_roundtrip(self, tmp_path):
        grid = PeriodicGrid(TWO_PI, 64)
        u = random_smooth_field(grid, seed=1)
        path = str(tmp_path / "field.csv")
        save_field_csv(u, path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], grid.nodes)
        assert np.array_equal(data[:, 1], u.values)

    def test_wave_roundtrip(self, tmp_path, kdv_stable, ilw_stable, bbm_wave):
        for w in (kdv_stable, ilw_stable, bbm_wave):
            base = str(tmp_path / w.symbol.kind)
            save_wave(w, base)
            back = load_wave(base)
            assert np.array_equal(back.profile.values, w.profile.values)
            assert back.omega == w.omega
            assert back.A == w.A
            assert back.symbol.kind == w.symbol.kind
            assert back.variant == w.variant
            assert back.nonlinearity.name == w.nonlinearity.name


class TestConfig:
    def test_presets_exist(self):
        assert set(list_presets()) >= {
            "kdv-cnoidal",
            "gkdv-p",
            "bo",
            "ilw",
            "regularized-bbm-like",
        }

    @pytest.mark.parametrize("name", ["kdv-cnoidal", "gkdv-p", "bo", "ilw", "regularized-bbm-like"])
    def test_presets_validate(self, name):
        cfg = load_config(preset=name)
        assert cfg["grid"]["N"] % 2 == 0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_config(preset="nope")

    def test_schema_rejects_odd_N(self):
        with pytest.raises(ConfigError, match="grid"):
            load_config(preset="kdv-cnoidal", overrides=["grid.N=255"])

    # (override, path of the violation, or None when the config is accepted);
    # each case decides the same way on every preset
    ACCEPT_REJECT = [
        ("grid.N=255", "grid/N"),
        ("grid.N=256.0", None),
        ("grid.N=8", "grid/N"),
        ("grid.N=true", "grid/N"),
        ("grid.L=0", "grid/L"),
        ("grid.L=-1", "grid/L"),
        ("grid.L=six", "grid/L"),
        ("grid.L=3", None),
        ("equation.symbol.kind=airy", "equation/symbol/kind"),
        ("equation.symbol.delta=0", "equation/symbol/delta"),
        ("equation.symbol.m=1.5", None),
        ('equation.nonlinearity={"kind":"power","p":0}', "equation/nonlinearity/p"),
        ('equation.nonlinearity={"kind":"power","p":1.5}', "equation/nonlinearity/p"),
        ('equation.nonlinearity={"kind":"power","p":2.0}', None),
        ('equation.nonlinearity={"kind":"cubic"}', "equation/nonlinearity/kind"),
        ('equation.nonlinearity={"p":2}', "equation/nonlinearity"),
        ("equation.nonlinearity.c=x", "equation/nonlinearity/c"),
        ("equation.variant=modified", "equation/variant"),
        ("equation.variant=regularized", None),
        ("solve.tol=0", "solve/tol"),
        ("solve.tol=1e-8", None),
        ("solve.max_iter=0", "solve/max_iter"),
        ("solve.max_iter=3.0", None),
        ('solve.guess={"type":"cnoidal","k":0}', "solve/guess/k"),
        ('solve.guess={"type":"cnoidal","k":1}', "solve/guess/k"),
        ('solve.guess={"type":"cnoidal","k":0.5}', None),
        ('solve.guess={"type":"cosine","newton_polish":"yes"}', "solve/guess/newton_polish"),
        ('solve.guess={"type":"cosine","mode":0}', "solve/guess/mode"),
        ('solve.guess={"k":0.5}', "solve/guess"),
        ('solve.guess={"type":"sech"}', "solve/guess/type"),
        ("solve.guess=null", "solve/guess"),
        ('solve.constraint={"mode":"fixed_A","value":0.5}', None),
        ('solve.constraint={"mode":"fixed_omega"}', "solve/constraint/mode"),
        ('solve.constraint={"value":0.5}', "solve/constraint"),
        ("solve.omega=true", "solve/omega"),
        ("solve.omega=2", None),
        ('sweep={"parameter":"omega","start":0,"stop":1,"count":0}', "sweep/count"),
        ('sweep={"parameter":"xi","start":0,"stop":1,"count":3,'
         '"omega_coeffs":[1,2.5],"A_coeffs":[0]}', None),
        ('sweep={"parameter":"omega","start":0}', "sweep"),
        ('sweep={"parameter":"xi","start":0,"stop":1,"count":3}', "sweep"),
        ('sweep={"parameter":"xi","start":0,"stop":1,"count":3,'
         '"omega_coeffs":[],"A_coeffs":[0]}', "sweep"),
        ('sweep={"parameter":"k","start":0,"stop":1,"count":3}', "sweep/parameter"),
        ('sweep={"parameter":"xi","start":0,"stop":1,"count":3,"A_coeffs":[0,"a"]}',
         "sweep/A_coeffs/1"),
        ('sweep={"parameter":"xi","start":0,"stop":1,"count":3,"A_coeffs":2}',
         "sweep/A_coeffs"),
        ("evolve.amplitudes=[0.001,-0.01]", "evolve/amplitudes/1"),
        ("evolve.amplitudes=0.001", "evolve/amplitudes"),
        ("evolve.amplitudes=[0,0.001]", None),
        ("evolve.seed=-1", "evolve/seed"),
        ("evolve.integrator=rk4", "evolve/integrator"),
        ("evolve.integrator=implicit_midpoint", None),
        ("evolve.sample_interval=null", "evolve/sample_interval"),
        ("evolve.dealias=1", "evolve/dealias"),
        ("evolve.dt=0", "evolve/dt"),
        ("evolve.dt=50", "evolve/dt"),
        ("evolve.T=0.0001", "evolve/dt"),
        ("evolve.dt=0.0001", None),
        ("output.directory=5", "output/directory"),
        ("output.directory=runs", None),
        ("colour=red", "<root>"),
        ("grid.spacing=0.1", "grid"),
        ("evolve.steps=10", "evolve"),
        ("grid=5", "grid"),
    ]

    @pytest.mark.parametrize("preset", ["kdv-cnoidal", "gkdv-p", "bo", "ilw",
                                        "regularized-bbm-like"])
    @pytest.mark.parametrize("override, path", ACCEPT_REJECT)
    def test_accept_reject_table(self, preset, override, path):
        if path is None:
            load_config(preset=preset, overrides=[override])
        else:
            with pytest.raises(ConfigError,
                               match=f"^config schema violation at {path}: "):
                load_config(preset=preset, overrides=[override])

    @pytest.mark.parametrize("override, path", [
        ("grid.L=NaN", "grid/L"),
        ("evolve.T=Infinity", "evolve/T"),
        ("solve.omega=-Infinity", "solve/omega"),
        ("solve.tol=NaN", "solve/tol"),
        ('solve.constraint={"mode":"fixed_A","value":NaN}', "solve/constraint/value"),
        ("evolve.amplitudes=[0.001,Infinity]", "evolve/amplitudes/1"),
        ('sweep={"parameter":"omega","start":0,"stop":NaN,"count":3}', "sweep/stop"),
        ("grid.L=1" + "0" * 400, "grid/L"),
    ])
    def test_non_finite_numbers_rejected(self, override, path):
        with pytest.raises(ConfigError, match=f"^config schema violation at {path}: "):
            load_config(preset="kdv-cnoidal", overrides=[override])

    def test_cli_imports_only_numpy(self):
        # the package and its CLI need nothing beyond the standard library and numpy
        code = (
            "import sys; before = set(sys.modules); import periwave.cli; "
            "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            sys.modules["periwave.cli"].__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert set(out) - set(sys.stdlib_module_names) - {"numpy", "periwave"} == set()

    def test_override_parsing(self):
        cfg = load_config(preset="kdv-cnoidal", overrides=["evolve.T=5.0", "solve.guess.k=0.5"])
        assert cfg["evolve"]["T"] == 5.0
        assert cfg["solve"]["guess"]["k"] == 0.5

    def test_bad_override(self):
        with pytest.raises(ConfigError):
            load_config(preset="kdv-cnoidal", overrides=["no-equals-sign"])

    @pytest.mark.parametrize("kind, key", [("ilw", "delta"), ("power", "m")])
    def test_symbol_requires_its_parameter(self, kind, key):
        cfg = load_config(preset="kdv-cnoidal", overrides=[f"equation.symbol.kind={kind}"])
        with pytest.raises(ConfigError, match=f"{kind} symbol requires equation.symbol.{key}"):
            symbol_from_config(cfg)


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_requires_some_input(self, capsys):
        assert self.run("solve") == 1

    def test_wave_alone_needs_config(self, tmp_path, kdv_stable, capsys):
        base = str(tmp_path / "w")
        save_wave(kdv_stable, base)
        assert self.run("certify", "--wave", base, "--out", str(tmp_path / "run")) == 1
        assert "need --config or --preset" in capsys.readouterr().err

    def test_solve_from_config_file(self, tmp_path):
        cfg = {
            "equation": {
                "symbol": {"kind": "second_derivative"},
                "nonlinearity": {"kind": "power", "p": 1, "c": 1.0},
            },
            "grid": {"L": TWO_PI, "N": 128},
            "solve": {"guess": {"type": "cnoidal", "k": 0.9, "newton_polish": True}},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "out")
        assert self.run("solve", "--config", str(path), "--out", out) == 0
        assert load_wave(os.path.join(out, "wave")).residual_norm < 1e-9

    def test_missing_config_file(self, tmp_path):
        assert self.run("solve", "--config", str(tmp_path / "nope.json")) == 1

    def test_config_file_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="is not a JSON object"):
            load_config(str(path))
        assert self.run("solve", "--config", str(path), "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error: config file ") and "\n" not in err

    def test_solve_writes_wave_and_report(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert self.run("solve", "--preset", "kdv-cnoidal", "--out", out) == 0
        report = json.loads(open(os.path.join(out, "solve_report.json")).read())
        assert report["residual_norm"] < 1e-9
        assert "config_sha256" in report and "tool_version" in report
        w = load_wave(os.path.join(out, "wave"))
        assert w.residual_norm < 1e-9

    def test_solve_invalid_config_exit_1(self, tmp_path):
        assert self.run(
            "solve", "--preset", "kdv-cnoidal", "--override", "grid.N=255",
            "--out", str(tmp_path / "x"),
        ) == 1

    def test_solve_failure_exit_2(self, tmp_path):
        code = self.run(
            "solve", "--preset", "bo", "--override", "solve.max_iter=1",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2

    def test_certify_stable_preset(self, tmp_path):
        out = str(tmp_path / "run")
        assert self.run("certify", "--preset", "kdv-cnoidal", "--out", out) == 0
        cert = json.loads(open(os.path.join(out, "certify.json")).read())
        assert cert["conclusion"] == "orbitally_stable"
        assert cert["fired_criterion"] == "F_omega"
        assert cert["k_r"] == 0
        assert cert["c3"] > 0.0
        assert cert["mu_nu"] == [0.0, 1.0]

    def test_certify_ilw_preset(self, tmp_path):
        out = str(tmp_path / "run")
        assert self.run("certify", "--preset", "ilw", "--out", out) == 0
        cert = json.loads(open(os.path.join(out, "certify.json")).read())
        assert cert["conclusion"] == "orbitally_stable"
        spectrum = np.loadtxt(os.path.join(out, "spectrum.csv"), delimiter=",", skiprows=1)
        assert spectrum.shape == (256, 2)
        assert np.all(np.diff(spectrum[:, 1]) >= 0)

    def test_certify_reports_its_core(self, tmp_path):
        out = str(tmp_path / "run")
        assert self.run("certify", "--preset", "kdv-cnoidal", "--out", out) == 0
        cert = json.loads(open(os.path.join(out, "certify.json")).read())
        core = cert["core"]
        assert (core["N"], core["K"], core["modes"]) == (256, 128, 26)
        assert core["gamma"] > 0.0 and 0.0 < core["delta"] < core["gap"]
        spectrum = np.loadtxt(os.path.join(out, "spectrum.csv"), delimiter=",", skiprows=1)
        assert spectrum.shape == (128, 2)
        lam = np.abs(spectrum[:, 1])
        assert core["gap"] == lam[lam > cert["h0"]["zero_tol"]].min()

    @pytest.mark.parametrize(
        "preset", ["kdv-cnoidal", "gkdv-p", "bo", "ilw", "regularized-bbm-like"]
    )
    def test_every_preset_solves(self, tmp_path, preset):
        out = str(tmp_path / preset)
        assert self.run("solve", "--preset", preset, "--out", out) == 0
        w = load_wave(os.path.join(out, "wave"))
        assert w.residual_norm < 1e-8

    @pytest.mark.parametrize(
        "preset,expected_verdict",
        [("gkdv-p", "inconclusive"), ("bo", "orbitally_stable"), ("ilw", "orbitally_stable")],
    )
    def test_other_preset_sweeps(self, tmp_path, preset, expected_verdict):
        # gkdv-p rides the two-negative-direction cn branch: the framework is
        # silent there, but the curve form stays negative for all presets
        out = str(tmp_path / preset)
        code = self.run("sweep", "--preset", preset, "--out", out,
                        "--override", "sweep.count=3")
        assert code == 0
        sweep = json.loads(open(os.path.join(out, "sweep.json")).read())
        assert sweep["curve_criterion"] < 0
        assert all(m["verdict"] == expected_verdict for m in sweep["members"])

    def test_evolve_implicit_midpoint(self, tmp_path):
        out = str(tmp_path / "run")
        code = self.run(
            "evolve", "--preset", "kdv-cnoidal", "--out", out,
            "--override", "grid.N=128", "--override", "solve.guess.k=0.9",
            "--override", "evolve.integrator=implicit_midpoint",
            "--override", "evolve.dt=0.0005", "--override", "evolve.T=0.2",
            "--override", "evolve.sample_interval=0.1",
            "--override", "evolve.amplitudes=[0.001]",
        )
        assert code == 0
        summary = json.loads(open(os.path.join(out, "evolve_summary.json")).read())
        assert summary["traces"][0]["drift_F"] < 1e-7

    def test_sweep_honors_thread_cap(self, tmp_path):
        out = str(tmp_path / "run")
        code = self.run(
            "sweep", "--preset", "kdv-cnoidal", "--out", out,
            "--override", "sweep.count=3", "--override", "grid.N=128",
            "--override", "sweep.start=0.46", "--override", "sweep.stop=0.6",
        )
        assert code == 0
        sweep = json.loads(open(os.path.join(out, "sweep.json")).read())
        assert [m["verdict"] for m in sweep["members"]] == ["orbitally_stable"] * 3

    def test_certify_ilw_solve_example_profile_even(self, tmp_path):
        # the documented k=0.5 construction: even profile, certifiable too
        out = str(tmp_path / "run")
        assert self.run(
            "solve", "--preset", "ilw", "--override", "solve.guess.k=0.5", "--out", out
        ) == 0
        w = load_wave(os.path.join(out, "wave"))
        vals = w.profile.values
        assert np.abs(vals[1:] - vals[:0:-1]).max() < 1e-12

    def test_certify_inconclusive_exit_3(self, tmp_path, gkdv2_wave):
        base = str(tmp_path / "cnwave")
        save_wave(gkdv2_wave, base)
        out = str(tmp_path / "run")
        code = self.run("certify", "--wave", base, "--preset", "gkdv-p", "--out", out)
        assert code == 3
        cert = json.loads(open(os.path.join(out, "certify.json")).read())
        assert cert["conclusion"] == "inconclusive"

    def test_certify_constant_state_exit_3(self, tmp_path):
        from periwave.spectral import DispersionSymbol
        from periwave.waves import Nonlinearity, constant_state

        grid = PeriodicGrid(TWO_PI, 64)
        w = constant_state(grid, 0.2, 1.5, DispersionSymbol.second_derivative(TWO_PI),
                           Nonlinearity.kdv())
        base = str(tmp_path / "flat")
        save_wave(w, base)
        out = str(tmp_path / "run")
        code = self.run(
            "certify", "--wave", base, "--preset", "kdv-cnoidal",
            "--override", "grid.N=64", "--out", out,
        )
        assert code == 3
        cert = json.loads(open(os.path.join(out, "certify.json")).read())
        assert cert["conclusion"] == "inconclusive"
        assert cert["h0"]["h0_pass"] is False

    def test_certify_recomputes_saved_residual(self, tmp_path, capsys):
        # the sidecar claims residual 0 for a shifted omega: the recomputed
        # residual refuses the wave instead of certifying it
        src = str(tmp_path / "src")
        assert self.run("solve", "--preset", "kdv-cnoidal", "--out", src) == 0
        base = os.path.join(src, "wave")
        meta = json.loads(open(base + ".json").read())
        meta["omega"] += 0.5
        meta["residual_norm"] = 0.0
        open(base + ".json", "w").write(json.dumps(meta))
        assert load_wave(base).residual_norm > 0.1
        out = str(tmp_path / "run")
        capsys.readouterr()
        code = self.run("certify", "--wave", base, "--preset", "kdv-cnoidal", "--out", out)
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert "recomputed residual 4.751e+00 above the roundoff bound" in err
        assert "\n" not in err
        assert not os.path.exists(os.path.join(out, "certify.json"))

    @pytest.mark.parametrize(
        "preset,overrides",
        [
            pytest.param(p, [], id=p)
            for p in ["kdv-cnoidal", "gkdv-p", "bo", "ilw", "regularized-bbm-like"]
        ]
        # small modulus: dn^2 - E/K samples once cancelled digits, and --wave
        # refused the wave the direct path accepted
        + [pytest.param("kdv-cnoidal", ["--override", "solve.guess.k=0.01"], id="k=0.01")],
    )
    def test_every_preset_saved_wave_loads(self, tmp_path, preset, overrides):
        src = str(tmp_path / "src")
        cfg = ["--preset", preset, *overrides]
        assert self.run("solve", *cfg, "--out", src) == 0
        direct = self.run("certify", *cfg, "--out", str(tmp_path / "a"))
        code = self.run("certify", "--wave", os.path.join(src, "wave"), *cfg,
                        "--out", str(tmp_path / "b"))
        assert code == direct
        assert os.path.exists(os.path.join(tmp_path, "b", "certify.json"))

    @pytest.mark.parametrize(
        "preset,overrides,field",
        [
            ("bo", [], "grid.N"),
            ("kdv-cnoidal", ["grid.L=6.0"], "grid.L"),
            ("ilw", [], "equation.symbol"),
            ("gkdv-p", ["grid.N=256"], "equation.nonlinearity"),
            ("regularized-bbm-like", [], "equation.variant"),
        ],
    )
    def test_wave_must_match_config(self, tmp_path, kdv_stable, capsys, preset, overrides,
                                    field):
        base = str(tmp_path / "w")
        save_wave(kdv_stable, base)
        argv = ["certify", "--wave", base, "--preset", preset, "--out", str(tmp_path / "run")]
        for item in overrides:
            argv += ["--override", item]
        assert self.run(*argv) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error: wave ") and "\n" not in err
        assert f"does not match the config: {field} is " in err
        assert not os.path.exists(os.path.join(tmp_path, "run", "certify.json"))

    @pytest.mark.parametrize(
        "command,preset,override,message",
        [
            ("solve", "ilw", 'solve.guess={"type":"cnoidal"}',
             "cnoidal guesses require solve.guess.k"),
            ("solve", "ilw", 'solve.guess={"type":"bbm_dnoidal"}',
             "bbm_dnoidal guesses require solve.guess.k"),
            ("solve", "ilw", 'solve.guess={"type":"ilw","k":0.9}',
             "ilw guesses require solve.guess.delta"),
            ("certify", "bo", 'solve.guess={"type":"cnoidal","k":0.9}',
             "the cnoidal closed form does not match the config: equation.symbol is "),
            ("certify", "regularized-bbm-like", 'solve.guess={"type":"cnoidal","k":0.99}',
             "the cnoidal closed form does not match the config: equation.variant is "
             "'standard' in the wave, 'regularized' in the config"),
            ("certify", "ilw", "equation.symbol.delta=0.5",
             "the ilw closed form does not match the config: equation.symbol is "),
        ],
        ids=["cnoidal-no-k", "bbm_dnoidal-no-k", "ilw-no-delta",
             "cnoidal-under-bo", "cnoidal-under-regularized", "ilw-other-delta"],
    )
    def test_closed_form_must_fit_the_config(self, tmp_path, capsys, command, preset,
                                             override, message):
        # a closed form solves its own equation: under another config it
        # would be certified under the wrong config hash
        out = str(tmp_path / "run")
        assert self.run(command, "--preset", preset, "--override", override,
                        "--out", out) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error: ") and "\n" not in err
        assert message in err
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "preset,overrides,message",
        [
            ("regularized-bbm-like", [], "config error: config has no sweep section"),
            ("gkdv-p", ["sweep.parameter=xi", "sweep.A_coeffs=[0]"],
             "config error: config schema violation at sweep: "
             "xi sweeps need nonempty omega_coeffs and A_coeffs"),
        ],
        ids=["no-section", "xi-without-coeffs"],
    )
    def test_sweep_without_section_writes_nothing(self, tmp_path, capsys, preset,
                                                  overrides, message):
        out = str(tmp_path / "run")
        argv = ["sweep", "--preset", preset, "--out", out]
        for item in overrides:
            argv += ["--override", item]
        assert self.run(*argv) == 1
        assert capsys.readouterr().err.strip() == message
        assert not os.path.exists(out)

    def test_xi_sweep_along_identity_map_is_the_omega_sweep(self, tmp_path):
        # omega(xi) = xi and A(xi) = 0 give the fixed-A gkdv-p branch of the omega sweep
        tables = []
        for extra in ([], ["sweep.parameter=xi", "sweep.omega_coeffs=[0,1]", "sweep.A_coeffs=[0]"]):
            out = str(tmp_path / f"run{len(tables)}")
            argv = ["sweep", "--preset", "gkdv-p", "--out", out, "--override", "sweep.count=4"]
            for item in extra:
                argv += ["--override", item]
            assert self.run(*argv) == 0
            tables.append(open(os.path.join(out, "family.csv"), "rb").read())
        assert tables[0] == tables[1]

    @pytest.mark.parametrize(
        "override",
        ["solve.guess.amplitude=0", "solve.guess.amplitude=1e-20", "solve.guess.mode=128"],
    )
    def test_constant_cosine_guess_is_a_config_error(self, tmp_path, capsys, override):
        # mode N samples cos(2 pi N x / L) at its maxima only: the guess is constant
        out = str(tmp_path / "run")
        assert self.run("solve", "--preset", "bo", "--override", override, "--out", out) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error: solve.guess: guess is constant")
        assert "\n" not in err and os.listdir(out) == []

    @pytest.mark.parametrize(
        "rewrite",
        [lambda rows: rows[:-1], lambda rows: rows[:1],
         lambda rows: [row.split(",")[0] for row in rows]],
        ids=["short", "header-only", "one-column"],
    )
    def test_certify_rejects_short_profile(self, tmp_path, kdv_stable, capsys, rewrite):
        base = str(tmp_path / "w")
        save_wave(kdv_stable, base)
        rows = open(base + ".csv").read().splitlines()
        open(base + ".csv", "w").write("\n".join(rewrite(rows)) + "\n")
        with pytest.raises(ValueError):
            load_wave(base)
        code = self.run("certify", "--wave", base, "--preset", "kdv-cnoidal",
                        "--out", str(tmp_path / "run"))
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error: cannot load wave") and "\n" not in err

    @pytest.mark.parametrize(
        "sidecar,problem",
        [([1, 2], "is not a JSON object"), ("drop omega", "KeyError('omega')")],
        ids=["not-an-object", "no-omega"],
    )
    def test_certify_rejects_malformed_sidecar(self, tmp_path, kdv_stable, capsys,
                                               sidecar, problem):
        base = str(tmp_path / "w")
        save_wave(kdv_stable, base)
        if sidecar == "drop omega":
            sidecar = json.loads(open(base + ".json").read())
            del sidecar["omega"]
        open(base + ".json", "w").write(json.dumps(sidecar))
        with pytest.raises(ValueError, match=re.escape(problem)):
            load_wave(base)
        code = self.run("certify", "--wave", base, "--preset", "kdv-cnoidal",
                        "--out", str(tmp_path / "run"))
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error: cannot load wave") and "\n" not in err
        assert problem in err

    @pytest.mark.parametrize("preset", ["kdv-cnoidal", "gkdv-p", "regularized-bbm-like"])
    def test_certify_at_n1024_matches_own_n(self, tmp_path, preset):
        # the residual bound grows with N, so the closed forms and Newton
        # still hand a wave to certify at N=1024, and the verdict holds
        fields = []
        for overrides in ([], ["--override", "grid.N=1024"]):
            out = str(tmp_path / f"run{len(fields)}")
            code = self.run("certify", "--preset", preset, "--out", out, *overrides)
            cert = json.loads(open(os.path.join(out, "certify.json")).read())
            fields.append((code, cert["conclusion"], cert["fired_criterion"],
                           cert["h0"]["n_neg"], cert["h0"]["zero_dim"], cert["k_r"]))
        assert fields[0][0] in (0, 3)
        assert fields[1] == fields[0]

    def test_newton_polish_at_roundoff_floor(self, tmp_path):
        out = str(tmp_path / "run")
        code = self.run("solve", "--preset", "kdv-cnoidal", "--override", "grid.N=512",
                        "--override", "solve.guess.newton_polish=true", "--out", out)
        assert code == 0
        w = load_wave(os.path.join(out, "wave"))
        assert w.residual_norm <= residual_bound(w.symbol, w.profile)

    def test_certify_reproducible_byte_identical(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            assert self.run("certify", "--preset", "kdv-cnoidal", "--out", out) == 0
        j1 = open(os.path.join(out1, "certify.json"), "rb").read()
        j2 = open(os.path.join(out2, "certify.json"), "rb").read()
        assert j1 == j2

    def test_sweep(self, tmp_path):
        out = str(tmp_path / "run")
        code = self.run(
            "sweep", "--preset", "kdv-cnoidal", "--out", out,
            "--override", "sweep.count=4", "--override", "grid.N=128",
            "--override", "sweep.start=0.46", "--override", "sweep.stop=0.7",
        )
        assert code == 0
        sweep = json.loads(open(os.path.join(out, "sweep.json")).read())
        assert sweep["curve_criterion"] < 0
        assert len(sweep["members"]) == 4
        assert all(m["verdict"] == "orbitally_stable" for m in sweep["members"])
        # momentum increases along the branch
        Fs = [m["momentum"] for m in sweep["members"]]
        assert all(a < b for a, b in zip(Fs, Fs[1:]))
        lines = open(os.path.join(out, "family.csv")).read().strip().split("\n")
        assert lines[0] == "xi,omega,A,M,F,verdict"
        assert len(lines) == 5

    def test_single_point_sweep_degenerates_to_certify(self, tmp_path):
        out = str(tmp_path / "run")
        code = self.run(
            "sweep", "--preset", "kdv-cnoidal", "--out", out,
            "--override", "sweep.count=1", "--override", "grid.N=128",
            "--override", "sweep.start=0.46", "--override", "sweep.stop=0.46",
        )
        assert code == 0
        sweep = json.loads(open(os.path.join(out, "sweep.json")).read())
        assert sweep["curve_criterion"] is None
        assert sweep["members"][0]["verdict"] == "orbitally_stable"

    def test_sweep_partial_exit_4(self, tmp_path):
        out = str(tmp_path / "run")
        code = self.run(
            "sweep", "--preset", "kdv-cnoidal", "--out", out,
            "--override", "grid.N=128", "--override", "sweep.count=3",
            "--override", "sweep.start=0.46", "--override", "sweep.stop=-40",
        )
        assert code == 4
        # member 0 converged before member 1 collapsed: it is kept
        sweep = json.loads(open(os.path.join(out, "sweep.json")).read())
        assert sweep["partial"] is True
        assert len(sweep["members"]) == 1
        assert sweep["members"][0]["xi"] == 0.46
        assert sweep["members"][0]["verdict"] == "orbitally_stable"
        assert sweep["curve_criterion"] is None
        lines = open(os.path.join(out, "family.csv")).read().strip().split("\n")
        assert len(lines) == 2 and float(lines[1].split(",")[0]) == 0.46
        assert os.path.exists(os.path.join(out, "wave_000.json"))
        assert not os.path.exists(os.path.join(out, "wave_001.json"))

    def test_sweep_carries_fixed_mean(self, tmp_path):
        out = str(tmp_path / "run")
        code = self.run(
            "sweep", "--preset", "bo", "--out", out,
            "--override", 'solve.constraint={"mode":"fixed_mean","value":0.1}',
        )
        assert code == 0
        sweep = json.loads(open(os.path.join(out, "sweep.json")).read())
        assert len(sweep["members"]) == 7
        for i in range(7):
            w = load_wave(os.path.join(out, f"wave_{i:03d}"))
            assert w.constraint == "fixed_mean"
            assert abs(mean_value(w.profile) - 0.1) < 1e-12

    def test_sweep_honors_solver_settings(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        code = self.run(
            "sweep", "--preset", "kdv-cnoidal", "--out", out,
            "--override", "solve.max_iter=1",
        )
        assert code == 4
        assert "no convergence in 1 iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("command, override, path", [
        ("certify", "grid.L=NaN", "grid/L"),
        ("evolve", "evolve.T=Infinity", "evolve/T"),
    ])
    def test_non_finite_config_exit_1(self, tmp_path, capsys, command, override, path):
        out = str(tmp_path / "run")
        assert self.run(command, "--preset", "kdv-cnoidal", "--out", out,
                        "--override", override) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"config error: config schema violation at {path}: ")
        assert not os.path.exists(out)

    def test_sweep_members_solve_to_roundoff(self, tmp_path):
        # a tol above the roundoff bound does not let Newton stop early, so
        # every member passes certify's residual gate
        out = str(tmp_path / "run")
        code = self.run("sweep", "--preset", "kdv-cnoidal", "--out", out,
                        "--override", "solve.tol=1e-3")
        assert code == 0
        members = json.loads(open(os.path.join(out, "sweep.json")).read())["members"]
        assert len(members) == 10
        for i, member in enumerate(members):
            w = load_wave(os.path.join(out, f"wave_{i:03d}"))
            assert w.residual_norm <= residual_bound(w.symbol, w.profile)
            assert member["verdict"] == "orbitally_stable"

    def test_evolve_short(self, tmp_path):
        out = str(tmp_path / "run")
        code = self.run(
            "evolve", "--preset", "kdv-cnoidal", "--out", out,
            "--override", "evolve.T=0.5", "--override", "evolve.sample_interval=0.1",
            "--override", "evolve.amplitudes=[0.0,0.001]",
        )
        assert code == 0
        summary = json.loads(open(os.path.join(out, "evolve_summary.json")).read())
        assert len(summary["traces"]) == 2
        zero_amp = summary["traces"][0]
        assert zero_amp["sup_distance"] < 1e-6
        pert = summary["traces"][1]
        assert pert["drift_M"] < 1e-12
        trace_file = os.path.join(out, pert["trace_file"])
        header = open(trace_file).readline().strip()
        assert header == "t,d_orbit,r_star,P,F,M,V"

    def test_evolve_reports_throughput_on_stderr_only(self, tmp_path, capsys):
        outputs = []
        for run in ("a", "b"):
            out = str(tmp_path / run)
            code = self.run(
                "evolve", "--preset", "kdv-cnoidal", "--out", out,
                "--override", "evolve.T=0.1", "--override", "evolve.sample_interval=0.05",
                "--override", "evolve.amplitudes=[0.001,0.01]",
            )
            assert code == 0
            captured = capsys.readouterr()
            err = captured.err.strip().splitlines()
            assert len(err) == 1
            assert err[0].startswith("evolved 2 amplitudes x 500 steps in ")
            assert err[0].endswith(" steps/s)")
            outputs.append((captured.out,
                            open(os.path.join(out, "evolve_summary.json"), "rb").read()))
        assert outputs[0] == outputs[1]

    def test_evolve_blowup_exit_5(self, tmp_path):
        out = str(tmp_path / "run")
        code = self.run(
            "evolve", "--preset", "kdv-cnoidal", "--out", out,
            "--override", "grid.N=128",
            "--override", "evolve.dt=0.05", "--override", "evolve.T=5.0",
            "--override", "evolve.amplitudes=[50.0]",
            "--override", "evolve.dealias=false",
        )
        assert code == 5
        summary = json.loads(open(os.path.join(out, "evolve_summary.json")).read())
        assert summary["blowup_time"] > 0

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
