import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from periwave import cli, stability, waves
from periwave.cli import main
from periwave.config import (
    ConfigError,
    grid_from_config,
    list_presets,
    load_config,
    symbol_from_config,
)
from periwave.io import (
    _csv_text,
    atomic_write_text,
    canonical_json,
    config_hash,
    format_float,
    load_wave,
    save_wave,
)
from periwave.spectral import PeriodicGrid, mean_value, random_smooth_field
from periwave.stability import curve_criterion
from periwave.waves import SolverError, residual_bound

TWO_PI = 2.0 * math.pi


class TestSerialization:
    def test_float_formatting_roundtrip(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-1e6, 1e6, size=50):
            assert float(format_float(x)) == x

    @pytest.mark.parametrize(
        "header,columns",
        [
            (["x", "u"], [np.arange(6.0),
                          [-0.0, 5e-324, 1e-310, 1e308, -1e308, 0.1]]),
            (["xi", "verdict"], [[0.5, -0.0], ["orbitally_stable", "inconclusive"]]),
            (["a", "b"], [[1, 2], ["text", 0.25]]),
            (["t", "d"], [[0.0, 1.0, 2.0, 3.0],
                          [1.5, float("nan"), float("inf"), -float("inf")]]),
        ],
    )
    def test_csv_text_matches_per_cell_format(self, header, columns):
        # the one-pass table is byte-equal to format_float cell by cell
        rows = [",".join(header)] + [
            ",".join(c if isinstance(c, str) else format_float(c) for c in cells)
            for cells in zip(*columns)
        ]
        assert _csv_text(header, columns) == "\n".join(rows) + "\n"

    def test_canonical_json_is_sorted_and_deterministic(self):
        obj = {"b": 1.5, "a": [1, 2.0, None, True], "c": {"z": "s", "y": float("nan")}}
        text = canonical_json(obj)
        assert text == canonical_json(obj)
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')

    def test_config_hash_stable(self):
        cfg = {"grid": {"L": TWO_PI, "N": 64}}
        assert config_hash(cfg) == config_hash(json.loads(json.dumps(cfg)))

    def test_failed_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(str(path), "\ud800")
        assert os.listdir(tmp_path) == []

    def test_write_makes_missing_parents(self, tmp_path):
        path = tmp_path / "a" / "b" / "report.json"
        atomic_write_text(str(path), "x,u\n1,2\n")
        assert path.read_bytes() == b"x,u\n1,2\n"

    def test_rewrite_leaves_only_the_new_bytes(self, tmp_path):
        path = tmp_path / "report.json"
        atomic_write_text(str(path), "a much longer first text\n")
        atomic_write_text(str(path), "short\n")
        assert path.read_bytes() == b"short\n"
        assert os.listdir(tmp_path) == ["report.json"]

    def test_short_writes_still_write_every_byte(self, tmp_path, monkeypatch):
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, bytes(data[:7])))
        text = canonical_json({"omega": 0.1, "members": list(range(20))})
        atomic_write_text(str(tmp_path / "report.json"), text)
        assert (tmp_path / "report.json").read_bytes() == text.encode()

    def test_field_csv_roundtrip(self, tmp_path, kdv_stable):
        # the profile table's 17-digit columns give back the nodes and values
        grid = kdv_stable.grid
        u = random_smooth_field(grid, seed=1)
        base = str(tmp_path / "wave")
        save_wave(replace(kdv_stable, profile=u), base)
        data = np.loadtxt(base + ".csv", delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], grid.nodes)
        assert np.array_equal(data[:, 1], u.values)

    def test_basepath_with_a_hash_not_before_digits_is_a_pair(self, tmp_path, kdv_stable):
        # only a trailing #<digits> names a sweep member
        base = str(tmp_path / "a#b" / "w#")
        save_wave(kdv_stable, base)
        assert np.array_equal(load_wave(base).profile.values, kdv_stable.profile.values)

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
        ('solve.guess={"type":"cosine","newton_polish":"yes"}', "solve/guess"),
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
        # members at one point have no curve between them; a single one is certify
        ('sweep={"parameter":"omega","start":0.5,"stop":0.5,"count":2}', "sweep"),
        ('sweep={"parameter":"omega","start":0.5,"stop":0.5,"count":1}', None),
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
        ("evolve.amplitudes=[]", "evolve/amplitudes"),
        ("evolve.seed=-1", "evolve/seed"),
        # ETDRK4 is the only integrator: the key is gone, whatever its value
        ("evolve.integrator=rk4", "evolve"),
        ("evolve.integrator=etdrk4", "evolve"),
        ("evolve.sample_interval=null", "evolve/sample_interval"),
        # the 2/3 rule always applies: the key is gone, whatever its value
        ("evolve.dealias=true", "evolve"),
        ("evolve.dealias=false", "evolve"),
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
        # an object override replaces the section, so it must give its required keys
        ('evolve={"T":0.01}', "evolve"),
        ('solve={"omega":-0.5,"guess":{"type":"cosine"}}', "solve"),
        ('equation={"symbol":{"kind":"second_derivative"},'
         '"nonlinearity":{"kind":"power","p":1}}', "equation"),
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
            "solve": {"guess": {"type": "cnoidal", "k": 0.9}},
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

    def test_solve_report_names_its_files_relative(self, tmp_path):
        # one config solved into two directories writes the same report bytes
        reports = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert self.run("solve", "--preset", "bo", "--out", out) == 0
            reports.append(open(os.path.join(out, "solve_report.json"), "rb").read())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["files"] == {"profile": "wave.csv",
                                                   "sidecar": "wave.json"}

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
        assert spectrum.shape == (140, 2)
        assert np.all(np.diff(spectrum[:, 1]) >= 0)

    def test_certify_reports_its_core(self, tmp_path):
        out = str(tmp_path / "run")
        assert self.run("certify", "--preset", "kdv-cnoidal", "--out", out) == 0
        cert = json.loads(open(os.path.join(out, "certify.json")).read())
        core = cert["core"]
        assert (core["N"], core["K"], core["modes"]) == (256, 80, 26)
        assert core["gamma"] > 0.0 and 0.0 < core["delta"] < core["gap"]
        spectrum = np.loadtxt(os.path.join(out, "spectrum.csv"), delimiter=",", skiprows=1)
        assert spectrum.shape == (80, 2)
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

    def test_small_kdv_sweep_members_are_stable(self, tmp_path):
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

    def test_certify_threshold_above_nyquist_exit_3(self, tmp_path):
        # ILW's kappa0 = 12 exceeds N/2 = 8: the symbol bounds go unchecked,
        # so H1 fails instead of the bounds check raising
        out = str(tmp_path / "run")
        code = self.run(
            "certify", "--preset", "ilw", "--out", out,
            "--override", "grid.L=10.0", "--override", "grid.N=16",
            "--override", "equation.symbol.delta=0.3",
            "--override", 'solve.guess={"type":"cosine","amplitude":0.3}',
            "--override", "solve.omega=-0.3",
        )
        assert code == 3
        cert = json.loads(open(os.path.join(out, "certify.json")).read())
        assert cert["conclusion"] == "inconclusive"
        assert cert["prerequisites"]["h1_pass"] is False

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
        # Newton's record: from the solve, null for a closed form or a saved wave
        report = json.loads(open(os.path.join(src, "solve_report.json")).read())
        direct_wave, saved_wave = (
            json.loads(open(os.path.join(tmp_path, run, "certify.json")).read())["wave"]
            for run in ("a", "b")
        )
        newton = load_config(preset=preset)["solve"]["guess"]["type"] == "cosine"
        assert (report["newton_steps"] is not None) == newton
        assert (report["newton_size"] is not None) == newton
        for key in ("newton_steps", "newton_size", "residual_bound"):
            assert direct_wave[key] == report[key]
        assert saved_wave["newton_steps"] is None and saved_wave["newton_size"] is None
        assert saved_wave["residual_bound"] == report["residual_bound"] > 0.0

    @pytest.mark.parametrize(
        "preset,overrides,field",
        [
            ("bo", [], "grid.N"),
            ("kdv-cnoidal", ["grid.L=6.0"], "grid.L"),
            ("ilw", [], "equation.symbol"),
            ("gkdv-p", ["grid.N=256"], "equation.nonlinearity"),
            ("regularized-bbm-like", [], "equation.variant"),
            # compared by value: the flux by (p, c), the symbol as its power
            ("kdv-cnoidal", ['equation.nonlinearity={"kind":"power","p":2}'],
             "equation.nonlinearity"),
            ("kdv-cnoidal", ['equation.nonlinearity={"kind":"quadratic"}'],
             "equation.nonlinearity"),
            ("kdv-cnoidal", ['equation.symbol={"kind":"power","m":1}'], "equation.symbol"),
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
        "override",
        [
            # quadratic is the power-law flux p = 1, c = 2; hilbert_derivative
            # is the power symbol m = 1
            'equation.nonlinearity={"kind":"power","p":1,"c":2}',
            'equation.symbol={"kind":"power","m":1}',
        ],
        ids=["flux", "symbol"],
    )
    def test_wave_matches_its_equation_spelled_otherwise(self, tmp_path, override):
        src = str(tmp_path / "src")
        assert self.run("solve", "--preset", "bo", "--out", src) == 0
        assert self.run("certify", "--preset", "bo", "--out", str(tmp_path / "a")) == 0
        assert self.run("certify", "--wave", os.path.join(src, "wave"), "--preset", "bo",
                        "--override", override, "--out", str(tmp_path / "b")) == 0
        a, b = (json.loads(open(os.path.join(tmp_path, run, "certify.json")).read())
                for run in ("a", "b"))
        assert b["conclusion"] == a["conclusion"] == "orbitally_stable"
        assert b["surface_derivatives"] == a["surface_derivatives"]

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
            # np.gradient would divide by the zero spacing of the members
            ("bo", ["sweep.start=-0.4", "sweep.stop=-0.4", "sweep.count=3"],
             "config error: config schema violation at sweep: "
             "3 members need start != stop"),
        ],
        ids=["no-section", "xi-without-coeffs", "start-equals-stop"],
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

    def test_A_sweep_holds_the_seed_speed(self, tmp_path):
        # an A sweep solves fixed-A members at the seed's omega, A exactly the linspace's
        out = str(tmp_path / "run")
        argv = ["sweep", "--preset", "gkdv-p", "--out", out]
        for item in ("sweep.parameter=A", "sweep.start=0", "sweep.stop=0.02", "sweep.count=3"):
            argv += ["--override", item]
        assert self.run(*argv) == 0
        members = json.loads(open(os.path.join(out, "sweep.json")).read())["members"]
        assert [m["A"] for m in members] == [0.0, 0.01, 0.02]
        assert len({m["omega"] for m in members}) == 1

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

    @pytest.mark.parametrize("p", [2.7, True, "2"])
    def test_certify_rejects_a_flux_exponent_that_is_not_an_integer(self, tmp_path, capsys, p):
        # the sidecar of a solved gkdv-p wave with its p = 2 rewritten: the
        # value is refused, not truncated to an integer that certify then uses
        from periwave.cli import _solve_wave

        base = str(tmp_path / "w")
        save_wave(_solve_wave(load_config(preset="gkdv-p")), base)
        with open(base + ".json") as handle:
            sidecar = json.load(handle)
        sidecar["nonlinearity"]["p"] = p
        with open(base + ".json", "w") as handle:
            json.dump(sidecar, handle)
        with pytest.raises(ValueError, match="power-law exponent must be an integer >= 1"):
            load_wave(base)
        code = self.run("certify", "--wave", base, "--preset", "gkdv-p",
                        "--out", str(tmp_path / "run"))
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error: cannot load wave") and "\n" not in err
        assert f"sidecar {base}.json" in err and "power-law exponent" in err

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
        # the closed form needs no polish: unpolished, it is within the bound
        out = str(tmp_path / "run")
        code = self.run("solve", "--preset", "kdv-cnoidal", "--override", "grid.N=512",
                        "--out", out)
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
        assert sorted(os.listdir(out)) == ["family.csv", "members.csv", "sweep.json"]

    @pytest.mark.parametrize("preset", ["kdv-cnoidal", "gkdv-p", "bo", "ilw"])
    def test_members_csv_holds_what_save_wave_writes(self, tmp_path, monkeypatch, preset):
        # member k's column of members.csv is byte-equal to the u column that
        # save_wave writes for it, and certify --wave DIR#k writes the
        # certify.json of that member saved by save_wave as a basepath pair
        members, real = [], cli.certify
        monkeypatch.setattr(cli, "certify", lambda w: members.append(w) or real(w))
        out = str(tmp_path / "sweep")
        assert self.run("sweep", "--preset", preset, "--out", out) == 0
        monkeypatch.undo()
        rows = json.loads(open(os.path.join(out, "sweep.json")).read())["members"]
        assert len(members) == len(rows) > 1
        with open(os.path.join(out, "members.csv")) as handle:
            header, *table = csv.reader(handle)
        assert header == ["x"] + [f"u_{k:03d}" for k in range(len(members))]
        for k, w in enumerate(members):
            base = str(tmp_path / f"wave_{k:03d}")
            save_wave(w, base)
            with open(base + ".csv") as handle:
                wave_header, *wave_table = csv.reader(handle)
            assert wave_header == ["x", "u"]
            assert [cells[0] for cells in table] == [cells[0] for cells in wave_table]
            assert [cells[k + 1] for cells in table] == [cells[1] for cells in wave_table]
            assert rows[k]["residual_norm"] == w.residual_norm
            reports = []
            for name, wave in (("member", f"{out}#{k}"), ("pair", base)):
                run = str(tmp_path / f"{name}-{k}")
                code = self.run("certify", "--wave", wave, "--preset", preset, "--out", run)
                assert code in (0, 3)
                reports.append(open(os.path.join(run, "certify.json"), "rb").read())
            assert reports[0] == reports[1]
            assert json.loads(reports[0])["conclusion"] == rows[k]["verdict"]

    def test_sweep_json_holds_the_shared_sidecar_entries(self, tmp_path):
        # an A sweep of a zero-mean seed: its members, and sweep.json, are fixed_A
        out = str(tmp_path / "run")
        argv = ["sweep", "--preset", "bo", "--out", out]
        for item in ("sweep.parameter=A", "sweep.start=0.5", "sweep.stop=0.52", "sweep.count=2"):
            argv += ["--override", item]
        assert self.run(*argv) == 0
        sweep = json.loads(open(os.path.join(out, "sweep.json")).read())
        assert sweep["constraint"] == "fixed_A" and len(sweep["members"]) == 2
        for k, row in enumerate(sweep["members"]):
            # the sidecar save_wave writes for the member: sweep.json's shared
            # entries, the row's omega and A, and the recomputed residual
            w = load_wave(f"{out}#{k}")
            save_wave(w, str(tmp_path / "w"))
            sidecar = json.loads(open(tmp_path / "w.json").read())
            assert [sidecar.pop("omega"), sidecar.pop("A")] == [row["omega"], row["A"]]
            assert sidecar.pop("residual_norm") <= residual_bound(w.symbol, w.profile)
            assert sidecar == {key: sweep[key] for key in ("L", "N", "symbol", "nonlinearity",
                                                           "variant", "constraint")}

    def test_sweep_member_must_exist(self, tmp_path, capsys):
        # DIR#k past the last member, or in a directory without sweep.json,
        # is refused with exit 1 and names the file
        out = str(tmp_path / "run")
        assert self.run("sweep", "--preset", "kdv-cnoidal", "--out", out,
                        "--override", "grid.N=128", "--override", "sweep.count=2") == 0
        certify = ["certify", "--preset", "kdv-cnoidal", "--override", "grid.N=128"]
        assert self.run(*certify, "--wave", f"{out}#1", "--out", str(tmp_path / "ok")) == 0
        capsys.readouterr()
        for wave, message in (
            (f"{out}#2", f"config error: cannot load wave {out}#2: "
                         f"sweep {out}/sweep.json has no member 2"),
            (f"{tmp_path}#0", f"{tmp_path}/sweep.json"),
            (f"{tmp_path / 'none'}#0", f"{tmp_path / 'none'}/sweep.json"),
        ):
            assert self.run(*certify, "--wave", wave, "--out", str(tmp_path / "x")) == 1
            err = capsys.readouterr().err.strip()
            assert message in err and "\n" not in err
            assert not os.path.exists(tmp_path / "x" / "certify.json")
        # a member row that is not a JSON object is no member either
        sweep = json.loads(open(os.path.join(out, "sweep.json")).read())
        sweep["members"][1] = 7
        open(os.path.join(out, "sweep.json"), "w").write(json.dumps(sweep))
        with pytest.raises(ValueError, match="has no member 1"):
            load_wave(f"{out}#1")
        assert np.isfinite(load_wave(f"{out}#0").residual_norm)

    @pytest.mark.parametrize("preset", ["kdv-cnoidal", "gkdv-p", "bo", "ilw"])
    def test_curve_criterion_is_read_off_family_csv(self, tmp_path, preset):
        # family.csv's 17-digit columns round-trip, so the curve they give is
        # sweep.json's to the bit
        out = str(tmp_path / preset)
        assert self.run("sweep", "--preset", preset, "--out", out,
                        "--override", "sweep.count=4") == 0
        with open(os.path.join(out, "family.csv")) as handle:
            header, *rows = csv.reader(handle)
        assert header == ["xi", "omega", "A", "M", "F", "verdict"]
        columns = [[float(cell) for cell in col] for col in list(zip(*rows))[:5]]
        value, mu_nu = curve_criterion(*columns)
        sweep = json.loads(open(os.path.join(out, "sweep.json")).read())
        assert sweep["curve_criterion"] == value
        assert sweep["curve_mu_nu"] == list(mu_nu)

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
        # members.csv holds exactly the converged member, which re-loads
        with open(os.path.join(out, "members.csv")) as handle:
            header, *table = csv.reader(handle)
        assert header == ["x", "u_000"] and len(table) == 128
        w = load_wave(f"{out}#0")
        assert [row[1] for row in table] == [format_float(x) for x in w.profile.values]
        assert w.omega == 0.46 and w.residual_norm <= residual_bound(w.symbol, w.profile)
        with pytest.raises(ValueError, match="has no member 1"):
            load_wave(f"{out}#1")

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
            w = load_wave(f"{out}#{i}")
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
        # no member converged: the record of the sweep is empty, not missing
        sweep = json.loads(open(os.path.join(out, "sweep.json")).read())
        assert sweep["members"] == [] and sweep["partial"] is True
        assert sweep["curve_criterion"] is None and sweep["curve_mu_nu"] is None
        assert open(os.path.join(out, "family.csv")).read() == "xi,omega,A,M,F,verdict\n"
        # and members.csv holds the node column only
        nodes = grid_from_config(load_config(preset="kdv-cnoidal")).nodes
        assert open(os.path.join(out, "members.csv")).read() == "".join(
            ["x\n"] + [format_float(x) + "\n" for x in nodes])
        assert sorted(os.listdir(out)) == ["family.csv", "members.csv", "sweep.json"]

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
        # predicted from the surface tangent, the members after the first take
        # 2 steps each here; seeded by the previous profile they took 4
        assert sum(m["newton_steps"] for m in members) < 30
        for i, member in enumerate(members):
            w = load_wave(f"{out}#{i}")
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

    def test_outputs_follow_the_umask(self, tmp_path):
        runs = {
            "solve": ["--preset", "kdv-cnoidal"],
            "certify": ["--preset", "kdv-cnoidal"],
            "sweep": ["--preset", "kdv-cnoidal", "--override", "grid.N=128",
                      "--override", "sweep.count=2"],
            "evolve": ["--preset", "kdv-cnoidal", "--override", "evolve.T=0.01"],
        }
        old = os.umask(0o022)
        try:
            for command, args in runs.items():
                assert self.run(command, *args, "--out", str(tmp_path / command)) == 0
        finally:
            os.umask(old)
        for command in runs:
            names = os.listdir(tmp_path / command)
            assert names and not [n for n in names if n.endswith(".tmp")]
            for name in names:
                assert os.stat(tmp_path / command / name).st_mode & 0o777 == 0o644, name

    def test_evolve_names_traces_by_index(self, tmp_path):
        # amplitudes that print alike in %.0e must not share a trace file;
        # each file holds what its amplitude gives when evolved alone
        def traces(run, amplitudes):
            out = str(tmp_path / run)
            assert self.run("evolve", "--preset", "kdv-cnoidal", "--out", out,
                            "--override", "evolve.T=0.05",
                            "--override", "evolve.sample_interval=0.01",
                            "--override", f"evolve.amplitudes={amplitudes}") == 0
            summary = json.loads(open(os.path.join(out, "evolve_summary.json")).read())
            names = [t["trace_file"] for t in summary["traces"]]
            assert sorted(os.listdir(out)) == sorted(names + ["evolve_summary.json"])
            return [open(os.path.join(out, name), "rb").read() for name in names]

        both = traces("both", "[0.001,0.0012]")
        assert both == traces("a", "[0.001]") + traces("b", "[0.0012]")
        assert both[0] != both[1]

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

    def test_evolve_regularized_preset(self, tmp_path):
        cert_out, out = str(tmp_path / "cert"), str(tmp_path / "run")
        assert self.run("certify", "--preset", "regularized-bbm-like", "--out", cert_out) == 0
        cert = json.loads(open(os.path.join(cert_out, "certify.json")).read())
        code = self.run(
            "evolve", "--preset", "regularized-bbm-like", "--out", out,
            "--override", "evolve.T=0.5", "--override", "evolve.sample_interval=0.1",
        )
        assert code == 0
        summary = json.loads(open(os.path.join(out, "evolve_summary.json")).read())
        lyapunov = summary["lyapunov"]
        assert [lyapunov["mu"], lyapunov["nu"]] == cert["mu_nu"]
        (trace,) = summary["traces"]
        assert trace["drift_F"] < 1e-7
        assert trace["sup_ratio"] is not None and math.isfinite(trace["sup_ratio"])

    def test_evolve_records_why_sigma_fell_back(self, tmp_path, monkeypatch):
        # a failed penalty weight evolves with sigma = 1 and says why; a
        # weight that succeeds leaves no reason
        evolve = ["evolve", "--preset", "kdv-cnoidal", "--override", "evolve.T=0.05",
                  "--override", "evolve.sample_interval=0.01"]
        assert self.run(*evolve, "--out", str(tmp_path / "ok")) == 0
        summary = json.loads(open(tmp_path / "ok" / "evolve_summary.json").read())
        assert "reason" not in summary["lyapunov"] and summary["lyapunov"]["margin"] > 0.0

        def fail(*args):
            raise SolverError("no coercive penalty weight: test")

        monkeypatch.setattr(cli, "lyapunov_sigma", fail)
        assert self.run(*evolve, "--out", str(tmp_path / "failed")) == 0
        failed = json.loads(open(tmp_path / "failed" / "evolve_summary.json").read())
        assert failed["lyapunov"]["sigma"] == 1.0
        assert failed["lyapunov"]["reason"] == "no coercive penalty weight: test"
        assert "margin" not in failed["lyapunov"]

    @pytest.mark.parametrize("preset, margin", [("kdv-cnoidal", 0.378435),
                                                ("regularized-bbm-like", 0.444022)])
    def test_evolve_records_the_margin(self, tmp_path, preset, margin):
        # lyapunov_sigma's least generalized eigenvalue, next to sigma
        out = tmp_path / "run"
        assert self.run("evolve", "--preset", preset, "--out", str(out),
                        "--override", "evolve.T=0.05") == 0
        lyapunov = json.loads((out / "evolve_summary.json").read_text())["lyapunov"]
        assert set(lyapunov) == {"sigma", "mu", "nu", "margin"}
        assert round(lyapunov["margin"], 6) == margin

    def test_evolve_records_why_the_verdict_gave_no_weight(self, tmp_path):
        # gkdv-p's verdict is inconclusive and picks no (mu, nu): evolve runs
        # with the unit weight and names the verdict's conclusion and reason
        out = tmp_path / "run"
        assert self.run("evolve", "--preset", "gkdv-p", "--out", str(out),
                        "--override", "evolve.T=0.2") == 0
        summary = json.loads((out / "evolve_summary.json").read_text())
        assert summary["lyapunov"] == {
            "sigma": 1.0, "mu": 0.0, "nu": 1.0,
            "reason": "verdict inconclusive gives no (mu, nu): spectral prerequisites "
                      "failed (n_neg=2, zero_dim=1, h1=True)",
        }

    def test_evolve_solves_for_the_tangent_once(self, tmp_path, monkeypatch):
        # lyapunov_sigma reads the surface certify already holds
        calls, real = [], waves.param_derivatives
        for module in (waves, stability):
            monkeypatch.setattr(module, "param_derivatives",
                                lambda *args: calls.append(1) or real(*args))
        out = str(tmp_path / "run")
        assert self.run("evolve", "--preset", "kdv-cnoidal", "--out", out,
                        "--override", "evolve.T=0.05") == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("key, value", [("integrator", "etdrk4"), ("dealias", True)])
    def test_saved_config_with_removed_key_refused(self, tmp_path, capsys, key, value):
        # configs saved before ETDRK4 with the 2/3 rule became the only
        # scheme carry the key
        config = load_config(preset="kdv-cnoidal")
        config["evolve"][key] = value
        path = tmp_path / "saved.json"
        path.write_text(json.dumps(config))
        out = str(tmp_path / "run")
        assert self.run("evolve", "--config", str(path), "--out", out) == 1
        err = capsys.readouterr().err.strip()
        assert err == ("config error: config schema violation at evolve: "
                       f"unknown key '{key}'")
        assert not os.path.exists(out)

    def test_saved_config_with_newton_polish_refused(self, tmp_path, capsys):
        # closed forms are no longer Newton-polished; configs that asked for
        # it carry the key
        config = load_config(preset="kdv-cnoidal")
        config["solve"]["guess"]["newton_polish"] = True
        path = tmp_path / "saved.json"
        path.write_text(json.dumps(config))
        out = str(tmp_path / "run")
        assert self.run("solve", "--config", str(path), "--out", out) == 1
        err = capsys.readouterr().err.strip()
        assert err == ("config error: config schema violation at solve/guess: "
                       "unknown key 'newton_polish'")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key, value", [("integrator", "etdrk4"), ("dealias", "true")])
    def test_removed_key_override_refused(self, tmp_path, capsys, key, value):
        # scripts written for the old keys pass them on the command line
        out = str(tmp_path / "run")
        code = self.run("evolve", "--preset", "kdv-cnoidal", "--out", out,
                        "--override", f"evolve.{key}={value}")
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err == ("config error: config schema violation at evolve: "
                       f"unknown key '{key}'")
        assert not os.path.exists(out)

    def test_evolve_blowup_exit_5(self, tmp_path):
        out = str(tmp_path / "run")
        code = self.run(
            "evolve", "--preset", "kdv-cnoidal", "--out", out,
            "--override", "grid.N=128",
            "--override", "evolve.dt=0.05", "--override", "evolve.T=5.0",
            "--override", "evolve.amplitudes=[50.0]",
        )
        assert code == 5
        summary = json.loads(open(os.path.join(out, "evolve_summary.json")).read())
        assert summary["blowup_time"] > 0

    def test_evolve_blowup_writes_the_traces_taken(self, tmp_path):
        # both amplitudes' samples before the blowup are written, and the
        # bounded one's file is the prefix of its file from a run alone
        def run(name, amplitudes, T):
            out = str(tmp_path / name)
            code = self.run(
                "evolve", "--preset", "kdv-cnoidal", "--out", out,
                "--override", "grid.N=128", "--override", "evolve.dt=0.05",
                "--override", f"evolve.T={T}", "--override", "evolve.sample_interval=0.1",
                "--override", f"evolve.amplitudes={amplitudes}",
            )
            return code, out

        code, out = run("batch", "[0.001,50.0]", 5.0)
        assert code == 5
        summary = json.loads(open(os.path.join(out, "evolve_summary.json")).read())
        assert summary["blowup_time"] > 0
        assert summary["error"].endswith("at amplitude 50")
        traces = summary["traces"]
        assert [t["amplitude"] for t in traces] == [0.001, 50.0]
        assert [t["trace_file"] for t in traces] == ["trace_000.csv", "trace_001.csv"]
        assert sorted(os.listdir(out)) == ["evolve_summary.json", "trace_000.csv",
                                           "trace_001.csv"]
        lines = open(os.path.join(out, "trace_000.csv")).read().splitlines()
        assert lines[0] == "t,d_orbit,r_star,P,F,M,V"
        assert float(lines[-1].split(",")[0]) < summary["blowup_time"]
        code, alone = run("alone", "[0.001]", 5.0)
        assert code == 0
        full = open(os.path.join(alone, "trace_000.csv")).read().splitlines()
        assert full[:len(lines)] == lines and len(full) > len(lines)
        # the sigma, mu, nu and margin behind the V column, as a run without blowup writes them
        unblown = json.loads(open(os.path.join(alone, "evolve_summary.json")).read())
        assert summary["lyapunov"] == unblown["lyapunov"]
        assert set(summary["lyapunov"]) == {"sigma", "mu", "nu", "margin"}

    def test_solve_takes_no_wave(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--preset", "bo", "--wave", "x"])
        assert info.value.code == 2
        assert "solve takes no --wave" in capsys.readouterr().err

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # c3 read the K x K collocation matrix, whose products OpenBLAS splits
        # across threads: its last digits differed between 1 and 2 threads
        # for ilw at its own N and for ilw and bo at N = 1024; evolve's
        # summary and traces are held to the same
        certified = ("certify.json", "spectrum.csv")
        evolved = ("evolve_summary.json", "trace_000.csv")
        # (run name, its argv without --out, the files compared)
        runs = [
            ("ilw", ["certify", "--preset", "ilw"], certified),
            ("ilw-1024", ["certify", "--preset", "ilw", "--override", "grid.N=1024"],
             certified),
            ("bo-1024", ["certify", "--preset", "bo", "--override", "grid.N=1024"], certified),
            *((f"evolve-{preset}", ["evolve", "--preset", preset, "--override", "evolve.T=0.2"],
               evolved) for preset in ("kdv-cnoidal", "regularized-bbm-like")),
        ]
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            sys.modules["periwave.cli"].__file__)))
        script = ("import json, sys\nfrom periwave.cli import main\n"
                  "sys.exit(max([main(argv) for argv in json.loads(sys.argv[1])]))")
        for threads in ("1", "2"):
            argvs = [[*argv, "--out", str(tmp_path / threads / name)] for name, argv, _ in runs]
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env,
                           check=True, capture_output=True)
        for name, _, files in runs:
            for file in files:
                one, two = ((tmp_path / t / name / file).read_bytes() for t in "12")
                assert one == two, (name, file)

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
