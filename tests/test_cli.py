import json
import math
import os
import warnings

import numpy as np
import pytest

from augburgers.cli import ConfigError, ExperimentConfig, main, parse_config


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def read_rows(path):
    lines = read(path).strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# A deliberately small configuration so CLI runs finish in well under a
# second: narrow domain, coarse mesh, short horizon.
SMALL = """
dx = 0.25
x_left = -25
x_right = 15
t_end = 4
snapshot_times = 1, 4
tail_tol = 1e-6
"""


class TestParseConfig:
    def test_defaults_are_reference_configuration(self):
        cfg = parse_config("")
        assert cfg.nu == pytest.approx(1e-2)
        assert cfg.c == pytest.approx(2e-2)
        assert cfg.theta == 1.0
        assert cfg.dx == pytest.approx(0.1)
        assert cfg.flux == "eo"
        assert cfg.corrector_mode == "corrected"
        assert cfg.initial_data == "sines"

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nnu = 0.5 # trailing\n")
        assert cfg.nu == 0.5

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown key 'nuu'"):
            parse_config("nuu = 1")

    def test_out_of_range_value_names_key(self):
        with pytest.raises(ConfigError, match="nu"):
            parse_config("nu = -1")
        with pytest.raises(ConfigError, match="tail_tol"):
            parse_config("tail_tol = 2")
        with pytest.raises(ConfigError, match="safety"):
            parse_config("safety = 0")

    def test_flag_overrides_file(self):
        cfg = parse_config("dx = 0.1", {"dx": "0.05"})
        assert cfg.dx == 0.05

    def test_snapshot_times_inside_horizon(self):
        with pytest.raises(ConfigError, match="snapshot_times"):
            parse_config("t_end = 1\nsnapshot_times = 2\n")

    def test_initial_data_specs(self):
        assert parse_config("initial_data = gaussian:1,2").initial_data.startswith(
            "gaussian:"
        )
        with pytest.raises(ConfigError, match="initial_data"):
            parse_config("initial_data = gaussian:1")
        with pytest.raises(ConfigError, match="initial_data"):
            parse_config("initial_data = bump")

    def test_domain_ordering(self):
        with pytest.raises(ConfigError, match="x_left"):
            parse_config("x_left = 2\nx_right = -2\n")


class TestRunCommand:
    def run_small(self, tmp_path, name, extra=()):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(SMALL)
        out = tmp_path / name
        rc = main(
            ["run", "--config", str(cfg_path), "--out", str(out), *extra]
        )
        assert rc == 0
        return out

    def test_outputs_exist_with_headers(self, tmp_path):
        out = self.run_small(tmp_path, "a")
        header, rows = read_rows(out / "snapshots.csv")
        assert header == ["t", "x", "u"]
        times = sorted({float(r[0]) for r in rows})
        assert times == [0.0, 1.0, 4.0]
        header, rows = read_rows(out / "norms.csv")
        assert header == ["t", "l1", "l2", "linf", "mass"]
        assert len(rows) > 3

    def test_mass_column_constant(self, tmp_path):
        out = self.run_small(tmp_path, "a")
        _, rows = read_rows(out / "norms.csv")
        masses = [float(r[4]) for r in rows]
        assert max(abs(m - 0.15) for m in masses) <= 1e-8

    def test_rerun_byte_identical(self, tmp_path):
        out1 = self.run_small(tmp_path, "a")
        out2 = self.run_small(tmp_path, "b")
        for name in ("snapshots.csv", "norms.csv", "manifest.txt"):
            assert read(out1 / name) == read(out2 / name)

    def test_zero_initial_data_gives_zero_output(self, tmp_path):
        out = self.run_small(tmp_path, "z", ("--initial-data", "gaussian:0,1"))
        _, rows = read_rows(out / "snapshots.csv")
        assert all(float(r[2]) == 0.0 for r in rows)

    def test_manifest_fields(self, tmp_path):
        out = self.run_small(tmp_path, "a")
        manifest = read(out / "manifest.txt")
        for key in (
            "nu =",
            "c =",
            "theta =",
            "dx =",
            "flux =",
            "corrector_mode =",
            "tail_tol =",
            "safety =",
            "dt_max =",
            "t_end =",
            "snapshot_times =",
            "initial_data =",
            "seed =",
            "n_terms =",
            "moment0 =",
            "moment1 =",
            "moment2 =",
            "config_hash =",
            "aborted =",
        ):
            assert key in manifest, key

    def test_file_initial_data(self, tmp_path):
        values = np.zeros(8)
        values[3] = 1.0
        path = tmp_path / "u0.txt"
        path.write_text("# cell values\n" + "\n".join(str(v) for v in values))
        out = tmp_path / "o"
        rc = main(
            [
                "run",
                "--dx",
                "0.5",
                "--x-left",
                "0",
                "--x-right",
                "4",
                "--t-end",
                "0",
                "--snapshot-times",
                "",
                "--initial-data",
                f"file:{path}",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        _, rows = read_rows(out / "snapshots.csv")
        assert [float(r[2]) for r in rows] == values.tolist()

    def test_small_theta_runs(self, tmp_path):
        # dx/theta = 1000 used to overflow while building the kernel weights.
        rc = main(
            [
                "run", "--theta", "1e-4", "--x-left", "-5", "--x-right", "5",
                "--t-end", "1e-3", "--snapshot-times", "1e-3",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 0

    def test_bad_config_exit_code(self, tmp_path, capsys):
        rc = main(["run", "--nu", "-3", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "nu" in capsys.readouterr().err


class TestRatesCommand:
    def test_structure_and_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SMALL + "t_end = 10\nsnapshot_times =\n")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["rates", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["rates", "--config", str(cfg), "--out", str(out2)]) == 0
        header, rows = read_rows(out1 / "rates.csv")
        assert header == ["t", "variant", "p", "scaled_error"]
        variants = {r[1] for r in rows}
        assert variants == {"eo_corrected", "mlf_corrected", "eo_naive"}
        assert {r[2] for r in rows} == {"1", "2", "inf"}
        assert all(float(r[3]) >= 0.0 and math.isfinite(float(r[3])) for r in rows)
        assert read(out1 / "rates.csv") == read(out2 / "rates.csv")

    def test_no_warnings(self, tmp_path):
        # The t = 0 snapshot is left out of the profile comparison, so a
        # short run on the reference domain raises no warning at all.
        argv = ["rates", "--t-end", "1", "--snapshot-times", "1",
                "--out", str(tmp_path / "r")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0


class TestNwaveCommand:
    def test_wave_shape_comparison(self, tmp_path):
        out = tmp_path / "n"
        rc = main(
            [
                "nwave",
                "--dx",
                "0.1",
                "--x-left",
                "-30",
                "--x-right",
                "15",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        header, rows = read_rows(out / "nwave_diagnostics.csv")
        assert header == ["variant", "min", "max", "positive_mass", "negative_mass", "mass"]
        by_variant = {r[0]: [float(v) for v in r[1:]] for r in rows}
        eo, mlf = by_variant["eo"], by_variant["mlf"]
        assert eo[0] < -1e-3 and eo[1] > 1e-3
        assert abs(eo[3]) > abs(mlf[3])
        assert abs(eo[4] - 0.15) <= 1e-8 and abs(mlf[4] - 0.15) <= 1e-8
        assert os.path.exists(out / "snapshots_eo.csv")
        assert os.path.exists(out / "snapshots_mlf.csv")


class TestSelfconvCommand:
    def test_differences_decrease(self, tmp_path):
        out = tmp_path / "s"
        rc = main(
            [
                "selfconv",
                "--x-left",
                "-20",
                "--x-right",
                "20",
                "--dx-list",
                "0.4,0.2",
                "--t-check",
                "0.5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        header, rows = read_rows(out / "selfconv.csv")
        assert header == ["dx_fine", "dx_coarse", "l1_diff", "ratio"]
        assert len(rows) == 1
        assert float(rows[0][2]) > 0.0

    def test_file_initial_rejected(self, tmp_path):
        rc = main(
            ["selfconv", "--initial-data", "file:whatever.txt", "--out", str(tmp_path)]
        )
        assert rc == 2


class TestProfileCommand:
    def test_samples_written(self, tmp_path):
        out = tmp_path / "p"
        rc = main(
            [
                "profile",
                "--dx",
                "0.5",
                "--x-left",
                "-20",
                "--x-right",
                "20",
                "--t-end",
                "10",
                "--snapshot-times",
                "1,10",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        _, rows = read_rows(out / "profile.csv")
        assert {float(r[0]) for r in rows} == {1.0, 10.0}
        total = 0.5 * sum(float(r[2]) for r in rows if float(r[0]) == 10.0)
        assert total == pytest.approx(0.15, abs=1e-3)
        manifest = read(out / "manifest.txt")
        assert "profile_viscosity" in manifest

    def test_continuum_flag_changes_viscosity(self, tmp_path):
        args = [
            "profile",
            "--dx",
            "0.5",
            "--x-left",
            "-10",
            "--x-right",
            "10",
            "--t-end",
            "1",
            "--snapshot-times",
            "1",
        ]
        out_d = tmp_path / "d"
        out_c = tmp_path / "c"
        assert main(args + ["--out", str(out_d)]) == 0
        assert main(args + ["--out", str(out_c), "--continuum"]) == 0
        get = lambda text, key: [
            line for line in text.splitlines() if line.startswith(key)
        ][0]
        vd = float(get(read(out_d / "manifest.txt"), "profile_viscosity").split("=")[1])
        vc = float(get(read(out_c / "manifest.txt"), "profile_viscosity").split("=")[1])
        assert vc == pytest.approx(0.03)
        assert vd < vc


class TestCheckCommand:
    def test_default_seed_passes(self, tmp_path, capsys):
        rc = main(["check", "--cases", "5", "--out", str(tmp_path / "chk")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all suites passed" in out
        assert "kernel_closed_forms" in out

    def test_replay_single_case(self, tmp_path, capsys):
        payload = {
            "suite": "series_bound",
            "case": {"a": 0.5, "phi": math.pi, "n": 10},
        }
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(payload))
        rc = main(["check", "--replay", str(path), "--out", str(tmp_path / "chk")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "replay series_bound: pass" in out

    def test_failure_serializes_replay_case(self, tmp_path, capsys, monkeypatch):
        from augburgers import cli as cli_mod

        def gen(rng, count):
            yield {"value": 42}

        def check(case):
            return case["value"] != 42, "forced failure"

        monkeypatch.setattr(
            cli_mod, "_SUITES", {"forced": (gen, check, 1)}, raising=True
        )
        out = tmp_path / "chk"
        rc = main(["check", "--out", str(out)])
        assert rc == 1
        replay_path = out / "replay.json"
        assert replay_path.exists()
        capsys.readouterr()
        rc = main(["check", "--replay", str(replay_path), "--out", str(out)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


def test_config_items_render_roundtrip():
    cfg = ExperimentConfig()
    rendered = dict(cfg.items())
    assert rendered["nu"] == "0.01"
    assert rendered["snapshot_times"] == "100,1000,10000"
