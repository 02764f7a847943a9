import argparse
import json
import math
import os
import resource
import string
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from augburgers import checks, cli
from augburgers.cli import ConfigError, ExperimentConfig, main, parse_config
from augburgers.grid import GridFunction, norm


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def read_rows(path):
    lines = read(path).strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


QUADRATURE_KEYS = ("n_terms", "moment0", "moment1", "moment2", "stability_sum")


def manifest_keys(path):
    return {line.split(" = ", 1)[0] for line in read(path).splitlines()}


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


def _capped_python(args, timeout=10.0):
    """Run ``python *args`` on these sources, capped at 1.5 GiB of address
    space and ``timeout`` seconds."""
    import augburgers

    cap = 1536 * 2**20
    src = os.path.dirname(os.path.dirname(os.path.abspath(augburgers.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


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

    @pytest.mark.filterwarnings("ignore:solution reached the domain boundary")
    def test_outputs_exist_with_headers(self, tmp_path):
        out = self.run_small(tmp_path, "a")
        header, rows = read_rows(out / "snapshots.csv")
        assert header == ["t", "x", "u"]
        times = sorted({float(r[0]) for r in rows})
        assert times == [0.0, 1.0, 4.0]
        header, rows = read_rows(out / "norms.csv")
        assert header == ["t", "l1", "l2", "linf", "mass"]
        assert len(rows) > 3

    @pytest.mark.filterwarnings("ignore:solution reached the domain boundary")
    def test_mass_column_constant(self, tmp_path):
        out = self.run_small(tmp_path, "a")
        _, rows = read_rows(out / "norms.csv")
        masses = [float(r[4]) for r in rows]
        assert max(abs(m - 0.15) for m in masses) <= 1e-8

    @pytest.mark.filterwarnings("ignore:solution reached the domain boundary")
    def test_rerun_byte_identical(self, tmp_path):
        out1 = self.run_small(tmp_path, "a")
        out2 = self.run_small(tmp_path, "b")
        for name in ("snapshots.csv", "norms.csv", "manifest.txt"):
            assert read(out1 / name) == read(out2 / name)

    def test_zero_initial_data_gives_zero_output(self, tmp_path):
        out = self.run_small(tmp_path, "z", ("--initial-data", "gaussian:0,1"))
        _, rows = read_rows(out / "snapshots.csv")
        assert all(float(r[2]) == 0.0 for r in rows)

    @pytest.mark.filterwarnings("ignore:solution reached the domain boundary")
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

    @pytest.mark.filterwarnings("ignore:solution reached the domain boundary")
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

    def test_large_theta_runs_in_bounded_memory(self, tmp_path):
        # theta = 1e6 means N = 184,206,808 kernel terms; the grid reads 3199.
        # The child reports its own peak RSS, VmHWM: on Linux a child's
        # ru_maxrss starts from the peak of the process that started it.
        code = (
            "import sys\n"
            "from augburgers.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as fh:\n"
            "    print([l.split()[1] for l in fh if l.startswith('VmHWM:')][0])\n"
            "sys.exit(rc)\n"
        )
        res = _capped_python(
            ["-c", code, "run", "--theta", "1e6", "--t-end", "1",
             "--snapshot-times", "1", "--out", str(tmp_path / "x")],
        )
        assert res.returncode == 0, res.stderr
        assert int(res.stdout.split()[-1]) < 100 * 1024  # kB

    def test_tiny_dx_fails_fast(self, tmp_path):
        # dx = 1e-300 asks for 3.2e302 cells, over the cap of 10^6.
        res = _capped_python(
            ["-m", "augburgers.cli", "run", "--dx", "1e-300", "--t-end", "1",
             "--snapshot-times", "1", "--out", str(tmp_path / "x")],
        )
        assert res.returncode == 2
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: dx = 1e-300"), res.stderr
        assert "1000000" in lines[0]

    def test_overflow_aborts_without_numpy_warnings(self, tmp_path):
        # u^2 overflows in the first flux evaluation; the run's own checks
        # report it, so stderr holds the abort line only.
        res = _capped_python(
            ["-m", "augburgers.cli", "run", "--initial-data", "gaussian:1e300,1",
             "--t-end", "1", "--snapshot-times", "1", "--out", str(tmp_path / "x")],
        )
        assert res.returncode == 1
        assert "RuntimeWarning" not in res.stderr
        assert res.stderr.splitlines() == [
            "run aborted: non-finite state; last good snapshot kept"
        ]

    def test_dx_must_divide_the_span(self, tmp_path, capsys):
        # 320 / 0.3 is no whole number of cells: the grid's own consistency
        # rule, reported as a config error before any output.
        out = tmp_path / "x"
        rc = main(["run", "--dx", "0.3", "--t-end", "0.01", "--snapshot-times",
                   "0.01", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: dx = 0.3") and "inconsistent grid" in err
        assert not out.exists()

    def test_cell_count_capped(self):
        # 320 / 0.00032 is exactly the cap of 10^6 cells; half that dx is over.
        assert parse_config("dx = 0.00032").dx == 0.00032
        with pytest.raises(ConfigError, match=r"^dx = 0.00016: 2e\+06 cells .* cap of 1000000"):
            parse_config("dx = 0.00016")

    def test_bad_config_exit_code(self, tmp_path, capsys):
        rc = main(["run", "--nu", "-3", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "nu" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["--x-left=-inf"], "x_left"),
            (["--x-right=inf"], "x_right"),
            (["--x-left=-1e308", "--x-right=1e308"], "x_right - x_left"),
            (["--theta", "inf"], "theta"),
            (["--t-end", "1", "--snapshot-times", "nan"], "snapshot_times"),
            (["--t-end", "1", "--snapshot-times", "1,inf"], "snapshot_times"),
            (["--t-end", "inf"], "t_end"),
            (["--nu", "inf"], "nu"),
            (["--dt-max", "inf"], "dt_max"),
            (["--initial-data", "gaussian:inf,1"], "initial_data"),
        ],
        ids=["x-left", "x-right", "span-overflow", "theta", "snapshot-nan",
             "snapshot-inf", "t-end", "nu", "dt-max", "gaussian-mass"],
    )
    def test_non_finite_is_config_error(self, tmp_path, capsys, argv, key):
        out = tmp_path / "x"
        assert main(["run", "--out", str(out), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "profile"])
    def test_snapshot_times_inside_horizon(self, tmp_path, capsys, command):
        # run and profile read snapshot_times, so they reject times past
        # t_end, the defaults (100, 1000, 10000) included.
        for extra in (["--t-end", "1", "--snapshot-times", "2"], ["--t-end", "100"]):
            argv = [command, "--out", str(tmp_path / "x"), *extra]
            assert main(argv) == 2
            assert "snapshot_times" in capsys.readouterr().err
        assert parse_config("t_end = 1\nsnapshot_times = 2\n").snapshot_times == (2.0,)


class TestRatesCommand:
    @pytest.mark.filterwarnings("ignore:solution reached the domain boundary")
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
        keys = manifest_keys(out1 / "manifest.txt")
        assert keys.issuperset(QUADRATURE_KEYS)
        assert not any(k.endswith("_n_terms") for k in keys)

    def test_no_warnings(self, tmp_path):
        # The t = 0 snapshot is left out of the profile comparison, so a
        # short run on the reference domain raises no warning at all.
        argv = ["rates", "--t-end", "1", "--snapshot-times", "1",
                "--out", str(tmp_path / "r")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0

    @pytest.mark.filterwarnings("ignore:solution reached the domain boundary")
    def test_boundary_flag_per_variant(self, tmp_path):
        # On the reference domain to t = 1 no variant reaches the edge; on
        # the short SMALL domain the memory tail reaches it in every one.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SMALL + "t_end = 10\nsnapshot_times =\n")
        runs = {
            "false": ["--t-end", "1", "--snapshot-times", "1"],
            "true": ["--config", str(cfg)],
        }
        for flag, argv in runs.items():
            out = tmp_path / flag
            assert main(["rates", *argv, "--out", str(out)]) == 0
            manifest = read(out / "manifest.txt").splitlines()
            for name, _, _ in cli._RATE_VARIANTS:
                assert f"{name}_boundary_warning = {flag}" in manifest

    def test_ignores_snapshot_times(self, tmp_path):
        # rates compares on its own time grid, so the default snapshot times
        # past a short t_end are not an error and change nothing, not even
        # the manifest and its config hash.
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["rates", "--t-end", "100", "--out", str(out1)]) == 0
        assert main(["rates", "--t-end", "100", "--snapshot-times", "100",
                     "--out", str(out2)]) == 0
        for name in ("rates.csv", "manifest.txt"):
            assert read(out1 / name) == read(out2 / name)

    @pytest.mark.filterwarnings("ignore:solution reached the domain boundary")
    def test_samples_the_wave_once_per_time(self, tmp_path, monkeypatch):
        from augburgers import analysis, profile

        calls = []
        real = profile.sample_on_grid

        def counted(wave, grid, t):
            calls.append(t)
            return real(wave, grid, t)

        monkeypatch.setattr(profile, "sample_on_grid", counted)
        monkeypatch.setattr(analysis, "sample_on_grid", counted)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SMALL + "t_end = 10\nsnapshot_times =\n")
        assert main(["rates", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
        times = cli._rates_time_grid(10.0)
        assert sorted(calls) == times
        _, rows = read_rows(tmp_path / "r" / "rates.csv")
        assert len(rows) == 3 * 3 * len(times)


class TestNwaveCommand:
    @pytest.mark.filterwarnings("ignore:solution reached the domain boundary")
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
        keys = manifest_keys(out / "manifest.txt")
        assert keys.issuperset(QUADRATURE_KEYS)
        assert keys.issuperset({"eo_boundary_warning", "mlf_boundary_warning"})


class TestSelfconvCommand:
    @pytest.mark.filterwarnings("ignore:solution reached the domain boundary")
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

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["--dx-list", "0.2,0"], "dx_list"),
            (["--t-check", "nan"], "t_check"),
            (["--t-check", "-1"], "t_check"),
            (["--t-check", "inf"], "t_check"),
            (["--dx-list", "0.3,0.15"], "dx_list"),
            (["--dx-list", "0.2"], "dx_list"),
            (["--dx-list", "0.3,0.2"], "dx_list"),
            (["--dx-list", "0.00064,0.00032,0.00016"], "dx_list"),
        ],
        ids=["dx-zero", "t-check-nan", "t-check-negative", "t-check-inf",
             "dx-not-dividing-span", "dx-one-size", "dx-not-halving",
             "dx-over-cell-cap"],
    )
    def test_bad_mesh_size_or_check_time_is_config_error(self, tmp_path, capsys, argv, key):
        # Both flags go through config parse rules, and the mesh sizes also
        # through the nesting rule of check_nested and the grid's span
        # rule, so a bad value fails before any run, with exit 2 and no
        # output directory.
        rc = main(["selfconv", *argv, "--out", str(tmp_path / "s")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "config error" in captured.err and key in captured.err
        assert not (tmp_path / "s").exists()


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
        keys = manifest_keys(out / "manifest.txt")
        assert keys.issuperset(("profile_viscosity", *QUADRATURE_KEYS))

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

    @pytest.mark.parametrize(
        "argv",
        [["--cases", "0"], ["--cases", "-3"], ["--seed", "-1"], ["--seed", "abc"]],
        ids=["cases-0", "cases-negative", "seed-negative", "seed-not-integer"],
    )
    def test_rejects_nonsense_counts_and_seeds(self, tmp_path, capsys, argv):
        rc = main(["check", "--out", str(tmp_path / "chk"), *argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert "config error" in captured.err
        assert captured.out == ""

    def test_negative_seed_rejected_by_parser(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("seed = -1")

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({}, "suite"),
            ([{"suite": "l1_contraction"}], "object"),
            ({"suite": "l1_contraction", "case": {}}, "case_seed"),
            ({"suite": "l1_contraction", "case": [1]}, "case"),
            ({"suite": "series_bound", "case": {"a": "x", "phi": 1.0, "n": 3}}, "'a'"),
            ({"suite": "series_bound", "case": {"a": 0.5, "phi": 1.0, "n": 3.0}}, "'n'"),
        ],
        ids=["empty", "list", "missing-key", "case-list", "str-value", "float-int"],
    )
    def test_malformed_replay_is_config_error(self, tmp_path, capsys, payload, key):
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(payload))
        rc = main(["check", "--replay", str(path), "--out", str(tmp_path / "chk")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err and key in err

    @pytest.mark.parametrize(
        "payload, key",
        [
            (
                {"suite": "kernel_closed_forms",
                 "case": {"dx": 1, "theta": 1, "n": 100000000000}},
                "'n'",
            ),
            ({"suite": "series_bound", "case": {"a": -1.0, "phi": 0.1, "n": 5}}, "'a'"),
            ({"suite": "lp_monotone", "case": {"case_seed": -1}}, "'case_seed'"),
        ],
        ids=["huge-kernel", "negative-a", "negative-seed"],
    )
    def test_out_of_range_replay_is_config_error(self, tmp_path, capsys, payload, key):
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(payload))
        rc = main(["check", "--replay", str(path), "--out", str(tmp_path / "chk")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "config error" in captured.err and key in captured.err
        assert "outside" in captured.err
        assert captured.out == ""

    def test_replay_ranges_cover_generated_cases(self):
        rng = np.random.default_rng(3)
        for name, (generate, _, _, ranges) in checks.SUITES.items():
            for _ in range(200):
                case = generate(rng, ranges)
                assert set(case) == set(ranges), name
                for key, val in case.items():
                    lo, hi = ranges[key]
                    assert type(val) is type(lo) is type(hi), (name, key)
                    assert lo <= val <= hi, (name, key, val)

    def test_l1_distances_match_exact_norm(self):
        # The batched per-step L1 distances of l1_contraction against
        # grid.norm of each case's difference, step by step.
        problems = [checks._scaled_pair({"case_seed": s}) for s in range(6)]
        dx = np.array([config.grid.dx for _, _, config in problems])
        for _, block in checks._stepped(problems):
            got = checks._l1_distances(block.u[:, 0] - block.u[:, 1], dx)
            for i, (_, _, config) in enumerate(problems):
                n = config.grid.num_cells
                diff = GridFunction(config.grid, block.u[i, 0, :n] - block.u[i, 1, :n])
                want = norm(diff, 1)
                assert abs(got[i] - want) <= 1e-14 * want

    def test_run_suite_passes_every_suite(self):
        rng = np.random.default_rng(0)
        for name in checks.SUITES:
            assert checks.run_suite(name, rng, 3) == [], name

    def test_failure_serializes_replay_case(self, tmp_path, capsys, monkeypatch):
        def generate(rng, ranges):
            return {"value": 42}

        def check(cases):
            return [(case["value"] != 42, "forced failure") for case in cases]

        monkeypatch.setattr(
            checks, "SUITES", {"forced": (generate, check, 1, {"value": (0, 99)})},
            raising=True,
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


# A valid raw value, other than the default, for every config key.
FLAG_VALUES = {
    "nu": "0.5",
    "c": "0.25",
    "theta": "2",
    "dx": "0.5",
    "x_left": "-10",
    "x_right": "10",
    "flux": "mlf",
    "corrector_mode": "naive",
    "tail_tol": "1e-3",
    "safety": "0.5",
    "dt_max": "0.25",
    "t_end": "7",
    "snapshot_times": "1,2",
    "initial_data": "gaussian:1,2",
    "seed": "7",
    "output_dir": "elsewhere",
}


@pytest.mark.parametrize("key", list(cli._FIELDS))
def test_every_key_has_a_flag(key):
    parser = argparse.ArgumentParser()
    cli._add_common(parser)
    raw = FLAG_VALUES[key]
    cfg = cli._config_from_args(parser.parse_args([f"{cli._flag(key)}={raw}"]))
    expected = getattr(parse_config(f"{key} = {raw}"), key)
    assert getattr(cfg, key) == expected != getattr(ExperimentConfig(), key)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _spec(head, values):
    return head + ":" + ",".join(cli._render(v) for v in values)


_INITIAL_SPECS = st.one_of(
    st.just("sines"),
    st.tuples(_finite(-1e3, 1e3), _finite(1e-3, 1e3)).map(lambda v: _spec("gaussian", v)),
    st.tuples(
        _finite(-1e3, 1e3),
        _finite(-1e3, 1e3),
        st.lists(_finite(-1e3, 1e3), min_size=4, max_size=4, unique=True).map(sorted),
    ).map(lambda v: _spec("boxpair", (v[0], *v[2][:2], v[1], *v[2][2:]))),
    st.text(string.ascii_letters + "/._-", min_size=1, max_size=12).map(
        lambda path: "file:" + path
    ),
)


@st.composite
def valid_configs(draw):
    nu, c = draw(_finite(0.0, 10.0)), draw(_finite(0.0, 10.0))
    assume(nu + c > 0.0)
    x_left, dx = draw(_finite(-1e3, 1e3)), draw(_finite(1e-3, 1e3))
    return ExperimentConfig(
        nu=nu,
        c=c,
        theta=draw(_finite(1e-6, 1e3)),
        dx=dx,
        x_left=x_left,
        x_right=x_left + dx * draw(st.integers(2, 10**6)),
        flux=draw(st.sampled_from(["eo", "mlf"])),
        corrector_mode=draw(st.sampled_from(["corrected", "naive"])),
        tail_tol=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        safety=draw(st.floats(0.0, 1.0, exclude_min=True)),
        dt_max=draw(_finite(1e-9, 1e9)),
        t_end=draw(_finite(0.0, 1e9)),
        snapshot_times=tuple(sorted(draw(st.lists(_finite(-1e9, 1e9), max_size=4)))),
        initial_data=draw(_INITIAL_SPECS),
        seed=draw(st.integers(0, 2**64)),
        output_dir=draw(st.text(string.ascii_letters + string.digits + "/._-", max_size=12)),
    )


@given(valid_configs())
@settings(max_examples=200, deadline=None)
def test_config_items_parse_back(cfg):
    # The manifest writes these lines, so a manifest reads back as a config.
    text = "\n".join(f"{key} = {value}" for key, value in cfg.items())
    assert parse_config(text) == cfg


def test_config_items_render_roundtrip():
    cfg = ExperimentConfig()
    rendered = dict(cfg.items())
    assert rendered["nu"] == "0.01"
    assert rendered["snapshot_times"] == "100,1000,10000"


def test_float_csv_matches_csv_writer(tmp_path):
    import csv

    from augburgers.cli import _write_float_csv

    values = [-0.0, 5e-324, 1e-310, 1e300, 1.0 / 3.0, 0.0, -2.5, 0.1]
    blocks = [
        np.array(values[:6]).reshape(2, 3),
        np.empty((0, 3)),
        np.array(values[2:]).reshape(2, 3),
    ]
    path = tmp_path / "bulk.csv"
    _write_float_csv(str(path), ["t", "x", "u"], blocks)
    oracle = tmp_path / "oracle.csv"
    with open(oracle, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "u"])
        for block in blocks:
            for row in block:
                writer.writerow([format(float(v), ".17g") for v in row])
    assert path.read_bytes() == oracle.read_bytes()
    assert path.read_bytes().startswith(
        b"t,x,u\r\n-0,4.9406564584124654e-324,9.9999999999999694e-311\r\n"
    )


def test_runtime_never_imports_scipy(tmp_path):
    # The runtime needs NumPy only: in a fresh interpreter where every scipy
    # import raises, rates, profile and the full check suites exit 0 and no
    # scipy module is loaded.
    code = (
        "import sys\n"
        "class BlockScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError('scipy import attempted: ' + name)\n"
        "sys.meta_path.insert(0, BlockScipy())\n"
        "from augburgers.cli import main\n"
        "out = sys.argv[1]\n"
        "for argv in (\n"
        "    ['rates', '--t-end', '1', '--snapshot-times', '1', '--out', out + '/r'],\n"
        "    ['profile', '--t-end', '1', '--snapshot-times', '1', '--out', out + '/p'],\n"
        "    ['check', '--seed', '0', '--out', out + '/c'],\n"
        "):\n"
        "    assert main(argv) == 0, argv\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    )
    res = _capped_python(["-c", code, str(tmp_path)], timeout=300)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["run"],
        ["rates", "--t-end", "1", "--snapshot-times", "1"],
        ["nwave"],
        ["selfconv", "--dx-list", "0.5,0.25", "--t-check", "1"],
        ["profile"],
        ["check", "--cases", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_only_check_imports_the_suites(tmp_path, argv):
    # Each command runs in a fresh interpreter; only check may load (and so
    # compile) augburgers.checks.
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL)
    code = (
        "import sys\n"
        "from augburgers.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print('augburgers.checks' in sys.modules)\n"
    )
    res = _capped_python(
        ["-c", code, *argv, "--config", str(cfg), "--out", str(tmp_path / "o")],
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == str(argv[0] == "check")


def _drawn_cases(name, rng, count):
    generate, _, _, ranges = checks.SUITES[name]
    return [generate(rng, ranges) for _ in range(count)]


def _corner_cases():
    return [
        {"mass": m, "viscosity": a, "t": t}
        for m in (-2.0, -0.05, 0.05, 2.0)
        for a in (0.01, 3.0)
        for t in (0.5, 10.0)
    ]


class TestProfileMassQuadrature:
    """The profile_mass suite's Gauss-Legendre rule against scipy's quad."""

    @staticmethod
    def quad_oracle(wave, t, lim):
        from scipy.integrate import quad

        from augburgers import profile

        return quad(
            lambda x: profile.eval(wave, t, x), -lim, lim, limit=400, epsabs=1e-10
        )[0]

    @pytest.mark.parametrize(
        "case",
        _corner_cases()
        + _drawn_cases("profile_mass", np.random.default_rng(11), 50),
    )
    def test_matches_quad(self, case):
        from augburgers import analysis, profile

        wave = profile.AsymptoticProfile(mass=case["mass"], viscosity=case["viscosity"])
        t = case["t"]
        lim = 40.0 * math.sqrt(2.0 * wave.viscosity * t) + 30.0
        val = analysis.profile_integral(wave, t, lim)
        assert val is not None
        assert abs(val - self.quad_oracle(wave, t, lim)) <= 1e-9
        ((ok, message),) = checks._check_profile_mass([case])
        assert ok, message

    @pytest.mark.parametrize(
        "fake_eval",
        [
            # Noise: no panel is ever accepted, so the open panels multiply.
            lambda wave, t, x: np.random.default_rng(0).random(np.shape(x)),
            # A unit jump: only the panel holding it stays open, level by level.
            lambda wave, t, x: np.where(np.asarray(x) > 0.3, 1.0, 0.0),
        ],
        ids=["noise", "jump"],
    )
    def test_unresolvable_wave_fails_without_hanging(self, monkeypatch, fake_eval):
        from augburgers import profile

        monkeypatch.setattr(profile, "eval", fake_eval)
        ((ok, message),) = checks._check_profile_mass([{"mass": 1.0, "viscosity": 1.0, "t": 1.0}])
        assert not ok
        assert "did not converge" in message
