import json
import os
import subprocess
import sys
import time

import pytest

from fbmchaos import cli


def run(tmp_path, *argv):
    return cli.main(list(argv) + ["--out", str(tmp_path)])


class TestConstantsCommand:
    def test_writes_results_and_manifest(self, tmp_path):
        assert run(tmp_path, "constants") == 0
        rep = json.loads((tmp_path / "constants.json").read_text())
        assert rep["experiment"] == "constants"
        assert all("pass" in r or "H" in r for r in rep["rows"])
        man = json.loads((tmp_path / "constants.manifest.json").read_text())
        assert man["config"]["command"] == "constants"
        assert "numpy" in man["versions"]

    def test_brownian_anchor_row(self, tmp_path):
        run(tmp_path, "constants")
        rep = json.loads((tmp_path / "constants.json").read_text())
        row = next(r for r in rep["rows"] if r["H"] == 0.5)
        assert row["sigma2"] == pytest.approx(1.0, abs=1e-6)
        assert row["sigma2_tilde"] == pytest.approx(0.5, abs=1e-6)
        assert row["fclt_C"] == pytest.approx(0.5, abs=1e-6)

    def test_identity_mode(self, tmp_path):
        assert run(tmp_path, "constants", "--identity") == 0
        rep = json.loads((tmp_path / "constants.json").read_text())
        assert rep["experiment"] == "constant-identity"
        assert all(r["pass"] for r in rep["rows"])

    def test_csv_projection(self, tmp_path):
        run(tmp_path, "constants", "--csv")
        lines = (tmp_path / "constants.csv").read_text().splitlines()
        assert lines[0].startswith("H,")
        assert len(lines) == 5


class TestDeterminism:
    def test_identical_config_identical_bytes(self, tmp_path):
        run(tmp_path / "a", "verify-moment", "--which", "covariance")
        run(tmp_path / "b", "verify-moment", "--which", "covariance")
        ra = (tmp_path / "a" / "verify-moment.json").read_bytes()
        rb = (tmp_path / "b" / "verify-moment.json").read_bytes()
        assert ra == rb

    def test_thread_count_invariance(self, tmp_path):
        run(tmp_path / "a", "verify-moment", "--which", "levy-area",
            "--replicas", "500", "--threads", "1")
        run(tmp_path / "b", "verify-moment", "--which", "levy-area",
            "--replicas", "500", "--threads", "3")
        ra = (tmp_path / "a" / "verify-moment.json").read_bytes()
        rb = (tmp_path / "b" / "verify-moment.json").read_bytes()
        assert ra == rb
        # an 8,192-point grid: 40 replicas make one to three chunks
        fclt = ["verify-fclt", "--m", "6", "--n-sub", "128",
                "--replicas", "40"]
        results = set()
        for i, threads in enumerate((["--threads", "1"], ["--threads", "2"],
                                     ["--threads", "3"], [])):
            run(tmp_path / f"fclt{i}", *fclt, *threads)
            results.add((tmp_path / f"fclt{i}" / "verify-fclt.json")
                        .read_bytes())
        assert len(results) == 1


class TestConfigHandling:
    def test_config_file_applies(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# comment\nwhich = covariance\nseed = 7\n")
        assert run(tmp_path, "verify-moment", "--config", str(cfg)) == 0
        man = json.loads(
            (tmp_path / "verify-moment.manifest.json").read_text())
        assert man["config"]["seed"] == 7
        assert man["seed"] == 7

    def test_manifest_records_the_per_which_default_seed(self, tmp_path):
        assert run(tmp_path, "verify-moment", "--which", "covariance") == 0
        man = json.loads(
            (tmp_path / "verify-moment.manifest.json").read_text())
        assert man["config"]["seed"] is None
        assert man["seed"] == 404

    @pytest.mark.parametrize("argv, threads", [
        (["verify-fclt", "--m", "3", "--replicas", "20"], None),
        (["verify-moment", "--which", "levy-area", "--replicas", "50"], None),
        (["verify-moment", "--which", "levy-area", "--replicas", "50",
          "--threads", "3"], 3),
    ])
    def test_manifest_records_the_resolved_thread_count(self, tmp_path, argv,
                                                        threads):
        from fbmchaos import experiments

        assert run(tmp_path, *argv) == 0
        man = json.loads(
            (tmp_path / f"{argv[0]}.manifest.json").read_text())
        got = man["config"]["threads"]
        assert isinstance(got, int) and got >= 1
        assert got == (threads or experiments.default_threads())

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("which = covariance\nseed = 7\n")
        run(tmp_path, "verify-moment", "--config", str(cfg), "--seed", "9")
        man = json.loads(
            (tmp_path / "verify-moment.manifest.json").read_text())
        assert man["config"]["seed"] == 9

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus = 1\n")
        assert run(tmp_path, "verify-moment", "--config", str(cfg)) == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_config_line_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("no equals sign here\n")
        assert run(tmp_path, "verify-moment", "--config", str(cfg)) == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run(tmp_path, "constants", "--config",
                   str(tmp_path / "nope.txt")) == 2

    @pytest.mark.parametrize("command", ["verify-moment",
                                         "verify-third-order"])
    def test_bad_config_choice_exits_2(self, tmp_path, capsys, command):
        # argparse checks only the flag; the config value is checked too
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("which = bogus\n")
        assert run(tmp_path, command, "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "which" in err and "bogus" in err
        assert not (tmp_path / f"{command}.json").exists()

    @pytest.mark.parametrize("command, line", [
        ("simulate", "hurst = abc"), ("simulate", "m = 4.5"),
        ("constants", "identity = yes")])
    def test_mistyped_config_value_exits_2(self, tmp_path, capsys, command,
                                           line):
        # config values are converted by the option's type, as flags are
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        assert run(tmp_path, command, "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    def test_config_float_option_from_integer_text(self, tmp_path):
        # "p = 2" resolves to 2.0, as "--p 2" does
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("p = 2\n")
        assert run(tmp_path, "pvar", "--config", str(cfg)) == 0
        rep = json.loads((tmp_path / "pvar.json").read_text())
        assert rep["params"]["p"] == 2.0 and isinstance(rep["params"]["p"],
                                                        float)

    def test_config_key_without_flag_exits_2(self, tmp_path):
        # constants has no --seed, so a config file cannot set one either
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 3\n")
        assert run(tmp_path, "constants", "--config", str(cfg)) == 2

    def test_bad_choice_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "verify-moment", "--which", "bogus")
        assert exc.value.code == 2

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "envout"))
        assert cli.main(["pvar"]) == 0
        assert (tmp_path / "envout" / "pvar.json").exists()


class TestOtherCommands:
    def test_simulate_writes_path_csv(self, tmp_path):
        assert run(tmp_path, "simulate", "--m", "4", "--seed", "3") == 0
        lines = (tmp_path / "path.csv").read_text().splitlines()
        assert len(lines) == 2 + 2 ** 4  # header + 17 grid rows

    @pytest.mark.parametrize("command, defaults", [
        ("simulate", {"hurst": 0.4, "d": 2, "m": 8, "refine": 1, "seed": 0,
                      "replica": 0}),
        ("lift", {"hurst": 0.4, "d": 2, "m": 6, "refine": 4, "seed": 0,
                  "replica": 0, "level3": False}),
    ])
    def test_default_params(self, tmp_path, command, defaults):
        # the resolved options are written into the results bytes
        assert run(tmp_path, command) == 0
        rep = json.loads((tmp_path / f"{command}.json").read_text())
        assert rep["params"] == defaults

    def test_lift_levels(self, tmp_path):
        assert run(tmp_path, "lift", "--m", "3", "--level3") == 0
        rep = json.loads((tmp_path / "lift.json").read_text())
        assert [r["level"] for r in rep["rows"]] == [1, 2, 3]

    def test_pvar_sandwich(self, tmp_path):
        assert run(tmp_path, "pvar", "--points", "4", "--seed", "5") == 0
        rep = json.loads((tmp_path / "pvar.json").read_text())
        vals = {r["norm"]: r["value"] for r in rep["rows"]}
        assert vals["tilde_Vp"] <= vals["Vp"] + 1e-12
        assert vals["Vp"] <= vals["pvar"] + 1e-12

    def test_third_order_scaling_at_the_brownian_anchor(self, tmp_path):
        # at H = 1/2 the lag decay is 0 beyond lag 0, where the bound asks
        # the covariances to vanish to round-off instead of fitting C
        assert run(tmp_path, "verify-third-order", "--which", "scaling",
                   "--hurst", "0.5") == 0
        rep = json.loads((tmp_path / "verify-third-order.json").read_text())
        assert len(rep["rows"]) == 9
        assert all(r["bound_pass"] and 0 < r["C_fit"] < 10
                   for r in rep["rows"])

    def test_tight_tol_is_answered_quickly(self, tmp_path):
        # the series tails are closed forms with a proven bound near 1e-17
        start = time.perf_counter()
        assert run(tmp_path, "constants", "--tol", "1e-13") == 0
        assert time.perf_counter() - start < 1.0
        rep = json.loads((tmp_path / "constants.json").read_text())
        assert rep["pass"] and all(r["K"] == 32 for r in rep["rows"])

    def test_fclt_at_the_brownian_anchor(self, tmp_path):
        # tilde_rho(i) = 0 for i >= 1 at H = 1/2, exactly, at every lag
        assert run(tmp_path, "verify-fclt", "--hurst", "0.5", "--replicas",
                   "20", "--m", "3") == 0
        rep = json.loads((tmp_path / "verify-fclt.json").read_text())
        row = next(r for r in rep["rows"]
                   if r["check"] == "converged-vs-limit")
        assert row["oracle"] == 0.25
        assert row["estimate"] == 0.25
        assert row["rel_dev"] == 0.0

    def test_failed_invariant_exits_1(self, tmp_path, monkeypatch, capsys):
        from fbmchaos import experiments

        def broken(tol=1e-6):
            return {"experiment": "constants", "params": {},
                    "rows": [{"check": "anchor", "pass": False}],
                    "pass": False}

        monkeypatch.setattr(experiments, "constants_experiment", broken)
        assert run(tmp_path, "constants") == 1
        assert "FAILED invariant constants/anchor" in capsys.readouterr().err


class TestRefusals:
    def test_divergence_error_exits_2(self, tmp_path, monkeypatch, capsys):
        from fbmchaos import experiments
        from fbmchaos.errors import DivergenceError

        def diverging(**kwargs):
            raise DivergenceError("state became non-finite", step=3)

        monkeypatch.setattr(experiments, "rde_demo_experiment", diverging)
        assert run(tmp_path, "rde-demo") == 2
        err = capsys.readouterr().err
        assert err.strip() == "numerical error: state became non-finite"

    def test_negative_seed_exits_2(self, tmp_path):
        assert run(tmp_path, "simulate", "--seed", "-1") == 2

    def test_zero_replicas_exits_2(self, tmp_path):
        assert run(tmp_path, "verify-fclt", "--replicas", "0") == 2

    @pytest.mark.parametrize("which", ["levy-area", "growth"])
    def test_verify_moment_zero_replicas_exits_2(self, tmp_path, which):
        assert run(tmp_path, "verify-moment", "--which", which,
                   "--replicas", "0") == 2
        assert not (tmp_path / "verify-moment.json").exists()

    @pytest.mark.parametrize("argv", [
        ["verify-third-order", "--which", "scaling", "--hurst", "0.2"],
        ["young-check", "--hurst", "0.9"],
        ["verify-moment", "--which", "levy-area", "--threads", "0"],
        ["verify-fclt", "--threads", "-1"],
        ["verify-fclt", "--replicas", "1"],
        ["verify-moment", "--which", "levy-area", "--replicas", "1"],
        ["young-check", "--cases", "0"],
    ])
    def test_out_of_domain_options_exit_2(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / f"{argv[0]}.json").exists()

    @pytest.mark.parametrize("argv", [["pvar", "--points", "6"],
                                      ["simulate", "--m", "15"],
                                      ["constants", "--tol", "1e-15"]])
    def test_capacity_error_exits_2_with_its_own_label(self, tmp_path,
                                                       capsys, argv):
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("capacity error: ") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / f"{argv[0]}.json").exists()

    @pytest.mark.parametrize("flags", [["--replicas", "5"], ["--threads", "9"],
                                       ["--threads", "2"]])
    def test_unsampled_verify_moment_refuses_sampling_options(
            self, tmp_path, capsys, flags):
        assert run(tmp_path, "verify-moment", "--which", "covariance",
                   *flags) == 2
        err = capsys.readouterr().err
        assert "draws no samples" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "verify-moment.json").exists()
        assert run(tmp_path, "verify-moment", "--which", "covariance",
                   "--threads", "1") == 0

    def test_package_exports_the_error_base(self):
        import fbmchaos
        from fbmchaos.errors import FbmchaosError

        assert fbmchaos.FbmchaosError is FbmchaosError
        assert "FbmchaosError" in fbmchaos.__all__

    def test_consistency_error_exits_2_with_its_own_label(
            self, tmp_path, monkeypatch, capsys):
        from fbmchaos import experiments
        from fbmchaos.errors import (ConsistencyError, DomainError,
                                     FbmchaosError)

        for cls, parent in ((ConsistencyError, RuntimeError),
                            (DomainError, ValueError)):
            assert issubclass(cls, FbmchaosError) and issubclass(cls, parent)

        def inconsistent(tol=1e-6):
            raise ConsistencyError("bookkeeping mismatch")

        monkeypatch.setattr(experiments, "constants_experiment", inconsistent)
        assert run(tmp_path, "constants") == 2
        err = capsys.readouterr().err
        assert err.strip() == "consistency error: bookkeeping mismatch"


class TestImport:
    def test_package_import_loads_no_scipy(self):
        # scipy is imported only by the functions that call it
        import fbmchaos

        src = os.path.dirname(os.path.dirname(fbmchaos.__file__))
        out = subprocess.run(
            [sys.executable, "-c", "import sys, fbmchaos; print(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"


# the package's exports before the unused library code was deleted, less
# the deleted names and RefinementError (nothing raises it since tilde_rho
# has closed forms): every one must still be exported
KEPT_EXPORTS = [
    "CapacityError", "ConsistencyError", "DivergenceError", "DomainError",
    "FbmchaosError",
    "HurstModel", "SeriesConstants", "cov", "cov_rect", "rho",
    "rho_tail_bound", "tilde_rho", "series_constants",
    "SimSpec", "FbmPath", "simulate", "simulate_batch",
    "increment_cov_matrix", "dump_csv",
    "RoughLift", "IntervalSignature", "levy_areas", "level3_areas", "lift2",
    "lift3", "chen_combine",
    "CoefficientField", "RdeSolution", "linear_1d", "taylor_steps", "solve",
    "K_PATTERNS", "Q_PAIRS", "QProcesses", "SumProcess", "ThirdOrderSums",
    "admissible_assignments", "cov_K_lags", "cov_Q_pair", "exact_cov_K",
    "exact_cov_Q", "exact_second_moment_Q", "isserlis_moment",
    "q_processes", "rho_sum_bound_verify", "second_moment_K",
    "third_order_sums", "weighted_levy_sum",
    "GridFunction", "GridPartition", "Vp", "bar_Vp", "controlled_pvar",
    "discrete_young_integral", "iterated_A", "iterated_A_bound",
    "product_pvar_check", "psi_path", "tilde_Vp", "towghi_check",
]


class TestExports:
    def test_all_is_the_module_lists_concatenated(self):
        import fbmchaos
        from fbmchaos import chaos, errors, fbm, gaussian, lift, rde, young

        modules = (errors, gaussian, fbm, lift, rde, chaos, young)
        assert fbmchaos.__all__ == [name for module in modules
                                    for name in module.__all__]
        assert len(set(fbmchaos.__all__)) == len(fbmchaos.__all__)
        for module in modules:
            for name in module.__all__:
                assert getattr(fbmchaos, name) is getattr(module, name)

    def test_kept_exports_survive(self):
        import fbmchaos

        assert set(KEPT_EXPORTS) <= set(fbmchaos.__all__)
