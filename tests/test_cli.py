"""Command-line interface: subcommands, config precedence, exit codes."""

import json

import numpy as np
import pytest

from collsim.allocator import pilot_block_variance
from collsim.cli import main
from collsim.emulator import GpEmulator
from collsim.estimators import estimate_mu, prediction_interval
from collsim.experiments import ExperimentConfig, build_plan, m2_variance_inputs
from collsim.population import init_population
from collsim.rng import derive_seed
from collsim.simulator import DEFAULT_SCHEDULE, run_plan


@pytest.fixture(scope="module")
def emulator_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("emu")
    rc = main(
        [
            "train-emulator",
            "--out",
            str(out),
            "--points-per-slice",
            "10",
            "--train-realisations",
            "150",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    return out / "emulator.json"


class TestSimulate:
    def test_writes_outputs_and_sidecars(self, tmp_path, capsys):
        rc = main(["simulate", "--out", str(tmp_path), "--n-accounts", "30", "--seed", "2"])
        assert rc == 0
        for name in ("population.csv", "plan.csv", "curve.csv", "collections_summary.json", "report.json"):
            assert (tmp_path / name).exists()
            meta = json.loads((tmp_path / (name + ".meta.json")).read_text())
            assert meta["seed"] == 2 and "config_hash" in meta and "tool_version" in meta
        assert "estimated total collections" in capsys.readouterr().out
        # curve is plot-ready: month, mean, lower, upper with two-decimal money
        lines = (tmp_path / "curve.csv").read_text().strip().splitlines()
        assert lines[0] == "month,mean,lower,upper"
        assert len(lines) == 85

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--out", str(a), "--n-accounts", "20", "--seed", "5"]) == 0
        assert main(["simulate", "--out", str(b), "--n-accounts", "20", "--seed", "5"]) == 0
        assert (a / "curve.csv").read_text() == (b / "curve.csv").read_text()


class TestConfigPrecedence:
    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_accounts": 10, "seed": 1}))
        c = ExperimentConfig.from_file(cfg, seed=9)
        assert c.n_accounts == 10  # from file
        assert c.seed == 9  # flag wins

    def test_cli_uses_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_accounts": 15}))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "4"])
        assert rc == 0
        pop_lines = (tmp_path / "o" / "population.csv").read_text().strip().splitlines()
        assert len(pop_lines) == 16


class TestErrors:
    def test_bad_args_exit_nonzero(self, tmp_path, capsys):
        rc = main(["interval", "--out", str(tmp_path), "--method", "M2", "--n-accounts", "10"])
        assert rc == 1  # M2 without an emulator
        assert "error:" in capsys.readouterr().err

    def test_infeasible_protect_problem(self, tmp_path, capsys):
        prob = tmp_path / "prob.json"
        prob.write_text(
            json.dumps({"budget": 10, "portfolios": [{"sigma_independent": [100], "cap": 1}]})
        )
        rc = main(["protect", "--out", str(tmp_path), "--problem", str(prob)])
        assert rc == 1
        assert "Slater" in capsys.readouterr().err

    def test_zero_threads_rejected(self, tmp_path, capsys):
        rc = main(["simulate", "--out", str(tmp_path), "--n-accounts", "10", "--threads", "0"])
        assert rc == 1
        assert "threads must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "population.csv").exists()


class TestProtect:
    def test_problem_file_solve(self, tmp_path):
        prob = tmp_path / "prob.json"
        prob.write_text(
            json.dumps(
                {
                    "budget": 500,
                    "portfolios": [
                        {"sigma_independent": [30, 40], "sigma_block": 60, "block_size": 3, "cap": 900},
                        {"sigma_independent": [100, 20], "cap": 700},
                    ],
                }
            )
        )
        rc = main(["protect", "--out", str(tmp_path), "--problem", str(prob)])
        assert rc == 0
        doc = json.loads((tmp_path / "protect_report.json").read_text())
        assert "active_set" in doc and "kkt" in doc


class TestOracleCheck:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        rc = main(["oracle-check", "--out", str(tmp_path), "--instances", "15", "--seed", "1"])
        assert rc == 0
        doc = json.loads((tmp_path / "oracle_check.json").read_text())
        assert doc["passed"] and doc["instances"] == 15
        assert "15/15" in capsys.readouterr().out


class TestEmulatorCommands:
    def test_train_writes_artifacts(self, emulator_file):
        out = emulator_file.parent
        for name in ("design.csv", "training.csv", "emulator.json", "metrics.json"):
            assert (out / name).exists()

    def test_validate(self, emulator_file, tmp_path, capsys):
        rc = main(
            [
                "validate-emulator",
                "--out",
                str(tmp_path),
                "--emulator",
                str(emulator_file),
                "--points-per-slice",
                "6",
                "--train-realisations",
                "150",
                "--seed",
                "8",
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "validation.json").read_text())
        assert "pooled" in doc and "sd_correlation" in doc["pooled"]

    def test_allocate(self, emulator_file, tmp_path, capsys):
        rc = main(
            [
                "allocate",
                "--out",
                str(tmp_path),
                "--n-accounts",
                "40",
                "--seed",
                "2",
                "--emulator",
                str(emulator_file),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "allocation_report.json").read_text())
        assert 0.0 < doc["variance_reduction"] < 1.0
        assert "variance reduction" in capsys.readouterr().out

    def test_interval_m2(self, emulator_file, tmp_path):
        rc = main(
            [
                "interval",
                "--out",
                str(tmp_path),
                "--n-accounts",
                "40",
                "--seed",
                "2",
                "--plan",
                "optimized",
                "--method",
                "M2",
                "--emulator",
                str(emulator_file),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "interval.json").read_text())
        assert doc["lower"] < doc["mu_total"] < doc["upper"]

    @pytest.mark.parametrize("plan, budget", [("optimized", None), ("equal", None), ("equal", 200)])
    def test_interval_m2_matches_shared_assembly(self, emulator_file, tmp_path, plan, budget):
        # budget 200 gives every unit one realisation, so the block falls back to its pilot variance
        argv = ["interval", "--out", str(tmp_path), "--n-accounts", "200", "--seed", "2", "--plan", plan]
        argv += ["--method", "M2", "--emulator", str(emulator_file)]
        if budget:
            argv += ["--budget", str(budget)]
        assert main(argv) == 0
        doc = json.loads((tmp_path / "interval.json").read_text())

        config = ExperimentConfig(
            n_accounts=200, seed=2, plan_mode=plan, interval_method="M2", budget=budget
        )
        emulator = GpEmulator.from_json(emulator_file)
        pop = init_population(200, (1.0,), seed=derive_seed(2, "pop"))
        pilot_seed = derive_seed(2, "pilot")
        int_plan, plan_inputs = build_plan(pop, config, emulator, pilot_seed)
        output = run_plan(pop, int_plan, seed=derive_seed(2, "estimate"))
        inputs = m2_variance_inputs(pop, config, emulator, output, pilot_seed, plan_inputs)
        interval = prediction_interval(estimate_mu(output, int_plan, pop).total, inputs, int_plan, pop)
        assert (doc["lower"], doc["upper"]) == (interval.lower, interval.upper)

        blk = output.block_totals[0]
        assert len(pop.portfolios[0].dependent_ids) >= 2
        if len(blk) >= 2:
            assert inputs.sigma2_block[0] == np.var(blk, ddof=1)
        else:
            pilot = pilot_block_variance(pop, 0, DEFAULT_SCHEDULE, n_pilot=config.n_pilot, seed=pilot_seed)
            assert inputs.sigma2_block[0] == pilot


class TestCoverageStudy:
    def test_small_study_with_checkpoint_resume(self, tmp_path):
        args = ["coverage-study", "--out", str(tmp_path), "--n-accounts", "25", "--seed", "6"]
        rc = main(args + ["--repetitions", "3"])
        assert rc == 0
        doc = json.loads((tmp_path / "coverage_report.json").read_text())
        assert doc["repetitions"] == 3
        assert 0.0 <= doc["coverage"] <= 1.0
