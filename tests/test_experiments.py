"""Experiment harnesses: seed-domain separation, checkpointing, protection runs."""

import json

import numpy as np
import pytest

import collsim.experiments
from collsim.allocator import constrained_plan_for_population, constrained_problem_for_population, round_plan
from collsim.emulator import fit_gp, generate_training_data, sliced_lhd
from collsim.estimators import estimator_variance
from collsim.experiments import (
    ExperimentConfig,
    build_plan,
    coverage_study,
    protect_experiment,
    reference_sigmas,
)
from collsim.constrained import active_set_solve
from collsim.population import init_population
from collsim.rng import derive_seed
from collsim.simulator import RealisationPlan, run_plan


class TestConfig:
    def test_default_budget_is_25_per_account(self):
        assert ExperimentConfig(n_accounts=200).effective_budget == 5000.0
        assert ExperimentConfig(n_accounts=200, budget=700.0).effective_budget == 700.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(plan_mode="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(interval_method="M3")
        with pytest.raises(ValueError):
            ExperimentConfig(repetitions=0)
        with pytest.raises(ValueError, match="caps"):
            ExperimentConfig(plan_mode="constrained")
        for threads in (0, -2):
            with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
                ExperimentConfig(threads=threads)

    def test_config_hash_changes_with_content(self):
        a = ExperimentConfig(seed=1)
        b = ExperimentConfig(seed=2)
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == ExperimentConfig(seed=1).config_hash()

    def test_from_file_names_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_accounts": 10, "n_acounts": 5, "sed": 1}))
        with pytest.raises(ValueError, match=r"cfg\.json: unknown config keys \['n_acounts', 'sed'\]"):
            ExperimentConfig.from_file(path)
        path.write_text(json.dumps({"n_accounts": 10, "portfolio_probs": [0.5, 0.5]}))
        assert ExperimentConfig.from_file(path, seed=3) == ExperimentConfig(
            n_accounts=10, portfolio_probs=(0.5, 0.5), seed=3
        )


class TestSeedDomains:
    def test_truth_independent_of_estimation(self):
        # the truth realisation must not share draws with the estimation run
        cfg = ExperimentConfig(n_accounts=20, seed=3)
        pop = init_population(20, (1.0,), seed=derive_seed(3, "pop", 0))
        est = run_plan(pop, RealisationPlan.equal(20, 1), seed=derive_seed(3, "estimate", 0))
        tru = run_plan(pop, RealisationPlan.equal(20, 1), seed=derive_seed(3, "truth", 0))
        assert not all(np.array_equal(a, b) for a, b in zip(est.totals, tru.totals))


class TestCoverageStudy:
    def test_reproducible(self):
        cfg = ExperimentConfig(name="t", n_accounts=20, repetitions=4, seed=5)
        a = coverage_study(cfg)
        b = coverage_study(cfg)
        assert a["coverage"] == b["coverage"]
        assert a["mean_length"] == b["mean_length"]

    def test_checkpoint_resume(self, tmp_path, monkeypatch):
        # run 100 reps so a checkpoint is cut, then resume into 103
        cfg100 = ExperimentConfig(name="t", n_accounts=5, repetitions=100, seed=5)
        ck = tmp_path / "ck.json"
        coverage_study(cfg100, checkpoint_path=ck)
        assert ck.exists()
        saved = json.loads(ck.read_text())
        assert len(saved["records"]) == 100
        cfg103 = ExperimentConfig(name="t", n_accounts=5, repetitions=103, seed=5)
        done = []
        resumed = coverage_study(cfg103, checkpoint_path=ck, progress=lambda k, n: done.append(k))
        assert done == [101, 102, 103]  # repetitions 1-100 came from the 100-repetition study
        uninterrupted = coverage_study(cfg103)
        for report in (resumed, uninterrupted):
            report.pop("elapsed_seconds")
        assert resumed == uninterrupted
        # a shorter study takes the first records of a longer checkpoint
        cfg40 = ExperimentConfig(name="t", n_accounts=5, repetitions=40, seed=5)
        short = coverage_study(cfg40, checkpoint_path=ck, progress=lambda k, n: done.append(k))
        assert done == [101, 102, 103] and short["repetitions"] == 40
        # a different config must not resume from this checkpoint
        cfg_other = ExperimentConfig(name="t", n_accounts=6, repetitions=3, seed=5)
        out = coverage_study(cfg_other, checkpoint_path=ck)
        assert out["repetitions"] == 3
        # nor may another tool version
        done.clear()
        monkeypatch.setattr(collsim.experiments, "__version__", "0.0.0-other")
        coverage_study(cfg100, checkpoint_path=ck, progress=lambda k, n: done.append(k))
        assert done == list(range(1, 101))

    def test_resume_from_atomic_checkpoint_gives_same_report(self, tmp_path):
        ck = tmp_path / "ck.json"
        cfg = ExperimentConfig(name="t", n_accounts=5, repetitions=103, seed=5)
        first = coverage_study(cfg, checkpoint_path=ck)
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]  # no temporary file left behind
        assert len(json.loads(ck.read_text())["records"]) == 100
        done = []
        resumed = coverage_study(cfg, checkpoint_path=ck, progress=lambda k, n: done.append(k))
        assert done == [101, 102, 103]  # repetitions 1-100 came from the checkpoint
        for report in (first, resumed):
            report.pop("elapsed_seconds")
        assert resumed == first


class TestReferenceSigmas:
    def test_reference_sigma_accuracy(self):
        # reference sd of one account against its known per-path distribution:
        # check reproducibility and agreement with an independent large run
        pop = init_population(10, (1.0,), seed=7)
        s1, b1 = reference_sigmas(pop, n_realisations=400, seed=2)
        s2, _ = reference_sigmas(pop, n_realisations=400, seed=2)
        assert np.array_equal(s1, s2)
        out = run_plan(pop, RealisationPlan.equal(10, 400), seed=99)
        for i in pop.independent_ids:
            sd = float(np.std(out.totals[i], ddof=1))
            if sd > 1.0:
                assert s1[i] == pytest.approx(sd, rel=0.25)


@pytest.fixture(scope="module")
def small_emulator():
    return fit_gp(generate_training_data(sliced_lhd(8, seed=1), n_realisations=100, seed=2))


class TestBuildPlan:
    def test_constrained_plan_meets_caps(self, small_emulator):
        pop = init_population(200, (0.9, 0.1), seed=3)
        # a cap of 1.0 on portfolio 1 needs about 4.1e6 realisations, hence the budget
        common = dict(n_accounts=200, portfolio_probs=(0.9, 0.1), budget=1e7)
        optimized, _ = build_plan(pop, ExperimentConfig(plan_mode="optimized", **common), small_emulator, 5)
        config = ExperimentConfig(plan_mode="constrained", caps=(1e12, 1.0), **common)
        plan, inputs = build_plan(pop, config, small_emulator, 5)
        assert plan.is_integer
        assert not np.array_equal(plan.counts, optimized.counts)
        sigma, sigma_block = np.sqrt(inputs.sigma2_independent), np.sqrt(inputs.sigma2_block)
        problem = constrained_problem_for_population(pop, sigma, sigma_block, config.caps, config.effective_budget)
        solution = active_set_solve(problem)
        assert solution.active == frozenset({1})
        real = constrained_plan_for_population(pop, solution.plan)
        assert np.array_equal(plan.counts, round_plan(real, pop).counts)
        variances, _ = estimator_variance(inputs, real, pop)
        assert variances[1] <= 1.0 * (1 + 1e-9)
        # rounding counts of about 1e5 moves the variance by a few parts in 1e6
        assert estimator_variance(inputs, plan, pop)[0][1] <= 1.0 * (1 + 1e-5)


class TestProtect:
    def test_constrained_plan_mapping(self):
        pop = init_population(60, (0.7, 0.3), seed=9)
        sigma, sigma_block = reference_sigmas(pop, n_realisations=60, seed=4)
        problem = constrained_problem_for_population(
            pop, sigma, sigma_block, caps=(1e9, 1e9), budget=1500.0
        )
        solution = active_set_solve(problem)
        plan = constrained_plan_for_population(pop, solution.plan)
        assert plan.cost == pytest.approx(1500.0)
        # block members share one count
        for j, pf in enumerate(pop.portfolios):
            dep = pf.dependent_ids
            if len(dep):
                assert len(np.unique(plan.counts[dep])) == 1

    def test_protect_experiment_respects_caps(self):
        cfg = ExperimentConfig(
            name="t",
            n_accounts=60,
            portfolio_probs=(0.8, 0.2),
            caps=(2000.0**2, 60.0**2),
            budget=2500.0,
            seed=9,
            sigma_reference_realisations=120,
        )
        report = protect_experiment(cfg)
        for v, cap in zip(report["portfolio_variances_real_plan"], report["caps"]):
            assert v <= cap * (1 + 1e-9)

    def test_missing_caps_raises(self):
        with pytest.raises(ValueError, match="caps"):
            protect_experiment(ExperimentConfig(n_accounts=10))
