"""Experiment harnesses: seed-domain separation, checkpointing, protection runs."""

import json

import numpy as np
import pytest

from collsim.experiments import (
    ExperimentConfig,
    build_plan,
    constrained_plan_for_population,
    constrained_problem_for_population,
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

    def test_config_hash_changes_with_content(self):
        a = ExperimentConfig(seed=1)
        b = ExperimentConfig(seed=2)
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == ExperimentConfig(seed=1).config_hash()


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

    def test_checkpoint_resume(self, tmp_path):
        # run 100 reps so a checkpoint is cut, then resume into 103
        cfg100 = ExperimentConfig(name="t", n_accounts=5, repetitions=100, seed=5)
        ck = tmp_path / "ck.json"
        coverage_study(cfg100, checkpoint_path=ck)
        assert ck.exists()
        saved = json.loads(ck.read_text())
        assert len(saved["records"]) == 100
        # a different config must not resume from this checkpoint
        cfg_other = ExperimentConfig(name="t", n_accounts=6, repetitions=3, seed=5)
        out = coverage_study(cfg_other, checkpoint_path=ck)
        assert out["repetitions"] == 3

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


class TestProtect:
    def test_constrained_plan_mapping(self):
        pop = init_population(60, (0.7, 0.3), seed=9)
        sigma, sigma_block = reference_sigmas(pop, n_realisations=60, seed=4)
        problem = constrained_problem_for_population(
            pop, sigma, sigma_block, caps=(1e9, 1e9), budget=1500.0
        )
        solution = active_set_solve(problem)
        plan = constrained_plan_for_population(pop, solution)
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
