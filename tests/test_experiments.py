"""Experiment harnesses: seed-domain separation, checkpointing, protection runs."""

import itertools
import json
import math
import os
import time
import tracemalloc
from operator import setitem

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collsim.constrained
import collsim.experiments
from collsim.allocator import plan_for_population, round_plan
from collsim.emulator import fit_gp, generate_training_data, sliced_lhd
from collsim.estimators import VarianceInputs, estimator_variance
from collsim.experiments import (
    ExperimentConfig,
    _pilot_block_sigmas,
    build_plan,
    coverage_study,
    optimized_plan,
    protect_experiment,
    read_config_file,
    reference_sigmas,
    train_emulator_experiment,
)
from collsim.population import init_population
from collsim.rng import derive_seed, stream
from collsim.simulator import (
    _CHUNK_PATHS,
    HORIZON,
    RealisationPlan,
    _segment_moments,
    _simulate_paths,
    payment_probability,
    run_plan,
)
from engine_totals import raw_totals


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
        with pytest.raises(ValueError, match="unknown plan mode 'constrained'"):
            ExperimentConfig(plan_mode="constrained", caps=(1.0,))  # caps are protect's alone
        for threads in (0, -2):
            with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
                ExperimentConfig(threads=threads)
        with pytest.raises(ValueError, match="train_realisations must be at least 4, got 3"):
            ExperimentConfig(train_realisations=3)
        with pytest.raises(ValueError, match="sigma_reference_realisations must be at least 2, got 1"):
            ExperimentConfig(sigma_reference_realisations=1)
        assert ExperimentConfig(train_realisations=4, sigma_reference_realisations=2).train_realisations == 4
        assert ExperimentConfig(budget=2.0**53).effective_budget == 2**53
        for name, value, message in (
            ("budget", -100.0, "budget must be a positive finite number, got -100.0"),
            ("budget", float("inf"), "budget must be a positive finite number, got inf"),
            ("budget", 1e300, r"budget must be at most 2\*\*53, got 1e\+300"),
            ("budget", 2.0**53 + 2, r"budget must be at most 2\*\*53, got 9007199254740994.0"),
            ("coverage_p", 1.5, r"coverage_p must be in \(0, 1\), got 1.5"),
            ("n_pilot", 1, "n_pilot must be at least 2, got 1"),
            ("points_per_slice", 1, "points_per_slice must be at least 2, got 1"),
            ("n_accounts", 0, "n_accounts must be at least 1, got 0"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                ExperimentConfig(**{name: value})

    def test_threads_default_to_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
        assert ExperimentConfig().threads == 3
        assert ExperimentConfig(threads=1).threads == 1

    def test_config_hash_changes_with_content(self):
        a = ExperimentConfig(seed=1)
        b = ExperimentConfig(seed=2)
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == ExperimentConfig(seed=1).config_hash()

    def test_config_hash_ignores_threads_and_out_dir(self):
        # outputs are bitwise the same for any worker count, and out_dir only says where they go
        base = ExperimentConfig(seed=1).config_hash()
        assert ExperimentConfig(seed=1, threads=2).config_hash() == base
        assert ExperimentConfig(seed=1, threads=2, out_dir="elsewhere").config_hash() == base
        assert ExperimentConfig(seed=2, threads=2, out_dir="elsewhere").config_hash() != base

    def test_read_config_file_names_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_accounts": 10, "n_acounts": 5, "sed": 1}))
        with pytest.raises(ValueError, match=r"cfg\.json: unknown config keys \['n_acounts', 'sed'\]"):
            read_config_file(path)
        path.write_text(json.dumps({"emulator_path": "emu.json"}))  # not a field: nothing read it
        with pytest.raises(ValueError, match=r"cfg\.json: unknown config keys \['emulator_path'\]"):
            read_config_file(path)
        path.write_text(json.dumps({"n_accounts": 10, "portfolio_probs": [0.5, 0.5]}))
        assert ExperimentConfig(**read_config_file(path), seed=3) == ExperimentConfig(
            n_accounts=10, portfolio_probs=(0.5, 0.5), seed=3
        )


    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("threads", "2", "must be an integer"),
            ("n_accounts", 10.5, "must be an integer"),
            ("seed", True, "must be an integer"),
            ("coverage_p", "0.9", "must be a number"),
            ("budget", [5], "must be a number or null"),
            ("portfolio_probs", [0.5, "0.5"], "must be a list of numbers"),
            ("caps", 3, "must be a list of numbers or null"),
            ("plan_mode", 1, "must be a string"),
        ],
    )
    def test_read_config_file_checks_value_types(self, tmp_path, key, value, expected):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ValueError, match=rf"cfg\.json: config key '{key}' {expected}, got"):
            read_config_file(path)

    def test_read_config_file_accepts_ints_for_floats_and_nulls_for_optionals(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"budget": 700, "coverage_p": 0.9, "caps": None, "portfolio_probs": [1]}))
        assert ExperimentConfig(**read_config_file(path)) == ExperimentConfig(budget=700, coverage_p=0.9, portfolio_probs=(1,))


class TestSeedDomains:
    def test_truth_independent_of_estimation(self):
        # the truth realisation must not share draws with the estimation run
        cfg = ExperimentConfig(n_accounts=20, seed=3)
        pop = init_population(20, (1.0,), seed=derive_seed(3, "pop", 0))
        est = run_plan(pop, RealisationPlan.equal(20, 1), seed=derive_seed(3, "estimate", 0))
        tru = run_plan(pop, RealisationPlan.equal(20, 1), seed=derive_seed(3, "truth", 0))
        assert not np.array_equal(est.means, tru.means)  # with one realisation, each mean is the total


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
        assert [r["rep"] for r in saved["records"]] == list(range(100))  # in order, also from a pool
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

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("{not json", "coverage checkpoint is not valid JSON"),
            ("[1, 2]", "coverage checkpoint must be a JSON object, got list"),
            ({}, "coverage checkpoint field 'records' must be a list of repetition records"),
            ({"records": {"rep": 0}}, "coverage checkpoint field 'records' must be a list of repetition records"),
            ({"records": [{"rep": 0}]}, "coverage checkpoint field 'records' must be a list of repetition records"),
            (lambda recs: setitem(recs[3], "length", "wide"), "coverage checkpoint record 3 field 'length' must be a finite number, got 'wide'"),
            (lambda recs: setitem(recs[3], "length", math.nan), "coverage checkpoint record 3 field 'length' must be a finite number, got nan"),
            (lambda recs: setitem(recs[2], "midpoint", None), "coverage checkpoint record 2 field 'midpoint' must be a finite number, got None"),
            (lambda recs: setitem(recs[7], "truth", math.inf), "coverage checkpoint record 7 field 'truth' must be a finite number, got inf"),
            (lambda recs: setitem(recs[9], "contained", 1), "coverage checkpoint record 9 field 'contained' must be true or false, got 1"),
            (lambda recs: setitem(recs[5], "rep", 4), "coverage checkpoint record 5 field 'rep' must be the record's index, got 4"),
            (lambda recs: recs.pop(0), "coverage checkpoint record 0 field 'rep' must be the record's index, got 1"),
        ],
    )
    def test_malformed_checkpoint_named(self, tmp_path, text, expected):
        cfg = ExperimentConfig(name="t", n_accounts=5, repetitions=100, seed=5)
        ck = tmp_path / "ck.json"
        if not isinstance(text, str):  # a checkpoint of this config with its records replaced or edited
            coverage_study(cfg, checkpoint_path=ck)
            saved = json.loads(ck.read_text())
            if callable(text):
                text(saved["records"])
            else:
                del saved["records"]
                saved.update(text)
            text = json.dumps(saved)
        ck.write_text(text)
        with pytest.raises(ValueError) as err:
            coverage_study(cfg, checkpoint_path=ck)
        assert str(err.value).startswith(f"{ck}: {expected}")

    def test_checkpoint_resumes_under_another_worker_count(self, tmp_path):
        ck = tmp_path / "ck.json"
        coverage_study(ExperimentConfig(name="t", n_accounts=5, repetitions=100, seed=5, threads=1), checkpoint_path=ck)
        cfg103 = ExperimentConfig(name="t", n_accounts=5, repetitions=103, seed=5, threads=2, out_dir="other")
        done = []
        resumed = coverage_study(cfg103, checkpoint_path=ck, progress=lambda k, n: done.append(k))
        assert done == [101, 102, 103]  # repetitions 1-100 came from the one-worker checkpoint
        uninterrupted = coverage_study(ExperimentConfig(name="t", n_accounts=5, repetitions=103, seed=5))
        for report in (resumed, uninterrupted):
            report.pop("elapsed_seconds")
        assert resumed == uninterrupted

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


    def test_elapsed_seconds_ignore_the_wall_clock(self, monkeypatch):
        wall = itertools.count(1e9, -1e6)
        monkeypatch.setattr(time, "time", lambda: next(wall))  # a wall clock that jumps back at every read
        report = coverage_study(ExperimentConfig(name="t", n_accounts=5, repetitions=2, seed=5, threads=1))
        assert 0.0 <= report["elapsed_seconds"] < 60.0

    @settings(max_examples=6, deadline=None)
    @given(
        n_accounts=st.integers(5, 60),
        probs=st.sampled_from([(1.0,), (0.7, 0.3)]),
        repetitions=st.integers(1, 7),
        seed=st.integers(0, 10**6),
    )
    def test_report_does_not_depend_on_the_worker_count(self, n_accounts, probs, repetitions, seed):
        reports, calls = [], []
        for threads in (1, 2):
            done = []
            cfg = ExperimentConfig(
                name="t",
                n_accounts=n_accounts,
                portfolio_probs=probs,
                repetitions=repetitions,
                seed=seed,
                threads=threads,
            )
            reports.append(coverage_study(cfg, progress=lambda k, n: done.append(k)))
            reports[-1].pop("elapsed_seconds")
            calls.append(done)
        assert reports[0] == reports[1]
        assert calls[0] == calls[1] == list(range(1, repetitions + 1))

    def test_m2_report_does_not_depend_on_the_worker_count(self, small_emulator):
        # at two workers the emulator's GP predictions run in forked repetitions
        reports = []
        for threads in (1, 2):
            cfg = ExperimentConfig(
                name="t",
                n_accounts=80,
                portfolio_probs=(0.8, 0.2),
                plan_mode="optimized",
                interval_method="M2",
                repetitions=5,
                seed=12,
                threads=threads,
            )
            reports.append(coverage_study(cfg, emulator=small_emulator))
            reports[-1].pop("elapsed_seconds")
        assert reports[0] == reports[1]
        assert reports[0]["repetitions"] == 5


def _per_account_reference_sigmas(pop, n_realisations, seed):
    """Reference sigmas from one ``stream()``, kernel call and sample per account: the engine's oracle."""
    sigma = np.zeros(pop.n)
    for i in pop.independent_ids:
        p0 = payment_probability(pop.credit_score[i], pop.segment[i], False)
        p1 = payment_probability(pop.credit_score[i], pop.segment[i], True)
        u = stream(seed, "sigma-ref", int(i)).random((n_realisations, HORIZON))
        totals, _ = _simulate_paths(p0, p1, pop.balance[i], pop.paid_last_month[i], u.T)
        sigma[i] = np.sqrt(_segment_moments(totals, np.full(1, n_realisations))[1][0])
    return sigma, _pilot_block_sigmas(pop, n_realisations, derive_seed(seed, "sigma-ref-block"))


class TestReferenceSigmas:
    def test_reference_sigma_accuracy(self):
        # reference sd of one account against its known per-path distribution:
        # check reproducibility and agreement with an independent large run
        pop = init_population(10, (1.0,), seed=7)
        s1, b1 = reference_sigmas(pop, n_realisations=400, seed=2)
        s2, _ = reference_sigmas(pop, n_realisations=400, seed=2)
        assert np.array_equal(s1, s2)
        totals = raw_totals(pop, RealisationPlan.equal(10, 400), seed=99)
        for i in pop.independent_ids:
            sd = float(np.std(totals[i], ddof=1))
            if sd > 1.0:
                assert s1[i] == pytest.approx(sd, rel=0.25)

    @pytest.mark.parametrize(
        "n, n_realisations",
        [(60, 700), (4, _CHUNK_PATHS + 300)],  # about ten chunks of whole accounts; one account per chunk
        ids=["many-per-chunk", "more-than-a-chunk"],
    )
    def test_equal_per_account_oracle(self, n, n_realisations):
        pop = init_population(n, (0.8, 0.2), seed=17)
        assert len(pop.independent_ids) * n_realisations >= 3 * _CHUNK_PATHS
        sigma, sigma_block = reference_sigmas(pop, n_realisations=n_realisations, seed=18)
        expected, expected_block = _per_account_reference_sigmas(pop, n_realisations, 18)
        assert sigma.tobytes() == expected.tobytes()
        assert sigma_block.tobytes() == expected_block.tobytes()
        two = reference_sigmas(pop, n_realisations=n_realisations, seed=18, n_workers=2)
        assert two[0].tobytes() == expected.tobytes() and two[1].tobytes() == expected_block.tobytes()

    @pytest.mark.parametrize("n_realisations", [0, 1])
    def test_too_few_realisations_rejected_before_any_work(self, monkeypatch, n_realisations):
        monkeypatch.setattr(collsim.experiments, "_pool_map", lambda *a: pytest.fail("simulated"))
        pop = init_population(30, (0.8, 0.2), seed=17)
        with pytest.raises(ValueError, match=f"^n_realisations must be at least 2 .*, got {n_realisations}$"):
            reference_sigmas(pop, n_realisations=n_realisations, seed=18)

    def test_peak_memory_holds_each_chunks_uniforms_once(self):
        # one account per chunk: 5000 x 84 uniforms, 3.2 MiB, which a second, transposed copy took to 8.3 MiB;
        # pilot items of the 54-account block reuse that buffer for their uniforms and keep no payments
        pop = init_population(1000, (1.0,), seed=3)
        pop.portfolios  # the cached partition belongs to the population, not the run
        tracemalloc.start()
        try:
            reference_sigmas(pop, n_realisations=5000, seed=4, n_workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.0 * 2**20, peak / 2**20


@pytest.fixture(scope="module")
def small_emulator():
    return fit_gp(generate_training_data(sliced_lhd(8, seed=1), n_realisations=100, seed=2))


class TestBuildPlan:
    def test_capped_plan_meets_caps(self, small_emulator):
        pop = init_population(200, (0.9, 0.1), seed=3)
        # a cap of 1.0 on portfolio 1 needs about 4.1e6 realisations, hence the budget
        config = ExperimentConfig(plan_mode="optimized", n_accounts=200, portfolio_probs=(0.9, 0.1), budget=1e7)
        optimized, inputs = build_plan(pop, config, small_emulator, 5)
        _, solution, real = plan_for_population(pop, inputs, config.effective_budget, (1e12, 1.0))
        plan = round_plan(real)
        assert plan.is_integer
        assert not np.array_equal(plan.counts, optimized.counts)
        assert solution.active == frozenset({1})
        variances, _ = estimator_variance(inputs, real, pop)
        assert variances[1] <= 1.0 * (1 + 1e-9)
        # rounding counts of about 1e5 moves the variance by a few parts in 1e6
        assert estimator_variance(inputs, plan, pop)[0][1] <= 1.0 * (1 + 1e-5)

    def test_optimized_plan_is_the_solve_with_every_cap_infinite(self, small_emulator):
        pop = init_population(200, (0.5, 0.5), seed=3)
        assert all(len(pf.dependent_ids) for pf in pop.portfolios)
        common = dict(n_accounts=200, portfolio_probs=(0.5, 0.5), budget=7000.0)
        config = ExperimentConfig(plan_mode="optimized", **common)
        plan, inputs = build_plan(pop, config, small_emulator, 5)
        real, real_inputs = optimized_plan(pop, config, small_emulator, 5)
        for name in ("sigma2_independent", "sigma2_block"):
            assert getattr(inputs, name).tobytes() == getattr(real_inputs, name).tobytes()
        capped = plan_for_population(pop, inputs, config.effective_budget, (np.inf, np.inf))[2]
        assert real.counts.tobytes() == capped.counts.tobytes()
        assert plan.counts.tobytes() == round_plan(capped).counts.tobytes()

    def test_every_plan_is_solved_by_the_solver_module(self, small_emulator, monkeypatch):
        """Optimized and protection plans all call ``collsim.constrained.active_set_solve``."""
        solved_caps = []
        solve = collsim.constrained.active_set_solve

        def spy(problem):
            solved_caps.append(problem.caps.tolist())
            return solve(problem)

        monkeypatch.setattr(collsim.constrained, "active_set_solve", spy)
        pop = init_population(200, (0.9, 0.1), seed=3)
        common = dict(n_accounts=200, portfolio_probs=(0.9, 0.1), budget=1e7)
        build_plan(pop, ExperimentConfig(plan_mode="optimized", **common), small_emulator, 5)
        protect = dict(n_accounts=60, portfolio_probs=(0.8, 0.2), caps=(2000.0**2, 60.0**2), budget=2500.0, seed=9)
        protect_experiment(ExperimentConfig(sigma_reference_realisations=120, **protect))
        protect_experiment(ExperimentConfig(n_pilot=10, **protect), emulator=small_emulator)
        assert solved_caps == [[np.inf, np.inf]] + [[2000.0**2, 60.0**2]] * 2


class TestTrainEmulator:
    def test_files_do_not_depend_on_the_worker_count(self, tmp_path):
        written = []
        for threads in (1, 2):
            out = tmp_path / f"threads-{threads}"
            cfg = ExperimentConfig(
                name="t", points_per_slice=6, train_realisations=300, seed=4, threads=threads, out_dir=str(out)
            )
            train_emulator_experiment(cfg)
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(written[0]) == 8  # four files and their sidecars
        assert written[0] == written[1]


class TestProtect:
    def test_constrained_plan_mapping(self):
        pop = init_population(60, (0.7, 0.3), seed=9)
        sigma, sigma_block = reference_sigmas(pop, n_realisations=60, seed=4)
        inputs = VarianceInputs(sigma2_independent=sigma**2, sigma2_block=sigma_block**2)
        _, _, plan = plan_for_population(pop, inputs, 1500.0, caps=(1e9, 1e9))
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
