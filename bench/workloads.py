"""The benchmark's workloads: their inputs, their ops and their checks.

A workload runs in rounds.  A round is a fixed number of ops with the same
inputs, so every run attempts whole rounds.  ``run_round`` executes in the
child process that is measured; ``paths`` and ``check`` read the files a
round wrote and execute in the parent process, so their memory is not
counted against the ops.

Each ``run_round`` looks up collsim's entry points at call time
(``collsim.cli.main``, ``collsim.experiments.coverage_study``), so a tracer
that replaced them sees the calls.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import exact

REALISATIONS_PER_ACCOUNT = 25  # collsim's default budget is 25 realisations per account


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _read_json(path):
    return json.loads(Path(path).read_text())


def _cli_main(argv):
    import collsim.cli

    return collsim.cli.main(argv)


class ForecastLarge:
    """`collsim simulate` on 50k accounts, equal plan, two threads."""

    name = "forecast_large"
    ops_per_round = 1
    n_accounts = 50_000
    portfolio_probs = ("0.99", "0.01")
    threads = 2

    def __init__(self, seed):
        self.seed = seed

    def argv(self, out):
        return [
            "simulate",
            "--n-accounts", str(self.n_accounts),
            "--portfolio-probs", *self.portfolio_probs,
            "--threads", str(self.threads),
            "--seed", str(self.seed),
            "--out", str(out),
        ]

    def warm_up(self):
        pass  # one op takes 15-20 s; a warm-up op would double the run

    def run_round(self, index, out):
        t0 = time.perf_counter()
        rc = _cli_main(self.argv(out))
        return {"out": str(out), "op_s": [time.perf_counter() - t0], "failed": int(rc != 0)}

    def paths(self, record):
        return float(_read_json(Path(record["out"]) / "report.json")["plan_cost"])

    def check(self, records):
        return [c for rec in records if not rec["failed"] for c in self._check_op(Path(rec["out"]))]

    def _check_op(self, out):
        from collsim import Population

        report = _read_json(out / "report.json")
        pop = Population.from_csv(out / "population.csv", n_portfolios=len(report["mu_per_portfolio"]))
        summary = _read_json(out / "collections_summary.json")
        plan = _read_csv(out / "plan.csv")
        curve = _read_csv(out / "curve.csv")
        means = np.array([r["mean"] for r in summary])
        mu_total = report["mu_total"]

        block_sizes = [len(pf.dependent_ids) for pf in pop.portfolios]
        plan_cost = sum(
            int(r["count_int"]) * (block_sizes[int(r["unit_id"][len("block-"):])] if r["kind"] == "block" else 1)
            for r in plan
        )
        budget = REALISATIONS_PER_ACCOUNT * pop.n
        result = [
            checks.close("report_plan_cost", report["plan_cost"], budget),
            checks.close("plan_csv_cost", plan_cost, budget),
            checks.means_within_balance(means, pop.balance),
            checks.close("account_means_sum_to_total", means.sum(), mu_total),
            # curve.csv has two decimals: 84 months of rounding at most.
            checks.close(
                "monthly_means_sum_to_total", sum(float(r["mean"]) for r in curve), mu_total, abs_tol=84 * 0.005
            ),
            checks.close("portfolio_totals_sum_to_total", sum(report["mu_per_portfolio"]), mu_total),
            checks.brackets("interval_brackets_total", report["interval"]["lower"], mu_total, report["interval"]["upper"]),
        ]

        indep = pop.independent_ids
        mean, var, m4 = exact.total_moments(
            pop.credit_score[indep], pop.segment[indep], pop.paid_last_month[indep], pop.balance[indep]
        )
        sample_var = np.array([r["variance"] for r in summary])[indep]
        r = np.full(len(indep), float(REALISATIONS_PER_ACCOUNT))
        result += [
            checks.exact_mean(means[indep], mean, var, r),
            checks.variance_sum(sample_var, var, exact.sample_variance_sd(var, m4, r)),
        ]
        return result


class CoverageSmall:
    """Repetitions of `collsim.experiments.coverage_study` at N = 1000."""

    name = "coverage_small"
    ops_per_round = 8  # repetitions per coverage_study call
    n_accounts = 1000
    target_relative_uncertainty = 0.034  # acceptance criterion 1 at N = 1000

    def __init__(self, seed):
        self.seed = seed
        from collsim.experiments import ExperimentConfig

        self._config = ExperimentConfig(
            name=self.name,
            n_accounts=self.n_accounts,
            portfolio_probs=(1.0,),
            plan_mode="equal",
            interval_method="M1",
            repetitions=self.ops_per_round,
            threads=1,
        )

    def config(self, index):
        # every round draws fresh populations and truths
        return dataclasses.replace(self._config, seed=self.seed * 100_003 + index)

    def warm_up(self):
        """Two untimed, unchecked repetitions, so first-call costs stay out of the timed rounds."""
        import collsim.experiments

        collsim.experiments.coverage_study(dataclasses.replace(self.config(-1), repetitions=2))

    def run_round(self, index, out):
        import collsim.experiments

        config = self.config(index)
        stamps = [time.perf_counter()]
        try:
            report = collsim.experiments.coverage_study(
                config, progress=lambda done, total: stamps.append(time.perf_counter())
            )
        except Exception:  # a failed round counts as failed ops, not a failed run
            traceback.print_exc()
            return {"op_s": [time.perf_counter() - stamps[0]], "failed": self.ops_per_round, "report": None}
        return {"op_s": list(np.diff(stamps)), "failed": 0, "report": report}

    def paths(self, record):
        # estimation run (25 per account) plus one truth realisation per account
        return float(self.ops_per_round * self.n_accounts * (REALISATIONS_PER_ACCOUNT + 1))

    def check(self, records):
        reports = [r["report"] for r in records if not r["failed"]]
        if not reports:
            return []
        n = sum(r["repetitions"] for r in reports)
        contained = sum(round(r["coverage"] * r["repetitions"]) for r in reports)
        mean_ru = sum(r["relative_uncertainty"] * r["repetitions"] for r in reports) / n
        return [
            checks.close("repetitions_run", n, self.ops_per_round * len(reports)),
            checks.coverage_count(contained, n),
            checks.relative_uncertainty(mean_ru, self.target_relative_uncertainty),
        ]


class EmulatorPipeline:
    """train-emulator, allocate, interval (M2) and protect at N = 20k."""

    name = "emulator_pipeline"
    ops_per_round = 1
    n_accounts = 20_000
    portfolio_probs = ("0.99", "0.01")
    points_per_slice = 50
    train_realisations = 1000
    n_pilot = 50  # collsim's default pilot realisations per dependent block
    # The small portfolio's unconstrained variance is 1.2e5-1.5e5 at this
    # size, so its cap binds; the large portfolio's cap never does.
    caps = ("1e9", "6e4")
    tight_cap = 1

    def __init__(self, seed):
        self.seed = seed

    def steps(self, out):
        emu = str(out / "emu" / "emulator.json")
        common = [
            "--n-accounts", str(self.n_accounts),
            "--portfolio-probs", *self.portfolio_probs,
            "--seed", str(self.seed),
        ]
        return [
            ["train-emulator", "--points-per-slice", str(self.points_per_slice),
             "--train-realisations", str(self.train_realisations), "--seed", str(self.seed), "--out", str(out / "emu")],
            ["allocate", *common, "--emulator", emu, "--out", str(out / "allocate")],
            ["interval", *common, "--plan", "optimized", "--method", "M2", "--emulator", emu,
             "--out", str(out / "interval")],
            ["protect", *common, "--caps", *self.caps, "--emulator", emu, "--out", str(out / "protect")],
        ]

    def warm_up(self):
        pass  # one op takes 15-20 s; a warm-up op would double the run

    def run_round(self, index, out):
        t0 = time.perf_counter()
        failed = int(any(_cli_main(argv) != 0 for argv in self.steps(out)))
        return {"out": str(out), "op_s": [time.perf_counter() - t0], "failed": failed}

    def _block_accounts(self, out):
        plan = _read_csv(out / "allocate" / "plan.csv")
        return self.n_accounts - sum(r["kind"] == "independent" for r in plan)

    def paths(self, record):
        out = Path(record["out"])
        training = 2 * 6 * self.points_per_slice * self.train_realisations  # training and test designs
        pilots = 3 * self.n_pilot * self._block_accounts(out)  # allocate, interval and protect
        plan = _read_json(out / "allocate" / "allocation_report.json")["plan_cost_rounded"]  # interval's run
        protect = _read_json(out / "protect" / "protect_report.json")["realized_cost"]
        return float(training + pilots + plan + protect)

    def population(self):
        """The population collsim's CLI draws for these inputs, through its public API."""
        import collsim

        probs = tuple(float(p) for p in self.portfolio_probs)
        return collsim.init_population(self.n_accounts, probs, seed=collsim.derive_seed(self.seed, "pop"))

    def check(self, records):
        done = [r for r in records if not r["failed"]]
        if not done:
            return []
        pop = self.population()
        indep = pop.independent_ids
        _, var, _ = exact.total_moments(
            pop.credit_score[indep], pop.segment[indep], pop.paid_last_month[indep], pop.balance[indep]
        )
        return [c for rec in done for c in self._check_op(Path(rec["out"]), indep, var)]

    def _check_op(self, out, indep, var):
        plan = [r for r in _read_csv(out / "allocate" / "plan.csv") if r["kind"] == "independent"]
        ids = np.array([int(r["unit_id"]) for r in plan])
        order = np.argsort(ids)
        count_real = np.array([float(r["count_real"]) for r in plan])[order]
        count_int = np.array([float(r["count_int"]) for r in plan])[order]
        interval = _read_json(out / "interval" / "interval.json")
        protect = _read_json(out / "protect" / "protect_report.json")
        same_population = np.array_equal(ids[order], indep)
        result = [
            checks.Check("population_matches_plan", same_population, f"{len(ids)} independent accounts in plan.csv"),
            checks.brackets("m2_interval_brackets_total", interval["lower"], interval["mu_total"], interval["upper"]),
            checks.within_caps(protect["portfolio_variances_rounded_plan"], [float(c) for c in self.caps]),
            checks.kkt(protect["kkt"]),
            checks.cap_active(protect["active_set"], self.tight_cap),
        ]
        if same_population:
            result += [
                checks.correlation(count_real, np.sqrt(var)),
                checks.variance_reduction(var, count_int, np.full(len(var), float(REALISATIONS_PER_ACCOUNT))),
            ]
        return result


WORKLOADS = {w.name: w for w in (ForecastLarge, CoverageSmall, EmulatorPipeline)}
