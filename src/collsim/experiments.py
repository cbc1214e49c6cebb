"""Reproducible named experiments with file outputs.

Everything here is a pure function of (config, seed): populations, plans,
estimation runs, truth realisations and pilot simulations each live in their
own derived seed domain, so reruns are bitwise identical and truth draws are
independent of estimation draws.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .allocator import pilot_block_variance, plan_for_population, round_plan
from .constrained import (
    ActiveSetSolution,
    ConstrainedProblem,
    PortfolioInputs,
    active_set_solve,
    kkt_report,
    solution_to_json,
)
from .emulator import (
    GpEmulator,
    fit_gp,
    generate_training_data,
    random_design,
    sigma2_for_population,
    sliced_lhd,
    training_data_to_csv,
    validate_emulator,
)
from .estimators import (
    VarianceInputs,
    VarianceSource,
    estimate_mu,
    estimator_variance,
    monthly_bands,
    prediction_interval,
    variance_inputs_from_samples,
)
from .population import Population, init_population
from .rng import _unit_streams, derive_seed
from .simulator import (
    DEFAULT_SCHEDULE,
    HORIZON,
    RealisationPlan,
    _simulate_paths,
    payment_probability,
    run_plan,
)

__all__ = [
    "ExperimentConfig",
    "write_sidecar",
    "reference_sigmas",
    "optimized_plan",
    "build_plan",
    "m2_variance_inputs",
    "coverage_study",
    "protect_experiment",
    "train_emulator_experiment",
    "simulate_experiment",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run."""

    name: str = "experiment"
    n_accounts: int = 1000
    portfolio_probs: tuple = (1.0,)
    plan_mode: str = "equal"  # equal | optimized | constrained
    budget: float | None = None  # defaults to 25 realisations per account
    caps: tuple | None = None  # per-portfolio variance caps (constrained mode)
    interval_method: str = "M1"  # M1 | M2
    coverage_p: float = 0.95
    repetitions: int = 1000
    seed: int = 0
    threads: int = 1
    out_dir: str = "out"
    emulator_path: str | None = None
    n_pilot: int = 50
    points_per_slice: int = 100
    train_realisations: int = 1000
    sigma_reference_realisations: int = 5000

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.plan_mode not in ("equal", "optimized", "constrained"):
            raise ValueError(f"unknown plan mode {self.plan_mode!r}")
        if self.interval_method not in ("M1", "M2"):
            raise ValueError(f"unknown interval method {self.interval_method!r}")

    @property
    def effective_budget(self) -> float:
        return self.budget if self.budget is not None else 25.0 * self.n_accounts

    @classmethod
    def from_file(cls, path, **overrides) -> "ExperimentConfig":
        doc = json.loads(Path(path).read_text())
        for k, v in doc.items():
            if isinstance(v, list):
                doc[k] = tuple(v)
        doc.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**doc)

    def config_hash(self) -> str:
        canon = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def write_sidecar(out_path, config: ExperimentConfig) -> None:
    meta = {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "tool_version": __version__,
        "experiment": config.name,
    }
    Path(str(out_path) + ".meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# Variance pre-estimation


def reference_sigmas(
    population: Population,
    n_realisations: int = 5000,
    seed: int = 0,
    schedule=DEFAULT_SCHEDULE,
):
    """High-quality pilot standard deviations for every unit.

    Returns per-account sigma (indexed by id; dependent entries are their
    own account-level sds, unused by allocation) and per-portfolio block
    sigma (NaN without a block).  Runs in its own seed domain and is chunked
    per account to bound memory.
    """
    n = population.n
    sigma = np.empty(n)
    indep = population.independent_ids
    p0 = payment_probability(population.credit_score, population.segment, False)
    p1 = payment_probability(population.credit_score, population.segment, True)
    for i, g in zip(indep, _unit_streams(seed, "sigma-ref", ids=indep)):
        u = g.random((n_realisations, HORIZON))
        totals, _ = _simulate_paths(p0[i], p1[i], population.balance[i], population.paid_last_month[i], u.T)
        sigma[i] = totals.std(ddof=1)
    for pf in population.portfolios:
        sigma[pf.dependent_ids] = 0.0  # covered by the block sigma
    block_seed = derive_seed(seed, "sigma-ref-block")
    return sigma, _pilot_block_sigmas(population, n_realisations, block_seed, schedule)


def _pilot_block_sigmas(population, n_pilot, seed, schedule=DEFAULT_SCHEDULE):
    """Per-portfolio block sigma from ``n_pilot`` pilot realisations (NaN without a block)."""
    out = np.full(population.n_portfolios, np.nan)
    for j, pf in enumerate(population.portfolios):
        if len(pf.dependent_ids):
            out[j] = np.sqrt(pilot_block_variance(population, j, schedule, n_pilot=n_pilot, seed=seed))
    return out


def optimized_plan(population: Population, config: ExperimentConfig, emulator: GpEmulator | None, seed: int):
    """Real-valued variance-minimizing plan from emulator variances and block pilots.

    Returns ``(plan, inputs)``: the plan and the M2 variance pre-estimates
    that produced it (emulator variance per account, variance of
    ``config.n_pilot`` pilot realisations drawn with ``seed`` per block).
    """
    if emulator is None:
        raise ValueError("optimized plans need a trained emulator")
    sigma2 = sigma2_for_population(emulator, population)
    sigma_block = _pilot_block_sigmas(population, config.n_pilot, seed)
    real = plan_for_population(population, np.sqrt(sigma2), sigma_block, config.effective_budget)
    inputs = VarianceInputs(
        sigma2_independent=sigma2, sigma2_block=sigma_block**2, source=VarianceSource.EMULATOR
    )
    return real, inputs


def build_plan(population: Population, config: ExperimentConfig, emulator: GpEmulator | None, seed: int):
    """Integer plan plus the variance pre-estimates that produced it.

    Returns ``(plan, inputs)``; ``inputs`` is None for the equal plan, else
    the pre-estimates of :func:`optimized_plan`.
    """
    if config.plan_mode == "equal":
        r = int(round(config.effective_budget / population.n))
        return RealisationPlan.equal(population.n, max(r, 1)), None
    real, inputs = optimized_plan(population, config, emulator, seed)
    return round_plan(real, population), inputs


def m2_variance_inputs(
    population: Population,
    config: ExperimentConfig,
    emulator: GpEmulator | None,
    output,
    seed: int,
    plan_inputs: VarianceInputs | None = None,
) -> VarianceInputs:
    """Method M2 variance inputs for an interval around ``output``'s estimate.

    Independent accounts take the emulator's variance.  A dependent block
    takes the sample variance of the run's block totals when it has r_j >= 2
    of them, and otherwise the variance of ``config.n_pilot`` pilot
    realisations drawn with ``seed``.  ``plan_inputs`` are the pre-estimates
    an optimized plan was built from; they are reused instead of being
    computed again.
    """
    if plan_inputs is None:
        if emulator is None:
            raise ValueError("method M2 needs an emulator")
        sigma2 = sigma2_for_population(emulator, population)
    else:
        sigma2 = plan_inputs.sigma2_independent
    sigma2_block = np.full(population.n_portfolios, np.nan)
    for j, blk in output.block_totals.items():
        if len(blk) >= 2:
            sigma2_block[j] = blk.var(ddof=1)
        elif plan_inputs is not None:
            sigma2_block[j] = plan_inputs.sigma2_block[j]
        else:
            sigma2_block[j] = pilot_block_variance(
                population, j, DEFAULT_SCHEDULE, n_pilot=config.n_pilot, seed=seed
            )
    return VarianceInputs(
        sigma2_independent=sigma2, sigma2_block=sigma2_block, source=VarianceSource.EMULATOR
    )


# --------------------------------------------------------------------------
# Coverage study


def _coverage_repetition(config: ExperimentConfig, emulator, rep: int):
    pop = init_population(
        config.n_accounts, config.portfolio_probs, seed=derive_seed(config.seed, "pop", rep)
    )
    pilot_seed = derive_seed(config.seed, "pilot", rep)
    plan, plan_inputs = build_plan(pop, config, emulator, pilot_seed)
    output = run_plan(pop, plan, seed=derive_seed(config.seed, "estimate", rep), n_workers=config.threads)
    mu = estimate_mu(output, plan, pop)
    if config.interval_method == "M1":
        inputs = variance_inputs_from_samples(output, pop)
    else:
        inputs = m2_variance_inputs(pop, config, emulator, output, pilot_seed, plan_inputs)
    interval = prediction_interval(mu.total, inputs, plan, pop, p=config.coverage_p)
    truth = run_plan(
        pop, RealisationPlan.equal(pop.n, 1), seed=derive_seed(config.seed, "truth", rep)
    )
    x_true = float(sum(truth.values))  # one realisation per account, in id order
    return {
        "rep": rep,
        "contained": bool(interval.contains(x_true)),
        "length": 2.0 * interval.half_width,
        "midpoint": interval.center,
        "truth": x_true,
    }


def coverage_study(
    config: ExperimentConfig,
    emulator: GpEmulator | None = None,
    checkpoint_path=None,
    progress=None,
) -> dict:
    """Repeated interval construction against independent truth realisations.

    Reports empirical coverage, mean interval length and relative uncertainty
    (mean of width over midpoint).  Checkpoints every 100 repetitions when a
    checkpoint path is given (atomically: a temporary file in the same
    directory, then a rename), and resumes from it.
    """
    records = []
    start_rep = 0
    if checkpoint_path and Path(checkpoint_path).exists():
        saved = json.loads(Path(checkpoint_path).read_text())
        if saved.get("config_hash") == config.config_hash():
            records = saved["records"]
            start_rep = len(records)
    t0 = time.time()
    for rep in range(start_rep, config.repetitions):
        records.append(_coverage_repetition(config, emulator, rep))
        if checkpoint_path and (rep + 1) % 100 == 0:
            tmp = Path(f"{checkpoint_path}.tmp")
            tmp.write_text(json.dumps({"config_hash": config.config_hash(), "records": records}))
            os.replace(tmp, checkpoint_path)
        if progress:
            progress(rep + 1, config.repetitions)
    lengths = np.array([r["length"] for r in records])
    mids = np.array([r["midpoint"] for r in records])
    return {
        "experiment": config.name,
        "n_accounts": config.n_accounts,
        "plan_mode": config.plan_mode,
        "interval_method": config.interval_method,
        "nominal_coverage": config.coverage_p,
        "repetitions": len(records),
        "coverage": float(np.mean([r["contained"] for r in records])),
        "mean_length": float(lengths.mean()),
        "relative_uncertainty": float((lengths / mids).mean()),
        "elapsed_seconds": time.time() - t0,
    }


# --------------------------------------------------------------------------
# Portfolio protection


def constrained_problem_for_population(
    population: Population, sigma: np.ndarray, sigma_block: np.ndarray, caps, budget: float
) -> ConstrainedProblem:
    portfolios = []
    for j, pf in enumerate(population.portfolios):
        portfolios.append(
            PortfolioInputs(
                sigma_independent=sigma[pf.independent_ids],
                sigma_block=float(sigma_block[j]) if len(pf.dependent_ids) else 0.0,
                block_size=len(pf.dependent_ids),
            )
        )
    return ConstrainedProblem(portfolios=tuple(portfolios), caps=np.asarray(caps, dtype=float), budget=budget)


def constrained_plan_for_population(
    population: Population, solution: ActiveSetSolution
) -> RealisationPlan:
    counts = np.empty(population.n)
    for j, pf in enumerate(population.portfolios):
        counts[pf.independent_ids] = solution.plan.r_independent[j]
        if len(pf.dependent_ids):
            counts[pf.dependent_ids] = solution.plan.r_block[j]
    return RealisationPlan(counts=counts)


def protect_experiment(
    config: ExperimentConfig,
    emulator: GpEmulator | None = None,
    sigma: np.ndarray | None = None,
    sigma_block: np.ndarray | None = None,
) -> dict:
    """Constrained allocation under per-portfolio variance caps, end to end.

    Pre-estimates unit sigmas (emulator plus block pilots unless reference
    sigmas are passed in), solves the active-set problem, simulates the
    rounded plan and reports implied variances against the caps.
    """
    if config.caps is None:
        raise ValueError("protect experiments need per-portfolio caps")
    pop = init_population(config.n_accounts, config.portfolio_probs, seed=derive_seed(config.seed, "pop"))
    if sigma is None:
        if emulator is not None:
            sigma = np.sqrt(sigma2_for_population(emulator, pop))
            sigma_block = _pilot_block_sigmas(pop, config.n_pilot, derive_seed(config.seed, "pilot"))
        else:
            sigma, sigma_block = reference_sigmas(
                pop, config.sigma_reference_realisations, seed=derive_seed(config.seed, "sigma")
            )
    problem = constrained_problem_for_population(
        pop, sigma, sigma_block, config.caps, config.effective_budget
    )
    solution = active_set_solve(problem)
    real_plan = constrained_plan_for_population(pop, solution)
    int_plan = round_plan(real_plan, pop)

    sigma2_indep = sigma**2
    sigma2_blk = np.asarray(sigma_block) ** 2
    inputs = VarianceInputs(
        sigma2_independent=sigma2_indep, sigma2_block=sigma2_blk, source=VarianceSource.REFERENCE
    )
    var_real, _ = estimator_variance(inputs, real_plan, pop)
    var_int, _ = estimator_variance(inputs, int_plan, pop)

    output = run_plan(pop, int_plan, seed=derive_seed(config.seed, "estimate"), n_workers=config.threads)
    mu = estimate_mu(output, int_plan, pop)

    mean_counts = [
        float(int_plan.counts[pop.portfolio == j].mean()) for j in range(pop.n_portfolios)
    ]
    return {
        "experiment": config.name,
        "caps": [float(v) for v in config.caps],
        "budget": config.effective_budget,
        "active_set": sorted(solution.active),
        "iterations": solution.iterations,
        "portfolio_variances_real_plan": var_real.tolist(),
        "portfolio_variances_rounded_plan": var_int.tolist(),
        "portfolio_mu": mu.per_portfolio.tolist(),
        "mean_realisations_per_portfolio": mean_counts,
        "kkt": kkt_report(problem, solution),
        "solution": solution_to_json(problem, solution),
        "realized_cost": int_plan.cost,
    }


# --------------------------------------------------------------------------
# Emulator training


def train_emulator_experiment(config: ExperimentConfig, out_dir=None) -> tuple:
    """Design, simulate, fit and validate the variance emulator.

    Returns ``(emulator, metrics)``; writes design/training CSVs plus the
    emulator JSON and metrics JSON when an output directory is given.
    """
    design = sliced_lhd(config.points_per_slice, seed=derive_seed(config.seed, "design"))
    observations = generate_training_data(
        design, config.train_realisations, seed=derive_seed(config.seed, "train")
    )
    emulator = fit_gp(observations)
    test = random_design(config.points_per_slice, seed=derive_seed(config.seed, "test"))
    metrics = validate_emulator(
        emulator, test, config.train_realisations, seed=derive_seed(config.seed, "validate")
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "design.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["segment", "y0", "b_tilde", "c_tilde"])
            for (s, y), pts in design.items():
                for b_t, c_t in pts:
                    w.writerow([s, y, repr(float(b_t)), repr(float(c_t))])
        training_data_to_csv(observations, out / "training.csv")
        emulator.to_json(out / "emulator.json")
        (out / "metrics.json").write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
        for name in ("design.csv", "training.csv", "emulator.json", "metrics.json"):
            write_sidecar(out / name, config)
    return emulator, metrics


# --------------------------------------------------------------------------
# Plain simulation run


def simulate_experiment(config: ExperimentConfig, emulator: GpEmulator | None = None, out_dir=None) -> dict:
    """Simulate one plan over one population and write the standard outputs."""
    pop = init_population(config.n_accounts, config.portfolio_probs, seed=derive_seed(config.seed, "pop"))
    plan, _ = build_plan(pop, config, emulator, derive_seed(config.seed, "pilot"))
    store_monthly = True
    output = run_plan(
        pop,
        plan,
        seed=derive_seed(config.seed, "estimate"),
        store_monthly=store_monthly,
        n_workers=config.threads,
    )
    mu = estimate_mu(output, plan, pop)
    report = {
        "experiment": config.name,
        "mu_total": mu.total,
        "mu_per_portfolio": mu.per_portfolio.tolist(),
        "plan_cost": plan.cost,
    }
    bands = None
    if np.all(plan.counts >= 2) and len(np.unique(plan.counts)) == 1:
        bands = monthly_bands(output, plan, pop, p=config.coverage_p)
        inputs = variance_inputs_from_samples(output, pop)
        interval = prediction_interval(mu.total, inputs, plan, pop, p=config.coverage_p)
        report["interval"] = {
            "lower": interval.lower,
            "upper": interval.upper,
            "coverage_p": config.coverage_p,
        }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        pop.to_csv(out / "population.csv")
        pop.write_manifest(out / "population.manifest.json")
        plan.to_csv(pop, out / "plan.csv", int_counts=plan.counts.astype(int))
        output.summary_json(out / "collections_summary.json")
        with open(out / "curve.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["month", "mean", "lower", "upper"])
            for t in range(output.horizon):
                mean_t = mu.per_month[t]
                if bands is not None:
                    w.writerow([t + 1, f"{mean_t:.2f}", f"{bands[t].lower:.2f}", f"{bands[t].upper:.2f}"])
                else:
                    w.writerow([t + 1, f"{mean_t:.2f}", "", ""])
        (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        for name in (
            "population.csv",
            "population.manifest.json",
            "plan.csv",
            "collections_summary.json",
            "curve.csv",
            "report.json",
        ):
            write_sidecar(out / name, config)
    return report
