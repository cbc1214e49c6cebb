"""Reproducible named experiments with file outputs.

Everything here is a pure function of (config, seed): populations, plans,
estimation runs, truth realisations and pilot simulations each live in their
own derived seed domain, so reruns are bitwise identical and truth draws are
independent of estimation draws.

Method M2's variance pre-estimates are assembled only by
:func:`m2_variance_inputs`, for plans and for intervals alike.  Every
optimized and protection plan comes from one solve,
:func:`collsim.allocator.plan_for_population`: the active-set solution under
per-portfolio caps, the optimized plan being that solve with no caps.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import time
import typing
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .allocator import pilot_block_variance, plan_for_population, round_plan
from .constrained import _MAX_BUDGET, _is_integer, _is_number, _read_json_object, check_caps, solution_to_json
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
    estimate_mu,
    estimator_variance,
    monthly_bands,
    prediction_interval,
    variance_inputs_from_samples,
)
from .population import Population, init_population
from .rng import derive_seed
from .simulator import RealisationPlan, _chunks, _independent_units, _pool_map, _simulate_chunk, _usable_cpus, run_plan

__all__ = [
    "ExperimentConfig",
    "read_config_file",
    "write_sidecar",
    "config_population",
    "reference_sigmas",
    "optimized_plan",
    "build_plan",
    "m2_variance_inputs",
    "interval_estimate",
    "coverage_study",
    "protect_experiment",
    "train_emulator_experiment",
    "validate_on_test_design",
    "simulate_experiment",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run."""

    name: str = "experiment"
    n_accounts: int = 1000
    portfolio_probs: tuple = (1.0,)
    plan_mode: str = "equal"  # equal | optimized
    budget: float | None = None  # defaults to 25 realisations per account
    caps: tuple | None = None  # per-portfolio variance caps (protect)
    interval_method: str = "M1"  # M1 | M2
    coverage_p: float = 0.95
    repetitions: int = 1000
    seed: int = 0
    threads: int = field(default_factory=_usable_cpus)  # worker processes of every Monte Carlo stage
    out_dir: str = "out"
    n_pilot: int = 50
    points_per_slice: int = 100
    train_realisations: int = 1000
    sigma_reference_realisations: int = 5000

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.plan_mode not in ("equal", "optimized"):
            raise ValueError(f"unknown plan mode {self.plan_mode!r}")
        if self.interval_method not in ("M1", "M2"):
            raise ValueError(f"unknown interval method {self.interval_method!r}")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        for name, least in (
            ("n_accounts", 1),
            ("n_pilot", 2),
            ("points_per_slice", 2),
            ("train_realisations", 4),
            ("sigma_reference_realisations", 2),
        ):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if self.budget is not None and not (math.isfinite(self.budget) and self.budget > 0):
            raise ValueError(f"budget must be a positive finite number, got {self.budget}")
        if self.budget is not None and self.budget > _MAX_BUDGET:
            raise ValueError(f"budget must be at most 2**53, got {self.budget}")
        if not 0 < self.coverage_p < 1:
            raise ValueError(f"coverage_p must be in (0, 1), got {self.coverage_p}")

    @property
    def effective_budget(self) -> float:
        return self.budget if self.budget is not None else 25.0 * self.n_accounts

    def make_out_dir(self) -> Path:
        """``out_dir``, made with its parents if missing: where every output of the run goes."""
        out = Path(self.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return out

    def _output_fields(self) -> dict:
        """The fields that can change an output: all but ``out_dir`` and ``threads``."""
        doc = asdict(self)
        del doc["out_dir"], doc["threads"]
        return doc

    def config_hash(self) -> str:
        return _digest(self._output_fields())


_JSON_KINDS = {
    int: ("an integer", _is_integer),
    float: ("a number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
}


def _check_json_value(path, key, hint, value) -> None:
    """Reject a config file value whose JSON type does not fit the field's annotation."""
    args = typing.get_args(hint)
    optional = type(None) in args
    if value is None and optional:
        return
    what, ok = _JSON_KINDS[args[0] if args else hint]
    if not ok(value):
        raise ValueError(f"{path}: config key {key!r} must be {what}{' or null' if optional else ''}, got {value!r}")


def read_config_file(path) -> dict:
    """The settings of a JSON config file, lists as tuples; an unknown key or a value of the wrong type raises, naming the file."""
    doc = _read_json_object(path, "config")
    unknown = sorted(set(doc) - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise ValueError(f"{path}: unknown config keys {unknown}")
    hints = typing.get_type_hints(ExperimentConfig)
    for k, v in doc.items():
        _check_json_value(path, k, hints[k], v)
    return {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}


def _digest(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def write_sidecar(out_path, config: ExperimentConfig) -> None:
    meta = {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "tool_version": __version__,
        "experiment": config.name,
    }
    Path(str(out_path) + ".meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def config_population(config: ExperimentConfig, *key) -> Population:
    """``config``'s population, seeded from ``(config.seed, "pop", *key)``; a repetition's key is its index."""
    return init_population(config.n_accounts, config.portfolio_probs, seed=derive_seed(config.seed, "pop", *key))


# --------------------------------------------------------------------------
# Variance pre-estimation


def reference_sigmas(population: Population, n_realisations: int = 5000, seed: int = 0, n_workers: int = 1):
    """High-quality pilot standard deviations for every unit.

    Returns per-account sigma (indexed by id; dependent entries are 0, as the
    block sigma covers them) and per-portfolio block sigma (NaN without a
    block).  Runs in its own seed domain: an account's sigma is the root of
    the variance its :func:`collsim.simulator._chunks` item (prefix
    ``("sigma-ref",)``) returns, bitwise that of its totals on their own.
    """
    if n_realisations < 2:
        raise ValueError(f"n_realisations must be at least 2 (a sample variance), got {n_realisations}")
    sigma = np.zeros(population.n)
    chunks = _chunks(seed, ("sigma-ref",), _independent_units(population, np.full(population.n, n_realisations)))
    for (_, _, ids, *_), (moments, _, _) in zip(chunks, _pool_map(_simulate_chunk, chunks, n_workers)):
        sigma[ids] = np.sqrt(moments[1])
    block_seed = derive_seed(seed, "sigma-ref-block")
    return sigma, _pilot_block_sigmas(population, n_realisations, block_seed, n_workers)


def _pilot_block_sigmas(population, n_pilot, seed, n_workers=1):
    """Per-portfolio block sigma from ``n_pilot`` pilot realisations (NaN without a block)."""
    out = np.full(population.n_portfolios, np.nan)
    for j, pf in enumerate(population.portfolios):
        if len(pf.dependent_ids):
            out[j] = np.sqrt(pilot_block_variance(population, j, n_pilot=n_pilot, seed=seed, n_workers=n_workers))
    return out


def m2_variance_inputs(
    population: Population,
    config: ExperimentConfig,
    emulator: GpEmulator | None,
    output,
    seed: int,
    plan_inputs: VarianceInputs | None = None,
) -> VarianceInputs:
    """Method M2 variance inputs, for a plan (``output`` None) or an interval around ``output``'s estimate.

    Independent accounts take the variances of ``plan_inputs`` (the
    pre-estimates a plan was built from), else the emulator's.  A dependent
    block takes the sample variance of ``output``'s block totals when it has
    r_j >= 2 of them, else ``plan_inputs``'s, else the variance of
    ``config.n_pilot`` pilot realisations drawn with ``seed``.
    """
    if plan_inputs is None:
        if emulator is None:
            raise ValueError("method M2 variances (optimized plans, M2 intervals) need an emulator")
        sigma2 = sigma2_for_population(emulator, population)
    else:
        sigma2 = plan_inputs.sigma2_independent
    sigma2_block = np.full(population.n_portfolios, np.nan)
    for j, pf in enumerate(population.portfolios):
        blk = output.block_totals.get(j, ()) if output is not None else ()
        if len(blk) >= 2:
            sigma2_block[j] = blk.var(ddof=1)
        elif plan_inputs is not None:
            sigma2_block[j] = plan_inputs.sigma2_block[j]
        elif len(pf.dependent_ids):
            sigma2_block[j] = pilot_block_variance(
                population, j, n_pilot=config.n_pilot, seed=seed, n_workers=config.threads
            )
    return VarianceInputs(sigma2_independent=sigma2, sigma2_block=sigma2_block)


def optimized_plan(population: Population, config: ExperimentConfig, emulator: GpEmulator | None, seed: int):
    """Real-valued variance-minimizing plan, and its M2 pre-estimates.

    Returns ``(plan, inputs)``, ``inputs`` from :func:`m2_variance_inputs` with
    block pilots drawn with ``seed``.  With no caps the active-set solve ends
    after one pass, at the stationary plan with no active cap.
    """
    inputs = m2_variance_inputs(population, config, emulator, None, seed)
    return plan_for_population(population, inputs, config.effective_budget)[2], inputs


def build_plan(population: Population, config: ExperimentConfig, emulator: GpEmulator | None, seed: int):
    """Integer plan plus the variance pre-estimates that produced it (None for the equal plan).

    The optimized plan is :func:`optimized_plan`, rounded.
    """
    if config.plan_mode == "equal":
        r = int(round(config.effective_budget / population.n))
        return RealisationPlan.equal(population.n, max(r, 1)), None
    real, inputs = optimized_plan(population, config, emulator, seed)
    return round_plan(real), inputs


# --------------------------------------------------------------------------
# Coverage study


def interval_estimate(
    population: Population, config: ExperimentConfig, emulator, pilot_seed: int, estimate_seed: int
):
    """``(mu, interval)``: :func:`build_plan` with ``pilot_seed``, run with ``estimate_seed``.

    ``mu`` is :func:`estimate_mu` of the run and ``interval`` the
    ``config.coverage_p`` prediction interval of its total, from sample
    variances (method M1) or :func:`m2_variance_inputs` (method M2).
    """
    plan, plan_inputs = build_plan(population, config, emulator, pilot_seed)
    output = run_plan(population, plan, seed=estimate_seed, n_workers=config.threads)
    mu = estimate_mu(output, population)
    if config.interval_method == "M1":
        inputs = variance_inputs_from_samples(output, population)
    else:
        inputs = m2_variance_inputs(population, config, emulator, output, pilot_seed, plan_inputs)
    return mu, prediction_interval(mu.total, inputs, plan, population, p=config.coverage_p)


def _coverage_repetition(config: ExperimentConfig, emulator, rep: int):
    pop = config_population(config, rep)
    _, interval = interval_estimate(
        pop, config, emulator, derive_seed(config.seed, "pilot", rep), derive_seed(config.seed, "estimate", rep)
    )
    truth = run_plan(
        pop, RealisationPlan.equal(pop.n, 1), seed=derive_seed(config.seed, "truth", rep)
    )
    x_true = float(sum(truth.means))  # each mean is the account's one total; summed in id order
    return {
        "rep": rep,
        "contained": bool(interval.contains(x_true)),
        "length": 2.0 * interval.half_width,
        "midpoint": interval.center,
        "truth": x_true,
    }


# Each field of a coverage checkpoint record, what it must hold, and its test given the record's index.
_RECORD_CHECKS = (
    ("rep", "the record's index", lambda v, i: _is_integer(v) and v == i),
    ("contained", "true or false", lambda v, i: isinstance(v, bool)),
    *(
        (name, "a finite number", lambda v, i: _is_number(v) and math.isfinite(v))
        for name in ("length", "midpoint", "truth")
    ),
)
_RECORD_FIELDS = {name for name, _, _ in _RECORD_CHECKS}


def _checkpoint_records(path, key) -> list:
    """The records of the coverage checkpoint at ``path``, or none if it was written under another key.

    A field that fails its :data:`_RECORD_CHECKS` test raises a ``ValueError``
    naming the file, the record and the field.
    """
    saved = _read_json_object(path, "coverage checkpoint")
    if saved.get("key") != key:
        return []
    records = saved.get("records")
    if not isinstance(records, list) or not all(isinstance(r, dict) and _RECORD_FIELDS <= r.keys() for r in records):
        raise ValueError(f"{path}: coverage checkpoint field 'records' must be a list of repetition records")
    for i, rec in enumerate(records):
        for name, want, ok in _RECORD_CHECKS:
            if not ok(rec[name], i):
                raise ValueError(f"{path}: coverage checkpoint record {i} field {name!r} must be {want}, got {rec[name]!r}")
    return records


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
    directory, then a rename), and resumes from it.  A checkpoint is keyed on
    the config's output fields apart from its repetition count, and on the
    tool version: a study of any length, and with any worker count, resumes
    from the first repetitions of another.  A checkpoint file that is not a
    JSON object, or whose key matches but which holds no list of repetition
    records, raises a ``ValueError`` naming the file.

    The repetitions are mapped over ``config.threads`` processes, each
    repetition running at one worker; records, checkpoints and ``progress``
    calls stay in repetition order, so the report does not depend on the
    worker count apart from ``elapsed_seconds``.
    """
    key = _digest({**config._output_fields(), "repetitions": None, "tool_version": __version__})
    records = []
    if checkpoint_path and Path(checkpoint_path).exists():
        records = _checkpoint_records(checkpoint_path, key)[: config.repetitions]
    t0 = time.perf_counter()
    reps = range(len(records), config.repetitions)
    repetition = functools.partial(_coverage_repetition, dataclasses.replace(config, threads=1), emulator)
    for rep, record in zip(reps, _pool_map(repetition, reps, config.threads)):
        records.append(record)
        if checkpoint_path and (rep + 1) % 100 == 0:
            tmp = Path(f"{checkpoint_path}.tmp")
            tmp.write_text(json.dumps({"key": key, "records": records}))
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
        "elapsed_seconds": time.perf_counter() - t0,
    }


# --------------------------------------------------------------------------
# Portfolio protection


def protect_experiment(config: ExperimentConfig, emulator: GpEmulator | None = None) -> dict:
    """Constrained allocation under per-portfolio variance caps, end to end.

    Pre-estimates unit variances (:func:`m2_variance_inputs` with an
    emulator, :func:`reference_sigmas` without), solves the active-set
    problem, simulates the rounded plan and reports implied variances
    against the caps.
    """
    if config.caps is None:
        raise ValueError("protect experiments need per-portfolio caps")
    check_caps(config.caps, len(config.portfolio_probs))  # before any Monte Carlo
    pop = config_population(config)
    if emulator is not None:
        inputs = m2_variance_inputs(pop, config, emulator, None, derive_seed(config.seed, "pilot"))
    else:
        sigma, block = reference_sigmas(
            pop, config.sigma_reference_realisations, seed=derive_seed(config.seed, "sigma"), n_workers=config.threads
        )
        inputs = VarianceInputs(sigma2_independent=sigma**2, sigma2_block=block**2)
    problem, solution, real_plan = plan_for_population(pop, inputs, config.effective_budget, config.caps)
    int_plan = round_plan(real_plan)

    var_real, _ = estimator_variance(inputs, real_plan, pop)
    var_int, _ = estimator_variance(inputs, int_plan, pop)

    output = run_plan(pop, int_plan, seed=derive_seed(config.seed, "estimate"), n_workers=config.threads)
    mu = estimate_mu(output, pop)

    mean_counts = [
        float(int_plan.counts[pop.portfolio == j].mean()) for j in range(pop.n_portfolios)
    ]
    solution_doc = solution_to_json(problem, solution)
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
        "kkt": solution_doc["diagnostics"],
        "solution": solution_doc,
        "realized_cost": int_plan.cost,
    }


# --------------------------------------------------------------------------
# Emulator training


def train_emulator_experiment(config: ExperimentConfig) -> tuple:
    """Design, simulate, fit and validate the variance emulator.

    Returns ``(emulator, metrics)``; writes design/training CSVs plus the
    emulator JSON and metrics JSON, with sidecars, to ``config.out_dir``.
    """
    design = sliced_lhd(config.points_per_slice, seed=derive_seed(config.seed, "design"), n_workers=config.threads)
    observations = generate_training_data(
        design, config.train_realisations, seed=derive_seed(config.seed, "train"), n_workers=config.threads
    )
    emulator = fit_gp(observations)
    metrics = validate_on_test_design(emulator, config)
    out = config.make_out_dir()
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


def validate_on_test_design(emulator: GpEmulator, config: ExperimentConfig) -> dict:
    """:func:`validate_emulator` metrics of ``emulator`` on the config's random test design."""
    test = random_design(config.points_per_slice, seed=derive_seed(config.seed, "test"))
    return validate_emulator(
        emulator, test, config.train_realisations, seed=derive_seed(config.seed, "validate"), n_workers=config.threads
    )


# --------------------------------------------------------------------------
# Plain simulation run


def simulate_experiment(config: ExperimentConfig, emulator: GpEmulator | None) -> dict:
    """Simulate one plan over one population; write the standard outputs, with sidecars, to ``config.out_dir``."""
    pop = config_population(config)
    plan, _ = build_plan(pop, config, emulator, derive_seed(config.seed, "pilot"))
    output = run_plan(
        pop, plan, seed=derive_seed(config.seed, "estimate"), store_monthly=True, n_workers=config.threads
    )
    mu = estimate_mu(output, pop)
    report = {
        "experiment": config.name,
        "mu_total": mu.total,
        "mu_per_portfolio": mu.per_portfolio.tolist(),
        "plan_cost": plan.cost,
    }
    bands = None
    if np.all(plan.counts >= 2) and len(np.unique(plan.counts)) == 1:
        bands = monthly_bands(output, p=config.coverage_p)
        inputs = variance_inputs_from_samples(output, pop)
        interval = prediction_interval(mu.total, inputs, plan, pop, p=config.coverage_p)
        report["interval"] = {
            "lower": interval.lower,
            "upper": interval.upper,
            "coverage_p": config.coverage_p,
        }
    out = config.make_out_dir()
    pop.to_csv(out / "population.csv")
    pop.write_manifest(out / "population.manifest.json")
    plan.to_csv(pop, out / "plan.csv")
    output.summary_json(out / "collections_summary.json")
    with open(out / "curve.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["month", "mean", "lower", "upper"])
        for t, mean_t in enumerate(mu.per_month):
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
