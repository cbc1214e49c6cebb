"""Command-line interface.

Subcommands cover the full workflow: simulation runs, optimal and
cap-constrained budget allocation, prediction intervals, coverage studies,
emulator training and validation, and a self-check of the constrained solver
against a brute-force oracle.  Options can come from a JSON config file
(``--config``); explicit flags override config values.  ``READS`` lists the
fields each subcommand reads, and its flags are ``FLAGS`` of those fields;
only a run that uses ``--emulator`` takes it.
Exit status is 0 on success, 1 on any error, and 1 from ``oracle-check``
when a mismatch is found.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .allocator import round_plan
from .constrained import (
    ConstrainedProblem,
    PortfolioInputs,
    active_set_solve,
    brute_force_oracle,
    kkt_report,
    plan_to_csv,
    problem_from_json,
    solution_to_json,
)
from .emulator import GpEmulator
from .estimators import estimator_variance
from .experiments import (
    ExperimentConfig,
    config_population,
    coverage_study,
    interval_estimate,
    optimized_plan,
    protect_experiment,
    read_config_file,
    simulate_experiment,
    train_emulator_experiment,
    validate_on_test_design,
    write_sidecar,
)
from .rng import derive_seed, stream
from .simulator import RealisationPlan

log = logging.getLogger("collsim")


def _write_json(path, doc, config: ExperimentConfig) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    write_sidecar(path, config)
    log.info("wrote %s", path)


# The config fields each form of a subcommand reads, besides seed, threads and out_dir.
_PLAN = ("n_accounts", "portfolio_probs", "budget", "n_pilot")
_INTERVAL = (*_PLAN, "plan_mode", "interval_method", "coverage_p")
READS = {
    "simulate": (*_PLAN, "plan_mode", "coverage_p"),
    "allocate": _PLAN,
    "protect": (*_PLAN, "caps", "sigma_reference_realisations"),
    "protect --problem": (),
    "interval": _INTERVAL,
    "coverage-study": (*_INTERVAL, "repetitions"),
    "train-emulator": ("points_per_slice", "train_realisations"),
    "validate-emulator": ("points_per_slice", "train_realisations"),
    "oracle-check": (),
}


# The flag of each field that has one, with its add_argument keywords; a subcommand has the flags of the fields it reads.
FLAGS = {
    "n_accounts": ("--n-accounts", {"type": int}),
    "portfolio_probs": ("--portfolio-probs", {"type": float, "nargs": "+", "help": "portfolio membership probabilities"}),
    "budget": ("--budget", {"type": float, "help": "total realisation budget (default 25 per account)"}),
    "plan_mode": ("--plan", {"choices": ["equal", "optimized"]}),
    "interval_method": ("--method", {"choices": ["M1", "M2"], "help": "variance source for the interval"}),
    "caps": ("--caps", {"type": float, "nargs": "+", "help": "per-portfolio variance caps"}),
    "repetitions": ("--repetitions", {"type": int}),
    "points_per_slice": ("--points-per-slice", {"type": int}),
    "train_realisations": ("--train-realisations", {"type": int, "help": "realisations per design or test point"}),
}

# The forms that use --emulator on every run, and those that use it only for an optimized plan or an M2 interval.
_EMULATOR_ALWAYS = ("allocate", "protect", "validate-emulator")
_EMULATOR_IF_OPTIMIZED_OR_M2 = ("simulate", "interval", "coverage-study")


def _reads_emulator(form: str, settings: dict) -> bool:
    """Whether a run of ``form`` with ``settings`` uses ``--emulator``."""
    if form in _EMULATOR_IF_OPTIMIZED_OR_M2:
        return settings.get("plan_mode") == "optimized" or settings.get("interval_method") == "M2"
    return form in _EMULATOR_ALWAYS


def _config_from_args(args) -> ExperimentConfig:
    """The ``--config`` file's settings under the flags given; a setting or ``--emulator`` the run does not read raises first."""
    form = args.command + (" --problem" if getattr(args, "problem", None) else "")
    flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(ExperimentConfig)}
    flags = {k: tuple(v) if isinstance(v, list) else v for k, v in flags.items() if v is not None}
    settings = read_config_file(args.config) if args.config else {}
    reads = {"seed", "threads", "out_dir", *READS[form]}
    unread = [FLAGS[k][0] for k in flags if k not in reads]
    if getattr(args, "emulator", None) and not _reads_emulator(form, {**settings, **flags}):
        unread.append("--emulator")
    keys = sorted(set(settings) - reads)
    if keys:
        unread.append(f"config keys {keys} of {args.config}")
    if unread:
        raise ValueError(f"{form} does not read {', '.join(unread)}")
    return ExperimentConfig(**{**settings, **flags}, name=args.command)


def _load_emulator(args) -> GpEmulator | None:
    path = getattr(args, "emulator", None)
    return GpEmulator.from_json(path) if path else None


# --------------------------------------------------------------------------
# Subcommands


def cmd_simulate(args, config: ExperimentConfig) -> int:
    report = simulate_experiment(config, _load_emulator(args))
    print(f"estimated total collections: {report['mu_total']:.2f}")
    return 0


def cmd_allocate(args, config: ExperimentConfig) -> int:
    pop = config_population(config)
    real, inputs = optimized_plan(pop, config, _load_emulator(args), derive_seed(config.seed, "pilot"))
    plan = round_plan(real)
    _, var_opt = estimator_variance(inputs, real, pop)
    r_eq = config.effective_budget / pop.n
    _, var_eq = estimator_variance(inputs, RealisationPlan.equal(pop.n, r_eq), pop)
    out = config.make_out_dir()
    real.to_csv(pop, out / "plan.csv")
    write_sidecar(out / "plan.csv", config)
    _write_json(
        out / "allocation_report.json",
        {
            "budget": config.effective_budget,
            "plan_cost_rounded": plan.cost,
            "variance_optimized": var_opt,
            "variance_equal": var_eq,
            "variance_reduction": 1.0 - var_opt / var_eq,
        },
        config,
    )
    print(f"variance reduction vs equal plan: {100 * (1 - var_opt / var_eq):.1f}%")
    return 0


def cmd_protect(args, config: ExperimentConfig) -> int:
    if args.problem:
        # a standalone solve of the problem file, which holds the budget, caps and sigmas; no simulation
        problem = problem_from_json(args.problem)
        config = dataclasses.replace(config, caps=tuple(problem.caps))
        solution = active_set_solve(problem)
        out = config.make_out_dir()
        plan_to_csv(problem, solution, out / "plan.csv")
        write_sidecar(out / "plan.csv", config)
        doc = solution_to_json(problem, solution)
        doc["kkt"] = doc["diagnostics"]
        _write_json(out / "protect_report.json", doc, config)
        print(f"active caps: {sorted(solution.active)}")
        return 0
    report = protect_experiment(config, emulator=_load_emulator(args))
    _write_json(config.make_out_dir() / "protect_report.json", report, config)
    print(
        "portfolio variances (rounded plan): "
        + ", ".join(f"{v:.4g}" for v in report["portfolio_variances_rounded_plan"])
    )
    return 0


def cmd_interval(args, config: ExperimentConfig) -> int:
    emulator = _load_emulator(args)
    pop = config_population(config)
    mu, interval = interval_estimate(
        pop, config, emulator, derive_seed(config.seed, "pilot"), derive_seed(config.seed, "estimate")
    )
    doc = {
        "mu_total": mu.total,
        "lower": interval.lower,
        "upper": interval.upper,
        "coverage_p": config.coverage_p,
        "method": config.interval_method,
        "relative_uncertainty": interval.relative_uncertainty,
    }
    _write_json(config.make_out_dir() / "interval.json", doc, config)
    print(f"[{interval.lower:.2f}, {interval.upper:.2f}] at p={config.coverage_p}")
    return 0


def cmd_coverage_study(args, config: ExperimentConfig) -> int:
    out = config.make_out_dir()

    def progress(done, total):
        if done % 100 == 0 or done == total:
            log.info("coverage study: %d/%d repetitions", done, total)

    report = coverage_study(
        config,
        emulator=_load_emulator(args),
        checkpoint_path=out / "coverage_checkpoint.json",
        progress=progress,
    )
    _write_json(out / "coverage_report.json", report, config)
    print(
        f"coverage {report['coverage']:.3f} at nominal {config.coverage_p}, "
        f"mean length {report['mean_length']:.2f}"
    )
    return 0


def cmd_train_emulator(args, config: ExperimentConfig) -> int:
    _, metrics = train_emulator_experiment(config)
    print(f"test-set sd correlation: {metrics['pooled']['sd_correlation']:.3f}")
    return 0


def cmd_validate_emulator(args, config: ExperimentConfig) -> int:
    metrics = validate_on_test_design(_load_emulator(args), config)
    _write_json(config.make_out_dir() / "validation.json", metrics, config)
    print(f"test-set sd correlation: {metrics['pooled']['sd_correlation']:.3f}")
    return 0


def _random_problem(g, n_portfolios: int) -> ConstrainedProblem:
    portfolios = []
    for _ in range(n_portfolios):
        n_i = int(g.integers(1, 6))
        has_block = g.random() < 0.5
        size = int(g.integers(2, 6)) if has_block else 0
        pf = PortfolioInputs(
            sigma_independent=g.uniform(10.0, 300.0, size=n_i),
            sigma_block=float(g.uniform(20.0, 500.0)) if has_block else 0.0,
            block_size=size,
        )
        portfolios.append(pf)
    gammas = np.array([pf.gamma for pf in portfolios])
    # caps sized so some constraints bind but strict feasibility holds
    eps = g.uniform(0.05, 2.0, size=n_portfolios)
    caps = gammas / eps
    budget = float((gammas * eps).sum() * g.uniform(1.05, 3.0))
    return ConstrainedProblem(portfolios=tuple(portfolios), caps=caps, budget=budget)


def cmd_oracle_check(args, config: ExperimentConfig) -> int:
    n_instances = args.instances
    if n_instances < 1:
        raise ValueError(f"--instances must be at least 1, got {n_instances}")
    rtol = 1e-8
    g = stream(config.seed, "oracle-check")
    failures = []
    for k in range(n_instances):
        problem = _random_problem(g, int(g.integers(2, 7)))
        solution = active_set_solve(problem)
        oracle = brute_force_oracle(problem)
        if oracle is None:
            failures.append({"instance": k, "reason": "oracle found no KKT point"})
            continue
        o_active, o_obj, _ = oracle
        rel = abs(solution.plan.objective(problem) - o_obj) / abs(o_obj)
        report = kkt_report(problem, solution)
        if not (rel <= rtol and report["stationarity_residual"] < 1e-8 and report["min_delta"] >= -1e-12):
            failures.append(
                {
                    "instance": k,
                    "objective_rel_err": rel,
                    "active_set": sorted(solution.active),
                    "oracle_active_set": sorted(o_active),
                    "kkt": report,
                }
            )
    doc = {"instances": n_instances, "failures": failures, "passed": not failures}
    _write_json(config.make_out_dir() / "oracle_check.json", doc, config)
    print(f"oracle check: {n_instances - len(failures)}/{n_instances} instances matched")
    return 0 if not failures else 1


# --------------------------------------------------------------------------
# Parser


SUBCOMMANDS = {
    "simulate": (cmd_simulate, "simulate a plan and write population, plan and collections outputs"),
    "allocate": (cmd_allocate, "compute the variance-minimizing plan for a budget"),
    "protect": (cmd_protect, "allocate under per-portfolio variance caps (active-set solver)"),
    "interval": (cmd_interval, "prediction interval for total collections"),
    "coverage-study": (cmd_coverage_study, "repeated-interval coverage against fresh truths"),
    "train-emulator": (cmd_train_emulator, "design, simulate, fit and validate the variance emulator"),
    "validate-emulator": (cmd_validate_emulator, "test-set metrics for a trained emulator"),
    "oracle-check": (cmd_oracle_check, "verify the active-set solver against brute-force enumeration"),
}

# The flags of a subcommand besides the common four, those of FLAGS and --emulator.
_EXTRAS = {
    "protect": {"--problem": {"help": "solve a problem JSON directly instead of simulating"}},
    "oracle-check": {"--instances": {"type": int, "default": 200, "help": "random problems to check (at least 1)"}},
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per ``SUBCOMMANDS`` entry: the common flags, ``FLAGS`` of the fields it reads, its own extras and ``--emulator`` where a form of it uses one."""
    parser = argparse.ArgumentParser(
        prog="collsim", description="Monte Carlo collections forecasting for loan portfolios"
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; explicit flags override its values")
        p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
        p.add_argument("--threads", type=int, default=None, help="worker processes for the Monte Carlo stages (default: the CPUs this process may use)")
        p.add_argument("--out", dest="out_dir", default=None, help="output directory (default: the config file's out_dir, else ./out)")
        for field in (f for f in READS[name] if f in FLAGS):
            p.add_argument(FLAGS[field][0], dest=field, default=None, **FLAGS[field][1])
        for flag, kwargs in _EXTRAS.get(name, {}).items():
            p.add_argument(flag, **kwargs)
        if name in _EMULATOR_ALWAYS + _EMULATOR_IF_OPTIMIZED_OR_M2:
            p.add_argument("--emulator", required=name in ("allocate", "validate-emulator"), help="emulator JSON of per-account variances")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(asctime)s %(levelname)s %(message)s",
    )
    try:
        return args.func(args, _config_from_args(args))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.error("%s", exc, exc_info=args.verbose)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
