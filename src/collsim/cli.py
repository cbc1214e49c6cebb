"""Command-line interface.

Subcommands cover the full workflow: simulation runs, optimal and
cap-constrained budget allocation, prediction intervals, coverage studies,
emulator training and validation, and a self-check of the constrained solver
against a brute-force oracle.  Options can come from a JSON config file
(``--config``); explicit flags override config values.  Exit status is 0 on
success, 1 on any error, and 1 from ``oracle-check`` when a mismatch is found.
"""

from __future__ import annotations

import argparse
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
from .emulator import GpEmulator, random_design, validate_emulator
from .estimators import (
    estimate_mu,
    estimator_variance,
    prediction_interval,
    variance_inputs_from_samples,
)
from .experiments import (
    ExperimentConfig,
    coverage_study,
    m2_variance_inputs,
    optimized_plan,
    protect_experiment,
    simulate_experiment,
    train_emulator_experiment,
    write_sidecar,
)
from .population import init_population
from .rng import derive_seed, stream
from .simulator import RealisationPlan, run_plan

log = logging.getLogger("collsim")


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON serializable: {type(x)}")


def _write_json(path, doc, config=None):
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True, default=_json_default) + "\n")
    if config is not None:
        write_sidecar(path, config)
    log.info("wrote %s", path)


def _config_from_args(args, **extra) -> ExperimentConfig:
    overrides = dict(
        seed=args.seed,
        threads=args.threads,
        out_dir=args.out,
        n_accounts=getattr(args, "n_accounts", None),
        plan_mode=getattr(args, "plan", None),
        budget=getattr(args, "budget", None),
        interval_method=getattr(args, "method", None),
        repetitions=getattr(args, "repetitions", None),
        portfolio_probs=tuple(args.portfolio_probs) if getattr(args, "portfolio_probs", None) else None,
        caps=tuple(args.caps) if getattr(args, "caps", None) else None,
        points_per_slice=getattr(args, "points_per_slice", None),
        train_realisations=getattr(args, "train_realisations", None),
    )
    overrides.update(extra)
    if args.config:
        return ExperimentConfig.from_file(args.config, **overrides)
    return ExperimentConfig(**{k: v for k, v in overrides.items() if v is not None})


def _load_emulator(args) -> GpEmulator | None:
    path = getattr(args, "emulator", None)
    return GpEmulator.from_json(path) if path else None


def _out_dir(args) -> Path:
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


# --------------------------------------------------------------------------
# Subcommands


def cmd_simulate(args) -> int:
    config = _config_from_args(args, name="simulate")
    report = simulate_experiment(config, emulator=_load_emulator(args), out_dir=_out_dir(args))
    print(f"estimated total collections: {report['mu_total']:.2f}")
    return 0


def cmd_allocate(args) -> int:
    config = _config_from_args(args, name="allocate")
    emulator = _load_emulator(args)
    if emulator is None:
        raise ValueError("allocate needs --emulator for per-account variance predictions")
    pop = init_population(config.n_accounts, config.portfolio_probs, seed=derive_seed(config.seed, "pop"))
    real, inputs = optimized_plan(pop, config, emulator, derive_seed(config.seed, "pilot"))
    plan = round_plan(real, pop)
    _, var_opt = estimator_variance(inputs, real, pop)
    r_eq = config.effective_budget / pop.n
    _, var_eq = estimator_variance(inputs, RealisationPlan.equal(pop.n, r_eq), pop)
    out = _out_dir(args)
    real.to_csv(pop, out / "plan.csv", int_counts=plan.counts.astype(int))
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


def cmd_protect(args) -> int:
    out = _out_dir(args)
    if getattr(args, "problem", None):
        # standalone solve of a problem file, no simulation
        problem = problem_from_json(args.problem)
        solution = active_set_solve(problem)
        config = _config_from_args(args, name="protect", caps=tuple(problem.caps))
        plan_to_csv(problem, solution, out / "plan.csv")
        write_sidecar(out / "plan.csv", config)
        doc = solution_to_json(problem, solution)
        doc["kkt"] = kkt_report(problem, solution)
        _write_json(out / "protect_report.json", doc, config)
        print(f"active caps: {sorted(solution.active)}")
        return 0
    config = _config_from_args(args, name="protect")
    report = protect_experiment(config, emulator=_load_emulator(args))
    _write_json(out / "protect_report.json", report, config)
    print(
        "portfolio variances (rounded plan): "
        + ", ".join(f"{v:.4g}" for v in report["portfolio_variances_rounded_plan"])
    )
    return 0


def cmd_interval(args) -> int:
    config = _config_from_args(args, name="interval")
    emulator = _load_emulator(args)
    pop = init_population(config.n_accounts, config.portfolio_probs, seed=derive_seed(config.seed, "pop"))
    from .experiments import build_plan

    pilot_seed = derive_seed(config.seed, "pilot")
    plan, plan_inputs = build_plan(pop, config, emulator, pilot_seed)
    output = run_plan(pop, plan, seed=derive_seed(config.seed, "estimate"), n_workers=config.threads)
    mu = estimate_mu(output, plan, pop)
    if config.interval_method == "M1":
        inputs = variance_inputs_from_samples(output, pop)
    else:
        inputs = m2_variance_inputs(pop, config, emulator, output, pilot_seed, plan_inputs)
    interval = prediction_interval(mu.total, inputs, plan, pop, p=config.coverage_p)
    doc = {
        "mu_total": mu.total,
        "lower": interval.lower,
        "upper": interval.upper,
        "coverage_p": config.coverage_p,
        "method": config.interval_method,
        "relative_uncertainty": interval.relative_uncertainty,
    }
    _write_json(_out_dir(args) / "interval.json", doc, config)
    print(f"[{interval.lower:.2f}, {interval.upper:.2f}] at p={config.coverage_p}")
    return 0


def cmd_coverage_study(args) -> int:
    config = _config_from_args(args, name="coverage-study")
    out = _out_dir(args)

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


def cmd_train_emulator(args) -> int:
    config = _config_from_args(args, name="train-emulator")
    _, metrics = train_emulator_experiment(config, out_dir=_out_dir(args))
    print(f"test-set sd correlation: {metrics['pooled']['sd_correlation']:.3f}")
    return 0


def cmd_validate_emulator(args) -> int:
    config = _config_from_args(args, name="validate-emulator")
    emulator = _load_emulator(args)
    if emulator is None:
        raise ValueError("validate-emulator needs --emulator")
    test = random_design(config.points_per_slice, seed=derive_seed(config.seed, "test"))
    metrics = validate_emulator(
        emulator, test, config.train_realisations, seed=derive_seed(config.seed, "validate")
    )
    _write_json(_out_dir(args) / "validation.json", metrics, config)
    print(f"test-set sd correlation: {metrics['pooled']['sd_correlation']:.3f}")
    return 0


def _random_problem(g, n_portfolios: int) -> ConstrainedProblem:
    portfolios = []
    gammas = []
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
        gammas.append(pf.gamma)
    gammas = np.array(gammas)
    # caps sized so some constraints bind but strict feasibility holds
    eps = g.uniform(0.05, 2.0, size=n_portfolios)
    caps = gammas / eps
    budget = float((gammas * eps).sum() * g.uniform(1.05, 3.0))
    return ConstrainedProblem(portfolios=tuple(portfolios), caps=caps, budget=budget)


def cmd_oracle_check(args) -> int:
    config = _config_from_args(args, name="oracle-check")
    n_instances = args.instances
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
        ok = (
            rel <= rtol
            and report["stationarity_residual"] < 1e-8
            and report["min_delta"] >= -1e-12
        )
        if not ok:
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
    _write_json(_out_dir(args) / "oracle_check.json", doc, config)
    print(f"oracle check: {n_instances - len(failures)}/{n_instances} instances matched")
    return 0 if not failures else 1


# --------------------------------------------------------------------------
# Parser


def _add_common(p):
    p.add_argument("--config", help="JSON config file; explicit flags override its values")
    p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    p.add_argument("--threads", type=int, default=None, help="worker processes for the independent-account chunks (default 1)")
    p.add_argument("--out", default=None, help="output directory (default ./out)")


def _add_population(p):
    p.add_argument("--n-accounts", type=int, default=None)
    p.add_argument(
        "--portfolio-probs", type=float, nargs="+", default=None, help="portfolio membership probabilities"
    )
    p.add_argument("--budget", type=float, default=None, help="total realisation budget (default 25 per account)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collsim", description="Monte Carlo collections forecasting for loan portfolios"
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a plan and write population, plan and collections outputs")
    _add_common(p)
    _add_population(p)
    p.add_argument("--plan", choices=["equal", "optimized"], default=None)
    p.add_argument("--emulator", help="emulator JSON (needed for optimized plans)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("allocate", help="compute the variance-minimizing plan for a budget")
    _add_common(p)
    _add_population(p)
    p.add_argument("--emulator", required=True, help="emulator JSON for per-account variances")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("protect", help="allocate under per-portfolio variance caps (active-set solver)")
    _add_common(p)
    _add_population(p)
    p.add_argument("--caps", type=float, nargs="+", default=None, help="per-portfolio variance caps")
    p.add_argument("--problem", help="solve a problem JSON directly instead of simulating")
    p.add_argument("--emulator", help="emulator JSON for sigma pre-estimation")
    p.set_defaults(func=cmd_protect)

    p = sub.add_parser("interval", help="prediction interval for total collections")
    _add_common(p)
    _add_population(p)
    p.add_argument("--plan", choices=["equal", "optimized"], default=None)
    p.add_argument("--method", choices=["M1", "M2"], default=None, help="variance source for the interval")
    p.add_argument("--emulator", help="emulator JSON (needed for M2 or optimized plans)")
    p.set_defaults(func=cmd_interval)

    p = sub.add_parser("coverage-study", help="repeated-interval coverage against fresh truths")
    _add_common(p)
    _add_population(p)
    p.add_argument("--plan", choices=["equal", "optimized"], default=None)
    p.add_argument("--method", choices=["M1", "M2"], default=None)
    p.add_argument("--repetitions", type=int, default=None)
    p.add_argument("--emulator", help="emulator JSON")
    p.set_defaults(func=cmd_coverage_study)

    p = sub.add_parser("train-emulator", help="design, simulate, fit and validate the variance emulator")
    _add_common(p)
    p.add_argument("--points-per-slice", type=int, default=None)
    p.add_argument("--train-realisations", type=int, default=None)
    p.set_defaults(func=cmd_train_emulator)

    p = sub.add_parser("validate-emulator", help="test-set metrics for a trained emulator")
    _add_common(p)
    p.add_argument("--emulator", required=True, help="emulator JSON")
    p.add_argument("--points-per-slice", type=int, default=None)
    p.add_argument("--train-realisations", type=int, default=None, help="realisations per test point")
    p.set_defaults(func=cmd_validate_emulator)

    p = sub.add_parser("oracle-check", help="verify the active-set solver against brute-force enumeration")
    _add_common(p)
    p.add_argument("--instances", type=int, default=200)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(asctime)s %(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.error("%s", exc, exc_info=args.verbose)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
