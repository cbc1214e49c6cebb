"""Variance-minimizing allocation of the simulation budget over a population.

The allocation problem is the one of :mod:`collsim.constrained`; this module
maps a population onto it and back.  With no caps the optimum is the
stationarity solution with an empty active set:

    R*_i = sigma_i * C / G          (independent account i)
    r*_j = (sigma_D,j / sqrt(|D_j|)) * C / G    (dependent block j)

with G = sum_j gamma_j, gamma_j = sqrt(|D_j|) sigma_D,j + sum_{i in I_j} sigma_i.
Real-valued plans are rounded to integers (:func:`collsim.constrained.round_counts`),
one count per block.  Dependent-block variances are pre-estimated from pilot
realisations that are excluded from the final estimator.
"""

from __future__ import annotations

import numpy as np

from .constrained import (
    ConstrainedPlan,
    ConstrainedProblem,
    PortfolioInputs,
    round_counts,
    stationarity_solution,
)
from .population import Population
from .rng import stream
from .simulator import HORIZON, RealisationPlan, TransitionSchedule, _block_batches

__all__ = [
    "round_plan",
    "constrained_problem_for_population",
    "constrained_plan_for_population",
    "plan_for_population",
    "pilot_block_variance",
]


def round_plan(plan: RealisationPlan, population: Population | None = None) -> RealisationPlan:
    """Integer plan from a real-valued plan; block counts are rounded once."""
    counts = round_counts(plan.counts)
    if population is not None:
        for pf in population.portfolios:
            dep = pf.dependent_ids
            if len(dep):
                counts[dep] = round_counts([plan.counts[dep[0]]])[0]
    return RealisationPlan(counts=counts)


def constrained_problem_for_population(
    population: Population, sigma: np.ndarray, sigma_block: np.ndarray, caps, budget: float
) -> ConstrainedProblem:
    """One :class:`PortfolioInputs` per portfolio of ``population``.

    ``sigma`` is indexed by account id (dependent entries are ignored);
    ``sigma_block`` is indexed by portfolio, NaN where a portfolio has no
    dependent block.
    """
    sigma = np.asarray(sigma)
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


def constrained_plan_for_population(population: Population, plan: ConstrainedPlan) -> RealisationPlan:
    """Per-account real-valued counts of a per-portfolio plan."""
    counts = np.empty(population.n)
    for j, pf in enumerate(population.portfolios):
        counts[pf.independent_ids] = plan.r_independent[j]
        if len(pf.dependent_ids):
            counts[pf.dependent_ids] = plan.r_block[j]
    return RealisationPlan(counts=counts)


def plan_for_population(
    population: Population,
    sigma_independent: np.ndarray,
    sigma_block: np.ndarray,
    budget: float,
) -> RealisationPlan:
    """Real-valued optimal plan per account id: the stationary plan with no caps.

    Arguments are indexed as in :func:`constrained_problem_for_population`.
    """
    caps = np.full(population.n_portfolios, np.inf)
    problem = constrained_problem_for_population(population, sigma_independent, sigma_block, caps, budget)
    return constrained_plan_for_population(population, stationarity_solution(problem, frozenset()))


def pilot_block_variance(
    population: Population,
    portfolio_j: int,
    schedule: TransitionSchedule,
    n_pilot: int = 50,
    seed: int = 0,
    horizon: int = HORIZON,
) -> float:
    """Sample variance of the block total over ``n_pilot`` pilot realisations.

    Pilot realisations live in their own seed domain and are never part of
    the final estimator, so the budget accounting is unaffected.
    """
    if n_pilot < 2:
        raise ValueError(f"pilot variance needs n_pilot >= 2, got {n_pilot}")
    dep = population.portfolios[portfolio_j].dependent_ids
    if not len(dep):
        raise ValueError(f"portfolio {portfolio_j} has no dependent block")
    g = stream(seed, "pilot", portfolio_j)
    batches = _block_batches(population, dep, schedule, g, n_pilot, horizon)
    totals = np.concatenate([m.reshape(len(m), -1).sum(axis=1) for _, m in batches])
    return float(totals.var(ddof=1))
