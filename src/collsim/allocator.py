"""Variance-minimizing allocation of the simulation budget over a population.

:func:`plan_for_population` is the one solve from variance inputs to a plan.
It maps a population's per-account and per-block standard deviations onto
the allocation problem of :mod:`collsim.constrained`, solves it by the
active-set method under optional per-portfolio variance caps, and maps the
solution back to per-account counts.  With no finite cap the solve ends after
one pass, at the stationarity solution with an empty active set:

    R*_i = sigma_i * C / G          (independent account i)
    r*_j = (sigma_D,j / sqrt(|D_j|)) * C / G    (dependent block j)

with G = sum_j gamma_j, gamma_j = sqrt(|D_j|) sigma_D,j + sum_{i in I_j} sigma_i.
Real-valued plans are rounded to integers (:func:`collsim.constrained.round_counts`),
one count per block.  Dependent-block variances are pre-estimated from pilot
realisations that are excluded from the final estimator.
"""

from __future__ import annotations

import numpy as np

from . import constrained
from .constrained import ActiveSetSolution, ConstrainedProblem, PortfolioInputs, round_counts
from .estimators import VarianceInputs
from .population import Population
from .simulator import HORIZON, RealisationPlan, _block_items, _pool_map, _simulate_block_item

__all__ = [
    "round_plan",
    "plan_for_population",
    "pilot_block_variance",
]


def round_plan(plan: RealisationPlan) -> RealisationPlan:
    """Integer plan from a real-valued plan: :func:`collsim.constrained.round_counts` of every count.

    The members of a block share one real count, so they share its rounding.
    """
    return RealisationPlan(round_counts(plan.counts))


def plan_for_population(
    population: Population, inputs: VarianceInputs, budget: float, caps=None
) -> tuple[ConstrainedProblem, ActiveSetSolution, RealisationPlan]:
    """Variance-minimizing real-valued plan of ``budget`` realisations: ``(problem, solution, plan)``.

    The standard deviations are the roots of ``inputs``' variances.  ``caps``
    holds one variance cap per portfolio, ``np.inf`` for none; ``None``
    leaves every portfolio uncapped.  ``problem`` has one
    :class:`PortfolioInputs` per portfolio of ``population``, ``solution`` is
    its :func:`collsim.constrained.active_set_solve`, and ``plan`` gives
    every account its unit's count, a block's count to each of its members.
    """
    sigma, sigma_block = np.sqrt(inputs.sigma2_independent), np.sqrt(inputs.sigma2_block)
    caps = np.full(population.n_portfolios, np.inf) if caps is None else np.asarray(caps, dtype=float)
    portfolios = tuple(
        PortfolioInputs(
            sigma_independent=sigma[pf.independent_ids],
            sigma_block=float(sigma_block[j]) if len(pf.dependent_ids) else 0.0,
            block_size=len(pf.dependent_ids),
        )
        for j, pf in enumerate(population.portfolios)
    )
    problem = ConstrainedProblem(portfolios=portfolios, caps=caps, budget=budget)
    solution = constrained.active_set_solve(problem)  # through the module, so a replaced solver is seen
    counts = np.empty(population.n)
    for j, pf in enumerate(population.portfolios):
        counts[pf.independent_ids] = solution.plan.r_independent[j]
        if len(pf.dependent_ids):
            counts[pf.dependent_ids] = solution.plan.r_block[j]
    return problem, solution, RealisationPlan(counts=counts)


def pilot_block_variance(
    population: Population,
    portfolio_j: int,
    n_pilot: int = 50,
    seed: int = 0,
    n_workers: int = 1,
) -> float:
    """Sample variance of the block total over ``n_pilot`` pilot realisations.

    The block runs under ``DEFAULT_SCHEDULE``, as in :func:`run_plan`, from
    the stream ``(seed, "pilot", portfolio_j)``, with its realisations
    mapped over ``n_workers`` processes.  A realisation's total is the sum of
    its account totals, as in :func:`run_plan`'s ``block_totals``.  Pilot
    realisations live in their own seed domain and are never part of the
    final estimator, so the budget accounting is unaffected.
    """
    if n_pilot < 2:
        raise ValueError(f"pilot variance needs n_pilot >= 2, got {n_pilot}")
    dep = population.portfolios[portfolio_j].dependent_ids
    if not len(dep):
        raise ValueError(f"portfolio {portfolio_j} has no dependent block")
    items = _block_items(population, dep, seed, ("pilot", portfolio_j), n_pilot, HORIZON)
    totals = np.concatenate([tot.sum(axis=1) for tot, _ in _pool_map(_simulate_block_item, items, n_workers)])
    return float(totals.var(ddof=1))
