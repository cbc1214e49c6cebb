"""Variance-minimizing allocation of the simulation budget.

Given per-account standard deviations sigma_i, per-block standard deviations
sigma_D,j and a total budget C, the real-valued optimum assigns

    R*_i = sigma_i * C / G          (independent account i)
    r*_j = (sigma_D,j / sqrt(|D_j|)) * C / G    (dependent block j)

with G = sum_j sqrt(|D_j|) sigma_D,j + sum_i sigma_i.  Real-valued plans are
rounded to integers: values in (0, 1) round up to one; everything else rounds
half away from zero.  Dependent-block variances are pre-estimated from pilot
realisations that are excluded from the final estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .population import Population
from .rng import stream
from .simulator import HORIZON, RealisationPlan, TransitionSchedule, _block_batches

__all__ = [
    "AllocationInputs",
    "RealAllocation",
    "optimal_allocation",
    "round_counts",
    "round_plan",
    "plan_for_population",
    "pilot_block_variance",
]


@dataclass(frozen=True)
class AllocationInputs:
    """Pooled allocation problem: all independents plus the dependent blocks."""

    sigma_independent: np.ndarray  # per independent account
    sigma_block: np.ndarray  # per dependent block (may be empty)
    block_size: np.ndarray  # |D_j| per dependent block
    budget: float

    def __post_init__(self):
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if np.any(np.asarray(self.sigma_independent) < 0) or np.any(np.asarray(self.sigma_block) < 0):
            raise ValueError("standard deviations must be non-negative")
        if len(self.sigma_block) != len(self.block_size):
            raise ValueError("sigma_block and block_size must align")
        if np.any(np.asarray(self.block_size) <= 0) and len(self.block_size):
            raise ValueError("block sizes must be positive")

    @property
    def weight(self) -> float:
        """sqrt(|D|)-weighted total standard deviation, the allocation denominator."""
        return float(
            (np.sqrt(np.asarray(self.block_size, dtype=float)) * self.sigma_block).sum()
            + np.asarray(self.sigma_independent).sum()
        )


@dataclass(frozen=True)
class RealAllocation:
    """Real-valued realisation counts, aligned with the inputs."""

    r_independent: np.ndarray
    r_block: np.ndarray

    def total_cost(self, block_size) -> float:
        return float(self.r_independent.sum() + (self.r_block * np.asarray(block_size)).sum())


def optimal_allocation(inputs: AllocationInputs) -> RealAllocation:
    """Closed-form variance-minimizing real-valued allocation."""
    g = inputs.weight
    if g <= 0:
        raise ValueError("degenerate problem: all standard deviations are zero")
    scale = inputs.budget / g
    return RealAllocation(
        r_independent=np.asarray(inputs.sigma_independent, dtype=float) * scale,
        r_block=np.asarray(inputs.sigma_block, dtype=float)
        / np.sqrt(np.asarray(inputs.block_size, dtype=float))
        * scale,
    )


def round_counts(counts) -> np.ndarray:
    """Round real counts: [0, 1) -> 1, else half away from zero.

    A zero count arises only for zero-variance units, which still need one
    realisation to estimate their (deterministic) total.
    """
    c = np.asarray(counts, dtype=float)
    if np.any(c < 0):
        raise ValueError("counts must be non-negative before rounding")
    rounded = np.floor(c + 0.5)
    return np.where(c < 1.0, 1.0, rounded)


def round_plan(plan: RealisationPlan, population: Population | None = None) -> RealisationPlan:
    """Integer plan from a real-valued plan; block counts are rounded once."""
    counts = round_counts(plan.counts)
    if population is not None:
        for pf in population.portfolios:
            dep = pf.dependent_ids
            if len(dep):
                counts[dep] = round_counts([plan.counts[dep[0]]])[0]
    return RealisationPlan(counts=counts)


def plan_for_population(
    population: Population,
    sigma_independent: np.ndarray,
    sigma_block: np.ndarray,
    budget: float,
) -> RealisationPlan:
    """Real-valued optimal plan expressed per account id.

    ``sigma_independent`` is indexed by account id (dependent entries are
    ignored); ``sigma_block`` is indexed by portfolio, NaN where a portfolio
    has no dependent block.
    """
    pfs = population.portfolios
    block_js = [j for j, pf in enumerate(pfs) if len(pf.dependent_ids)]
    indep = population.independent_ids
    inputs = AllocationInputs(
        sigma_independent=np.asarray(sigma_independent)[indep],
        sigma_block=np.array([sigma_block[j] for j in block_js]),
        block_size=np.array([len(pfs[j].dependent_ids) for j in block_js]),
        budget=budget,
    )
    alloc = optimal_allocation(inputs)
    counts = np.empty(population.n)
    counts[indep] = alloc.r_independent
    for pos, j in enumerate(block_js):
        counts[pfs[j].dependent_ids] = alloc.r_block[pos]
    return RealisationPlan(counts=counts)


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
