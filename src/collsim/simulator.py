"""Month-by-month simulation of account repayment over an 84-month horizon.

Each account follows a logistic Markov payment model: the probability of a
payment in a month depends on the account's credit score, its current segment
and whether it paid in the previous month.  A payment is the lower of 50 and
the outstanding balance, and payments cease permanently once the balance hits
zero.

Accounts in a dependent block are simulated jointly: at each scheduled
transition month, the accounts with the best credit scores among those that
are eligible, currently in segment 3 and did not pay in the preceding month
are moved to segment 1, subject to the schedule's capacity.

Draw discipline: every path consumes exactly ``horizon`` uniforms per account
regardless of early absorption, so realisation ``k`` of a unit always occupies
draw block ``k`` of the unit's stream.

:func:`run_plan` streams the independent accounts in chunks of about
``_CHUNK_PATHS`` paths, and each dependent block's realisations in batches of
about as many account-realisations, so its memory does not grow with the
number of paths beyond the flat array of realised totals.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.special import expit

from .population import Account, Population
from .rng import _unit_streams, stream

__all__ = [
    "HORIZON",
    "DEFAULT_SCHEDULE",
    "TransitionSchedule",
    "CollectionsPath",
    "RealisationPlan",
    "SimulationOutput",
    "payment_probability",
    "simulate_independent",
    "run_plan",
]

HORIZON = 84
PAYMENT_CAP = 50.0

_INTERCEPTS = np.array([-1.0, 0.0, -4.0])
_SLOPES = np.array([0.1, 0.4, 0.2])

# Independent paths per chunk of run_plan, and account-realisations per batch
# of a dependent block (at least one realisation).  A chunk's month-major uniform
# buffer holds about this many columns of ``horizon`` doubles (2.75 MB at 84
# months), so it stays in cache-sized pieces and below the whole-plan buffer
# of a 1000-account coverage repetition.
_CHUNK_PATHS = 4096


@dataclass(frozen=True)
class TransitionSchedule:
    """Scheduled transition months and their capacities."""

    times: tuple
    capacities: tuple

    def __post_init__(self):
        t = np.asarray(self.times)
        c = np.asarray(self.capacities)
        if len(t) != len(c):
            raise ValueError("times and capacities must have equal length")
        if len(t) and (np.any(np.diff(t) <= 0) or t.min() < 1 or t.max() > HORIZON):
            raise ValueError("times must be strictly increasing within [1, 84]")
        if len(c) and np.any(c < 0):
            raise ValueError("capacities must be non-negative")

    @classmethod
    def none(cls) -> "TransitionSchedule":
        return cls(times=(), capacities=())


DEFAULT_SCHEDULE = TransitionSchedule(times=(6, 12, 18, 24, 30, 36), capacities=(10,) * 6)


def _segment_terms(credit_score, segment):
    """Intercept plus slope times credit score: the linear predictor before the paid-last-month term."""
    seg = np.asarray(segment)
    if np.any((seg < 1) | (seg > 3)):
        raise ValueError("segment must be in {1, 2, 3}")
    return _INTERCEPTS[seg - 1] + _SLOPES[seg - 1] * np.asarray(credit_score, dtype=float)


def payment_probability(credit_score, segment, paid_prev):
    """Probability of a payment this month, given a positive balance."""
    out = expit(_segment_terms(credit_score, segment) + 2.0 * np.asarray(paid_prev, dtype=float))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CollectionsPath:
    """Monthly collections of one realisation of one account."""

    monthly: np.ndarray

    @property
    def total(self) -> float:
        return float(self.monthly.sum())


# --------------------------------------------------------------------------
# Vectorized path engines


def _simulate_paths(p0, p1, balance, y0, u, collect_monthly=False):
    """Simulate many independent paths at once.

    ``u`` is month-major, (horizon, M): row ``t`` holds month ``t``'s uniform
    of every path.  The other arguments are per-path arrays of length M, or
    scalars shared by all paths.  ``p0``/``p1`` are the payment probabilities
    given no payment / a payment in the previous month (segments never change
    for independent accounts, so these two numbers fully describe the model).

    The kernel runs the payment chain without absorption and counts its
    payment months K.  Payments stop once the balance is paid off, so a path's
    total is ``min(50 K, balance)``, and month ``t`` pays
    ``clip(balance - 50 K_t, 0, 50)`` when the chain pays, with ``K_t`` the
    payments before ``t``.  Both equal the month-by-month balance arithmetic
    bitwise: ``balance - 50 k`` is exact for any balance below 2**53.

    Returns the (M,) totals and, with ``collect_monthly``, the (horizon, M)
    monthly payments (else None).
    """
    horizon, m = u.shape
    balance = np.maximum(balance, 0.0)  # a non-positive balance never pays
    paid = np.asarray(y0, dtype=bool)
    count = np.zeros(m)
    monthly = np.empty((horizon, m)) if collect_monthly else None
    for t in range(horizon):
        paid = u[t] < np.where(paid, p1, p0)
        if collect_monthly:
            pay = monthly[t]
            np.subtract(balance, PAYMENT_CAP * count, out=pay)
            np.minimum(np.maximum(pay, 0.0, out=pay), PAYMENT_CAP, out=pay)
            pay *= paid
        count += paid
    return np.minimum(PAYMENT_CAP * count, balance), monthly


def _simulate_block_realisation(balance, credit, segment, eligible, y0, schedule, u):
    """Joint realisations of a dependent block.

    ``u`` has shape (horizon, n_accounts) for one realisation, or (r, horizon,
    n_accounts) for r of them.  Returns the (n, horizon) or (r, n, horizon)
    monthly collections to match.  At a transition, the qualifying accounts of
    each realisation move in one fixed order, by descending credit score with
    ties broken in favour of the lower position index (callers pass accounts
    in id order), until the capacity is used.
    """
    single = u.ndim == 2
    if single:
        u = u[None]
    r, horizon, n = u.shape
    bal = np.tile(balance.astype(float), (r, 1))
    seg = np.tile(segment.astype(int), (r, 1))
    # intercept plus slope terms, updated only where a transition moves an account
    terms = np.tile(_segment_terms(credit, segment), (r, 1))
    terms_moved = _segment_terms(credit, 1)
    yprev = np.tile(y0.astype(bool), (r, 1))
    order = np.lexsort((np.arange(n), -credit))
    monthly = np.zeros((r, n, horizon))
    trans = dict(zip(schedule.times, schedule.capacities))
    for t in range(1, horizon + 1):
        cap = trans.get(t)
        if cap:
            qual = (eligible & (seg == 3) & ~yprev)[:, order]
            moved = np.empty_like(qual)
            moved[:, order] = qual & (np.cumsum(qual, axis=-1) <= cap)
            seg[moved] = 1
            terms = np.where(moved, terms_moved, terms)
        p = expit(terms + 2.0 * yprev)
        y = (u[:, t - 1] < p) & (bal > 0)
        pay = np.where(y, np.minimum(PAYMENT_CAP, bal), 0.0)
        bal -= pay
        yprev = y
        monthly[:, :, t - 1] = pay
    return monthly[0] if single else monthly


def _simulate_chunk(chunk):
    """Realised totals of one chunk of independent accounts of :func:`run_plan`.

    ``chunk`` is ``(seed, ids, counts, p0, p1, balance, paid0, horizon,
    store_monthly)``: the accounts' ids in id order, their realisation counts
    and their model inputs.  It carries everything the chunk needs, so the
    result is the same in any process.  Realisation ``k`` of account ``i``
    uses draw block ``k`` of the stream ``(seed, "sim", i)``.

    Returns the chunk's totals, account by account, and with
    ``store_monthly`` the (len(ids), horizon) per-account sums of the monthly
    payments and of their squares over the realisations (else None, None).
    """
    seed, ids, r, p0, p1, balance, paid0, horizon, store_monthly = chunk
    local = np.concatenate([[0], np.cumsum(r[:-1])])  # each account's first column
    u = np.empty((horizon, int(r.sum())))
    for col, r_i, g in zip(local, r, _unit_streams(seed, "sim", ids=ids)):
        u[:, col : col + r_i] = g.random((r_i, horizon)).T
    tot, pay = _simulate_paths(
        np.repeat(p0, r),
        np.repeat(p1, r),
        np.repeat(balance, r),
        np.repeat(paid0, r),
        u,
        collect_monthly=store_monthly,
    )
    if not store_monthly:
        return tot, None, None
    pay_sum = np.add.reduceat(pay, local, axis=1).T
    pay *= pay
    return tot, pay_sum, np.add.reduceat(pay, local, axis=1).T


def _block_batches(population: Population, dep, schedule, g, r: int, horizon: int = HORIZON):
    """Yield ``(rows, monthly)`` for ``r`` joint realisations of the block ``dep``.

    Realisation ``k`` uses draw block ``k`` of the stream ``g``.  The
    realisations run in batches of about ``_CHUNK_PATHS`` account-realisations
    (at least one realisation each); ``monthly`` is the (k, |D|, horizon)
    output of a batch and ``rows`` the slice of realisations it holds.
    """
    per_batch = max(1, _CHUNK_PATHS // len(dep))
    covariates = (
        population.balance[dep],
        population.credit_score[dep],
        population.segment[dep],
        population.eligible[dep],
        population.paid_last_month[dep],
        schedule,
    )
    for start in range(0, r, per_batch):
        k = min(per_batch, r - start)
        u = g.random((k, horizon, len(dep)))  # draw blocks start .. start + k - 1
        yield slice(start, start + k), _simulate_block_realisation(*covariates, u)


# --------------------------------------------------------------------------
# Single-unit API


def simulate_independent(account: Account, horizon: int = HORIZON, rng=None, *, seed=None, realisation=0):
    """Simulate one realisation of an account that is not in a dependent block."""
    if rng is None:
        if seed is None:
            raise ValueError("provide either rng or seed")
        rng = stream(seed, "sim", account.id)
        rng.random(realisation * horizon)  # skip earlier realisations' draw blocks
    u = rng.random((1, horizon))
    p0 = payment_probability(account.credit_score, account.segment, False)
    p1 = payment_probability(account.credit_score, account.segment, True)
    _, monthly = _simulate_paths(p0, p1, account.balance, account.paid_last_month, u.T, collect_monthly=True)
    return CollectionsPath(monthly=monthly[:, 0])


# --------------------------------------------------------------------------
# Realisation plans


@dataclass(frozen=True)
class RealisationPlan:
    """Per-account realisation counts, equal within each dependent block."""

    counts: np.ndarray

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def cost(self) -> float:
        return float(self.counts.sum())

    @property
    def is_integer(self) -> bool:
        return bool(np.all(self.counts == np.round(self.counts)))

    @classmethod
    def equal(cls, n: int, r: int) -> "RealisationPlan":
        return cls(counts=np.full(n, float(r)))

    def validate_for(self, population: Population) -> None:
        if self.n != population.n:
            raise ValueError(f"plan covers {self.n} accounts, population has {population.n}")
        if np.any(self.counts <= 0):
            raise ValueError("plan counts must be positive")
        for j, pf in enumerate(population.portfolios):
            dep = pf.dependent_ids
            if len(dep) and len(np.unique(self.counts[dep])) > 1:
                raise ValueError(f"dependent block of portfolio {j} has unequal counts")

    def to_csv(self, population: Population, path, int_counts: np.ndarray | None = None) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["unit_id", "kind", "count_real", "count_int"])
            for j, pf in enumerate(population.portfolios):
                if len(pf.dependent_ids):
                    i0 = pf.dependent_ids[0]
                    w.writerow(
                        [
                            f"block-{j}",
                            "block",
                            repr(float(self.counts[i0])),
                            int(int_counts[i0]) if int_counts is not None else "",
                        ]
                    )
                for i in pf.independent_ids:
                    w.writerow(
                        [
                            int(i),
                            "independent",
                            repr(float(self.counts[i])),
                            int(int_counts[i]) if int_counts is not None else "",
                        ]
                    )


# --------------------------------------------------------------------------
# Plan execution


@dataclass
class SimulationOutput:
    """Realised totals (and optional monthly statistics) from one plan run.

    Totals are stored flat, account by account, in compressed sparse row
    layout: account ``i``'s realisations are
    ``values[offsets[i]:offsets[i + 1]]``.
    """

    values: np.ndarray  # every realised total, account by account
    offsets: np.ndarray  # (N + 1,) start of each account's totals in values
    block_totals: dict  # portfolio j -> (r_j,) realised block totals
    horizon: int = HORIZON
    monthly_sum: np.ndarray | None = None  # (N, horizon) sums over realisations
    monthly_sumsq: np.ndarray | None = None
    block_monthly: dict = field(default_factory=dict)  # j -> (r_j, horizon)

    @property
    def n(self) -> int:
        return len(self.offsets) - 1

    @cached_property
    def totals(self) -> list:
        """Per-account arrays of realised totals, as views into ``values``."""
        return np.split(self.values, self.offsets[1:-1])

    def counts(self) -> np.ndarray:
        return np.diff(self.offsets).astype(float)

    def rows_by_count(self):
        """Yield ``(ids, rows)`` for each distinct realisation count.

        ``rows[k]`` is a copy of account ``ids[k]``'s totals.  A reduction
        along a row adds in the same order as on the account's own array, so
        per-account statistics computed on ``rows`` equal those of
        ``np.mean``/``np.var`` on each account bitwise.
        """
        counts = np.diff(self.offsets)
        for c in np.unique(counts):
            ids = np.flatnonzero(counts == c)
            yield ids, self.values[self.offsets[ids, None] + np.arange(c)]

    def summary_json(self, path) -> None:
        """Per-account mean, variance (R_i >= 2) and kurtosis (R_i >= 4), as compact JSON.

        The moments are those of :func:`collsim.estimators.row_moments`; the
        kurtosis is left out for a sample with zero variance.
        """
        from .estimators import row_moments  # estimators imports this module

        mean = np.empty(self.n)
        variance = np.empty(self.n)
        kurtosis = np.empty(self.n)
        for ids, x in self.rows_by_count():
            mean[ids], variance[ids], kurtosis[ids] = row_moments(x)
        rows = []
        for i, (mu, v, k) in enumerate(zip(mean.tolist(), variance.tolist(), kurtosis.tolist())):
            rec = {"account_id": i, "mean": mu}
            if not math.isnan(v):
                rec["variance"] = v
            if not math.isnan(k):
                rec["kurtosis"] = k
            rows.append(rec)
        Path(path).write_text(json.dumps(rows))


def run_plan(
    population: Population,
    plan: RealisationPlan,
    schedule: TransitionSchedule = DEFAULT_SCHEDULE,
    seed: int = 0,
    horizon: int = HORIZON,
    store_monthly: bool = False,
    n_workers: int = 1,
) -> SimulationOutput:
    """Execute an integer realisation plan over a population.

    Independent accounts receive ``R_i`` independent realisations each; every
    dependent block is simulated jointly, ``r_j`` times.  Realisation ``k`` of
    a unit always uses draw block ``k`` of the stream keyed by
    ``(seed, unit)``, so output is bitwise identical for any worker count.

    Independent accounts are simulated in chunks of whole accounts of about
    ``_CHUNK_PATHS`` paths, in id order.  With ``n_workers`` > 1 (the CLI's
    ``--threads``) the chunks run on a pool of
    ``min(n_workers, chunks, os.cpu_count())`` worker processes, which ends
    with the call; dependent blocks always run in this process.  The workers
    are forked, so they start without importing anything again; a caller
    that runs threads of its own should keep ``n_workers`` at 1.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")
    plan.validate_for(population)
    if not plan.is_integer:
        raise ValueError("run_plan requires an integer plan; round it first")
    counts = plan.counts.astype(int)

    n = population.n
    offsets = np.concatenate([[0], np.cumsum(counts)])
    values = np.empty(int(offsets[-1]))
    monthly_sum = np.zeros((n, horizon)) if store_monthly else None
    monthly_sumsq = np.zeros((n, horizon)) if store_monthly else None

    indep = population.independent_ids
    p0 = payment_probability(population.credit_score[indep], population.segment[indep], False)
    p1 = payment_probability(population.credit_score[indep], population.segment[indep], True)
    balance = population.balance[indep]
    paid0 = population.paid_last_month[indep]
    rep = counts[indep]
    # first path of each independent account, counted over the independents in id order
    first = np.concatenate([[0], np.cumsum(rep)])
    # a chunk starts at the first account whose first path reaches the next multiple of _CHUNK_PATHS
    starts = np.searchsorted(first[:-1], np.arange(0, first[-1], _CHUNK_PATHS))
    edges = np.unique(np.append(starts, len(indep)))
    chunks = [
        (seed, indep[a:b], rep[a:b], p0[a:b], p1[a:b], balance[a:b], paid0[a:b], horizon, store_monthly)
        for a, b in zip(edges[:-1], edges[1:])
    ]

    workers = min(n_workers, len(chunks), os.cpu_count() or 1)
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # imported on first use, to keep multiprocessing out of `import collsim`
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            # On leaving, even by an error, wait for the running chunks and cancel the rest.  A
            # multiprocessing.Pool would terminate its workers instead, and a worker killed while
            # writing a result can leave the result queue locked, hanging the shutdown.
            stack.callback(pool.shutdown, cancel_futures=True)
            results = pool.map(_simulate_chunk, chunks)
        else:
            results = map(_simulate_chunk, chunks)
        for a, b, (tot, pay_sum, pay_sumsq) in zip(edges[:-1], edges[1:], results):
            ids, local = indep[a:b], first[a:b] - first[a]
            values[np.repeat(offsets[ids] - local, rep[a:b]) + np.arange(len(tot))] = tot
            if store_monthly:
                monthly_sum[ids] = pay_sum
                monthly_sumsq[ids] = pay_sumsq

    block_totals: dict = {}
    block_monthly: dict = {}
    for j, pf in enumerate(population.portfolios):
        dep = pf.dependent_ids
        if not len(dep):
            continue
        r_j = counts[dep[0]]
        acc_tot = np.empty((r_j, len(dep)))
        blk_monthly = np.empty((r_j, horizon))
        g = stream(seed, "sim", "block", j)
        for rows, monthly in _block_batches(population, dep, schedule, g, r_j, horizon):
            acc_tot[rows] = monthly.sum(axis=2)
            blk_monthly[rows] = monthly.sum(axis=1)
            if store_monthly:
                for m in monthly:  # one realisation at a time, in draw order
                    monthly_sum[dep] += m
                    monthly_sumsq[dep] += m**2
        values[offsets[dep] + np.arange(r_j)[:, None]] = acc_tot
        block_totals[j] = acc_tot.sum(axis=1)
        if store_monthly:
            block_monthly[j] = blk_monthly

    return SimulationOutput(
        values=values,
        offsets=offsets,
        block_totals=block_totals,
        horizon=horizon,
        monthly_sum=monthly_sum,
        monthly_sumsq=monthly_sumsq,
        block_monthly=block_monthly,
    )
