"""Month-by-month simulation of account repayment over an 84-month horizon.

Each account follows a logistic Markov payment model: the probability of a
payment in a month depends on the account's credit score, its current segment
and whether it paid in the previous month.  A payment is the lower of 50 and
the outstanding balance, and payments cease permanently once the balance hits
zero.

Accounts in a dependent block are simulated jointly: at each transition
month of :data:`TRANSITIONS` (month -> capacity), the accounts with the best
credit scores among those that are eligible, currently in segment 3 and did
not pay in the preceding month are moved to segment 1, up to that month's
capacity.

Draw discipline: every path consumes exactly ``horizon`` uniforms per account
regardless of early absorption, so realisation ``k`` of a unit always occupies
draw block ``k`` of the unit's stream.

Independent units (the accounts of :func:`run_plan`, reference sigmas and
emulator design points) all run through :func:`_chunks`, in chunks of about
``_CHUNK_PATHS`` paths, and each dependent block's realisations through
:func:`_block_items`, in items of about as many account-realisations (one
realisation for a larger block, drawn month by month).  A chunk returns only
its units' moments (:func:`_segment_moments`), so no independent unit's
totals outlive its chunk, and its uniforms and payments live in scratch
buffers that each thread reuses (:func:`_scratch_array`).  With
``store_monthly`` each chunk also reduces its accounts' monthly payments to
two (horizon,) vectors, and a block item returns only its per-account
totals and per-realisation monthly sums, which :func:`run_plan` folds in.

Every stage that runs many such work items (run_plan, block pilots, the
emulator's design points, coverage repetitions) maps them through
:func:`_pool_map`, the one place that starts processes: at ``n_workers`` > 1
on a forked pool of at most the usable CPUs, in input order, so outputs are
bitwise the same for any worker count.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from ._special import expit
from .constrained import _write_plan_csv
from .population import Population
from .rng import _unit_streams, stream

__all__ = [
    "HORIZON",
    "TRANSITIONS",
    "RealisationPlan",
    "SimulationOutput",
    "payment_probability",
    "run_plan",
]

HORIZON = 84
PAYMENT_CAP = 50.0

_INTERCEPTS = np.array([-1.0, 0.0, -4.0])
_SLOPES = np.array([0.1, 0.4, 0.2])

# Independent paths per chunk, and account-realisations per work item of a
# dependent block (at least one realisation).  A chunk's uniform buffer holds
# about this many rows of ``horizon`` doubles (2.75 MB at 84 months), so it
# stays in cache-sized pieces and below the whole-plan buffer of a
# 1000-account coverage repetition.
_CHUNK_PATHS = 4096
_SCRATCH_KEEP_BYTES = 4 * _CHUNK_PATHS * HORIZON * 8  # larger scratch arrays are not kept
_scratch = threading.local()


# Month -> capacity of the scheduled segment transitions of every dependent block.
TRANSITIONS = {6: 10, 12: 10, 18: 10, 24: 10, 30: 10, 36: 10}


def _segment_terms(credit_score, segment):
    """Intercept plus slope times credit score: the linear predictor before the paid-last-month term."""
    seg = np.asarray(segment)
    if np.any((seg < 1) | (seg > 3)):
        raise ValueError("segment must be in {1, 2, 3}")
    return _INTERCEPTS[seg - 1] + _SLOPES[seg - 1] * np.asarray(credit_score, dtype=float)


def payment_probability(credit_score, segment, paid_prev):
    """Probability of a payment this month, given a positive balance."""
    return expit(_segment_terms(credit_score, segment) + 2.0 * np.asarray(paid_prev, dtype=float))


def _segment_moments(values, counts):
    """Mean, unbiased variance and plain kurtosis of consecutive segments of ``values``, ``counts[i]`` values each.

    Every step is exactly rounded, so the bits depend on the values alone, not
    on the CPU: each sum is ``np.add.reduceat`` over a segment (its first value
    plus numpy's pairwise sum of the rest, whatever the segment's neighbours),
    and squares are products, never ``pow``.  Every count must be at least 1:
    ``reduceat`` gives an empty segment the value at its start.  A segment of
    equal values (an account that always pays its full balance) takes that
    value as its mean, so its variance is an exact 0 and it has no kurtosis.
    """
    first = np.cumsum(counts) - counts
    lo = np.minimum.reduceat(values, first)
    mean = np.where(lo == np.maximum.reduceat(values, first), lo, np.add.reduceat(values, first) / counts)
    d = values - np.repeat(mean, counts)
    d *= d
    ss = np.add.reduceat(d, first)
    s4 = np.add.reduceat(np.multiply(d, d, out=d), first)
    with np.errstate(divide="ignore", invalid="ignore"):
        variance = np.where(counts >= 2, ss / (counts - 1), np.nan)
        m2 = ss / counts
        kurt = np.where((counts >= 4) & (m2 > 0), s4 / counts / (m2 * m2), np.nan)
    return mean, variance, kurt


def _scratch_array(name, shape):
    """An uninitialised float array of ``shape`` over this thread's buffer ``name``, kept between calls.

    Callers must not return it or a view.  A fresh 2.75 MB array per chunk cost about 1,400 page faults.
    """
    size = math.prod(shape)
    if size * 8 > _SCRATCH_KEEP_BYTES:
        return np.empty(shape)
    buf = getattr(_scratch, name, None)
    if buf is None or len(buf) < size:
        buf = np.empty(size)
        setattr(_scratch, name, buf)
    return buf[:size].reshape(shape)


# --------------------------------------------------------------------------
# Vectorized path engines


def _simulate_paths(p0, p1, balance, y0, u, monthly=None):
    """Simulate many independent paths at once.

    ``u`` is month-major, (horizon, M): row ``t`` holds month ``t``'s uniform
    of every path.  The other arguments are per-path arrays of length M, or
    scalars shared by all paths.  ``p0``/``p1`` are the payment probabilities
    given no payment / a payment in the previous month (segments never change
    for independent accounts, so these two numbers fully describe the model).

    The kernel runs the payment chain without absorption: a month's payment
    is the lower of 50 and the remaining balance when the chain pays, so a
    paid-off path pays 0 from then on.  Without a ``monthly`` buffer it only
    counts the payment months K, and a path's total is ``min(50 K, balance)``.
    With one, it tracks the remaining balance ``rem`` (month ``t`` pays
    ``min(rem, 50)`` if the chain pays, taken off ``rem``) and the total is
    ``balance - rem``.  Both forms equal the month-by-month balance
    arithmetic bitwise: every ``rem`` is ``balance - 50 k`` or 0, and
    ``balance - 50 k`` is exact for a non-negative balance below 2**53.

    Returns the (M,) totals and ``monthly``, the (horizon, M) buffer that
    receives the monthly payments (None when not given).
    """
    horizon, m = u.shape
    balance = np.maximum(balance, 0.0)  # a non-positive balance never pays
    paid = np.asarray(y0, dtype=bool)
    if monthly is None:
        count = np.zeros(m)
        for t in range(horizon):
            paid = u[t] < np.where(paid, p1, p0)
            count += paid
        return np.minimum(PAYMENT_CAP * count, balance), None
    rem = np.full(m, balance)
    for t in range(horizon):
        paid = u[t] < np.where(paid, p1, p0)
        pay = np.minimum(rem, PAYMENT_CAP, out=monthly[t])
        pay *= paid
        rem -= pay
    return balance - rem, monthly


def _simulate_block_realisation(balance, credit, segment, eligible, y0, transitions, u, month_sums=False):
    """Joint realisations of a dependent block.

    ``u`` yields the uniforms month by month: one (r, n_accounts) array per
    month, row ``k`` for realisation ``k``, so it can be an (horizon, r, n)
    array or a generator that draws each month as it is needed.
    ``transitions`` maps a month to its capacity, as :data:`TRANSITIONS`
    does; a month it does not name moves no account.  Returns the
    (r, n) per-account totals and, with ``month_sums``, the (r, horizon)
    monthly collections summed over the accounts (else None).  At a
    transition, the qualifying accounts of each realisation move in one fixed
    order, by descending credit score with ties broken in favour of the lower
    position index (callers pass accounts in id order), until the capacity is
    used.

    An account's total is ``balance - rem`` of its remaining balance, which
    is exact (every ``rem`` is ``balance - 50 k`` or 0), so it equals the sum
    of its monthly payments in any order.  A month's sum adds the accounts one
    after another, as ``sum(axis=1)`` of the (r, n, horizon) payments does.

    Each account's two payment probabilities, after no payment and after a
    payment, are computed once, and again only for the accounts a transition
    moves; a month picks one of them.  They equal ``expit(terms + 2.0 *
    paid_prev)`` of the linear predictor bitwise, as adding ``2.0 * False``
    leaves it unchanged.
    """
    months = iter(u)
    u_t = next(months)
    r, n = u_t.shape
    bal = np.tile(balance.astype(float), (r, 1))
    seg = np.tile(segment.astype(int), (r, 1))
    # each account's payment probabilities after no payment (pa) and a payment (pb),
    # switched to the segment-1 pair only where a transition moves an account
    terms, terms_moved = _segment_terms(credit, segment), _segment_terms(credit, 1)
    pa, pb = np.tile(expit(terms), (r, 1)), np.tile(expit(terms + 2.0), (r, 1))
    pa_moved, pb_moved = expit(terms_moved), expit(terms_moved + 2.0)
    yprev = np.tile(y0.astype(bool), (r, 1))
    order = np.lexsort((np.arange(n), -credit))
    sums, running = [], np.empty((r, n)) if month_sums else None
    for t, u_t in enumerate(itertools.chain([u_t], months), 1):
        cap = transitions.get(t)
        if cap:
            qual = (eligible & (seg == 3) & ~yprev)[:, order]
            moved = np.empty_like(qual)
            moved[:, order] = qual & (np.cumsum(qual, axis=-1) <= cap)
            seg[moved] = 1
            pa = np.where(moved, pa_moved, pa)
            pb = np.where(moved, pb_moved, pb)
        y = (u_t < np.where(yprev, pb, pa)) & (bal > 0)
        pay = np.where(y, np.minimum(PAYMENT_CAP, bal), 0.0)
        bal -= pay
        yprev = y
        if month_sums:
            sums.append(np.add.accumulate(pay, axis=1, out=running)[:, -1].copy())
    return balance - bal, np.stack(sums, axis=1) if month_sums else None


def _chunk_paths(chunk):
    """The (paths,) totals of one chunk of :func:`_chunks`, unit by unit, and its (horizon, paths) payments.

    ``chunk`` is ``(seed, prefix, ids, counts, credit, segment, balance,
    paid0, horizon, store_monthly)``, everything the chunk needs, so the
    result is the same in any process.  Each unit fills its rows of one
    path-major scratch buffer from its stream, and the path kernel reads its
    transpose; the payments (None without ``store_monthly``) are scratch too.
    """
    seed, prefix, ids, r, credit, segment, balance, paid0, horizon, store_monthly = chunk
    p0, p1 = payment_probability(credit, segment, [[False], [True]])  # after no payment, after a payment
    local = np.cumsum(r) - r  # each unit's first path
    u = _scratch_array("uniforms", (int(r.sum()), horizon))
    for row, r_i, g in zip(local.tolist(), r.tolist(), _unit_streams(seed, *prefix, ids=ids.tolist())):
        g.random(out=u[row : row + r_i])
    per_path = (np.repeat(col, r) for col in (p0, p1, balance, paid0))
    monthly = _scratch_array("monthly", (horizon, len(u))) if store_monthly else None
    return _simulate_paths(*per_path, u.T, monthly=monthly)


def _simulate_chunk(chunk):
    """The (3, units) :func:`_segment_moments` of a chunk's units' totals, and monthly sums.

    The (horizon,) sums (None without ``store_monthly``) are over the units: of the
    monthly means ``m_i,t / R_i`` and of the sample variances ``max(s2_i,t, 0)``,
    with ``m_i,t`` the sum of unit ``i``'s payments in month ``t`` and ``s2_i,t``
    their unbiased variance (NaN at R_i = 1, an exact 0/0).
    """
    r, store_monthly = chunk[3], chunk[-1]
    tot, pay = _chunk_paths(chunk)
    moments = np.array(_segment_moments(tot, r))
    if not store_monthly:
        return moments, None, None
    local = np.cumsum(r) - r  # each unit's first path
    # (horizon, units): month t of each unit in row t
    mean = np.add.reduceat(pay, local, axis=1) / r
    pay *= pay
    var = mean**2
    var *= r
    np.subtract(np.add.reduceat(pay, local, axis=1), var, out=var)
    with np.errstate(divide="ignore", invalid="ignore"):
        var /= r - 1.0
    np.maximum(var, 0.0, out=var)
    return moments, mean.sum(axis=1), var.sum(axis=1)


def _chunks(seed, prefix, units, horizon=HORIZON, store_monthly=False):
    """The :func:`_simulate_chunk` work items of independent units.

    ``units`` is ``(ids, counts, credit, segment, balance, paid0)``, one entry
    per unit.  Realisation ``k`` of unit ``i`` uses draw block ``k`` of the
    stream ``(seed, *prefix, i)``.  A chunk is made of whole units and starts
    at the first unit whose first path reaches the next multiple of
    ``_CHUNK_PATHS``.
    """
    first = np.concatenate([[0], np.cumsum(units[1])])  # each unit's first path
    starts = np.searchsorted(first[:-1], np.arange(0, first[-1], _CHUNK_PATHS))
    edges = np.unique(np.append(starts, len(first) - 1))
    return [
        (seed, prefix, *(col[a:b] for col in units), horizon, store_monthly)
        for a, b in zip(edges[:-1], edges[1:])
    ]


def _independent_units(population: Population, counts):
    """The :func:`_chunks` units of a population's independent accounts; ``counts`` by id."""
    ids = population.independent_ids
    columns = (counts, population.credit_score, population.segment, population.balance, population.paid_last_month)
    return (ids, *(col[ids] for col in columns))


def _block_items(population: Population, dep, seed, key, r: int, horizon: int = HORIZON, month_sums: bool = False):
    """The :func:`_simulate_block_item` work items of ``r`` joint realisations of the block ``dep``.

    Realisation ``k`` uses draw block ``k`` of the stream ``(seed, *key)``.
    Each item holds about ``_CHUNK_PATHS`` account-realisations, and one
    realisation when the block is larger.
    """
    per_item = max(1, _CHUNK_PATHS // len(dep))
    covariates = (
        population.balance[dep],
        population.credit_score[dep],
        population.segment[dep],
        population.eligible[dep],
        population.paid_last_month[dep],
    )
    return [(seed, key, covariates, a, min(a + per_item, r), horizon, month_sums) for a in range(0, r, per_item)]


def _simulate_block_item(item):
    """Realisations ``[a, b)`` of a dependent block under :data:`TRANSITIONS`.

    ``item`` is ``(seed, key, covariates, a, b, horizon, month_sums)`` from
    :func:`_block_items`.  Philox is counter-based: one step of its counter
    makes four draws, so advancing the stream by ``a * horizon * n / 4`` steps
    (and drawing the remainder) starts it at realisation ``a``.  A single
    realisation is drawn month by month, ``n`` uniforms at a time; several
    are drawn in one call, into a scratch buffer.  Returns
    :func:`_simulate_block_realisation`'s (k, n) per-account totals and, with
    ``month_sums``, its (k, horizon) monthly sums.  A realisation's block
    total is the sum of its row of account totals, for :func:`run_plan` and
    the pilots alike.
    """
    seed, key, covariates, a, b, horizon, month_sums = item
    k, n = b - a, len(covariates[0])
    g = stream(seed, *key)
    steps, rest = divmod(a * horizon * n, 4)
    g.bit_generator.advance(steps)
    g.random(rest)
    if k == 1:
        u = (g.random((1, n)) for _ in range(horizon))
    else:
        u = g.random(out=_scratch_array("uniforms", (k, horizon, n))).transpose(1, 0, 2)
    return _simulate_block_realisation(*covariates, TRANSITIONS, u, month_sums=month_sums)


# --------------------------------------------------------------------------
# Worker processes


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_inherited = None  # (fn, items) of the pool that forked this worker process


def _inherit(fn, items):
    global _inherited
    _inherited = (fn, items)


def _call_inherited(index):
    fn, items = _inherited
    return fn(items[index])


def _pool_map(fn, items, n_workers=1):
    """Yield ``fn(item)`` for each of the sequence ``items``, in order.

    This is the only place that starts processes.  With ``n_workers`` > 1 the
    calls run on a pool of ``min(n_workers, len(items), usable CPUs)``
    processes forked from this one, which inherit ``fn`` and ``items``, so
    only indices and results cross between processes and ``fn`` may be any
    callable.  The pool ends with the generator, also when its consumer
    raises: running calls finish and the rest are cancelled.  At one worker
    it is a plain ``map`` in this process.
    """
    workers = min(n_workers, len(items), _usable_cpus())
    if workers <= 1:
        yield from map(fn, items)
        return
    # imported on first use, to keep multiprocessing out of `import collsim`
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"), initializer=_inherit, initargs=(fn, items)
    )
    # A multiprocessing.Pool would terminate its workers instead, and a worker killed while
    # writing a result can leave the result queue locked, hanging the shutdown.
    try:
        yield from pool.map(_call_inherited, range(len(items)))
    finally:
        pool.shutdown(cancel_futures=True)


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

    def to_csv(self, population: Population, path) -> None:
        """Plan CSV: each block's count is its first account's, and independent units are account ids."""
        _write_plan_csv(path, (
            (self.counts[pf.dependent_ids[0]] if len(pf.dependent_ids) else None, pf.independent_ids, self.counts[pf.independent_ids])
            for pf in population.portfolios
        ))


# --------------------------------------------------------------------------
# Plan execution


@dataclass
class SimulationOutput:
    """Per-account moments of the realised totals (and optional monthly statistics) from one plan run.

    Account ``i``'s ``counts[i]`` totals are kept only as their
    :func:`_segment_moments`, bitwise those of its totals on their own, and
    each block's realisation totals as the sums of its account totals.

    The monthly statistics of a ``store_monthly`` run are summed over every
    unit: ``monthly_mean[t]`` adds the independent accounts' ``m_i,t / R_i``
    and each block's mean month-t collections, ``monthly_var[t]`` their
    ``max(s2_i,t, 0)`` and each block's unbiased variance of them (NaN if
    some unit has one realisation), where ``m_i,t`` and ``s2_i,t`` are the
    sum and unbiased variance of account ``i``'s month-t payments over its
    realisations.  :func:`collsim.estimators.monthly_bands` turns these
    variances into intervals.
    """

    counts: np.ndarray  # (N,) realisations per account
    means: np.ndarray  # (N,)
    variances: np.ndarray  # (N,)
    kurtoses: np.ndarray  # (N,)
    block_totals: dict  # portfolio j -> (r_j,) realised block totals
    monthly_mean: np.ndarray | None = None  # (horizon,)
    monthly_var: np.ndarray | None = None  # (horizon,)

    @property
    def n(self) -> int:
        return len(self.counts)

    def summary_json(self, path) -> None:
        """Per-account mean, variance (R_i >= 2) and kurtosis (R_i >= 4), as compact JSON.

        The kurtosis is left out for a sample with zero variance.  Records
        are made and written ``_CHUNK_PATHS`` accounts at a time, and the
        file holds the same bytes as ``json.dumps`` of the whole list.
        """
        with open(path, "w") as f:
            f.write("[")
            for start in range(0, self.n, _CHUNK_PATHS):
                sl = slice(start, start + _CHUNK_PATHS)
                piece = []
                stats = zip(self.means[sl].tolist(), self.variances[sl].tolist(), self.kurtoses[sl].tolist())
                for i, (mu, v, k) in enumerate(stats, start):
                    rec = {"account_id": i, "mean": mu}
                    if not math.isnan(v):
                        rec["variance"] = v
                    if not math.isnan(k):
                        rec["kurtosis"] = k
                    piece.append(rec)
                f.write((", " if start else "") + json.dumps(piece)[1:-1])
            f.write("]")


def run_plan(
    population: Population,
    plan: RealisationPlan,
    seed: int = 0,
    horizon: int = HORIZON,
    store_monthly: bool = False,
    n_workers: int = 1,
) -> SimulationOutput:
    """Execute an integer realisation plan over a population.

    Independent accounts receive ``R_i`` independent realisations each; every
    dependent block is simulated jointly, ``r_j`` times, under
    :data:`TRANSITIONS`.  Realisation ``k`` of a unit always uses draw block
    ``k`` of the stream keyed by ``(seed, unit)``, so output is bitwise
    identical for any worker count.

    The work is one :func:`_pool_map` over the :func:`_chunks` of the
    independent accounts (prefix ``("sim",)``, in id order) followed by the
    :func:`_block_items` of each block (stream ``("sim", "block", j)``), so
    with ``n_workers`` > 1 (the CLI's ``--threads``) chunks and blocks alike
    run on forked worker processes; a caller that runs threads or a pool of
    its own should keep ``n_workers`` at 1.  Chunks return their accounts'
    moments; a block's are taken here on each account's row of its totals.

    With ``store_monthly`` each chunk returns its accounts' monthly
    statistics already summed, added here in chunk order, and then each
    block's are added in portfolio order (see :class:`SimulationOutput`), so
    the monthly curve too is bitwise identical for any worker count.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")
    plan.validate_for(population)
    if not plan.is_integer:
        raise ValueError("run_plan requires an integer plan; round it first")
    counts = plan.counts.astype(int)

    moments = np.empty((3, population.n))
    monthly_mean = np.zeros(horizon) if store_monthly else None
    monthly_var = np.zeros(horizon) if store_monthly else None

    chunks = _chunks(seed, ("sim",), _independent_units(population, counts), horizon, store_monthly)
    blocks = [(j, pf.dependent_ids) for j, pf in enumerate(population.portfolios) if len(pf.dependent_ids)]
    block_items = [
        (j, item)
        for j, dep in blocks
        for item in _block_items(population, dep, seed, ("sim", "block", j), counts[dep[0]], horizon, store_monthly)
    ]
    calls = [(_simulate_chunk, chunk) for chunk in chunks] + [(_simulate_block_item, item) for _, item in block_items]
    results = _pool_map(lambda call: call[0](call[1]), calls, n_workers)

    for (_, _, ids, *_), (chunk_moments, mean, var) in zip(chunks, results):
        moments[:, ids] = chunk_moments
        if store_monthly:
            monthly_mean += mean
            monthly_var += var

    block_totals: dict = {j: np.empty(counts[dep[0]]) for j, dep in blocks}
    block_monthly: dict = {j: np.empty((counts[dep[0]], horizon)) for j, dep in blocks} if store_monthly else {}
    block_rows: dict = {j: np.empty((len(dep), counts[dep[0]])) for j, dep in blocks}  # an account per row
    for (j, (*_, a, b, _, _)), (tot, sums) in zip(block_items, results):
        block_rows[j][:, a:b] = tot.T
        block_totals[j][a:b] = tot.sum(axis=1)
        if store_monthly:
            block_monthly[j][a:b] = sums
    for j, dep in blocks:
        moments[:, dep] = _segment_moments(block_rows[j].ravel(), np.full(len(dep), counts[dep[0]]))
    for sums in block_monthly.values():  # in portfolio order, a realisation per row
        monthly_mean += sums.mean(axis=0)
        monthly_var += sums.var(axis=0, ddof=1) if len(sums) > 1 else np.nan  # ddof=1 of one row warns

    return SimulationOutput(
        counts=counts,
        means=moments[0],
        variances=moments[1],
        kurtoses=moments[2],
        block_totals=block_totals,
        monthly_mean=monthly_mean,
        monthly_var=monthly_var,
    )
