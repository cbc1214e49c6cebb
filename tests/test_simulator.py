"""Repayment path simulation: hand-traced oracles and draw discipline."""

import ast
import concurrent.futures
import inspect
import json
import math
import multiprocessing
import os
import sys
import textwrap
import tracemalloc
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

import collsim.simulator as simulator
from collsim.allocator import pilot_block_variance
from collsim.estimators import (
    estimate_mu,
    monthly_bands,
    normal_quantile,
    variance_inputs_from_samples,
)
from collsim.population import init_population
from collsim.rng import stream
from collsim.simulator import (
    _CHUNK_PATHS,
    _INTERCEPTS,
    _SLOPES,
    DEFAULT_SCHEDULE,
    HORIZON,
    PAYMENT_CAP,
    RealisationPlan,
    TransitionSchedule,
    _simulate_block_realisation,
    _simulate_chunk,
    _simulate_paths,
    payment_probability,
    run_plan,
)
from engine_totals import assert_near_fsum, moments_of, output_moments, raw_totals
from fresh_process import run_fresh


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


class _StubRng:
    """Feeds a preset uniform array to the simulators."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, shape):
        assert self.u.shape == tuple(shape), (self.u.shape, shape)
        return self.u


@dataclass(frozen=True)
class CollectionsPath:
    """Monthly collections of one realisation of one account."""

    monthly: np.ndarray

    @property
    def total(self) -> float:
        return float(self.monthly.sum())


@dataclass(frozen=True)
class Account:
    """Covariates and initial state of one account, the input of the single-unit oracle."""

    id: int
    balance: float
    credit_score: float
    segment: int
    eligible: bool
    paid_last_month: bool


def account_of(pop, i) -> Account:
    """Account ``i`` of a population, read from its columns."""
    return Account(
        id=int(i),
        balance=float(pop.balance[i]),
        credit_score=float(pop.credit_score[i]),
        segment=int(pop.segment[i]),
        eligible=bool(pop.eligible[i]),
        paid_last_month=bool(pop.paid_last_month[i]),
    )


def simulate_independent(account: Account, horizon: int = HORIZON, rng=None, *, seed=None, realisation=0):
    """One realisation of an independent account, through the path kernel: the single-unit oracle."""
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


def _block_monthly(balance, credit, segment, eligible, y0, schedule, u):
    """The block kernel's monthly payments: (n, horizon) for ``u`` of (horizon, n), (r, n, horizon) for (r, horizon, n).

    Also checks, bit for bit, that the totals and monthly sums the kernel
    returns are those of its payments, summed as numpy sums them.
    """
    single = u.ndim == 2
    months = u[:, None] if single else u.transpose(1, 0, 2)
    out = np.empty((months.shape[1], u.shape[-1], len(months)))
    tot, sums = _simulate_block_realisation(
        balance, credit, segment, eligible, y0, schedule, months, out=out, month_sums=True
    )
    assert _same_bits(tot, out.sum(axis=2))
    assert _same_bits(sums, out.sum(axis=1))
    return out[0] if single else out


def _account(balance, credit, segment, y0=False, eligible=False, id=0):
    return Account(
        id=id, balance=balance, credit_score=credit, segment=segment, eligible=eligible, paid_last_month=y0
    )


class TestPaymentProbability:
    def test_hand_values(self):
        # segment intercept/slope pairs: (-1, 0.1), (0, 0.4), (-4, 0.2); +2 if paid last month
        assert payment_probability(0.0, 1, False) == pytest.approx(sigmoid(-1.0), abs=1e-15)
        assert payment_probability(2.0, 1, True) == pytest.approx(sigmoid(-1 + 0.2 + 2), abs=1e-15)
        assert payment_probability(-5.0, 2, False) == pytest.approx(sigmoid(-2.0), abs=1e-15)
        assert payment_probability(10.0, 3, True) == pytest.approx(0.5, abs=1e-15)

    def test_vectorized(self):
        p = payment_probability(np.array([0.0, 2.0]), np.array([1, 2]), np.array([False, True]))
        assert p == pytest.approx([sigmoid(-1.0), sigmoid(2.8)])

    def test_invalid_segment(self):
        with pytest.raises(ValueError):
            payment_probability(0.0, 4, False)


class TestIndependentPath:
    def test_hand_traced_path(self):
        # balance 120, credit 0, segment 1: p0 = sigmoid(-1), p1 = sigmoid(1)
        u = np.full((1, HORIZON), 0.99)
        u[0, :6] = [0.1, 0.9, 0.5, 0.2, 0.3, 0.01]
        path = simulate_independent(_account(120.0, 0.0, 1), rng=_StubRng(u))
        # t1: pay 50 (u=0.1 < 0.2689); t2: no (0.9 > 0.7311); t3: no (0.5 > 0.2689)
        # t4: pay 50 (0.2 < 0.2689); t5: pay min(50, 20) = 20; t6: balance 0, absorbed
        expected = np.zeros(HORIZON)
        expected[[0, 3, 4]] = [50.0, 50.0, 20.0]
        assert np.array_equal(path.monthly, expected)
        assert path.total == 120.0

    def test_absorption_is_permanent(self):
        # pay every month until exhausted; draws keep being consumed but no payments follow
        u = np.zeros((1, HORIZON))
        path = simulate_independent(_account(130.0, 5.0, 2), rng=_StubRng(u))
        assert np.array_equal(path.monthly[:3], [50.0, 50.0, 30.0])
        assert np.all(path.monthly[3:] == 0.0)
        assert path.total == 130.0

    def test_non_positive_balance_never_pays(self):
        u = np.zeros((1, HORIZON))  # every month would pay
        for balance in (0.0, -100.0):
            path = simulate_independent(_account(balance, 3.0, 2), rng=_StubRng(u))
            assert np.array_equal(path.monthly, np.zeros(HORIZON))

    def test_total_never_exceeds_balance(self):
        acc = _account(700.0, 3.0, 2)
        for k in range(5):
            path = simulate_independent(acc, seed=1, realisation=k)
            assert path.total <= 700.0 + 1e-9

    def test_fixed_draw_consumption(self):
        # realisation k from the unit stream equals row k of one bulk draw
        acc = _account(700.0, 3.0, 2, id=17)
        bulk = stream(5, "sim", 17).random((4, HORIZON))
        for k in range(4):
            direct = simulate_independent(acc, seed=5, realisation=k)
            via_rng = simulate_independent(acc, rng=_StubRng(bulk[k : k + 1]))
            assert np.array_equal(direct.monthly, via_rng.monthly)


class TestBlockTransitions:
    def _block(self, credits, schedule, u):
        n = len(credits)
        return _block_monthly(
            balance=np.full(n, 5000.0),
            credit=np.asarray(credits, dtype=float),
            segment=np.full(n, 3),
            eligible=np.ones(n, dtype=bool),
            y0=np.zeros(n, dtype=bool),
            schedule=schedule,
            u=u,
        )

    def test_best_credit_transitions_at_scheduled_month(self):
        # capacity 1 at month 2: only the best credit score (index 1) moves to segment 1.
        # At month 2 its payment probability jumps from sigmoid(-4+0.4) to sigmoid(-1+0.2);
        # a draw of 0.1 pays only in the transitioned state.
        schedule = TransitionSchedule(times=(2,), capacities=(1,))
        u = np.full((HORIZON, 3), 0.99)
        u[1] = [0.1, 0.1, 0.1]
        monthly = self._block([1.0, 2.0, 0.5], schedule, u)
        assert monthly[1, 1] == 50.0  # transitioned, pays
        assert monthly[0, 1] == 0.0 and monthly[2, 1] == 0.0  # still segment 3

    def test_prior_month_payers_not_eligible_for_transition(self):
        # account 1 pays in month 1, so despite the best score it cannot transition at month 2
        schedule = TransitionSchedule(times=(2,), capacities=(1,))
        u = np.full((HORIZON, 2), 0.99)
        p3 = payment_probability(2.0, 3, False)
        u[0] = [0.99, p3 / 2]  # only account 1 pays in month 1
        u[1] = [0.1, 0.1]
        monthly = self._block([1.0, 2.0], schedule, u)
        assert monthly[1, 0] == 50.0
        # account 0 transitioned instead: p = sigmoid(-1 + 0.1) > 0.1 so it pays
        assert monthly[0, 1] == 50.0

    def test_tie_break_prefers_lower_index(self):
        schedule = TransitionSchedule(times=(2,), capacities=(1,))
        u = np.full((HORIZON, 2), 0.99)
        u[1] = [0.25, 0.25]  # pays only under segment-1 probability sigmoid(-0.6) = 0.354
        monthly = self._block([2.0, 2.0], schedule, u)
        assert monthly[0, 1] == 50.0
        assert monthly[1, 1] == 0.0

    def test_capacity_limits_transitions(self):
        schedule = TransitionSchedule(times=(2,), capacities=(2,))
        u = np.full((HORIZON, 4), 0.99)
        u[1] = [0.25, 0.25, 0.25, 0.25]
        monthly = self._block([1.0, 3.0, 2.0, 0.5], schedule, u)
        # best two scores (indices 1 and 2) transition and pay
        assert monthly[1, 1] == 50.0 and monthly[2, 1] == 50.0
        assert monthly[0, 1] == 0.0 and monthly[3, 1] == 0.0

    def test_no_schedule_means_no_transitions(self):
        u = np.full((HORIZON, 2), 0.25)
        monthly = self._block([2.0, 2.0], TransitionSchedule(times=(), capacities=()), u)
        # segment-3 probability sigmoid(-3.6) = 0.027 < 0.25: never pays
        assert monthly.sum() == 0.0

    def test_default_schedule(self):
        assert DEFAULT_SCHEDULE.times == (6, 12, 18, 24, 30, 36)
        assert DEFAULT_SCHEDULE.capacities == (10,) * 6

    def test_invalid_schedules(self):
        with pytest.raises(ValueError):
            TransitionSchedule(times=(6, 6), capacities=(1, 1))
        with pytest.raises(ValueError):
            TransitionSchedule(times=(0,), capacities=(1,))
        with pytest.raises(ValueError):
            TransitionSchedule(times=(6,), capacities=(1, 2))


class TestRealisationPlan:
    def test_equal_plan(self):
        plan = RealisationPlan.equal(10, 3)
        assert plan.cost == 30.0
        assert plan.is_integer

    def test_validate_block_equality(self):
        pop = init_population(200, (1.0,), seed=3)
        dep = pop.portfolios[0].dependent_ids
        assert len(dep) >= 2  # seed chosen so the block is non-trivial
        counts = np.full(200, 5.0)
        counts[dep[0]] = 7.0
        with pytest.raises(ValueError, match="unequal"):
            RealisationPlan(counts=counts).validate_for(pop)

    def test_validate_sizes_and_positivity(self):
        pop = init_population(10, (1.0,), seed=0)
        with pytest.raises(ValueError):
            RealisationPlan.equal(9, 2).validate_for(pop)
        with pytest.raises(ValueError):
            RealisationPlan(counts=np.zeros(10)).validate_for(pop)

    def test_non_integer_plan_rejected_by_run(self):
        pop = init_population(10, (1.0,), seed=0)
        with pytest.raises(ValueError, match="integer"):
            run_plan(pop, RealisationPlan(counts=np.full(10, 1.5)), seed=0)


class TestRunPlan:
    def test_matches_single_unit_api(self):
        pop = init_population(30, (1.0,), seed=8)
        plan = RealisationPlan.equal(30, 3)
        totals = raw_totals(pop, plan, seed=21)
        for i in pop.independent_ids[:5]:
            for k in range(3):
                path = simulate_independent(account_of(pop, i), seed=21, realisation=k)
                assert totals[i][k] == pytest.approx(path.total, abs=1e-9)

    def test_block_totals_consistent(self):
        pop = init_population(300, (1.0,), seed=8)
        dep = pop.portfolios[0].dependent_ids
        assert len(dep) >= 2
        plan = RealisationPlan.equal(300, 4)
        out = run_plan(pop, plan, seed=2)
        blk = out.block_totals[0]
        assert blk.shape == (4,)
        totals = raw_totals(pop, plan, seed=2)
        per_account = np.stack([totals[i] for i in dep])
        assert blk == pytest.approx(per_account.sum(axis=0), abs=1e-9)

    def test_bitwise_identical_across_workers(self):
        pop = init_population(120, (0.8, 0.2), seed=10)
        plan = RealisationPlan.equal(120, 5)
        o1 = run_plan(pop, plan, seed=3, n_workers=1, store_monthly=True)
        o8 = run_plan(pop, plan, seed=3, n_workers=8, store_monthly=True)
        assert _same_bits(output_moments(o1), output_moments(o8))
        assert np.array_equal(o1.indep_monthly_mean, o8.indep_monthly_mean)
        assert np.array_equal(o1.indep_monthly_var, o8.indep_monthly_var)

    def test_common_random_number_prefix(self):
        pop = init_population(60, (1.0,), seed=10)
        small = run_plan(pop, RealisationPlan.equal(60, 3), seed=3)
        large = run_plan(pop, RealisationPlan.equal(60, 5), seed=3)
        small_totals = raw_totals(pop, RealisationPlan.equal(60, 3), seed=3)
        large_totals = raw_totals(pop, RealisationPlan.equal(60, 5), seed=3)
        for i in pop.independent_ids:
            assert np.array_equal(small_totals[i], large_totals[i][:3])
        for j, blk in small.block_totals.items():
            assert np.array_equal(blk, large.block_totals[j][:3])

    def test_monthly_stats_match_totals(self):
        pop = init_population(40, (1.0,), seed=5)
        plan = RealisationPlan.equal(40, 6)
        out = run_plan(pop, plan, seed=9, store_monthly=True)
        indep = pop.independent_ids
        expected = sum(raw_totals(pop, plan, seed=9)[i].mean() for i in indep)
        assert out.indep_monthly_mean.sum() == pytest.approx(expected, abs=1e-6)
        for j, blk in out.block_monthly.items():
            assert np.allclose(blk.sum(axis=1), out.block_totals[j], rtol=1e-12, atol=1e-9)


# --------------------------------------------------------------------------
# Plans that span several chunks of run_plan, checked against reference loops


def _reference_paths(p0, p1, bal0, y0, u):
    """Month-by-month balance arithmetic over path-major uniforms (M, horizon)."""
    m, horizon = u.shape
    bal = np.array(bal0, dtype=float, copy=True)
    yprev = np.array(y0, dtype=bool, copy=True)
    totals = np.zeros(m)
    monthly = np.empty((m, horizon))
    for t in range(horizon):
        p = np.where(yprev, p1, p0)
        y = (u[:, t] < p) & (bal > 0)
        pay = np.where(y, np.minimum(PAYMENT_CAP, bal), 0.0)
        bal -= pay
        totals += pay
        yprev = y
        monthly[:, t] = pay
    return totals, monthly


def _reference_block(balance, credit, segment, eligible, y0, schedule, u):
    """One block realisation, with the payment probabilities recomputed every month."""
    horizon, n = u.shape
    bal = balance.astype(float).copy()
    seg = segment.astype(int).copy()
    yprev = y0.astype(bool).copy()
    monthly = np.zeros((n, horizon))
    trans = dict(zip(schedule.times, schedule.capacities))
    for t in range(1, horizon + 1):
        cap = trans.get(t)
        if cap:
            qual = np.flatnonzero(eligible & (seg == 3) & ~yprev)
            if len(qual):
                order = qual[np.lexsort((qual, -credit[qual]))]
                seg[order[:cap]] = 1
        p = payment_probability(credit, seg, yprev)
        y = (u[t - 1] < p) & (bal > 0)
        pay = np.where(y, np.minimum(PAYMENT_CAP, bal), 0.0)
        bal -= pay
        yprev = y
        monthly[:, t - 1] = pay
    return monthly


def _multi_chunk_plan(pop, seed, extra=None):
    """Unequal counts in 1..39 with some R_i = 1, equal counts within each block."""
    g = np.random.default_rng(seed)
    counts = g.integers(1, 40, pop.n).astype(float)
    counts[::17] = 1.0
    if extra is not None:
        counts += extra
    for j, pf in enumerate(pop.portfolios):
        counts[pf.dependent_ids] = 3.0 + 4 * j + (0 if extra is None else 2)
    return RealisationPlan(counts=counts)


@pytest.fixture(scope="module")
def multi_chunk():
    pop = init_population(900, (0.5, 0.5), seed=31)
    plan = _multi_chunk_plan(pop, seed=1)
    indep = pop.independent_ids
    assert plan.counts[indep].sum() >= 3 * _CHUNK_PATHS
    assert all(len(pf.dependent_ids) >= 2 for pf in pop.portfolios)
    out = run_plan(pop, plan, seed=4, store_monthly=True)
    return pop, plan, out


class TestChunkedRunPlan:
    def test_matches_reference_loops(self, multi_chunk):
        pop, plan, out = multi_chunk
        counts = plan.counts.astype(int)
        indep = pop.independent_ids
        rep = counts[indep]
        u = np.concatenate([stream(4, "sim", int(i)).random((counts[i], HORIZON)) for i in indep])
        seg, credit = pop.segment[indep], pop.credit_score[indep]
        totals, monthly = _reference_paths(
            np.repeat(payment_probability(credit, seg, False), rep),
            np.repeat(payment_probability(credit, seg, True), rep),
            np.repeat(pop.balance[indep], rep),
            np.repeat(pop.paid_last_month[indep], rep),
            u,
        )
        starts = np.concatenate([[0], np.cumsum(rep)])
        engine = raw_totals(pop, plan, seed=4)
        reference = [None] * pop.n
        mean = np.zeros(HORIZON)
        for pos, i in enumerate(indep):
            sl = slice(starts[pos], starts[pos + 1])
            reference[i] = totals[sl]
            assert np.array_equal(engine[i], totals[sl])
            mean += monthly[sl].mean(axis=0)
        # summation order differs from the per-account loop
        np.testing.assert_allclose(out.indep_monthly_mean, mean, rtol=1e-12)
        assert np.all(np.isnan(out.indep_monthly_var))  # some R_i = 1: no sample variance
        for j, pf in enumerate(pop.portfolios):
            dep = pf.dependent_ids
            r_j = counts[dep[0]]
            u_j = stream(4, "sim", "block", j).random((r_j, HORIZON, len(dep)))
            ref = np.stack(
                [
                    _reference_block(
                        pop.balance[dep],
                        pop.credit_score[dep],
                        pop.segment[dep],
                        pop.eligible[dep],
                        pop.paid_last_month[dep],
                        DEFAULT_SCHEDULE,
                        u_j[k],
                    ).sum(axis=1)
                    for k in range(r_j)
                ]
            )
            assert np.array_equal(out.block_totals[j], ref.sum(axis=1))
            for pos, i in enumerate(dep):
                reference[i] = ref[:, pos]
                assert np.array_equal(engine[i], ref[:, pos])
        # every account's moments, of the reference totals one account at a time
        assert _same_bits(output_moments(out), moments_of(reference))
        assert np.array_equal(out.counts, counts)

    def test_bitwise_identical_across_workers(self, multi_chunk):
        pop, plan, out = multi_chunk
        for workers in (2, 8):
            other = run_plan(pop, plan, seed=4, store_monthly=True, n_workers=workers)
            assert _same_bits(output_moments(other), output_moments(out))
            assert np.array_equal(other.counts, out.counts)
            assert np.array_equal(other.indep_monthly_mean, out.indep_monthly_mean)
            assert np.array_equal(other.indep_monthly_var, out.indep_monthly_var, equal_nan=True)
            for j, blk in out.block_totals.items():
                assert np.array_equal(other.block_totals[j], blk)
                assert np.array_equal(other.block_monthly[j], out.block_monthly[j])

    def test_common_random_number_prefix(self, multi_chunk):
        pop, plan, out = multi_chunk
        extra = np.random.default_rng(2).integers(0, 6, pop.n)
        larger_plan = _multi_chunk_plan(pop, seed=1, extra=extra)
        larger = run_plan(pop, larger_plan, seed=4, n_workers=2)
        small_totals = raw_totals(pop, plan, seed=4)
        large_totals = raw_totals(pop, larger_plan, seed=4, n_workers=2)
        for i in range(pop.n):
            assert np.array_equal(small_totals[i], large_totals[i][: len(small_totals[i])])
        for j, blk in out.block_totals.items():
            assert np.array_equal(blk, larger.block_totals[j][: len(blk)])

    def test_summary_json_matches_per_account_statistics(self, multi_chunk, tmp_path):
        pop, plan, out = multi_chunk
        path = tmp_path / "summary.json"
        out.summary_json(path)
        rows = json.loads(path.read_text())
        assert [r["account_id"] for r in rows] == list(range(pop.n))
        for rec, tot in zip(rows, raw_totals(pop, plan, seed=4)):
            mean, variance, kurtosis = (float(v[0]) for v in simulator._segment_moments(tot, np.full(1, len(tot))))  # the account on its own
            assert rec["mean"] == mean
            assert ("variance" in rec) == (len(tot) >= 2)
            if len(tot) >= 2:
                assert rec["variance"] == variance
            assert ("kurtosis" in rec) == (len(tot) >= 4 and variance > 0)
            if "kurtosis" in rec:
                assert rec["kurtosis"] == kurtosis
            assert_near_fsum(rec["mean"], rec.get("variance", math.nan), rec.get("kurtosis", math.nan), tot)

    def test_block_kernel_matches_reference(self):
        # several transition months, ties in credit score and accounts that pay before a transition
        g = np.random.default_rng(5)
        n = 40
        credit = np.round(g.normal(0.0, 2.0, n), 1)
        args = (
            g.uniform(500.0, 6000.0, n),
            credit,
            np.full(n, 3),
            g.random(n) < 0.8,
            g.random(n) < 0.3,
            DEFAULT_SCHEDULE,
        )
        for k in range(5):
            u = g.random((HORIZON, n))
            assert np.array_equal(_block_monthly(*args, u), _reference_block(*args, u))
        # stacked realisations: each row of the batch is ranked and simulated on its own
        for r in (1, 2, 7):
            u = g.random((r, HORIZON, n))
            monthly = _block_monthly(*args, u)
            assert monthly.shape == (r, n, HORIZON)
            for k in range(r):
                assert np.array_equal(monthly[k], _reference_block(*args, u[k]))


def _count_form_paths(p0, p1, balance, y0, u, collect_monthly=False):
    """The path kernel's count form: month t pays ``clip(balance - 50 K_t, 0, 50)`` if the chain pays."""
    horizon, m = u.shape
    balance = np.maximum(balance, 0.0)
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


def _per_month_expit_block(balance, credit, segment, eligible, y0, schedule, u):
    """The block kernel with ``expit`` of the linear predictor evaluated for every account every month."""
    r, horizon, n = u.shape
    bal = np.tile(balance.astype(float), (r, 1))
    seg = np.tile(segment.astype(int), (r, 1))
    terms = np.tile(_INTERCEPTS[segment - 1] + _SLOPES[segment - 1] * credit, (r, 1))
    terms_moved = _INTERCEPTS[0] + _SLOPES[0] * credit
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
    return monthly


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestKernelOracles:
    """The path and block kernels against the earlier forms they replace, bit for bit."""

    def test_path_kernel_matches_count_form_and_month_by_month(self):
        g = np.random.default_rng(21)
        # multiples of 50, below 50, zero, negative and general balances, with paid-off and live paths
        balance = np.concatenate(
            [
                50.0 * np.arange(1, 61),
                [0.5, 1e-9, 49.999, 25.0, 0.0, -0.0, -3.0, -50.0, 4e15 + 0.5],
                np.round(g.uniform(500.0, 10000.0, 300), 2),
                g.uniform(0.0, 4200.0, 300),
            ]
        )
        m = len(balance)
        p0, p1 = g.uniform(0.05, 0.9, m), g.uniform(0.1, 0.99, m)
        y0 = g.random(m) < 0.3
        u = g.random((HORIZON, m))
        u[:, :40] *= 0.1  # mostly paying: these paths pay off well before the horizon
        totals, monthly = _simulate_paths(p0, p1, balance, y0, u, collect_monthly=True)
        totals_only, none = _simulate_paths(p0, p1, balance, y0, u)
        assert none is None
        assert _same_bits(totals, totals_only)
        old_totals, old_monthly = _count_form_paths(p0, p1, balance, y0, u, collect_monthly=True)
        assert _same_bits(totals, old_totals)
        assert _same_bits(monthly, old_monthly)
        ref_totals, ref_monthly = _reference_paths(p0, p1, balance, y0, u.T)
        assert _same_bits(totals, ref_totals)
        assert _same_bits(monthly, np.ascontiguousarray(ref_monthly.T))
        paid_off = totals == np.maximum(balance, 0.0)
        assert paid_off[:40].all() and not paid_off.all()

    @pytest.mark.parametrize("r", [1, 4])
    @pytest.mark.parametrize("all_qualify", [False, True])
    def test_block_kernel_matches_per_month_expit(self, r, all_qualify):
        g = np.random.default_rng(13 + r)
        n = 60
        credit = np.round(g.normal(-1.0, 2.5, n), 1)  # ties in credit score
        if all_qualify:
            segment, eligible, y0 = np.full(n, 3), np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
        else:
            segment, eligible, y0 = g.integers(1, 4, n), g.random(n) < 0.7, g.random(n) < 0.3
        # the first transition binds; the last has room for every account that still qualifies
        schedule = TransitionSchedule(times=(6, 12, 30, 31, 60), capacities=(7, 3, 0, 5, n))
        u = g.random((r, HORIZON, n))
        if all_qualify:
            u[:, :6] = 1.0  # nobody pays before the first transition, so every account qualifies at it
        args = (g.uniform(100.0, 6000.0, n), credit, segment, eligible, y0, schedule)
        monthly = _block_monthly(*args, u)
        assert _same_bits(monthly, _per_month_expit_block(*args, u))
        if r == 1:
            assert _same_bits(_block_monthly(*args, u[0]), monthly[0])
        if all_qualify:
            # only the capacity stops the first transition: exactly 7 accounts leave segment 3
            p3, p1 = expit(-4.0 + 0.2 * credit), expit(-1.0 + 0.1 * credit)
            pays = u[:, 6] < p1  # month 7: after the move, nobody paid in month 6
            moved = np.argsort(-credit, kind="stable")[:7]
            assert np.array_equal(monthly[:, moved, 6] > 0, pays[:, moved])
            stay = np.setdiff1d(np.arange(n), moved)
            assert np.array_equal(monthly[:, stay, 6] > 0, (u[:, 6] < p3)[:, stay])


    def test_block_month_sums_add_the_accounts_in_order(self):
        # small balances with cents, paid in a few months: many partial payments in the same month,
        # whose sum depends on the order of the additions
        g = np.random.default_rng(17)
        n = 300
        args = (
            np.round(g.uniform(0.01, 140.0, n), 2),
            g.normal(6.0, 1.0, n),
            np.full(n, 2),
            np.zeros(n, dtype=bool),
            np.ones(n, dtype=bool),
            DEFAULT_SCHEDULE,
        )
        u = g.random((3, HORIZON, n)) * 0.3
        out = np.empty((3, n, HORIZON))
        tot, sums = _simulate_block_realisation(*args, u.transpose(1, 0, 2), out=out, month_sums=True)
        assert _same_bits(sums, out.sum(axis=1))
        assert not _same_bits(sums, np.stack([np.add.reduce(out[:, :, t], axis=1) for t in range(HORIZON)], axis=1))
        assert _same_bits(tot, out.sum(axis=2))


class TestMonthlyReductions:
    """The monthly statistics each chunk reduces over its accounts, against per-path oracles."""

    @pytest.mark.parametrize("equal", [True, False])
    def test_match_per_path_reference(self, equal):
        pop = init_population(300, (0.7, 0.3), seed=12)
        assert all(len(pf.dependent_ids) >= 2 for pf in pop.portfolios)
        counts = np.full(pop.n, 7.0)
        if not equal:
            counts = np.random.default_rng(3).integers(2, 30, pop.n).astype(float)
            for j, pf in enumerate(pop.portfolios):
                counts[pf.dependent_ids] = 5.0 + 3 * j
        plan = RealisationPlan(counts=counts)
        out = run_plan(pop, plan, seed=8, store_monthly=True)

        # mean and var: the plain per-path sums; weighted: the per-unit band variance, each unit's times 1 + 1/R
        mean, var, weighted = np.zeros(HORIZON), np.zeros(HORIZON), np.zeros(HORIZON)
        for i in pop.independent_ids:
            acc, r = account_of(pop, i), int(counts[i])
            _, monthly = _simulate_paths(
                payment_probability(acc.credit_score, acc.segment, False),
                payment_probability(acc.credit_score, acc.segment, True),
                acc.balance,
                acc.paid_last_month,
                stream(8, "sim", int(i)).random((r, HORIZON)).T,
                collect_monthly=True,
            )
            mean += monthly.mean(axis=1)
            var += monthly.var(axis=1, ddof=1)
            weighted += (1.0 + 1.0 / r) * monthly.var(axis=1, ddof=1)
        for j, pf in enumerate(pop.portfolios):
            dep = pf.dependent_ids
            r_j = int(counts[dep[0]])
            ref = _reference_block_runs(pop, dep, stream(8, "sim", "block", j), r_j)
            blk = np.stack([m.sum(axis=0) for m in ref])
            np.testing.assert_allclose(out.block_monthly[j], blk, rtol=1e-12, atol=0)
            mean += blk.mean(axis=0)
            weighted += (1.0 + 1.0 / r_j) * blk.var(axis=0, ddof=1)

        np.testing.assert_allclose(estimate_mu(out, pop).per_month, mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(out.indep_monthly_var, var, rtol=1e-12, atol=0)
        if equal:
            bands = monthly_bands(out)
            z = normal_quantile(0.975)
            np.testing.assert_allclose([b.half_width for b in bands], z * np.sqrt(weighted), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("equal", [True, False])
    def test_moments_keep_per_account_statistics(self, equal, monkeypatch):
        pop = init_population(200, (1.0,), seed=4)
        plan = RealisationPlan.equal(pop.n, 9) if equal else _multi_chunk_plan(pop, seed=2)
        expected = run_plan(pop, plan, seed=3)
        monkeypatch.setattr(simulator, "_CHUNK_PATHS", 64)  # many chunks, with other units side by side
        out = run_plan(pop, plan, seed=3)
        totals = raw_totals(pop, plan, seed=3)
        assert _same_bits(output_moments(out), moments_of(totals))
        assert _same_bits(output_moments(out), output_moments(expected))
        for t, *moments in zip(totals, out.means, out.variances, out.kurtoses):
            assert_near_fsum(*moments, t)
        means = estimate_mu(out, pop)
        assert means.total == float(np.sum(moments_of(totals)[0]))
        if np.all(plan.counts >= 2):
            sigma2 = variance_inputs_from_samples(out, pop).sigma2_independent
            assert np.array_equal(sigma2, moments_of(totals)[1])

    def test_segment_moments_equal_each_segment_on_its_own(self):
        # a random mix of counts 1-300 in random order: every segment's moments are the function's on
        # that segment alone, bit for bit, whatever its neighbours, and near math.fsum sums
        g = np.random.default_rng(8)
        counts = g.permutation(np.concatenate([np.arange(1, 301), g.integers(1, 301, 100)]))
        values = np.minimum(PAYMENT_CAP * g.integers(0, 85, counts.sum()), g.uniform(100.0, 6000.0, counts.sum()))
        values[: counts[0]] = 7.5  # a zero-variance segment
        got = np.array(simulator._segment_moments(values, counts))
        for k, seg in enumerate(np.split(values, np.cumsum(counts)[:-1])):
            alone = np.array(simulator._segment_moments(seg.copy(), np.array([len(seg)])))[:, 0]
            assert got[:, k].tobytes() == alone.tobytes()
            assert_near_fsum(*got[:, k], seg)
        assert got[1, 0] == 0.0 or counts[0] == 1

    def test_segment_moments_call_no_pow(self):
        # pow's last bits depend on the CPU's code path; products and sums are exactly rounded
        tree = ast.parse(textwrap.dedent(inspect.getsource(simulator._segment_moments)))
        for node in ast.walk(tree):
            assert not isinstance(node, ast.Pow), ast.unparse(node)
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            assert name not in ("pow", "power", "float_power"), ast.unparse(node)

    def test_equal_totals_have_zero_variance_and_no_kurtosis(self, tmp_path):
        # sum/n of three 0.1s is 0.10000000000000002; a mean off by some ulps gave equal totals a
        # rounding-jitter variance and a kurtosis of 1.0 in collections_summary.json
        mean, var, kurt = simulator._segment_moments(np.array([0.1, 0.1, 0.1, 0.7]), np.array([3, 1]))
        assert mean.tolist() == [0.1, 0.7] and var[0] == 0.0 and np.isnan(var[1]) and np.isnan(kurt).all()
        # accounts that always pay their full balance
        pop = init_population(5000, (0.99, 0.01), seed=11)
        out = run_plan(pop, RealisationPlan.equal(pop.n, 25), seed=12)
        assert not np.any((out.variances > 0) & (out.variances <= 1e-12 * out.means**2))
        constant = out.variances == 0
        assert constant.sum() > 100 and np.isnan(out.kurtoses[constant]).all()
        out.summary_json(tmp_path / "summary.json")
        records = json.loads((tmp_path / "summary.json").read_text())
        assert not [r for r in records if r["variance"] <= 1e-12 * r["mean"] ** 2 and "kurtosis" in r]

    def test_summary_json_written_in_pieces_equals_one_dump(self, multi_chunk, tmp_path, monkeypatch):
        pop, plan, out = multi_chunk
        records = []
        for i, tot in enumerate(raw_totals(pop, plan, seed=4)):
            mean, var, kurt = (float(v[0]) for v in simulator._segment_moments(tot, np.full(1, len(tot))))
            rec = {"account_id": i, "mean": mean}
            rec.update({"variance": var} if not math.isnan(var) else {})
            rec.update({"kurtosis": kurt} if not math.isnan(kurt) else {})
            records.append(rec)
        monkeypatch.setattr(simulator, "_CHUNK_PATHS", 64)
        out.summary_json(tmp_path / "summary.json")
        same = (tmp_path / "summary.json").read_text() == json.dumps(records)
        assert same  # a bool, so a failure does not diff two long strings

    def test_marginal_peak_memory_per_account(self):
        # the realised totals alone take 25 x 8 = 200 B per account; per-account
        # monthly sums and sums of squares would add 2 x 84 x 8 = 1344 B
        peaks = []
        for n in (20_000, 40_000):
            pop = init_population(n, (1.0,), seed=1)
            plan = RealisationPlan.equal(n, 25)
            pop.portfolios  # the cached partition belongs to the population, not the run
            tracemalloc.start()
            try:
                run_plan(pop, plan, seed=2, store_monthly=True, n_workers=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_account = (peaks[1] - peaks[0]) / 20_000
        assert per_account < 400, per_account


class TestWorkerPool:
    """Chunks on a process pool: worker counts, pool size and pool lifetime."""

    def test_rejects_fewer_than_one_worker(self):
        pop = init_population(20, (1.0,), seed=1)
        for workers in (0, -1):
            with pytest.raises(ValueError, match=f"n_workers must be at least 1, got {workers}"):
                run_plan(pop, RealisationPlan.equal(20, 2), n_workers=workers)

    def test_pool_size_is_capped_by_cpus_and_chunks(self, monkeypatch, multi_chunk):
        pop, plan, _ = multi_chunk  # at least three chunks
        sizes = []

        class NoPool(Exception):
            pass

        def record(max_workers=None, **kwargs):
            sizes.append(max_workers)
            raise NoPool  # starts no process

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", record)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})  # three usable CPUs
        with pytest.raises(NoPool):
            run_plan(pop, plan, seed=4, n_workers=10_000)
        two_items = init_population(100, (1.0,), seed=2)  # one chunk of 87 x 25 paths and one block item
        with pytest.raises(NoPool):
            run_plan(two_items, RealisationPlan.equal(100, 25), seed=4, n_workers=10_000)
        assert sizes == [3, 2]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="with one CPU the chunks run in this process")
    def test_no_worker_outlives_the_call(self, multi_chunk):
        pop, plan, out = multi_chunk
        other = run_plan(pop, plan, seed=4, n_workers=2)
        assert multiprocessing.active_children() == []
        assert _same_bits(output_moments(other), output_moments(out))

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="with one CPU the chunks run in this process")
    def test_worker_error_reaches_the_caller(self, monkeypatch, multi_chunk):
        pop, plan, _ = multi_chunk

        def fail(*args, **kwargs):
            raise RuntimeError("kernel failed")

        monkeypatch.setattr(simulator, "_simulate_paths", fail)
        with pytest.raises(RuntimeError, match="kernel failed") as excinfo:
            run_plan(pop, plan, seed=4, n_workers=2)
        assert "RemoteTraceback" in type(excinfo.value.__cause__).__name__  # raised in a worker
        assert multiprocessing.active_children() == []


    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="with one CPU the chunks run in this process")
    def test_consumer_error_mid_stream_leaves_no_worker(self, multi_chunk):
        pop, plan, out = multi_chunk
        chunks = simulator._chunks(4, ("sim",), simulator._independent_units(pop, plan.counts.astype(int)))
        seen = []
        with pytest.raises(RuntimeError, match="consumer failed"):
            # the map's generator is dropped, and so closed, as the error leaves the loop
            for (_, _, ids, *_), (moments, _, _) in zip(chunks, simulator._pool_map(_simulate_chunk, chunks, 2)):
                seen.append((ids, moments))
                if len(seen) == 2:  # of at least three chunks
                    raise RuntimeError("consumer failed")
        assert multiprocessing.active_children() == []
        for ids, moments in seen:
            assert _same_bits(moments, output_moments(out)[:, ids])


    def test_pool_map_keeps_order_and_runs_inherited_callables(self):
        offset = np.arange(5.0)  # a closure: forked workers inherit it, nothing is pickled but indices
        items = list(range(23))
        for workers in (1, 2, 8):
            got = list(simulator._pool_map(lambda i: offset + i, items, workers))
            assert all(np.array_equal(g, offset + i) for g, i in zip(got, items)) and len(got) == len(items)
        assert list(simulator._pool_map(str, [], 2)) == []

    def test_pool_map_at_one_worker_is_a_lazy_map_in_this_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("started a pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        pids = simulator._pool_map(lambda i: (i, os.getpid()), range(3), 1)
        assert next(pids) == (0, os.getpid())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one usable CPU: no pool either
        assert list(simulator._pool_map(lambda i: i, range(3), 4)) == [0, 1, 2]


class TestScratchBuffers:
    """Chunks reuse one uniform and one payment buffer per thread, and return none of it."""

    @pytest.mark.parametrize("store_monthly", [True, False])
    def test_chunk_results_own_their_memory_and_equal_fresh_buffers(self, store_monthly, monkeypatch):
        pop = init_population(600, (1.0,), seed=3)
        units = simulator._independent_units(pop, _multi_chunk_plan(pop, seed=5).counts.astype(int))
        chunks = simulator._chunks(5, ("sim",), units, store_monthly=store_monthly)[:2]
        assert len(chunks) == 2 and len(chunks[0][2]) != len(chunks[1][2])  # unequal chunks
        first = simulator._simulate_chunk(chunks[0])
        simulator._scratch.uniforms.fill(np.nan)  # the next chunk must overwrite what it reads
        if store_monthly:
            simulator._scratch.monthly.fill(np.nan)
        second = simulator._simulate_chunk(chunks[1])
        scratch = [simulator._scratch.uniforms] + ([simulator._scratch.monthly] if store_monthly else [])
        returned = [a for result in (first, second) for a in result if a is not None]
        for k, a in enumerate(returned):
            assert not any(np.shares_memory(a, b) for b in scratch + returned[k + 1 :])
        monkeypatch.setattr(simulator, "_scratch_array", lambda name, shape: np.empty(shape))
        for chunk, got in zip(chunks, (first, second)):
            want = simulator._simulate_chunk(chunk)
            assert all(g is w is None or _same_bits(g, w) for g, w in zip(got, want))

    def test_concurrent_runs_in_threads_equal_serial_runs(self):
        pop = init_population(900, (0.7, 0.3), seed=6)
        plans = [RealisationPlan.equal(pop.n, 9), _multi_chunk_plan(pop, seed=3)]
        serial = [run_plan(pop, plan, seed=2, store_monthly=True) for plan in plans]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside chunks too
        try:
            with concurrent.futures.ThreadPoolExecutor(4) as threads:  # more threads than cores
                futures = [threads.submit(run_plan, pop, plan, seed=2, store_monthly=True) for plan in plans * 3]
                runs = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for out, want in zip(runs, serial * 3):
            assert _same_bits(output_moments(out), output_moments(want))
            assert _same_bits(out.indep_monthly_mean, want.indep_monthly_mean)

    def test_chunks_take_few_page_faults(self):
        pytest.importorskip("resource")
        script = """
import resource
import numpy as np
from collsim import simulator
n = 30 * 4096 // 25  # 30 chunks of about 4096 paths, 25 per account
units = (np.arange(n), np.full(n, 25), np.linspace(-3, 3, n), np.full(n, 2), np.full(n, 900.0), np.zeros(n, bool))
chunks = simulator._chunks(1, ("sim",), units, store_monthly=True)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for chunk in chunks:
    simulator._simulate_chunk(chunk)
print(len(chunks), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        n_chunks, faults = map(int, run_fresh(script).split())
        assert n_chunks == 30
        assert faults < 100 * n_chunks, faults  # a fresh 5.5 MB per chunk took about 1,370 per chunk


@st.composite
def _populations_and_plans(draw):
    """A small population with blocks and an unequal plan whose independents span two chunks or more."""
    n = draw(st.integers(250, 500))
    share = draw(st.floats(0.5, 0.95))
    pop = init_population(n, (share, 1.0 - share), seed=draw(st.integers(0, 10**6)))
    g = np.random.default_rng(draw(st.integers(0, 10**6)))
    counts = g.integers(1, 60, n).astype(float)
    for pf in pop.portfolios:
        counts[pf.dependent_ids] = g.integers(1, 12)
    assume(counts[pop.independent_ids].sum() > _CHUNK_PATHS)
    return pop, RealisationPlan(counts=counts), draw(st.integers(0, 10**6))


_properties = settings(max_examples=15, deadline=None)


class TestRunPlanProperties:
    @_properties
    @given(_populations_and_plans())
    def test_worker_count_does_not_change_outputs(self, case):
        pop, plan, seed = case
        one = run_plan(pop, plan, seed=seed, store_monthly=True, n_workers=1)
        two = run_plan(pop, plan, seed=seed, store_monthly=True, n_workers=2)
        for name in ("counts", "means", "variances", "kurtoses", "indep_monthly_mean", "indep_monthly_var"):
            assert np.array_equal(getattr(one, name), getattr(two, name), equal_nan=True), name
        assert one.block_totals.keys() == two.block_totals.keys()
        for j, blk in one.block_totals.items():
            assert np.array_equal(blk, two.block_totals[j])
            assert np.array_equal(one.block_monthly[j], two.block_monthly[j])

    @_properties
    @given(_populations_and_plans(), st.integers(0, 10**6))
    def test_common_random_number_prefix(self, case, extra_seed):
        pop, plan, seed = case
        g = np.random.default_rng(extra_seed)
        extra = g.integers(0, 8, pop.n).astype(float)
        for pf in pop.portfolios:
            extra[pf.dependent_ids] = g.integers(0, 8)
        small = run_plan(pop, plan, seed=seed, store_monthly=True)
        larger = RealisationPlan(counts=plan.counts + extra)
        large = run_plan(pop, larger, seed=seed, store_monthly=True, n_workers=2)
        small_totals = raw_totals(pop, plan, seed=seed)
        large_totals = raw_totals(pop, larger, seed=seed, n_workers=2)
        for i in range(pop.n):
            assert np.array_equal(small_totals[i], large_totals[i][: len(small_totals[i])])
        for j, blk in small.block_totals.items():
            assert np.array_equal(blk, large.block_totals[j][: len(blk)])


def _reference_block_runs(pop, dep, g, r):
    """``r`` block realisations from stream ``g``, one oracle call per realisation."""
    covariates = (
        pop.balance[dep],
        pop.credit_score[dep],
        pop.segment[dep],
        pop.eligible[dep],
        pop.paid_last_month[dep],
        DEFAULT_SCHEDULE,
    )
    return [_reference_block(*covariates, g.random((HORIZON, len(dep)))) for _ in range(r)]


class TestBlockBatches:
    """Blocks whose realisations span several batches of about _CHUNK_PATHS account-realisations."""

    @pytest.fixture(scope="class")
    def pop(self):
        pop = init_population(600, (1.0,), seed=8)
        assert len(pop.portfolios[0].dependent_ids) >= 20
        return pop

    def test_run_plan_matches_per_realisation_oracle(self, pop):
        dep = pop.portfolios[0].dependent_ids
        r_j = 3 * _CHUNK_PATHS // len(dep) + 5  # three full batches and a partial one
        counts = np.ones(pop.n)
        counts[dep] = r_j
        out = run_plan(pop, RealisationPlan(counts=counts), seed=6, store_monthly=True)
        ref = _reference_block_runs(pop, dep, stream(6, "sim", "block", 0), r_j)
        acc_tot = np.stack([m.sum(axis=1) for m in ref])
        assert np.array_equal(out.block_totals[0], acc_tot.sum(axis=1))
        totals = raw_totals(pop, RealisationPlan(counts=counts), seed=6)
        for pos, i in enumerate(dep):
            assert np.array_equal(totals[i], acc_tot[:, pos])
        assert _same_bits(output_moments(out)[:, dep], moments_of(acc_tot.T))
        assert np.array_equal(out.block_monthly[0], np.stack([m.sum(axis=0) for m in ref]))
        block_mean = np.mean([m.sum(axis=0) for m in ref], axis=0)
        per_month = estimate_mu(out, pop).per_month
        np.testing.assert_allclose(per_month, out.indep_monthly_mean + block_mean, rtol=1e-12)

    def test_pilot_variance_matches_per_realisation_oracle(self, pop):
        dep = pop.portfolios[0].dependent_ids
        n_pilot = 2 * _CHUNK_PATHS // len(dep) + 3
        ref = _reference_block_runs(pop, dep, stream(9, "pilot", 0), n_pilot)
        # a realisation's total is the sum of its account totals, as run_plan's block totals
        expected = float(np.stack([m.sum(axis=1) for m in ref]).sum(axis=1).var(ddof=1))
        assert pilot_block_variance(pop, 0, n_pilot=n_pilot, seed=9) == expected

    def test_worker_count_does_not_change_block_items(self, pop):
        dep = pop.portfolios[0].dependent_ids
        counts = np.ones(pop.n)
        counts[dep] = 3 * _CHUNK_PATHS // len(dep) + 5  # four items of the block
        plan = RealisationPlan(counts=counts)
        one = run_plan(pop, plan, seed=6, store_monthly=True, n_workers=1)
        for workers in (2, 8):
            other = run_plan(pop, plan, seed=6, store_monthly=True, n_workers=workers)
            assert _same_bits(output_moments(other), output_moments(one))
            assert _same_bits(other.block_totals[0], one.block_totals[0])
            assert _same_bits(other.block_monthly[0], one.block_monthly[0])
            assert _same_bits(other.indep_monthly_mean, one.indep_monthly_mean)

    @pytest.mark.parametrize("horizon", [HORIZON, 37])
    def test_single_realisation_items_start_anywhere_in_the_stream(self, pop, monkeypatch, horizon):
        # at 16 account-realisations per item each item is one realisation drawn month by month,
        # and its stream is advanced to it; at 37 months a realisation's draws are no multiple of 4
        monkeypatch.setattr(simulator, "_CHUNK_PATHS", 16)
        dep = pop.portfolios[0].dependent_ids
        assert len(dep) * 37 % 4
        r_j = 7
        counts = np.ones(pop.n)
        counts[dep] = r_j
        g = stream(6, "sim", "block", 0)
        covariates = (
            pop.balance[dep],
            pop.credit_score[dep],
            pop.segment[dep],
            pop.eligible[dep],
            pop.paid_last_month[dep],
            DEFAULT_SCHEDULE,
        )
        ref = [_reference_block(*covariates, g.random((horizon, len(dep)))) for _ in range(r_j)]
        plan = RealisationPlan(counts=counts)
        for workers in (1, 2):
            out = run_plan(pop, plan, seed=6, horizon=horizon, store_monthly=True, n_workers=workers)
            acc_tot = np.stack([m.sum(axis=1) for m in ref])
            assert _same_bits(out.block_totals[0], acc_tot.sum(axis=1))
            totals = raw_totals(pop, plan, seed=6, horizon=horizon, n_workers=workers)
            for pos, i in enumerate(dep):
                assert _same_bits(totals[i], acc_tot[:, pos])
            assert _same_bits(output_moments(out)[:, dep], moments_of(acc_tot.T))
            assert _same_bits(out.block_monthly[0], np.stack([m.sum(axis=0) for m in ref]))
        if horizon == HORIZON:
            pilots = _reference_block_runs(pop, dep, stream(9, "pilot", 0), 5)
            expected = float(np.array([m.sum() for m in pilots]).var(ddof=1))
            assert pilot_block_variance(pop, 0, n_pilot=5, seed=9, n_workers=2) == expected


class TestBlockMemory:
    """A block item holds a few (|D|,) arrays per realisation, not (k, |D|, horizon) uniforms and payments."""

    @staticmethod
    def _block(n):
        g = np.random.default_rng(n)
        return SimpleNamespace(
            balance=g.uniform(100.0, 6000.0, n),
            credit_score=g.normal(-1.0, 2.0, n),
            segment=np.full(n, 3),
            eligible=np.ones(n, dtype=bool),
            paid_last_month=g.random(n) < 0.3,
            portfolios=[SimpleNamespace(dependent_ids=np.arange(n))],
        )

    @pytest.mark.parametrize("use", ["totals", "monthly", "pilot"])
    def test_marginal_peak_memory_per_block_account(self, use):
        # batches of whole realisations held (k, |D|, 84) uniforms and payments: 2.1 KB per block account,
        # and pilot items kept their (k, |D|, 84) payments: 812 B
        peaks, sizes = [], (6000, 12000)  # above _CHUNK_PATHS, so each item is one realisation
        for n in sizes:
            block = self._block(n)
            tracemalloc.start()
            try:
                if use == "pilot":
                    pilot_block_variance(block, 0, n_pilot=3, seed=2)
                else:
                    key = ("sim", "block", 0)
                    items = simulator._block_items(block, np.arange(n), 2, key, 3, HORIZON, use == "monthly")
                    results = [simulator._simulate_block_item(item) for item in items]
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            if use != "pilot":
                assert [tot.shape for tot, _ in results] == [(1, n)] * 3
        per_account = (peaks[1] - peaks[0]) / (sizes[1] - sizes[0])
        assert per_account < 400, per_account  # about 150 B: the block's covariates, state and totals
