"""Repayment path simulation: hand-traced oracles and draw discipline."""

import concurrent.futures
import json
import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import collsim.simulator as simulator
from collsim.allocator import pilot_block_variance
from collsim.estimators import sample_moments
from collsim.population import Account, init_population
from collsim.rng import stream
from collsim.simulator import (
    _CHUNK_PATHS,
    DEFAULT_SCHEDULE,
    HORIZON,
    PAYMENT_CAP,
    RealisationPlan,
    TransitionSchedule,
    _simulate_block_realisation,
    payment_probability,
    run_plan,
    simulate_independent,
)


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


class _StubRng:
    """Feeds a preset uniform array to the simulators."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, shape):
        assert self.u.shape == tuple(shape), (self.u.shape, shape)
        return self.u


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
        from collsim.rng import stream

        bulk = stream(5, "sim", 17).random((4, HORIZON))
        for k in range(4):
            direct = simulate_independent(acc, seed=5, realisation=k)
            via_rng = simulate_independent(acc, rng=_StubRng(bulk[k : k + 1]))
            assert np.array_equal(direct.monthly, via_rng.monthly)


class TestBlockTransitions:
    def _block(self, credits, schedule, u):
        n = len(credits)
        return _simulate_block_realisation(
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
        monthly = self._block([2.0, 2.0], TransitionSchedule.none(), u)
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
        out = run_plan(pop, plan, seed=21)
        for i in pop.independent_ids[:5]:
            for k in range(3):
                path = simulate_independent(pop.account(i), seed=21, realisation=k)
                assert out.totals[i][k] == pytest.approx(path.total, abs=1e-9)

    def test_block_totals_consistent(self):
        pop = init_population(300, (1.0,), seed=8)
        dep = pop.portfolios[0].dependent_ids
        assert len(dep) >= 2
        out = run_plan(pop, RealisationPlan.equal(300, 4), seed=2)
        blk = out.block_totals[0]
        assert blk.shape == (4,)
        per_account = np.stack([out.totals[i] for i in dep])
        assert blk == pytest.approx(per_account.sum(axis=0), abs=1e-9)

    def test_bitwise_identical_across_workers(self):
        pop = init_population(120, (0.8, 0.2), seed=10)
        plan = RealisationPlan.equal(120, 5)
        o1 = run_plan(pop, plan, seed=3, n_workers=1, store_monthly=True)
        o8 = run_plan(pop, plan, seed=3, n_workers=8, store_monthly=True)
        assert all(np.array_equal(a, b) for a, b in zip(o1.totals, o8.totals))
        assert np.array_equal(o1.monthly_sum, o8.monthly_sum)

    def test_common_random_number_prefix(self):
        pop = init_population(60, (1.0,), seed=10)
        small = run_plan(pop, RealisationPlan.equal(60, 3), seed=3)
        large = run_plan(pop, RealisationPlan.equal(60, 5), seed=3)
        for i in pop.independent_ids:
            assert np.array_equal(small.totals[i], large.totals[i][:3])
        for j, blk in small.block_totals.items():
            assert np.array_equal(blk, large.block_totals[j][:3])

    def test_monthly_stats_match_totals(self):
        pop = init_population(40, (1.0,), seed=5)
        plan = RealisationPlan.equal(40, 6)
        out = run_plan(pop, plan, seed=9, store_monthly=True)
        for i in range(40):
            assert out.monthly_sum[i].sum() == pytest.approx(out.totals[i].sum(), abs=1e-6)


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
        for pos, i in enumerate(indep):
            sl = slice(starts[pos], starts[pos + 1])
            assert np.array_equal(out.totals[i], totals[sl])
            # summation order may differ from the per-account loop
            np.testing.assert_allclose(out.monthly_sum[i], monthly[sl].sum(axis=0), rtol=1e-12, atol=1e-9)
            np.testing.assert_allclose(
                out.monthly_sumsq[i], (monthly[sl] ** 2).sum(axis=0), rtol=1e-12, atol=1e-9
            )
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
                assert np.array_equal(out.totals[i], ref[:, pos])

    def test_bitwise_identical_across_workers(self, multi_chunk):
        pop, plan, out = multi_chunk
        for workers in (2, 8):
            other = run_plan(pop, plan, seed=4, store_monthly=True, n_workers=workers)
            assert np.array_equal(other.values, out.values)
            assert np.array_equal(other.offsets, out.offsets)
            assert np.array_equal(other.monthly_sum, out.monthly_sum)
            assert np.array_equal(other.monthly_sumsq, out.monthly_sumsq)
            for j, blk in out.block_totals.items():
                assert np.array_equal(other.block_totals[j], blk)
                assert np.array_equal(other.block_monthly[j], out.block_monthly[j])

    def test_common_random_number_prefix(self, multi_chunk):
        pop, plan, out = multi_chunk
        extra = np.random.default_rng(2).integers(0, 6, pop.n)
        larger = run_plan(pop, _multi_chunk_plan(pop, seed=1, extra=extra), seed=4, n_workers=2)
        for i in range(pop.n):
            assert np.array_equal(out.totals[i], larger.totals[i][: len(out.totals[i])])
        for j, blk in out.block_totals.items():
            assert np.array_equal(blk, larger.block_totals[j][: len(blk)])

    def test_summary_json_matches_per_account_statistics(self, multi_chunk, tmp_path):
        pop, plan, out = multi_chunk
        path = tmp_path / "summary.json"
        out.summary_json(path)
        rows = json.loads(path.read_text())
        assert [r["account_id"] for r in rows] == list(range(pop.n))
        for rec, tot in zip(rows, out.totals):
            assert rec["mean"] == pytest.approx(np.mean(tot), rel=1e-9)
            assert ("variance" in rec) == (len(tot) >= 2)
            if len(tot) >= 2:
                assert rec["variance"] == pytest.approx(np.var(tot, ddof=1), rel=1e-9)
            assert ("kurtosis" in rec) == (len(tot) >= 4 and np.var(tot) > 0)
            if "kurtosis" in rec:
                assert rec["kurtosis"] == sample_moments(tot).kurtosis

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
            assert np.array_equal(_simulate_block_realisation(*args, u), _reference_block(*args, u))
        # stacked realisations: each row of the batch is ranked and simulated on its own
        for r in (1, 2, 7):
            u = g.random((r, HORIZON, n))
            monthly = _simulate_block_realisation(*args, u)
            assert monthly.shape == (r, n, HORIZON)
            for k in range(r):
                assert np.array_equal(monthly[k], _reference_block(*args, u[k]))


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
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        with pytest.raises(NoPool):
            run_plan(pop, plan, seed=4, n_workers=10_000)
        two_chunks = init_population(200, (1.0,), seed=2)
        with pytest.raises(NoPool):
            run_plan(two_chunks, RealisationPlan.equal(200, 25), seed=4, n_workers=10_000)
        assert sizes == [3, 2]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="with one CPU the chunks run in this process")
    def test_no_worker_outlives_the_call(self, multi_chunk):
        pop, plan, out = multi_chunk
        other = run_plan(pop, plan, seed=4, n_workers=2)
        assert multiprocessing.active_children() == []
        assert np.array_equal(other.values, out.values)

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
        for name in ("values", "offsets", "monthly_sum", "monthly_sumsq"):
            assert np.array_equal(getattr(one, name), getattr(two, name)), name
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
        small = run_plan(pop, plan, seed=seed)
        large = run_plan(pop, RealisationPlan(counts=plan.counts + extra), seed=seed, n_workers=2)
        for i in range(pop.n):
            assert np.array_equal(small.totals[i], large.totals[i][: len(small.totals[i])])
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
        for pos, i in enumerate(dep):
            assert np.array_equal(out.totals[i], acc_tot[:, pos])
        assert np.array_equal(out.block_monthly[0], np.stack([m.sum(axis=0) for m in ref]))
        monthly_sum = np.zeros((len(dep), HORIZON))
        for m in ref:
            monthly_sum += m
        assert np.array_equal(out.monthly_sum[dep], monthly_sum)

    def test_pilot_variance_matches_per_realisation_oracle(self, pop):
        dep = pop.portfolios[0].dependent_ids
        n_pilot = 2 * _CHUNK_PATHS // len(dep) + 3
        ref = _reference_block_runs(pop, dep, stream(9, "pilot", 0), n_pilot)
        expected = float(np.array([m.sum() for m in ref]).var(ddof=1))
        assert pilot_block_variance(pop, 0, DEFAULT_SCHEDULE, n_pilot=n_pilot, seed=9) == expected
