"""Population initialization and covariate transforms.

The frozen constants below were computed independently with math.erf-based
normal CDFs (see the inline formulas); they pin the truncated-normal balance
transform and the credit-score mixture CDF.
"""

import csv
import io
import math
import tracemalloc

import numpy as np
import pytest

import collsim.population as population
from collsim._special import ndtri
from collsim.population import (
    Population,
    balance_cdf,
    balance_cdf_inv,
    credit_cdf,
    credit_cdf_inv,
    init_population,
)
from collsim.rng import stream

# (Phi((x-2500)/1000) - Phi(-2)) / (Phi(7.5) - Phi(-2)), Phi via math.erf
BALANCE_CDF_FROZEN = {
    500.0: 0.0,
    1000.0: 0.045082706850,
    2500.0: 0.488360125342,
    5000.0: 0.993645775222,
}

# sum_k w_k Phi((x - m_k)/s_k) for the default 4-component mixture
CREDIT_CDF_FROZEN = {
    -5.0: 0.300006334396,
    -1.0: 0.703412534125,
    0.0: 0.792068820866,
    1.0: 0.870517468512,
    4.0: 0.974797457965,
}


class TestBalanceTransform:
    def test_frozen_values(self):
        for x, expected in BALANCE_CDF_FROZEN.items():
            assert balance_cdf(x) == pytest.approx(expected, abs=1e-10)

    def test_endpoints(self):
        assert balance_cdf(500.0) == 0.0
        assert balance_cdf(10000.0) == 1.0

    def test_round_trip(self):
        u = np.linspace(0.001, 0.999, 57)
        assert balance_cdf(balance_cdf_inv(u)) == pytest.approx(u, abs=1e-12)

    def test_out_of_support_raises(self):
        with pytest.raises(ValueError):
            balance_cdf(499.0)
        with pytest.raises(ValueError):
            balance_cdf_inv(0.0)
        with pytest.raises(ValueError):
            balance_cdf_inv(1.0)

    def test_monotone(self):
        b = np.linspace(500.0, 10000.0, 200)
        assert np.all(np.diff(balance_cdf(b)) > 0)


class TestCreditMixture:
    def test_frozen_cdf_values(self):
        for x, expected in CREDIT_CDF_FROZEN.items():
            assert credit_cdf(x) == pytest.approx(expected, abs=1e-10)

    def test_inverse_round_trip(self):
        for u in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            assert credit_cdf(credit_cdf_inv(u)) == pytest.approx(u, abs=1e-10)

    def test_mixture_mean(self):
        # 0.15*1 + 0.05*4 + 0.2*(-1) + 0.6*(-5) = -2.85
        g = np.random.Generator(np.random.Philox(key=123))
        u = g.random((200000, 2))
        samples = _credit_scores(u[:, 0], np.clip(u[:, 1], 1e-12, 1 - 1e-12))
        assert samples.mean() == pytest.approx(-2.85, abs=0.02)

    def test_final_component_has_variance_0_1(self):
        # N(-5, sqrt(0.1)) read as variance 0.1: one sd below -5 holds 0.6 Phi(-1) of the mass
        x = -5.0 - math.sqrt(0.1)
        sds = (1.0, 1.0, 1.0, math.sqrt(0.1))
        expected = sum(
            w * 0.5 * (1.0 + math.erf((x - m) / (s * math.sqrt(2.0))))
            for w, m, s in zip((0.15, 0.05, 0.2, 0.6), (1.0, 4.0, -1.0, -5.0), sds)
        )
        assert credit_cdf(x) == pytest.approx(expected, abs=1e-12)
        assert credit_cdf(x) == pytest.approx(0.6 * 0.158655253931, abs=1e-5)


def _credit_scores(u_comp, u_val):
    """The credit-score mixture's inverse-CDF draw: one uniform picks the component, one the value."""
    comp = np.minimum(np.searchsorted(np.cumsum(population.CREDIT_WEIGHTS), u_comp, side="right"), 3)
    return population.CREDIT_MEANS[comp] + population.CREDIT_SDS[comp] * ndtri(u_val)


def _per_account_population(n, portfolio_probs, seed):
    """init_population with each account's seven uniforms drawn from its own generator."""
    u = np.array([stream(seed, "population", i).random(7) for i in range(n)]).reshape(n, 7)
    probs = np.asarray(portfolio_probs, dtype=float)
    seg_edges = np.cumsum(population.SEGMENT_PROBS)
    return dict(
        paid_last_month=u[:, 0] < population.PROB_PAID_BEFORE_START,
        balance=balance_cdf_inv(np.clip(u[:, 1], 1e-15, 1 - 1e-15)),
        segment=np.minimum(np.searchsorted(seg_edges, u[:, 2], side="right"), 2) + 1,
        credit_score=_credit_scores(u[:, 3], np.clip(u[:, 4], 1e-15, 1 - 1e-15)),
        eligible=u[:, 5] < population.PROB_ELIGIBLE,
        portfolio=np.minimum(np.searchsorted(np.cumsum(probs), u[:, 6], side="right"), len(probs) - 1),
    )


def _marginal_peak_per_account(run, sizes=(20_000, 40_000)):
    """Bytes per account between the ``tracemalloc`` peaks of ``run(n)`` at two sizes."""
    peaks = []
    for n in sizes:
        tracemalloc.start()
        try:
            run(n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return (peaks[1] - peaks[0]) / (sizes[1] - sizes[0])


class TestInitPopulation:
    @pytest.mark.parametrize("n", [1, 7, 70_000])
    def test_equals_per_account_draws(self, n):
        # 70k accounts cross pieces, the last one partial
        assert n < population._PIECE or n % population._PIECE
        pop = init_population(n, (0.5, 0.3, 0.2), seed=17)
        ref = _per_account_population(n, (0.5, 0.3, 0.2), seed=17)
        for name, column in ref.items():
            assert np.array_equal(getattr(pop, name), column), name
            assert getattr(pop, name).dtype == column.dtype, name

    def test_marginal_peak_memory_per_account(self):
        # the population's own columns take 8 + 8 + 8 + 1 + 1 + 8 = 34 B per account and the
        # seven uniforms 56 B; whole-population temporaries of the keystream would add far more
        per_account = _marginal_peak_per_account(lambda n: init_population(n, (0.7, 0.3), seed=5))
        assert per_account <= 130, per_account

    def test_reproducible(self):
        a = init_population(50, (0.7, 0.3), seed=9)
        b = init_population(50, (0.7, 0.3), seed=9)
        assert np.array_equal(a.balance, b.balance)
        assert np.array_equal(a.credit_score, b.credit_score)
        assert np.array_equal(a.portfolio, b.portfolio)

    def test_account_streams_independent_of_n(self):
        # account i is identical whether 50 or 200 accounts are generated
        small = init_population(50, (1.0,), seed=4)
        large = init_population(200, (1.0,), seed=4)
        assert np.array_equal(small.balance, large.balance[:50])
        assert np.array_equal(small.credit_score, large.credit_score[:50])

    def test_marginals(self):
        pop = init_population(20000, (0.6, 0.4), seed=2)
        assert pop.paid_last_month.mean() == pytest.approx(0.2, abs=0.01)
        assert pop.eligible.mean() == pytest.approx(0.1, abs=0.01)
        seg_freq = [np.mean(pop.segment == s) for s in (1, 2, 3)]
        assert seg_freq == pytest.approx([0.2, 0.2, 0.6], abs=0.015)
        assert np.mean(pop.portfolio == 0) == pytest.approx(0.6, abs=0.015)
        assert pop.balance.min() >= 500.0 and pop.balance.max() <= 10000.0

    def test_dependent_block_definition(self):
        pop = init_population(500, (0.5, 0.5), seed=3)
        for pf in pop.portfolios:
            dep = pf.dependent_ids
            assert np.all(pop.segment[dep] == 3)
            assert np.all(pop.eligible[dep])
            for i in pf.independent_ids:
                assert not (pop.segment[i] == 3 and pop.eligible[i])

    def test_portfolios_partition(self):
        pop = init_population(300, (0.4, 0.35, 0.25), seed=6)
        all_ids = np.concatenate(
            [np.concatenate([p.dependent_ids, p.independent_ids]) for p in pop.portfolios]
        )
        assert sorted(all_ids) == list(range(300))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            init_population(0, (1.0,), seed=0)
        with pytest.raises(ValueError):
            init_population(10, (0.5, 0.4), seed=0)


class TestIO:
    def test_csv_round_trip(self, tmp_path):
        pop = init_population(40, (0.8, 0.2), seed=11)
        path = tmp_path / "pop.csv"
        pop.to_csv(path)
        back = Population.from_csv(path, n_portfolios=2)
        assert np.array_equal(pop.balance, back.balance)  # repr() round-trips floats exactly
        assert np.array_equal(pop.credit_score, back.credit_score)
        assert np.array_equal(pop.segment, back.segment)
        assert np.array_equal(pop.eligible, back.eligible)
        assert np.array_equal(pop.portfolio, back.portfolio)

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("segment", "4", "segment"),
            ("balance", "499.0", "balance"),
            ("balance", "10000.5", "balance"),
            ("portfolio", "2", "portfolio"),
            ("credit_score", "nan", "NaN"),
            ("eligible", "7", "eligible must be 0 or 1"),
            ("eligible", "-3", "eligible must be 0 or 1"),
            ("paid_last_month", "0.5", "paid_last_month must be 0 or 1"),
            ("paid_last_month", "2", "paid_last_month must be 0 or 1"),
        ],
    )
    def test_csv_rejects_bad_row(self, tmp_path, column, value, message):
        pop = init_population(10, (0.8, 0.2), seed=11)
        path = tmp_path / "pop.csv"
        pop.to_csv(path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        fields = lines[4].split(",")  # the fourth data row, account 3
        fields[header.index(column)] = value
        lines[4] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"line 5: .*{message}"):
            Population.from_csv(path, n_portfolios=2)

    def test_csv_written_in_pieces_equals_one_dump(self, tmp_path):
        n = 2 * population._PIECE + 123
        pop = init_population(n, (0.8, 0.2), seed=11)
        path = tmp_path / "pop.csv"
        pop.to_csv(path)
        ref = io.StringIO(newline="")
        w = csv.writer(ref)
        w.writerow(population._CSV_HEADER)
        ints = (c.astype(int).tolist() for c in (pop.segment, pop.eligible, pop.paid_last_month, pop.portfolio))
        w.writerows(zip(range(n), pop.balance.tolist(), pop.credit_score.tolist(), *ints))
        data = path.read_bytes()
        assert data.count(b"\r\n") == n + 1
        same = data == ref.getvalue().encode()
        assert same  # a bool, so a failure does not diff two long strings

    def test_csv_marginal_peak_memory_per_account(self, tmp_path):
        pops = {n: init_population(n, (0.8, 0.2), seed=11) for n in (20_000, 40_000)}
        per_account = _marginal_peak_per_account(lambda n: pops[n].to_csv(tmp_path / "pop.csv"))
        assert per_account < 10, per_account  # whole-column Python lists take about 100 B

    def test_manifest(self, tmp_path):
        import json

        pop = init_population(10, (1.0,), seed=1)
        path = tmp_path / "manifest.json"
        pop.write_manifest(path)
        doc = json.loads(path.read_text())
        assert doc["n"] == 10
        assert doc["seed"] == 1
        assert doc["segment_probs"] == [0.2, 0.2, 0.6]
