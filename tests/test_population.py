"""Population initialization and covariate transforms.

The frozen constants below were computed independently with math.erf-based
normal CDFs (see the inline formulas); they pin the truncated-normal balance
transform and the credit-score mixture CDF.
"""

import math

import numpy as np
import pytest

from collsim.population import (
    DEFAULT_CREDIT_MIXTURE,
    Account,
    CreditMixture,
    Population,
    balance_cdf,
    balance_cdf_inv,
    credit_cdf,
    credit_cdf_inv,
    init_population,
)

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
        samples = DEFAULT_CREDIT_MIXTURE.sample(u[:, 0], np.clip(u[:, 1], 1e-12, 1 - 1e-12))
        assert samples.mean() == pytest.approx(-2.85, abs=0.02)

    def test_final_component_variance_configurable(self):
        wide = CreditMixture(variances=(1.0, 1.0, 1.0, 1.0))
        # a wider final component moves mass below -5
        assert wide.cdf(-6.0) > DEFAULT_CREDIT_MIXTURE.cdf(-6.0)

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            CreditMixture(weights=(0.5, 0.5, 0.5, 0.5))


class TestAccount:
    def test_segment_validated(self):
        with pytest.raises(ValueError):
            Account(id=0, balance=1000.0, credit_score=0.0, segment=4, eligible=False, paid_last_month=False)


class TestInitPopulation:
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

    def test_manifest(self, tmp_path):
        import json

        pop = init_population(10, (1.0,), seed=1)
        path = tmp_path / "manifest.json"
        pop.write_manifest(path)
        doc = json.loads(path.read_text())
        assert doc["n"] == 10
        assert doc["seed"] == 1
        assert doc["segment_probs"] == [0.2, 0.2, 0.6]
