"""Analysis toolkit: verification, statistics, fitting."""

import math

import pytest

from repro.analysis import (
    Summary,
    assert_unique_leader,
    doubling_ratios,
    election_outcome,
    is_valid_election,
    leaders_agree,
    power_law_fit,
    ratio_band,
    run_trials,
)
from repro.core import LeastElementElection
from repro.graphs import ring
from repro.sim import ElectionFailure
from tests.conftest import run_election


class TestVerify:
    def test_valid_election(self):
        result = run_election(ring(8), LeastElementElection,
                              knowledge_keys=("n",))
        assert is_valid_election(result)
        assert assert_unique_leader(result) == result.elected_indices[0]
        assert leaders_agree(result)
        outcome = election_outcome(result)
        assert outcome == {"elected": 1, "non_elected": 7, "undecided": 0}

    def test_invalid_raises(self):
        from repro.sim import NodeProcess

        class Nothing(NodeProcess):
            pass

        result = run_election(ring(5), Nothing)
        assert not is_valid_election(result)
        with pytest.raises(ElectionFailure):
            assert_unique_leader(result, "nothing")


class TestStats:
    def test_summary(self):
        s = Summary.of([1, 2, 3, 4])
        assert s.mean == 2.5 and s.median == 2.5
        assert s.minimum == 1 and s.maximum == 4

    def test_run_trials(self):
        stats = run_trials(ring(10), LeastElementElection, trials=5,
                           knowledge_keys=("n",))
        assert stats.trials == 5
        assert stats.success_rate == 1.0
        assert stats.messages.mean > 0
        assert stats.rounds.maximum <= 3 * 5 + 8

    def test_keep_results(self):
        stats = run_trials(ring(6), LeastElementElection, trials=2,
                           knowledge_keys=("n",), keep_results=True)
        assert len(stats.results) == 2

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials >= 1"):
            run_trials(ring(6), LeastElementElection, trials=0)
        with pytest.raises(ValueError, match="trials >= 1"):
            run_trials(ring(6), LeastElementElection, trials=-3)


class TestTrialSeedDerivation:
    """Regression: the affine seed maps (seed*7919+t / seed*104729+t)
    both collapsed to plain ``t`` at the default ``seed=0``, so network
    randomness (ID assignment, port shuffles) and simulator randomness
    (node coins, wakeup) came from *identical* streams."""

    def test_network_and_sim_streams_differ_at_seed_zero(self):
        from repro.analysis.stats import _trial_seed

        for t in range(5):
            net = _trial_seed(0, "network", t)
            sim = _trial_seed(0, "sim", t)
            assert net != sim
            assert net != t and sim != t  # the old collapsed values

    def test_streams_do_not_overlap_across_base_seeds(self):
        from repro.analysis.stats import _trial_seed

        seen = {_trial_seed(base, stream, t)
                for base in range(4) for stream in ("network", "sim")
                for t in range(8)}
        assert len(seen) == 4 * 2 * 8  # affine maps collide here

    def test_run_trials_still_deterministic(self):
        a = run_trials(ring(8), LeastElementElection, trials=3,
                       knowledge_keys=("n",))
        b = run_trials(ring(8), LeastElementElection, trials=3,
                       knowledge_keys=("n",))
        assert a.messages == b.messages
        assert a.rounds == b.rounds
        assert a.successes == b.successes


class TestFitting:
    def test_power_law_recovers_exponent(self):
        xs = [10, 20, 40, 80, 160]
        ys = [3 * x ** 1.5 for x in xs]
        fit = power_law_fit(xs, ys)
        assert fit.exponent == pytest.approx(1.5, abs=0.01)
        assert fit.coefficient == pytest.approx(3, rel=0.05)
        assert fit.r_squared > 0.999
        assert fit.predict(100) == pytest.approx(3 * 100 ** 1.5, rel=0.05)

    def test_power_law_with_noise(self):
        import random

        rng = random.Random(1)
        xs = [2 ** i for i in range(4, 12)]
        ys = [x * rng.uniform(0.8, 1.2) for x in xs]
        fit = power_law_fit(xs, ys)
        assert 0.9 < fit.exponent < 1.1

    def test_power_law_validation(self):
        with pytest.raises(ValueError):
            power_law_fit([1], [1])
        with pytest.raises(ValueError):
            power_law_fit([1, 2], [0, 1])
        with pytest.raises(ValueError):
            power_law_fit([2, 2], [1, 2])

    def test_ratio_band(self):
        band = ratio_band([10, 20, 40], [21, 40, 84])
        assert band.min_ratio == pytest.approx(2.0)
        assert band.max_ratio == pytest.approx(2.1)
        assert band.spread < 1.1

    def test_doubling_ratios(self):
        assert doubling_ratios([1, 2, 4]) == [2.0, 2.0]


class TestFittingEdgeCases:
    """Degenerate series the claim-report checks must survive."""

    def test_single_point_fit_rejected(self):
        with pytest.raises(ValueError, match="at least two points"):
            power_law_fit([7], [3])

    def test_zero_and_negative_ys_rejected(self):
        with pytest.raises(ValueError, match="positive data"):
            power_law_fit([1, 2, 4], [3, 0, 12])
        with pytest.raises(ValueError, match="positive data"):
            power_law_fit([1, 2, 4], [3, -1, 12])
        with pytest.raises(ValueError, match="positive data"):
            power_law_fit([1, -2, 4], [3, 6, 12])

    def test_equal_xs_rejected(self):
        with pytest.raises(ValueError, match="all equal"):
            power_law_fit([5, 5, 5], [1, 2, 3])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            power_law_fit([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            ratio_band([1, 2], [1, 2, 3])

    def test_constant_series_fit(self):
        # A perfectly flat series is a legal power law with exponent 0.
        fit = power_law_fit([1, 2, 4, 8], [5, 5, 5, 5])
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_constant_series_doubling_ratios(self):
        assert doubling_ratios([3, 3, 3, 3]) == [1.0, 1.0, 1.0]

    def test_doubling_ratios_skip_nonpositive_anchors(self):
        # A zero (or negative) anchor point contributes no ratio rather
        # than dividing by zero.
        assert doubling_ratios([0, 5, 10]) == [2.0]
        assert doubling_ratios([0, 0]) == []
        assert doubling_ratios([4]) == []

    def test_ratio_band_empty_and_nonpositive(self):
        with pytest.raises(ValueError, match="non-empty"):
            ratio_band([], [])
        with pytest.raises(ValueError, match="no positive x"):
            ratio_band([0, 0], [1, 2])
        band = ratio_band([0, 2], [9, 4])  # zero-x point is dropped
        assert band.min_ratio == band.max_ratio == pytest.approx(2.0)

    def test_ratio_band_spread_with_zero_min(self):
        band = ratio_band([1, 2], [0, 4])
        assert band.min_ratio == 0.0
        assert band.spread == math.inf



class TestTable1:
    def test_reproduces_all_rows(self, tmp_path):
        from repro.report import run_report, summary_table

        report = run_report(grid="smoke", seed=0,
                            cache_dir=str(tmp_path / "cache"))
        text = summary_table(report, markdown=False)
        for token in ["Thm 3.1", "Thm 3.13", "Thm 4.4", "Thm 4.4(A)",
                      "Thm 4.4(B)", "Cor 4.2", "Cor 4.5", "Cor 4.6",
                      "Thm 4.7", "Thm 4.10", "Thm 4.1", "Sublinear"]:
            assert token in text
        assert "Measured" in text and "Verdict" in text
