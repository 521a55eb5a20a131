"""Theorem 4.7 / Algorithm 1: the clustering election."""

import math
import statistics

from repro.analysis import run_trials
from repro.core import ClusteringElection, candidate_probability
from repro.graphs import erdos_renyi, grid, ring
from tests.conftest import run_election


class TestCorrectness:
    def test_elects_on_zoo(self, zoo_topology):
        result = run_election(zoo_topology, ClusteringElection,
                              knowledge_keys=("n",))
        ncand = sum(1 for o in result.outputs if o.get("candidate"))
        # Zero candidates is the (rare, allowed) failure mode.
        assert result.has_unique_leader or ncand == 0

    def test_success_rate_whp(self):
        t = erdos_renyi(40, 0.15, seed=2)
        ok = 0
        for seed in range(20):
            result = run_election(t, ClusteringElection, seed=seed,
                                  knowledge_keys=("n",))
            ok += result.has_unique_leader
        assert ok >= 19

    def test_candidate_probability_formula(self):
        assert candidate_probability(100) == 8 * math.log(100) / 100
        assert candidate_probability(2) == 1.0  # capped


class TestPhases:
    def test_overlay_is_sparse(self):
        # After sparsification the election runs on O(n + log^2 n) edges
        # (with ~8 ln n clusters the log^2 term has a visible constant at
        # this scale, so test against a dense graph).
        t = erdos_renyi(80, target_edges=int(80 ** 1.7), seed=1)
        result = run_election(t, ClusteringElection, knowledge_keys=("n",))
        overlay_edges = sum(o["overlay_degree"] for o in result.outputs) / 2
        assert overlay_edges < t.num_edges / 2
        assert overlay_edges >= t.num_nodes - 1  # still spanning
        ncand = sum(1 for o in result.outputs if o.get("candidate"))
        assert overlay_edges <= t.num_nodes + ncand * ncand

    def test_messages_beat_least_element_on_dense_graphs(self):
        from repro.core import LeastElementElection

        t = erdos_renyi(80, target_edges=int(80 ** 1.7), seed=5)
        plain = statistics.fmean(
            run_election(t, LeastElementElection, seed=s,
                         knowledge_keys=("n",)).messages for s in range(3))
        clustered = statistics.fmean(
            run_election(t, ClusteringElection, seed=s,
                         knowledge_keys=("n",)).messages for s in range(3))
        assert clustered < plain

    def test_message_budget_m_plus_nlogn(self):
        # O(m + n log n) with a moderate constant.
        t = erdos_renyi(60, 0.25, seed=3)
        msgs = [run_election(t, ClusteringElection, seed=s,
                             knowledge_keys=("n",)).messages
                for s in range(4)]
        budget = t.num_edges + t.num_nodes * math.log2(t.num_nodes)
        assert statistics.fmean(msgs) <= 12 * budget

    def test_time_budget_d_log_n(self):
        t = grid(7, 7)
        result = run_election(t, ClusteringElection, knowledge_keys=("n",))
        budget = t.diameter() * math.log2(t.num_nodes)
        assert result.rounds <= 8 * budget + 30


class TestCustomRate:
    def test_rate_parameter_controls_candidates(self):
        t = erdos_renyi(60, 0.2, seed=7)
        always = run_election(t, lambda: ClusteringElection(rate=lambda n: 1.0),
                              knowledge_keys=("n",))
        assert all(o.get("candidate") for o in always.outputs)
        assert always.has_unique_leader

    def test_zero_rate_fails_silently(self):
        t = ring(10)
        result = run_election(t, lambda: ClusteringElection(rate=lambda n: 0.0),
                              knowledge_keys=("n",))
        assert result.num_leaders == 0
        assert result.messages == 0

    def test_paper_rate_succeeds_and_oversampling_inflates_overlay(self):
        # Ablation of Theorem 4.7's 8·ln n / n: the paper's multiplier
        # always elects, and 4x the candidates densifies the overlay.
        t = erdos_renyi(64, target_edges=int(64 ** 1.6), seed=113)

        def sweep(c):
            def rate(n):
                return min(1.0, c * math.log(n) / n)

            return run_trials(t, lambda: ClusteringElection(rate=rate),
                              trials=6, seed=127, knowledge_keys=("n",),
                              keep_results=True)

        def mean_overlay_edges(stats):
            return statistics.fmean(
                sum(o["overlay_degree"] for o in r.outputs) / 2
                for r in stats.results)

        paper, oversampled = sweep(8), sweep(32)
        assert paper.success_rate == 1.0
        assert mean_overlay_edges(oversampled) > mean_overlay_edges(paper)


class TestAgreement:
    def test_everyone_learns_same_leader(self):
        result = run_election(ring(20), ClusteringElection,
                              knowledge_keys=("n",))
        leaders = {o.get("leader_uid") for o in result.outputs}
        assert len(leaders) == 1
