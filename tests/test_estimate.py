"""Tests for cardinality estimation (repro.query.estimate)."""

import pytest

from repro.query.estimate import JoinEstimate, estimate_join, true_join_size
from tests.conftest import entry


class TestTrueJoinSize:
    def test_matches_oracle(self, dept_data):
        from repro.core.api import oracle_join

        expected = len(oracle_join(dept_data.ancestors,
                                   dept_data.descendants))
        assert true_join_size(dept_data.ancestors,
                              dept_data.descendants) == expected

    def test_parent_child(self, dept_data):
        from repro.core.api import oracle_join

        expected = len(oracle_join(dept_data.ancestors,
                                   dept_data.descendants,
                                   parent_child=True))
        assert true_join_size(dept_data.ancestors, dept_data.descendants,
                              parent_child=True) == expected


class TestEstimateJoin:
    def test_empty_inputs(self):
        assert estimate_join([], [entry(1, 2)]) == JoinEstimate(0, 0)
        assert estimate_join([entry(1, 9)], []) == JoinEstimate(0, 0)

    def test_full_sample_is_exact(self, dept_data):
        # With the sample covering every descendant, the pair estimate is
        # exact and the fractions are the true fractions.
        estimate = estimate_join(dept_data.ancestors, dept_data.descendants,
                                 sample_size=10 ** 9)
        assert estimate.pairs == pytest.approx(true_join_size(
            dept_data.ancestors, dept_data.descendants))

    def test_sampled_estimate_within_tolerance(self, dept_data):
        truth = true_join_size(dept_data.ancestors, dept_data.descendants)
        estimate = estimate_join(dept_data.ancestors, dept_data.descendants,
                                 sample_size=200)
        assert estimate.pairs == pytest.approx(truth, rel=0.35)
        assert 0.0 <= estimate.descendant_fraction <= 1.0

    def test_disjoint_sets_estimate_zero(self):
        ancestors = [entry(i * 10, i * 10 + 4) for i in range(1, 50)]
        descendants = [entry(i * 10 + 6, i * 10 + 7) for i in range(1, 50)]
        estimate = estimate_join(ancestors, descendants)
        assert estimate.pairs == 0.0
        assert estimate.descendant_fraction == 0.0

    def test_parent_child_estimate_smaller(self, dept_data):
        ad = estimate_join(dept_data.ancestors, dept_data.descendants,
                           sample_size=10 ** 9)
        pc = estimate_join(dept_data.ancestors, dept_data.descendants,
                           sample_size=10 ** 9, parent_child=True)
        assert pc.pairs <= ad.pairs

