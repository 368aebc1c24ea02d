import math

import numpy as np
import pytest

from blockmdm.decode import pick_reveal, schedule_step
from blockmdm.errors import ParameterError
from plain_ops import row_entropy, softmax


def schedule_counts(R: int, K: int) -> list:
    """The full reveal plan ``[n_1, ..., n_K]`` starting from ``R`` masked."""
    counts = []
    remaining = R
    for j in range(1, K + 1):
        n = schedule_step(remaining, j, K)
        counts.append(n)
        remaining -= n
    return counts


def confidence(logits_row) -> float:
    """Maximum softmax probability of one logits row."""
    return float(softmax(np.asarray(logits_row, dtype=np.float64)).max())


class TestScheduleStep:
    def test_even_division(self):
        assert schedule_counts(16, 4) == [4, 4, 4, 4]

    def test_uneven_front_loads(self):
        assert schedule_counts(5, 4) == [2, 1, 1, 1]

    def test_exhausts_early_then_zero(self):
        assert schedule_counts(3, 8) == [1, 1, 1, 0, 0, 0, 0, 0]

    def test_zero_iff_nothing_remaining(self):
        assert schedule_step(0, 3, 8) == 0
        assert schedule_step(1, 8, 8) == 1

    def test_step_index_validation(self):
        with pytest.raises(ParameterError):
            schedule_step(4, 5, 4)
        with pytest.raises(ParameterError):
            schedule_step(4, 0, 4)
        with pytest.raises(ParameterError):
            schedule_step(-1, 1, 4)

    def test_exhaustive_oracle(self):
        # every (R, K) plan reveals exactly R positions within K steps and
        # allocates zero exactly when nothing remains
        for K in range(1, 33):
            for R in range(0, 1025):
                remaining = R
                for j in range(1, K + 1):
                    n = schedule_step(remaining, j, K)
                    assert (n == 0) == (remaining == 0)
                    assert n <= max(remaining, 0)
                    remaining -= n
                assert remaining == 0, (R, K)


class TestConfidence:
    def test_uniform(self):
        assert abs(confidence([0.0, 0.0, 0.0, 0.0]) - 0.25) < 1e-12

    def test_saturated(self):
        # exact value is e^10 / (e^10 + 3) = 0.9998638...
        expected = math.exp(10.0) / (math.exp(10.0) + 3.0)
        assert abs(confidence([10.0, 0.0, 0.0, 0.0]) - expected) < 1e-12
        assert confidence([10.0, 0.0, 0.0, 0.0]) > 0.9998

    def test_scalar_oracle(self):
        exps = [math.exp(v) for v in (2.0, 0.0, 0.0)]
        assert abs(confidence([2.0, 0.0, 0.0]) - max(exps) / sum(exps)) < 1e-12
        assert abs(confidence([2.0, 0.0, 0.0]) - 0.78699) < 1e-5


class TestEntropy:
    def test_uniform_is_log_v(self):
        assert abs(row_entropy(np.zeros(7)) - math.log(7)) < 1e-12

    def test_saturated_near_zero(self):
        assert row_entropy([100.0, 0.0, 0.0]) < 1e-12


class TestPickReveal:
    def test_highest_confidence_first(self):
        got = pick_reveal(np.array([3, 7, 9]), np.array([0.2, 0.9, 0.5]), 2)
        np.testing.assert_array_equal(np.sort(got), [7, 9])

    def test_ties_broken_by_lowest_index(self):
        got = pick_reveal(np.array([5, 2, 8]), np.array([0.5, 0.5, 0.5]), 2)
        np.testing.assert_array_equal(np.sort(got), [2, 5])

    def test_n_zero(self):
        assert pick_reveal(np.array([1, 2]), np.array([0.1, 0.2]), 0).size == 0
