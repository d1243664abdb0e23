import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queryshift.errors import InvalidSpecError, ZeroVectorError
from queryshift.vectors import l2_normalize_rows, shannon_entropy, softmax_temp


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize_rows([[3.0, 4.0]]), [[0.6, 0.8]], atol=1e-12)

    def test_already_unit(self):
        np.testing.assert_allclose(l2_normalize_rows([[1.0, 0.0, 0.0]]), [[1.0, 0.0, 0.0]])

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            l2_normalize_rows([[1.0, 0.0], [0.0, 0.0]])

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, values):
        v = np.array([values])
        if np.linalg.norm(v) <= 1e-6:
            return
        once = l2_normalize_rows(v)
        np.testing.assert_allclose(l2_normalize_rows(once), once, atol=1e-9)


class TestSoftmaxTemp:
    def test_equal_scores_uniform(self):
        for tau in (0.02, 1.0, 17.3):
            np.testing.assert_allclose(softmax_temp([2.5, 2.5], tau), [0.5, 0.5])

    def test_unit_temperature_closed_form(self):
        # Scalar oracle: p = e / (e + 1) evaluated directly.
        expected = math.exp(1.0) / (math.exp(1.0) + 1.0)
        got = softmax_temp([1.0, 0.0], 1.0)
        np.testing.assert_allclose(got, [expected, 1.0 - expected], rtol=1e-12)

    def test_low_temperature_underflow_regime(self):
        # Scalar oracle at tau=0.02: the loser gets exp(-50) / (1 + exp(-50)).
        tail = math.exp(-50.0) / (1.0 + math.exp(-50.0))
        got = softmax_temp([1.0, 0.0], 0.02)
        assert got[0] == pytest.approx(1.0, abs=1e-15)
        assert got[1] == pytest.approx(tail, rel=1e-9)

    def test_non_positive_temperature(self):
        for tau in (0.0, -1.0):
            with pytest.raises(InvalidSpecError):
                softmax_temp([1.0, 0.0], tau)

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=32),
        st.floats(1e-6, 1e3, exclude_min=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_sums_to_one(self, scores, tau):
        p = softmax_temp(scores, tau)
        assert abs(p.sum() - 1.0) < 1e-6
        assert np.all(p >= 0)

    def test_shift_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = rng.normal(size=12) * 5
            c = rng.normal() * 10
            np.testing.assert_allclose(
                softmax_temp(s, 0.7), softmax_temp(s + c, 0.7), atol=1e-9
            )


class TestShannonEntropy:
    def test_deterministic_is_zero(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_fair_coin(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_uniform_four(self):
        assert shannon_entropy([0.25] * 4) == pytest.approx(math.log(4.0), abs=1e-12)
        rows = shannon_entropy([[0.25] * 4, [1.0, 0.0, 0.0, 0.0]])
        np.testing.assert_allclose(rows, [math.log(4.0), 0.0], atol=1e-12)

    def test_uniform_is_maximal_one_hot_minimal(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = int(rng.integers(2, 65))
            p = rng.dirichlet(np.ones(m))
            h = shannon_entropy(p)
            assert h <= math.log(m) + 1e-9
            one_hot = np.zeros(m)
            one_hot[0] = 1.0
            assert shannon_entropy(one_hot) == 0.0
            assert h >= 0.0
