import math

import numpy as np
import pytest

from volfpl import (
    RngSpec,
    as_generator,
    expected_max_bound,
    inverse_exponential_cdf,
    max_tail_bound,
    sample_exponential,
    sample_exponential_array,
)


class TestInverseCdf:
    def test_endpoints(self):
        assert inverse_exponential_cdf(0.0) == 0.0
        assert inverse_exponential_cdf(0.5) == pytest.approx(math.log(2))

    def test_quantiles(self):
        u = np.array([0.1, 0.9, 0.99])
        x = inverse_exponential_cdf(u)
        assert np.allclose(1 - np.exp(-x), u, rtol=1e-12)

    def test_near_one_stable(self):
        # log1p formulation keeps precision for u close to 1; 1 - 2^-30 is
        # exactly representable, so the quantile is exactly 30 ln 2
        x = inverse_exponential_cdf(1 - 2.0 ** -30)
        assert x == pytest.approx(30 * math.log(2), rel=1e-12)


class TestSampling:
    def test_reproducible(self):
        a = sample_exponential(100, RngSpec(7).generator())
        b = sample_exponential(100, RngSpec(7).generator())
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = sample_exponential(100, RngSpec(7, 0).generator())
        b = sample_exponential(100, RngSpec(7, 1).generator())
        assert not np.array_equal(a, b)

    def test_matches_inverse_cdf(self):
        # sampling must be exactly inverse-CDF over the raw uniform stream
        u = RngSpec(3).generator().random(50)
        x = sample_exponential(50, RngSpec(3).generator())
        assert np.array_equal(x, inverse_exponential_cdf(u))

    @pytest.mark.parametrize("shape", [17, (4, 6), (3, 50, 7), (5, 1, 2)])
    def test_array_matches_inverse_cdf(self, shape):
        # the in-place sampler must give the doubles of the plain formula
        x = sample_exponential_array(shape, RngSpec(8).generator())
        ref = inverse_exponential_cdf(RngSpec(8).generator().random(shape))
        assert x.shape == ref.shape and x.tobytes() == ref.tobytes()

    def test_array_shape(self):
        x = sample_exponential_array((4, 6), RngSpec(0).generator())
        assert x.shape == (4, 6)
        assert np.all(x >= 0)

    def test_mean_and_variance(self):
        x = sample_exponential(200_000, RngSpec(42).generator())
        assert np.mean(x) == pytest.approx(1.0, abs=0.01)
        assert np.var(x) == pytest.approx(1.0, abs=0.02)

    def test_as_generator_accepts_int_and_spec(self):
        a = sample_exponential(10, as_generator(5))
        b = sample_exponential(10, as_generator(RngSpec(5)))
        assert np.array_equal(a, b)


class TestMaxBounds:
    def test_tail_bound_formula(self):
        assert max_tail_bound(10, 3.0) == pytest.approx(10 * math.exp(-3))

    def test_tail_bound_empirical(self):
        # P{max of N exponentials > a} <= N e^{-a}
        gen = RngSpec(9).generator()
        n, trials, a = 5, 200_000, 2.5
        x = sample_exponential_array((trials, n), gen)
        p_hat = np.mean(np.max(x, axis=1) > a)
        assert p_hat <= max_tail_bound(n, a) + 3 * math.sqrt(p_hat * (1 - p_hat) / trials)

    def test_expected_max_bound_formula(self):
        assert expected_max_bound(1) == 1.0
        assert expected_max_bound(10) == pytest.approx(1 + math.log(10))

    def test_expected_max_vs_harmonic(self):
        # E max of N iid Exp(1) equals the harmonic number H_N
        gen = RngSpec(17).generator()
        for n in (2, 10):
            trials = 400_000
            x = sample_exponential_array((trials, n), gen)
            m = np.max(x, axis=1)
            h_n = sum(1.0 / k for k in range(1, n + 1))
            se = np.std(m) / math.sqrt(trials)
            assert abs(np.mean(m) - h_n) <= 3 * se
            assert h_n <= expected_max_bound(n)
