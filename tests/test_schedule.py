import math

import numpy as np
import pytest

from volfpl import (
    GammaSchedule,
    ScheduleError,
    ScheduleParams,
    alpha_t,
    choose_a,
    epsilon_t,
    fpl_ifpl_gap_bound,
    general_bound,
    ifpl_regret_bound,
    mu_t,
    mu_values,
    optimized_bound,
    poly_bound,
    regret_bound,
)


def params_power(a=10.0, n=2, delta=1.0, **kw):
    return ScheduleParams(a=a, num_experts=n, gamma=GammaSchedule.power(delta), **kw)


class TestGammaSchedule:
    def test_power_values(self):
        g = GammaSchedule.power(1.0)
        assert g(1) == 1.0
        assert g(4) == 0.25

    def test_constant(self):
        g = GammaSchedule.constant(0.3)
        assert g(1) == g(100) == 0.3

    def test_table(self):
        g = GammaSchedule.from_table([0.5, 0.25, 0.125])
        assert g(2) == 0.25
        with pytest.raises(ScheduleError):
            g(4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ScheduleError):
            GammaSchedule.constant(0.0)
        with pytest.raises(ScheduleError):
            GammaSchedule.constant(1.5)

    def test_square_summable(self):
        assert GammaSchedule.power(1.0).square_summable() is True
        assert GammaSchedule.power(0.4).square_summable() is False
        assert GammaSchedule.constant(0.5).square_summable() is False
        assert GammaSchedule.from_table([0.5, 0.25]).square_summable() is None

    def test_config_round_trip(self):
        for g in (GammaSchedule.power(0.7), GammaSchedule.constant(0.3)):
            back = GammaSchedule.from_config(g.to_config())
            assert back(5) == g(5)

    def test_values_vectorized(self):
        g = GammaSchedule.power(0.5)
        ts = np.arange(1, 11)
        assert np.allclose(g.values(ts), [g(int(t)) for t in ts])


class TestAlpha:
    def test_reference_value(self):
        # a = 10, N = 2, gamma(t) = 1/t, t = 100
        p = params_power()
        assert alpha_t(p, 100) == pytest.approx(0.84594, abs=1e-5)

    def test_domain_violation_raises(self):
        # gamma(1) = 1 makes the defining ratio ill-posed
        with pytest.raises(ScheduleError):
            alpha_t(params_power(), 1)

    def test_alpha_in_unit_interval_when_defined(self):
        p = ScheduleParams(a=10.0, num_experts=5, gamma=GammaSchedule.constant(0.01))
        a1 = alpha_t(p, 1)
        assert 0.0 < a1 < 1.0


class TestMu:
    def test_reference_value(self):
        p = params_power()
        assert mu_t(p, 100) == pytest.approx(0.2032892, abs=1e-6)

    def test_total_form_at_t1(self):
        # closed form stays finite even where alpha is undefined
        p = params_power()
        coef = math.sqrt(2 * p.a * (math.exp(3 / p.a) - 1) / (1 + math.log(2)))
        assert mu_t(p, 1) == pytest.approx(coef)

    def test_dual_form_agreement(self):
        # a * gamma(t)^alpha_t must match the closed form wherever alpha exists
        gen = np.random.default_rng(11)
        for _ in range(300):
            a = math.exp(gen.uniform(math.log(3), math.log(100)))
            n = int(gen.integers(2, 20))
            p = ScheduleParams(a=a, num_experts=n, gamma=GammaSchedule.power(1.0))
            t = int(gen.integers(2, 10_000))
            if not p.alpha_domain_ok(t):
                continue
            power_form = a * p.gamma(t) ** alpha_t(p, t)
            assert mu_t(p, t) == pytest.approx(power_form, rel=1e-10)

    def test_mu_values_matches_scalar(self):
        p = params_power(n=5)
        mus = mu_values(p, 20)
        assert np.allclose(mus, [mu_t(p, t) for t in range(1, 21)])


class TestEpsilon:
    def test_reference_value(self):
        p = params_power()
        assert epsilon_t(p, 100, 10.0) == pytest.approx(0.4919096, abs=1e-6)

    def test_zero_volume_gives_infinity(self):
        assert epsilon_t(params_power(), 5, 0.0) == math.inf

    def test_monotone_in_volume(self):
        p = params_power()
        assert epsilon_t(p, 50, 5.0) > epsilon_t(p, 50, 50.0)


class TestChooseA:
    def test_general_reference(self):
        a = choose_a(1.0)
        assert 2 * a * (math.exp(3 / a) - 1) <= 7.0
        assert a == pytest.approx(9.97, abs=0.05)

    def test_nonnegative_hits_lower_endpoint(self):
        # a(e^{2/a} - 1) at a = 3 is already below 3, so a = 3 is returned
        assert choose_a(1.0, loss_mode="nonnegative") == 3.0

    def test_tightness(self):
        for eps in (0.1, 0.5, 2.0):
            a = choose_a(eps)
            f = 2 * a * (math.exp(3 / a) - 1)
            assert f <= 6 + eps + 1e-9
            assert f >= 6 + eps - 1e-3

    def test_rejects_nonpositive(self):
        with pytest.raises(ScheduleError):
            choose_a(0.0)


class TestBounds:
    def test_regret_bound_hand_value(self):
        # N = 2, constant delta_v = 1, gamma(t) = 1/t, T = 4:
        # 2 sqrt(7 * (1 + ln 2)) * (1 + 1/sqrt2 + 1/sqrt3 + 1/2)
        p = params_power(a=choose_a(1.0))
        dv = np.ones(4)
        expect = 2 * math.sqrt(7 * (1 + math.log(2))) * sum(
            t ** -0.5 for t in range(1, 5)
        )
        assert regret_bound(p, 4, dv, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_nonnegative_constant(self):
        p = params_power(a=3.0, loss_mode="nonnegative")
        dv = np.ones(3)
        expect = 2 * math.sqrt(3 * (1 + math.log(2))) * sum(
            t ** -0.5 for t in range(1, 4)
        )
        assert regret_bound(p, 3, dv, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_general_equals_optimized(self):
        # alpha_t is exactly the optimizer of the two-term bound, so both
        # evaluations agree whenever alpha_t is defined
        gen = np.random.default_rng(21)
        for _ in range(1000):
            a = math.exp(gen.uniform(math.log(3), math.log(100)))
            n = int(gen.integers(2, 50))
            probe = ScheduleParams(a=a, num_experts=n, gamma=GammaSchedule.constant(0.5))
            amax = min(probe.coef_A, 1.0 / probe.coef_A, 1.0)
            g = GammaSchedule.constant(min(0.999 * amax, 0.9) * gen.uniform(0.1, 1.0))
            p = ScheduleParams(a=a, num_experts=n, gamma=g)
            dv = gen.uniform(0.0, 2.0, 20)
            gb = general_bound(p, 20, dv)
            ob = optimized_bound(p, 20, dv)
            assert gb == pytest.approx(ob, rel=1e-9)

    def test_ifpl_bound(self):
        p = params_power(n=3)
        dv = np.arange(1, 6, dtype=float)
        mus = mu_values(p, 5)
        assert ifpl_regret_bound(p, dv) == pytest.approx(
            (1 + math.log(3)) * float(mus @ dv)
        )

    def test_gap_bound_positive(self):
        p = params_power(n=3)
        assert fpl_ifpl_gap_bound(p, np.ones(10)) > 0

    def test_poly_bound_value(self):
        # N = 2, T = 1024, alpha = 0.1, delta = 1: exponent 1 - 1/2 + 0.1
        val = poly_bound(2, 1024, 0.1, 1.0, 1.0)
        assert val == pytest.approx(
            2 * math.sqrt(7 * (1 + math.log(2))) * 1024 ** 0.6, rel=1e-12
        )


class TestScheduleParams:
    def test_from_config_with_target_eps(self):
        p = ScheduleParams.from_config(
            {"target_eps": 1.0, "N": 2, "gamma": {"kind": "power", "delta": 1.0}}
        )
        assert p.a == pytest.approx(choose_a(1.0))

    def test_require_alpha_domain(self):
        good = ScheduleParams(a=10.0, num_experts=2, gamma=GammaSchedule.constant(0.01))
        good.require_alpha_domain()
        with pytest.raises(ScheduleError):
            params_power().require_alpha_domain()

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ScheduleError):
            ScheduleParams(a=0.0, num_experts=2, gamma=GammaSchedule.power(1.0))

    def test_config_round_trip(self):
        p = ScheduleParams(a=5.0, num_experts=4, gamma=GammaSchedule.constant(0.1),
                           v0=2.0, loss_mode="nonnegative")
        back = ScheduleParams.from_config(p.to_config())
        assert back == p
