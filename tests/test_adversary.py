import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volfpl import (
    AdversaryConfig,
    GameError,
    GammaSchedule,
    LossMatrix,
    ScheduleParams,
    choose_a,
    prop1_run,
    prop1_step,
    prot_probability_callback,
    volume_trace,
)
from volfpl.adversary import AdversaryError


class TestProp1Step:
    def test_magnitude(self):
        s1, s2, m = prop1_step(2.0, 0.7, 0.5)
        assert m == 16.0

    def test_targets_likelier_expert(self):
        # the big loss lands on whichever expert the learner follows with
        # probability >= 1/2, so the expected step loss is at least M/2
        s1, s2, _ = prop1_step(1.0, 0.7, 0.5)
        assert (s1, s2) == (8.0, 0.0)
        s1, s2, _ = prop1_step(1.0, 0.2, 0.5)
        assert (s1, s2) == (0.0, 8.0)

    def test_boundary_inclusive(self):
        s1, s2, _ = prop1_step(1.0, 0.5, 0.5)
        assert (s1, s2) == (8.0, 0.0)

    def test_expected_loss_floor(self):
        gen = np.random.default_rng(31)
        for _ in range(200):
            p = float(gen.uniform(0, 1))
            v = float(gen.uniform(0.1, 10))
            eps = float(gen.uniform(0.05, 0.95))
            s1, s2, m = prop1_step(v, p, eps)
            assert s1 * p + s2 * (1 - p) >= 0.5 * m

    def test_rejects_bad_inputs(self):
        with pytest.raises(AdversaryError):
            prop1_step(0.0, 0.5, 0.5)
        with pytest.raises(AdversaryError):
            prop1_step(1.0, 1.5, 0.5)


class TestProp1Run:
    def test_constant_fluctuation(self):
        # v_t = v_{t-1}(1 + 4/eps) makes fluc(t) = 1/(1 + eps/4) at every step
        cfg = AdversaryConfig(eps=0.5, v0=1.0, horizon=25)
        trace = prop1_run(lambda t, cum, v: 0.5, cfg)
        expect = 1.0 / (1.0 + cfg.eps / 4.0)
        assert np.allclose(trace.fluc, expect, rtol=1e-12)

    def test_regret_floor_any_callback(self):
        # even an adversarially tuned callback cannot dodge the floor
        gen = np.random.default_rng(33)
        for eps in (0.25, 0.5, 0.9):
            cfg = AdversaryConfig(eps=eps, v0=1.0, horizon=30)
            for cb in (
                lambda t, cum, v: 0.5,
                lambda t, cum, v: float(cum[0] > cum[1]),
                lambda t, cum, v: float(gen.uniform(0, 1)),
            ):
                trace = prop1_run(cb, cfg)
                assert np.all(trace.norm_regret_lb >= 0.5 * (1 - eps) - 1e-12)

    def test_volume_growth(self):
        cfg = AdversaryConfig(eps=0.5, v0=1.0, horizon=10)
        trace = prop1_run(lambda t, cum, v: 0.5, cfg)
        assert np.allclose(trace.v, (1 + 4 / 0.5) ** np.arange(1, 11))

    def test_against_prot(self):
        cfg = AdversaryConfig(eps=0.5, v0=1.0, horizon=20)
        params = ScheduleParams(a=choose_a(1.0), num_experts=2,
                                gamma=GammaSchedule.constant(0.9), v0=1.0)
        trace = prop1_run(prot_probability_callback(params), cfg)
        assert np.all(trace.norm_regret_lb >= 0.25 - 1e-12)
        assert np.allclose(trace.fluc, 1 / (1 + 0.5 / 4), rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_prot_callback_needs_two_experts(self, n):
        # the rate PROT is fed depends on the pool size; the game has two
        params = ScheduleParams(a=choose_a(1.0), num_experts=n,
                                gamma=GammaSchedule.constant(0.999), v0=1.0)
        with pytest.raises(AdversaryError, match="two experts"):
            prot_probability_callback(params)

    def test_prot_params_share_the_games_v0(self):
        # PROT's v0 was ignored: its params with v0 = 7 played the game of v0 = 1
        params = ScheduleParams(a=choose_a(1.0), num_experts=2,
                                gamma=GammaSchedule.constant(0.999), v0=7.0)
        with pytest.raises(AdversaryError, match=r"v0 = 7\.0 is not the game's 1\.0"):
            prop1_run(prot_probability_callback(params),
                      AdversaryConfig(eps=0.5, v0=1.0, horizon=3))

    @pytest.mark.parametrize("callback", ["half", "prot"])
    def test_fields_come_from_volume_trace(self, callback):
        cfg = AdversaryConfig(eps=0.3, v0=2.0, horizon=40)
        params = ScheduleParams(a=choose_a(1.0), num_experts=2,
                                gamma=GammaSchedule.constant(0.999), v0=2.0)
        prot = prot_probability_callback(params)
        seen = []

        def algorithm(t, cum, v):
            seen.append(v)
            return 0.5 if callback == "half" else prot(t, cum, v)

        trace = prop1_run(algorithm, cfg)
        s = np.column_stack([trace.s1, trace.s2])
        v, m, fluc = volume_trace(LossMatrix(s), cfg.v0)
        cum = np.cumsum(s, axis=0)
        e_loss = trace.s1 * trace.p1 + trace.s2 * (1.0 - trace.p1)
        assert np.array_equal(trace.v, v[1:])
        assert np.array_equal(trace.m, m)
        assert np.array_equal(trace.fluc, fluc)
        assert np.array_equal(trace.e_loss, e_loss)
        assert np.array_equal(trace.expected_cum, np.cumsum(e_loss))
        assert np.array_equal(trace.min_cum, np.min(cum, axis=1))
        assert np.array_equal(trace.norm_regret_lb,
                              (np.cumsum(e_loss) - np.min(cum, axis=1)) / v[1:])
        # the callback is handed the same volume the trace reports
        assert seen == v[:-1].tolist()
        assert np.array_equal(trace.m, 4.0 * v[:-1] / cfg.eps)

    def test_volume_overflow_raises(self):
        # v_t = 9^t from v0 = 1 at eps = 0.5 overflows at t = 324
        cfg = AdversaryConfig(eps=0.5, v0=1.0, horizon=400)
        with pytest.raises(GameError, match="step 324:"):
            prop1_run(lambda t, cum, v: 0.5, cfg)

    @pytest.mark.parametrize("gamma", [GammaSchedule.constant(0.999), GammaSchedule.power(1.0)],
                             ids=["constant", "power"])
    def test_rate_underflow_raises_alike(self, gamma):
        # v0 > 0, but 1/(mu_1 v0) overflows: the batched run and the per-step
        # callback stop at step 1 with one message
        params = ScheduleParams(a=choose_a(1.0), num_experts=2, gamma=gamma, v0=5e-324)
        cfg = AdversaryConfig(eps=0.5, v0=5e-324, horizon=3)
        prot = prot_probability_callback(params)
        messages = set()
        for algorithm in (prot, lambda t, cum, v: prot(t, cum, v)):
            with pytest.raises(GameError, match=r"^rate 1/\(mu_t v\) is inf at step 1: ") as err:
                prop1_run(algorithm, cfg)
            messages.add(str(err.value))
        assert len(messages) == 1

    def test_rejects_invalid_probability(self):
        cfg = AdversaryConfig(eps=0.5, horizon=3)
        with pytest.raises(AdversaryError):
            prop1_run(lambda t, cum, v: 1.5, cfg)

    @settings(deadline=None, max_examples=300)
    @given(k=st.sampled_from([40, -40, -900]), eps=st.floats(0.05, 0.95),
           v0=st.floats(0.5, 4.0), horizon=st.integers(1, 40),
           gamma=st.sampled_from([GammaSchedule.constant(0.9), GammaSchedule.constant(0.01),
                                  GammaSchedule.power(1.0), GammaSchedule.power(0.5)]))
    def test_power_of_two_scale_against_prot(self, k, eps, v0, horizon, gamma):
        # scaling v0 by 2^k scales every loss and volume by exactly 2^k and
        # every rate by 2^-k, so PROT's probabilities and the scale-free
        # fields keep their bits
        def run(v0):
            params = ScheduleParams(a=choose_a(1.0), num_experts=2, gamma=gamma, v0=v0)
            return prop1_run(prot_probability_callback(params),
                             AdversaryConfig(eps=eps, v0=v0, horizon=horizon))

        base, scaled = run(v0), run(math.ldexp(v0, k))
        for name in ("p1", "fluc", "norm_regret_lb"):
            assert getattr(scaled, name).tobytes() == getattr(base, name).tobytes(), name
        for name in ("m", "v", "s1", "s2"):
            want = np.ldexp(getattr(base, name), k)
            assert getattr(scaled, name).tobytes() == want.tobytes(), name

    def test_csv_shape(self, tmp_path):
        cfg = AdversaryConfig(eps=0.5, horizon=5)
        trace = prop1_run(lambda t, cum, v: 0.5, cfg)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,M_t,s1,s2,p1,E_loss,v,fluc,norm_regret_lb"
        assert len(lines) == 6


class TestAdversaryConfig:
    def test_rejects_eps_out_of_range(self):
        with pytest.raises(AdversaryError):
            AdversaryConfig(eps=1.0)
        with pytest.raises(AdversaryError):
            AdversaryConfig(eps=0.5, v0=0.0)
