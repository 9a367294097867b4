import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest

import volfpl
from volfpl import (
    GameError,
    GammaSchedule,
    PriceSeries,
    ScheduleParams,
    TradingConfig,
    as_generator,
    choose_a,
    defensive_lower_bound,
    expert_gains,
    fbm_generate,
    learner_gain,
    run_trading_experiment,
    volatility_identity_check,
)


def make_config(gamma_const=0.01, v0=1.0, c=1.0):
    params = ScheduleParams(a=choose_a(1.0), num_experts=2,
                            gamma=GammaSchedule.constant(gamma_const), v0=v0)
    return TradingConfig(c=c, schedule=params)


class TestPriceSeries:
    def test_validation(self):
        with pytest.raises(GameError):
            PriceSeries(np.array([1.0]))
        with pytest.raises(GameError):
            PriceSeries(np.array([1.0, np.inf]))

    def test_csv_round_trip(self, tmp_path):
        ps = PriceSeries(np.array([1.0, 1.5, 0.75]))
        path = tmp_path / "prices.csv"
        ps.to_csv(path)
        assert path.read_text().splitlines()[0] == "price"
        back = PriceSeries.from_csv(path)
        assert np.array_equal(back.prices, ps.prices)

    @pytest.mark.parametrize("body", ["1.0\nabc\n", "1.0\n2.0,3\n"])
    def test_csv_bad_row_names_line(self, tmp_path, body):
        path = tmp_path / "prices.csv"
        path.write_text("price\n" + body)
        with pytest.raises(GameError, match="prices.csv:3"):
            PriceSeries.from_csv(path)


class TestFbm:
    def test_reproducible(self):
        a = fbm_generate(0.7, 128, seed=3)
        b = fbm_generate(0.7, 128, seed=3)
        assert np.array_equal(a.prices, b.prices)

    def test_starts_at_s0(self):
        ps = fbm_generate(0.5, 64, s0=2.5, seed=1)
        assert ps.prices[0] == 2.5
        assert ps.num_ticks == 64

    def test_h_half_is_brownian(self):
        # at H = 1/2 increments are uncorrelated with variance 1/M
        inc = np.diff(fbm_generate(0.5, 4096, seed=7).prices)
        assert np.var(inc) == pytest.approx(1 / 4096, rel=0.1)
        assert abs(np.corrcoef(inc[:-1], inc[1:])[0, 1]) < 0.05

    def test_increment_covariance_matches_fgn(self):
        # lag-1 correlation of fGn is 2^{2H-1} - 1
        h = 0.8
        rows = np.array([
            np.diff(fbm_generate(h, 256, seed=s).prices) for s in range(400)
        ])
        emp = np.mean(rows[:, :-1] * rows[:, 1:]) / np.mean(rows**2)
        assert emp == pytest.approx(2 ** (2 * h - 1) - 1, abs=0.05)

    def test_rejects_bad_hurst(self):
        with pytest.raises(GameError):
            fbm_generate(1.2, 10)

    @pytest.mark.parametrize("h", [0.01, 0.3, 0.5, 0.8, 0.99])
    @pytest.mark.parametrize("m", [1, 2, 3, 257, 1024])
    def test_matches_dense_cholesky(self, h, m):
        # increments are L z M^-H for the dense Cholesky factor L of the fGn
        # covariance and the path's own normals z
        k = np.arange(m + 1, dtype=float)
        acov = 0.5 * (np.abs(k + 1) ** (2 * h) - 2 * k ** (2 * h) + np.abs(k - 1) ** (2 * h))
        lags = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
        z = as_generator(5).standard_normal(m)
        ref = np.linalg.cholesky(acov[lags]) @ z * float(m) ** -h
        inc = np.diff(fbm_generate(h, m, seed=5, s0=0.0).prices)
        assert np.max(np.abs(inc - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_memory_is_linear_in_steps(self):
        # a dense 4096 x 4096 factor alone takes 134 MB
        tracemalloc.start()
        try:
            fbm_generate(0.8, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_singular_covariance_raises(self):
        # H this close to 1 makes the fGn covariance numerically singular
        with pytest.raises(GameError, match="singular"):
            fbm_generate(1 - 1e-10, 2000)

    def test_runs_without_scipy(self):
        code = textwrap.dedent("""
            import sys
            sys.modules["scipy"] = None
            from volfpl import (GammaSchedule, ScheduleParams, TradingConfig, choose_a,
                                fbm_generate, run_trading_experiment)
            params = ScheduleParams(a=choose_a(1.0), num_experts=2,
                                    gamma=GammaSchedule.constant(0.01), v0=1.0)
            rep = run_trading_experiment(TradingConfig(c=1.0, schedule=params),
                                         fbm_generate(0.8, 256, seed=1))
            assert rep.identity_residual <= 1e-9
        """)
        src = os.path.dirname(os.path.dirname(volfpl.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


class TestExpertGains:
    def test_zero_sum_and_first_entry(self):
        ps = fbm_generate(0.6, 32, seed=2)
        s1, s2 = expert_gains(ps, 1.5)
        assert np.array_equal(s2, -s1)
        assert s1[0] == 0.0

    def test_hand_value(self):
        ps = PriceSeries(np.array([1.0, 2.0, 1.5]))
        s1, _ = expert_gains(ps, 2.0)
        # t=1: 2*2*(2-1)*(1.5-2) = -2
        assert np.allclose(s1, [0.0, -2.0])

    def test_identity_on_random_paths(self):
        # (S_M - S_0)^2 == sum 2(S_t - S_0) dS_t + sum (dS_t)^2 exactly
        for seed in range(20):
            ps = fbm_generate(0.3 + 0.02 * seed, 512, seed=seed)
            lhs = (ps.prices[-1] - ps.prices[0]) ** 2
            assert volatility_identity_check(ps) <= 1e-9 * max(1.0, lhs)

    def test_identity_relates_expert_gain(self):
        # sum s1_t = C ((S_M - S_0)^2 - sum dS_t^2)
        ps = fbm_generate(0.7, 256, seed=5)
        c = 1.3
        s1, _ = expert_gains(ps, c)
        ds = np.diff(ps.prices)
        expect = c * ((ps.prices[-1] - ps.prices[0]) ** 2 - np.sum(ds**2))
        assert np.sum(s1) == pytest.approx(expect, rel=1e-9)


class TestLearnerGain:
    def test_derandomized_matches_monte_carlo(self):
        # the probability-weighted gain equals the sampled PROT gain in
        # expectation; check one path against many sampled runs
        from volfpl import RngSpec, prot_run

        ps = fbm_generate(0.8, 64, seed=11)
        cfg = make_config(gamma_const=0.05, v0=1.0)
        gains, cum = learner_gain(ps, cfg)
        s1, s2 = expert_gains(ps, cfg.c)
        losses = np.column_stack([-s1, -s2])
        runs = 4000
        totals = np.array([
            -prot_run(losses, cfg.schedule, rng=RngSpec(k)).total_loss
            for k in range(runs)
        ])
        se = totals.std(ddof=1) / math.sqrt(runs)
        assert abs(cum[-1] - totals.mean()) <= 4 * se

    def test_matches_per_tick_reference(self):
        from volfpl import mu_values, selection_probabilities_exact

        for h, seed in ((0.3, 21), (0.5, 22), (0.8, 23)):
            ps = fbm_generate(h, 1024, seed=seed)
            cfg = make_config(gamma_const=0.02, v0=0.5)
            _, cum = learner_gain(ps, cfg)
            s1, _ = expert_gains(ps, cfg.c)
            mu = mu_values(cfg.schedule, len(s1))
            ref = np.empty(len(s1))
            cum_loss = np.zeros(2)
            v_prev = cfg.schedule.v0
            for t in range(len(s1)):
                p = selection_probabilities_exact(cum_loss, 1.0 / (mu[t] * v_prev))
                ref[t] = (p[0] - p[1]) * s1[t]
                cum_loss = cum_loss + np.array([-s1[t], s1[t]])
                v_prev += abs(s1[t])
            ref_cum = np.cumsum(ref)
            assert np.max(np.abs(cum - ref_cum)) <= 1e-13 * np.max(np.abs(ref_cum))

    def test_gain_bounded_by_expert_gap(self):
        ps = fbm_generate(0.6, 128, seed=4)
        cfg = make_config()
        gains, _ = learner_gain(ps, cfg)
        s1, _ = expert_gains(ps, cfg.c)
        assert np.all(np.abs(gains) <= np.abs(s1) + 1e-12)


class TestDefensiveBound:
    def test_formula(self):
        ps = fbm_generate(0.8, 128, seed=9)
        cfg = make_config(gamma_const=0.01, v0=1.0)
        s1, _ = expert_gains(ps, cfg.c)
        expect = abs(s1.sum()) - 2 * math.sqrt(0.01) * math.sqrt(
            7 * (1 + math.log(2))
        ) * (np.abs(s1).sum() + 1.0)
        assert defensive_lower_bound(ps, cfg) == pytest.approx(expect, rel=1e-12)

    def test_explicit_a_uses_its_own_eps(self):
        # the coefficient is 2 gamma^{1/2} sqrt(2a(e^{3/a}-1)(1+ln 2)) for any a
        ps = fbm_generate(0.8, 128, seed=9)
        params = ScheduleParams(a=5.0, num_experts=2, gamma=GammaSchedule.constant(0.01),
                                v0=1.0)
        cfg = TradingConfig(c=1.0, schedule=params)
        s1, _ = expert_gains(ps, cfg.c)
        expect = abs(s1.sum()) - 2 * math.sqrt(0.01) * math.sqrt(
            10 * math.expm1(3 / 5) * (1 + math.log(2))
        ) * (np.abs(s1).sum() + 1.0)
        assert defensive_lower_bound(ps, cfg) == pytest.approx(expect, rel=1e-12)

    def test_rejects_nonnegative_schedule(self):
        params = ScheduleParams(a=3.0, num_experts=2, gamma=GammaSchedule.constant(0.01),
                                v0=1.0, loss_mode="nonnegative")
        with pytest.raises(GameError, match="signed"):
            TradingConfig(c=1.0, schedule=params)

    def test_requires_constant_gamma(self):
        params = ScheduleParams(a=choose_a(1.0), num_experts=2,
                                gamma=GammaSchedule.power(1.0), v0=1.0)
        cfg = TradingConfig(c=1.0, schedule=params)
        ps = fbm_generate(0.5, 16, seed=0)
        with pytest.raises(GameError):
            defensive_lower_bound(ps, cfg)


class TestTradingExperiment:
    def test_report_consistency(self, tmp_path):
        ps = fbm_generate(0.8, 256, seed=13)
        cfg = make_config(gamma_const=0.02)
        rep = run_trading_experiment(cfg, ps)
        assert np.allclose(rep.s1_cum + rep.s2_cum, 0.0, atol=1e-12)
        assert rep.identity_residual <= 1e-9
        # the derandomized learner respects the defensive floor
        assert rep.learner_cum[-1] >= rep.defensive_bound - 1e-9
        path = tmp_path / "report.csv"
        rep.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,S,s1_cum,s2_cum,learner_cum,volume,fluc"

    def test_one_volume_trace_per_run(self, monkeypatch):
        # gains, volume and fluctuation all come from the one pass over s1
        from volfpl import engine, game, trading
        from volfpl.game import LossMatrix, volume_from_peaks, volume_trace

        calls = []
        for mod in (engine, game, trading):
            if hasattr(mod, "volume_from_peaks"):
                monkeypatch.setattr(mod, "volume_from_peaks",
                                    lambda *a: calls.append(a) or volume_from_peaks(*a))
        ps = fbm_generate(0.5, 256, seed=5)
        cfg = make_config(gamma_const=0.05, v0=0.5)
        rep = run_trading_experiment(cfg, ps)
        assert len(calls) == 1
        s1, s2 = expert_gains(ps, cfg.c)
        v, _, fluc = volume_trace(LossMatrix(np.column_stack([-s1, s1])), cfg.schedule.v0)
        assert rep.volume.tobytes() == v[1:].tobytes()
        assert rep.fluc.tobytes() == fluc.tobytes()
        assert rep.learner_cum.tobytes() == learner_gain(ps, cfg)[1].tobytes()
        ts = np.arange(1, len(s1) + 1)
        assert np.array_equal(rep.fluc_violations, ts[fluc > 0.05])

    def test_report_bound_is_the_public_bound(self, monkeypatch):
        # the report reads the bound off the run's own gains: they are formed
        # once per run
        from volfpl import trading

        calls = []
        gains = trading._gains_from_moves
        monkeypatch.setattr(trading, "_gains_from_moves",
                            lambda *a: calls.append(a) or gains(*a))
        ps = fbm_generate(0.3, 256, seed=21)
        cfg = make_config(gamma_const=0.02)
        rep = run_trading_experiment(cfg, ps)
        assert len(calls) == 1
        assert rep.defensive_bound == defensive_lower_bound(ps, cfg)

    def test_overflowing_identity_raises_as_the_check_does(self):
        # the moves' squares overflow while the gains C * moves (about
        # -4e100) stay finite, so neither the bound nor the pass raises; the
        # run used to report a residual of nan with three RuntimeWarnings,
        # which this suite turns into errors
        ps = PriceSeries(np.array([0.0, 1e200, -1e200]))
        cfg = make_config(c=1e-300)
        assert np.isfinite(expert_gains(ps, cfg.c)[0]).all()
        messages = set()
        for call in (lambda: run_trading_experiment(cfg, ps),
                     lambda: volatility_identity_check(ps)):
            with pytest.raises(GameError, match="residual is nan") as err:
                call()
            messages.add(str(err.value))
        assert len(messages) == 1
        # where the moves themselves overflow (3.4e308), or only the volume
        # of finite gains does, the run raises in its pass, before the
        # identity is read; it used to warn first, in the moves or the bound
        for prices in ([-1.7e308, 1.7e308, 0.0], [0.0, 1e153] * 100):
            with pytest.raises(GameError, match="non-finite|volume is not finite"):
                run_trading_experiment(make_config(), PriceSeries(np.array(prices)))
        with pytest.raises(GameError, match="residual is nan"):
            volatility_identity_check(PriceSeries(np.array([-1.7e308, 1.7e308, 0.0])))

    @pytest.mark.parametrize("prices", [[-1.7e308, 1.7e308, 0.0], [0.0, 1e200, -1e200]],
                             ids=["moves", "gains"])
    def test_overflowing_gains_raise_where_they_are_formed(self, prices):
        # expert_gains returned nan or -inf after RuntimeWarnings, and
        # learner_gain warned before the loss matrix raised
        ps = PriceSeries(np.array(prices))
        for call in (lambda: expert_gains(ps, 1.0), lambda: learner_gain(ps, make_config())):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(GameError, match="gains contain non-finite entries"):
                    call()

    def test_non_constant_gamma_raises_before_the_pass(self, monkeypatch):
        from volfpl import trading

        def no_pass(*args):
            raise AssertionError("the pass over s1 ran")

        monkeypatch.setattr(trading, "volume_from_peaks", no_pass)
        params = ScheduleParams(a=choose_a(1.0), num_experts=2,
                                gamma=GammaSchedule.power(1.0), v0=1.0)
        with pytest.raises(GameError, match="assumes a constant gamma"):
            run_trading_experiment(TradingConfig(c=1.0, schedule=params),
                                   fbm_generate(0.5, 16, seed=0))

    def test_config_validation(self):
        params = ScheduleParams(a=10.0, num_experts=3,
                                gamma=GammaSchedule.constant(0.1), v0=1.0)
        with pytest.raises(GameError):
            TradingConfig(c=1.0, schedule=params)
        params2 = ScheduleParams(a=10.0, num_experts=2,
                                 gamma=GammaSchedule.constant(0.1), v0=0.0)
        with pytest.raises(GameError):
            TradingConfig(c=1.0, schedule=params2)
