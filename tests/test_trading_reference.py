"""run_trading_experiment, learner_gain and fbm_generate against the
implementations they replaced: every output bit for bit.

The references are the former trading run and its engine pass, kept as
they were: the game (-s1, s1) as a loss matrix, a second cumsum for each
expert curve, the volume and the cumulative table built by
``np.concatenate`` and ``np.vstack``, a masked divide for the fluctuation,
mu_t from a gamma array, a second gamma array for the fluctuation flags, the
defensive bound taken after the pass, and the probabilities from the frozen
N-expert kernel of ``test_exact_reference``, not the kernel under test.
The fBm reference is the fused Durbin-Levinson loop, which ran the whole
recursion for every path, where ``fbm_generate`` now reads the cached
factorization and runs the filter alone.
"""

import math

import numpy as np
import pytest

from volfpl import trading
from volfpl import (
    GameError,
    GammaSchedule,
    LossMatrix,
    PriceSeries,
    ScheduleParams,
    TradingConfig,
    TradingReport,
    choose_a,
    defensive_lower_bound,
    expert_gains,
    fbm_generate,
    learner_gain,
    run_trading_experiment,
    volatility_identity_check,
)
from volfpl.game import row_peaks
from volfpl.perturbation import as_generator
from volfpl.schedule import _checked_mu, _main_coef, epsilon_values

from test_exact_reference import reference_selection_probabilities_exact


def reference_fgn(hurst, z):
    m = len(z)
    k = np.arange(m, dtype=float)
    two_h = 2.0 * hurst
    acov = 0.5 * (np.abs(k + 1) ** two_h - 2.0 * np.abs(k) ** two_h + np.abs(k - 1) ** two_h)
    acov_rev = acov[::-1].copy()
    g, zs = acov.tolist(), z.tolist()
    x_rev = np.empty(m)
    phi = np.empty(m)
    scratch = np.empty(m)
    v = g[0]
    x_rev[m - 1] = math.sqrt(v) * zs[0]
    for n in range(1, m):
        prev = phi[:n - 1]
        kappa = (g[n] - float(prev @ acov_rev[m - n:m - 1])) / v
        prev -= np.multiply(prev[::-1], kappa, out=scratch[:n - 1])
        phi[n - 1] = kappa
        v *= 1.0 - kappa * kappa
        if not v > 0:
            raise GameError(f"fGn covariance is numerically singular at step {n + 1} "
                            f"(Hurst exponent {hurst} is too close to 1)")
        x_rev[m - 1 - n] = float(phi[:n] @ x_rev[m - n:]) + math.sqrt(v) * zs[n]
    return x_rev[::-1].copy()


def reference_fbm_prices(hurst, steps, seed):
    z = as_generator(seed).standard_normal(steps)
    increments = reference_fgn(hurst, z) * float(steps) ** -hurst
    t = np.arange(steps + 1) / steps
    bh = np.concatenate([[0.0], np.cumsum(increments)])
    return 1.0 + 1.0 * bh + 0.0 * t


def reference_volume_trace(losses, v0=0.0):
    delta_v = row_peaks(losses.values)
    with np.errstate(over="ignore"):
        v = np.concatenate([[v0], v0 + np.cumsum(delta_v)])
    if not np.isfinite(v[-1]):
        bad = np.argmax(~np.isfinite(v))
        raise GameError(f"volume is not finite at step {bad}: losses overflow")
    fluc = np.divide(delta_v, v[1:], out=np.zeros_like(delta_v), where=v[1:] > 0)
    return v, delta_v, fluc


def reference_mu_values(params, T):
    ts = np.arange(1, T + 1)
    return _checked_mu(params._mu_coef * np.sqrt(params.gamma.values(ts)), 1)


def reference_expert_cum(values):
    return np.vstack([np.zeros(values.shape[1]), np.cumsum(values, axis=0)])


def reference_deterministic_rates(game, params, infeasible):
    v, delta_v, fluc = reference_volume_trace(game, params.v0)
    cum = reference_expert_cum(game.values)
    mu = reference_mu_values(params, game.num_steps)
    trace = (v, delta_v, fluc, mu, cum[-1])
    if infeasible:
        return cum[1:], epsilon_values(mu, v[1:]), trace
    return cum[:-1], epsilon_values(mu, v[:-1]), trace


def reference_prot_gains(s1, schedule):
    scores, eps, trace = reference_deterministic_rates(
        LossMatrix(np.column_stack([-s1, s1])), schedule, False)
    p = reference_selection_probabilities_exact(scores, eps)
    return (p[:, 0] - p[:, 1]) * s1, trace


def reference_learner_gain(prices, config):
    gains, _ = reference_prot_gains(expert_gains(prices, config.c)[0], config.schedule)
    return gains, np.cumsum(gains)


def reference_defensive_bound(s1, schedule):
    if schedule.gamma.kind != "constant":
        raise GameError("defensive bound assumes a constant gamma schedule")
    coef = math.sqrt(schedule.gamma.c) * _main_coef(2, "general", schedule.target_eps)
    return abs(float(np.sum(s1))) - coef * (float(np.sum(np.abs(s1))) + schedule.v0)


def reference_run_trading_experiment(config, prices):
    s1, s2 = expert_gains(prices, config.c)
    gains, (v, _, fluc, _, _) = reference_prot_gains(s1, config.schedule)
    ts = np.arange(1, len(s1) + 1)
    violations = ts[fluc > config.schedule.gamma.values(ts)]
    return TradingReport(
        prices=prices.prices,
        s1_cum=np.cumsum(s1),
        s2_cum=np.cumsum(s2),
        learner_cum=np.cumsum(gains),
        volume=v[1:],
        fluc=fluc,
        fluc_violations=violations,
        identity_residual=volatility_identity_check(prices),
        defensive_bound=reference_defensive_bound(s1, config.schedule),
    )


def assert_same(got, want):
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    else:
        assert type(got) is type(want)
        assert got == want or (math.isnan(got) and math.isnan(want))


def assert_same_run(config, prices):
    got, want = run_trading_experiment(config, prices), reference_run_trading_experiment(
        config, prices)
    for name in TradingReport.__dataclass_fields__:
        assert_same(getattr(got, name), getattr(want, name))
    for g, w in zip(learner_gain(prices, config), reference_learner_gain(prices, config)):
        assert_same(g, w)
    assert_same(defensive_lower_bound(prices, config),
                reference_defensive_bound(expert_gains(prices, config.c)[0], config.schedule))
    return got


def _config(c, gamma, v0, a=None):
    params = ScheduleParams(a=choose_a(1.0) if a is None else a, num_experts=2,
                            gamma=GammaSchedule.constant(gamma), v0=v0)
    return TradingConfig(c=c, schedule=params)


_PATHS = {}


def _path(hurst, steps):
    if (hurst, steps) not in _PATHS:
        _PATHS[hurst, steps] = fbm_generate(hurst, steps, seed=int(100 * hurst) + steps)
    return _PATHS[hurst, steps]


class TestTradingRunMatchesReference:
    @pytest.mark.parametrize("steps", [1, 2, 257, 4096])
    @pytest.mark.parametrize("v0", [1.0, 1e-3])
    @pytest.mark.parametrize("gamma", [0.01, 0.5])
    @pytest.mark.parametrize("c", [1.0, 0.37])
    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.8])
    def test_every_field(self, hurst, c, gamma, v0, steps):
        assert_same_run(_config(c, gamma, v0), _path(hurst, steps))

    def test_path_with_fluctuation_violations(self):
        # a small v0 makes the first moves a large share of the volume
        report = assert_same_run(_config(0.37, 0.01, 1e-3), _path(0.5, 257))
        assert len(report.fluc_violations) > 0
        assert report.fluc_violations.dtype == np.arange(1).dtype

    def test_explicit_a(self):
        assert_same_run(_config(1.0, 0.05, 1.0, a=5.0), _path(0.8, 257))

    @pytest.mark.parametrize("prices", [
        # s1_1 = 2 (1e200 - 0)(-1e200 - 1e200) is not finite
        [0.0, 1e200, -1e200],
        # every s1_t is finite (-2e306 at odd t), but their volume is not
        [0.0, 1e153] * 100,
    ], ids=["gains", "volume"])
    def test_overflowing_gains_raise_alike(self, prices):
        ps, cfg = PriceSeries(np.array(prices)), _config(1.0, 0.01, 1.0)
        messages = set()
        for call in (lambda: run_trading_experiment(cfg, ps),
                     lambda: reference_run_trading_experiment(cfg, ps),
                     lambda: learner_gain(ps, cfg), lambda: reference_learner_gain(ps, cfg)):
            with np.errstate(over="ignore"), pytest.raises(GameError) as err:
                call()
            messages.add(str(err.value))
        assert len(messages) == 1

    @pytest.mark.parametrize("prices, bound_error", [
        # the gains themselves are not finite: they raise where they are formed
        ([0.0, 1e200, -1e200], "trading gains contain non-finite entries"),
        ([0.0, 1e153] * 100, "defensive bound is nan"),
    ], ids=["gains", "volume"])
    def test_overflowing_gains_raise_in_the_public_checks(self, prices, bound_error):
        # a RuntimeWarning is an error in this suite, so none is emitted
        # before the GameError
        ps = PriceSeries(np.array(prices))
        with pytest.raises(GameError, match=bound_error):
            defensive_lower_bound(ps, _config(1.0, 0.01, 1.0))
        with pytest.raises(GameError, match="residual is nan"):
            volatility_identity_check(ps)

    def test_zero_partial_sum(self):
        # C_3 = 0 - 1 + 1 is +0, and so is the third partial sum of -s1:
        # the negated curve -C would hold -0.0 there
        ps = PriceSeries(np.array([0.0, 1.0, 0.5, 1.5, 1.0]))
        report = assert_same_run(_config(1.0, 0.01, 1.0), ps)
        negated = -np.cumsum(expert_gains(ps, 1.0)[0])
        assert (np.signbit(negated) != np.signbit(report.s2_cum)).any()

    def test_tiny_negative_lead(self):
        # at step 3, C = -2e-18 < 0 but exp(eps (-|C| - |C|)) rounds to 1, so
        # both probabilities are equal and their difference is +0; a sign
        # taken from C would make it -0.0
        ps = PriceSeries(np.array([0.0, -1e-9, 0.0, 1e-9]))
        cfg = _config(1.0, 0.01, 1.0)
        assert_same_run(cfg, ps)
        s1 = expert_gains(ps, 1.0)[0]
        lead = np.concatenate([[0.0], np.cumsum(s1)[:-1]])
        gains = learner_gain(ps, cfg)[0]
        assert ((lead < 0) & (gains == 0) & ~np.signbit(gains)).any()

    def test_doubled_lead_overflows(self):
        # C_2 = 2e154 (-6e153) = -1.2e308 and the volume are finite, but the
        # score difference -2 C_2 of step 3 is not; the run gives the
        # reference's bits without a RuntimeWarning, an error in this suite
        ps = PriceSeries(np.array([0.0, 1e154, 4e153, 4e153]))
        report = assert_same_run(_config(1.0, 0.01, 1.0), ps)
        assert abs(report.s1_cum[1]) > np.finfo(float).max / 2

    def test_infinite_rate_raises_alike(self):
        # mu_t v_0 underflows to 0 at the first steps, so their rate is inf
        ps, cfg = _path(0.5, 257), _config(1.0, 1e-100, 1e-300)
        messages = set()
        for call in (lambda: run_trading_experiment(cfg, ps),
                     lambda: reference_run_trading_experiment(cfg, ps),
                     lambda: learner_gain(ps, cfg), lambda: reference_learner_gain(ps, cfg)):
            with pytest.raises(GameError, match=r"^rate 1/\(mu_t v\) is inf at step 1: ") as err:
                call()
            messages.add(str(err.value))
        assert len(messages) == 1

    def test_power_gamma_raises_alike(self):
        params = ScheduleParams(a=choose_a(1.0), num_experts=2,
                                gamma=GammaSchedule.power(1.0), v0=1.0)
        cfg, ps = TradingConfig(c=1.0, schedule=params), _path(0.5, 257)
        messages = set()
        for run in (run_trading_experiment, reference_run_trading_experiment):
            with pytest.raises(GameError) as err:
                run(cfg, ps)
            messages.add(str(err.value))
        assert messages == {"defensive bound assumes a constant gamma schedule"}
        for g, w in zip(learner_gain(ps, cfg), reference_learner_gain(ps, cfg)):
            assert_same(g, w)


_FBM_HURSTS = (0.01, 0.3, 0.5, 0.8, 0.99)
_FBM_STEPS = (1, 2, 3, 257, 4096)
_FBM_SEEDS = (0, 1)


@pytest.fixture(scope="module")
def reference_fbm():
    return {(h, m, seed): reference_fbm_prices(h, m, seed)
            for h in _FBM_HURSTS for m in _FBM_STEPS for seed in _FBM_SEEDS}


class TestFbmMatchesReference:
    @pytest.mark.parametrize("steps", _FBM_STEPS)
    @pytest.mark.parametrize("hurst", _FBM_HURSTS)
    def test_cold_and_warm_cache(self, reference_fbm, hurst, steps):
        trading._fgn_cholesky.cache_clear()
        # the first seed's path factorizes, the second and the repeat hit
        for seed in _FBM_SEEDS + _FBM_SEEDS[:1]:
            assert_same(fbm_generate(hurst, steps, seed=seed).prices,
                        reference_fbm[hurst, steps, seed])
        info = trading._fgn_cholesky.cache_info()
        assert (info.misses, info.hits) == (1, len(_FBM_SEEDS))

    def test_evicted_keys_are_factorized_again(self, reference_fbm):
        keys = [(h, m) for h in _FBM_HURSTS for m in _FBM_STEPS]
        assert len(keys) > trading._fgn_cholesky.cache_info().maxsize
        trading._fgn_cholesky.cache_clear()
        # a cycle longer than the cache evicts every key before it comes back
        for _ in range(2):
            for h, m in keys:
                for seed in _FBM_SEEDS:
                    assert_same(fbm_generate(h, m, seed=seed).prices, reference_fbm[h, m, seed])
        info = trading._fgn_cholesky.cache_info()
        assert info.misses == 2 * len(keys)
        assert info.hits == 2 * len(keys) * (len(_FBM_SEEDS) - 1)
        assert info.currsize == info.maxsize
