import math
import re
import warnings

import numpy as np
import pytest

from volfpl import (
    AdversaryConfig,
    GameError,
    LossMatrix,
    GammaSchedule,
    PriceSeries,
    RngSpec,
    ScheduleParams,
    TradingConfig,
    alpha_t,
    as_generator,
    batch_cumulative_losses,
    bounded_unit_game,
    check_fluctuation_bound,
    choose_a,
    epsilon_t,
    expected_max_bound,
    expert_gains,
    fbm_generate,
    general_bound,
    learner_gain,
    max_tail_bound,
    monte_carlo_regret,
    mu_t,
    mu_values,
    optimized_bound,
    poly_bound,
    probability_ratio_check,
    poly_envelope_game,
    prop1_run,
    prop1_step,
    prot_probability_callback,
    prot_run,
    prot_select,
    random_fluc_bounded_game,
    regret_bound,
    sample_exponential,
    scaled_fluctuation,
    selection_probabilities_mc,
    volume_trace,
)
from volfpl.game import row_peaks
from volfpl.harness import parse_seeds

# losses of the introductory two-expert game where follow-the-leader
# always picks the wrong expert
INTRO_GAME = np.array(
    [[0.5, 0], [0, 1], [1, 0], [0, 1], [1, 0], [0, 1], [1, 0]], dtype=float
)


class TestLossMatrix:
    def test_shape_and_validation(self):
        lm = LossMatrix(INTRO_GAME)
        assert lm.num_steps == 7
        assert lm.num_experts == 2
        assert np.array_equal(lm.row(1), [0.5, 0])

    def test_rejects_nan(self):
        with pytest.raises(GameError):
            LossMatrix(np.array([[np.nan, 0.0]]))

    def test_rejects_inf(self):
        with pytest.raises(GameError):
            LossMatrix(np.array([[np.inf, 0.0]]))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "losses.csv"
        lm = LossMatrix(INTRO_GAME)
        lm.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "expert_1,expert_2"
        back = LossMatrix.from_csv(path)
        assert np.array_equal(back.values, lm.values)

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(GameError):
            LossMatrix.from_csv(path)


class TestScaledFluctuation:
    def test_plain_division(self):
        assert scaled_fluctuation(1.0, 2.5) == pytest.approx(0.4)

    def test_zero_over_zero(self):
        assert scaled_fluctuation(0.0, 0.0) == 0.0

    def test_prop1_step_value(self):
        # one adversary step with eps = 0.5, v0 = 1: dv = 8, v = 9
        assert scaled_fluctuation(8.0, 9.0) == pytest.approx(1.0 / (1.0 + 0.5 / 4.0))

    def test_rejects_delta_above_volume(self):
        with pytest.raises(GameError):
            scaled_fluctuation(2.0, 1.0)

    def test_rejects_negative(self):
        with pytest.raises(GameError):
            scaled_fluctuation(-1.0, 1.0)


class TestFluctuationBound:
    def test_holds(self):
        ok, step = check_fluctuation_bound([0.1, 0.05], GammaSchedule.constant(0.2))
        assert ok and step is None

    def test_violation_at_first_step(self):
        ok, step = check_fluctuation_bound([0.3], GammaSchedule.constant(0.2))
        assert not ok and step == 1

    def test_prop1_vs_power_gamma(self):
        # adversary game with eps = 0.5 has fluc = 8/9 at every step; the
        # power schedule gamma(t) = 1/t passes at t = 1 and fails at t = 2
        fluc = np.full(5, 8.0 / 9.0)
        ok, step = check_fluctuation_bound(fluc, GammaSchedule.power(1.0))
        assert not ok and step == 2


# the first three steps of a game worked by hand: the volume grows by the
# largest absolute loss of each step
HAND_GAME = np.array([[0.5, 0.0], [0.0, 1.0], [-1.0, 0.0]])


class TestVolumeTrace:
    @pytest.mark.parametrize("shape", [(300, 1), (4096, 2), (50, 30), (0, 3), (2000, 5)])
    def test_delta_v_is_row_max(self, shape):
        values = np.random.default_rng(7).normal(0, 1e3, shape)
        _, delta_v, _ = volume_trace(LossMatrix(values), 1.0)
        ref = np.max(np.abs(values), axis=1)
        for peaks in (delta_v, row_peaks(values)):
            assert peaks.shape == ref.shape and peaks.tobytes() == ref.tobytes()

    def test_initial_state_is_zero(self):
        v, _, _ = volume_trace(LossMatrix(np.zeros((0, 3))), 2.0)
        assert np.array_equal(v, [2.0])

    def test_first_step(self):
        v, delta_v, fluc = volume_trace(LossMatrix(HAND_GAME[:1]), 0.0)
        assert np.array_equal(v, [0.0, 0.5])
        assert np.array_equal(delta_v, [0.5]) and np.array_equal(fluc, [1.0])

    def test_second_step(self):
        v, delta_v, fluc = volume_trace(LossMatrix(HAND_GAME[:2]), 0.0)
        assert np.array_equal(v, [0.0, 0.5, 1.5])
        assert fluc[1] == 1.0 / 1.5

    def test_volume_uses_absolute_value(self):
        v, delta_v, fluc = volume_trace(LossMatrix(HAND_GAME), 0.0)
        assert np.array_equal(v, [0.0, 0.5, 1.5, 2.5])
        assert np.array_equal(delta_v, [0.5, 1.0, 1.0])
        assert np.array_equal(fluc, [1.0, 1.0 / 1.5, 0.4])

    def test_rejects_non_finite(self):
        # alternating losses of 1e307 from v0 = 1: the volume overflows at t = 18
        game = LossMatrix(np.tile([[1e307, 0.0], [0.0, 1e307]], (20, 1)))
        with pytest.raises(GameError, match="step 18"):
            volume_trace(game, 1.0)

    def test_cumulative_dominated_by_volume(self):
        gen = np.random.default_rng(0)
        lm = LossMatrix(gen.uniform(-3, 3, (50, 4)))
        v, _, _ = volume_trace(lm, 0.5)
        assert np.all(np.abs(np.cumsum(lm.values, axis=0)) <= v[1:, None] + 1e-12)

    def test_intro_game_total_volume(self):
        # per-step maxima are (1/2, 1, 1, 1, 1, 1, 1): v_7 = 6.5
        v, delta_v, fluc = volume_trace(LossMatrix(INTRO_GAME), 0.0)
        assert v[-1] == 6.5

    def test_telescoping(self):
        gen = np.random.default_rng(3)
        lm = LossMatrix(gen.uniform(-5, 5, (200, 4)))
        v, delta_v, _ = volume_trace(lm, 1.5)
        assert np.sum(delta_v) == pytest.approx(v[-1] - 1.5, rel=1e-12)

    def test_losses_dominated_by_delta_v(self):
        gen = np.random.default_rng(4)
        lm = LossMatrix(gen.uniform(-5, 5, (100, 3)))
        _, delta_v, _ = volume_trace(lm, 0.0)
        assert np.all(np.abs(lm.values) <= delta_v[:, None] + 1e-15)

    def test_fluc_in_unit_interval(self):
        gen = np.random.default_rng(5)
        lm = LossMatrix(gen.uniform(-5, 5, (100, 3)))
        _, _, fluc = volume_trace(lm, 0.0)
        assert np.all((fluc >= 0) & (fluc <= 1))


_PARAMS = ScheduleParams(a=10.0, num_experts=2, gamma=GammaSchedule.power(1.0), v0=1.0)
# inside the alpha domain at every step: gamma = 0.01 < min(A, 1/A) = 0.041
_ALPHA_PARAMS = ScheduleParams(a=10.0, num_experts=2, gamma=GammaSchedule.constant(0.01))
# A = 2(e^{3/a} - 1) / (a (1 + ln N)) underflows to 0: no alpha domain
_HUGE_A = ScheduleParams(a=1e308, num_experts=2, gamma=GammaSchedule.constant(0.01))
NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call, named", [
    (lambda: scaled_fluctuation(NAN, 1.0),
     r"^delta_v must be a real number in \[0, inf\), got nan"),
    (lambda: scaled_fluctuation(1.0, NAN), r"^v must be a real number in \[0, inf\), got nan"),
    (lambda: scaled_fluctuation(INF, INF), r"^delta_v must be .* got inf"),
    (lambda: check_fluctuation_bound([0.1, NAN], GammaSchedule.power(1.0)), r"fluc\(2\) = nan"),
    (lambda: epsilon_t(_PARAMS, 5, NAN), "got nan"),
    (lambda: epsilon_t(_PARAMS, 5, INF), "got inf"),
    (lambda: probability_ratio_check([0.0, 0.0], [0.0, 0.0], _PARAMS, 5, NAN, 1.0),
     r"^v_prev must be a real number in \[0, inf\), got nan"),
    (lambda: probability_ratio_check([0.0, 0.0], [0.0, 0.0], _PARAMS, 5, 1.0, INF),
     r"^v_t must be a real number in \[0, inf\), got inf"),
    (lambda: regret_bound(_PARAMS, 2, [1.0, 1.0], NAN), "got nan"),
    (lambda: regret_bound(_PARAMS, 2, [1.0, 1.0], -10.0), "got -10.0"),
    (lambda: poly_bound(2, 1024, 0.1, 1.0, NAN), "got nan"),
    (lambda: poly_bound(2, 1024, NAN, 1.0, 1.0), "alpha .* got nan"),
    (lambda: GammaSchedule.power(NAN), "got nan"),
    (lambda: ScheduleParams(a=INF, num_experts=2, gamma=GammaSchedule.power(1.0)), "got inf"),
    (lambda: max_tail_bound(2, NAN), "got nan"),
    (lambda: monte_carlo_regret(INTRO_GAME, _PARAMS, NAN, RngSpec(0)), "got nan"),
    (lambda: selection_probabilities_mc([0.0, 1.0], 1.0, NAN, RngSpec(0)), "got nan"),
    (lambda: as_generator(None), "got None"),
    (lambda: batch_cumulative_losses(INTRO_GAME, _PARAMS, 1, None), "got None"),
    (lambda: selection_probabilities_mc([0.0, 1.0], 1.0, 10, None), "got None"),
    (lambda: fbm_generate(0.5, 10, seed=None), "got None"),
    (lambda: volume_trace(LossMatrix(INTRO_GAME), v0=-5.0), "got -5.0"),
    (lambda: poly_bound(2, NAN, 0.1, 1.0, 1.0), "T .* got nan"),
    (lambda: expected_max_bound(0), "got 0"),
    (lambda: poly_bound(0, 1024, 0.1, 1.0, 1.0), "got 0"),
    (lambda: sample_exponential(0, np.random.default_rng(0)), "got 0"),
    (lambda: random_fluc_bounded_game(0, 5, RngSpec(0)), "got 0"),
    (lambda: bounded_unit_game(0, 5, RngSpec(0)), "got 0"),
    (lambda: random_fluc_bounded_game(2, -1, RngSpec(0)), "got -1"),
    (lambda: prop1_step(1.0, 0.5, 0.0), "got 0.0"),
    (lambda: fbm_generate(0.5, 10, scale=INF), "inf"),
    (lambda: fbm_generate(0.5, 10, drift=NAN), "nan"),
    # v_t - v_prev rounds to v_t, so fluc = 1 = gamma(1) passes the
    # fluctuation check and only the volume check stops a negative rate
    (lambda: probability_ratio_check([0.0, 0.0], [1.0, 0.0], _PARAMS, 1, -1e-20, 1.0),
     r"^v_prev must be a real number in \[0, inf\), got -1e-20"),
    (lambda: as_generator(-1), "rng must be .*, got -1"),
    (lambda: prot_run(INTRO_GAME, _PARAMS, rng=-1), "rng must be .*, got -1"),
    (lambda: fbm_generate(0.5, NAN), "steps must be an integer >= 1, got nan"),
    (lambda: fbm_generate(0.5, 10.5), "steps must be an integer >= 1, got 10.5"),
    (lambda: RngSpec(-1), "seed must be a non-negative integer, got -1"),
    (lambda: RngSpec(0, -1), "stream_id must be a non-negative integer, got -1"),
    (lambda: RngSpec("3"), "seed must be a non-negative integer, got '3'"),
    (lambda: RngSpec(None), "seed must be a non-negative integer, got None"),
    (lambda: RngSpec(True), "seed must be a non-negative integer, got True"),
    (lambda: as_generator(3.9), "rng must be .*, got 3.9"),
    (lambda: as_generator(True), "rng must be .*, got True"),
    (lambda: as_generator("3"), "rng must be .*, got '3'"),
    # the rows below raised GameError already; each keeps one raise covered
    (lambda: choose_a(1e-7), r"no a <= 1000000.0 satisfies the target"),
    (lambda: AdversaryConfig(eps=0.5, horizon=0), "horizon must be an integer >= 1, got 0"),
    (lambda: LossMatrix(np.ones(3)), r"must be 2-d, got shape \(3,\)"),
    (lambda: LossMatrix(np.ones((3, 0))), "need at least one expert"),
    (lambda: scaled_fluctuation(1.0, 0.0), "delta_v > 0 with zero volume"),
    (lambda: random_fluc_bounded_game(2, 5, 0, v0=0.0), r"v0 .* \(0, inf\), got 0.0"),
    (lambda: prot_run(INTRO_GAME, _PARAMS), "provide rng or explicit perturbations"),
    (lambda: prot_run(INTRO_GAME, _PARAMS, rng=0, regime="x"), "unknown perturbation regime 'x'"),
    (lambda: prot_run(lambda t, chosen, cum: [0.0, 0.0], _PARAMS, rng=0),
     "callback games need num_steps"),
    (lambda: batch_cumulative_losses(INTRO_GAME, _PARAMS, 1, 0, regime="x"),
     "unknown perturbation regime 'x'"),
    (lambda: batch_cumulative_losses(np.ones((4, 3)), _PARAMS, 1, 0),
     "params expect 2 experts, game has 3"),
    (lambda: probability_ratio_check([0.0, 0.0], [0.0, 0.0], _PARAMS, 5, 2.0, 1.0),
     "volume decreased"),
    # min(A, 1/A) was formed from A = 0.0: a bare ZeroDivisionError
    (lambda: _HUGE_A.require_alpha_domain(1), r"min\(A, 1/A\) = 0; alpha_t leaves"),
    (lambda: alpha_t(_HUGE_A, 1), r"min\(A, 1/A\) = 0; alpha_t leaves"),
    (lambda: general_bound(_HUGE_A, 2, [1.0, 1.0]), r"min\(A, 1/A\) = 0; alpha_t leaves"),
    # eps s overflowed with a RuntimeWarning, and an infinite score was
    # chosen around
    (lambda: prot_select([2.0, 1.0, 1.0], 1e308, [1.0, 1.0, 1.0]),
     r"eps \* s must be finite, got eps = 1e\+308"),
    (lambda: prot_select([INF, 0.0], 1.0, [0.0, 0.0]), r"eps \* s must be finite"),
    (lambda: selection_probabilities_mc([2.0, 1.0], 1e308, 10, RngSpec(0)),
     r"eps \* s must be finite"),
], ids=["fluc-nan-delta", "fluc-nan-volume", "fluc-inf", "fluc-bound-nan", "eps-nan-volume",
        "eps-inf-volume", "ratio-nan-volume", "ratio-inf-volume", "regret-nan-eps",
        "regret-negative-eps", "poly-nan-eps", "poly-nan-alpha", "power-nan-delta",
        "params-inf-a", "tail-nan-threshold", "mc-nan-runs", "mc-select-nan-samples",
        "rng-none", "batch-none-rng", "mc-select-none-rng", "fbm-none-seed",
        "volume-negative-v0", "poly-nan-horizon", "expected-max-no-experts",
        "poly-no-experts", "exponential-no-draws", "random-game-no-experts",
        "bounded-game-no-experts", "random-game-negative-steps", "prop1-zero-eps",
        "fbm-inf-scale", "fbm-nan-drift", "ratio-negative-v-prev", "rng-negative-seed",
        "prot-negative-seed", "fbm-nan-steps", "fbm-fractional-steps", "rngspec-negative-seed",
        "rngspec-negative-stream", "rngspec-string-seed", "rngspec-none-seed",
        "rngspec-bool-seed", "rng-float-seed", "rng-bool-seed", "rng-string-seed",
        "choose-a-unreachable", "adversary-no-horizon",
        "loss-matrix-1d", "loss-matrix-no-experts", "fluc-zero-volume",
        "random-game-zero-v0", "prot-no-rng", "prot-unknown-regime", "prot-callback-no-steps",
        "batch-unknown-regime", "batch-expert-mismatch", "ratio-volume-decreased",
        "huge-a-alpha-domain", "huge-a-alpha-t", "huge-a-general-bound",
        "select-overflowing-rate", "select-infinite-score", "mc-select-overflowing-rate"])
def test_non_finite_inputs_raise_naming_the_value(call, named):
    # each of these returned nan, passed, warned, or raised a misleading or
    # bare numpy or Python error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(GameError, match=named):
            call()


# every count and seed the library reads, each as a call on that one value;
# a call returns what a numpy integer must reproduce bit for bit
_COUNTS = {
    "rngspec-seed": lambda k: RngSpec(k).generator().random(3),
    "rngspec-stream": lambda k: RngSpec(0, k).generator().random(3),
    "params-experts": lambda k: ScheduleParams(a=10.0, num_experts=k,
                                               gamma=GammaSchedule.power(1.0)).coef_A,
    "expected-max-experts": lambda k: expected_max_bound(k),
    "tail-experts": lambda k: max_tail_bound(k, 1.0),
    "fbm-steps": lambda k: fbm_generate(0.5, k).prices,
    "seeds-list": lambda k: parse_seeds([k]),
    "seeds-count": lambda k: parse_seeds({"count": k}),
    "seeds-base": lambda k: parse_seeds({"count": 1, "base": k}),
    "random-game-experts": lambda k: random_fluc_bounded_game(k, 3, RngSpec(0)).values,
    "random-game-steps": lambda k: random_fluc_bounded_game(2, k, RngSpec(0)).values,
    "bounded-game-experts": lambda k: bounded_unit_game(k, 3, RngSpec(0)).values,
    "bounded-game-steps": lambda k: bounded_unit_game(2, k, RngSpec(0)).values,
    "poly-game-experts": lambda k: poly_envelope_game(k, 3, RngSpec(0)).values,
    "poly-game-steps": lambda k: poly_envelope_game(2, k, RngSpec(0)).values,
    "batch-runs": lambda k: batch_cumulative_losses(INTRO_GAME, _PARAMS, k, RngSpec(0)),
    "mc-runs": lambda k: monte_carlo_regret(INTRO_GAME, _PARAMS, k, RngSpec(0)),
    "mc-select-samples": lambda k: selection_probabilities_mc([0.0, 1.0], 1.0, k, RngSpec(0)),
    "exponential-draws": lambda k: sample_exponential(k, np.random.default_rng(0)),
    "adversary-horizon": lambda k: prop1_run(prot_probability_callback(_PARAMS),
                                             AdversaryConfig(eps=0.5, horizon=k)).p1,
    "callback-steps": lambda k: prot_run(lambda t, chosen, cum: [1.0, 0.0], _PARAMS, rng=0,
                                         num_steps=k).cum_loss,
}


@pytest.mark.parametrize("name", list(_COUNTS))
@pytest.mark.parametrize("value", [2.5, True, "2", -1])
def test_counts_and_seeds_are_integers(name, value):
    # a float, bool or string was cast or passed, or failed in numpy with a
    # bare TypeError; a negative count failed there too, or ran no steps
    with pytest.raises(GameError, match=f"got .*{re.escape(repr(value))}"):
        _COUNTS[name](value)


@pytest.mark.parametrize("name", list(_COUNTS))
def test_numpy_integer_counts_give_the_bits_of_python_ints(name):
    got, want = (np.asarray(_COUNTS[name](k)) for k in (np.int64(2), 2))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# every real parameter the library reads, each as a call on that one value,
# with a valid value; a call returns what a numpy float must reproduce bit
# for bit
_PRICES = PriceSeries([1.0, 1.5, 0.5, 2.0])
_REALS = {
    "params-a": (lambda x: ScheduleParams(a=x, num_experts=2,
                                          gamma=GammaSchedule.power(1.0)).target_eps, 10.0),
    "params-v0": (lambda x: ScheduleParams(a=10.0, num_experts=2, gamma=GammaSchedule.power(1.0),
                                           v0=x).v0, 1.0),
    "power-delta": (lambda x: GammaSchedule.power(x).values(np.arange(1, 5)), 0.7),
    "constant-c": (lambda x: GammaSchedule.constant(x).values(np.arange(1, 5)), 0.3),
    "table-entry": (lambda x: GammaSchedule.from_table([1.0, x]).values(np.arange(1, 3)), 0.3),
    "choose-a-eps": (choose_a, 1.0),
    "regret-eps": (lambda x: regret_bound(_PARAMS, 2, [1.0, 1.0], x), 1.0),
    "poly-bound-horizon": (lambda x: poly_bound(2, x, 0.1, 1.0, 1.0), 100.0),
    "poly-bound-alpha": (lambda x: poly_bound(2, 100, x, 1.0, 1.0), 0.1),
    "poly-bound-delta": (lambda x: poly_bound(2, 100, 0.1, x, 1.0), 0.7),
    "adversary-eps": (lambda x: prop1_run(prot_probability_callback(_PARAMS),
                                          AdversaryConfig(eps=x, horizon=3)).p1, 0.5),
    "adversary-v0": (lambda x: prop1_run(lambda t, cum, v: 0.5,
                                         AdversaryConfig(eps=0.5, v0=x, horizon=3)).v, 1.5),
    "trading-c": (lambda x: learner_gain(_PRICES, TradingConfig(c=x, schedule=ScheduleParams(
        a=10.0, num_experts=2, gamma=GammaSchedule.constant(0.5), v0=1.0)))[1], 0.7),
    "fbm-hurst": (lambda x: fbm_generate(x, 8).prices, 0.7),
    "fbm-scale": (lambda x: fbm_generate(0.5, 8, scale=x).prices, 0.7),
    "fbm-drift": (lambda x: fbm_generate(0.5, 8, drift=x).prices, 0.7),
    "fbm-s0": (lambda x: fbm_generate(0.5, 8, s0=x).prices, 0.7),
    "random-game-v0": (lambda x: random_fluc_bounded_game(2, 5, RngSpec(0), v0=x).values, 1.5),
    "random-game-delta": (lambda x: random_fluc_bounded_game(2, 5, RngSpec(0), delta=x).values,
                          0.7),
    "poly-game-exponent": (lambda x: poly_envelope_game(2, 5, RngSpec(0), exponent=x).values,
                           0.7),
    "volume-v0": (lambda x: volume_trace(LossMatrix(INTRO_GAME), v0=x)[0], 1.5),
    "tail-threshold": (lambda x: max_tail_bound(2, x), 1.5),
    "gains-c": (lambda x: expert_gains(_PRICES, x)[0], 0.7),
    "ratio-slack": (lambda x: probability_ratio_check([0.0, 0.0], [0.01, 0.0], _ALPHA_PARAMS, 3,
                                                      1.0, 1.01, slack=x), 1e-9),
}


@pytest.mark.parametrize("name", list(_REALS))
@pytest.mark.parametrize("value", ["2", True, None, [1.0], NAN, INF, -INF],
                         ids=["string", "bool", "none", "list", "nan", "inf", "minus-inf"])
def test_reals_are_finite_numbers(name, value):
    # a string or bool was cast or compared, NaN and inf passed some of
    # these, and None or a list failed with a bare TypeError
    named = f"must be a real number in .*, got {re.escape(repr(value))}$"
    with pytest.raises(GameError, match=named):
        _REALS[name][0](value)


@pytest.mark.parametrize("name", list(_REALS))
def test_numpy_reals_give_the_bits_of_python_floats(name):
    call, valid = _REALS[name]
    want = np.asarray(call(valid))
    # a numpy float, a 0-d array, and an int where the value is integral
    for x in [np.float64(valid), np.array(valid)] + [int(valid)] * (valid == int(valid)):
        got = np.asarray(call(x))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# every step index and horizon the library reads, each as a call on that
# one value, with the least valid value; a call returns what a numpy integer
# must reproduce bit for bit.  The name is what the error message names.
_TABLE = GammaSchedule.from_table([0.5, 0.25, 0.125])
_STEPS = {
    "power-gamma": (lambda t: GammaSchedule.power(1.0)(t), 1, "step index"),
    "power-gamma-values": (lambda t: GammaSchedule.power(1.0).values([t]), 1, "step index"),
    "table-gamma": (lambda t: _TABLE(t), 1, "step index"),
    "table-gamma-values": (lambda t: _TABLE.values([t]), 1, "step index"),
    "constant-gamma": (lambda t: GammaSchedule.constant(0.3)(t), 1, "step index"),
    "mu-t": (lambda t: mu_t(_PARAMS, t), 1, "step index"),
    "epsilon-t": (lambda t: epsilon_t(_PARAMS, t, 1.0), 1, "step index"),
    "alpha-t": (lambda t: alpha_t(_ALPHA_PARAMS, t), 1, "step index"),
    "alpha-domain-ok": (lambda t: _ALPHA_PARAMS.alpha_domain_ok(t), 1, "step index"),
    "require-alpha-domain": (lambda t: _ALPHA_PARAMS.require_alpha_domain(t), 1, "step index"),
    "ratio-check": (lambda t: probability_ratio_check([0.0, 0.0], [0.01, 0.0], _ALPHA_PARAMS, t,
                                                      1.0, 1.01), 1, "step index"),
    "prot-callback": (lambda t: prot_probability_callback(_PARAMS)(t, np.array([0.0, 1.0]), 1.0),
                      1, "step index"),
    "loss-row": (lambda t: LossMatrix(INTRO_GAME).row(t), 1, "t"),
    "mu-values-horizon": (lambda T: mu_values(_PARAMS, T), 0, "T"),
    "regret-bound-horizon": (lambda T: regret_bound(_PARAMS, T, [1.0, 0.5], 1.0), 0, "T"),
    "optimized-bound-horizon": (lambda T: optimized_bound(_PARAMS, T, [1.0, 0.5]), 0, "T"),
    "general-bound-horizon": (lambda T: general_bound(_ALPHA_PARAMS, T, [1.0, 0.5]), 0, "T"),
    "batch-checkpoint": (lambda c: batch_cumulative_losses(INTRO_GAME, _PARAMS, 3, RngSpec(0),
                                                           checkpoints=[c]), 1, "checkpoints"),
    "mc-checkpoint": (lambda c: monte_carlo_regret(INTRO_GAME, _PARAMS, 3, RngSpec(0),
                                                   checkpoints=[1, c]), 1, "checkpoints"),
}
_STEP_ROWS = [(name, value) for name, (_, low, _) in _STEPS.items()
              for value in [2.5, True, "2", np.float64(2.0), -1] + [0] * low]
# a checkpoint past the game's 7 steps, and a 2-d checkpoint list
_STEP_ROWS += [("batch-checkpoint", 8), ("mc-checkpoint", 8), ("loss-row", 8),
               ("batch-checkpoint", [2]), ("mc-checkpoint", [2])]


@pytest.mark.parametrize("name, value", _STEP_ROWS,
                         ids=[f"{name}-{value!r}" for name, value in _STEP_ROWS])
def test_steps_and_horizons_are_integers(name, value):
    # each returned a value built on the float, bool or string (gamma(2.5)
    # = 0.4), raised a bare TypeError, read row 0 as the last row, ran no
    # steps for T = -1, or read checkpoints [1.5] as step 1
    call, _, named = _STEPS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # the array form names the entry as a Python number: 2.0, not np.float64(2.0)
        with pytest.raises(GameError, match=f"^{named} .*got .*{re.escape(str(value))}"):
            call(value)


@pytest.mark.parametrize("name", list(_STEPS))
def test_numpy_integer_steps_give_the_bits_of_python_ints(name):
    want = np.asarray(_STEPS[name][0](2))
    for t in (np.int64(2), np.int32(2), np.uint8(2)):
        got = np.asarray(_STEPS[name][0](t))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("value", [1, 3, 4, 0, -1, 2.5, 3.0, True, False, "2", None,
                                   np.float64(2.0), np.int64(3), np.uint8(2)])
@pytest.mark.parametrize("gamma", [GammaSchedule.power(1.0), _TABLE], ids=["power", "table"])
def test_gamma_values_rejects_what_the_call_rejects(gamma, value):
    # the array form took a float step array as its integer parts
    def outcome(call):
        try:
            return call().tolist()
        except GameError as exc:
            return type(exc)
    assert outcome(lambda: gamma.values([value])) == outcome(lambda: np.array([gamma(value)]))
