import numpy as np
import pytest

from volfpl import (
    GameError,
    LossMatrix,
    GammaSchedule,
    check_fluctuation_bound,
    scaled_fluctuation,
    volume_trace,
)

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
