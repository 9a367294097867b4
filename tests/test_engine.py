import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volfpl import engine
from volfpl import (
    GameError,
    GammaSchedule,
    LossMatrix,
    RngSpec,
    RunRecord,
    ScheduleParams,
    batch_cumulative_losses,
    choose_a,
    epsilon_t,
    ifpl_run,
    monte_carlo_regret,
    mu_values,
    probability_ratio_check,
    prot_run,
    prot_select,
    selection_probabilities_exact,
    selection_probabilities_mc,
)

INTRO_GAME = np.array(
    [[0.5, 0], [0, 1], [1, 0], [0, 1], [1, 0], [0, 1], [1, 0]], dtype=float
)

# alternating losses of 1e307 from v0 = 1: the volume overflows at t = 18
OVERFLOW_GAME = np.tile([[1e307, 0.0], [0.0, 1e307]], (20, 1))


def power_params(n=2, a=None, **kw):
    a = choose_a(1.0) if a is None else a
    return ScheduleParams(a=a, num_experts=n, gamma=GammaSchedule.power(1.0), **kw)


class TestProtSelect:
    def test_perturbed_argmin(self):
        # scores: 3 - 2/0.5 = -1 vs 5 - 1/0.5 = 3
        assert prot_select([3.0, 5.0], 0.5, [2.0, 1.0]) == 0
        assert prot_select([3.0, 5.0], 0.5, [0.0, 4.0]) == 1

    def test_infinite_rate_is_follow_the_leader(self):
        assert prot_select([3.0, 5.0], math.inf, [0.0, 100.0]) == 0

    def test_tie_goes_to_lowest_index(self):
        assert prot_select([1.0, 1.0, 1.0], math.inf, [0.0, 0.0, 0.0]) == 0

    def test_shape_mismatch(self):
        with pytest.raises(GameError):
            prot_select([1.0, 2.0], 1.0, [0.0])


class TestRunLoops:
    def test_ftl_intro_game(self):
        # with zero perturbations the rule is follow-the-leader, which loses
        # every round of the alternating game: learner 6.5 vs best expert 3.0
        p = power_params(v0=0.0)
        rec = prot_run(INTRO_GAME, p, perturbations=np.zeros((7, 2)))
        assert rec.total_loss == 6.5
        assert rec.v[-1] == 6.5
        assert float(np.min(rec.expert_cum)) == 3.0
        assert rec.regret == 3.5

    def test_zero_volume_start_uses_ftl(self):
        p = power_params(v0=0.0)
        rec = prot_run(INTRO_GAME, p, rng=RngSpec(0))
        assert math.isinf(rec.eps[0])
        assert rec.chosen[0] == 0

    def test_reproducible(self):
        p = power_params(v0=1.0)
        a = prot_run(INTRO_GAME, p, rng=RngSpec(5))
        b = prot_run(INTRO_GAME, p, rng=RngSpec(5))
        assert np.array_equal(a.chosen, b.chosen)
        assert np.array_equal(a.perturbations, b.perturbations)

    def test_once_regime_reuses_perturbation(self):
        p = power_params(v0=1.0)
        rec = prot_run(INTRO_GAME, p, rng=RngSpec(2), regime="once")
        assert np.all(rec.perturbations == rec.perturbations[0])

    def test_trace_bookkeeping(self):
        gen = np.random.default_rng(8)
        losses = gen.uniform(-2, 2, (50, 3))
        p = power_params(n=3, v0=1.0)
        rec = prot_run(losses, p, rng=RngSpec(1))
        assert np.allclose(np.diff(rec.v), rec.delta_v[1:])
        assert rec.v[0] == p.v0 + rec.delta_v[0]
        assert np.allclose(np.cumsum(rec.loss), rec.cum_loss)
        assert np.allclose(rec.fluc, rec.delta_v / rec.v)

    def test_ifpl_sees_current_loss(self):
        # step-1 losses (10, 0): under zero perturbations the infeasible run
        # already sees them and picks expert 2, while the feasible run breaks
        # the pre-step tie at index 0 and eats the loss of 10
        losses = np.array([[10.0, 0.0], [0.0, 0.0]])
        p = power_params(v0=1.0)
        infeasible = ifpl_run(losses, p, perturbations=np.zeros((2, 2)))
        feasible = prot_run(losses, p, perturbations=np.zeros((2, 2)))
        assert infeasible.chosen[0] == 1 and infeasible.loss[0] == 0.0
        assert feasible.chosen[0] == 0 and feasible.loss[0] == 10.0

    def test_callback_game(self):
        # adaptive adversary: charge 1 to whatever the learner picked last
        def step(t, history, cum):
            s = np.zeros(2)
            if history:
                s[history[-1]] = 1.0
            return s

        p = power_params(v0=1.0)
        rec = prot_run(step, p, rng=RngSpec(3), num_steps=20, num_experts=2)
        assert rec.num_steps == 20
        assert np.all(rec.delta_v <= 1.0)

    def test_run_record_csv(self, tmp_path):
        p = power_params(v0=1.0)
        rec = prot_run(INTRO_GAME, p, rng=RngSpec(0))
        path = tmp_path / "trace.csv"
        rec.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,chosen,loss,cum_loss,v,delta_v,fluc,mu,eps"
        assert len(lines) == 8

    def test_expert_count_mismatch(self):
        with pytest.raises(GameError):
            prot_run(INTRO_GAME, power_params(n=3), rng=RngSpec(0))

    def test_callback_rejects_length_mismatch(self):
        with pytest.raises(GameError, match="step 1"):
            prot_run(lambda t, history, cum: np.ones(3), power_params(v0=1.0), rng=RngSpec(0),
                     num_steps=4, num_experts=2)

    @pytest.mark.parametrize("run", [prot_run, ifpl_run])
    @pytest.mark.parametrize("regime", ["per-step", "once"])
    @pytest.mark.parametrize("v0", [0.0, 0.3])
    def test_callback_replay_is_bit_identical(self, run, regime, v0):
        # a callback that replays a matrix goes through the step loop, the
        # matrix through one vectorized selection; v0 = 0 starts PROT with
        # an infinite rate
        losses = LossMatrix(np.random.default_rng(31).uniform(-2, 2, (300, 4)))
        p = power_params(n=4, v0=v0)
        matrix = run(losses, p, rng=RngSpec(7), regime=regime)
        replay = run(lambda t, history, cum: losses.row(t), p, rng=RngSpec(7), regime=regime,
                     num_steps=300, num_experts=4)
        for f in dataclasses.fields(RunRecord):
            assert np.array_equal(getattr(matrix, f.name), getattr(replay, f.name)), f.name

    @pytest.mark.parametrize("callback", [False, True])
    def test_exact_tie_of_scaled_scores(self, callback):
        # at step 2, eps*s - xi is (0, 0) exactly while s - xi/eps rounds
        # expert 2 below expert 1: both paths apply the first form and
        # break the tie to expert 1
        p = power_params(v0=1.0)
        mu2 = mu_values(p, 2)[1]
        for d in np.linspace(1.0, 2.0, 10001):
            eps = 1.0 / (mu2 * (1.0 + d))
            x = eps * d
            if d - x / eps < 0:
                break
        else:
            pytest.fail("no step where the two forms round apart")
        losses = np.array([[0.0, d], [1.0, 1.0]])
        game = (lambda t, history, cum: losses[t - 1]) if callback else losses
        rec = prot_run(game, p, perturbations=[[0.0, 0.0], [0.0, x]], num_steps=2,
                       num_experts=2)
        assert rec.eps[1] == eps
        assert rec.chosen[1] == 0

    @pytest.mark.parametrize("run", [prot_run, ifpl_run])
    def test_volume_overflow_raises(self, run):
        p = power_params(v0=1.0)
        with pytest.raises(GameError, match="step 18"):
            run(OVERFLOW_GAME, p, rng=RngSpec(0))
        with pytest.raises(GameError, match="step 18"):
            run(lambda t, history, cum: OVERFLOW_GAME[t - 1], p, rng=RngSpec(0),
                num_steps=40, num_experts=2)


class TestExactProbabilities:
    def test_two_expert_reference(self):
        # s = (3, 5), eps = 0.5: d = -1, P{I=1} = 1 - e^{-1}/2
        p = selection_probabilities_exact([3.0, 5.0], 0.5)
        assert p[0] == pytest.approx(0.8160603, abs=1e-6)
        assert p.sum() == pytest.approx(1.0)

    def test_symmetric_case(self):
        p = selection_probabilities_exact([1.0, 1.0], 2.0)
        assert np.allclose(p, [0.5, 0.5])

    def test_single_expert(self):
        assert selection_probabilities_exact([4.0], 1.0)[0] == 1.0

    @pytest.mark.parametrize("n", [3, 8, 20])
    def test_three_experts_vs_direct_integral(self, n):
        from scipy import integrate

        s = np.array([0.0, 0.7, -0.4]) if n == 3 else np.random.default_rng(n).normal(0, 1, n)
        eps = 1.3

        def p_direct(j):
            d = eps * (np.delete(s, j) - s[j])
            # the integrand vanishes below x0 and is smooth above it
            x0 = max(0.0, float(np.max(-d)))

            def f(x):
                fac = 1 - np.exp(-(d + x))
                if np.any(fac <= 0):
                    return 0.0
                return math.exp(-x) * float(np.prod(fac))

            val, _ = integrate.quad(f, x0, np.inf, limit=200)
            return val

        p = selection_probabilities_exact(s, eps)
        for j in range(n):
            assert p[j] == pytest.approx(p_direct(j), abs=1e-9)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_shift_invariance(self):
        # probabilities depend on score differences only
        gen = np.random.default_rng(13)
        for _ in range(50):
            n = int(gen.integers(2, 8))
            s = gen.normal(0, 3, n)
            eps = float(gen.uniform(0.1, 2.0))
            c = float(gen.normal(0, 10))
            assert np.allclose(
                selection_probabilities_exact(s, eps),
                selection_probabilities_exact(s + c, eps),
                atol=1e-12,
            )

    def test_scale_invariance(self):
        # scaling scores by k and the rate by 1/k leaves selection unchanged
        s = np.array([1.0, 2.5, 0.3])
        assert np.allclose(
            selection_probabilities_exact(s, 0.8),
            selection_probabilities_exact(4 * s, 0.2),
            atol=1e-12,
        )

    def test_large_n_quadrature_path(self):
        gen = np.random.default_rng(14)
        s = gen.normal(0, 1, 15)
        p = selection_probabilities_exact(s, 0.7)
        assert p.sum() == pytest.approx(1.0, abs=1e-7)
        assert np.all(p >= 0)
        assert np.argmax(p) == np.argmin(s)

    def test_rejects_bad_eps(self):
        with pytest.raises(GameError):
            selection_probabilities_exact([1.0, 2.0], math.inf)

    def test_rejects_bad_eps_entry(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(GameError):
                selection_probabilities_exact(np.zeros((3, 2)), np.array([1.0, bad, 1.0]))

    def test_rejects_nan_score(self):
        with pytest.raises(GameError):
            selection_probabilities_exact([math.nan, 0.0], 1.0)

    def test_rejects_infinite_scores(self):
        with pytest.raises(GameError):
            selection_probabilities_exact([math.inf, math.inf, 0.0], 1.0)

    def test_extreme_spread(self):
        p = selection_probabilities_exact([0.0, 1e300, 2e300], 1e10)
        assert np.array_equal(p, [1.0, 0.0, 0.0])

    def test_batched_matches_rows(self):
        gen = np.random.default_rng(15)
        s = gen.normal(0, 3, (40, 6))
        eps = gen.uniform(0.1, 2.0, 40)
        rows = np.array([selection_probabilities_exact(s[t], eps[t]) for t in range(40)])
        np.testing.assert_allclose(selection_probabilities_exact(s, eps), rows, rtol=0, atol=1e-15)


def _score_vectors(elements):
    return st.lists(elements, min_size=1, max_size=30).map(np.array)


# Scores whose pairwise differences stay normal floats under 2^-30 scaling.
_MODERATE_SCORES = st.floats(-1e6, 1e6, allow_subnormal=False).filter(
    lambda x: x == 0 or abs(x) >= 1e-100)


class TestExactProbabilityProperties:
    @settings(deadline=None)
    @given(s=_score_vectors(st.floats(allow_nan=False, allow_infinity=False)),
           eps=st.floats(1e-6, 1e6))
    def test_probabilities_sum_to_one(self, s, eps):
        p = selection_probabilities_exact(s, eps)
        assert np.all((p >= 0) & (p <= 1))
        assert abs(float(p.sum()) - 1.0) <= 1e-12

    @settings(deadline=None)
    @given(s=_score_vectors(_MODERATE_SCORES), eps=st.floats(1e-3, 1e3),
           k=st.integers(-30, 30))
    def test_power_of_two_scale_is_bit_identical(self, s, eps, k):
        assert np.array_equal(
            selection_probabilities_exact(s, eps),
            selection_probabilities_exact(np.ldexp(s, k), math.ldexp(eps, -k)),
        )

    @settings(deadline=None)
    @given(s=_score_vectors(st.floats(-100, 100)), eps=st.floats(0.01, 10),
           c=st.floats(-100, 100))
    def test_shift_changes_little(self, s, eps, c):
        diff = selection_probabilities_exact(s, eps) - selection_probabilities_exact(s + c, eps)
        assert np.max(np.abs(diff)) <= 1e-12

    @settings(deadline=None)
    @given(s=_score_vectors(st.floats(allow_nan=False, allow_infinity=False)),
           eps=st.floats(1e-6, 1e6))
    def test_leader_is_most_likely(self, s, eps):
        p = selection_probabilities_exact(s, eps)
        assert p[np.argmin(s)] == np.max(p)


@st.composite
def _selection_rows(draw):
    """Scores (R, N), rates (R,) with some infinite, draws (2, R, N)."""
    r, n = draw(st.integers(1, 6)), draw(st.integers(1, 30))
    s = draw(st.lists(_MODERATE_SCORES, min_size=r * n, max_size=r * n))
    eps = draw(st.lists(st.floats(1e-3, 1e3) | st.just(math.inf), min_size=r, max_size=r))
    xi = draw(st.lists(st.floats(0, 50), min_size=2 * r * n, max_size=2 * r * n))
    return np.reshape(s, (r, n)), np.array(eps), np.reshape(xi, (2, r, n))


class TestProtSelectProperties:
    @settings(deadline=None)
    @given(rows=_selection_rows(), k=st.integers(-30, 30))
    def test_power_of_two_scale_keeps_choice(self, rows, k):
        s, eps, xi = rows
        for r in range(len(s)):
            assert prot_select(s[r], eps[r], xi[0, r]) == prot_select(
                np.ldexp(s[r], k), math.ldexp(eps[r], -k), xi[0, r])

    @settings(deadline=None)
    @given(rows=_selection_rows())
    def test_batched_matches_rows(self, rows):
        s, eps, xi = rows
        batched = prot_select(s, eps, xi)
        assert batched.shape == xi.shape[:-1]
        for j in range(xi.shape[0]):
            for r in range(len(s)):
                assert batched[j, r] == prot_select(s[r], eps[r], xi[j, r])


class TestMcProbabilities:
    def test_agrees_with_exact(self):
        s = [0.0, 1.0, -0.5]
        eps = 0.9
        exact = selection_probabilities_exact(s, eps)
        mc = selection_probabilities_mc(s, eps, 400_000, RngSpec(6))
        se = np.sqrt(exact * (1 - exact) / 400_000)
        assert np.all(np.abs(mc - exact) <= 4 * se + 1e-12)

    def test_sums_to_one(self):
        mc = selection_probabilities_mc([0.0, 2.0], 1.0, 1000, RngSpec(0))
        assert mc.sum() == pytest.approx(1.0)


class TestProbabilityRatio:
    def valid_params(self):
        return ScheduleParams(a=10.0, num_experts=3, gamma=GammaSchedule.constant(0.02),
                              v0=5.0)

    def test_holds_on_random_steps(self):
        p = self.valid_params()
        gen = np.random.default_rng(19)
        g = p.gamma(1)
        for t in range(1, 101):
            cum = gen.normal(0, 2, 3)
            v_prev = float(gen.uniform(5, 50))
            # keep the fluctuation inside the schedule: dv <= g v / (1 - g)
            dv = float(gen.uniform(0, g * v_prev / (1 - g)))
            s_t = gen.uniform(-1, 1, 3)
            s_t *= dv / max(np.max(np.abs(s_t)), 1e-12)
            assert probability_ratio_check(cum, s_t, p, t, v_prev, v_prev + dv)

    def test_rejects_fluc_violation(self):
        p = self.valid_params()
        with pytest.raises(GameError):
            probability_ratio_check([0.0, 0.0, 0.0], [5.0, 0.0, 0.0], p, 1, 5.0, 10.0)


class TestBatchMonteCarlo:
    def test_matches_sequential_runs(self):
        # the vectorized path must agree in distribution with prot_run; with
        # matched sample counts on a small game the means coincide within SE
        gen = np.random.default_rng(23)
        losses = gen.uniform(-1, 1, (40, 3))
        p = ScheduleParams(a=choose_a(1.0), num_experts=3,
                           gamma=GammaSchedule.power(1.0), v0=1.0)
        runs = 3000
        batch = batch_cumulative_losses(losses, p, runs, RngSpec(1))
        seq = np.array([
            prot_run(losses, p, rng=RngSpec(100 + k)).total_loss for k in range(400)
        ])
        se = math.hypot(batch.std() / math.sqrt(runs), seq.std() / math.sqrt(len(seq)))
        assert abs(batch.mean() - seq.mean()) <= 4 * se

    def test_checkpoints_shape(self):
        losses = np.random.default_rng(1).uniform(0, 1, (32, 2))
        p = power_params(v0=1.0)
        out = batch_cumulative_losses(losses, p, 10, RngSpec(0), checkpoints=[8, 16, 32])
        assert out.shape == (10, 3)
        # cumulative losses are nondecreasing for nonnegative games
        assert np.all(np.diff(out, axis=1) >= 0)

    def test_chunking_is_bit_exact(self, monkeypatch):
        losses = np.random.default_rng(2).uniform(-1, 1, (64, 4))
        p = power_params(n=4, v0=1.0)
        full = batch_cumulative_losses(losses, p, 500, RngSpec(9))
        monkeypatch.setattr(engine, "_MAX_CHUNK_ELEMS", 64 * 4 * 7)
        small = batch_cumulative_losses(losses, p, 500, RngSpec(9))
        assert np.array_equal(full, small)

    @pytest.mark.parametrize("infeasible", [False, True])
    @pytest.mark.parametrize("regime", ["per-step", "once"])
    def test_single_run_matches_prot_run(self, infeasible, regime):
        losses = np.random.default_rng(4).uniform(-1, 1, (200, 3))
        p = power_params(n=3, v0=1.0)
        run = ifpl_run if infeasible else prot_run
        rec = run(losses, p, rng=RngSpec(12), regime=regime)
        batch = batch_cumulative_losses(losses, p, 1, RngSpec(12), regime=regime,
                                        infeasible=infeasible)
        assert rec.cum_loss[-1] == batch[0, 0]

    def test_volume_overflow_raises(self):
        with pytest.raises(GameError, match="step 18"):
            monte_carlo_regret(OVERFLOW_GAME, power_params(v0=1.0), 10, RngSpec(0))

    def test_monte_carlo_regret_scalar(self):
        losses = np.random.default_rng(3).uniform(0, 1, (64, 2))
        p = power_params(v0=1.0)
        mean, se = monte_carlo_regret(losses, p, 2000, RngSpec(4))
        assert isinstance(mean, float) and se > 0
