import dataclasses
import decimal
import math
import re
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    inverse_exponential_cdf,
    monte_carlo_regret,
    mu_values,
    probability_ratio_check,
    prot_run,
    prot_select,
    random_fluc_bounded_game,
    selection_probabilities_exact,
    selection_probabilities_mc,
)
from volfpl.game import row_peaks, volume_trace
from test_exact_reference import reference_selection_probabilities_exact

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

    def test_leading_shapes_that_do_not_broadcast(self):
        # these used to fail with numpy's bare "operands could not be broadcast"
        with pytest.raises(GameError, match=r"\(2, 2\), rates of shape \(3,\) and "
                                             r"perturbations of shape \(2,\)"):
            prot_select([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0, 3.0], [0.0, 0.0])
        with pytest.raises(GameError, match="do not broadcast"):
            prot_select(np.zeros((2, 2)), 1.0, np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_perturbation_raises(self, bad):
        xi = np.zeros((4, 2))
        xi[2, 1] = bad
        with pytest.raises(GameError, match=r"index \(2, 1\)"):
            prot_select(np.zeros((4, 2)), 1.0, xi)
        with pytest.raises(GameError, match="finite"):
            prot_select([0.0, 1.0], math.inf, [bad, 0.0])

    @pytest.mark.parametrize("s, eps", [
        ([0.0, math.nan], 1.0), ([math.nan, 0.0, 1.0], math.inf), ([0.0, 1.0], math.nan),
        ([0.0, math.inf], 0.0), ([0.0, 1.0], -1.0), ([], 1.0),
    ])
    def test_nan_score_or_bad_rate_raises(self, s, eps):
        # each would give a NaN score, where the two-expert compare and
        # np.argmin can disagree; no experts leave nothing to choose
        with pytest.raises(GameError, match="NaN" if s else "need at least one expert"):
            prot_select(s, eps, np.zeros(len(s)))


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
        rec = prot_run(step, p, rng=RngSpec(3), num_steps=20)
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

    @pytest.mark.parametrize("run", [prot_run, ifpl_run])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_perturbations_raise(self, run, bad):
        # a NaN draw used to pass: [[nan, 0], [0, nan]] chose [0, 1]
        p = power_params(v0=1.0)
        with pytest.raises(GameError, match="step 1"):
            run([[1.0, 0.0], [0.0, 1.0]], p, perturbations=[[bad, 0.0], [0.0, bad]])
        xi = np.zeros((7, 2))
        xi[4, 0] = bad
        with pytest.raises(GameError, match="step 5"):
            run(INTRO_GAME, p, perturbations=xi)
        with pytest.raises(GameError, match="step 5"):
            run(lambda t, history, cum: INTRO_GAME[t - 1], p, perturbations=xi, num_steps=7)
        with pytest.raises(GameError, match="step 1"):
            run(INTRO_GAME, p, regime="once", perturbations=[0.0, bad])

    @pytest.mark.parametrize("run", [prot_run, ifpl_run])
    @pytest.mark.parametrize("shape", [(7, 2), (7, 1), (2, 2), (1,), (3,), (2, 1), (1, 2, 1)])
    def test_once_perturbations_take_one_value_per_expert(self, run, shape):
        # a (T, N) table or a (T, 1) column used to be broadcast and played
        # as per-step draws; (N,) and (1, N) are the one draw of every step
        p = power_params(v0=1.0)
        with pytest.raises(GameError, match=re.escape(f"got shape {shape}")):
            run(INTRO_GAME, p, regime="once", perturbations=np.ones(shape))
        flat = run(INTRO_GAME, p, regime="once", perturbations=[0.3, 1.2])
        row = run(INTRO_GAME, p, regime="once", perturbations=[[0.3, 1.2]])
        assert flat.chosen.tobytes() == row.chosen.tobytes()
        assert flat.perturbations.tobytes() == row.perturbations.tobytes()

    @pytest.mark.parametrize("run", [prot_run, ifpl_run])
    @pytest.mark.parametrize("shape", [(2,), (1, 2)])
    def test_once_draw_is_checked_before_the_broadcast(self, run, shape):
        # the one row of draws is checked, not its (T, N) broadcast: a bad
        # value is named at step 1, and a game with no steps plays none
        p = power_params(v0=1.0)
        xi = np.array([0.5, math.nan]).reshape(shape)
        with pytest.raises(GameError, match=re.escape("got [0.5 nan] at step 1")):
            run(INTRO_GAME, p, regime="once", perturbations=xi)
        record = run(np.zeros((0, 2)), p, regime="once", perturbations=xi)
        assert record.num_steps == 0 and record.perturbations.shape == (0, 2)

    @pytest.mark.parametrize("run", [prot_run, ifpl_run])
    @pytest.mark.parametrize("callback", [False, True], ids=["matrix", "callback"])
    @pytest.mark.parametrize("shape", [(14,), (2, 7), (7, 3), (6, 2), (1, 2), (2,), (1, 7, 2)])
    def test_per_step_perturbations_are_one_row_per_step(self, run, callback, shape):
        # any T*N values used to be reshaped to (T, N): a flat vector or an
        # (N, T) table was played on the wrong steps and experts, and a wrong
        # size raised numpy's bare "cannot reshape"
        p = power_params(v0=1.0)
        game = (lambda t, history, cum: INTRO_GAME[t - 1]) if callback else INTRO_GAME
        steps = {"num_steps": len(INTRO_GAME)} if callback else {}
        with pytest.raises(GameError, match=re.escape(f"takes (7, 2) perturbations, got shape {shape}")):
            run(game, p, perturbations=np.ones(shape), **steps)
        xi = np.arange(14.0).reshape(7, 2) / 7
        assert run(game, p, perturbations=xi, **steps).perturbations.tobytes() == xi.tobytes()

    def test_expert_count_mismatch(self):
        with pytest.raises(GameError):
            prot_run(INTRO_GAME, power_params(n=3), rng=RngSpec(0))

    @pytest.mark.parametrize("run", [prot_run, ifpl_run])
    def test_callback_cannot_write_the_scores(self, run):
        # the callback gets a read-only view of the running scores: a write
        # into it used to change PROT's choices and the reported expert_cum
        losses = np.random.default_rng(5).uniform(-1, 1, (50, 3))

        def step(t, history, cum):
            cum += 100 * np.arange(3)
            return losses[t - 1]

        with pytest.raises(ValueError, match="read-only"):
            run(step, power_params(n=3, v0=1.0), rng=RngSpec(4), num_steps=50)

    def test_callback_rejects_length_mismatch(self):
        with pytest.raises(GameError, match="step 1"):
            prot_run(lambda t, history, cum: np.ones(3), power_params(v0=1.0), rng=RngSpec(0),
                     num_steps=4)

    @pytest.mark.parametrize("run", [prot_run, ifpl_run])
    @pytest.mark.parametrize("regime", ["per-step", "once"])
    @pytest.mark.parametrize("n, v0", [(4, 0.0), (4, 0.3), (2, 0.0), (2, 1.0), (3, 0.0), (3, 1.0),
                                       (5, 0.0), (5, 1.0)],
                             ids=["0.0", "0.3", "n2-0.0", "n2-1.0", "n3-0.0", "n3-1.0",
                                  "n5-0.0", "n5-1.0"])
    def test_callback_replay_is_bit_identical(self, run, regime, n, v0):
        # a callback that replays a matrix goes through the step loop, which
        # selects without prot_select's per-step checks, the matrix through
        # one vectorized selection; five zero steps first keep v0 = 0 runs
        # on infinite rates (follow the leader), and every seventh step ties
        # all experts.  Every record field has the same dtype, shape and
        # bytes (np.array_equal would take -0.0 for 0.0), and a one-run
        # batch from the same rng ends at the same total
        values = np.random.default_rng(31).uniform(-2, 2, (300, n))
        values[::7, 1:] = values[::7, :1]
        values[:5] = 0.0
        losses = LossMatrix(values)
        p = power_params(n=n, v0=v0)
        matrix = run(losses, p, rng=RngSpec(7), regime=regime)
        assert np.isinf(matrix.eps[0]) == (v0 == 0.0)
        replay = run(lambda t, history, cum: losses.row(t), p, rng=RngSpec(7), regime=regime,
                     num_steps=300)
        for f in dataclasses.fields(RunRecord):
            a, b = getattr(matrix, f.name), getattr(replay, f.name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
        total = batch_cumulative_losses(losses, p, 1, RngSpec(7), regime=regime,
                                        infeasible=run is ifpl_run)
        assert matrix.cum_loss[-1] == total[0, 0]

    @pytest.mark.parametrize("run", [prot_run, ifpl_run])
    @settings(deadline=None, max_examples=150)
    @given(data=st.data(), n=st.integers(1, 5), T=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1), regime=st.sampled_from(engine.REGIMES),
           v0=st.sampled_from([0.0, 1.0]))
    def test_one_run_three_paths(self, run, data, n, T, seed, regime, v0):
        # the fixed games above as a property: on games with zero rows,
        # tied rows and a single expert, the matrix run, its callback replay
        # and a one-run batch from the same rng agree
        values = np.random.default_rng(seed).uniform(-2, 2, (T, n))
        rows = np.array(data.draw(st.lists(st.sampled_from(["plain", "zero", "tied"]),
                                           min_size=T, max_size=T)))
        values[rows == "zero"] = 0.0
        values[rows == "tied"] = values[rows == "tied", :1]
        p = power_params(n=n, v0=v0)
        matrix = run(values, p, rng=RngSpec(seed), regime=regime)
        replay = run(lambda t, history, cum: values[t - 1], p, rng=RngSpec(seed), regime=regime,
                     num_steps=T)
        for f in dataclasses.fields(RunRecord):
            a, b = getattr(matrix, f.name), getattr(replay, f.name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
        total = batch_cumulative_losses(values, p, 1, RngSpec(seed), regime=regime,
                                        infeasible=run is ifpl_run)
        assert matrix.total_loss == total[0, 0]

    @pytest.mark.parametrize("run", [prot_run, ifpl_run])
    @settings(deadline=None, max_examples=100)
    @given(data=st.data(), n=st.integers(1, 8), T=st.integers(1, 60),
           seed=st.integers(0, 2**32 - 1), regime=st.sampled_from(engine.REGIMES),
           v0=st.sampled_from([0.5, 1.0]))
    def test_expert_order_permutes_choices(self, run, data, n, T, seed, regime, v0):
        # permuting a game's columns and its explicit perturbations leaves
        # the volumes and rates as they are and permutes every step's
        # scores, so the choices permute wherever the argmin is unique
        gen = np.random.default_rng(seed)
        values = gen.uniform(-2, 2, (T, n))
        xi = gen.exponential(size=(T, n) if regime == "per-step" else n)
        perm = np.array(data.draw(st.permutations(range(n))))
        p = power_params(n=n, v0=v0)
        rec = run(values, p, regime=regime, perturbations=xi)
        seen = slice(1, None) if run is ifpl_run else slice(None, -1)
        scores = rec.eps[:, None] * engine._expert_cum(values)[seen] - xi
        assume(np.all(np.diff(np.sort(scores, axis=1), axis=1) > 0))
        permuted = run(values[:, perm], p, regime=regime, perturbations=xi[..., perm])
        assert np.array_equal(perm[permuted.chosen], rec.chosen)

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
        rec = prot_run(game, p, perturbations=[[0.0, 0.0], [0.0, x]], num_steps=2)
        assert rec.eps[1] == eps
        assert rec.chosen[1] == 0

    @pytest.mark.parametrize("run", [prot_run, ifpl_run])
    def test_volume_overflow_raises(self, run):
        p = power_params(v0=1.0)
        with pytest.raises(GameError, match="step 18"):
            run(OVERFLOW_GAME, p, rng=RngSpec(0))
        with pytest.raises(GameError, match="step 18"):
            run(lambda t, history, cum: OVERFLOW_GAME[t - 1], p, rng=RngSpec(0),
                num_steps=40)

    @pytest.mark.parametrize("run", [prot_run, ifpl_run])
    @pytest.mark.parametrize("callback", [False, True])
    def test_one_volume_trace_per_run(self, monkeypatch, run, callback):
        calls = []
        real = engine.volume_trace
        monkeypatch.setattr(engine, "volume_trace", lambda *a: calls.append(a) or real(*a))
        game = (lambda t, history, cum: INTRO_GAME[t - 1]) if callback else INTRO_GAME
        run(game, power_params(v0=0.5), rng=RngSpec(3), num_steps=7)
        assert len(calls) == 1

    def test_rate_overflow_raises(self):
        # v_1 = 1.5e308 is finite, but mu_1 v_1 with mu_1 > 1 overflows
        p = power_params()
        game = [[1.5e308, 0.0]]
        assert mu_values(p, 1)[0] > 1
        with pytest.raises(GameError, match="step 1:"):
            ifpl_run(game, p, rng=RngSpec(0))
        with pytest.raises(GameError, match="step 1:"):
            ifpl_run(lambda t, history, cum: game[t - 1], p, rng=RngSpec(0),
                     num_steps=1)
        with pytest.raises(GameError, match="step 1:"):
            batch_cumulative_losses(game, p, 4, RngSpec(0), infeasible=True)


class TestSharedTables:
    """The cumulative table and the volume trace every matrix run reads are
    summed into preallocated arrays: the same bytes as stacking the sums."""

    @pytest.mark.parametrize("scale", [1e3, 1e-310], ids=["normal", "subnormal"])
    @pytest.mark.parametrize("v0", [0.0, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("T", [0, 1, 2000])
    def test_match_their_stacked_forms(self, T, n, v0, scale):
        values = np.random.default_rng(T + n).uniform(-scale, scale, (T, n))
        # leading zero rows: from v0 = 0 their steps are 0/0, so fluc is 0
        values[:max(1, T // 4)] = 0.0
        cum, want = engine._expert_cum(values), np.vstack(
            [np.zeros(n), np.cumsum(values, axis=0)])
        assert (cum.dtype, cum.shape, cum.tobytes()) == (want.dtype, want.shape, want.tobytes())
        delta_v = row_peaks(values)
        v_want = np.concatenate([[v0], v0 + np.cumsum(delta_v)])
        fluc_want = np.divide(delta_v, v_want[1:], out=np.zeros_like(delta_v),
                              where=v_want[1:] > 0)
        for got, want in zip(volume_trace(LossMatrix(values), v0),
                             (v_want, delta_v, fluc_want)):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                              want.tobytes())
        if T and not v0:
            assert v_want[1] == 0.0 and fluc_want[0] == 0.0  # the 0/0 case is covered

    def test_overflow_names_the_same_step(self):
        with np.errstate(over="ignore"):
            v_want = np.concatenate([[1.0], 1.0 + np.cumsum(row_peaks(OVERFLOW_GAME))])
        assert np.argmax(~np.isfinite(v_want)) == 18
        with pytest.raises(GameError, match="volume is not finite at step 18:"):
            volume_trace(LossMatrix(OVERFLOW_GAME), 1.0)


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

    @pytest.mark.parametrize("kind", ["ties", "near-ties", "spread"])
    def test_within_the_ulp_bound_of_the_integral(self, kind):
        # every N = 1..30, so every node count k = 1..15
        gen = np.random.default_rng(22)
        for n in range(1, 31):
            if kind == "ties":
                s = np.full(n, 0.7)
            elif kind == "near-ties":  # max|x| < 0.1
                s = gen.uniform(0.0, 0.07, n)
            else:
                s = gen.normal(0.0, 5.0, n)
            _assert_within_the_ulp_bound(s, 1.3)

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
        # an infinite rate follows the leader (see TestFollowTheLeaderRate)
        for bad in (0.0, -math.inf, math.nan):
            with pytest.raises(GameError):
                selection_probabilities_exact([1.0, 2.0], bad)

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
        assert np.array_equal(selection_probabilities_exact(s, eps), rows)

    def test_does_not_write_to_its_input(self):
        # a single problem's (N, 1) transpose is contiguous, so the kernel
        # must copy it before working in place
        s = np.array([0.5, -1.0, 2.0])
        selection_probabilities_exact(s, 1.5)
        assert np.array_equal(s, [0.5, -1.0, 2.0])

    def test_rate_broadcasts_against_the_leading_axes(self):
        s = np.random.default_rng(16).normal(0, 1, (4, 5))
        eps = np.array([[0.3], [1.0], [2.5]])
        p = selection_probabilities_exact(s, eps)
        assert p.shape == (3, 4, 5)
        for i in range(3):
            for r in range(4):
                assert np.array_equal(p[i, r], selection_probabilities_exact(s[r], eps[i, 0]))


def _decimal_probabilities(s, eps):
    """The integral selection_probabilities_exact computes, at 80 digits from
    the float scores and rate: P_j = b_j sum_k c_k / (k + 1), where
    prod_{i != j} (1 - b_i u) = sum_k c_k u^k and b_i = exp(eps (min s - s_i))."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        lead = Decimal(min(s))
        b = [(Decimal(eps) * (lead - Decimal(v))).exp() for v in s]
        probs = []
        for j, b_j in enumerate(b):
            c = [Decimal(1)]
            for b_i in b[:j] + b[j + 1:]:
                c = [hi - b_i * lo for hi, lo in zip(c + [0], [0] + c)]
            probs.append(b_j * sum(c_k / (k + 1) for k, c_k in enumerate(c)))
        return probs


# The kernel's error bound in ulps of the integral, per unit of exp's
# conditioning 1 + max|x| (see selection_probabilities_exact); the worst
# measured is about 45, at N = 16 near ties.
_ULP_BOUND = 128


def _assert_within_the_ulp_bound(s, eps):
    s = np.asarray(s, dtype=float)
    p = selection_probabilities_exact(s, eps)
    conditioning = 1.0 + float(np.max(eps * (s - s.min())))
    for j, want in enumerate(_decimal_probabilities(s.tolist(), eps)):
        ulps = float(abs(Decimal(float(p[j])) - want)) / math.ulp(float(want))
        assert ulps <= _ULP_BOUND * conditioning, (j, ulps, conditioning, s.tolist(), eps)


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
    @given(x=st.lists(st.just(0.0) | st.floats(-744.0, 0.0), min_size=1, max_size=30),
           eps=st.floats(2.0 ** -10, 2.0 ** 10), c=st.floats(-1e3, 1e3))
    def test_within_the_ulp_bound_of_the_integral(self, x, eps, c):
        # scores whose scaled gaps x_i = eps (min s - s_i) keep max|x| <= 745
        _assert_within_the_ulp_bound(c - np.array(x) / eps, eps)

    @settings(deadline=None, max_examples=200)
    @given(data=st.data(), x=st.lists(st.just(0.0) | st.floats(-744.0, 0.0), min_size=1,
                                      max_size=30),
           eps=st.floats(2.0 ** -10, 2.0 ** 10), c=st.floats(-1e3, 1e3))
    def test_expert_order(self, data, x, eps, c):
        # permuting the experts permutes the probabilities: bit for bit at
        # N <= 2, where each sum has at most two terms, and from N = 3 on
        # within twice the ulp bound, as the kernel sums the experts in
        # index order
        s = c - np.array(x) / eps
        perm = np.array(data.draw(st.permutations(range(len(s)))))
        want = selection_probabilities_exact(s, eps)[perm]
        got = selection_probabilities_exact(s[perm], eps)
        if len(s) <= 2:
            assert got.tobytes() == want.tobytes()
        conditioning = 1.0 + float(np.max(eps * (s - s.min())))
        for g, w in zip(got.tolist(), want.tolist()):
            assert abs(g - w) <= 2 * _ULP_BOUND * conditioning * math.ulp(max(g, w))

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

    @settings(deadline=None)
    @given(data=st.data(), lead=st.sampled_from([(), (1,), (2,), (7,), (1, 3), (3, 4)]),
           n=st.integers(1, 30))
    def test_every_row_matches_its_single_call(self, data, lead, n):
        m = math.prod(lead)
        s = np.reshape(data.draw(st.lists(_MODERATE_SCORES, min_size=m * n, max_size=m * n)),
                       lead + (n,))
        eps = np.reshape(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=m, max_size=m)), lead)
        p = selection_probabilities_exact(s, eps)
        assert p.shape == lead + (n,)
        for idx in np.ndindex(*lead):
            assert np.array_equal(p[idx], selection_probabilities_exact(s[idx], eps[idx]))


# finite scores from a small pool, so that ties for the lead are common
_TIED_SCORES = st.sampled_from([-1.0, 0.0, 0.5, 1.0]) | st.floats(-1e6, 1e6)


class TestFollowTheLeaderRate:
    """An infinite rate follows the leader in every selection entry: the
    exact probabilities are the one-hot on the leader (the lowest index on
    a tie), as prot_select's choices and their Monte Carlo counts are."""

    @settings(deadline=None)
    @given(data=st.data(), n=st.sampled_from([1, 2, 3, 10, 30]))
    def test_one_hot_on_the_leader(self, data, n):
        s = np.array(data.draw(st.lists(_TIED_SCORES, min_size=n, max_size=n)))
        want = np.eye(n)[engine._argmin_last(s)]
        got = selection_probabilities_exact(s, math.inf)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert np.array_equal(selection_probabilities_mc(s, math.inf, 50, RngSpec(0)), want)

    @settings(deadline=None)
    @given(data=st.data(), n=st.sampled_from([1, 2, 3, 10, 30]), m=st.integers(1, 6))
    def test_mixed_batch_rows_match_their_single_calls(self, data, n, m):
        s = np.reshape(data.draw(st.lists(_TIED_SCORES, min_size=m * n, max_size=m * n)),
                       (m, n))
        eps = np.array(data.draw(st.lists(st.floats(1e-3, 1e3) | st.just(math.inf),
                                          min_size=m, max_size=m)))
        p = selection_probabilities_exact(s, eps)
        for r in range(m):
            assert p[r].tobytes() == selection_probabilities_exact(s[r], eps[r]).tobytes()
            if eps[r] < math.inf:  # the finite-rate kernel's bits, as before
                want = reference_selection_probabilities_exact(s[r], eps[r])
                assert p[r].tobytes() == want.tobytes()

    @pytest.mark.parametrize("eps", [0.0, -1.0, -math.inf, math.nan])
    def test_same_rejection_in_every_entry(self, eps):
        s = np.array([2.0, 1.0, 1.0])
        errors = []
        for call in (lambda: prot_select(s, eps, np.ones(3)),
                     lambda: selection_probabilities_mc(s, eps, 10, RngSpec(0)),
                     lambda: selection_probabilities_exact(s, eps)):
            with pytest.raises(GameError) as info:
                call()
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1] == errors[2]


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


# A small pool of values, the infinities among them, so that exact ties are
# common; any other non-NaN double now and then.
_TIE_PRONE = st.sampled_from([-math.inf, -1.0, 0.0, 0.5, 1.0, math.inf]) | st.floats(
    allow_nan=False)


class TestArgminHelper:
    @settings(deadline=None)
    @given(data=st.data(), n=st.integers(1, 12),
           lead=st.sampled_from([0, 1, 2]).flatmap(
               lambda d: st.tuples(*[st.integers(1, 5)] * d)))
    def test_equals_numpy_argmin(self, data, n, lead):
        x = data.draw(arrays(np.float64, lead + (n,), elements=_TIE_PRONE))
        if n >= 2:
            i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                      unique=True))
            x[..., j] = x[..., i]  # a forced tie in every row
        got, ref = engine._argmin_last(x), np.argmin(x, axis=-1)
        assert type(got) is type(ref) and np.asarray(got).dtype == np.asarray(ref).dtype
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("n", [3, 5, 10, 16, 17])
    def test_equals_numpy_argmin_at_the_row_threshold(self, n):
        # just below and at 1024 (N - 1) rows, where 3 <= N <= 16 switches
        # from np.argmin to the running minimum; N = 17 never switches
        gen = np.random.default_rng(n)
        pool = np.array([-math.inf, -1.0, -0.0, 0.0, 0.5, 1.0, math.inf])
        for rows in (1024 * (n - 1) - 1, 1024 * (n - 1)):
            for shape in ((rows, n), (n - 1, rows // (n - 1), n), (rows, 1, n)):
                # the tie-prone values, and any other double in half the cells
                x = gen.choice(pool, shape)
                other = gen.random(shape) < 0.5
                x[other] = gen.standard_normal(other.sum())
                i, j = gen.choice(n, 2, replace=False)
                x[..., j] = x[..., i]  # a forced tie in every row
                got, ref = engine._argmin_last(x), np.argmin(x, axis=-1)
                assert type(got) is type(ref) and got.dtype == ref.dtype
                assert np.array_equal(got, ref)


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

    @pytest.mark.parametrize("s, eps", [([0.0, math.nan], 1.0), ([0.0, 1.0], 0.0), ([], 1.0)])
    def test_nan_score_or_bad_rate_raises(self, s, eps):
        with pytest.raises(GameError, match="NaN" if s else "need at least one expert"):
            selection_probabilities_mc(s, eps, 10, RngSpec(0))

    def test_chunking_is_bit_exact(self, monkeypatch):
        s = [0.0, 1.0, -0.5]
        full = selection_probabilities_mc(s, 0.9, 5000, RngSpec(6))
        monkeypatch.setattr(engine, "_MAX_CHUNK_ELEMS", 3 * 7)
        assert np.array_equal(full, selection_probabilities_mc(s, 0.9, 5000, RngSpec(6)))

    @pytest.mark.parametrize("s, eps", [
        ([0.0, 1.0, -0.5], 0.9), ([0.0, 0.5], 2.0), ([1.0, 1.0], 3.0), ([0.0], 1.0),
        ([2.0, 1.0, 1.0], math.inf), (np.linspace(0.0, 1.0, 10), 4.0),
    ])
    def test_counts_match_the_plain_formula(self, s, eps):
        # frequencies of argmin(eps s - xi) (s alone for an infinite rate)
        # over the inverse-CDF draws of the same seed
        s = np.asarray(s, dtype=float)
        xi = inverse_exponential_cdf(RngSpec(6).generator().random((5000, len(s))))
        choice = (np.argmin(s) if math.isinf(eps) else np.argmin(eps * s - xi, axis=-1))
        ref = np.bincount(np.broadcast_to(choice, (5000,)), minlength=len(s)) / 5000
        assert np.array_equal(selection_probabilities_mc(s, eps, 5000, RngSpec(6)), ref)

    def test_counts_for_a_fixed_seed(self):
        # the frequencies this seed gave before the score moved into the
        # draw buffer
        assert selection_probabilities_mc([0.0, 1.0, -0.5], 0.9, 5000, RngSpec(6)).tolist() == [
            0.292, 0.1058, 0.6022]
        assert selection_probabilities_mc([0.0, 0.3], 2.0, 5000, RngSpec(7)).tolist() == [
            0.7284, 0.2716]


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

    @pytest.mark.parametrize("shape", [(3,), (4, 3)], ids=["one-step", "four-steps"])
    def test_one_kernel_call_with_the_bits_of_two(self, monkeypatch, shape):
        # PROT's and IFPL's problems go to the kernel as they are, in two
        # calls, PROT's first, each with the bits of its own problem; a 2-D
        # cumulative_prev is a batch of steps
        p = self.valid_params()
        gen = np.random.default_rng(23)
        cum, s_t = gen.normal(0, 2, shape), gen.uniform(-0.1, 0.1, shape)
        t, v_prev, dv = 7, 20.0, 0.1
        calls = []

        def kernel(cumulative, eps):
            out = selection_probabilities_exact(cumulative, eps)
            calls.append(out)
            return out

        monkeypatch.setattr(engine, "selection_probabilities_exact", kernel)
        assert probability_ratio_check(cum, s_t, p, t, v_prev, v_prev + dv)
        assert len(calls) == 2
        for got, scores, v in zip(calls, (cum, cum + s_t), (v_prev, v_prev + dv)):
            want = selection_probabilities_exact(scores, epsilon_t(p, t, v))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_kernel_errors_name_their_own_problem(self):
        # each kernel call's error names its own problem, in the calls'
        # order: PROT's scores, PROT's rate, then IFPL's scores
        p = self.valid_params()
        cases = [(([0.0, math.nan, 1.0], [1.0, 0.0, 0.0], 5.0, 5.05),
                  re.escape("cumulative scores must be finite, got [ 0. nan  1.]")),
                 (([0.0, 1.0, 1.0], [math.inf, 0.0, 0.0], 5.0, 5.05),
                  re.escape("cumulative scores must be finite, got [inf  1.  1.]")),
                 ((0.0, 1.0, 5.0, 5.05), "^need at least one expert$")]
        for (cum, s_t, v_prev, v_t), message in cases:
            with pytest.raises(GameError, match=message):
                probability_ratio_check(cum, s_t, p, 3, v_prev, v_t)
        # at v_prev = v_t = 0 both rates are infinite and both choices are
        # the one leader: the check holds, where the exact call raised
        assert probability_ratio_check([0.0, 1.0, 1.0], [0.0, 0.0, 0.0], p, 3, 0.0, 0.0)


class TestChunkChoiceMarginals:
    """Per-step choice frequencies of the Monte Carlo chunk body, which
    batch_cumulative_losses runs, against the exact marginals: a wrong
    choice at one step would not show in a total."""

    @pytest.mark.parametrize("infeasible", [False, True], ids=["prot", "ifpl"])
    @pytest.mark.parametrize("regime", ["per-step", "once"])
    @pytest.mark.parametrize("n", [3, 5])
    def test_match_the_exact_probabilities(self, n, regime, infeasible):
        T, runs = 16, 20_000
        values = np.random.default_rng(40 + n).uniform(-1, 1, (T, n))
        values[:3] = 0.0  # from v0 = 0 the first rates are infinite
        base, eps, _ = engine._deterministic_rates(LossMatrix(values), power_params(n=n, v0=0.0),
                                                   infeasible)
        # two more follow-the-leader steps, where the leader is not expert 1
        eps = eps.copy()
        eps[[8, 12]] = math.inf
        ftl = np.isinf(eps)
        assert ftl.sum() == (5 if infeasible else 6)
        leaders = np.argmin(base[ftl], axis=-1)
        assert leaders[-2:].any()
        choice = engine._chunk_choices(*engine._scaled_scores(base, eps),
                                       (runs, 1 if regime == "once" else T, n),
                                       RngSpec(n, 8).generator())
        assert choice.shape == (runs, T)
        assert (choice[:, ftl] == leaders).all()
        freq = (choice[:, ~ftl, None] == np.arange(n)).mean(axis=0)
        p = selection_probabilities_exact(base[~ftl], eps[~ftl])
        assert np.all(np.abs(freq - p) <= 5 * np.sqrt(p * (1 - p) / runs))


def _reference_cumulative_losses(values, params, num_runs, rng, regime, infeasible,
                                 checkpoints):
    """Each run's learner loss by the plain formula: values[t, argmin(where(
    ftl, 1, eps) s - xi)] (argmin s where the rate is infinite), then
    cumsum, with all the draws taken at once from ``rng``."""
    T, N = values.shape
    base, eps, _ = engine._deterministic_rates(LossMatrix(values), params, infeasible)
    xi = inverse_exponential_cdf(
        rng.generator().random((num_runs, 1 if regime == "once" else T, N)))
    ftl = np.isinf(eps)
    choice = np.argmin(np.where(ftl, 1.0, eps)[:, None] * base - xi, axis=-1)
    choice = np.where(ftl, np.argmin(base, axis=-1), choice)
    cum = np.cumsum(values[np.arange(T), choice], axis=1)
    return cum[:, np.asarray([T] if checkpoints is None else checkpoints) - 1]


class TestBatchMonteCarlo:
    @pytest.mark.parametrize("checkpoints", [None, [1, 17, 50]], ids=["final", "checkpoints"])
    @pytest.mark.parametrize("infeasible", [False, True], ids=["prot", "ifpl"])
    @pytest.mark.parametrize("regime", ["per-step", "once"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    def test_matches_the_plain_formula(self, monkeypatch, n, regime, infeasible, checkpoints):
        # per step, the one-chunk call's 10^4 rows take the running minimum
        # for every n >= 3; the 4-run chunks stay on np.argmin
        T, runs = 50, 200
        random = np.random.default_rng(n).uniform(-1, 1, (T, n))
        # zero losses from v0 = 0 leave the rate infinite (follow the
        # leader) for the first steps of PROT and of IFPL
        ftl = random.copy()
        ftl[:5] = 0.0
        # and every column a copy of the first: ties in every score row
        tied = ftl.copy()
        tied[:, n // 2:] = tied[:, :1]
        kw = dict(regime=regime, infeasible=infeasible, checkpoints=checkpoints)
        for values, v0 in ((random, 1.0), (ftl, 0.0), (tied, 0.0)):
            p = power_params(n=n, v0=v0)
            rates = engine._deterministic_rates(LossMatrix(values), p, infeasible)[1]
            assert np.isinf(rates).sum() == (0 if v0 else 5 + (not infeasible))
            ref = _reference_cumulative_losses(values, p, runs, RngSpec(n, 5), **kw)
            assert runs * T * n <= engine._MAX_CHUNK_ELEMS  # one chunk
            assert np.array_equal(batch_cumulative_losses(values, p, runs, RngSpec(n, 5), **kw),
                                  ref)
            with monkeypatch.context() as m:
                m.setattr(engine, "_MAX_CHUNK_ELEMS", 4 * T * n + 1)  # 38 chunks
                assert np.array_equal(
                    batch_cumulative_losses(values, p, runs, RngSpec(n, 5), **kw), ref)

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

    @pytest.mark.parametrize("checkpoints", [None, [1, 17, 64]], ids=["final", "checkpoints"])
    @pytest.mark.parametrize("infeasible", [False, True], ids=["prot", "ifpl"])
    @pytest.mark.parametrize("regime", ["per-step", "once"])
    def test_chunking_is_bit_exact(self, monkeypatch, regime, infeasible, checkpoints):
        losses = np.random.default_rng(2).uniform(-1, 1, (64, 4))
        p = power_params(n=4, v0=1.0)
        kw = dict(regime=regime, infeasible=infeasible, checkpoints=checkpoints)
        full = batch_cumulative_losses(losses, p, 500, RngSpec(9), **kw)
        assert 500 * 64 * 4 <= engine._MAX_CHUNK_ELEMS  # one chunk
        monkeypatch.setattr(engine, "_MAX_CHUNK_ELEMS", 64 * 4 * 7)
        small = batch_cumulative_losses(losses, p, 500, RngSpec(9), **kw)
        monkeypatch.setattr(engine, "_MAX_CHUNK_ELEMS", 1)
        single = batch_cumulative_losses(losses, p, 500, RngSpec(9), **kw)
        assert np.array_equal(full, small) and np.array_equal(full, single)

    def test_kernel_memory_does_not_grow_with_runs(self):
        # numpy reports its data buffers to tracemalloc; the kernel's
        # temporaries are sized by the chunk, not by the number of runs
        losses = random_fluc_bounded_game(10, 2000, RngSpec(5))
        p = power_params(n=10, v0=1.0)
        tracemalloc.start()
        try:
            batch_cumulative_losses(losses, p, 2000, RngSpec(6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("infeasible", [False, True])
    @pytest.mark.parametrize("regime", ["per-step", "once"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    def test_single_run_matches_prot_run(self, infeasible, regime, n):
        random = np.random.default_rng(4).uniform(-1, 1, (200, n))
        # zero first rows from v0 = 0: follow-the-leader steps
        ftl = random.copy()
        ftl[:5] = 0.0
        cps = np.array([1, 5, 6, 7, 17, 200])
        run = ifpl_run if infeasible else prot_run
        for losses, v0 in ((random, 1.0), (ftl, 0.0)):
            p = power_params(n=n, v0=v0)
            rec = run(losses, p, rng=RngSpec(12), regime=regime)
            batch = batch_cumulative_losses(losses, p, 1, RngSpec(12), regime=regime,
                                            infeasible=infeasible, checkpoints=cps)
            assert rec.cum_loss[cps - 1].tobytes() == batch[0].tobytes()

    @pytest.mark.parametrize("num_runs", [0, -2])
    def test_needs_a_run(self, num_runs):
        # 0 runs gave a mean of nan with "Mean of empty slice", -2 numpy's
        # bare "negative dimensions are not allowed"
        losses, p = np.ones((3, 2)), power_params(v0=1.0)
        with pytest.raises(GameError, match="num_runs must be an integer >= 1"):
            batch_cumulative_losses(losses, p, num_runs, RngSpec(0))
        with pytest.raises(GameError, match="num_runs must be an integer >= 1"):
            monte_carlo_regret(losses, p, num_runs, RngSpec(0))

    def test_volume_overflow_raises(self):
        with pytest.raises(GameError, match="step 18"):
            monte_carlo_regret(OVERFLOW_GAME, power_params(v0=1.0), 10, RngSpec(0))

    def test_zero_step_game(self):
        p = power_params(v0=1.0)
        empty = np.zeros((0, 2))
        assert np.array_equal(batch_cumulative_losses(empty, p, 5, RngSpec(0)),
                              np.zeros((5, 1)))
        # one column per checkpoint, as at T > 0: none for an empty list
        assert batch_cumulative_losses(empty, p, 3, RngSpec(0), checkpoints=[]).shape == (3, 0)
        assert batch_cumulative_losses(np.ones((3, 2)), p, 3, RngSpec(0),
                                       checkpoints=[]).shape == (3, 0)
        assert monte_carlo_regret(empty, p, 5, RngSpec(0)) == (0.0, 0.0)
        assert prot_run(empty, p, rng=RngSpec(0)).regret == 0.0

    @pytest.mark.parametrize("checkpoint", [0, 4, -1])
    def test_checkpoint_outside_game_raises(self, checkpoint):
        p = power_params(v0=1.0)
        losses = np.ones((3, 2))
        with pytest.raises(GameError, match="checkpoints"):
            batch_cumulative_losses(losses, p, 5, RngSpec(0), checkpoints=[checkpoint])
        with pytest.raises(GameError, match="checkpoints"):
            monte_carlo_regret(losses, p, 5, RngSpec(0), checkpoints=[1, checkpoint])
        with pytest.raises(GameError, match="checkpoints"):
            batch_cumulative_losses(np.zeros((0, 2)), p, 5, RngSpec(0), checkpoints=[0])

    def test_monte_carlo_regret_scalar(self):
        losses = np.random.default_rng(3).uniform(0, 1, (64, 2))
        p = power_params(v0=1.0)
        mean, se = monte_carlo_regret(losses, p, 2000, RngSpec(4))
        assert isinstance(mean, float) and se > 0


class TestWholeRunScale:
    @pytest.mark.parametrize("run", [
        prot_run, ifpl_run,
        lambda game, params, rng: batch_cumulative_losses(game, params, 4, rng),
        lambda game, params, rng: prot_run(lambda t, history, cum: game[t - 1], params,
                                           rng=rng, num_steps=len(game)),
    ], ids=["prot", "ifpl", "batch", "prot-callback"])
    def test_rate_that_overflows_at_a_positive_volume_raises(self, run):
        # at 2^-1026 some mu_t v_{t-1} are below 1/max float although every
        # volume is positive: 31 of PROT's 200 rates were inf, and those
        # steps silently followed the leader
        k = -1026
        game = random_fluc_bounded_game(3, 200, RngSpec(1, stream_id=10_000))
        params = power_params(n=3, a=10.0, v0=math.ldexp(1.0, k))
        with pytest.raises(GameError, match=r"rate 1/\(mu_t v\) is inf at step \d+: v > 0 but"):
            run(np.ldexp(game.values, k), params, RngSpec(5))

    @settings(deadline=None, max_examples=30)
    @given(k=st.sampled_from([1, -1, 60, -60, 900, -900]), v0=st.sampled_from([0.0, 1.0]),
           regime=st.sampled_from(engine.REGIMES), seed=st.integers(0, 2**32 - 1))
    def test_power_of_two_scale_scales_the_run_exactly(self, k, v0, regime, seed):
        # eps_t s is scale-free and scaling by 2^k is exact: every choice
        # stays, and every loss, volume and regret scales by exactly 2^k
        game = np.random.default_rng(seed).normal(0.0, 1.0, (2000, 5))
        params, scaled = power_params(n=5, v0=v0), power_params(n=5, v0=math.ldexp(v0, k))
        run = prot_run(game, params, rng=RngSpec(seed), regime=regime)
        big = prot_run(np.ldexp(game, k), scaled, rng=RngSpec(seed), regime=regime)
        assert big.chosen.tobytes() == run.chosen.tobytes()
        for name in ("loss", "cum_loss", "v", "delta_v", "expert_cum"):
            assert getattr(big, name).tobytes() == np.ldexp(getattr(run, name), k).tobytes(), name
        assert big.regret == math.ldexp(run.regret, k)
        assert big.eps.tobytes() == np.ldexp(run.eps, -k).tobytes()
        assert (big.fluc.tobytes(), big.mu.tobytes()) == (run.fluc.tobytes(), run.mu.tobytes())
        cps = [1, 7, 1000, 2000]
        totals = batch_cumulative_losses(game, params, 50, RngSpec(seed), regime=regime,
                                         checkpoints=cps)
        big_totals = batch_cumulative_losses(np.ldexp(game, k), scaled, 50, RngSpec(seed),
                                             regime=regime, checkpoints=cps)
        assert big_totals.tobytes() == np.ldexp(totals, k).tobytes()
