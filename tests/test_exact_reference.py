"""selection_probabilities_exact and prop1_run against the implementations
they replaced: every output bit for bit."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volfpl import (
    AdversaryConfig,
    GameError,
    GammaSchedule,
    LossMatrix,
    Prop1Trace,
    ScheduleParams,
    choose_a,
    epsilon_t,
    prop1_run,
    prop1_step,
    prot_probability_callback,
    selection_probabilities_exact,
    volume_trace,
)
from volfpl import adversary
from volfpl.adversary import AdversaryError
from volfpl.engine import _expert_cum, _two_expert_probabilities
from volfpl.game import RunningVolume


def reference_selection_probabilities_exact(cumulative, eps):
    """The former kernel: every rate through numpy, and the node weights and
    the node sum applied at every N."""
    s = np.asarray(cumulative, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if s.ndim < 1 or s.shape[-1] < 1:
        raise GameError("need at least one expert")
    if not np.isfinite(s).all():
        raise GameError(f"cumulative scores must be finite, got {s}")
    if not (np.isfinite(eps) & (eps > 0)).all():
        raise GameError(f"eps must be finite and positive, got {eps}")
    n = s.shape[-1]
    shape = s.shape[:-1]
    if eps.ndim and eps.shape != shape:
        shape = np.broadcast_shapes(shape, eps.shape)
        s, eps = np.broadcast_to(s, shape + (n,)), np.broadcast_to(eps, shape)
    k = (n + 1) // 2
    nodes, weights = np.polynomial.legendre.leggauss(k)
    neg_u, w = (-0.5 * (nodes + 1.0)).reshape(k, 1), (0.5 * weights).reshape(k, 1, 1)
    x = s.reshape(-1, n).T.copy()
    with np.errstate(over="ignore"):
        x -= x.min(axis=0)
        x *= eps.reshape(-1)
    b = np.exp(np.negative(x, out=x), out=x)
    logs = b[:, None] * neg_u
    logs = np.log1p(logs, out=logs)
    terms = np.subtract(logs.sum(axis=0)[:, None], logs.transpose(1, 0, 2), order="C")
    terms = np.exp(terms, out=terms)
    terms *= w
    p = terms.sum(axis=0)
    p *= b
    return np.minimum(p, 1.0, out=p).T.reshape(shape + (n,))


def reference_prop1_run(algorithm, config):
    """The former adversary loop: numpy cumulative losses, whole-row writes."""
    T = config.horizon
    s = np.empty((T, 2))
    p1 = np.empty(T)
    cum = np.zeros(2)
    volume = RunningVolume(config.v0)
    for t in range(1, T + 1):
        v_prev = volume.v
        p = float(algorithm(t, cum.copy(), v_prev))
        if not 0 <= p <= 1 or not math.isfinite(p):
            raise AdversaryError(f"callback returned invalid probability {p} at step {t}")
        a, b, mt = prop1_step(v_prev, p, config.eps)
        volume.add(mt, t)
        s[t - 1] = a, b
        p1[t - 1] = p
        cum = cum + s[t - 1]

    v, m, fluc = volume_trace(LossMatrix(s), config.v0)
    e_loss = s[:, 0] * p1 + s[:, 1] * (1.0 - p1)
    expected_cum = np.cumsum(e_loss)
    min_cum = _expert_cum(s)[1:].min(axis=1)
    return Prop1Trace(m=m, s1=s[:, 0], s2=s[:, 1], p1=p1, e_loss=e_loss, v=v[1:], fluc=fluc,
                      norm_regret_lb=(expected_cum - min_cum) / v[1:],
                      expected_cum=expected_cum, min_cum=min_cum)


def assert_same_probabilities(s, eps):
    got = selection_probabilities_exact(s, eps)
    want = reference_selection_probabilities_exact(s, eps)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# Huge, signed-zero, subnormal and tied scores, and any other finite double.
_SPECIAL_SCORES = [1e300, -1e300, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0]
_SCORES = st.sampled_from(_SPECIAL_SCORES) | st.floats(allow_nan=False, allow_infinity=False)
_LEAD_SHAPES = [(), (1,), (2,), (7,), (3, 4), (513,)]
_RATES = st.floats(min_value=5e-324, max_value=1.7e308)


@st.composite
def _problems(draw):
    """Scores (*lead, N) drawn from a small pool, so that ties are common,
    and a rate given as a Python float, a 0-d array or one per problem."""
    n, lead = draw(st.integers(1, 30)), draw(st.sampled_from(_LEAD_SHAPES))
    pool = draw(st.lists(_SCORES, min_size=1, max_size=6))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = gen.choice(np.array(pool), lead + (n,))
    kind = draw(st.sampled_from(["float", "0-d", "per-problem"]))
    if kind == "float":
        eps = draw(_RATES)
    elif kind == "0-d":
        eps = np.array(draw(_RATES))
    else:
        eps = np.exp(gen.uniform(-700, 700, lead))
    return s, eps


@st.composite
def _scalar_rates(draw):
    """A rate in [5e-324, 1.7e308] as a Python float or int, a numpy float64
    or float32, or a 0-d array."""
    kind = draw(st.sampled_from(["float", "int", "float64", "float32", "0-d"]))
    if kind == "int":
        return draw(st.integers(1, int(1.7e308)))
    if kind == "float32":
        tiny = float(np.nextafter(np.float32(0), np.float32(1)))
        huge = float(np.finfo(np.float32).max)
        return np.float32(draw(st.floats(min_value=tiny, max_value=huge, width=32)))
    rate = draw(_RATES)
    return {"float": rate, "float64": np.float64(rate), "0-d": np.array(rate)}[kind]


_BAD_SCORES = st.sampled_from([math.nan, math.inf, -math.inf])
_BAD_RATES = st.sampled_from([0.0, -0.0, 0, -1.0, -1e300, -5e-324, math.nan, math.inf,
                              -math.inf, np.float32(0.0), np.float64(math.nan),
                              np.array(math.inf), np.array(-2.0)])


class TestTwoExpertPath:
    """Problems of two experts at a scalar rate, alone or as rows of a
    batch (every step of the adversary's game): the former kernel's bits,
    which trading's two-expert kernel gives too."""

    @settings(deadline=None, max_examples=1500)
    @given(s0=_SCORES, s1=_SCORES, eps=_scalar_rates())
    @example(s0=-1e300, s1=1e300, eps=1e10)  # the scaled gap overflows to -inf
    def test_same_bits(self, s0, s1, eps):
        assert_same_probabilities(np.array([s0, s1]), eps)
        # _two_expert_probabilities on the score difference (a Python
        # float, infinite where it overflows) gives the kernel's bits: for
        # the problem and its swap as rows of a batch, and for a 0-d
        # difference as a (2,) array
        batch = _two_expert_probabilities(np.array([s0 - s1, s1 - s0]), eps)
        want = selection_probabilities_exact([[s0, s1], [s1, s0]], eps)
        assert batch.T.tobytes() == want.tobytes()
        assert _two_expert_probabilities(s0 - s1, eps).tobytes() == want[0].tobytes()

    @settings(deadline=None, max_examples=300)
    @given(data=st.data(), pool=st.lists(_SCORES, min_size=1, max_size=4),
           m=st.integers(1, 40), eps=_scalar_rates())
    def test_rows_of_a_batch(self, data, pool, m, eps):
        # every row of a batched call, wherever it sits in the kernel's
        # vectors, gives the bits a call on that row alone gives
        s = np.array([[data.draw(st.sampled_from(pool)) for _ in range(2)] for _ in range(m)])
        batched = selection_probabilities_exact(s, eps)
        for r in range(m):
            assert batched[r].tobytes() == selection_probabilities_exact(s[r], eps).tobytes()

    @settings(deadline=None, max_examples=300)
    @given(s0=_SCORES, s1=_SCORES, eps=_scalar_rates(), bad_score=_BAD_SCORES,
           bad_rate=_BAD_RATES, which=st.sampled_from(["s0", "s1", "both", "rate"]))
    def test_same_rejections(self, s0, s1, eps, bad_score, bad_rate, which):
        if which in ("s0", "both"):
            s0 = bad_score
        if which in ("s1", "both"):
            s1 = bad_score
        if which == "rate":
            eps = bad_rate
        s = np.array([s0, s1])
        with pytest.raises(GameError):
            reference_selection_probabilities_exact(s, eps)
        with pytest.raises(GameError):
            selection_probabilities_exact(s, eps)

    @pytest.mark.parametrize("s, eps", [
        (np.array([0.5, -1.0]), 0.7),
        (np.array([0.5, -1.0]), np.float32(0.7)),
        (np.array([0.5, -1.0]), np.array(2.0)),
        (np.array([0.5, -1.0]), 3),
        ([0.5, -1.0], 0.7),
        (np.array([[0.5, -1.0]]), 0.7),
        (np.array([0.5, -1.0]), np.array([0.7])),
        (np.array([0.5, -1.0], dtype=np.float32), 0.7),
        ([0, 1], 0.7),
    ])
    def test_input_kinds(self, s, eps):
        # arrays, lists, float32 and int scores, and rates of every kind
        assert_same_probabilities(s, eps)


class TestExactKernelMatchesReference:
    @settings(deadline=None, max_examples=300)
    @given(problem=_problems())
    def test_same_bits(self, problem):
        assert_same_probabilities(*problem)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_every_pool_size(self, n):
        gen = np.random.default_rng(n)
        for lead in _LEAD_SHAPES:
            s = gen.normal(0, 5, lead + (n,))
            assert_same_probabilities(s, 0.7)
            assert_same_probabilities(s, np.array(1.3))
            assert_same_probabilities(s, gen.uniform(0.01, 10, lead))
            assert_same_probabilities(np.round(s), 2.0)

    @pytest.mark.parametrize("eps", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf,
                                     np.array(math.nan), np.float32(0.0), [1.0, math.nan]])
    def test_same_rejections(self, eps):
        for s in ([0.0, 1.0], [[0.0, 1.0], [2.0, 3.0]]):
            with pytest.raises(GameError):
                reference_selection_probabilities_exact(s, eps)
            with pytest.raises(GameError):
                selection_probabilities_exact(s, eps)

    @pytest.mark.parametrize("eps", [True, 2, np.int64(3), np.float32(0.3), "0.5",
                                     np.array([[0.3], [1.0]])])
    def test_other_rate_types(self, eps):
        assert_same_probabilities(np.array([[0.0, 1.0, -2.0], [2.0, 3.0, 3.0]]), eps)


def _prot_params(v0=1.0):
    return ScheduleParams(a=choose_a(1.0), num_experts=2,
                          gamma=GammaSchedule.constant(0.999), v0=v0)


def _meddling(t, cum, v_prev):
    # writes into the array it is handed: the run must not see it
    p = float(cum[0] <= cum[1])
    cum[:] = 1e9
    return p


def _reference_prot_callback(params, kernel=reference_selection_probabilities_exact):
    """prot_probability_callback on the reference kernel, one step at a time."""
    def callback(t, cumulative, v_prev):
        return float(kernel(cumulative, epsilon_t(params, t, v_prev))[0])
    return callback


def _outcome(run, algorithm, config):
    """A run's trace, or the type and message of the GameError it raised."""
    try:
        return run(algorithm, config)
    except GameError as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, Prop1Trace), got
    for f in dataclasses.fields(Prop1Trace):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape, f.name
        assert a.tobytes() == b.tobytes(), f.name


# mu_t from about 0.2 to 3e12 (a), and both gamma kinds: a constant gamma's
# mu_t is read once, any other's at every step.  Of the 1440 runs 244
# raise: the volume overflows before step 400 (v0 >= 1), or, mostly at
# small a, mu_t v overflows first and leaves a rate of 0.
_GRID_A = (0.05, 0.3, 1.0, 3.0, 10.0, 50.0)
_GRID_GAMMAS = (GammaSchedule.constant(0.999), GammaSchedule.constant(0.01),
                GammaSchedule.power(1.0), GammaSchedule.power(0.5))


def _near_tie_kernel(cumulative, eps):
    """A deterministic stand-in for the exact kernel, row by row: the
    leader gets 0.8, but where the rate-scaled gap is below 0.6 (a tie, or
    close to one) the follower does.  Against it the leader is often the
    wrong guess."""
    s = np.asarray(cumulative, dtype=float)
    gap = np.asarray(eps) * np.abs(s[..., 0] - s[..., 1])
    lead = np.where(gap < 0.6, 0.4, 0.8)
    p1 = np.where(s[..., 0] <= s[..., 1], lead, 1.0 - lead)
    return np.stack((p1, 1.0 - p1), axis=-1)


class TestProp1RunMatchesReference:
    @pytest.mark.parametrize("horizon", [1, 30, 200, 400])
    @pytest.mark.parametrize("v0", [1e-3, 1.0, 2.0, 1e2, 1e5])
    @pytest.mark.parametrize("eps", [0.25, 0.5, 0.9])
    def test_against_the_reference_kernel(self, eps, v0, horizon):
        # PROT's run, played in batched calls, against the per-step loop on
        # the former kernel: every field, or the same error at the same step
        config = AdversaryConfig(eps=eps, v0=v0, horizon=horizon)
        for a in _GRID_A:
            for gamma in _GRID_GAMMAS:
                params = ScheduleParams(a=a, num_experts=2, gamma=gamma, v0=v0)
                got = _outcome(prop1_run, prot_probability_callback(params), config)
                want = _outcome(reference_prop1_run, _reference_prot_callback(params), config)
                assert_same_outcome(got, want)

    @pytest.mark.parametrize("gamma, v0", [
        (GammaSchedule.power(1e3), 1.0),  # gamma(3) underflows to 0: no mu_3
        (GammaSchedule.from_table([0.9, 0.5, 0.5, 0.1]), 1.0),  # no gamma(5)
        (GammaSchedule.constant(1e-300), 1e-300),  # mu_1 v_0 underflows to 0
        (GammaSchedule.power(300.0), 1e-300),  # mu_2 v_1 underflows to 0
    ])
    def test_schedule_errors_at_the_same_step(self, gamma, v0):
        # an infinite rate 1/(mu_t v) is the kernel's error, the others the
        # schedule's; each is raised where the per-step loop raises it
        params = ScheduleParams(a=1.0, num_experts=2, gamma=gamma, v0=v0)
        config = AdversaryConfig(eps=0.5, v0=v0, horizon=30)
        want = _outcome(reference_prop1_run, _reference_prot_callback(params), config)
        assert isinstance(want, tuple)
        assert_same_outcome(_outcome(prop1_run, prot_probability_callback(params), config), want)

    @pytest.mark.parametrize("v0", [1e-3, 1.0])
    @pytest.mark.parametrize("gamma", [GammaSchedule.constant(0.999), GammaSchedule.power(0.5)])
    @pytest.mark.parametrize("eps", [0.25, 0.9])
    def test_wrong_guesses_are_replayed(self, monkeypatch, eps, gamma, v0):
        # a kernel that hands near-ties to the follower makes the leader the
        # wrong guess at some steps; each one costs another batched pass
        passes = []

        def two_expert_pass(d, eps):
            # _near_tie_kernel on the scores (d, 0), which differ by d as
            # the guessed game's (s^1, s^2) do
            passes.append(np.shape(d))
            return _near_tie_kernel(np.stack((d, np.zeros_like(d)), axis=-1), eps).T

        monkeypatch.setattr(adversary, "_two_expert_probabilities", two_expert_pass)
        params = ScheduleParams(a=choose_a(1.0), num_experts=2, gamma=gamma, v0=v0)
        config = AdversaryConfig(eps=eps, v0=v0, horizon=60)
        got = prop1_run(prot_probability_callback(params), config)
        want = reference_prop1_run(_reference_prot_callback(params, _near_tie_kernel), config)
        assert_same_outcome(got, want)
        assert len(passes) > 1
        # some losses went to the follower, or to expert 2 on a tie
        cum = np.cumsum(np.column_stack((got.s1, got.s2)), axis=0)[:-1]
        leader_is_1 = np.concatenate(([True], cum[:, 0] <= cum[:, 1]))
        assert ((got.s1 > 0) != leader_is_1).any()

    @pytest.mark.parametrize("eps", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("callback", ["prot", "leader", "meddling"])
    def test_every_field(self, eps, callback):
        algorithm = {"prot": prot_probability_callback(_prot_params()),
                     "leader": lambda t, cum, v: float(cum[0] <= cum[1]),
                     "meddling": _meddling}[callback]
        config = AdversaryConfig(eps=eps, v0=1.0, horizon=30)
        got, want = prop1_run(algorithm, config), reference_prop1_run(algorithm, config)
        for f in dataclasses.fields(Prop1Trace):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name

    def test_callback_sees_the_same_arguments(self):
        seen = {"got": [], "want": []}
        prot = prot_probability_callback(_prot_params(v0=2.0))

        def recorder(key):
            def algorithm(t, cum, v_prev):
                seen[key].append((t, cum.dtype, cum.shape, cum.tobytes(), v_prev))
                return prot(t, cum, v_prev)
            return algorithm

        config = AdversaryConfig(eps=0.3, v0=2.0, horizon=40)
        prop1_run(recorder("got"), config)
        reference_prop1_run(recorder("want"), config)
        assert seen["got"] == seen["want"]
