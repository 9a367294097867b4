"""Adaptive two-expert construction defeating any probabilistic learner.

At each step the adversary puts the huge loss ``M_t = 4 v_{t-1} / eps`` on
whichever expert the learner currently favors.  The scaled fluctuation then
stays at ``1 / (1 + eps/4) >= 1 - eps`` forever and the normalized expected
regret never drops below ``(1 - eps) / 2``: vanishing fluctuation is
necessary for consistency, not just convenient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import _two_expert_probabilities, selection_probabilities_exact
from .game import GameError, RunningVolume, require_count, require_real, write_csv
from .schedule import ScheduleParams, epsilon_t, epsilon_values, mu_t


class AdversaryError(GameError):
    """Invalid adversary configuration or callback output."""


@dataclass(frozen=True)
class AdversaryConfig:
    eps: float
    v0: float = 1.0
    horizon: int = 30

    def __post_init__(self):
        object.__setattr__(self, "eps", require_real(self.eps, "eps", 0, 1, error=AdversaryError))
        object.__setattr__(self, "v0", require_real(self.v0, "v0", 0, error=AdversaryError))
        object.__setattr__(self, "horizon",
                           require_count(self.horizon, "horizon", error=AdversaryError))


def prop1_step(v_prev: float, p1: float, eps: float):
    """One adversary step: loss M_t = 4 v_prev / eps on the likelier expert.

    Returns (s1_t, s2_t, M_t).  The boundary p1 = 1/2 is inclusive: the loss
    lands on expert 1.  Placing M_t on the expert the learner follows with
    probability >= 1/2 forces E(s_t) >= M_t / 2 for every callback.
    ``v_prev`` is a real number in (0, inf), ``p1`` one in [0, 1] and
    ``eps`` one in (0, 1).
    """
    v_prev = require_real(v_prev, "v_prev", 0, error=AdversaryError)
    eps = require_real(eps, "eps", 0, 1, error=AdversaryError)
    p1 = require_real(p1, "p1", 0, 1, low_closed=True, high_closed=True, error=AdversaryError)
    m = 4.0 * v_prev / eps
    if p1 >= 0.5:
        return m, 0.0, m
    return 0.0, m, m


@dataclass
class Prop1Trace:
    """Per-step trace of a run against the adversary."""

    m: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    p1: np.ndarray
    e_loss: np.ndarray
    v: np.ndarray
    fluc: np.ndarray
    norm_regret_lb: np.ndarray
    expected_cum: np.ndarray
    min_cum: np.ndarray

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "M_t", "s1", "s2", "p1", "E_loss", "v", "fluc", "norm_regret_lb"],
                  [np.arange(1, len(self.m) + 1), self.m, self.s1, self.s2, self.p1,
                   self.e_loss, self.v, self.fluc, self.norm_regret_lb])


def prop1_run(algorithm, config: AdversaryConfig) -> Prop1Trace:
    """Run the adversary against a probability callback.

    ``algorithm(t, cumulative, v_prev) -> p1`` reports the probability of
    following expert 1 given the experts' cumulative losses and the volume so
    far.  Expectations use the reported probabilities directly; no choices
    are ever sampled.  A volume that overflows raises GameError naming the
    step.  The callback of :func:`prot_probability_callback` is played in
    batched exact calls, with the results of the per-step loop; its params'
    ``v0`` must be the game's, ``config.v0``, or AdversaryError is raised.
    """
    if isinstance(algorithm, _ProtProbabilities):
        if algorithm.params.v0 != config.v0:
            raise AdversaryError(f"PROT's v0 = {algorithm.params.v0} is not the game's {config.v0}")
        first, p1, m, v = _play_prot(algorithm.params, config)
    else:
        first, p1, m, v = _play(algorithm, config)
    # the loss of a step is its peak, so M_t is the step's delta_v and the
    # loop's running volume is volume_trace's v
    m, v = np.array(m), np.array(v)
    s1, s2 = np.where(first, m, 0.0), np.where(first, 0.0, m)
    e_loss = s1 * p1 + s2 * (1.0 - p1)
    expected_cum = np.cumsum(e_loss)
    # each expert's cumsum is sequential and min is exact: the bits of the
    # (T, 2) table's column sums
    min_cum = np.minimum(np.cumsum(s1), np.cumsum(s2))
    return Prop1Trace(m=m, s1=s1, s2=s2, p1=p1, e_loss=e_loss, v=v, fluc=m / v,
                      norm_regret_lb=(expected_cum - min_cum) / v,
                      expected_cum=expected_cum, min_cum=min_cum)


def _play(algorithm, config: AdversaryConfig):
    """The game one step at a time, the callback asked at each step; returns
    whether expert 1 takes each step's loss, p1, and the lists of M_t and of
    volumes v_t."""
    T = config.horizon
    p1 = np.empty(T)
    m, v = [], []
    # the experts' cumulative losses, as Python floats: each sum rounds as
    # numpy's would, and the callback gets a fresh array of them
    c1 = c2 = 0.0
    volume = RunningVolume(config.v0)
    for t in range(1, T + 1):
        v_prev = volume.v
        p = float(algorithm(t, np.array((c1, c2)), v_prev))
        if not 0 <= p <= 1:
            raise AdversaryError(f"callback returned invalid probability {p} at step {t}")
        a, b, mt = prop1_step(v_prev, p, config.eps)
        v.append(volume.add(mt, t))
        m.append(mt)
        p1[t - 1] = p
        c1 += a
        c2 += b
    return p1 >= 0.5, p1, m, v


def _play_prot(params: ScheduleParams, config: AdversaryConfig):
    """:func:`_play` against PROT's exact probabilities, in batched calls.

    Against PROT the volumes, the losses M_t and the rates do not depend on
    which expert takes each loss, so they come first, each step's rate
    before its volume grows, as in the loop.  Then the leader (expert 1 on
    a tie) is guessed to take every loss, and one two-expert pass on the
    guessed game's score differences checks each guess: the loss goes to
    expert 1 where p1 >= 1/2.  At the first step where a guess is wrong,
    the steps before it stand, that step follows its p1 (its scores were
    right), and the steps after it are guessed again, so each pass settles
    at least one step.  The pass gives the bits of the exact kernel on each
    step's scores alone, so every field is what the loop gives.
    """
    T, eps = config.horizon, config.eps
    volume = RunningVolume(config.v0)
    # a constant gamma's mu_t is one double; step 1 is where the chain
    # would first raise for it
    mu = mu_t(params, 1) if params.gamma.kind == "constant" else None
    rates, m, v = [], [], []
    for t in range(1, T + 1):
        v_prev = volume.v
        rate = epsilon_t(params, t, v_prev) if mu is None else epsilon_values(mu, v_prev, t)
        mt = 4.0 * v_prev / eps  # prop1_step's M_t
        v.append(volume.add(mt, t))
        m.append(mt)
        rates.append(rate)
    rates = np.array(rates)
    p1 = np.empty(T)
    first = np.empty(T, dtype=bool)  # whether expert 1 takes step t's loss
    c1 = c2 = 0.0
    k = 0
    while k < T:
        cum1, cum2 = [], []  # the guessed game's scores at each step
        for mt in m[k:]:
            cum1.append(c1)
            cum2.append(c2)
            if c1 <= c2:
                c1 += mt
            else:
                c2 += mt
        a, b = np.array(cum1), np.array(cum2)
        p1[k:] = _two_expert_probabilities(a - b, rates[k:])[0]
        first[k:] = p1[k:] >= 0.5
        wrong = np.flatnonzero(first[k:] != (a <= b))
        if not len(wrong):
            break
        j = k + int(wrong[0])
        c1, c2 = cum1[j - k], cum2[j - k]
        c1, c2 = (c1 + m[j], c2) if first[j] else (c1, c2 + m[j])
        k = j + 1
    return first, p1, m, v


@dataclass(frozen=True)
class _ProtProbabilities:
    """PROT's exact probability of following expert 1, as a callback."""

    params: ScheduleParams

    def __call__(self, t, cumulative, v_prev):
        rate = epsilon_t(self.params, t, v_prev)
        return float(selection_probabilities_exact(cumulative, rate)[0])


def prot_probability_callback(params: ScheduleParams):
    """Adapter exposing PROT's exact selection probabilities to prop1_run.

    The adversary's game has two experts, so ``params`` must be for two: the
    rate it feeds PROT depends on the pool size.  Called at a step, the
    callback is one exact call on that step's scores.  Handed to
    :func:`prop1_run` itself, it is not called per step: the run plays the
    whole game in batched exact calls, usually one, with the same results.
    """
    if params.num_experts != 2:
        raise AdversaryError(f"the adversary's game has exactly two experts, "
                             f"params are for {params.num_experts}")
    return _ProtProbabilities(params)
