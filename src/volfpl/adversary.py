"""Adaptive two-expert construction defeating any probabilistic learner.

At each step the adversary puts the huge loss ``M_t = 4 v_{t-1} / eps`` on
whichever expert the learner currently favors.  The scaled fluctuation then
stays at ``1 / (1 + eps/4) >= 1 - eps`` forever and the normalized expected
regret never drops below ``(1 - eps) / 2``: vanishing fluctuation is
necessary for consistency, not just convenient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import _expert_cum, selection_probabilities_exact
from .game import GameError, LossMatrix, RunningVolume, volume_trace, write_csv
from .schedule import ScheduleParams, epsilon_t


class AdversaryError(GameError):
    """Invalid adversary configuration or callback output."""


@dataclass(frozen=True)
class AdversaryConfig:
    eps: float
    v0: float = 1.0
    horizon: int = 30

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise AdversaryError(f"eps must be in (0,1), got {self.eps}")
        if not self.v0 > 0:
            raise AdversaryError(f"v0 must be positive, got {self.v0}")
        if self.horizon < 1:
            raise AdversaryError(f"horizon must be >= 1, got {self.horizon}")


def prop1_step(v_prev: float, p1: float, eps: float):
    """One adversary step: loss M_t = 4 v_prev / eps on the likelier expert.

    Returns (s1_t, s2_t, M_t).  The boundary p1 = 1/2 is inclusive: the loss
    lands on expert 1.  Placing M_t on the expert the learner follows with
    probability >= 1/2 forces E(s_t) >= M_t / 2 for every callback.
    """
    if not v_prev > 0:
        raise AdversaryError(f"v_prev must be positive, got {v_prev}")
    if not 0 <= p1 <= 1:
        raise AdversaryError(f"p1 must be a probability, got {p1}")
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
    step.
    """
    T = config.horizon
    s = np.zeros((T, 2))
    p1 = np.empty(T)
    # the experts' cumulative losses, as Python floats: each sum rounds as
    # numpy's would, and the callback gets a fresh array of them
    c1 = c2 = 0.0
    volume = RunningVolume(config.v0)
    for t in range(1, T + 1):
        v_prev = volume.v
        p = float(algorithm(t, np.array((c1, c2)), v_prev))
        if not 0 <= p <= 1 or not math.isfinite(p):
            raise AdversaryError(f"callback returned invalid probability {p} at step {t}")
        a, b, mt = prop1_step(v_prev, p, config.eps)
        volume.add(mt, t)
        s[t - 1, 0 if a else 1] = mt  # the other expert's loss stays 0
        p1[t - 1] = p
        c1 += a
        c2 += b

    v, m, fluc = volume_trace(LossMatrix(s), config.v0)
    e_loss = s[:, 0] * p1 + s[:, 1] * (1.0 - p1)
    expected_cum = np.cumsum(e_loss)
    min_cum = _expert_cum(s)[1:].min(axis=1)
    return Prop1Trace(m=m, s1=s[:, 0], s2=s[:, 1], p1=p1, e_loss=e_loss, v=v[1:], fluc=fluc,
                      norm_regret_lb=(expected_cum - min_cum) / v[1:],
                      expected_cum=expected_cum, min_cum=min_cum)


def prot_probability_callback(params: ScheduleParams):
    """Adapter exposing PROT's exact selection probabilities to prop1_run.

    The adversary's game has two experts, so ``params`` must be for two: the
    rate it feeds PROT depends on the pool size.  Each step is one problem
    of two experts at a scalar rate, which :func:`selection_probabilities_exact`
    does in Python floats but for three numpy calls (exp, log1p, exp), bit
    for bit what its batched kernel gives: a step costs about 7 µs on a
    2-vCPU VM, about 4.4 of them in that call.
    """
    if params.num_experts != 2:
        raise AdversaryError(f"the adversary's game has exactly two experts, "
                             f"params are for {params.num_experts}")

    def callback(t, cumulative, v_prev):
        return float(selection_probabilities_exact(cumulative, epsilon_t(params, t, v_prev))[0])

    return callback
