"""PROT and IFPL decision rule, game runs, and selection probabilities.

PROT picks ``argmin_i (s^i_{1:t-1} - xi^i / eps_t)`` with
``eps_t = 1 / (mu_t v_{t-1})``; its analysis twin IFPL peeks at the current
step and uses ``s^i_{1:t}`` with ``eps'_t = 1 / (mu_t v_t)``.  An infinite
rate (zero volume so far) makes the perturbation term vanish: pure
follow-the-leader.

For a fixed loss matrix the volumes and rates depend only on the game, so a
whole run, or a batch of seeded runs, is one vectorized argmin.  Only
callback (adaptive) games step through a Python loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .game import GameError, LossMatrix, scaled_fluctuation, volume_trace, write_csv
from .perturbation import as_generator, sample_exponential_array
from .schedule import ScheduleParams, alpha_t, epsilon_t, mu_values

REGIMES = ("per-step", "once")

# Draws per Monte-Carlo chunk: bounds the kernel's full-size temporaries.
_MAX_CHUNK_ELEMS = 20_000_000


@dataclass
class RunRecord:
    """Per-step trace of one seeded trajectory."""

    chosen: np.ndarray
    loss: np.ndarray
    cum_loss: np.ndarray
    v: np.ndarray
    delta_v: np.ndarray
    fluc: np.ndarray
    mu: np.ndarray
    eps: np.ndarray
    expert_cum: np.ndarray = field(default=None, repr=False)
    perturbations: np.ndarray = field(default=None, repr=False)

    @property
    def num_steps(self) -> int:
        return len(self.chosen)

    @property
    def total_loss(self) -> float:
        return float(self.cum_loss[-1]) if self.num_steps else 0.0

    @property
    def regret(self) -> float:
        if self.num_steps == 0:
            return 0.0
        return self.total_loss - float(np.min(self.expert_cum))

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "chosen", "loss", "cum_loss", "v", "delta_v", "fluc", "mu", "eps"],
                  [np.arange(1, self.num_steps + 1), self.chosen + 1, self.loss, self.cum_loss,
                   self.v, self.delta_v, self.fluc, self.mu, self.eps])


def prot_select(cumulative, eps, xi):
    """argmin_i (eps s^i - xi^i), ties to the lowest index: PROT's choice.

    This is ``argmin_i (s^i - xi^i / eps)`` written so that no draw is
    divided.  An infinite rate makes the perturbation term vanish (follow
    the leader).  ``cumulative`` has shape (..., N), ``eps`` is a scalar or
    has shape (...), and ``xi`` broadcasts against (..., N); the argmin runs
    over the last axis.
    """
    s = np.asarray(cumulative, dtype=float)
    eps = np.asarray(eps, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if s.ndim < 1 or xi.shape[-1:] != s.shape[-1:]:
        raise GameError(f"shape mismatch: {s.shape} vs {xi.shape}")
    ftl = np.isinf(eps)
    choice = np.argmin(np.where(ftl, 1.0, eps)[..., None] * s - xi, axis=-1)
    if ftl.any():
        # [()] turns where's 0-d result back into a scalar for one row
        choice = np.where(ftl, np.argmin(s, axis=-1), choice)[()]
    return choice


def _rate(mu, vol):
    """eps = 1 / (mu vol); a zero volume gives an infinite rate."""
    with np.errstate(divide="ignore"):
        return 1.0 / (mu * vol)


def _schedule_mu(params: ScheduleParams, T: int) -> np.ndarray:
    """mu_t for t = 1..T; a gamma(t) that underflows to 0 leaves no rate."""
    mu = mu_values(params, T)
    bad = np.flatnonzero(~(mu > 0))
    if bad.size:
        raise GameError(f"schedule invalid at step {bad[0] + 1}: mu_t = {mu[bad[0]]}")
    return mu


def _deterministic_rates(game: LossMatrix, params: ScheduleParams, infeasible: bool):
    """Pre-selection cumulative scores and rates for every step: for a fixed
    loss matrix neither depends on the perturbations."""
    v, _, _ = volume_trace(game, params.v0)
    cum = np.vstack([np.zeros(game.num_experts), np.cumsum(game.values, axis=0)])
    mu = _schedule_mu(params, game.num_steps)
    if infeasible:
        return cum[1:], _rate(mu, v[1:])
    return cum[:-1], _rate(mu, v[:-1])


def _callback_run(step_fn, T: int, N: int, params: ScheduleParams, xi, infeasible: bool):
    """Step through an adaptive game; returns its losses, choices and rates.

    The volume is v0 plus a running sum of the steps' maxima, which rounds
    exactly like the ``cumsum`` in :func:`volume_trace`.
    """
    mu = _schedule_mu(params, T)
    values = np.empty((T, N))
    chosen = np.empty(T, dtype=int)
    eps = np.empty(T)
    cum = np.zeros(N)
    total_dv = 0.0
    history: list[int] = []
    for t in range(T):
        v_prev = params.v0 + total_dv
        s_t = np.asarray(step_fn(t + 1, history, cum), dtype=float)
        if s_t.shape != (N,) or not np.all(np.isfinite(s_t)):
            raise GameError(f"callback returned invalid losses at step {t + 1}")
        total_dv += float(np.max(np.abs(s_t)))
        v_t = params.v0 + total_dv
        if not math.isfinite(v_t):
            raise GameError(f"volume is not finite at step {t + 1}: losses overflow")
        if infeasible:
            eps[t] = _rate(mu[t], v_t)
            chosen[t] = prot_select(cum + s_t, eps[t], xi[t])
        else:
            eps[t] = _rate(mu[t], v_prev)
            chosen[t] = prot_select(cum, eps[t], xi[t])
        values[t] = s_t
        cum = cum + s_t
        history.append(int(chosen[t]))
    return LossMatrix(values), chosen, eps


def _record(game: LossMatrix, params: ScheduleParams, chosen, eps, xi) -> RunRecord:
    """The trace of a finished run; matrix and callback runs both end here."""
    values = game.values
    v, delta_v, fluc = volume_trace(game, params.v0)
    loss = values[np.arange(game.num_steps), chosen]
    cum = np.vstack([np.zeros(game.num_experts), np.cumsum(values, axis=0)])
    return RunRecord(chosen=chosen, loss=loss, cum_loss=np.cumsum(loss), v=v[1:],
                     delta_v=delta_v, fluc=fluc, mu=mu_values(params, game.num_steps),
                     eps=eps, expert_cum=cum[-1], perturbations=np.array(xi))


def _run(losses, params, rng, regime, perturbations, infeasible, num_steps, num_experts):
    if rng is None and perturbations is None:
        raise GameError("provide rng or explicit perturbations")
    if regime not in REGIMES:
        raise GameError(f"unknown perturbation regime {regime!r}")
    if callable(losses):
        if num_steps is None or num_experts is None:
            raise GameError("callback games need num_steps and num_experts")
        T, N = num_steps, num_experts
    else:
        game = losses if isinstance(losses, LossMatrix) else LossMatrix(losses)
        T, N = game.values.shape
    if N != params.num_experts:
        raise GameError(f"params expect {params.num_experts} experts, game has {N}")

    if perturbations is not None:
        xi = np.asarray(perturbations, dtype=float)
        xi = np.broadcast_to(xi, (T, N)) if regime == "once" else xi.reshape(T, N)
    elif regime == "once":
        xi = np.broadcast_to(sample_exponential_array(N, as_generator(rng)), (T, N))
    else:
        xi = sample_exponential_array((T, N), as_generator(rng))

    if callable(losses):
        game, chosen, eps = _callback_run(losses, T, N, params, xi, infeasible)
    else:
        base, eps = _deterministic_rates(game, params, infeasible)
        chosen = prot_select(base, eps, xi)
    return _record(game, params, chosen, eps, xi)


def prot_run(losses, params: ScheduleParams, rng=None, regime: str = "per-step",
             perturbations=None, num_steps=None, num_experts=None) -> RunRecord:
    """Run PROT over a loss matrix (or a non-oblivious callback).

    A loss matrix is played in one vectorized selection over all steps; a
    callback ``fn(t, chosen_history, cumulative) -> vector`` is stepped
    through, and needs ``num_steps`` and ``num_experts``.
    ``perturbations`` overrides sampling with fixed values (shape (N,) for the
    ``once`` regime, (T, N) for ``per-step``); otherwise ``rng`` drives an
    inverse-CDF exponential sampler.
    """
    return _run(losses, params, rng, regime, perturbations, False, num_steps, num_experts)


def ifpl_run(losses, params: ScheduleParams, rng=None, regime: str = "per-step",
             perturbations=None, num_steps=None, num_experts=None) -> RunRecord:
    """Run the infeasible twin: selection sees s^i_{1:t} and uses eps'_t."""
    return _run(losses, params, rng, regime, perturbations, True, num_steps, num_experts)


# ---------------------------------------------------------------------------
# Selection probabilities

@lru_cache(maxsize=None)
def _gauss_legendre_unit(k: int):
    """k-node Gauss-Legendre rule on [0, 1]: exact for degree <= 2k - 1."""
    x, w = np.polynomial.legendre.leggauss(k)
    return 0.5 * (x + 1.0), 0.5 * w


def selection_probabilities_exact(cumulative, eps) -> np.ndarray:
    """P{argmin_i (s_i - xi_i / eps) = j} for i.i.d. Exp(1) perturbations.

    With b_i = exp(-eps (s_i - min_k s_k)) in [0, 1] (1 for the leader),
    P{I=j} = int_0^1 b_j prod_{i != j} (1 - b_i u) du.  The integrand is a
    polynomial of degree N - 1 in u, so ceil(N/2) Gauss-Legendre nodes give
    it exactly; the product is taken as exp of a sum of log1p terms.

    ``cumulative`` has shape (..., N) and ``eps`` is a scalar or has shape
    (...): leading axes are independent problems.  Non-finite scores and
    rates that are not finite and positive raise GameError.
    """
    s = np.asarray(cumulative, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if s.ndim < 1 or s.shape[-1] < 1:
        raise GameError("need at least one expert")
    if not np.all(np.isfinite(s)):
        raise GameError(f"cumulative scores must be finite, got {s}")
    if not np.all(np.isfinite(eps) & (eps > 0)):
        raise GameError(f"eps must be finite and positive, got {eps}")
    u, w = _gauss_legendre_unit((s.shape[-1] + 1) // 2)
    with np.errstate(over="ignore"):
        b = np.exp(-eps[..., None] * (s - s.min(axis=-1, keepdims=True)))
    logs = np.log1p(-b[..., None] * u)
    terms = np.exp(logs.sum(axis=-2, keepdims=True) - logs) * w
    # Rounding can lift the leader's probability a few ulps above 1.
    return np.minimum(b * terms.sum(axis=-1), 1.0)


def selection_probabilities_mc(cumulative, eps: float, num_samples: int, rng) -> np.ndarray:
    """Empirical selection frequencies over fresh exponential perturbations."""
    if num_samples < 1:
        raise GameError(f"need num_samples >= 1, got {num_samples}")
    s = np.asarray(cumulative, dtype=float)
    gen = as_generator(rng)
    n = len(s)
    counts = np.zeros(n, dtype=np.int64)
    chunk = max(1, min(num_samples, 2_000_000 // max(n, 1)))
    done = 0
    while done < num_samples:
        m = min(chunk, num_samples - done)
        xi = sample_exponential_array((m, n), gen)
        counts += np.bincount(prot_select(s, eps, xi), minlength=n)
        done += m
    return counts / num_samples


def probability_ratio_check(cumulative_prev, loss_t, params: ScheduleParams,
                            t: int, v_prev: float, v_t: float,
                            slack: float = 1e-9) -> bool:
    """Exact check of P{I_t=j} <= exp((3/a) gamma(t)^{1-alpha_t}) P{J_t=j}.

    PROT probabilities use (s_{1:t-1}, eps_t); IFPL uses (s_{1:t}, eps'_t).
    Requires fluc(t) <= gamma(t).
    """
    cumulative_prev = np.asarray(cumulative_prev, dtype=float)
    loss_t = np.asarray(loss_t, dtype=float)
    dv = v_t - v_prev
    if dv < -1e-15 * max(1.0, abs(v_t)):
        raise GameError("volume decreased")
    fluc = scaled_fluctuation(max(dv, 0.0), v_t)
    g = params.gamma(t)
    if fluc > g:
        raise GameError(f"fluc({t}) = {fluc:.6g} exceeds gamma({t}) = {g:.6g}")
    factor = math.exp((3.0 / params.a) * g ** (1.0 - alpha_t(params, t)))
    p_prot = selection_probabilities_exact(cumulative_prev, epsilon_t(params, t, v_prev))
    p_ifpl = selection_probabilities_exact(cumulative_prev + loss_t, epsilon_t(params, t, v_t))
    return bool(np.all(p_prot <= factor * p_ifpl + slack))


# ---------------------------------------------------------------------------
# Vectorized Monte Carlo over many seeds (oblivious games)

def batch_cumulative_losses(losses, params: ScheduleParams, num_runs: int, rng,
                            regime: str = "per-step", infeasible: bool = False,
                            checkpoints=None):
    """Learner cumulative losses for many independent seeded runs at once.

    Returns an array of shape (num_runs, len(checkpoints)); ``checkpoints``
    defaults to [T].  Only valid for oblivious games (fixed loss matrix),
    where volumes and rates do not depend on the perturbations.  A single
    run draws the doubles ``prot_run`` draws from the same ``rng``, so it
    reproduces that run's total loss exactly.
    """
    if regime not in REGIMES:
        raise GameError(f"unknown perturbation regime {regime!r}")
    game = losses if isinstance(losses, LossMatrix) else LossMatrix(losses)
    T, N = game.values.shape
    if N != params.num_experts:
        raise GameError(f"params expect {params.num_experts} experts, game has {N}")
    checkpoints = [T] if checkpoints is None else list(checkpoints)
    base, rate = _deterministic_rates(game, params, infeasible)

    gen = as_generator(rng)
    out = np.empty((num_runs, len(checkpoints)))
    chunk = max(1, min(num_runs, _MAX_CHUNK_ELEMS // (T * N)))
    cp_idx = np.asarray(checkpoints, dtype=int) - 1
    for done in range(0, num_runs, chunk):
        m = min(chunk, num_runs - done)
        xi = sample_exponential_array((m, 1 if regime == "once" else T, N), gen)
        picked = game.values[np.arange(T), prot_select(base, rate, xi)]
        out[done:done + m] = np.cumsum(picked, axis=1)[:, cp_idx]
    return out


def monte_carlo_regret(losses, params: ScheduleParams, num_runs: int, rng,
                       regime: str = "per-step", infeasible: bool = False,
                       checkpoints=None):
    """Mean and standard error of the regret over ``num_runs`` seeds.

    Returns (mean, se) arrays over checkpoints (scalars when checkpoints is
    None selects only T).
    """
    values = losses.values if isinstance(losses, LossMatrix) else np.asarray(losses, float)
    T = values.shape[0]
    cps = [T] if checkpoints is None else list(checkpoints)
    totals = batch_cumulative_losses(losses, params, num_runs, rng, regime=regime,
                                     infeasible=infeasible, checkpoints=cps)
    cum = np.cumsum(values, axis=0)
    best = np.array([np.min(cum[c - 1]) for c in cps])
    regrets = totals - best[None, :]
    mean = regrets.mean(axis=0)
    se = regrets.std(axis=0, ddof=1) / math.sqrt(num_runs) if num_runs > 1 else np.zeros(len(cps))
    if checkpoints is None:
        return float(mean[0]), float(se[0])
    return mean, se
