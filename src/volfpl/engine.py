"""PROT and IFPL decision rules, game loops, and selection probabilities.

PROT picks ``argmin_i (s^i_{1:t-1} - xi^i / eps_t)`` with
``eps_t = 1 / (mu_t v_{t-1})``; its analysis twin IFPL peeks at the current
step and uses ``s^i_{1:t}`` with ``eps'_t = 1 / (mu_t v_t)``.  An infinite
rate (zero volume so far) makes the perturbation term vanish: pure
follow-the-leader.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .game import GameError, LossMatrix, scaled_fluctuation
from .perturbation import as_generator, sample_exponential_array
from .schedule import (
    ScheduleParams,
    alpha_t,
    epsilon_prime_t,
    epsilon_t,
    mu_t,
    mu_values,
)

REGIMES = ("per-step", "once")


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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "chosen", "loss", "cum_loss", "v", "delta_v", "fluc", "mu", "eps"])
            for t in range(self.num_steps):
                writer.writerow(
                    [
                        t + 1,
                        int(self.chosen[t]) + 1,
                        repr(float(self.loss[t])),
                        repr(float(self.cum_loss[t])),
                        repr(float(self.v[t])),
                        repr(float(self.delta_v[t])),
                        repr(float(self.fluc[t])),
                        repr(float(self.mu[t])),
                        repr(float(self.eps[t])),
                    ]
                )


def prot_select(cumulative, eps_t: float, xi) -> int:
    """argmin_i { s^i_{1:t-1} - xi^i / eps_t }, ties to the lowest index.

    With an infinite rate the perturbation term vanishes (follow the leader).
    """
    cumulative = np.asarray(cumulative, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if xi.shape != cumulative.shape:
        raise GameError(f"shape mismatch: {cumulative.shape} vs {xi.shape}")
    if math.isinf(eps_t):
        return int(np.argmin(cumulative))
    return int(np.argmin(cumulative - xi / eps_t))


def _resolve_losses(losses):
    """Return (step_fn, T, N).  Accepts a LossMatrix, an array, or a callback
    ``fn(t, chosen_history, cumulative) -> vector`` paired with (T, N)."""
    if isinstance(losses, LossMatrix):
        values = losses.values
        return (lambda t, chosen, cum: values[t - 1]), values.shape[0], values.shape[1]
    values = np.asarray(losses, dtype=float)
    return (lambda t, chosen, cum: values[t - 1]), values.shape[0], values.shape[1]


def _run_loop(losses, params, rng, regime, perturbations, infeasible,
              num_steps=None, num_experts=None):
    if regime not in REGIMES:
        raise GameError(f"unknown perturbation regime {regime!r}")
    if callable(losses):
        if num_steps is None or num_experts is None:
            raise GameError("callback games need num_steps and num_experts")
        step_fn, T, N = losses, num_steps, num_experts
        callback = True
    else:
        step_fn, T, N = _resolve_losses(losses)
        callback = False
    if N != params.num_experts:
        raise GameError(f"params expect {params.num_experts} experts, game has {N}")

    if perturbations is not None:
        perturbations = np.asarray(perturbations, dtype=float)
        if regime == "once":
            xi_all = np.broadcast_to(perturbations, (T, N))
        else:
            xi_all = perturbations.reshape(T, N)
    else:
        gen = as_generator(rng)
        if regime == "once":
            xi_all = np.broadcast_to(sample_exponential_array(N, gen), (T, N))
        else:
            xi_all = sample_exponential_array((T, N), gen)

    chosen = np.empty(T, dtype=int)
    loss = np.empty(T)
    v = np.empty(T)
    delta_v = np.empty(T)
    fluc = np.empty(T)
    mu = np.empty(T)
    eps = np.empty(T)
    cum = np.zeros(N)
    v_prev = params.v0
    total = 0.0
    cum_loss = np.empty(T)
    history: list[int] = []

    for t in range(1, T + 1):
        mu[t - 1] = mu_t(params, t)
        if not (math.isfinite(mu[t - 1]) and mu[t - 1] > 0):
            raise GameError(f"schedule invalid at step {t}: mu_t = {mu[t - 1]}")
        if infeasible:
            s_t = np.asarray(step_fn(t, history, cum), dtype=float)
            dv = float(np.max(np.abs(s_t)))
            v_t = v_prev + dv
            rate = epsilon_prime_t(params, t, v_t)
            idx = prot_select(cum + s_t, rate, xi_all[t - 1])
        else:
            rate = epsilon_t(params, t, v_prev)
            idx = prot_select(cum, rate, xi_all[t - 1])
            s_t = np.asarray(step_fn(t, history, cum), dtype=float)
            dv = float(np.max(np.abs(s_t)))
            v_t = v_prev + dv
        if callback and (s_t.shape != (N,) or not np.all(np.isfinite(s_t))):
            raise GameError(f"callback returned invalid losses at step {t}")

        chosen[t - 1] = idx
        loss[t - 1] = s_t[idx]
        total += s_t[idx]
        cum_loss[t - 1] = total
        cum = cum + s_t
        delta_v[t - 1] = dv
        v[t - 1] = v_t
        fluc[t - 1] = scaled_fluctuation(dv, v_t)
        eps[t - 1] = rate
        v_prev = v_t
        history.append(idx)

    return RunRecord(
        chosen=chosen,
        loss=loss,
        cum_loss=cum_loss,
        v=v,
        delta_v=delta_v,
        fluc=fluc,
        mu=mu,
        eps=eps,
        expert_cum=cum,
        perturbations=np.array(xi_all),
    )


def prot_run(losses, params: ScheduleParams, rng=None, regime: str = "per-step",
             perturbations=None, num_steps=None, num_experts=None) -> RunRecord:
    """Run the full PROT loop over a loss matrix (or a non-oblivious callback).

    ``perturbations`` overrides sampling with fixed values (shape (N,) for the
    ``once`` regime, (T, N) for ``per-step``); otherwise ``rng`` drives an
    inverse-CDF exponential sampler.
    """
    if rng is None and perturbations is None:
        raise GameError("provide rng or explicit perturbations")
    return _run_loop(losses, params, rng, regime, perturbations, infeasible=False,
                     num_steps=num_steps, num_experts=num_experts)


def ifpl_run(losses, params: ScheduleParams, rng=None, regime: str = "per-step",
             perturbations=None, num_steps=None, num_experts=None) -> RunRecord:
    """Run the infeasible twin: selection sees s^i_{1:t} and uses eps'_t."""
    if rng is None and perturbations is None:
        raise GameError("provide rng or explicit perturbations")
    return _run_loop(losses, params, rng, regime, perturbations, infeasible=True,
                     num_steps=num_steps, num_experts=num_experts)


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
        picks = np.argmin(s[None, :] - xi / eps, axis=1)
        counts += np.bincount(picks, minlength=n)
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
    p_ifpl = selection_probabilities_exact(cumulative_prev + loss_t,
                                           epsilon_prime_t(params, t, v_t))
    return bool(np.all(p_prot <= factor * p_ifpl + slack))


# ---------------------------------------------------------------------------
# Vectorized Monte Carlo over many seeds (oblivious games)

def _deterministic_rates(values: np.ndarray, params: ScheduleParams, infeasible: bool):
    """Pre-step cumulative scores and rates, all seed-independent for a fixed
    loss matrix."""
    T, _ = values.shape
    delta_v = np.max(np.abs(values), axis=1)
    v = np.concatenate([[params.v0], params.v0 + np.cumsum(delta_v)])
    cum = np.vstack([np.zeros(values.shape[1]), np.cumsum(values, axis=0)])
    mu = mu_values(params, T)
    if infeasible:
        base, vol = cum[1:], v[1:]
    else:
        base, vol = cum[:-1], v[:-1]
    with np.errstate(divide="ignore"):
        rate = np.where(vol > 0, 1.0 / (mu * np.where(vol > 0, vol, 1.0)), np.inf)
    return base, rate, delta_v, cum[-1]


def batch_cumulative_losses(losses, params: ScheduleParams, num_runs: int, rng,
                            regime: str = "per-step", infeasible: bool = False,
                            checkpoints=None, max_chunk_elems: int = 20_000_000):
    """Learner cumulative losses for many independent seeded runs at once.

    Returns an array of shape (num_runs, len(checkpoints)); ``checkpoints``
    defaults to [T].  Only valid for oblivious games (fixed loss matrix),
    where volumes and rates do not depend on the perturbations.
    """
    if regime not in REGIMES:
        raise GameError(f"unknown perturbation regime {regime!r}")
    values = losses.values if isinstance(losses, LossMatrix) else np.asarray(losses, float)
    T, N = values.shape
    if N != params.num_experts:
        raise GameError(f"params expect {params.num_experts} experts, game has {N}")
    checkpoints = [T] if checkpoints is None else list(checkpoints)
    base, rate, _, _ = _deterministic_rates(values, params, infeasible)

    finite = np.isfinite(rate)
    scores_det = np.where(finite[:, None], rate[:, None], 1.0) * base
    ftl_choice = np.argmin(base, axis=1)

    gen = as_generator(rng)
    out = np.empty((num_runs, len(checkpoints)))
    chunk = max(1, min(num_runs, max_chunk_elems // (T * N)))
    done = 0
    cp_idx = np.asarray(checkpoints, dtype=int) - 1
    while done < num_runs:
        m = min(chunk, num_runs - done)
        if regime == "once":
            xi = sample_exponential_array((m, 1, N), gen)
        else:
            xi = sample_exponential_array((m, T, N), gen)
        choice = np.argmin(scores_det[None, :, :] - xi, axis=2)
        if not finite.all():
            choice[:, ~finite] = ftl_choice[~finite]
        picked = values[np.arange(T)[None, :], choice]
        out[done:done + m] = np.cumsum(picked, axis=1)[:, cp_idx]
        done += m
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
