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

from .game import (
    GameError,
    LossMatrix,
    RunningVolume,
    require_count,
    scaled_fluctuation,
    volume_trace,
    write_csv,
)
from .perturbation import _neg_exponential_array, as_generator, sample_exponential_array
from .schedule import ScheduleError, ScheduleParams, _alpha_split, epsilon_values, mu_t, mu_values

REGIMES = ("per-step", "once")

# Draws per Monte-Carlo chunk: 1 MB of doubles, so that a chunk's draws and
# its scores fit in a 2 MB L2 cache together; the kernel's memory does not
# grow with the number of runs.
_MAX_CHUNK_ELEMS = 1 << 17


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
        return self.total_loss - float(np.min(self.expert_cum))

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "chosen", "loss", "cum_loss", "v", "delta_v", "fluc", "mu", "eps"],
                  [np.arange(1, self.num_steps + 1), self.chosen + 1, self.loss, self.cum_loss,
                   self.v, self.delta_v, self.fluc, self.mu, self.eps])


def _argmin_last(x):
    """``np.argmin(x, axis=-1)``, ties to the lowest index, as intp.

    numpy's argmin pays a call per row of N values.  For two experts this is
    one compare of the last axis's two columns.  For 3 to 16 experts and at
    least ``1024 (N - 1)`` rows (every Monte Carlo chunk at N <= 10) it is a
    running minimum over the columns, each step a whole-array ufunc: column
    j wins where it is strictly below every earlier column, and the byte
    ``j * win`` is folded into a one-byte index by ``maximum``, so the last
    winning j is the argmin.  On a 2.0 GHz Xeon that takes 172 µs against
    np.argmin's 606 µs on a (13, 2000, 5) chunk and 190 against 408 µs at
    (6, 2000, 10).  With fewer rows a step's fixed cost is not paid back,
    and from 16 experts on it is at par, so those stay on np.argmin.
    Strict ``<`` keeps the lowest index on ties, so every form agrees with
    np.argmin on every input without NaN, and the engine forms no NaN
    score: see :func:`prot_select`.
    """
    n = x.shape[-1]
    if n == 2:
        return np.less(x[..., 1], x[..., 0]).astype(np.intp)
    rows = x.shape[:-1]
    if not 3 <= n <= 16 or math.prod(rows) < 1024 * (n - 1):
        return np.argmin(x, axis=-1)
    low = x[..., 0]
    win = np.empty(rows, dtype=bool)
    step, choice = win.view(np.uint8), np.zeros(rows, dtype=np.uint8)
    for j in range(1, n):
        np.less(x[..., j], low, out=win)
        if j < n - 1:
            # in place once ``low`` is no longer a view of x
            low = np.minimum(low, x[..., j], out=low if j > 1 else None)
        np.multiply(step, j, out=step)
        np.maximum(choice, step, out=choice)
    return choice.astype(np.intp)


def prot_select(cumulative, eps, xi):
    """argmin_i (eps s^i - xi^i), ties to the lowest index: PROT's choice.

    This is ``argmin_i (s^i - xi^i / eps)`` written so that no draw is
    divided.  An infinite rate makes the perturbation term vanish (follow
    the leader).  ``cumulative`` has shape (..., N), ``eps`` is a scalar or
    has shape (...), and ``xi`` broadcasts against (..., N); the argmin runs
    over the last axis.  Shapes that do not broadcast, NaN scores, rates
    that are not positive and perturbations that are not finite raise
    GameError, so no score is NaN.
    """
    s = np.asarray(cumulative, dtype=float)
    eps = np.asarray(eps, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if s.ndim < 1 or xi.shape[-1:] != s.shape[-1:]:
        raise GameError(f"shape mismatch: {s.shape} vs {xi.shape}")
    try:
        rows = np.broadcast_shapes(s.shape[:-1], eps.shape, xi.shape[:-1])
    except ValueError:
        raise GameError(f"scores of shape {s.shape}, rates of shape {eps.shape} and "
                        f"perturbations of shape {xi.shape} do not broadcast") from None
    if s.shape[-1] < 1:
        raise GameError("need at least one expert")
    # a NaN score or a rate that is not positive would make a perturbed
    # score NaN (``0 * inf`` is NaN)
    if np.isnan(s).any() or not (eps > 0).all():
        raise GameError(f"need scores without NaN and positive rates, got {s} and {eps}")
    if not np.isfinite(xi).all():
        at = tuple(np.argwhere(~np.isfinite(xi))[0].tolist())
        raise GameError(f"perturbations must be finite, got {xi[at]!r} at index {at}")
    # the scores and rates take their joint row shape, expanded only where
    # xi's rows stretch a size-1 axis; xi's extra leading axes broadcast in
    # the add, and its negated copy holds the scores when it has their shape
    own = rows[len(rows) - len(np.broadcast_shapes(s.shape[:-1], eps.shape)):]
    scaled = _scaled_scores(np.broadcast_to(s, own + s.shape[-1:]), np.broadcast_to(eps, own))
    neg_xi = np.negative(xi)
    out = neg_xi if neg_xi.shape == rows + s.shape[-1:] else None
    # [()] turns one row's 0-d choice back into a scalar
    return _perturbed_choice(*scaled, neg_xi, out=out)[()]


def _scaled_scores(base, eps):
    """What every draw of a selection shares, from scores of shape (..., N)
    and rates of shape (...): the scaled scores ``where(ftl, 1, eps) *
    base``, the mask ``ftl`` of the rows whose rate is infinite (follow the
    leader) and the leaders of those rows."""
    ftl = np.isinf(eps)
    return np.where(ftl, 1.0, eps)[..., None] * base, ftl, _argmin_last(base[ftl])


def _perturbed_choice(scaled, ftl, leaders, neg_xi, out=None):
    """PROT's choice, without checks, from :func:`_scaled_scores` and the
    negated draws ``-xi``: the argmin of ``scaled + (-xi)`` over the last
    axis, and the leaders at the follow-the-leader rows.

    IEEE defines ``a - b`` as ``a + (-b)``, so the scores are the bits of
    ``eps s - xi``.  ``out`` may be the draw buffer, which then holds them.
    The caller makes sure no score is NaN.
    """
    choice = np.asarray(_argmin_last(np.add(scaled, neg_xi, out=out)))
    choice[..., ftl] = leaders
    return choice


def _chunk_choices(scaled, ftl, leaders, shape, gen):
    """PROT's choices for one chunk of m fresh draws of ``shape``, (m,) +
    ``scaled.shape``, or (m, 1, N) for one draw per run of (T, N) scores.

    The draws come negated, ``log(1 - U)``, and the scores are formed in
    their buffer where they have its shape; with one draw per run of
    several steps the scores get their own array.
    """
    neg_xi = _neg_exponential_array(shape, gen)
    return _perturbed_choice(scaled, ftl, leaders, neg_xi,
                             out=neg_xi if shape[1:] == scaled.shape else None)


def _expert_cum(values) -> np.ndarray:
    """Cumulative expert losses s^i_{1:t} for t = 0..T (row 0 is zeros)."""
    cum = np.zeros((len(values) + 1, values.shape[1]))
    np.cumsum(values, axis=0, out=cum[1:])
    return cum


def _mean_se(samples):
    """Mean and standard error over the first axis (SE 0 for one sample).

    Each column is first scaled into [-1, 1] by the power of two of its
    largest |value|, and both results are scaled back: the squared
    deviations of values past about 1e154 would overflow to an infinite
    SE.  Scaling by a power of two is exact, so the bits are those of the
    unscaled formulas wherever those do not overflow.
    """
    x = np.asarray(samples, dtype=float)
    e = np.frexp(np.max(np.abs(x), axis=0))[1]
    x = np.ldexp(x, -e)
    se = x.std(axis=0, ddof=1) / math.sqrt(len(x)) if len(x) > 1 else np.zeros(x.shape[1:])
    return np.ldexp(x.mean(axis=0), e), np.ldexp(se, e)


def _deterministic_rates(game: LossMatrix, params: ScheduleParams, infeasible: bool):
    """Scores and rates of every step of a loss matrix: neither depends on
    the perturbations.

    Returns ``(scores, eps, trace)``: the (T, N) cumulative losses each
    step's choice sees, the (T,) rates, and the tuple ``(v, delta_v, fluc,
    mu, cum)`` a run's record reads, ``cum`` the whole (T+1, N) table.
    """
    v, delta_v, fluc = volume_trace(game, params.v0)
    cum = _expert_cum(game.values)
    mu = mu_values(params, game.num_steps)
    seen = slice(1, None) if infeasible else slice(None, -1)
    return cum[seen], epsilon_values(mu, v[seen]), (v, delta_v, fluc, mu, cum)


def _callback_run(step_fn, T: int, N: int, params: ScheduleParams, neg_xi, infeasible: bool):
    """Step through an adaptive game; returns the game played and the
    choices.

    The loop fills the table of running scores row by row and keeps the
    :class:`RunningVolume` each step's rate needs.  The callback sees the
    scores through a read-only view, so a callback that writes into them
    raises instead of changing the run.  A row is checked by its shape and
    its peak max|s_t|, into which NaN and infinities propagate.

    Each step selects through :func:`_perturbed_choice` on the negated
    draws ``neg_xi``, without :func:`prot_select`'s checks: ``_run`` checked
    the perturbations once, the scores sum losses checked finite (so none
    is NaN), and :func:`epsilon_values` raises on a rate of 0, or an
    infinite one at a positive volume.
    """
    mu = mu_values(params, T)
    values = np.empty((T, N))
    chosen = np.empty(T, dtype=int)
    cum = np.zeros((T + 1, N))
    seen = cum.view()
    seen.flags.writeable = False
    volume = RunningVolume(params.v0)
    history: list[int] = []
    for t in range(T):
        v_prev = volume.v
        s_t = np.asarray(step_fn(t + 1, history, seen[t]), dtype=float)
        if s_t.shape != (N,) or not math.isfinite(peak := float(np.max(np.abs(s_t)))):
            raise GameError(f"callback returned invalid losses at step {t + 1}")
        v_t = volume.add(peak, t + 1)
        np.add(cum[t], s_t, out=cum[t + 1])
        if infeasible:
            rate, scores = epsilon_values(mu[t], v_t, t + 1), cum[t + 1]
        else:
            rate, scores = epsilon_values(mu[t], v_prev, t + 1), cum[t]
        chosen[t] = _perturbed_choice(*_scaled_scores(scores, rate), neg_xi[t])
        values[t] = s_t
        history.append(int(chosen[t]))
    return LossMatrix(values), chosen


def _run(losses, params, rng, regime, perturbations, infeasible, num_steps):
    if rng is None and perturbations is None:
        raise GameError("provide rng or explicit perturbations")
    if regime not in REGIMES:
        raise GameError(f"unknown perturbation regime {regime!r}")
    if callable(losses):
        if num_steps is None:
            raise GameError("callback games need num_steps")
        T, N = require_count(num_steps, "num_steps", 0), params.num_experts
    else:
        game = losses if isinstance(losses, LossMatrix) else LossMatrix(losses)
        T, N = game.values.shape
        if N != params.num_experts:
            raise GameError(f"params expect {params.num_experts} experts, game has {N}")

    # drawn perturbations have the shape a caller passes, and take its checks
    if perturbations is None:
        xi = sample_exponential_array((1 if regime == "once" else T, N), as_generator(rng))
    else:
        xi = np.asarray(perturbations, dtype=float)
    if regime == "once" and xi.shape not in ((N,), (1, N)):
        raise GameError(f"regime 'once' takes {N} perturbations, as (N,) or (1, N), "
                        f"got shape {xi.shape}")
    if regime == "per-step" and xi.shape != (T, N):
        raise GameError(f"regime 'per-step' takes ({T}, {N}) perturbations, got shape {xi.shape}")
    # the rows given, before the broadcast: under 'once' one row, played at
    # every step, so a game with no steps plays none of it
    rows = np.atleast_2d(xi)
    if T and not np.isfinite(rows).all():
        t = int(np.argmin(np.isfinite(rows).all(axis=1)))
        raise GameError(f"perturbations must be finite, got {rows[t]} at step {t + 1}")
    xi = np.broadcast_to(xi, (T, N))

    neg_xi = np.negative(xi)
    if callable(losses):
        game, chosen = _callback_run(losses, T, N, params, neg_xi, infeasible)
    # every record is read from the table of the game played
    base, eps, (v, delta_v, fluc, mu, cum) = _deterministic_rates(game, params, infeasible)
    if not callable(losses):
        # the game, its rates and the draws are checked: no score is NaN
        chosen = _perturbed_choice(*_scaled_scores(base, eps), neg_xi, out=neg_xi)
    loss = game.values[np.arange(T), chosen]
    return RunRecord(chosen=chosen, loss=loss, cum_loss=np.cumsum(loss), v=v[1:],
                     delta_v=delta_v, fluc=fluc, mu=mu, eps=eps, expert_cum=cum[-1].copy(),
                     perturbations=np.array(xi))


def prot_run(losses, params: ScheduleParams, rng=None, regime: str = "per-step",
             perturbations=None, num_steps=None) -> RunRecord:
    """Run PROT over a loss matrix (or a non-oblivious callback).

    A loss matrix is played in one vectorized selection over all steps; a
    callback ``fn(t, chosen_history, cumulative) -> vector`` of length
    ``params.num_experts`` is stepped through, and needs ``num_steps``.
    ``perturbations`` overrides sampling with fixed values (shape (N,) or
    (1, N) for the ``once`` regime, exactly (T, N) for ``per-step``; any
    other shape raises GameError); otherwise ``rng`` drives an inverse-CDF
    exponential sampler, which draws (1, N) or (T, N).
    """
    return _run(losses, params, rng, regime, perturbations, False, num_steps)


def ifpl_run(losses, params: ScheduleParams, rng=None, regime: str = "per-step",
             perturbations=None, num_steps=None) -> RunRecord:
    """Run the infeasible twin: selection sees s^i_{1:t} and uses eps'_t."""
    return _run(losses, params, rng, regime, perturbations, True, num_steps)


# ---------------------------------------------------------------------------
# Selection probabilities

@lru_cache(maxsize=None)
def _gauss_legendre_unit(k: int):
    """k-node Gauss-Legendre rule on [0, 1], exact for degree <= 2k - 1,
    shaped for the expert-major kernel: the negated nodes as (k, 1), to
    broadcast against (N, 1, M), and the weights as (k, 1, 1)."""
    x, w = np.polynomial.legendre.leggauss(k)
    return (-0.5 * (x + 1.0)).reshape(k, 1), (0.5 * w).reshape(k, 1, 1)


def _require_rates(eps) -> None:
    """Raise GameError unless a rate, or every rate of an array, is finite
    and positive."""
    if not (np.isfinite(eps) & (eps > 0)).all():
        raise GameError(f"eps must be finite and positive, got {eps}")


# log1p(-b u) of the leader (b = 1) at the one node u = 1/2 of N = 2, from
# the ufunc that forms the follower's term
_LEADER_LOG = float(np.log1p(np.array([-0.5]))[0])


def _two_expert_probabilities(d, eps) -> np.ndarray:
    """(P{expert 1}, P{expert 2}) as a (2, ...) array, from the score
    difference ``d = s^1 - s^2`` of each problem of two experts and its
    rate: the bits of :func:`selection_probabilities_exact` on (s^1, s^2).

    The fast path of the trading pass and of the adversary against PROT,
    roughly three times faster than the kernel on a (4096, 2) batch and on
    a (30, 2) one: the kernel's N = 2 operations on one column instead of
    an (N, M) copy of the scores.  The follower's scaled gap
    eps (min s - max s) is -|d| eps, since IEEE rounds a - b to -(b - a).
    The rule has one node, u = 1/2 with weight 1: b = exp(-|d| eps) (the
    leader's b is 1), the logs log1p(-b/2), their sum S and
    P{j} = min(exp(S - log_j) b_j, 1).  IEEE addition is commutative, so S
    does not depend on which expert leads.  Expert 1 leads where d <= 0;
    on a tie both get the same value.
    """
    # |d| in an array of its own, also for a 0-d d, so the rest is in place
    x = np.abs(d, out=np.empty(np.shape(d)))
    np.negative(x, out=x)
    with np.errstate(over="ignore"):
        x *= eps
    b = np.exp(x, out=x)
    # (leader, follower) rows, views even for a 0-d d: the follower's
    # log1p(-b/2) and their sum S are formed in the rows they turn into
    p = np.empty((2,) + np.shape(d))
    logs = np.log1p(np.multiply(b, -0.5, out=p[1, ...]), out=p[1, ...])
    total = np.add(logs, _LEADER_LOG, out=p[0, ...])
    np.subtract(total, logs, out=logs)
    total -= _LEADER_LOG
    np.exp(p, out=p)
    p[1, ...] *= b
    # the node kernel's clamp at 1, kept so that every bit is the node kernel's
    np.minimum(p, 1.0, out=p)
    # expert 1 leads where d <= 0; elsewhere the rows swap, through b's buffer
    swap = np.greater(d, 0.0)
    np.copyto(b, p[0, ...])
    np.copyto(p[0, ...], p[1, ...], where=swap)
    np.copyto(p[1, ...], b, where=swap)
    return p


def selection_probabilities_exact(cumulative, eps) -> np.ndarray:
    """P{argmin_i (s_i - xi_i / eps) = j} for i.i.d. Exp(1) perturbations.

    With b_i = exp(-eps (s_i - min_k s_k)) in [0, 1] (1 for the leader),
    P{I=j} = int_0^1 b_j prod_{i != j} (1 - b_i u) du.  The integrand is a
    polynomial of degree N - 1 in u, so ceil(N/2) Gauss-Legendre nodes would
    give it exactly in exact arithmetic; the product is taken as exp of a
    sum of log1p terms.

    In floating point each probability is within 128 (1 + max_i |x_i|) ulps
    of the true integral of the float scores and rate, where
    x_i = eps (min s - s_i); the tests check this against an 80-digit
    ``decimal`` evaluation for N = 1..30.  Two sources set the bound.
    numpy's ``leggauss`` weights are off by up to about 40 * 2^-52 relative
    (at 8 and 12 nodes), which gives the worst error measured, about
    45 (1 + max|x|) ulps near ties at N = 16.  And exp turns the rounding
    of each x_i into a relative error of about |x_i| ulps in b_i, since
    its condition number is |x|.

    ``cumulative`` has shape (..., N) and ``eps`` is a scalar or has shape
    (...): leading axes are independent problems.  Non-finite scores and
    rates that are not finite and positive raise GameError.

    The kernel is one for every N and is expert-major: the M problems
    become the last, contiguous axis of an (N, M) copy of the scores, and
    the logs are (N, k, M).  The leader's minimum, the sum over experts and
    the sum over nodes then combine whole length-M rows, one after another
    in index order, instead of reducing a short axis per problem.  That
    order does not depend on M, so every problem of a batched call gives
    the bits a call on that problem alone gives; the copy and the layout
    are what fix it.  At N <= 2 the rule has one node, u = 1/2 with weight
    exactly 1, so one expert gets exactly 1 and two experts get the bits
    of :func:`_two_expert_probabilities` on their score difference.
    """
    s = np.asarray(cumulative, dtype=float)
    if s.ndim < 1 or s.shape[-1] < 1:
        raise GameError("need at least one expert")
    if not np.isfinite(s).all():
        raise GameError(f"cumulative scores must be finite, got {s}")
    eps = np.asarray(eps, dtype=float)
    _require_rates(eps)
    n = s.shape[-1]
    shape = s.shape[:-1]
    if eps.ndim and eps.shape != shape:
        shape = np.broadcast_shapes(shape, eps.shape)
        s, eps = np.broadcast_to(s, shape + (n,)), np.broadcast_to(eps, shape)
    k = (n + 1) // 2
    neg_u, w = _gauss_legendre_unit(k)
    # (N, M); a copy even where the transpose is contiguous, as it is
    # written in place
    x = s.reshape(-1, n).T.copy()
    # -eps (s - min s) as eps (min s - s): IEEE rounds a - b to -(b - a)
    with np.errstate(over="ignore"):
        np.subtract(np.minimum.reduce(x, axis=0), x, out=x)
        x *= eps.reshape(-1)
    b = np.exp(x, out=x)
    logs = np.multiply(b[:, None], neg_u)  # (N, k, M)
    np.log1p(logs, out=logs)
    # Both sums reduce a leading axis, which numpy adds one row after
    # another: from N = 3 on, the rest of the block holds k M >= 2 entries
    # for the experts and N M >= 3 for the nodes.  Below that a sum has at
    # most two terms, and IEEE addition is commutative.
    terms = np.subtract(np.add.reduce(logs, axis=0)[:, None], logs.transpose(1, 0, 2),
                        order="C")
    np.exp(terms, out=terms)  # (k, N, M)
    terms *= w
    p = np.add.reduce(terms, axis=0)
    p *= b
    # Rounding can lift the leader's probability a few ulps above 1.
    return np.minimum(p, 1.0, out=p).T.reshape(shape + (n,))


def selection_probabilities_mc(cumulative, eps: float, num_samples: int, rng) -> np.ndarray:
    """Empirical selection frequencies: the counts of :func:`prot_select`'s
    choices for one row of scores over fresh exponential perturbations,
    drawn in chunks of at most ``_MAX_CHUNK_ELEMS`` doubles.

    An infinite rate is follow the leader; NaN scores and rates that are
    not positive raise GameError, as in :func:`prot_select`.
    """
    require_count(num_samples, "num_samples")
    s = np.asarray(cumulative, dtype=float)
    if s.ndim != 1 or len(s) < 1:
        raise GameError(f"need at least one expert in one row of scores, got shape {s.shape}")
    gen = as_generator(rng)
    n = len(s)
    counts = np.zeros(n, dtype=np.int64)
    chunk = max(1, min(num_samples, _MAX_CHUNK_ELEMS // n))
    for done in range(0, num_samples, chunk):
        xi = sample_exponential_array((min(chunk, num_samples - done), n), gen)
        counts += np.bincount(prot_select(s, eps, xi), minlength=n)
    return counts / num_samples


def probability_ratio_check(cumulative_prev, loss_t, params: ScheduleParams,
                            t: int, v_prev: float, v_t: float,
                            slack: float = 1e-9) -> bool:
    """Exact check of P{I_t=j} <= exp((3/a) gamma(t)^{1-alpha_t}) P{J_t=j}.

    PROT's probabilities are one exact call on (s_{1:t-1}, eps_t), IFPL's
    one on (s_{1:t}, eps'_t).  Requires fluc(t) <= gamma(t).
    """
    cumulative_prev = np.asarray(cumulative_prev, dtype=float)
    loss_t = np.asarray(loss_t, dtype=float)
    if not (math.isfinite(v_prev) and math.isfinite(v_t)):
        raise ScheduleError(f"volumes must be finite, got v_prev={v_prev}, v_t={v_t}")
    dv = v_t - v_prev
    if dv < -1e-15 * max(1.0, abs(v_t)):
        raise GameError("volume decreased")
    fluc = scaled_fluctuation(max(dv, 0.0), v_t)
    g = params.gamma(t)
    if fluc > g:
        raise GameError(f"fluc({t}) = {fluc:.6g} exceeds gamma({t}) = {g:.6g}")
    # the rates first, from one mu_t: a schedule that leaves no rate at step
    # t raises there.  A tiny negative v_prev gets past the checks above
    # (v_t - v_prev rounds to v_t, so fluc = 1 <= gamma(1)) and would give a
    # negative rate.
    if v_prev < 0:
        raise ScheduleError(f"volume must be nonnegative, got {v_prev}")
    mu = mu_t(params, t)
    eps_prot, eps_ifpl = epsilon_values(mu, float(v_prev), t), epsilon_values(mu, float(v_t), t)
    factor = math.exp((3.0 / params.a) * _alpha_split(params, g, t)[1])
    p_prot = selection_probabilities_exact(cumulative_prev, eps_prot)
    p_ifpl = selection_probabilities_exact(cumulative_prev + loss_t, eps_ifpl)
    return bool(np.all(p_prot <= factor * p_ifpl + slack))


# ---------------------------------------------------------------------------
# Vectorized Monte Carlo over many seeds (oblivious games)

def batch_cumulative_losses(losses, params: ScheduleParams, num_runs: int, rng,
                            regime: str = "per-step", infeasible: bool = False,
                            checkpoints=None):
    """Learner cumulative losses for many independent seeded runs at once.

    Returns an array of shape (num_runs, len(checkpoints)); ``checkpoints``
    lie in 1..T and default to [T] (zeros for a game with no steps).  Only
    valid for oblivious games (fixed loss matrix), where volumes and rates
    do not depend on the perturbations.  A single run draws the doubles
    ``prot_run`` draws from the same ``rng``, so it reproduces that run's
    total loss exactly.

    The scaled scores and the follow-the-leader steps' leaders are formed
    once per call; each chunk of whole runs then forms its scores in its
    draw buffer (:func:`_chunk_choices`), gathers the chosen losses with one
    ``np.take`` over the flattened game and sums them with ``np.cumsum``,
    in the order ``prot_run`` sums them.
    """
    require_count(num_runs, "num_runs")
    if regime not in REGIMES:
        raise GameError(f"unknown perturbation regime {regime!r}")
    game = losses if isinstance(losses, LossMatrix) else LossMatrix(losses)
    T, N = game.values.shape
    if N != params.num_experts:
        raise GameError(f"params expect {params.num_experts} experts, game has {N}")
    cps = np.asarray([T] if checkpoints is None else checkpoints, dtype=int)
    if checkpoints is not None and not np.all((cps >= 1) & (cps <= T)):
        raise GameError(f"checkpoints must lie in 1..{T}, got {cps.tolist()}")
    gen = as_generator(rng)
    if T == 0:
        return np.zeros((num_runs, 1))
    base, rate, _ = _deterministic_rates(game, params, infeasible)
    scaled, ftl, leaders = _scaled_scores(base, rate)

    out = np.empty((num_runs, len(cps)))
    chunk = max(1, min(num_runs, _MAX_CHUNK_ELEMS // (T * N)))
    flat = game.values.ravel()
    offsets = np.arange(0, T * N, N)
    cp_idx = cps - 1
    for done in range(0, num_runs, chunk):
        m = min(chunk, num_runs - done)
        choice = _chunk_choices(scaled, ftl, leaders, (m, 1 if regime == "once" else T, N), gen)
        choice += offsets
        picked = np.take(flat, choice)
        out[done:done + m] = np.cumsum(picked, axis=1, out=picked)[:, cp_idx]
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
    totals = batch_cumulative_losses(losses, params, num_runs, rng, regime=regime,
                                     infeasible=infeasible, checkpoints=checkpoints)
    cps = np.asarray([T] if checkpoints is None else checkpoints, dtype=int)
    mean, se = _mean_se(totals - _expert_cum(values)[cps].min(axis=1))
    if checkpoints is None:
        return float(mean[0]), float(se[0])
    return mean, se
