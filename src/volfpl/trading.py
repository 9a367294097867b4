"""Zero-sum volatility-trading game on a discretized price path.

Two experts bet on the gap between macro volatility (S_T - S_0)^2 and micro
volatility sum (dS_t)^2: expert 1 holds 2C(S_t - S_0) shares, expert 2 the
exact opposite.  The derandomized learner splits its stake in proportion to
PROT's exact selection probabilities and earns the algorithm's expected gain
deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import _two_expert_probabilities
from .game import GameError, read_csv, require_count, require_real, volume_from_peaks, write_csv
from .perturbation import as_generator
from .schedule import ScheduleParams, _main_coef, epsilon_values, mu_values


_PRICE_HEADER = ["price"]


@dataclass(frozen=True)
class PriceSeries:
    """Discretized stock prices S_0..S_M."""

    prices: np.ndarray

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        if prices.ndim != 1 or len(prices) < 2:
            raise GameError("need at least two prices")
        if not np.all(np.isfinite(prices)):
            raise GameError("prices must be finite")
        object.__setattr__(self, "prices", prices)

    @property
    def num_ticks(self) -> int:
        """Number of intervals M (len(prices) - 1)."""
        return len(self.prices) - 1

    @classmethod
    def from_csv(cls, path) -> "PriceSeries":
        """Read prices from a single-column CSV with header ``price``."""
        return cls(read_csv(path, lambda width: _PRICE_HEADER)[:, 0])

    def to_csv(self, path) -> None:
        write_csv(path, _PRICE_HEADER, [self.prices])


def _fgn(hurst: float, z: np.ndarray) -> np.ndarray:
    """L @ z for the lower Cholesky factor L of the unit-spacing fractional
    Gaussian noise covariance, without forming L.

    The Durbin-Levinson recursion (Brockwell & Davis, section 5.2) writes
    x_n = sum_j phi_{n,j} x_{n-j} + sqrt(v_n) z_n: the best linear predictor
    of x_n from x_0..x_{n-1}, plus the innovation, whose standard deviation
    sqrt(v_n) is the diagonal L_nn.  O(M) memory, O(M^2) time.
    """
    m = len(z)
    # g(k) = (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2
    k = np.arange(m, dtype=float)
    two_h = 2.0 * hurst
    acov = 0.5 * (np.abs(k + 1) ** two_h - 2.0 * np.abs(k) ** two_h + np.abs(k - 1) ** two_h)
    # Both dot products read contiguous slices: acov_rev[m-1-j] = acov[j]
    # and x_rev[m-1-j] = x_j.  The scalars stay Python floats.
    acov_rev = acov[::-1].copy()
    g, zs = acov.tolist(), z.tolist()
    x_rev = np.empty(m)
    phi = np.empty(m)  # phi[j - 1] = phi_{n,j}
    scratch = np.empty(m)
    v = g[0]
    x_rev[m - 1] = math.sqrt(v) * zs[0]
    for n in range(1, m):
        prev = phi[:n - 1]
        kappa = (g[n] - float(prev @ acov_rev[m - n:m - 1])) / v
        prev -= np.multiply(prev[::-1], kappa, out=scratch[:n - 1])
        phi[n - 1] = kappa
        v *= 1.0 - kappa * kappa
        if not v > 0:
            raise GameError(f"fGn covariance is numerically singular at step {n + 1} "
                            f"(Hurst exponent {hurst} is too close to 1)")
        x_rev[m - 1 - n] = float(phi[:n] @ x_rev[m - n:]) + math.sqrt(v) * zs[n]
    return x_rev[::-1].copy()


def fbm_generate(hurst: float, steps: int, scale: float = 1.0, drift: float = 0.0,
                 seed=0, s0: float = 1.0) -> PriceSeries:
    """Fractional-Brownian-motion price path on the grid t/M, t = 0..M.

    S_t = s0 + scale * B_H(t/M) + drift * t/M.  The increments are the
    Cholesky factor of the fGn covariance times M standard normals, formed by
    the Durbin-Levinson recursion in O(M) memory.  Deterministic per seed.
    """
    hurst = require_real(hurst, "hurst", 0, 1)
    scale = require_real(scale, "scale")
    drift = require_real(drift, "drift")
    s0 = require_real(s0, "s0")
    require_count(steps, "steps")
    gen = as_generator(seed)
    z = gen.standard_normal(steps)
    increments = _fgn(hurst, z) * float(steps) ** -hurst
    t = np.arange(steps + 1) / steps
    bh = np.concatenate([[0.0], np.cumsum(increments)])
    return PriceSeries(s0 + scale * bh + drift * t)


def _moves(s):
    """(S_t - S_0, dS_t) for t = 0..M-1: what the gains and the volatility
    identity are both built from.  A move that overflows is infinite,
    without a warning: the gains or the residual formed from it raise."""
    with np.errstate(over="ignore"):
        return s[:-1] - s[0], np.diff(s)


def _gains_from_moves(offset, ds, c: float):
    """(s1, s2) from the moves; a gain that is not finite raises GameError."""
    if not c > 0:
        raise GameError(f"C must be positive, got {c}")
    with np.errstate(over="ignore", invalid="ignore"):
        s1 = 2.0 * c * offset * ds
    if not np.isfinite(s1).all():
        raise GameError("trading gains contain non-finite entries: the price moves overflow")
    return s1, -s1


def _residual_from_moves(s, offset, ds) -> float:
    """The identity's residual (see :func:`volatility_identity_check`) for
    the public check and the run alike; overflow raises GameError."""
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = (s[-1] - s[0]) ** 2
        rhs = float(np.sum(2.0 * offset * ds) + np.sum(ds**2))
        residual = abs(lhs - rhs)
    if not math.isfinite(residual):
        raise GameError(f"volatility identity residual is {residual}: the price moves overflow")
    return residual


def expert_gains(prices: PriceSeries, c: float):
    """Gain sequences of both experts: s1_t = 2C(S_t - S_0)(S_{t+1} - S_t),
    s2_t = -s1_t, for t = 0..M-1 (the t = 0 entry is identically 0); gains
    that overflow raise GameError."""
    return _gains_from_moves(*_moves(prices.prices), c)


def volatility_identity_check(prices: PriceSeries) -> float:
    """Residual |(S_M - S_0)^2 - (sum 2(S_t - S_0) dS_t + sum dS_t^2)|;
    moves whose squares or sums overflow raise GameError."""
    s = prices.prices
    return _residual_from_moves(s, *_moves(s))


@dataclass(frozen=True)
class TradingConfig:
    """Position scale C plus the PROT schedule (constant gamma, v0 > 0)."""

    c: float
    schedule: ScheduleParams

    def __post_init__(self):
        object.__setattr__(self, "c", require_real(self.c, "C", 0))
        if self.schedule.num_experts != 2:
            raise GameError("trading game has exactly two experts")
        if not self.schedule.v0 > 0:
            raise GameError("trading runs need v0 > 0 so the first rate is finite")
        if self.schedule.loss_mode != "general":
            raise GameError("trading gains are signed: the schedule needs loss_mode 'general'")


def _prot_gains(s1, schedule: ScheduleParams):
    """Per-step gains (P{I_t=1} - P{I_t=2}) s1_t of PROT on the game
    (s2, s1) = (-s1, s1), with ``(v, fluc, cum)``: the volume (v_0 first),
    the fluctuation and cum = (0, cumsum(s1)).

    Every step's peak is |s1_t|.  Step t's scores are the running sums
    (cumsum(-s1), C) of steps before t, which are (-C, C) bit for bit up to
    the sign of a zero, which exp(eps * 0) does not see; so the two-expert
    pass gets the score difference d = -2C.
    """
    v, fluc = volume_from_peaks(np.abs(s1), schedule.v0)
    cum = np.zeros(len(s1) + 1)
    np.cumsum(s1, out=cum[1:])
    eps = epsilon_values(mu_values(schedule, len(s1)), v[:-1])
    # |C| <= v is finite, but above half the largest double 2C is infinite
    with np.errstate(over="ignore"):
        d = np.multiply(cum[:-1], -2.0)
    p = _two_expert_probabilities(d, eps)
    return (p[0] - p[1]) * s1, (v, fluc, cum)


def learner_gain(prices: PriceSeries, config: TradingConfig):
    """Derandomized learner gain G_t = (P{I_t=1} - P{I_t=2}) s1_t: (per step, cumulative)."""
    gains, _ = _prot_gains(expert_gains(prices, config.c)[0], config.schedule)
    return gains, np.cumsum(gains)


def _defensive_bound(s1, schedule: ScheduleParams) -> float:
    """|sum s1_t| - 2 gamma^{1/2} sqrt((6+eps)(1+ln 2)) (sum |s1_t| + v0) at
    the schedule's own eps; gamma must be constant."""
    if schedule.gamma.kind != "constant":
        raise GameError("defensive bound assumes a constant gamma schedule")
    coef = math.sqrt(schedule.gamma.c) * _main_coef(2, "general", schedule.target_eps)
    return abs(float(np.sum(s1))) - coef * (float(np.sum(np.abs(s1))) + schedule.v0)


def defensive_lower_bound(prices: PriceSeries, config: TradingConfig) -> float:
    """The defensive lower bound of a price path under a constant-gamma
    trading config (see :func:`_defensive_bound`); gains or a volume that
    overflow raise GameError."""
    with np.errstate(over="ignore", invalid="ignore"):
        bound = _defensive_bound(expert_gains(prices, config.c)[0], config.schedule)
    if not math.isfinite(bound):
        raise GameError(f"defensive bound is {bound}: the gains or their volume overflow")
    return bound


@dataclass
class TradingReport:
    """Per-step curves behind the gain/volume/fluctuation figures."""

    prices: np.ndarray
    s1_cum: np.ndarray
    s2_cum: np.ndarray
    learner_cum: np.ndarray
    volume: np.ndarray
    fluc: np.ndarray
    fluc_violations: np.ndarray
    identity_residual: float
    defensive_bound: float

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "S", "s1_cum", "s2_cum", "learner_cum", "volume", "fluc"],
                  [np.arange(1, len(self.s1_cum) + 1), self.prices[1:], self.s1_cum,
                   self.s2_cum, self.learner_cum, self.volume, self.fluc])


def run_trading_experiment(config: TradingConfig, prices: PriceSeries) -> TradingReport:
    """Full trading run: expert curves, derandomized learner gain, volume,
    fluctuation, and the defensive lower bound.

    The bound comes first, so a gamma that is not constant raises before the
    one pass over s1 that gives the gains, the volume and the first
    expert's curve.  Steps whose fluctuation exceeds the constant gamma are
    flagged rather than rejected; the hypothesis is asymptotic.
    """
    s = prices.prices
    moves = _moves(s)
    s1, s2 = _gains_from_moves(*moves, config.c)
    # sums of finite gains that overflow raise GameError in the pass (its
    # volume then overflows too), without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        bound = _defensive_bound(s1, config.schedule)
    gains, (v, fluc, cum) = _prot_gains(s1, config.schedule)
    return TradingReport(
        prices=s,
        s1_cum=cum[1:],
        # not -s1_cum: where a partial sum is exactly 0 both sums hold +0.0
        s2_cum=np.cumsum(s2),
        learner_cum=np.cumsum(gains),
        volume=v[1:],
        fluc=fluc,
        fluc_violations=np.flatnonzero(fluc > config.schedule.gamma.c) + 1,
        identity_residual=_residual_from_moves(s, *moves),
        defensive_bound=bound,
    )
