"""Zero-sum volatility-trading game on a discretized price path.

Two experts bet on the gap between macro volatility (S_T - S_0)^2 and micro
volatility sum (dS_t)^2: expert 1 holds 2C(S_t - S_0) shares, expert 2 the
exact opposite.  The derandomized learner splits its stake in proportion to
PROT's exact selection probabilities and earns the algorithm's expected gain
deterministically.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import linalg

from .engine import selection_probabilities_exact
from .game import GameError, LossMatrix, volume_trace, write_csv
from .perturbation import as_generator
from .schedule import ScheduleParams, mu_values


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
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["price"]:
                raise GameError(f"{path}: expected single-column CSV with header 'price'")
            prices = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 1:
                    raise GameError(f"{path}:{lineno}: expected 1 cell, got {len(row)}")
                try:
                    prices.append(float(row[0]))
                except ValueError as exc:
                    raise GameError(f"{path}:{lineno}: {exc}") from None
        return cls(np.array(prices))

    def to_csv(self, path) -> None:
        write_csv(path, ["price"], [self.prices])


@lru_cache(maxsize=8)
def _fgn_cholesky(hurst: float, steps: int) -> np.ndarray:
    # Covariance of unit-spacing fractional Gaussian noise:
    # g(k) = (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2.
    k = np.arange(steps, dtype=float)
    two_h = 2.0 * hurst
    row = 0.5 * (np.abs(k + 1) ** two_h - 2.0 * np.abs(k) ** two_h + np.abs(k - 1) ** two_h)
    return linalg.cholesky(linalg.toeplitz(row), lower=True)


def fbm_generate(hurst: float, steps: int, scale: float = 1.0, drift: float = 0.0,
                 seed=0, s0: float = 1.0) -> PriceSeries:
    """Fractional-Brownian-motion price path on the grid t/M, t = 0..M.

    S_t = s0 + scale * B_H(t/M) + drift * t/M, with increments drawn through
    an exact Cholesky factorization of the fGn covariance.  Deterministic per
    seed; factorizations are cached per (hurst, steps).
    """
    if not 0 < hurst < 1:
        raise GameError(f"Hurst exponent must be in (0,1), got {hurst}")
    if steps < 1:
        raise GameError(f"need at least one step, got {steps}")
    gen = as_generator(seed)
    z = gen.standard_normal(steps)
    increments = _fgn_cholesky(hurst, steps) @ z * float(steps) ** -hurst
    t = np.arange(steps + 1) / steps
    bh = np.concatenate([[0.0], np.cumsum(increments)])
    return PriceSeries(s0 + scale * bh + drift * t)


def expert_gains(prices: PriceSeries, c: float):
    """Gain sequences of both experts: s1_t = 2C(S_t - S_0)(S_{t+1} - S_t),
    s2_t = -s1_t, for t = 0..M-1 (the t = 0 entry is identically 0)."""
    if not c > 0:
        raise GameError(f"C must be positive, got {c}")
    s = prices.prices
    s1 = 2.0 * c * (s[:-1] - s[0]) * np.diff(s)
    return s1, -s1


def volatility_identity_check(prices: PriceSeries) -> float:
    """Residual |(S_M - S_0)^2 - (sum 2(S_t - S_0) dS_t + sum dS_t^2)|."""
    s = prices.prices
    ds = np.diff(s)
    lhs = (s[-1] - s[0]) ** 2
    rhs = float(np.sum(2.0 * (s[:-1] - s[0]) * ds) + np.sum(ds**2))
    return abs(lhs - rhs)


@dataclass(frozen=True)
class TradingConfig:
    """Position scale C plus the PROT schedule (constant gamma, v0 > 0)."""

    c: float
    schedule: ScheduleParams

    def __post_init__(self):
        if not self.c > 0:
            raise GameError(f"C must be positive, got {self.c}")
        if self.schedule.num_experts != 2:
            raise GameError("trading game has exactly two experts")
        if not self.schedule.v0 > 0:
            raise GameError("trading runs need v0 > 0 so the first rate is finite")


def learner_gain(prices: PriceSeries, config: TradingConfig):
    """Derandomized learner gain G_t = (P{I_t=1} - P{I_t=2}) s1_t.

    Gains are losses with the sign flipped, so PROT's probabilities are
    computed from cumulative losses -s^i_{1:t-1} with eps_t from the
    schedule.  Returns (per-step gains, cumulative gains).
    """
    s1, _ = expert_gains(prices, config.c)
    params = config.schedule
    game = LossMatrix(np.column_stack([-s1, s1]))
    v, _, _ = volume_trace(game, params.v0)
    cum_prev = np.cumsum(np.vstack([np.zeros(2), game.values[:-1]]), axis=0)
    eps = 1.0 / (mu_values(params, len(s1)) * v[:-1])
    p = selection_probabilities_exact(cum_prev, eps)
    gains = (p[:, 0] - p[:, 1]) * s1
    return gains, np.cumsum(gains)


def defensive_lower_bound(prices: PriceSeries, config: TradingConfig,
                          target_eps: float) -> float:
    """|sum s1_t| - 2 mu^{1/2} sqrt((6+eps)(1+ln 2)) (sum |s1_t| + v0) for the
    constant-gamma trading schedule."""
    gamma = config.schedule.gamma
    if gamma.kind != "constant":
        raise GameError("defensive bound assumes a constant gamma schedule")
    s1, _ = expert_gains(prices, config.c)
    mu = gamma.c
    coef = 2.0 * math.sqrt(mu) * math.sqrt((6.0 + target_eps) * (1.0 + math.log(2)))
    return abs(float(np.sum(s1))) - coef * (float(np.sum(np.abs(s1))) + config.schedule.v0)


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


def run_trading_experiment(config: TradingConfig, prices: PriceSeries,
                           target_eps: float = 1.0) -> TradingReport:
    """Full trading run: expert curves, derandomized learner gain, volume,
    fluctuation, and the defensive lower bound.

    Steps whose fluctuation exceeds the constant gamma are flagged rather
    than rejected; the hypothesis is asymptotic.
    """
    s1, s2 = expert_gains(prices, config.c)
    v, _, fluc = volume_trace(LossMatrix(np.column_stack([-s1, s1])), config.schedule.v0)
    gamma = config.schedule.gamma
    ts = np.arange(1, len(s1) + 1)
    violations = ts[fluc > gamma.values(ts)]
    _, learner_cum = learner_gain(prices, config)
    return TradingReport(
        prices=prices.prices,
        s1_cum=np.cumsum(s1),
        s2_cum=np.cumsum(s2),
        learner_cum=learner_cum,
        volume=v[1:],
        fluc=fluc,
        fluc_violations=violations,
        identity_residual=volatility_identity_check(prices),
        defensive_bound=defensive_lower_bound(prices, config, target_eps),
    )
