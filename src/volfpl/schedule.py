"""Adaptive learning-rate schedules and regret-bound evaluators.

All quantities derive from a positive constant ``a``, the number of experts
``N``, and a non-increasing function ``gamma(t)`` bounding the scaled
fluctuation.  Writing ``A = 2(e^{3/a} - 1) / (a(1 + ln N))``,

    alpha_t = (1 - ln(1/A) / ln gamma(t)) / 2
    mu_t    = a * gamma(t)^alpha_t
            = sqrt(2a(e^{3/a} - 1) / (1 + ln N)) * gamma(t)^{1/2}
    eps_t   = 1 / (mu_t * v_{t-1})

The two forms of ``mu_t`` are algebraically identical wherever ``alpha_t`` is
defined; the closed (square-root) form is total in gamma and is what the
engine evaluates.  ``alpha_t`` itself is only meaningful when
``gamma(t) < min(A, 1/A)`` (this keeps it inside (0, 1)), and raises outside
that domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ScheduleError(ValueError):
    """Invalid learning-rate schedule or parameters."""


@dataclass(frozen=True)
class GammaSchedule:
    """Non-increasing fluctuation bound gamma(t), 0 < gamma(t) <= 1.

    Kinds: ``power`` (gamma(t) = t^-delta), ``constant``, or ``table``.
    Power schedules have gamma(1) = 1 exactly.
    """

    kind: str
    delta: float = 0.0
    c: float = 0.0
    table_values: tuple = field(default_factory=tuple)

    @classmethod
    def power(cls, delta: float) -> "GammaSchedule":
        if delta <= 0:
            raise ScheduleError(f"power exponent must be positive, got {delta}")
        return cls(kind="power", delta=float(delta))

    @classmethod
    def constant(cls, c: float) -> "GammaSchedule":
        if not 0 < c < 1:
            raise ScheduleError(f"constant gamma must be in (0,1), got {c}")
        return cls(kind="constant", c=float(c))

    @classmethod
    def from_table(cls, values) -> "GammaSchedule":
        values = tuple(float(v) for v in values)
        if not values:
            raise ScheduleError("empty gamma table")
        if any(not 0 < v <= 1 for v in values):
            raise ScheduleError("table gamma values must be in (0,1]")
        if any(b > a for a, b in zip(values, values[1:])):
            raise ScheduleError("table gamma must be non-increasing")
        return cls(kind="table", table_values=values)

    def __call__(self, t: int) -> float:
        if t < 1:
            raise ScheduleError(f"step index must be >= 1, got {t}")
        if self.kind == "power":
            return float(t) ** -self.delta
        if self.kind == "constant":
            return self.c
        if t > len(self.table_values):
            raise ScheduleError(f"gamma table has {len(self.table_values)} entries, asked for t={t}")
        return self.table_values[t - 1]

    def values(self, ts) -> np.ndarray:
        """Vectorized evaluation at an array of steps."""
        ts = np.asarray(ts)
        if self.kind == "power":
            return ts.astype(float) ** -self.delta
        if self.kind == "constant":
            return np.full(ts.shape, self.c)
        return np.array([self(int(t)) for t in ts])

    def square_summable(self):
        """Whether sum_t gamma(t)^2 converges: True/False, or None if undecidable."""
        if self.kind == "power":
            return self.delta > 0.5
        if self.kind == "constant":
            return False
        return None

    def to_config(self) -> dict:
        if self.kind == "power":
            return {"kind": "power", "delta": self.delta}
        if self.kind == "constant":
            return {"kind": "constant", "c": self.c}
        return {"kind": "table", "values": list(self.table_values)}

    @classmethod
    def from_config(cls, cfg: dict) -> "GammaSchedule":
        kind = cfg.get("kind")
        if kind == "power":
            return cls.power(cfg["delta"])
        if kind == "constant":
            return cls.constant(cfg["c"])
        if kind == "table":
            return cls.from_table(cfg["values"])
        raise ScheduleError(f"unknown gamma kind {kind!r}")


@dataclass(frozen=True)
class ScheduleParams:
    """Parameter tuple (a, N, gamma, v0, loss mode) fixing every rate formula."""

    a: float
    num_experts: int
    gamma: GammaSchedule
    v0: float = 0.0
    loss_mode: str = "general"

    def __post_init__(self):
        if not self.a > 0:
            raise ScheduleError(f"a must be positive, got {self.a}")
        if self.num_experts < 1:
            raise ScheduleError(f"need at least one expert, got {self.num_experts}")
        if not (math.isfinite(self.v0) and self.v0 >= 0):
            raise ScheduleError(f"v0 must be finite and nonnegative, got {self.v0}")
        if self.loss_mode not in ("general", "nonnegative"):
            raise ScheduleError(f"unknown loss mode {self.loss_mode!r}")

    @property
    def coef_A(self) -> float:
        """A = 2(e^{3/a} - 1) / (a (1 + ln N))."""
        return 2.0 * math.expm1(3.0 / self.a) / (self.a * (1.0 + math.log(self.num_experts)))

    def alpha_domain_ok(self, t: int) -> bool:
        """True iff gamma(t) < min(A, 1/A), the domain where 0 < alpha_t < 1."""
        A = self.coef_A
        return self.gamma(t) < min(A, 1.0 / A)

    def require_alpha_domain(self, t: int = 1) -> None:
        """Raise unless gamma(t) is inside the alpha_t domain.

        gamma is non-increasing, so validity at t implies validity at all
        later steps.
        """
        if not self.alpha_domain_ok(t):
            A = self.coef_A
            raise ScheduleError(
                f"gamma({t}) = {self.gamma(t):.6g} is not below "
                f"min(A, 1/A) = {min(A, 1.0 / A):.6g}; alpha_t leaves (0, 1)"
            )

    def to_config(self) -> dict:
        return {
            "a": self.a,
            "N": self.num_experts,
            "gamma": self.gamma.to_config(),
            "v0": self.v0,
            "loss_mode": self.loss_mode,
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "ScheduleParams":
        """Build params from a JSON-style dict; ``a`` may be given directly
        or derived from ``target_eps``."""
        if "a" in cfg:
            a = float(cfg["a"])
        elif "target_eps" in cfg:
            a = choose_a(float(cfg["target_eps"]), cfg.get("loss_mode", "general"))
        else:
            raise ScheduleError("schedule config needs 'a' or 'target_eps'")
        return cls(
            a=a,
            num_experts=int(cfg["N"]),
            gamma=GammaSchedule.from_config(cfg["gamma"]),
            v0=float(cfg.get("v0", 0.0)),
            loss_mode=cfg.get("loss_mode", "general"),
        )


def alpha_t(params: ScheduleParams, t: int) -> float:
    """Exponent splitting the per-step bound; strictly in (0, 1) on its domain."""
    params.require_alpha_domain(t)
    g = params.gamma(t)
    return 0.5 * (1.0 - math.log(1.0 / params.coef_A) / math.log(g))


def mu_t(params: ScheduleParams, t: int) -> float:
    """mu_t = a * gamma(t)^alpha_t via the equivalent square-root closed form."""
    g = params.gamma(t)
    value = _mu_coef(params) * math.sqrt(g)
    if __debug__ and params.alpha_domain_ok(t):
        power_form = params.a * g ** alpha_t(params, t)
        assert math.isclose(power_form, value, rel_tol=1e-10)
    return value


def _mu_coef(params: ScheduleParams) -> float:
    return math.sqrt(
        2.0 * params.a * math.expm1(3.0 / params.a) / (1.0 + math.log(params.num_experts))
    )


def mu_values(params: ScheduleParams, T: int) -> np.ndarray:
    """mu_t for t = 1..T, vectorized."""
    ts = np.arange(1, T + 1)
    return _mu_coef(params) * np.sqrt(params.gamma.values(ts))


def epsilon_t(params: ScheduleParams, t: int, v_prev: float) -> float:
    """Learning rate 1 / (mu_t * v_{t-1}); ``inf`` signals the zero-volume case.

    IFPL's eps'_t is the same formula at the end-of-step volume v_t.
    """
    if v_prev < 0:
        raise ScheduleError(f"volume must be nonnegative, got {v_prev}")
    if v_prev == 0:
        return math.inf
    return 1.0 / (mu_t(params, t) * v_prev)


def _rate_fn(loss_mode: str):
    if loss_mode == "nonnegative":
        return lambda a: a * math.expm1(2.0 / a)
    return lambda a: 2.0 * a * math.expm1(3.0 / a)


def _bound_constant(loss_mode: str) -> float:
    return 2.0 if loss_mode == "nonnegative" else 6.0


def choose_a(target_eps: float, loss_mode: str = "general") -> float:
    """Smallest a (on a bisection grid) with 2a(e^{3/a}-1) <= 6 + eps,
    or a(e^{2/a}-1) <= 2 + eps for nonnegative losses.

    Both functions decrease toward their limit (6 resp. 2), so a solution
    exists for every positive eps.
    """
    if not target_eps > 0:
        raise ScheduleError(f"target_eps must be positive, got {target_eps}")
    f = _rate_fn(loss_mode)
    limit = _bound_constant(loss_mode) + target_eps
    lo, hi = 3.0, 1e6
    if f(lo) <= limit:
        return lo
    if f(hi) > limit:
        raise ScheduleError(f"no a <= {hi} satisfies the target")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) <= limit:
            hi = mid
        else:
            lo = mid
    return hi


def regret_bound(params: ScheduleParams, T: int, delta_v, target_eps: float) -> float:
    """Main expected-regret bound 2 sqrt((6+eps)(1+ln N)) sum gamma(t)^{1/2} dv_t
    (with 2+eps in nonnegative mode)."""
    delta_v = np.asarray(delta_v, dtype=float)
    if delta_v.shape != (T,):
        raise ScheduleError(f"delta_v must have length {T}")
    if T == 0:
        return 0.0
    if np.any(delta_v < 0):
        raise ScheduleError("delta_v entries must be nonnegative")
    c = _bound_constant(params.loss_mode) + target_eps
    g = params.gamma.values(np.arange(1, T + 1))
    return 2.0 * math.sqrt(c * (1.0 + math.log(params.num_experts))) * float(
        np.sum(np.sqrt(g) * delta_v)
    )


def general_bound(params: ScheduleParams, T: int, delta_v) -> float:
    """Pre-optimization regret bound
    sum_t (2(e^{3/a}-1) gamma^{1-alpha_t} + a(1+ln N) gamma^{alpha_t}) dv_t.

    With alpha_t at its optimum this equals :func:`optimized_bound` exactly.
    Requires the alpha domain to be valid for all t <= T.
    """
    delta_v = np.asarray(delta_v, dtype=float)
    if delta_v.shape != (T,):
        raise ScheduleError(f"delta_v must have length {T}")
    c1 = 2.0 * math.expm1(3.0 / params.a)
    c2 = params.a * (1.0 + math.log(params.num_experts))
    total = 0.0
    for t in range(1, T + 1):
        g = params.gamma(t)
        al = alpha_t(params, t)
        total += (c1 * g ** (1.0 - al) + c2 * g**al) * delta_v[t - 1]
    return total


def optimized_bound(params: ScheduleParams, T: int, delta_v) -> float:
    """Tuned form 2 sqrt(2a(e^{3/a}-1)(1+ln N)) sum gamma(t)^{1/2} dv_t."""
    delta_v = np.asarray(delta_v, dtype=float)
    if T == 0:
        return 0.0
    g = params.gamma.values(np.arange(1, T + 1))
    coef = 2.0 * math.sqrt(
        2.0 * params.a * math.expm1(3.0 / params.a) * (1.0 + math.log(params.num_experts))
    )
    return coef * float(np.sum(np.sqrt(g) * delta_v))


def fpl_ifpl_gap_bound(params: ScheduleParams, delta_v) -> float:
    """Bound on l_{1:T} - r_{1:T}: 2(e^{3/a}-1) sum gamma(t)^{1-alpha_t} dv_t.

    Evaluated through gamma^{1-alpha_t} = a*gamma(t)/mu_t, which is defined
    for every gamma in (0, 1].
    """
    delta_v = np.asarray(delta_v, dtype=float)
    T = len(delta_v)
    if T == 0:
        return 0.0
    g = params.gamma.values(np.arange(1, T + 1))
    mu = mu_values(params, T)
    return 2.0 * math.expm1(3.0 / params.a) * float(
        np.sum(params.a * g / mu * delta_v)
    )


def ifpl_regret_bound(params: ScheduleParams, delta_v) -> float:
    """IFPL bound term a(1+ln N) sum gamma(t)^{alpha_t} dv_t = (1+ln N) sum mu_t dv_t."""
    delta_v = np.asarray(delta_v, dtype=float)
    T = len(delta_v)
    if T == 0:
        return 0.0
    mu = mu_values(params, T)
    return (1.0 + math.log(params.num_experts)) * float(np.sum(mu * delta_v))


def poly_bound(N: int, T: int, alpha: float, delta: float, target_eps: float) -> float:
    """Polynomial-regime bound 2 sqrt((6+eps)(1+ln N)) T^{1 - delta/2 + alpha}."""
    if alpha < 0 or delta <= 0:
        raise ScheduleError("alpha must be >= 0 and delta > 0")
    return (
        2.0
        * math.sqrt((6.0 + target_eps) * (1.0 + math.log(N)))
        * float(T) ** (1.0 - 0.5 * delta + alpha)
    )
