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

Each per-step quantity is written once, as an expression over one step or
an array of steps: ``GammaSchedule.values``, :func:`_alpha_split` (alpha_t
and the split terms gamma^{1-alpha_t}, gamma^{alpha_t}, from gamma(t)),
:func:`mu_values` and :func:`epsilon_values`.  The scalar forms ``gamma(t)``,
:func:`alpha_t`, :func:`mu_t` and :func:`epsilon_t` are one-step reads of
them (``mu_t`` takes ``math.sqrt``, which rounds as ``np.sqrt`` does) and
agree with them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .game import GameError, check_keys, require_count, require_object, require_real
from .perturbation import expected_max_bound


LOSS_MODES = ("general", "nonnegative")


class ScheduleError(GameError):
    """Invalid learning-rate schedule or parameters."""


# gamma kind -> (its config key, the field it reads)
_GAMMA_KINDS = {"power": ("delta", "delta"), "constant": ("c", "c"),
                "table": ("values", "table_values")}


@dataclass(frozen=True)
class GammaSchedule:
    """Non-increasing fluctuation bound gamma(t), 0 < gamma(t) <= 1.

    Kinds: ``power`` (gamma(t) = t^-delta), ``constant``, or ``table``.
    Power schedules have gamma(1) = 1 exactly.  The constructor checks the
    kind's value, as the classmethods do, and stores it as float (a table
    as a tuple of floats); a field the kind does not read must be unset
    (0, or an empty table) and is stored as its default, so that equal
    schedules have equal configs.
    """

    kind: str
    delta: float = 0.0
    c: float = 0.0
    table_values: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _GAMMA_KINDS):
            raise ScheduleError(f"unknown gamma kind {self.kind!r}")
        read = _GAMMA_KINDS[self.kind][1]
        for name, unset in (("delta", 0.0), ("c", 0.0), ("table_values", ())):
            value = getattr(self, name)
            if name != read:
                if np.size(value) if name == "table_values" else value != unset:
                    raise ScheduleError(f"{self.kind} gamma does not read {name}, got {value!r}")
                object.__setattr__(self, name, unset)  # an empty list or array, say
        if self.kind != "table":  # a power's delta is positive, a constant's c in (0, 1)
            value = require_real(getattr(self, read), f"{self.kind} gamma {read}", 0,
                                 1 if self.kind == "constant" else math.inf, error=ScheduleError)
            object.__setattr__(self, read, value)
        else:
            # a number, a string or a 0-d array is no table; a row of a 2-d
            # table fails as an entry
            if isinstance(self.table_values, str) or not np.iterable(self.table_values):
                raise ScheduleError(f"gamma table must be a 1-d sequence of numbers, "
                                    f"got {self.table_values!r}")
            values = tuple(require_real(v, f"gamma table entry {t}", 0, 1, high_closed=True,
                                        error=ScheduleError)
                           for t, v in enumerate(self.table_values, 1))
            if not values:
                raise ScheduleError("empty gamma table")
            if any(b > a for a, b in zip(values, values[1:])):
                raise ScheduleError("table gamma must be non-increasing")
            object.__setattr__(self, "table_values", values)

    @classmethod
    def power(cls, delta: float) -> "GammaSchedule":
        return cls(kind="power", delta=delta)

    @classmethod
    def constant(cls, c: float) -> "GammaSchedule":
        return cls(kind="constant", c=c)

    @classmethod
    def from_table(cls, values) -> "GammaSchedule":
        return cls(kind="table", table_values=values)

    def __call__(self, t: int) -> float:
        if t < 1:
            raise ScheduleError(f"step index must be >= 1, got {t}")
        if self.kind == "power":
            # numpy's array power, which values() takes too: Python's float
            # power gives other last bits at some steps
            return float(np.asarray(float(t)) ** -self.delta)
        if self.kind == "constant":
            return self.c
        if t > len(self.table_values):
            raise ScheduleError(f"gamma table has {len(self.table_values)} entries, asked for t={t}")
        return self.table_values[t - 1]

    def values(self, ts) -> np.ndarray:
        """Vectorized evaluation at an array of steps.

        A step the scalar call rejects (t < 1, or past the table) raises its
        ScheduleError for the first such t.
        """
        ts = np.asarray(ts)
        last = len(self.table_values) if self.kind == "table" else math.inf
        bad = (ts < 1) | (ts > last)
        if bad.any():
            self(int(ts[bad][0]))
        if self.kind == "power":
            return ts.astype(float) ** -self.delta
        if self.kind == "constant":
            return np.full(ts.shape, self.c)
        return np.asarray(self.table_values)[(ts - 1).astype(np.intp)]

    def square_summable(self):
        """Whether sum_t gamma(t)^2 converges: True/False, or None if undecidable."""
        if self.kind == "power":
            return self.delta > 0.5
        if self.kind == "constant":
            return False
        return None

    def to_config(self) -> dict:
        key, name = _GAMMA_KINDS[self.kind]
        value = getattr(self, name)
        return {"kind": self.kind, key: list(value) if self.kind == "table" else value}

    @classmethod
    def from_config(cls, cfg: dict) -> "GammaSchedule":
        require_object(cfg, "gamma config")
        kind = cfg.get("kind")
        # a kind that is not a string (a list, say) cannot be looked up
        if not (isinstance(kind, str) and kind in _GAMMA_KINDS):
            raise ScheduleError(f"unknown gamma kind {kind!r}")
        key, name = _GAMMA_KINDS[kind]
        check_keys(cfg, ("kind", key), (), f"{kind} gamma config")
        return cls(kind, **{name: cfg[key]})


@dataclass(frozen=True)
class ScheduleParams:
    """Parameter tuple (a, N, gamma, v0, loss mode) fixing every rate formula."""

    a: float
    num_experts: int
    gamma: GammaSchedule
    v0: float = 0.0
    loss_mode: str = "general"

    def __post_init__(self):
        object.__setattr__(self, "a", require_real(self.a, "a", 0, error=ScheduleError))
        object.__setattr__(self, "num_experts",
                           require_count(self.num_experts, "num_experts", error=ScheduleError))
        object.__setattr__(self, "v0", require_real(self.v0, "v0", 0, low_closed=True,
                                                    error=ScheduleError))
        if self.loss_mode not in LOSS_MODES:
            raise ScheduleError(f"unknown loss mode {self.loss_mode!r}")

    @cached_property
    def coef_A(self) -> float:
        """A = 2(e^{3/a} - 1) / (a (1 + ln N)), formed once per params: each
        alpha_t reads it twice."""
        return 2.0 * math.expm1(3.0 / self.a) / (self.a * expected_max_bound(self.num_experts))

    @cached_property
    def _mu_coef(self) -> float:
        """sqrt(2a(e^{3/a}-1) / (1+ln N)) = mu_t / gamma(t)^{1/2}, formed once
        per params: every adversary step asks for mu_t, and the coefficient
        costs an exp and a log."""
        return math.sqrt(_rate(self.a, "general") / expected_max_bound(self.num_experts))

    @property
    def target_eps(self) -> float:
        """The eps the main bound holds with for this ``a``: 2a(e^{3/a}-1) - 6,
        or a(e^{2/a}-1) - 2 for nonnegative losses; the inverse of :func:`choose_a`.

        With x = 3/a (2/a for nonnegative losses) this is 2a(e^x - 1 - x)
        (a(e^x - 1 - x)), and the subtraction cancels more of the rate as x
        shrinks: from a = 1e17 on it leaves exactly 0.  Below x = 1/4 it is
        9/a (2/a) times the series S(x) = sum_k 2 x^k / (k + 2)!, whose
        terms past x^12 are below 2^-60 of the sum there.
        """
        c, scale = (2.0, 2.0) if self.loss_mode == "nonnegative" else (3.0, 9.0)
        x = c / self.a
        if x >= 0.25:
            return _rate(self.a, self.loss_mode) - _bound_constant(self.loss_mode)
        series = 0.0
        for coef in _EXCESS_SERIES:  # Horner, from the x^12 term down
            series = series * x + coef
        return scale / self.a * series

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
        return {"a": self.a, "N": self.num_experts, "gamma": self.gamma.to_config(),
                "v0": self.v0, "loss_mode": self.loss_mode}

    @classmethod
    def from_config(cls, cfg: dict) -> "ScheduleParams":
        """Build params from a JSON-style dict with keys ``N`` and ``gamma``
        and optionally ``a``, ``target_eps``, ``v0`` and ``loss_mode``;
        ``a`` may be given directly or derived from ``target_eps``."""
        check_keys(cfg, ("N", "gamma"), ("a", "target_eps", "v0", "loss_mode"), "schedule config")
        if not ("a" in cfg or "target_eps" in cfg):
            raise ScheduleError("schedule config needs 'a' or 'target_eps'")
        a = cfg["a"] if "a" in cfg else choose_a(cfg["target_eps"], cfg.get("loss_mode", "general"))
        # v0 and the loss mode are passed on only when given, so their
        # defaults are the constructor's, as are the checks of every value
        return cls(a=a, num_experts=cfg["N"], gamma=GammaSchedule.from_config(cfg["gamma"]),
                   **{key: cfg[key] for key in ("v0", "loss_mode") if key in cfg})


def _alpha_split(params: ScheduleParams, g, step: int = 1):
    """alpha_t and the split terms gamma(t)^{1-alpha_t}, gamma(t)^{alpha_t}
    from ``g``: gamma(t) at step ``step``, or an array of gamma(t) at the
    steps ``step``, ``step + 1``, ...

    gamma is non-increasing, so if any of the steps is outside the alpha
    domain the first one is, and raises
    :meth:`ScheduleParams.require_alpha_domain`'s error there; if gamma(t)
    underflows to 0 at any, it does at the last, and the first such step
    raises GameError.
    """
    g = np.asarray(g)
    if g.size:
        params.require_alpha_domain(step)
        if g.flat[-1] == 0:
            t = step + int(np.argmax(g.ravel() == 0))
            raise GameError(f"schedule invalid at step {t}: gamma({t}) = 0.0 leaves no alpha_t")
    alpha = 0.5 * (1.0 - np.log(1.0 / params.coef_A) / np.log(g))
    return alpha, np.power(g, 1.0 - alpha), np.power(g, alpha)


def alpha_t(params: ScheduleParams, t: int) -> float:
    """Exponent splitting the per-step bound; strictly in (0, 1) on its domain."""
    return float(_alpha_split(params, params.gamma(t), t)[0])


def mu_t(params: ScheduleParams, t: int) -> float:
    """mu_t = a * gamma(t)^alpha_t via the equivalent square-root closed form;
    raises where gamma(t) underflows to 0."""
    return _checked_mu(params._mu_coef * math.sqrt(params.gamma(t)), t)


def _all(ok) -> bool:
    """Whether a bool, or every entry of a boolean array, is true."""
    return ok if isinstance(ok, bool) else bool(ok.all())


def _checked_mu(mu, step):
    """``mu`` (mu_t for steps ``step``, ``step + 1``, ...) if every entry is
    positive; a gamma(t) that underflows to 0 leaves no rate and raises."""
    ok = mu > 0
    if not _all(ok):
        bad = np.argmin(np.atleast_1d(ok))
        raise GameError(f"schedule invalid at step {step + bad}: "
                        f"mu_t = {np.atleast_1d(mu)[bad]}")
    return mu


def mu_values(params: ScheduleParams, T: int) -> np.ndarray:
    """mu_t for t = 1..T, vectorized; raises where gamma(t) underflows to 0."""
    if params.gamma.kind == "constant":  # every mu_t is the one double mu_1
        return np.full(T, mu_t(params, 1))
    ts = np.arange(1, T + 1)
    return _checked_mu(params._mu_coef * np.sqrt(params.gamma.values(ts)), 1)


def epsilon_values(mu, vol, step: int = 1):
    """Rates eps_t = 1 / (mu_t v) for steps ``step``, ``step + 1``, ...

    ``mu`` comes from :func:`mu_values` (or :func:`mu_t`) and ``vol`` is the
    finite, nonnegative volume each rate is scaled by: v_{t-1} for PROT,
    v_t for IFPL.  A zero volume gives an infinite rate (follow the leader).
    A product mu_t v that overflows leaves a rate of 0, and one so small at
    a positive volume that 1/(mu_t v) overflows an infinite rate: both
    raise, naming the step.
    """
    if isinstance(mu, float) and isinstance(vol, float):
        # one step in Python floats, the same doubles without numpy's
        # per-call overhead: a product that overflows is inf, with no
        # floating-point warning to silence
        prod = float(mu) * float(vol)
        eps = 1.0 / prod if prod else math.inf
        if 0 < eps < math.inf or not vol:
            return eps
    else:
        with np.errstate(over="ignore", divide="ignore"):
            eps = 1.0 / (mu * vol)
        # every rate finite and positive (or no rate): two reductions, no mask
        if (0 < np.minimum.reduce(eps, axis=None, initial=math.inf)
                and np.maximum.reduce(eps, axis=None, initial=0.0) < math.inf):
            return eps
    # mu > 0 and a finite vol >= 0, so eps is 0 only where mu v overflowed,
    # and inf where v is 0 or where 1/(mu v) overflowed
    bad = np.atleast_1d(~(eps > 0) | ((eps == math.inf) & (np.asarray(vol) > 0)))
    if bad.any():
        t = int(np.argmax(bad))
        if not np.atleast_1d(eps)[t] > 0:
            raise GameError(f"rate 1/(mu_t v) is 0 at step {step + t}: mu_t * v overflows")
        raise GameError(f"rate 1/(mu_t v) is inf at step {step + t}: v > 0 but mu_t * v underflows")
    return eps


def epsilon_t(params: ScheduleParams, t: int, v_prev: float) -> float:
    """Learning rate 1 / (mu_t * v_{t-1}); ``inf`` signals the zero-volume case.

    The one-step case of :func:`epsilon_values`.  IFPL's eps'_t is the same
    formula at the end-of-step volume v_t.
    """
    if not 0 <= v_prev < math.inf:
        raise ScheduleError(f"volume must be finite and nonnegative, got {v_prev}")
    return epsilon_values(mu_t(params, t), float(v_prev), t)


def _rate(a: float, loss_mode: str) -> float:
    """2a(e^{3/a}-1), or a(e^{2/a}-1) for nonnegative losses: the main bound
    holds with eps wherever this is at most 6 + eps (resp. 2 + eps)."""
    if loss_mode == "nonnegative":
        return a * math.expm1(2.0 / a)
    # the product first: doubling it is exact, and 2a overflows for a near the largest double
    return 2.0 * (a * math.expm1(3.0 / a))


# the coefficients 2 / (k + 2)! of S(x) = 2 (e^x - 1 - x) / x^2, from x^12 down
_EXCESS_SERIES = tuple(2.0 / math.factorial(k + 2) for k in range(12, -1, -1))


def _bound_constant(loss_mode: str) -> float:
    return 2.0 if loss_mode == "nonnegative" else 6.0


def choose_a(target_eps: float, loss_mode: str = "general") -> float:
    """Smallest a (on a bisection grid) with 2a(e^{3/a}-1) <= 6 + eps,
    or a(e^{2/a}-1) <= 2 + eps for nonnegative losses.

    Both functions decrease toward their limit (6 resp. 2), so a solution
    exists for every positive eps.
    """
    limit = _bound_constant(loss_mode) + require_real(target_eps, "target_eps", 0,
                                                      error=ScheduleError)
    lo, hi = 3.0, 1e6
    if _rate(lo, loss_mode) <= limit:
        return lo
    if _rate(hi, loss_mode) > limit:
        raise ScheduleError(f"no a <= {hi} satisfies the target")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _rate(mid, loss_mode) <= limit:
            hi = mid
        else:
            lo = mid
    return hi


def _checked_delta_v(T: int, delta_v) -> np.ndarray:
    """``delta_v`` as floats; raises unless it has shape (T,) and no negative or NaN entry."""
    delta_v = np.asarray(delta_v, dtype=float)
    if delta_v.shape != (T,):
        raise ScheduleError(f"delta_v must have length {T}, got shape {delta_v.shape}")
    if not np.all(delta_v >= 0):
        raise ScheduleError("delta_v entries must be nonnegative")
    return delta_v


def _weighted_volume(params: ScheduleParams, T: int, delta_v) -> float:
    """sum_t gamma(t)^{1/2} dv_t, the sum every regret bound is a multiple of."""
    delta_v = _checked_delta_v(T, delta_v)
    return float(np.sum(np.sqrt(params.gamma.values(np.arange(1, T + 1))) * delta_v))


def _tuned_coef(params: ScheduleParams) -> float:
    """sqrt(2a(e^{3/a}-1)(1+ln N)) = (1+ln N) mu_t / gamma(t)^{1/2}."""
    return math.sqrt(_rate(params.a, "general") * expected_max_bound(params.num_experts))


def _main_coef(num_experts: int, loss_mode: str, target_eps: float) -> float:
    """2 sqrt((6+eps)(1+ln N)), or 2 sqrt((2+eps)(1+ln N)) for nonnegative losses;
    ``target_eps`` must be finite and positive, as every ``a`` gives."""
    c = _bound_constant(loss_mode) + require_real(target_eps, "target_eps", 0,
                                                  error=ScheduleError)
    return 2.0 * math.sqrt(c * expected_max_bound(num_experts))


def regret_bound(params: ScheduleParams, T: int, delta_v, target_eps: float) -> float:
    """Main expected-regret bound 2 sqrt((6+eps)(1+ln N)) sum gamma(t)^{1/2} dv_t
    (with 2+eps in nonnegative mode).  It holds when ``target_eps`` is at least
    ``params.target_eps``."""
    return _main_coef(params.num_experts, params.loss_mode, target_eps) * _weighted_volume(
        params, T, delta_v)


def general_bound(params: ScheduleParams, T: int, delta_v) -> float:
    """Pre-optimization regret bound
    sum_t (2(e^{3/a}-1) gamma^{1-alpha_t} + a(1+ln N) gamma^{alpha_t}) dv_t.

    With alpha_t at its optimum this equals :func:`optimized_bound` exactly.
    Requires the alpha domain to be valid for all t <= T.
    """
    delta_v = _checked_delta_v(T, delta_v)
    # a step outside the alpha domain is step 1 (see _alpha_split), checked
    # before gamma.values, which would raise first at a step past a table
    if T:
        params.require_alpha_domain()
    _, split, power = _alpha_split(params, params.gamma.values(np.arange(1, T + 1)))
    terms = (2.0 * math.expm1(3.0 / params.a) * split
             + params.a * expected_max_bound(params.num_experts) * power) * delta_v
    # summed one step after another, as a running total would
    return float(np.cumsum(terms)[-1]) if T else 0.0


def optimized_bound(params: ScheduleParams, T: int, delta_v) -> float:
    """Tuned form 2 sqrt(2a(e^{3/a}-1)(1+ln N)) sum gamma(t)^{1/2} dv_t."""
    return 2.0 * _tuned_coef(params) * _weighted_volume(params, T, delta_v)


def fpl_ifpl_gap_bound(params: ScheduleParams, delta_v) -> float:
    """Bound on l_{1:T} - r_{1:T}: 2(e^{3/a}-1) sum gamma(t)^{1-alpha_t} dv_t.

    With gamma^{1-alpha_t} = a gamma(t) / mu_t this is half of
    :func:`optimized_bound` for every gamma in (0, 1].
    """
    return _tuned_coef(params) * _weighted_volume(params, np.size(delta_v), delta_v)


def ifpl_regret_bound(params: ScheduleParams, delta_v) -> float:
    """IFPL bound term a(1+ln N) sum gamma(t)^{alpha_t} dv_t = (1+ln N) sum mu_t dv_t,
    half of :func:`optimized_bound` and so the gap bound itself."""
    return fpl_ifpl_gap_bound(params, delta_v)


def poly_bound(N: int, T: int, alpha: float, delta: float, target_eps: float) -> float:
    """Polynomial-regime bound 2 sqrt((6+eps)(1+ln N)) T^{1 - delta/2 + alpha}."""
    T = require_real(T, "T", 1, low_closed=True, error=ScheduleError)
    alpha = require_real(alpha, "alpha", 0, low_closed=True, error=ScheduleError)
    delta = require_real(delta, "delta", 0, error=ScheduleError)
    return _main_coef(N, "general", target_eps) * T ** (1.0 - 0.5 * delta + alpha)
