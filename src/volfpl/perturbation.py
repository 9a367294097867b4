"""Seeded exponential perturbations and the max-of-exponentials facts.

Sampling goes through the inverse CDF ``xi = -ln(1 - U)`` so that streams are
bit-for-bit reproducible from an :class:`RngSpec` across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import GameError, require_count, require_real


@dataclass(frozen=True)
class RngSpec:
    """Seed plus stream id; equal specs reproduce identical streams.

    Both are non-negative integers (numpy integers pass, stored as int);
    anything else, a bool or a string among them, raises GameError naming it.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, require_count(getattr(self, name), f"RngSpec {name}", 0))

    def generator(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream_id])


def as_generator(rng) -> np.random.Generator:
    """Accept an RngSpec, a Generator, or a seed that :class:`RngSpec` takes
    (a non-negative integer); anything else, a float, None or a negative
    seed among them, raises GameError naming it."""
    if isinstance(rng, np.random.Generator):
        return rng
    if not isinstance(rng, RngSpec):
        try:
            rng = RngSpec(rng)
        except GameError:
            raise GameError(f"rng must be an RngSpec, a Generator or a non-negative integer "
                            f"seed, got {rng!r}") from None
    return rng.generator()


def inverse_exponential_cdf(u):
    """Map uniform [0, 1) values to Exp(1) samples: -ln(1 - u)."""
    return -np.log1p(-np.asarray(u, dtype=float))


def sample_exponential(n: int, gen: np.random.Generator) -> np.ndarray:
    """n i.i.d. Exp(1) draws via the inverse CDF."""
    return sample_exponential_array(require_count(n, "n"), gen)


def _neg_exponential_array(shape, gen: np.random.Generator) -> np.ndarray:
    """``log(1 - U)`` for uniform draws U of ``shape``: the negated Exp(1)
    draws ``-xi``, computed in place in the uniform buffer (negation is
    exact, so no temporary is needed).  The one draw path: the sampler
    below negates it, and the Monte Carlo kernels add it to their scores.
    """
    u = gen.random(shape)
    np.negative(u, out=u)
    return np.log1p(u, out=u)


def sample_exponential_array(shape, gen: np.random.Generator) -> np.ndarray:
    """Exp(1) draws of an arbitrary shape (same stream as sample_exponential).

    The doubles of ``inverse_exponential_cdf(gen.random(shape))``: the
    negation of :func:`_neg_exponential_array`, in its buffer.
    """
    u = _neg_exponential_array(shape, gen)
    return np.negative(u, out=u)


def max_tail_bound(num_experts: int, a: float) -> float:
    """Union bound P{max_i xi^i >= a} <= N e^{-a}; a threshold that is not
    a finite number >= 0 raises GameError, and so does an N that is not an
    integer >= 1."""
    a = require_real(a, "threshold", 0, low_closed=True)
    return require_count(num_experts, "num_experts") * math.exp(-a)


def expected_max_bound(num_experts: int) -> float:
    """E(max_i xi^i) <= 1 + ln N; the true value is the harmonic number H_N."""
    return 1.0 + math.log(require_count(num_experts, "num_experts"))
