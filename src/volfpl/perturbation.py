"""Seeded exponential perturbations and the max-of-exponentials facts.

Sampling goes through the inverse CDF ``xi = -ln(1 - U)`` so that streams are
bit-for-bit reproducible from an :class:`RngSpec` across platforms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .game import GameError


@dataclass(frozen=True)
class RngSpec:
    """Seed plus stream id; equal specs reproduce identical streams.

    Both are non-negative integers (numpy integers pass); anything else, a
    bool or a string among them, raises GameError naming it.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
                raise GameError(f"RngSpec {name} must be a non-negative integer, got {value!r}")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream_id])


def as_generator(rng) -> np.random.Generator:
    """Accept an RngSpec, a Generator, or a plain non-negative integer seed
    (anything ``int`` takes, a float among them); anything else, None and
    negative seeds among them, raises GameError naming it."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngSpec):
        return rng.generator()
    try:
        seed = int(rng)
    except (TypeError, ValueError, OverflowError):
        seed = None
    if seed is None or seed < 0:
        raise GameError(f"rng must be an RngSpec, a Generator or a non-negative integer seed, "
                        f"got {rng!r}")
    return RngSpec(seed).generator()


def inverse_exponential_cdf(u):
    """Map uniform [0, 1) values to Exp(1) samples: -ln(1 - u)."""
    return -np.log1p(-np.asarray(u, dtype=float))


def sample_exponential(n: int, gen: np.random.Generator) -> np.ndarray:
    """n i.i.d. Exp(1) draws via the inverse CDF."""
    if not n >= 1:
        raise GameError(f"need n >= 1, got {n}")
    return sample_exponential_array(n, gen)


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
    """Union bound P{max_i xi^i >= a} <= N e^{-a}; a threshold that is NaN
    or negative raises GameError."""
    if not a >= 0:
        raise GameError(f"threshold must be nonnegative, got {a}")
    return num_experts * math.exp(-a)


def expected_max_bound(num_experts: int) -> float:
    """E(max_i xi^i) <= 1 + ln N; the true value is the harmonic number H_N."""
    if not num_experts >= 1:
        raise GameError(f"need at least one expert, got {num_experts}")
    return 1.0 + math.log(num_experts)
