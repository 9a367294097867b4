"""Loss bookkeeping for expert games: cumulative losses, volume, scaled fluctuation.

The volume of a game after step t is ``v_t = v_0 + sum_{j<=t} max_i |s^i_j|``
and the scaled fluctuation is ``fluc(t) = (v_t - v_{t-1}) / v_t``.  Every
learning-rate formula in :mod:`volfpl.schedule` reads these quantities.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


class GameError(ValueError):
    """Invalid loss data or game input."""


@dataclass(frozen=True)
class LossMatrix:
    """Full table of expert one-step losses, rows = steps, columns = experts."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise GameError(f"loss matrix must be 2-d, got shape {values.shape}")
        if values.shape[1] < 1:
            raise GameError("need at least one expert")
        if not np.all(np.isfinite(values)):
            raise GameError("loss matrix contains non-finite entries")
        object.__setattr__(self, "values", values)

    @property
    def num_steps(self) -> int:
        return self.values.shape[0]

    @property
    def num_experts(self) -> int:
        return self.values.shape[1]

    def row(self, t: int) -> np.ndarray:
        """One-step losses at step t (1-based)."""
        return self.values[t - 1]

    @classmethod
    def from_csv(cls, path) -> "LossMatrix":
        """Read a loss matrix from CSV with header ``expert_1,...,expert_N``."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise GameError(f"{path}: empty file")
            expected = [f"expert_{i}" for i in range(1, len(header) + 1)]
            if [h.strip() for h in header] != expected:
                raise GameError(f"{path}: header must be {','.join(expected)}")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise GameError(f"{path}:{lineno}: expected {len(header)} cells")
                try:
                    rows.append([float(cell) for cell in row])
                except ValueError as exc:
                    raise GameError(f"{path}:{lineno}: {exc}") from None
        values = np.array(rows, dtype=float).reshape(len(rows), len(header))
        return cls(values)

    def to_csv(self, path) -> None:
        write_csv(path, [f"expert_{i}" for i in range(1, self.num_experts + 1)], self.values.T)


def write_csv(path, header, columns, lineterminator="\r\n") -> None:
    """Write equal-length numeric columns under ``header``.

    Integer columns are written as integers and float columns by ``repr``,
    so every value reads back exactly.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(zip(*(np.asarray(c).tolist() for c in columns)))


def scaled_fluctuation(delta_v: float, v: float) -> float:
    """Return ``delta_v / v`` with the 0/0 = 0 convention; always in [0, 1]."""
    if delta_v < 0 or v < 0:
        raise GameError(f"negative inputs: delta_v={delta_v}, v={v}")
    if v == 0:
        if delta_v != 0:
            raise GameError("delta_v > 0 with zero volume")
        return 0.0
    if delta_v > v:
        raise GameError(f"delta_v={delta_v} exceeds volume v={v}")
    return delta_v / v


def volume_trace(losses: LossMatrix, v0: float = 0.0):
    """Per-step (volume, delta_v, fluc) arrays for a whole game.

    Returns ``v`` of length T+1 (``v[0] = v0``), and ``delta_v``, ``fluc`` of
    length T, all indexed so entry t-1 belongs to step t.  A volume that
    overflows raises GameError naming the first step where it is not finite.
    """
    delta_v = np.max(np.abs(losses.values), axis=1)
    with np.errstate(over="ignore"):
        v = np.concatenate([[v0], v0 + np.cumsum(delta_v)])
    # v never decreases, so its last entry is finite only if all are.
    if not np.isfinite(v[-1]):
        bad = np.argmax(~np.isfinite(v))
        raise GameError(f"volume is not finite at step {bad}: losses overflow")
    with np.errstate(invalid="ignore"):
        fluc = np.where(v[1:] > 0, delta_v / v[1:], 0.0)
    return v, delta_v, fluc


def check_fluctuation_bound(fluc_values, gamma):
    """Check ``fluc(t) <= gamma(t)`` for t = 1..T.

    Returns ``(True, None)`` if the bound holds everywhere, else
    ``(False, t)`` with the least violating step.
    """
    fluc_values = np.asarray(fluc_values, dtype=float)
    ts = np.arange(1, len(fluc_values) + 1)
    bad = fluc_values > gamma.values(ts)
    if not bad.any():
        return True, None
    return False, int(ts[bad][0])
