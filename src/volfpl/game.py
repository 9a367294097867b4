"""Loss bookkeeping for expert games: cumulative losses, volume, scaled fluctuation.

The volume of a game after step t is ``v_t = v_0 + sum_{j<=t} max_i |s^i_j|``
and the scaled fluctuation is ``fluc(t) = (v_t - v_{t-1}) / v_t``.  Every
learning-rate formula in :mod:`volfpl.schedule` reads these quantities.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np


class GameError(ValueError):
    """Invalid loss data or game input."""


def require_object(cfg, what: str) -> None:
    """Raise GameError naming ``what`` and the value unless ``cfg`` is a
    dict: every config section is a JSON object."""
    if not isinstance(cfg, dict):
        raise GameError(f"{what} must be a JSON object, got {cfg!r}")


def check_keys(cfg: dict, required, optional, what: str) -> None:
    """Raise GameError unless ``cfg`` is a JSON object (see
    :func:`require_object`), then naming every key of ``cfg`` that is
    neither required nor optional, then every required key that ``cfg``
    lacks."""
    require_object(cfg, what)
    known = (*required, *optional)
    unknown = [key for key in cfg if key not in known]
    if unknown:
        raise GameError(f"{what} has unknown {', '.join(map(repr, unknown))} "
                        f"(known: {', '.join(known)})")
    missing = [key for key in required if key not in cfg]
    if missing:
        raise GameError(f"{what} is missing {', '.join(map(repr, missing))}")


def require_count(value, what: str, low: int = 1, error=GameError) -> int:
    """``value`` as an int if it is an integer of at least ``low``: numpy
    integers pass, while a bool, a float or a string raises ``error`` naming
    ``what`` and the value.  The one rule for every count and seed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        rule = "a non-negative integer" if low == 0 else f"an integer >= {low}"
        raise error(f"{what} must be {rule}, got {value!r}")
    return int(value)


def require_real(value, what: str, low=-math.inf, high=math.inf, *, low_closed=False,
                 high_closed=False, error=GameError) -> float:
    """``value`` as a float if it is a finite real number between ``low`` and
    ``high`` (each bound excluded unless its ``*_closed`` flag is set): numpy
    numbers and 0-d arrays pass, while a bool, a string, None, a list, NaN
    or an infinity raises ``error`` naming ``what``, the interval and the
    value.  The one rule for every real parameter."""
    # a float is read at once; a ragged list would make np.ndim raise, so
    # only other numbers and arrays reach it (a bool's kind is "b")
    x = float(value) if type(value) is float or (
        isinstance(value, (int, np.number, np.ndarray)) and np.ndim(value) == 0
        and np.asarray(value).dtype.kind in "iuf") else math.nan
    # NaN fails every comparison, and an open infinite bound excludes infinity
    if not ((low <= x if low_closed else low < x) and (x <= high if high_closed else x < high)):
        raise error(f"{what} must be a real number in {'[' if low_closed else '('}{low}, "
                    f"{high}{']' if high_closed else ')'}, got {value!r}")
    return x


def require_choice(value, choices, what: str, error=GameError) -> None:
    """Raise ``error`` naming ``what`` and the value unless ``value`` is a
    string among ``choices``: the one rule for every named mode (a regime, a
    loss mode, a gamma or game kind), so no array reaches a truth test."""
    if not (isinstance(value, str) and value in choices):
        raise error(f"unknown {what} {value!r}")


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
        """One-step losses at step t (1-based); a step past T raises GameError."""
        if require_count(t, "t") > self.num_steps:
            raise GameError(f"t must be at most T = {self.num_steps}, got {t!r}")
        return self.values[t - 1]

    @classmethod
    def from_csv(cls, path) -> "LossMatrix":
        """Read a loss matrix from CSV with header ``expert_1,...,expert_N``."""
        return cls(read_csv(path, _expert_header))

    def to_csv(self, path) -> None:
        write_csv(path, _expert_header(self.num_experts), self.values.T)


def _expert_header(num_experts: int) -> list:
    return [f"expert_{i}" for i in range(1, num_experts + 1)]


# Rows per block in write_csv and read_csv: enough to amortise the
# per-block join, write or array build, few enough that a block's Python
# floats and strings stay small whatever the number of rows.
_BLOCK_ROWS = 1024


def write_csv(path, header, columns, lineterminator="\r\n") -> None:
    """Write equal-length 1-d numeric columns under ``header``.

    Integer columns are written as integers and float columns by ``repr``,
    so every value reads back exactly.  The header goes through
    ``csv.writer``; the rows are formatted ``_BLOCK_ROWS`` at a time and
    each block is one ``write``.  The bytes are the ones ``csv.writer``
    gives for the same rows (a number's ``repr`` never needs quoting), and
    memory stays bounded by one block however long the columns are.
    Columns of different lengths raise GameError.
    """
    columns = [np.asarray(c) for c in columns]
    for i, column in enumerate(columns):
        if column.ndim != 1:
            raise GameError(f"column {i} must be 1-d, got shape {column.shape}")
        if len(column) != len(columns[0]):
            raise GameError(f"column {i} has {len(column)} rows "
                            f"but column 0 has {len(columns[0])}")
    num_rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator=lineterminator).writerow(header)
        for start in range(0, num_rows, _BLOCK_ROWS):
            cells = [map(repr, c[start:start + _BLOCK_ROWS].tolist()) for c in columns]
            fh.write(lineterminator.join(map(",".join, zip(*cells))) + lineterminator)


def read_csv(path, expected_header) -> np.ndarray:
    """Read a numeric CSV file as a (rows, columns) float array.

    ``expected_header(n)`` gives the column names a header of n cells must
    have; the header's cells are compared stripped.  An empty file or a
    blank first line has no header and raises; blank lines after the header
    are skipped.  Each cell goes through ``float``, so a file from
    :func:`write_csv` reads back bit for bit.  A row with the wrong number
    of cells, or a cell that is not a number, raises GameError naming
    ``path:line``.  Rows become arrays ``_BLOCK_ROWS`` at a time, so at most
    one block is held as Python floats.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        expected = expected_header(len(header))
        if not header or header != expected:
            raise GameError(f"{path}: header must be {','.join(expected) or 'non-empty'}")
        width = len(header)
        blocks, block = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise GameError(f"{path}:{reader.line_num}: expected {width} cells, got {len(row)}")
            try:
                block.append([float(cell) for cell in row])
            except ValueError as exc:
                raise GameError(f"{path}:{reader.line_num}: {exc}") from None
            if len(block) == _BLOCK_ROWS:
                blocks.append(np.array(block))
                block = []
        blocks.append(np.array(block, dtype=float).reshape(len(block), width))
    return np.concatenate(blocks)


def scaled_fluctuation(delta_v: float, v: float) -> float:
    """Return ``delta_v / v`` with the 0/0 = 0 convention; always in [0, 1].
    Both are real numbers in [0, inf)."""
    delta_v = require_real(delta_v, "delta_v", 0, low_closed=True)
    v = require_real(v, "v", 0, low_closed=True)
    if delta_v > v:
        raise GameError(f"delta_v={delta_v} exceeds volume v={v}" if v else
                        "delta_v > 0 with zero volume")
    return delta_v / v if v else 0.0


def row_peaks(values) -> np.ndarray:
    """max_i |s^i_t| for every row t of a (T, N) array."""
    # A reduction over the rows of the (N, T) transpose: one vectorized
    # maximum per expert instead of a short reduction per step (exact in any
    # order, so the same doubles).
    return np.abs(values.T, order="C").max(axis=0)


def volume_from_peaks(delta_v, v0: float = 0.0):
    """(volume, fluc) of a game whose step t has the peak ``delta_v[t-1]``.

    Returns ``v`` of length T+1 (``v[0] = v0``) and ``fluc`` of length T.
    The peaks are checked only when the volume is not finite: a peak that is
    not finite raises GameError as a loss matrix does, and a volume that
    overflows raises naming the first step where it is not finite.
    """
    v = np.full(len(delta_v) + 1, v0, dtype=float)
    with np.errstate(over="ignore"):
        np.add(v0, np.cumsum(delta_v, out=v[1:]), out=v[1:])
    # v never decreases, so its last entry is finite only if all are.
    if not np.isfinite(v[-1]):
        if not np.isfinite(delta_v).all():
            raise GameError("loss matrix contains non-finite entries")
        bad = np.argmax(~np.isfinite(v))
        raise GameError(f"volume is not finite at step {bad}: losses overflow")
    # v is 0 only while all losses so far are 0 (0/0 = 0); no positive v is below 5e-324
    return v, delta_v / np.maximum(v[1:], 5e-324)


def volume_trace(losses: LossMatrix, v0: float = 0.0):
    """Per-step (volume, delta_v, fluc) arrays for a whole game.

    Returns ``v`` of length T+1 (``v[0] = v0``), and ``delta_v``, ``fluc`` of
    length T, all indexed so entry t-1 belongs to step t.  A ``v0`` that is
    not finite and nonnegative raises GameError, and so does a volume that
    overflows, naming the first step where it is not finite.
    """
    v0 = require_real(v0, "v0", 0, low_closed=True)
    delta_v = row_peaks(losses.values)
    v, fluc = volume_from_peaks(delta_v, v0)
    return v, delta_v, fluc


class RunningVolume:
    """The volume of a game played one step at a time.

    ``v`` is ``v0 + sum of the steps' peaks so far``, which rounds exactly
    like the ``cumsum`` in :func:`volume_trace`, so a loop reading it sees
    the volumes of the finished game's trace.
    """

    def __init__(self, v0: float):
        self.v0 = v0
        self._total = 0.0
        self.v = v0 + self._total

    def add(self, peak: float, t: int) -> float:
        """Add step t's peak ``max_i |s^i_t|`` and return the new volume; a
        volume that is not finite raises GameError naming step t."""
        self._total += peak
        v = self.v0 + self._total
        if not math.isfinite(v):
            raise GameError(f"volume is not finite at step {t}: losses overflow")
        self.v = v
        return v


def check_fluctuation_bound(fluc_values, gamma):
    """Check ``fluc(t) <= gamma(t)`` for t = 1..T.

    Returns ``(True, None)`` if the bound holds everywhere, else
    ``(False, t)`` with the least violating step.  Values that are not one
    row raise GameError, and so does a value that is not finite, naming it
    and its step.
    """
    fluc_values = np.asarray(fluc_values, dtype=float)
    if fluc_values.ndim != 1:
        raise GameError(f"fluc values must be one row, got shape {fluc_values.shape}")
    finite = np.isfinite(fluc_values)
    if not finite.all():
        t = int(np.argmin(finite))
        raise GameError(f"fluc({t + 1}) = {fluc_values[t]} is not finite")
    ts = np.arange(1, len(fluc_values) + 1)
    bad = fluc_values > gamma.values(ts)
    if not bad.any():
        return True, None
    return False, int(ts[bad][0])
