"""Experiment orchestration: seeded game suites, bound reports, file I/O.

Everything here is deterministic per (config, seeds): randomness funnels
through :class:`~volfpl.perturbation.RngSpec`, aggregation is
permutation-invariant in the seeds, and reports embed the resolved config.
The trace and the report's ``hannan`` section belong to the first seed, so
they are not invariant to the order of the seeds.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .engine import REGIMES, RunRecord, _mean_se, ifpl_run, prot_run
from .game import (GameError, LossMatrix, check_fluctuation_bound, check_keys, require_choice,
                   require_count, require_object, require_real, row_peaks, write_csv)
from .perturbation import RngSpec, as_generator
from .schedule import LOSS_MODES, ScheduleParams, ifpl_regret_bound, regret_bound


# ---------------------------------------------------------------------------
# Game generators

def _check_game_args(num_experts: int, num_steps: int, loss_mode: str) -> None:
    require_count(num_experts, "num_experts")
    require_count(num_steps, "num_steps", 0)
    require_choice(loss_mode, LOSS_MODES, "loss mode")


def random_fluc_bounded_game(num_experts: int, num_steps: int, rng,
                             v0: float = 1.0, loss_mode: str = "general",
                             delta: float = 1.0) -> LossMatrix:
    """Random game whose scaled fluctuation obeys fluc(t) <= t^-delta.

    Step t's row has peak magnitude max_i |s^i_t| = U_t cap_t with U_t
    uniform on [0.1, 1), where cap_t = g v_{t-1} / (1 - g) for g = t^-delta
    is the largest volume step with fluc(t) <= g (cap_t = v_{t-1} when g >= 1).
    So v_t = v_{t-1} (1 + U_t cap_t / v_{t-1}) has a closed form, and the
    whole game comes from one block of uniform draws: per step, U_t and then
    the N row entries, uniform on [-1, 1) (or [0, 1) for nonnegative
    losses).  ``v0`` and ``delta`` must be finite and positive, and a volume
    that overflows raises GameError naming the first such step.
    """
    _check_game_args(num_experts, num_steps, loss_mode)
    v0 = require_real(v0, "random game v0", 0)
    delta = require_real(delta, "random game delta", 0)
    gen = as_generator(rng)
    draws = gen.random((num_steps, num_experts + 1))
    # the doubles Generator.uniform(low, high) would draw: low + (high - low) * r
    u = 0.1 + 0.9 * draws[:, 0]
    rows = draws[:, 1:] if loss_mode == "nonnegative" else -1.0 + 2.0 * draws[:, 1:]
    g = np.arange(1, num_steps + 1, dtype=float) ** -delta
    # fluc = dv / (v_prev + dv) <= g  <=>  dv <= g v_prev / (1 - g)
    free = g >= 1.0
    denom = np.where(free, 1.0, 1.0 - g)
    growth = 1.0 + u[:-1] * np.where(free, 1.0, g / denom)[:-1]
    # a volume that overflows is inf (or NaN, times a g of 0), without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        v_prev = np.cumprod(np.concatenate([[v0], growth]))
        cap = np.where(free, v_prev, g * v_prev / denom)
    if not np.isfinite(cap).all():
        raise GameError(f"random game volume overflows at step {np.argmin(np.isfinite(cap)) + 1}")
    peak = row_peaks(rows)
    zero = peak == 0
    rows[zero, 0] = 1.0
    peak[zero] = 1.0
    return LossMatrix(rows / peak[:, None] * (u * cap)[:, None])


def bounded_unit_game(num_experts: int, num_steps: int, rng,
                      loss_mode: str = "general") -> LossMatrix:
    """Losses in [-1, 1] (or [0, 1]) with max_i |s^i_t| = 1 every step, so
    that the volume is exactly t."""
    _check_game_args(num_experts, num_steps, loss_mode)
    gen = as_generator(rng)
    if loss_mode == "nonnegative":
        rows = gen.uniform(0.0, 1.0, (num_steps, num_experts))
    else:
        rows = gen.uniform(-1.0, 1.0, (num_steps, num_experts))
    peaks = row_peaks(rows)[:, None]
    peaks[peaks == 0] = 1.0
    return LossMatrix(rows / peaks)


def poly_envelope_game(num_experts: int, num_steps: int, rng,
                       exponent: float = 0.1) -> LossMatrix:
    """Losses with max_i |s^i_t| = t^exponent exactly (polynomial envelope);
    an envelope that overflows raises GameError naming the first such step."""
    exponent = require_real(exponent, "poly game exponent")
    # the game first: it checks the counts before arange reads them
    values = bounded_unit_game(num_experts, num_steps, rng).values
    with np.errstate(over="ignore"):
        envelope = np.arange(1, num_steps + 1, dtype=float) ** exponent
    if not np.isfinite(envelope).all():
        raise GameError(f"poly game envelope t^{exponent} overflows at step "
                        f"{np.argmin(np.isfinite(envelope)) + 1}")
    return LossMatrix(values * envelope[:, None])


# ---------------------------------------------------------------------------
# Experiment config and aggregate report

@dataclass
class ExperimentConfig:
    """Game source, schedule, seeds, regime, and output paths.

    The seeds, regime, IFPL flag and output directory are checked when the
    config is built, parsed from a dict or not: the seeds go through
    :func:`parse_seeds` (and are stored as a list), the regime must be one
    the engine plays, ``run_ifpl`` a bool and ``out`` None or a string.
    The game and schedule sections are read, and
    checked, by :func:`resolve_game` and ``ScheduleParams.from_config``.
    """

    game: dict
    schedule: dict
    seeds: list = field(default_factory=lambda: [0])
    regime: str = "per-step"
    run_ifpl: bool = False
    out: str | None = None

    def __post_init__(self):
        self.seeds = parse_seeds(self.seeds)
        require_choice(self.regime, REGIMES, "perturbation regime")
        if not isinstance(self.run_ifpl, bool):
            raise GameError(f"run_ifpl must be true or false, got {self.run_ifpl!r}")
        if not (self.out is None or isinstance(self.out, str)):
            raise GameError(f"out must be a directory path string, got {self.out!r}")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        """The config in the JSON file ``path``; a file that cannot be read,
        or is not JSON, raises GameError naming the path."""
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise GameError(f"cannot read config {path}: {exc}") from None
        return cls.from_dict(cfg)

    @classmethod
    def from_dict(cls, cfg: dict) -> "ExperimentConfig":
        require_object(cfg, "experiment config")
        if "target_eps" in cfg:
            raise GameError("the bound's eps comes from the schedule: set schedule.target_eps")
        # the known keys are the dataclass's fields, game and schedule first,
        # so to_dict() parses back
        check_keys(cfg, ("game", "schedule"), [f.name for f in fields(cls)][2:],
                   "experiment config")
        return cls(**cfg)

    def to_dict(self) -> dict:
        return asdict(self)


def parse_seeds(seeds) -> list:
    """The seeds of a config, a list or ``{'count': ..., 'base': ...}``, as a
    list; GameError unless they are one or more non-negative integers.

    Seeds are checked here, not first in the run: a string is not a list of
    one-letter seeds, and True is not seed 1.  The CLI's seed flags go
    through this check too.
    """
    if isinstance(seeds, dict):
        check_keys(seeds, ("count",), ("base",), "seeds")
        count, base = seeds["count"], seeds.get("base", 0)
        try:
            seeds = list(range(require_count(base, "seeds base", 0),
                               base + require_count(count, "seeds count", 0)))
        except GameError:
            raise GameError(f"seeds count and base must be integers >= 0, "
                            f"got {count!r}, {base!r}") from None
    try:
        parsed = [require_count(x, "seed", 0) for x in seeds] if isinstance(seeds, list) else None
    except GameError:
        parsed = None
    if parsed is None:
        raise GameError(f"seeds must be a list of non-negative integers or "
                        f"{{'count': ..., 'base': ...}}, got {seeds!r}")
    if len(parsed) < 1:
        raise GameError("need at least one seed")
    return parsed


# Each generated game kind's generator and the options it reads besides
# ``seed``.  An option is passed on only when the config gives it, so its
# default is the generator's; any other key is a typo or an option the kind
# does not have, and is rejected rather than dropped.
_GENERATORS = {
    "random": (random_fluc_bounded_game, ("v0", "loss_mode", "delta")),
    "bounded": (bounded_unit_game, ("loss_mode",)),
    "poly": (poly_envelope_game, ("exponent",)),
}


def resolve_game(game_cfg: dict, seed: int = 0) -> LossMatrix:
    require_object(game_cfg, "game config")
    kind = game_cfg.get("kind")
    require_choice(kind, ("csv", *_GENERATORS), "game kind")
    if kind == "csv":
        check_keys(game_cfg, ("kind", "path"), (), "csv game config")
        # open() reads an integer path as a file descriptor
        if not isinstance(game_cfg["path"], str):
            raise GameError(f"csv game path must be a string, got {game_cfg['path']!r}")
        return LossMatrix.from_csv(game_cfg["path"])
    generate, keys = _GENERATORS[kind]
    check_keys(game_cfg, ("kind", "n_experts", "num_steps"), ("seed", *keys), f"{kind} game config")
    rng = RngSpec(game_cfg.get("seed", seed), stream_id=10_000)
    options = {key: game_cfg[key] for key in keys if key in game_cfg}
    return generate(game_cfg["n_experts"], game_cfg["num_steps"], rng, **options)


@dataclass
class AggregateReport:
    """Seed-averaged trajectory statistics plus bound evaluations, and the
    first seed's Hannan trend (:func:`hannan_check`'s dict).

    The trend stays out of ``checks``: a decreasing trend is evidence, not
    a bound, and a valid run may lack it.
    """

    mean_cum_loss: np.ndarray
    se_cum_loss: np.ndarray
    mean_regret: float
    se_regret: float
    best_expert_loss: float
    bounds: dict
    checks: dict
    config: dict
    hannan: dict | None = None
    first_trace: RunRecord = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "mean_regret": self.mean_regret,
            "se_regret": self.se_regret,
            "best_expert_loss": self.best_expert_loss,
            "bounds": self.bounds,
            "checks": self.checks,
            "config": self.config,
            "hannan": self.hannan,
        }

    def write(self, out_dir) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        if self.first_trace is not None:
            self.first_trace.to_csv(os.path.join(out_dir, "trace.csv"))
        write_csv(os.path.join(out_dir, "aggregate.csv"), ["t", "mean_cum_loss", "se_cum_loss"],
                  [np.arange(1, len(self.mean_cum_loss) + 1), self.mean_cum_loss,
                   self.se_cum_loss], lineterminator="\n")


def run_experiment(config: ExperimentConfig) -> AggregateReport:
    """Run PROT (and optionally IFPL) for every seed and aggregate.

    The first seed's record is the trace and gives the ``hannan`` section,
    :func:`hannan_check` of that seed's run.  Writes report.json /
    trace.csv / aggregate.csv when ``config.out`` is set.  Errors from any
    module surface with the offending seed attached.
    """
    losses = resolve_game(config.game)
    params = ScheduleParams.from_config(config.schedule)
    # the first seed's record is the trace; of the others only what the
    # aggregate reads is kept, so memory grows with T per seed, not T N
    first, regrets, cum_losses = None, [], []
    for seed in config.seeds:
        record = _seeded_run(prot_run, losses, params, seed, RngSpec(seed), config.regime)
        if first is None:
            first = record
        regrets.append(record.regret)
        cum_losses.append(record.cum_loss)

    best = float(np.min(first.expert_cum))
    mean_regret, se_regret = _mean_se(regrets)
    ok, violating = check_fluctuation_bound(first.fluc, params.gamma)
    eps = params.target_eps
    bounds = {
        "main_regret": regret_bound(params, losses.num_steps, first.delta_v, eps),
        "ifpl_term": ifpl_regret_bound(params, first.delta_v),
        "target_eps": eps,
    }
    checks = {
        "fluc_within_gamma": bool(ok),
        "first_fluc_violation": violating,
        "mean_regret_within_main_bound": bool(
            mean_regret <= bounds["main_regret"] + 3 * se_regret
        ),
    }
    if config.run_ifpl:
        ifpl_mean, ifpl_se = _mean_se([
            _seeded_run(ifpl_run, losses, params, seed, RngSpec(seed, stream_id=1),
                        config.regime).total_loss
            for seed in config.seeds
        ])
        bounds["ifpl_total"] = best + bounds["ifpl_term"]
        checks["ifpl_within_bound"] = bool(ifpl_mean <= bounds["ifpl_total"] + 3 * ifpl_se)

    mean_cum, se_cum = _mean_se(cum_losses)
    report = AggregateReport(
        mean_cum_loss=mean_cum,
        se_cum_loss=se_cum,
        mean_regret=float(mean_regret),
        se_regret=float(se_regret),
        best_expert_loss=best,
        bounds=bounds,
        checks=checks,
        config=config.to_dict(),
        hannan=_hannan_trend(first, losses, params),
        first_trace=first,
    )
    if config.out:
        report.write(config.out)
    return report


def _seeded_run(run, losses, params, seed, rng, regime) -> RunRecord:
    """``run(losses, params, rng, regime=regime)``, its errors re-raised
    with the seed attached."""
    try:
        return run(losses, params, rng, regime=regime)
    except Exception as exc:
        raise GameError(f"seed {seed}: {exc}") from exc


def hannan_check(losses: LossMatrix, params: ScheduleParams, rng,
                 regime: str = "per-step") -> dict:
    """Single-trajectory consistency trend report of the seeded PROT run
    ``prot_run(losses, params, rng, regime=regime)``.

    Verifies sum gamma(t)^2 < infinity (analytically for power/constant
    schedules) and reports the normalized regret (s_{1:T} - min_i s^i_{1:T})
    / v_T at checkpoints T in {2^k}.  A decreasing trend is evidence, not
    proof.  ``losses`` is a :class:`LossMatrix` or a (T, N) array.
    """
    # the rng first: a missing one raises as_generator's "got None"
    gen = as_generator(rng)
    game = losses if isinstance(losses, LossMatrix) else LossMatrix(losses)
    return _hannan_trend(prot_run(game, params, gen, regime=regime), game, params)


def _hannan_trend(record: RunRecord, game: LossMatrix, params: ScheduleParams) -> dict:
    """:func:`hannan_check`'s report read from ``record``, a run of ``game``:
    its cumulative loss and volume, and the experts' cumulative losses, at
    the power-of-two checkpoints and T."""
    summable = params.gamma.square_summable()
    warning = None
    if summable is False:
        warning = "gamma(t)^2 is not summable; Hannan consistency is not guaranteed"
    elif summable is None:
        warning = "gamma table: square-summability undecidable from a finite prefix"

    T = record.num_steps
    checkpoints = [2**k for k in range(1, T.bit_length())]
    if checkpoints and checkpoints[-1] != T:
        checkpoints.append(T)
    idx = np.array(checkpoints, dtype=int) - 1
    regret = record.cum_loss[idx] - np.cumsum(game.values, axis=0)[idx].min(axis=1)
    v = record.v[idx]
    # v_t = 0 only while every loss so far is 0, so the regret is 0 too: 0/0 = 0, as for fluc
    ratio = np.divide(regret, v, out=np.zeros(len(checkpoints)), where=v > 0)
    rows = [{"T": t, "normalized_regret": r} for t, r in zip(checkpoints, ratio.tolist())]
    return {
        "square_summable": summable,
        "warning": warning,
        "checkpoints": rows,
        "decreasing_trend": bool(
            len(rows) >= 2 and rows[-1]["normalized_regret"] <= rows[0]["normalized_regret"]
        ),
    }
