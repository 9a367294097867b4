"""Experiment orchestration: seeded game suites, bound reports, file I/O.

Everything here is deterministic per (config, seeds): randomness funnels
through :class:`~volfpl.perturbation.RngSpec`, aggregation is
permutation-invariant in the seeds, and reports embed the resolved config.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .engine import RunRecord, ifpl_run, prot_run
from .game import GameError, LossMatrix, check_fluctuation_bound, volume_trace, write_csv
from .perturbation import RngSpec, as_generator
from .schedule import ScheduleParams, ifpl_regret_bound, regret_bound


# ---------------------------------------------------------------------------
# Game generators

def random_fluc_bounded_game(num_experts: int, num_steps: int, rng,
                             v0: float = 1.0, loss_mode: str = "general",
                             delta: float = 1.0) -> LossMatrix:
    """Random game whose scaled fluctuation obeys fluc(t) <= t^-delta.

    Each step scales the loss row so that max_i |s^i_t| stays at or below
    v_{t-1} / (t^delta - (t-1)... conservatively v_{t-1} * ((t)^delta - ...);
    for delta = 1 the cap is v_{t-1} / (t - 1).
    """
    gen = as_generator(rng)
    if v0 <= 0:
        raise GameError("generator needs v0 > 0 to seed the volume")
    rows = np.empty((num_steps, num_experts))
    v_prev = v0
    for t in range(1, num_steps + 1):
        g = float(t) ** -delta
        # fluc = dv / (v_prev + dv) <= g  <=>  dv <= g v_prev / (1 - g)
        cap = v_prev if g >= 1.0 else g * v_prev / (1.0 - g)
        magnitude = gen.uniform(0.1, 1.0) * cap
        if loss_mode == "nonnegative":
            row = gen.uniform(0.0, 1.0, num_experts)
        else:
            row = gen.uniform(-1.0, 1.0, num_experts)
        peak = np.max(np.abs(row))
        if peak == 0:
            row[0] = 1.0
            peak = 1.0
        rows[t - 1] = row / peak * magnitude
        v_prev += magnitude
    return LossMatrix(rows)


def bounded_unit_game(num_experts: int, num_steps: int, rng,
                      loss_mode: str = "general") -> LossMatrix:
    """Losses in [-1, 1] (or [0, 1]) with max_i |s^i_t| = 1 every step, so
    that the volume is exactly t."""
    gen = as_generator(rng)
    if loss_mode == "nonnegative":
        rows = gen.uniform(0.0, 1.0, (num_steps, num_experts))
    else:
        rows = gen.uniform(-1.0, 1.0, (num_steps, num_experts))
    peaks = np.max(np.abs(rows), axis=1, keepdims=True)
    peaks[peaks == 0] = 1.0
    return LossMatrix(rows / peaks)


def poly_envelope_game(num_experts: int, num_steps: int, rng,
                       exponent: float = 0.1) -> LossMatrix:
    """Losses with max_i |s^i_t| = t^exponent exactly (polynomial envelope)."""
    gen = as_generator(rng)
    rows = gen.uniform(-1.0, 1.0, (num_steps, num_experts))
    peaks = np.max(np.abs(rows), axis=1, keepdims=True)
    peaks[peaks == 0] = 1.0
    envelope = np.arange(1, num_steps + 1, dtype=float) ** exponent
    return LossMatrix(rows / peaks * envelope[:, None])


# ---------------------------------------------------------------------------
# Experiment config and aggregate report

@dataclass
class ExperimentConfig:
    """Game source, schedule, seeds, regime, and output paths."""

    game: dict
    schedule: dict
    seeds: list = field(default_factory=lambda: [0])
    regime: str = "per-step"
    target_eps: float = 1.0
    run_ifpl: bool = False
    out: str | None = None

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            cfg = json.load(fh)
        return cls.from_dict(cfg)

    @classmethod
    def from_dict(cls, cfg: dict) -> "ExperimentConfig":
        missing = [key for key in ("game", "schedule") if key not in cfg]
        if missing:
            raise GameError(f"experiment config is missing {', '.join(map(repr, missing))}")
        seeds = cfg.get("seeds", [0])
        if isinstance(seeds, dict):
            seeds = [seeds.get("base", 0) + i for i in range(seeds["count"])]
        if len(seeds) < 1:
            raise GameError("need at least one seed")
        return cls(
            game=cfg["game"],
            schedule=cfg["schedule"],
            seeds=list(seeds),
            regime=cfg.get("regime", "per-step"),
            target_eps=float(cfg.get("target_eps", 1.0)),
            run_ifpl=bool(cfg.get("run_ifpl", False)),
            out=cfg.get("out"),
        )

    def to_dict(self) -> dict:
        return {
            "game": self.game,
            "schedule": self.schedule,
            "seeds": self.seeds,
            "regime": self.regime,
            "target_eps": self.target_eps,
            "run_ifpl": self.run_ifpl,
            "out": self.out,
        }


def resolve_game(game_cfg: dict, seed: int = 0) -> LossMatrix:
    kind = game_cfg.get("kind")
    if kind == "csv":
        return LossMatrix.from_csv(game_cfg["path"])
    rng = RngSpec(int(game_cfg.get("seed", seed)), stream_id=10_000)
    n = int(game_cfg["n_experts"])
    T = int(game_cfg["num_steps"])
    if kind == "random":
        return random_fluc_bounded_game(
            n, T, rng,
            v0=float(game_cfg.get("v0", 1.0)),
            loss_mode=game_cfg.get("loss_mode", "general"),
            delta=float(game_cfg.get("delta", 1.0)),
        )
    if kind == "bounded":
        return bounded_unit_game(n, T, rng, loss_mode=game_cfg.get("loss_mode", "general"))
    if kind == "poly":
        return poly_envelope_game(n, T, rng, exponent=float(game_cfg.get("exponent", 0.1)))
    raise GameError(f"unknown game kind {kind!r}")


@dataclass
class AggregateReport:
    """Seed-averaged trajectory statistics plus bound evaluations."""

    mean_cum_loss: np.ndarray
    se_cum_loss: np.ndarray
    mean_regret: float
    se_regret: float
    best_expert_loss: float
    bounds: dict
    checks: dict
    config: dict
    first_trace: RunRecord = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "mean_regret": self.mean_regret,
            "se_regret": self.se_regret,
            "best_expert_loss": self.best_expert_loss,
            "bounds": self.bounds,
            "checks": self.checks,
            "config": self.config,
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

    Writes report.json / trace.csv / aggregate.csv when ``config.out`` is
    set.  Errors from any module surface with the offending seed attached.
    """
    losses = resolve_game(config.game)
    params = ScheduleParams.from_config(config.schedule)
    records = []
    for seed in config.seeds:
        try:
            records.append(prot_run(losses, params, RngSpec(seed), regime=config.regime))
        except Exception as exc:
            raise GameError(f"seed {seed}: {exc}") from exc

    cums = np.array([r.cum_loss for r in records])
    best = float(np.min(np.cumsum(losses.values, axis=0)[-1])) if losses.num_steps else 0.0
    regrets = cums[:, -1] - best if losses.num_steps else np.zeros(len(records))
    n = len(records)
    se_regret = float(regrets.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0

    v, delta_v, fluc = volume_trace(losses, params.v0)
    ok, violating = check_fluctuation_bound(fluc, params.gamma)
    bounds = {
        "main_regret": regret_bound(params, losses.num_steps, delta_v, config.target_eps),
        "ifpl_term": ifpl_regret_bound(params, delta_v),
    }
    checks = {
        "fluc_within_gamma": bool(ok),
        "first_fluc_violation": violating,
        "mean_regret_within_main_bound": bool(
            regrets.mean() <= bounds["main_regret"] + 3 * se_regret
        ),
    }
    if config.run_ifpl:
        ifpl_totals = np.array([
            ifpl_run(losses, params, RngSpec(seed, stream_id=1), regime=config.regime).total_loss
            for seed in config.seeds
        ])
        ifpl_se = float(ifpl_totals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        bounds["ifpl_total"] = best + bounds["ifpl_term"]
        checks["ifpl_within_bound"] = bool(
            ifpl_totals.mean() <= bounds["ifpl_total"] + 3 * ifpl_se
        )

    report = AggregateReport(
        mean_cum_loss=cums.mean(axis=0),
        se_cum_loss=(cums.std(axis=0, ddof=1) / math.sqrt(n)) if n > 1 else np.zeros(cums.shape[1]),
        mean_regret=float(regrets.mean()),
        se_regret=se_regret,
        best_expert_loss=best,
        bounds=bounds,
        checks=checks,
        config=config.to_dict(),
        first_trace=records[0],
    )
    if config.out:
        report.write(config.out)
    return report


def hannan_check(losses: LossMatrix, params: ScheduleParams, rng,
                 regime: str = "per-step") -> dict:
    """Single-trajectory consistency trend report.

    Verifies sum gamma(t)^2 < infinity (analytically for power/constant
    schedules) and reports the normalized regret (s_{1:T} - min_i s^i_{1:T})
    / v_T at checkpoints T in {2^k}.  A decreasing trend is evidence, not
    proof.
    """
    summable = params.gamma.square_summable()
    warning = None
    if summable is False:
        warning = "gamma(t)^2 is not summable; Hannan consistency is not guaranteed"
    elif summable is None:
        warning = "gamma table: square-summability undecidable from a finite prefix"

    record = prot_run(losses, params, rng, regime=regime)
    T = losses.num_steps
    checkpoints = [2**k for k in range(1, T.bit_length()) if 2**k <= T]
    if checkpoints and checkpoints[-1] != T:
        checkpoints.append(T)
    cum_expert = np.cumsum(losses.values, axis=0)
    rows = []
    for cp in checkpoints:
        best = float(np.min(cum_expert[cp - 1]))
        rows.append({
            "T": cp,
            "normalized_regret": (float(record.cum_loss[cp - 1]) - best) / float(record.v[cp - 1]),
        })
    return {
        "square_summable": summable,
        "warning": warning,
        "checkpoints": rows,
        "decreasing_trend": bool(
            len(rows) >= 2 and rows[-1]["normalized_regret"] <= rows[0]["normalized_regret"]
        ),
    }
