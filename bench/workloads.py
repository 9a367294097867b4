"""The four benchmark workloads.

A workload builds its inputs from the seed in ``setup``, including the fixed
list of tasks one *round* runs.  A run repeats the round, so every task is
measured several times on the same input; its best time filters out the
slowdowns that other tenants of a shared machine cause.  A task returns None
when its output passed the correctness check, else a line saying what failed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from volfpl import adversary, engine, game, harness, schedule, trading
from volfpl.perturbation import RngSpec


@dataclass(frozen=True)
class Task:
    work: int
    run: Callable[[], "str | None"]


def _params(n: int, gamma: schedule.GammaSchedule) -> schedule.ScheduleParams:
    return schedule.ScheduleParams(a=schedule.choose_a(1.0), num_experts=n, gamma=gamma, v0=1.0)


class McRegret:
    """Acceptance-01/03 protocol: one random game per N in {2, 5, 10},
    T = 2000, gamma(t) = 1/t, v0 = 1, each game through 10^4 PROT runs
    (monte_carlo_regret) and 10^4 IFPL runs (batch_cumulative_losses)."""

    name = "mc_regret"
    work_name, work_unit = "mc_cells_per_s", "cells/s"
    sizes = (2, 5, 10)

    def __init__(self, toy: bool, out_dir: str):
        self.steps, self.runs = (100, 200) if toy else (2000, 10_000)

    def setup(self, seed: int) -> None:
        self.tasks = []
        for k, n in enumerate(self.sizes):
            params = _params(n, schedule.GammaSchedule.power(1.0))
            losses = harness.random_fluc_bounded_game(n, self.steps, RngSpec(seed, k),
                                                      v0=1.0, delta=1.0)
            engine.batch_cumulative_losses(losses, params, 4, RngSpec(seed, 99))
            work = self.runs * self.steps * n
            self.tasks.append(Task(work, partial(self._prot, params, losses,
                                                 RngSpec(seed, 1000 + 2 * k))))
            self.tasks.append(Task(work, partial(self._ifpl, params, losses,
                                                 RngSpec(seed, 1001 + 2 * k))))

    def work_detail(self) -> str:
        return (f"cells (runs x T x N): one game per N in {self.sizes}, PROT and IFPL, "
                f"{self.runs} runs each, T={self.steps}")

    def _prot(self, params, losses, rng):
        _, delta_v, _ = game.volume_trace(losses, params.v0)
        bound = schedule.regret_bound(params, losses.num_steps, delta_v, 1.0)
        mean, se = engine.monte_carlo_regret(losses, params, self.runs, rng)
        if not mean <= bound + 3 * se:
            return f"PROT N={params.num_experts}: mean regret {mean!r} > bound {bound!r} + 3 SE {se!r}"
        return None

    def _ifpl(self, params, losses, rng):
        _, delta_v, _ = game.volume_trace(losses, params.v0)
        best = float(np.min(np.cumsum(losses.values, axis=0)[-1]))
        bound = best + schedule.ifpl_regret_bound(params, delta_v)
        totals = engine.batch_cumulative_losses(losses, params, self.runs, rng,
                                                infeasible=True)[:, 0]
        mean = float(totals.mean())
        se = float(totals.std(ddof=1)) / math.sqrt(self.runs)
        if not mean <= bound + 3 * se:
            return f"IFPL N={params.num_experts}: mean loss {mean!r} > bound {bound!r} + 3 SE {se!r}"
        return None


class SeqLoop:
    """run_experiment with PROT and IFPL on random games (N = 5, T = 2000),
    two seeds each, writing report.json, trace.csv and aggregate.csv."""

    name = "seq_loop"
    work_name, work_unit = "loop_steps_per_s", "steps/s"
    experiments, seeds_per_experiment = 4, 2

    def __init__(self, toy: bool, out_dir: str):
        self.steps = 100 if toy else 2000
        self.out = os.path.join(out_dir, "seq_loop")

    def _config(self, seed: int, k: int, steps: int) -> harness.ExperimentConfig:
        first = seed * 1_000_000 + k * self.seeds_per_experiment
        return harness.ExperimentConfig.from_dict({
            "game": {"kind": "random", "n_experts": 5, "num_steps": steps,
                     "seed": seed * 1_000 + k},
            "schedule": {"target_eps": 1.0, "N": 5, "gamma": {"kind": "power", "delta": 1.0},
                         "v0": 1.0},
            "seeds": list(range(first, first + self.seeds_per_experiment)),
            "run_ifpl": True,
            "out": self.out,
        })

    def setup(self, seed: int) -> None:
        os.makedirs(self.out, exist_ok=True)
        harness.run_experiment(self._config(seed, self.experiments, 20))
        work = self.seeds_per_experiment * self.steps * 2
        self.tasks = [Task(work, partial(self._run, self._config(seed, k, self.steps)))
                      for k in range(self.experiments)]

    def work_detail(self) -> str:
        return (f"loop steps (seeds x T x 2 for PROT and IFPL): {self.experiments} "
                f"run_experiment calls, {self.seeds_per_experiment} seeds each, "
                f"N=5, T={self.steps}")

    def _run(self, config):
        report = harness.run_experiment(config)
        failed = [k for k, v in report.checks.items()
                  if k != "first_fluc_violation" and v is not True]
        if report.checks["first_fluc_violation"] is not None:
            failed.append("first_fluc_violation")
        if not math.isfinite(report.mean_regret):
            failed.append(f"mean_regret={report.mean_regret!r}")
        if not os.path.isfile(os.path.join(self.out, "report.json")):
            failed.append("report.json missing")
        return f"seeds {config.seeds}: failed {', '.join(failed)}" if failed else None


class Trading:
    """fBm price paths at H in {0.3, 0.5, 0.8}, 4096 ticks each, through
    run_trading_experiment; learner_gain makes one N = 2 exact-probability
    call per tick."""

    name = "trading"
    work_name, work_unit = "trading_ticks_per_s", "ticks/s"
    hursts = (0.3, 0.5, 0.8)

    def __init__(self, toy: bool, out_dir: str):
        self.ticks, self.paths_per_hurst = (256, 2) if toy else (4096, 8)

    def setup(self, seed: int) -> None:
        # Each set-up pays for its own Cholesky factorizations.
        clear = getattr(getattr(trading, "_fgn_cholesky", None), "cache_clear", None)
        if clear is not None:
            clear()
        self.config = trading.TradingConfig(c=1.0, schedule=_params(
            2, schedule.GammaSchedule.constant(0.01)))
        paths = [trading.fbm_generate(h, self.ticks, seed=RngSpec(seed, 100 * i + k))
                 for i, h in enumerate(self.hursts) for k in range(self.paths_per_hurst)]
        trading.run_trading_experiment(self.config, paths[0])
        self.tasks = [Task(self.ticks, partial(self._run, p)) for p in paths]

    def work_detail(self) -> str:
        return (f"ticks: {self.paths_per_hurst} paths of {self.ticks} ticks per H in "
                f"{self.hursts}")

    def _run(self, prices):
        report = trading.run_trading_experiment(self.config, prices)
        s = prices.prices
        residual = report.identity_residual / max(1.0, (s[-1] - s[0]) ** 2)
        s1, s2 = trading.expert_gains(prices, self.config.c)
        failed = []
        if not residual <= 1e-9:
            failed.append(f"identity residual {residual!r}")
        if not np.array_equal(s2, -s1):
            failed.append("experts not zero-sum")
        if not np.all(np.isfinite(report.learner_cum)):
            failed.append("learner gain not finite")
        return "; ".join(failed) or None


class ExactProbs:
    """Acceptance-04-style random single steps through
    probability_ratio_check with N in {3, 5, 8, 10, 12, 15, 30} (subset
    expansion up to 12, quadrature above), plus prop1_run against PROT's
    exact probabilities at horizon 30 for eps in {0.25, 0.5, 0.9}."""

    name = "exact_probs"
    work_name, work_unit = "prob_calls_per_s", "calls/s"
    adversary_eps = (0.25, 0.5, 0.9)

    def __init__(self, toy: bool, out_dir: str):
        self.sizes = (3, 5, 13) if toy else (3, 5, 8, 10, 12, 15, 30)
        self.horizon = 5 if toy else 30
        self.steps_per_size = 4

    @staticmethod
    def _random_step(gen, n):
        while True:
            params = schedule.ScheduleParams(
                a=float(gen.uniform(5, 50)), num_experts=n,
                gamma=schedule.GammaSchedule.constant(float(gen.uniform(0.001, 0.02))))
            if params.alpha_domain_ok(1):
                break
        g = params.gamma(1)
        t = int(gen.integers(1, 500))
        cum = gen.normal(0, 5, n)
        v_prev = float(gen.uniform(1, 100))
        dv = float(gen.uniform(0, g * v_prev / (1 - g)))
        s_t = gen.uniform(-1, 1, n)
        s_t *= dv / max(float(np.max(np.abs(s_t))), 1e-12)
        return cum, s_t, params, t, v_prev, v_prev + dv

    def setup(self, seed: int) -> None:
        gen = np.random.default_rng([seed, 4])
        steps = [self._random_step(gen, n) for n in self.sizes
                 for _ in range(self.steps_per_size)]
        self.adversary_params = _params(2, schedule.GammaSchedule.constant(0.999))
        cum, s_t, params, t, v_prev, v_t = steps[0]
        engine.probability_ratio_check(cum, s_t, params, t, v_prev, v_t)
        adversary.prop1_run(adversary.prot_probability_callback(self.adversary_params),
                            adversary.AdversaryConfig(eps=0.5, v0=1.0, horizon=2))
        work = 3 + self.horizon * len(self.adversary_eps)
        self.tasks = [Task(work, partial(self._run, step)) for step in steps]

    def work_detail(self) -> str:
        adv = self.horizon * len(self.adversary_eps)
        return (f"exact-probability calls: {self.steps_per_size} steps per N in {self.sizes}, "
                f"each 3 calls at N (the sum check, PROT and IFPL in the ratio check) "
                f"and {adv} at N=2 (adversary)")

    def _run(self, step):
        cum, s_t, params, t, v_prev, v_t = step
        n = len(cum)
        failed = []
        p = engine.selection_probabilities_exact(cum, schedule.epsilon_t(params, t, v_prev))
        if not (np.all((p >= 0) & (p <= 1)) and abs(float(p.sum()) - 1.0) <= 1e-9):
            failed.append(f"N={n}: probabilities {p.tolist()} outside [0,1] or sum != 1")
        if not engine.probability_ratio_check(cum, s_t, params, t, v_prev, v_t, slack=1e-9):
            failed.append(f"N={n}: ratio check failed")
        callback = adversary.prot_probability_callback(self.adversary_params)
        for eps in self.adversary_eps:
            config = adversary.AdversaryConfig(eps=eps, v0=1.0, horizon=self.horizon)
            floor = float(np.min(adversary.prop1_run(callback, config).norm_regret_lb))
            if not floor >= 0.5 * (1 - eps) - 1e-12:
                failed.append(f"adversary eps={eps}: floor {floor!r} < {(1 - eps) / 2}")
        return "; ".join(failed) or None


WORKLOADS = {w.name: w for w in (McRegret, SeqLoop, Trading, ExactProbs)}
