import copy
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import volfpl
from volfpl import (
    AggregateReport,
    ExperimentConfig,
    GameError,
    GammaSchedule,
    LossMatrix,
    PriceSeries,
    Prop1Trace,
    RunRecord,
    TradingReport,
    RngSpec,
    ScheduleError,
    ScheduleParams,
    bounded_unit_game,
    choose_a,
    hannan_check,
    poly_envelope_game,
    ifpl_run,
    ifpl_regret_bound,
    optimized_bound,
    prot_run,
    random_fluc_bounded_game,
    regret_bound,
    run_experiment,
    volume_trace,
)
from volfpl import cli, engine, harness
from volfpl.cli import main as cli_main
from volfpl.game import check_fluctuation_bound
from volfpl.harness import resolve_game


def reference_fluc_bounded_rows(num_experts, num_steps, gen, v0, loss_mode, delta):
    """The step-by-step form of random_fluc_bounded_game: one uniform draw
    for the magnitude, then the row, and a running volume."""
    rows = np.empty((num_steps, num_experts))
    v_prev = v0
    for t in range(1, num_steps + 1):
        g = float(t) ** -delta
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
    return rows


class ZeroGenerator(np.random.Generator):
    """A generator whose uniform block is all zeros."""

    def random(self, size=None, dtype=np.float64, out=None):
        return np.zeros(size)


class TestGenerators:
    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("loss_mode", ["general", "nonnegative"])
    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_random_game_matches_step_loop(self, delta, loss_mode, n):
        T = 2000
        ref = reference_fluc_bounded_rows(n, T, RngSpec(11, n).generator(), 1.5,
                                          loss_mode, delta)
        lm = random_fluc_bounded_game(n, T, RngSpec(11, n), v0=1.5,
                                      loss_mode=loss_mode, delta=delta)
        assert np.array_equal(np.sign(lm.values), np.sign(ref))
        rel = np.max(np.abs(lm.values - ref), axis=1) / np.max(np.abs(ref), axis=1)
        assert np.all(rel <= 1e-13)
        _, _, fluc = volume_trace(lm, 1.5)
        assert np.all(fluc <= np.arange(1, T + 1.0) ** -delta)

    def test_random_game_zero_row_guard(self):
        # all-zero draws give a zero row, whose peak moves to expert 1
        lm = random_fluc_bounded_game(3, 4, ZeroGenerator(np.random.PCG64(0)), v0=1.0,
                                      loss_mode="nonnegative")
        assert np.all(lm.values[:, 1:] == 0)
        assert np.allclose(lm.values[:, 0], [0.1, 0.11, 0.0605, 0.04235], rtol=1e-13, atol=0)

    def test_random_game_respects_fluc_cap(self):
        lm = random_fluc_bounded_game(4, 200, RngSpec(1), v0=1.0, delta=1.0)
        _, _, fluc = volume_trace(lm, 1.0)
        gamma = 1.0 / np.arange(1, 201)
        assert np.all(fluc <= gamma + 1e-12)

    def test_random_game_nonnegative_mode(self):
        lm = random_fluc_bounded_game(3, 50, RngSpec(2), loss_mode="nonnegative")
        assert np.all(lm.values >= 0)

    @pytest.mark.parametrize("generator", [random_fluc_bounded_game, bounded_unit_game])
    def test_unknown_loss_mode_raises(self, generator):
        with pytest.raises(GameError, match="unknown loss mode 'nonneg'"):
            generator(2, 3, RngSpec(0), loss_mode="nonneg")

    @pytest.mark.parametrize("loss_mode", ["general", "nonnegative"])
    def test_bounded_game_volume_is_t(self, loss_mode):
        lm = bounded_unit_game(5, 100, RngSpec(3), loss_mode=loss_mode)
        v, _, _ = volume_trace(lm, 0.0)
        assert np.allclose(v[1:], np.arange(1, 101))
        if loss_mode == "nonnegative":
            # entries in [0, 1], each row's largest exactly 1, so v_t = t exactly
            assert lm.values.min() >= 0.0 and lm.values.max() <= 1.0
            assert (lm.values.max(axis=1) == 1.0).all()
            assert v[1:].tolist() == list(range(1, 101))

    def test_poly_envelope_exact(self):
        lm = poly_envelope_game(3, 64, RngSpec(4), exponent=0.1)
        peaks = np.max(np.abs(lm.values), axis=1)
        assert np.allclose(peaks, np.arange(1, 65) ** 0.1)

    @pytest.mark.parametrize("n, T, exponent", [(1, 5, 0.1), (3, 1000, 0.3), (5, 2000, 1.7),
                                                (2, 0, 0.1)])
    def test_poly_envelope_bytes(self, n, T, exponent):
        # the game's own draw and normalization, before it reused bounded_unit_game
        rows = RngSpec(9).generator().uniform(-1.0, 1.0, (T, n))
        peaks = np.max(np.abs(rows), axis=1)[:, None]
        peaks[peaks == 0] = 1.0
        want = rows / peaks * (np.arange(1, T + 1, dtype=float) ** exponent)[:, None]
        assert poly_envelope_game(n, T, RngSpec(9), exponent).values.tobytes() == want.tobytes()

    def test_generators_deterministic(self):
        a = random_fluc_bounded_game(3, 30, RngSpec(7)).values
        b = random_fluc_bounded_game(3, 30, RngSpec(7)).values
        assert np.array_equal(a, b)


def base_config(tmp_path=None, **overrides):
    cfg = {
        "game": {"kind": "random", "n_experts": 3, "num_steps": 100, "seed": 5, "v0": 1.0},
        "schedule": {"target_eps": 1.0, "N": 3,
                     "gamma": {"kind": "power", "delta": 1.0}, "v0": 1.0},
        "seeds": [0, 1, 2, 3, 4],
    }
    cfg.update(overrides)
    return ExperimentConfig.from_dict(cfg)


class TestRunExperiment:
    def test_report_fields_and_bound(self):
        rep = run_experiment(base_config())
        assert rep.checks["fluc_within_gamma"]
        assert rep.checks["mean_regret_within_main_bound"]
        assert rep.bounds["main_regret"] > 0
        assert len(rep.mean_cum_loss) == 100

    def test_deterministic_given_seeds(self):
        a = run_experiment(base_config())
        b = run_experiment(base_config())
        assert a.mean_regret == b.mean_regret
        assert np.array_equal(a.mean_cum_loss, b.mean_cum_loss)

    def test_seed_permutation_invariance(self):
        a = run_experiment(base_config(seeds=[0, 1, 2, 3, 4]))
        b = run_experiment(base_config(seeds=[4, 2, 0, 3, 1]))
        assert a.mean_regret == pytest.approx(b.mean_regret, rel=1e-12)

    def test_memory_grows_with_the_seeds_runs_not_their_tables(self):
        # every seed's record used to be kept, each holding a (T, N) copy of
        # its draws and a view that kept its (T + 1, N) score table alive:
        # 14x the one-seed peak at 32 seeds
        def peak(seeds):
            config = ExperimentConfig(
                game={"kind": "bounded", "n_experts": 30, "num_steps": 20_000, "seed": 1},
                schedule={"target_eps": 1.0, "N": 30, "gamma": {"kind": "power", "delta": 1.0},
                          "v0": 1.0},
                seeds=list(range(seeds)))
            tracemalloc.start()
            try:
                run_experiment(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(32) <= 2 * peak(1)

    @pytest.mark.parametrize("key", ["game", "schedule"])
    def test_config_missing_key(self, key):
        cfg = base_config().to_dict()
        del cfg[key]
        with pytest.raises(GameError, match=key):
            ExperimentConfig.from_dict(cfg)

    @pytest.mark.parametrize("section, key", [
        ("seeds", "count"), ("game", "n_experts"), ("game", "num_steps"), ("game", "path"),
        ("schedule", "N"), ("schedule", "gamma"),
    ])
    def test_config_missing_nested_key(self, section, key):
        cfg = base_config().to_dict()
        cfg["seeds"] = {"count": 2}
        if key == "path":
            cfg["game"] = {"kind": "csv", "path": "game.csv"}
        del cfg[section][key]
        with pytest.raises(GameError, match=repr(key)):
            run_experiment(ExperimentConfig.from_dict(cfg))

    def test_explicit_a_bound_is_the_theorems(self, tmp_path):
        # a = 5 holds the bound with eps = 2a(e^{3/a}-1) - 6 = 4.59, not the 1
        # an experiment-level eps used to assume
        schedule = {"a": 5.0, "N": 3, "gamma": {"kind": "power", "delta": 1.0}, "v0": 1.0}
        rep = run_experiment(base_config(schedule=schedule, out=str(tmp_path)))
        params = ScheduleParams.from_config(schedule)
        expect = optimized_bound(params, 100, rep.first_trace.delta_v)
        assert rep.bounds["main_regret"] == pytest.approx(expect, rel=1e-12)
        assert rep.bounds["target_eps"] == params.target_eps
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["bounds"]["target_eps"] == params.target_eps
        assert "target_eps" not in report["config"]

    def test_top_level_target_eps_rejected(self):
        with pytest.raises(GameError, match="schedule.target_eps"):
            base_config(target_eps=1.0)

    @pytest.mark.parametrize("key", ["regimes", "run_ifpl_"])
    def test_unknown_top_level_key_rejected(self, key):
        # a misspelt option used to fall back silently to its default
        with pytest.raises(GameError, match=repr(key)):
            base_config(**{key: True})

    @pytest.mark.parametrize("cfg", [
        # the benchmark's seq_loop experiment
        {"game": {"kind": "random", "n_experts": 5, "num_steps": 20, "seed": 3},
         "schedule": {"target_eps": 1.0, "N": 5, "gamma": {"kind": "power", "delta": 1.0},
                      "v0": 1.0},
         "seeds": [0, 1], "run_ifpl": True, "out": None},
        # the two experiments the numpy-only CI job runs
        {"game": {"kind": "random", "n_experts": 3, "num_steps": 20, "seed": 1},
         "schedule": {"target_eps": 1.0, "N": 3, "gamma": {"kind": "power", "delta": 1.0},
                      "v0": 1.0},
         "seeds": [0, 1, 2], "run_ifpl": True},
        {"game": {"kind": "random", "n_experts": 3, "num_steps": 20, "seed": 1},
         "schedule": {"a": 5, "N": 3, "gamma": {"kind": "power", "delta": 1.0}, "v0": 1.0},
         "seeds": [0, 1, 2]},
    ])
    def test_known_configs_parse(self, cfg):
        config = ExperimentConfig.from_dict(cfg)
        assert ExperimentConfig.from_dict(config.to_dict()) == config
        run_experiment(config)

    @pytest.mark.parametrize("run_ifpl", [False, True])
    def test_one_volume_trace_per_run(self, monkeypatch, run_ifpl):
        # the report reads each run's own trace: no extra pass over the game
        calls = []
        for mod in (engine, harness):
            if hasattr(mod, "volume_trace"):
                monkeypatch.setattr(mod, "volume_trace",
                                    lambda *a: calls.append(a) or volume_trace(*a))
        run_experiment(base_config(run_ifpl=run_ifpl))
        assert len(calls) == 5 * (2 if run_ifpl else 1)

    @pytest.mark.parametrize("seeds", [[3], [0, 1, 2, 5]])
    @pytest.mark.parametrize("v0", [0.0, 1.0])
    @pytest.mark.parametrize("regime", ["per-step", "once"])
    @pytest.mark.parametrize("kind", ["random", "bounded", "poly"])
    def test_matches_reference_aggregation(self, kind, regime, v0, seeds):
        game = {"kind": kind, "n_experts": 3, "num_steps": 60, "seed": 4}
        schedule = {"target_eps": 1.0, "N": 3, "gamma": {"kind": "power", "delta": 1.0},
                    "v0": v0}
        config = ExperimentConfig.from_dict({"game": game, "schedule": schedule, "seeds": seeds,
                                             "regime": regime, "run_ifpl": True})
        rep = run_experiment(config)
        ref, first = reference_aggregate(config)
        for name, value in ref.items():
            got = getattr(rep, name)
            if isinstance(value, np.ndarray):
                assert got.tobytes() == value.tobytes(), name
            else:
                assert got == value and type(got) is type(value), name
        for f in dataclasses.fields(RunRecord):
            assert np.array_equal(getattr(rep.first_trace, f.name), getattr(first, f.name))
        losses = resolve_game(game)
        params = ScheduleParams.from_config(schedule)
        assert hannan_check(losses, params, RngSpec(7), regime=regime)["checkpoints"] == \
            reference_hannan_rows(losses, params, RngSpec(7), regime)

    @pytest.mark.parametrize("seeds", [[3, 1], [1, 3]])
    @pytest.mark.parametrize("T", [0, 1, 64, 2000])
    @pytest.mark.parametrize("v0", [0.0, 1.0])
    @pytest.mark.parametrize("regime", ["per-step", "once"])
    def test_hannan_section_is_the_first_seeds_check(self, tmp_path, regime, v0, T, seeds):
        # the section follows the first seed, as trace.csv does
        game = {"kind": "random", "n_experts": 3, "num_steps": T, "seed": 2}
        schedule = {"target_eps": 1.0, "N": 3, "gamma": {"kind": "power", "delta": 1.0},
                    "v0": v0}
        config = ExperimentConfig.from_dict({"game": game, "schedule": schedule,
                                             "seeds": seeds, "regime": regime,
                                             "out": str(tmp_path)})
        expected = hannan_check(resolve_game(game), ScheduleParams.from_config(schedule),
                                RngSpec(seeds[0]), regime)
        assert json.dumps(run_experiment(config).hannan) == json.dumps(expected)
        # report.json sorts its keys
        report = json.loads((tmp_path / "report.json").read_text())
        assert json.dumps(report["hannan"]) == json.dumps(expected, sort_keys=True)
        assert "hannan" not in report["checks"]

    def test_seed_count_expansion(self):
        cfg = base_config(seeds={"count": 3, "base": 10})
        assert cfg.seeds == [10, 11, 12]

    def test_unknown_seeds_key_rejected(self):
        # a misspelt base used to run from seed 0
        with pytest.raises(GameError, match="seeds has unknown 'bsae'"):
            base_config(seeds={"count": 2, "bsae": 5})

    @pytest.mark.parametrize("seeds", [{"count": 2.5}, {"count": "2"}, {"count": 2, "base": 0.5}])
    def test_non_integer_seeds_rejected(self, seeds):
        with pytest.raises(GameError, match="must be integers"):
            base_config(seeds=seeds)

    @pytest.mark.parametrize("seeds", [5, "ab", None, (0, 1), [0.5], [-1], [True], [0, False],
                                       [1, "2"], {"count": True}, {"count": 2, "base": -1}])
    def test_bad_seeds_rejected_at_parse_time(self, seeds):
        # an int raised a bare TypeError, "ab" ran seeds 'a' and 'b', 0.5 and
        # -1 failed only in the run, and True ran as seed 1
        with pytest.raises(GameError, match="seeds"):
            base_config(seeds=seeds)

    @pytest.mark.parametrize("section, key, value, named", [
        ("schedule", "N", 2.5, "num_experts must be an integer >= 1, got 2.5"),
        ("game", "n_experts", 2.7, "num_experts must be an integer >= 1, got 2.7"),
        ("game", "num_steps", "5", "num_steps must be a non-negative integer, got '5'"),
        ("game", "seed", 1.9, "RngSpec seed must be a non-negative integer, got 1.9"),
        (None, "run_ifpl", "false", "run_ifpl must be true or false, got 'false'"),
    ], ids=["fractional-N", "fractional-n-experts", "string-num-steps", "fractional-game-seed",
            "string-run-ifpl"])
    def test_config_values_are_not_cast(self, section, key, value, named):
        # each was cast and ran: N 2.5 as two experts, n_experts 2.7 as a pool
        # of two, num_steps "5" as five steps, seed 1.9 as seed 1, and the
        # string "false" as an IFPL run
        cfg = {"game": {"kind": "random", "n_experts": 2, "num_steps": 5, "seed": 1},
               "schedule": {"target_eps": 1.0, "N": 2,
                            "gamma": {"kind": "power", "delta": 1.0}, "v0": 1.0}}
        (cfg if section is None else cfg[section])[key] = value
        with pytest.raises(GameError, match=re.escape(named)):
            run_experiment(ExperimentConfig.from_dict(cfg))

    @pytest.mark.parametrize("field, value, named", [
        ("regime", "onse", "unknown perturbation regime 'onse'"),
        ("run_ifpl", "false", "run_ifpl must be true or false, got 'false'"),
        ("seeds", [0.5], "seeds must be a list of non-negative integers"),
        ("out", 5, "out must be a directory path string, got 5"),
    ])
    def test_fields_checked_when_the_config_is_built(self, field, value, named):
        # a config built directly took each of these, and a parsed regime
        # 'onse' built the game and failed only in the run, as
        # "seed 0: unknown perturbation regime 'onse'"; an out of 5 ran every
        # seed and then failed in os.makedirs
        cfg = {"game": {"kind": "bounded", "n_experts": 2, "num_steps": 5},
               "schedule": {"a": 5.0, "N": 2, "gamma": {"kind": "power", "delta": 1.0}},
               field: value}
        for build in (ExperimentConfig.from_dict, lambda c: ExperimentConfig(**c)):
            with pytest.raises(GameError, match=re.escape(named)) as err:
                build(cfg)
            assert not re.match(r"seed \d", str(err.value))
        cfg[field] = {"seeds": {"count": 2, "base": 3}, "regime": "once", "run_ifpl": True,
                      "out": "results"}[field]
        assert ExperimentConfig(**cfg) == ExperimentConfig.from_dict(cfg)

    @pytest.mark.parametrize("kind, generate", [
        ("random", random_fluc_bounded_game), ("bounded", bounded_unit_game),
        ("poly", poly_envelope_game),
    ])
    def test_omitted_game_options_are_the_generators_defaults(self, kind, generate):
        # an option is passed on only when the config gives it
        got = resolve_game({"kind": kind, "n_experts": 3, "num_steps": 40, "seed": 2})
        want = generate(3, 40, RngSpec(2, stream_id=10_000))
        assert got.values.tobytes() == want.values.tobytes()

    def test_ifpl_option(self):
        rep = run_experiment(base_config(run_ifpl=True))
        assert "ifpl_total" in rep.bounds
        assert rep.checks["ifpl_within_bound"]

    @staticmethod
    def csv_config(tmp_path, rows, schedule, **extra):
        path = tmp_path / "game.csv"
        LossMatrix(rows).to_csv(path)
        return ExperimentConfig.from_dict({
            "game": {"kind": "csv", "path": str(path)},
            "schedule": {"N": 2, "gamma": _POWER_GAMMA, "v0": 1.0, **schedule}, **extra})

    def test_huge_losses_keep_a_finite_standard_error(self, tmp_path):
        # the squared deviations of regrets near 1e200 overflowed: se_regret
        # was inf, so every "<= bound + 3 SE" check passed whatever the
        # bound, and report.json held Infinity
        cfg = self.csv_config(tmp_path, [[1.0, 0.0], [0.0, 1.0]] * 3 + [[1e200, 0.0], [0.0, 1e200]],
                              {"a": 3}, seeds=list(range(8)), out=str(tmp_path / "out"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = run_experiment(cfg)
        # the exact mean and SE of the per-seed regrets, under relative
        # bounds fixed beforehand: a few ulps of rounding in the float sums
        game, params = resolve_game(cfg.game), ScheduleParams.from_config(cfg.schedule)
        regrets = [Fraction(prot_run(game, params, RngSpec(s)).regret) for s in cfg.seeds]
        n = len(regrets)
        mean = sum(regrets) / n
        var = sum((r - mean) ** 2 for r in regrets) / (n - 1) / n
        with localcontext() as ctx:
            ctx.prec = 40
            se = (Decimal(var.numerator) / Decimal(var.denominator)).sqrt()
            assert se > 0
            assert abs(Decimal(rep.se_regret) - se) <= Decimal("1e-13") * se
        assert abs(Fraction(rep.mean_regret) - mean) <= Fraction(1, 10**13) * max(map(abs, regrets))
        json.loads((tmp_path / "out" / "report.json").read_text(),
                   parse_constant=lambda c: pytest.fail(f"report.json holds {c}"))

    def test_ifpl_errors_name_the_seed(self, tmp_path):
        # PROT's errors had the seed attached, IFPL's not: IFPL's rate at
        # step 3 reads v_3, where mu_t v_3 overflows
        cfg = self.csv_config(tmp_path, [[1.0, 0.0], [0.0, 1.0], [1e300, 0.0]], {"a": 0.05},
                              seeds=[3, 4], run_ifpl=True)
        with pytest.raises(GameError, match=r"^seed 3: rate 1/\(mu_t v\) is 0 at step 3"):
            run_experiment(cfg)

    def test_output_files(self, tmp_path):
        out = tmp_path / "exp"
        run_experiment(base_config(out=str(out)))
        report = json.loads((out / "report.json").read_text())
        assert "mean_regret" in report and "bounds" in report
        assert (out / "trace.csv").exists()
        assert (out / "aggregate.csv").read_text().splitlines()[0] == "t,mean_cum_loss,se_cum_loss"

    def test_byte_identical_reports(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_experiment(base_config(out=str(out1)))
        run_experiment(base_config(out=str(out2)))
        for name in ("trace.csv", "aggregate.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        # report.json embeds the resolved config, including the output path
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        r1["config"].pop("out"), r2["config"].pop("out")
        assert r1 == r2

    @pytest.mark.parametrize("game, key", [
        # poly games have no loss mode: this one used to come back signed
        ({"kind": "poly", "n_experts": 2, "num_steps": 50, "loss_mode": "nonnegative"},
         "loss_mode"),
        # a misspelt delta used to run at delta 1
        ({"kind": "random", "n_experts": 2, "num_steps": 50, "detla": 3.0}, "detla"),
        ({"kind": "bounded", "n_experts": 2, "num_steps": 50, "v0": 1.0}, "v0"),
        ({"kind": "csv", "path": "game.csv", "seed": 1}, "seed"),
    ])
    def test_unknown_game_key_rejected(self, game, key):
        with pytest.raises(GameError, match=f"{game['kind']} game config has unknown {key!r}"):
            resolve_game(game)

    # an array reached the csv test: numpy's ambiguous-truth ValueError
    @pytest.mark.parametrize("kind", ["randon", ["random"], None, np.array(["csv", "random"])])
    def test_unknown_game_kind_rejected(self, kind):
        with pytest.raises(GameError, match=re.escape(f"unknown game kind {kind!r}")):
            resolve_game({"kind": kind, "n_experts": 2, "num_steps": 5})

    # open() takes an integer as a file descriptor: "path": 5 read (and
    # closed) descriptor 5; this one is past any open descriptor
    @pytest.mark.parametrize("path", [2**20, None])
    def test_csv_game_path_must_be_a_string(self, path):
        named = f"csv game path must be a string, got {path!r}"
        with pytest.raises(GameError, match=re.escape(named)):
            resolve_game({"kind": "csv", "path": path})

    def test_csv_game_round_trip(self, tmp_path):
        lm = bounded_unit_game(2, 20, RngSpec(0))
        path = tmp_path / "game.csv"
        lm.to_csv(path)
        back = resolve_game({"kind": "csv", "path": str(path)})
        assert np.array_equal(back.values, lm.values)


def reference_aggregate(config):
    """run_experiment's statistics, each formed again from the game: the
    seed loop, the volume trace and the best expert's loss."""
    losses = resolve_game(config.game)
    params = ScheduleParams.from_config(config.schedule)
    records = [prot_run(losses, params, RngSpec(seed), regime=config.regime)
               for seed in config.seeds]
    cums = np.array([r.cum_loss for r in records])
    best = float(np.min(np.cumsum(losses.values, axis=0)[-1])) if losses.num_steps else 0.0
    regrets = cums[:, -1] - best if losses.num_steps else np.zeros(len(records))
    n = len(records)
    se_regret = float(regrets.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    _, delta_v, fluc = volume_trace(losses, params.v0)
    ok, violating = check_fluctuation_bound(fluc, params.gamma)
    bounds = {
        "main_regret": regret_bound(params, losses.num_steps, delta_v, params.target_eps),
        "ifpl_term": ifpl_regret_bound(params, delta_v),
        "target_eps": params.target_eps,
    }
    checks = {
        "fluc_within_gamma": bool(ok),
        "first_fluc_violation": violating,
        "mean_regret_within_main_bound": bool(regrets.mean() <= bounds["main_regret"]
                                              + 3 * se_regret),
    }
    ifpl_totals = np.array([
        ifpl_run(losses, params, RngSpec(seed, stream_id=1), regime=config.regime).total_loss
        for seed in config.seeds
    ])
    ifpl_se = float(ifpl_totals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    bounds["ifpl_total"] = best + bounds["ifpl_term"]
    checks["ifpl_within_bound"] = bool(ifpl_totals.mean() <= bounds["ifpl_total"] + 3 * ifpl_se)
    se_cum = cums.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(cums.shape[1])
    return {
        "mean_cum_loss": cums.mean(axis=0),
        "se_cum_loss": se_cum,
        "mean_regret": float(regrets.mean()),
        "se_regret": se_regret,
        "best_expert_loss": best,
        "bounds": bounds,
        "checks": checks,
    }, records[0]


def reference_hannan_rows(losses, params, rng, regime):
    """hannan_check's checkpoints by a loop over the checkpoints."""
    record = prot_run(losses, params, rng, regime=regime)
    T = losses.num_steps
    checkpoints = [2**k for k in range(1, T.bit_length()) if 2**k <= T]
    if checkpoints and checkpoints[-1] != T:
        checkpoints.append(T)
    cum_expert = np.cumsum(losses.values, axis=0)
    return [{"T": cp, "normalized_regret": (float(record.cum_loss[cp - 1])
                                            - float(np.min(cum_expert[cp - 1])))
             / float(record.v[cp - 1])} for cp in checkpoints]


def test_csv_files_exact_text(tmp_path):
    # every writer on a two-row example: integers as integers, floats by
    # repr, CRLF line ends except aggregate.csv
    a, b = np.array([0.5, -1e-05]), np.array([1 / 3, 2.0])
    RunRecord(chosen=np.array([1, 0]), loss=a, cum_loss=b, v=a, delta_v=b, fluc=a, mu=b,
              eps=np.array([math.inf, 0.25])).to_csv(tmp_path / "trace.csv")
    LossMatrix(np.column_stack([a, b])).to_csv(tmp_path / "losses.csv")
    PriceSeries(np.array([1.0, 1.5, 0.75])).to_csv(tmp_path / "prices.csv")
    Prop1Trace(m=a, s1=b, s2=a, p1=b, e_loss=a, v=b, fluc=a, norm_regret_lb=b,
               expected_cum=a, min_cum=b).to_csv(tmp_path / "adversary.csv")
    TradingReport(prices=np.array([1.0, 1.5, 0.75]), s1_cum=a, s2_cum=b, learner_cum=a,
                  volume=b, fluc=a, fluc_violations=np.array([], dtype=int),
                  identity_residual=0.0, defensive_bound=0.0).to_csv(tmp_path / "trading.csv")
    AggregateReport(mean_cum_loss=a, se_cum_loss=b, mean_regret=0.0, se_regret=0.0,
                    best_expert_loss=0.0, bounds={}, checks={}, config={}).write(tmp_path)
    expected = {
        "trace.csv": "t,chosen,loss,cum_loss,v,delta_v,fluc,mu,eps\r\n"
                     "1,2,0.5,0.3333333333333333,0.5,0.3333333333333333,0.5,0.3333333333333333,inf\r\n"
                     "2,1,-1e-05,2.0,-1e-05,2.0,-1e-05,2.0,0.25\r\n",
        "losses.csv": "expert_1,expert_2\r\n0.5,0.3333333333333333\r\n-1e-05,2.0\r\n",
        "prices.csv": "price\r\n1.0\r\n1.5\r\n0.75\r\n",
        "adversary.csv": "t,M_t,s1,s2,p1,E_loss,v,fluc,norm_regret_lb\r\n"
                         "1,0.5,0.3333333333333333,0.5,0.3333333333333333,0.5,0.3333333333333333,"
                         "0.5,0.3333333333333333\r\n"
                         "2,-1e-05,2.0,-1e-05,2.0,-1e-05,2.0,-1e-05,2.0\r\n",
        "trading.csv": "t,S,s1_cum,s2_cum,learner_cum,volume,fluc\r\n"
                       "1,1.5,0.5,0.3333333333333333,0.5,0.3333333333333333,0.5\r\n"
                       "2,0.75,-1e-05,2.0,-1e-05,2.0,-1e-05\r\n",
        "aggregate.csv": "t,mean_cum_loss,se_cum_loss\n1,0.5,0.3333333333333333\n2,-1e-05,2.0\n",
    }
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name


class TestHannanCheck:
    def params(self, delta):
        return ScheduleParams(a=choose_a(1.0), num_experts=2,
                              gamma=GammaSchedule.power(delta), v0=1.0)

    def game(self):
        return random_fluc_bounded_game(2, 1024, RngSpec(8), v0=1.0, delta=1.0)

    def test_square_summable_flag(self):
        rep = hannan_check(self.game(), self.params(1.0), RngSpec(0))
        assert rep["square_summable"] is True
        assert rep["warning"] is None

    def test_warning_for_slow_gamma(self):
        rep = hannan_check(self.game(), self.params(0.3), RngSpec(0))
        assert rep["square_summable"] is False
        assert "not guaranteed" in rep["warning"]

    def test_checkpoints_are_powers_of_two(self):
        rep = hannan_check(self.game(), self.params(1.0), RngSpec(0))
        ts = [row["T"] for row in rep["checkpoints"]]
        assert ts == sorted(ts)
        assert ts[-1] == 1024

    def test_zero_volume_gives_zero_normalized_regret(self):
        # v_t = 0 only while every loss so far is 0, so the regret is 0 too
        params = ScheduleParams(a=choose_a(1.0), num_experts=2,
                                gamma=GammaSchedule.power(1.0), v0=0.0)
        rep = hannan_check(LossMatrix([[0, 0], [0, 0], [1, 1]]), params, RngSpec(0))
        assert rep["checkpoints"] == [{"T": 2, "normalized_regret": 0.0},
                                      {"T": 3, "normalized_regret": 0.0}]

    def test_accepts_a_plain_array(self):
        # prot_run takes arrays, and hannan_check failed on one after the run
        game, params = self.game(), self.params(1.0)
        assert hannan_check(game.values, params, RngSpec(0)) == hannan_check(game, params,
                                                                              RngSpec(0))

    @pytest.mark.parametrize("T", [0, 1, 2, 3, 7, 64, 1000])
    @pytest.mark.parametrize("regime", ["per-step", "once"])
    @pytest.mark.parametrize("v0", [0.0, 1.0])
    def test_regret_is_the_seeded_run(self, T, regime, v0):
        # the reference is the former derivation: one prot_run record and the
        # experts' cumulative losses at the power-of-two checkpoints
        game = bounded_unit_game(3, T, RngSpec(T))
        game.values[:T // 4] = 0.0  # zero volume while v0 = 0: the 0/0 = 0 rows
        params = ScheduleParams(a=choose_a(1.0), num_experts=3,
                                gamma=GammaSchedule.power(1.0), v0=v0)
        record = prot_run(game, params, RngSpec(4), regime=regime)
        cps = [2**k for k in range(1, T.bit_length())]
        if cps and cps[-1] != T:
            cps.append(T)
        expert = np.zeros((T + 1, 3))
        np.cumsum(game.values, axis=0, out=expert[1:])
        rows = []
        for t in cps:
            regret = record.cum_loss[t - 1] - expert[t].min()
            v = record.v[t - 1]
            rows.append({"T": t, "normalized_regret": float(regret / v) if v > 0 else 0.0})
        rep = hannan_check(game, params, RngSpec(4), regime=regime)
        assert json.dumps(rep["checkpoints"]) == json.dumps(rows)
        assert rep["decreasing_trend"] == (len(rows) >= 2 and rows[-1]["normalized_regret"]
                                           <= rows[0]["normalized_regret"])

    @pytest.mark.parametrize("T", [0, 1024])
    def test_missing_rng_raises(self, T):
        with pytest.raises(GameError, match="got None"):
            hannan_check(self.game().values[:T], self.params(1.0), None)

    def test_decreasing_trend_on_summable_schedule(self):
        rep = hannan_check(self.game(), self.params(1.0), RngSpec(0))
        assert rep["decreasing_trend"]


# a random N=3 game: run with the IFPL twin, and with an explicit a (the
# main bound is then evaluated at the eps this a holds it with)
_RANDOM_N3 = {"kind": "random", "n_experts": 3, "num_steps": 200, "seed": 1}
_POWER_GAMMA = {"kind": "power", "delta": 1.0}
_RUN_CONFIGS = {
    "bounded": {"game": {"kind": "bounded", "n_experts": 2, "num_steps": 50, "seed": 1},
                "schedule": {"target_eps": 1.0, "N": 2, "gamma": _POWER_GAMMA, "v0": 1.0},
                "seeds": [0, 1, 2]},
    "random-with-ifpl": {"game": _RANDOM_N3,
                         "schedule": {"target_eps": 1.0, "N": 3, "gamma": _POWER_GAMMA,
                                      "v0": 1.0},
                         "seeds": [0, 1, 2], "run_ifpl": True},
    "explicit-a": {"game": _RANDOM_N3,
                   "schedule": {"a": 5, "N": 3, "gamma": _POWER_GAMMA, "v0": 1.0},
                   "seeds": [0, 1, 2]},
}

# three valid configs that together hold every config key: a random game
# with every option, the once regime and IFPL; a poly game with a table
# gamma, target_eps and counted seeds; a bounded game with a constant gamma
_SWEEP_BASES = {
    "random": {"game": {"kind": "random", "n_experts": 3, "num_steps": 6, "seed": 1, "v0": 1.0,
                        "loss_mode": "general", "delta": 1.0},
               "schedule": {"a": 10.0, "N": 3, "gamma": _POWER_GAMMA, "v0": 0.5,
                            "loss_mode": "general"},
               "seeds": [0, 1], "regime": "once", "run_ifpl": True, "out": "out"},
    "poly": {"game": {"kind": "poly", "n_experts": 2, "num_steps": 5, "exponent": 0.5},
             "schedule": {"target_eps": 1.0, "N": 2,
                          "gamma": {"kind": "table", "values": [1.0, 0.5, 0.4, 0.3, 0.2]}},
             "seeds": {"count": 2, "base": 3}},
    "bounded": {"game": {"kind": "bounded", "n_experts": 2, "num_steps": 4,
                         "loss_mode": "nonnegative"},
                "schedule": {"a": 3.0, "N": 2, "gamma": {"kind": "constant", "c": 0.5},
                             "loss_mode": "nonnegative"},
                "seeds": [2], "regime": "per-step"},
}
# what each key or list entry is set to once it has been dropped
_SWEEP_VALUES = [5, -1, 0, 2.5, "x", "2", True, None, [], [1], {}, math.nan, math.inf, 1e308]


def _config_paths(node, path=()):
    """The path of every key and list entry of a config, parents first."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _config_paths(child, path + (key,))


def _mutations(cfg, path):
    """(value, config) pairs: ``cfg`` with the entry at ``path`` dropped
    (value "drop"), then set to each sweep value."""
    for drop in (True, False):
        for value in ["drop"] if drop else _SWEEP_VALUES:
            mutated = copy.deepcopy(cfg)
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            if drop:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield value, mutated


_SWEEP = [(base, path) for base, cfg in _SWEEP_BASES.items() for path in _config_paths(cfg)]


class TestCli:
    @pytest.mark.parametrize("name", list(_RUN_CONFIGS))
    def test_run_subcommand(self, tmp_path, capsys, name):
        cfg = _RUN_CONFIGS[name]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"]["mean_regret_within_main_bound"]
        assert payload["checks"].get("ifpl_within_bound") is cfg.get("run_ifpl")
        assert (out / "report.json").exists()

    def test_run_subcommand_on_csv_game(self, tmp_path, capsys):
        # the numpy-only CI job's CSV-game step: a game written by to_csv,
        # played from the file, and both per-step files read back
        steps = 1500
        random_fluc_bounded_game(3, steps, RngSpec(1)).to_csv(tmp_path / "game.csv")
        cfg = {
            "game": {"kind": "csv", "path": str(tmp_path / "game.csv")},
            "schedule": {"target_eps": 1.0, "N": 3,
                         "gamma": {"kind": "power", "delta": 1.0}, "v0": 1.0},
            "seeds": [0, 1],
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
        capsys.readouterr()
        for name, width in (("trace.csv", 9), ("aggregate.csv", 3)):
            with open(out / name, newline="") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) == steps + 1 and all(len(r) == width for r in rows), name
            assert all(math.isfinite(float(cell)) or cell == "inf"
                       for row in rows[1:] for cell in row), name

    @staticmethod
    def small_run_config(tmp_path, **extra):
        cfg = {"game": {"kind": "bounded", "n_experts": 2, "num_steps": 5, "seed": 1},
               "schedule": {"target_eps": 1.0, "N": 2,
                            "gamma": {"kind": "power", "delta": 1.0}, "v0": 1.0}, **extra}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    @pytest.mark.parametrize("flags, message", [
        (["--seeds", "0"], "need at least one seed"),
        (["--seed", "-3"], "non-negative integers"),
    ], ids=["no-seeds", "negative-seed"])
    def test_seed_flags_checked_before_the_run(self, tmp_path, monkeypatch, flags, message):
        # the flags go through the config's seeds check, as a seeds key would
        def no_run(config):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        with pytest.raises(GameError, match=message):
            cli_main(["run", "--config", self.small_run_config(tmp_path)] + flags)

    def test_seed_flags_override_the_config(self, tmp_path, monkeypatch, capsys):
        seeds = []

        def record(config):
            seeds.append(config.seeds)
            return SimpleNamespace(to_json_dict=dict)

        monkeypatch.setattr(cli, "run_experiment", record)
        cfg_path = self.small_run_config(tmp_path, seeds=[4, 5])
        assert cli_main(["run", "--config", cfg_path, "--seed", "7"]) == 0
        assert cli_main(["run", "--config", cfg_path, "--seeds", "3"]) == 0
        assert seeds == [[7], [0, 1, 2]]

    @pytest.mark.parametrize("command, message", [
        (["run", "--config", None, "--seed", "7", "--seeds", "3"],
         "argument --seeds: not allowed with argument --seed"),
        (["run", "--config", None, "--seed", "1", "--seeds", "0"],
         "argument --seeds: not allowed with argument --seed"),
        (["adversary", "--eps", "0.5", "--a", "5", "--target-eps", "1"],
         "argument --target-eps: not allowed with argument --a"),
    ], ids=["seed-and-seeds", "seeds-after-seed", "a-and-target-eps"])
    def test_flags_for_one_value_exclude_each_other(self, tmp_path, monkeypatch, capsys,
                                                    command, message):
        # the later flag used to win silently: --seed 7 --seeds 3 ran seeds
        # 0, 1 and 2, and --target-eps dropped --a
        def no_run(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        monkeypatch.setattr(cli, "prop1_run", no_run)
        command = [self.small_run_config(tmp_path) if arg is None else arg for arg in command]
        with pytest.raises(SystemExit) as exit_info:
            cli.console_main(command)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: {message}")

    def test_adversary_zero_target_eps_rejected(self):
        # a target eps of 0 is not "no target": it does not fall back to --a
        with pytest.raises(ScheduleError, match=r"target_eps must be a real number in \(0, inf\)"):
            cli_main(["adversary", "--eps", "0.5", "--horizon", "5", "--target-eps", "0"])

    # the constant gamma is PROT's run in batched exact calls
    @pytest.mark.parametrize("gamma, horizon", [("power:1", 10), ("const:0.999", 200)])
    def test_adversary_subcommand(self, tmp_path, capsys, gamma, horizon):
        out = tmp_path / "adv"
        rc = cli_main(["adversary", "--eps", "0.5", "--gamma", gamma,
                       "--horizon", str(horizon), "--out", str(out)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["normalized_regret_floor"] >= payload["theory_floor"]
        assert payload["fluc"] == pytest.approx(1 / (1 + 0.5 / 4), rel=1e-9)
        # the normalized regret is at the floor (1 - eps)/2 on every row
        with open(out / "adversary_trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == horizon
        assert all(float(row["norm_regret_lb"]) >= (1 - 0.5) / 2 for row in rows)

    # a short path, and one of the benchmark's size
    @pytest.mark.parametrize("hurst, steps", [("0.8", "256"), ("0.3", "4096")])
    def test_trading_subcommand(self, tmp_path, capsys, hurst, steps):
        out = tmp_path / "trd"
        rc = cli_main(["trading", "--hurst", hurst, "--steps", steps,
                       "--seed", "3", "--out", str(out)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["identity_residual"] <= 1e-9
        assert payload["defensive_holds"]
        assert (out / "trading_report.csv").exists()
        for key in ("learner_final_gain", "expert1_final_gain", "final_volume"):
            assert math.isfinite(payload[key]), key
        assert type(payload["fluc_violations"]) is int

    @pytest.mark.parametrize("command, message", [
        (["probe", "--cum", "2,1,1", "--eps", "0"],
         "need scores without NaN and positive rates, got [2. 1. 1.] and 0.0"),
        (["run", "--config", None], "seed 0: params expect 3 experts, game has 2"),
        # a missing number ended in a ValueError traceback
        (["probe", "--cum", "1,,2", "--eps", "0.5"],
         "--cum must be comma-separated numbers, got '1,,2'"),
        # eps * s overflowed in the Monte-Carlo half: a RuntimeWarning, and
        # a traceback under -W error::RuntimeWarning
        (["probe", "--cum", "2,1,1", "--eps", "1e308"],
         "scaled scores eps * s must be finite, got eps = 1e+308 and s = [2. 1. 1.]"),
        # e^(3/a) overflowed: an OverflowError traceback
        (["adversary", "--eps", "0.5", "--a", "0.001"], "a must leave e^(3/a) finite, got 0.001"),
    ], ids=["zero-rate", "expert-count", "empty-cum-entry", "overflowing-rate", "overflowing-a"])
    def test_game_errors_end_in_one_line(self, tmp_path, command, message):
        # a bad flag or config used to end in a Python traceback
        cfg = {"game": {"kind": "bounded", "n_experts": 2, "num_steps": 5, "seed": 1},
               "schedule": {"target_eps": 1.0, "N": 3,
                            "gamma": {"kind": "power", "delta": 1.0}, "v0": 1.0}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        command = [str(tmp_path / "cfg.json") if arg is None else arg for arg in command]
        src = os.path.dirname(os.path.dirname(volfpl.__file__))
        proc = subprocess.run([sys.executable, "-m", "volfpl.cli"] + command,
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"volfpl: error: {message}"]
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command, change, message", [
        ("run", {"schedule": 5}, "schedule config must be a JSON object, got 5"),
        ("run", {"game": [1]}, "game config must be a JSON object, got [1]"),
        ("run", {"gamma": 5}, "gamma config must be a JSON object, got 5"),
        ("run", None, "experiment config must be a JSON object, got 5"),
    ], ids=["run-schedule", "run-game", "run-gamma", "run-top-level"])
    def test_config_sections_must_be_objects(self, tmp_path, capsys, command, change, message):
        # each ended in a TypeError or AttributeError traceback
        cfg = {"game": {"kind": "bounded", "n_experts": 2, "num_steps": 5},
               "schedule": {"a": 10.0, "N": 2, "gamma": {"kind": "power", "delta": 1.0}}}
        if change is None:
            cfg = 5
        elif "gamma" in change:
            cfg["schedule"].update(change)
        else:
            cfg.update(change)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert cli.console_main([command, "--config", str(tmp_path / "cfg.json")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"volfpl: error: {message}"]

    @pytest.mark.parametrize("command", ["run"])
    @pytest.mark.parametrize("content", [None, "{", b"\xff"],
                             ids=["missing", "not-json", "not-utf8"])
    def test_unreadable_config_file_ends_in_one_line(self, tmp_path, capsys, command, content):
        # each ended in a FileNotFoundError or JSONDecodeError traceback
        path = tmp_path / "cfg.json"
        if isinstance(content, str):
            path.write_text(content)
        elif content is not None:
            path.write_bytes(content)
        assert cli.console_main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"volfpl: error: cannot read config {path}: ")

    @pytest.mark.parametrize("base, path", _SWEEP,
                             ids=[f"{base}-{'.'.join(map(str, path))}" for base, path in _SWEEP])
    def test_every_mutated_config_runs_or_fails_in_one_line(self, tmp_path, monkeypatch, capsys,
                                                           base, path):
        # the rule: exit code 0, or exit code 2 with exactly one stderr
        # line; a traceback or a RuntimeWarning breaks it.  "x", null, a
        # list or an object ended in a float() traceback, and "2" or true
        # ran as a number
        monkeypatch.chdir(tmp_path)  # a relative "out" is written here
        broken = []
        for value, cfg in _mutations(_SWEEP_BASES[base], path):
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    code = cli.console_main(["run", "--config", "cfg.json"])
            except Exception as exc:
                code = f"{type(exc).__name__}: {exc}"
            err = capsys.readouterr().err.splitlines()
            if not (code == 0 or code == 2 and len(err) == 1):
                broken.append(f"{value!r} -> {code} {err}")
        assert not broken

    @pytest.mark.parametrize("command, message", [
        (["trading", "--prices", "missing.csv"], "No such file or directory: 'missing.csv'"),
        (["run", "--config", "cfg.json", "--out", "afile"], "File exists: 'afile'"),
        (["adversary", "--eps", "0.5", "--horizon", "3", "--out", "afile"],
         "File exists: 'afile'"),
    ], ids=["trading-missing-prices", "run-out-is-a-file", "adversary-out-is-a-file"])
    def test_file_errors_end_in_one_line(self, tmp_path, monkeypatch, capsys, command, message):
        # each ended in a FileNotFoundError or FileExistsError traceback
        monkeypatch.chdir(tmp_path)
        self.small_run_config(tmp_path)
        (tmp_path / "afile").write_text("")
        assert cli.console_main(command) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("volfpl: error: ") and err[0].endswith(message)

    def test_console_keeps_tracebacks_of_other_errors(self, monkeypatch):
        # only a GameError is the user's: any other exception is a bug
        def broken(args):
            raise ZeroDivisionError("bug")

        monkeypatch.setitem(cli._COMMANDS, "probe", broken)
        with pytest.raises(ZeroDivisionError):
            cli.console_main(["probe", "--cum", "1,2", "--eps", "1"])

    def test_module_entry_point(self):
        src = os.path.dirname(os.path.dirname(volfpl.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "volfpl.cli", "probe", "--cum", "1,2",
                               "--eps", "1", "--samples", "10"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("cfg", [
        {"game": {"kind": "random", "n_experts": 2, "num_steps": 256, "seed": 2},
         "schedule": {"target_eps": 1.0, "N": 2, "gamma": _POWER_GAMMA, "v0": 1.0}},
        _RUN_CONFIGS["random-with-ifpl"],
    ], ids=["random-n2", "random-n3-run-config"])
    def test_run_reports_the_hannan_trend(self, tmp_path, capsys, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli_main(["run", "--config", str(cfg_path), "--seed", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hannan"]["square_summable"] is True

    def test_hannan_command_is_gone(self, tmp_path, capsys):
        # run reports the trend; the command that played the run again is gone
        with pytest.raises(SystemExit) as exc:
            cli_main(["hannan", "--config", self.small_run_config(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'hannan'" in capsys.readouterr().err

    # five experts sample in 26214-row chunks: the running-minimum argmin
    @pytest.mark.parametrize("cum, eps, first, max_se", [
        ("3,5", "0.5", 0.8160603, 4.0),
        ("0,0.5,1,1.5,2", "1", 0.5084308, 5.0),
    ], ids=["two-experts", "five-experts"])
    def test_probe_subcommand(self, capsys, cum, eps, first, max_se):
        rc = cli_main(["probe", "--cum", cum, "--eps", eps,
                       "--samples", "200000", "--seed", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"][0] == pytest.approx(first, abs=1e-6)
        assert payload["max_deviation_in_se"] <= max_se

    def test_probe_at_an_infinite_rate_follows_the_leader(self, capsys):
        # the exact half rejected eps = inf, and the command exited 2
        assert cli_main(["probe", "--cum", "2,1,1", "--eps", "inf"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] == payload["monte_carlo"] == [0.0, 1.0, 0.0]
        assert payload["max_deviation_in_se"] == 0.0
