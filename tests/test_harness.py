import json
import math

import numpy as np
import pytest

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
    ScheduleParams,
    bounded_unit_game,
    choose_a,
    hannan_check,
    poly_envelope_game,
    random_fluc_bounded_game,
    run_experiment,
    volume_trace,
)
from volfpl.cli import main as cli_main
from volfpl.harness import resolve_game


class TestGenerators:
    def test_random_game_respects_fluc_cap(self):
        lm = random_fluc_bounded_game(4, 200, RngSpec(1), v0=1.0, delta=1.0)
        _, _, fluc = volume_trace(lm, 1.0)
        gamma = 1.0 / np.arange(1, 201)
        assert np.all(fluc <= gamma + 1e-12)

    def test_random_game_nonnegative_mode(self):
        lm = random_fluc_bounded_game(3, 50, RngSpec(2), loss_mode="nonnegative")
        assert np.all(lm.values >= 0)

    def test_bounded_game_volume_is_t(self):
        lm = bounded_unit_game(5, 100, RngSpec(3))
        v, _, _ = volume_trace(lm, 0.0)
        assert np.allclose(v[1:], np.arange(1, 101))

    def test_poly_envelope_exact(self):
        lm = poly_envelope_game(3, 64, RngSpec(4), exponent=0.1)
        peaks = np.max(np.abs(lm.values), axis=1)
        assert np.allclose(peaks, np.arange(1, 65) ** 0.1)

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

    @pytest.mark.parametrize("key", ["game", "schedule"])
    def test_config_missing_key(self, key):
        cfg = base_config().to_dict()
        del cfg[key]
        with pytest.raises(GameError, match=key):
            ExperimentConfig.from_dict(cfg)

    def test_seed_count_expansion(self):
        cfg = base_config(seeds={"count": 3, "base": 10})
        assert cfg.seeds == [10, 11, 12]

    def test_ifpl_option(self):
        rep = run_experiment(base_config(run_ifpl=True))
        assert "ifpl_total" in rep.bounds
        assert rep.checks["ifpl_within_bound"]

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

    def test_csv_game_round_trip(self, tmp_path):
        lm = bounded_unit_game(2, 20, RngSpec(0))
        path = tmp_path / "game.csv"
        lm.to_csv(path)
        back = resolve_game({"kind": "csv", "path": str(path)})
        assert np.array_equal(back.values, lm.values)


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

    def test_decreasing_trend_on_summable_schedule(self):
        rep = hannan_check(self.game(), self.params(1.0), RngSpec(0))
        assert rep["decreasing_trend"]


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg = {
            "game": {"kind": "bounded", "n_experts": 2, "num_steps": 50, "seed": 1},
            "schedule": {"target_eps": 1.0, "N": 2,
                         "gamma": {"kind": "power", "delta": 1.0}, "v0": 1.0},
            "seeds": [0, 1, 2],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"]["mean_regret_within_main_bound"]
        assert (out / "report.json").exists()

    def test_adversary_subcommand(self, capsys):
        rc = cli_main(["adversary", "--eps", "0.5", "--horizon", "10"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["normalized_regret_floor"] >= payload["theory_floor"]
        assert payload["fluc"] == pytest.approx(1 / (1 + 0.5 / 4), rel=1e-9)

    def test_trading_subcommand(self, tmp_path, capsys):
        out = tmp_path / "trd"
        rc = cli_main(["trading", "--hurst", "0.8", "--steps", "256",
                       "--seed", "3", "--out", str(out)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["identity_residual"] <= 1e-9
        assert payload["defensive_holds"]
        assert (out / "trading_report.csv").exists()

    def test_verify_bounds_subcommand(self, capsys):
        rc = cli_main(["verify-bounds", "--draws", "200", "--seed", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"]
        assert payload["max_mu_relative_gap"] <= 1e-10

    def test_hannan_subcommand(self, tmp_path, capsys):
        cfg = {
            "game": {"kind": "random", "n_experts": 2, "num_steps": 256, "seed": 2},
            "schedule": {"target_eps": 1.0, "N": 2,
                         "gamma": {"kind": "power", "delta": 1.0}, "v0": 1.0},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli_main(["hannan", "--config", str(cfg_path), "--seed", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["square_summable"] is True

    def test_probe_subcommand(self, capsys):
        rc = cli_main(["probe", "--cum", "3,5", "--eps", "0.5",
                       "--samples", "200000", "--seed", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"][0] == pytest.approx(0.8160603, abs=1e-6)
        assert payload["max_deviation_in_se"] <= 4.0
