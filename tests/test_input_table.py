"""Every entry the package exports, against one input rule.

One valid base call per exported name (and per public method that reads a
number) has each of its arguments set in turn to each value of
``_VALUES``, with RuntimeWarning an error.  The rule, fixed before the
table first ran: each call returns or raises GameError (ScheduleError and
the other subclasses among them).  A bare TypeError, IndexError,
OverflowError, numpy's ambiguous-truth ValueError or a warning breaks it.

Two exemptions, and no others:

- object arguments (params, configs, price series, loss matrices given as
  such, gamma schedules, generators and callbacks) are not varied: a
  value of the wrong kind there fails in Python's own attribute lookup,
  which says what it is;
- a string inside an array argument may end in numpy's own
  ``ValueError: could not convert string to float``.  GameError is a
  ValueError too, and no command-line path reaches these conversions:
  CSV cells and ``probe --cum`` are read by their own wrappers.

A later loud-input fix adds a row here.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import volfpl
from volfpl import (
    AdversaryConfig,
    AggregateReport,
    ExperimentConfig,
    GameError,
    GammaSchedule,
    LossMatrix,
    PriceSeries,
    Prop1Trace,
    RngSpec,
    RunRecord,
    ScheduleError,
    ScheduleParams,
    TradingConfig,
    TradingReport,
)

NAN, INF = math.nan, math.inf
_VALUES = [2.5, -1, 0, True, "x", None, NAN, INF, -INF, 1e308, 1e-320, [], np.empty(0),
           [[NAN, 1.0]], 5, np.array([1.0, 2.0]), np.float64(2.0)]
_VALUE_IDS = ["2.5", "-1", "0", "True", "'x'", "None", "nan", "inf", "-inf", "1e308",
              "1e-320", "[]", "empty-array", "[[nan, 1]]", "5", "2-vector", "float64(2)"]

# the object arguments: values of these kinds are never varied
_OBJECTS = (ScheduleParams, AdversaryConfig, TradingConfig, ExperimentConfig, PriceSeries,
            LossMatrix, GammaSchedule, np.random.Generator, dict)

_GAME = np.array([[0.5, 0], [0, 1], [1, 0], [0, 1], [1, 0], [0, 1], [1, 0]], dtype=float)
_PARAMS = ScheduleParams(a=10.0, num_experts=2, gamma=GammaSchedule.power(1.0), v0=1.0)
# inside the alpha domain at every step
_ALPHA_PARAMS = ScheduleParams(a=10.0, num_experts=2, gamma=GammaSchedule.constant(0.01))
_PRICES = PriceSeries([1.0, 1.5, 0.5, 2.0])
_TRADING = TradingConfig(c=0.7, schedule=ScheduleParams(
    a=10.0, num_experts=2, gamma=GammaSchedule.constant(0.5), v0=1.0))
_SECTIONS = {"game": {"kind": "bounded", "n_experts": 2, "num_steps": 5},
             "schedule": {"a": 10.0, "N": 2, "gamma": {"kind": "power", "delta": 1.0}}}
_ADVERSARY = AdversaryConfig(eps=0.5, horizon=3)


def _half(t, cumulative, v_prev):
    return 0.5


def _fields(record) -> dict:
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def _run_args():
    return dict(losses=_GAME, params=_PARAMS, rng=0, regime="per-step", perturbations=None,
                num_steps=None)


def _batch_args():
    return dict(losses=_GAME, params=_PARAMS, num_runs=3, rng=0, regime="per-step",
                infeasible=False, checkpoints=[1, 3])


# name -> (call, base keyword arguments), each base call valid
_TABLE = {
    # adversary
    "AdversaryConfig": (AdversaryConfig, dict(eps=0.5, v0=1.0, horizon=3)),
    "Prop1Trace": (Prop1Trace, _fields(volfpl.prop1_run(_half, _ADVERSARY))),
    "prop1_run": (volfpl.prop1_run, dict(algorithm=_half, config=_ADVERSARY)),
    "prop1_step": (volfpl.prop1_step, dict(v_prev=1.0, p1=0.5, eps=0.5)),
    "prot_probability_callback": (volfpl.prot_probability_callback, dict(params=_PARAMS)),
    "prot_probability_callback()": (
        lambda t, cumulative, v_prev: volfpl.prot_probability_callback(_PARAMS)(
            t, cumulative, v_prev), dict(t=1, cumulative=[0.0, 1.0], v_prev=1.0)),
    # engine
    "RunRecord": (RunRecord, _fields(volfpl.prot_run(_GAME, _PARAMS, rng=0))),
    "batch_cumulative_losses": (volfpl.batch_cumulative_losses, _batch_args()),
    "ifpl_run": (volfpl.ifpl_run, _run_args()),
    "monte_carlo_regret": (volfpl.monte_carlo_regret, _batch_args()),
    "probability_ratio_check": (volfpl.probability_ratio_check, dict(
        cumulative_prev=[0.0, 0.0], loss_t=[0.01, 0.0], params=_ALPHA_PARAMS, t=3, v_prev=1.0,
        v_t=1.01, slack=1e-9)),
    "prot_run": (volfpl.prot_run, _run_args()),
    "prot_select": (volfpl.prot_select, dict(cumulative=[2.0, 1.0, 1.0], eps=0.5,
                                             xi=[1.0, 0.5, 2.0])),
    "selection_probabilities_exact": (volfpl.selection_probabilities_exact,
                                      dict(cumulative=[2.0, 1.0, 1.0], eps=0.5)),
    "selection_probabilities_mc": (volfpl.selection_probabilities_mc,
                                   dict(cumulative=[2.0, 1.0, 1.0], eps=0.5, num_samples=10,
                                        rng=0)),
    # game
    "GameError": (lambda message: GameError(message), dict(message="m")),
    "LossMatrix": (LossMatrix, dict(values=_GAME)),
    # a game of two steps, so that 5 is past its end
    "LossMatrix.row": (lambda t: LossMatrix(np.eye(2)).row(t), dict(t=1)),
    "check_fluctuation_bound": (volfpl.check_fluctuation_bound,
                                dict(fluc_values=[0.5, 0.25], gamma=GammaSchedule.power(1.0))),
    "scaled_fluctuation": (volfpl.scaled_fluctuation, dict(delta_v=1.0, v=2.5)),
    "volume_trace": (volfpl.volume_trace, dict(losses=LossMatrix(_GAME), v0=0.0)),
    # harness
    "AggregateReport": (AggregateReport, _fields(volfpl.run_experiment(
        ExperimentConfig(**_SECTIONS)))),
    "ExperimentConfig": (ExperimentConfig, dict(**_SECTIONS, seeds=[0], regime="per-step",
                                                run_ifpl=False, out=None)),
    "bounded_unit_game": (volfpl.bounded_unit_game, dict(num_experts=2, num_steps=3, rng=0,
                                                         loss_mode="general")),
    "hannan_check": (volfpl.hannan_check, dict(losses=_GAME, params=_PARAMS, rng=0,
                                               regime="per-step")),
    "poly_envelope_game": (volfpl.poly_envelope_game, dict(num_experts=2, num_steps=3, rng=0,
                                                           exponent=0.1)),
    "random_fluc_bounded_game": (volfpl.random_fluc_bounded_game, dict(
        num_experts=2, num_steps=3, rng=0, v0=1.0, loss_mode="general", delta=1.0)),
    "run_experiment": (volfpl.run_experiment, dict(config=ExperimentConfig(**_SECTIONS))),
    # perturbation
    "RngSpec": (RngSpec, dict(seed=0, stream_id=0)),
    "as_generator": (volfpl.as_generator, dict(rng=0)),
    "expected_max_bound": (volfpl.expected_max_bound, dict(num_experts=2)),
    "inverse_exponential_cdf": (volfpl.inverse_exponential_cdf, dict(u=[0.0, 0.5])),
    "max_tail_bound": (volfpl.max_tail_bound, dict(num_experts=2, a=1.0)),
    "sample_exponential": (volfpl.sample_exponential,
                           dict(n=3, gen=np.random.default_rng(0))),
    "sample_exponential_array": (volfpl.sample_exponential_array,
                                 dict(shape=(2, 3), gen=np.random.default_rng(0))),
    # schedule
    "GammaSchedule": (GammaSchedule, dict(kind="power", delta=1.0, c=0.0, table_values=())),
    "GammaSchedule.__call__": (lambda t: GammaSchedule.power(1.0)(t), dict(t=1)),
    "GammaSchedule.values": (lambda ts: GammaSchedule.from_table([0.5, 0.25]).values(ts),
                             dict(ts=[1, 2])),
    "ScheduleError": (lambda message: ScheduleError(message), dict(message="m")),
    # the constructor, then what every rate reads: e^{3/a} and the rates' coefficient
    "ScheduleParams": (lambda **kw: volfpl.mu_t(ScheduleParams(**kw), 1), dict(
        a=10.0, num_experts=2, gamma=GammaSchedule.power(1.0), v0=1.0, loss_mode="general")),
    "alpha_t": (volfpl.alpha_t, dict(params=_ALPHA_PARAMS, t=1)),
    "choose_a": (volfpl.choose_a, dict(target_eps=1.0, loss_mode="general")),
    "epsilon_t": (volfpl.epsilon_t, dict(params=_PARAMS, t=1, v_prev=1.0)),
    "fpl_ifpl_gap_bound": (volfpl.fpl_ifpl_gap_bound, dict(params=_PARAMS, delta_v=[1.0, 0.5])),
    "general_bound": (volfpl.general_bound, dict(params=_ALPHA_PARAMS, T=2, delta_v=[1.0, 0.5])),
    "ifpl_regret_bound": (volfpl.ifpl_regret_bound, dict(params=_PARAMS, delta_v=[1.0, 0.5])),
    "mu_t": (volfpl.mu_t, dict(params=_PARAMS, t=1)),
    "mu_values": (volfpl.mu_values, dict(params=_PARAMS, T=3)),
    "optimized_bound": (volfpl.optimized_bound, dict(params=_PARAMS, T=2, delta_v=[1.0, 0.5])),
    "poly_bound": (volfpl.poly_bound, dict(N=2, T=100, alpha=0.1, delta=1.0, target_eps=1.0)),
    "regret_bound": (volfpl.regret_bound, dict(params=_PARAMS, T=2, delta_v=[1.0, 0.5],
                                               target_eps=1.0)),
    # trading
    "PriceSeries": (PriceSeries, dict(prices=[1.0, 1.5, 0.5, 2.0])),
    "TradingConfig": (TradingConfig, dict(c=0.7, schedule=_TRADING.schedule)),
    "TradingReport": (TradingReport, _fields(volfpl.run_trading_experiment(_TRADING, _PRICES))),
    "defensive_lower_bound": (volfpl.defensive_lower_bound,
                              dict(prices=_PRICES, config=_TRADING)),
    "expert_gains": (volfpl.expert_gains, dict(prices=_PRICES, c=0.7)),
    "fbm_generate": (volfpl.fbm_generate, dict(hurst=0.7, steps=8, scale=1.0, drift=0.0, seed=0,
                                               s0=1.0)),
    "learner_gain": (volfpl.learner_gain, dict(prices=_PRICES, config=_TRADING)),
    "run_trading_experiment": (volfpl.run_trading_experiment,
                               dict(config=_TRADING, prices=_PRICES)),
    "volatility_identity_check": (volfpl.volatility_identity_check, dict(prices=_PRICES)),
}

_CELLS = [(name, arg) for name, (_, base) in _TABLE.items() for arg, value in base.items()
          if not (isinstance(value, _OBJECTS) or callable(value))]


def _exported():
    return {name for name in dir(volfpl) if not name.startswith("_")
            and callable(getattr(volfpl, name))}


def test_the_table_has_every_exported_entry():
    assert _exported() <= set(_TABLE), sorted(_exported() - set(_TABLE))


@pytest.mark.parametrize("name", list(_TABLE))
def test_base_calls_are_valid(name):
    call, base = _TABLE[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        call(**base)


def _outcome(call, kwargs, value):
    """None if the call keeps the rule, else what broke it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            call(**kwargs)
        except GameError:
            return None
        except ValueError as exc:
            if isinstance(value, str) and str(exc).startswith("could not convert string to float"):
                return None
            return f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # noqa: BLE001 -- any other exception breaks the rule
            return f"{type(exc).__name__}: {exc}"
    return None


@pytest.mark.parametrize("name, arg", _CELLS, ids=[f"{name}-{arg}" for name, arg in _CELLS])
def test_each_argument_returns_or_raises_game_error(name, arg):
    call, base = _TABLE[name]
    broken = {}
    for value, vid in zip(_VALUES, _VALUE_IDS):
        why = _outcome(call, {**base, arg: value}, value)
        if why is not None:
            broken[vid] = why
    assert not broken, broken
