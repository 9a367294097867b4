"""Command-line surface: run, adversary, trading, hannan, probe.

Config comes from a JSON file (--config) with flag overrides; flags win.
Every command builds its schedule through ``ScheduleParams.from_config``,
so the schedule flags mean the same in each.
Outputs are CSV/JSON files under --out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .adversary import AdversaryConfig, prop1_run, prot_probability_callback
from .engine import selection_probabilities_exact, selection_probabilities_mc
from .game import GameError
from .harness import ExperimentConfig, hannan_check, parse_seeds, resolve_game, run_experiment
from .perturbation import RngSpec
from .schedule import LOSS_MODES, ScheduleParams
from .trading import PriceSeries, TradingConfig, fbm_generate, run_trading_experiment


def _parse_gamma(spec: str) -> dict:
    kind, _, value = spec.partition(":")
    if kind == "power":
        return {"kind": "power", "delta": float(value)}
    if kind == "const":
        return {"kind": "constant", "c": float(value)}
    raise argparse.ArgumentTypeError(f"expected power:DELTA or const:C, got {spec!r}")


def _schedule_flags(parser):
    parser.add_argument("--gamma", type=_parse_gamma, help="power:DELTA or const:C")
    parser.add_argument("--target-eps", type=float, dest="target_eps")
    parser.add_argument("--loss-mode", choices=LOSS_MODES, dest="loss_mode")


def _apply_schedule_flags(schedule: dict, args) -> dict:
    """A schedule config with the flags of :func:`_schedule_flags` applied,
    in place: --target-eps replaces ``a``, the others replace their key."""
    if args.gamma:
        schedule["gamma"] = args.gamma
    if args.target_eps is not None:
        schedule.pop("a", None)
        schedule["target_eps"] = args.target_eps
    if args.loss_mode:
        schedule["loss_mode"] = args.loss_mode
    return schedule


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="volfpl")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="seeded experiment over a loss matrix")
    run.add_argument("--config", required=True, help="JSON experiment config")
    run.add_argument("--seed", type=int, help="single seed override")
    run.add_argument("--seeds", type=int, help="number of seeds (base 0)")
    run.add_argument("--regime", choices=["once", "per-step"])
    run.add_argument("--out")
    _schedule_flags(run)

    adv = sub.add_parser("adversary", help="adaptive lower-bound game against PROT")
    adv.add_argument("--eps", type=float, required=True)
    adv.add_argument("--horizon", type=int, default=30)
    adv.add_argument("--v0", type=float, default=1.0)
    adv.add_argument("--a", type=float, default=10.0)
    adv.add_argument("--out")
    _schedule_flags(adv)

    trd = sub.add_parser("trading", help="zero-sum volatility-trading experiment")
    trd.add_argument("--prices", help="price CSV (single `price` column)")
    trd.add_argument("--hurst", type=float, default=0.8)
    trd.add_argument("--steps", type=int, default=1024)
    trd.add_argument("--scale", type=float, default=1.0)
    trd.add_argument("--drift", type=float, default=0.0)
    trd.add_argument("--seed", type=int, default=0)
    trd.add_argument("--c", type=float, default=1.0)
    trd.add_argument("--gamma-const", type=float, default=0.01, dest="gamma_const")
    trd.add_argument("--v0", type=float, default=1.0)
    trd.add_argument("--target-eps", type=float, default=1.0, dest="target_eps")
    trd.add_argument("--out")

    han = sub.add_parser("hannan", help="single-trajectory consistency trend")
    han.add_argument("--config", required=True)
    han.add_argument("--seed", type=int, default=0)
    han.add_argument("--out")

    prb = sub.add_parser("probe", help="exact vs Monte-Carlo selection probabilities")
    prb.add_argument("--cum", required=True, help="comma-separated cumulative losses")
    prb.add_argument("--eps", type=float, required=True)
    prb.add_argument("--samples", type=int, default=100_000)
    prb.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        config.seeds = parse_seeds([args.seed])
    if args.seeds is not None:
        config.seeds = parse_seeds({"count": args.seeds})
    if args.regime:
        config.regime = args.regime
    if args.out:
        config.out = args.out
    _apply_schedule_flags(config.schedule, args)
    report = run_experiment(config)
    print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_adversary(args) -> int:
    params = ScheduleParams.from_config(_apply_schedule_flags(
        {"a": args.a, "N": 2, "gamma": {"kind": "power", "delta": 1.0}, "v0": args.v0}, args))
    config = AdversaryConfig(eps=args.eps, v0=args.v0, horizon=args.horizon)
    trace = prop1_run(prot_probability_callback(params), config)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        trace.to_csv(os.path.join(args.out, "adversary_trace.csv"))
    print(json.dumps({
        "eps": args.eps,
        "fluc": trace.fluc[-1],
        "normalized_regret_floor": float(np.min(trace.norm_regret_lb)),
        "theory_floor": 0.5 * (1 - args.eps),
    }, indent=2))
    return 0


def _cmd_trading(args) -> int:
    if args.prices:
        prices = PriceSeries.from_csv(args.prices)
    else:
        prices = fbm_generate(args.hurst, args.steps, scale=args.scale,
                              drift=args.drift, seed=args.seed)
    params = ScheduleParams.from_config({
        "target_eps": args.target_eps, "N": 2, "v0": args.v0,
        "gamma": {"kind": "constant", "c": args.gamma_const}})
    report = run_trading_experiment(TradingConfig(c=args.c, schedule=params), prices)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        report.to_csv(os.path.join(args.out, "trading_report.csv"))
    print(json.dumps({
        "learner_final_gain": report.learner_cum[-1],
        "expert1_final_gain": report.s1_cum[-1],
        "final_volume": report.volume[-1],
        "identity_residual": report.identity_residual,
        "defensive_bound": report.defensive_bound,
        "defensive_holds": bool(report.learner_cum[-1] >= report.defensive_bound),
        "fluc_violations": int(len(report.fluc_violations)),
    }, indent=2))
    return 0


def _cmd_hannan(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    losses = resolve_game(config.game)
    params = ScheduleParams.from_config(config.schedule)
    report = hannan_check(losses, params, RngSpec(args.seed), regime=config.regime)
    if report["warning"]:
        print(f"warning: {report['warning']}", file=sys.stderr)
    out = json.dumps(report, indent=2)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "hannan.json"), "w") as fh:
            fh.write(out + "\n")
    print(out)
    return 0


def _cmd_probe(args) -> int:
    try:
        cum = np.array([float(x) for x in args.cum.split(",")])
    except ValueError:
        raise GameError(f"--cum must be comma-separated numbers, got {args.cum!r}") from None
    exact = selection_probabilities_exact(cum, args.eps)
    mc = selection_probabilities_mc(cum, args.eps, args.samples, RngSpec(args.seed))
    se = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / args.samples)
    print(json.dumps({
        "exact": exact.tolist(),
        "monte_carlo": mc.tolist(),
        "max_deviation_in_se": float(np.max(np.abs(exact - mc) / se)),
    }, indent=2))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "adversary": _cmd_adversary,
    "trading": _cmd_trading,
    "hannan": _cmd_hannan,
    "probe": _cmd_probe,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


def console_main(argv=None) -> int:
    """:func:`main` for the shell: a GameError (a bad config, flag or game)
    or an OSError (a file that cannot be read or written) ends in one line
    on stderr and exit code 2, as argparse ends a bad flag; any other
    exception is a bug and keeps its traceback."""
    try:
        return main(argv)
    except (GameError, OSError) as exc:
        message = " ".join(str(exc).split())
        print(f"volfpl: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(console_main())
