"""Zero-sum volatility trading on a fractional-Brownian price path.

Two experts bet on the gap between macro volatility (S_M - S_0)^2 and micro
volatility sum (dS_t)^2: expert 1 holds 2C(S_t - S_0) shares, expert 2 the
exact opposite, so their gains cancel tick by tick.  The learner splits its
stake in proportion to the perturbed-leader selection probabilities, which
turns its expected gain into a deterministic portfolio gain, and a
defensive lower bound keeps its losses near zero no matter which expert
wins.

With Hurst exponent H > 1/2 the path is persistent, macro volatility beats
micro volatility on average, and expert 1 tends to profit; the learner
tracks the winner without knowing H.

Run:  python3 demos/demo_trading.py
"""

from volfpl import (
    GammaSchedule,
    ScheduleParams,
    TradingConfig,
    choose_a,
    fbm_generate,
    run_trading_experiment,
)


def main():
    params = ScheduleParams(a=choose_a(1.0), num_experts=2,
                            gamma=GammaSchedule.constant(0.01), v0=1.0)
    config = TradingConfig(c=1.0, schedule=params)

    for hurst in (0.3, 0.5, 0.8):
        prices = fbm_generate(hurst, 4096, seed=7)
        report = run_trading_experiment(config, prices)
        print(f"H = {hurst}")
        print(f"  volatility identity residual: {report.identity_residual:.2e}")
        print(f"  expert 1 final gain:  {report.s1_cum[-1]:+.4f}")
        print(f"  expert 2 final gain:  {report.s2_cum[-1]:+.4f}")
        print(f"  learner final gain:   {report.learner_cum[-1]:+.4f}")
        print(f"  defensive bound:      {report.defensive_bound:+.4f}")
        print()


if __name__ == "__main__":
    main()
