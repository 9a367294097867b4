"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the library at full scale and
prints a single PASS/FAIL line with the decisive numbers.  Everything is
seeded; reruns are bit-reproducible.
"""

import math
import time

import numpy as np
import pytest

from volfpl import engine
from volfpl import (
    AdversaryConfig,
    GammaSchedule,
    RngSpec,
    ScheduleParams,
    TradingConfig,
    batch_cumulative_losses,
    bounded_unit_game,
    choose_a,
    expected_max_bound,
    expert_gains,
    fbm_generate,
    general_bound,
    hannan_check,
    ifpl_regret_bound,
    learner_gain,
    monte_carlo_regret,
    mu_t,
    optimized_bound,
    poly_envelope_game,
    probability_ratio_check,
    prop1_run,
    prot_probability_callback,
    random_fluc_bounded_game,
    regret_bound,
    sample_exponential_array,
    selection_probabilities_exact,
    selection_probabilities_mc,
    volatility_identity_check,
    volume_trace,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def regret_suite(loss_mode: str, seed_base: int):
    """Shared protocol for the main-bound criteria: 20 random games,
    N cycling {2, 5, 10}, T = 2000, gamma(t) = 1/t, 10^4 runs each."""
    T, runs = 2000, 10_000
    worst_margin = math.inf
    rows = []
    for k in range(20):
        n = (2, 5, 10)[k % 3]
        params = ScheduleParams(a=choose_a(1.0, loss_mode), num_experts=n,
                                gamma=GammaSchedule.power(1.0), v0=1.0,
                                loss_mode=loss_mode)
        game = random_fluc_bounded_game(n, T, RngSpec(seed_base + k), v0=1.0,
                                        loss_mode=loss_mode, delta=1.0)
        _, delta_v, _ = volume_trace(game, 1.0)
        mean, se = monte_carlo_regret(game, params, runs, RngSpec(seed_base + 100 + k))
        bound = regret_bound(params, T, delta_v, 1.0)
        margin = bound + 3 * se - mean
        worst_margin = min(worst_margin, margin)
        rows.append((n, mean, se, bound))
    return worst_margin, rows


def test_acceptance_01_main_bound_general():
    start = time.time()
    worst, rows = regret_suite("general", seed_base=1000)
    elapsed = time.time() - start
    ok = worst >= 0 and elapsed < 120
    report(
        "criterion 1 (expected regret <= main bound, general losses)",
        ok,
        f"20 games, worst margin {worst:.3f} >= 0, runtime {elapsed:.1f}s < 120s",
    )


def test_acceptance_02_main_bound_nonnegative():
    worst, rows = regret_suite("nonnegative", seed_base=2000)
    report(
        "criterion 2 (expected regret <= main bound, nonnegative losses)",
        worst >= 0,
        f"20 games with the tighter constant, worst margin {worst:.3f} >= 0",
    )


def test_acceptance_03_ifpl_bound():
    T, runs = 2000, 10_000
    worst = math.inf
    for k in range(20):
        n = (2, 5, 10)[k % 3]
        params = ScheduleParams(a=choose_a(1.0), num_experts=n,
                                gamma=GammaSchedule.power(1.0), v0=1.0)
        game = random_fluc_bounded_game(n, T, RngSpec(3000 + k), v0=1.0, delta=1.0)
        _, delta_v, _ = volume_trace(game, 1.0)
        totals = batch_cumulative_losses(game, params, runs, RngSpec(3100 + k),
                                         infeasible=True)[:, 0]
        best = float(np.min(np.cumsum(game.values, axis=0)[-1]))
        se = totals.std(ddof=1) / math.sqrt(runs)
        bound = best + ifpl_regret_bound(params, delta_v)
        worst = min(worst, bound + 3 * se - totals.mean())
    report(
        "criterion 3 (infeasible-run loss <= best expert + rate-weighted term)",
        worst >= 0,
        f"20 games, worst margin {worst:.3f} >= 0",
    )


def test_acceptance_04_probability_ratio():
    gen = np.random.default_rng(4000)
    checked = 0
    ok = True
    while checked < 200:
        n = int(gen.integers(2, 6))
        params = ScheduleParams(a=float(gen.uniform(5, 50)), num_experts=n,
                                gamma=GammaSchedule.constant(float(gen.uniform(0.001, 0.02))))
        if not params.alpha_domain_ok(1):
            continue
        g = params.gamma(1)
        t = int(gen.integers(1, 500))
        cum = gen.normal(0, 5, n)
        v_prev = float(gen.uniform(1, 100))
        dv = float(gen.uniform(0, g * v_prev / (1 - g)))
        s_t = gen.uniform(-1, 1, n)
        s_t *= dv / max(np.max(np.abs(s_t)), 1e-12)
        ok = ok and probability_ratio_check(cum, s_t, params, t, v_prev,
                                            v_prev + dv, slack=1e-9)
        checked += 1
    report(
        "criterion 4 (exact selection probabilities obey the ratio inequality)",
        ok,
        "200 random single steps, N <= 5, slack 1e-9",
    )


def test_acceptance_05_adversary_floor():
    ok = True
    details = []
    for eps in (0.25, 0.5, 0.9):
        config = AdversaryConfig(eps=eps, v0=1.0, horizon=30)
        params = ScheduleParams(a=choose_a(1.0), num_experts=2,
                                gamma=GammaSchedule.constant(0.999), v0=1.0)
        trace = prop1_run(prot_probability_callback(params), config)
        fluc_err = float(np.max(np.abs(trace.fluc - 1 / (1 + eps / 4))))
        floor = float(np.min(trace.norm_regret_lb))
        ok = ok and fluc_err <= 1e-12 and floor >= 0.5 * (1 - eps) - 1e-12
        details.append(f"eps={eps}: fluc err {fluc_err:.1e}, floor {floor:.3f}")
    report(
        "criterion 5 (adaptive adversary pins fluctuation and regret floor)",
        ok,
        "; ".join(details),
    )


def test_acceptance_06_dual_forms():
    gen = np.random.default_rng(6000)
    worst_mu, worst_bound = 0.0, 0.0
    draws = 0
    while draws < 1000:
        a = math.exp(gen.uniform(math.log(3), math.log(100)))
        n = int(gen.integers(1, 50))
        probe = ScheduleParams(a=a, num_experts=n, gamma=GammaSchedule.constant(0.5))
        cap = min(probe.coef_A, 1.0 / probe.coef_A)
        g = float(gen.uniform(1e-6, 0.999 * min(cap, 1.0)))
        params = ScheduleParams(a=a, num_experts=n, gamma=GammaSchedule.constant(g))
        mu = mu_t(params, 1)
        alpha = 0.5 * (1 - math.log(1 / params.coef_A) / math.log(g))
        worst_mu = max(worst_mu, abs(a * g**alpha - mu) / mu)
        dv = gen.uniform(0.0, 10.0, 8)
        gb = general_bound(params, 8, dv)
        ob = optimized_bound(params, 8, dv)
        if ob > 0:
            worst_bound = max(worst_bound, abs(gb - ob) / ob)
        draws += 1
    ok = worst_mu <= 1e-10 and worst_bound <= 1e-9
    report(
        "criterion 6 (rate and bound dual forms agree)",
        ok,
        f"1000 draws: max mu gap {worst_mu:.2e} <= 1e-10, "
        f"max bound gap {worst_bound:.2e} <= 1e-9",
    )


def test_acceptance_07_expected_max():
    trials = 1_000_000
    ok = True
    details = []
    for n in (1, 2, 10, 1000):
        gen = RngSpec(7000 + n).generator()
        chunk = max(1, engine._MAX_CHUNK_ELEMS // n)
        total, total_sq, done = 0.0, 0.0, 0
        while done < trials:
            m = min(chunk, trials - done)
            maxima = np.max(sample_exponential_array((m, n), gen), axis=1)
            total += float(maxima.sum())
            total_sq += float((maxima**2).sum())
            done += m
        mean = total / trials
        var = total_sq / trials - mean**2
        se = math.sqrt(var / trials)
        h_n = sum(1.0 / k for k in range(1, n + 1))
        ok = ok and abs(mean - h_n) <= 3 * se and h_n <= expected_max_bound(n)
        details.append(f"N={n}: {mean:.4f} vs H={h_n:.4f} (3SE {3 * se:.4f})")
    report(
        "criterion 7 (expected maximum of exponentials matches harmonic numbers)",
        ok,
        "; ".join(details),
    )


def test_acceptance_08_exact_vs_mc():
    gen = np.random.default_rng(8000)
    samples = 1_000_000
    worst = 0.0
    for k in range(50):
        s = gen.normal(0, 3, 2)
        eps = float(gen.uniform(0.05, 3.0))
        exact = selection_probabilities_exact(s, eps)
        mc = selection_probabilities_mc(s, eps, samples, RngSpec(8100 + k))
        se = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / samples)
        worst = max(worst, float(np.max(np.abs(mc - exact) / se)))
    report(
        "criterion 8 (closed-form two-expert probabilities match Monte Carlo)",
        worst <= 4.0,
        f"50 pairs at 10^6 draws: max deviation {worst:.2f} SE <= 4 SE",
    )


def test_acceptance_09_trading():
    # identity and zero-sum on 100 paths
    worst_resid, zero_sum_exact = 0.0, True
    seed = 0
    for h, count in ((0.3, 34), (0.5, 33), (0.8, 33)):
        for _ in range(count):
            prices = fbm_generate(h, 4096, seed=seed)
            seed += 1
            lhs = (prices.prices[-1] - prices.prices[0]) ** 2
            worst_resid = max(worst_resid,
                              volatility_identity_check(prices) / max(1.0, lhs))
            s1, s2 = expert_gains(prices, 1.0)
            zero_sum_exact = zero_sum_exact and np.array_equal(s2, -s1)

    # derandomized learner gain vs sampled expectation on 5 paths
    params = ScheduleParams(a=choose_a(1.0), num_experts=2,
                            gamma=GammaSchedule.constant(0.01), v0=1.0)
    config = TradingConfig(c=1.0, schedule=params)
    runs = 10_000
    worst_dev = 0.0
    for k in range(5):
        prices = fbm_generate(0.8, 4096, seed=900 + k)
        _, cum = learner_gain(prices, config)
        s1, s2 = expert_gains(prices, config.c)
        losses = np.column_stack([-s1, -s2])
        totals = -batch_cumulative_losses(losses, params, runs, RngSpec(910 + k))[:, 0]
        se = totals.std(ddof=1) / math.sqrt(runs)
        worst_dev = max(worst_dev, abs(cum[-1] - totals.mean()) / se)
    ok = worst_resid <= 1e-9 and zero_sum_exact and worst_dev <= 3.0
    report(
        "criterion 9 (volatility identity, zero-sum experts, derandomized gain)",
        ok,
        f"100 paths: max relative residual {worst_resid:.2e} <= 1e-9, "
        f"zero-sum exact, learner-vs-MC max {worst_dev:.2f} SE <= 3 SE",
    )


def test_acceptance_10_poly_regime():
    T = 2**15
    runs = 64
    params = ScheduleParams(a=choose_a(1.0), num_experts=2,
                            gamma=GammaSchedule.power(1.0), v0=1.0)
    game = poly_envelope_game(2, T, RngSpec(10_000), exponent=0.1)
    v, _, _ = volume_trace(game, 1.0)
    cps = [2**11, 2**15]
    mean, _ = monte_carlo_regret(game, params, runs, RngSpec(10_001), checkpoints=cps)
    norm = [mean[i] / v[c] for i, c in enumerate(cps)]
    trend_ok = norm[1] < 0.5 * norm[0]
    summable = hannan_check(game, params, RngSpec(10_002))["square_summable"] is True
    report(
        "criterion 10 (polynomial-envelope consistency trend)",
        trend_ok and summable,
        f"normalized regret {norm[0]:.4f} @ 2^11 -> {norm[1]:.4f} @ 2^15 "
        f"(ratio {norm[1] / norm[0]:.2f} < 0.5); gamma^2 summable",
    )


def test_acceptance_11_bounded_losses():
    T, runs, n = 10_000, 2000, 5
    params = ScheduleParams(a=choose_a(1.0), num_experts=n,
                            gamma=GammaSchedule.power(1.0), v0=0.0)
    game = bounded_unit_game(n, T, RngSpec(11_000))
    mean, se = monte_carlo_regret(game, params, runs, RngSpec(11_001))
    bound = 4 * math.sqrt(7 * (1 + math.log(n)) * T)
    report(
        "criterion 11 (bounded losses give the classical sqrt(T) regret)",
        mean <= bound,
        f"mean regret {mean:.1f} <= 4 sqrt((6+eps)(1+ln N) T) = {bound:.1f}",
    )
