import decimal
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from volfpl import (
    AdversaryConfig,
    GameError,
    GammaSchedule,
    RngSpec,
    ScheduleError,
    ScheduleParams,
    alpha_t,
    choose_a,
    epsilon_t,
    fpl_ifpl_gap_bound,
    general_bound,
    ifpl_regret_bound,
    mu_t,
    mu_values,
    optimized_bound,
    poly_bound,
    probability_ratio_check,
    prot_probability_callback,
    prot_run,
    regret_bound,
)
from volfpl.perturbation import expected_max_bound
from volfpl.schedule import LOSS_MODES, _alpha_split, epsilon_values


def params_power(a=10.0, n=2, delta=1.0, **kw):
    return ScheduleParams(a=a, num_experts=n, gamma=GammaSchedule.power(delta), **kw)


def reference_general_bound(params, T, delta_v):
    """general_bound as it was: a loop over the steps in Python floats, with
    alpha_t from math.log and the split terms from Python's power."""
    c1 = 2.0 * math.expm1(3.0 / params.a)
    c2 = params.a * expected_max_bound(params.num_experts)
    total = 0.0
    for t in range(1, T + 1):
        params.require_alpha_domain(t)
        g = params.gamma(t)
        al = 0.5 * (1.0 - math.log(1.0 / params.coef_A) / math.log(g))
        total += (c1 * g ** (1.0 - al) + c2 * g**al) * delta_v[t - 1]
    return total


class TestGammaSchedule:
    def test_power_values(self):
        g = GammaSchedule.power(1.0)
        assert g(1) == 1.0
        assert g(4) == 0.25

    def test_constant(self):
        g = GammaSchedule.constant(0.3)
        assert g(1) == g(100) == 0.3

    def test_table(self):
        g = GammaSchedule.from_table([0.5, 0.25, 0.125])
        assert g(2) == 0.25
        with pytest.raises(ScheduleError):
            g(4)
        assert g.values(np.array([3, 1, 2, 2])).tolist() == [0.125, 0.5, 0.25, 0.25]
        with pytest.raises(ScheduleError, match="got 3.0"):
            g.values(np.array([3.0, 1.0]))
        assert g.values(np.arange(1, 1)).shape == (0,)
        # the vectorized form names the first bad step, as the scalar call does
        with pytest.raises(ScheduleError, match="t=4"):
            g.values(np.array([1, 4, 0, 5]))
        with pytest.raises(ScheduleError, match="got 0"):
            g.values(np.array([2, 0, 4]))
        with pytest.raises(ScheduleError, match="got -1"):
            g.values(np.arange(-1, 3))

    def test_rejects_out_of_range(self):
        with pytest.raises(ScheduleError):
            GammaSchedule.constant(0.0)
        with pytest.raises(ScheduleError):
            GammaSchedule.constant(1.5)

    def test_square_summable(self):
        assert GammaSchedule.power(1.0).square_summable() is True
        assert GammaSchedule.power(0.4).square_summable() is False
        assert GammaSchedule.constant(0.5).square_summable() is False
        assert GammaSchedule.from_table([0.5, 0.25]).square_summable() is None

    def test_config_round_trip(self):
        # every kind, through JSON: the same schedule, not only the same
        # values; an empty table given to another kind is stored as ()
        for g in (GammaSchedule.power(0.7), GammaSchedule.constant(0.3),
                  GammaSchedule.from_table([0.9, 0.5, 0.5]),
                  GammaSchedule("power", delta=2, table_values=[])):
            back = GammaSchedule.from_config(json.loads(json.dumps(g.to_config())))
            assert back == g and back.to_config() == g.to_config()
            assert back(3) == g(3)

    @pytest.mark.parametrize("kind, key", [
        ("power", "delta"), ("constant", "c"), ("table", "values"),
    ])
    def test_from_config_missing_key(self, kind, key):
        with pytest.raises(GameError, match=repr(key)):
            GammaSchedule.from_config({"kind": kind})

    @pytest.mark.parametrize("cfg, key", [
        ({"kind": "power", "delta": 1.0, "c": 0.5}, "c"),
        ({"kind": "constant", "c": 0.5, "delta": 1.0}, "delta"),
        ({"kind": "table", "values": [0.5], "detla": 1.0}, "detla"),
    ])
    def test_from_config_rejects_unknown_key(self, cfg, key):
        # a key the kind does not read used to be dropped
        with pytest.raises(GameError, match=repr(key)):
            GammaSchedule.from_config(cfg)

    @pytest.mark.parametrize("kind", [["power"], {"power": 1}, None, 1, "powr"])
    def test_from_config_rejects_unknown_kind(self, kind):
        # an unhashable kind used to raise a bare TypeError from the lookup
        with pytest.raises(ScheduleError, match="unknown gamma kind"):
            GammaSchedule.from_config({"kind": kind, "delta": 1.0})

    @pytest.mark.parametrize("build, named", [
        (lambda: GammaSchedule("power", delta=-1.0),
         r"power gamma delta must be a real number in \(0, inf\), got -1.0"),
        (lambda: GammaSchedule("constant", c=5.0),
         r"constant gamma c must be a real number in \(0, 1\), got 5.0"),
        (lambda: GammaSchedule("cubic"), "unknown gamma kind 'cubic'"),
        (lambda: GammaSchedule("table", table_values=(0.5, 0.9)), "non-increasing"),
        (lambda: ScheduleParams(a=3.0, num_experts=2.5, gamma=GammaSchedule.power(1.0)),
         "got 2.5"),
        # a field the kind does not read: the schedule used to compare
        # unequal to GammaSchedule.power(1.0), and its config dropped c
        (lambda: GammaSchedule("power", delta=1.0, c=0.5), "power gamma does not read c, got 0.5"),
        (lambda: GammaSchedule("table", table_values=[0.5], delta=2.0),
         "table gamma does not read delta, got 2.0"),
        (lambda: GammaSchedule.from_table([]), "empty gamma table"),
        (lambda: GammaSchedule.from_table([1.5]),
         r"gamma table entry 1 must be a real number in \(0, 1\], got 1.5"),
        (lambda: ScheduleParams(a=3.0, num_experts=2, gamma=GammaSchedule.power(1.0), v0=-1.0),
         r"v0 must be a real number in \[0, inf\), got -1.0"),
        (lambda: ScheduleParams(a=3.0, num_experts=2, gamma=GammaSchedule.power(1.0),
                                loss_mode="x"), "unknown loss mode 'x'"),
        (lambda: ScheduleParams.from_config({"N": 2, "gamma": {"kind": "power", "delta": 1.0}}),
         "schedule config needs 'a' or 'target_eps'"),
        # a number raised a bare TypeError, and a string was read one
        # character at a time
        (lambda: GammaSchedule.from_config({"kind": "table", "values": 0.5}),
         "gamma table must be a 1-d sequence of numbers, got 0.5"),
        (lambda: GammaSchedule.from_config({"kind": "table", "values": "0.5"}),
         "gamma table must be a 1-d sequence of numbers, got '0.5'"),
        # a row of a 2-d table, or an entry that is not a number, fails as an entry
        (lambda: GammaSchedule.from_table([[0.5], [0.25]]), r"gamma table entry 1 .* got \[0.5\]"),
        (lambda: GammaSchedule.from_table([0.5, "x"]), "gamma table entry 2 .* got 'x'"),
        # an array in a field the kind does not read failed in the compare
        # with numpy's bare "truth value of an array is ambiguous"
        (lambda: GammaSchedule("power", delta=1.0, c=np.array([1.0, 2.0])),
         r"power gamma does not read c, got array\(\[1., 2.\]\)"),
        # target_eps was dropped for a
        (lambda: ScheduleParams.from_config({"a": 3.0, "target_eps": 0.01, "N": 2,
                                             "gamma": {"kind": "power", "delta": 1.0}}),
         "schedule config needs 'a' or 'target_eps', not both"),
    ], ids=["power-negative-delta", "constant-above-one", "unknown-kind", "table-increasing",
            "fractional-experts", "power-reads-no-c", "table-reads-no-delta", "table-empty",
            "table-above-one", "params-negative-v0", "params-unknown-loss-mode",
            "params-config-without-a", "table-number", "table-string", "table-2d",
            "table-non-number", "power-reads-no-c-array", "params-config-a-and-target-eps"])
    def test_constructor_checks_as_the_classmethods(self, build, named):
        # the dataclass constructors used to take these: power gave gamma(2)
        # = 2, constant gave 5, and an unknown kind failed only at first use
        with pytest.raises(ScheduleError, match=named):
            build()

    def test_constructor_stores_floats(self):
        g = GammaSchedule("table", table_values=[1, np.float32(0.5)])
        assert g.table_values == (1.0, 0.5) and all(type(v) is float for v in g.table_values)
        assert GammaSchedule("power", delta=1) == GammaSchedule.power(1.0)
        p = ScheduleParams(a=3.0, num_experts=np.int64(4), gamma=GammaSchedule.power(1.0))
        assert type(p.num_experts) is int and p.num_experts == 4

    def test_values_vectorized(self):
        g = GammaSchedule.power(0.5)
        ts = np.arange(1, 11)
        assert g.values(ts).tobytes() == np.array([g(int(t)) for t in ts]).tobytes()

    @pytest.mark.parametrize("g", [GammaSchedule.power(1.0), GammaSchedule.constant(0.5)])
    def test_values_reject_steps_below_one(self, g):
        # as the scalar call does; power used to give inf and constant c
        with pytest.raises(ScheduleError, match="got 0"):
            g.values(np.array([3, 0, -1]))


class TestAlpha:
    def test_reference_value(self):
        # a = 10, N = 2, gamma(t) = 1/t, t = 100
        p = params_power()
        assert alpha_t(p, 100) == pytest.approx(0.84594, abs=1e-5)

    def test_domain_violation_raises(self):
        # gamma(1) = 1 makes the defining ratio ill-posed
        with pytest.raises(ScheduleError):
            alpha_t(params_power(), 1)

    def test_alpha_in_unit_interval_when_defined(self):
        p = ScheduleParams(a=10.0, num_experts=5, gamma=GammaSchedule.constant(0.01))
        a1 = alpha_t(p, 1)
        assert 0.0 < a1 < 1.0


class TestMu:
    def test_reference_value(self):
        p = params_power()
        assert mu_t(p, 100) == pytest.approx(0.2032892, abs=1e-6)

    def test_total_form_at_t1(self):
        # closed form stays finite even where alpha is undefined
        p = params_power()
        coef = math.sqrt(2 * p.a * (math.exp(3 / p.a) - 1) / (1 + math.log(2)))
        assert mu_t(p, 1) == pytest.approx(coef)

    @settings(deadline=None)
    @given(data=st.data(), a=st.floats(3.0, 100.0), n=st.integers(1, 50),
           kind=st.sampled_from(["power", "constant", "table"]))
    def test_dual_form_agreement(self, data, a, n, kind):
        # a * gamma(t)^alpha_t must match the closed form wherever alpha
        # exists: gamma(t) below min(A, 1/A)
        A = ScheduleParams(a=a, num_experts=n, gamma=GammaSchedule.constant(0.5)).coef_A
        cap = min(A, 1.0 / A)
        below = st.floats(1e-9, 0.999).map(lambda f: f * cap)
        if kind == "power":
            delta = data.draw(st.floats(0.1, 3.0))
            t = math.floor(cap ** (-1.0 / delta)) + 1 + data.draw(st.integers(0, 10**6))
            gamma = GammaSchedule.power(delta)
        elif kind == "constant":
            gamma, t = GammaSchedule.constant(data.draw(below)), data.draw(st.integers(1, 10**6))
        else:
            values = sorted(data.draw(st.lists(below, min_size=1, max_size=20)), reverse=True)
            gamma, t = GammaSchedule.from_table(values), data.draw(st.integers(1, len(values)))
        p = ScheduleParams(a=a, num_experts=n, gamma=gamma)
        assume(p.alpha_domain_ok(t))
        power_form = a * p.gamma(t) ** alpha_t(p, t)
        assert math.isclose(mu_t(p, t), power_form, rel_tol=1e-10)

    def test_mu_values_matches_scalar(self):
        p = params_power(n=5)
        mus = mu_values(p, 20)
        assert mus.tobytes() == np.array([mu_t(p, t) for t in range(1, 21)]).tobytes()

    @pytest.mark.parametrize("gamma", [GammaSchedule.constant(0.03), GammaSchedule.power(0.7),
                                       GammaSchedule.from_table([0.5, 0.25, 0.25, 1e-3]),
                                       GammaSchedule.power(1.0),
                                       GammaSchedule.from_table(np.geomspace(0.9, 1e-4, 5000))],
                             ids=["constant", "power", "table", "power-1", "long-table"])
    def test_mu_values_matches_scalar_for_every_kind(self, gamma):
        # every scalar form is one step of its array form, byte for byte:
        # gamma(t), mu_t, eps_t and, where the alpha domain holds, alpha_t
        # (Python's float power once gave other last bits than numpy's, at
        # t = 6 for delta = 0.7 and at t = 1923 for delta = 1)
        p = ScheduleParams(a=7.0, num_experts=3, gamma=gamma)
        last = len(gamma.table_values) if gamma.kind == "table" else 5000
        for T in sorted({0, 1, min(4, last), last}):
            ts = np.arange(1, T + 1)
            assert gamma.values(ts).tobytes() == np.array([gamma(t) for t in ts]).tobytes()
            want = np.array([mu_t(p, t) for t in range(1, T + 1)], dtype=float)
            assert mu_values(p, T).tobytes() == want.tobytes()
            vol = np.linspace(0.0, 50.0, T)
            want = np.array([epsilon_t(p, t, v) for t, v in zip(ts, vol)], dtype=float)
            assert epsilon_values(mu_values(p, T), vol).tobytes() == want.tobytes()
            inside = np.array([t for t in ts if p.alpha_domain_ok(t)], dtype=int)
            want = np.array([alpha_t(p, t) for t in inside], dtype=float)
            got = _alpha_split(p, gamma.values(inside), inside[0] if len(inside) else 1)[0]
            assert got.tobytes() == want.tobytes()
        assert len(inside) > 0

    @pytest.mark.parametrize("a", [5.5, np.float32(5.5), 5.5, 5, 5.0, np.array(5.0)],
                             ids=["float", "float32", "float-again", "int", "float-5", "0-d"])
    def test_cached_coefficient_is_the_formula(self, a):
        # the coefficient is formed once per params object; a float32, int
        # or 0-d array a is stored as the equal float and gets the bits of the
        # formula formed afresh at that float
        p = ScheduleParams(a=a, num_experts=3, gamma=GammaSchedule.constant(0.25))
        assert type(p.a) is float and p.a == a
        a = float(a)
        coef = math.sqrt(2.0 * a * math.expm1(3.0 / a) / (1.0 + math.log(3)))
        assert mu_t(p, 1) == coef * math.sqrt(0.25)


class TestEpsilon:
    def test_reference_value(self):
        p = params_power()
        assert epsilon_t(p, 100, 10.0) == pytest.approx(0.4919096, abs=1e-6)

    def test_zero_volume_gives_infinity(self):
        assert epsilon_t(params_power(), 5, 0.0) == math.inf

    def test_monotone_in_volume(self):
        p = params_power()
        assert epsilon_t(p, 50, 5.0) > epsilon_t(p, 50, 50.0)

    def test_rate_overflow_raises(self):
        # v = 1.5e308 is finite, but mu_1 v with mu_1 > 1 overflows: the rate
        # would round to 0
        p = params_power(a=choose_a(1.0))
        assert mu_t(p, 1) > 1
        with pytest.raises(GameError, match="step 1:"):
            epsilon_t(p, 1, 1.5e308)
        with pytest.raises(GameError, match="step 1:"):
            prot_probability_callback(p)(1, np.zeros(2), 1.5e308)
        with pytest.raises(GameError, match="step 7:"):
            epsilon_values(np.full(3, mu_t(p, 1)), [1.0, 1.0, 1.5e308], step=5)

    def test_rate_underflow_at_a_positive_volume_raises(self):
        # v = 5e-324 is positive, but 1/(mu_1 v) overflows: the rate was inf,
        # which reads as the zero-volume case and follows the leader
        p = params_power(a=choose_a(1.0))
        named = r"^rate 1/\(mu_t v\) is inf at step {}: v > 0 but"
        with pytest.raises(GameError, match=named.format(1)):
            epsilon_t(p, 1, 5e-324)
        with pytest.raises(GameError, match=named.format(1)):
            prot_probability_callback(p)(1, np.zeros(2), 5e-324)
        with pytest.raises(GameError, match=named.format(7)):
            epsilon_values(np.full(3, mu_t(p, 1)), [0.0, 1.0, 5e-324], step=5)
        # a zero volume is still follow the leader, alone or in an array
        assert epsilon_values(np.full(2, mu_t(p, 1)), [0.0, 1.0])[0] == math.inf

    def test_gamma_underflow_raises(self):
        # gamma(t) = t^-400 underflows to 0 from t = 7 on, leaving mu_t = 0
        p = params_power(a=choose_a(1.0), delta=400.0)
        gamma = GammaSchedule.power(400.0)
        assert gamma(6) > 0 and gamma(7) == 0
        with pytest.raises(GameError, match="step 10:"):
            mu_t(p, 10)
        with pytest.raises(GameError, match="step 10:"):
            alpha_t(p, 10)
        with pytest.raises(GameError, match="step 10:"):
            epsilon_t(p, 10, 1.0)
        with pytest.raises(GameError, match="step 7:"):
            mu_values(p, 10)
        with pytest.raises(GameError, match="step 10:"):
            probability_ratio_check([0.0, 1.0], [0.0, 0.0], p, 10, 1.0, 1.0)

    def test_one_step_of_epsilon_values(self):
        p = params_power()
        vol = np.array([0.0, 0.5, 3.0, 1e300])
        eps = epsilon_values(mu_values(p, 4), vol)
        assert eps.tolist() == [epsilon_t(p, t, v) for t, v in zip(range(1, 5), vol)]
        assert eps[0] == math.inf
        # a run's rates are the same doubles: gamma(t) = 1/t over 2000 steps
        # (t = 1923 is where Python's and numpy's power once disagreed)
        p = params_power(a=choose_a(1.0), v0=1.0)
        rec = prot_run(np.random.default_rng(0).uniform(-1, 1, (2000, 2)), p, rng=RngSpec(0))
        v_prev = np.concatenate(([p.v0], rec.v[:-1]))
        want = np.array([epsilon_t(p, t, v) for t, v in zip(range(1, 2001), v_prev)])
        assert rec.eps.tobytes() == want.tobytes()


class TestChooseA:
    def test_general_reference(self):
        a = choose_a(1.0)
        assert 2 * a * (math.exp(3 / a) - 1) <= 7.0
        assert a == pytest.approx(9.97, abs=0.05)

    def test_nonnegative_hits_lower_endpoint(self):
        # a(e^{2/a} - 1) at a = 3 is already below 3, so a = 3 is returned
        assert choose_a(1.0, loss_mode="nonnegative") == 3.0

    def test_tightness(self):
        for eps in (0.1, 0.5, 2.0):
            a = choose_a(eps)
            f = 2 * a * (math.exp(3 / a) - 1)
            assert f <= 6 + eps + 1e-9
            assert f >= 6 + eps - 1e-3

    def test_rejects_nonpositive(self):
        with pytest.raises(ScheduleError):
            choose_a(0.0)


class TestBounds:
    def test_regret_bound_hand_value(self):
        # N = 2, constant delta_v = 1, gamma(t) = 1/t, T = 4:
        # 2 sqrt(7 * (1 + ln 2)) * (1 + 1/sqrt2 + 1/sqrt3 + 1/2)
        p = params_power(a=choose_a(1.0))
        dv = np.ones(4)
        expect = 2 * math.sqrt(7 * (1 + math.log(2))) * sum(
            t ** -0.5 for t in range(1, 5)
        )
        assert regret_bound(p, 4, dv, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_nonnegative_constant(self):
        p = params_power(a=3.0, loss_mode="nonnegative")
        dv = np.ones(3)
        expect = 2 * math.sqrt(3 * (1 + math.log(2))) * sum(
            t ** -0.5 for t in range(1, 4)
        )
        assert regret_bound(p, 3, dv, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_general_equals_optimized(self):
        # alpha_t is exactly the optimizer of the two-term bound, so both
        # evaluations agree whenever alpha_t is defined: N from 1 (ln N = 0)
        # and gamma over the whole alpha domain, up to 0.999 min(A, 1/A)
        gen = np.random.default_rng(21)
        for _ in range(1000):
            a = math.exp(gen.uniform(math.log(3), math.log(100)))
            n = int(gen.integers(1, 50))
            probe = ScheduleParams(a=a, num_experts=n, gamma=GammaSchedule.constant(0.5))
            cap = min(probe.coef_A, 1.0 / probe.coef_A)
            g = GammaSchedule.constant(gen.uniform(1e-6, 0.999 * cap))
            p = ScheduleParams(a=a, num_experts=n, gamma=g)
            dv = gen.uniform(0.0, 10.0, 20)
            gb = general_bound(p, 20, dv)
            ob = optimized_bound(p, 20, dv)
            assert gb == pytest.approx(ob, rel=1e-9)

    def test_general_bound_matches_the_step_loop(self):
        # the vectorized bound against the per-step loop it replaced, on
        # random constant and table schedules inside the alpha domain: the
        # same running sum, with alpha_t and the split terms from numpy's
        # log and power, within 1e-15 relative
        gen = np.random.default_rng(22)
        for k in range(200):
            a = math.exp(gen.uniform(math.log(3), math.log(100)))
            n = int(gen.integers(2, 50))
            probe = ScheduleParams(a=a, num_experts=n, gamma=GammaSchedule.constant(0.5))
            cap = min(probe.coef_A, 1.0 / probe.coef_A)
            T = int(gen.integers(1, 300))
            if k % 2:
                g = GammaSchedule.constant(cap * gen.uniform(0.01, 0.999))
            else:
                g = GammaSchedule.from_table(np.sort(cap * gen.uniform(1e-6, 0.999, T))[::-1])
            p = ScheduleParams(a=a, num_experts=n, gamma=g)
            dv = gen.uniform(0.0, 2.0, T)
            dv[gen.uniform(size=T) < 0.2] = 0.0
            want = reference_general_bound(p, T, dv)
            assert general_bound(p, T, dv) == pytest.approx(want, rel=1e-15, abs=0)
        assert general_bound(p, 0, []) == reference_general_bound(p, 0, []) == 0.0

    @pytest.mark.parametrize("gamma, T", [
        (GammaSchedule.power(1.0), 5),
        (GammaSchedule.constant(0.5), 3),
        (GammaSchedule.from_table([0.9, 0.01]), 2),
        (GammaSchedule.from_table([0.9, 0.01]), 4),
        (GammaSchedule.from_table([0.03, 0.01]), 4),
    ], ids=["power", "constant", "table", "table-outside-and-short", "table-short"])
    def test_general_bound_raises_as_the_step_loop(self, gamma, T):
        # a = 10, N = 2: min(A, 1/A) = 0.041
        p = ScheduleParams(a=10.0, num_experts=2, gamma=gamma)
        with pytest.raises(GameError) as want:
            reference_general_bound(p, T, np.ones(T))
        with pytest.raises(GameError) as got:
            general_bound(p, T, np.ones(T))
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    def test_ifpl_bound(self):
        p = params_power(n=3)
        dv = np.arange(1, 6, dtype=float)
        mus = mu_values(p, 5)
        assert ifpl_regret_bound(p, dv) == pytest.approx(
            (1 + math.log(3)) * float(mus @ dv)
        )

    def test_gap_bound_positive(self):
        p = params_power(n=3)
        assert fpl_ifpl_gap_bound(p, np.ones(10)) > 0

    @pytest.mark.parametrize("gamma", [
        GammaSchedule.power(0.7),
        GammaSchedule.constant(0.01),
        GammaSchedule.from_table(np.linspace(1.0, 0.05, 30)),
    ], ids=["power", "constant", "table"])
    def test_half_of_optimized_bound(self, gamma):
        # gamma^{1-alpha_t} = a gamma / mu_t and gamma^{alpha_t} = mu_t / a, so
        # the gap and IFPL bounds are both half the tuned bound for every gamma
        gen = np.random.default_rng(41)
        ts = np.arange(1, 31)
        for n in (2, 10):
            for a in (3.0, choose_a(1.0), 40.0):
                p = ScheduleParams(a=a, num_experts=n, gamma=gamma)
                dv = gen.uniform(0.0, 5.0, 30)
                mu = mu_values(p, 30)
                half = optimized_bound(p, 30, dv) / 2
                gap_direct = 2 * math.expm1(3 / a) * float(np.sum(a * gamma.values(ts) / mu * dv))
                ifpl_direct = (1 + math.log(n)) * float(np.sum(mu * dv))
                for value in (fpl_ifpl_gap_bound(p, dv), ifpl_regret_bound(p, dv),
                              gap_direct, ifpl_direct):
                    assert value == pytest.approx(half, rel=1e-12)

    @pytest.mark.parametrize("bound", [
        lambda p, dv: regret_bound(p, 3, dv, 1.0),
        lambda p, dv: optimized_bound(p, 3, dv),
        fpl_ifpl_gap_bound,
        ifpl_regret_bound,
        # general_bound needs gamma inside the alpha domain: a = 10, N = 2 gives
        # min(A, 1/A) = 0.041
        lambda p, dv: general_bound(
            ScheduleParams(a=p.a, num_experts=p.num_experts, gamma=GammaSchedule.constant(0.01)),
            3, dv),
    ], ids=["regret", "optimized", "gap", "ifpl", "general"])
    def test_rejects_bad_delta_v(self, bound):
        p = params_power()
        assert bound(p, [1.0, 0.0, 2.0]) > 0
        for dv in ([1.0, -0.5, 2.0], [1.0, float("nan"), 2.0], [[1.0, 0.0, 2.0]]):
            with pytest.raises(ScheduleError):
                bound(p, dv)

    def test_rejects_wrong_length(self):
        p = params_power()
        with pytest.raises(ScheduleError, match="length 5"):
            optimized_bound(p, 5, [1.0])
        with pytest.raises(ScheduleError, match="length 5"):
            regret_bound(p, 5, np.ones(4), 1.0)

    def test_poly_bound_value(self):
        # N = 2, T = 1024, alpha = 0.1, delta = 1: exponent 1 - 1/2 + 0.1
        val = poly_bound(2, 1024, 0.1, 1.0, 1.0)
        assert val == pytest.approx(
            2 * math.sqrt(7 * (1 + math.log(2))) * 1024 ** 0.6, rel=1e-12
        )


class TestScheduleParams:
    def test_from_config_rejects_unknown_key(self):
        # a misspelt loss mode used to build a general schedule
        with pytest.raises(GameError, match="'loss-mode'"):
            ScheduleParams.from_config({"target_eps": 1.0, "N": 2, "loss-mode": "nonnegative",
                                        "gamma": {"kind": "power", "delta": 1.0}})

    @pytest.mark.parametrize("rate", [{"a": 5.0}, {"target_eps": 1.0}])
    def test_omitted_options_are_the_constructors_defaults(self, rate):
        # v0 and the loss mode are passed on only when given
        gamma = {"kind": "power", "delta": 1.0}
        got = ScheduleParams.from_config({**rate, "N": 3, "gamma": gamma})
        want = ScheduleParams(a=rate.get("a") or choose_a(1.0), num_experts=3,
                              gamma=GammaSchedule.power(1.0))
        assert got == want and got.to_config() == want.to_config()

    def test_from_config_with_target_eps(self):
        p = ScheduleParams.from_config(
            {"target_eps": 1.0, "N": 2, "gamma": {"kind": "power", "delta": 1.0}}
        )
        assert p.a == pytest.approx(choose_a(1.0))

    @pytest.mark.parametrize("loss_mode, eps", [
        ("general", 0.01), ("general", 0.5), ("general", 1.0), ("general", 4.0),
        ("nonnegative", 0.01), ("nonnegative", 0.5), ("nonnegative", 0.8),
    ])
    def test_target_eps_inverts_choose_a(self, loss_mode, eps):
        p = ScheduleParams.from_config({"target_eps": eps, "N": 3, "loss_mode": loss_mode,
                                        "gamma": {"kind": "power", "delta": 1.0}})
        assert p.a > 3.0
        assert abs(p.target_eps - eps) <= 1e-12
        # derived, not stored: the config and equality are those of (a, N, gamma, v0, mode)
        assert "target_eps" not in p.to_config()
        assert ScheduleParams.from_config(p.to_config()) == p

    @pytest.mark.parametrize("loss_mode, eps", [("general", 5.0), ("nonnegative", 1.0)])
    def test_target_eps_at_lower_endpoint(self, loss_mode, eps):
        # choose_a returns a = 3 once f(3) <= K + eps; the schedule then holds
        # the bound with the smaller eps f(3) - K
        p = ScheduleParams.from_config({"target_eps": eps, "N": 2, "loss_mode": loss_mode,
                                        "gamma": {"kind": "power", "delta": 1.0}})
        assert p.a == 3.0
        f3, k = (3 * math.expm1(2 / 3), 2.0) if loss_mode == "nonnegative" else (
            6 * math.expm1(1.0), 6.0)
        assert p.target_eps == f3 - k
        assert 0 < p.target_eps < eps

    @staticmethod
    def _decimal_target_eps(a, loss_mode):
        """2a(e^{3/a}-1) - 6, or a(e^{2/a}-1) - 2, of the double ``a`` to 80
        digits: the precision grows with a, as about log10(a) leading
        digits of the rate cancel."""
        k, c = (1, 2) if loss_mode == "nonnegative" else (2, 3)
        with decimal.localcontext() as ctx:
            ctx.prec = 80 + 2 * max(0, decimal.Decimal(a).adjusted())
            a = decimal.Decimal(a)
            return float(k * a * ((c / a).exp() - 1) - k * c)

    # target_eps is the rate's excess over 6 (2): where that is small the
    # series is summed instead, so no a loses more than a few ulps; the
    # bound leaves room for the ~9x cancellation just above x = 1/4
    @pytest.mark.parametrize("loss_mode", LOSS_MODES)
    def test_target_eps_against_decimal(self, loss_mode):
        grid = np.geomspace(3.0, 1e300, 301).tolist()
        edges = [12.0, 8.0, choose_a(1.0, loss_mode), 1e15, 1e17]
        for a in grid + edges + [math.nextafter(e, d) for e in edges for d in (0, math.inf)]:
            got = params_power(a=a, loss_mode=loss_mode).target_eps
            want = self._decimal_target_eps(a, loss_mode)
            assert abs(got - want) <= 32 * 2.0 ** -52 * want, (a, got, want)

    @pytest.mark.parametrize("a", [3.0, 5.0, 40.0, 1e4])
    def test_main_bound_at_own_eps_is_optimized_bound(self, a):
        p = params_power(a=a, n=4)
        dv = np.linspace(0.5, 3.0, 6)
        assert regret_bound(p, 6, dv, p.target_eps) == pytest.approx(
            optimized_bound(p, 6, dv), rel=1e-12)

    def test_input_errors_are_game_errors(self):
        # one error family: schedule and adversary input errors are GameErrors
        with pytest.raises(GameError):
            choose_a(-1.0)
        with pytest.raises(GameError):
            AdversaryConfig(eps=2.0)

    def test_require_alpha_domain(self):
        good = ScheduleParams(a=10.0, num_experts=2, gamma=GammaSchedule.constant(0.01))
        good.require_alpha_domain()
        with pytest.raises(ScheduleError):
            params_power().require_alpha_domain()

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ScheduleError):
            ScheduleParams(a=0.0, num_experts=2, gamma=GammaSchedule.power(1.0))

    @pytest.mark.parametrize("loss_mode", LOSS_MODES)
    def test_least_a_whose_exponential_is_finite(self, loss_mode):
        # math.expm1(3/a) overflowed in coef_A, mu_t and target_eps: a bare
        # OverflowError.  The least such a is bisected with expm1 itself.
        def overflows(a):
            try:
                math.expm1(3.0 / a)
            except OverflowError:
                return True
            return False
        lo, hi = 1e-3, 1e-2
        assert overflows(lo) and not overflows(hi)
        while math.nextafter(lo, math.inf) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if overflows(mid) else (lo, mid)
        p = params_power(a=hi, loss_mode=loss_mode)
        assert math.isfinite(p.target_eps) and math.isfinite(mu_t(p, 1))
        assert not p.alpha_domain_ok(1)
        for a in (lo, 1e-3, 1e-320, 5e-324):
            message = rf"^a must leave e\^\(3/a\) finite, got {a!r}$"
            with pytest.raises(ScheduleError, match=message):
                params_power(a=a, loss_mode=loss_mode)

    def test_config_round_trip(self):
        p = ScheduleParams(a=5.0, num_experts=4, gamma=GammaSchedule.constant(0.1),
                           v0=2.0, loss_mode="nonnegative")
        back = ScheduleParams.from_config(p.to_config())
        assert back == p
