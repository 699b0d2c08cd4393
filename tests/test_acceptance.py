"""Acceptance gate: the eight headline checks, one printed verdict each.

Criteria 5 through 7 run under the measurement configuration (exact
forecasts, zero process noise) so the screened guarantees are checked
against the mechanism itself rather than residual sensor noise; the
realistic noisy defaults are exercised throughout the module suites.
"""

import copy
import time

import numpy as np
import pytest

from orchardrl.agent.policy import SquashedGaussianPolicy
from orchardrl.agent.ppo import RolloutBatch, gradient_check
from orchardrl.controllers import EtController, SensorController, SensorControllerConfig
from orchardrl.env import RewardParams, reward
from orchardrl.evalharness import (
    build_controller,
    qos,
    run_roster,
    train_policy_for_run,
    water_savings,
)
from orchardrl.hydrology import derive_levels
from orchardrl.hydrology import testbed_profile as orchard_profile
from orchardrl.predictor import TREE1_MODEL, ObservationRow, fit, predict_next
from orchardrl import runconfig
from orchardrl.runconfig import default_run_config
from orchardrl.weather import WeatherDay

from conftest import obs_row


def verdict(k: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{status}] acceptance {k}/8: {label}{suffix}")
    return ok


@pytest.fixture(scope="session")
def default_run():
    return default_run_config()


@pytest.fixture(scope="session")
def measurement_run(default_run):
    return runconfig.measurement_run(default_run)


@pytest.fixture(scope="session")
def trained_full(default_run):
    t0 = time.monotonic()
    policy, curve = train_policy_for_run(default_run)
    return policy, curve, time.monotonic() - t0


@pytest.fixture(scope="session")
def trained_mad(default_run):
    policy, curve = train_policy_for_run(
        runconfig.with_reward_kind(default_run, "mad-only"))
    return policy, curve


@pytest.fixture(scope="session")
def roster(measurement_run, trained_full, trained_mad):
    run = measurement_run
    controllers = {
        "et": build_controller(run, "et"),
        "sensor": build_controller(run, "sensor"),
        "rl": build_controller(run, "rl", policy=trained_full[0]),
        "rl-mad": build_controller(run, "rl-mad", policy=trained_mad[0]),
        "rl-noshield": build_controller(run, "rl-noshield",
                                        policy=trained_full[0]),
    }
    return run_roster(run, controllers)


def test_soil_levels():
    lv = derive_levels(orchard_profile())
    ok = abs(lv.v_fc - 7.08) <= 0.02 and abs(lv.v_mad - 4.72) <= 0.02
    assert verdict(1, "calibrated soil water levels", ok,
                   f"v_fc={lv.v_fc:.3f} v_mad={lv.v_mad:.3f}")


def test_system_identification():
    rng = np.random.default_rng(2)
    rows, v = [], 6.0
    for _ in range(60):
        a = float(rng.uniform(0.0, 0.4))
        p = float(rng.uniform(0.0, 0.3)) if rng.random() < 0.2 else 0.0
        e = float(rng.uniform(0.08, 0.28))
        v_next = max(0.0, predict_next(TREE1_MODEL, v, a, p, e)
                     + float(rng.normal(0.0, 0.01)))
        rows.append(ObservationRow(soil_water=v, irrigation=a, precip=p,
                                   et=e, soil_water_next=v_next))
        v = v_next
    model = fit(rows)
    ok = (abs(model.c1 - TREE1_MODEL.c1) <= 0.05
          and abs(model.c2 - TREE1_MODEL.c2) <= 0.05
          and abs(model.c3 - TREE1_MODEL.c3) <= 0.05
          and abs(model.b - TREE1_MODEL.b) <= 0.02
          and model.r_squared >= 0.97)
    assert verdict(2, "water balance identified from a noisy log", ok,
                   f"c1={model.c1:.3f} c2={model.c2:.3f} "
                   f"r2={model.r_squared:.3f}")


def test_gradient_check():
    policy = SquashedGaussianPolicy(obs_dim=5, n_regions=1, a_max=0.54,
                                    hidden=(4,), seed=0)
    rng = np.random.default_rng(1)
    obs = rng.normal(size=(8, 5))
    _, pre, logp, log_jac = policy.sample(obs, rng)
    batch = RolloutBatch(obs=obs, pre_squash=pre, log_jac=log_jac,
                         old_log_prob=logp, returns=rng.normal(size=8))
    err = gradient_check(policy, batch)
    assert verdict(3, "analytic policy gradient matches finite differences",
                   err < 1e-4, f"max rel err {err:.2e}")


def test_training_convergence(default_run, trained_full):
    _, curve, seconds = trained_full
    window = default_run.trainer.convergence_window
    totals = [pt.total_reward for pt in curve]
    early = float(np.mean(totals[:window]))
    late = float(np.mean(totals[-window:]))
    ok = (len(curve) < default_run.trainer.max_iterations
          and seconds < 1800.0
          and late > early)
    assert verdict(4, "training converges within budget", ok,
                   f"{len(curve)} iterations, {seconds:.0f}s, "
                   f"mean reward {early:.1f} -> {late:.1f}")


def test_shield_soundness(measurement_run, trained_full, roster, levels):
    # the shielded trained agent never enters stress
    below_trained, _ = qos(roster.entries["rl"], levels)

    # worst-case agent: a trained snapshot rewired to always propose ~zero
    adversary = copy.deepcopy(trained_full[0])
    adversary.net.weights[-1][:] = 0.0
    adversary.net.biases[-1][:] = -8.0

    probes = run_roster(measurement_run, {
        "adversary-shielded": build_controller(measurement_run, "rl",
                                               policy=adversary),
        "adversary-bare": build_controller(measurement_run, "rl-noshield",
                                           policy=adversary),
    }).entries
    shielded = probes["adversary-shielded"]
    below_bare, _ = qos(probes["adversary-bare"], levels)
    ok = (below_trained == 0 and below_bare > 0
          and shielded.shield_trigger_days > 0)
    assert verdict(5, "shield keeps the agent out of stress", ok,
                   f"trained+shield stress days {below_trained}, "
                   f"adversary unshielded {below_bare}, "
                   f"adversary triggers {shielded.shield_trigger_days}")


def test_water_savings(roster, levels):
    rl = roster.entries["rl"]
    et = roster.entries["et"]
    savings = water_savings(rl, et)
    below, _ = qos(rl, levels)
    ok = savings >= 5.0 and below == 0
    assert verdict(6, "saves water over the loss-replacement baseline", ok,
                   f"savings {savings:.1f}%, stress days {below}")


def test_reward_ablation(roster):
    full = roster.entries["rl"].total_water
    ablated = roster.entries["rl-mad"].total_water
    savings = water_savings(roster.entries["rl"], roster.entries["rl-mad"])
    ok = full < ablated and savings > 0.0
    assert verdict(7, "over-irrigation terms curb water use", ok,
                   f"full {full:.1f} in vs stress-only {ablated:.1f} in "
                   f"({savings:.1f}% less)")


def test_baseline_behaviors(default_run, levels):
    import datetime as dt

    def state_for(v, et, precip):
        w = WeatherDay(date=dt.date(2020, 7, 1), et=et, precip=precip,
                       t_max=85.0, t_avg=70.0, t_min=55.0, h_max=90.0,
                       h_avg=60.0, h_min=30.0, solar=600.0, wind=4.0,
                       predicted_et_next=et, forecast_precip_next=precip)
        return obs_row(v, w)

    # loss replacement applies one uniform depth, whatever the soil state
    et_ctl = EtController(n_regions=3, a_max=default_run.env.a_max)
    rng = np.random.default_rng(0)
    uniform = True
    for _ in range(1000):
        et = float(rng.uniform(0.0, 0.5))
        precip = float(rng.uniform(0.0, 0.4))
        a = et_ctl.decide(state_for(rng.uniform(3.0, 8.0, size=3),
                                    et, precip))
        expected = min(default_run.env.a_max, max(0.0, et - precip))
        uniform &= bool(np.all(a == a[0])) and a[0] == pytest.approx(expected)

    # threshold watering cycles: fill, then a dry stretch, then refill
    sensor = SensorController(SensorControllerConfig(),
                              fill_gain=TREE1_MODEL.c2, a_max=10.0)
    v, watered = 6.0, []
    for _ in range(40):
        a = sensor.decide(state_for([v], 0.2, 0.0))[0]
        watered.append(a > 0.0)
        v = predict_next(TREE1_MODEL, v, a, 0.0, 0.2)
    events = [d for d, w in enumerate(watered) if w]
    cycles = len(events) >= 2 and all(b - a >= 4
                                      for a, b in zip(events, events[1:]))

    params = RewardParams()
    r_vals = (reward(np.array([7.5]), np.array([0.3]), levels, params),
              reward(np.array([5.5]), np.array([0.2]), levels, params),
              reward(np.array([4.5]), np.array([0.3]), levels, params))
    rewards_ok = (r_vals[0] == pytest.approx(-3.63, abs=1e-6)
                  and r_vals[1] == pytest.approx(-0.6, abs=1e-6)
                  and r_vals[2] == pytest.approx(-2.56, abs=1e-6))

    ok = uniform and cycles and rewards_ok
    assert verdict(8, "baseline controllers and reward behave as documented",
                   ok, f"uniform={uniform} cycles={cycles} "
                       f"rewards={rewards_ok}")
