"""Controller decisions: baselines, policy deployment, shield wrapping."""

import datetime as dt

import numpy as np
import pytest

from orchardrl.agent.policy import SquashedGaussianPolicy
from orchardrl.controllers import (
    SOURCE_AGENT,
    SOURCE_ET,
    SOURCE_SENSOR,
    SOURCE_SHIELD,
    ConstantController,
    EtController,
    RlController,
    SensorController,
    SensorControllerConfig,
    ShieldedController,
)
from orchardrl.env import NormalizationStats
from orchardrl.evalharness import run_roster
from orchardrl.hydrology import derive_levels
from orchardrl.hydrology import testbed_profile as orchard_profile
from orchardrl.predictor import TREE1_MODEL, predict_next
from orchardrl.runconfig import build_season_weather, default_run_config
from orchardrl.weather import WeatherDay

from conftest import obs_row

A_MAX = 0.54


def make_day(et=0.15, precip=0.0, et_next=0.15, precip_next=0.0,
             date=dt.date(2020, 7, 1)):
    return WeatherDay(date=date, et=et, precip=precip,
                      t_max=85.0, t_avg=70.0, t_min=55.0,
                      h_max=90.0, h_avg=60.0, h_min=30.0, solar=600.0,
                      wind=4.0, predicted_et_next=et_next,
                      forecast_precip_next=precip_next)


def make_obs(v, **day_kw):
    return obs_row(v, make_day(**day_kw))


class TestEtController:
    def test_replaces_yesterdays_loss(self):
        ctl = EtController(n_regions=2, a_max=A_MAX)
        a = ctl.decide(make_obs([5.0, 6.0], et=0.15, precip=0.0))
        assert np.allclose(a, [0.15, 0.15])
        assert ctl.source == SOURCE_ET

    def test_rain_excess_means_no_water(self):
        ctl = EtController(n_regions=2, a_max=A_MAX)
        a = ctl.decide(make_obs([5.0, 6.0], et=0.10, precip=0.25))
        assert np.array_equal(a, [0.0, 0.0])

    def test_capped_at_a_max(self):
        ctl = EtController(n_regions=1, a_max=A_MAX)
        a = ctl.decide(make_obs([5.0], et=0.80, precip=0.0))
        assert a[0] == A_MAX

    def test_same_depth_everywhere(self):
        # centralized application cannot vary by region, whatever the state
        ctl = EtController(n_regions=3, a_max=A_MAX)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            et = float(rng.uniform(0.0, 0.5))
            precip = float(rng.uniform(0.0, 0.4))
            state = make_obs(rng.uniform(3.0, 8.0, size=3),
                               et=et, precip=precip)
            a = ctl.decide(state)
            assert np.all(a == a[0])
            assert a[0] == pytest.approx(min(A_MAX, max(0.0, et - precip)))


class TestSensorController:
    def test_no_water_above_lower_threshold(self):
        ctl = SensorController(SensorControllerConfig(), fill_gain=0.288,
                               a_max=A_MAX)
        assert np.array_equal(ctl.decide(make_obs([5.2])), [0.0])

    def test_exactly_at_threshold_stays_dry(self):
        ctl = SensorController(SensorControllerConfig(), fill_gain=0.288,
                               a_max=A_MAX)
        assert np.array_equal(ctl.decide(make_obs([4.96])), [0.0])

    def test_fill_dose_capped(self):
        # (6.97 - 4.80) / 0.288 = 7.53 inches wanted, capacity allows 0.54
        ctl = SensorController(SensorControllerConfig(), fill_gain=0.288,
                               a_max=A_MAX)
        assert ctl.decide(make_obs([4.80]))[0] == A_MAX

    def test_uncapped_fill_dose(self):
        # each region fills under its own gain
        ctl = SensorController(SensorControllerConfig(), fill_gain=(5.0, 4.5),
                               a_max=A_MAX)
        a = ctl.decide(make_obs([4.80, 4.80]))
        assert a[0] == pytest.approx((6.97 - 4.80) / 5.0, abs=1e-12)
        assert a[1] == pytest.approx((6.97 - 4.80) / 4.5, abs=1e-12)
        assert ctl.source == SOURCE_SENSOR

    def test_regions_decided_independently(self):
        ctl = SensorController(SensorControllerConfig(), fill_gain=0.288,
                               a_max=A_MAX)
        a = ctl.decide(make_obs([4.5, 5.5]))
        assert a[0] == A_MAX
        assert a[1] == 0.0

    def test_hysteresis_cycle_under_free_capacity(self):
        # with capacity to fill in one shot, watering days alternate with
        # long dry stretches instead of dribbling at the threshold
        ctl = SensorController(SensorControllerConfig(),
                               fill_gain=TREE1_MODEL.c2, a_max=10.0)
        v = 6.0
        watered = []
        for day in range(40):
            a = ctl.decide(make_obs([v]))[0]
            watered.append(a > 0.0)
            v = predict_next(TREE1_MODEL, v, a, 0.0, 0.2)
        events = [d for d in range(40) if watered[d]]
        assert len(events) >= 2
        for first, second in zip(events, events[1:]):
            assert second - first >= 4

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError, match="lower_threshold"):
            SensorControllerConfig(lower_threshold=7.0, upper_threshold=6.0)

    def test_fill_gain_positive(self):
        with pytest.raises(ValueError, match="fill_gain"):
            SensorController(SensorControllerConfig(), fill_gain=0.0,
                             a_max=A_MAX)
        with pytest.raises(ValueError, match="fill_gain"):
            SensorController(SensorControllerConfig(), fill_gain=(0.9, 0.0),
                             a_max=A_MAX)

    def test_thresholds_checked_against_levels(self):
        levels = derive_levels(orchard_profile())
        SensorControllerConfig().validate_against(levels)
        with pytest.raises(ValueError, match="thresholds"):
            SensorControllerConfig(4.0, 6.97).validate_against(levels)
        with pytest.raises(ValueError, match="thresholds"):
            SensorControllerConfig(4.96, 7.5).validate_against(levels)


def policy_with_stats(n_regions=1, seed=0):
    obs_dim = n_regions + 24
    policy = SquashedGaussianPolicy(obs_dim=obs_dim, n_regions=n_regions,
                                    a_max=A_MAX, hidden=(8,), seed=seed)
    n_continuous = obs_dim - 12
    policy.norm_stats = NormalizationStats(mean=np.zeros(n_continuous),
                                           std=np.ones(n_continuous))
    return policy


class TestRlController:
    def test_requires_normalization_stats(self):
        policy = policy_with_stats()
        policy.norm_stats = None
        with pytest.raises(ValueError, match="normalization"):
            RlController(policy)

    def test_matches_policy_mean(self):
        policy = policy_with_stats()
        ctl = RlController(policy)
        obs = make_obs([5.3])
        expected = policy.mean_action(policy.norm_stats.apply(obs))
        a = ctl.decide(obs)
        assert np.array_equal(a, expected)
        assert ctl.source == SOURCE_AGENT

    def test_deterministic_and_bounded(self):
        ctl = RlController(policy_with_stats(seed=3))
        obs = make_obs([6.1])
        a1 = ctl.decide(obs)
        a2 = ctl.decide(obs)
        assert np.array_equal(a1, a2)
        assert np.all(a1 >= 0.0) and np.all(a1 <= A_MAX)


class TestConstantController:
    def test_zero_by_default(self):
        ctl = ConstantController(2)
        assert np.array_equal(ctl.decide(make_obs([5.0, 5.0])), [0.0, 0.0])
        assert ctl.source == SOURCE_AGENT

    def test_fixed_depth(self):
        a = ConstantController(2, depth=0.2).decide(make_obs([5.0, 5.0]))
        assert np.array_equal(a, [0.2, 0.2])

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            ConstantController(1, depth=-0.1)

    def test_callers_cannot_corrupt_future_decisions(self):
        ctl = ConstantController(1, depth=0.3)
        ctl.decide(make_obs([5.0]))[0] = 99.0
        assert ctl.decide(make_obs([5.0]))[0] == 0.3


class TestShieldedController:
    """The wrapped controller proposes; the season runner screens each
    proposal with the run's shield and the ET baseline as fallback."""

    @staticmethod
    def season(ctl, days=60, seed=9):
        run = default_run_config(days=days, seed=seed)
        return run, run_roster(run, {"x": ctl}).entries["x"]

    def test_trigger_substitutes_fallback_action(self):
        run, entry = self.season(ShieldedController(ConstantController(2, 0.0)))
        weather = build_season_weather(run)
        assert entry.shield_trigger_days > 0
        for day in range(run.days):
            if entry.triggered[day]:
                # the day's ET dose, raised where it is predicted short
                w = weather[day]
                et_dose = min(run.env.a_max, max(0.0, w.et - w.precip))
                assert entry.sources[day] == SOURCE_SHIELD
                assert np.all(entry.actions[day] >= et_dose)
                assert np.any(entry.actions[day] > 0.0)
            else:
                assert entry.sources[day] == SOURCE_AGENT
                assert np.array_equal(entry.actions[day], [0.0, 0.0])

    def test_safe_proposal_passes_through(self):
        run, entry = self.season(
            ShieldedController(ConstantController(2, A_MAX)))
        assert entry.shield_trigger_days == 0
        assert np.all(entry.actions == A_MAX)
        assert entry.sources == [SOURCE_AGENT] * run.days
        assert np.array_equal(entry.deficits, np.zeros(run.days))

    def test_report_attached_either_way(self):
        # enabled: deficits on triggered and untriggered days alike;
        # disabled: the proposal executes and the deficit is still logged
        _, on = self.season(ShieldedController(ConstantController(2, 0.0)))
        _, off = self.season(ShieldedController(ConstantController(2, 0.0),
                                                enabled=False))
        assert 0 < on.shield_trigger_days < on.season_days
        assert np.all(np.isfinite(on.deficits))
        assert np.all(np.isfinite(off.deficits))
        assert off.shield_trigger_days == 0
        assert np.any(off.deficits > 0.0)
        assert np.all(off.actions == 0.0)
        assert off.sources == [SOURCE_AGENT] * off.season_days
