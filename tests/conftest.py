"""Shared fixtures, helpers and hypothesis defaults."""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from orchardrl.env import (
    N_MONTHS,
    EnvConfig,
    PlantParams,
    RewardParams,
    default_dynamics,
)
from orchardrl.hydrology import derive_levels, testbed_profile
from orchardrl.weather import WeatherDay, WeatherTable

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def default_env_config(n_regions=2, *, dynamics=None, profile=None,
                       episode_length=30, reward_kind="full", **plant) -> EnvConfig:
    """The testbed orchard with the default region models and 30-day
    episodes; plant keywords (a_max, process_noise_std, surplus_headroom)
    override PlantParams."""
    if dynamics is None:
        dynamics = default_dynamics(n_regions)
    return EnvConfig(levels=derive_levels(profile or testbed_profile()),
                     dynamics=dynamics,
                     episode_length=episode_length,
                     reward=RewardParams(kind=reward_kind),
                     plant=PlantParams(**plant))


def weather_table(records):
    """The WeatherTable holding a sequence of WeatherDay records."""
    records = list(records)
    return WeatherTable(np.array([d.date for d in records], dtype="datetime64[D]"),
                        np.array([d.channels for d in records],
                                 dtype=float).reshape(len(records), -1))


def flat_season(n, et=0.15, precip=0.0, start=dt.date(2020, 3, 1)):
    """A table of n consecutive daily records with per-day (or constant) ET
    and precipitation and exact next-day forecasts."""
    et_seq = [et] * n if np.isscalar(et) else list(et)
    p_seq = [precip] * n if np.isscalar(precip) else list(precip)
    days = []
    for i in range(n):
        has_next = i + 1 < n
        days.append(WeatherDay(
            date=start + dt.timedelta(days=i),
            et=et_seq[i], precip=p_seq[i],
            t_max=75.0, t_avg=65.0, t_min=55.0,
            h_max=90.0, h_avg=70.0, h_min=50.0, solar=500.0, wind=3.0,
            predicted_et_next=et_seq[i + 1] if has_next else 0.0,
            forecast_precip_next=p_seq[i + 1] if has_next else 0.0))
    return weather_table(days)


def log_prob_at(policy, u, m):
    """Log-density of pre-squash samples u under means m, every term formed
    from u and m."""
    z = (u - m) / np.exp(policy.log_std)
    return policy.log_prob(z ** 2, policy.squash_log_jacobian(u))


def obs_row(v, day: WeatherDay) -> np.ndarray:
    """The environment's observation row for soil water v on a day, built
    from the documented layout: [v_1..v_N, the ten weather channels,
    predicted_et_next, forecast_precip_next, month one-hot]."""
    one_hot = np.zeros(N_MONTHS)
    one_hot[day.date.month - 1] = 1.0
    return np.concatenate([np.asarray(v, dtype=float), day.numeric_channels,
                           (day.predicted_et_next, day.forecast_precip_next),
                           one_hot])


@pytest.fixture(scope="session")
def levels():
    return derive_levels(testbed_profile())


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
