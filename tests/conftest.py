"""Shared fixtures, helpers and hypothesis defaults."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from orchardrl.env import EnvConfig, PlantParams, RewardParams, default_dynamics
from orchardrl.hydrology import derive_levels, testbed_profile

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


@pytest.fixture(scope="session")
def levels():
    return derive_levels(testbed_profile())


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
