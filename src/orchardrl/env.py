"""Daily irrigation control environment.

IrrigationEnv steps E episodes in lockstep as (E, n_regions) arrays.  Its
observations are rows of one documented layout (see OBS_EXTRA below): each
region's soil water, the day's completed weather and the next-day forecast
channels, and the month one-hot.  The policy and the decide(obs) baselines
read those rows.  Actions are per-region irrigation depths in [0, a_max]
inches.  water_balance advances soil water one day: each region through its
own linear water-balance model with optional Gaussian process noise.  It is
the plant step IrrigationEnv.step runs, public so that any (E, n) soil block
advances the same way.  Stepping returns observations only; reward() scores
a step from the next-day soil water and the applied depths, penalizing
over-irrigation, water use, and stress-threshold violations, and only the
trainer calls it.

EnvConfig holds the soil levels, one dynamics model per region, the episode
length, the reward weights (RewardParams) and the plant settings
(PlantParams); the last two are the run config's ``reward`` and ``env``
sections as they stand.

Timeline convention: an observation on day t carries day t's completed
weather record (whose forecast channels look at day t+1); the step from t to
t+1 is driven by day t+1's actual ET and precipitation.  A season of n+1
records therefore supports n control days, and environments require
``episode_length + 1`` weather records.  Every reset draws each episode's
first record uniformly among those that begin ``episode_length + 1``
records whose dates step by exactly one day, so an episode never spans a gap
in the record, and a season of exactly ``episode_length + 1`` records always
starts on its first day.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hydrology import SoilLevels
from .predictor import PredictorModel, coefficient_table, predict_next_array
from .weather import CHANNELS, N_OBSERVED, WeatherTable

# The observation row carries a WeatherTable's columns as they are: the
# observed channels, then tomorrow's predicted ET and forecast precip.
N_WEATHER_CHANNELS = N_OBSERVED
N_FORECAST_CHANNELS = len(CHANNELS) - N_OBSERVED
N_MONTHS = 12

# Observation row layout: [v_1..v_N, et, precip, t_max, t_avg, t_min, h_max,
# h_avg, h_min, solar, wind, predicted_et_next, forecast_precip_next, month
# one-hot (12)].  OBS_EXTRA columns follow the N soil-water columns; the
# OBS_* offsets below count from column N.
OBS_EXTRA = N_WEATHER_CHANNELS + N_FORECAST_CHANNELS + N_MONTHS
OBS_ET = 0
OBS_PRECIP = 1
OBS_PREDICTED_ET_NEXT = N_WEATHER_CHANNELS
OBS_FORECAST_PRECIP_NEXT = N_WEATHER_CHANNELS + 1


def soil_water(obs: np.ndarray) -> np.ndarray:
    """The v_1..v_N columns of observation rows."""
    return obs[..., :obs.shape[-1] - OBS_EXTRA]


def channel(obs: np.ndarray, offset: int):
    """Column N + offset of observation rows (offset one of the OBS_*)."""
    return obs[..., obs.shape[-1] - OBS_EXTRA + offset]


REWARD_KINDS = ("full", "mad-only")


@dataclass(frozen=True)
class RewardParams:
    """Penalty weights of the three-branch irrigation reward, and its kind.

    lambda1 scales over-capacity excess, mu1 water cost while over capacity,
    mu2 water cost in the healthy band, lambda3 the depth of a stress
    violation, mu3 water cost while stressed.  kind "mad-only" is the
    ablated reward that keeps only the stress branch.
    """

    lambda1: float = 3.0
    mu1: float = 8.0
    mu2: float = 3.0
    lambda3: float = 10.0
    mu3: float = 1.0
    kind: str = "full"

    def __post_init__(self) -> None:
        for name in ("lambda1", "mu1", "mu2", "lambda3", "mu3"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.kind not in REWARD_KINDS:
            raise ValueError(f"reward kind must be one of {REWARD_KINDS}")


def reward(v_next: np.ndarray, a: np.ndarray, levels: SoilLevels,
           params: RewardParams) -> np.ndarray:
    """Negative sum of per-region penalties over the last axis of (..., n)
    soil water and depths: one reward per episode.

    Per region: above field capacity the penalty is
    lambda1*(v - v_fc) + mu1*a; inside the closed band [v_mad, v_fc] it is
    mu2*a; below the stress threshold it is lambda3*(v_mad - v) + mu3*a.
    Both boundaries belong to the in-band branch.  The "mad-only" kind keeps
    only the stress branch: over-irrigation and in-band water use are free.
    """
    stress = params.lambda3 * (levels.v_mad - v_next) + params.mu3 * a
    if params.kind == "mad-only":
        penalty = np.where(v_next < levels.v_mad, stress, 0.0)
    else:
        penalty = np.where(
            v_next > levels.v_fc,
            params.lambda1 * (v_next - levels.v_fc) + params.mu1 * a,
            np.where(v_next >= levels.v_mad, params.mu2 * a, stress))
    return -penalty.sum(axis=-1)


@dataclass(frozen=True)
class PlantParams:
    """How the simulated plant applies and perturbs water: the daily
    irrigation ceiling (30 minutes of valve time), the std of the Gaussian
    process noise, and the saturation cap's headroom above field capacity."""

    a_max: float = 0.54
    process_noise_std: float = 0.01
    surplus_headroom: float = 1.0

    def __post_init__(self) -> None:
        if self.a_max <= 0:
            raise ValueError("a_max must be positive")
        if self.process_noise_std < 0 or self.surplus_headroom < 0:
            raise ValueError("noise and headroom must be nonnegative")


@dataclass(frozen=True)
class EnvConfig:
    """Static description of the simulated orchard and its control problem:
    one dynamics model per region.  coef is the models' coefficient table,
    built once here."""

    levels: SoilLevels
    dynamics: tuple[PredictorModel, ...]
    episode_length: int
    reward: RewardParams
    plant: PlantParams
    coef: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.dynamics:
            raise ValueError("need at least one region's dynamics")
        if self.episode_length < 1:
            raise ValueError("episode_length must be >= 1")
        coef = coefficient_table(self.dynamics)
        coef.flags.writeable = False
        object.__setattr__(self, "coef", coef)

    @property
    def saturation_cap(self) -> float:
        return self.levels.v_fc + self.plant.surplus_headroom

    @property
    def obs_dim(self) -> int:
        return len(self.dynamics) + OBS_EXTRA


# Calibrated per-region water-balance dynamics of the default two-region
# orchard: ~95% application efficiency, a small storage-dependent percolation
# leak, and a crop factor near 0.7 on the station reference ET.  Regions
# differ slightly in efficiency and leak.
DEFAULT_REGION_DYNAMICS = (
    PredictorModel(c1=0.998, c2=0.95, c3=-0.70, b=0.002),
    PredictorModel(c1=0.997, c2=0.93, c3=-0.75, b=0.003),
)


def default_dynamics(n_regions: int) -> tuple[PredictorModel, ...]:
    """The default region models repeated up to n_regions."""
    return tuple(DEFAULT_REGION_DYNAMICS[i % len(DEFAULT_REGION_DYNAMICS)]
                 for i in range(n_regions))


@dataclass(frozen=True)
class NormalizationStats:
    """Componentwise centering/scaling for the continuous state components.

    Applies only to the first n_continuous components (soil water, weather,
    forecasts); the month one-hot passes through untouched.  Components with
    (near-)zero variance are centered but not scaled.  A (k, n) mean and std
    hold k policies' statistics, and apply then normalizes a (k, obs_dim)
    block row j by statistics j.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        if self.mean.shape != self.std.shape or self.mean.ndim not in (1, 2):
            raise ValueError("mean and std must be 1-D or 2-D of equal shape")
        if np.any(self.std <= 0):
            raise ValueError("std entries must be positive (use 1.0 for frozen components)")

    @property
    def n_continuous(self) -> int:
        return self.mean.shape[-1]

    @classmethod
    def from_samples(cls, vectors: np.ndarray, n_continuous: int,
                     eps: float = 1e-8) -> "NormalizationStats":
        X = np.asarray(vectors, dtype=float)[:, :n_continuous]
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std < eps, 1.0, std)
        return cls(mean=mean, std=std)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=float)
        if vec.shape[-1] < self.n_continuous:
            raise ValueError("vector shorter than the normalized span")
        out = vec.copy()
        span = out[..., :self.n_continuous]
        span -= self.mean
        span /= self.std
        return out


def weather_columns(weather: WeatherTable) -> np.ndarray:
    """The OBS_EXTRA columns of every record's observation rows: its weather
    and forecast channels, then its month one-hot."""
    month_index = weather.dates.astype("datetime64[M]").astype(int) % N_MONTHS
    return np.hstack([weather.values, np.eye(N_MONTHS)[month_index]])


def water_balance(config: EnvConfig, v: np.ndarray, actions, precip, et,
                  noise) -> tuple[np.ndarray, np.ndarray]:
    """One day of the plant: the next (E, n_regions) soil water from v under
    (E, n_regions) depths, and the depths as applied.

    precip and et are the day's actual precipitation and ET, and noise its
    process-noise draws (read only when the plant is noisy); each
    broadcasts against v.  A depth outside [0, a_max] by more than 1e-9, or
    not finite, is rejected; the rest are clipped into [0, a_max].  Each
    region then advances through predict_next_array under its own dynamics,
    capped at the saturation cap; a noisy plant adds the noise and clips to
    [0, cap] again.
    """
    plant = config.plant
    a = np.asarray(actions, dtype=float)
    if a.shape != v.shape:
        raise ValueError(f"actions must have shape {v.shape}")
    lo, hi = -1e-9, plant.a_max + 1e-9
    # NaN fails both comparisons, so it is rejected like an out-of-range value
    if not (a.min() >= lo and a.max() <= hi):
        bad = a[~((a >= lo) & (a <= hi))][0]
        raise ValueError(f"action {float(bad)!r} outside [0, {plant.a_max}]")
    a = a.clip(0.0, plant.a_max)
    cap = config.saturation_cap
    v_next = predict_next_array(config.coef, v, a, precip, et, cap=cap)
    if plant.process_noise_std > 0:
        v_next = np.clip(v_next + noise, 0.0, cap)
    return v_next, a


class IrrigationEnv:
    """E episodes over an immutable weather sequence, stepped in lockstep as
    (E, n_regions) arrays.

    reset(seeds) starts one episode per seed and draws, from
    default_rng(seed) in this order, its start record, its initial soil
    water and its whole (episode_length, n_regions) process-noise block.
    Episodes given the same seed therefore share start, soil water and
    noise, and differ only through their actions.  Plain attributes hold
    read-only arrays: weather_obs (weather_columns of the weather) and the
    last reset's draws, None before any reset: starts (E,), initial_v
    (E, n_regions) and process_noise (episode_length, E, n_regions; zeros
    for a noise-free plant).
    """

    def __init__(self, config: EnvConfig, weather: WeatherTable):
        if len(weather) < config.episode_length + 1:
            raise ValueError(
                f"need at least episode_length + 1 = {config.episode_length + 1} "
                f"weather records (the final transition consumes the following "
                f"day's actuals), got {len(weather)}")
        L = config.episode_length
        # breaks[i]: date gaps among records 0..i; a start is allowed when
        # its L + 1 records step by exactly one day
        breaks = np.cumsum(np.diff(weather.dates) != np.timedelta64(1, "D"))
        breaks = np.concatenate([[0], breaks])
        self._allowed_starts = np.flatnonzero(breaks[L:] == breaks[:-L])
        if not len(self._allowed_starts):
            raise ValueError(
                f"no {L + 1} consecutive daily weather records (episode_length "
                f"+ 1) in a record of {len(weather)}")
        self.config = config
        self.weather_obs = weather_columns(weather)
        self.weather_obs.flags.writeable = False
        self.starts = self.initial_v = self.process_noise = None
        self.v: np.ndarray | None = None    # (E, n_regions) soil water
        self.a: np.ndarray | None = None    # (E, n_regions) depths last applied
        self._day = 0

    def reset(self, seeds) -> np.ndarray:
        """Start one episode per seed; returns the (E, obs_dim) observations
        of the first day."""
        cfg = self.config
        n, L = len(cfg.dynamics), cfg.episode_length
        noise_std = cfg.plant.process_noise_std
        allowed = self._allowed_starts
        lv = cfg.levels
        seeds = np.asarray(seeds).tolist()
        starts = np.zeros(len(seeds), dtype=int)
        v = np.empty((len(seeds), n))
        noise = np.zeros((L, len(seeds), n))
        for e, seed in enumerate(seeds):
            rng = np.random.default_rng(int(seed))
            starts[e] = allowed[rng.integers(0, len(allowed))]
            v[e] = rng.uniform(lv.v_mad, lv.v_fc, size=n)
            if noise_std > 0:
                noise[:, e] = rng.normal(0.0, noise_std, size=(L, n))
        starts.flags.writeable = False
        v.flags.writeable = noise.flags.writeable = False
        self.starts, self.initial_v, self.process_noise = starts, v, noise
        self.v = v.copy()
        self.a = None
        self._day = 0
        return self._observations()

    def step(self, actions: np.ndarray) -> np.ndarray:
        """Advance every episode one day under (E, n_regions) depths through
        water_balance; returns the next (E, obs_dim) observations.

        step scores nothing: a caller that wants the day's rewards computes
        reward(env.v, env.a, config.levels, config.reward) from the
        next-day soil water and the depths as applied (after clipping)."""
        if self.v is None:
            raise RuntimeError("reset() must be called before step()")
        if self._day >= self.config.episode_length:
            raise RuntimeError("episodes exhausted; call reset()")
        actual = self.weather_obs[self.starts + self._day + 1]
        self.v, self.a = water_balance(self.config, self.v, actions,
                                       actual[:, OBS_PRECIP, None],
                                       actual[:, OBS_ET, None],
                                       self.process_noise[self._day])
        self._day += 1
        return self._observations()

    def _observations(self) -> np.ndarray:
        return np.concatenate(
            (self.v, self.weather_obs[self.starts + self._day]), axis=1)
