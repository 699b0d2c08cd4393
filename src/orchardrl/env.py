"""Daily irrigation control environment.

State with per-region soil water plus the day's completed weather and
next-day forecast channels; actions are per-region irrigation depths in
[0, a_max] inches; dynamics advance each region through its own linear
water-balance model with optional Gaussian process noise; the reward
penalizes over-irrigation, water use, and stress-threshold violations.

Timeline convention: a state on day t carries day t's completed weather
record (whose forecast channels look at day t+1); the step from t to t+1 is
driven by day t+1's actual ET and precipitation.  A season of n+1 records
therefore supports n control days, and environments require
``episode_length + 1`` weather records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hydrology import SoilLevels, SoilProfile, derive_levels, testbed_profile
from .predictor import (
    PredictorModel,
    coefficient_table,
    predict_next,
    predict_next_array,
)
from .weather import WeatherDay

N_WEATHER_CHANNELS = 10   # observed channels in the state vector
N_FORECAST_CHANNELS = 2   # predicted ET and forecast precip for tomorrow
N_MONTHS = 12


@dataclass(frozen=True)
class RewardParams:
    """Penalty weights of the three-branch irrigation reward.

    lambda1 scales over-capacity excess, mu1 water cost while over capacity,
    mu2 water cost in the healthy band, lambda3 the depth of a stress
    violation, mu3 water cost while stressed.
    """

    levels: SoilLevels
    lambda1: float = 3.0
    mu1: float = 8.0
    mu2: float = 3.0
    lambda3: float = 10.0
    mu3: float = 1.0

    def __post_init__(self) -> None:
        for name in ("lambda1", "mu1", "mu2", "lambda3", "mu3"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


def reward(v_next: np.ndarray, a: np.ndarray, params: RewardParams) -> float:
    """Negative sum of per-region penalties.

    Per region: above field capacity the penalty is
    lambda1*(v - v_fc) + mu1*a; inside the closed band [v_mad, v_fc] it is
    mu2*a; below the stress threshold it is lambda3*(v_mad - v) + mu3*a.
    Both boundaries belong to the in-band branch.
    """
    lv = params.levels
    total = 0.0
    for v_i, a_i in zip(np.atleast_1d(v_next), np.atleast_1d(a)):
        if v_i > lv.v_fc:
            total += params.lambda1 * (v_i - lv.v_fc) + params.mu1 * a_i
        elif v_i >= lv.v_mad:
            total += params.mu2 * a_i
        else:
            total += params.lambda3 * (lv.v_mad - v_i) + params.mu3 * a_i
    return -total


def reward_mad_only(v_next: np.ndarray, a: np.ndarray, params: RewardParams) -> float:
    """Ablated reward: only the stress branch penalizes; over-irrigation and
    in-band water use are free."""
    lv = params.levels
    total = 0.0
    for v_i, a_i in zip(np.atleast_1d(v_next), np.atleast_1d(a)):
        if v_i < lv.v_mad:
            total += params.lambda3 * (lv.v_mad - v_i) + params.mu3 * a_i
    return -total


REWARD_KINDS = ("full", "mad-only")


def _batch_reward(v_next: np.ndarray, a: np.ndarray, params: RewardParams,
                  kind: str) -> np.ndarray:
    """reward (or reward_mad_only) of each row of (E, n) arrays, as (E,)."""
    lv = params.levels
    stress = params.lambda3 * (lv.v_mad - v_next) + params.mu3 * a
    if kind == "mad-only":
        penalty = np.where(v_next < lv.v_mad, stress, 0.0)
    else:
        penalty = np.where(
            v_next > lv.v_fc,
            params.lambda1 * (v_next - lv.v_fc) + params.mu1 * a,
            np.where(v_next >= lv.v_mad, params.mu2 * a, stress))
    return -penalty.sum(axis=-1)


@dataclass(frozen=True)
class EnvConfig:
    """Static description of the simulated orchard and its control problem."""

    profile: SoilProfile
    dynamics: tuple[PredictorModel, ...]
    reward_params: RewardParams
    n_regions: int = 2
    irrigation_rate: float = 0.018      # inches per minute of valve time
    a_max: float = 0.54                 # 30 minutes of valve time per day
    episode_length: int = 30
    process_noise_std: float = 0.01
    surplus_headroom: float = 1.0       # saturation cap above field capacity
    reward_kind: str = "full"

    def __post_init__(self) -> None:
        if self.n_regions < 1:
            raise ValueError("n_regions must be >= 1")
        if self.irrigation_rate <= 0 or self.a_max <= 0:
            raise ValueError("irrigation_rate and a_max must be positive")
        if self.episode_length < 1:
            raise ValueError("episode_length must be >= 1")
        if len(self.dynamics) != self.n_regions:
            raise ValueError("need one dynamics model per region")
        if self.process_noise_std < 0 or self.surplus_headroom < 0:
            raise ValueError("noise and headroom must be nonnegative")
        if self.reward_kind not in REWARD_KINDS:
            raise ValueError(f"reward_kind must be one of {REWARD_KINDS}")

    @property
    def levels(self) -> SoilLevels:
        return self.reward_params.levels

    @property
    def saturation_cap(self) -> float:
        return self.levels.v_fc + self.surplus_headroom

    @property
    def obs_dim(self) -> int:
        return self.n_regions + N_WEATHER_CHANNELS + N_FORECAST_CHANNELS + N_MONTHS


# Calibrated per-region water-balance dynamics of the default two-region
# orchard: ~95% application efficiency, a small storage-dependent percolation
# leak, and a crop factor near 0.7 on the station reference ET.  Regions
# differ slightly in efficiency and leak.
DEFAULT_REGION_DYNAMICS = (
    PredictorModel(c1=0.998, c2=0.95, c3=-0.70, b=0.002),
    PredictorModel(c1=0.997, c2=0.93, c3=-0.75, b=0.003),
)


def default_env_config(n_regions: int = 2, **overrides) -> EnvConfig:
    """Two-region orchard with physically calibrated per-region dynamics."""
    dynamics = tuple(DEFAULT_REGION_DYNAMICS[i % len(DEFAULT_REGION_DYNAMICS)]
                     for i in range(n_regions))
    profile = overrides.pop("profile", testbed_profile())
    reward_params = overrides.pop("reward_params", RewardParams(levels=derive_levels(profile)))
    overrides.setdefault("dynamics", dynamics)
    return EnvConfig(profile=profile, reward_params=reward_params,
                     n_regions=n_regions, **overrides)


def action_to_duration(a: np.ndarray, rate: float) -> np.ndarray:
    """Valve-open minutes per region for an irrigation depth vector."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise ValueError("irrigation depths must be nonnegative")
    return a / rate


@dataclass(frozen=True)
class EnvState:
    """Snapshot the controller sees: soil water, completed weather, calendar."""

    v: np.ndarray
    weather_today: WeatherDay
    month: int
    day_in_episode: int

    def __post_init__(self) -> None:
        if not 1 <= self.month <= 12:
            raise ValueError("month must lie in 1..12")
        if np.any(self.v < 0):
            raise ValueError("soil water content cannot be negative")

    @property
    def predicted_et_next(self) -> float:
        return self.weather_today.predicted_et_next

    @property
    def forecast_precip_next(self) -> float:
        return self.weather_today.forecast_precip_next


@dataclass(frozen=True)
class Transition:
    state: EnvState
    action: np.ndarray
    reward: float
    next_state: EnvState


def state_vector(state: EnvState) -> np.ndarray:
    """Flatten a state into the documented layout:
    [v_1..v_N, et, precip, t_max, t_avg, t_min, h_max, h_avg, h_min, solar,
    wind, predicted_et_next, forecast_precip_next, month one-hot (12)].
    """
    one_hot = np.zeros(N_MONTHS)
    one_hot[state.month - 1] = 1.0
    return np.concatenate([
        np.asarray(state.v, dtype=float),
        np.array(state.weather_today.numeric_channels, dtype=float),
        np.array([state.predicted_et_next, state.forecast_precip_next]),
        one_hot,
    ])


@dataclass(frozen=True)
class NormalizationStats:
    """Componentwise centering/scaling for the continuous state components.

    Applies only to the first n_continuous components (soil water, weather,
    forecasts); the month one-hot passes through untouched.  Components with
    (near-)zero variance are centered but not scaled, so the affine inverse
    is always exact.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean and std must be 1-D arrays of equal length")
        if np.any(self.std <= 0):
            raise ValueError("std entries must be positive (use 1.0 for frozen components)")

    @property
    def n_continuous(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def identity(cls, n_continuous: int) -> "NormalizationStats":
        return cls(mean=np.zeros(n_continuous), std=np.ones(n_continuous))

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
        out[..., :self.n_continuous] = (vec[..., :self.n_continuous] - self.mean) / self.std
        return out

    def invert(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=float)
        if vec.shape[-1] < self.n_continuous:
            raise ValueError("vector shorter than the normalized span")
        out = vec.copy()
        out[..., :self.n_continuous] = vec[..., :self.n_continuous] * self.std + self.mean
        return out


def normalize(state: EnvState, stats: NormalizationStats) -> np.ndarray:
    """Normalized flat observation vector for a state."""
    return stats.apply(state_vector(state))


def denormalize(vec: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """Exact affine inverse of normalize, back to the raw state vector."""
    return stats.invert(vec)


class IrrigationEnv:
    """Single-owner mutable environment over an immutable weather sequence.

    With random_start=True each reset picks a fresh episode window inside
    the weather record (training); with random_start=False episodes always
    begin at the first record (paired evaluation).
    """

    def __init__(self, config: EnvConfig, weather: Sequence[WeatherDay],
                 seed: int | None = None, random_start: bool = True):
        if len(weather) < config.episode_length + 1:
            raise ValueError(
                f"need at least episode_length + 1 = {config.episode_length + 1} "
                f"weather records (the final transition consumes the following "
                f"day's actuals), got {len(weather)}"
            )
        self.config = config
        self.weather = list(weather)
        self.random_start = random_start
        self._rng = np.random.default_rng(seed)
        self._state: EnvState | None = None
        self._start = 0

    @property
    def state(self) -> EnvState | None:
        return self._state

    def reset(self, seed: int | None = None) -> EnvState:
        """Start a new episode; initial soil water is uniform in the healthy
        band [v_mad, v_fc] per region.  Deterministic for a given seed."""
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        cfg = self.config
        max_start = len(self.weather) - cfg.episode_length - 1
        self._start = int(self._rng.integers(0, max_start + 1)) if self.random_start else 0
        lv = cfg.levels
        v0 = self._rng.uniform(lv.v_mad, lv.v_fc, size=cfg.n_regions)
        w = self.weather[self._start]
        self._state = EnvState(v=v0, weather_today=w, month=w.date.month,
                               day_in_episode=0)
        return self._state

    def step(self, action: np.ndarray) -> Transition:
        """Advance one day under the given irrigation depths."""
        if self._state is None:
            raise RuntimeError("reset() must be called before step()")
        cfg = self.config
        state = self._state
        if state.day_in_episode >= cfg.episode_length:
            raise RuntimeError("episode exhausted; call reset()")
        a = np.asarray(action, dtype=float).reshape(-1)
        if a.shape != (cfg.n_regions,):
            raise ValueError(f"action must have shape ({cfg.n_regions},)")
        if np.any(a < -1e-9) or np.any(a > cfg.a_max + 1e-9):
            raise ValueError(f"action outside [0, {cfg.a_max}]")
        a = np.clip(a, 0.0, cfg.a_max)

        w_next = self.weather[self._start + state.day_in_episode + 1]
        cap = cfg.saturation_cap
        v_next = np.empty(cfg.n_regions)
        for i in range(cfg.n_regions):
            v_next[i] = predict_next(cfg.dynamics[i], state.v[i], a[i],
                                     w_next.precip, w_next.et, cap=cap)
        if cfg.process_noise_std > 0:
            v_next = v_next + self._rng.normal(0.0, cfg.process_noise_std,
                                               size=cfg.n_regions)
            v_next = np.clip(v_next, 0.0, cap)

        reward_fn = reward_mad_only if cfg.reward_kind == "mad-only" else reward
        r = reward_fn(v_next, a, cfg.reward_params)
        next_state = EnvState(v=v_next, weather_today=w_next,
                              month=w_next.date.month,
                              day_in_episode=state.day_in_episode + 1)
        self._state = next_state
        return Transition(state=state, action=a.copy(), reward=r,
                          next_state=next_state)


class VecIrrigationEnv:
    """E episodes of IrrigationEnv stepped in lockstep as (E, n_regions)
    arrays, for training rollouts.

    Episode e of reset(seeds) is IrrigationEnv's episode for
    reset(seed=seeds[e]) under the same actions: the same start day, initial
    soil water and process noise (its whole noise block is drawn at reset,
    which equals the scalar environment's per-step draws), and bit for bit
    the same soil water.  Observations are the rows of state_vector.
    """

    def __init__(self, config: EnvConfig, weather: Sequence[WeatherDay],
                 random_start: bool = True):
        if len(weather) < config.episode_length + 1:
            raise ValueError(
                f"need at least episode_length + 1 = {config.episode_length + 1} "
                f"weather records, got {len(weather)}")
        self.config = config
        self.random_start = random_start
        self._coef = coefficient_table(config.dynamics)
        months = np.array([w.date.month for w in weather])
        # state_vector's weather and calendar block for every record
        self._weather_obs = np.hstack([
            np.array([w.numeric_channels for w in weather], dtype=float),
            np.array([(w.predicted_et_next, w.forecast_precip_next)
                      for w in weather], dtype=float),
            np.eye(N_MONTHS)[months - 1],
        ])
        self._et = self._weather_obs[:, 0]
        self._precip = self._weather_obs[:, 1]
        self._starts = self._noise = None
        self.v: np.ndarray | None = None    # (E, n_regions) soil water
        self._day = 0

    def reset(self, seeds) -> np.ndarray:
        """Start one episode per seed; returns the (E, obs_dim) raw
        observations of the first day."""
        cfg = self.config
        n, L = cfg.n_regions, cfg.episode_length
        max_start = len(self._weather_obs) - L - 1
        lv = cfg.levels
        E = len(seeds)
        self._starts = np.zeros(E, dtype=int)
        self.v = np.empty((E, n))
        self._noise = np.zeros((L, E, n))
        for e, seed in enumerate(seeds):
            rng = np.random.default_rng(int(seed))
            if self.random_start:
                self._starts[e] = rng.integers(0, max_start + 1)
            self.v[e] = rng.uniform(lv.v_mad, lv.v_fc, size=n)
            if cfg.process_noise_std > 0:
                self._noise[:, e] = rng.normal(0.0, cfg.process_noise_std,
                                               size=(L, n))
        self._day = 0
        return self._observations()

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Advance every episode one day; returns the next (E, obs_dim) raw
        observations and the (E,) rewards."""
        cfg = self.config
        if self.v is None:
            raise RuntimeError("reset() must be called before step()")
        if self._day >= cfg.episode_length:
            raise RuntimeError("episodes exhausted; call reset()")
        a = np.asarray(actions, dtype=float)
        if a.shape != self.v.shape:
            raise ValueError(f"actions must have shape {self.v.shape}")
        if np.any(a < -1e-9) or np.any(a > cfg.a_max + 1e-9):
            raise ValueError(f"action outside [0, {cfg.a_max}]")
        a = np.clip(a, 0.0, cfg.a_max)

        nxt = self._starts + self._day + 1
        cap = cfg.saturation_cap
        v_next = predict_next_array(self._coef, self.v, a, self._precip[nxt, None],
                                    self._et[nxt, None], cap=cap)
        if cfg.process_noise_std > 0:
            v_next = np.clip(v_next + self._noise[self._day], 0.0, cap)
        self.v = v_next
        self._day += 1
        return self._observations(), _batch_reward(v_next, a, cfg.reward_params,
                                                   cfg.reward_kind)

    def _observations(self) -> np.ndarray:
        return np.hstack([self.v, self._weather_obs[self._starts + self._day]])
