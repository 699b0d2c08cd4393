"""Run configuration: one JSON document drives every experiment.

Schema (all keys optional; omitted keys, including those of a partial
section, take the defaults shown by ``save_config(default_run_config(),
path)``; an unknown key raises ValueError naming its section):

    seed            int     master seed; all randomness derives from it
    days            int     season length in control days
    n_regions       int     irrigation regions
    out_dir         str     where results land; not part of config_hash
    weather_csv     str?    daily weather log; null means synthetic weather.
                    The season is its first days + 1 usable records and
                    training uses only the records after them, so building
                    the training weather raises ValueError unless at least
                    trainer.episode_length + 1 records remain
    forecast_noise  "default" | "exact" | {et_std, miss_rate,
                    false_alarm_rate, false_alarm_mean, precip_rel_std}
                    forecast error of synthetic and CSV weather alike;
                    "default" scales with the season's mean ET
    climate         {start, t_base_f, t_amp_f, t_jitter_f, t_spread_f,
                    et_rel_noise, ..., precip_event_prob: [12 monthly
                    probabilities], et_params: {gamma_c, td}}
                    overrides of the synthetic climate
    profile         {awc_per_foot, pwp_fraction, root_depth_feet,
                    root_depth_inches, sensor_depth_spans, mad_fraction}
    dynamics        [{c1, c2, c3, b}, ...] per-region ground-truth models
    reward          {lambda1, mu1, mu2, lambda3, mu3, kind}
                    penalty weights and variant (env.RewardParams)
    env             {a_max, process_noise_std, surplus_headroom}
                    the simulated plant (env.PlantParams)
    trainer         {learning_rate, gamma, clip_epsilon, minibatch_size,
                    max_iterations, episodes_per_iteration,
                    episode_length, convergence_band, convergence_window,
                    convergence_patience, epochs, hidden, init_log_std,
                    warmup_episodes}
                    episode_length is that of training episodes; a
                    season's episode lasts its days
    shield          {model: "env" | [{c1, c2, c3, b}, ...]}
                    a model list holds one entry per region
    sensor          {lower_threshold, upper_threshold} of the sensor baseline

The observation row layout is stated once, at env.OBS_EXTRA.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import functools
import hashlib
import json
import types
import typing
from dataclasses import dataclass, field, replace

import numpy as np

from .agent.ppo import TrainerConfig
from .controllers import SensorControllerConfig
from .env import (
    DEFAULT_REGION_DYNAMICS,
    EnvConfig,
    PlantParams,
    RewardParams,
    default_dynamics,
)
from .hydrology import SoilProfile, derive_levels, testbed_profile
from .predictor import PredictorModel
from .safety import ShieldConfig
from .weather import (
    ClimateParams,
    ForecastNoise,
    NoiseModel,
    WeatherTable,
    default_forecast_noise,
    load_weather_csv,
    synthesize_season,
)

FORECAST_PRESETS = ("default", "exact")
TRAINING_SEASONS = 4   # seasons in the synthetic training corpus


@dataclass(frozen=True)
class ShieldSettings:
    # "env" borrows the simulator's ground-truth dynamics (exact-model
    # screening); otherwise one fitted model per region.
    model: str | tuple[PredictorModel, ...] = "env"


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    days: int = 246
    n_regions: int = 2
    out_dir: str = "results"
    weather_csv: str | None = None
    forecast_noise: str | ForecastNoise = "default"
    climate: ClimateParams = field(default_factory=ClimateParams)
    profile: SoilProfile = field(default_factory=testbed_profile)
    dynamics: tuple[PredictorModel, ...] = DEFAULT_REGION_DYNAMICS
    reward: RewardParams = field(default_factory=RewardParams)
    env: PlantParams = field(default_factory=PlantParams)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    shield: ShieldSettings = field(default_factory=ShieldSettings)
    sensor: SensorControllerConfig = field(default_factory=SensorControllerConfig)

    def __post_init__(self) -> None:
        if self.days < 1 or self.n_regions < 1:
            raise ValueError("days and n_regions must be >= 1")
        if len(self.dynamics) != self.n_regions:
            raise ValueError("need one dynamics model per region")
        if self.shield.model != "env" and len(self.shield.model) != self.n_regions:
            raise ValueError(f"shield.model has {len(self.shield.model)} models "
                             f"for {self.n_regions} regions")
        if isinstance(self.forecast_noise, str) and self.forecast_noise not in FORECAST_PRESETS:
            raise ValueError(f"forecast_noise preset must be one of {FORECAST_PRESETS}")


def default_run_config(**overrides) -> RunConfig:
    cfg = RunConfig()
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


# -- builders: turn the declarative config into live objects ----------------


def build_levels(run: RunConfig):
    return derive_levels(run.profile)


def build_env_config(run: RunConfig, episode_length: int | None = None) -> EnvConfig:
    """The run's simulated orchard with episodes of episode_length days
    (default: the season's)."""
    return EnvConfig(levels=build_levels(run), dynamics=run.dynamics,
                     episode_length=episode_length or run.days,
                     reward=run.reward, plant=run.env)


def with_reward_kind(run: RunConfig, kind: str) -> RunConfig:
    """The run with its reward switched to kind ("full" or "mad-only")."""
    return replace(run, reward=replace(run.reward, kind=kind))


def measurement_run(run: RunConfig) -> RunConfig:
    """The run with exact forecasts and a noise-free plant: the setting in
    which seasons measure what the shield certifies.  Training keeps the
    run's noisy configuration."""
    return replace(run, forecast_noise="exact",
                   env=replace(run.env, process_noise_std=0.0))


def forecast_noise_model(run: RunConfig) -> NoiseModel:
    """The run's forecast error for the weather builders.  The 'default'
    preset is default_forecast_noise, which they scale by the mean ET of
    the season they attach forecasts to."""
    if run.forecast_noise == "default":
        return default_forecast_noise
    return ForecastNoise() if run.forecast_noise == "exact" else run.forecast_noise


def _csv_weather(run: RunConfig) -> WeatherTable:
    """Every usable record of the run's weather log, with forecasts."""
    return load_weather_csv(run.weather_csv, noise=forecast_noise_model(run),
                            seed=run.seed)


def build_season_weather(run: RunConfig) -> WeatherTable:
    """Evaluation-season weather: days + 1 records (see env timeline).

    From CSV when configured (the first days + 1 usable records; the file
    must be long enough), synthetic otherwise.
    """
    if run.weather_csv is not None:
        season = _csv_weather(run)
        if len(season) < run.days + 1:
            raise ValueError(
                f"{run.weather_csv}: need {run.days + 1} usable records, "
                f"got {len(season)}"
            )
        return season[:run.days + 1]
    return synthesize_season(run.seed, run.days + 1, run.climate,
                             forecast_noise_model(run))


def build_training_weather(run: RunConfig) -> WeatherTable:
    """Weather for episode sampling during training, disjoint in dates from
    the evaluation season.

    From CSV: the usable records after the season's days + 1, of which
    there must be at least trainer.episode_length + 1.  Synthetic: a corpus
    of TRAINING_SEASONS seasons of max(days, trainer.episode_length) + 1
    records each, so every season holds a whole training episode; they take
    consecutive years before the evaluation year, so dates stay strictly
    increasing, and every season gets its own derived seed.
    """
    if run.weather_csv is not None:
        corpus = _csv_weather(run)[run.days + 1:]
        need = run.trainer.episode_length + 1
        if len(corpus) < need:
            raise ValueError(
                f"{run.weather_csv}: training needs {need} usable records "
                f"after the {run.days + 1}-record evaluation season, "
                f"got {len(corpus)}"
            )
        return corpus
    rng = np.random.default_rng(run.seed)
    seeds = [int(rng.integers(2 ** 32)) for _ in range(TRAINING_SEASONS)]
    noise = forecast_noise_model(run)
    n_records = max(run.days, run.trainer.episode_length) + 1
    first_year = run.climate.start.year - TRAINING_SEASONS
    seasons = []
    for k in range(TRAINING_SEASONS):
        start = dt.date(first_year + k, run.climate.start.month,
                        run.climate.start.day)
        climate = replace(run.climate, start=start)
        seasons.append(synthesize_season(seeds[k], n_records, climate, noise))
    return WeatherTable.concatenate(seasons)


def build_shield_config(run: RunConfig) -> ShieldConfig:
    """The run's shield: its configured models ("env" borrows the
    simulator's dynamics), stress level, saturation cap and a_max."""
    env_cfg = build_env_config(run)
    return ShieldConfig(
        model=(run.dynamics if run.shield.model == "env"
               else tuple(run.shield.model)),
        v_mad=env_cfg.levels.v_mad,
        cap=env_cfg.saturation_cap,
        a_max=run.env.a_max,
    )


# -- JSON (de)serialization --------------------------------------------------


def to_json_dict(value):
    """The JSON form of a RunConfig (or of any value in one): dataclasses
    become objects, tuples lists and dates ISO strings."""
    if dataclasses.is_dataclass(value):
        return {f.name: to_json_dict(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [to_json_dict(v) for v in value]
    return value.isoformat() if isinstance(value, dt.date) else value


@functools.cache
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _decode_fields(cls, doc, path: str, base=None) -> dict:
    """Constructor arguments of cls for the keys doc names; a nested section
    merges over the same field of base."""
    section = path or "config"
    if not isinstance(doc, dict):
        raise ValueError(f"{section} must be an object")
    hints = _field_types(cls)
    unknown = set(doc) - set(hints)
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
    return {k: _decode(hints[k], v, f"{path}.{k}" if path else k, getattr(base, k, None))
            for k, v in doc.items()}


def _decode(tp, value, path: str, base=None):
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        # X | None, and the str-or-structure fields (presets and "env")
        options = [a for a in typing.get_args(tp) if a is not types.NoneType]
        if value is None or (isinstance(value, str) and str in options):
            return value
        tp = options[-1]
    if dataclasses.is_dataclass(tp):
        kwargs = _decode_fields(tp, value, path, base)
        return replace(base, **kwargs) if isinstance(base, tp) else tp(**kwargs)
    if typing.get_origin(tp) is tuple:
        item = typing.get_args(tp)[0]
        return tuple(_decode(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    if tp is dt.date:
        return dt.date.fromisoformat(value)
    return tp(value) if tp in (int, float, str) else value


def from_json_dict(doc: dict) -> RunConfig:
    """Build a RunConfig from a (possibly partial) JSON document; omitted
    dynamics repeat the default region models up to n_regions."""
    kwargs = _decode_fields(RunConfig, doc, "", RunConfig())
    if "dynamics" not in kwargs:
        kwargs["dynamics"] = default_dynamics(
            kwargs.get("n_regions", RunConfig.n_regions))
    return RunConfig(**kwargs)


def save_config(run: RunConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(run), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return from_json_dict(json.load(fh))


def config_hash(run: RunConfig) -> str:
    """Stable short fingerprint of the experiment: the full configuration
    except out_dir, which only says where its files land."""
    doc = to_json_dict(run)
    del doc["out_dir"]
    canonical = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
