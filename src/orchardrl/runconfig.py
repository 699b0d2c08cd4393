"""Run configuration: one JSON document drives every experiment.

Schema (all keys optional; omitted keys take the defaults shown by
``save_config(default_run_config(), path)``):

    seed            int     master seed; all randomness derives from it
    days            int     season length in control days
    n_regions       int     irrigation regions
    out_dir         str     where results land
    weather_csv     str?    daily weather log; null means synthetic weather
    forecast_noise  "default" | "exact" | {et_std, miss_rate,
                    false_alarm_rate, false_alarm_mean, precip_rel_std}
    climate         {start, t_base_f, t_amp_f, t_jitter_f, t_spread_f,
                    et_rel_noise, ...} scalar overrides of the synthetic climate
    profile         {awc_per_foot, pwp_fraction, root_depth_feet,
                    root_depth_inches, sensor_depth_spans, mad_fraction}
    dynamics        [{c1, c2, c3, b}, ...] per-region ground-truth models
    reward          {lambda1, mu1, mu2, lambda3, mu3, kind}
    env             {irrigation_rate, a_max, episode_length,
                    process_noise_std, surplus_headroom}
    trainer         {learning_rate, gamma, clip_epsilon, minibatch_size,
                    max_iterations, episodes_per_iteration,
                    episode_length, convergence_band, convergence_window,
                    convergence_patience, epochs, hidden, init_log_std,
                    warmup_episodes}
    shield          {enabled, detector_threshold, signed_detector,
                    model: "env" | [{c1, c2, c3, b}, ...]}
    sensor          {lower_threshold, upper_threshold}
    policy_path     str?    trained policy snapshot to evaluate

The normalized observation layout (see the environment module) is
[v per region, et, precip, t_max, t_avg, t_min, h_max, h_avg, h_min, solar,
wind, predicted_et_next, forecast_precip_next, month one-hot(12)]; the month
one-hot is never rescaled.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .agent.ppo import TrainerConfig
from .env import (
    DEFAULT_REGION_DYNAMICS,
    EnvConfig,
    RewardParams,
    REWARD_KINDS,
)
from .hydrology import SoilProfile, derive_levels, testbed_profile
from .predictor import PredictorModel
from .weather import (
    ClimateParams,
    ForecastNoise,
    WeatherDay,
    default_forecast_noise,
    load_weather_csv,
    synthesize_season,
)

FORECAST_PRESETS = ("default", "exact")


@dataclass(frozen=True)
class RewardWeights:
    lambda1: float = 3.0
    mu1: float = 8.0
    mu2: float = 3.0
    lambda3: float = 10.0
    mu3: float = 1.0
    kind: str = "full"

    def __post_init__(self) -> None:
        if self.kind not in REWARD_KINDS:
            raise ValueError(f"reward kind must be one of {REWARD_KINDS}")


@dataclass(frozen=True)
class EnvSettings:
    irrigation_rate: float = 0.018
    a_max: float = 0.54
    episode_length: int = 30
    process_noise_std: float = 0.01
    surplus_headroom: float = 1.0


@dataclass(frozen=True)
class ShieldSettings:
    enabled: bool = True
    detector_threshold: float = 0.0
    signed_detector: bool = False
    # "env" borrows the simulator's ground-truth dynamics (exact-model
    # screening); otherwise one fitted model per region.
    model: str | tuple[PredictorModel, ...] = "env"


@dataclass(frozen=True)
class SensorSettings:
    lower_threshold: float = 4.96
    upper_threshold: float = 6.97


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
    reward: RewardWeights = field(default_factory=RewardWeights)
    env: EnvSettings = field(default_factory=EnvSettings)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    shield: ShieldSettings = field(default_factory=ShieldSettings)
    sensor: SensorSettings = field(default_factory=SensorSettings)
    policy_path: str | None = None

    def __post_init__(self) -> None:
        if self.days < 1 or self.n_regions < 1:
            raise ValueError("days and n_regions must be >= 1")
        if len(self.dynamics) != self.n_regions:
            raise ValueError("need one dynamics model per region")
        if isinstance(self.forecast_noise, str) and self.forecast_noise not in FORECAST_PRESETS:
            raise ValueError(f"forecast_noise preset must be one of {FORECAST_PRESETS}")


def default_run_config(**overrides) -> RunConfig:
    cfg = RunConfig()
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def field15_run_config(**overrides) -> RunConfig:
    """Short two-week trial preset mirroring a mid-season deployment window.

    Fifteen days starting July 1st, everything else at defaults.  Savings
    percentages over a window this short swing with the weather draw, so
    treat them as reference points rather than targets.
    """
    cfg = default_run_config(days=15)
    cfg = replace(cfg, climate=replace(cfg.climate,
                                       start=dt.date(cfg.climate.start.year, 7, 1)))
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


# -- builders: turn the declarative config into live objects ----------------


def build_levels(run: RunConfig):
    return derive_levels(run.profile)


def build_reward_params(run: RunConfig) -> RewardParams:
    w = run.reward
    return RewardParams(levels=build_levels(run), lambda1=w.lambda1, mu1=w.mu1,
                        mu2=w.mu2, lambda3=w.lambda3, mu3=w.mu3)


def build_env_config(run: RunConfig, episode_length: int | None = None,
                     reward_kind: str | None = None) -> EnvConfig:
    return EnvConfig(
        profile=run.profile,
        dynamics=run.dynamics,
        reward_params=build_reward_params(run),
        n_regions=run.n_regions,
        irrigation_rate=run.env.irrigation_rate,
        a_max=run.env.a_max,
        episode_length=episode_length or run.env.episode_length,
        process_noise_std=run.env.process_noise_std,
        surplus_headroom=run.env.surplus_headroom,
        reward_kind=reward_kind or run.reward.kind,
    )


def resolve_forecast_noise(run: RunConfig,
                           season_et_mean: float | None = None) -> ForecastNoise:
    if isinstance(run.forecast_noise, ForecastNoise):
        return run.forecast_noise
    if run.forecast_noise == "exact":
        return ForecastNoise()
    if season_et_mean is None:
        raise ValueError("the 'default' noise preset needs the season ET mean")
    return default_forecast_noise(season_et_mean)


def _climate_with_noise(run: RunConfig) -> ClimateParams:
    if isinstance(run.forecast_noise, ForecastNoise):
        return replace(run.climate, forecast_noise=run.forecast_noise)
    if run.forecast_noise == "exact":
        return replace(run.climate, forecast_noise=ForecastNoise())
    return replace(run.climate, forecast_noise=None)   # derive the default


def build_season_weather(run: RunConfig, days: int | None = None,
                         seed_offset: int = 0) -> list[WeatherDay]:
    """Evaluation-season weather: days + 1 records (see env timeline).

    From CSV when configured (the file must be long enough), synthetic
    otherwise.  seed_offset separates weather randomness streams that must
    not collide (e.g. evaluation vs training seasons).
    """
    n_days = days or run.days
    if run.weather_csv is not None:
        if isinstance(run.forecast_noise, ForecastNoise):
            noise = run.forecast_noise
        elif run.forecast_noise == "exact":
            noise = ForecastNoise()
        else:
            # derive the default noise level from the log's own ET scale
            plain = load_weather_csv(run.weather_csv, noise=ForecastNoise())
            et_mean = float(np.mean([d.et for d in plain])) if plain else 0.0
            noise = default_forecast_noise(et_mean)
        season = load_weather_csv(run.weather_csv, noise=noise,
                                  seed=run.seed + seed_offset)
        if len(season) < n_days + 1:
            raise ValueError(
                f"{run.weather_csv}: need {n_days + 1} usable records, "
                f"got {len(season)}"
            )
        return season[:n_days + 1]
    climate = _climate_with_noise(run)
    return synthesize_season(run.seed + seed_offset, n_days + 1, climate)


def build_training_weather(run: RunConfig, n_seasons: int = 4) -> list[WeatherDay]:
    """Multi-year synthetic corpus for episode sampling during training.

    Seasons take consecutive years before the evaluation year so dates stay
    strictly increasing; every season gets its own derived seed.
    """
    if run.weather_csv is not None:
        return build_season_weather(run)
    rng = np.random.default_rng(run.seed)
    seeds = [int(rng.integers(2 ** 32)) for _ in range(n_seasons)]
    base_climate = _climate_with_noise(run)
    corpus: list[WeatherDay] = []
    first_year = run.climate.start.year - n_seasons
    for k in range(n_seasons):
        start = dt.date(first_year + k, run.climate.start.month,
                        run.climate.start.day)
        climate = replace(base_climate, start=start)
        corpus.extend(synthesize_season(seeds[k], run.days + 1, climate))
    return corpus


def build_shield_models(run: RunConfig) -> tuple[PredictorModel, ...]:
    if run.shield.model == "env":
        return run.dynamics
    return tuple(run.shield.model)


# -- JSON (de)serialization --------------------------------------------------


def _model_to_dict(m: PredictorModel) -> dict:
    return {"c1": m.c1, "c2": m.c2, "c3": m.c3, "b": m.b,
            "r_squared": m.r_squared, "nrmse": m.nrmse}


def _model_from_dict(d: dict) -> PredictorModel:
    return PredictorModel(
        c1=float(d["c1"]), c2=float(d["c2"]), c3=float(d["c3"]),
        b=float(d["b"]),
        r_squared=None if d.get("r_squared") is None else float(d["r_squared"]),
        nrmse=None if d.get("nrmse") is None else float(d["nrmse"]),
    )


def to_json_dict(run: RunConfig) -> dict:
    noise = run.forecast_noise
    return {
        "seed": run.seed,
        "days": run.days,
        "n_regions": run.n_regions,
        "out_dir": run.out_dir,
        "weather_csv": run.weather_csv,
        "forecast_noise": noise if isinstance(noise, str) else dataclasses.asdict(noise),
        "climate": {
            "start": run.climate.start.isoformat(),
            **{f.name: getattr(run.climate, f.name)
               for f in dataclasses.fields(ClimateParams)
               if f.name not in ("start", "et_params", "precip_event_prob",
                                 "forecast_noise")},
            "precip_event_prob": list(run.climate.precip_event_prob),
        },
        "profile": {
            "awc_per_foot": run.profile.awc_per_foot,
            "pwp_fraction": run.profile.pwp_fraction,
            "root_depth_feet": run.profile.root_depth_feet,
            "root_depth_inches": run.profile.root_depth_inches,
            "sensor_depth_spans": list(run.profile.sensor_depth_spans),
            "mad_fraction": run.profile.mad_fraction,
        },
        "dynamics": [_model_to_dict(m) for m in run.dynamics],
        "reward": dataclasses.asdict(run.reward),
        "env": dataclasses.asdict(run.env),
        "trainer": {**dataclasses.asdict(run.trainer),
                    "hidden": list(run.trainer.hidden)},
        "shield": {
            "enabled": run.shield.enabled,
            "detector_threshold": run.shield.detector_threshold,
            "signed_detector": run.shield.signed_detector,
            "model": run.shield.model if isinstance(run.shield.model, str)
            else [_model_to_dict(m) for m in run.shield.model],
        },
        "sensor": dataclasses.asdict(run.sensor),
        "policy_path": run.policy_path,
    }


def _take(d: dict, allowed: set[str], section: str) -> dict:
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
    return d


def from_json_dict(doc: dict) -> RunConfig:
    """Build a RunConfig from a (possibly partial) JSON document."""
    base = RunConfig()
    top_allowed = {
        "seed", "days", "n_regions", "out_dir", "weather_csv",
        "forecast_noise", "climate", "profile", "dynamics", "reward", "env",
        "trainer", "shield", "sensor", "policy_path",
    }
    _take(doc, top_allowed, "config")

    noise = doc.get("forecast_noise", base.forecast_noise)
    if isinstance(noise, dict):
        noise = ForecastNoise(**noise)

    climate = base.climate
    if "climate" in doc:
        cdict = dict(doc["climate"])
        if "start" in cdict:
            cdict["start"] = dt.date.fromisoformat(cdict["start"])
        if "precip_event_prob" in cdict:
            cdict["precip_event_prob"] = tuple(cdict["precip_event_prob"])
        climate = replace(climate, **cdict)

    profile = base.profile
    if "profile" in doc:
        pdict = dict(doc["profile"])
        if "sensor_depth_spans" in pdict:
            pdict["sensor_depth_spans"] = tuple(pdict["sensor_depth_spans"])
        profile = SoilProfile(**{**{
            "awc_per_foot": profile.awc_per_foot,
            "pwp_fraction": profile.pwp_fraction,
            "root_depth_feet": profile.root_depth_feet,
            "root_depth_inches": profile.root_depth_inches,
            "sensor_depth_spans": profile.sensor_depth_spans,
            "mad_fraction": profile.mad_fraction,
        }, **pdict})

    n_regions = int(doc.get("n_regions", base.n_regions))
    if "dynamics" in doc:
        dynamics = tuple(_model_from_dict(d) for d in doc["dynamics"])
    else:
        dynamics = tuple(DEFAULT_REGION_DYNAMICS[i % len(DEFAULT_REGION_DYNAMICS)]
                         for i in range(n_regions))

    reward = RewardWeights(**doc["reward"]) if "reward" in doc else base.reward
    env_settings = EnvSettings(**doc["env"]) if "env" in doc else base.env

    trainer = base.trainer
    if "trainer" in doc:
        tdict = dict(doc["trainer"])
        _take(tdict, {f.name for f in dataclasses.fields(TrainerConfig)}, "trainer")
        if "hidden" in tdict:
            tdict["hidden"] = tuple(tdict["hidden"])
        trainer = replace(trainer, **tdict)

    shield = base.shield
    if "shield" in doc:
        sdict = dict(doc["shield"])
        if "model" in sdict and not isinstance(sdict["model"], str):
            sdict["model"] = tuple(_model_from_dict(m) for m in sdict["model"])
        shield = replace(shield, **sdict)

    sensor = SensorSettings(**doc["sensor"]) if "sensor" in doc else base.sensor

    return RunConfig(
        seed=int(doc.get("seed", base.seed)),
        days=int(doc.get("days", base.days)),
        n_regions=n_regions,
        out_dir=str(doc.get("out_dir", base.out_dir)),
        weather_csv=doc.get("weather_csv", base.weather_csv),
        forecast_noise=noise,
        climate=climate,
        profile=profile,
        dynamics=dynamics,
        reward=reward,
        env=env_settings,
        trainer=trainer,
        shield=shield,
        sensor=sensor,
        policy_path=doc.get("policy_path", base.policy_path),
    )


def save_config(run: RunConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(run), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return from_json_dict(json.load(fh))


def config_hash(run: RunConfig) -> str:
    """Stable short fingerprint of the full configuration."""
    canonical = json.dumps(to_json_dict(run), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
