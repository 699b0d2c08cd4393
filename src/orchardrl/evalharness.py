"""Season-long experiment runner: paired controller comparisons and metrics.

A roster runs as one lockstep batch: one IrrigationEnv episode per
controller, every episode reset with the run's seed.  So every controller
faces the same weather, initial soil state and process-noise stream by
construction, and water and stress metrics differ only through the
decisions.  Each day every controller decides on its own episode's
observation row.  Results persist as a daily CSV, a
summary CSV, and a JSON manifest carrying the config fingerprint.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import os
from dataclasses import dataclass

import numpy as np

from .agent.policy import SquashedGaussianPolicy
from .agent.ppo import CurvePoint, train
from .controllers import (
    ConstantController,
    EtController,
    RlController,
    SensorController,
    ShieldedController,
)
from .env import IrrigationEnv
from .hydrology import SoilLevels
from .runconfig import (
    RunConfig,
    build_env_config,
    build_levels,
    build_season_weather,
    build_shield_models,
    build_training_weather,
    config_hash,
)
from .safety import ShieldConfig
from .software import software_environment

# Controllers that deploy a trained policy; rl-mad's is trained on the
# mad-only reward, the others' on the run's.
POLICY_NAMES = ("rl", "rl-mad", "rl-noshield")
ROSTER_NAMES = ("et", "sensor") + POLICY_NAMES
# zero is a diagnostic that never irrigates, outside the paired roster.
CONTROLLER_NAMES = ROSTER_NAMES + ("zero",)


@dataclass
class ControllerResult:
    """One controller's season: series, totals, and stress accounting."""

    name: str
    season_days: int
    initial_v: np.ndarray
    dates: list[dt.date]
    daily_water: np.ndarray       # (days,) executed irrigation, summed over regions
    actions: np.ndarray           # (days, n) post-shield depths as executed
    soil: np.ndarray              # (days, n) end-of-day water content
    sources: list[str]
    deficits: np.ndarray          # (days,) shield-predicted deficit (nan if unscreened)
    triggered: np.ndarray         # (days,) bool

    @property
    def total_water(self) -> float:
        return float(self.daily_water.sum())

    @property
    def shield_trigger_days(self) -> int:
        return int(self.triggered.sum())


@dataclass
class ExperimentResult:
    season_days: int
    seed: int
    config_fingerprint: str
    entries: dict[str, ControllerResult]


def qos(entry: ControllerResult, levels: SoilLevels) -> tuple[int, int]:
    """(days any region ended below the stress threshold,
    days any region ended above field capacity)."""
    below = int(np.sum(np.any(entry.soil < levels.v_mad, axis=1)))
    above = int(np.sum(np.any(entry.soil > levels.v_fc, axis=1)))
    return below, above


def per_region_band_days(entry: ControllerResult,
                         levels: SoilLevels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-region (below, in-band, above) day counts; they sum to the season
    length region by region."""
    below = (entry.soil < levels.v_mad).sum(axis=0)
    above = (entry.soil > levels.v_fc).sum(axis=0)
    in_band = entry.soil.shape[0] - below - above
    return below, in_band, above


def water_savings(candidate: ControllerResult, baseline: ControllerResult) -> float:
    """Percent of the baseline's water the candidate did not use."""
    if candidate.season_days != baseline.season_days:
        raise ValueError("season lengths differ; comparison is not paired")
    if baseline.total_water == 0:
        raise ValueError("baseline used no water; savings undefined")
    return 100.0 * (baseline.total_water - candidate.total_water) / baseline.total_water


def run_roster(run: RunConfig, controllers: dict[str, object],
               days: int | None = None) -> ExperimentResult:
    """Paired season comparison: each controller steps its own episode of one
    batched environment, all in lockstep.

    The season weather has days + 1 records, so every episode starts on its
    first day.  Every episode resets with the run's seed, so all controllers
    see identical initial soil water and noise streams, and a controller's
    season does not depend on which others share the roster.
    """
    n_days = days or run.days
    season = build_season_weather(run, days=n_days)
    names = list(controllers)
    E, n = len(names), run.n_regions
    env = IrrigationEnv(build_env_config(run, episode_length=n_days), season)
    obs = env.reset([run.seed] * E)

    initial_v = env.v.copy()
    actions = np.zeros((E, n_days, n))
    soil = np.zeros((E, n_days, n))
    sources: list[list[str]] = [[] for _ in names]
    deficits = np.full((E, n_days), np.nan)
    triggered = np.zeros((E, n_days), dtype=bool)

    for day in range(n_days):
        decisions = [controllers[name].decide(row) for name, row in zip(names, obs)]
        obs, _ = env.step(np.reshape([d.action for d in decisions], (E, n)))
        actions[:, day] = env.a
        soil[:, day] = env.v
        for e, decision in enumerate(decisions):
            sources[e].append(decision.source)
            if decision.report is not None:
                deficits[e, day] = decision.report.deficit_sum
                triggered[e, day] = decision.report.triggered

    dates = [w.date for w in season[1:]]
    entries = {
        name: ControllerResult(
            name=name, season_days=n_days, initial_v=initial_v[e],
            dates=list(dates), daily_water=actions[e].sum(axis=1),
            actions=actions[e],
            soil=soil[e], sources=sources[e], deficits=deficits[e],
            triggered=triggered[e])
        for e, name in enumerate(names)}
    return ExperimentResult(season_days=n_days, seed=run.seed,
                            config_fingerprint=config_hash(run),
                            entries=entries)


# -- controller construction -------------------------------------------------


def build_shield_config(run: RunConfig, enabled: bool = True) -> ShieldConfig:
    env_cfg = build_env_config(run)
    return ShieldConfig(
        model=build_shield_models(run),
        v_mad=env_cfg.levels.v_mad,
        detector_threshold=run.shield.detector_threshold,
        enabled=enabled,
        cap=env_cfg.saturation_cap,
        a_max=run.env.a_max,
    )


def build_controller(run: RunConfig, name: str,
                     policy: SquashedGaussianPolicy | None = None):
    """Instantiate a roster controller by name.

    rl and rl-mad wrap the policy in the shield; rl-noshield wraps it in a
    disabled shield so counterfactual deficits still log.  rl-mad expects a
    policy trained under the ablated reward (a run whose reward.kind is
    "mad-only"); the caller supplies the right snapshot.
    """
    et = EtController(run.n_regions, run.env.a_max)
    if name == "et":
        return et
    if name == "sensor":
        run.sensor.validate_against(build_levels(run))
        fill_gain = build_shield_models(run)[0].c2
        return SensorController(run.sensor, fill_gain=fill_gain,
                                a_max=run.env.a_max)
    if name in POLICY_NAMES:
        if policy is None:
            raise ValueError(f"controller '{name}' needs a trained policy")
        shield = build_shield_config(run, enabled=name != "rl-noshield")
        return ShieldedController(RlController(policy), shield, et)
    if name == "zero":
        return ConstantController(run.n_regions, 0.0)
    raise ValueError(f"unknown controller '{name}' (choices: {CONTROLLER_NAMES})")


def train_policy_for_run(run: RunConfig
                         ) -> tuple[SquashedGaussianPolicy, list[CurvePoint]]:
    """Train on the run's reward, with episodes of trainer.episode_length
    days drawn from the run's training weather."""
    env = IrrigationEnv(
        build_env_config(run, episode_length=run.trainer.episode_length),
        build_training_weather(run))
    policy, curve = train(run.trainer, env, seed=run.seed)
    policy.config_hash = config_hash(run)
    return policy, curve


# -- persistence ---------------------------------------------------------------


def write_results(outdir, experiment: ExperimentResult,
                  levels: SoilLevels) -> None:
    """Persist summary.csv, daily.csv, and manifest.json under outdir; the
    manifest also records the software environment."""
    os.makedirs(outdir, exist_ok=True)
    n_regions = next(iter(experiment.entries.values())).soil.shape[1] \
        if experiment.entries else 0

    with open(os.path.join(outdir, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("controller", "total_water", "days_below_mad",
                         "days_above_fc", "shield_trigger_days", "season_days"))
        for name, entry in experiment.entries.items():
            below, above = qos(entry, levels)
            writer.writerow((name, repr(entry.total_water), below, above,
                             entry.shield_trigger_days, entry.season_days))

    with open(os.path.join(outdir, "daily.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["controller", "day", "date", "daily_water"]
        header += [f"a_{i}" for i in range(n_regions)]
        header += [f"v_{i}" for i in range(n_regions)]
        header += ["deficit", "triggered", "source"]
        writer.writerow(header)
        for name, entry in experiment.entries.items():
            for day in range(entry.season_days):
                row = [name, day, entry.dates[day].isoformat(),
                       repr(float(entry.daily_water[day]))]
                row += [repr(float(x)) for x in entry.actions[day]]
                row += [repr(float(x)) for x in entry.soil[day]]
                d = entry.deficits[day]
                row += ["" if np.isnan(d) else repr(float(d)),
                        int(entry.triggered[day]), entry.sources[day]]
                writer.writerow(row)

    manifest = {
        "config_fingerprint": experiment.config_fingerprint,
        "seed": experiment.seed,
        "season_days": experiment.season_days,
        "controllers": list(experiment.entries),
        "levels": {"v_pwp": levels.v_pwp, "v_awc": levels.v_awc,
                   "v_fc": levels.v_fc, "v_mad": levels.v_mad},
        "software": software_environment(),
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_summary(path) -> dict[str, dict]:
    """Load summary.csv back into {controller: row-dict} with exact floats."""
    out: dict[str, dict] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out[row["controller"]] = {
                "total_water": float(row["total_water"]),
                "days_below_mad": int(row["days_below_mad"]),
                "days_above_fc": int(row["days_above_fc"]),
                "shield_trigger_days": int(row["shield_trigger_days"]),
                "season_days": int(row["season_days"]),
            }
    return out


def read_daily(path) -> dict[str, list[dict]]:
    """Load daily.csv back into {controller: [row-dicts]} with exact floats."""
    out: dict[str, list[dict]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rec = dict(row)
            rec["day"] = int(row["day"])
            rec["daily_water"] = float(row["daily_water"])
            for key in row:
                if key.startswith(("a_", "v_")):
                    rec[key] = float(row[key])
            rec["deficit"] = float(row["deficit"]) if row["deficit"] else None
            rec["triggered"] = bool(int(row["triggered"]))
            out.setdefault(row["controller"], []).append(rec)
    return out
