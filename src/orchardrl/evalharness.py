"""Season-long experiment runner: paired controller comparisons and metrics.

A roster runs one paired season: one episode's weather, start, initial soil
water and process noise (one IrrigationEnv reset with the run's seed),
shared by every controller, so water and stress metrics differ only through
the decisions.  The season's weather-only inputs are read once: the
observation rows' weather columns, the forecast the shield screens against,
the next day's actual precipitation and ET that drive the plant, and each
ET baseline's daily doses (EtController.dose; the shield's fallback is that
series at the run's a_max).  Each day fills one (E, n + OBS_EXTRA) block of
observation rows from the (E, n) soil block, one row per controller, and
every controller proposes one way: an ET baseline takes its dose of the
day; the first RL controller of each policy decides in one stacked pass per
architecture (agent.policy's PolicyStack, bit for bit its mean_action); a
later controller of the same policy copies that proposal while their soil
rows are bitwise equal and decides on its own row once they differ; every
other controller decides on its own row.  One safety.screen_rows call
screens the soil rows of every ShieldedController under the day's
forecast, and env.water_balance, the step IrrigationEnv.step runs, advances
the whole block.  Results persist as a daily CSV, a summary CSV, and a JSON
manifest carrying the config fingerprint.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import os
from dataclasses import dataclass

import numpy as np

from .agent.policy import PolicyStack, SquashedGaussianPolicy
from .agent.ppo import CurvePoint, train
from .controllers import (
    SOURCE_SHIELD,
    ConstantController,
    EtController,
    RlController,
    SensorController,
    ShieldedController,
)
from .env import (
    OBS_ET,
    OBS_EXTRA,
    OBS_FORECAST_PRECIP_NEXT,
    OBS_PRECIP,
    OBS_PREDICTED_ET_NEXT,
    IrrigationEnv,
    water_balance,
)
from .hydrology import SoilLevels
from .runconfig import (
    RunConfig,
    build_env_config,
    build_levels,
    build_season_weather,
    build_shield_config,
    build_training_weather,
    config_hash,
)
from .safety import screen_rows
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


def run_roster(run: RunConfig, controllers: dict[str, object]) -> ExperimentResult:
    """Paired season comparison: every controller runs its own row of one
    (E, n) soil-water block, all in lockstep.

    The season weather has days + 1 records, so the episode starts on its
    first day.  A controller's season does not depend on which others share
    the roster: each of its entries is bit for bit what a plain per-day
    loop of IrrigationEnv.step, its own decide and one-row screens gives.
    """
    season = build_season_weather(run)
    E, n, days = len(controllers), run.n_regions, run.days
    config = build_env_config(run)
    env = IrrigationEnv(config, season)
    env.reset([run.seed])
    noise = env.process_noise[:, 0]

    # the season's weather-only inputs, read once from the episode's start
    columns = env.weather_obs[env.starts[0]:]
    et, precip = columns[:, OBS_ET].tolist(), columns[:, OBS_PRECIP].tolist()
    et_next = columns[:, OBS_PREDICTED_ET_NEXT].tolist()
    precip_next = columns[:, OBS_FORECAST_PRECIP_NEXT].tolist()

    def doses(ctl: EtController) -> list[float]:
        return [ctl.dose(x, p) for x, p in zip(et[:days], precip[:days])]

    # the shield's fallback is the ET baseline at the run's a_max
    fallback = doses(EtController(n, run.env.a_max))

    screened, enabled, series, twins, alone = [], [], [], [], []
    leads: dict[int, int] = {}
    stacked: dict[tuple, list] = {}
    for e, c in enumerate(controllers.values()):
        if isinstance(c, ShieldedController):
            screened.append(e)
            enabled.append(c.enabled)
            c = c.inner
        if isinstance(c, EtController):
            series.append((e, doses(c)))
        elif isinstance(c, RlController):
            lead = leads.setdefault(id(c.policy), e)
            if lead == e:
                stacked.setdefault(c.policy.net.sizes, []).append((e, c.policy))
            else:
                twins.append((e, lead, c.decide))
        else:
            alone.append((e, c.decide))
    stacks = [(np.array([e for e, _ in group]),
               PolicyStack([policy for _, policy in group]))
              for group in stacked.values()]
    screened = np.array(screened, dtype=int)
    shield = build_shield_config(run) if screened.size else None

    obs = np.empty((E, n + OBS_EXTRA))
    v = np.repeat(env.initial_v, E, axis=0)
    actions = np.zeros((E, days, n))
    soil = np.zeros((E, days, n))
    deficits = np.full((E, days), np.nan)
    triggered = np.zeros((E, days), dtype=bool)
    proposals = np.empty((E, n))

    for day in range(days):
        obs[:, :n] = v
        obs[:, n:] = columns[day]
        for e, dose in series:
            proposals[e] = dose[day]
        for e, decide in alone:
            proposals[e] = decide(obs[e])
        for rows, stack in stacks:
            proposals[rows] = stack.mean_actions(obs[rows])
        # a twin shares its lead's policy: on a bitwise equal soil row (the
        # weather columns are shared) it copies the lead's proposal, before
        # the shield replaces any of them
        for e, lead, decide in twins:
            proposals[e] = (proposals[lead]
                            if v[e].tobytes() == v[lead].tobytes()
                            else decide(obs[e]))
        if shield is not None:
            (proposals[screened], deficits[screened, day],
             triggered[screened, day]) = screen_rows(
                shield, v[screened], proposals[screened], precip_next[day],
                et_next[day], fallback[day], enabled)
        v, actions[:, day] = water_balance(config, v, proposals,
                                           precip[day + 1], et[day + 1],
                                           noise[day])
        soil[:, day] = v

    dates = season.dates[1:].tolist()
    return ExperimentResult(
        season_days=days, seed=run.seed, config_fingerprint=config_hash(run),
        entries={name: ControllerResult(
            season_days=days, initial_v=env.initial_v[0].copy(),
            dates=list(dates), daily_water=actions[e].sum(axis=1),
            actions=actions[e], soil=soil[e],
            sources=[SOURCE_SHIELD if t else ctl.source
                     for t in triggered[e].tolist()],
            deficits=deficits[e], triggered=triggered[e])
            for e, (name, ctl) in enumerate(controllers.items())})


# -- controller construction -------------------------------------------------


def build_controller(run: RunConfig, name: str,
                     policy: SquashedGaussianPolicy | None = None):
    """Instantiate a roster controller by name.

    rl and rl-mad wrap the policy in the shield; rl-noshield wraps it in a
    disabled shield so counterfactual deficits still log.  rl-mad expects a
    policy trained under the ablated reward (a run whose reward.kind is
    "mad-only"); the caller supplies the right snapshot.
    """
    if name == "et":
        return EtController(run.n_regions, run.env.a_max)
    if name == "sensor":
        run.sensor.validate_against(build_levels(run))
        # each region fills under its own shield model's gain c2
        return SensorController(run.sensor,
                                fill_gain=build_shield_config(run).coef[1],
                                a_max=run.env.a_max)
    if name in POLICY_NAMES:
        if policy is None:
            raise ValueError(f"controller '{name}' needs a trained policy")
        return ShieldedController(RlController(policy),
                                  enabled=name != "rl-noshield")
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


# csv.writer's default dialect: a field holding one of these characters is
# quoted, with its quote characters doubled; rows end in CRLF
_CSV_SPECIAL = frozenset(',"\r\n')
_CSV_EOL = "\r\n"


def _csv_field(text: str) -> str:
    """text as csv.writer writes it as one field of a row."""
    if _CSV_SPECIAL.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _daily_blocks(entries: dict[str, ControllerResult]):
    """daily.csv's data lines, one string per controller, byte for byte what
    csv.writer writes for [name, day, date, repr of each float, deficit or
    "", triggered as 0/1, source].

    The water, action and soil floats of the whole file are formatted once
    per distinct float64 bit pattern (bits, not values, so -0.0 and 0.0
    keep their own reprs), into one table of strings that all rows index;
    each date is formatted once.
    """
    blocks = np.concatenate([np.column_stack([e.daily_water, e.actions, e.soil])
                             for e in entries.values()])
    distinct, inverse = np.unique(blocks.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, distinct.view(np.float64).tolist())),
                    dtype=object)
    # zip takes a date before a row, so each controller's rows stop at its
    # last date and the next controller's rows start where they stopped
    table = iter(text[inverse.reshape(blocks.shape)].tolist())
    iso = dict.fromkeys(d for e in entries.values() for d in e.dates)
    for date in iso:
        iso[date] = date.isoformat()
    for name, entry in entries.items():
        name = _csv_field(name)
        yield "".join([
            f"{name},{day},{iso[date]},{','.join(row)},"
            f"{'' if deficit != deficit else repr(deficit)},{int(trig)},"
            f"{_csv_field(source)}{_CSV_EOL}"
            for day, (date, row, deficit, trig, source) in enumerate(zip(
                entry.dates, table, entry.deficits.tolist(),
                entry.triggered.tolist(), entry.sources))])


def write_results(outdir, experiment: ExperimentResult,
                  levels: SoilLevels) -> None:
    """Persist summary.csv, daily.csv, and manifest.json under outdir; the
    manifest also records the software environment.

    daily.csv is written without csv.writer but byte for byte as it would
    write it; each distinct float of the file is formatted once."""
    os.makedirs(outdir, exist_ok=True)
    n_regions = next(iter(experiment.entries.values())).soil.shape[1]

    with open(os.path.join(outdir, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("controller", "total_water", "days_below_mad",
                         "days_above_fc", "shield_trigger_days", "season_days"))
        for name, entry in experiment.entries.items():
            below, above = qos(entry, levels)
            writer.writerow((name, repr(entry.total_water), below, above,
                             entry.shield_trigger_days, entry.season_days))

    with open(os.path.join(outdir, "daily.csv"), "w", newline="") as fh:
        header = ["controller", "day", "date", "daily_water"]
        header += [f"a_{i}" for i in range(n_regions)]
        header += [f"v_{i}" for i in range(n_regions)]
        header += ["deficit", "triggered", "source"]
        fh.write(",".join(header) + _CSV_EOL)
        fh.writelines(_daily_blocks(experiment.entries))

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
