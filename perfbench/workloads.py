"""Workload inputs, CLI operations and output checks for the orchardrl benchmark.

A workload is a pool of generated inputs (run-config JSON files, policy
snapshots and reference weather) plus one ``orchardrl`` CLI invocation per
pool item.  Everything derives from the workload seed, so the same seed gives
the same inputs.  The checks read the CLI's output files back and verify them
against an independent numpy replay; each returns the item's decision
fingerprint or raises ``CheckFailed``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

ROSTER = ("et", "sensor", "rl", "rl-mad", "rl-noshield")
SEASON_DAYS = 246
A_MAX = 0.54
HEADROOM = 1.0
# Testbed loam profile and the calibrated two-region dynamics.  Both are
# written into every generated config, so the checks replay exactly the
# dynamics the program was given.
PROFILE = {"awc_per_foot": 2.4, "pwp_fraction": 0.10, "root_depth_feet": 1.97,
           "root_depth_inches": 23.62, "sensor_depth_spans": [11.81, 11.81],
           "mad_fraction": 0.5}
DYNAMICS = ({"c1": 0.998, "c2": 0.95, "c3": -0.70, "b": 0.002},
            {"c1": 0.997, "c2": 0.93, "c3": -0.75, "b": 0.003})
V_PWP = PROFILE["pwp_fraction"] * PROFILE["root_depth_inches"]
V_AWC = PROFILE["awc_per_foot"] * PROFILE["root_depth_feet"]
V_FC = V_PWP + V_AWC
V_MAD = V_PWP + PROFILE["mad_fraction"] * V_AWC
HIDDEN = (256, 256)
# Fixed training budget; a convergence window larger than the budget turns
# the early stop off, so every call does identical work.
TRAIN_ITERATIONS = 4
TRAIN_STEPS_PER_ITERATION = 2 * 16 * 30   # default workers x episodes x days
REPLAY_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # "train" or "compare"
    pool: int              # distinct inputs, cycled through during a run
    n_regions: int = 2

    def steps_per_op(self) -> int:
        """Env steps one operation performs: rollout steps of a train call,
        controller-days of a compare call."""
        if self.kind == "train":
            return TRAIN_ITERATIONS * TRAIN_STEPS_PER_ITERATION
        return len(ROSTER) * SEASON_DAYS


WORKLOADS = {
    "train": Workload("train", "train", pool=2),
    "season": Workload("season", "compare", pool=8, n_regions=2),
    "regions": Workload("regions", "compare", pool=4, n_regions=16),
}


class CheckFailed(Exception):
    """An operation's output files are missing, malformed or wrong."""


def quiet_cli(cli_main, argv) -> tuple[int, str]:
    """Run ``orchardrl`` in-process with its console output captured."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        rc = cli_main(argv)
    return rc, buf.getvalue()


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def pool_seeds(workload: Workload, seed: int) -> list[int]:
    index = list(WORKLOADS).index(workload.name)
    state = np.random.SeedSequence([seed & (2 ** 64 - 1), index]).generate_state(workload.pool + 1)
    return [int(s) % 2 ** 31 for s in state]


# -- setup -------------------------------------------------------------------


def setup(workload: Workload, seed: int, workdir: str) -> dict:
    """Generate every input of a run under workdir; returns (and stores as
    manifest.json) the list of pool items with their CLI arguments."""
    from orchardrl.cli import main as cli_main

    os.makedirs(workdir, exist_ok=True)
    seeds = pool_seeds(workload, seed)
    items = []
    if workload.kind == "train":
        for s in seeds[:-1]:
            cfg_path = os.path.join(workdir, f"train-{s}.json")
            out = os.path.join(workdir, f"out-{s}")
            _write_json(cfg_path, {"seed": s, "trainer": {
                "max_iterations": TRAIN_ITERATIONS,
                "convergence_window": TRAIN_ITERATIONS + 1}})
            items.append({"key": str(s), "out": out,
                          "argv": ["train", "--config", cfg_path, "--out", out]})
    else:
        n = workload.n_regions
        policy_path = os.path.join(workdir, "policy.npz")
        mad_path = os.path.join(workdir, "policy-mad.npz")
        weather_paths = []
        for s in seeds[:-1]:
            weather = os.path.join(workdir, f"weather-{s}.csv")
            rc, text = quiet_cli(cli_main, ["synth-weather", "--seed", str(s),
                                            "--days", str(SEASON_DAYS + 1),
                                            "--out", weather])
            if rc != 0:
                raise RuntimeError(f"synth-weather failed: {text}")
            weather_paths.append(weather)
            cfg_path = os.path.join(workdir, f"season-{s}.json")
            out = os.path.join(workdir, f"out-{s}")
            _write_json(cfg_path, {
                "seed": s, "days": SEASON_DAYS, "n_regions": n,
                "forecast_noise": "exact", "profile": PROFILE,
                "dynamics": [DYNAMICS[i % len(DYNAMICS)] for i in range(n)],
                "env": {"a_max": A_MAX, "surplus_headroom": HEADROOM,
                        "process_noise_std": 0.0}})
            items.append({"key": str(s), "out": out, "weather": weather,
                          "argv": ["compare", "--config", cfg_path, "--out", out,
                                   "--policy", policy_path,
                                   "--policy-mad", mad_path]})
        _write_snapshots(n, seeds[-1], weather_paths, policy_path, mad_path)
    manifest = {"workload": workload.name, "seed": seed, "items": items}
    _write_json(os.path.join(workdir, "manifest.json"), manifest)
    return manifest


def _write_snapshots(n_regions, seed, weather_paths, policy_path, mad_path):
    """A fresh fixed-seed policy, and the same policy with its output layer
    rewired to propose almost no irrigation, so the shield fires often."""
    from orchardrl.agent.policy import SquashedGaussianPolicy
    from orchardrl.env import NormalizationStats

    # observation statistics: soil water uniform in the healthy band, the
    # ten weather channels and the exact next-day forecasts of the seasons
    rows = []
    for path in weather_paths:
        w = read_weather(path)
        rows.append(np.column_stack([w["channels"][:-1], w["et"][1:],
                                     w["precip"][1:]]))
    weather = np.concatenate(rows)
    std = weather.std(axis=0)
    mean = np.concatenate([np.full(n_regions, 0.5 * (V_MAD + V_FC)),
                           weather.mean(axis=0)])
    std = np.concatenate([np.full(n_regions, (V_FC - V_MAD) / math.sqrt(12.0)),
                          np.where(std < 1e-8, 1.0, std)])

    policy = SquashedGaussianPolicy(obs_dim=n_regions + 24, n_regions=n_regions,
                                    a_max=A_MAX, hidden=HIDDEN, seed=seed)
    policy.norm_stats = NormalizationStats(mean=mean, std=std)
    policy.save(policy_path)
    policy.net.weights[-1][:] = 0.0
    policy.net.biases[-1][:] = -8.0
    policy.save(mad_path)


# -- reading outputs back ------------------------------------------------------


def read_weather(path) -> dict:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    channels = np.array([[float(x) for x in r[1:]] for r in rows])
    col = {h: i - 1 for i, h in enumerate(header)}
    return {"dates": [r[0] for r in rows], "channels": channels,
            "et": channels[:, col["et"]], "precip": channels[:, col["precip"]]}


def _read_daily(path, n_regions) -> dict[str, dict]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    col = {h: i for i, h in enumerate(header)}
    try:
        a_cols = [col[f"a_{i}"] for i in range(n_regions)]
        v_cols = [col[f"v_{i}"] for i in range(n_regions)]
        fixed = [col[k] for k in ("controller", "day", "date", "daily_water",
                                  "triggered", "source")]
    except KeyError as exc:
        raise CheckFailed(f"daily.csv lacks column {exc}") from None
    c_name, c_day, c_date, c_water, c_trig, c_src = fixed
    out: dict[str, dict] = {}
    for name in ROSTER:
        sel = [r for r in rows if r[c_name] == name]
        out[name] = {
            "day": [int(r[c_day]) for r in sel],
            "date": [r[c_date] for r in sel],
            "water": np.array([float(r[c_water]) for r in sel]),
            "a": np.array([[float(r[c]) for c in a_cols] for r in sel]).reshape(-1, n_regions),
            "v": np.array([[float(r[c]) for c in v_cols] for r in sel]).reshape(-1, n_regions),
            "triggered": np.array([int(r[c_trig]) for r in sel], dtype=bool),
            "source": [r[c_src] for r in sel],
        }
    if sum(len(d["day"]) for d in out.values()) != len(rows):
        raise CheckFailed("daily.csv has rows for controllers outside the roster")
    return out


def _read_summary(path) -> dict[str, dict]:
    with open(path, newline="") as fh:
        return {row["controller"]: row for row in csv.DictReader(fh)}


# -- checks --------------------------------------------------------------------


def output_digest(workload: Workload, item: dict) -> str:
    """Digest of what an operation wrote: the season CSVs, or the training
    curve and the snapshot's arrays (the .npz container itself carries
    timestamps).  Equal digests mean equal outputs, so a repeat of a checked
    input needs no second full check."""
    h = hashlib.sha256()
    if workload.kind == "train":
        with open(os.path.join(item["out"], "training_curve.csv"), "rb") as fh:
            h.update(fh.read())
        with np.load(os.path.join(item["out"], "policy.npz"), allow_pickle=False) as data:
            for key in sorted(data.files):
                h.update(key.encode())
                h.update(np.ascontiguousarray(data[key]).tobytes())
    else:
        for name in ("summary.csv", "daily.csv"):
            with open(os.path.join(item["out"], name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def check(workload: Workload, item: dict) -> dict:
    if workload.kind == "train":
        return check_train(item)
    return check_compare(workload, item)


def check_train(item: dict) -> dict:
    """Budgeted iterations ran, the curve is finite, and the snapshot reloads
    with finite parameters and an in-range log-std."""
    from orchardrl.agent.policy import LOG_STD_MAX, LOG_STD_MIN, load_policy

    curve_path = os.path.join(item["out"], "training_curve.csv")
    policy_path = os.path.join(item["out"], "policy.npz")
    with open(curve_path, newline="") as fh:
        curve = list(csv.DictReader(fh))
    if [int(r["iteration"]) for r in curve] != list(range(TRAIN_ITERATIONS)):
        raise CheckFailed(f"expected {TRAIN_ITERATIONS} iterations, "
                          f"curve has {len(curve)}")
    values = [float(r[k]) for r in curve for k in ("total_reward", "loss")]
    if not all(math.isfinite(x) for x in values):
        raise CheckFailed("non-finite reward or loss in the training curve")
    load_policy(policy_path)
    with np.load(policy_path, allow_pickle=False) as data:
        for key in data.files:
            if key != "meta" and not np.all(np.isfinite(data[key])):
                raise CheckFailed(f"non-finite snapshot array {key}")
        log_std = data["log_std"]
    if np.any(log_std < LOG_STD_MIN) or np.any(log_std > LOG_STD_MAX):
        raise CheckFailed(f"log_std {log_std} outside [{LOG_STD_MIN}, {LOG_STD_MAX}]")
    return {"final_reward": float(curve[-1]["total_reward"]),
            "curve": _digest(curve_path)}


def check_compare(workload: Workload, item: dict) -> dict:
    """Replay every controller's season through an independent water balance
    and check actions, baseline doses, shield sources and summary totals."""
    n = workload.n_regions
    out = item["out"]
    weather = read_weather(item["weather"])
    et, precip = weather["et"], weather["precip"]
    dyn = [DYNAMICS[i % len(DYNAMICS)] for i in range(n)]
    c1, c2, c3, b = (np.array([d[k] for d in dyn]) for k in ("c1", "c2", "c3", "b"))
    cap = V_FC + HEADROOM

    daily = _read_daily(os.path.join(out, "daily.csv"), n)
    summary = _read_summary(os.path.join(out, "summary.csv"))
    if list(summary) != list(ROSTER):
        raise CheckFailed(f"summary rows {list(summary)} != roster {list(ROSTER)}")

    controllers = {}
    for name in ROSTER:
        d = daily[name]
        a, v = d["a"], d["v"]
        if d["day"] != list(range(SEASON_DAYS)):
            raise CheckFailed(f"{name}: days are not 0..{SEASON_DAYS - 1}")
        if d["date"] != weather["dates"][1:SEASON_DAYS + 1]:
            raise CheckFailed(f"{name}: dates differ from the season's weather")
        if np.any(a < 0.0) or np.any(a > A_MAX):
            raise CheckFailed(f"{name}: action outside [0, {A_MAX}]")
        if np.max(np.abs(d["water"] - a.sum(axis=1))) > REPLAY_TOL:
            raise CheckFailed(f"{name}: daily_water != sum of region actions")
        replay = np.empty_like(v)
        replay[0] = v[0]
        for t in range(1, SEASON_DAYS):
            replay[t] = np.clip(c1 * replay[t - 1] + c2 * (a[t] + precip[t + 1])
                                + c3 * et[t + 1] + b, 0.0, cap)
        bad = np.flatnonzero(np.abs(replay - v).max(axis=1) > REPLAY_TOL)
        if bad.size:
            t = int(bad[0])
            raise CheckFailed(f"{name}: day {t} soil water {v[t]} differs "
                              f"from the water-balance replay {replay[t]}")
        _check_sources(name, d, et, precip)

        row = summary[name]
        below = int(np.sum(np.any(v < V_MAD, axis=1)))
        above = int(np.sum(np.any(v > V_FC, axis=1)))
        triggers = int(d["triggered"].sum())
        expected = {"days_below_mad": below, "days_above_fc": above,
                    "shield_trigger_days": triggers, "season_days": SEASON_DAYS}
        for key, want in expected.items():
            if int(row[key]) != want:
                raise CheckFailed(f"{name}: summary {key}={row[key]}, daily gives {want}")
        if abs(float(row["total_water"]) - float(d["water"].sum())) > REPLAY_TOL:
            raise CheckFailed(f"{name}: summary total_water != sum of daily water")
        controllers[name] = {"trigger_days": triggers, "days_below_mad": below}
    return {"controllers": controllers,
            "summary": _digest(os.path.join(out, "summary.csv")),
            "daily": _digest(os.path.join(out, "daily.csv"))}


def _check_sources(name, d, et, precip) -> None:
    source, triggered, a = d["source"], d["triggered"], d["a"]
    if name == "et":
        dose = np.minimum(A_MAX, np.maximum(0.0, et[:SEASON_DAYS] - precip[:SEASON_DAYS]))
        if np.max(np.abs(a - dose[:, None])) > REPLAY_TOL:
            raise CheckFailed("et: doses differ from min(a_max, max(0, et - precip))")
    fixed = {"et": "et_baseline", "sensor": "sensor_baseline"}
    shielded = name in ("rl", "rl-mad")
    for t, src in enumerate(source):
        if name in fixed:
            want = fixed[name]
        else:
            want = "shield_fallback" if triggered[t] else "agent"
        if src != want or (triggered[t] and not shielded):
            raise CheckFailed(f"{name}: day {t} source {src!r} "
                              f"(triggered={bool(triggered[t])})")
