"""Command-line entry points.

Subcommands: synth-weather (emit a synthetic season CSV), identify (fit the
water-balance model from an observation log), train (optimize a policy and
persist it), evaluate (one controller over a season), compare (the full
paired roster with savings and stress metrics; --measurement evaluates with
exact forecasts and a noise-free plant).  Exit status 0 on success,
2 on usage errors, 1 on runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import evalharness
from .agent.policy import load_policy
from .agent.ppo import write_training_curve, write_training_metrics
from .env import REWARD_KINDS
from .predictor import fit, load_observations_csv
from .runconfig import (
    RunConfig,
    build_env_config,
    config_hash,
    default_run_config,
    load_config,
    measurement_run,
    save_config,
    to_json_dict,
    with_reward_kind,
)
from .weather import synthesize_season, write_weather_csv


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="run-config JSON file (defaults used if omitted)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="output directory (overrides config out_dir)")
    parser.add_argument("--days", type=int, help="override season length in days")


def load_run(args) -> RunConfig:
    """The run named by --config (defaults if omitted) with the command
    line's overrides applied."""
    run = load_config(args.config) if args.config else default_run_config()
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "days", None) is not None:
        updates["days"] = args.days
    if getattr(args, "out", None):
        updates["out_dir"] = args.out
    if getattr(args, "reward", None):
        updates["reward"] = dataclasses.replace(run.reward, kind=args.reward)
    return dataclasses.replace(run, **updates) if updates else run


def obtain_policy(run: RunConfig, path: str | None, label: str):
    """The snapshot at path, checked against the run's shape and a_max, or
    a policy trained now on the run's reward."""
    if path:
        policy = load_policy(path)
        have = (policy.n_regions, policy.obs_dim)
        want = (run.n_regions, build_env_config(run).obs_dim)
        if have != want:
            raise ValueError(
                f"{path}: snapshot has {have[0]} regions and {have[1]} "
                f"inputs; the run has {want[0]} regions and {want[1]} inputs")
        if policy.a_max > run.env.a_max:
            raise ValueError(
                f"{path}: snapshot a_max {policy.a_max} exceeds the run's "
                f"env.a_max {run.env.a_max}")
        return policy
    print(f"[{label}] no policy snapshot given; training one "
          f"(reward={run.reward.kind}, seed={run.seed})", flush=True)
    policy, _ = evalharness.train_policy_for_run(run)
    return policy


# rows synth-weather writes by default: the default season's days + 1
# usable records, plus the row that only feeds the last one's forecast
SYNTH_WEATHER_DAYS = RunConfig.days + 2


def cmd_synth_weather(args) -> int:
    days = args.days if args.days is not None else SYNTH_WEATHER_DAYS
    season = synthesize_season(args.seed if args.seed is not None else 0, days)
    write_weather_csv(args.out, season)
    print(f"wrote {days} daily records to {args.out}")
    return 0


def cmd_identify(args) -> int:
    rows = load_observations_csv(args.observations)
    model = fit(rows)
    print(f"rows: {len(rows)}")
    print(f"c1 = {model.c1:.6f}")
    print(f"c2 = {model.c2:.6f}")
    print(f"c3 = {model.c3:.6f}")
    print(f"b  = {model.b:.6f}")
    print(f"r_squared = {model.r_squared:.6f}")
    print(f"nrmse     = {model.nrmse:.6f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(to_json_dict(model), fh, indent=2)
            fh.write("\n")
        print(f"model written to {args.out}")
    return 0


def cmd_train(args) -> int:
    run = load_run(args)
    policy, curve = evalharness.train_policy_for_run(run)
    outdir = run.out_dir
    os.makedirs(outdir, exist_ok=True)
    policy_path = os.path.join(outdir, "policy.npz")
    policy.save(policy_path)
    write_training_curve(os.path.join(outdir, "training_curve.csv"), curve)
    write_training_metrics(os.path.join(outdir, "training_metrics.jsonl"), curve)
    save_config(run, os.path.join(outdir, "config.json"))
    final = curve[-1]
    print(f"trained for {len(curve)} iterations "
          f"(final mean episode reward {final.total_reward:.3f}, "
          f"loss {final.loss:.6f})")
    print(f"policy -> {policy_path}")
    print(f"config hash {config_hash(run)}")
    return 0


def _print_summary(name: str, entry, levels) -> None:
    below, above = evalharness.qos(entry, levels)
    print(f"{name:12s} water {entry.total_water:8.3f} in  "
          f"days_below_mad {below:3d}  days_above_fc {above:3d}  "
          f"trigger_days {entry.shield_trigger_days:3d}")


def cmd_evaluate(args) -> int:
    run = load_run(args)
    levels = evalharness.build_levels(run)
    policy = None
    if args.controller in evalharness.POLICY_NAMES:
        kind = "mad-only" if args.controller == "rl-mad" else run.reward.kind
        policy = obtain_policy(with_reward_kind(run, kind), args.policy,
                               args.controller)
    controller = evalharness.build_controller(run, args.controller, policy=policy)
    result = evalharness.run_roster(run, {args.controller: controller})
    evalharness.write_results(run.out_dir, result, levels)
    _print_summary(args.controller, result.entries[args.controller], levels)
    print(f"results -> {run.out_dir}")
    return 0


def cmd_compare(args) -> int:
    run = load_run(args)
    levels = evalharness.build_levels(run)
    policy = obtain_policy(run, args.policy, "rl")
    policy_mad = obtain_policy(with_reward_kind(run, "mad-only"), args.policy_mad,
                               "rl-mad")
    season = measurement_run(run) if args.measurement else run
    controllers = {
        name: evalharness.build_controller(
            season, name, policy=policy_mad if name == "rl-mad" else policy)
        for name in evalharness.ROSTER_NAMES}
    result = evalharness.run_roster(season, controllers)
    evalharness.write_results(run.out_dir, result, levels)

    et_entry = result.entries["et"]
    print(f"\nseason {season.days} days, seed {season.seed}, "
          f"{'measurement' if args.measurement else 'noisy'} setting")
    print(f"{'controller':12s} {'water_in':>9s} {'vs_et_%':>8s} "
          f"{'below_mad':>9s} {'above_fc':>8s} {'triggers':>8s}")
    for name, entry in result.entries.items():
        below, above = evalharness.qos(entry, levels)
        savings = evalharness.water_savings(entry, et_entry)
        print(f"{name:12s} {entry.total_water:9.3f} {savings:8.2f} "
              f"{below:9d} {above:8d} {entry.shield_trigger_days:8d}")

    below, in_band, above = evalharness.per_region_band_days(
        result.entries["rl"], levels)
    print("\nrl per-region day counts (below / in-band / above):")
    for i in range(len(below)):
        print(f"  region {i}: {below[i]:3d} / {in_band[i]:3d} / {above[i]:3d}")
    print(f"results -> {run.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orchardrl",
        description="Learned irrigation control: simulation, training, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-weather", help="emit a synthetic season CSV")
    p.add_argument("--days", type=int,
                   help=f"number of daily records (default {SYNTH_WEATHER_DAYS}: "
                        "enough for a default-length season)")
    p.add_argument("--seed", type=int, help="generator seed (default 0)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_synth_weather)

    p = sub.add_parser("identify", help="fit the water-balance model from a log")
    p.add_argument("--observations", required=True,
                   help="observation CSV (soil_water, irrigation, precip, "
                        "et, soil_water_next)")
    p.add_argument("--out", help="optional JSON path for the fitted model")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("train", help="train a policy and persist the snapshot")
    _add_common(p)
    p.add_argument("--reward", choices=REWARD_KINDS,
                   help="reward variant to train against")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="run one controller over a season")
    _add_common(p)
    p.add_argument("--controller", required=True,
                   choices=evalharness.CONTROLLER_NAMES)
    p.add_argument("--policy", help="policy snapshot (.npz) for rl controllers")
    p.add_argument("--reward", choices=REWARD_KINDS,
                   help="reward to train against when an rl controller has no "
                        "--policy (rl-mad always trains on mad-only)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="paired roster comparison over one season")
    _add_common(p)
    p.add_argument("--policy", help="policy snapshot for rl / rl-noshield")
    p.add_argument("--policy-mad", help="policy snapshot for rl-mad")
    p.add_argument("--measurement", action="store_true",
                   help="evaluate with exact forecasts and a noise-free plant; "
                        "policies still train on the run as loaded")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # runtime failure -> diagnostic + exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
