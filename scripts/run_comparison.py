#!/usr/bin/env python3
"""Paired season comparison of every controller in the roster.

All controllers face identical weather, initial soil state, and noise, so
differences are attributable to the decisions alone.  Policies are loaded
from snapshots when given, otherwise trained in-process (about a minute
for the pair).  --measurement switches to exact forecasts and zero process
noise, the setting under which the shield's guarantees are checked.
"""

import argparse
import dataclasses

from orchardrl.evalharness import (
    build_controller,
    per_region_band_days,
    qos,
    run_roster,
    train_policy_for_run,
    water_savings,
    write_results,
)
from orchardrl.agent.policy import load_policy
from orchardrl.runconfig import build_levels, default_run_config, load_config, measurement_run


def build_run(args):
    run = load_config(args.config) if args.config else default_run_config()
    if args.seed is not None:
        run = dataclasses.replace(run, seed=args.seed)
    if args.days is not None:
        run = dataclasses.replace(run, days=args.days)
    return run


def obtain(run, path, reward_kind, label):
    if path:
        return load_policy(path)
    print(f"[{label}] training (reward={reward_kind}, seed={run.seed})",
          flush=True)
    policy, _ = train_policy_for_run(run, reward_kind=reward_kind)
    return policy


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", help="run-config JSON (defaults if omitted)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--days", type=int)
    parser.add_argument("--policy", help="full-reward snapshot (.npz)")
    parser.add_argument("--policy-mad", help="ablated-reward snapshot (.npz)")
    parser.add_argument("--measurement", action="store_true",
                        help="exact forecasts, zero process noise")
    parser.add_argument("--out", default="results/comparison")
    args = parser.parse_args()

    run = build_run(args)
    levels = build_levels(run)
    policy = obtain(run, args.policy, run.reward.kind, "rl")
    policy_mad = obtain(run, args.policy_mad, "mad-only", "rl-mad")

    season = measurement_run(run) if args.measurement else run
    roster = {
        "et": build_controller(season, "et"),
        "sensor": build_controller(season, "sensor"),
        "rl": build_controller(season, "rl", policy=policy),
        "rl-mad": build_controller(season, "rl-mad", policy=policy_mad),
        "rl-noshield": build_controller(season, "rl-noshield", policy=policy),
    }
    result = run_roster(season, roster)
    write_results(args.out, result, levels)

    et_entry = result.entries["et"]
    print(f"\nseason {season.days} days, seed {season.seed}, "
          f"{'measurement' if args.measurement else 'noisy'} setting")
    print(f"{'controller':12s} {'water_in':>9s} {'vs_et_%':>8s} "
          f"{'below_mad':>9s} {'above_fc':>8s} {'triggers':>8s}")
    for name, entry in result.entries.items():
        below, above = qos(entry, levels)
        print(f"{name:12s} {entry.total_water:9.3f} "
              f"{water_savings(entry, et_entry):8.2f} "
              f"{below:9d} {above:8d} {entry.shield_trigger_days:8d}")

    below, in_band, above = per_region_band_days(result.entries["rl"], levels)
    print("\nrl per-region day counts (below / in-band / above):")
    for i in range(len(below)):
        print(f"  region {i}: {below[i]:3d} / {in_band[i]:3d} / {above[i]:3d}")
    print(f"results -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
