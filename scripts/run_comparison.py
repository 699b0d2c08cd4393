#!/usr/bin/env python3
"""Paired season comparison of every controller in the roster.

All controllers face identical weather, initial soil state, and noise, so
differences are attributable to the decisions alone.  Policies are loaded
from snapshots when given, otherwise trained in-process (about a minute
for the pair).  --measurement switches to exact forecasts and zero process
noise, the setting under which the shield's guarantees are checked.
"""

import argparse

from orchardrl.cli import load_run, obtain_policy
from orchardrl.evalharness import (
    build_controller,
    per_region_band_days,
    qos,
    run_roster,
    water_savings,
    write_results,
)
from orchardrl.runconfig import build_levels, measurement_run, with_reward_kind


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", help="run-config JSON (defaults if omitted)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--days", type=int)
    parser.add_argument("--policy", help="full-reward snapshot (.npz)")
    parser.add_argument("--policy-mad", help="ablated-reward snapshot (.npz)")
    parser.add_argument("--measurement", action="store_true",
                        help="exact forecasts, zero process noise")
    parser.add_argument("--out", default="results/comparison")
    args = parser.parse_args(argv)

    run = load_run(args)
    levels = build_levels(run)
    policy = obtain_policy(run, args.policy, "rl")
    policy_mad = obtain_policy(with_reward_kind(run, "mad-only"), args.policy_mad,
                               "rl-mad")

    season = measurement_run(run) if args.measurement else run
    roster = {
        "et": build_controller(season, "et"),
        "sensor": build_controller(season, "sensor"),
        "rl": build_controller(season, "rl", policy=policy),
        "rl-mad": build_controller(season, "rl-mad", policy=policy_mad),
        "rl-noshield": build_controller(season, "rl-noshield", policy=policy),
    }
    result = run_roster(season, roster)
    write_results(run.out_dir, result, levels)

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
    print(f"results -> {run.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
