#!/usr/bin/env python3
"""Shield ablation grid: {trained, adversarial} x {shield on, shield off}.

The four cells run as one paired roster.  The adversarial policy is the
trained snapshot with its output layer rewired to propose (almost) zero
irrigation everywhere, the worst case the screen has to catch.  Runs under
exact forecasts and zero process noise so stress days measure the
mechanism, not residual noise.  Ends with a trigger-day log for the
shielded adversarial season: which days fired and what the forecast looked
like.
"""

import argparse
import copy

from orchardrl.cli import load_run, load_snapshot, obtain_policy
from orchardrl.evalharness import build_controller, qos, run_roster
from orchardrl.runconfig import build_levels, measurement_run


def rewire_to_zero(policy):
    adversary = copy.deepcopy(policy)
    adversary.net.weights[-1][:] = 0.0
    adversary.net.biases[-1][:] = -8.0   # squashed action ~ 0
    return adversary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", help="run-config JSON (defaults if omitted)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--days", type=int)
    parser.add_argument("--policy", help="trained snapshot (.npz); trains if omitted")
    parser.add_argument("--max-log", type=int, default=10,
                        help="trigger-day log length (default 10)")
    args = parser.parse_args(argv)

    run = load_run(args)
    levels = build_levels(run)
    policy = obtain_policy(run, load_snapshot(run, args.policy), "rl")

    season = measurement_run(run)
    adversary = rewire_to_zero(policy)
    result = run_roster(season, {
        "trained-on": build_controller(season, "rl", policy=policy),
        "trained-off": build_controller(season, "rl-noshield", policy=policy),
        "adversary-on": build_controller(season, "rl", policy=adversary),
        "adversary-off": build_controller(season, "rl-noshield", policy=adversary),
    })
    print(f"\n{'policy':10s} {'shield':6s} {'water_in':>9s} "
          f"{'below_mad':>9s} {'triggers':>8s}")
    for name, entry in result.entries.items():
        who, shield = name.split("-")
        below, _ = qos(entry, levels)
        print(f"{who:10s} {shield:6s} {entry.total_water:9.3f} "
              f"{below:9d} {entry.shield_trigger_days:8d}")

    probe = result.entries["adversary-on"]
    fired = [d for d in range(probe.season_days) if probe.triggered[d]]
    print(f"\nadversary-on trigger days ({len(fired)} total, "
          f"first {min(args.max_log, len(fired))} shown):")
    for d in fired[:args.max_log]:
        print(f"  {probe.dates[d].isoformat()}  "
              f"predicted deficit {probe.deficits[d]:.3f} in, "
              f"substituted {probe.daily_water[d]:.3f} in")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
