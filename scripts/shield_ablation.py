#!/usr/bin/env python3
"""Shield ablation grid: {trained, adversarial} x {shield on, shield off}.

The adversarial policy is the trained snapshot with its output layer
rewired to propose (almost) zero irrigation everywhere, the worst case the
screen has to catch.  Runs under exact forecasts and zero process noise so
stress days measure the mechanism, not residual noise.  Ends with a
trigger-day log for the shielded adversarial season: which days fired and
what the forecast looked like.
"""

import argparse
import copy

from orchardrl.cli import load_run, obtain_policy
from orchardrl.evalharness import build_controller, qos, run_season
from orchardrl.runconfig import build_levels, measurement_run


def rewire_to_zero(policy):
    adversary = copy.deepcopy(policy)
    adversary.param_arrays[-3][:] = 0.0    # final layer weights
    adversary.param_arrays[-2][:] = -8.0   # bias: squashed action ~ 0
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
    policy = obtain_policy(run, args.policy, "rl")

    season = measurement_run(run)
    grid = {
        ("trained", "on"): ("rl", policy),
        ("trained", "off"): ("rl-noshield", policy),
        ("adversary", "on"): ("rl", rewire_to_zero(policy)),
        ("adversary", "off"): ("rl-noshield", rewire_to_zero(policy)),
    }
    print(f"\n{'policy':10s} {'shield':6s} {'water_in':>9s} "
          f"{'below_mad':>9s} {'triggers':>8s}")
    entries = {}
    for (who, shield), (name, pol) in grid.items():
        entry = run_season(season, build_controller(season, name, policy=pol),
                           name=f"{who}-{shield}")
        entries[(who, shield)] = entry
        below, _ = qos(entry, levels)
        print(f"{who:10s} {shield:6s} {entry.total_water:9.3f} "
              f"{below:9d} {entry.shield_trigger_days:8d}")

    probe = entries[("adversary", "on")]
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
