#!/usr/bin/env python3
"""Train the default run for several seeds and record how each one went.

For every seed: training iterations and seconds, the mean episode reward of
the first and last convergence windows, and the shielded ``rl``
controller's season in two settings: the measurement setting (exact
forecasts, noise-free plant; keys ``rl_*``) and the run's own noisy setting
(default forecast error and process noise; keys ``noisy_rl_*``).  Each
records water savings against the ET baseline, days below v_mad and shield
triggers.  The JSON written to --out (default BENCH_seeds.json) also
records the policy's hidden layer sizes and the software environment
(Python, numpy and BLAS versions and the BLAS thread count, which this
script pins to one unless OPENBLAS_NUM_THREADS is already set).

    PYTHONPATH=src python3 scripts/seed_sweep.py            # seeds 0-9
    PYTHONPATH=src python3 scripts/seed_sweep.py --seeds 0 1
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from orchardrl.evalharness import (  # noqa: E402
    build_controller,
    qos,
    run_roster,
    train_policy_for_run,
    water_savings,
)
from orchardrl.runconfig import build_levels, default_run_config, measurement_run  # noqa: E402
from orchardrl.software import software_environment  # noqa: E402


def rl_season(run, policy, prefix: str) -> dict:
    """The shielded rl controller's season against the ET baseline."""
    result = run_roster(run, {"et": build_controller(run, "et"),
                              "rl": build_controller(run, "rl", policy=policy)})
    rl = result.entries["rl"]
    below, _ = qos(rl, build_levels(run))
    return {f"{prefix}water_in": rl.total_water,
            f"{prefix}savings_pct": water_savings(rl, result.entries["et"]),
            f"{prefix}stress_days": below,
            f"{prefix}trigger_days": rl.shield_trigger_days}


def sweep_seed(seed: int) -> dict:
    run = default_run_config(seed=seed)
    t0 = time.monotonic()
    policy, curve = train_policy_for_run(run)
    seconds = time.monotonic() - t0
    totals = [pt.total_reward for pt in curve]
    window = run.trainer.convergence_window
    return {"seed": seed, "iterations": len(curve),
            "max_iterations": run.trainer.max_iterations,
            "seconds": round(seconds, 1),
            "reward_early": float(np.mean(totals[:window])),
            "reward_late": float(np.mean(totals[-window:])),
            **rl_season(measurement_run(run), policy, "rl_"),
            **rl_season(run, policy, "noisy_rl_")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--out", default="BENCH_seeds.json")
    args = parser.parse_args()

    rows = []
    for seed in args.seeds:
        row = sweep_seed(seed)
        rows.append(row)
        print(f"seed {seed}: {row['iterations']} iterations, {row['seconds']}s, "
              f"reward {row['reward_early']:.1f} -> {row['reward_late']:.1f}, "
              f"rl savings {row['rl_savings_pct']:.1f}%, "
              f"{row['rl_stress_days']} stress days, "
              f"{row['rl_trigger_days']} triggers; noisy: "
              f"{row['noisy_rl_savings_pct']:.1f}%, "
              f"{row['noisy_rl_stress_days']} stress days", flush=True)
    doc = {"run": "default run config; rl_* evaluated with exact forecasts "
                  "and a noise-free plant, noisy_rl_* under the run's own "
                  "forecast error and process noise",
           "trainer_hidden": list(default_run_config().trainer.hidden),
           "environment": software_environment(), "seeds": rows}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
