#!/usr/bin/env python3
"""Benchmark of the orchardrl command line, end to end and layer by layer.

    python3 perfbench/run.py --workload {train,season,regions} --seed N \\
        --seconds S --trace {0,1}

Run from a checkout: the program is imported from ``src/`` next to this
directory, in this process, through ``orchardrl.cli.main``.  One operation
is one CLI call on generated inputs:

* ``train``   -- ``orchardrl train`` on the default run config with a fixed
  budget of 4 iterations and the convergence stop off (2 regions, 256x256
  net, noisy plant, 960 rollout env steps per iteration).
* ``season``  -- ``orchardrl compare`` (et, sensor, rl, rl-mad, rl-noshield)
  over 246 days, 2 regions, exact forecasts and a noise-free plant, with a
  fresh fixed-seed policy and its zero-irrigation rewiring for rl-mad.
* ``regions`` -- the same compare with 16 regions.

Operations cycle through a pool of inputs until ``--seconds`` of operation
time is measured and every pool item ran.  The first output of each input
gets the full check (see workloads.py); every repeat must reproduce it
exactly.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``      median wall time of five fresh-interpreter setups: import
  and input generation (configs, policy snapshots, reference weather);
* ``call_s.p50``, ``call_s.tail``  wall seconds per CLI call: the median and
  the highest percentile with at least ten calls beyond it (the sample count
  and percentile level go to the result file);
* ``env_steps_per_s``  env steps per wall second over all calls: rollout
  steps for ``train``, controller-days (5 x days x seasons) for compares;
* ``peak_rss_mb``  peak resident set size of this process;
* ``success_rate`` share of calls that exited 0 and passed the output check
  (1 - error rate; a failed call is also counted in ``failed``).

``--trace 1`` alternates untraced and traced calls of the same inputs and
prints the per-layer metrics measured on every workload plus
``trace_overhead``; the full per-layer table, including the layers only one
kind of workload calls, is printed above the result line and stored in
``.perfbench/results/`` with the raw spans.  Every result records the
software environment and a decision fingerprint.
"""

import os

# one thread of Python, one BLAS thread; set before numpy is imported
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
HARD_LIMIT_S = 150.0
TAIL_BEYOND = 10
SPAN_LIMIT = 1_000_000                     # 64 MB of span records
# per-layer metrics every workload exercises; a layer a later version no
# longer calls reads 0
COMMON_LAYER_METRICS = {
    "cli.main.self_s": "s", "runconfig.load_config.s": "s",
    "weather.synthesize_season.calls": "count",
    "weather.synthesize_season.self_s": "s",
    "predictor.predict_next.calls": "count", "predictor.predict_next.us": "us",
    "predictor.predict_next.per_day": "calls/day", "env.step.calls": "count",
    "env.step.self_us": "us", "env.reset.us": "us", "env.reward.us": "us",
    "env.state_vector.us": "us", "env.normalize.us": "us",
    "agent.policy.forward.rows_per_call.rollout": "rows",
    "trace_overhead": "ratio",
}


class ProgramMissing(Exception):
    pass


def import_program():
    """Import orchardrl from this checkout's src/, and nowhere else."""
    if not (SRC / "orchardrl" / "cli.py").is_file():
        raise ProgramMissing(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import orchardrl.cli

    where = Path(orchardrl.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ProgramMissing(f"orchardrl imported from {where}, not from {SRC}")
    return orchardrl.cli


def software_environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, else the requested one."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return BLAS_THREADS


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it, and its
    level; the maximum when there are too few samples."""
    xs = sorted(values)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def timed_setups(args, workdir: Path) -> list[float]:
    """Wall seconds of SETUP_REPEATS fresh interpreters doing the whole setup."""
    times = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed),
               "--setup-into", str(workdir / f"setup{k}")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup failed:\n{proc.stdout}")
    return times


class Runner:
    """Runs and checks operations; keeps timings and fingerprints."""

    def __init__(self, cli, workload, items):
        self.cli = cli
        self.workload = workload
        self.items = items
        self.times = {False: [], True: []}      # by traced flag
        self.pairs: list[tuple[float, float]] = []
        self.attempted = 0
        self.spent = 0.0                         # seconds in calls, failed too
        self.failures: list[str] = []
        self.fingerprints: dict[str, dict] = {}
        self.checked: dict[str, str] = {}        # output digest per input
        self.calls: dict[str, dict] = {}

    def run(self, item, recorder=None) -> float | None:
        self.attempted += 1
        shutil.rmtree(item["out"], ignore_errors=True)
        try:
            if recorder is not None:
                recorder.install()
            t0 = time.perf_counter()
            try:
                rc, text = workloads.quiet_cli(self.cli.main, item["argv"])
            finally:
                elapsed = time.perf_counter() - t0
                self.spent += elapsed
                if recorder is not None:
                    recorder.uninstall()
            if rc != 0:
                raise workloads.CheckFailed(f"exit status {rc}: {text.strip()[-400:]}")
            digest = workloads.output_digest(self.workload, item)
            known = self.checked.get(item["key"])
            if known is None:
                self.fingerprints[item["key"]] = workloads.check(self.workload, item)
                self.checked[item["key"]] = digest
            elif digest != known:
                raise workloads.CheckFailed(f"output of input {item['key']} "
                                            "differs from its checked output")
        except Exception as exc:  # every failure counts against the run
            self.failures.append(f"{item['key']}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None
        self.times[recorder is not None].append(elapsed)
        return elapsed


def run_ops(args, runner: Runner, recorder=None) -> int:
    """Cycle the pool until --seconds of operation time and every item ran;
    with a recorder, each item runs untraced and then traced, and the run
    also ends once SPAN_LIMIT spans are held in memory."""
    start = time.monotonic()
    k = 0
    traced_ops = 0
    items = runner.items
    while k < len(items) or (runner.spent < args.seconds and (
            recorder is None or len(recorder) < SPAN_LIMIT)):
        if time.monotonic() - start > HARD_LIMIT_S:
            runner.failures.append("hard time limit reached")
            break
        item = items[k % len(items)]
        k += 1
        plain = runner.run(item)
        if recorder is None:
            continue
        recorder.op = traced_ops
        first = len(recorder.cols["name"])
        traced = runner.run(item, recorder)
        traced_ops += 1
        if plain is not None and traced is not None:
            runner.pairs.append((plain, traced))
        names = recorder.cols["name"][first:]
        runner.calls.setdefault(item["key"], {
            layer: names.count(recorder.names.index(layer))
            for layer in ("env.step", "predictor.predict_next")})
    return traced_ops


def end_to_end(workload, runner: Runner, setup_times) -> tuple[dict, dict]:
    times = runner.times[False]
    p50 = statistics.median(times)
    tail_s, level = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "call_s.p50": (p50, "s"),
        "call_s.tail": (tail_s, "s"),
        "env_steps_per_s": (workload.steps_per_op() * len(times) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": ((runner.attempted - len(runner.failures)) / runner.attempted,
                         "ratio"),
    }
    detail = {"calls": len(times), "tail_percentile": level,
              "setup_samples_s": setup_times, "call_samples_s": times}
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description="orchardrl benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    try:
        cli = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.setup_into:
        workloads.setup(workload, args.seed, args.setup_into)
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        setup_times = []
        manifest = workloads.setup(workload, args.seed, str(workdir / "setup0"))
    else:
        setup_times = timed_setups(args, workdir)
        manifest = json.loads((workdir / "setup0" / "manifest.json").read_text())

    runner = Runner(cli, workload, manifest["items"])
    recorder = None
    if args.trace:
        recorder = tracer.Recorder()
    traced_ops = run_ops(args, runner, recorder)
    if not runner.times[False] or (args.trace and not runner.pairs):
        print("error: no call succeeded:\n" + "\n".join(runner.failures[:5]),
              file=sys.stderr)
        return 1

    detail: dict = {}
    if args.trace:
        layers = tracer.layer_metrics(recorder, traced_ops)
        plain = sum(p for p, _ in runner.pairs)
        traced = sum(t for _, t in runner.pairs)
        layers["trace_overhead"] = (traced / plain - 1.0, "ratio")
        detail = {"traced_calls": traced_ops, "missing_targets": recorder.missing,
                  "iterations_traced": recorder.meta.get("iterations_traced"),
                  "layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}}
        metrics = {k: layers.get(k, (0.0, unit))
                   for k, unit in COMMON_LAYER_METRICS.items()}
    else:
        metrics, detail = end_to_end(workload, runner, setup_times)

    items = {key: runner.fingerprints.get(key) for key in
             (it["key"] for it in manifest["items"])}
    fingerprint = {"digest": hashlib.sha256(json.dumps(items, sort_keys=True)
                                            .encode()).hexdigest()[:16],
                   "items": items}
    if runner.calls:
        fingerprint["calls_per_item"] = runner.calls
    correct = not runner.failures and all(v is not None for v in items.values())
    environment = software_environment()

    result = {"correct": correct, "attempted": runner.attempted,
              "failed": len(runner.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment,
              "fingerprint": fingerprint, "failures": runner.failures[:20],
              "detail": detail, "result": result}
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    if recorder is not None:
        recorder.save(results_dir / f"{tag}-spans.npz")
        for name, entry in sorted(detail["layers"].items()):
            print(f"layer {name:48s} {entry['value']:14.6g} {entry['unit']}")
    else:
        print(f"calls {detail['calls']} (call_s.tail is "
              f"p{detail['tail_percentile']:.1f})")
    shutil.rmtree(workdir, ignore_errors=True)

    print("environment " + json.dumps(environment, sort_keys=True))
    print("fingerprint " + json.dumps({k: v for k, v in fingerprint.items()
                                       if k != "items"}, sort_keys=True))
    print(f"result file {results_dir / (tag + '.json')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
