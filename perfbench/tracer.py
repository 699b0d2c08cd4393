"""Per-layer spans for the traced benchmark run.

The tracer wraps public functions and methods of the program's layers from
outside: a module-level function is replaced in every ``orchardrl`` module
that holds it (callers import several of them by name), a method on its
class.  Each call records a span (id, parent id, layer name, start, end,
self time and a work count) into flat in-memory arrays; nothing is written
until the run ends.  ``uninstall`` restores the original objects, so
untraced operations run the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np


def _rows(rec, args, kwargs, result):
    return int(result[0].shape[0])


def _triggered(rec, args, kwargs, result):
    return int(result[1].triggered)


def _bytes_written(rec, args, kwargs, result):
    outdir = args[0] if args else kwargs["outdir"]
    return sum(os.path.getsize(os.path.join(outdir, f))
               for f in ("summary.csv", "daily.csv", "manifest.json")
               if os.path.exists(os.path.join(outdir, f)))


def _minibatch_rows(rec, args, kwargs, result):
    policy = args[1] if len(args) > 1 else kwargs["policy"]
    rec.meta.setdefault("mlp_sizes", list(policy.net.sizes))
    return len(args[0] if args else kwargs["batch"])


# (layer name, defining module, attribute, work-count function or None)
TARGETS = (
    ("cli.main", "orchardrl.cli", "main", None),
    ("runconfig.load_config", "orchardrl.runconfig", "load_config", None),
    ("weather.synthesize_season", "orchardrl.weather", "synthesize_season", None),
    ("predictor.predict_next", "orchardrl.predictor", "predict_next", None),
    ("env.step", "orchardrl.env", "IrrigationEnv.step", None),
    ("env.reset", "orchardrl.env", "IrrigationEnv.reset", None),
    ("env.reward", "orchardrl.env", "reward", None),
    ("env.reward", "orchardrl.env", "reward_mad_only", None),
    ("env.state_vector", "orchardrl.env", "state_vector", None),
    ("env.normalize", "orchardrl.env", "NormalizationStats.apply", None),
    ("agent.policy.sample", "orchardrl.agent.policy",
     "SquashedGaussianPolicy.sample", None),
    ("agent.policy.mean_action", "orchardrl.agent.policy",
     "SquashedGaussianPolicy.mean_action", None),
    ("agent.policy.forward", "orchardrl.agent.policy",
     "SquashedGaussianPolicy.forward_mean", _rows),
    ("agent.policy.load", "orchardrl.agent.policy", "load_policy", None),
    ("agent.ppo.train", "orchardrl.agent.ppo", "train", None),
    ("agent.ppo.loss_and_grads", "orchardrl.agent.ppo", "ppo_loss_and_grads",
     _minibatch_rows),
    ("agent.mlp.adam", "orchardrl.agent.mlp", "AdamOptimizer.step", None),
    ("controllers.decide.Et", "orchardrl.controllers", "EtController.decide", None),
    ("controllers.decide.Sensor", "orchardrl.controllers",
     "SensorController.decide", None),
    ("controllers.decide.Rl", "orchardrl.controllers", "RlController.decide", None),
    ("controllers.decide.Shielded", "orchardrl.controllers",
     "ShieldedController.decide", None),
    ("safety.screen", "orchardrl.safety", "screen", _triggered),
    ("evalharness.run_season", "orchardrl.evalharness", "run_season", None),
    ("evalharness.write_results", "orchardrl.evalharness", "write_results",
     _bytes_written),
)


class Recorder:
    """Span store plus the patches that feed it."""

    FIELDS = ("span", "parent", "name", "op", "start", "end", "self_ns", "n")

    def __init__(self):
        self.names = sorted({t[0] for t in TARGETS})
        self.cols = {f: array("q") for f in self.FIELDS}
        self.stack: list[list[int]] = []
        self.next_span = 0
        self.op = -1
        self.meta: dict = {}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "orchardrl" or name.startswith("orchardrl.")]
        for layer, module_name, attr, count in TARGETS:
            nid = self.names.index(layer)
            owner = importlib.import_module(module_name)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                orig = cls.__dict__.get(meth) if cls is not None else None
                holders = [(cls, meth)] if orig is not None else []
            else:
                orig = getattr(owner, attr, None)
                holders = [(m, key) for m in modules
                           for key, val in vars(m).items() if val is orig]
            if orig is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(orig, nid, count)
            for holder, key in holders:
                self._patches.append((holder, key, orig, wrapper))
                setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, orig, _ in reversed(self._patches):
            setattr(holder, key, orig)
        self._patches.clear()

    def _wrap(self, fn, nid, count):
        rec = self
        clock = time.perf_counter_ns
        cols = self.cols
        span_col, parent_col, name_col, op_col = (
            cols["span"], cols["parent"], cols["name"], cols["op"])
        start_col, end_col, self_col, n_col = (
            cols["start"], cols["end"], cols["self_ns"], cols["n"])
        stack = self.stack

        def wrapper(*args, **kwargs):
            sid = rec.next_span
            rec.next_span = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            result = None
            done = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                span_col.append(sid)
                parent_col.append(parent)
                name_col.append(nid)
                op_col.append(rec.op)
                start_col.append(t0)
                end_col.append(t1)
                self_col.append(dur - frame[1])
                n_col.append(count(rec, args, kwargs, result)
                             if count is not None and done else 1)

        return functools.wraps(fn)(wrapper)

    # -- results -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.cols["span"])

    def arrays(self) -> dict[str, np.ndarray]:
        """Views of the span columns; record no spans while they are held."""
        return {f: np.frombuffer(col, dtype=np.int64) if len(col)
                else np.zeros(0, dtype=np.int64) for f, col in self.cols.items()}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


SCALE = {"s": 1e-9, "us": 1e-3}
# layer -> [(metric, statistic, unit)]: "calls" per operation; "dur" (span
# duration), "self" (duration minus child spans) and "n" (work count) as the
# mean per call
LAYER_METRICS = {
    "cli.main": [("cli.main.self_s", "self", "s")],
    "runconfig.load_config": [("runconfig.load_config.s", "dur", "s")],
    "weather.synthesize_season": [("weather.synthesize_season.calls", "calls", "count"),
                                  ("weather.synthesize_season.self_s", "self", "s")],
    "predictor.predict_next": [("predictor.predict_next.calls", "calls", "count"),
                               ("predictor.predict_next.us", "dur", "us")],
    "env.step": [("env.step.calls", "calls", "count"),
                 ("env.step.self_us", "self", "us")],
    "env.reset": [("env.reset.us", "dur", "us")],
    "env.reward": [("env.reward.us", "dur", "us")],
    "env.state_vector": [("env.state_vector.us", "dur", "us")],
    "env.normalize": [("env.normalize.us", "dur", "us")],
    "agent.policy.sample": [("agent.policy.sample.calls", "calls", "count"),
                            ("agent.policy.sample.us", "dur", "us")],
    "agent.policy.mean_action": [("agent.policy.mean_action.us", "dur", "us")],
    "agent.policy.load": [("agent.policy.load.s", "dur", "s")],
    "agent.ppo.train": [("agent.ppo.train.self_s", "self", "s")],
    "agent.ppo.loss_and_grads": [("agent.ppo.loss_and_grads.calls", "calls", "count"),
                                 ("agent.ppo.loss_and_grads.us", "dur", "us")],
    "agent.mlp.adam": [("agent.mlp.adam.us", "dur", "us")],
    "controllers.decide.Et": [("controllers.decide.us.Et", "self", "us")],
    "controllers.decide.Sensor": [("controllers.decide.us.Sensor", "self", "us")],
    "controllers.decide.Rl": [("controllers.decide.us.Rl", "self", "us")],
    "controllers.decide.Shielded": [("controllers.decide.us.Shielded", "self", "us")],
    "safety.screen": [("safety.screen.calls", "calls", "count"),
                      ("safety.screen.us", "dur", "us")],
    "evalharness.run_season": [("evalharness.run_season.self_s", "self", "s")],
    "evalharness.write_results": [("evalharness.write_results.s", "dur", "s"),
                                  ("evalharness.write_results.bytes", "n", "bytes")],
}


def layer_metrics(rec: Recorder, n_ops: int) -> dict:
    """Per-layer figures from the spans of n_ops traced operations, as
    {metric: (value, unit)}; a layer the workload never called is left out."""
    a = rec.arrays()
    nid = {name: i for i, name in enumerate(rec.names)}
    stat = {"dur": a["end"] - a["start"], "self": a["self_ns"], "n": a["n"]}
    masks = {layer: a["name"] == i for layer, i in nid.items()}
    calls = {layer: int(np.count_nonzero(m)) for layer, m in masks.items()}
    out: dict[str, tuple[float, str]] = {}
    for layer, specs in LAYER_METRICS.items():
        if not calls[layer]:
            continue
        for metric, kind, unit in specs:
            if kind == "calls":
                value = calls[layer] / n_ops
            else:
                value = float(stat[kind][masks[layer]].mean()) * SCALE.get(unit, 1.0)
            out[metric] = (value, unit)

    if calls["predictor.predict_next"] and calls["env.step"]:
        out["predictor.predict_next.per_day"] = (
            calls["predictor.predict_next"] / calls["env.step"], "calls/day")
    if calls["safety.screen"]:
        out["safety.trigger_ratio"] = (
            float(a["n"][masks["safety.screen"]].sum()) / calls["safety.screen"], "ratio")
    sizes = rec.meta.get("mlp_sizes")
    if calls["agent.ppo.loss_and_grads"] and sizes:
        pairs = list(zip(sizes[:-1], sizes[1:]))
        macs = sum(i * o for i, o in pairs)
        # forward, weight gradients, and input gradients past the first layer
        flops_per_row = 6 * macs - 2 * pairs[0][0] * pairs[0][1]
        m = masks["agent.ppo.loss_and_grads"]
        seconds = float(stat["dur"][m].sum()) * 1e-9
        out["agent.mlp.update_gflops"] = (
            flops_per_row * float(a["n"][m].sum()) / seconds / 1e9, "computed-GFLOP/s")
        rollout, update = _phase_split(a, nid, n_ops)
        if rollout:
            out["agent.ppo.rollout_s_per_iter"] = (float(np.mean(rollout)), "s")
            out["agent.ppo.update_s_per_iter"] = (float(np.mean(update)), "s")
            rec.meta["iterations_traced"] = len(rollout)
    _forward_rows(a, nid, out)
    return out


def _forward_rows(a, nid, out) -> None:
    """Rows per policy forward, split by the span that caused it: acting in
    the environment (sample, mean_action) or the PPO update."""
    fwd = a["name"] == nid["agent.policy.forward"]
    if not np.any(fwd):
        return
    name_of = np.full(int(a["span"].max()) + 1, -1, dtype=np.int64)
    name_of[a["span"]] = a["name"]
    parent = a["parent"][fwd]
    parent_name = np.where(parent >= 0, name_of[np.maximum(parent, 0)], -1)
    rows = a["n"][fwd]
    acting = np.isin(parent_name, [nid["agent.policy.sample"],
                                   nid["agent.policy.mean_action"]])
    update = parent_name == nid["agent.ppo.loss_and_grads"]
    for label, mask in (("rollout", acting), ("update", update)):
        if np.any(mask):
            out[f"agent.policy.forward.rows_per_call.{label}"] = (
                float(rows[mask].mean()), "rows")


def _phase_split(a, nid, n_ops) -> tuple[list[float], list[float]]:
    """Seconds of rollout and of update in each traced training iteration.

    An update phase runs from an iteration's first loss_and_grads to its last
    Adam step; the rollout phase before it starts where the previous update
    ended, or, for the first iteration, at the reset of its first episode.
    """
    want = {nid["agent.policy.sample"]: "sample", nid["env.reset"]: "reset",
            nid["agent.ppo.loss_and_grads"]: "update", nid["agent.mlp.adam"]: "update"}
    rollout: list[float] = []
    update: list[float] = []
    for op in range(n_ops):
        m = (a["op"] == op) & np.isin(a["name"], list(want))
        order = np.argsort(a["start"][m], kind="stable")
        kinds = [want[int(x)] for x in a["name"][m][order]]
        starts = a["start"][m][order]
        ends = a["end"][m][order]
        iter_start = last_reset = upd_start = upd_end = None
        for kind, t0, t1 in zip(kinds, starts, ends):
            if kind == "reset":
                last_reset = t0
            elif kind == "sample":
                if upd_start is not None:
                    rollout.append((upd_start - iter_start) * 1e-9)
                    update.append((upd_end - upd_start) * 1e-9)
                    iter_start, upd_start = upd_end, None
                if iter_start is None:
                    iter_start = last_reset
            elif iter_start is not None:
                if upd_start is None:
                    upd_start = t0
                upd_end = t1
        if upd_start is not None:
            rollout.append((upd_start - iter_start) * 1e-9)
            update.append((upd_end - upd_start) * 1e-9)
    return rollout, update
