"""Command-line interface, driven end-to-end in subprocesses."""

import csv
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from orchardrl.agent.policy import SquashedGaussianPolicy, load_policy
from orchardrl.env import NormalizationStats
from orchardrl.controllers import SensorControllerConfig
from orchardrl.evalharness import read_daily, read_summary
from orchardrl.predictor import (
    TREE2_MODEL,
    ObservationRow,
    predict_next,
    write_observations_csv,
)
from orchardrl.weather import ForecastNoise, load_weather_csv

TINY_CONFIG = {
    "seed": 0,
    "days": 8,
    "env": {"process_noise_std": 0.0},
    "trainer": {"hidden": [4], "max_iterations": 2,
                "episodes_per_iteration": 2, "episode_length": 4,
                "minibatch_size": 16, "convergence_window": 2,
                "warmup_episodes": 2},
}


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "orchardrl.cli", *argv],
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def tiny_config(workdir):
    path = workdir / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


@pytest.fixture(scope="module")
def trained(workdir, tiny_config):
    out = workdir / "train_out"
    res = run_cli("train", "--config", tiny_config, "--out", str(out))
    assert res.returncode == 0, res.stderr
    return out, res


class TestUsageErrors:
    def test_no_arguments(self):
        res = run_cli()
        assert res.returncode == 2
        assert "usage" in res.stderr

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2

    def test_missing_required_flag(self):
        assert run_cli("synth-weather").returncode == 2

    def test_invalid_controller_choice(self):
        res = run_cli("evaluate", "--controller", "sprinkler")
        assert res.returncode == 2

    def test_negative_seed_rejected_before_training(self, tmp_path):
        res = run_cli("compare", "--seed", "-1", "--out", str(tmp_path))
        assert res.returncode == 2
        assert "argument --seed: expected a non-negative integer, got '-1'" \
            in res.stderr
        assert "training" not in res.stdout


class TestSynthWeather:
    def test_writes_loadable_season(self, workdir):
        path = workdir / "season.csv"
        res = run_cli("synth-weather", "--days", "12", "--seed", "4",
                      "--out", str(path))
        assert res.returncode == 0
        assert "wrote 12 daily records" in res.stdout
        season = load_weather_csv(path, noise=ForecastNoise())
        assert len(season) == 11   # last row only provides the forecasts
        assert all(d.et >= 0 for d in season)

    def test_default_length_drives_a_default_season(self, tmp_path):
        # a default season needs days + 1 usable records, and the log's
        # last row only feeds the forecast before it
        path = tmp_path / "w.csv"
        res = run_cli("synth-weather", "--out", str(path))
        assert res.returncode == 0, res.stderr
        assert "wrote 248 daily records" in res.stdout
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"weather_csv": str(path)}))
        res = run_cli("evaluate", "--config", str(config), "--controller", "et",
                      "--out", str(tmp_path / "eval"))
        assert res.returncode == 0, res.stderr


def interior_observations(model, n=40, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        v = float(rng.uniform(4.0, 7.0))
        a = float(rng.uniform(0.0, 0.4))
        p = float(rng.uniform(0.0, 0.3)) if rng.random() < 0.3 else 0.0
        e = float(rng.uniform(0.08, 0.28))
        rows.append(ObservationRow(soil_water=v, irrigation=a, precip=p, et=e,
                                   soil_water_next=predict_next(model, v, a, p, e)))
    return rows


def parse_coefficients(stdout):
    out = {}
    for line in stdout.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            out[key.strip()] = float(value)
    return out


class TestIdentify:
    def test_recovers_generating_model(self, workdir):
        obs_path = workdir / "obs.csv"
        write_observations_csv(obs_path, interior_observations(TREE2_MODEL))
        res = run_cli("identify", "--observations", str(obs_path))
        assert res.returncode == 0
        assert "rows: 40" in res.stdout
        coef = parse_coefficients(res.stdout)
        assert coef["c1"] == pytest.approx(TREE2_MODEL.c1, abs=1e-6)
        assert coef["c2"] == pytest.approx(TREE2_MODEL.c2, abs=1e-6)
        assert coef["c3"] == pytest.approx(TREE2_MODEL.c3, abs=1e-6)
        assert coef["b"] == pytest.approx(TREE2_MODEL.b, abs=1e-6)
        assert coef["r_squared"] == pytest.approx(1.0, abs=1e-6)

    def test_optional_model_json(self, workdir):
        obs_path = workdir / "obs2.csv"
        write_observations_csv(obs_path, interior_observations(TREE2_MODEL,
                                                               seed=1))
        model_path = workdir / "model.json"
        res = run_cli("identify", "--observations", str(obs_path),
                      "--out", str(model_path))
        assert res.returncode == 0
        doc = json.loads(model_path.read_text())
        assert set(doc) == {"c1", "c2", "c3", "b", "r_squared", "nrmse"}
        assert doc["c1"] == pytest.approx(TREE2_MODEL.c1, abs=1e-9)

    def test_missing_file_is_runtime_error(self):
        res = run_cli("identify", "--observations", "/no/such/log.csv")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")

    def test_underdetermined_log_is_runtime_error(self, workdir):
        obs_path = workdir / "short.csv"
        write_observations_csv(obs_path,
                               interior_observations(TREE2_MODEL, n=5))
        res = run_cli("identify", "--observations", str(obs_path))
        assert res.returncode == 1
        assert "error:" in res.stderr


class TestTrain:
    def test_persists_policy_curve_and_config(self, trained):
        out, res = trained
        assert "policy ->" in res.stdout
        assert "config hash" in res.stdout
        policy = load_policy(out / "policy.npz")
        assert policy.norm_stats is not None
        assert policy.n_regions == 2
        with open(out / "training_curve.csv") as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "iteration,total_reward,loss"
        assert 1 <= len(lines) - 1 <= TINY_CONFIG["trainer"]["max_iterations"]
        saved = json.loads((out / "config.json").read_text())
        assert saved["days"] == 8
        assert saved["trainer"]["hidden"] == [4]

    def test_metrics_follow_the_curve(self, trained):
        out, _ = trained
        with open(out / "training_curve.csv", newline="") as fh:
            curve = list(csv.DictReader(fh))
        records = [json.loads(line) for line in
                   (out / "training_metrics.jsonl").read_text().splitlines()]
        assert [r["iteration"] for r in records] == \
            [int(row["iteration"]) for row in curve]
        for rec, row in zip(records, curve):
            assert set(rec) == {"iteration", "total_reward", "loss", "log_std",
                                "rollout_s", "update_s", "env_steps_per_s"}
            assert rec["total_reward"] == float(row["total_reward"])
            assert rec["loss"] == float(row["loss"])
            assert len(rec["log_std"]) == 2
            assert rec["rollout_s"] > 0 and rec["update_s"] > 0
            # 2 lockstep episodes of 4 days per iteration
            assert rec["env_steps_per_s"] == pytest.approx(8 / rec["rollout_s"])

    def test_season_shorter_than_an_episode(self, workdir):
        # each synthetic training season still holds one 30-day episode
        path = workdir / "short.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, trainer=dict(
            TINY_CONFIG["trainer"], episode_length=30))))
        res = run_cli("train", "--config", str(path), "--days", "29",
                      "--out", str(workdir / "train_short"))
        assert res.returncode == 0, res.stderr


class TestEvaluate:
    def test_baseline_season(self, workdir, tiny_config):
        out = workdir / "eval_et"
        res = run_cli("evaluate", "--controller", "et",
                      "--config", tiny_config, "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert "days_below_mad" in res.stdout
        assert f"results -> {out}" in res.stdout
        summary = read_summary(out / "summary.csv")
        assert summary["et"]["season_days"] == 8

    def test_policy_snapshot_round_trip(self, workdir, tiny_config, trained):
        out = workdir / "eval_rl"
        res = run_cli("evaluate", "--controller", "rl",
                      "--config", tiny_config, "--out", str(out),
                      "--policy", str(trained[0] / "policy.npz"))
        assert res.returncode == 0, res.stderr
        summary = read_summary(out / "summary.csv")
        assert summary["rl"]["season_days"] == 8

    def test_shield_can_be_disabled(self, workdir, tiny_config, trained):
        out = workdir / "eval_noshield"
        snapshot = str(trained[0] / "policy.npz")
        res = run_cli("evaluate", "--controller", "rl-noshield",
                      "--config", tiny_config, "--out", str(out),
                      "--policy", snapshot)
        assert res.returncode == 0, res.stderr
        summary = read_summary(out / "summary.csv")
        assert summary["rl-noshield"]["shield_trigger_days"] == 0
        # the controller is the one switch; the flag is gone
        res = run_cli("evaluate", "--controller", "rl", "--config", tiny_config,
                      "--out", str(out), "--policy", snapshot, "--no-shield")
        assert res.returncode == 2

    def test_missing_snapshot_is_runtime_error(self, tiny_config, workdir):
        res = run_cli("evaluate", "--controller", "rl",
                      "--config", tiny_config,
                      "--out", str(workdir / "eval_bad"),
                      "--policy", "/no/such/policy.npz")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")

    @pytest.mark.parametrize("override, message", [
        ({"n_regions": 3},
         "snapshot has 2 regions and 26 inputs; the run has 3 regions and 27"),
        ({"env": {"a_max": 0.3}},
         "snapshot a_max 0.54 exceeds the run's env.a_max 0.3"),
    ], ids=["regions", "a_max"])
    def test_mismatched_snapshot_rejected_at_load(self, workdir, trained,
                                                  override, message):
        path = workdir / "mismatched.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, **override)))
        snapshot = str(trained[0] / "policy.npz")
        res = run_cli("evaluate", "--controller", "rl", "--config", str(path),
                      "--out", str(workdir / "eval_mismatched"),
                      "--policy", snapshot)
        assert res.returncode == 1
        assert res.stderr.startswith(f"error: {snapshot}: ")
        assert message in res.stderr


class TestCompare:
    def test_full_roster_table(self, workdir, tiny_config, trained):
        out = workdir / "compare_out"
        snapshot = str(trained[0] / "policy.npz")
        res = run_cli("compare", "--config", tiny_config, "--out", str(out),
                      "--policy", snapshot, "--policy-mad", snapshot)
        assert res.returncode == 0, res.stderr
        assert "controller" in res.stdout and "vs_et_%" in res.stdout
        for name in ("et", "sensor", "rl", "rl-mad", "rl-noshield"):
            assert name in res.stdout
        summary = read_summary(out / "summary.csv")
        assert set(summary) == {"et", "sensor", "rl", "rl-mad", "rl-noshield"}
        et_line = next(line for line in res.stdout.splitlines()
                       if line.startswith("et "))
        assert " 0.00 " in et_line   # the baseline saves nothing on itself
        assert "season 8 days, seed 0, noisy setting" in res.stdout

    def test_snapshots_checked_before_training(self, workdir, tiny_config):
        # --policy-mad names no file; compare fails on it before it trains
        # the rl policy that --policy leaves out
        missing = str(workdir / "missing.npz")
        res = run_cli("compare", "--config", tiny_config,
                      "--out", str(workdir / "compare_missing"),
                      "--policy-mad", missing)
        assert res.returncode == 1
        assert "missing.npz" in res.stderr
        assert "training" not in res.stdout

    def test_measurement_setting(self, workdir, trained):
        """--measurement evaluates the season of the same run with exact
        forecasts and no process noise."""
        snapshot = str(trained[0] / "policy.npz")
        noisy = {k: v for k, v in TINY_CONFIG.items() if k != "env"}
        exact = dict(TINY_CONFIG, forecast_noise="exact")
        outputs = {}
        for label, config, extra in (("noisy", noisy, ()),
                                     ("measured", noisy, ("--measurement",)),
                                     ("exact", exact, ())):
            path = workdir / f"{label}.json"
            path.write_text(json.dumps(config))
            out = workdir / f"compare_{label}"
            res = run_cli("compare", "--config", str(path), "--out", str(out),
                          "--policy", snapshot, "--policy-mad", snapshot, *extra)
            assert res.returncode == 0, res.stderr
            outputs[label] = [(out / name).read_bytes()
                              for name in ("summary.csv", "daily.csv")]
            if label == "measured":
                assert "season 8 days, seed 0, measurement setting" in res.stdout
                assert ("rl per-region day counts (below / in-band / above):"
                        in res.stdout)
                assert "  region 1: " in res.stdout
        assert outputs["measured"] == outputs["exact"]
        assert outputs["measured"] != outputs["noisy"]


class TestCompareOwnSnapshots:
    """compare on two hand-made snapshots of different hidden sizes, with
    three regions of different c2 and an a_max of 3.0 in, so the sensor
    baseline's doses fill to the upper threshold uncapped."""

    CONFIG = {"seed": 3, "days": 60, "n_regions": 3, "env": {"a_max": 3.0},
              "dynamics": [{"c1": 0.998, "c2": 0.95, "c3": -0.70, "b": 0.002},
                           {"c1": 0.997, "c2": 0.90, "c3": -0.75, "b": 0.003},
                           {"c1": 0.996, "c2": 0.85, "c3": -0.72, "b": 0.001}]}

    @pytest.fixture(scope="class")
    def compared(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("own_snapshots")
        n = self.CONFIG["n_regions"]
        snapshots = []
        for name, hidden in (("rl", (8,)), ("mad", (4, 4))):
            policy = SquashedGaussianPolicy(obs_dim=n + 24, n_regions=n,
                                            a_max=0.54, hidden=hidden, seed=1)
            policy.norm_stats = NormalizationStats(mean=np.zeros(n + 12),
                                                   std=np.ones(n + 12))
            snapshots.append(str(tmp / f"{name}.npz"))
            policy.save(snapshots[-1])
        config = tmp / "run.json"
        config.write_text(json.dumps(self.CONFIG))
        out = tmp / "out"
        res = run_cli("compare", "--config", str(config), "--out", str(out),
                      "--policy", snapshots[0], "--policy-mad", snapshots[1])
        return res, out

    def test_policies_of_different_hidden_sizes(self, compared):
        res, out = compared
        assert res.returncode == 0, res.stderr
        assert set(read_summary(out / "summary.csv")) == {
            "et", "sensor", "rl", "rl-mad", "rl-noshield"}

    def test_sensor_fills_each_region_under_its_own_gain(self, compared):
        res, out = compared
        assert res.returncode == 0, res.stderr
        sensor = SensorControllerConfig()
        rows = read_daily(out / "daily.csv")["sensor"]
        for i, model in enumerate(self.CONFIG["dynamics"]):
            doses = [(day[f"a_{i}"], (sensor.upper_threshold - before[f"v_{i}"])
                      / model["c2"])
                     for before, day in zip(rows, rows[1:])
                     if before[f"v_{i}"] < sensor.lower_threshold]
            assert doses, f"region {i} never fell below the lower threshold"
            for dose, fill in doses:
                assert fill < self.CONFIG["env"]["a_max"]
                assert dose == fill


class TestGoldenOutputs:
    """summary.csv and daily.csv of a small compare, pinned by digest.

    Every policy controller deploys a zero-rewired net (output weights 0,
    bias -8), which proposes almost no water, so the shield fires; its
    actions are squash(-8) whatever the hidden layers compute, so the
    files do not depend on the BLAS build."""

    CONFIG = {"seed": 5, "days": 40, "n_regions": 3,
              "dynamics": [{"c1": 0.998, "c2": 0.95, "c3": -0.70, "b": 0.002},
                           {"c1": 0.997, "c2": 0.93, "c3": -0.75, "b": 0.003},
                           {"c1": 0.996, "c2": 0.94, "c3": -0.72, "b": 0.001}]}
    DIGESTS = {
        (): ("c64dbed4ccdafc8877a773377f8c83ccda767de4b13a0d35d2d448163e7a3213",
             "0500a0220704f352352d799aaff47a7d92fc048b48750bba24ee7f250d56c31f"),
        ("--measurement",): (
            "bfeb13c82c5e1d45bee4a15587a53b4fd58d10d5f2d8618a8e6b9f0f4347b44c",
            "939e87ba0129384e0338b17b1c0b71b29148a318b1bdb809bba6680dc2738ff0"),
    }

    @pytest.mark.parametrize("extra", list(DIGESTS), ids=["noisy", "measurement"])
    def test_compare_bytes(self, tmp_path, extra):
        n = self.CONFIG["n_regions"]
        policy = SquashedGaussianPolicy(obs_dim=n + 24, n_regions=n, a_max=0.54,
                                        hidden=(8,), seed=0)
        policy.norm_stats = NormalizationStats(mean=np.zeros(n + 12),
                                               std=np.ones(n + 12))
        policy.net.weights[-1][:] = 0.0
        policy.net.biases[-1][:] = -8.0
        snapshot = str(tmp_path / "zero.npz")
        policy.save(snapshot)
        config = tmp_path / "run.json"
        config.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "out"
        res = run_cli("compare", "--config", str(config), "--out", str(out),
                      "--policy", snapshot, "--policy-mad", snapshot, *extra)
        assert res.returncode == 0, res.stderr
        digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ("summary.csv", "daily.csv"))
        assert digests == self.DIGESTS[extra]
