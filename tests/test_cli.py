"""Command-line interface, driven end-to-end in subprocesses."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from orchardrl.agent.policy import load_policy
from orchardrl.evalharness import read_summary
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
