"""Season runner: paired comparisons, metrics, result files."""

import datetime as dt
import json

import numpy as np
import pytest

from orchardrl.controllers import (
    SOURCE_ET,
    SOURCE_SHIELD,
    ConstantController,
    EtController,
    SensorController,
    ShieldedController,
)
from orchardrl.evalharness import (
    ROSTER_NAMES,
    ControllerResult,
    build_controller,
    build_shield_config,
    per_region_band_days,
    qos,
    read_daily,
    read_summary,
    run_roster,
    water_savings,
    write_results,
)
from orchardrl.runconfig import (
    build_season_weather,
    build_shield_models,
    config_hash,
    default_run_config,
)
from orchardrl.software import software_environment


def fake_result(daily_water, n_regions=2, soil=None, name="x"):
    days = len(daily_water)
    dw = np.asarray(daily_water, dtype=float)
    if soil is None:
        soil = np.full((days, n_regions), 5.5)
    return ControllerResult(
        name=name, season_days=days, initial_v=np.full(n_regions, 5.5),
        dates=[dt.date(2020, 3, 2) + dt.timedelta(days=i) for i in range(days)],
        daily_water=dw,
        actions=np.tile((dw / n_regions)[:, None], (1, n_regions)),
        soil=np.asarray(soil, dtype=float), sources=["agent"] * days,
        deficits=np.full(days, np.nan), triggered=np.zeros(days, dtype=bool))


def run_season(run, controller, name="x"):
    """One controller's season: a roster of one."""
    return run_roster(run, {name: controller}).entries[name]


class TestSoftwareEnvironment:
    def test_blas_threads_follow_the_request(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert software_environment()["blas_threads"] == 3
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        env = software_environment()
        assert env["blas_threads"] is None
        assert set(env) == {"python", "numpy", "blas", "blas_threads", "machine"}


class TestWaterSavings:
    def test_equal_totals_save_nothing(self):
        assert water_savings(fake_result([5.0, 5.0]),
                             fake_result([5.0, 5.0])) == 0.0

    def test_hand_example(self):
        got = water_savings(fake_result([4.524, 4.524]),
                            fake_result([5.0, 5.0]))
        assert got == pytest.approx(9.52, abs=1e-9)

    def test_extra_water_reads_negative(self):
        got = water_savings(fake_result([5.5, 5.5]), fake_result([5.0, 5.0]))
        assert got == pytest.approx(-10.0, abs=1e-9)

    def test_dry_baseline_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            water_savings(fake_result([1.0]), fake_result([0.0]))

    def test_unpaired_seasons_rejected(self):
        with pytest.raises(ValueError, match="paired"):
            water_savings(fake_result([1.0, 1.0]), fake_result([1.0]))


class TestQos:
    def test_counts_days_with_any_region_out_of_band(self, levels):
        soil = np.array([[5.0, 5.0],
                         [4.0, 6.0],
                         [5.0, 7.5],
                         [4.0, 7.5]])
        below, above = qos(fake_result([0.0] * 4, soil=soil), levels)
        assert (below, above) == (2, 2)

    def test_band_edges_count_as_in_band(self, levels):
        soil = np.array([[levels.v_mad, levels.v_fc]])
        assert qos(fake_result([0.0], soil=soil), levels) == (0, 0)

    def test_per_region_counts_partition_the_season(self, levels):
        soil = np.array([[5.0, 4.0],
                         [7.5, 5.0],
                         [4.2, 7.2]])
        below, in_band, above = per_region_band_days(
            fake_result([0.0] * 3, soil=soil), levels)
        assert np.array_equal(below, [1, 1])
        assert np.array_equal(above, [1, 1])
        assert np.array_equal(below + in_band + above, [3, 3])


class TestRunSeason:
    def test_series_shapes_and_accounting(self):
        run = default_run_config(days=12, seed=3)
        entry = run_season(run, build_controller(run, "et"))
        assert entry.season_days == 12
        assert len(entry.dates) == 12
        assert entry.actions.shape == (12, 2)
        assert entry.soil.shape == (12, 2)
        # every drop of water is attributed
        assert entry.total_water == pytest.approx(entry.daily_water.sum())
        assert entry.daily_water == pytest.approx(entry.actions.sum(axis=1))
        assert entry.sources == [SOURCE_ET] * 12
        assert np.all(np.isnan(entry.deficits))
        assert entry.shield_trigger_days == 0

    def test_same_run_replays_identically(self):
        run = default_run_config(days=10, seed=4)
        a = run_season(run, build_controller(run, "et"))
        b = run_season(run, build_controller(run, "et"))
        assert np.array_equal(a.soil, b.soil)
        assert np.array_equal(a.daily_water, b.daily_water)
        assert a.dates == b.dates

    def test_dates_follow_the_weather_calendar(self):
        run = default_run_config(days=8, seed=0)
        entry = run_season(run, build_controller(run, "et"))
        start = run.climate.start
        assert entry.dates[0] == start + dt.timedelta(days=1)
        assert entry.dates[-1] == start + dt.timedelta(days=8)
        assert entry.dates == [w.date for w in build_season_weather(run)[1:]]

    def test_shielded_season_logs_reports(self):
        run = default_run_config(days=90, seed=9)
        inner = ConstantController(run.n_regions, 0.0)
        fallback = EtController(run.n_regions, run.env.a_max)
        ctl = ShieldedController(inner, build_shield_config(run), fallback)
        entry = run_season(run, ctl)
        assert np.all(np.isfinite(entry.deficits))
        assert entry.shield_trigger_days >= 1
        assert SOURCE_SHIELD in entry.sources
        for day in range(90):
            assert entry.triggered[day] == (entry.sources[day] == SOURCE_SHIELD)


class TestRunRoster:
    def test_paired_initial_conditions(self):
        run = default_run_config(days=10, seed=6)
        exp = run_roster(run, {"et": build_controller(run, "et"),
                               "sensor": build_controller(run, "sensor"),
                               "zero": build_controller(run, "zero")})
        assert set(exp.entries) == {"et", "sensor", "zero"}
        assert exp.config_fingerprint == config_hash(run)
        assert exp.seed == 6
        v0 = exp.entries["et"].initial_v
        for entry in exp.entries.values():
            assert np.array_equal(entry.initial_v, v0)
            assert entry.dates == exp.entries["et"].dates
        assert exp.entries["zero"].total_water == 0.0

    def test_identical_config_gives_identical_experiment(self):
        run = default_run_config(days=7, seed=8)
        exp_a = run_roster(run, {"et": build_controller(run, "et")})
        exp_b = run_roster(run, {"et": build_controller(run, "et")})
        assert np.array_equal(exp_a.entries["et"].soil,
                              exp_b.entries["et"].soil)
        assert exp_a.config_fingerprint == exp_b.config_fingerprint

    def test_roster_membership_does_not_change_a_season(self):
        # default noisy plant and forecasts; the shielded entry also checks
        # that per-day reports stay with their own controller
        run = default_run_config(days=90, seed=9)

        def screened_zero():
            return ShieldedController(ConstantController(run.n_regions, 0.0),
                                      build_shield_config(run),
                                      EtController(run.n_regions, run.env.a_max))

        alone = run_roster(run, {"a": screened_zero()}).entries["a"]
        paired = run_roster(run, {"a": screened_zero(),
                                  "b": build_controller(run, "sensor")}).entries["a"]
        assert alone.shield_trigger_days > 0
        for field in ("initial_v", "daily_water", "actions", "soil",
                      "deficits", "triggered"):
            assert np.array_equal(getattr(alone, field), getattr(paired, field),
                                  equal_nan=field == "deficits"), field
        assert alone.sources == paired.sources
        assert alone.dates == paired.dates

    def test_identical_controllers_get_identical_soil(self):
        run = default_run_config(days=20, seed=10)
        exp = run_roster(run, {"x": ConstantController(run.n_regions, 0.2),
                               "y": ConstantController(run.n_regions, 0.2)})
        assert np.array_equal(exp.entries["x"].soil, exp.entries["y"].soil)

    def test_empty_roster(self):
        run = default_run_config(days=5)
        exp = run_roster(run, {})
        assert exp.entries == {}


class TestBuildController:
    def test_roster_names_cover_baselines(self):
        assert ROSTER_NAMES == ("et", "sensor", "rl", "rl-mad", "rl-noshield")

    def test_et_and_sensor_wiring(self):
        run = default_run_config()
        assert isinstance(build_controller(run, "et"), EtController)
        sensor = build_controller(run, "sensor")
        assert isinstance(sensor, SensorController)
        assert sensor.fill_gain == build_shield_models(run)[0].c2

    def test_zero_controller(self):
        run = default_run_config()
        assert isinstance(build_controller(run, "zero"), ConstantController)

    def test_rl_requires_policy(self):
        run = default_run_config()
        for name in ("rl", "rl-mad", "rl-noshield"):
            with pytest.raises(ValueError, match="policy"):
                build_controller(run, name)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown controller"):
            build_controller(default_run_config(), "sprinkler")

    def test_shield_config_follows_run_settings(self):
        run = default_run_config()
        cfg = build_shield_config(run)
        assert cfg.model == build_shield_models(run)
        forced_off = build_shield_config(run, enabled=False)
        assert not forced_off.enabled


class TestResultFiles:
    def small_experiment(self):
        run = default_run_config(days=6, seed=11)
        ctl = ShieldedController(ConstantController(2, 0.0),
                                 build_shield_config(run),
                                 EtController(2, run.env.a_max))
        return run, run_roster(run, {"et": build_controller(run, "et"),
                                     "screened": ctl})

    def test_round_trip_is_lossless(self, tmp_path, levels):
        run, exp = self.small_experiment()
        write_results(tmp_path, exp, levels)

        summary = read_summary(tmp_path / "summary.csv")
        assert set(summary) == {"et", "screened"}
        for name, entry in exp.entries.items():
            below, above = qos(entry, levels)
            row = summary[name]
            assert row["total_water"] == entry.total_water
            assert row["days_below_mad"] == below
            assert row["days_above_fc"] == above
            assert row["shield_trigger_days"] == entry.shield_trigger_days
            assert row["season_days"] == 6

        daily = read_daily(tmp_path / "daily.csv")
        for name, entry in exp.entries.items():
            rows = daily[name]
            assert len(rows) == 6
            for day, row in enumerate(rows):
                assert row["day"] == day
                assert row["date"] == entry.dates[day].isoformat()
                assert row["daily_water"] == entry.daily_water[day]
                assert row["v_0"] == entry.soil[day][0]
                assert row["v_1"] == entry.soil[day][1]
                assert row["a_0"] == entry.actions[day][0]
                assert row["source"] == entry.sources[day]
                assert row["triggered"] == bool(entry.triggered[day])
                if np.isnan(entry.deficits[day]):
                    assert row["deficit"] is None
                else:
                    assert row["deficit"] == entry.deficits[day]

    def test_manifest_contents(self, tmp_path, levels):
        run, exp = self.small_experiment()
        write_results(tmp_path, exp, levels)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_fingerprint"] == config_hash(run)
        assert manifest["seed"] == 11
        assert manifest["season_days"] == 6
        assert manifest["controllers"] == ["et", "screened"]
        assert manifest["levels"]["v_mad"] == levels.v_mad
        assert manifest["levels"]["v_fc"] == levels.v_fc
        assert manifest["software"] == software_environment()

    def test_empty_experiment_still_writes(self, tmp_path, levels):
        run = default_run_config(days=5)
        exp = run_roster(run, {})
        write_results(tmp_path, exp, levels)
        assert read_summary(tmp_path / "summary.csv") == {}
        assert read_daily(tmp_path / "daily.csv") == {}
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["controllers"] == []
