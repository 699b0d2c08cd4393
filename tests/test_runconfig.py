"""Declarative run configuration: JSON schema, builders, fingerprints."""

import dataclasses
import datetime as dt
import re

import numpy as np
import pytest

from orchardrl.env import DEFAULT_REGION_DYNAMICS
from orchardrl.hydrology import SoilProfile
from orchardrl.predictor import TREE1_MODEL, TREE2_MODEL, PredictorModel
from orchardrl.runconfig import (
    RunConfig,
    build_env_config,
    build_season_weather,
    build_training_weather,
    config_hash,
    default_run_config,
    forecast_noise_model,
    from_json_dict,
    load_config,
    save_config,
    to_json_dict,
)
from orchardrl.weather import (
    EtModelParams,
    ForecastNoise,
    default_forecast_noise,
    synthesize_season,
    write_weather_csv,
)


class TestValidation:
    def test_days_and_regions_positive(self):
        with pytest.raises(ValueError):
            default_run_config(days=0)
        with pytest.raises(ValueError):
            default_run_config(n_regions=0)

    def test_one_dynamics_model_per_region(self):
        with pytest.raises(ValueError, match="per region"):
            default_run_config(n_regions=3)

    def test_one_shield_model_per_region(self):
        model = {"c1": 1.0, "c2": 1.0, "c3": -1.0, "b": 0.0}
        with pytest.raises(ValueError,
                           match="shield.model has 1 models for 2 regions"):
            from_json_dict({"shield": {"model": [model]}})
        run = from_json_dict({"shield": {"model": [model, model]}})
        assert len(run.shield.model) == 2

    def test_forecast_preset_names(self):
        with pytest.raises(ValueError, match="preset"):
            default_run_config(forecast_noise="bogus")

    def test_sensor_thresholds_checked_at_load(self):
        with pytest.raises(ValueError, match="lower_threshold"):
            from_json_dict({"sensor": {"lower_threshold": 7.0,
                                       "upper_threshold": 6.0}})

    def test_reward_weights_checked_at_load(self):
        with pytest.raises(ValueError, match="lambda1 must be nonnegative"):
            from_json_dict({"reward": {"lambda1": -1.0}})


class TestJsonRoundTrip:
    def test_default_config(self):
        run = default_run_config()
        again = from_json_dict(to_json_dict(run))
        assert again == run

    def test_overridden_config(self):
        run = default_run_config(
            seed=17, days=60, out_dir="elsewhere",
            n_regions=1, dynamics=(TREE1_MODEL,),
            forecast_noise=ForecastNoise(et_std=0.03, miss_rate=0.2,
                                         false_alarm_rate=0.1,
                                         false_alarm_mean=0.05,
                                         precip_rel_std=0.3))
        again = from_json_dict(to_json_dict(run))
        assert again == run

    def test_exact_preset_survives(self):
        run = default_run_config(forecast_noise="exact")
        assert from_json_dict(to_json_dict(run)).forecast_noise == "exact"

    def test_model_diagnostics_carried(self):
        run = default_run_config(n_regions=2,
                                 dynamics=(TREE1_MODEL, TREE2_MODEL))
        again = from_json_dict(to_json_dict(run))
        assert again.dynamics[0].r_squared == TREE1_MODEL.r_squared
        assert again.dynamics[1].nrmse == TREE2_MODEL.nrmse

    def test_file_round_trip(self, tmp_path):
        run = default_run_config(seed=23, days=40)
        path = tmp_path / "run.json"
        save_config(run, path)
        assert load_config(path) == run

    def test_partial_document_takes_defaults(self):
        run = from_json_dict({"days": 15})
        assert run.days == 15
        assert run.seed == default_run_config().seed
        assert run.n_regions == 2

    def test_partial_document_sizes_dynamics(self):
        run = from_json_dict({"n_regions": 1})
        assert len(run.dynamics) == 1

    def test_nested_sections_merge_over_defaults(self):
        model = [{"c1": 0.99, "c2": 0.9, "c3": -0.7, "b": 0.0},
                 {"c1": 0.98, "c2": 0.8, "c3": -0.6, "b": 0.01}]
        run = from_json_dict({"trainer": {"max_iterations": 7},
                              "shield": {"model": model},
                              "climate": {"start": "2021-04-01"}})
        assert run.trainer.max_iterations == 7
        assert run.trainer.gamma == 0.99
        assert run.shield.model == tuple(PredictorModel(**m) for m in model)
        assert run.climate.start == dt.date(2021, 4, 1)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            from_json_dict({"sprinklers": 3})

    def test_retired_trainer_keys_named(self):
        # the worker-based rollout's keys, replaced by episodes_per_iteration
        with pytest.raises(ValueError, match=r"unknown trainer keys: "
                           r"\['episodes_per_worker', 'workers'\]"):
            from_json_dict({"trainer": {"workers": 2, "episodes_per_worker": 16}})
        # env keys the simulator never read: seasons run for days and
        # training episodes for trainer.episode_length
        with pytest.raises(ValueError, match=r"unknown env keys: "
                           r"\['episode_length', 'irrigation_rate'\]"):
            from_json_dict({"env": {"episode_length": 3, "irrigation_rate": 99.0}})
        # the rl-noshield controller is the unshielded run, and --policy
        # passes a snapshot
        with pytest.raises(ValueError, match=r"unknown shield keys: \['enabled'\]"):
            from_json_dict({"shield": {"enabled": False}})
        # the shield triggers on any positive predicted deficit
        with pytest.raises(ValueError,
                           match=r"unknown shield keys: \['detector_threshold'\]"):
            from_json_dict({"shield": {"detector_threshold": 0.0}})
        with pytest.raises(ValueError, match=r"unknown config keys: \['policy_path'\]"):
            from_json_dict({"policy_path": "policy.npz"})
        # synthesis takes each day's radiation from ra_base and ra_amp
        with pytest.raises(ValueError,
                           match=r"unknown climate.et_params keys: \['ra'\]"):
            from_json_dict({"climate": {"et_params": {"ra": 0.6}}})

    @pytest.mark.parametrize("section, doc", [
        ("climate", {"climate": {"rainfall": 1.0}}),
        ("climate.et_params", {"climate": {"et_params": {"kc": 0.8}}}),
        ("profile", {"profile": {"clay": 0.2}}),
        ("reward", {"reward": {"lambda2": 1.0}}),
        ("env", {"env": {"valves": 2}}),
        ("trainer", {"trainer": {"workers": 2}}),
        ("shield", {"shield": {"signed_detector": True}}),
        ("shield.model[0]", {"shield": {"model": [
            {"c1": 1.0, "c2": 1.0, "c3": -1.0, "b": 0.0, "r2": 1.0}]}}),
        ("sensor", {"sensor": {"hysteresis": 0.1}}),
        ("forecast_noise", {"forecast_noise": {"bias": 0.1}}),
        ("dynamics[1]", {"dynamics": [
            {"c1": 1.0, "c2": 1.0, "c3": -1.0, "b": 0.0},
            {"c1": 1.0, "c2": 1.0, "c3": -1.0, "b": 0.0, "d": 0.0}]}),
    ])
    def test_unknown_section_key_named(self, section, doc):
        with pytest.raises(ValueError, match=rf"^unknown {re.escape(section)} keys"):
            from_json_dict(doc)

    def test_climate_et_params_drive_synthetic_et(self):
        doc = {"days": 30, "climate": {"et_params": {"gamma_c": 0.0046}}}
        run = from_json_dict(doc)
        assert run.climate.et_params == EtModelParams(gamma_c=0.0046)
        base = [d.et for d in build_season_weather(from_json_dict({"days": 30}))]
        doubled = [d.et for d in build_season_weather(run)]
        assert np.mean(doubled) > 1.5 * np.mean(base)


# The documents the benchmark harness writes (perfbench/workloads.py): its
# output checks replay exactly these values, so they must decode unchanged.
BENCH_PROFILE = {"awc_per_foot": 2.4, "pwp_fraction": 0.10,
                 "root_depth_feet": 1.97, "root_depth_inches": 23.62,
                 "sensor_depth_spans": [11.81, 11.81], "mad_fraction": 0.5}
BENCH_DYNAMICS = ({"c1": 0.998, "c2": 0.95, "c3": -0.70, "b": 0.002},
                  {"c1": 0.997, "c2": 0.93, "c3": -0.75, "b": 0.003})


class TestBenchmarkDocuments:
    def test_train_document(self):
        run = from_json_dict({"seed": 123, "trainer": {
            "max_iterations": 4, "convergence_window": 5}})
        defaults = default_run_config()
        assert run.seed == 123
        assert run.trainer == dataclasses.replace(
            defaults.trainer, max_iterations=4, convergence_window=5)
        assert dataclasses.replace(run, seed=0, trainer=defaults.trainer) == defaults

    @pytest.mark.parametrize("n_regions", [2, 16])
    def test_compare_document(self, n_regions):
        run = from_json_dict({
            "seed": 77, "days": 246, "n_regions": n_regions,
            "forecast_noise": "exact", "profile": BENCH_PROFILE,
            "dynamics": [BENCH_DYNAMICS[i % 2] for i in range(n_regions)],
            "env": {"a_max": 0.54, "surplus_headroom": 1.0,
                    "process_noise_std": 0.0}})
        assert (run.seed, run.days, run.n_regions) == (77, 246, n_regions)
        assert run.forecast_noise == "exact"
        assert run.profile == SoilProfile(2.4, 0.10, 1.97, 23.62, (11.81, 11.81), 0.5)
        assert run.dynamics == tuple(
            DEFAULT_REGION_DYNAMICS[i % 2] for i in range(n_regions))
        assert all(type(m) is PredictorModel for m in run.dynamics)
        assert (run.env.a_max, run.env.surplus_headroom,
                run.env.process_noise_std) == (0.54, 1.0, 0.0)
        defaults = default_run_config()
        assert (run.reward, run.trainer, run.shield, run.sensor, run.climate) == (
            defaults.reward, defaults.trainer, defaults.shield, defaults.sensor,
            defaults.climate)
        assert len(build_env_config(run).dynamics) == n_regions


class TestConfigHash:
    def test_stable(self):
        run = default_run_config()
        assert config_hash(run) == config_hash(default_run_config())
        assert len(config_hash(run)) == 16

    def test_sensitive_to_changes(self):
        base = config_hash(default_run_config())
        assert config_hash(default_run_config(seed=1)) != base
        assert config_hash(default_run_config(days=100)) != base
        run = default_run_config()
        tweaked = dataclasses.replace(
            run, reward=dataclasses.replace(run.reward, mu2=4.0))
        assert config_hash(tweaked) != base

    def test_ignores_out_dir(self):
        # where a run writes its files is not part of the experiment
        assert config_hash(default_run_config(out_dir="a")) == \
            config_hash(default_run_config(out_dir="b"))

    def test_round_trip_preserves_hash(self):
        run = default_run_config(seed=5)
        assert config_hash(from_json_dict(to_json_dict(run))) == config_hash(run)


class TestForecastNoiseResolution:
    def test_exact_preset_is_noiseless(self):
        run = default_run_config(days=40, forecast_noise="exact")
        assert forecast_noise_model(run) == ForecastNoise()
        season = build_season_weather(run)
        for today, tomorrow in zip(season, season[1:]):
            assert today.predicted_et_next == tomorrow.et
            assert today.forecast_precip_next == tomorrow.precip

    def test_explicit_noise_passes_through(self):
        noise = ForecastNoise(et_std=0.02)
        run = default_run_config(days=40, forecast_noise=noise)
        assert forecast_noise_model(run) is noise
        assert build_season_weather(run) == synthesize_season(
            run.seed, 41, run.climate, noise)

    def test_default_preset_needs_et_scale(self):
        run = default_run_config(days=40)
        got = forecast_noise_model(run)(0.2)
        assert got.et_std == pytest.approx(0.02)
        assert got.miss_rate == 0.15
        season = build_season_weather(run)
        season_et = float(np.mean([d.et for d in season]))
        assert season == synthesize_season(
            run.seed, 41, run.climate, default_forecast_noise(season_et))


class TestWeatherBuilders:
    def test_season_has_one_extra_record(self):
        run = default_run_config(days=20)
        assert len(build_season_weather(run)) == 21

    def test_season_is_seed_deterministic(self):
        run = default_run_config(days=10, seed=2)
        a = build_season_weather(run)
        b = build_season_weather(run)
        assert [d.et for d in a] == [d.et for d in b]
        c = build_season_weather(dataclasses.replace(run, seed=3))
        assert [d.et for d in a] != [d.et for d in c]

    def test_training_corpus_spans_prior_years(self):
        # a 20-day season is shorter than a 30-day training episode, so
        # every training season takes episode_length + 1 records
        run = default_run_config(days=20, seed=1)
        corpus = build_training_weather(run)
        assert len(corpus) == 4 * 31
        dates = [d.date for d in corpus]
        assert all(d1 < d2 for d1, d2 in zip(dates, dates[1:]))
        assert dates[0].year == run.climate.start.year - 4
        assert dates[-1].year < run.climate.start.year

    def test_training_seasons_span_the_season_when_longer(self):
        run = default_run_config(days=40, seed=1)
        assert len(build_training_weather(run)) == 4 * 41

    def test_csv_season_loads(self, tmp_path):
        source = synthesize_season(0, 12, default_run_config().climate)
        path = tmp_path / "weather.csv"
        write_weather_csv(path, source)
        run = default_run_config(days=5, weather_csv=str(path),
                                 forecast_noise="exact")
        season = build_season_weather(run)
        assert len(season) == 6
        assert [d.date for d in season] == [d.date for d in source[:6]]
        # exact preset: the forecast channels repeat the next day's actuals
        assert season[0].predicted_et_next == source[1].et

    def test_csv_too_short_for_season(self, tmp_path):
        source = synthesize_season(0, 8, default_run_config().climate)
        path = tmp_path / "weather.csv"
        write_weather_csv(path, source)
        run = default_run_config(days=30, weather_csv=str(path))
        with pytest.raises(ValueError, match="usable records"):
            build_season_weather(run)

    def test_csv_training_never_sees_the_season(self, tmp_path):
        source = synthesize_season(0, 40, default_run_config().climate)
        path = tmp_path / "weather.csv"
        write_weather_csv(path, source)
        run = default_run_config(days=10, weather_csv=str(path))
        run = dataclasses.replace(
            run, trainer=dataclasses.replace(run.trainer, episode_length=5))
        season = {d.date for d in build_season_weather(run)}
        training = [d.date for d in build_training_weather(run)]
        assert season.isdisjoint(training)
        assert len(season) == 11 and len(training) == 39 - 11

    def test_csv_too_short_for_training(self, tmp_path):
        source = synthesize_season(0, 18, default_run_config().climate)
        path = tmp_path / "weather.csv"
        write_weather_csv(path, source)
        run = default_run_config(days=10, weather_csv=str(path))
        run = dataclasses.replace(
            run, trainer=dataclasses.replace(run.trainer, episode_length=6))
        assert len(build_season_weather(run)) == 11
        # 17 usable records leave 6 after the season, one short of 6 + 1
        with pytest.raises(ValueError, match="training needs 7 usable records"):
            build_training_weather(run)

    def test_csv_derived_default_noise_is_reproducible(self, tmp_path):
        source = synthesize_season(4, 20, default_run_config().climate)
        path = tmp_path / "weather.csv"
        write_weather_csv(path, source)
        run = default_run_config(days=10, weather_csv=str(path))
        a = build_season_weather(run)
        b = build_season_weather(run)
        assert [d.predicted_et_next for d in a] == [d.predicted_et_next for d in b]
