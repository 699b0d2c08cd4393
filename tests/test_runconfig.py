"""Declarative run configuration: JSON schema, builders, fingerprints."""

import dataclasses
import datetime as dt

import pytest

from orchardrl.predictor import TREE1_MODEL, TREE2_MODEL
from orchardrl.runconfig import (
    RunConfig,
    build_season_weather,
    build_training_weather,
    config_hash,
    default_run_config,
    from_json_dict,
    load_config,
    resolve_forecast_noise,
    save_config,
    to_json_dict,
)
from orchardrl.weather import ForecastNoise, synthesize_season, write_weather_csv


class TestValidation:
    def test_days_and_regions_positive(self):
        with pytest.raises(ValueError):
            default_run_config(days=0)
        with pytest.raises(ValueError):
            default_run_config(n_regions=0)

    def test_one_dynamics_model_per_region(self):
        with pytest.raises(ValueError, match="per region"):
            default_run_config(n_regions=3)

    def test_forecast_preset_names(self):
        with pytest.raises(ValueError, match="preset"):
            default_run_config(forecast_noise="bogus")


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
        run = from_json_dict({"trainer": {"max_iterations": 7},
                              "shield": {"enabled": False},
                              "climate": {"start": "2021-04-01"}})
        assert run.trainer.max_iterations == 7
        assert run.trainer.gamma == 0.99
        assert not run.shield.enabled
        assert run.climate.start == dt.date(2021, 4, 1)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            from_json_dict({"sprinklers": 3})

    def test_retired_trainer_keys_named(self):
        # the worker-based rollout's keys, replaced by episodes_per_iteration
        with pytest.raises(ValueError, match=r"unknown trainer keys: "
                           r"\['episodes_per_worker', 'workers'\]"):
            from_json_dict({"trainer": {"workers": 2, "episodes_per_worker": 16}})


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

    def test_round_trip_preserves_hash(self):
        run = default_run_config(seed=5)
        assert config_hash(from_json_dict(to_json_dict(run))) == config_hash(run)


class TestForecastNoiseResolution:
    def test_exact_preset_is_noiseless(self):
        run = default_run_config(forecast_noise="exact")
        assert resolve_forecast_noise(run) == ForecastNoise()

    def test_explicit_noise_passes_through(self):
        noise = ForecastNoise(et_std=0.02)
        run = default_run_config(forecast_noise=noise)
        assert resolve_forecast_noise(run) is noise

    def test_default_preset_needs_et_scale(self):
        run = default_run_config()
        with pytest.raises(ValueError, match="ET mean"):
            resolve_forecast_noise(run)
        got = resolve_forecast_noise(run, season_et_mean=0.2)
        assert got.et_std == pytest.approx(0.02)
        assert got.miss_rate == 0.15


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
        run = default_run_config(days=20, seed=1)
        corpus = build_training_weather(run)
        assert len(corpus) == 4 * 21
        dates = [d.date for d in corpus]
        assert all(d1 < d2 for d1, d2 in zip(dates, dates[1:]))
        assert dates[0].year == run.climate.start.year - 4
        assert dates[-1].year < run.climate.start.year

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

    def test_csv_derived_default_noise_is_reproducible(self, tmp_path):
        source = synthesize_season(4, 20, default_run_config().climate)
        path = tmp_path / "weather.csv"
        write_weather_csv(path, source)
        run = default_run_config(days=10, weather_csv=str(path))
        a = build_season_weather(run)
        b = build_season_weather(run)
        assert [d.predicted_et_next for d in a] == [d.predicted_et_next for d in b]
