"""Weather records, the Hargreaves ET model, synthesis, and CSV I/O."""

import dataclasses
import datetime as dt
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orchardrl.runconfig import build_training_weather, default_run_config
from orchardrl.weather import (
    CHANNELS,
    CSV_COLUMNS,
    N_OBSERVED,
    ClimateParams,
    EtModelParams,
    ForecastNoise,
    WeatherDay,
    WeatherTable,
    attach_forecasts,
    default_forecast_noise,
    fahrenheit_to_celsius,
    hargreaves_et,
    load_weather_csv,
    synthesize_forecast,
    synthesize_season,
    write_weather_csv,
)

from conftest import weather_table


def make_day(date=dt.date(2020, 3, 1), et=0.15, precip=0.0, **kw):
    base = dict(date=date, et=et, precip=precip, t_max=75.0, t_avg=65.0,
                t_min=55.0, h_max=90.0, h_avg=70.0, h_min=50.0,
                solar=500.0, wind=3.0)
    base.update(kw)
    return WeatherDay(**base)


class TestHargreaves:
    def test_offset_zero(self):
        p = EtModelParams(gamma_c=0.0023, td=9.0)
        assert hargreaves_et(p, 10.0, -17.8) == 0.0

    def test_zero_temperature_spread(self):
        p = EtModelParams(gamma_c=0.0023, td=0.0)
        assert hargreaves_et(p, 10.0, 30.0) == 0.0

    def test_hand_value(self):
        p = EtModelParams(gamma_c=0.0023, td=9.0)
        assert hargreaves_et(p, 10.0, 20.0) == pytest.approx(2.6082, abs=1e-9)

    def test_extreme_cold_clamped(self):
        p = EtModelParams(gamma_c=0.0023, td=9.0)
        assert hargreaves_et(p, 10.0, -40.0) == 0.0

    @given(scale=st.floats(min_value=0.1, max_value=10.0),
           t=st.floats(min_value=-10.0, max_value=45.0))
    def test_linear_in_gamma_and_ra(self, scale, t):
        p = EtModelParams(gamma_c=0.0023, td=12.0)
        base = hargreaves_et(p, 0.6, t)
        scaled = dataclasses.replace(p, gamma_c=p.gamma_c * scale)
        assert hargreaves_et(scaled, 0.6, t) \
            == pytest.approx(scale * base, rel=1e-12)
        assert hargreaves_et(p, 0.6 * scale, t) \
            == pytest.approx(scale * base, rel=1e-12)

    @given(t1=st.floats(min_value=-30.0, max_value=50.0),
           t2=st.floats(min_value=-30.0, max_value=50.0))
    def test_monotone_in_temperature(self, t1, t2):
        p = EtModelParams()
        lo, hi = sorted((t1, t2))
        assert hargreaves_et(p, 0.6, lo) <= hargreaves_et(p, 0.6, hi)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            EtModelParams(gamma_c=-0.1)
        with pytest.raises(ValueError):
            EtModelParams(td=-1.0)


def test_fahrenheit_to_celsius_fixed_points():
    assert fahrenheit_to_celsius(32.0) == pytest.approx(0.0)
    assert fahrenheit_to_celsius(212.0) == pytest.approx(100.0)


class TestWeatherDayValidation:
    def test_temperature_ordering(self):
        with pytest.raises(ValueError):
            make_day(t_min=80.0)

    def test_humidity_bounds(self):
        with pytest.raises(ValueError):
            make_day(h_avg=130.0)

    def test_negative_et_rejected(self):
        with pytest.raises(ValueError):
            make_day(et=-0.1)

    def test_numeric_channels_order(self):
        d = make_day()
        assert d.numeric_channels == (d.et, d.precip, d.t_max, d.t_avg, d.t_min,
                                      d.h_max, d.h_avg, d.h_min, d.solar, d.wind)


class TestWeatherTable:
    def test_rows_hold_python_floats(self):
        season = synthesize_season(0, 5)
        assert type(season[2].date) is dt.date
        assert all(type(x) is float for d in season for x in d.channels)
        assert season[-1] == list(season)[-1]

    def test_records_round_trip(self):
        season = synthesize_season(3, 12)
        assert weather_table(season) == season
        assert list(weather_table(season)) == list(season)

    def test_slice_is_a_table_of_views(self):
        season = synthesize_season(3, 12)
        tail = season[4:]
        assert isinstance(tail, WeatherTable) and len(tail) == 8
        assert np.shares_memory(tail.values, season.values)
        assert tail[0] == season[4]

    def test_concatenate_keeps_order(self):
        a, b = synthesize_season(1, 3), synthesize_season(2, 4)
        assert list(WeatherTable.concatenate([a, b])) == list(a) + list(b)

    def test_shape_checked(self):
        season = synthesize_season(3, 12)
        with pytest.raises(ValueError, match="dates"):
            WeatherTable(season.dates[:3], season.values)
        with pytest.raises(ValueError, match="dates"):
            WeatherTable(season.dates, season.values[:, :N_OBSERVED])

    def test_first_offending_date_named(self):
        season = synthesize_season(3, 12)
        values = season.values.copy()
        values[7, CHANNELS.index("h_min")] = -1.0
        values[9, CHANNELS.index("et")] = -0.5
        with pytest.raises(ValueError, match=r"^2020-03-08: h_min=-1.0 outside"):
            WeatherTable(season.dates, values)

    def test_infinite_wind_rejected(self):
        season = synthesize_season(3, 12)
        values = season.values.copy()
        values[4, CHANNELS.index("wind")] = math.inf
        with pytest.raises(ValueError, match=r"^2020-03-05: wind=inf is not finite"):
            WeatherTable(season.dates, values)

    @pytest.mark.parametrize("bad", [
        {"t_min": 80.0}, {"t_avg": math.nan}, {"h_max": 101.0},
        {"h_avg": 130.0}, {"h_min": -2.0}, {"et": -0.1}, {"precip": -1.0},
        {"predicted_et_next": -0.2}, {"forecast_precip_next": -0.3},
        {"t_min": 80.0, "et": -0.1}, {"solar": math.inf}, {"et": math.nan},
    ])
    def test_column_checks_match_the_record_checks(self, bad):
        with pytest.raises(ValueError) as record:
            make_day(**bad)
        values = np.array([make_day().channels] * 3)
        for name, x in bad.items():
            values[1, CHANNELS.index(name)] = x
        dates = np.datetime64("2020-02-29") + np.arange(3)
        with pytest.raises(ValueError) as table:
            WeatherTable(dates, values)
        assert str(table.value) == str(record.value)


class TestSynthesizeForecast:
    def test_zero_noise_is_exact(self):
        et_fc, p_fc = synthesize_forecast(0.15, 0.3, ForecastNoise(),
                                          np.random.default_rng(0))
        assert et_fc == 0.15
        assert p_fc == 0.3

    def test_additive_et_error(self):
        # same generator stream on both sides pins the sampled perturbation
        noise = ForecastNoise(et_std=0.02)
        sample = float(np.random.default_rng(42).normal(0.0, 0.02))
        et_fc, _ = synthesize_forecast(0.15, 0.0, noise,
                                       np.random.default_rng(42))
        assert et_fc == pytest.approx(max(0.0, 0.15 + sample), abs=1e-12)

    def test_et_floored_at_zero(self):
        noise = ForecastNoise(et_std=5.0)
        for seed in range(50):
            et_fc, _ = synthesize_forecast(0.01, 0.0, noise,
                                           np.random.default_rng(seed))
            assert et_fc >= 0.0

    def test_certain_miss_zeroes_rain(self):
        noise = ForecastNoise(miss_rate=1.0)
        _, p_fc = synthesize_forecast(0.15, 0.8, noise,
                                      np.random.default_rng(3))
        assert p_fc == 0.0

    def test_certain_false_alarm_invents_rain(self):
        noise = ForecastNoise(false_alarm_rate=1.0, false_alarm_mean=0.1)
        _, p_fc = synthesize_forecast(0.15, 0.0, noise,
                                      np.random.default_rng(3))
        assert p_fc > 0.0

    def test_dry_day_stays_dry_without_false_alarms(self):
        _, p_fc = synthesize_forecast(0.15, 0.0, ForecastNoise(),
                                      np.random.default_rng(3))
        assert p_fc == 0.0

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            ForecastNoise(et_std=-0.1)
        with pytest.raises(ValueError):
            ForecastNoise(miss_rate=1.5)

    def test_default_noise_scales_with_season(self):
        noise = default_forecast_noise(0.2)
        assert noise.et_std == pytest.approx(0.02)
        assert noise.miss_rate == 0.15
        assert noise.false_alarm_rate == 0.15


class TestSynthesizeSeason:
    def test_deterministic(self):
        assert synthesize_season(7, 40) == synthesize_season(7, 40)

    def test_seed_changes_sequence(self):
        assert synthesize_season(7, 40) != synthesize_season(8, 40)

    def test_record_count_and_dates(self):
        season = synthesize_season(0, 246)
        assert len(season) == 246
        assert season[0].date == dt.date(2020, 3, 1)
        deltas = [(b.date - a.date).days for a, b in zip(season, season[1:])]
        assert set(deltas) == {1}

    def test_last_record_has_no_forecast(self):
        season = synthesize_season(0, 30)
        assert season[-1].predicted_et_next == 0.0
        assert season[-1].forecast_precip_next == 0.0

    def test_zero_precip_probability(self):
        climate = ClimateParams(precip_event_prob=(0.0,) * 12)
        season = synthesize_season(1, 120, climate)
        assert all(d.precip == 0.0 for d in season)

    def test_precip_probabilities_cover_every_month(self):
        with pytest.raises(ValueError, match="per month"):
            ClimateParams(precip_event_prob=(0.1,) * 11)

    def test_radiation_must_stay_positive(self):
        with pytest.raises(ValueError, match="radiation"):
            ClimateParams(ra_base=0.2, ra_amp=-0.3)

    def test_dry_noise_free_et_is_hargreaves(self):
        # the generator inlines hargreaves_et with the day's radiation
        climate = ClimateParams(et_rel_noise=0.0, et_floor=0.0,
                                precip_event_prob=(0.0,) * 12)
        for day in synthesize_season(2, 60, climate):
            seasonal = math.sin(math.pi * climate.seasonal_phase(day.date))
            ra = climate.ra_base + climate.ra_amp * seasonal
            assert day.et == hargreaves_et(climate.et_params, ra,
                                           fahrenheit_to_celsius(day.t_avg))

    def test_exact_forecasts_match_next_actuals(self):
        season = synthesize_season(5, 60, noise=ForecastNoise())
        for today, tomorrow in zip(season, season[1:]):
            assert today.predicted_et_next == tomorrow.et
            assert today.forecast_precip_next == tomorrow.precip

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            synthesize_season(0, 0)

    @settings(max_examples=20)
    @given(seed=st.integers(min_value=0, max_value=2 ** 31),
           days=st.integers(min_value=1, max_value=120))
    def test_invariants_always_hold(self, seed, days):
        # construction re-runs every WeatherDay validation, so it not
        # raising is the property; spot-check the et floor on top
        season = synthesize_season(seed, days)
        assert len(season) == days
        assert all(d.et >= 0.02 for d in season)


class TestWeatherCsv:
    def test_round_trip_observed_channels(self, tmp_path):
        season = synthesize_season(3, 25)
        path = tmp_path / "season.csv"
        write_weather_csv(path, season)
        loaded = load_weather_csv(path, noise=ForecastNoise())
        assert len(loaded) == 24
        for orig, back in zip(season, loaded):
            assert back.date == orig.date
            assert back.numeric_channels == orig.numeric_channels

    def test_loaded_forecasts_come_from_next_row(self, tmp_path):
        season = synthesize_season(3, 10)
        path = tmp_path / "season.csv"
        write_weather_csv(path, season)
        loaded = load_weather_csv(path, noise=ForecastNoise())
        for i, day in enumerate(loaded):
            assert day.predicted_et_next == season[i + 1].et
            assert day.forecast_precip_next == season[i + 1].precip

    def test_three_rows_two_usable_days(self, tmp_path):
        path = tmp_path / "w.csv"
        write_weather_csv(path, synthesize_season(0, 3))
        assert len(load_weather_csv(path, noise=ForecastNoise())) == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert len(load_weather_csv(path, noise=ForecastNoise())) == 0

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n")
        assert len(load_weather_csv(path, noise=ForecastNoise())) == 0

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,banana\n")
        with pytest.raises(ValueError, match="header"):
            load_weather_csv(path, noise=ForecastNoise())

    def test_invalid_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        good = "2020-03-01,0.1,0.0,75,65,55,90,70,50,500,3"
        bad = "2020-03-02,0.1,0.0,55,65,75,90,70,50,500,3"  # t_min > t_max
        path.write_text(",".join(CSV_COLUMNS) + "\n" + good + "\n" + bad + "\n")
        with pytest.raises(ValueError, match=":3:"):
            load_weather_csv(path, noise=ForecastNoise())

    def test_nan_et_names_line(self, tmp_path):
        # a NaN mean ET would silently turn the default ET forecast noise off
        path = tmp_path / "bad.csv"
        good = "2020-03-01,0.1,0.0,75,65,55,90,70,50,500,3"
        bad = "2020-03-02,nan,0.0,75,65,55,90,70,50,500,3"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + good + "\n" + bad + "\n")
        with pytest.raises(ValueError, match=":3: 2020-03-02: et=nan is not finite"):
            load_weather_csv(path, noise=default_forecast_noise)

    def test_unparseable_value_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = "2020-03-01,abc,0.0,75,65,55,90,70,50,500,3"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + row + "\n")
        with pytest.raises(ValueError, match=":2:"):
            load_weather_csv(path, noise=ForecastNoise())

    @pytest.mark.parametrize("rows,line,match", [
        # a bad row is reported before a later unreadable or unordered one
        (("2020-03-02,0.1,0.0,55,65,75,90,70,50,500,3",
          "2020-03-03,abc,0.0,75,65,55,90,70,50,500,3"), 3, "temperatures"),
        (("2020-03-02,0.1,0.0,55,65,75,90,70,50,500,3",
          "2020-03-01,0.1,0.0,75,65,55,90,70,50,500,3"), 3, "temperatures"),
        (("2020-03-01,0.1,0.0,75,65,55,90,70,50,500,3",
          "2020-03-03,-0.1,0.0,75,65,55,90,70,50,500,3"), 3, "increase"),
        (("2020-03-03,abc",
          "2020-03-04,-0.1,0.0,75,65,55,90,70,50,500,3"), 3, "columns"),
    ])
    def test_first_bad_row_is_reported(self, tmp_path, rows, line, match):
        path = tmp_path / "bad.csv"
        good = "2020-03-02,0.1,0.0,75,65,55,90,70,50,500,3"
        path.write_text("\n".join((",".join(CSV_COLUMNS), good) + rows) + "\n")
        with pytest.raises(ValueError, match=f":{line}: .*{match}"):
            load_weather_csv(path, noise=ForecastNoise())

    def test_non_monotone_dates_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        r1 = "2020-03-02,0.1,0.0,75,65,55,90,70,50,500,3"
        r2 = "2020-03-01,0.1,0.0,75,65,55,90,70,50,500,3"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + r1 + "\n" + r2 + "\n")
        with pytest.raises(ValueError, match="strictly increase"):
            load_weather_csv(path, noise=ForecastNoise())

    def test_derived_noise_is_reproducible(self, tmp_path):
        path = tmp_path / "season.csv"
        write_weather_csv(path, synthesize_season(9, 40))
        noise = default_forecast_noise(0.15)
        a = load_weather_csv(path, noise=noise, seed=11)
        b = load_weather_csv(path, noise=noise, seed=11)
        assert a == b


def test_attach_forecasts_preserves_observed_channels(rng):
    days = [make_day(date=dt.date(2020, 3, 1) + dt.timedelta(days=i), et=0.1 + 0.01 * i)
            for i in range(5)]
    out = attach_forecasts(weather_table(days), ForecastNoise(), rng)
    assert [d.numeric_channels for d in out] == [d.numeric_channels for d in days]
    assert out[0].predicted_et_next == days[1].et


def _digest(days):
    text = "\n".join(repr(dataclasses.astuple(d)) for d in days)
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenDigests:
    """Synthesis and CSV forecasts reproduce known records bit for bit: the
    sha256 of the repr of every field of every record.  A change to the
    draw order or to any arithmetic expression changes a digest."""

    @pytest.mark.parametrize("seed,noise,digest", [
        (0, default_forecast_noise,
         "799fc378f878fcb0fd0bcff76c5848f158dbdcf09b9c7ac8cf718c85094b46e3"),
        (7, default_forecast_noise,
         "7d73ba7ab5d142b421316cf16f130bebdd1c87c53fa6f71bfc23c3d3d7298acb"),
        (0, ForecastNoise(),
         "a446f60b1649eb004c2e29b09aaf138b58a73c61e8feaf49e96075111d437614"),
        (7, ForecastNoise(),
         "fc33e0bcd0ff5ddd4c5e74e616f0cbf21097e9f2688ea64a2513efc81de64b5c"),
    ])
    def test_synthesized_season(self, seed, noise, digest):
        assert _digest(synthesize_season(seed, 247, noise=noise)) == digest

    def test_rain_every_month(self):
        # every day rains with p=0.5, so the rain draw and the gamma draw
        # between a day's two blocks of normal deviates both run often
        climate = ClimateParams(precip_event_prob=(0.5,) * 12)
        assert _digest(synthesize_season(11, 247, climate=climate)) == \
            "4fd4a3f57f7b867018c94cf9fb9065f01ab2d97dcc8c5e164756b4c9b42a6e10"

    def test_training_corpus(self):
        # the default run's four synthetic training seasons, as the
        # trainer's environment reads them
        assert _digest(build_training_weather(default_run_config())) == \
            "453f4dba74e42ea8add17d82209174079836bfdaf2a47d49bf2022e32fff78b6"

    def test_csv_forecasts(self, tmp_path):
        path = tmp_path / "season.csv"
        write_weather_csv(path, synthesize_season(5, 30))
        loaded = load_weather_csv(path, noise=default_forecast_noise, seed=3)
        assert _digest(loaded) == \
            "ee02a1496d4987861bfc0503bf0cdabb25ef300a3996d7ad11c95eaccfc4d860"
