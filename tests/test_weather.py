"""Weather records, the Hargreaves ET model, synthesis, and CSV I/O."""

import dataclasses
import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orchardrl.weather import (
    CSV_COLUMNS,
    ClimateParams,
    EtModelParams,
    ForecastNoise,
    WeatherDay,
    attach_forecasts,
    default_forecast_noise,
    fahrenheit_to_celsius,
    hargreaves_et,
    load_weather_csv,
    synthesize_forecast,
    synthesize_season,
    write_weather_csv,
)


def make_day(date=dt.date(2020, 3, 1), et=0.15, precip=0.0, **kw):
    base = dict(date=date, et=et, precip=precip, t_max=75.0, t_avg=65.0,
                t_min=55.0, h_max=90.0, h_avg=70.0, h_min=50.0,
                solar=500.0, wind=3.0)
    base.update(kw)
    return WeatherDay(**base)


class TestHargreaves:
    def test_offset_zero(self):
        p = EtModelParams(gamma_c=0.0023, ra=10.0, td=9.0)
        assert hargreaves_et(p, -17.8) == 0.0

    def test_zero_temperature_spread(self):
        p = EtModelParams(gamma_c=0.0023, ra=10.0, td=0.0)
        assert hargreaves_et(p, 30.0) == 0.0

    def test_hand_value(self):
        p = EtModelParams(gamma_c=0.0023, ra=10.0, td=9.0)
        assert hargreaves_et(p, 20.0) == pytest.approx(2.6082, abs=1e-9)

    def test_extreme_cold_clamped(self):
        p = EtModelParams(gamma_c=0.0023, ra=10.0, td=9.0)
        assert hargreaves_et(p, -40.0) == 0.0

    @given(scale=st.floats(min_value=0.1, max_value=10.0),
           t=st.floats(min_value=-10.0, max_value=45.0))
    def test_linear_in_gamma_and_ra(self, scale, t):
        p = EtModelParams(gamma_c=0.0023, ra=0.6, td=12.0)
        base = hargreaves_et(p, t)
        assert hargreaves_et(dataclasses.replace(p, gamma_c=p.gamma_c * scale), t) \
            == pytest.approx(scale * base, rel=1e-12)
        assert hargreaves_et(dataclasses.replace(p, ra=p.ra * scale), t) \
            == pytest.approx(scale * base, rel=1e-12)

    @given(t1=st.floats(min_value=-30.0, max_value=50.0),
           t2=st.floats(min_value=-30.0, max_value=50.0))
    def test_monotone_in_temperature(self, t1, t2):
        p = EtModelParams()
        lo, hi = sorted((t1, t2))
        assert hargreaves_et(p, lo) <= hargreaves_et(p, hi)

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


class TestSynthesizeForecast:
    def test_zero_noise_is_exact(self):
        day = make_day(et=0.15, precip=0.3)
        et_fc, p_fc = synthesize_forecast(day, ForecastNoise(), seed=0)
        assert et_fc == 0.15
        assert p_fc == 0.3

    def test_additive_et_error(self):
        # same generator stream on both sides pins the sampled perturbation
        noise = ForecastNoise(et_std=0.02)
        sample = float(np.random.default_rng(42).normal(0.0, 0.02))
        et_fc, _ = synthesize_forecast(make_day(et=0.15), noise,
                                       np.random.default_rng(42))
        assert et_fc == pytest.approx(max(0.0, 0.15 + sample), abs=1e-12)

    def test_et_floored_at_zero(self):
        noise = ForecastNoise(et_std=5.0)
        for seed in range(50):
            et_fc, _ = synthesize_forecast(make_day(et=0.01), noise, seed)
            assert et_fc >= 0.0

    def test_certain_miss_zeroes_rain(self):
        noise = ForecastNoise(miss_rate=1.0)
        _, p_fc = synthesize_forecast(make_day(precip=0.8), noise, seed=3)
        assert p_fc == 0.0

    def test_certain_false_alarm_invents_rain(self):
        noise = ForecastNoise(false_alarm_rate=1.0, false_alarm_mean=0.1)
        _, p_fc = synthesize_forecast(make_day(precip=0.0), noise, seed=3)
        assert p_fc > 0.0

    def test_dry_day_stays_dry_without_false_alarms(self):
        _, p_fc = synthesize_forecast(make_day(precip=0.0), ForecastNoise(), seed=3)
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
        assert len(load_weather_csv(path)) == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert load_weather_csv(path) == []

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n")
        assert load_weather_csv(path) == []

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,banana\n")
        with pytest.raises(ValueError, match="header"):
            load_weather_csv(path)

    def test_invalid_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        good = "2020-03-01,0.1,0.0,75,65,55,90,70,50,500,3"
        bad = "2020-03-02,0.1,0.0,55,65,75,90,70,50,500,3"  # t_min > t_max
        path.write_text(",".join(CSV_COLUMNS) + "\n" + good + "\n" + bad + "\n")
        with pytest.raises(ValueError, match=":3:"):
            load_weather_csv(path)

    def test_unparseable_value_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = "2020-03-01,abc,0.0,75,65,55,90,70,50,500,3"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + row + "\n")
        with pytest.raises(ValueError, match=":2:"):
            load_weather_csv(path)

    def test_non_monotone_dates_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        r1 = "2020-03-02,0.1,0.0,75,65,55,90,70,50,500,3"
        r2 = "2020-03-01,0.1,0.0,75,65,55,90,70,50,500,3"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + r1 + "\n" + r2 + "\n")
        with pytest.raises(ValueError, match="strictly increase"):
            load_weather_csv(path)

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
    out = attach_forecasts(days, ForecastNoise(), rng)
    assert [d.numeric_channels for d in out] == [d.numeric_channels for d in days]
    assert out[0].predicted_et_next == days[1].et
