"""Daily weather records for the irrigation simulator.

Records come either from a CSV log or from a parameterized synthetic season
generator.  Each record carries the completed day's observations plus two
forecast channels for the following day (predicted reference ET and forecast
precipitation) that the control state and the safety shield consume.

Unit conventions: temperatures are stored in degrees Fahrenheit;
``hargreaves_et`` works in Celsius.  ``fahrenheit_to_celsius`` owns the
boundary.  Water depths are inches, solar radiation Langley/day, wind mph.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

CSV_COLUMNS = (
    "date", "et", "precip", "t_max", "t_avg", "t_min",
    "h_max", "h_avg", "h_min", "solar", "wind",
)


def fahrenheit_to_celsius(t_f: float) -> float:
    return (t_f - 32.0) * 5.0 / 9.0


@dataclass(frozen=True)
class WeatherDay:
    """One completed day of weather plus next-day forecast channels."""

    date: dt.date
    et: float
    precip: float
    t_max: float
    t_avg: float
    t_min: float
    h_max: float
    h_avg: float
    h_min: float
    solar: float
    wind: float
    predicted_et_next: float = 0.0
    forecast_precip_next: float = 0.0

    def __post_init__(self) -> None:
        if not (self.t_min <= self.t_avg <= self.t_max):
            raise ValueError(
                f"{self.date}: temperatures must satisfy t_min <= t_avg <= t_max"
            )
        for name in ("h_max", "h_avg", "h_min"):
            h = getattr(self, name)
            if not 0.0 <= h <= 100.0:
                raise ValueError(f"{self.date}: {name}={h} outside [0, 100]")
        for name in ("et", "precip", "predicted_et_next", "forecast_precip_next"):
            x = getattr(self, name)
            if x < 0.0:
                raise ValueError(f"{self.date}: {name} must be nonnegative")

    @property
    def numeric_channels(self) -> tuple[float, ...]:
        """The ten observed channels, in CSV column order (sans date)."""
        return (self.et, self.precip, self.t_max, self.t_avg, self.t_min,
                self.h_max, self.h_avg, self.h_min, self.solar, self.wind)


@dataclass(frozen=True)
class EtModelParams:
    """Coefficients of the temperature-based daily reference-ET model.

    et = gamma_c * ra * sqrt(td) * (t_avg_c + 17.8), where gamma_c is a
    crop-specific constant, ra the day's extraterrestrial radiation
    expressed in the same unit as the output (ClimateParams gives it a
    seasonal swing), and td the annual mean daily temperature spread in
    Celsius.
    """

    gamma_c: float = 0.0023
    td: float = 12.0

    def __post_init__(self) -> None:
        if self.gamma_c <= 0 or self.td < 0:
            raise ValueError("require gamma_c > 0, td >= 0")


def hargreaves_et(params: EtModelParams, ra: float, t_avg_c: float) -> float:
    """Daily reference ET from radiation ra and mean air temperature
    (Celsius).

    Temperatures below -17.8 C zero the driving term; ET is floored at 0
    rather than going negative on such extreme-cold days.
    """
    return params.gamma_c * ra * math.sqrt(params.td) * max(0.0, t_avg_c + 17.8)


@dataclass(frozen=True)
class ForecastNoise:
    """Error model for the next-day forecast channels.

    et_std is an absolute Gaussian std in inches.  Precipitation forecasts
    miss real events with probability miss_rate, invent events with
    probability false_alarm_rate (magnitude drawn from an exponential with
    the given mean), and otherwise scale the true amount by a lognormal-ish
    relative error.  The all-zero default reproduces the actuals exactly.
    """

    et_std: float = 0.0
    miss_rate: float = 0.0
    false_alarm_rate: float = 0.0
    false_alarm_mean: float = 0.1
    precip_rel_std: float = 0.0

    def __post_init__(self) -> None:
        if self.et_std < 0 or self.precip_rel_std < 0 or self.false_alarm_mean < 0:
            raise ValueError("noise scales must be nonnegative")
        for name in ("miss_rate", "false_alarm_rate"):
            r = getattr(self, name)
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


def default_forecast_noise(season_et_mean: float) -> ForecastNoise:
    """Default realistic forecast error: ET std at 10% of the seasonal ET
    mean, 15% precipitation miss and false-alarm rates."""
    return ForecastNoise(
        et_std=0.10 * season_et_mean,
        miss_rate=0.15,
        false_alarm_rate=0.15,
        false_alarm_mean=0.1,
        precip_rel_std=0.25,
    )


def synthesize_forecast(
    et_next: float,
    precip_next: float,
    noise: ForecastNoise,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Perturb the next day's actual ET and precipitation into a forecast.

    Zero-mean additive Gaussian error on ET; event miss / false alarm plus
    relative magnitude error on precipitation.  Both outputs floored at 0.
    """
    pred_et = et_next
    if noise.et_std > 0:
        pred_et = max(0.0, pred_et + float(rng.normal(0.0, noise.et_std)))
    p = precip_next
    if p > 0.0:
        if noise.miss_rate > 0 and rng.random() < noise.miss_rate:
            fc_precip = 0.0
        elif noise.precip_rel_std > 0:
            fc_precip = max(0.0, p * (1.0 + float(rng.normal(0.0, noise.precip_rel_std))))
        else:
            fc_precip = p
    else:
        if noise.false_alarm_rate > 0 and rng.random() < noise.false_alarm_rate:
            fc_precip = float(rng.exponential(noise.false_alarm_mean))
        else:
            fc_precip = 0.0
    return pred_et, fc_precip


@dataclass(frozen=True)
class ClimateParams:
    """Parameters of the synthetic Central-Valley-like growing season.

    Temperature follows a sinusoid over the season with Gaussian day-to-day
    jitter; reference ET comes from the temperature model with a seasonal
    radiation swing; precipitation is an event process, frequent in spring
    and fall and rare midsummer.
    """

    start: dt.date = dt.date(2020, 3, 1)
    t_base_f: float = 57.0
    t_amp_f: float = 25.0
    t_jitter_f: float = 3.0
    t_spread_f: float = 19.0
    season_span_days: int = 245          # March 1 .. October 31
    et_rel_noise: float = 0.08
    et_floor: float = 0.02
    ra_base: float = 0.45
    ra_amp: float = 0.25
    et_params: EtModelParams = EtModelParams()
    precip_event_prob: tuple[float, ...] = (
        0.0, 0.0, 0.22, 0.18, 0.10, 0.04, 0.02, 0.03, 0.10, 0.16, 0.0, 0.0,
    )  # indexed by month - 1
    precip_shape: float = 1.3
    precip_scale: float = 0.25
    precip_cap: float = 1.5
    wet_day_et_factor: float = 0.7

    def __post_init__(self) -> None:
        if len(self.precip_event_prob) != 12:
            raise ValueError("precip_event_prob needs one probability per month")
        if min(self.ra_base, self.ra_base + self.ra_amp) <= 0:
            raise ValueError("radiation ra_base + ra_amp * seasonal must stay positive")

    def seasonal_phase(self, date: dt.date) -> float:
        """0..1 position within the nominal growing season (clipped)."""
        offset = (date - dt.date(date.year, 3, 1)).days
        return min(1.0, max(0.0, offset / self.season_span_days))


def _synthesize_raw_day(date: dt.date, climate: ClimateParams,
                        rng: np.random.Generator) -> tuple:
    """One day's date and observed channels, in WeatherDay field order.

    The day's nine normal deviates come in two blocks, three before the
    rain draws and six after, in the order that one draw per value would
    take them; each value is formed the way numpy forms a scalar draw
    (loc + scale*z, and exp(mean + sigma*z) for the lognormal), so the
    stream and the records equal those of per-value draws.
    """
    # Scalar arithmetic on Python floats throughout: the per-day cost is
    # interpreter overhead, so clipping uses min/max, not np.clip.
    phase = climate.seasonal_phase(date)
    seasonal = math.sin(math.pi * phase)
    z_t, z_hi, z_lo = rng.standard_normal(3).tolist()
    t_avg = climate.t_base_f + climate.t_amp_f * seasonal + climate.t_jitter_f * z_t
    half_spread = 0.5 * climate.t_spread_f
    t_max = t_avg + half_spread + abs(2.0 * z_hi)
    t_min = t_avg - half_spread - abs(2.0 * z_lo)

    month = date.month
    wet = rng.random() < climate.precip_event_prob[month - 1]
    precip = 0.0
    if wet:
        precip = min(max(rng.gamma(climate.precip_shape, climate.precip_scale), 0.02),
                     climate.precip_cap)

    z_et, z_h, z_hmax, z_hmin, z_solar, z_wind = rng.standard_normal(6).tolist()
    # hargreaves_et, inlined, with the day's radiation
    ra = climate.ra_base + climate.ra_amp * seasonal
    p = climate.et_params
    et = p.gamma_c * ra * math.sqrt(p.td) * max(0.0, fahrenheit_to_celsius(t_avg) + 17.8)
    et *= 1.0 + climate.et_rel_noise * z_et
    if wet:
        et *= climate.wet_day_et_factor
    et = max(climate.et_floor, et)

    h_avg = min(max(80.0 - 0.55 * (t_avg - 55.0) + 6.0 * z_h, 20.0), 92.0)
    h_max = min(max(h_avg + 10.0 + abs(4.0 * z_hmax), h_avg), 100.0)
    h_min = min(max(h_avg - 14.0 - abs(4.0 * z_hmin), 2.0), h_avg)
    solar = max(360.0 + 290.0 * seasonal + 35.0 * z_solar, 60.0)
    wind = min(max(math.exp(math.log(2.8) + 0.45 * z_wind), 0.3), 18.0)

    return (date, et, precip, t_max, t_avg, t_min, h_max, h_avg, h_min, solar, wind)


def _forecasts(et: list[float], precip: list[float], noise: ForecastNoise,
               rng: np.random.Generator) -> list[tuple[float, float]]:
    """Each record's forecast channels, drawn from the following record's
    actuals in order; the final record keeps zero forecasts."""
    out = [synthesize_forecast(e, p, noise, rng) for e, p in zip(et[1:], precip[1:])]
    out.append((0.0, 0.0))
    return out


def attach_forecasts(days: list[WeatherDay], noise: ForecastNoise,
                     rng: np.random.Generator) -> list[WeatherDay]:
    """Populate each day's forecast channels from the following record.

    The final record keeps zero forecasts (it has no following day); callers
    that need n control days should supply n + 1 records.
    """
    fc = _forecasts([d.et for d in days], [d.precip for d in days], noise, rng)
    return [WeatherDay(d.date, *d.numeric_channels, *f) for d, f in zip(days, fc)]


# A forecast error model, or a function that scales one to a season's mean ET.
NoiseModel = ForecastNoise | Callable[[float], ForecastNoise]


def synthesize_season(seed: int, days: int, climate: ClimateParams | None = None,
                      noise: NoiseModel = default_forecast_noise) -> list[WeatherDay]:
    """Generate a deterministic synthetic season of daily records.

    Returns exactly ``days`` records starting at ``climate.start``; every
    record except the last carries forecast channels for its successor,
    drawn with noise (default: default_forecast_noise of the season's mean
    ET).  With the default climate, 246 days span March 1 through November 1
    of the start year with a Central-Valley-like temperature/ET arc.
    """
    if days < 1:
        raise ValueError("days must be >= 1")
    climate = climate or ClimateParams()
    rng = np.random.default_rng(seed)
    raw = [_synthesize_raw_day(climate.start + dt.timedelta(days=i), climate, rng)
           for i in range(days)]
    et = [r[1] for r in raw]
    if callable(noise):
        noise = noise(float(np.mean(et)))
    fc = _forecasts(et, [r[2] for r in raw], noise, rng)
    return [WeatherDay(*r, *f) for r, f in zip(raw, fc)]


def write_weather_csv(path, days: list[WeatherDay]) -> None:
    """Store observed channels (forecasts are derived, not stored)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for d in days:
            writer.writerow([d.date.isoformat()] + [repr(x) for x in d.numeric_channels])


def load_weather_csv(path, noise: NoiseModel, seed: int = 0) -> list[WeatherDay]:
    """Read a daily weather log and populate forecast channels.

    Rows must be chronologically increasing and satisfy the WeatherDay
    invariants; violations raise ValueError naming the offending row.  The
    result drops the final row as a standalone day: with n input rows you
    get n - 1 usable records (the last row only feeds the preceding day's
    forecast and final transition).  Forecasts carry noise; ForecastNoise()
    makes them equal the following row's actuals, and a function of the
    mean ET is scaled by the usable records'.
    """
    days: list[WeatherDay] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return []
        if tuple(h.strip() for h in header) != CSV_COLUMNS:
            raise ValueError(
                f"{path}: header must be {','.join(CSV_COLUMNS)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"{path}:{lineno}: expected {len(CSV_COLUMNS)} columns")
            try:
                date = dt.date.fromisoformat(row[0].strip())
                vals = [float(c) for c in row[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            try:
                day = WeatherDay(date, *vals)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if days and day.date <= days[-1].date:
                raise ValueError(f"{path}:{lineno}: dates must strictly increase")
            days.append(day)
    if not days:
        return []
    if callable(noise):
        usable = days[:-1]
        noise = noise(float(np.mean([d.et for d in usable])) if usable else 0.0)
    rng = np.random.default_rng(seed)
    with_fc = attach_forecasts(days, noise, rng)
    return with_fc[:-1]
