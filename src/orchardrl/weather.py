"""Daily weather records for the irrigation simulator.

Records come either from a CSV log or from a parameterized synthetic season
generator.  Each record carries the completed day's observations plus two
forecast channels for the following day (predicted reference ET and forecast
precipitation) that the control state and the safety shield consume.  A run
of records is one WeatherTable: its dates and one column per channel, which
the environment reads as they are; WeatherDay is the table's row.

Unit conventions: temperatures are stored in degrees Fahrenheit;
``hargreaves_et`` works in Celsius.  ``fahrenheit_to_celsius`` owns the
boundary.  Water depths are inches, solar radiation Langley/day, wind mph.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

CSV_COLUMNS = (
    "date", "et", "precip", "t_max", "t_avg", "t_min",
    "h_max", "h_avg", "h_min", "solar", "wind",
)
# A WeatherTable's columns: the observed channels in CSV order, then the two
# next-day forecast channels.
CHANNELS = CSV_COLUMNS[1:] + ("predicted_et_next", "forecast_precip_next")
N_OBSERVED = len(CSV_COLUMNS) - 1

_HUMIDITY = ("h_max", "h_avg", "h_min")
_NONNEGATIVE = ("et", "precip", "predicted_et_next", "forecast_precip_next")


def fahrenheit_to_celsius(t_f: float) -> float:
    return (t_f - 32.0) * 5.0 / 9.0


def _first_violation(dates: np.ndarray, values: np.ndarray) -> tuple[int, str] | None:
    """The first row of (N, len(CHANNELS)) values that breaks a record
    invariant, with a message naming its date; None when every row holds.

    A row's checks run in order: every channel finite (no NaN or inf),
    t_min <= t_avg <= t_max, each humidity in [0, 100], then the
    nonnegative channels.
    """
    col = {name: values[:, i] for i, name in enumerate(CHANNELS)}
    bad = np.concatenate([
        ~np.isfinite(values).T,
        [~((col["t_min"] <= col["t_avg"]) & (col["t_avg"] <= col["t_max"]))],
        [~((col[h] >= 0.0) & (col[h] <= 100.0)) for h in _HUMIDITY],
        [col[x] < 0.0 for x in _NONNEGATIVE]])
    rows = bad.any(axis=0)
    if not rows.any():
        return None
    i = int(rows.argmax())
    # the finite checks, one per channel, come first: they index from the end
    check = int(bad[:, i].argmax()) - len(CHANNELS)
    if check < 0:
        why = f"{CHANNELS[check]}={float(values[i, check])} is not finite"
    elif check == 0:
        why = "temperatures must satisfy t_min <= t_avg <= t_max"
    elif check <= len(_HUMIDITY):
        name = _HUMIDITY[check - 1]
        why = f"{name}={float(col[name][i])} outside [0, 100]"
    else:
        why = f"{_NONNEGATIVE[check - 1 - len(_HUMIDITY)]} must be nonnegative"
    return i, f"{dates[i]}: {why}"


@dataclass(frozen=True)
class WeatherDay:
    """One completed day of weather plus next-day forecast channels: a
    record, and the row type of a WeatherTable."""

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
        bad = _first_violation([self.date], np.array([self.channels]))
        if bad is not None:
            raise ValueError(bad[1])

    @property
    def numeric_channels(self) -> tuple[float, ...]:
        """The ten observed channels, in CSV column order (sans date)."""
        return (self.et, self.precip, self.t_max, self.t_avg, self.t_min,
                self.h_max, self.h_avg, self.h_min, self.solar, self.wind)

    @property
    def channels(self) -> tuple[float, ...]:
        """Every channel, in CHANNELS order."""
        return (*self.numeric_channels, self.predicted_et_next,
                self.forecast_precip_next)


@dataclass(frozen=True, eq=False)
class WeatherTable:
    """A run of daily records as columns: dates (datetime64[D]) and an
    (N, len(CHANNELS)) float array, one column per channel.

    Construction checks every row against the record invariants and names
    the first offending date.  Indexing a row or iterating yields WeatherDay
    records of Python floats; a slice is a table over views of the columns.
    """

    dates: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        dates = np.asarray(self.dates, dtype="datetime64[D]")
        values = np.asarray(self.values, dtype=float)
        if dates.ndim != 1 or values.shape != (len(dates), len(CHANNELS)):
            raise ValueError(f"need N dates and (N, {len(CHANNELS)}) values, "
                             f"got {dates.shape} and {values.shape}")
        bad = _first_violation(dates, values)
        if bad is not None:
            raise ValueError(bad[1])
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", values)

    @classmethod
    def concatenate(cls, tables: Iterable["WeatherTable"]) -> "WeatherTable":
        tables = list(tables)
        return cls(np.concatenate([t.dates for t in tables]),
                   np.concatenate([t.values for t in tables]))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return WeatherTable(self.dates[i], self.values[i])
        return WeatherDay(self.dates[i].item(), *self.values[i].tolist())

    def __iter__(self) -> Iterator[WeatherDay]:
        for date, row in zip(self.dates.tolist(), self.values.tolist()):
            yield WeatherDay(date, *row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeatherTable):
            return NotImplemented
        return (np.array_equal(self.dates, other.dates)
                and np.array_equal(self.values, other.values))


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

    def seasonal_phase(self, dates) -> np.ndarray:
        """0..1 position within the nominal growing season (clipped), of a
        date or elementwise of an array of dates."""
        d = np.asarray(dates, dtype="datetime64[D]")
        march_1 = (d.astype("datetime64[Y]").astype("datetime64[M]") + 2
                   ).astype("datetime64[D]")
        offset = (d - march_1).astype(int)
        return np.minimum(1.0, np.maximum(0.0, offset / self.season_span_days))


def _draw_season(n: int, month_index: np.ndarray, climate: ClimateParams,
                 rng: np.random.Generator):
    """The random draws of n days, taken one day at a time in this order:
    three normal deviates, the rain draw, the rain amount on a wet day,
    then six normal deviates.  Returns the (n, 9) deviates, each day's
    three then six, the wet mask and the raw rain amounts (0 on dry days).

    Nothing is drawn between one day's six deviates and the next day's
    three, and normal deviates are drawn one after another from the
    stream, so those nine come from one call.
    """
    normals = np.empty((n, 9))
    flat = normals.reshape(-1)
    wet = np.zeros(n, dtype=bool)
    amount = np.zeros(n)
    standard_normal, uniform, gamma = rng.standard_normal, rng.random, rng.gamma
    shape, scale = climate.precip_shape, climate.precip_scale
    p_wet = np.array(climate.precip_event_prob)[month_index].tolist()
    standard_normal(out=flat[:3])
    last = n - 1
    for i, p in enumerate(p_wet):
        if uniform() < p:
            wet[i] = True
            amount[i] = gamma(shape, scale)
        lo = 9 * i + 3
        standard_normal(out=flat[lo:lo + 9 if i < last else lo + 6])
    return normals, wet, amount


def _observed_channels(dates: np.ndarray, climate: ClimateParams,
                       rng: np.random.Generator) -> np.ndarray:
    """The (n, N_OBSERVED) observed channels of a season's days.

    The draws come day by day (_draw_season), the stream that one draw per
    value takes.  Each value is then formed elementwise over the season by
    the floating-point operations, in the order, of a day-at-a-time scalar
    generator that forms a draw the way numpy does (loc + scale*z, and
    exp(mean + sigma*z) for the lognormal).  Only sin and exp go through
    the math module, per day, so no vectorized libm rounding enters the
    records.
    """
    month_index = dates.astype("datetime64[M]").astype(int) % 12
    normals, wet, amount = _draw_season(len(dates), month_index, climate, rng)
    z_t, z_hi, z_lo, z_et, z_h, z_hmax, z_hmin, z_solar, z_wind = normals.T

    angle = math.pi * climate.seasonal_phase(dates)
    seasonal = np.array([math.sin(x) for x in angle.tolist()])
    t_avg = climate.t_base_f + climate.t_amp_f * seasonal + climate.t_jitter_f * z_t
    half_spread = 0.5 * climate.t_spread_f
    t_max = t_avg + half_spread + np.abs(2.0 * z_hi)
    t_min = t_avg - half_spread - np.abs(2.0 * z_lo)
    precip = np.where(
        wet, np.minimum(np.maximum(amount, 0.02), climate.precip_cap), 0.0)

    # hargreaves_et with the day's radiation, elementwise
    ra = climate.ra_base + climate.ra_amp * seasonal
    p = climate.et_params
    et = p.gamma_c * ra * math.sqrt(p.td) * np.maximum(
        0.0, fahrenheit_to_celsius(t_avg) + 17.8)
    et *= 1.0 + climate.et_rel_noise * z_et
    et[wet] *= climate.wet_day_et_factor
    et = np.maximum(climate.et_floor, et)

    h_avg = np.minimum(np.maximum(80.0 - 0.55 * (t_avg - 55.0) + 6.0 * z_h, 20.0), 92.0)
    h_max = np.minimum(np.maximum(h_avg + 10.0 + np.abs(4.0 * z_hmax), h_avg), 100.0)
    h_min = np.minimum(np.maximum(h_avg - 14.0 - np.abs(4.0 * z_hmin), 2.0), h_avg)
    solar = np.maximum(360.0 + 290.0 * seasonal + 35.0 * z_solar, 60.0)
    log_wind = math.log(2.8) + 0.45 * z_wind
    wind = np.minimum(np.maximum(
        np.array([math.exp(x) for x in log_wind.tolist()]), 0.3), 18.0)
    return np.column_stack(
        (et, precip, t_max, t_avg, t_min, h_max, h_avg, h_min, solar, wind))


def _forecast_columns(et: np.ndarray, precip: np.ndarray, noise: ForecastNoise,
                      rng: np.random.Generator) -> np.ndarray:
    """(N, 2): each record's forecast channels, drawn from the following
    record's actuals in order; the final record keeps zero forecasts."""
    out = np.zeros((len(et), 2))
    if len(et) > 1:
        out[:-1] = [synthesize_forecast(e, p, noise, rng)
                    for e, p in zip(et[1:].tolist(), precip[1:].tolist())]
    return out


def attach_forecasts(table: WeatherTable, noise: ForecastNoise,
                     rng: np.random.Generator) -> WeatherTable:
    """The table with each record's forecast channels drawn from the
    following record.

    The final record keeps zero forecasts (it has no following day); callers
    that need n control days should supply n + 1 records.
    """
    values = table.values.copy()
    values[:, N_OBSERVED:] = _forecast_columns(values[:, 0], values[:, 1],
                                               noise, rng)
    return WeatherTable(table.dates, values)


# A forecast error model, or a function that scales one to a season's mean ET.
NoiseModel = ForecastNoise | Callable[[float], ForecastNoise]


def synthesize_season(seed: int, days: int, climate: ClimateParams | None = None,
                      noise: NoiseModel = default_forecast_noise) -> WeatherTable:
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
    dates = np.datetime64(climate.start, "D") + np.arange(days)
    observed = _observed_channels(dates, climate, rng)
    if callable(noise):
        noise = noise(float(np.mean(observed[:, 0])))
    forecasts = _forecast_columns(observed[:, 0], observed[:, 1], noise, rng)
    return WeatherTable(dates, np.hstack([observed, forecasts]))


def write_weather_csv(path, table: WeatherTable) -> None:
    """Store observed channels (forecasts are derived, not stored)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for date, row in zip(table.dates.tolist(),
                             table.values[:, :N_OBSERVED].tolist()):
            writer.writerow([date.isoformat()] + [repr(x) for x in row])


def load_weather_csv(path, noise: NoiseModel, seed: int = 0) -> WeatherTable:
    """Read a daily weather log and populate forecast channels.

    Rows must be chronologically increasing and satisfy the WeatherDay
    invariants; violations raise ValueError naming the offending row (the
    first one, whatever it breaks).  The result drops the final row as a
    standalone day: with n input rows you get n - 1 usable records (the
    last row only feeds the preceding day's forecast and final transition).
    Forecasts carry noise; ForecastNoise() makes them equal the following
    row's actuals, and a function of the mean ET is scaled by the usable
    records'.
    """
    dates = []
    rows: list[list[float]] = []
    linenos: list[int] = []
    unreadable = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is not None and tuple(h.strip() for h in header) != CSV_COLUMNS:
            raise ValueError(
                f"{path}: header must be {','.join(CSV_COLUMNS)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                if len(row) != len(CSV_COLUMNS):
                    raise ValueError(f"expected {len(CSV_COLUMNS)} columns")
                dates.append(dt.date.fromisoformat(row[0].strip()))
                rows.append([float(c) for c in row[1:]])
            except ValueError as exc:
                # reported after any invalid row above it
                unreadable = ValueError(f"{path}:{lineno}: {exc}")
                del dates[len(rows):]
                break
            linenos.append(lineno)
    values = np.zeros((len(rows), len(CHANNELS)))
    values[:, :N_OBSERVED] = np.array(rows).reshape(len(rows), N_OBSERVED)
    dates = np.array(dates, dtype="datetime64[D]")
    invalid = _first_violation(dates, values)
    unordered = np.flatnonzero(dates[1:] <= dates[:-1])
    if invalid is not None and (not unordered.size or invalid[0] <= unordered[0] + 1):
        raise ValueError(f"{path}:{linenos[invalid[0]]}: {invalid[1]}")
    if unordered.size:
        raise ValueError(f"{path}:{linenos[unordered[0] + 1]}: "
                         "dates must strictly increase")
    if unreadable is not None:
        raise unreadable
    if callable(noise):
        usable = values[:-1, 0]
        noise = noise(float(np.mean(usable)) if usable.size else 0.0)
    rng = np.random.default_rng(seed)
    return attach_forecasts(WeatherTable(dates, values), noise, rng)[:-1]
