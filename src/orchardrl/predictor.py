"""Linear root-zone water-balance model and its system identification.

The daily balance is affine in the current storage, the applied water, and
the evaporative loss:

    v_next = c1 * v + c2 * (a + p) + c3 * e + b

with v the root-zone water depth (inches), a irrigation, p precipitation,
e reference ET.  Instances of the same model class serve two distinct roles:
ground-truth dynamics inside the simulator (one instance per region) and the
learned predictor the safety shield screens actions with.  Identification is
ordinary least squares on logged observation rows.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace

import numpy as np

# Regressor names in design-matrix column order, used in error messages.
_REGRESSOR_NAMES = ("soil_water", "irrigation + precip", "et")


@dataclass(frozen=True)
class PredictorModel:
    """Coefficients of the affine water-balance map, with fit diagnostics.

    Physical plausibility expects 0 < c1 <= 1 (storage persists but does not
    self-amplify), c2 >= 0 (applied water cannot remove water) and c3 <= 0
    (ET cannot add water).  ``fit`` warns, not errors, when a fit lands
    outside those bounds.
    """

    c1: float
    c2: float
    c3: float
    b: float
    r_squared: float | None = None
    nrmse: float | None = None

    def __post_init__(self) -> None:
        if self.r_squared is not None and self.r_squared > 1.0 + 1e-12:
            raise ValueError("r_squared cannot exceed 1")

    def is_plausible(self) -> bool:
        return 0.0 < self.c1 <= 1.0 and self.c2 >= 0.0 and self.c3 <= 0.0


@dataclass(frozen=True)
class ObservationRow:
    """One logged day: state, inputs, and the observed next-day state."""

    soil_water: float
    irrigation: float
    precip: float
    et: float
    soil_water_next: float

    def __post_init__(self) -> None:
        for name in ("soil_water", "irrigation", "precip", "et",
                     "soil_water_next"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


# Reference fits identified from the two instrumented trees of the orchard
# testbed; used as presets for identification tests and fidelity runs.
TREE1_MODEL = PredictorModel(c1=0.973, c2=0.288, c3=-0.103, b=0.003,
                             r_squared=0.982, nrmse=0.062)
TREE2_MODEL = PredictorModel(c1=0.937, c2=0.325, c3=-0.121, b=0.013,
                             r_squared=0.985, nrmse=0.071)


def predict_next(model: PredictorModel, v: float, irrigation: float,
                 precip: float, et: float, cap: float | None = None) -> float:
    """One-step prediction, floored at 0 and optionally capped.

    The linear map is unbounded above but a real root zone is not; the
    simulator passes its saturation cap (field capacity plus surplus
    headroom) while diagnostics and fitting leave predictions uncapped.
    """
    v = model.c1 * v + model.c2 * (irrigation + precip) + model.c3 * et + model.b
    v = max(0.0, v)
    if cap is not None:
        v = min(cap, v)
    return v


def coefficient_table(models) -> np.ndarray:
    """Rows c1, c2, c3, b of a sequence of models, one column per model."""
    return np.array([(m.c1, m.c2, m.c3, m.b) for m in models]).T


def predict_next_array(coef: np.ndarray, v, irrigation, precip, et,
                       cap: float | None = None) -> np.ndarray:
    """predict_next over arrays: coef is a coefficient_table, whose columns
    line up with the last axis of v and irrigation, and every argument
    broadcasts over leading axes.

    The arithmetic is predict_next's, term for term, so each element agrees
    with it bit for bit.
    """
    c1, c2, c3, b = coef
    out = np.maximum(c1 * v + c2 * (irrigation + precip) + c3 * et + b, 0.0)
    if cap is not None:
        out = np.minimum(out, cap)
    return out


def diagnostics(model: PredictorModel,
                rows: list[ObservationRow]) -> tuple[float, float]:
    """Goodness of fit on a set of observation rows.

    Returns (r_squared, nrmse) with R^2 = 1 - SS_res/SS_tot and NRMSE the
    root-mean-square error normalized by the observed range of v_next.
    """
    if not rows:
        raise ValueError("rows must be non-empty")
    y = np.array([r.soil_water_next for r in rows])
    span = float(y.max() - y.min())
    if span == 0.0:
        raise ValueError("soil_water_next is constant; R^2 and NRMSE are undefined")
    pred = np.array([predict_next(model, r.soil_water, r.irrigation,
                                  r.precip, r.et) for r in rows])
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot
    nrmse = float(np.sqrt(ss_res / len(rows))) / span
    return r_squared, nrmse


MIN_FIT_ROWS = 8


def fit(rows: list[ObservationRow]) -> PredictorModel:
    """Identify the water-balance coefficients by ordinary least squares.

    Requires at least ``MIN_FIT_ROWS`` rows and a full-rank design matrix;
    a constant regressor column is reported by name.  Diagnostics are
    computed on the fitting set and embedded in the returned model.
    Implausible coefficient signs produce a warning, not an error.
    """
    if len(rows) < MIN_FIT_ROWS:
        raise ValueError(
            f"need at least {MIN_FIT_ROWS} observation rows, got {len(rows)}"
        )
    X = np.array([[r.soil_water, r.irrigation + r.precip, r.et, 1.0]
                  for r in rows])
    y = np.array([r.soil_water_next for r in rows])
    for j, name in enumerate(_REGRESSOR_NAMES):
        if np.ptp(X[:, j]) == 0.0:
            raise ValueError(
                f"regressor column '{name}' is constant; coefficients are not identifiable"
            )
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise ValueError("design matrix is rank-deficient (collinear regressors)")
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    model = PredictorModel(c1=float(coef[0]), c2=float(coef[1]),
                           c3=float(coef[2]), b=float(coef[3]))
    if not model.is_plausible():
        warnings.warn(
            "fitted coefficients are physically implausible "
            f"(c1={model.c1:.4f}, c2={model.c2:.4f}, c3={model.c3:.4f}); "
            "check the observation log",
            stacklevel=2,
        )
    r_squared, nrmse = diagnostics(model, rows)
    return replace(model, r_squared=r_squared, nrmse=nrmse)


OBSERVATION_COLUMNS = ("soil_water", "irrigation", "precip", "et",
                       "soil_water_next")


def write_observations_csv(path, rows: list[ObservationRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OBSERVATION_COLUMNS)
        for r in rows:
            writer.writerow([repr(r.soil_water), repr(r.irrigation),
                             repr(r.precip), repr(r.et),
                             repr(r.soil_water_next)])


def load_observations_csv(path) -> list[ObservationRow]:
    rows: list[ObservationRow] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return []
        if tuple(h.strip() for h in header) != OBSERVATION_COLUMNS:
            raise ValueError(f"{path}: header must be {','.join(OBSERVATION_COLUMNS)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(OBSERVATION_COLUMNS):
                raise ValueError(f"{path}:{lineno}: expected {len(OBSERVATION_COLUMNS)} columns")
            try:
                rows.append(ObservationRow(*[float(c) for c in row]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return rows
