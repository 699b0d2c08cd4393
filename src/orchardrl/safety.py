"""Predictor-based action screening (the safe-irrigation mechanism).

Before an agent action executes, the shield predicts each region's next-day
soil water under that action using its own learned water-balance model.  It
reads the environment's observation row: the soil-water columns and the two
forecast columns (predicted_et_next, forecast_precip_next).  If the
aggregate predicted stress deficit exceeds the detector threshold, the
shield takes over for this cycle only; the agent resumes control next
cycle.  On a takeover the fallback controller's action is the starting
point, and every region the shield still predicts below v_mad under it is
raised to the least dose that the same model predicts reaches v_mad,
capped at a_max.  So the shield never
executes an action it predicts unsafe unless even a_max falls short.  This
is the minimal correction of Dalal et al. 2018 for one linear constraint
per region.

The detector aggregates per-region positive parts,
sum_i max(0, v_mad - v_hat_i), so a well-watered region can never mask
another region's predicted deficit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .env import (
    OBS_FORECAST_PRECIP_NEXT,
    OBS_PREDICTED_ET_NEXT,
    channel,
    soil_water,
)
from .predictor import PredictorModel, coefficient_table, predict_next_array


@dataclass(frozen=True)
class ShieldConfig:
    """Shield settings: learned dynamics, stress level, detector tuning.

    model holds one PredictorModel per region: the shield's own fitted
    models, distinct from the simulator's ground-truth dynamics.  cap
    saturates the shield's predictions the same way the simulator saturates
    true storage; a_max caps the corrected dose on a takeover, since the
    valves cannot apply more.  coef is the models' coefficient table, built
    once here.
    """

    model: tuple[PredictorModel, ...]
    v_mad: float
    cap: float
    a_max: float
    detector_threshold: float = 0.0
    enabled: bool = True
    coef: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.model:
            raise ValueError("shield needs one fitted PredictorModel per region")
        if self.detector_threshold < 0:
            raise ValueError("detector_threshold must be nonnegative")
        if self.v_mad < 0:
            raise ValueError("v_mad must be nonnegative")
        if self.a_max < 0:
            raise ValueError("a_max must be nonnegative")
        coef = coefficient_table(self.model)
        coef.flags.writeable = False
        object.__setattr__(self, "coef", coef)


@dataclass(frozen=True)
class ShieldReport:
    """What the screen saw and did for one control cycle."""

    predicted_v_next: np.ndarray
    deficit_sum: float
    triggered: bool


# Bounds the rounding fix-up in _least_safe_action; a cap below v_mad would
# otherwise make an uncapped dose climb forever.
_MAX_ULP_STEPS = 8


def _predict(config: ShieldConfig, obs: np.ndarray,
             action: np.ndarray) -> np.ndarray:
    """The shield's next-day prediction for every region, from the forecast
    columns of an observation row; bit for bit predict_next's."""
    return predict_next_array(config.coef, soil_water(obs), action,
                              channel(obs, OBS_FORECAST_PRECIP_NEXT),
                              channel(obs, OBS_PREDICTED_ET_NEXT), cap=config.cap)


def predicted_deficit(config: ShieldConfig, obs: np.ndarray,
                      action: np.ndarray) -> tuple[np.ndarray, float]:
    """Next-day per-region predictions under an action, and the aggregate
    stress deficit those predictions imply."""
    a = np.asarray(action, dtype=float).reshape(-1)
    if len(a) != len(config.model):
        raise ValueError(f"action has {len(a)} regions; the shield has "
                         f"{len(config.model)} models")
    v_hat = _predict(config, obs, a)
    return v_hat, float(np.maximum(0.0, config.v_mad - v_hat).sum())


def _least_safe_action(config: ShieldConfig, obs: np.ndarray,
                       base: np.ndarray) -> np.ndarray:
    """Raise each region the shield predicts below v_mad under base to the
    least dose it predicts reaches v_mad, capped at config.a_max.

    Solving the affine model gives a*_i = (v_mad - c1 v_i - c2 p - c3 e - b)
    / c2, and a region is raised when a*_i exceeds its base dose.  Rounding
    can leave the prediction at a* an ulp or two short, so a raised region
    steps up by one ulp of v_mad in dose units (a few steps at most) until
    the model certifies it.  Regions the model says irrigation cannot reach
    (c2 <= 0) keep the base dose.
    """
    a = np.array(base, dtype=float).reshape(-1)
    c1, c2, c3, b = config.coef
    with np.errstate(divide="ignore", invalid="ignore"):
        a_star = (config.v_mad - c1 * soil_water(obs)
                  - c2 * channel(obs, OBS_FORECAST_PRECIP_NEXT)
                  - c3 * channel(obs, OBS_PREDICTED_ET_NEXT) - b) / c2
    raised = (a_star > a) & (c2 > 0)
    if not np.count_nonzero(raised):
        return a
    a = np.where(raised, np.minimum(a_star, config.a_max), a)
    for _ in range(_MAX_ULP_STEPS):
        raised &= (a < config.a_max) & (_predict(config, obs, a) < config.v_mad)
        if not np.count_nonzero(raised):
            break
        step = np.spacing(config.v_mad) / c2
        a = np.where(raised, np.minimum(a + step, config.a_max), a)
    return a


def screen(config: ShieldConfig, obs: np.ndarray, proposed: np.ndarray,
           fallback) -> tuple[np.ndarray, ShieldReport]:
    """Screen a proposed action for the day of observation row obs; on a
    trigger, execute a certified one.

    fallback is any controller object whose decide(obs) returns a decision
    with an ``action`` attribute.  On a trigger each region gets the larger
    of the fallback's dose and the least dose the shield predicts safe
    (capped at a_max), and that corrected action executes.  With the shield
    disabled the proposal always passes through, but the report still
    records the counterfactual deficit so ablation runs can count
    would-have-triggered days.
    """
    proposed = np.asarray(proposed, dtype=float).reshape(-1)
    v_hat, deficit = predicted_deficit(config, obs, proposed)
    would_trigger = deficit > config.detector_threshold
    if config.enabled and would_trigger:
        corrected = _least_safe_action(config, obs, fallback.decide(obs).action)
        return corrected, ShieldReport(
            predicted_v_next=v_hat, deficit_sum=deficit, triggered=True)
    return proposed.copy(), ShieldReport(
        predicted_v_next=v_hat, deficit_sum=deficit, triggered=False)
