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

from dataclasses import dataclass
from functools import cached_property

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

    model may be a single PredictorModel (shared by all regions) or one per
    region; it is the shield's own fitted model, distinct from the
    simulator's ground-truth dynamics.  cap, when given, saturates the
    shield's predictions the same way the simulator saturates true storage.
    a_max, when given, caps the corrected dose on a takeover, since the
    valves cannot apply more.
    """

    model: PredictorModel | tuple[PredictorModel, ...] | None
    v_mad: float
    detector_threshold: float = 0.0
    enabled: bool = True
    cap: float | None = None
    a_max: float | None = None

    def __post_init__(self) -> None:
        if self.detector_threshold < 0:
            raise ValueError("detector_threshold must be nonnegative")
        if self.v_mad < 0:
            raise ValueError("v_mad must be nonnegative")
        if self.a_max is not None and self.a_max < 0:
            raise ValueError("a_max must be nonnegative")

    def models_for(self, n_regions: int) -> tuple[PredictorModel, ...]:
        if self.model is None:
            raise ValueError("shield model is unfitted; provide a PredictorModel")
        if isinstance(self.model, PredictorModel):
            return (self.model,) * n_regions
        models = tuple(self.model)
        if len(models) != n_regions:
            raise ValueError(
                f"shield has {len(models)} models for {n_regions} regions"
            )
        return models

    def coefficients(self, n_regions: int) -> np.ndarray:
        """Rows c1, c2, c3, b of the models for n_regions regions: one
        column per region, or a single column a shared model broadcasts."""
        self.models_for(n_regions)
        return self._coefficient_table

    @cached_property
    def _coefficient_table(self) -> np.ndarray:
        models = ((self.model,) if isinstance(self.model, PredictorModel)
                  else tuple(self.model))
        table = coefficient_table(models)
        table.flags.writeable = False
        return table


@dataclass(frozen=True)
class ShieldReport:
    """What the screen saw and did for one control cycle."""

    predicted_v_next: np.ndarray
    deficit_sum: float
    triggered: bool
    substituted_action: np.ndarray | None


# Bounds the rounding fix-up in _least_safe_action; a cap below v_mad would
# otherwise make an uncapped dose climb forever.
_MAX_ULP_STEPS = 8


def _predict(config: ShieldConfig, obs: np.ndarray, coef: np.ndarray,
             action: np.ndarray) -> np.ndarray:
    """The shield's next-day prediction for every region, from the forecast
    columns of an observation row; bit for bit predict_next's."""
    return predict_next_array(coef, soil_water(obs), action,
                              channel(obs, OBS_FORECAST_PRECIP_NEXT),
                              channel(obs, OBS_PREDICTED_ET_NEXT), cap=config.cap)


def predicted_deficit(config: ShieldConfig, obs: np.ndarray,
                      action: np.ndarray) -> tuple[np.ndarray, float]:
    """Next-day per-region predictions under an action, and the aggregate
    stress deficit those predictions imply."""
    a = np.asarray(action, dtype=float).reshape(-1)
    v_hat = _predict(config, obs, config.coefficients(len(a)), a)
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
    coef = config.coefficients(len(a))
    c1, c2, c3, b = coef
    with np.errstate(divide="ignore", invalid="ignore"):
        a_star = (config.v_mad - c1 * soil_water(obs)
                  - c2 * channel(obs, OBS_FORECAST_PRECIP_NEXT)
                  - c3 * channel(obs, OBS_PREDICTED_ET_NEXT) - b) / c2
    raised = (a_star > a) & (c2 > 0)
    if not np.count_nonzero(raised):
        return a
    a_hi = np.inf if config.a_max is None else config.a_max
    a = np.where(raised, np.minimum(a_star, a_hi), a)
    for _ in range(_MAX_ULP_STEPS):
        raised &= (a < a_hi) & (_predict(config, obs, coef, a) < config.v_mad)
        if not np.count_nonzero(raised):
            break
        step = np.spacing(config.v_mad) / c2
        a = np.where(raised, np.minimum(a + step, a_hi), a)
    return a


def screen(config: ShieldConfig, obs: np.ndarray, proposed: np.ndarray,
           fallback) -> tuple[np.ndarray, ShieldReport]:
    """Screen a proposed action for the day of observation row obs; on a
    trigger, execute a certified one.

    fallback is any controller object whose decide(obs) returns a decision
    with an ``action`` attribute.  On a trigger each region gets the larger
    of the fallback's dose and the least dose the shield predicts safe
    (capped at a_max); that corrected action is both executed and reported
    as substituted_action.  With the shield disabled the proposal always
    passes through, but the report still records the counterfactual deficit
    so ablation runs can count would-have-triggered days.
    """
    proposed = np.asarray(proposed, dtype=float).reshape(-1)
    v_hat, deficit = predicted_deficit(config, obs, proposed)
    would_trigger = deficit > config.detector_threshold
    if config.enabled and would_trigger:
        substituted = _least_safe_action(config, obs,
                                         fallback.decide(obs).action)
        return substituted.copy(), ShieldReport(
            predicted_v_next=v_hat, deficit_sum=deficit, triggered=True,
            substituted_action=substituted)
    return proposed.copy(), ShieldReport(
        predicted_v_next=v_hat, deficit_sum=deficit, triggered=False,
        substituted_action=None)
