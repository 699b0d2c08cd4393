"""Predictor-based action screening (the safe-irrigation mechanism).

Before an agent action executes, the shield predicts each region's next-day
soil water under that action using its own learned water-balance model.  It
reads the environment's observation row: the soil-water columns and the two
forecast columns (predicted_et_next, forecast_precip_next).  If the
aggregate predicted stress deficit is positive, the shield takes over for
this cycle only; the agent resumes control next cycle.  On a takeover the
fallback controller's action is the starting point, and every region the
shield still predicts below v_mad under it is raised to the least dose that
the same model predicts reaches v_mad, capped at a_max.  So the shield
never executes an action it predicts unsafe unless even a_max falls short.
This is the minimal correction of Dalal et al. 2018 for one linear
constraint per region.

The detector aggregates per-region positive parts,
sum_i max(0, v_mad - v_hat_i), so a well-watered region can never mask
another region's predicted deficit.

Every function here takes k observation rows with one proposal each and
screens them at once; the arithmetic is elementwise per row, so a row's
result is bit for bit that of screening it alone.
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
    """Shield settings: learned dynamics, stress level and dose cap.

    model holds one PredictorModel per region: the shield's own fitted
    models, distinct from the simulator's ground-truth dynamics.  cap
    saturates the shield's predictions the same way the simulator saturates
    true storage; a_max caps the corrected dose on a takeover, since the
    valves cannot apply more.  coef is the models' coefficient table, built
    once here.  Whether a screened controller may be overridden is the
    caller's choice (screen_rows' enabled), not the shield's.
    """

    model: tuple[PredictorModel, ...]
    v_mad: float
    cap: float
    a_max: float
    coef: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.model:
            raise ValueError("shield needs one fitted PredictorModel per region")
        if self.v_mad < 0:
            raise ValueError("v_mad must be nonnegative")
        if self.a_max < 0:
            raise ValueError("a_max must be nonnegative")
        coef = coefficient_table(self.model)
        coef.flags.writeable = False
        object.__setattr__(self, "coef", coef)


# Bounds the rounding fix-up in _least_safe_action; a cap below v_mad would
# otherwise make an uncapped dose climb forever.
_MAX_ULP_STEPS = 8


def _predict(config: ShieldConfig, obs: np.ndarray,
             action: np.ndarray) -> np.ndarray:
    """The shield's next-day prediction for every region of each observation
    row, from its forecast columns; bit for bit predict_next's."""
    return predict_next_array(config.coef, soil_water(obs), action,
                              channel(obs, OBS_FORECAST_PRECIP_NEXT)[..., None],
                              channel(obs, OBS_PREDICTED_ET_NEXT)[..., None],
                              cap=config.cap)


def predicted_deficit(config: ShieldConfig, obs: np.ndarray,
                      action: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Next-day per-region predictions under actions, and the aggregate
    stress deficit those predictions imply: (k, n) and (k,) for k
    observation rows with one action each, (n,) and a scalar for one row."""
    a = np.asarray(action, dtype=float)
    if a.shape[-1] != len(config.model):
        raise ValueError(f"action has {a.shape[-1]} regions; the shield has "
                         f"{len(config.model)} models")
    v_hat = _predict(config, obs, a)
    return v_hat, np.maximum(0.0, config.v_mad - v_hat).sum(axis=-1)


def _least_safe_action(config: ShieldConfig, obs: np.ndarray,
                       base: np.ndarray) -> np.ndarray:
    """Raise each region the shield predicts below v_mad under base to the
    least dose it predicts reaches v_mad, capped at config.a_max; obs holds
    one row per row of base.

    Solving the affine model gives a*_i = (v_mad - c1 v_i - c2 p - c3 e - b)
    / c2, and a region is raised when a*_i exceeds its base dose.  Rounding
    can leave the prediction at a* an ulp or two short, so a raised region
    steps up by one ulp of v_mad in dose units (a few steps at most) until
    the model certifies it.  Regions the model says irrigation cannot reach
    (c2 <= 0) keep the base dose.
    """
    a = np.array(base, dtype=float)
    c1, c2, c3, b = config.coef
    with np.errstate(divide="ignore", invalid="ignore"):
        a_star = (config.v_mad - c1 * soil_water(obs)
                  - c2 * channel(obs, OBS_FORECAST_PRECIP_NEXT)[..., None]
                  - c3 * channel(obs, OBS_PREDICTED_ET_NEXT)[..., None] - b) / c2
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


def screen_rows(config: ShieldConfig, obs: np.ndarray, proposed: np.ndarray,
                fallback, enabled) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Screen k proposed actions, one per observation row of the (k, obs_dim)
    obs; on a trigger, execute a certified action instead.

    proposed is (k, n_regions); enabled is one bool or a (k,) mask saying
    which rows the shield may override.  Returns the (k, n_regions)
    actions to execute, the (k,) predicted deficits of the proposals and
    the (k,) trigger mask.  An enabled row triggers when its deficit is
    positive; it then gets, region by region, the larger of the fallback's
    dose and the least dose the shield predicts safe (capped at a_max).
    fallback is any controller whose decide(obs) returns one row's depths;
    only triggered rows consult it.  A disabled row's proposal always passes
    through, but its deficit is still returned, so ablation runs can count
    would-have-triggered days.
    """
    actions = np.array(proposed, dtype=float)
    _, deficits = predicted_deficit(config, obs, actions)
    triggered = np.asarray(enabled) & (deficits > 0.0)
    if triggered.any():
        rows = obs[triggered]
        base = np.array([fallback.decide(row) for row in rows])
        actions[triggered] = _least_safe_action(config, rows, base)
    return actions, deficits, triggered
