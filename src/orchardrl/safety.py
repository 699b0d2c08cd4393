"""Predictor-based action screening (the safe-irrigation mechanism).

Before an agent action executes, the shield predicts each region's next-day
soil water under that action using its own learned water-balance model.  It
reads no observation row: it takes the soil water, the day's next-day
forecast (forecast precipitation and predicted ET) and the fallback's
doses, so it does not depend on the observation layout.  If the aggregate
predicted stress deficit is positive, the shield takes over for this cycle
only; the agent resumes control next cycle.  On a takeover the fallback
dose is the starting point, and every region the shield still predicts
below v_mad under it is raised to the least dose that the same model
predicts reaches v_mad, capped at a_max.  So the shield never executes an
action it predicts unsafe unless even a_max falls short.  This is the
minimal correction of Dalal et al. 2018 for one linear constraint per
region.

The detector aggregates per-region positive parts,
sum_i max(0, v_mad - v_hat_i), so a well-watered region can never mask
another region's predicted deficit.

Every function here takes k soil rows with one proposal each and screens
them at once under the day's forecast; the arithmetic is elementwise per
row, so a row's result is bit for bit that of screening it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .predictor import PredictorModel, coefficient_table, predict_next_array


@dataclass(frozen=True)
class ShieldConfig:
    """Shield settings: learned dynamics, stress level and dose cap.

    model holds one PredictorModel per region: the shield's own fitted
    models, distinct from the simulator's ground-truth dynamics.  cap
    saturates the shield's predictions the same way the simulator saturates
    true storage; a_max caps the corrected dose on a takeover, since the
    valves cannot apply more.  coef is the models' coefficient table, built
    once here, and gain its irrigation row c2 with 1.0 where c2 <= 0 (a
    region irrigation cannot reach), the divisor that solves for a dose.
    Whether a screened controller may be overridden is the caller's choice
    (screen_rows' enabled), not the shield's.
    """

    model: tuple[PredictorModel, ...]
    v_mad: float
    cap: float
    a_max: float
    coef: np.ndarray = field(init=False, repr=False, compare=False)
    gain: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.model:
            raise ValueError("shield needs one fitted PredictorModel per region")
        if self.v_mad < 0:
            raise ValueError("v_mad must be nonnegative")
        if self.a_max < 0:
            raise ValueError("a_max must be nonnegative")
        coef = coefficient_table(self.model)
        gain = np.where(coef[1] > 0, coef[1], 1.0)
        coef.flags.writeable = gain.flags.writeable = False
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "gain", gain)


# Bounds the rounding fix-up in _least_safe_action; a cap below v_mad would
# otherwise make an uncapped dose climb forever.
_MAX_ULP_STEPS = 8


def predicted_deficit(config: ShieldConfig, v: np.ndarray, action: np.ndarray,
                      precip_next, et_next) -> tuple[np.ndarray, np.ndarray]:
    """Next-day per-region predictions under actions, and the aggregate
    stress deficit those predictions imply: (k, n) and (k,) for k soil rows
    with one action each, (n,) and a scalar for one row.  precip_next and
    et_next are the day's forecast; each prediction is predict_next's, bit
    for bit."""
    a = np.asarray(action, dtype=float)
    if a.shape[-1] != len(config.model):
        raise ValueError(f"action has {a.shape[-1]} regions; the shield has "
                         f"{len(config.model)} models")
    v_hat = predict_next_array(config.coef, v, a, precip_next, et_next,
                               cap=config.cap)
    return v_hat, np.maximum(0.0, config.v_mad - v_hat).sum(axis=-1)


def _least_safe_action(config: ShieldConfig, v: np.ndarray, base: np.ndarray,
                       precip_next: float, et_next: float,
                       selected: np.ndarray) -> np.ndarray:
    """Raise each region of the rows the (k,) mask selected picks that the
    shield predicts below v_mad under base to the least dose it predicts
    reaches v_mad, capped at config.a_max; every other entry keeps base.  v
    is (k, n), base broadcasts against it, and the forecast is the day's.

    Solving the affine model gives a*_i = (v_mad - c1 v_i - c2 p - c3 e - b)
    / c2, and a region is raised when a*_i exceeds its base dose.  Rounding
    can leave the prediction at a* an ulp or two short, so a raised region
    steps up by one ulp of v_mad in dose units (a few steps at most) until
    the model certifies it.  Regions the model says irrigation cannot reach
    (c2 <= 0) keep the base dose; they divide by config.gain's 1.0 instead,
    so no division by zero happens.
    """
    c1, c2, c3, b = config.coef
    a_star = (config.v_mad - c1 * v - c2 * precip_next - c3 * et_next
              - b) / config.gain
    raised = (a_star > base) & (c2 > 0) & selected[:, None]
    if not np.count_nonzero(raised):
        return base
    a = np.where(raised, np.minimum(a_star, config.a_max), base)
    for _ in range(_MAX_ULP_STEPS):
        v_hat = predict_next_array(config.coef, v, a, precip_next, et_next,
                                   cap=config.cap)
        raised &= (a < config.a_max) & (v_hat < config.v_mad)
        if not np.count_nonzero(raised):
            break
        step = np.spacing(config.v_mad) / config.gain
        a = np.where(raised, np.minimum(a + step, config.a_max), a)
    return a


def screen_rows(config: ShieldConfig, v: np.ndarray, proposed: np.ndarray,
                precip_next: float, et_next: float, fallback,
                enabled) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Screen k proposed actions, one per row of the (k, n_regions) soil
    water v; on a trigger, execute a certified action instead.

    proposed is (k, n_regions).  precip_next and et_next are the day's
    next-day forecast, shared by every row.  fallback holds the fallback
    controller's doses: one dose for every row and region, an (n_regions,)
    row of them for every row, or a (k, n_regions) block with one row per
    screened row.  enabled is one bool or a (k,) mask saying which rows the
    shield may override.  Returns the (k, n_regions) actions to execute, the
    (k,) predicted deficits of the proposals and the (k,) trigger mask.  An
    enabled row triggers when its deficit is positive; it then gets, region
    by region, the larger of the fallback dose and the least dose the shield
    predicts safe (capped at a_max).  A disabled row's proposal always
    passes through, but its deficit is still returned, so ablation runs can
    count would-have-triggered days.
    """
    actions = np.asarray(proposed, dtype=float)
    _, deficits = predicted_deficit(config, v, actions, precip_next, et_next)
    triggered = np.asarray(enabled) & (deficits > 0.0)
    if np.count_nonzero(triggered):
        safe = _least_safe_action(config, v, np.asarray(fallback, dtype=float),
                                  precip_next, et_next, triggered)
        actions = np.where(triggered[:, None], safe, actions)
    else:
        actions = actions.copy()
    return actions, deficits, triggered
