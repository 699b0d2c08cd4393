"""Action screening: deficit detector, fallback substitution, soundness."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orchardrl.controllers import ConstantController, EtController
from orchardrl.env import EnvState, IrrigationEnv
from orchardrl.predictor import (
    TREE1_MODEL,
    TREE2_MODEL,
    PredictorModel,
    predict_next,
)
from orchardrl.safety import ShieldConfig, ShieldReport, predicted_deficit, screen
from orchardrl.weather import WeatherDay

from conftest import default_env_config

V_MAD = 4.726


def make_day(et=0.15, precip=0.0, et_next=0.15, precip_next=0.0,
             date=dt.date(2020, 7, 1)):
    return WeatherDay(date=date, et=et, precip=precip,
                      t_max=85.0, t_avg=70.0, t_min=55.0,
                      h_max=90.0, h_avg=60.0, h_min=30.0, solar=600.0,
                      wind=4.0, predicted_et_next=et_next,
                      forecast_precip_next=precip_next)


def make_state(v, **day_kw):
    w = make_day(**day_kw)
    return EnvState(v=np.asarray(v, dtype=float), weather_today=w,
                    month=w.date.month, day_in_episode=0)


def flat_season(n, et=0.15, precip=0.0, start=dt.date(2020, 3, 1)):
    """n records with per-day values and exact next-day forecasts."""
    et_seq = [et] * n if np.isscalar(et) else list(et)
    p_seq = [precip] * n if np.isscalar(precip) else list(precip)
    days = []
    for i in range(n):
        has_next = i + 1 < n
        days.append(WeatherDay(
            date=start + dt.timedelta(days=i),
            et=et_seq[i], precip=p_seq[i],
            t_max=75.0, t_avg=65.0, t_min=55.0,
            h_max=90.0, h_avg=70.0, h_min=50.0, solar=500.0, wind=3.0,
            predicted_et_next=et_seq[i + 1] if has_next else 0.0,
            forecast_precip_next=p_seq[i + 1] if has_next else 0.0))
    return days


class TestShieldConfig:
    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            ShieldConfig(model=TREE1_MODEL, v_mad=V_MAD,
                         detector_threshold=-0.1)

    def test_rejects_negative_stress_level(self):
        with pytest.raises(ValueError, match="v_mad"):
            ShieldConfig(model=TREE1_MODEL, v_mad=-1.0)

    def test_single_model_shared_across_regions(self):
        cfg = ShieldConfig(model=TREE1_MODEL, v_mad=V_MAD)
        assert cfg.models_for(3) == (TREE1_MODEL,) * 3

    def test_per_region_models(self):
        cfg = ShieldConfig(model=(TREE1_MODEL, TREE2_MODEL), v_mad=V_MAD)
        assert cfg.models_for(2) == (TREE1_MODEL, TREE2_MODEL)

    def test_model_count_mismatch(self):
        cfg = ShieldConfig(model=(TREE1_MODEL,), v_mad=V_MAD)
        with pytest.raises(ValueError, match="models for"):
            cfg.models_for(2)

    def test_unfitted_model_rejected_at_use(self):
        cfg = ShieldConfig(model=None, v_mad=V_MAD)
        with pytest.raises(ValueError, match="unfitted"):
            predicted_deficit(cfg, make_state([5.0]), np.array([0.0]))


class TestPredictedDeficit:
    def test_hand_example(self):
        cfg = ShieldConfig(model=TREE1_MODEL, v_mad=V_MAD)
        state = make_state([4.8], et_next=0.15, precip_next=0.0)
        v_hat, deficit = predicted_deficit(cfg, state, np.array([0.0]))
        assert v_hat[0] == pytest.approx(4.65795, abs=1e-9)
        assert deficit == pytest.approx(0.06805, abs=1e-9)

    def test_no_deficit_above_stress_level(self):
        cfg = ShieldConfig(model=TREE1_MODEL, v_mad=V_MAD)
        state = make_state([6.5], et_next=0.15)
        _, deficit = predicted_deficit(cfg, state, np.array([0.0]))
        assert deficit == 0.0

    def test_surplus_region_cannot_mask_deficit(self):
        cfg = ShieldConfig(model=TREE1_MODEL, v_mad=V_MAD)
        state = make_state([7.0, 4.0], et_next=0.1)
        _, deficit = predicted_deficit(cfg, state, np.zeros(2))
        # only region 2 contributes: 4.726 - (0.973*4 - 0.0103 + 0.003)
        assert deficit == pytest.approx(V_MAD - 3.8847, abs=1e-9)

    def test_cap_limits_predictions(self):
        cfg = ShieldConfig(model=PredictorModel(c1=1.0, c2=1.0, c3=0.0, b=0.0),
                           v_mad=V_MAD, cap=8.0)
        state = make_state([7.8], precip_next=1.5, et_next=0.0)
        v_hat, _ = predicted_deficit(cfg, state, np.array([0.54]))
        assert v_hat[0] == 8.0

    @given(v=st.lists(st.floats(min_value=0.0, max_value=9.0),
                      min_size=2, max_size=2),
           a=st.lists(st.floats(min_value=0.0, max_value=0.54),
                      min_size=2, max_size=2),
           et=st.floats(min_value=0.0, max_value=0.4),
           precip=st.floats(min_value=0.0, max_value=0.5))
    def test_matches_scalar_predictor_exactly(self, v, a, et, precip):
        # the per-region predictions are predict_next's, bit for bit
        cfg = ShieldConfig(model=(TREE1_MODEL, TREE2_MODEL), v_mad=V_MAD,
                           cap=8.0)
        state = make_state(v, et_next=et, precip_next=precip)
        v_hat, _ = predicted_deficit(cfg, state, np.array(a))
        want = [predict_next(m, v_i, a_i, precip, et, cap=8.0)
                for m, v_i, a_i in zip(cfg.models_for(2), v, a)]
        assert v_hat.tolist() == want

    @given(v=st.floats(min_value=3.0, max_value=7.0),
           a1=st.floats(min_value=0.0, max_value=0.54),
           a2=st.floats(min_value=0.0, max_value=0.54),
           et=st.floats(min_value=0.0, max_value=0.4),
           precip=st.floats(min_value=0.0, max_value=0.5))
    def test_less_water_never_reduces_deficit(self, v, a1, a2, et, precip):
        cfg = ShieldConfig(model=TREE1_MODEL, v_mad=V_MAD)
        state = make_state([v], et_next=et, precip_next=precip)
        lo, hi = sorted((a1, a2))
        _, d_lo = predicted_deficit(cfg, state, np.array([lo]))
        _, d_hi = predicted_deficit(cfg, state, np.array([hi]))
        assert d_lo >= d_hi


class TestScreen:
    def test_trigger_returns_fallback_action(self):
        cfg = ShieldConfig(model=TREE1_MODEL, v_mad=V_MAD)
        state = make_state([4.8], et_next=0.15)
        fallback = ConstantController(1, depth=0.54)
        action, report = screen(cfg, state, np.array([0.0]), fallback)
        assert report.triggered
        assert np.array_equal(action, [0.54])
        assert np.array_equal(report.substituted_action, [0.54])
        assert report.deficit_sum > 0.0

    def test_safe_action_passes_unchanged(self):
        cfg = ShieldConfig(model=TREE1_MODEL, v_mad=V_MAD)
        state = make_state([6.5], et_next=0.15)
        action, report = screen(cfg, state, np.array([0.2]),
                                ConstantController(1, depth=0.54))
        assert not report.triggered
        assert np.array_equal(action, [0.2])
        assert report.substituted_action is None

    def test_disabled_shield_records_counterfactual(self):
        cfg = ShieldConfig(model=TREE1_MODEL, v_mad=V_MAD, enabled=False)
        state = make_state([4.8], et_next=0.15)
        action, report = screen(cfg, state, np.array([0.0]),
                                ConstantController(1, depth=0.54))
        assert np.array_equal(action, [0.0])
        assert not report.triggered
        assert report.deficit_sum > cfg.detector_threshold

    def test_threshold_gates_marginal_deficits(self):
        state = make_state([4.8], et_next=0.15)   # deficit 0.06805
        tight = ShieldConfig(model=TREE1_MODEL, v_mad=V_MAD)
        loose = ShieldConfig(model=TREE1_MODEL, v_mad=V_MAD,
                             detector_threshold=0.1)
        fallback = ConstantController(1, depth=0.54)
        assert screen(tight, state, np.zeros(1), fallback)[1].triggered
        assert not screen(loose, state, np.zeros(1), fallback)[1].triggered

    @given(v=st.floats(min_value=3.5, max_value=7.5),
           a=st.floats(min_value=0.0, max_value=0.54),
           et=st.floats(min_value=0.0, max_value=0.4))
    def test_trigger_iff_deficit_exceeds_threshold(self, v, a, et):
        cfg = ShieldConfig(model=TREE1_MODEL, v_mad=V_MAD)
        state = make_state([v], et_next=et)
        _, deficit = predicted_deficit(cfg, state, np.array([a]))
        _, report = screen(cfg, state, np.array([a]),
                           ConstantController(1, depth=0.54))
        assert report.triggered == (deficit > cfg.detector_threshold)
        assert report.deficit_sum == deficit

    def test_report_shape(self):
        cfg = ShieldConfig(model=TREE1_MODEL, v_mad=V_MAD)
        _, report = screen(cfg, make_state([5.0, 6.0], et_next=0.2),
                           np.zeros(2), ConstantController(2, depth=0.54))
        assert isinstance(report, ShieldReport)
        assert report.predicted_v_next.shape == (2,)


class TestSoundness:
    """With an exact model, exact forecasts and no process noise, the
    screened system never enters stress whenever a safe dose fits within
    a_max: a passing action was predicted safe, and on a trigger every
    region the fallback's action leaves predicted short is raised to the
    least dose the model predicts reaches the stress level.  So the
    guarantee holds for a fallback that is not conservative enough on its
    own (the ET baseline) as well as for a full-capacity one."""

    @staticmethod
    def screened_episode(seed, fallback_for):
        cfg = default_env_config(process_noise_std=0.0)
        et_cycle = [0.10, 0.25, 0.40, 0.30, 0.20]
        p_cycle = [0.0, 0.0, 0.5, 0.0, 0.0]
        n = cfg.episode_length + 1
        weather = flat_season(n, et=[et_cycle[i % 5] for i in range(n)],
                              precip=[p_cycle[i % 5] for i in range(n)])
        env = IrrigationEnv(cfg, weather)
        shield = ShieldConfig(model=tuple(cfg.dynamics),
                              v_mad=cfg.levels.v_mad,
                              cap=cfg.saturation_cap, a_max=cfg.plant.a_max)
        fallback = fallback_for(cfg)
        rng = np.random.default_rng(seed)
        state = env.reset(seed=seed)
        assert np.all(state.v >= cfg.levels.v_mad)
        for _ in range(cfg.episode_length):
            proposal = rng.uniform(0.0, cfg.plant.a_max, size=len(cfg.dynamics))
            action, _ = screen(shield, state, proposal, fallback)
            assert np.all(action <= cfg.plant.a_max)
            state = env.step(action).next_state
            assert np.all(state.v >= cfg.levels.v_mad - 1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_screened_episode_never_drops_below_stress_level(self, seed):
        self.screened_episode(
            seed, lambda cfg: ConstantController(len(cfg.dynamics), cfg.plant.a_max))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_et_fallback_episode_never_drops_below_stress_level(self, seed):
        # the ET dose alone is often too little; the correction makes up
        # the rest, and on this weather cycle it always fits within a_max
        self.screened_episode(
            seed, lambda cfg: EtController(len(cfg.dynamics), cfg.plant.a_max))

    def test_correction_beyond_a_max_executes_a_max(self):
        cfg = ShieldConfig(model=TREE1_MODEL, v_mad=V_MAD, a_max=0.54)
        # region 1 needs (4.726 - 3.8502) / 0.288, about 3.04 in; region 2
        # needs (4.726 - 4.6322) / 0.288, about 0.326 in
        state = make_state([4.0, 4.8], et=0.15, et_next=0.4)
        action, report = screen(cfg, state, np.zeros(2),
                                EtController(2, a_max=0.54))
        assert report.triggered
        assert action[0] == 0.54
        m = TREE1_MODEL
        least_safe = (V_MAD - (m.c1 * 4.8 + m.c3 * 0.4 + m.b)) / m.c2
        assert action[1] == pytest.approx(least_safe, rel=1e-12)
        assert np.all(action <= 0.54)

    def test_unscreened_equivalent_does_enter_stress(self):
        # same setup without the screen: dry proposals drain the soil
        cfg = default_env_config(process_noise_std=0.0)
        n = cfg.episode_length + 1
        env = IrrigationEnv(cfg, flat_season(n, et=0.3))
        env.reset(seed=1)
        below = 0
        for _ in range(cfg.episode_length):
            state = env.step(np.zeros(len(cfg.dynamics))).next_state
            below += int(np.any(state.v < cfg.levels.v_mad))
        assert below > 0
