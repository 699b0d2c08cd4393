"""Action screening: deficit detector, fallback substitution, soundness."""

import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orchardrl.controllers import ConstantController, EtController
from orchardrl.env import (
    OBS_FORECAST_PRECIP_NEXT,
    OBS_PREDICTED_ET_NEXT,
    IrrigationEnv,
    channel,
    soil_water,
)
from orchardrl.predictor import (
    TREE1_MODEL,
    TREE2_MODEL,
    PredictorModel,
    coefficient_table,
    predict_next,
)
from orchardrl.safety import ShieldConfig, predicted_deficit, screen_rows

from conftest import default_env_config, flat_season

V_MAD = 4.726
CAP = 8.09      # the testbed's field capacity plus 1 in of surplus headroom
A_MAX = 0.54


def make_shield(*models, **kw):
    """A shield with one model per region (one TREE1_MODEL region unless
    models are given) at the testbed's stress level, cap and a_max."""
    kw = {"v_mad": V_MAD, "cap": CAP, "a_max": A_MAX, **kw}
    return ShieldConfig(model=models or (TREE1_MODEL,), **kw)


class RowReport(NamedTuple):
    deficit: float
    triggered: bool


def screen(config, v, proposed, fallback, enabled=True, et_next=0.15,
           precip_next=0.0):
    """Screen one soil row: screen_rows with k = 1 under a forecast and a
    fallback dose (or row of doses), returning the row's action and its
    deficit and trigger."""
    actions, deficits, triggered = screen_rows(
        config, np.asarray(v, dtype=float)[None],
        np.asarray(proposed, dtype=float)[None], precip_next, et_next,
        fallback, enabled)
    return actions[0], RowReport(deficits[0], triggered[0])


def deficit_of(config, v, action, et_next=0.15, precip_next=0.0):
    """predicted_deficit for one soil row under a forecast."""
    return predicted_deficit(config, np.asarray(v, dtype=float),
                             np.asarray(action, dtype=float), precip_next,
                             et_next)


class TestShieldConfig:
    def test_rejects_negative_stress_level(self):
        with pytest.raises(ValueError, match="v_mad"):
            make_shield(v_mad=-1.0)

    def test_per_region_models(self):
        cfg = make_shield(TREE1_MODEL, TREE2_MODEL)
        assert np.array_equal(cfg.coef,
                              coefficient_table((TREE1_MODEL, TREE2_MODEL)))
        assert not cfg.coef.flags.writeable

    def test_model_count_mismatch(self):
        # one model would otherwise broadcast silently over both regions
        cfg = make_shield(TREE1_MODEL)
        with pytest.raises(ValueError, match="action has 2 regions"):
            deficit_of(cfg, [5.0, 5.0], np.zeros(2))

    def test_unfitted_model_rejected_at_use(self):
        with pytest.raises(ValueError, match="one fitted PredictorModel"):
            ShieldConfig(model=(), v_mad=V_MAD, cap=CAP, a_max=A_MAX)


class TestPredictedDeficit:
    def test_hand_example(self):
        cfg = make_shield()
        v_hat, deficit = deficit_of(cfg, [4.8], [0.0], et_next=0.15,
                                    precip_next=0.0)
        assert v_hat[0] == pytest.approx(4.65795, abs=1e-9)
        assert deficit == pytest.approx(0.06805, abs=1e-9)

    def test_no_deficit_above_stress_level(self):
        cfg = make_shield()
        _, deficit = deficit_of(cfg, [6.5], [0.0], et_next=0.15)
        assert deficit == 0.0

    def test_surplus_region_cannot_mask_deficit(self):
        cfg = make_shield(TREE1_MODEL, TREE1_MODEL)
        _, deficit = deficit_of(cfg, [7.0, 4.0], np.zeros(2), et_next=0.1)
        # only region 2 contributes: 4.726 - (0.973*4 - 0.0103 + 0.003)
        assert deficit == pytest.approx(V_MAD - 3.8847, abs=1e-9)

    def test_cap_limits_predictions(self):
        cfg = make_shield(PredictorModel(c1=1.0, c2=1.0, c3=0.0, b=0.0),
                          cap=8.0)
        v_hat, _ = deficit_of(cfg, [7.8], [0.54], precip_next=1.5,
                              et_next=0.0)
        assert v_hat[0] == 8.0

    @given(v=st.lists(st.floats(min_value=0.0, max_value=9.0),
                      min_size=2, max_size=2),
           a=st.lists(st.floats(min_value=0.0, max_value=0.54),
                      min_size=2, max_size=2),
           et=st.floats(min_value=0.0, max_value=0.4),
           precip=st.floats(min_value=0.0, max_value=0.5))
    def test_matches_scalar_predictor_exactly(self, v, a, et, precip):
        # the per-region predictions are predict_next's, bit for bit
        cfg = make_shield(TREE1_MODEL, TREE2_MODEL, cap=8.0)
        v_hat, _ = deficit_of(cfg, v, a, et_next=et, precip_next=precip)
        want = [predict_next(m, v_i, a_i, precip, et, cap=8.0)
                for m, v_i, a_i in zip(cfg.model, v, a)]
        assert v_hat.tolist() == want

    @given(v=st.floats(min_value=3.0, max_value=7.0),
           a1=st.floats(min_value=0.0, max_value=0.54),
           a2=st.floats(min_value=0.0, max_value=0.54),
           et=st.floats(min_value=0.0, max_value=0.4),
           precip=st.floats(min_value=0.0, max_value=0.5))
    def test_less_water_never_reduces_deficit(self, v, a1, a2, et, precip):
        cfg = make_shield()
        lo, hi = sorted((a1, a2))
        _, d_lo = deficit_of(cfg, [v], [lo], et_next=et, precip_next=precip)
        _, d_hi = deficit_of(cfg, [v], [hi], et_next=et, precip_next=precip)
        assert d_lo >= d_hi


class TestScreen:
    def test_trigger_returns_fallback_action(self):
        cfg = make_shield()
        action, report = screen(cfg, [4.8], [0.0], 0.54)
        assert report.triggered
        assert np.array_equal(action, [0.54])
        assert report.deficit > 0.0

    def test_safe_action_passes_unchanged(self):
        cfg = make_shield()
        action, report = screen(cfg, [6.5], [0.2], 0.54)
        assert not report.triggered
        assert np.array_equal(action, [0.2])

    def test_disabled_shield_records_counterfactual(self):
        cfg = make_shield()
        action, report = screen(cfg, [4.8], [0.0], 0.54, enabled=False)
        assert np.array_equal(action, [0.0])
        assert not report.triggered
        assert report.deficit > 0.0

    def test_short_fallback_raised_to_least_safe_dose(self):
        cfg = make_shield()
        # v_hat = 0.973*4.8 - 0.103*0.15 + 0.003 = 4.65795 < 4.726
        et_dose = EtController(1, a_max=A_MAX).dose(0.15, 0.0)
        action, report = screen(cfg, [4.8], [0.0], et_dose)
        assert report.triggered
        # ET's 0.15 in is itself predicted unsafe (4.65795 + 0.288*0.15 =
        # 4.70115 < 4.726), so the shield raises it to the least dose its
        # model predicts reaches v_mad: (4.726 - 4.65795) / 0.288
        m = TREE1_MODEL
        least_safe = (V_MAD - (m.c1 * 4.8 + m.c3 * 0.15 + m.b)) / m.c2
        assert action[0] == pytest.approx(least_safe, rel=1e-12)
        assert action[0] >= 0.15

    def test_threshold_gates_marginal_deficits(self):
        # any predicted deficit triggers, however small
        _, report = screen(make_shield(), [4.8], np.zeros(1), 0.54)
        assert report.deficit == pytest.approx(0.06805, abs=1e-12)
        assert report.triggered

    @given(v=st.floats(min_value=3.5, max_value=7.5),
           a=st.floats(min_value=0.0, max_value=0.54),
           et=st.floats(min_value=0.0, max_value=0.4))
    def test_trigger_iff_deficit_exceeds_threshold(self, v, a, et):
        cfg = make_shield()
        _, deficit = deficit_of(cfg, [v], [a], et_next=et)
        _, report = screen(cfg, [v], [a], 0.54, et_next=et)
        assert report.triggered == (deficit > 0.0)
        assert report.deficit == deficit

    def test_report_shape(self):
        cfg = make_shield(TREE1_MODEL, TREE1_MODEL)
        v = np.array([[5.0, 6.0], [4.0, 4.0], [4.0, 4.0]])
        actions, deficits, triggered = screen_rows(
            cfg, v, np.zeros((3, 2)), 0.0, 0.2, 0.54,
            np.array([True, True, False]))
        assert actions.shape == (3, 2)
        assert deficits.shape == (3,)
        assert triggered.dtype == bool
        assert triggered.tolist() == [False, True, False]

    @staticmethod
    def draw_rows(data, n, k):
        """k soil rows of n regions, each with its own proposal, ET fallback
        dose and enabled flag, under one day's forecast."""
        unit = st.floats(min_value=0.0, max_value=1.0)
        fallback = EtController(n, a_max=A_MAX)
        precip_next, et_next = (data.draw(unit) * 0.5 for _ in range(2))
        v, proposals, doses, enabled = [], [], [], []
        for _ in range(k):
            v.append(data.draw(st.lists(st.floats(min_value=3.5, max_value=7.5),
                                        min_size=n, max_size=n)))
            et, precip = (data.draw(unit) * 0.5 for _ in range(2))
            doses.append([fallback.dose(et, precip)] * n)
            proposals.append(data.draw(st.lists(
                st.floats(min_value=0.0, max_value=A_MAX), min_size=n, max_size=n)))
            enabled.append(data.draw(st.booleans()))
        return (np.array(v), np.array(proposals), precip_next, et_next,
                np.array(doses), np.array(enabled))

    @settings(max_examples=200)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=16),
           k=st.integers(min_value=1, max_value=6))
    def test_k_rows_equal_k_single_row_screens(self, data, n, k):
        # rows are screened independently and bit for bit as if alone:
        # triggered, untriggered and disabled rows alike, each with its own
        # fallback dose, under the day's forecast
        cfg = make_shield(*((TREE1_MODEL, TREE2_MODEL)[i % 2] for i in range(n)))
        v, proposed, precip_next, et_next, doses, enabled = self.draw_rows(
            data, n, k)
        actions, deficits, triggered = screen_rows(
            cfg, v, proposed, precip_next, et_next, doses, enabled)
        for j in range(k):
            one = screen_rows(cfg, v[j:j + 1], proposed[j:j + 1],
                              precip_next, et_next, doses[j],
                              bool(enabled[j]))
            assert actions[j].tobytes() == one[0][0].tobytes()
            assert deficits[j].tobytes() == one[1][0].tobytes()
            assert triggered[j] == one[2][0]
            assert triggered[j] == (enabled[j] and deficits[j] > 0.0)

    def test_unreachable_region_keeps_its_base_dose(self):
        # a region irrigation cannot reach (c2 = 0, or c2 < 0) keeps the
        # fallback dose and divides by nothing, while the reachable region
        # beside it is raised, some rows only after ulp steps; each day's
        # rows share that day's forecast
        dry = PredictorModel(c1=0.9, c2=0.0, c3=-0.1, b=0.0)
        losing = PredictorModel(c1=0.9, c2=-0.2, c3=-0.1, b=0.0)
        cfg = make_shield(TREE2_MODEL, dry, losing)
        m = TREE2_MODEL
        rng = np.random.default_rng(4)
        k = 200
        stepped = 0
        for et_next in rng.uniform(0.0, 0.4, 5).tolist():
            v = np.column_stack([rng.uniform(4.2, 4.9, k), np.full(k, 4.0),
                                 np.full(k, 4.0)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                actions, _, triggered = screen_rows(
                    cfg, v, np.zeros((k, 3)), 0.0, et_next, 0.05, True)
            assert triggered.all()
            assert np.all(actions[:, 1:] == 0.05)
            a_star = (V_MAD - m.c1 * v[:, 0] - m.c2 * 0.0 - m.c3 * et_next
                      - m.b) / m.c2
            raised = a_star > 0.05
            assert raised.any()
            v_hat = np.array([predict_next(m, v_i, a_i, 0.0, et_next, cap=CAP)
                              for v_i, a_i in zip(v[:, 0], a_star)])
            stepped += int(np.count_nonzero(raised & (v_hat < V_MAD)))
            for v_i, a_i, up in zip(v[:, 0], actions[:, 0], raised):
                safe = predict_next(m, v_i, a_i, 0.0, et_next, cap=CAP) >= V_MAD
                assert safe or a_i == A_MAX
                assert a_i == 0.05 or up
        # rounding left some a* an ulp short, so the fix-up stepped
        assert stepped


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
        obs = env.reset([seed])
        assert np.all(env.v >= cfg.levels.v_mad)
        for _ in range(cfg.episode_length):
            proposal = rng.uniform(0.0, cfg.plant.a_max, size=len(cfg.dynamics))
            row = obs[0]
            action, _ = screen(
                shield, soil_water(row), proposal, fallback.decide(row),
                et_next=channel(row, OBS_PREDICTED_ET_NEXT),
                precip_next=channel(row, OBS_FORECAST_PRECIP_NEXT))
            assert np.all(action <= cfg.plant.a_max)
            obs = env.step(action[None])
            assert np.all(env.v >= cfg.levels.v_mad - 1e-9)

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
        cfg = make_shield(TREE1_MODEL, TREE1_MODEL)
        # region 1 needs (4.726 - 3.8502) / 0.288, about 3.04 in; region 2
        # needs (4.726 - 4.6322) / 0.288, about 0.326 in
        action, report = screen(cfg, [4.0, 4.8], np.zeros(2),
                                EtController(2, a_max=0.54).dose(0.15, 0.0),
                                et_next=0.4)
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
        env.reset([1])
        below = 0
        for _ in range(cfg.episode_length):
            env.step(np.zeros((1, len(cfg.dynamics))))
            below += int(np.any(env.v < cfg.levels.v_mad))
        assert below > 0
