"""MDP environment: reward branches, dynamics stepping, normalization."""

import dataclasses
import datetime as dt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from orchardrl.env import (
    EnvConfig,
    EnvState,
    IrrigationEnv,
    NormalizationStats,
    RewardParams,
    VecIrrigationEnv,
    normalize,
    reward,
    reward_mad_only,
    state_vector,
)
from orchardrl.hydrology import SoilLevels, derive_levels
from orchardrl.hydrology import testbed_profile as orchard_profile
from orchardrl.predictor import TREE1_MODEL, predict_next
from orchardrl.weather import WeatherDay, synthesize_season

from conftest import default_env_config

LEVELS = SoilLevels(v_pwp=2.362, v_awc=4.728, v_mad=4.726, v_fc=7.09)
PARAMS = RewardParams()


def flat_season(n, et=0.15, precip=0.0, start=dt.date(2020, 3, 1)):
    """n records with constant weather and exact next-day forecasts."""
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


class TestReward:
    def test_over_capacity_branch(self):
        assert reward(np.array([7.5]), np.array([0.3]), LEVELS, PARAMS) \
            == pytest.approx(-3.63, abs=1e-9)

    def test_in_band_branch(self):
        assert reward(np.array([5.5]), np.array([0.2]), LEVELS, PARAMS) \
            == pytest.approx(-0.6, abs=1e-9)

    def test_deficit_branch(self):
        assert reward(np.array([4.5]), np.array([0.3]), LEVELS, PARAMS) \
            == pytest.approx(-2.56, abs=1e-9)

    def test_boundaries_belong_to_band(self):
        at_fc = reward(np.array([LEVELS.v_fc]), np.array([0.2]), LEVELS, PARAMS)
        at_mad = reward(np.array([LEVELS.v_mad]), np.array([0.2]), LEVELS, PARAMS)
        assert at_fc == pytest.approx(-PARAMS.mu2 * 0.2, abs=1e-12)
        assert at_mad == pytest.approx(-PARAMS.mu2 * 0.2, abs=1e-12)

    def test_regions_sum(self):
        combined = reward(np.array([7.5, 4.5]), np.array([0.3, 0.3]), LEVELS, PARAMS)
        assert combined == pytest.approx(-3.63 - 2.56, abs=1e-9)

    def test_deficit_penalty_steeper_than_surplus(self):
        delta = 0.4
        none = np.array([0.0])
        surplus = reward(np.array([LEVELS.v_fc + delta]), none, LEVELS, PARAMS)
        deficit = reward(np.array([LEVELS.v_mad - delta]), none, LEVELS, PARAMS)
        assert deficit < surplus < 0.0

    @given(v=st.floats(min_value=0.0, max_value=9.0),
           a=st.floats(min_value=0.0, max_value=0.54))
    def test_branch_partition(self, v, a):
        got = reward(np.array([v]), np.array([a]), LEVELS, PARAMS)
        if v > LEVELS.v_fc:
            expect = -(PARAMS.lambda1 * (v - LEVELS.v_fc) + PARAMS.mu1 * a)
        elif v >= LEVELS.v_mad:
            expect = -PARAMS.mu2 * a
        else:
            expect = -(PARAMS.lambda3 * (LEVELS.v_mad - v) + PARAMS.mu3 * a)
        assert got == pytest.approx(expect, abs=1e-12)
        assert got <= 0.0

    @given(v=st.floats(min_value=4.726, max_value=7.09),
           a1=st.floats(min_value=0.0, max_value=0.54),
           a2=st.floats(min_value=0.0, max_value=0.54))
    def test_in_band_decreasing_in_water(self, v, a1, a2):
        lo, hi = sorted((a1, a2))
        r_lo = reward(np.array([v]), np.array([lo]), LEVELS, PARAMS)
        r_hi = reward(np.array([v]), np.array([hi]), LEVELS, PARAMS)
        assert r_lo >= r_hi
        if hi > lo:
            assert r_lo > r_hi

    @given(v1=st.floats(min_value=0.5, max_value=4.7),
           v2=st.floats(min_value=0.5, max_value=4.7))
    def test_deficit_increasing_in_moisture(self, v1, v2):
        lo, hi = sorted((v1, v2))
        r_lo = reward(np.array([lo]), np.array([0.1]), LEVELS, PARAMS)
        r_hi = reward(np.array([hi]), np.array([0.1]), LEVELS, PARAMS)
        assert r_hi >= r_lo

    @given(v=st.floats(min_value=4.726, max_value=7.09))
    def test_in_band_argmax_is_zero_action(self, v):
        best = reward(np.array([v]), np.array([0.0]), LEVELS, PARAMS)
        for a in (0.1, 0.3, 0.54):
            assert best >= reward(np.array([v]), np.array([a]), LEVELS, PARAMS)

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            RewardParams(lambda1=-1.0)


class TestRewardMadOnly:
    def test_matches_full_reward_deficit_branch(self):
        assert reward_mad_only(np.array([4.5]), np.array([0.3]), LEVELS, PARAMS) \
            == pytest.approx(-2.56, abs=1e-9)

    def test_in_band_is_free(self):
        assert reward_mad_only(np.array([5.5]), np.array([0.54]), LEVELS, PARAMS) == 0.0

    def test_over_irrigation_is_free(self):
        assert reward_mad_only(np.array([8.0]), np.array([1.0]), LEVELS, PARAMS) == 0.0


class TestEnvConfig:
    def test_obs_dim(self):
        assert default_env_config().obs_dim == 2 + 10 + 2 + 12

    def test_saturation_cap(self):
        cfg = default_env_config()
        assert cfg.saturation_cap == pytest.approx(cfg.levels.v_fc + 1.0)

    def test_dynamics_count_enforced(self):
        # one region per dynamics model, and at least one region
        assert default_env_config(dynamics=(TREE1_MODEL,) * 3).obs_dim == 3 + 24
        with pytest.raises(ValueError, match="at least one region"):
            default_env_config(dynamics=())

    def test_reward_kind_checked(self):
        with pytest.raises(ValueError, match="reward kind"):
            RewardParams(kind="banana")


class TestReset:
    def test_deterministic_per_seed(self):
        env = IrrigationEnv(default_env_config(), flat_season(40))
        v_a = env.reset(seed=5).v.copy()
        env.step(np.array([0.1, 0.1]))
        v_b = env.reset(seed=5).v.copy()
        assert np.array_equal(v_a, v_b)

    def test_initial_band_moments(self):
        cfg = default_env_config()
        env = IrrigationEnv(cfg, flat_season(cfg.episode_length + 1), seed=0)
        draws = np.concatenate([env.reset().v for _ in range(10_000)])
        lv = cfg.levels
        assert draws.min() >= lv.v_mad
        assert draws.max() <= lv.v_fc
        # uniform mean 5.908, 3 sigma / sqrt(n) ~ 0.0145
        assert abs(draws.mean() - (lv.v_mad + lv.v_fc) / 2) < 0.015

    def test_degenerate_band_collapses(self):
        profile = dataclasses.replace(orchard_profile(), mad_fraction=1.0)
        cfg = default_env_config(profile=profile)
        env = IrrigationEnv(cfg, flat_season(cfg.episode_length + 1), seed=0)
        lv = derive_levels(profile)
        for _ in range(5):
            assert np.all(env.reset().v == lv.v_fc)

    def test_day_counter_cleared(self):
        env = IrrigationEnv(default_env_config(), flat_season(40))
        env.reset(seed=1)
        env.step(np.array([0.0, 0.0]))
        assert env.reset(seed=1).day_in_episode == 0

    def test_weather_too_short(self):
        cfg = default_env_config()
        with pytest.raises(ValueError, match="episode_length"):
            IrrigationEnv(cfg, flat_season(cfg.episode_length))


def make_point_env(v0=5.0, et=0.15, precip=0.0, days=4, **overrides):
    """1-region env whose reset lands exactly at v0 (collapsed band)."""
    profile = dataclasses.replace(
        orchard_profile(),
        awc_per_foot=(v0 - 1.2) / 2.0, pwp_fraction=0.05,
        root_depth_feet=2.0, root_depth_inches=24.0,
        sensor_depth_spans=(12.0, 12.0), mad_fraction=1.0)
    cfg = default_env_config(
        n_regions=1, profile=profile, dynamics=(TREE1_MODEL,),
        process_noise_std=0.0, episode_length=days - 1, **overrides)
    env = IrrigationEnv(cfg, flat_season(days, et=et, precip=precip))
    env.reset(seed=0)
    return env


class TestStep:
    def test_tree1_hand_value(self):
        env = make_point_env(v0=5.0, et=0.15, precip=0.0)
        tr = env.step(np.array([0.3]))
        assert tr.next_state.v[0] == pytest.approx(4.93895, abs=1e-12)

    def test_zero_action_strictly_drains(self):
        cfg = default_env_config(process_noise_std=0.0)
        env = IrrigationEnv(cfg, flat_season(cfg.episode_length + 1, et=0.15))
        state = env.reset(seed=2)
        for _ in range(10):
            tr = env.step(np.zeros(2))
            assert np.all(tr.next_state.v < state.v)
            state = tr.next_state

    def test_precip_action_interchangeable(self):
        env_a = make_point_env(v0=5.5, et=0.15, precip=0.15)
        env_b = make_point_env(v0=5.5, et=0.15, precip=0.05)
        v_a = env_a.step(np.array([0.10])).next_state.v[0]
        v_b = env_b.step(np.array([0.20])).next_state.v[0]
        assert v_a == pytest.approx(v_b, abs=1e-12)

    def test_process_noise_respects_bounds(self):
        cfg = default_env_config(process_noise_std=0.5)
        env = IrrigationEnv(cfg, flat_season(cfg.episode_length + 1), seed=3)
        env.reset()
        for _ in range(cfg.episode_length):
            tr = env.step(np.array([0.54, 0.54]))
            assert np.all(tr.next_state.v >= 0.0)
            assert np.all(tr.next_state.v <= cfg.saturation_cap)

    def test_counters_and_calendar_advance(self):
        env = make_point_env(days=4, et=0.1)
        # season starts March 30 so the third record crosses into April
        env.weather = flat_season(4, et=0.1, start=dt.date(2020, 3, 30))
        state = env.reset(seed=0)
        assert (state.day_in_episode, state.month) == (0, 3)
        tr = env.step(np.array([0.1]))
        assert (tr.next_state.day_in_episode, tr.next_state.month) == (1, 3)
        tr = env.step(np.array([0.1]))
        assert (tr.next_state.day_in_episode, tr.next_state.month) == (2, 4)

    def test_reward_uses_post_step_moisture(self):
        env = make_point_env(v0=5.0, et=0.15)
        tr = env.step(np.array([0.3]))
        # v_next 4.93895 sits below this env's collapsed v_mad = 5.0
        lv = env.config.levels
        expect = -(10.0 * (lv.v_mad - 4.93895) + 1.0 * 0.3)
        assert tr.reward == pytest.approx(expect, abs=1e-9)

    def test_action_shape_checked(self):
        env = make_point_env()
        with pytest.raises(ValueError, match="shape"):
            env.step(np.array([0.1, 0.1]))

    def test_action_bounds_checked(self):
        env = make_point_env()
        with pytest.raises(ValueError, match="outside"):
            env.step(np.array([0.6]))
        with pytest.raises(ValueError, match="outside"):
            env.step(np.array([-0.1]))

    def test_step_before_reset_rejected(self):
        cfg = default_env_config()
        env = IrrigationEnv(cfg, flat_season(cfg.episode_length + 1))
        with pytest.raises(RuntimeError, match="reset"):
            env.step(np.zeros(2))

    def test_episode_exhaustion(self):
        env = make_point_env(days=3)  # 2 control days
        env.step(np.array([0.1]))
        env.step(np.array([0.1]))
        with pytest.raises(RuntimeError, match="exhausted"):
            env.step(np.array([0.1]))

    def test_saturation_cap_binds(self):
        # conserving dynamics with heavy rain pile water onto the cap
        from orchardrl.predictor import PredictorModel
        wet = PredictorModel(c1=1.0, c2=1.0, c3=0.0, b=0.0)
        profile = orchard_profile()
        cfg = default_env_config(n_regions=1, dynamics=(wet,),
                                 process_noise_std=0.0, episode_length=8)
        env = IrrigationEnv(cfg, flat_season(9, et=0.1, precip=1.4))
        env.reset(seed=1)
        for _ in range(8):
            tr = env.step(np.array([0.54]))
        assert tr.next_state.v[0] == pytest.approx(cfg.saturation_cap)


class TestStateVector:
    def test_layout(self):
        season = flat_season(3, et=0.2, precip=0.1)
        state = EnvState(v=np.array([5.0, 6.0]), weather_today=season[0],
                         month=3, day_in_episode=0)
        vec = state_vector(state)
        assert vec.shape == (26,)
        assert list(vec[:2]) == [5.0, 6.0]
        assert tuple(vec[2:12]) == season[0].numeric_channels
        assert vec[12] == season[0].predicted_et_next
        assert vec[13] == season[0].forecast_precip_next
        one_hot = vec[14:]
        assert one_hot[2] == 1.0 and one_hot.sum() == 1.0

    def test_state_validation(self):
        season = flat_season(2)
        with pytest.raises(ValueError):
            EnvState(v=np.array([5.0]), weather_today=season[0], month=13,
                     day_in_episode=0)
        with pytest.raises(ValueError):
            EnvState(v=np.array([-1.0]), weather_today=season[0], month=3,
                     day_in_episode=0)


class TestNormalization:
    def sample_states(self, n=40):
        cfg = default_env_config()
        env = IrrigationEnv(cfg, flat_season(cfg.episode_length + 1), seed=4)
        vecs = []
        state = env.reset()
        for _ in range(n):
            vecs.append(state_vector(state))
            tr = env.step(np.array([0.2, 0.2]))
            state = tr.next_state
            if state.day_in_episode == cfg.episode_length:
                state = env.reset()
        return cfg, np.array(vecs)

    def test_corpus_mean_maps_to_zero(self):
        cfg, vecs = self.sample_states()
        n_cont = cfg.obs_dim - 12
        stats = NormalizationStats.from_samples(vecs, n_cont)
        mean_vec = vecs.mean(axis=0)
        out = stats.apply(mean_vec)
        assert np.allclose(out[:n_cont], 0.0, atol=1e-9)

    def test_one_hot_untouched(self):
        cfg, vecs = self.sample_states()
        n_cont = cfg.obs_dim - 12
        stats = NormalizationStats.from_samples(vecs, n_cont)
        out = stats.apply(vecs[0])
        assert np.array_equal(out[n_cont:], vecs[0][n_cont:])

    def test_identity_idempotent(self):
        cfg, vecs = self.sample_states(5)
        stats = NormalizationStats.identity(cfg.obs_dim - 12)
        once = stats.apply(vecs[0])
        assert np.array_equal(stats.apply(once), once)

    def test_round_trip(self):
        cfg, vecs = self.sample_states()
        n_cont = cfg.obs_dim - 12
        stats = NormalizationStats.from_samples(vecs, n_cont)
        for vec in vecs[:10]:
            assert np.allclose(stats.invert(stats.apply(vec)), vec, atol=1e-9)

    def test_zero_variance_components_frozen(self):
        vecs = np.array([[1.0, 5.0], [1.0, 7.0], [1.0, 9.0]])
        stats = NormalizationStats.from_samples(vecs, 2)
        assert stats.std[0] == 1.0
        out = stats.apply(np.array([1.0, 7.0]))
        assert out[0] == 0.0

    def test_dimension_mismatch_rejected(self):
        stats = NormalizationStats.identity(12)
        with pytest.raises(ValueError):
            stats.apply(np.zeros(4))

    def test_std_must_be_positive(self):
        with pytest.raises(ValueError):
            NormalizationStats(mean=np.zeros(2), std=np.array([1.0, 0.0]))

    def test_normalize_denormalize_helpers(self):
        cfg = default_env_config()
        env = IrrigationEnv(cfg, flat_season(cfg.episode_length + 1), seed=6)
        state = env.reset()
        stats = NormalizationStats.identity(cfg.obs_dim - 12)
        vec = normalize(state, stats)
        assert np.allclose(stats.invert(vec), state_vector(state))


class TestVecIrrigationEnv:
    SEEDS = (3, 17, 29, 101, 2024)

    def scalar_and_vec(self, reward_kind, n_regions=3):
        cfg = default_env_config(n_regions=n_regions, process_noise_std=0.05,
                                 reward_kind=reward_kind)
        weather = synthesize_season(4, 120)
        return IrrigationEnv(cfg, weather), VecIrrigationEnv(cfg, weather)

    def fixed_actions(self, cfg, n_episodes):
        """Random doses, plus one episode flooded and one left dry so every
        reward branch is exercised."""
        rng = np.random.default_rng(8)
        a = rng.uniform(0.0, cfg.plant.a_max,
                        size=(cfg.episode_length, n_episodes, len(cfg.dynamics)))
        a[:, 0] = cfg.plant.a_max
        a[:, 1] = 0.0
        return a

    @pytest.mark.parametrize("reward_kind", ["full", "mad-only"])
    def test_matches_scalar_episodes(self, reward_kind):
        env, vec = self.scalar_and_vec(reward_kind)
        cfg = env.config
        actions = self.fixed_actions(cfg, len(self.SEEDS))
        obs = [vec.reset(self.SEEDS)]
        soil, rewards = [vec.v], []
        for a in actions:
            o, r = vec.step(a)
            obs.append(o)
            soil.append(vec.v)
            rewards.append(r)
        for e, seed in enumerate(self.SEEDS):
            state = env.reset(seed=seed)
            assert np.array_equal(obs[0][e], state_vector(state))
            assert np.array_equal(soil[0][e], state.v)
            for t, a in enumerate(actions):
                tr = env.step(a[e])
                assert np.array_equal(soil[t + 1][e], tr.next_state.v)
                assert np.array_equal(obs[t + 1][e], state_vector(tr.next_state))
                assert rewards[t][e] == pytest.approx(tr.reward, rel=0, abs=1e-12)
        soil = np.array(soil)
        assert np.any(soil > cfg.levels.v_fc) and np.any(soil < cfg.levels.v_mad)

    def test_fixed_start_episodes(self):
        # a record of exactly episode_length + 1 days leaves one start
        cfg = default_env_config(process_noise_std=0.0)
        n = cfg.episode_length + 1
        weather = flat_season(n, et=np.linspace(0.1, 0.3, n))
        obs = VecIrrigationEnv(cfg, weather).reset([1, 2])
        env = IrrigationEnv(cfg, weather)
        for e, seed in enumerate((1, 2)):
            state = env.reset(seed=seed)
            assert state.weather_today == weather[0]
            assert np.array_equal(obs[e], state_vector(state))

    def test_action_checks(self):
        env, vec = self.scalar_and_vec("full", n_regions=2)
        with pytest.raises(RuntimeError, match="reset"):
            vec.step(np.zeros((2, 2)))
        vec.reset([1, 2])
        with pytest.raises(ValueError, match="shape"):
            vec.step(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="outside"):
            vec.step(np.full((2, 2), env.config.plant.a_max + 0.01))
        with pytest.raises(ValueError, match="outside"):
            vec.step(np.full((2, 2), -0.1))
        for _ in range(env.config.episode_length):
            vec.step(np.zeros((2, 2)))
        with pytest.raises(RuntimeError, match="exhausted"):
            vec.step(np.zeros((2, 2)))

    def test_weather_too_short(self):
        cfg = default_env_config()
        with pytest.raises(ValueError, match="episode_length"):
            VecIrrigationEnv(cfg, flat_season(cfg.episode_length))
