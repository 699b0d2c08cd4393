"""MDP environment: reward branches, dynamics stepping, normalization."""

import dataclasses
import datetime as dt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from orchardrl.env import (
    OBS_ET,
    OBS_FORECAST_PRECIP_NEXT,
    OBS_PRECIP,
    OBS_PREDICTED_ET_NEXT,
    IrrigationEnv,
    NormalizationStats,
    RewardParams,
    channel,
    reward,
    soil_water,
)
from orchardrl.hydrology import SoilLevels, derive_levels
from orchardrl.hydrology import testbed_profile as orchard_profile
from orchardrl.predictor import TREE1_MODEL, predict_next
from orchardrl.runconfig import (
    build_env_config,
    build_training_weather,
    default_run_config,
)
from orchardrl.weather import synthesize_season

from conftest import default_env_config, flat_season, obs_row, weather_table

LEVELS = SoilLevels(v_pwp=2.362, v_awc=4.728, v_mad=4.726, v_fc=7.09)
PARAMS = RewardParams()
MAD_ONLY = dataclasses.replace(PARAMS, kind="mad-only")


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
        assert reward(np.array([4.5]), np.array([0.3]), LEVELS, MAD_ONLY) \
            == pytest.approx(-2.56, abs=1e-9)

    def test_in_band_is_free(self):
        assert reward(np.array([5.5]), np.array([0.54]), LEVELS, MAD_ONLY) == 0.0

    def test_over_irrigation_is_free(self):
        assert reward(np.array([8.0]), np.array([1.0]), LEVELS, MAD_ONLY) == 0.0


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
        first = env.reset([5])
        env.step(np.array([[0.1, 0.1]]))
        assert np.array_equal(env.reset([5]), first)

    def test_repeated_seeds_equal_single_seed_episodes(self):
        # one set of draws serves every episode given the same seed, yet
        # each episode owns its rows: under different actions each one
        # runs exactly as a lone episode of its seed would
        cfg = default_env_config(process_noise_std=0.05)
        weather = synthesize_season(4, 120)
        env = IrrigationEnv(cfg, weather)
        seeds = [11, 5, 11, 11]
        actions = np.random.default_rng(0).uniform(
            0.0, cfg.plant.a_max, size=(cfg.episode_length, len(seeds), 2))
        actions[:, 3] = 0.0
        obs, rewards = [env.reset(seeds)], []
        for a in actions:
            obs.append(env.step(a))
            rewards.append(reward(env.v, env.a, cfg.levels, cfg.reward))
        for e, seed in enumerate(seeds):
            lone = IrrigationEnv(cfg, weather)
            assert np.array_equal(lone.reset([seed])[0], obs[0][e])
            for t, a in enumerate(actions):
                o = lone.step(a[e:e + 1])
                assert np.array_equal(o[0], obs[t + 1][e])
                assert reward(lone.v, lone.a, cfg.levels, cfg.reward)[0] \
                    == rewards[t][e]
        assert not np.array_equal(obs[-1][0], obs[-1][3])

    def test_initial_band_moments(self):
        cfg = default_env_config()
        env = IrrigationEnv(cfg, flat_season(cfg.episode_length + 1))
        env.reset(range(10_000))
        draws = env.v.ravel()
        lv = cfg.levels
        assert draws.min() >= lv.v_mad
        assert draws.max() <= lv.v_fc
        # uniform mean 5.908, 3 sigma / sqrt(n) ~ 0.0145
        assert abs(draws.mean() - (lv.v_mad + lv.v_fc) / 2) < 0.015

    def test_degenerate_band_collapses(self):
        profile = dataclasses.replace(orchard_profile(), mad_fraction=1.0)
        cfg = default_env_config(profile=profile)
        env = IrrigationEnv(cfg, flat_season(cfg.episode_length + 1))
        env.reset(range(5))
        assert np.all(env.v == derive_levels(profile).v_fc)

    def test_day_counter_cleared(self):
        cfg = default_env_config()
        env = IrrigationEnv(cfg, flat_season(cfg.episode_length + 1))
        first = env.reset([1])
        env.step(np.zeros((1, 2)))
        assert np.array_equal(env.reset([1]), first)
        for _ in range(cfg.episode_length):
            env.step(np.zeros((1, 2)))

    def test_weather_too_short(self):
        cfg = default_env_config()
        with pytest.raises(ValueError, match="episode_length"):
            IrrigationEnv(cfg, flat_season(cfg.episode_length))

    def test_windows_with_a_missing_date_rejected(self):
        cfg = default_env_config(episode_length=5)
        records = list(flat_season(11))
        del records[5]       # two runs of 5 consecutive dates, none of 6
        with pytest.raises(ValueError, match="consecutive"):
            IrrigationEnv(cfg, weather_table(records))
        records = list(flat_season(12, et=np.linspace(0.1, 0.2, 12)))
        del records[5]       # the second run has 6 dates: one allowed start
        weather = weather_table(records)
        obs = IrrigationEnv(cfg, weather).reset(range(5))
        assert np.all(obs[:, 2] == weather[5].et)

    def test_training_episodes_never_cross_a_season_gap(self):
        # the synthetic corpus is several March-October seasons back to
        # back; an episode that crossed from one into the next would jump
        # from October or November to March
        run = default_run_config()
        cfg = build_env_config(run, episode_length=run.trainer.episode_length)
        env = IrrigationEnv(cfg, build_training_weather(run))
        obs = env.reset(range(1000))
        months = [obs[:, -12:].argmax(axis=1)]
        zeros = np.zeros_like(env.v)
        for _ in range(cfg.episode_length):
            obs = env.step(zeros)
            months.append(obs[:, -12:].argmax(axis=1))
        assert np.all(np.isin(np.diff(months, axis=0), (0, 1)))


def make_point_env(v0=5.0, et=0.15, precip=0.0, days=4,
                   start=dt.date(2020, 3, 1), **overrides):
    """1-region, 1-episode env whose reset lands exactly at v0 (collapsed
    band)."""
    profile = dataclasses.replace(
        orchard_profile(),
        awc_per_foot=(v0 - 1.2) / 2.0, pwp_fraction=0.05,
        root_depth_feet=2.0, root_depth_inches=24.0,
        sensor_depth_spans=(12.0, 12.0), mad_fraction=1.0)
    cfg = default_env_config(
        n_regions=1, profile=profile, dynamics=(TREE1_MODEL,),
        process_noise_std=0.0, episode_length=days - 1, **overrides)
    env = IrrigationEnv(cfg, flat_season(days, et=et, precip=precip,
                                         start=start))
    env.reset([0])
    return env


def month_of(obs):
    return int(obs[0, -12:].argmax()) + 1


class TestStep:
    def test_tree1_hand_value(self):
        env = make_point_env(v0=5.0, et=0.15, precip=0.0)
        env.step(np.array([[0.3]]))
        assert env.v[0, 0] == pytest.approx(4.93895, abs=1e-12)

    def test_zero_action_strictly_drains(self):
        cfg = default_env_config(process_noise_std=0.0)
        env = IrrigationEnv(cfg, flat_season(cfg.episode_length + 1, et=0.15))
        env.reset([2])
        for _ in range(10):
            v = env.v
            env.step(np.zeros((1, 2)))
            assert np.all(env.v < v)

    def test_precip_action_interchangeable(self):
        env_a = make_point_env(v0=5.5, et=0.15, precip=0.15)
        env_b = make_point_env(v0=5.5, et=0.15, precip=0.05)
        env_a.step(np.array([[0.10]]))
        env_b.step(np.array([[0.20]]))
        assert env_a.v[0, 0] == pytest.approx(env_b.v[0, 0], abs=1e-12)

    def test_process_noise_respects_bounds(self):
        cfg = default_env_config(process_noise_std=0.5)
        env = IrrigationEnv(cfg, flat_season(cfg.episode_length + 1))
        env.reset([3, 4])
        for _ in range(cfg.episode_length):
            env.step(np.full((2, 2), 0.54))
            assert np.all(env.v >= 0.0)
            assert np.all(env.v <= cfg.saturation_cap)

    def test_counters_and_calendar_advance(self):
        # season starts March 30 so the third record crosses into April
        env = make_point_env(days=4, et=0.1, start=dt.date(2020, 3, 30))
        assert month_of(env.reset([0])) == 3
        months = [month_of(env.step(np.array([[0.1]]))) for _ in range(3)]
        assert months == [3, 4, 4]
        with pytest.raises(RuntimeError, match="exhausted"):
            env.step(np.array([[0.1]]))

    def test_reward_uses_post_step_moisture(self):
        env = make_point_env(v0=5.0, et=0.15)
        env.step(np.array([[0.3]]))
        # v_next 4.93895 sits below this env's collapsed v_mad = 5.0
        lv = env.config.levels
        r = reward(env.v, env.a, lv, env.config.reward)
        expect = -(10.0 * (lv.v_mad - 4.93895) + 1.0 * 0.3)
        assert r[0] == pytest.approx(expect, abs=1e-9)

    def test_action_shape_checked(self):
        env = make_point_env()
        with pytest.raises(ValueError, match="shape"):
            env.step(np.array([[0.1, 0.1]]))

    def test_action_bounds_checked(self):
        env = make_point_env()
        with pytest.raises(ValueError, match="outside"):
            env.step(np.array([[0.6]]))
        with pytest.raises(ValueError, match="outside"):
            env.step(np.array([[-0.1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_actions_rejected(self, bad):
        # NaN compares false against both bounds; it must not reach v
        env = IrrigationEnv(default_env_config(),
                            flat_season(default_env_config().episode_length + 1))
        env.reset([1])
        v = env.v.copy()
        with pytest.raises(ValueError, match=f"action {bad!r} outside"):
            env.step(np.array([[0.1, bad]]))
        assert np.array_equal(env.v, v)

    def test_step_before_reset_rejected(self):
        cfg = default_env_config()
        env = IrrigationEnv(cfg, flat_season(cfg.episode_length + 1))
        with pytest.raises(RuntimeError, match="reset"):
            env.step(np.zeros((1, 2)))

    def test_episode_exhaustion(self):
        env = make_point_env(days=3)  # 2 control days
        env.step(np.array([[0.1]]))
        env.step(np.array([[0.1]]))
        with pytest.raises(RuntimeError, match="exhausted"):
            env.step(np.array([[0.1]]))

    def test_saturation_cap_binds(self):
        # conserving dynamics with heavy rain pile water onto the cap
        from orchardrl.predictor import PredictorModel
        wet = PredictorModel(c1=1.0, c2=1.0, c3=0.0, b=0.0)
        cfg = default_env_config(n_regions=1, dynamics=(wet,),
                                 process_noise_std=0.0, episode_length=8)
        env = IrrigationEnv(cfg, flat_season(9, et=0.1, precip=1.4))
        env.reset([1])
        for _ in range(8):
            env.step(np.array([[0.54]]))
        assert env.v[0, 0] == pytest.approx(cfg.saturation_cap)


class TestStateVector:
    """The observation row layout every controller reads."""

    def test_layout(self):
        season = flat_season(3, et=0.2, precip=0.1)
        cfg = default_env_config(episode_length=2)
        env = IrrigationEnv(cfg, season)
        vec = env.reset([0])[0]
        assert vec.shape == (26,) == (cfg.obs_dim,)
        assert np.array_equal(vec[:2], env.v[0])
        assert np.array_equal(soil_water(vec), env.v[0])
        assert tuple(vec[2:12]) == season[0].numeric_channels
        assert vec[12] == season[0].predicted_et_next
        assert vec[13] == season[0].forecast_precip_next
        one_hot = vec[14:]
        assert one_hot[2] == 1.0 and one_hot.sum() == 1.0
        assert np.array_equal(vec, obs_row(soil_water(vec), season[0]))
        assert channel(vec, OBS_ET) == season[0].et
        assert channel(vec, OBS_PRECIP) == season[0].precip
        assert channel(vec, OBS_PREDICTED_ET_NEXT) == season[0].predicted_et_next
        assert channel(vec, OBS_FORECAST_PRECIP_NEXT) == season[0].forecast_precip_next


class TestNormalization:
    def sample_states(self, n=40):
        cfg = default_env_config()
        env = IrrigationEnv(cfg, flat_season(cfg.episode_length + 1))
        rows = [env.reset(range(4, 6))]
        for _ in range(n // 2 - 1):
            rows.append(env.step(np.full((2, 2), 0.2)))
        return cfg, np.concatenate(rows)

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

    def test_zero_variance_components_frozen(self):
        vecs = np.array([[1.0, 5.0], [1.0, 7.0], [1.0, 9.0]])
        stats = NormalizationStats.from_samples(vecs, 2)
        assert stats.std[0] == 1.0
        out = stats.apply(np.array([1.0, 7.0]))
        assert out[0] == 0.0

    def test_dimension_mismatch_rejected(self):
        stats = NormalizationStats(mean=np.zeros(12), std=np.ones(12))
        with pytest.raises(ValueError):
            stats.apply(np.zeros(4))

    def test_std_must_be_positive(self):
        with pytest.raises(ValueError):
            NormalizationStats(mean=np.zeros(2), std=np.array([1.0, 0.0]))

    def test_stacked_stats_apply_row_by_row(self):
        rng = np.random.default_rng(3)
        singles = [NormalizationStats(mean=rng.uniform(0.0, 5.0, 4),
                                      std=rng.uniform(0.2, 3.0, 4))
                   for _ in range(3)]
        stacked = NormalizationStats(mean=np.stack([s.mean for s in singles]),
                                     std=np.stack([s.std for s in singles]))
        assert stacked.n_continuous == 4
        rows = rng.uniform(0.0, 8.0, size=(3, 6))
        out = stacked.apply(rows)
        for stats, row, normalized in zip(singles, rows, out):
            assert np.array_equal(normalized, stats.apply(row))

    def test_stacked_shapes_checked(self):
        with pytest.raises(ValueError, match="equal shape"):
            NormalizationStats(mean=np.zeros((2, 4)), std=np.ones((3, 4)))
        with pytest.raises(ValueError, match="equal shape"):
            NormalizationStats(mean=np.zeros((2, 2, 4)), std=np.ones((2, 2, 4)))
        stacked = NormalizationStats(mean=np.zeros((2, 4)), std=np.ones((2, 4)))
        for rows in (np.zeros((3, 6)), np.zeros((1, 6)), np.zeros(6)):
            with pytest.raises(ValueError):
                stacked.apply(rows)


def reference_reward(v_next, a, levels, params):
    """The three-branch reward, one region at a time."""
    total = 0.0
    for v_i, a_i in zip(v_next, a):
        stress = params.lambda3 * (levels.v_mad - v_i) + params.mu3 * a_i
        if params.kind == "mad-only":
            total += stress if v_i < levels.v_mad else 0.0
        elif v_i > levels.v_fc:
            total += params.lambda1 * (v_i - levels.v_fc) + params.mu1 * a_i
        elif v_i >= levels.v_mad:
            total += params.mu2 * a_i
        else:
            total += stress
    return -total


class TestVecIrrigationEnv:
    """The batched environment: E episodes in lockstep."""

    SEEDS = (3, 17, 29, 101, 2024)

    def env(self, reward_kind="full", n_regions=3):
        cfg = default_env_config(n_regions=n_regions, process_noise_std=0.05,
                                 reward_kind=reward_kind)
        return IrrigationEnv(cfg, synthesize_season(4, 120))

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
        # each episode replays, bit for bit, a one-region-at-a-time
        # predict_next loop fed by its seed's draws in reset order: start
        # record, initial soil water, then the whole noise block
        vec = self.env(reward_kind)
        cfg = vec.config
        weather = synthesize_season(4, 120)
        actions = self.fixed_actions(cfg, len(self.SEEDS))
        obs = [vec.reset(self.SEEDS)]
        soil, rewards = [vec.v], []
        for a in actions:
            obs.append(vec.step(a))
            soil.append(vec.v)
            rewards.append(reward(vec.v, vec.a, cfg.levels, cfg.reward))
        n, L = len(cfg.dynamics), cfg.episode_length
        cap, std = cfg.saturation_cap, cfg.plant.process_noise_std
        for e, seed in enumerate(self.SEEDS):
            rng = np.random.default_rng(seed)
            start = int(rng.integers(0, len(weather) - L))
            v = rng.uniform(cfg.levels.v_mad, cfg.levels.v_fc, size=n)
            noise = rng.normal(0.0, std, size=(L, n))
            assert np.array_equal(soil[0][e], v)
            assert np.array_equal(obs[0][e], obs_row(v, weather[start]))
            for t, a in enumerate(actions):
                w = weather[start + t + 1]
                v = np.array([predict_next(m, v_i, a_i, w.precip, w.et, cap=cap)
                              for m, v_i, a_i in zip(cfg.dynamics, v, a[e])])
                v = np.clip(v + noise[t], 0.0, cap)
                assert np.array_equal(soil[t + 1][e], v)
                assert np.array_equal(obs[t + 1][e], obs_row(v, w))
                assert rewards[t][e] == pytest.approx(
                    reference_reward(v, a[e], cfg.levels, cfg.reward),
                    rel=0, abs=1e-12)
        soil = np.array(soil)
        assert np.any(soil > cfg.levels.v_fc) and np.any(soil < cfg.levels.v_mad)

    def test_fixed_start_episodes(self):
        # a record of exactly episode_length + 1 days leaves one start
        cfg = default_env_config(process_noise_std=0.0)
        n = cfg.episode_length + 1
        weather = flat_season(n, et=np.linspace(0.1, 0.3, n))
        env = IrrigationEnv(cfg, weather)
        obs = env.reset([1, 2])
        for e in range(2):
            assert np.array_equal(obs[e], obs_row(env.v[e], weather[0]))

    def test_action_checks(self):
        vec = self.env("full", n_regions=2)
        with pytest.raises(RuntimeError, match="reset"):
            vec.step(np.zeros((2, 2)))
        vec.reset([1, 2])
        with pytest.raises(ValueError, match="shape"):
            vec.step(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="outside"):
            vec.step(np.full((2, 2), vec.config.plant.a_max + 0.01))
        with pytest.raises(ValueError, match="outside"):
            vec.step(np.full((2, 2), -0.1))
        for _ in range(vec.config.episode_length):
            vec.step(np.zeros((2, 2)))
        with pytest.raises(RuntimeError, match="exhausted"):
            vec.step(np.zeros((2, 2)))

    def test_applied_actions_are_clipped(self):
        vec = self.env("full", n_regions=2)
        vec.reset([1])
        a_max = vec.config.plant.a_max
        vec.step(np.array([[-1e-10, a_max + 1e-10]]))
        assert np.array_equal(vec.a, [[0.0, a_max]])

    def test_weather_too_short(self):
        cfg = default_env_config()
        with pytest.raises(ValueError, match="episode_length"):
            IrrigationEnv(cfg, flat_season(cfg.episode_length))
