"""Trainer internals: returns, clipped surrogate, gradients, convergence."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orchardrl.agent.policy import SquashedGaussianPolicy, _log1m_tanh_sq
from orchardrl.agent.ppo import (
    GRADIENT_CHECK_MAX_PARAMS,
    CurvePoint,
    RolloutBatch,
    TrainerConfig,
    TrainingDiverged,
    _collect_normalization_stats,
    _converged,
    _rollout,
    _surrogate_terms,
    finite_difference_gradient,
    gradient_check,
    normalized_advantages,
    ppo_loss,
    ppo_loss_and_grads,
    returns_to_go,
    train,
    write_training_curve,
)
from orchardrl.env import IrrigationEnv
from orchardrl.predictor import PredictorModel

from conftest import default_env_config, flat_season, log_prob_at

OBS_DIM = 5


def small_policy(seed=0, hidden=(4,), n_regions=1, obs_dim=OBS_DIM):
    return SquashedGaussianPolicy(obs_dim=obs_dim, n_regions=n_regions,
                                  a_max=0.54, hidden=hidden, seed=seed)


def sampled_batch(policy, n=8, seed=1, returns=None, logp_shift=None):
    """On-policy batch; logp_shift subtracts per-sample offsets so the stored
    old log-probabilities pretend the data came from a different policy."""
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(n, policy.obs_dim))
    _, pre, old, log_jac = policy.sample(obs, rng)
    if logp_shift is not None:
        old = old - np.asarray(logp_shift, dtype=float)
    if returns is None:
        returns = rng.normal(size=n)
    return RolloutBatch(obs=obs, pre_squash=pre, log_jac=log_jac,
                        old_log_prob=old,
                        returns=np.asarray(returns, dtype=float))


class TestReturnsToGo:
    def test_hand_example(self):
        out = returns_to_go([1.0, 1.0, 1.0], 0.99)
        assert np.allclose(out, [2.9701, 1.99, 1.0], atol=1e-12)

    def test_zero_gamma_is_myopic(self):
        r = np.array([3.0, -1.0, 0.5, 2.0])
        assert np.array_equal(returns_to_go(r, 0.0), r)

    def test_unit_gamma_suffix_sums(self):
        assert np.allclose(returns_to_go([1.0, 2.0, 3.0], 1.0), [6.0, 5.0, 3.0])

    def test_zero_rewards(self):
        assert np.array_equal(returns_to_go(np.zeros(5), 0.99), np.zeros(5))

    @given(rewards=st.lists(st.floats(min_value=-100, max_value=100),
                            min_size=1, max_size=20),
           gamma=st.floats(min_value=0.0, max_value=1.0))
    def test_bellman_identity(self, rewards, gamma):
        out = returns_to_go(rewards, gamma)
        assert out[-1] == rewards[-1]
        for t in range(len(rewards) - 1):
            assert out[t] == pytest.approx(rewards[t] + gamma * out[t + 1],
                                           rel=1e-9, abs=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            returns_to_go([1.0, math.inf], 0.99)

    def test_columns_are_episodes(self):
        r = np.random.default_rng(4).normal(size=(6, 3))
        out = returns_to_go(r, 0.9)
        for e in range(3):
            assert np.array_equal(out[:, e], returns_to_go(r[:, e], 0.9))


class TestNormalizedAdvantages:
    def test_constant_batch_goes_to_zero(self):
        assert np.array_equal(normalized_advantages(np.full(6, -3.7)),
                              np.zeros(6))

    def test_single_element(self):
        assert np.array_equal(normalized_advantages(np.array([4.2])), [0.0])

    def test_moments(self):
        adv = normalized_advantages(np.random.default_rng(0).normal(5, 2, 100))
        assert adv.mean() == pytest.approx(0.0, abs=1e-9)
        assert adv.std() == pytest.approx(1.0, abs=1e-6)


class TestRolloutBatch:
    def test_subset_picks_rows(self):
        batch = sampled_batch(small_policy(), n=5)
        sub = batch.subset(np.array([3, 0]))
        assert len(sub) == 2
        assert np.array_equal(sub.obs, batch.obs[[3, 0]])
        assert np.array_equal(sub.returns, batch.returns[[3, 0]])
        assert np.array_equal(sub.old_log_prob, batch.old_log_prob[[3, 0]])

    def test_epoch_slices_equal_index_subsets(self):
        # the trainer permutes the batch once per epoch and slices it; each
        # slice must hold the rows order[lo:hi] in that order, and give the
        # same loss and gradient bit for bit
        policy = small_policy(hidden=(6, 6), n_regions=2)
        batch = sampled_batch(policy, n=11, seed=3)
        adv = normalized_advantages(batch.returns)
        order = np.random.default_rng(0).permutation(len(batch))
        shuffled, shuffled_adv = batch.subset(order), adv[order]
        for lo in range(0, len(batch), 4):
            by_slice = shuffled.subset(slice(lo, lo + 4))
            by_index = batch.subset(order[lo:lo + 4])
            assert np.shares_memory(by_slice.obs, shuffled.obs)
            for name in ("obs", "pre_squash", "log_jac", "old_log_prob",
                         "returns"):
                assert (getattr(by_slice, name).tobytes()
                        == getattr(by_index, name).tobytes())
            loss_s, grad_s = ppo_loss_and_grads(
                by_slice, policy, 0.3, advantages=shuffled_adv[lo:lo + 4])
            loss_i, grad_i = ppo_loss_and_grads(
                by_index, policy, 0.3, advantages=adv[order[lo:lo + 4]])
            assert loss_s == loss_i
            assert grad_s.tobytes() == grad_i.tobytes()

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            RolloutBatch(obs=np.empty((0, 3)), pre_squash=np.empty((0, 1)),
                         log_jac=np.empty((0, 1)), old_log_prob=np.empty(0),
                         returns=np.empty(0))

    def test_length_mismatch_rejected(self):
        batch = sampled_batch(small_policy(), n=4)
        with pytest.raises(ValueError, match="length"):
            RolloutBatch(obs=batch.obs, pre_squash=batch.pre_squash,
                         log_jac=batch.log_jac,
                         old_log_prob=batch.old_log_prob[:3],
                         returns=batch.returns)

    def test_non_finite_log_prob_rejected(self):
        batch = sampled_batch(small_policy(), n=4)
        bad = batch.old_log_prob.copy()
        bad[1] = math.nan
        with pytest.raises(ValueError, match="finite"):
            RolloutBatch(obs=batch.obs, pre_squash=batch.pre_squash,
                         log_jac=batch.log_jac, old_log_prob=bad,
                         returns=batch.returns)


class TestImportanceRatio:
    """The surrogate's w = exp(log pi(a|s) - old_log_prob), with the action
    identified by its stored pre-squash sample."""

    @staticmethod
    def ratio(policy, batch):
        return _surrogate_terms(policy, batch, 0.3, np.ones(len(batch)))[3]

    def test_unchanged_policy_gives_one(self):
        policy = small_policy()
        batch = sampled_batch(policy, n=1)
        assert self.ratio(policy, batch)[0] == pytest.approx(1.0, abs=1e-9)

    def test_log_two_offset_doubles(self):
        policy = small_policy()
        batch = sampled_batch(policy, n=1, logp_shift=[math.log(2.0)])
        assert self.ratio(policy, batch)[0] == pytest.approx(2.0, rel=1e-9)


class TestPpoLoss:
    def test_on_policy_loss_is_minus_mean_advantage(self):
        policy = small_policy()
        batch = sampled_batch(policy, n=8)
        adv = np.array([1.0, -2.0, 0.5, 3.0, -1.0, 0.25, 2.0, -0.75])
        loss = ppo_loss(batch, policy, 0.3, advantages=adv)
        # ratio is 1 everywhere, so neither branch clips
        assert loss == pytest.approx(-adv.mean(), abs=1e-9)

    def test_zero_advantages_zero_loss_and_gradient(self):
        policy = small_policy()
        batch = sampled_batch(policy, n=6)
        loss, grad = ppo_loss_and_grads(batch, policy, 0.3,
                                        advantages=np.zeros(6))
        assert loss == 0.0
        assert grad.shape == policy.params.shape
        assert np.all(grad == 0.0)

    def test_positive_advantage_clips_from_above(self):
        # ratio 1.5 with eps 0.3 and advantage 1 pins the surrogate at 1.3
        policy = small_policy()
        batch = sampled_batch(policy, n=1, logp_shift=[math.log(1.5)],
                              returns=[0.0])
        loss = ppo_loss(batch, policy, 0.3, advantages=np.array([1.0]))
        assert loss == pytest.approx(-1.3, abs=1e-9)

    def test_negative_advantage_clips_pessimistically(self):
        # ratio 0.5 would shrink the penalty; the clip keeps it at 0.7
        policy = small_policy()
        batch = sampled_batch(policy, n=1, logp_shift=[math.log(0.5)],
                              returns=[0.0])
        loss = ppo_loss(batch, policy, 0.3, advantages=np.array([-1.0]))
        assert loss == pytest.approx(0.7, abs=1e-9)

    @given(data=st.lists(
        st.tuples(st.floats(min_value=-1.0, max_value=1.0),
                  st.floats(min_value=-3.0, max_value=3.0)),
        min_size=1, max_size=8))
    def test_surrogate_takes_pessimistic_branch(self, data):
        deltas = np.array([d for d, _ in data])
        adv = np.array([a for _, a in data])
        policy = small_policy()
        batch = sampled_batch(policy, n=len(data), logp_shift=deltas)
        loss = ppo_loss(batch, policy, 0.3, advantages=adv)
        m, _ = policy.forward_mean(batch.obs)
        ratio = np.exp(log_prob_at(policy, batch.pre_squash, m)
                       - batch.old_log_prob)
        clipped = np.clip(ratio, 0.7, 1.3)
        expected = -np.minimum(ratio * adv, clipped * adv).mean()
        assert loss == pytest.approx(expected, rel=1e-9, abs=1e-12)
        assert loss >= -float((ratio * adv).mean()) - 1e-9
        assert loss >= -float((clipped * adv).mean()) - 1e-9

    def test_rejects_nonpositive_epsilon(self):
        policy = small_policy()
        batch = sampled_batch(policy, n=2)
        with pytest.raises(ValueError, match="epsilon"):
            ppo_loss(batch, policy, 0.0, advantages=np.ones(2))
        with pytest.raises(ValueError, match="epsilon"):
            ppo_loss_and_grads(batch, policy, -0.1, advantages=np.ones(2))


class TestGradients:
    def test_finite_differences_exact_on_quadratic(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(6, 6))
        q = q @ q.T + np.eye(6)
        b = rng.normal(size=6)
        x0 = rng.normal(size=6)

        def f(x):
            return 0.5 * x @ q @ x + b @ x

        numeric = finite_difference_gradient(f, x0, h=1e-5)
        assert np.max(np.abs(numeric - (q @ x0 + b))) < 1e-7

    def test_analytic_matches_finite_differences_on_policy_batch(self):
        policy = small_policy(seed=4)
        batch = sampled_batch(policy, n=8, seed=5)
        assert gradient_check(policy, batch) < 1e-4

    def test_off_policy_batch_also_matches(self):
        policy = small_policy(seed=6)
        shift = np.linspace(-0.8, 0.8, 8)
        batch = sampled_batch(policy, n=8, seed=7, logp_shift=shift)
        assert gradient_check(policy, batch) < 1e-4

    def test_gradient_check_restores_parameters(self):
        policy = small_policy(seed=8)
        theta0 = policy.params.copy()
        batch = sampled_batch(policy, n=4, seed=9)
        gradient_check(policy, batch)
        assert np.array_equal(policy.params, theta0)

    def test_gradient_check_guards_large_policies(self):
        policy = SquashedGaussianPolicy(obs_dim=26, n_regions=2, a_max=0.54,
                                        hidden=(256, 256), seed=0)
        assert policy.parameter_count > GRADIENT_CHECK_MAX_PARAMS
        batch = sampled_batch(policy, n=2)
        with pytest.raises(ValueError, match="limited"):
            gradient_check(policy, batch)

    def test_descent_step_reduces_loss(self):
        policy = small_policy(seed=10)
        batch = sampled_batch(policy, n=16, seed=11)
        adv = normalized_advantages(batch.returns)
        loss0, grad = ppo_loss_and_grads(batch, policy, 0.3, advantages=adv)
        assert np.linalg.norm(grad) > 1e-8
        policy.params -= 1e-3 * grad / np.linalg.norm(grad)
        loss1 = ppo_loss(batch, policy, 0.3, advantages=adv)
        assert loss1 < loss0


def random_case(seed, n, n_regions, shift):
    """A small policy with a random log-std and a batch of n rows whose
    stored log-probs are shifted by up to shift, plus advantages."""
    rng = np.random.default_rng(seed)
    policy = small_policy(seed=seed, hidden=(4,), n_regions=n_regions)
    policy.log_std[:] = rng.uniform(-1.5, 0.5, n_regions)
    batch = sampled_batch(policy, n=n, seed=seed + 1,
                          logp_shift=rng.uniform(-shift, shift, n))
    return policy, batch, normalized_advantages(batch.returns)


case_args = dict(seed=st.integers(min_value=0, max_value=2 ** 31),
                 n=st.integers(min_value=1, max_value=24),
                 n_regions=st.integers(min_value=1, max_value=3))


class TestSharedTerms:
    """A minibatch step forms sigma, z, z**2 and the squash log-Jacobian
    once and shares them; sharing must not change a bit."""

    @settings(max_examples=40)
    @given(**case_args, shift=st.floats(min_value=0.0, max_value=1.0))
    def test_stored_jacobian_log_prob_is_bit_identical(self, seed, n,
                                                       n_regions, shift):
        policy, batch, adv = random_case(seed, n, n_regions, shift)

        def fresh(u, m):
            # the density with every term formed from u and m
            z = (u - m) / np.exp(policy.log_std)
            gauss = -0.5 * z ** 2 - policy.log_std - 0.5 * math.log(2.0 * math.pi)
            jac = math.log(policy.a_max / 2.0) + _log1m_tanh_sq(u)
            return np.sum(gauss - jac, axis=1), jac

        m, _ = policy.forward_mean(batch.obs)
        logp, jac = fresh(batch.pre_squash, m)
        assert batch.log_jac.tobytes() == jac.tobytes()
        assert _surrogate_terms(policy, batch, 0.3, adv)[2].tobytes() == logp.tobytes()
        _, u, sampled, sampled_jac = policy.sample(batch.obs,
                                                   np.random.default_rng(seed))
        logp, jac = fresh(u, m)
        assert sampled.tobytes() == logp.tobytes()
        assert sampled_jac.tobytes() == jac.tobytes()

    @settings(max_examples=40)
    @given(**case_args, shift=st.floats(min_value=0.0, max_value=1.0))
    def test_loss_with_gradient_equals_loss(self, seed, n, n_regions, shift):
        policy, batch, adv = random_case(seed, n, n_regions, shift)
        loss, _ = ppo_loss_and_grads(batch, policy, 0.3, advantages=adv)
        assert loss == ppo_loss(batch, policy, 0.3, advantages=adv)

    @settings(max_examples=25)
    @given(**case_args)
    def test_gradient_check_passes(self, seed, n, n_regions):
        # ratios within 10% of 1 keep the finite differences off the clip's
        # kinks; the bound sits 10x above the worst of 300 probed cases
        policy, batch, _ = random_case(seed, n, n_regions, 0.1)
        assert gradient_check(policy, batch) < 1e-3

    @settings(max_examples=40)
    @given(n=st.integers(min_value=1, max_value=40),
           size=st.integers(min_value=1, max_value=16),
           seed=st.integers(min_value=0, max_value=2 ** 31))
    def test_subset_rows_equal_index_copies(self, n, size, seed):
        policy = small_policy(hidden=(4,), n_regions=2)
        batch = sampled_batch(policy, n=n, seed=seed)
        order = np.random.default_rng(seed).permutation(n)
        shuffled = batch.subset(order)
        for lo in range(0, n, size):
            for rows, idx in ((shuffled.subset(slice(lo, lo + size)),
                               order[lo:lo + size]),
                              (batch.subset(order[lo:lo + size]),
                               order[lo:lo + size])):
                for name in ("obs", "pre_squash", "log_jac", "old_log_prob",
                             "returns"):
                    assert (getattr(rows, name).tobytes()
                            == getattr(batch, name)[idx].tobytes())


class TestConvergenceRule:
    def test_needs_two_full_windows(self):
        assert not _converged([-50.0] * 49, 25, 0.03)

    def test_constant_history_converges(self):
        assert _converged([-50.0] * 50, 25, 0.03)

    def test_within_band(self):
        assert _converged([-100.0] * 25 + [-98.0] * 25, 25, 0.03)

    def test_outside_band(self):
        assert not _converged([-100.0] * 25 + [-90.0] * 25, 25, 0.03)

    def test_zero_reference_window(self):
        assert _converged([0.0] * 50, 25, 0.03)
        assert not _converged([0.0] * 25 + [1.0] * 25, 25, 0.03)


class TestTrainerConfig:
    def test_defaults(self):
        cfg = TrainerConfig()
        assert cfg.learning_rate == 0.001
        assert cfg.gamma == 0.99
        assert cfg.clip_epsilon == 0.3
        assert cfg.episodes_per_iteration == 32
        assert cfg.hidden == (64, 64)
        assert cfg.convergence_window == 25

    @pytest.mark.parametrize("bad", [
        {"gamma": 0.0}, {"gamma": 1.5}, {"clip_epsilon": 0.0},
        {"minibatch_size": 0}, {"episodes_per_iteration": 0},
        {"max_iterations": 0}, {"episode_length": 0}, {"learning_rate": 0.0},
        {"convergence_window": 0}, {"convergence_band": 0.0},
        {"convergence_band": 1.0}, {"convergence_patience": 0},
        {"epochs": 0}, {"warmup_episodes": 0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            TrainerConfig(**bad)


def conserving_season(et=0.0, episode_length=6):
    """(config, weather) of a 1-region env where moisture only moves by the
    irrigation applied.

    With zero evapotranspiration the in-band reward reduces to the pure
    water cost, so the optimal stationary action is zero.
    """
    model = PredictorModel(c1=1.0, c2=1.0, c3=0.0, b=0.0)
    cfg = default_env_config(n_regions=1, dynamics=(model,),
                             process_noise_std=0.0,
                             episode_length=episode_length)
    return cfg, flat_season(episode_length + 1, et=et)


class TestTrain:
    def test_learns_to_withhold_water(self):
        cfg = TrainerConfig(hidden=(8,), episodes_per_iteration=8,
                            episode_length=6, minibatch_size=48,
                            max_iterations=150, convergence_window=10,
                            convergence_patience=3, warmup_episodes=4,
                            learning_rate=0.01)
        policy, curve = train(cfg, IrrigationEnv(*conserving_season()), seed=0)
        assert len(curve) <= cfg.max_iterations
        assert curve[-1].total_reward > curve[0].total_reward
        obs = IrrigationEnv(*conserving_season()).reset([100, 101, 102])
        assert np.all(policy.mean_action(policy.norm_stats.apply(obs)) < 0.01)

    def test_deterministic_for_fixed_seed(self):
        cfg = TrainerConfig(hidden=(4,), episodes_per_iteration=2,
                            episode_length=4, minibatch_size=16,
                            max_iterations=3, convergence_window=2,
                            warmup_episodes=2)
        env = IrrigationEnv(*conserving_season(et=0.1, episode_length=4))
        pol_a, curve_a = train(cfg, env, seed=7)
        pol_b, curve_b = train(cfg, env, seed=7)
        assert np.array_equal(pol_a.params, pol_b.params)
        assert curve_a == curve_b

    def test_seed_changes_outcome(self):
        cfg = TrainerConfig(hidden=(4,), episodes_per_iteration=2,
                            episode_length=4, minibatch_size=16,
                            max_iterations=2, convergence_window=2,
                            warmup_episodes=2)
        env = IrrigationEnv(*conserving_season(et=0.1, episode_length=4))
        pol_a, _ = train(cfg, env, seed=7)
        pol_b, _ = train(cfg, env, seed=8)
        assert not np.array_equal(pol_a.params, pol_b.params)

    def test_normalization_stats_leave_month_one_hot_raw(self):
        vec = IrrigationEnv(*conserving_season(et=0.1, episode_length=4))
        cfg = TrainerConfig(hidden=(4,), episodes_per_iteration=1,
                            episode_length=4, warmup_episodes=3)
        stats = _collect_normalization_stats(vec, cfg,
                                             np.random.default_rng(0))
        assert len(stats.mean) == vec.config.obs_dim - 12
        assert np.all(stats.std > 0.0)

    def test_rollout_rows_are_grouped_by_episode(self):
        # conserving dynamics and no noise: v_next = v + a exactly, well
        # below the saturation cap
        model = PredictorModel(c1=1.0, c2=1.0, c3=0.0, b=0.0)
        env_cfg = default_env_config(n_regions=1, dynamics=(model,),
                                     process_noise_std=0.0, episode_length=4,
                                     surplus_headroom=5.0)
        vec = IrrigationEnv(env_cfg, flat_season(5))
        cfg = TrainerConfig(hidden=(4,), episodes_per_iteration=3,
                            episode_length=4, warmup_episodes=2, gamma=1.0)
        rng = np.random.default_rng(0)
        policy = small_policy(obs_dim=env_cfg.obs_dim)
        policy.norm_stats = _collect_normalization_stats(vec, cfg, rng)
        batch, returns, totals = _rollout(vec, policy, cfg, rng)
        assert len(batch) == 12 and returns.shape == (3, 4)
        m, _ = policy.forward_mean(batch.obs)
        assert np.allclose(batch.old_log_prob,
                           log_prob_at(policy, batch.pre_squash, m),
                           rtol=0, atol=1e-12)
        assert np.array_equal(batch.log_jac,
                              policy.squash_log_jacobian(batch.pre_squash))
        stats = policy.norm_stats
        v = (batch.obs[:, 0] * stats.std[0] + stats.mean[0]).reshape(3, 4)
        a = policy.squash(batch.pre_squash)[:, 0].reshape(3, 4)
        assert np.allclose(v[:, 1:], v[:, :-1] + a[:, :-1], rtol=0, atol=1e-12)
        assert np.allclose(returns[:, 0], totals, rtol=0, atol=1e-12)

    def test_diverged_error_carries_curve(self):
        pts = [CurvePoint(iteration=0, total_reward=-5.0, loss=0.2)]
        exc = TrainingDiverged("boom", pts)
        assert isinstance(exc, RuntimeError)
        assert exc.curve == pts


class TestCurveFile:
    def test_round_trip_exact(self, tmp_path):
        pts = [CurvePoint(0, -12.53125, 0.333333333333333314),
               CurvePoint(1, -11.0, 0.25)]
        path = tmp_path / "curve.csv"
        write_training_curve(path, pts)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "total_reward", "loss"]
        for pt, row in zip(pts, rows[1:]):
            assert int(row[0]) == pt.iteration
            assert float(row[1]) == pt.total_reward
            assert float(row[2]) == pt.loss
