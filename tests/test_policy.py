"""Squashed-Gaussian policy: distribution math, sampling, persistence."""

import copy
import json

import numpy as np
import pytest

from orchardrl.agent.policy import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    PolicyStack,
    SquashedGaussianPolicy,
    load_policy,
)
from orchardrl.env import N_MONTHS, NormalizationStats
from orchardrl.software import software_environment

from conftest import log_prob_at

OBS_DIM = 14
N_CONTINUOUS = OBS_DIM - N_MONTHS   # the month one-hot columns stay raw
A_MAX = 0.54


def small_policy(n_regions=1, seed=0, zero_mean=False, hidden=(8, 8)):
    policy = SquashedGaussianPolicy(OBS_DIM, n_regions, A_MAX, hidden=hidden,
                                    seed=seed)
    if zero_mean:
        policy.net.weights[-1][:] = 0.0
        policy.net.biases[-1][:] = 0.0
    return policy


def with_stats(policy):
    """Attach normalization statistics, which every snapshot carries."""
    policy.norm_stats = NormalizationStats(mean=np.zeros(N_CONTINUOUS),
                                           std=np.ones(N_CONTINUOUS))
    return policy


class TestSquash:
    def test_midpoint_at_zero(self):
        policy = small_policy()
        assert policy.squash(np.array([0.0]))[0] == pytest.approx(A_MAX / 2)

    def test_range(self):
        policy = small_policy()
        u = np.linspace(-20, 20, 101)
        a = policy.squash(u)
        assert np.all(a >= 0.0) and np.all(a <= A_MAX)

    def test_monotone(self):
        policy = small_policy()
        u = np.linspace(-6, 6, 200)
        assert np.all(np.diff(policy.squash(u)) > 0)


class TestMeanAction:
    def test_zero_weight_network_outputs_midpoint(self):
        policy = small_policy(n_regions=2, zero_mean=True)
        for seed in range(5):
            obs = np.random.default_rng(seed).normal(size=OBS_DIM)
            assert policy.mean_action(obs) == pytest.approx([A_MAX / 2] * 2)

    def test_deterministic(self):
        policy = small_policy(n_regions=2, seed=3)
        obs = np.random.default_rng(0).normal(size=OBS_DIM)
        assert np.array_equal(policy.mean_action(obs), policy.mean_action(obs))

    def test_within_action_bounds(self):
        policy = small_policy(n_regions=2, seed=4)
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = policy.mean_action(rng.normal(size=OBS_DIM))
            assert np.all(a >= 0.0) and np.all(a <= A_MAX)

    def test_observation_dimension_checked(self):
        policy = small_policy()
        with pytest.raises(ValueError, match="dimension"):
            policy.mean_action(np.zeros(OBS_DIM + 1))

    def test_non_finite_output_flagged(self):
        policy = small_policy()
        policy.net.weights[0][:] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            policy.mean_action(np.zeros(OBS_DIM))


class TestPolicyStack:
    @staticmethod
    def deployed_policy(n_regions, hidden, seed):
        """A policy with a live output layer and its own a_max and
        normalization statistics, at the environment's observation width."""
        rng = np.random.default_rng(seed)
        policy = SquashedGaussianPolicy(n_regions + 24, n_regions,
                                        a_max=rng.uniform(0.3, 3.0),
                                        hidden=hidden, seed=seed)
        policy.net.weights[-1][:] *= 100.0
        policy.net.biases[-1][:] = rng.normal(size=n_regions)
        n = policy.obs_dim - N_MONTHS
        policy.norm_stats = NormalizationStats(mean=rng.uniform(0.0, 5.0, n),
                                               std=rng.uniform(0.2, 3.0, n))
        return policy

    @pytest.mark.parametrize("hidden", [(8,), (64, 64), (256, 256)])
    @pytest.mark.parametrize("n_regions", [2, 3, 16])
    def test_stacked_pass_is_each_policys_mean_action(self, hidden, n_regions):
        policies = [self.deployed_policy(n_regions, hidden, seed)
                    for seed in range(3)]
        stack = PolicyStack(policies)
        rng = np.random.default_rng(n_regions)
        for _ in range(5):
            rows = rng.uniform(0.0, 8.0, size=(3, n_regions + 24))
            actions = stack.mean_actions(rows)
            assert actions.shape == (3, n_regions)
            for policy, row, action in zip(policies, rows, actions):
                normalized = policy.norm_stats.apply(row)
                assert np.array_equal(action, policy.mean_action(normalized))
                # the training forward of a lone row gives the same bits
                m, _ = policy.forward_mean(normalized)
                assert np.array_equal(action, policy.squash(m[0]))

    def test_non_finite_output_flagged(self):
        policies = [self.deployed_policy(2, (8,), seed) for seed in range(2)]
        policies[1].net.biases[0][:] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            PolicyStack(policies).mean_actions(np.zeros((2, 26)))


class TestSampling:
    def test_same_seed_same_action(self):
        policy = small_policy(n_regions=2, seed=5)
        obs = np.random.default_rng(2).normal(size=(3, OBS_DIM))
        a1, _, logp1, _ = policy.sample(obs, np.random.default_rng(7))
        a2, _, logp2, _ = policy.sample(obs, np.random.default_rng(7))
        assert np.array_equal(a1, a2) and np.array_equal(logp1, logp2)

    def test_sample_internally_consistent(self):
        policy = small_policy(n_regions=2, seed=5)
        obs = np.random.default_rng(2).normal(size=(1, OBS_DIM))
        a, u, logp, log_jac = policy.sample(obs, np.random.default_rng(11))
        assert np.allclose(a, policy.squash(u))
        assert np.array_equal(log_jac, policy.squash_log_jacobian(u))
        m, _ = policy.forward_mean(obs)
        assert logp[0] == pytest.approx(
            float(log_prob_at(policy, u, m)[0]), abs=1e-12)

    def test_batch_sample_matches_row_by_row(self):
        policy = small_policy(n_regions=2, seed=5)
        obs = np.random.default_rng(2).normal(size=(7, OBS_DIM))
        a, u, logp, log_jac = policy.sample(obs, np.random.default_rng(11))
        assert a.shape == u.shape == log_jac.shape == (7, 2)
        assert logp.shape == (7,)
        assert np.array_equal(a, policy.squash(u))
        batch_means, _ = policy.forward_mean(obs)
        assert np.allclose(logp, log_prob_at(policy, u, batch_means),
                           rtol=0, atol=1e-12)
        # u is the batched mean plus sigma times one (7, 2) normal draw
        noise = np.random.default_rng(11).standard_normal((7, 2))
        means = u - np.exp(policy.log_std) * noise
        for row, m in zip(obs, means):
            assert np.allclose(policy.forward_mean(row)[0][0], m, rtol=0, atol=1e-12)

    def test_samples_stay_in_bounds(self):
        policy = small_policy(n_regions=2, seed=6)
        rng = np.random.default_rng(3)
        obs = rng.normal(size=(1, OBS_DIM))
        for _ in range(200):
            a, *_ = policy.sample(obs, rng)
            assert np.all(a >= 0.0) and np.all(a <= A_MAX)

    def test_monte_carlo_mean_matches_symmetric_point(self):
        # zeroed final layer puts the pre-squash mean exactly at 0, where
        # the squash is odd-symmetric, so E[a] = a_max/2 exactly
        policy = small_policy(zero_mean=True)
        rng = np.random.default_rng(8)
        n = 100_000
        samples = policy.sample(np.zeros((n, OBS_DIM)), rng)[0][:, 0]
        tol = 3.0 * samples.std() / np.sqrt(n)
        assert abs(samples.mean() - A_MAX / 2) < tol

    def test_monte_carlo_mean_matches_quadrature(self):
        policy = small_policy(seed=9)  # nonzero network mean
        obs = np.random.default_rng(4).normal(size=OBS_DIM)
        m, _ = policy.forward_mean(obs)
        sigma = float(np.exp(policy.log_std[0]))
        u_grid = np.linspace(m[0, 0] - 8 * sigma, m[0, 0] + 8 * sigma, 20001)
        pdf = np.exp(-0.5 * ((u_grid - m[0, 0]) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))
        analytic = np.trapezoid(policy.squash(u_grid) * pdf, u_grid)
        rng = np.random.default_rng(10)
        n = 100_000
        samples = policy.sample(np.tile(obs, (n, 1)), rng)[0][:, 0]
        tol = 4.0 * samples.std() / np.sqrt(n)
        assert abs(samples.mean() - analytic) < tol

    def test_log_prob_density_integrates_to_one(self):
        policy = small_policy(seed=12)
        obs = np.random.default_rng(5).normal(size=OBS_DIM)
        m, _ = policy.forward_mean(obs)
        eps = 1e-9
        a_grid = np.linspace(eps, A_MAX - eps, 40001)
        u_grid = np.arctanh(2.0 * a_grid / A_MAX - 1.0)
        logp = log_prob_at(policy, u_grid[:, None], m)
        total = np.trapezoid(np.exp(logp), a_grid)
        assert total == pytest.approx(1.0, abs=1e-3)


class TestParameters:
    def test_flat_round_trip(self):
        policy = small_policy(n_regions=2, seed=13)
        other = small_policy(n_regions=2, seed=99)
        other.params[:] = policy.params
        obs = np.random.default_rng(0).normal(size=OBS_DIM)
        assert np.array_equal(other.mean_action(obs), policy.mean_action(obs))
        assert np.array_equal(other.log_std, policy.log_std)

    def test_flat_length_checked(self):
        policy = small_policy()
        m, cache = policy.forward_mean(np.zeros((1, OBS_DIM)))
        with pytest.raises(ValueError, match="does not fit"):
            policy.net.backward(cache, m, np.zeros(3))

    def test_layers_and_log_std_are_views_in_order(self):
        policy = small_policy(n_regions=2, hidden=(8, 8))
        arrays = []
        for W, b in zip(policy.net.weights, policy.net.biases):
            arrays.extend((W, b))
        arrays.append(policy.log_std)
        policy.params[:] = np.arange(policy.params.size)
        offset = 0
        for a in arrays:
            assert np.array_equal(a.ravel(), np.arange(offset, offset + a.size))
            offset += a.size
        assert offset == policy.params.size

    def test_deepcopy_keeps_views_on_its_own_params(self):
        policy = with_stats(small_policy(n_regions=2, seed=16))
        before = policy.params.copy()
        clone = copy.deepcopy(policy)
        assert np.array_equal(clone.params, before)
        clone.params[:] = 0.5
        assert np.all(clone.net.weights[0] == 0.5)
        assert np.all(clone.net.biases[-1] == 0.5)
        assert np.all(clone.log_std == 0.5)
        clone.log_std[:] = -1.0
        assert np.all(clone.params[-2:] == -1.0)
        assert np.array_equal(policy.params, before)
        clone.norm_stats.mean[:] = 3.0
        assert np.all(policy.norm_stats.mean == 0.0)

    def test_parameter_count(self):
        policy = small_policy(n_regions=2, hidden=(8, 8))
        expected = (OBS_DIM * 8 + 8) + (8 * 8 + 8) + (8 * 2 + 2) + 2
        assert policy.parameter_count == expected

    def test_log_std_clamped(self):
        policy = small_policy()
        policy.log_std[:] = 10.0
        policy.clamp_log_std()
        assert np.all(policy.log_std == LOG_STD_MAX)
        policy.log_std[:] = -10.0
        policy.clamp_log_std()
        assert np.all(policy.log_std == LOG_STD_MIN)

    def test_init_log_std_clipped_into_range(self):
        policy = SquashedGaussianPolicy(OBS_DIM, 1, A_MAX, hidden=(4,),
                                        init_log_std=5.0)
        assert policy.log_std[0] == LOG_STD_MAX


class TestPersistence:
    def test_round_trip(self, tmp_path):
        policy = small_policy(n_regions=2, seed=14)
        policy.norm_stats = NormalizationStats(mean=np.arange(float(N_CONTINUOUS)),
                                               std=np.ones(N_CONTINUOUS) * 2.0)
        policy.config_hash = "abc123"
        path = tmp_path / "policy.npz"
        policy.save(path)
        back = load_policy(path)
        assert np.array_equal(back.params, policy.params)
        assert back.a_max == policy.a_max
        assert back.hidden == policy.hidden
        assert back.config_hash == "abc123"
        assert np.array_equal(back.norm_stats.mean, policy.norm_stats.mean)
        assert np.array_equal(back.norm_stats.std, policy.norm_stats.std)
        obs = np.random.default_rng(6).normal(size=OBS_DIM)
        assert np.array_equal(back.mean_action(obs), policy.mean_action(obs))

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        policy = with_stats(small_policy(n_regions=2, seed=5))
        path = tmp_path / "policy.npz"
        policy.save(path)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_policy drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        back = load_policy(path)
        assert np.array_equal(back.params, policy.params)
        for W, W_back in zip(policy.net.weights, back.net.weights):
            assert np.array_equal(W, W_back)
        assert np.array_equal(back.log_std, policy.log_std)

    def test_snapshot_records_software_environment(self, tmp_path):
        path = tmp_path / "p.npz"
        with_stats(small_policy()).save(path)
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
        assert meta["software"] == software_environment()

    def test_unknown_format_version_rejected(self, tmp_path):
        path = tmp_path / "old.npz"
        with_stats(small_policy()).save(path)
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(str(arrays["meta"]))
        arrays["meta"] = np.array(json.dumps(dict(meta, format_version="0")))
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="format"):
            load_policy(path)

    @pytest.mark.parametrize("key", ["w1", "b2", "log_std"])
    def test_mis_shaped_array_rejected(self, tmp_path, key):
        path = tmp_path / "p.npz"
        with_stats(small_policy(n_regions=2)).save(path)
        with np.load(path) as data:
            arrays = dict(data)
        expected = arrays[key].shape
        arrays[key] = np.zeros(arrays[key].shape[:-1] + (3,))
        np.savez(path, **arrays)
        with pytest.raises(ValueError) as err:
            load_policy(path)
        message = str(err.value)
        assert str(path) in message and key in message
        assert str(expected) in message and str(arrays[key].shape) in message

    @pytest.mark.parametrize("key", ["norm_mean", "norm_std"])
    def test_norm_stats_must_cover_the_continuous_columns(self, tmp_path, key):
        # 2 regions: 26 inputs, of which all but the 12 month columns are
        # normalized; a snapshot normalizing 5 of the 14 is rejected
        policy = SquashedGaussianPolicy(26, 2, A_MAX, hidden=(4,), seed=0)
        policy.norm_stats = NormalizationStats(mean=np.zeros(14), std=np.ones(14))
        path = tmp_path / "p.npz"
        policy.save(path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays[key] = arrays[key][:5]
        np.savez(path, **arrays)
        with pytest.raises(ValueError) as err:
            load_policy(path)
        message = str(err.value)
        assert str(path) in message and key in message
        assert "(5,)" in message and "(14,)" in message

    def test_snapshot_without_norm_stats_rejected(self, tmp_path):
        path = tmp_path / "p.npz"
        with_stats(small_policy()).save(path)
        with np.load(path) as data:
            arrays = {k: v for k, v in data.items() if k != "norm_std"}
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="normalization") as err:
            load_policy(path)
        assert str(path) in str(err.value)


def test_constructor_validation():
    with pytest.raises(ValueError):
        SquashedGaussianPolicy(0, 1, A_MAX)
    with pytest.raises(ValueError):
        SquashedGaussianPolicy(OBS_DIM, 1, 0.0)
