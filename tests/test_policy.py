"""Squashed-Gaussian policy: distribution math, sampling, persistence."""

import numpy as np
import pytest

from orchardrl.agent.policy import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    SquashedGaussianPolicy,
    load_policy,
)
from orchardrl.env import NormalizationStats

OBS_DIM = 6
A_MAX = 0.54


def small_policy(n_regions=1, seed=0, zero_mean=False, hidden=(8, 8)):
    policy = SquashedGaussianPolicy(OBS_DIM, n_regions, A_MAX, hidden=hidden,
                                    seed=seed)
    if zero_mean:
        policy.net.weights[-1][:] = 0.0
        policy.net.biases[-1][:] = 0.0
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

    def test_unsquash_inverts(self):
        policy = small_policy()
        u = np.linspace(-4, 4, 41)
        assert np.allclose(policy.unsquash(policy.squash(u)), u, atol=1e-9)

    def test_unsquash_rejects_boundary(self):
        policy = small_policy()
        with pytest.raises(ValueError):
            policy.unsquash(np.array([0.0]))
        with pytest.raises(ValueError):
            policy.unsquash(np.array([A_MAX]))

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


class TestSampling:
    def test_same_seed_same_action(self):
        policy = small_policy(n_regions=2, seed=5)
        obs = np.random.default_rng(2).normal(size=OBS_DIM)
        a1, _, logp1 = policy.sample(obs, np.random.default_rng(7))
        a2, _, logp2 = policy.sample(obs, np.random.default_rng(7))
        assert np.array_equal(a1, a2) and logp1 == logp2

    def test_sample_internally_consistent(self):
        policy = small_policy(n_regions=2, seed=5)
        obs = np.random.default_rng(2).normal(size=OBS_DIM)
        a, u, logp = policy.sample(obs, np.random.default_rng(11))
        assert np.allclose(a, policy.squash(u))
        assert logp == pytest.approx(float(policy.log_prob(obs, u)[0]), abs=1e-12)

    def test_batch_sample_matches_row_by_row(self):
        policy = small_policy(n_regions=2, seed=5)
        obs = np.random.default_rng(2).normal(size=(7, OBS_DIM))
        a, u, logp = policy.sample(obs, np.random.default_rng(11))
        assert a.shape == u.shape == (7, 2) and logp.shape == (7,)
        assert np.array_equal(a, policy.squash(u))
        assert np.allclose(logp, policy.log_prob(obs, u), rtol=0, atol=1e-12)
        # u is the batched mean plus sigma times one (7, 2) normal draw
        noise = np.random.default_rng(11).standard_normal((7, 2))
        means = u - np.exp(policy.log_std) * noise
        for row, m in zip(obs, means):
            assert np.allclose(policy.forward_mean(row)[0][0], m, rtol=0, atol=1e-12)

    def test_batch_of_one_consumes_the_single_stream(self):
        policy = small_policy(n_regions=2, seed=5)
        obs = np.random.default_rng(2).normal(size=OBS_DIM)
        rng_1d, rng_2d = np.random.default_rng(11), np.random.default_rng(11)
        a, u, logp = policy.sample(obs, rng_1d)
        a2, u2, logp2 = policy.sample(obs[None, :], rng_2d)
        assert isinstance(logp, float)
        assert np.array_equal(a, a2[0]) and np.array_equal(u, u2[0])
        assert logp == logp2[0]
        assert rng_1d.random() == rng_2d.random()

    def test_samples_stay_in_bounds(self):
        policy = small_policy(n_regions=2, seed=6)
        rng = np.random.default_rng(3)
        obs = rng.normal(size=OBS_DIM)
        for _ in range(200):
            a, _, _ = policy.sample(obs, rng)
            assert np.all(a >= 0.0) and np.all(a <= A_MAX)

    def test_monte_carlo_mean_matches_symmetric_point(self):
        # zeroed final layer puts the pre-squash mean exactly at 0, where
        # the squash is odd-symmetric, so E[a] = a_max/2 exactly
        policy = small_policy(zero_mean=True)
        obs = np.zeros(OBS_DIM)
        rng = np.random.default_rng(8)
        n = 100_000
        samples = np.array([policy.sample(obs, rng)[0][0] for _ in range(n)])
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
        samples = np.array([policy.sample(obs, rng)[0][0] for _ in range(n)])
        tol = 4.0 * samples.std() / np.sqrt(n)
        assert abs(samples.mean() - analytic) < tol

    def test_log_prob_density_integrates_to_one(self):
        policy = small_policy(seed=12)
        obs = np.random.default_rng(5).normal(size=OBS_DIM)
        m, _ = policy.forward_mean(obs)
        eps = 1e-9
        a_grid = np.linspace(eps, A_MAX - eps, 40001)
        u_grid = policy.unsquash(a_grid)
        logp = policy.log_prob_from_mean(u_grid[:, None], m)
        total = np.trapezoid(np.exp(logp), a_grid)
        assert total == pytest.approx(1.0, abs=1e-3)


class TestParameters:
    def test_flat_round_trip(self):
        policy = small_policy(n_regions=2, seed=13)
        flat = policy.get_flat_params()
        other = small_policy(n_regions=2, seed=99)
        other.set_flat_params(flat)
        assert np.array_equal(other.get_flat_params(), flat)

    def test_flat_length_checked(self):
        policy = small_policy()
        with pytest.raises(ValueError):
            policy.set_flat_params(np.zeros(3))

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
        policy.norm_stats = NormalizationStats(mean=np.arange(4.0),
                                               std=np.ones(4) * 2.0)
        policy.config_hash = "abc123"
        path = tmp_path / "policy.npz"
        policy.save(path)
        back = load_policy(path)
        assert np.array_equal(back.get_flat_params(), policy.get_flat_params())
        assert back.a_max == policy.a_max
        assert back.hidden == policy.hidden
        assert back.config_hash == "abc123"
        assert np.array_equal(back.norm_stats.mean, policy.norm_stats.mean)
        assert np.array_equal(back.norm_stats.std, policy.norm_stats.std)
        obs = np.random.default_rng(6).normal(size=OBS_DIM)
        assert np.array_equal(back.mean_action(obs), policy.mean_action(obs))

    def test_round_trip_without_norm_stats(self, tmp_path):
        policy = small_policy(seed=15)
        path = tmp_path / "p.npz"
        policy.save(path)
        assert load_policy(path).norm_stats is None

    def test_unknown_format_version_rejected(self, tmp_path):
        policy = small_policy()
        policy.format_version = "0"
        path = tmp_path / "old.npz"
        policy.save(path)
        with pytest.raises(ValueError, match="format"):
            load_policy(path)


def test_constructor_validation():
    with pytest.raises(ValueError):
        SquashedGaussianPolicy(0, 1, A_MAX)
    with pytest.raises(ValueError):
        SquashedGaussianPolicy(OBS_DIM, 1, 0.0)
