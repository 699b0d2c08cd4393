"""Squashed-Gaussian irrigation policy.

The network maps a normalized observation to per-region pre-squash means; a
state-independent learned log-std vector sets exploration.  Samples map to
valid irrigation depths through an affine tanh squash onto [0, a_max], and
log-probabilities carry the corresponding change-of-variables correction.
Snapshots persist to a versioned .npz with the normalization statistics and
a config hash embedded.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ..env import NormalizationStats
from .mlp import Mlp

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0

SNAPSHOT_FORMAT_VERSION = "1"

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _log1m_tanh_sq(u: np.ndarray) -> np.ndarray:
    # log(1 - tanh(u)^2) without catastrophic cancellation at large |u|
    return math.log(4.0) - 2.0 * u - 2.0 * _softplus(-2.0 * u)


class SquashedGaussianPolicy:
    """Gaussian-in-pre-squash-space policy over [0, a_max]^n actions."""

    def __init__(self, obs_dim: int, n_regions: int, a_max: float,
                 hidden: tuple[int, ...] = (256, 256), seed: int | None = None,
                 init_log_std: float = math.log(0.5)):
        if obs_dim < 1 or n_regions < 1:
            raise ValueError("obs_dim and n_regions must be positive")
        if a_max <= 0:
            raise ValueError("a_max must be positive")
        self.obs_dim = obs_dim
        self.n_regions = n_regions
        self.a_max = a_max
        self.hidden = tuple(hidden)
        self.net = Mlp((obs_dim, *self.hidden, n_regions), seed=seed)
        self.log_std = np.full(n_regions, float(np.clip(init_log_std,
                                                        LOG_STD_MIN, LOG_STD_MAX)))
        self.norm_stats: NormalizationStats | None = None
        self.format_version = SNAPSHOT_FORMAT_VERSION
        self.config_hash = ""

    # -- parameter bookkeeping -------------------------------------------

    @property
    def param_arrays(self) -> list[np.ndarray]:
        """All trainable arrays, in a fixed order (log-std last)."""
        out: list[np.ndarray] = []
        for W, b in zip(self.net.weights, self.net.biases):
            out.extend((W, b))
        out.append(self.log_std)
        return out

    @property
    def parameter_count(self) -> int:
        return sum(p.size for p in self.param_arrays)

    def get_flat_params(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.param_arrays])

    def set_flat_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.parameter_count:
            raise ValueError("flat parameter vector has the wrong length")
        offset = 0
        for p in self.param_arrays:
            p[...] = flat[offset:offset + p.size].reshape(p.shape)
            offset += p.size

    def clamp_log_std(self) -> None:
        np.clip(self.log_std, LOG_STD_MIN, LOG_STD_MAX, out=self.log_std)

    # -- distribution ------------------------------------------------------

    def squash(self, u: np.ndarray) -> np.ndarray:
        return self.a_max * 0.5 * (np.tanh(u) + 1.0)

    def unsquash(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        if np.any(a <= 0) or np.any(a >= self.a_max):
            raise ValueError("squashed actions must lie strictly inside (0, a_max)")
        return np.arctanh(2.0 * a / self.a_max - 1.0)

    def forward_mean(self, obs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Batched pre-squash means plus the backprop cache."""
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        if obs.shape[1] != self.obs_dim:
            raise ValueError(f"observation dimension {obs.shape[1]} != {self.obs_dim}")
        m, cache = self.net.forward(obs)
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite network output (diverged parameters?)")
        return m, cache

    def mean_action(self, obs: np.ndarray) -> np.ndarray:
        """Deterministic deployment action: the squashed network mean."""
        m, _ = self.forward_mean(obs)
        return self.squash(m[0] if np.asarray(obs).ndim == 1 else m)

    def log_prob_from_mean(self, u: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Per-sample log-density of pre-squash samples u given means m,
        including the tanh-squash change-of-variables correction."""
        u = np.atleast_2d(u)
        m = np.atleast_2d(m)
        sigma = np.exp(self.log_std)
        z = (u - m) / sigma
        gauss = -0.5 * z ** 2 - self.log_std - _HALF_LOG_2PI
        jac = math.log(self.a_max / 2.0) + _log1m_tanh_sq(u)
        return np.sum(gauss - jac, axis=1)

    def log_prob(self, obs: np.ndarray, u: np.ndarray) -> np.ndarray:
        m, _ = self.forward_mean(obs)
        return self.log_prob_from_mean(np.atleast_2d(u), m)

    def sample(self, obs: np.ndarray, rng: np.random.Generator
               ) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
        """Draw actions for one observation or a (B, obs_dim) batch.

        Returns (action, pre_squash_sample, log_prob): for a 1-D observation
        an (n_regions,) action and sample and a float, for a batch (B,
        n_regions) arrays and (B,) log-probs.  The noise is one
        standard-normal draw shaped like the means, so a batch of one
        consumes the same stream as a single observation.  The pre-squash
        sample is what rollout storage keeps, so later ratio computations
        evaluate the exact same point.
        """
        m, _ = self.forward_mean(obs)
        sigma = np.exp(self.log_std)
        u = m + sigma * rng.standard_normal(m.shape)
        a = self.squash(u)
        logp = self.log_prob_from_mean(u, m)
        if np.ndim(obs) == 1:
            return a[0], u[0], float(logp[0])
        return a, u, logp

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        meta = {
            "format_version": self.format_version,
            "config_hash": self.config_hash,
            "obs_dim": self.obs_dim,
            "n_regions": self.n_regions,
            "a_max": self.a_max,
            "hidden": list(self.hidden),
        }
        arrays: dict[str, np.ndarray] = {"meta": np.array(json.dumps(meta))}
        for i, (W, b) in enumerate(zip(self.net.weights, self.net.biases)):
            arrays[f"w{i}"] = W
            arrays[f"b{i}"] = b
        arrays["log_std"] = self.log_std
        if self.norm_stats is not None:
            arrays["norm_mean"] = self.norm_stats.mean
            arrays["norm_std"] = self.norm_stats.std
        np.savez(path, **arrays)


def load_policy(path) -> SquashedGaussianPolicy:
    """Rebuild a policy from a snapshot written by save()."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("format_version") != SNAPSHOT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported snapshot format {meta.get('format_version')!r}"
            )
        policy = SquashedGaussianPolicy(
            obs_dim=int(meta["obs_dim"]),
            n_regions=int(meta["n_regions"]),
            a_max=float(meta["a_max"]),
            hidden=tuple(int(h) for h in meta["hidden"]),
            seed=0,
        )
        policy.config_hash = meta.get("config_hash", "")
        for i in range(len(policy.net.weights)):
            policy.net.weights[i] = np.array(data[f"w{i}"])
            policy.net.biases[i] = np.array(data[f"b{i}"])
        policy.log_std = np.array(data["log_std"])
        if "norm_mean" in data:
            policy.norm_stats = NormalizationStats(mean=np.array(data["norm_mean"]),
                                                   std=np.array(data["norm_std"]))
    return policy
