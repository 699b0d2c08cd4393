"""Squashed-Gaussian irrigation policy.

The network maps a normalized observation to per-region pre-squash means; a
state-independent learned log-std vector sets exploration.  Every trainable
value lives in one flat vector, params: the network's weights and biases and
the log-std are views of it, in the order W0, b0, W1, b1, ..., log_std, so
the optimizer takes one step over all of them.  Samples map to
valid irrigation depths through an affine tanh squash onto [0, a_max], and
log-probabilities carry the corresponding change-of-variables correction.
Deployment acts on the network mean, for one policy (mean_action) or one
row of each of k stacked policies (PolicyStack), through the same
Mlp.forward as training.  Snapshots persist to a versioned .npz with the
normalization statistics, a config hash and the software environment
embedded.
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np

from ..env import N_MONTHS, NormalizationStats
from ..software import software_environment
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
                 hidden: tuple[int, ...] = (64, 64), seed: int | None = None,
                 init_log_std: float = math.log(0.5)):
        self._allocate(obs_dim, n_regions, a_max, hidden)
        self.net.initialize(seed)
        self.log_std[:] = float(np.clip(init_log_std, LOG_STD_MIN, LOG_STD_MAX))

    def _allocate(self, obs_dim: int, n_regions: int, a_max: float,
                  hidden: tuple[int, ...]) -> None:
        """Set the shape and an uninitialized parameter vector; __init__
        draws the starting values, load_policy reads them from a file."""
        if obs_dim < 1 or n_regions < 1:
            raise ValueError("obs_dim and n_regions must be positive")
        if a_max <= 0:
            raise ValueError("a_max must be positive")
        self.obs_dim = obs_dim
        self.n_regions = n_regions
        self.a_max = a_max
        self.hidden = tuple(hidden)
        sizes = (obs_dim, *self.hidden, n_regions)
        self._bind(np.empty(Mlp.parameter_count(sizes) + n_regions))
        self.norm_stats: NormalizationStats | None = None
        self.config_hash = ""

    def _bind(self, params: np.ndarray) -> None:
        """Make params the parameter vector: the network's layers and the
        log-std become views of it."""
        self.params = params
        self.net = Mlp((self.obs_dim, *self.hidden, self.n_regions),
                       params[:-self.n_regions])
        self.log_std = params[-self.n_regions:]

    # -- parameters --------------------------------------------------------

    @property
    def parameter_count(self) -> int:
        return self.params.size

    def __deepcopy__(self, memo) -> "SquashedGaussianPolicy":
        """A copy whose network and log-std are views of its own parameter
        vector (a plain deepcopy would give each view an array of its own,
        so training the copy's params would leave its network unchanged)."""
        clone = copy.copy(self)
        memo[id(self)] = clone
        clone._bind(self.params.copy())
        clone.norm_stats = copy.deepcopy(self.norm_stats, memo)
        return clone

    def clamp_log_std(self) -> None:
        np.clip(self.log_std, LOG_STD_MIN, LOG_STD_MAX, out=self.log_std)

    # -- distribution ------------------------------------------------------

    def squash(self, u: np.ndarray) -> np.ndarray:
        return self.a_max * 0.5 * (np.tanh(u) + 1.0)

    def forward_mean(self, obs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Batched pre-squash means plus the backprop cache."""
        return self.net.forward(np.atleast_2d(np.asarray(obs, dtype=float)))

    def mean_action(self, obs: np.ndarray) -> np.ndarray:
        """Deterministic deployment action for one normalized observation
        row: the squashed network mean, as a one-slice stack."""
        m, _ = self.net.forward(np.asarray(obs, dtype=float)[None, None])
        return self.squash(m[0, 0])

    def squash_log_jacobian(self, u: np.ndarray) -> np.ndarray:
        """Elementwise log of the squash's derivative at pre-squash samples
        u: the change-of-variables term of their log-density.  A rollout
        computes it once per sample and keeps it with the sample."""
        return math.log(self.a_max / 2.0) + _log1m_tanh_sq(u)

    def log_prob(self, z_sq: np.ndarray, log_jac: np.ndarray) -> np.ndarray:
        """Per-sample log-density of (B, n_regions) pre-squash samples u
        from their squared standardized residuals z_sq = ((u - m) / sigma)**2
        under means m, and their squash_log_jacobian(u)."""
        out = z_sq * -0.5
        out -= self.log_std
        out -= _HALF_LOG_2PI
        out -= log_jac
        return out.sum(axis=1)

    def sample(self, obs: np.ndarray, rng: np.random.Generator
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Draw actions for a (B, obs_dim) batch of observations.

        Returns the (B, n_regions) actions and pre-squash samples, the (B,)
        log-probs and the (B, n_regions) squash log-Jacobians, from one
        standard-normal draw shaped like the means.  The pre-squash sample
        and its log-Jacobian are what rollout storage keeps, so later ratio
        computations evaluate the exact same point.
        """
        m, _ = self.forward_mean(obs)
        sigma = np.exp(self.log_std)
        u = m + sigma * rng.standard_normal(m.shape)
        z = (u - m) / sigma
        log_jac = self.squash_log_jacobian(u)
        return self.squash(u), u, self.log_prob(z ** 2, log_jac), log_jac

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        meta = {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "config_hash": self.config_hash,
            "obs_dim": self.obs_dim,
            "n_regions": self.n_regions,
            "a_max": self.a_max,
            "hidden": list(self.hidden),
            "software": software_environment(),
        }
        arrays: dict[str, np.ndarray] = {"meta": np.array(json.dumps(meta))}
        for i, (W, b) in enumerate(zip(self.net.weights, self.net.biases)):
            arrays[f"w{i}"] = W
            arrays[f"b{i}"] = b
        arrays["log_std"] = self.log_std
        arrays["norm_mean"] = self.norm_stats.mean
        arrays["norm_std"] = self.norm_stats.std
        np.savez(path, **arrays)


class PolicyStack:
    """Policies of one network architecture, deployed together: one Mlp
    over a copy of their stacked parameters, so one mean_actions call
    decides a raw observation row for each of them."""

    def __init__(self, policies: list[SquashedGaussianPolicy]):
        self.net = Mlp(policies[0].net.sizes,
                       np.stack([p.params[:-p.n_regions] for p in policies]))
        # numpy adds a strided (k, 1, n) bias view through its general loop,
        # about a microsecond slower per layer than a contiguous copy
        self.net.biases = [b.copy() for b in self.net.biases]
        self.norm_stats = NormalizationStats(
            mean=np.stack([p.norm_stats.mean for p in policies]),
            std=np.stack([p.norm_stats.std for p in policies]))
        self.half_a_max = np.array([[p.a_max * 0.5] for p in policies])

    def mean_actions(self, rows: np.ndarray) -> np.ndarray:
        """(k, n_regions) deployment actions: row j of rows, normalized
        with policy j's statistics, bit for bit policy j's mean_action."""
        m, _ = self.net.forward(self.norm_stats.apply(rows)[:, None])
        return self.half_a_max * (np.tanh(m[:, 0]) + 1.0)


def load_policy(path) -> SquashedGaussianPolicy:
    """Rebuild a policy from a snapshot written by save().

    Raises ValueError on an unknown format, and one naming the file when
    the snapshot lacks normalization statistics or one of its arrays does
    not have the shape its metadata implies: the statistics cover every
    column but the N_MONTHS month one-hot ones, obs_dim - N_MONTHS.
    """
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("format_version") != SNAPSHOT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported snapshot format {meta.get('format_version')!r}"
            )
        if "norm_mean" not in data or "norm_std" not in data:
            raise ValueError(f"{path}: snapshot has no normalization statistics")
        # every parameter is read from the file below, so none is drawn
        policy = SquashedGaussianPolicy.__new__(SquashedGaussianPolicy)
        policy._allocate(obs_dim=int(meta["obs_dim"]),
                         n_regions=int(meta["n_regions"]),
                         a_max=float(meta["a_max"]),
                         hidden=tuple(int(h) for h in meta["hidden"]))
        policy.config_hash = meta.get("config_hash", "")
        n_continuous = max(policy.obs_dim - N_MONTHS, 0)
        targets = {"log_std": policy.log_std,
                   "norm_mean": np.empty(n_continuous),
                   "norm_std": np.empty(n_continuous)}
        for i, (W, b) in enumerate(zip(policy.net.weights, policy.net.biases)):
            targets[f"w{i}"] = W
            targets[f"b{i}"] = b
        for key, target in targets.items():
            stored = data[key]
            if stored.shape != target.shape:
                raise ValueError(f"{path}: {key} has shape {stored.shape}, "
                                 f"expected {target.shape}")
            target[...] = stored
        policy.norm_stats = NormalizationStats(mean=targets["norm_mean"],
                                               std=targets["norm_std"])
    return policy
