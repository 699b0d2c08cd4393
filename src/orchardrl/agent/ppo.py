"""Clipped-surrogate policy optimization with Monte Carlo returns.

Rollouts run in lockstep: every iteration's episodes advance one day at a
time through a vectorized environment, so each day costs one batched policy
forward and one array step of the water balance for all of them (the N
parallel actors of Schulman et al. 2017).

The objective is the clipped importance-weighted surrogate

    loss = -mean_b min(w_b * A_b, clip(w_b, 1-eps, 1+eps) * A_b)

with w the probability ratio of the current policy to the data-collecting
policy and A the advantage of each step.  The trainer's advantage is the
discounted return-to-go minus a per-day baseline, the batch mean return at
the same day index over the iteration's episodes, then normalized per batch
to zero mean and unit std.  Every episode has the same length and every
daily reward is negative, so without the baseline the advantage would mostly
encode how many days remain rather than which action was taken (Schulman et
al. 2016 subtract a baseline for the same reason).  Gradients are
hand-derived and validated against central finite differences.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ..env import N_MONTHS, IrrigationEnv, NormalizationStats, reward
from .mlp import AdamOptimizer
from .policy import SquashedGaussianPolicy


def returns_to_go(rewards, gamma: float) -> np.ndarray:
    """Discounted suffix sums of rewards along axis 0 (backward recursion):
    one episode, or one episode per column of a (days, episodes) array."""
    r = np.asarray(rewards, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("rewards must be finite")
    out = np.empty_like(r)
    acc = 0.0
    for t in range(len(r) - 1, -1, -1):
        acc = r[t] + gamma * acc
        out[t] = acc
    return out


def normalized_advantages(returns: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Zero-mean unit-std rescaling of (possibly baselined) returns-to-go.

    A constant batch normalizes to all zeros (no preferred direction).
    """
    r = np.asarray(returns, dtype=float)
    std = r.std()
    if std < eps:
        return np.zeros_like(r)
    return (r - r.mean()) / (std + eps)


@dataclass
class RolloutBatch:
    """Flattened rollout data collected under a frozen policy.

    pre_squash holds the raw Gaussian samples and log_jac their squash
    log-Jacobians, so the collecting policy's density can be re-evaluated
    exactly; old_log_prob was computed at collection time; returns are raw
    (unnormalized) returns-to-go.
    """

    obs: np.ndarray          # (B, obs_dim) normalized observations
    pre_squash: np.ndarray   # (B, n_regions)
    log_jac: np.ndarray      # (B, n_regions) policy.squash_log_jacobian(pre_squash)
    old_log_prob: np.ndarray  # (B,)
    returns: np.ndarray      # (B,)

    def __post_init__(self) -> None:
        n = len(self.obs)
        if n == 0:
            raise ValueError("batch must be non-empty")
        for name in ("pre_squash", "log_jac", "old_log_prob", "returns"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length differs from obs")
        if not np.all(np.isfinite(self.old_log_prob)):
            raise ValueError("old log-probabilities must be finite")

    def __len__(self) -> int:
        return len(self.obs)

    def subset(self, idx: np.ndarray | slice) -> "RolloutBatch":
        """Rows idx: an index array copies them, a slice views them.  They
        are rows of this checked batch, so they are not checked again."""
        rows = object.__new__(RolloutBatch)
        rows.obs = self.obs[idx]
        rows.pre_squash = self.pre_squash[idx]
        rows.log_jac = self.log_jac[idx]
        rows.old_log_prob = self.old_log_prob[idx]
        rows.returns = self.returns[idx]
        return rows


def _surrogate_terms(policy: SquashedGaussianPolicy, batch: RolloutBatch,
                     epsilon: float, advantages: np.ndarray):
    """Shared forward computation for loss and gradients, each term formed
    once: the means and their backprop cache, the log-probs, the ratios,
    both surrogate branches, sigma, the standardized residuals z and z**2,
    and the loss."""
    m, cache = policy.forward_mean(batch.obs)
    sigma = np.exp(policy.log_std)
    z = (batch.pre_squash - m) / sigma
    z_sq = z ** 2
    logp = policy.log_prob(z_sq, batch.log_jac)
    ratio = np.exp(logp - batch.old_log_prob)
    clipped = np.clip(ratio, 1.0 - epsilon, 1.0 + epsilon)
    s_plain = ratio * advantages
    s_clip = clipped * advantages
    surrogate = np.minimum(s_plain, s_clip)
    loss = -float(surrogate.mean())
    return m, cache, logp, ratio, s_plain, s_clip, sigma, z, z_sq, loss


def ppo_loss(batch: RolloutBatch, policy: SquashedGaussianPolicy,
             epsilon: float, advantages: np.ndarray) -> float:
    """Clipped-surrogate loss on a batch, one advantage per row.  When
    minibatching, the advantages are normalized over the full collection
    batch, not the minibatch."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    *_, loss = _surrogate_terms(policy, batch, epsilon,
                                np.asarray(advantages, dtype=float))
    return loss


def ppo_loss_and_grads(batch: RolloutBatch, policy: SquashedGaussianPolicy,
                       epsilon: float, advantages: np.ndarray
                       ) -> tuple[float, np.ndarray]:
    """Loss plus its analytic gradient, a flat vector laid out like
    policy.params.

    Per sample the surrogate is min(w*A, clip(w)*A); its derivative w.r.t.
    w is A on the unclipped branch and 0 once the clipped branch is strictly
    smaller (ties take the unclipped branch).  d w / d log pi = w, and the
    Gaussian head gives d log pi / d mean = z / sigma and
    d log pi / d log_std = z^2 - 1 with z the standardized residual.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    adv = np.asarray(advantages, dtype=float)
    _, cache, _, ratio, s_plain, s_clip, sigma, z, z_sq, loss = \
        _surrogate_terms(policy, batch, epsilon, adv)

    B = len(batch)
    dsurr_dratio = np.where(s_plain <= s_clip, adv, 0.0)
    dloss_dlogp = -(dsurr_dratio * ratio) / B
    dloss_dlogp = dloss_dlogp[:, None]

    # log pi depends on the mean through the Gaussian term only; the
    # residual arrays are not needed again, so they take the results
    grad_mean = z
    grad_mean /= sigma
    grad_mean *= dloss_dlogp

    grad = np.empty_like(policy.params)
    k = grad.size - policy.n_regions
    z_sq -= 1.0
    z_sq *= dloss_dlogp
    z_sq.sum(axis=0, out=grad[k:])
    policy.net.backward(cache, grad_mean, grad[:k])
    return loss, grad


def finite_difference_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function at x."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for k in range(x.size):
        bump = np.zeros_like(x)
        bump[k] = h
        g[k] = (f(x + bump) - f(x - bump)) / (2.0 * h)
    return g


GRADIENT_CHECK_MAX_PARAMS = 100


def gradient_check(policy: SquashedGaussianPolicy, batch: RolloutBatch,
                   epsilon: float = 0.3, h: float = 1e-5) -> float:
    """Max relative error between analytic and finite-difference gradients.

    Only tractable (and only allowed) for small policies; the relative error
    denominator is floored so that zero-gradient coordinates compare exactly.
    """
    if policy.parameter_count > GRADIENT_CHECK_MAX_PARAMS:
        raise ValueError(
            f"gradient_check is limited to {GRADIENT_CHECK_MAX_PARAMS} parameters "
            f"(got {policy.parameter_count})"
        )
    adv = normalized_advantages(batch.returns)
    theta0 = policy.params.copy()

    def loss_at(theta: np.ndarray) -> float:
        policy.params[:] = theta
        return ppo_loss(batch, policy, epsilon, advantages=adv)

    try:
        _, analytic = ppo_loss_and_grads(batch, policy, epsilon, advantages=adv)
        numeric = finite_difference_gradient(loss_at, theta0, h=h)
    finally:
        policy.params[:] = theta0

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    err = np.abs(analytic - numeric) / denom
    err[(np.abs(analytic) < 1e-12) & (np.abs(numeric) < 1e-12)] = 0.0
    return float(err.max())


@dataclass(frozen=True)
class TrainerConfig:
    """Training-loop settings.

    learning_rate defaults to 1e-3, not the optimizer class's 1e-2: the
    adaptive optimizer's per-coordinate step is scale-invariant in the
    gradient, so with only a per-day return baseline (no learned value) the
    larger rate turns each iteration into a near-random jump and log_std
    grows instead of the reward (checked by sweeping rate x batch on the
    default environment).  episodes_per_iteration is the number of episodes
    the rollout steps in lockstep; it keeps the collection batch
    (episodes_per_iteration * episode_length samples) comfortably above
    minibatch_size.  episode_length is the length of the training
    environment's episodes: the caller builds that environment with it
    (evalharness.train_policy_for_run), and train reads the length from the
    environment it is given.

    hidden defaults to two 64-unit layers.  The policy maps a few dozen
    inputs (26 at two regions) to one dose per region; at 64x64 every seed
    swept converged with no measurement-setting stress days, as at 256x256,
    while an iteration's update cost about an eighth as much
    (BENCH_seeds.json records the sweep).
    """

    learning_rate: float = 0.001
    gamma: float = 0.99
    clip_epsilon: float = 0.3
    minibatch_size: int = 128
    max_iterations: int = 1000
    episodes_per_iteration: int = 32
    episode_length: int = 30
    convergence_band: float = 0.03
    convergence_window: int = 25
    convergence_patience: int = 3
    epochs: int = 4
    hidden: tuple[int, ...] = (64, 64)
    init_log_std: float = math.log(0.5)
    warmup_episodes: int = 16

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")
        if self.clip_epsilon <= 0:
            raise ValueError("clip_epsilon must be positive")
        if self.minibatch_size < 1:
            raise ValueError("minibatch_size must be >= 1")
        if (self.episodes_per_iteration < 1 or self.max_iterations < 1
                or self.episode_length < 1):
            raise ValueError("episodes_per_iteration, max_iterations, "
                             "episode_length must be >= 1")
        if self.convergence_window < 1 or not 0 < self.convergence_band < 1:
            raise ValueError("bad convergence settings")
        if self.convergence_patience < 1:
            raise ValueError("convergence_patience must be >= 1")
        if self.epochs < 1 or self.warmup_episodes < 1:
            raise ValueError("epochs and warmup_episodes must be >= 1")


@dataclass
class CurvePoint:
    """One training iteration: the mean episode reward, the last minibatch
    loss and the exploration log-std after the update, plus where the
    iteration's time went (wall-clock, so left out of equality)."""

    iteration: int
    total_reward: float
    loss: float
    log_std: tuple[float, ...] = ()
    rollout_s: float = field(default=0.0, compare=False)
    update_s: float = field(default=0.0, compare=False)
    env_steps_per_s: float = field(default=0.0, compare=False)


class TrainingDiverged(RuntimeError):
    """Raised on a non-finite loss; carries the curve so far for diagnosis."""

    def __init__(self, message: str, curve: list[CurvePoint]):
        super().__init__(message)
        self.curve = curve


def _converged(totals: list[float], window: int, band: float) -> bool:
    """Mean episode reward of the last window vs the window before it."""
    if len(totals) < 2 * window:
        return False
    cur = float(np.mean(totals[-window:]))
    prev = float(np.mean(totals[-2 * window:-window]))
    if prev == 0.0:
        return abs(cur) < 1e-12
    return abs(cur - prev) <= band * abs(prev)


def _collect_normalization_stats(env: IrrigationEnv, config: TrainerConfig,
                                 rng: np.random.Generator) -> NormalizationStats:
    """Freeze observation statistics from random-action warmup episodes.

    Each episode draws its reset seed and then its whole action sequence, and
    the samples are pooled episode by episode.
    """
    cfg = env.config
    seeds, actions = [], []
    for _ in range(config.warmup_episodes):
        seeds.append(int(rng.integers(2 ** 32)))
        actions.append(rng.uniform(0.0, cfg.plant.a_max,
                                   size=(cfg.episode_length, len(cfg.dynamics))))
    actions = np.stack(actions, axis=1)    # (days, episodes, n_regions)
    samples = [env.reset(seeds)]
    for a in actions:
        samples.append(env.step(a))
    n_continuous = cfg.obs_dim - N_MONTHS   # month one-hot stays raw
    episode_major = np.stack(samples, axis=1).reshape(-1, cfg.obs_dim)
    return NormalizationStats.from_samples(episode_major, n_continuous)


def _rollout(env: IrrigationEnv, policy: SquashedGaussianPolicy,
             config: TrainerConfig, rng: np.random.Generator
             ) -> tuple[RolloutBatch, np.ndarray, np.ndarray]:
    """Run episodes_per_iteration episodes in lockstep under the frozen
    policy, scoring each day with reward() on the environment's next-day
    soil water and applied depths.

    Returns the batch (rows grouped by episode, days in order), the raw
    returns-to-go as an (episodes, days) array, and each episode's total
    reward.
    """
    cfg = env.config
    E, L = config.episodes_per_iteration, cfg.episode_length
    raw = env.reset(rng.integers(2 ** 32, size=E))
    obs = np.empty((L, E, cfg.obs_dim))
    pre_squash = np.empty((L, E, len(cfg.dynamics)))
    log_jac = np.empty_like(pre_squash)
    logp = np.empty((L, E))
    rewards = np.empty((L, E))
    for t in range(L):
        obs[t] = policy.norm_stats.apply(raw)
        a, pre_squash[t], logp[t], log_jac[t] = policy.sample(obs[t], rng)
        raw = env.step(a)
        rewards[t] = reward(env.v, env.a, cfg.levels, cfg.reward)

    def by_episode(x: np.ndarray) -> np.ndarray:
        return x.swapaxes(0, 1).reshape(E * L, *x.shape[2:])

    returns = returns_to_go(rewards, config.gamma).T
    batch = RolloutBatch(obs=by_episode(obs), pre_squash=by_episode(pre_squash),
                         log_jac=by_episode(log_jac),
                         old_log_prob=by_episode(logp), returns=returns.ravel())
    return batch, returns, rewards.sum(axis=0)


def train(config: TrainerConfig, env: IrrigationEnv, seed: int
          ) -> tuple[SquashedGaussianPolicy, list[CurvePoint]]:
    """Optimize a policy against env, whose configuration sets the episode
    length, the reward and the plant; every reset draws each episode's
    start, initial soil water and noise from its own seed.

    Each iteration steps episodes_per_iteration episodes of env in lockstep
    under the frozen current parameters (one batched policy sample and one
    array env step per day), computes returns-to-go, subtracts the batch
    mean return at each day index as a baseline, normalizes the result into
    advantages, then takes minibatch surrogate steps.  Stops early once the
    mean episode reward of the last convergence_window iterations sits
    within convergence_band of the window before it for
    convergence_patience consecutive iterations (episode totals are noisy,
    so a single window pass is not trusted).
    Fully deterministic for a fixed (seed, config, env).
    """
    rng = np.random.default_rng(seed)
    env_cfg = env.config

    stats = _collect_normalization_stats(env, config, rng)
    policy = SquashedGaussianPolicy(
        obs_dim=env_cfg.obs_dim, n_regions=len(env_cfg.dynamics),
        a_max=env_cfg.plant.a_max, hidden=config.hidden,
        seed=int(rng.integers(2 ** 32)), init_log_std=config.init_log_std)
    policy.norm_stats = stats
    optimizer = AdamOptimizer(policy.params, lr=config.learning_rate)

    curve: list[CurvePoint] = []
    totals: list[float] = []
    steady = 0
    for it in range(config.max_iterations):
        t0 = time.perf_counter()
        batch, returns, episode_totals = _rollout(env, policy, config, rng)
        t1 = time.perf_counter()
        advantages = normalized_advantages(
            (returns - returns.mean(axis=0)).ravel())
        total_reward = float(np.mean(episode_totals))

        loss_val = math.nan
        order = np.arange(len(batch))
        for _ in range(config.epochs):
            rng.shuffle(order)
            # one permuted copy per epoch; each minibatch is a contiguous
            # slice of it, the rows order[lo:hi] in that order
            shuffled, shuffled_adv = batch.subset(order), advantages[order]
            for lo in range(0, len(order), config.minibatch_size):
                rows = slice(lo, lo + config.minibatch_size)
                loss_val, grad = ppo_loss_and_grads(
                    shuffled.subset(rows), policy, config.clip_epsilon,
                    advantages=shuffled_adv[rows])
                if not math.isfinite(loss_val):
                    raise TrainingDiverged(
                        f"non-finite loss at iteration {it}", curve)
                optimizer.step(policy.params, grad)
                policy.clamp_log_std()

        t2 = time.perf_counter()
        curve.append(CurvePoint(iteration=it, total_reward=total_reward,
                                loss=loss_val,
                                log_std=tuple(policy.log_std.tolist()),
                                rollout_s=t1 - t0, update_s=t2 - t1,
                                env_steps_per_s=len(batch) / (t1 - t0)))
        totals.append(total_reward)
        if _converged(totals, config.convergence_window, config.convergence_band):
            steady += 1
            if steady >= config.convergence_patience:
                break
        else:
            steady = 0
    return policy, curve


def write_training_curve(path, curve: list[CurvePoint]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("iteration", "total_reward", "loss"))
        for pt in curve:
            writer.writerow((pt.iteration, repr(pt.total_reward), repr(pt.loss)))


def write_training_metrics(path, curve: list[CurvePoint]) -> None:
    """One JSON object per iteration holding every CurvePoint field;
    env_steps_per_s counts one episode-day as a step."""
    with open(path, "w") as fh:
        for pt in curve:
            fh.write(json.dumps(asdict(pt)) + "\n")
