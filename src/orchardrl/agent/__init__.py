"""PPO agent: numpy MLP policy, squashed-Gaussian action head, trainer."""

from .mlp import AdamOptimizer, Mlp
from .policy import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    SquashedGaussianPolicy,
    load_policy,
)
from .ppo import (
    RolloutBatch,
    TrainerConfig,
    TrainingDiverged,
    finite_difference_gradient,
    gradient_check,
    normalized_advantages,
    ppo_loss,
    ppo_loss_and_grads,
    returns_to_go,
    train,
    write_training_curve,
)

__all__ = [
    "AdamOptimizer",
    "Mlp",
    "LOG_STD_MAX",
    "LOG_STD_MIN",
    "SquashedGaussianPolicy",
    "load_policy",
    "RolloutBatch",
    "TrainerConfig",
    "TrainingDiverged",
    "finite_difference_gradient",
    "gradient_check",
    "normalized_advantages",
    "ppo_loss",
    "ppo_loss_and_grads",
    "returns_to_go",
    "train",
    "write_training_curve",
]
