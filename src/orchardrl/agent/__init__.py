"""PPO agent: numpy MLP policy, squashed-Gaussian action head, trainer."""
