"""Learned irrigation control for tree orchards.

Simulated root-zone water balance, a PPO irrigation agent, classical
baseline controllers, a predictor-based safety shield, and a season-long
evaluation harness with a CLI.
"""

__version__ = "0.1.0"
