"""Minimal numpy multilayer perceptron with hand-rolled backpropagation.

Hidden layers use tanh; the output layer is linear.  Weights initialize at
fan-in scale and the final layer starts near zero so downstream squashing
lands mid-range.  The backward pass returns gradients in the same structure
as the parameters; correctness is validated against finite differences in
the test suite.
"""

from __future__ import annotations

import math

import numpy as np


class Mlp:
    """Fully connected network: sizes = (n_in, hidden..., n_out)."""

    def __init__(self, sizes: tuple[int, ...], seed: int | None = None):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(s < 1 for s in sizes):
            raise ValueError("layer sizes must be positive")
        rng = np.random.default_rng(seed)
        self.sizes = tuple(sizes)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        n_layers = len(sizes) - 1
        for i in range(n_layers):
            scale = 1.0 / math.sqrt(sizes[i])
            W = rng.normal(0.0, scale, size=(sizes[i], sizes[i + 1]))
            if i == n_layers - 1:
                W *= 0.01
            self.weights.append(W)
            self.biases.append(np.zeros(sizes[i + 1]))

    def forward(self, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Batched forward pass; returns output and the per-layer
        activations needed by backward (input first, output last)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        activations = [X]
        h = X
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ W + b
            h = z if i == last else np.tanh(z)
            activations.append(h)
        return h, activations

    def backward(self, activations: list[np.ndarray],
                 grad_out: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Backpropagate d(loss)/d(output) to parameter gradients.

        activations must come from the forward() that produced the output;
        grad_out has the output's shape.
        """
        grad_w: list[np.ndarray] = []
        grad_b: list[np.ndarray] = []
        g = np.atleast_2d(np.asarray(grad_out, dtype=float))
        for i in range(len(self.weights) - 1, -1, -1):
            grad_w.append(activations[i].T @ g)
            grad_b.append(g.sum(axis=0))
            if i > 0:
                # activations[i] is tanh(z_i) for hidden layers
                g = (g @ self.weights[i].T) * (1.0 - activations[i] ** 2)
        # collected output layer first; return them in parameter order
        grad_w.reverse()
        grad_b.reverse()
        return grad_w, grad_b


class AdamOptimizer:
    """First-order adaptive moment estimation over a list of arrays."""

    def __init__(self, params: list[np.ndarray], lr: float = 0.01,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Update params in place with one Adam step."""
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError("parameter/gradient structure changed")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
