"""Minimal numpy multilayer perceptron with hand-rolled backpropagation.

Hidden layers use tanh; the output layer is linear.  Weights initialize at
fan-in scale and the final layer starts near zero so downstream squashing
lands mid-range.  The layers' weights and biases are views of one flat
parameter vector (W0, b0, W1, b1, ...) owned by the caller, and the backward
pass writes its gradients into a flat vector with the same layout, so an
optimizer steps every parameter with one vectorized update.  Over a stack
of k such vectors, forward runs k networks in one pass; it is the one
forward of training and of lone and stacked deployment.  Correctness is
validated against finite differences in the test suite.
"""

from __future__ import annotations

import math

import numpy as np


class Mlp:
    """Fully connected network: sizes = (n_in, hidden..., n_out), its
    parameters the views of a flat vector of length parameter_count(sizes)
    or of a (k, that length) stack of k networks' vectors.

    Construction only lays the layers over the vector; initialize draws
    their starting values, and a network rebuilt from stored values skips it.
    """

    def __init__(self, sizes: tuple[int, ...], params: np.ndarray):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(s < 1 for s in sizes):
            raise ValueError("layer sizes must be positive")
        self.sizes = tuple(sizes)
        self.weights, self.biases = self.layer_views(params)

    def initialize(self, seed: int | None = None) -> None:
        """Draw fan-in-scaled normal weights from default_rng(seed), the
        output layer's shrunk 100-fold, and zero every bias."""
        rng = np.random.default_rng(seed)
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            # rng.normal(0, scale) drawn in place: numpy forms it as scale * z
            rng.standard_normal(out=W)
            W *= 1.0 / math.sqrt(self.sizes[i])
            if i == last:
                W *= 0.01
            b[...] = 0.0

    @staticmethod
    def parameter_count(sizes: tuple[int, ...]) -> int:
        return sum((n_in + 1) * n_out for n_in, n_out in zip(sizes[:-1], sizes[1:]))

    def layer_views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views of a flat vector laid out like
        the parameters, or (k, n_in, n_out) and (k, 1, n_out) ones of a stack."""
        if flat.ndim not in (1, 2) or flat.shape[-1] != self.parameter_count(self.sizes):
            raise ValueError(f"flat vector of shape {flat.shape} does not fit "
                             f"layer sizes {self.sizes}")
        stack = flat.shape[:-1]
        weights: list[np.ndarray] = []
        biases: list[np.ndarray] = []
        offset = 0
        for n_in, n_out in zip(self.sizes[:-1], self.sizes[1:]):
            weights.append(flat[..., offset:offset + n_in * n_out]
                           .reshape(*stack, n_in, n_out))
            offset += n_in * n_out
            b = flat[..., offset:offset + n_out]
            biases.append(b[:, None] if stack else b)
            offset += n_out
        return weights, biases

    def forward(self, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Forward pass over a (rows, n_in) batch, or a (k, rows, n_in) one
        through a stack (slice j through network j); returns output and the
        per-layer activations needed by backward (input first, output last).
        numpy runs every one-row slice of a layer's matmul as the product it
        runs for a lone row, so a row has the same bits alone or stacked."""
        if X.shape[-1] != self.sizes[0]:
            raise ValueError(f"observation dimension {X.shape[-1]} != {self.sizes[0]}")
        activations = [X]
        h = X
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            # bias and tanh in place on the fresh product: the values of
            # h @ W + b and tanh of it, without two temporaries per layer
            h = h @ W
            h += b
            if i != last:
                np.tanh(h, out=h)
            activations.append(h)
        if not np.isfinite(h).all():
            raise ValueError("non-finite network output (diverged parameters?)")
        return h, activations

    def backward(self, activations: list[np.ndarray], grad_out: np.ndarray,
                 grad: np.ndarray) -> None:
        """Backpropagate d(loss)/d(output) into grad, a flat vector laid out
        like the parameters.

        activations must come from the forward() that produced the output;
        grad_out has the output's shape.
        """
        grad_w, grad_b = self.layer_views(grad)
        g = grad_out
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(activations[i].T, g, out=grad_w[i])
            g.sum(axis=0, out=grad_b[i])
            if i > 0:
                # activations[i] is tanh(z_i) for hidden layers; 1 - a**2
                # and the product are formed in place
                d_tanh = np.square(activations[i])
                np.subtract(1.0, d_tanh, out=d_tanh)
                g = g @ self.weights[i].T
                g *= d_tanh


class AdamOptimizer:
    """First-order adaptive moment estimation over one flat parameter
    vector, stepped with one vectorized update into preallocated scratch."""

    def __init__(self, params: np.ndarray, lr: float = 0.01,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = (np.empty_like(params), np.empty_like(params))

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """Update params in place with one Adam step.

        Each element goes through m = b1*m + (1-b1)*g,
        v = b2*v + ((1-b2)*g)*g and p -= lr*(m/b1t) / (sqrt(v/b2t) + eps)
        in that order, so the result does not depend on how the
        parameters are laid out.
        """
        if params.shape != self.m.shape or grad.shape != self.m.shape:
            raise ValueError(f"parameter/gradient shapes {params.shape}/"
                             f"{grad.shape} differ from {self.m.shape}")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        num, den = self._scratch
        self.m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=num)
        self.m += num
        self.v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=num)
        num *= grad
        self.v += num
        np.divide(self.m, b1t, out=num)
        num *= self.lr
        np.divide(self.v, b2t, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        num /= den
        params -= num
