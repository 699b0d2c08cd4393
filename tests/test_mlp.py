"""Hand-rolled MLP backpropagation against finite differences, plus Adam."""

import numpy as np
import pytest

from orchardrl.agent.mlp import AdamOptimizer, Mlp


def numerical_grads(net, X, target, h=1e-6):
    """Central finite differences of the scalar loss 0.5*sum((out-target)^2)."""
    def loss():
        out, _ = net.forward(X)
        return 0.5 * float(np.sum((out - target) ** 2))

    grad_w = [np.zeros_like(W) for W in net.weights]
    grad_b = [np.zeros_like(b) for b in net.biases]
    for arrs, grads in ((net.weights, grad_w), (net.biases, grad_b)):
        for arr, g in zip(arrs, grads):
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = loss()
                flat[k] = orig - h
                down = loss()
                flat[k] = orig
                gflat[k] = (up - down) / (2 * h)
    return grad_w, grad_b


class TestBackward:
    @pytest.mark.parametrize("sizes", [(3, 4, 2), (5, 8, 8, 1), (2, 2)])
    def test_matches_finite_differences(self, sizes):
        net = Mlp(sizes, seed=0)
        net.weights[-1] *= 100.0   # undo the near-zero final-layer start
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, sizes[0]))
        target = rng.normal(size=(6, sizes[-1]))
        out, acts = net.forward(X)
        grad_w, grad_b = net.backward(acts, out - target)
        num_w, num_b = numerical_grads(net, X, target)
        for a, n in zip(grad_w + grad_b, num_w + num_b):
            assert np.allclose(a, n, atol=1e-6), np.abs(a - n).max()

    def test_gradient_shapes_match_parameters(self):
        net = Mlp((4, 6, 3), seed=2)
        out, acts = net.forward(np.ones((5, 4)))
        grad_w, grad_b = net.backward(acts, np.ones_like(out))
        assert [g.shape for g in grad_w] == [W.shape for W in net.weights]
        assert [g.shape for g in grad_b] == [b.shape for b in net.biases]


class TestForward:
    def test_output_shape(self):
        net = Mlp((3, 5, 2), seed=0)
        out, acts = net.forward(np.zeros((7, 3)))
        assert out.shape == (7, 2)
        assert len(acts) == 3 and acts[0].shape == (7, 3)

    def test_single_sample_promoted_to_batch(self):
        net = Mlp((3, 5, 2), seed=0)
        out, _ = net.forward(np.zeros(3))
        assert out.shape == (1, 2)

    def test_zero_biases_at_init(self):
        net = Mlp((3, 5, 2), seed=0)
        assert all(np.all(b == 0.0) for b in net.biases)

    def test_final_layer_starts_small(self):
        net = Mlp((10, 64, 64, 4), seed=3)
        assert np.abs(net.weights[-1]).max() < 0.01
        assert np.abs(net.weights[0]).max() > 0.01

    def test_zero_input_zero_output_at_init(self):
        # biases are zero, so zero input propagates to (near) zero output
        net = Mlp((3, 5, 2), seed=4)
        out, _ = net.forward(np.zeros((1, 3)))
        assert np.allclose(out, 0.0)

    def test_deterministic_init(self):
        a = Mlp((4, 8, 2), seed=9)
        b = Mlp((4, 8, 2), seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_size_validation(self):
        with pytest.raises(ValueError):
            Mlp((3,))
        with pytest.raises(ValueError):
            Mlp((3, 0, 2))


class TestAdam:
    def test_first_step_magnitude(self):
        # bias correction makes the first step ~ lr * sign(gradient)
        p = [np.array([1.0])]
        opt = AdamOptimizer(p, lr=0.01)
        opt.step(p, [np.array([3.7])])
        assert p[0][0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_descends_a_quadratic(self):
        p = [np.array([5.0])]
        opt = AdamOptimizer(p, lr=0.1)
        for _ in range(500):
            opt.step(p, [2.0 * p[0]])
        assert abs(p[0][0]) < 0.05

    def test_updates_in_place(self):
        arr = np.array([1.0, 2.0])
        p = [arr]
        AdamOptimizer(p, lr=0.01).step(p, [np.ones(2)])
        assert arr is p[0]
        assert not np.array_equal(arr, np.array([1.0, 2.0]))

    def test_structure_change_rejected(self):
        p = [np.zeros(3)]
        opt = AdamOptimizer(p)
        with pytest.raises(ValueError):
            opt.step(p + [np.zeros(2)], [np.zeros(3), np.zeros(2)])

    def test_learning_rate_validated(self):
        with pytest.raises(ValueError):
            AdamOptimizer([np.zeros(1)], lr=0.0)

    def test_default_rate_is_the_published_recipe(self):
        assert AdamOptimizer([np.zeros(1)]).lr == 0.01
