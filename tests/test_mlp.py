"""Hand-rolled MLP backpropagation against finite differences, plus Adam."""

import numpy as np
import pytest

from orchardrl.agent.mlp import AdamOptimizer, Mlp


def make_net(sizes, seed=None, params=None):
    if params is None:
        params = np.empty(Mlp.parameter_count(sizes))
    net = Mlp(sizes, params)
    net.initialize(seed)
    return net


def numerical_grads(net, params, X, target, h=1e-6):
    """Central finite differences of the scalar loss 0.5*sum((out-target)^2)
    over the flat vector params the network's layers are views of."""
    def loss():
        out, _ = net.forward(X)
        return 0.5 * float(np.sum((out - target) ** 2))

    grad = np.zeros_like(params)
    for k in range(params.size):
        orig = params[k]
        params[k] = orig + h
        up = loss()
        params[k] = orig - h
        down = loss()
        params[k] = orig
        grad[k] = (up - down) / (2 * h)
    return grad


class TestBackward:
    @pytest.mark.parametrize("sizes", [(3, 4, 2), (5, 8, 8, 1), (2, 2)])
    def test_matches_finite_differences(self, sizes):
        params = np.empty(Mlp.parameter_count(sizes))
        net = make_net(sizes, seed=0, params=params)
        net.weights[-1] *= 100.0   # undo the near-zero final-layer start
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, sizes[0]))
        target = rng.normal(size=(6, sizes[-1]))
        out, acts = net.forward(X)
        grad = np.empty_like(params)
        net.backward(acts, out - target, grad)
        num = numerical_grads(net, params, X, target)
        assert np.allclose(grad, num, atol=1e-6), np.abs(grad - num).max()

    def test_gradient_shapes_match_parameters(self):
        # the gradient of layer i's weights lands where W_i sits in params
        sizes = (4, 6, 3)
        params = np.empty(Mlp.parameter_count(sizes))
        net = make_net(sizes, seed=2, params=params)
        out, acts = net.forward(np.ones((5, 4)))
        grad = np.empty_like(params)
        net.backward(acts, np.ones_like(out), grad)
        grad_w, grad_b = net.layer_views(grad)
        assert np.array_equal(grad_w[-1], acts[-2].T @ np.ones_like(out))
        assert np.array_equal(grad_b[-1], np.full(3, 5.0))
        for view, W in zip(grad_w, net.weights):
            assert view.shape == W.shape
            assert (view.ctypes.data - grad.ctypes.data
                    == W.ctypes.data - params.ctypes.data)


class TestForward:
    def test_output_shape(self):
        net = make_net((3, 5, 2), seed=0)
        out, acts = net.forward(np.zeros((7, 3)))
        assert out.shape == (7, 2)
        assert len(acts) == 3 and acts[0].shape == (7, 3)

    def test_zero_biases_at_init(self):
        net = make_net((3, 5, 2), seed=0)
        assert all(np.all(b == 0.0) for b in net.biases)

    def test_final_layer_starts_small(self):
        net = make_net((10, 64, 64, 4), seed=3)
        assert np.abs(net.weights[-1]).max() < 0.01
        assert np.abs(net.weights[0]).max() > 0.01

    def test_zero_input_zero_output_at_init(self):
        # biases are zero, so zero input propagates to (near) zero output
        net = make_net((3, 5, 2), seed=4)
        out, _ = net.forward(np.zeros((1, 3)))
        assert np.allclose(out, 0.0)

    def test_deterministic_init(self):
        a = make_net((4, 8, 2), seed=9)
        b = make_net((4, 8, 2), seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_size_validation(self):
        with pytest.raises(ValueError):
            make_net((3,))
        with pytest.raises(ValueError):
            make_net((3, 0, 2))

    def test_input_width_checked(self):
        net = make_net((3, 5, 2), seed=0)
        with pytest.raises(ValueError, match="observation dimension 4 != 3"):
            net.forward(np.zeros((1, 4)))

    def test_non_finite_output_flagged(self):
        net = make_net((3, 5, 2), seed=0)
        net.biases[0][:] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            net.forward(np.zeros((1, 3)))


class TestStack:
    """k networks of one architecture as one Mlp over a (k, P) stack."""

    SIZES = (6, 32, 32, 3)

    @classmethod
    def nets_and_stack(cls, k=3):
        params = [np.empty(Mlp.parameter_count(cls.SIZES)) for _ in range(k)]
        nets = [make_net(cls.SIZES, seed=j, params=p) for j, p in enumerate(params)]
        for j, net in enumerate(nets):
            # live output layers and biases, so every layer shapes the output
            rng = np.random.default_rng(j)
            net.weights[-1][:] *= 100.0
            for b in net.biases:
                b[:] = rng.normal(size=b.shape)
        return nets, Mlp(cls.SIZES, np.stack(params))

    def test_slices_are_each_networks_layers(self):
        nets, stack = self.nets_and_stack()
        for i, (W, b) in enumerate(zip(stack.weights, stack.biases)):
            n_in, n_out = self.SIZES[i], self.SIZES[i + 1]
            assert W.shape == (3, n_in, n_out) and b.shape == (3, 1, n_out)
            for j, net in enumerate(nets):
                assert np.array_equal(W[j], net.weights[i])
                assert np.array_equal(b[j, 0], net.biases[i])

    def test_stacked_forward_is_each_networks_lone_row(self):
        nets, stack = self.nets_and_stack()
        X = np.random.default_rng(5).uniform(-3.0, 3.0, size=(3, 1, 6))
        out, acts = stack.forward(X)
        assert out.shape == (3, 1, 3) and len(acts) == 4
        for j, net in enumerate(nets):
            assert np.array_equal(out[j], net.forward(X[j])[0])

    def test_stacked_forward_checks(self):
        nets, stack = self.nets_and_stack()
        with pytest.raises(ValueError, match="observation dimension 5 != 6"):
            stack.forward(np.zeros((3, 1, 5)))
        stack.biases[-1][1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            stack.forward(np.zeros((3, 1, 6)))

    def test_stack_width_checked(self):
        with pytest.raises(ValueError, match="does not fit"):
            Mlp(self.SIZES, np.zeros((3, Mlp.parameter_count(self.SIZES) - 1)))


def per_array_adam(params, grads_per_step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference: the elementwise Adam formula applied array by array, as a
    list-of-arrays optimizer does."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        b1t = 1.0 - beta1 ** t
        b2t = 1.0 - beta2 ** t
        for p, g, mi, vi in zip(params, grads, m, v):
            mi *= beta1
            mi += (1.0 - beta1) * g
            vi *= beta2
            vi += (1.0 - beta2) * g * g
            p -= lr * (mi / b1t) / (np.sqrt(vi / b2t) + eps)
    return m, v


class TestAdam:
    def test_first_step_magnitude(self):
        # bias correction makes the first step ~ lr * sign(gradient)
        p = np.array([1.0])
        opt = AdamOptimizer(p, lr=0.01)
        opt.step(p, np.array([3.7]))
        assert p[0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_descends_a_quadratic(self):
        p = np.array([5.0])
        opt = AdamOptimizer(p, lr=0.1)
        for _ in range(500):
            opt.step(p, 2.0 * p)
        assert abs(p[0]) < 0.05

    def test_updates_in_place(self):
        params = np.array([1.0, 2.0])
        layer = params[1:]   # a view, as a policy's layers are
        AdamOptimizer(params, lr=0.01).step(params, np.ones(2))
        assert params[0] != 1.0
        assert layer[0] == params[1] != 2.0

    def test_structure_change_rejected(self):
        p = np.zeros(3)
        opt = AdamOptimizer(p)
        with pytest.raises(ValueError, match="shapes"):
            opt.step(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError, match="shapes"):
            opt.step(p, np.zeros(2))

    def test_flat_step_equals_per_array_reference(self):
        # one vectorized step over the flat vector is bit-identical to the
        # same formula applied to each array the vector is split into, in
        # the parameters and in both moments; parameters near zero keep a
        # last-bit change of an update visible
        rng = np.random.default_rng(0)
        shapes = [(5, 4), (4,), (4, 2), (2,), (2,)]
        sizes = [int(np.prod(s)) for s in shapes]
        bounds = list(zip(np.cumsum([0] + sizes[:-1]), np.cumsum(sizes), shapes))

        def split(flat):
            return [flat[lo:hi].reshape(s) for lo, hi, s in bounds]

        flat = rng.normal(size=sum(sizes)) * 1e-3
        reference = [p.copy() for p in split(flat)]
        grads = [rng.normal(size=flat.size) * 10.0 ** rng.integers(-6, 2)
                 for _ in range(20)]
        opt = AdamOptimizer(flat, lr=0.003)
        for g in grads:
            opt.step(flat, g)
        m, v = per_array_adam(reference, [split(g) for g in grads], lr=0.003)
        for got, want in ((flat, reference), (opt.m, m), (opt.v, v)):
            assert got.tobytes() == np.concatenate([a.ravel() for a in want]).tobytes()

    def test_learning_rate_validated(self):
        with pytest.raises(ValueError):
            AdamOptimizer(np.zeros(1), lr=0.0)

    def test_default_rate_is_the_published_recipe(self):
        assert AdamOptimizer(np.zeros(1)).lr == 0.01
