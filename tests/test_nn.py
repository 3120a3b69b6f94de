"""Dense-network substrate: forward, backprop, Adam, weight serialization."""

import json
import re
import struct

import numpy as np
import pytest

from fedfog.federated import (GlobalModel, load_round_checkpoint,
                              save_round_checkpoint)
from fedfog.nn import (AdamState, Mlp, adam_step, backward, flatten_mlp,
                       forward, init_mlp, pack)
from oracles import central_difference, count_params


def make_net(rng, sizes, out_act):
    return init_mlp(rng, list(sizes), output_activation=out_act)


def relu_net(rng, sizes, out_act):
    """A net whose biases are random, so relu units sit off their kinks."""
    net = make_net(rng, sizes, out_act)
    for b in net.biases:
        b[:] = rng.normal(scale=0.3, size=b.shape)
    return net


def two_branch_sigmoid(z):
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def textbook_backward(net, x, g):
    """Reference chain rule: keeps inputs and pre-activations, forms each
    derivative as a full array and returns (param_grad, input_grad)."""
    inputs, zs, outs, h = [], [], [], x
    for w, b, act in zip(net.weights, net.biases, net.activations):
        inputs.append(h)
        zs.append(h @ w + b)
        h = {"relu": np.maximum(zs[-1], 0.0),
             "sigmoid": two_branch_sigmoid(zs[-1]), "linear": zs[-1]}[act]
        outs.append(h)
    parts = []
    for i in range(len(net.weights) - 1, -1, -1):
        z, a = zs[i], outs[i]
        slope = {"relu": (z > 0.0).astype(float), "sigmoid": a * (1.0 - a),
                 "linear": np.ones_like(z)}[net.activations[i]]
        dz = g * slope
        parts[:0] = [(inputs[i].T @ dz).ravel(), dz.sum(axis=0)]
        g = dz @ net.weights[i].T
    return np.concatenate(parts), g


class TestForward:
    def test_zero_weights_sigmoid_gives_half(self):
        net = make_net(np.random.default_rng(0), (4, 8, 3), "sigmoid")
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
        out, _ = forward(net, np.ones((1, 4)))
        np.testing.assert_allclose(out, 0.5)

    def test_identity_linear_layer(self):
        net = Mlp(weights=[np.eye(3)], biases=[np.zeros(3)],
                  activations=["linear"])
        x = np.array([[0.3, -1.2, 7.0]])
        out, _ = forward(net, x)
        np.testing.assert_array_equal(out, x)

    def test_hand_computed_2_2_1(self):
        # relu hidden layer, linear output, every number worked by hand:
        # h = relu([1*2 - 1*1 + 0.5, 0.5*2 + 0*1 - 3]) = relu([1.5, -2]) = [1.5, 0]
        # out = 2*1.5 - 1*0 + 0.25 = 3.25
        net = Mlp(weights=[np.array([[1.0, 0.5], [-1.0, 0.0]]),
                           np.array([[2.0], [-1.0]])],
                  biases=[np.array([0.5, -3.0]), np.array([0.25])],
                  activations=["relu", "linear"])
        out, _ = forward(net, np.array([[2.0, 1.0]]))
        assert out.shape == (1, 1)
        assert out[0] == pytest.approx([3.25], rel=1e-15)

    def test_batched_matches_single(self):
        # BLAS may pick different kernels for a one-row product, so
        # agreement is to rounding, not bit-exact
        rng = np.random.default_rng(1)
        net = make_net(rng, (5, 16, 8, 2), "sigmoid")
        xs = rng.normal(size=(7, 5))
        batch_out, _ = forward(net, xs)
        for i in range(len(xs)):
            single, _ = forward(net, xs[i:i + 1])
            np.testing.assert_allclose(batch_out[i:i + 1], single, rtol=1e-13)

    def test_pure(self):
        rng = np.random.default_rng(2)
        net = make_net(rng, (6, 10, 4), "linear")
        x = rng.normal(size=(1, 6))
        a, _ = forward(net, x)
        b, _ = forward(net, x)
        np.testing.assert_array_equal(a, b)

    def test_dimension_mismatch(self):
        net = make_net(np.random.default_rng(3), (4, 8, 2), "linear")
        with pytest.raises(ValueError, match=r"\(1, 5\)"):
            forward(net, np.ones((1, 5)))

    @pytest.mark.parametrize("shape", [(4,), (), (2, 3, 4)])
    def test_only_batches_accepted(self, shape):
        # a single sample is a batch of one; other ranks are refused by shape
        net = make_net(np.random.default_rng(3), (4, 8, 2), "linear")
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            forward(net, np.ones(shape))

    def test_sigmoid_output_in_unit_interval(self):
        rng = np.random.default_rng(4)
        net = make_net(rng, (3, 20, 6), "sigmoid")
        out, _ = forward(net, rng.normal(scale=10.0, size=(50, 3)))
        assert np.all(out > 0.0) and np.all(out < 1.0)


    def test_sigmoid_matches_two_branch_form_bit_for_bit(self):
        # an identity layer, so the output is the activation of the input
        z = np.concatenate([[0.0, -0.0, 30.0, -30.0, 745.0, -745.0, 1e-300],
                            np.random.default_rng(45).normal(scale=30, size=57)])
        net = Mlp(weights=[np.eye(z.size)], biases=[np.zeros(z.size)],
                  activations=["sigmoid"])
        out, _ = forward(net, z[None])
        np.testing.assert_array_equal(out[0], two_branch_sigmoid(z))

class TestBackward:
    def test_zero_output_grad_gives_zero_grads(self):
        rng = np.random.default_rng(5)
        net = make_net(rng, (4, 9, 3), "sigmoid")
        x = rng.normal(size=(6, 4))
        out, cache = forward(net, x)
        assert not np.any(backward(net, cache, np.zeros_like(out)))
        assert not np.any(backward(net, cache, np.zeros_like(out),
                                   input_cols=slice(None)))

    def test_single_linear_neuron_closed_form(self):
        # squared loss (pred - target)^2 on one linear neuron: the weight
        # gradient is 2*(pred - target)*input
        net = Mlp(weights=[np.array([[0.7], [-0.2], [0.1]])],
                  biases=[np.array([0.4])], activations=["linear"])
        x = np.array([[1.0, 2.0, -3.0]])
        target = 1.5
        pred, cache = forward(net, x)
        grad = backward(net, cache, 2.0 * (pred - target))
        expect = 2.0 * (float(pred[0, 0]) - target) * x[0]
        np.testing.assert_allclose(grad[:3], expect, rtol=1e-12)
        assert grad[3] == pytest.approx(2.0 * (float(pred[0, 0]) - target))

    @pytest.mark.parametrize("out_act,seed",
                             [("linear", 101), ("sigmoid", 202), ("relu", 303)])
    def test_finite_difference_params(self, out_act, seed):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            sizes = [int(rng.integers(2, 6)) for _ in range(4)]
            # zero-init biases leave dead-row pre-activations exactly on the
            # relu kink, where central differences straddle the corner
            net = relu_net(rng, sizes, out_act)
            x = rng.normal(size=(3, sizes[0]))
            w = rng.normal(size=(3, sizes[-1]))   # fixed loss weights

            def loss_fn():
                out, _ = forward(net, x)
                return float(np.sum(w * out))

            out, cache = forward(net, x)
            grad = backward(net, cache, w)
            worst = 0.0
            off = 0
            for p in (a for pair in zip(net.weights, net.biases) for a in pair):
                flat_p = p.reshape(-1)
                flat_g = grad[off:off + p.size]
                off += p.size
                for i in range(0, flat_p.size, max(1, flat_p.size // 5)):
                    orig = flat_p[i]
                    flat_p[i] = orig + 1e-5
                    hi = loss_fn()
                    flat_p[i] = orig - 1e-5
                    lo = loss_fn()
                    flat_p[i] = orig
                    fd = (hi - lo) / 2e-5
                    denom = max(abs(fd), abs(flat_g[i]), 1e-8)
                    worst = max(worst, abs(fd - flat_g[i]) / denom)
            assert worst <= 1e-4

    def test_finite_difference_input_grad(self):
        rng = np.random.default_rng(17)
        net = make_net(rng, (5, 12, 7, 2), "sigmoid")
        x0 = rng.normal(size=(1, 5))
        w = rng.normal(size=(1, 2))

        def f(x):
            out, _ = forward(net, x)
            return float(np.sum(w * out))

        out, cache = forward(net, x0)
        input_grad = backward(net, cache, w, input_cols=slice(None))
        assert input_grad.shape == (1, 5)
        fd = central_difference(f, x0.copy())
        np.testing.assert_allclose(input_grad, fd, rtol=1e-5, atol=1e-8)

    def test_stale_cache_rejected(self):
        rng = np.random.default_rng(18)
        net = make_net(rng, (4, 6, 2), "linear")
        _, cache = forward(net, rng.normal(size=(3, 4)))
        with pytest.raises(ValueError, match="output_grad shape"):
            backward(net, cache, np.zeros((5, 2)))
        other = make_net(rng, (4, 5, 2), "linear")
        with pytest.raises(ValueError, match="does not match this network"):
            backward(other, cache, np.zeros((3, 2)))

    def test_param_pass_returns_only_the_param_grad(self):
        rng = np.random.default_rng(41)
        net = make_net(rng, (4, 6, 3), "sigmoid")
        out, cache = forward(net, rng.normal(size=(5, 4)))
        output_grad = rng.normal(size=out.shape)
        grad = backward(net, cache, output_grad)
        assert grad.shape == net.params.shape
        # each pass returns a fresh vector, which the next one leaves alone
        again = backward(net, cache, output_grad)
        assert not np.shares_memory(grad, again)
        assert not np.shares_memory(grad, net.params)
        np.testing.assert_array_equal(grad, again)

    @pytest.mark.parametrize("hidden", ["relu", "sigmoid", "linear"])
    def test_input_pass_returns_only_the_asked_columns(self, hidden):
        rng = np.random.default_rng(42)
        net = init_mlp(rng, [6, 8, 5, 2], hidden_activation=hidden)
        out, cache = forward(net, rng.normal(size=(7, 6)))
        output_grad = rng.normal(size=out.shape)
        full = backward(net, cache, output_grad, input_cols=slice(None))
        assert full.shape == (7, 6)
        for cols in ([1], slice(4, None)):
            np.testing.assert_array_equal(
                backward(net, cache, output_grad, input_cols=cols),
                full[:, cols])

    @pytest.mark.parametrize("out_act", ["relu", "sigmoid", "linear"])
    @pytest.mark.parametrize("hidden", ["relu", "sigmoid", "linear"])
    def test_matches_textbook_chain_rule_bit_for_bit(self, out_act, hidden):
        rng = np.random.default_rng(46)
        net = init_mlp(rng, [7, 30, 12, 4], output_activation=out_act,
                       hidden_activation=hidden)
        x = rng.normal(size=(16, 7))
        out, cache = forward(net, x)
        g = rng.normal(size=out.shape)
        param_grad, input_grad = textbook_backward(net, x, g)
        np.testing.assert_array_equal(backward(net, cache, g), param_grad)
        np.testing.assert_array_equal(
            backward(net, cache, g, input_cols=slice(None)), input_grad)

    @pytest.mark.parametrize("cols", [slice(4, None), slice(0, 2), [5, 0, 3], 2])
    def test_input_columns_equal_those_of_a_full_pass(self, cols):
        rng = np.random.default_rng(43)
        net = relu_net(rng, (6, 16, 8, 1), "linear")
        out, cache = forward(net, rng.normal(size=(9, 6)))
        g = rng.normal(size=out.shape)
        full = backward(net, cache, g, input_cols=slice(None))
        assert full.shape == (9, 6)
        np.testing.assert_array_equal(backward(net, cache, g, input_cols=cols),
                                      full[:, cols])

    @pytest.mark.parametrize("out_act", ["relu", "sigmoid", "linear"])
    def test_caller_arrays_and_earlier_caches_are_not_written(self, out_act):
        rng = np.random.default_rng(44)
        net = relu_net(rng, (5, 10, 6, 3), out_act)
        x = rng.normal(size=(4, 5))
        x_before = x.copy()
        out, cache = forward(net, x)
        cache_before = [a.copy() for a in cache]
        g = rng.normal(size=out.shape)
        g_before = g.copy()
        forward(net, 2.0 * x)
        backward(net, cache, g)
        backward(net, cache, g, input_cols=slice(None))
        np.testing.assert_array_equal(x, x_before)
        np.testing.assert_array_equal(g, g_before)
        assert len(cache) == len(cache_before)
        for a, b in zip(cache, cache_before):
            np.testing.assert_array_equal(a, b)


class TestAdam:
    def test_first_step_magnitude(self):
        params = np.array([1.0])
        state = AdamState.for_params(params, lr=0.001)
        adam_step(params, np.array([1.0]), state)
        assert params[0] == pytest.approx(1.0 - 0.001, abs=1e-8)

    def test_zero_gradient_fixed_point(self):
        rng = np.random.default_rng(19)
        params = rng.normal(size=8)
        before = params.copy()
        state = AdamState.for_params(params, lr=0.01)
        for _ in range(5):
            adam_step(params, np.zeros_like(params), state)
        np.testing.assert_array_equal(params, before)

    def test_deterministic(self):
        rng = np.random.default_rng(20)
        grad = rng.normal(size=20)
        results = []
        for _ in range(2):
            params = np.ones(20)
            state = AdamState.for_params(params, lr=0.05)
            for _ in range(10):
                adam_step(params, grad, state)
            results.append(params.copy())
        np.testing.assert_array_equal(*results)

    def test_nonfinite_gradient_rejected(self):
        params = np.ones(2)
        state = AdamState.for_params(params, lr=0.01)
        with pytest.raises(FloatingPointError):
            adam_step(params, np.array([np.nan, 0.0]), state)

    def test_descends_quadratic(self):
        params = np.array([5.0])
        state = AdamState.for_params(params, lr=0.1)
        for _ in range(500):
            adam_step(params, 2.0 * params, state)
        assert abs(params[0]) < 0.05

    def test_matches_textbook_update_bit_for_bit(self):
        rng = np.random.default_rng(22)
        params = rng.normal(size=30)
        p, m, v = params.copy(), np.zeros(30), np.zeros(30)
        state = AdamState.for_params(params, lr=0.01)
        for t in range(1, 6):
            g = rng.normal(size=30)
            adam_step(params, g, state)
            m = m * 0.9 + (1.0 - 0.9) * g
            v = v * 0.999 + (1.0 - 0.999) * g * g
            p = p - 0.01 * (m / (1.0 - 0.9 ** t)) / (
                np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
        np.testing.assert_array_equal(params, p)

    def test_size_mismatch_rejected(self):
        state = AdamState.for_params(np.ones(3), lr=0.01)
        with pytest.raises(ValueError):
            adam_step(np.ones(3), np.ones(2), state)


class TestParamStore:
    def test_weights_and_biases_are_views_of_params(self):
        net = make_net(np.random.default_rng(23), (3, 4, 2), "sigmoid")
        for a in net.weights + net.biases:
            assert np.shares_memory(a, net.params)
        net.params[:] = np.arange(net.params.size)
        np.testing.assert_array_equal(net.weights[0].ravel(), np.arange(12))
        np.testing.assert_array_equal(net.biases[0], np.arange(12, 16))
        net.biases[-1][:] = -1.0
        np.testing.assert_array_equal(net.params[-2:], -1.0)

    def test_constructor_and_copy_own_their_params(self):
        w = np.eye(2)
        net = Mlp([w], [np.zeros(2)], ["linear"])
        w[0, 0] = 5.0
        assert net.weights[0][0, 0] == 1.0
        twin = net.copy()
        twin.params += 1.0
        np.testing.assert_array_equal(net.params, [1.0, 0.0, 0.0, 1.0, 0.0, 0.0])

    def test_pack_moves_nets_into_one_store(self):
        rng = np.random.default_rng(24)
        a = make_net(rng, (3, 4, 2), "sigmoid")
        b = make_net(rng, (5, 4, 1), "linear")
        values = np.concatenate([a.params, b.params])
        store = pack(a, b)
        np.testing.assert_array_equal(store, values)
        assert np.shares_memory(a.weights[0], store)
        assert np.shares_memory(b.biases[-1], store)
        store[:] = 0.0
        assert not np.any(a.weights[0]) and not np.any(b.biases[-1])

    def test_flatten_copies(self):
        net = make_net(np.random.default_rng(25), (3, 4, 2), "sigmoid")
        flat = flatten_mlp(net)
        assert not np.shares_memory(flat.values, net.params)
        np.testing.assert_array_equal(flat.values, net.params)


class TestFlattenWeights:
    def test_same_seed_same_weights(self):
        a = make_net(np.random.default_rng(33), (4, 8, 2), "linear")
        b = make_net(np.random.default_rng(33), (4, 8, 2), "linear")
        np.testing.assert_array_equal(flatten_mlp(a).values,
                                      flatten_mlp(b).values)

    def test_flatten_length_counts(self):
        sizes = (27, 300, 100, 15)
        net = make_net(np.random.default_rng(34), sizes, "sigmoid")
        flat = flatten_mlp(net)
        assert flat.values.size == 40015
        assert flat.values.size == count_params(sizes)
        assert net.params.size == 40015

    def test_concat_layout(self):
        rng = np.random.default_rng(35)
        a = make_net(rng, (3, 4, 2), "sigmoid")
        b = make_net(rng, (5, 4, 1), "linear")
        combined = flatten_mlp(a, b)
        na, nb = a.params.size, b.params.size
        assert combined.values.size == na + nb
        np.testing.assert_array_equal(combined.values[:na],
                                      flatten_mlp(a).values)
        np.testing.assert_array_equal(combined.values[na:],
                                      flatten_mlp(b).values)

    def test_layout_hash_distinguishes(self):
        rng = np.random.default_rng(36)
        a = flatten_mlp(make_net(rng, (3, 4, 2), "sigmoid"))
        b = flatten_mlp(make_net(rng, (3, 5, 2), "sigmoid"))
        c = flatten_mlp(make_net(rng, (3, 4, 2), "sigmoid"))
        assert a.layout_hash() != b.layout_hash()
        assert a.layout_hash() == c.layout_hash()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(37)
        net = make_net(rng, (6, 9, 4), "sigmoid")
        flat = flatten_mlp(net)
        path = tmp_path / "weights.ckpt"
        save_round_checkpoint(path, GlobalModel(flat, 7, "ddpg"))
        loaded = load_round_checkpoint(path)
        np.testing.assert_array_equal(loaded.weights.values, flat.values)
        assert loaded.weights.layout() == flat.layout()
        assert loaded.round_index == 7
        assert loaded.agent_kind == "ddpg"

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="not a weight checkpoint"):
            load_round_checkpoint(path)

    @pytest.mark.parametrize("damage", [
        "cut in version", "cut in header length", "cut in header",
        "cut in value count", "cut in values",
        "no shapes", "no offsets", "no activations"])
    def test_malformed_file_rejected_naming_path(self, tmp_path, damage):
        path = tmp_path / "weights.ckpt"
        rng = np.random.default_rng(40)
        save_round_checkpoint(path, GlobalModel(
            flatten_mlp(make_net(rng, (3, 4, 2), "sigmoid")), 1, "ddpg"))
        blob = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 8)
        cuts = {"cut in version": 6, "cut in header length": 10,
                "cut in header": 12 + hlen // 2,
                "cut in value count": 16 + hlen,
                "cut in values": len(blob) - 4}
        if damage in cuts:
            blob = blob[:cuts[damage]]
        else:
            header = json.loads(blob[12:12 + hlen])
            del header[damage.split()[1]]
            text = json.dumps(header).encode()
            blob = (blob[:8] + struct.pack("<I", len(text)) + text
                    + blob[12 + hlen:])
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=re.escape(
                f"{path} is truncated or malformed")) as exc:
            load_round_checkpoint(path)
        assert type(exc.value) is ValueError


class TestInit:
    def test_sigmoid_head_starts_near_half(self):
        rng = np.random.default_rng(38)
        net = make_net(rng, (17, 300, 100, 9), "sigmoid")
        out, _ = forward(net, rng.uniform(0, 1, size=(20, 17)))
        assert np.all(np.abs(out - 0.5) < 0.25)

    def test_finite_and_scaled(self):
        rng = np.random.default_rng(39)
        net = make_net(rng, (10, 50, 20, 5), "relu")
        for i, w in enumerate(net.weights):
            assert np.all(np.isfinite(w))
            fan_in = w.shape[0]
            assert np.abs(w).max() <= np.sqrt(6.0 / fan_in) + 1e-12
