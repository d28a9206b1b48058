import weakref

import numpy as np
import pytest

from rdec import data as rdec_data
from rdec import network
from rdec.network import (
    Adam,
    Layer,
    Network,
    SgdMomentum,
    backward,
    build_network,
    encode,
    forward,
    load_model,
    save_model,
)
from rdec.tensor import ShapeMismatchError, affine_backward, affine_forward, relu_backward

from conftest import step_grads


class TestBuildNetwork:
    def test_canonical_dims(self):
        encoder, decoder = build_network(784, 10, seed=0)
        assert [layer.weight.shape for layer in encoder.layers] == [
            (784, 500), (500, 500), (500, 2000), (2000, 10)]
        assert [layer.weight.shape for layer in decoder.layers] == [
            (10, 2000), (2000, 500), (500, 500), (500, 784)]

    def test_two_dim_embedding(self):
        encoder, _ = build_network(784, 2, seed=3)
        assert [layer.weight.shape for layer in encoder.layers] == [
            (784, 500), (500, 500), (500, 2000), (2000, 2)]

    def test_activations(self):
        encoder, decoder = build_network(12, 3, seed=0)
        assert [l.activation for l in encoder.layers] == ["relu", "relu", "relu", "none"]
        assert [l.activation for l in decoder.layers] == ["relu", "relu", "relu", "none"]

    def test_same_seed_bit_identical(self):
        enc_a, dec_a = build_network(20, 4, seed=77)
        enc_b, dec_b = build_network(20, 4, seed=77)
        for la, lb in zip(enc_a.layers + dec_a.layers, enc_b.layers + dec_b.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_different_seeds_differ(self):
        enc_a, _ = build_network(20, 4, seed=1)
        enc_b, _ = build_network(20, 4, seed=2)
        assert not np.array_equal(enc_a.layers[0].weight, enc_b.layers[0].weight)

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            build_network(0, 4, seed=0)
        with pytest.raises(ValueError):
            build_network(4, 0, seed=0)

    def test_biases_start_zero(self):
        encoder, _ = build_network(10, 3, seed=0)
        assert all(not l.bias.any() for l in encoder.layers)


def tiny_net(rng, dims=(4, 6, 2)):
    layers = []
    for i in range(len(dims) - 1):
        layers.append(
            Layer(
                weight=rng.standard_normal((dims[i], dims[i + 1])),
                bias=rng.standard_normal(dims[i + 1]),
                activation="relu" if i < len(dims) - 2 else "none",
            )
        )
    return Network(layers)


class TestEncode:
    def test_batch_shape(self, rng):
        encoder, _ = build_network(8, 3, seed=0)
        z = encode(encoder, rng.standard_normal((7, 8)))
        assert z.shape == (7, 3)

    def test_zero_weights_give_zero(self):
        net = Network([Layer(np.zeros((4, 2)), np.zeros(2), "none")])
        z = encode(net, np.ones((5, 4)))
        assert not z.any()

    def test_single_row_matches_batch_row(self, rng):
        net = tiny_net(rng)
        x = rng.standard_normal((9, 4))
        full = encode(net, x)
        single = encode(net, x[4:5])
        np.testing.assert_allclose(single, full[4:5], rtol=0, atol=1e-12)

    def test_wrong_input_dim(self, rng):
        net = tiny_net(rng)
        with pytest.raises(ShapeMismatchError):
            encode(net, np.ones((3, 5)))

    def test_deterministic_across_calls(self, rng):
        net = tiny_net(rng)
        x = rng.standard_normal((6, 4))
        np.testing.assert_array_equal(encode(net, x), encode(net, x))

    def test_chunked_matches_unchunked(self, rng):
        # chunk boundary correctness: rows are independent. With 16-row
        # chunks: a ragged tail, no rows, and three chunks plus one row.
        from rdec import network as net_mod

        net = tiny_net(rng)
        old = net_mod.ENCODE_CHUNK
        net_mod.ENCODE_CHUNK = 16
        try:
            for n in (50, 0, 3 * 16 + 1):
                x = rng.standard_normal((n, 4))
                whole = forward(net, x)[0]
                chunked = encode(net, x)
                assert chunked.shape == (n, net.output_dim)
                np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12)
        finally:
            net_mod.ENCODE_CHUNK = old

    def test_memory_bounded_by_one_chunk(self):
        # Activations are built one chunk of at most 1024 rows at a time, so
        # the peak is the output plus a few chunk-sized layer outputs, not n
        # rows of every layer.
        import tracemalloc

        from rdec import network as net_mod

        encoder, _ = build_network(64, 2, seed=0)
        x = np.random.default_rng(0).random((8 * net_mod.ENCODE_CHUNK, 64))
        # float64 bytes
        chunk_activations = 8 * 1024 * sum(layer.weight.shape[1] for layer in encoder.layers)
        output = 8 * x.shape[0] * encoder.output_dim
        tracemalloc.start()
        try:
            z = encode(encoder, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert z.shape == (x.shape[0], 2)
        assert peak < output + 3 * chunk_activations

    def test_memory_holds_two_layer_outputs(self):
        # Through the canonical autoencoder a chunk's layer outputs total
        # far more than two of its widest; encode keeps only the current
        # input and output of one layer alive.
        import tracemalloc

        from rdec import network as net_mod

        encoder, decoder = build_network(784, 10, seed=0)
        autoencoder = Network(encoder.layers + decoder.layers)
        x = np.random.default_rng(0).random((net_mod.ENCODE_CHUNK, 784))
        output = 8 * x.shape[0] * autoencoder.output_dim
        tracemalloc.start()
        try:
            encode(autoencoder, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - output < 2 * net_mod.ENCODE_CHUNK * 2000 * 8


def list_backward(net, caches, grad_out):
    """Reference pass from the tensor primitives: every layer's gradients in
    a list aligned with ``net.parameters()``, and the input gradient."""
    grads = [None] * (2 * len(net.layers))
    grad = grad_out.copy()
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if layer.activation == network.RELU:
            grad = relu_backward(grad, caches[i + 1])
        grad, grads[2 * i], grads[2 * i + 1] = affine_backward(grad, caches[i], layer.weight)
    return grads, grad


class TestBackwardPlumbing:
    def test_param_grads_alignment(self, rng):
        net = tiny_net(rng)
        x = rng.standard_normal((5, 4))
        out, caches = forward(net, x)
        grads = step_grads(net, caches, np.ones_like(out))
        params = net.parameters()
        assert len(grads) == len(params)
        for g, p in zip(grads, params):
            assert g.shape == p.shape
        assert backward(net, caches, np.ones_like(out)).shape == x.shape

    def test_input_grad_only_path_matches(self, rng):
        net = tiny_net(rng)
        x = rng.standard_normal((5, 4))
        out, caches = forward(net, x)
        seed_grad = rng.standard_normal(out.shape)
        _, gi_full = list_backward(net, caches, seed_grad)
        np.testing.assert_array_equal(backward(net, caches, seed_grad), gi_full)

    def test_skipping_input_grad_keeps_param_grads(self, rng, monkeypatch):
        # The hand-off never forms the first layer's input gradient.
        net = tiny_net(rng, dims=(4, 6, 5, 2))
        x = rng.standard_normal((5, 4))
        out, caches = forward(net, x)
        seed_grad = rng.standard_normal(out.shape)
        grads_full, _ = list_backward(net, caches, seed_grad)
        flags = []

        def recording(grad_out, x, weight, need_input_grad=True):
            flags.append(need_input_grad)
            return affine_backward(grad_out, x, weight, need_input_grad)

        monkeypatch.setattr(network, "affine_backward", recording)
        grads_lean = step_grads(net, caches, seed_grad)
        assert flags == [True, True, False]
        for g_lean, g_full in zip(grads_lean, grads_full, strict=True):
            np.testing.assert_array_equal(g_lean, g_full)

    def test_affine_backward_without_input_grad(self, rng):
        x = rng.standard_normal((5, 4))
        w = rng.standard_normal((4, 3))
        grad_out = rng.standard_normal((5, 3))
        gi, gw, gb = affine_backward(grad_out, x, w)
        gi_none, gw_lean, gb_lean = affine_backward(grad_out, x, w,
                                                    need_input_grad=False)
        assert gi.shape == x.shape and gi_none is None
        np.testing.assert_array_equal(gw_lean, gw)
        np.testing.assert_array_equal(gb_lean, gb)


class TestBackwardHandOff:
    """``backward(..., step=...)`` hands each layer's gradients over as soon
    as they exist; the reference collects them all in a list."""

    def _setup(self, rng):
        net = tiny_net(rng, dims=(4, 6, 5, 3, 2))
        x = rng.standard_normal((7, 4))
        out, caches = forward(net, x)
        return net, x, caches, rng.standard_normal(out.shape)

    def test_layers_come_from_the_top_down(self, rng):
        net, _, caches, seed_grad = self._setup(rng)
        seen = []
        assert backward(net, caches, seed_grad,
                        step=lambda i, gw, gb: seen.append(i)) is None
        assert seen == [3, 2, 1, 0]

    def test_grads_equal_the_list_path_bit_for_bit(self, rng):
        net, _, caches, seed_grad = self._setup(rng)
        want, gi_want = list_backward(net, caches, seed_grad)
        for got, w in zip(step_grads(net, caches, seed_grad), want, strict=True):
            np.testing.assert_array_equal(got, w)
        np.testing.assert_array_equal(backward(net, caches, seed_grad), gi_want)

    def test_in_place_update_does_not_reach_the_input_gradient(self, rng):
        # Layer i steps only after its input gradient is taken, so each
        # lower layer still gets the gradient through the old weights.
        net, _, caches, seed_grad = self._setup(rng)
        want, _ = list_backward(net, caches, seed_grad)
        expected = [p - 0.5 * g for p, g in zip(net.parameters(), want)]

        def update(i, grad_weight, grad_bias):
            net.layers[i].weight -= 0.5 * grad_weight
            net.layers[i].bias -= 0.5 * grad_bias

        backward(net, caches, seed_grad, step=update)
        for p, e in zip(net.parameters(), expected):
            np.testing.assert_array_equal(p, e)

    def test_the_layer_above_is_freed_before_the_next_hand_off(self, rng):
        net, _, caches, seed_grad = self._setup(rng)
        refs = []
        live_above = []

        def watch(i, grad_weight, grad_bias):
            live_above.append([r() is not None for r in refs])
            refs.extend([weakref.ref(grad_weight), weakref.ref(grad_bias)])

        backward(net, caches, seed_grad, step=watch)
        assert live_above == [[], [False] * 2, [False] * 4, [False] * 6]


class TestOptimizers:
    def test_zero_gradient_keeps_params(self):
        p = np.ones((2, 2))
        SgdMomentum(lr=0.1, momentum=0.9).step([p], [np.zeros((2, 2))])
        np.testing.assert_array_equal(p, np.ones((2, 2)))

    def test_plain_sgd_step(self):
        p = np.array([1.0])
        SgdMomentum(lr=0.01, momentum=0.0).step([p], [np.array([1.0])])
        np.testing.assert_allclose(p, [0.99])

    def test_adam_first_step_magnitude_is_lr(self):
        for c in (0.5, 1.0, 3.0):
            p = np.full(4, 10.0)
            opt = Adam(lr=0.001)
            opt.step([p], [np.full(4, c)])
            update = 10.0 - p
            # bias-corrected first step is lr * c / (c + eps) ~ lr
            np.testing.assert_allclose(update, 0.001, rtol=1e-4)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            SgdMomentum(lr=0.1, momentum=0.9).step([np.ones(2)], [np.ones(3)])
        with pytest.raises(ShapeMismatchError):
            Adam().step([np.ones(2), np.ones(2)], [np.ones(2)])

    @pytest.mark.parametrize("make", [
        lambda: SgdMomentum(lr=0.01, momentum=0.9),
        lambda: Adam(lr=0.001),
    ])
    def test_thirty_steps_decrease_quadratic(self, make, rng):
        # momentum oscillates near the optimum, so compare endpoints
        curvature = rng.uniform(0.5, 2.0, size=6)
        p = rng.uniform(1.0, 2.0, size=6)
        opt = make()

        def objective():
            return float(0.5 * np.sum(curvature * p * p))

        start = objective()
        for _ in range(30):
            opt.step([p], [curvature * p])
        assert objective() < start


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path, rng):
        encoder, decoder = build_network(12, 3, seed=5)
        path = tmp_path / "model.bin"
        save_model(path, encoder, decoder)
        enc2, dec2 = load_model(path)
        for original, loaded in ((encoder, enc2), (decoder, dec2)):
            assert [l.activation for l in original.layers] == \
                   [l.activation for l in loaded.layers]
            for la, lb in zip(original.layers, loaded.layers):
                np.testing.assert_array_equal(la.weight, lb.weight)
                np.testing.assert_array_equal(la.bias, lb.bias)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_truncated_file(self, tmp_path, rng):
        encoder, decoder = build_network(6, 2, seed=0)
        path = tmp_path / "model.bin"
        save_model(path, encoder, decoder)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    @pytest.mark.parametrize("network, layer, array, value", [
        ("encoder", 1, "weight", np.nan),
        ("encoder", 3, "bias", -np.inf),
        ("decoder", 4, "weight", np.inf),
    ])
    def test_non_finite_parameters_are_rejected(self, tmp_path, network, layer, array, value):
        # a NaN weight used to load, and training failed later in K-means
        nets = dict(zip(("encoder", "decoder"), build_network(6, 2, seed=0)))
        getattr(nets[network].layers[layer - 1], array).flat[-1] = value
        path = tmp_path / "model.bin"
        save_model(path, nets["encoder"], nets["decoder"])
        with pytest.raises(rdec_data.DataFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: {network} layer {layer} holds non-finite values"

    def test_small_read_chunks_read_the_same_model(self, tmp_path, monkeypatch):
        # every read goes through data.read_exact, one 5-byte chunk at a time here
        encoder, decoder = build_network(6, 2, seed=3)
        path = tmp_path / "model.bin"
        save_model(path, encoder, decoder)
        data = path.read_bytes()
        path.write_bytes(data[:-20])
        with pytest.raises(ValueError) as whole:
            load_model(path)
        monkeypatch.setattr(rdec_data, "READ_CHUNK", 5)
        with pytest.raises(ValueError) as chunked:
            load_model(path)
        assert str(chunked.value) == str(whole.value)
        assert str(whole.value) == f"{path}: truncated model file, wanted 48 bytes, got 28"
        path.write_bytes(data)
        enc2, dec2 = load_model(path)
        for original, loaded in zip(encoder.parameters() + decoder.parameters(),
                                    enc2.parameters() + dec2.parameters()):
            assert original.tobytes() == loaded.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        encoder, decoder = build_network(6, 2, seed=9)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(a, encoder, decoder)
        save_model(b, encoder, decoder)
        assert a.read_bytes() == b.read_bytes()
