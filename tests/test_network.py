import numpy as np
import pytest

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
from rdec.tensor import ShapeMismatchError, affine_backward, affine_forward


class TestBuildNetwork:
    def test_canonical_dims(self):
        encoder, decoder = build_network(784, 10, seed=0)
        assert encoder.layer_dims == [784, 500, 500, 2000, 10]
        assert decoder.layer_dims == [10, 2000, 500, 500, 784]

    def test_two_dim_embedding(self):
        encoder, _ = build_network(784, 2, seed=3)
        assert encoder.layer_dims == [784, 500, 500, 2000, 2]

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
        chunk_activations = 8 * 1024 * sum(encoder.layer_dims[1:])
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


class TestBackwardPlumbing:
    def test_param_grads_alignment(self, rng):
        net = tiny_net(rng)
        x = rng.standard_normal((5, 4))
        out, caches = forward(net, x)
        grads, grad_in = backward(net, caches, np.ones_like(out), need_input_grad=True)
        params = net.parameters()
        assert len(grads) == len(params)
        for g, p in zip(grads, params):
            assert g.shape == p.shape
        assert grad_in.shape == x.shape

    def test_input_grad_only_path_matches(self, rng):
        net = tiny_net(rng)
        x = rng.standard_normal((5, 4))
        out, caches = forward(net, x)
        seed_grad = rng.standard_normal(out.shape)
        _, gi_full = backward(net, caches, seed_grad, need_input_grad=True)
        grads, gi_lean = backward(net, caches, seed_grad, need_input_grad=True,
                                  need_param_grads=False)
        assert grads is None
        np.testing.assert_allclose(gi_lean, gi_full, rtol=0, atol=1e-14)

    def test_skipping_input_grad_keeps_param_grads(self, rng):
        net = tiny_net(rng, dims=(4, 6, 5, 2))
        x = rng.standard_normal((5, 4))
        out, caches = forward(net, x)
        seed_grad = rng.standard_normal(out.shape)
        grads_full, gi = backward(net, caches, seed_grad, need_input_grad=True)
        grads_lean, gi_none = backward(net, caches, seed_grad, need_input_grad=False)
        assert gi.shape == x.shape and gi_none is None
        for g_lean, g_full in zip(grads_lean, grads_full):
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
            SgdMomentum(lr=0.1).step([np.ones(2)], [np.ones(3)])
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

    def test_save_is_deterministic(self, tmp_path):
        encoder, decoder = build_network(6, 2, seed=9)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(a, encoder, decoder)
        save_model(b, encoder, decoder)
        assert a.read_bytes() == b.read_bytes()
