import copy
import inspect
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from rdec import dec, network, trainer
from rdec.dec import kl_divergence, target_distribution
from rdec.kmeans import kmeans
from rdec.metrics import accuracy
from rdec.network import (
    Layer,
    Network,
    SgdMomentum,
    backward,
    build_network,
    encode,
    forward,
)
from rdec.tensor import mse_loss
from rdec.trainer import (
    ClusterModel,
    TrainConfig,
    finetune,
    label_change_rate,
    pretrain,
    run_clustering,
)
from rdec.vat import adversarial_perturbation, vat_loss

from conftest import step_grads, two_gaussians


def small_encoder(seed, in_dim=2, hidden=32, latent=2):
    rng = np.random.default_rng(seed)
    return Network([
        Layer(rng.standard_normal((in_dim, hidden)) * 0.4, np.zeros(hidden), "relu"),
        Layer(rng.standard_normal((hidden, latent)) * 0.4, np.zeros(latent), "none"),
    ])


def small_decoder(seed, latent=2, hidden=32, out_dim=2):
    rng = np.random.default_rng(seed + 1000)
    return Network([
        Layer(rng.standard_normal((latent, hidden)) * 0.4, np.zeros(hidden), "relu"),
        Layer(rng.standard_normal((hidden, out_dim)) * 0.4, np.zeros(out_dim), "none"),
    ])


def fast_config(**overrides):
    base = dict(
        method="dec", gamma=0.0, tau=20, max_iter=400,
        batch_size=128, pretrain_epochs=0, kmeans_restarts=5, seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture
def cool_pretrain_lr(monkeypatch):
    """Pretrain at SGD rate 0.05: mean-MSE gradients grow as the entry count
    shrinks, so these 2-dim fixtures need a cooler rate than the wide-input
    ``trainer.PRETRAIN_LR``."""
    monkeypatch.setattr(trainer, "PRETRAIN_LR", 0.05)


def list_step_replay(start, centroids, data, cfg):
    """Replay ``cfg.max_iter`` first-epoch fine-tuning batches from copies of
    ``start`` and ``centroids``, one list ``SgdMomentum`` step a batch.

    Each step takes the clean gradients from ``kl_param_grads``; for rdec it
    adds the VAT gradients, scaled by gamma in place. Returns the model, the
    checkpoint loss of the target, computed through ``predict``, and each
    batch's (clean loss, VAT loss), from ``kl_param_grads`` and ``vat_loss``.
    """
    model = ClusterModel(copy.deepcopy(start), centroids.copy(), cfg.alpha)
    n = len(data)
    q = model.predict(data)
    target = target_distribution(q)
    params = model.parameters()
    optimizer = SgdMomentum(trainer.FINETUNE_LR, trainer.MOMENTUM)
    # every batch comes from the first epoch
    assert cfg.max_iter * cfg.batch_size <= n
    perm = np.random.default_rng([cfg.seed, trainer._STREAM_SHUFFLE]).permutation(n)
    losses = []
    for it in range(cfg.max_iter):
        idx = perm[it * cfg.batch_size : (it + 1) * cfg.batch_size]
        x = data[idx]
        clustering, grads = model.kl_param_grads(x, target[idx])
        consistency = 0.0
        if cfg.method == "rdec" and cfg.gamma > 0.0:
            q_b = model.predict(x)
            vat_rng = np.random.default_rng([cfg.seed, trainer._STREAM_VAT, it])
            r_adv = adversarial_perturbation(model, x, q_b, cfg.epsilon, cfg.xi, vat_rng)
            consistency, vat_grads = vat_loss(model, x, r_adv, q_ref=q_b)
            for g, vg in zip(grads, vat_grads, strict=True):
                vg *= cfg.gamma
                g += vg
        optimizer.step(params, grads)
        losses.append((clustering, consistency))
    return model, kl_divergence(target, q) / n, losses


def assert_iteration_losses(report, losses, gamma):
    """The report's per-iteration losses carry the replay's bits."""
    assert [(r.clustering_loss, r.vat_loss) for r in report.iterations] == losses
    assert [r.total_loss for r in report.iterations] == [c + gamma * v for c, v in losses]


class TestLabelChangeRate:
    def test_identical_is_zero(self):
        assert label_change_rate([1, 2, 3], [1, 2, 3]) == 0.0

    def test_all_different_is_one(self):
        assert label_change_rate([0, 0], [1, 1]) == 1.0

    def test_quarter(self):
        assert label_change_rate([0, 0, 1, 1], [0, 1, 1, 1]) == 0.25

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            label_change_rate([0, 1], [0, 1, 2])


def test_only_train_config_states_the_training_defaults():
    # K-means restarts come from TrainConfig's field, SGD momentum from
    # trainer.MOMENTUM, the phases' rates from trainer.PRETRAIN_LR and
    # trainer.FINETUNE_LR, and the stop threshold from trainer.SIGMA; DEC's
    # square is inside target_distribution, and ACC's cluster cap and
    # K-means' Lloyd cap are module constants.
    for function, name in ((kmeans, "restarts"), (SgdMomentum, "momentum")):
        assert inspect.signature(function).parameters[name].default is inspect.Parameter.empty
    assert not {"sigma", "finetune_lr", "pretrain_lr"} & {f.name for f in fields(TrainConfig)}
    assert "s" not in inspect.signature(target_distribution).parameters
    assert "max_clusters" not in inspect.signature(accuracy).parameters
    assert "max_iter" not in inspect.signature(kmeans).parameters


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"method": "bogus"},
        {"gamma": -1.0},
        {"tau": 0},
        {"batch_size": 0},
        {"max_iter": 0},
        {"seed": -1},
        {"kmeans_restarts": 0},
        {"epsilon": 0.0},
        {"xi": 0.0},
        {"gamma": float("nan")},
        {"gamma": float("inf")},
        {"epsilon": float("nan")},
        {"epsilon": float("inf")},
        {"xi": float("nan")},
        {"xi": float("inf")},
        # integer fields take no fractional or float value
        {"tau": 1.5},
        {"batch_size": 2.5},
        {"max_iter": 10.0},
        {"kmeans_restarts": 2.5},
        {"pretrain_epochs": 0.5},
        {"seed": 1.0},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            fast_config(**kwargs)

    def test_integer_fields_take_numpy_integers(self):
        cfg = fast_config(tau=np.int64(3), batch_size=np.int32(8), seed=np.uint8(2))
        assert (cfg.tau, cfg.batch_size, cfg.seed) == (3, 8, 2)
        with pytest.raises(ValueError, match=r"^tau must be an integer, got 1\.5$"):
            fast_config(tau=1.5)

    def test_alpha_is_fixed_at_one(self):
        # DEC's Student-t degrees of freedom: a class constant, not a setting
        assert TrainConfig().alpha == 1.0
        with pytest.raises(TypeError, match="alpha"):
            TrainConfig(alpha=2.0)

    def test_cluster_model_takes_alpha_only_at_one(self):
        # perfbench's workloads build ClusterModel(encoder, centroids, cfg.alpha)
        encoder, _ = build_network(4, 2, seed=0)
        x = np.random.default_rng(0).random((5, 4))
        model = ClusterModel(encoder, np.eye(2), TrainConfig().alpha)
        assert model.predict(x).tobytes() == ClusterModel(encoder, np.eye(2)).predict(x).tobytes()
        for alpha in (2.0, 0.0, float("nan")):
            with pytest.raises(ValueError, match="alpha is fixed at 1.0"):
                ClusterModel(encoder, np.eye(2), alpha)

    def test_fields_cannot_be_assigned(self):
        cfg = fast_config()
        with pytest.raises(FrozenInstanceError):
            cfg.gamma = -1.0
        assert cfg.gamma == 0.0

    def test_replace_checks_the_new_settings(self):
        assert replace(fast_config(), gamma=2.0).gamma == 2.0
        with pytest.raises(ValueError, match="gamma must be >= 0, got -1.0"):
            replace(fast_config(), gamma=-1.0)
        with pytest.raises(ValueError, match="xi must be positive, got 0.0"):
            replace(fast_config(), xi=0.0)


@pytest.mark.usefixtures("cool_pretrain_lr")
class TestPretrain:
    def test_zero_epochs_keeps_weights(self, rng):
        encoder = small_encoder(0)
        decoder = small_decoder(0)
        before = [p.copy() for p in encoder.parameters() + decoder.parameters()]
        data = rng.random((40, 2))
        pretrain(encoder, decoder, data, fast_config(pretrain_epochs=0))
        after = encoder.parameters() + decoder.parameters()
        for b, a in zip(before, after):
            np.testing.assert_array_equal(b, a)

    def test_the_optimizers_read_pretrain_lr(self, monkeypatch):
        monkeypatch.setattr(trainer, "PRETRAIN_LR", 0.0)
        data, _ = two_gaussians(n=100, seed=4)
        encoder, decoder = small_encoder(5), small_decoder(5)
        start = [p.copy() for p in encoder.parameters() + decoder.parameters()]
        loss = pretrain(encoder, decoder, data, fast_config(pretrain_epochs=3, batch_size=32))
        assert np.isfinite(loss)
        end = encoder.parameters() + decoder.parameters()
        for before, after in zip(start, end, strict=True):
            assert after.tobytes() == before.tobytes()

    def test_loss_halves_on_structured_data(self):
        data, _ = two_gaussians(n=300, seed=1)
        data = (data - data.min()) / (data.max() - data.min())  # into [0, 1]
        encoder = small_encoder(3)
        decoder = small_decoder(3)
        cfg = fast_config(pretrain_epochs=0)
        initial = pretrain(encoder, decoder, data, cfg)
        cfg = fast_config(pretrain_epochs=80)
        final = pretrain(encoder, decoder, data, cfg)
        assert final < 0.5 * initial

    def test_same_seed_identical_weights(self):
        data, _ = two_gaussians(n=120, seed=2)
        data = (data - data.min()) / (data.max() - data.min())
        results = []
        for _ in range(2):
            encoder = small_encoder(7)
            decoder = small_decoder(7)
            cfg = fast_config(pretrain_epochs=5, seed=11)
            pretrain(encoder, decoder, data, cfg)
            results.append([p.copy() for p in encoder.parameters()])
        for a, b in zip(*results):
            np.testing.assert_array_equal(a, b)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            pretrain(small_encoder(0), small_decoder(0), np.zeros((0, 2)),
                     fast_config())

    def test_pretrain_names_the_non_finite_epoch(self, monkeypatch):
        data, _ = two_gaussians(n=64, seed=0)
        data = (data - data.min()) / (data.max() - data.min())
        real = trainer.mse_loss
        epoch_of_batch = iter([0, 0, 1, 1])  # two 32-row batches an epoch

        def nan_in_epoch_1(*args):
            loss, grad = real(*args)
            return (np.nan if next(epoch_of_batch) == 1 else loss), grad

        monkeypatch.setattr(trainer, "mse_loss", nan_in_epoch_1)
        cfg = fast_config(pretrain_epochs=3, batch_size=32)
        with pytest.raises(FloatingPointError, match="reconstruction loss at epoch 1 "):
            pretrain(small_encoder(0), small_decoder(0), data, cfg)

    def test_pretrain_stops_at_the_first_non_finite_batch(self, monkeypatch):
        data, _ = two_gaussians(n=64, seed=0)
        data = (data - data.min()) / (data.max() - data.min())
        real = trainer.mse_loss
        calls = []

        def nan_loss(*args):
            loss, grad = real(*args)
            calls.append(loss)
            return np.nan, grad

        monkeypatch.setattr(trainer, "mse_loss", nan_loss)
        cfg = fast_config(pretrain_epochs=3, batch_size=32)
        with pytest.raises(FloatingPointError,
                           match="reconstruction loss at epoch 0 batch 0 "):
            pretrain(small_encoder(0), small_decoder(0), data, cfg)
        assert len(calls) == 1

    def test_a_non_finite_reconstruction_loss_moves_no_parameter(self):
        # Each layer used to step on the batch's NaN gradients before the check.
        data, _ = two_gaussians(n=64, seed=0)
        data = (data - data.min()) / (data.max() - data.min())
        data[5, 1] = np.nan
        encoder, decoder = small_encoder(0), small_decoder(0)
        start = [p.copy() for p in encoder.parameters() + decoder.parameters()]
        cfg = fast_config(pretrain_epochs=3, batch_size=64)
        with pytest.raises(FloatingPointError,
                           match="reconstruction loss at epoch 0 batch 0 "):
            pretrain(encoder, decoder, data, cfg)
        for got, want in zip(encoder.parameters() + decoder.parameters(), start, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_final_loss_streams_network_chunks(self, monkeypatch, rng):
        # trainer held its own copy of ENCODE_CHUNK and encoded all 100 rows
        # in one call; the final loss now streams network's chunks.
        monkeypatch.setattr(network, "ENCODE_CHUNK", 16)
        real, chunks = network.encode, []

        def recording_encode(net, x):
            chunks.append(x.shape[0])
            return real(net, x)

        for module in (network, trainer):
            monkeypatch.setattr(module, "encode", recording_encode)
        data = rng.random((100, 2))
        encoder, decoder = small_encoder(0), small_decoder(0)
        loss = pretrain(encoder, decoder, data, fast_config(pretrain_epochs=0))
        assert chunks == [16] * 6 + [4]
        autoencoder, want = Network(encoder.layers + decoder.layers), 0.0
        for start in range(0, 100, 16):
            x = data[start : start + 16]
            want += float(np.sum(np.square(forward(autoencoder, x)[0] - x)))
        assert loss == want / data.size

    def test_one_stack_matches_two_stacks(self, monkeypatch):
        data, _ = two_gaussians(n=100, seed=4)
        data = (data - data.min()) / (data.max() - data.min())
        # a path that ignores trainer.MOMENTUM or trainer.PRETRAIN_LR fails below
        monkeypatch.setattr(trainer, "MOMENTUM", 0.5)
        lr = trainer.PRETRAIN_LR
        cfg = fast_config(pretrain_epochs=3, batch_size=32, seed=5)
        calls = {"forward": 0, "backward": 0}

        def counted(name):
            original = getattr(trainer, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(trainer, name, counted(name))
        encoder, decoder = small_encoder(5), small_decoder(5)
        loss = pretrain(encoder, decoder, data, cfg)
        monkeypatch.undo()
        assert calls == {"forward": 3 * 4, "backward": 3 * 4}  # 4 batches an epoch

        # Reference: the encoder and decoder run as two stacks, bit for bit.
        ref_encoder, ref_decoder = small_encoder(5), small_decoder(5)
        params = ref_encoder.parameters() + ref_decoder.parameters()
        optimizer = SgdMomentum(lr, 0.5)
        rng = np.random.default_rng([cfg.seed, trainer._STREAM_PRETRAIN])
        for _ in range(cfg.pretrain_epochs):
            for idx in trainer._epoch_batches(len(data), cfg.batch_size, rng):
                x = data[idx]
                z, enc_caches = forward(ref_encoder, x)
                recon, dec_caches = forward(ref_decoder, z)
                _, grad = mse_loss(recon, x)
                grad_z = backward(ref_decoder, dec_caches, grad)
                dec_grads = step_grads(ref_decoder, dec_caches, grad)
                enc_grads = step_grads(ref_encoder, enc_caches, grad_z)
                optimizer.step(params, enc_grads + dec_grads)
        for got, want in zip(encoder.parameters() + decoder.parameters(), params):
            np.testing.assert_array_equal(got, want)
        recon = encode(ref_decoder, encode(ref_encoder, data))
        assert loss == float(np.sum((recon - data) ** 2)) / data.size

    def test_a_step_frees_each_activation_once_backward_has_used_it(self):
        # Holding every activation until backward returns peaks at 27.3 MiB:
        # the decoder's outputs are still alive when the 8 MB weight gradient
        # of its 2000x500 layer is made. Dropping each output once its layer
        # is stepped peaks at 24.8 MiB.
        encoder, decoder = build_network(784, 10, seed=0)
        autoencoder = Network(encoder.layers + decoder.layers)
        optimizers = [SgdMomentum(0.1, 0.9) for _ in autoencoder.layers]
        x = np.random.default_rng(0).random((256, 784))
        # the first step makes the velocities
        trainer._reconstruction_step(autoencoder, optimizers, x, "loss")
        tracemalloc.start()
        try:
            trainer._reconstruction_step(autoencoder, optimizers, x, "loss")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 26 * 2**20


class TestFinetune:
    def test_two_gaussians_perfect_accuracy(self):
        data, labels = two_gaussians(n=400, seed=0)
        results = {}
        for method, gamma in (("dec", 0.0), ("rdec", 5.0)):
            encoder = small_encoder(1)
            cfg = fast_config(method=method, gamma=gamma, seed=4)
            assignments, report = finetune(encoder, data, 2, cfg, labels=labels)
            acc, _ = accuracy(labels, assignments)
            results[method] = (acc, report)
        for method, (acc, report) in results.items():
            assert acc == 1.0, f"{method} acc {acc}"
            assert report.stop_reason == "converged"
            assert report.checkpoints[-1].iteration < 400

    def test_gamma_zero_rdec_is_bitwise_dec(self):
        data, labels = two_gaussians(n=200, seed=5)
        traces = {}
        for method in ("dec", "rdec"):
            encoder = small_encoder(2)
            cfg = fast_config(method=method, gamma=0.0, max_iter=60, seed=9)
            assignments, report = finetune(encoder, data, 2, cfg, labels=labels)
            traces[method] = (assignments, report,
                              [p.copy() for p in encoder.parameters()])
        a_dec, r_dec, w_dec = traces["dec"]
        a_rdec, r_rdec, w_rdec = traces["rdec"]
        np.testing.assert_array_equal(a_dec, a_rdec)
        assert len(r_dec.iterations) == len(r_rdec.iterations)
        for x, y in zip(r_dec.iterations, r_rdec.iterations):
            assert x.clustering_loss == y.clustering_loss
            assert x.total_loss == y.total_loss
        for x, y in zip(r_dec.checkpoints, r_rdec.checkpoints):
            assert x.loss == y.loss and x.acc == y.acc
        for wa, wb in zip(w_dec, w_rdec):
            np.testing.assert_array_equal(wa, wb)

    def test_checkpoint_losses_trend_down(self):
        data, _ = two_gaussians(n=400, seed=0)
        encoder = small_encoder(1)
        cfg = fast_config(method="rdec", gamma=5.0, seed=4)
        _, report = finetune(encoder, data, 2, cfg)
        losses = [c.loss for c in report.checkpoints]
        # after the first two refreshes, allow at most one increase
        tail = losses[1:]
        violations = sum(1 for a, b in zip(tail, tail[1:]) if b > a + 1e-12)
        assert violations <= 1

    def test_trace_iterations_monotone(self):
        data, _ = two_gaussians(n=150, seed=3)
        encoder = small_encoder(4)
        _, report = finetune(encoder, data, 2, fast_config(max_iter=50))
        its = [r.iteration for r in report.iterations]
        assert its == sorted(its)
        cks = [c.iteration for c in report.checkpoints]
        assert cks == sorted(cks)

    def test_k_bounds(self):
        data, _ = two_gaussians(n=30, seed=1)
        encoder = small_encoder(0)
        with pytest.raises(ValueError):
            finetune(encoder, data, 1, fast_config())
        with pytest.raises(ValueError):
            finetune(encoder, data, 31, fast_config())

    def test_max_iterations_stop_reason(self):
        data, _ = two_gaussians(n=100, seed=6)
        encoder = small_encoder(5)
        cfg = fast_config(max_iter=5, tau=100)  # cannot reach a second checkpoint
        _, report = finetune(encoder, data, 2, cfg)
        assert report.stop_reason == "max_iterations"
        assert len(report.final_assignments) == 100

    @pytest.mark.parametrize("sigma, stop_reason, last_checkpoint", [
        (1.0, "converged", 20),  # any change rate below 1 stops at the second refresh
        (0.0, "max_iterations", 40),  # no change rate is below 0
    ])
    def test_the_stop_rule_reads_sigma(self, monkeypatch, sigma, stop_reason, last_checkpoint):
        monkeypatch.setattr(trainer, "SIGMA", sigma)
        data, _ = two_gaussians(n=200, seed=0)
        _, report = finetune(small_encoder(1), data, 2, fast_config(tau=20, max_iter=50))
        assert report.stop_reason == stop_reason
        assert report.checkpoints[-1].iteration == last_checkpoint

    def test_the_optimizers_read_finetune_lr(self, monkeypatch):
        monkeypatch.setattr(trainer, "FINETUNE_LR", 0.0)
        data, _ = two_gaussians(n=200, seed=0)
        encoder, cfg = small_encoder(1), fast_config()
        start = [p.copy() for p in encoder.parameters()]
        centroids = trainer._kmeans(encode(encoder, data), 2, cfg).centroids
        _, report = finetune(encoder, data, 2, cfg)
        assert len(report.iterations) == cfg.tau  # nothing moves, so the second refresh stops
        end = [*encoder.parameters(), report.final_centroids]
        for before, after in zip([*start, centroids], end, strict=True):
            assert after.tobytes() == before.tobytes()

    def test_determinism_same_seed(self):
        data, labels = two_gaussians(n=120, seed=8)
        outs = []
        for _ in range(2):
            encoder = small_encoder(6)
            cfg = fast_config(method="rdec", gamma=2.0, max_iter=40, seed=21)
            assignments, report = finetune(encoder, data, 2, cfg, labels=labels)
            outs.append((assignments, report))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        for x, y in zip(outs[0][1].iterations, outs[1][1].iterations):
            assert x.total_loss == y.total_loss

    def test_report_round_trips_to_json(self):
        import json

        data, labels = two_gaussians(n=80, seed=9)
        encoder = small_encoder(7)
        _, report = finetune(encoder, data, 2, fast_config(max_iter=25),
                             labels=labels)
        text = json.dumps(report.to_dict())
        parsed = json.loads(text)
        assert parsed["stop_reason"] in ("converged", "max_iterations")
        assert len(parsed["final_assignments"]) == 80
        assert list(parsed) == [f.name for f in fields(trainer.RunReport)]


    def test_first_refresh_reuses_the_kmeans_embedding(self, monkeypatch):
        data, _ = two_gaussians(n=120, seed=11)
        n = len(data)
        cfg = fast_config(max_iter=8, tau=50, batch_size=12, seed=13)
        start = small_encoder(8)

        rows = []
        real_encode, real_kmeans = trainer.encode, trainer.kmeans

        def counting_encode(net, x):
            rows.append(x.shape[0])
            return real_encode(net, x)

        runs = []

        def recording_kmeans(*args, **kwargs):
            runs.append(real_kmeans(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(trainer, "encode", counting_encode)
        monkeypatch.setattr(trainer, "kmeans", recording_kmeans)
        assignments, report = finetune(copy.deepcopy(start), data, 2, cfg)
        monkeypatch.undo()
        # one encode for K-means, one for the final predict; no refresh after 0
        assert sum(rows) == 2 * n

        # Replay the run with the first target computed through
        # ClusterModel.predict on a fresh copy of the starting encoder.
        model, checkpoint_loss, losses = list_step_replay(start, runs[0].centroids, data,
                                                          cfg)
        assert report.checkpoints[0].loss == checkpoint_loss
        assert_iteration_losses(report, losses, cfg.gamma)
        np.testing.assert_array_equal(assignments, model.predict(data).argmax(axis=1))
        np.testing.assert_array_equal(report.final_centroids, model.centroids)

    def test_rdec_per_layer_steps_equal_one_list_step(self, monkeypatch):
        # Each layer steps in backward's hand-off with its VAT gradients
        # added; one list step after the gamma-scaled combine gives the
        # same bits.
        data, _ = two_gaussians(n=120, seed=11)
        cfg = fast_config(method="rdec", gamma=2.0, max_iter=8, tau=50, batch_size=12,
                          seed=13)
        start = small_encoder(8)
        runs = []
        real_kmeans = trainer.kmeans

        def recording_kmeans(*args, **kwargs):
            runs.append(real_kmeans(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(trainer, "kmeans", recording_kmeans)
        encoder = copy.deepcopy(start)
        assignments, report = finetune(encoder, data, 2, cfg)
        model, checkpoint_loss, losses = list_step_replay(start, runs[0].centroids, data,
                                                          cfg)
        assert report.checkpoints[0].loss == checkpoint_loss
        assert_iteration_losses(report, losses, cfg.gamma)
        for got, want in zip(encoder.parameters(), model.encoder.parameters(), strict=True):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(report.final_centroids, model.centroids)
        np.testing.assert_array_equal(assignments, model.predict(data).argmax(axis=1))

    def test_a_fine_tune_step_holds_one_gradient_list(self):
        # Five rdec steps of the canonical stack at latent 2 on 1650 rows of
        # 784: holding the clean gradient list while the gamma-scaled VAT
        # list is made peaked at 61.9 MiB above the start. Stepping each
        # layer as the clean backward reaches it, with its VAT gradients
        # added, peaks at 46.7 MiB.
        encoder, _ = build_network(784, 2, seed=0)
        data = np.random.default_rng(0).random((1650, 784))
        cfg = fast_config(method="rdec", gamma=5.0, max_iter=5, batch_size=256,
                          kmeans_restarts=1)
        tracemalloc.start()
        try:
            finetune(encoder, data, 2, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 54 * 2**20

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the weights overflow
    def test_diverging_step_fails_at_the_first_non_finite_loss(self, monkeypatch):
        data, _ = two_gaussians(n=200, seed=0)
        monkeypatch.setattr(trainer, "FINETUNE_LR", 1e200)
        cfg = fast_config(method="rdec", gamma=5.0)
        with pytest.raises(FloatingPointError, match="clustering loss at iteration 1 "):
            finetune(small_encoder(1), data, 2, cfg)

    def test_non_finite_vat_loss_names_the_term(self, monkeypatch):
        data, _ = two_gaussians(n=200, seed=0)
        real = trainer.vat_loss
        calls = []

        def nan_at_iteration_3(model, x, r_adv, q_ref):
            loss, grads = real(model, x, r_adv, q_ref)
            calls.append(loss)
            return (np.nan if len(calls) == 4 else loss), grads

        monkeypatch.setattr(trainer, "vat_loss", nan_at_iteration_3)
        cfg = fast_config(method="rdec", gamma=5.0)
        with pytest.raises(FloatingPointError, match="VAT loss at iteration 3 "):
            finetune(small_encoder(1), data, 2, cfg)

    def test_a_non_finite_vat_loss_moves_no_parameter(self, monkeypatch):
        data, _ = two_gaussians(n=200, seed=0)
        real = trainer.vat_loss
        models = []

        def nan_at_iteration_3(model, x, r_adv, q_ref):
            loss, grads = real(model, x, r_adv, q_ref)
            models.append(model)
            return (np.nan if len(models) == 4 else loss), grads

        monkeypatch.setattr(trainer, "vat_loss", nan_at_iteration_3)
        cfg = fast_config(method="rdec", gamma=5.0)
        encoder = small_encoder(1)
        with pytest.raises(FloatingPointError, match="VAT loss at iteration 3 "):
            finetune(encoder, data, 2, cfg)
        monkeypatch.undo()
        # The clean backward of iteration 3 never ran: the model is the one
        # three iterations leave.
        three = small_encoder(1)
        _, report = finetune(three, data, 2, replace(cfg, max_iter=3))
        for got, want in zip(encoder.parameters(), three.parameters(), strict=True):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(models[-1].centroids, report.final_centroids)

    @pytest.mark.parametrize("method, gamma", [("dec", 0.0), ("rdec", 0.0), ("rdec", 2.0)])
    def test_read_only_data(self, cool_pretrain_lr, method, gamma):
        data, _ = two_gaussians(n=120, seed=4)
        data = (data - data.min()) / (data.max() - data.min())
        data.flags.writeable = False
        before = data.copy()
        encoder, decoder = small_encoder(2), small_decoder(2)
        cfg = fast_config(method=method, gamma=gamma, pretrain_epochs=2, max_iter=5,
                          batch_size=32)
        assert np.isfinite(pretrain(encoder, decoder, data, cfg))
        assignments, _ = finetune(encoder, data, 2, cfg)
        assert len(assignments) == len(data)
        assert trainer.encode(encoder, data).shape == (len(data), 2)
        np.testing.assert_array_equal(data, before)


class TestOneDistancePassPerKl:
    """Each KL evaluation in a step (the clustering term, the VAT probe,
    the perturbed pass) makes one distance pass that yields both q and
    the gradients."""

    @pytest.mark.parametrize("method, gamma, per_step", [
        ("dec", 0.0, 1),
        ("rdec", 0.0, 1),
        ("rdec", 2.0, 3),  # clustering term + the one probe + perturbed pass
    ])
    def test_squared_distance_calls_per_step(self, monkeypatch, method, gamma, per_step):
        data, _ = two_gaussians(n=120, seed=3)
        calls = []
        real = dec.squared_distances

        def counting(z, centroids):
            calls.append(z.shape[0])
            return real(z, centroids)

        monkeypatch.setattr(dec, "squared_distances", counting)
        steps = 7
        cfg = fast_config(method=method, gamma=gamma, max_iter=steps, tau=100,
                          batch_size=16, seed=5)
        _, report = finetune(small_encoder(3), data, 2, cfg)
        assert report.stop_reason == "max_iterations"
        assert len(report.iterations) == steps
        # plus one full-data pass for the refresh at 0 and one for the final predict
        assert len(calls) == steps * per_step + 2
        assert calls.count(len(data)) == 2

    @pytest.mark.parametrize("method, gamma, per_step", [
        ("dec", 0.0, 1),
        ("rdec", 0.0, 1),
        ("rdec", 2.0, 2),  # clustering term + perturbed pass; the probe needs no loss
    ])
    def test_kl_divergence_calls_per_step(self, monkeypatch, method, gamma, per_step):
        data, _ = two_gaussians(n=120, seed=3)
        calls = []
        real = trainer.kl_divergence

        def counting(p, q):
            calls.append(q.shape[0])
            return real(p, q)

        monkeypatch.setattr(trainer, "kl_divergence", counting)
        steps = 7
        cfg = fast_config(method=method, gamma=gamma, max_iter=steps, tau=100,
                          batch_size=16, seed=5)
        _, report = finetune(small_encoder(3), data, 2, cfg)
        assert len(report.iterations) == steps
        # plus the checkpoint loss of the refresh at iteration 0
        assert len(calls) == steps * per_step + 1
        assert calls.count(len(data)) == 1

    def test_input_gradient_probe_computes_no_loss(self, rng, monkeypatch):
        def forbidden(p, q):
            raise AssertionError("the input-gradient probe computed a loss")

        model = ClusterModel(small_encoder(2, in_dim=3), rng.standard_normal((3, 2)))
        x = rng.standard_normal((6, 3))
        monkeypatch.setattr(trainer, "kl_divergence", forbidden)
        grad_x = model.kl_input_grad(x, model.predict(x[::-1]))
        assert grad_x.shape == x.shape

    def test_dec_step_bypasses_the_vat_entry_points(self, monkeypatch):
        def forbidden(self, x, q_ref):
            raise AssertionError("a dec step went through a VAT entry point")

        monkeypatch.setattr(ClusterModel, "kl_param_grads", forbidden)
        monkeypatch.setattr(ClusterModel, "kl_input_grad", forbidden)
        data, _ = two_gaussians(n=200, seed=2)
        assignments, _ = finetune(small_encoder(1), data, 2,
                                  fast_config(method="dec", max_iter=60, seed=4))
        assert len(assignments) == len(data)

    def test_core_returns_the_prediction_with_the_gradients(self, rng):
        model = ClusterModel(small_encoder(2, in_dim=3), rng.standard_normal((3, 2)))
        x = rng.standard_normal((6, 3))
        q_ref = model.predict(rng.standard_normal((6, 3)))
        q, caches, grad_z, grad_centroids = model._kl_forward(x, q_ref)
        np.testing.assert_array_equal(q, model.predict(x))
        np.testing.assert_array_equal(backward(model.encoder, caches, grad_z),
                                      model.kl_input_grad(x, q_ref))
        want = [*step_grads(model.encoder, caches, grad_z), grad_centroids]
        loss, grads = model.kl_param_grads(x, q_ref)
        assert loss == kl_divergence(q_ref, q) / len(x)
        assert [g.shape for g in grads] == [p.shape for p in model.parameters()]
        for a, b in zip(grads, want, strict=True):
            np.testing.assert_array_equal(a, b)


class TestRunClustering:
    def test_kmeans_baseline(self):
        data, labels = two_gaussians(n=200, seed=2)
        assignments, report = run_clustering("kmeans", data, 2, fast_config(),
                                             labels=labels)
        assert report.method == "kmeans"
        assert report.checkpoints[0].acc == 1.0
        assert report.iterations == []

    def test_ae_kmeans_requires_encoder(self):
        data, _ = two_gaussians(n=50, seed=2)
        with pytest.raises(ValueError, match="encoder"):
            run_clustering("ae_kmeans", data, 2, fast_config())

    def test_ae_kmeans_with_encoder(self):
        data, labels = two_gaussians(n=200, seed=2)
        encoder = small_encoder(3)
        assignments, report = run_clustering("ae_kmeans", data, 2, fast_config(),
                                             encoder=encoder, labels=labels)
        assert report.checkpoints[0].acc == 1.0

    def test_dec_requires_encoder(self):
        data, _ = two_gaussians(n=50, seed=2)
        with pytest.raises(ValueError, match="encoder"):
            run_clustering("dec", data, 2, fast_config())

    def test_does_not_mutate_config_method(self):
        data, _ = two_gaussians(n=60, seed=2)
        cfg = fast_config(method="dec", max_iter=10)
        run_clustering("rdec", data, 2, cfg, encoder=small_encoder(1))
        assert cfg.method == "dec"

    def test_unknown_method(self):
        data, _ = two_gaussians(n=50, seed=2)
        with pytest.raises(ValueError, match="unknown method"):
            run_clustering("spectral", data, 2, fast_config())
