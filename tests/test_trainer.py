import copy
from dataclasses import fields

import numpy as np
import pytest

from rdec import dec, trainer
from rdec.dec import kl_divergence, target_distribution
from rdec.metrics import accuracy
from rdec.network import Layer, Network, SgdMomentum, backward, encode, forward
from rdec.tensor import mse_loss
from rdec.trainer import (
    ClusterModel,
    TrainConfig,
    finetune,
    label_change_rate,
    pretrain,
    run_clustering,
)

from conftest import two_gaussians


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
        method="dec", gamma=0.0, s=2.0, tau=20, sigma=0.01, max_iter=400,
        batch_size=128, pretrain_epochs=0, kmeans_restarts=5, seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


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


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"method": "bogus"},
        {"gamma": -1.0},
        {"s": 0.5},
        {"tau": 0},
        {"sigma": 0.0},
        {"sigma": 1.0},
        {"batch_size": 0},
        {"max_iter": 0},
        {"alpha": 0.0},
        {"seed": -1},
        {"kmeans_restarts": 0},
        {"epsilon": 0.0},
        {"xi": 0.0},
        {"ip": 0},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            fast_config(**kwargs).validate()

    @pytest.mark.parametrize("name, value", [
        ("pretrain_lr", 0.0),
        ("pretrain_lr", float("inf")),
        ("finetune_lr", -1.0),
        ("finetune_lr", float("nan")),
        ("pretrain_momentum", 1.0),
        ("pretrain_momentum", float("nan")),
        ("finetune_momentum", -0.1),
        ("finetune_momentum", 1.5),
    ])
    def test_rejects_a_bad_step_setting_by_name(self, name, value):
        with pytest.raises(ValueError, match=name):
            fast_config(**{name: value}).validate()

    def test_accepts_zero_momentum(self):
        fast_config(pretrain_momentum=0.0, finetune_momentum=0.0).validate()


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

    def test_loss_halves_on_structured_data(self):
        # mean-MSE gradients grow as entry count shrinks: small dims need a
        # cooler learning rate than the wide-input default
        data, _ = two_gaussians(n=300, seed=1)
        data = (data - data.min()) / (data.max() - data.min())  # into [0, 1]
        encoder = small_encoder(3)
        decoder = small_decoder(3)
        cfg = fast_config(pretrain_epochs=0)
        initial = pretrain(encoder, decoder, data, cfg)
        cfg = fast_config(pretrain_epochs=80)
        cfg.pretrain_lr = 0.05
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
            cfg.pretrain_lr = 0.05
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
        real = trainer._reconstruction_step
        epoch_of_batch = iter([0, 0, 1, 1])  # two 32-row batches an epoch

        def nan_in_epoch_1(*args):
            loss = real(*args)
            return np.nan if next(epoch_of_batch) == 1 else loss

        monkeypatch.setattr(trainer, "_reconstruction_step", nan_in_epoch_1)
        cfg = fast_config(pretrain_epochs=3, batch_size=32, pretrain_lr=0.05)
        with pytest.raises(FloatingPointError, match="reconstruction loss at epoch 1 "):
            pretrain(small_encoder(0), small_decoder(0), data, cfg)

    def test_pretrain_stops_at_the_first_non_finite_batch(self, monkeypatch):
        data, _ = two_gaussians(n=64, seed=0)
        data = (data - data.min()) / (data.max() - data.min())
        real = trainer._reconstruction_step
        calls = []

        def nan_loss(*args):
            calls.append(real(*args))
            return np.nan

        monkeypatch.setattr(trainer, "_reconstruction_step", nan_loss)
        cfg = fast_config(pretrain_epochs=3, batch_size=32, pretrain_lr=0.05)
        with pytest.raises(FloatingPointError,
                           match="reconstruction loss at epoch 0 batch 0 "):
            pretrain(small_encoder(0), small_decoder(0), data, cfg)
        assert len(calls) == 1

    def test_one_stack_matches_two_stacks(self, monkeypatch):
        data, _ = two_gaussians(n=100, seed=4)
        data = (data - data.min()) / (data.max() - data.min())
        cfg = fast_config(pretrain_epochs=3, batch_size=32, seed=5)
        cfg.pretrain_lr = 0.05
        cfg.pretrain_momentum = 0.5  # a path that ignores it fails below
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
        optimizer = SgdMomentum(cfg.pretrain_lr, cfg.pretrain_momentum)
        rng = np.random.default_rng([cfg.seed, trainer._STREAM_PRETRAIN])
        for _ in range(cfg.pretrain_epochs):
            for idx in trainer._epoch_batches(len(data), cfg.batch_size, rng):
                x = data[idx]
                z, enc_caches = forward(ref_encoder, x)
                recon, dec_caches = forward(ref_decoder, z)
                _, grad = mse_loss(recon, x)
                dec_grads, grad_z = backward(ref_decoder, dec_caches, grad,
                                             need_input_grad=True)
                enc_grads, _ = backward(ref_encoder, enc_caches, grad_z)
                optimizer.step(params, enc_grads + dec_grads)
        for got, want in zip(encoder.parameters() + decoder.parameters(), params):
            np.testing.assert_array_equal(got, want)
        recon = encode(ref_decoder, encode(ref_encoder, data))
        assert loss == float(np.sum((recon - data) ** 2)) / data.size


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
        model = ClusterModel(copy.deepcopy(start), runs[0].centroids.copy(), cfg.alpha)
        q = model.predict(data)
        target = target_distribution(q, cfg.s)
        assert report.checkpoints[0].loss == kl_divergence(target, q) / n
        params = model.parameters()
        optimizer = SgdMomentum(cfg.finetune_lr, cfg.finetune_momentum)
        # max_iter * batch_size <= n: every batch comes from the first epoch
        perm = np.random.default_rng([cfg.seed, trainer._STREAM_SHUFFLE]).permutation(n)
        for it in range(cfg.max_iter):
            idx = perm[it * cfg.batch_size : (it + 1) * cfg.batch_size]
            _, grads = model.kl_param_grads(data[idx], target[idx])
            optimizer.step(params, grads)
        np.testing.assert_array_equal(assignments, model.predict(data).argmax(axis=1))
        np.testing.assert_array_equal(report.final_centroids, model.centroids)

    def test_bad_alpha_fails_before_kmeans(self, monkeypatch):
        data, _ = two_gaussians(n=40, seed=1)

        def no_kmeans(*args, **kwargs):
            raise AssertionError("K-means ran before alpha was checked")

        monkeypatch.setattr(trainer, "kmeans", no_kmeans)
        for alpha in (0.0, -1.0):
            with pytest.raises(ValueError, match="alpha"):
                finetune(small_encoder(0), data, 2, fast_config(alpha=alpha))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the weights overflow
    def test_diverging_step_fails_at_the_first_non_finite_loss(self):
        data, _ = two_gaussians(n=200, seed=0)
        cfg = fast_config(method="rdec", gamma=5.0, finetune_lr=1e200)
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

    @pytest.mark.parametrize("method, gamma", [("dec", 0.0), ("rdec", 0.0), ("rdec", 2.0)])
    def test_read_only_data(self, method, gamma):
        data, _ = two_gaussians(n=120, seed=4)
        data = (data - data.min()) / (data.max() - data.min())
        data.flags.writeable = False
        before = data.copy()
        encoder, decoder = small_encoder(2), small_decoder(2)
        cfg = fast_config(method=method, gamma=gamma, pretrain_epochs=2, max_iter=5,
                          batch_size=32)
        cfg.pretrain_lr = 0.05
        assert np.isfinite(pretrain(encoder, decoder, data, cfg))
        assignments, _ = finetune(encoder, data, 2, cfg)
        assert len(assignments) == len(data)
        assert trainer.encode(encoder, data).shape == (len(data), 2)
        np.testing.assert_array_equal(data, before)


class TestOneDistancePassPerKl:
    """Each KL evaluation in a step (the clustering term, every VAT probe,
    the perturbed pass) makes one distance pass that yields both q and
    the gradients."""

    @pytest.mark.parametrize("method, gamma, per_step", [
        ("dec", 0.0, 1),
        ("rdec", 0.0, 1),
        ("rdec", 2.0, 3),  # clustering term + one ip=1 probe + perturbed pass
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
        assert cfg.ip == 1
        _, report = finetune(small_encoder(3), data, 2, cfg)
        assert report.stop_reason == "max_iterations"
        assert len(report.iterations) == steps
        # plus one full-data pass for the refresh at 0 and one for the final predict
        assert len(calls) == steps * per_step + 2
        assert calls.count(len(data)) == 2

    @pytest.mark.parametrize("method, gamma, per_step", [
        ("dec", 0.0, 1),
        ("rdec", 0.0, 1),
        ("rdec", 2.0, 2),  # clustering term + perturbed pass; the ip=1 probe needs no loss
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
        assert cfg.ip == 1
        _, report = finetune(small_encoder(3), data, 2, cfg)
        assert len(report.iterations) == steps
        # plus the checkpoint loss of the refresh at iteration 0
        assert len(calls) == steps * per_step + 1
        assert calls.count(len(data)) == 1

    def test_input_gradient_probe_computes_no_loss(self, rng):
        model = ClusterModel(small_encoder(2, in_dim=3), rng.standard_normal((3, 2)))
        x = rng.standard_normal((6, 3))
        loss, q, grad_x, grads = model._kl_forward_backward(
            x, model.predict(x[::-1]), True, False
        )
        assert loss is None and grads is None
        assert q.shape == (6, 3) and grad_x.shape == x.shape

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
        loss, q, grad_x, grads = model._kl_forward_backward(x, q_ref, True, True)
        np.testing.assert_array_equal(q, model.predict(x))
        assert loss == kl_divergence(q_ref, q) / len(x)
        np.testing.assert_array_equal(grad_x, model.kl_input_grad(x, q_ref))
        view_loss, view_grads = model.kl_param_grads(x, q_ref)
        assert view_loss == loss
        for a, b in zip(grads, view_grads, strict=True):
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
