import numpy as np
import pytest

from rdec.dec import kl_divergence
from rdec.network import Layer, Network
from rdec.trainer import ClusterModel, TrainConfig, finetune
from rdec.vat import adversarial_perturbation, vat_loss

from conftest import numerical_grad, relative_error, two_gaussians


def small_model(rng, in_dim=4, hidden=8, latent=2, k=2):
    net = Network([
        Layer(rng.standard_normal((in_dim, hidden)) * 0.5,
              rng.standard_normal(hidden) * 0.1, "relu"),
        Layer(rng.standard_normal((hidden, latent)) * 0.5,
              rng.standard_normal(latent) * 0.1, "none"),
    ])
    centroids = rng.standard_normal((k, latent))
    return ClusterModel(net, centroids)


def per_row_kl(p, q):
    mask = p > 0
    terms = np.where(mask, p * np.log(np.where(mask, p / q, 1.0)), 0.0)
    return terms.sum(axis=1)


class TestPerturbationNorm:
    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.5])
    def test_rows_have_norm_epsilon(self, epsilon, rng):
        model = small_model(rng)
        x = rng.standard_normal((12, 4))
        q_ref = model.predict(x)
        r = adversarial_perturbation(model, x, q_ref, epsilon, 10.0,
                                     np.random.default_rng(0))
        np.testing.assert_allclose(np.linalg.norm(r, axis=1), epsilon, atol=1e-6)

    def test_multiple_power_iterations(self, rng, monkeypatch):
        monkeypatch.setattr("rdec.vat.POWER_ITERATIONS", 3)
        model = small_model(rng)
        x = rng.standard_normal((6, 4))
        q_ref = model.predict(x)
        r = adversarial_perturbation(model, x, q_ref, 1.0, 1.0, np.random.default_rng(1))
        np.testing.assert_allclose(np.linalg.norm(r, axis=1), 1.0, atol=1e-6)

    def test_a_direct_call_rejects_a_bad_setting(self, rng):
        model = small_model(rng)
        x = rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="epsilon must be positive, got -1.0"):
            adversarial_perturbation(model, x, model.predict(x), -1.0, 10.0,
                                     np.random.default_rng(0))
        with pytest.raises(ValueError, match="xi must be finite, got nan"):
            adversarial_perturbation(model, x, model.predict(x), 1.0, float("nan"),
                                     np.random.default_rng(0))


class TestConstantModel:
    def make_constant(self):
        # zero weights: every input embeds to the same point
        net = Network([Layer(np.zeros((3, 2)), np.zeros(2), "none")])
        centroids = np.array([[0.0, 1.0], [1.0, 0.0]])
        return ClusterModel(net, centroids)

    def test_radv_is_seeded_direction(self, rng):
        model = self.make_constant()
        x = rng.standard_normal((5, 3))
        q_ref = model.predict(x)
        r = adversarial_perturbation(model, x, q_ref, 2.0, 10.0,
                                     np.random.default_rng(99))
        raw = np.random.default_rng(99).standard_normal(x.shape)
        expected = 2.0 * raw / np.linalg.norm(raw, axis=1, keepdims=True)
        np.testing.assert_allclose(r, expected, atol=1e-12)

    def test_loss_is_zero(self, rng):
        model = self.make_constant()
        x = rng.standard_normal((5, 3))
        q_ref = model.predict(x)
        r = adversarial_perturbation(model, x, q_ref, 1.0, 10.0, np.random.default_rng(0))
        loss, grads = vat_loss(model, x, r, q_ref)
        assert loss == pytest.approx(0.0, abs=1e-15)


class TestAxisAlignedToy:
    def test_perturbation_follows_sensitive_coordinate(self, rng):
        # predictions depend only on coordinate 0
        net = Network([Layer(np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2), "none")])
        centroids = np.array([[0.0, 0.0], [1.0, 0.0]])
        model = ClusterModel(net, centroids)
        x = rng.uniform(-1.0, 2.0, size=(20, 2))
        q_ref = model.predict(x)
        r = adversarial_perturbation(model, x, q_ref, 1.0, 0.1, np.random.default_rng(5))
        np.testing.assert_allclose(np.abs(r[:, 0]), 1.0, atol=1e-9)
        np.testing.assert_allclose(r[:, 1], 0.0, atol=1e-9)


class TestVatLoss:
    def test_zero_perturbation_zero_everything(self, rng):
        model = small_model(rng)
        x = rng.standard_normal((6, 4))
        loss, grads = vat_loss(model, x, np.zeros_like(x), model.predict(x))
        assert loss == pytest.approx(0.0, abs=1e-15)
        for g in grads:
            np.testing.assert_allclose(g, 0.0, atol=1e-15)

    def test_non_negative(self, rng):
        for trial in range(30):
            model = small_model(np.random.default_rng(trial))
            x = rng.standard_normal((5, 4))
            q_ref = model.predict(x)
            r = adversarial_perturbation(model, x, q_ref, 1.0, 10.0,
                                         np.random.default_rng(trial))
            loss, _ = vat_loss(model, x, r, q_ref=q_ref)
            assert loss >= -1e-12

    def test_param_grads_match_finite_differences(self, rng):
        model = small_model(rng, in_dim=4, hidden=6, latent=2, k=2)
        x = rng.standard_normal((3, 4))
        q_ref = model.predict(x)
        r = adversarial_perturbation(model, x, q_ref, 1.0, 10.0, np.random.default_rng(7))
        _, grads = vat_loss(model, x, r, q_ref=q_ref)

        params = model.parameters()
        x_perturbed = x + r

        def loss_at():
            q = model.predict(x_perturbed)
            return kl_divergence(q_ref, q) / x.shape[0]

        for param, grad in zip(params, grads):
            def f(values, _p=param):
                saved = _p.copy()
                _p[...] = values
                out = loss_at()
                _p[...] = saved
                return out

            fd = numerical_grad(f, param.copy())
            assert relative_error(grad, fd) < 1e-5


def trained_toy_model(seed=0, dim=48):
    """Two lifted Gaussian blobs and a briefly cluster-trained small encoder.

    High-dimensional inputs mirror the intended regime: the encoder's
    input sensitivity spans only a 2-plane, so random directions waste
    almost all their norm on insensitive axes.
    """
    base, _ = two_gaussians(n=400, separation=4.0, scale=0.8, seed=3)
    lift = np.random.default_rng(42).standard_normal((2, dim))
    data = base @ (lift * (2.0 / np.sqrt(dim / 12.0)))
    rng = np.random.default_rng(seed)
    encoder = Network([
        Layer(rng.standard_normal((dim, 64)) * 0.3, np.zeros(64), "relu"),
        Layer(rng.standard_normal((64, 2)) * 0.3, np.zeros(2), "none"),
    ])
    cfg = TrainConfig(method="dec", gamma=0.0, tau=20, max_iter=200,
                      batch_size=128, pretrain_epochs=0, kmeans_restarts=5, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        # the stop threshold these models were trained at
        patch.setattr("rdec.trainer.SIGMA", 1e-9)
        finetune(encoder, data, 2, cfg)
    from rdec.kmeans import kmeans
    from rdec.network import encode

    centroids = kmeans(encode(encoder, data), 2, restarts=5, seed=1).centroids
    return ClusterModel(encoder, centroids), data


class TestAdversariality:
    def test_beats_random_directions(self, monkeypatch):
        # The probe gradient pins the adversarial line but not the sign
        # along it (the quadratic approximation is sign-blind); two power
        # iterations settle the line well enough that even a wrong-sign
        # perturbation beats a random direction almost always.
        monkeypatch.setattr("rdec.vat.POWER_ITERATIONS", 2)
        model, data = trained_toy_model(seed=0)
        x = data[:200]
        q_ref = model.predict(x)
        r_adv = adversarial_perturbation(model, x, q_ref, 1.0, 1.0,
                                         np.random.default_rng(11))
        random_dirs = np.random.default_rng(13).standard_normal(x.shape)
        random_dirs /= np.linalg.norm(random_dirs, axis=1, keepdims=True)

        kl_adv = per_row_kl(q_ref, model.predict(x + r_adv))
        kl_rand = per_row_kl(q_ref, model.predict(x + random_dirs))
        wins = np.mean(kl_adv >= kl_rand - 1e-15)
        assert wins >= 0.95


class TestTwoClusterDirection:
    @pytest.mark.parametrize("which", ["small", "trained-toy"])
    def test_a_small_probe_follows_the_hard_label_gradient(self, rng, which):
        # With k = 2, q is a function of one log-odds s(x), so the KL's
        # Hessian at r = 0 (the Fisher matrix) is rank one along grad s, and
        # so is the KL input gradient against the row's own hard label. A
        # probe at xi = 1e-6 must land on that line, up to the sign.
        if which == "small":
            model = small_model(rng)
            x = rng.standard_normal((200, 4))
        else:
            model, x = trained_toy_model(seed=0)
        xi = 1e-6
        q = model.predict(x)
        hard = np.eye(2)[q.argmax(axis=1)]
        g = model.kl_input_grad(x, hard)
        norms = np.linalg.norm(g, axis=1)
        r = adversarial_perturbation(model, x, q, 1.0, xi, np.random.default_rng(7))
        cosine = np.abs(np.sum(r * g, axis=1)) / np.where(norms > 0, norms, 1.0)
        # Keep rows with a gradient (not every ReLU unit off) whose ReLU units
        # all keep their sign within xi of x: a unit's pre-activation moves by
        # at most xi * |w_j| there. Only the first layer has ReLUs.
        first = model.encoder.layers[0]
        assert [layer.activation for layer in model.encoder.layers] == ["relu", "none"]
        pre = x @ first.weight + first.bias
        margin = xi * np.linalg.norm(first.weight, axis=0)
        kept = (norms > 0) & np.all(np.abs(pre) > margin, axis=1)
        assert kept.mean() >= 0.9
        assert cosine[kept].min() >= 1 - 1e-8
