"""Acceptance suite.

Fast tier (criteria 1-7) runs on every invocation in under two minutes.
The desk tier (criteria 8-11) drives the full experiment protocol on real
MNIST 0/6 subsets; it needs the four IDX files (see scripts/fetch_mnist.py)
in $RDEC_MNIST_DIR or ./data/mnist plus RDEC_RUN_DESK=1, and takes on the
order of an hour of CPU. Each criterion prints one PASS/FAIL line.
"""

import copy
import os
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rdec.cli import _read_idx_files
from rdec.data import SubsampleSpec, filter_classes, scale_pixels, subsample
from rdec.dec import kl_divergence, clustering_grads, soft_assign, target_distribution
from rdec.kmeans import kmeans
from rdec.metrics import accuracy, adjusted_rand_index, per_class_prf
from rdec.network import Layer, Network, build_network
from rdec.tensor import affine_backward, affine_forward, mse_loss, relu_backward, relu_forward
from rdec.trainer import ClusterModel, TrainConfig, finetune, pretrain
from rdec.vat import adversarial_perturbation, vat_loss

from conftest import numerical_grad, relative_error, two_gaussians
from test_metrics import brute_force_accuracy
from test_vat import per_row_kl, trained_toy_model

GRAD_TOL = 1e-5
ROW_SUM_TOL = 1e-9
NORM_TOL = 1e-6


def random_relu_net(rng, in_dim, hidden, out_dim):
    return Network([
        Layer(rng.standard_normal((in_dim, hidden)) * 0.5,
              rng.standard_normal(hidden) * 0.1, "relu"),
        Layer(rng.standard_normal((hidden, out_dim)) * 0.5,
              rng.standard_normal(out_dim) * 0.1, "none"),
    ])


@pytest.mark.criterion(1, "all backward passes match central finite differences "
                          "within 1e-5 relative error on 100+ random instances")
def test_c1_gradient_suite():
    rng = np.random.default_rng(101)

    for _ in range(100):  # affine
        n, d_in, d_out = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 5)
        x = rng.standard_normal((n, d_in))
        w = rng.standard_normal((d_in, d_out))
        b = rng.standard_normal(d_out)
        coeffs = rng.standard_normal((n, d_out))

        def f(inp, weight, bias):
            return float((affine_forward(inp, weight, bias) * coeffs).sum())

        gi, gw, gb = affine_backward(coeffs, x, w)
        assert relative_error(gi, numerical_grad(lambda v: f(v, w, b), x.copy())) < GRAD_TOL
        assert relative_error(gw, numerical_grad(lambda v: f(x, v, b), w.copy())) < GRAD_TOL
        assert relative_error(gb, numerical_grad(lambda v: f(x, w, v), b.copy())) < GRAD_TOL

    for _ in range(100):  # relu (inputs bounded away from the kink)
        n, d = rng.integers(1, 6), rng.integers(1, 6)
        x = rng.standard_normal((n, d))
        x[np.abs(x) < 1e-3] += 0.01
        coeffs = rng.standard_normal((n, d))
        out = relu_forward(x.copy())
        grad = relu_backward(coeffs.copy(), out)
        fd = numerical_grad(lambda v: float((relu_forward(v.copy()) * coeffs).sum()),
                            x.copy())
        assert relative_error(grad, fd) < GRAD_TOL

    for _ in range(100):  # mse
        n, d = rng.integers(1, 6), rng.integers(1, 6)
        pred = rng.standard_normal((n, d))
        target = rng.standard_normal((n, d))
        _, grad = mse_loss(pred, target)
        fd = numerical_grad(lambda v: mse_loss(v, target)[0], pred.copy())
        assert relative_error(grad, fd) < GRAD_TOL

    for _ in range(100):  # clustering KL wrt points and centroids
        n, k, dim = rng.integers(2, 6), rng.integers(2, 5), rng.integers(1, 4)
        z = rng.standard_normal((n, dim)) * 2
        u = rng.standard_normal((k, dim)) * 2
        p = rng.random((n, k)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        _, gz, gu = clustering_grads(z, u, p)
        fd_z = numerical_grad(lambda v: kl_divergence(p, soft_assign(v, u)), z.copy())
        fd_u = numerical_grad(lambda v: kl_divergence(p, soft_assign(z, v)), u.copy())
        assert relative_error(gz, fd_z) < GRAD_TOL
        assert relative_error(gu, fd_u) < GRAD_TOL

    for trial in range(100):  # consistency loss through the perturbed branch
        inst = np.random.default_rng(trial)
        net = random_relu_net(inst, 4, 5, 2)
        centroids = inst.standard_normal((2, 2))
        model = ClusterModel(net, centroids)
        x = inst.standard_normal((3, 4))
        q_ref = model.predict(x)
        r_adv = adversarial_perturbation(
            model, x, q_ref, 1.0, 1.0, np.random.default_rng(trial + 1)
        )
        _, grads = vat_loss(model, x, r_adv, q_ref=q_ref)
        x_perturbed = x + r_adv

        def loss_at():
            return kl_divergence(q_ref, model.predict(x_perturbed)) / x.shape[0]

        for param, grad in zip(model.parameters(), grads):
            def f(values, _p=param):
                saved = _p.copy()
                _p[...] = values
                out = loss_at()
                _p[...] = saved
                return out

            assert relative_error(grad, numerical_grad(f, param.copy())) < GRAD_TOL


@pytest.mark.criterion(2, "assignment and target rows sum to 1 within 1e-9; "
                          "KL non-negative on 1000 random pairs and zero on self")
def test_c2_distribution_suite():
    rng = np.random.default_rng(202)
    for _ in range(200):
        n, k, dim = rng.integers(1, 20), rng.integers(1, 8), rng.integers(1, 6)
        z = rng.standard_normal((n, dim)) * rng.uniform(0.1, 20)
        u = rng.standard_normal((k, dim)) * rng.uniform(0.1, 20)
        q = soft_assign(z, u)
        assert np.all(np.abs(q.sum(axis=1) - 1.0) <= ROW_SUM_TOL)
        rng.uniform(1.0, 3.0)  # an unused draw, kept so that the 200 cases stay as drawn
        p = target_distribution(q)
        assert np.all(np.abs(p.sum(axis=1) - 1.0) <= ROW_SUM_TOL)

    for _ in range(1000):
        n, k = rng.integers(1, 5), rng.integers(2, 6)
        p = rng.random((n, k)) + 1e-9
        p /= p.sum(axis=1, keepdims=True)
        q = rng.random((n, k)) + 1e-9
        q /= q.sum(axis=1, keepdims=True)
        assert kl_divergence(p, q) >= -1e-12
    p = rng.random((4, 3)) + 0.1
    p /= p.sum(axis=1, keepdims=True)
    assert kl_divergence(p, p.copy()) == 0.0


@pytest.mark.criterion(3, "perturbation rows have norm epsilon within 1e-6; "
                          "consistency loss vanishes for constant models; "
                          "adversarial beats random in >=95% of 200 toy trials")
def test_c3_vat_suite(monkeypatch):
    rng = np.random.default_rng(303)
    for _ in range(20):
        net = random_relu_net(rng, 6, 8, 3)
        model = ClusterModel(net, rng.standard_normal((3, 3)))
        x = rng.standard_normal((10, 6))
        q_ref = model.predict(x)
        eps = float(rng.uniform(0.2, 3.0))
        r = adversarial_perturbation(model, x, q_ref, eps, 10.0,
                                     np.random.default_rng(1))
        assert np.all(np.abs(np.linalg.norm(r, axis=1) - eps) <= NORM_TOL)

    constant = ClusterModel(
        Network([Layer(np.zeros((6, 3)), np.zeros(3), "none")]),
        np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
    )
    x = rng.standard_normal((8, 6))
    q_ref = constant.predict(x)
    r = adversarial_perturbation(constant, x, q_ref, 1.0, 10.0,
                                 np.random.default_rng(2))
    loss, _ = vat_loss(constant, x, r, q_ref)
    assert loss == pytest.approx(0.0, abs=1e-15)
    assert np.all(np.abs(np.linalg.norm(r, axis=1) - 1.0) <= NORM_TOL)

    model, data = trained_toy_model(seed=0)
    x = data[:200]
    q_ref = model.predict(x)
    monkeypatch.setattr("rdec.vat.POWER_ITERATIONS", 2)
    r_adv = adversarial_perturbation(model, x, q_ref, 1.0, 1.0,
                                     np.random.default_rng(11))
    random_dirs = np.random.default_rng(13).standard_normal(x.shape)
    random_dirs /= np.linalg.norm(random_dirs, axis=1, keepdims=True)
    kl_adv = per_row_kl(q_ref, model.predict(x + r_adv))
    kl_rand = per_row_kl(q_ref, model.predict(x + random_dirs))
    assert np.mean(kl_adv >= kl_rand - 1e-15) >= 0.95


@pytest.mark.criterion(4, "optimal-assignment ACC equals brute force for K<=6 on "
                          "200 instances; crosswise ARI is exactly -0.5; ACC is "
                          "permutation invariant")
def test_c4_metric_oracles():
    rng = np.random.default_rng(404)
    for _ in range(200):
        k_true = int(rng.integers(2, 7))
        k_pred = int(rng.integers(2, 7))
        n = int(rng.integers(4, 30))
        labels = rng.integers(0, k_true, size=n)
        assignments = rng.integers(0, k_pred, size=n)
        fast, _ = accuracy(labels, assignments)
        assert fast == brute_force_accuracy(labels, assignments)

    assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == -0.5

    labels = rng.integers(0, 4, size=80)
    assignments = rng.integers(0, 4, size=80)
    base, _ = accuracy(labels, assignments)
    for perm_seed in range(5):
        perm_rng = np.random.default_rng(perm_seed)
        cluster_perm = perm_rng.permutation(4)
        label_perm = perm_rng.permutation(4)
        permuted, _ = accuracy(label_perm[labels], cluster_perm[assignments])
        assert permuted == base


@pytest.mark.criterion(5, "regularized method with weight zero is bit-identical "
                          "to the plain method at equal seed")
def test_c5_dec_equivalence():
    data, labels = two_gaussians(n=250, seed=17)
    rng = np.random.default_rng(9)
    outputs = {}
    for method in ("dec", "rdec"):
        encoder = random_relu_net(np.random.default_rng(9), 2, 24, 2)
        cfg = TrainConfig(method=method, gamma=0.0, tau=15, max_iter=70, batch_size=64,
                          pretrain_epochs=0, kmeans_restarts=5, seed=31)
        assignments, report = finetune(encoder, data, 2, cfg, labels=labels)
        outputs[method] = (assignments, report, [p.copy() for p in encoder.parameters()])

    a0, r0, w0 = outputs["dec"]
    a1, r1, w1 = outputs["rdec"]
    np.testing.assert_array_equal(a0, a1)
    assert [vars(x) for x in r0.iterations] == [vars(x) for x in r1.iterations]
    assert [(c.iteration, c.loss, c.acc, c.ari, c.label_change_rate)
            for c in r0.checkpoints] == \
           [(c.iteration, c.loss, c.acc, c.ari, c.label_change_rate)
            for c in r1.checkpoints]
    for pa, pb in zip(w0, w1):
        np.testing.assert_array_equal(pa, pb)
    np.testing.assert_array_equal(r0.final_centroids, r1.final_centroids)


@pytest.mark.criterion(6, "K-means solves the 4-point example exactly and its "
                          "inertia never increases within a run")
def test_c6_kmeans(monkeypatch):
    points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    result = kmeans(points, k=2, restarts=10, seed=0)
    assert result.inertia == pytest.approx(1.0, abs=1e-12)
    got = {tuple(np.round(c, 9)) for c in result.centroids}
    assert got == {(0.0, 0.5), (10.0, 0.5)}

    rng = np.random.default_rng(606)
    monkeypatch.setattr("rdec.kmeans.MAX_ITER", 60)
    for trial in range(20):
        pts = rng.standard_normal((120, 5)) + rng.integers(0, 4, size=(120, 1)) * 3.0
        res = kmeans(pts, k=4, restarts=3, seed=trial)
        hist = res.inertia_history
        assert all(later <= earlier + 1e-9 for earlier, later in zip(hist, hist[1:]))


@pytest.mark.criterion(7, "two-Gaussian synthetic run: plain and regularized "
                          "methods both reach ACC 1.0 and stop by convergence "
                          "in under 30 seconds")
def test_c7_synthetic_end_to_end(monkeypatch):
    start = time.perf_counter()
    # two input dims want a cooler rate: at 1.0 the loss turns non-finite in epoch 13
    monkeypatch.setattr("rdec.trainer.PRETRAIN_LR", 0.5)
    raw, labels = two_gaussians(n=400, separation=8.0, scale=0.5, seed=7)
    data = (raw - raw.min()) / (raw.max() - raw.min())

    base_cfg = TrainConfig(method="dec", gamma=0.0, tau=20, max_iter=2000, batch_size=256,
                           pretrain_epochs=15, kmeans_restarts=10, seed=5)
    encoder, decoder = build_network(2, 2, seed=5)
    pretrain(encoder, decoder, data, base_cfg)

    for method, gamma in (("dec", 0.0), ("rdec", 5.0)):
        enc = copy.deepcopy(encoder)
        cfg = replace(base_cfg, method=method, gamma=gamma)
        assignments, report = finetune(enc, data, 2, cfg, labels=labels)
        acc, _ = accuracy(labels, assignments)
        assert acc == 1.0, f"{method} reached only {acc}"
        assert report.stop_reason == "converged"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Desk tier: real MNIST 0/6 experiments at the shipped defaults.
# ---------------------------------------------------------------------------

MNIST_FILES = (
    "train-images-idx3-ubyte", "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte",
)


def mnist_dir():
    root = Path(os.environ.get("RDEC_MNIST_DIR", Path(__file__).parent.parent / "data" / "mnist"))
    found = {}
    for name in MNIST_FILES:
        for candidate in (root / name, root / f"{name}.gz"):
            if candidate.is_file():
                found[name] = candidate
                break
        else:
            return None
    return found


def desk_enabled():
    return os.environ.get("RDEC_RUN_DESK", "") not in ("", "0") and mnist_dir() is not None


desk = pytest.mark.skipif(
    not desk_enabled(),
    reason="desk tier needs MNIST IDX files (scripts/fetch_mnist.py, RDEC_MNIST_DIR) "
           "and RDEC_RUN_DESK=1",
)

DESK_SEEDS = (0, 1, 2, 3, 4)


def load_mnist_06():
    files = mnist_dir()
    full = _read_idx_files([files["train-images-idx3-ubyte"], files["t10k-images-idx3-ubyte"]],
                           [files["train-labels-idx1-ubyte"], files["t10k-labels-idx1-ubyte"]],
                           name="mnist")
    assert full.n == 70_000 and full.dim == 784
    return scale_pixels(filter_classes(full, [0, 6]))


def desk_config(method, seed):
    return TrainConfig(method=method, gamma=5.0 if method == "rdec" else 0.0,
                       epsilon=1.0, xi=10.0, tau=140, max_iter=20_000, batch_size=256,
                       pretrain_epochs=300, seed=seed)


@pytest.fixture(scope="session")
def desk_runs():
    """Five-seed grid on balanced and imbalanced 0/6 subsets, both methods."""
    balanced = load_mnist_06()
    runs = {"balanced": {}, "imbalanced": {}}
    for variant in ("balanced", "imbalanced"):
        if variant == "balanced":
            ds = balanced
        else:
            ds = subsample(balanced, SubsampleSpec(
                mode="single_class", r_min=0.1, target_class=0, seed=1234))
        for seed in DESK_SEEDS:
            encoder, decoder = build_network(784, 2, seed=seed)
            pretrain(encoder, decoder, ds.features, desk_config("dec", seed))
            per_method = {}
            for method in ("dec", "rdec"):
                enc = copy.deepcopy(encoder)
                cfg = desk_config(method, seed)
                assignments, report = finetune(enc, ds.features, 2, cfg,
                                               labels=ds.labels)
                acc, mapping = accuracy(ds.labels, assignments)
                prf0 = per_class_prf(ds.labels, assignments, mapping, 0)
                per_method[method] = {
                    "acc": acc, "f0": prf0[2], "report": report,
                }
            runs[variant][seed] = per_method
    return runs


@desk
@pytest.mark.desk
@pytest.mark.criterion(8, "balanced 0/6 subset, 2-D embedding: regularized "
                          "median ACC >= 95% and median paired gap >= 5 points")
def test_c8_balanced_zero_six(desk_runs):
    grid = desk_runs["balanced"]
    rdec_accs = [grid[s]["rdec"]["acc"] for s in DESK_SEEDS]
    gaps = [grid[s]["rdec"]["acc"] - grid[s]["dec"]["acc"] for s in DESK_SEEDS]
    assert statistics.median(rdec_accs) >= 0.95
    assert statistics.median(gaps) >= 0.05


@desk
@pytest.mark.desk
@pytest.mark.criterion(9, "imbalanced 0/6 subset (class 0 at 1/10): regularized "
                          "median ACC >= 90% and median paired gap >= 15 points")
def test_c9_imbalanced_zero_six(desk_runs):
    grid = desk_runs["imbalanced"]
    rdec_accs = [grid[s]["rdec"]["acc"] for s in DESK_SEEDS]
    gaps = [grid[s]["rdec"]["acc"] - grid[s]["dec"]["acc"] for s in DESK_SEEDS]
    assert statistics.median(rdec_accs) >= 0.90
    assert statistics.median(gaps) >= 0.15


@desk
@pytest.mark.desk
@pytest.mark.criterion(10, "imbalanced 0/6 at retention 0.1: regularized class-0 "
                           "F-measure strictly beats plain in >= 4 of 5 seeds")
def test_c10_minority_f_measure(desk_runs):
    grid = desk_runs["imbalanced"]
    wins = sum(
        1 for s in DESK_SEEDS if grid[s]["rdec"]["f0"] > grid[s]["dec"]["f0"]
    )
    assert wins >= 4


@desk
@pytest.mark.desk
@pytest.mark.criterion(11, "convergence monitor: checkpoint loss decreases "
                           "overall and ACC holds within 2 points after its "
                           "first plateau")
def test_c11_convergence_monitor(desk_runs):
    report = desk_runs["balanced"][DESK_SEEDS[0]]["rdec"]["report"]
    losses = [c.loss for c in report.checkpoints]
    accs = [c.acc for c in report.checkpoints]
    assert losses[-1] < losses[0]
    # first plateau: consecutive checkpoints with ACC change <= 0.5 points
    plateau = next(
        (i for i in range(1, len(accs)) if abs(accs[i] - accs[i - 1]) <= 0.005),
        None,
    )
    assert plateau is not None, "ACC never plateaued"
    floor = accs[plateau] - 0.02
    assert all(a >= floor for a in accs[plateau:])
