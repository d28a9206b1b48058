"""End-to-end runs on real handwritten digits (the sklearn 8x8 set).

A small-scale stand-in for the MNIST 0/6 experiments of the desk tier:
same pipeline, same defaults except the perturbation radius, which is
scaled down because these images have roughly a third of the input-space
norm of 28x28 pixels (the radius is a data-dependent hyperparameter).
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

from rdec.data import Dataset, SubsampleSpec, subsample
from rdec.metrics import accuracy, per_class_prf
from rdec.network import build_network
from rdec.trainer import TrainConfig, finetune, pretrain

sklearn_datasets = pytest.importorskip("sklearn.datasets")


@pytest.fixture(scope="module")
def digits_06():
    X, y = sklearn_datasets.load_digits(return_X_y=True)
    mask = np.isin(y, (0, 6))
    return Dataset(features=X[mask] / 16.0, labels=y[mask].astype(np.int64),
                   name="digits-06")


def run_both_methods(ds, seed=0, epsilon=0.5):
    cfg = TrainConfig(method="dec", gamma=0.0, tau=20, sigma=0.01,
                      max_iter=2000, batch_size=128, pretrain_epochs=40,
                      seed=seed)
    encoder, decoder = build_network(ds.dim, 2, seed=seed)
    pretrain(encoder, decoder, ds.features, cfg)
    out = {}
    for method, gamma in (("dec", 0.0), ("rdec", 5.0)):
        enc = copy.deepcopy(encoder)
        run_cfg = replace(cfg, method=method, gamma=gamma, epsilon=epsilon, xi=10.0, ip=1)
        assignments, report = finetune(enc, ds.features, 2, run_cfg,
                                       labels=ds.labels)
        acc, mapping = accuracy(ds.labels, assignments)
        _, _, f0 = per_class_prf(ds.labels, assignments, mapping, 0)
        out[method] = {"acc": acc, "f0": f0, "report": report}
    return out


@pytest.mark.slow
def test_balanced_digits_cluster_cleanly(digits_06):
    results = run_both_methods(digits_06)
    for method in ("dec", "rdec"):
        assert results[method]["acc"] >= 0.97, method
        assert results[method]["report"].stop_reason == "converged"


@pytest.mark.slow
def test_imbalanced_digits_regularization_rescues_minority(digits_06):
    imbalanced = subsample(
        digits_06,
        SubsampleSpec(mode="single_class", r_min=0.1, target_class=0, seed=7),
    )
    assert imbalanced.class_counts[0] == round(0.1 * digits_06.class_counts[0])
    results = run_both_methods(imbalanced)
    assert results["rdec"]["acc"] >= 0.99
    assert results["rdec"]["f0"] >= 0.99
    assert results["rdec"]["f0"] >= results["dec"]["f0"]
    assert results["dec"]["acc"] >= 0.9  # plain method stays sane, just weaker
