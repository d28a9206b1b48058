"""The three workloads and the phases each run is made of.

Set-up generates the glyphs, writes them as gzip IDX files with
``rdec.data.save_idx`` and reads them back with ``load_idx`` (then
subsamples, on the imbalanced workload). Each measured repeat then runs
the whole pipeline: pretrain a fresh autoencoder, ``run_clustering``,
and a full-data ``ClusterModel.predict``. The workloads differ in which
part is heavy:

- ``pretrain``: ``trainer.pretrain`` of the 784-500-500-2000-10
  autoencoder at the shipped SGD-momentum defaults dominates. A short
  ``dec`` probe (one K-means restart, a few steps) follows, so the
  fine-tune and predict metrics exist on every workload; it has no VAT.
- ``rdec-imbalanced``: mirrors configs/mnist06_imb_rdec.cfg; one
  pretraining epoch gives the starting encoder and ``rdec`` fine-tuning,
  whose VAT probe and perturbed pass dominate each step, takes most time.
- ``dec-refresh``: mirrors configs/mnist_dec.cfg with tau scaled so that
  n / (tau * batch) keeps the full-MNIST value 70000 / (140 * 256); K-means
  init, full-data encodes and n x k head work dominate. No VAT.

Pretraining sits in every repeat rather than in set-up so that the
pretraining metrics are measured over the whole run on every workload.
Sizes keep one repeat to a few seconds on a 2-core machine.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import shutil
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from glyphs import make_glyphs
# Library calls go through module attributes so the tracer's wrappers see them.
from rdec import data, metrics, network, trainer

BATCH = 256
PREDICTS = 3  # full-data predicts per repeat: one is too short to time steadily
FULL_MNIST_REFRESH_RATIO = 70000 / (140 * 256)


@dataclass(frozen=True)
class Workload:
    name: str
    counts: dict  # class id -> generated images
    latent_dim: int
    method: str
    kmeans_restarts: int
    max_iter: int
    pretrain_epochs: int
    subsample_class: int | None = None  # single_class subsampling at R_MIN
    tau: int | None = None  # None: scale with n like full MNIST

    @property
    def k(self) -> int:
        return len(self.counts)


R_MIN = 0.1

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="pretrain",
            counts={c: 256 for c in range(10)},
            latent_dim=10, method="dec", kmeans_restarts=1, max_iter=5,
            pretrain_epochs=2, tau=140,
        ),
        Workload(
            name="rdec-imbalanced",
            counts={0: 1500, 6: 1500}, subsample_class=0,
            latent_dim=2, method="rdec", kmeans_restarts=20, max_iter=15,
            pretrain_epochs=1, tau=140,
        ),
        Workload(
            name="dec-refresh",
            counts={c: 450 for c in range(10)},
            latent_dim=10, method="dec", kmeans_restarts=20, max_iter=27,
            pretrain_epochs=1,
        ),
    ]
}


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Run:
    """Counts phases and keeps the failures of those that raised."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def phase(self, name: str, fn, *args):
        """fn(*args), or None after recording a typed failure."""
        self.attempted += 1
        try:
            return fn(*args)
        # rdec raises typed subclasses of these; anything else is a bug here.
        except (CheckFailed, ValueError, RuntimeError, ArithmeticError, LookupError) as exc:
            self.failures.append({"phase": name, "type": type(exc).__name__,
                                  "message": str(exc)})
            return None

    def agree(self, name: str, values) -> None:
        """A phase check: values that must repeat exactly did."""
        self.phase(name, check, len(set(values)) <= 1, f"{name} differ: {values}")


@dataclass
class Pretrained:
    loss: float
    first_epoch_loss: float
    seconds: float
    rows_trained: int
    epoch_seconds: list


@dataclass
class Setup:
    features: np.ndarray
    labels: np.ndarray
    seconds: float
    idx_bytes: int


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _gzip_in_place(path: str) -> str:
    with open(path, "rb") as src, gzip.open(path + ".gz", "wb", compresslevel=1) as dst:
        shutil.copyfileobj(src, dst)
    os.remove(path)
    return path + ".gz"


def run_pretrain(w: Workload, x: np.ndarray, seed: int):
    """Pretrain a fresh autoencoder and check its losses; returns (encoder, stats)."""
    epochs = w.pretrain_epochs
    encoder, decoder = network.build_network(x.shape[1], w.latent_dim, seed)
    cfg = trainer.TrainConfig(pretrain_epochs=epochs, batch_size=BATCH, seed=seed)
    events = []
    t0 = perf_counter()
    loss = trainer.pretrain(encoder, decoder, x, cfg,
                            progress=lambda e: events.append((perf_counter(), e["loss"])))
    seconds = perf_counter() - t0
    check(len(events) == epochs, f"pretrain reported {len(events)} of {epochs} epochs")
    check(bool(np.isfinite(loss)), f"pretrain loss {loss} is not finite")
    check(loss < events[0][1], f"pretrain loss {loss} not below first epoch {events[0][1]}")
    stamps = [t0] + [t for t, _ in events]
    return encoder, Pretrained(float(loss), events[0][1], seconds, x.shape[0] * epochs,
                               list(np.diff(stamps)))


def setup(w: Workload, seed: int, scratch: str) -> Setup:
    """Glyphs -> gzip IDX -> load_idx (-> subsample)."""
    t0 = perf_counter()
    images, labels = make_glyphs(w.counts, seed)
    os.makedirs(scratch, exist_ok=True)
    img_path = os.path.join(scratch, "images-idx3-ubyte")
    lab_path = os.path.join(scratch, "labels-idx1-ubyte")
    data.save_idx(data.Dataset(images, labels, name="glyphs"), img_path, lab_path)
    idx_bytes = os.path.getsize(img_path) + os.path.getsize(lab_path)
    ds = data.load_idx(_gzip_in_place(img_path), _gzip_in_place(lab_path), name="glyphs")
    shutil.rmtree(scratch)
    check(ds.n == len(labels) and np.array_equal(ds.labels, labels),
          "IDX round trip changed the labels")
    check(float(np.max(np.abs(ds.features - images))) <= 0.5 / 255 + 1e-12,
          "IDX round trip moved a pixel by more than half a grey level")
    if w.subsample_class is not None:
        ds = data.subsample(ds, data.SubsampleSpec(
            "single_class", r_min=R_MIN, target_class=w.subsample_class, seed=seed))
        kept = int(np.sum(ds.labels == w.subsample_class))
        check(kept == round(R_MIN * w.counts[w.subsample_class]),
              f"subsample kept {kept} rows of class {w.subsample_class}")
    return Setup(ds.features, ds.labels, perf_counter() - t0, idx_bytes)


def setup_digest(s: Setup) -> str:
    return _digest(s.features, s.labels)


@dataclass
class Repeat:
    pretrained: Pretrained
    finetune_s: float
    iterations: int
    stop_reason: str
    refreshes: int
    predict_s: list  # one time per predict call
    acc: float
    ari: float
    minority_f: float
    assignments_sha256: str
    wall_s: float


def minority_class(labels: np.ndarray) -> int:
    """The class with the fewest rows; ties go to the lowest id."""
    values, counts = np.unique(labels, return_counts=True)
    return int(values[np.argmin(counts)])


def repeat(w: Workload, s: Setup, seed: int) -> Repeat:
    """One measured repeat: pretrain, run_clustering, predict, scoring."""
    t0 = perf_counter()
    x, y = s.features, s.labels
    n = x.shape[0]
    encoder, pretrained = run_pretrain(w, x, seed)
    tau = w.tau or max(1, round(n / (FULL_MNIST_REFRESH_RATIO * BATCH)))
    cfg = trainer.TrainConfig(method=w.method, gamma=5.0 if w.method == "rdec" else 0.0,
                              tau=tau, max_iter=w.max_iter, batch_size=BATCH,
                              kmeans_restarts=w.kmeans_restarts, seed=seed)
    t1 = perf_counter()
    assignments, report = trainer.run_clustering(w.method, x, w.k, cfg,
                                                 encoder=encoder, labels=y)
    finetune_s = perf_counter() - t1
    check(report.stop_reason in ("converged", "max_iterations"),
          f"finetune stopped by {report.stop_reason!r}")
    losses = [r.total_loss for r in report.iterations] + [c.loss for c in report.checkpoints]
    check(bool(np.all(np.isfinite(losses))), "a fine-tuning loss is not finite")
    check(assignments.shape == (n,), f"{assignments.shape} assignments for {n} rows")
    check(bool(np.all((assignments >= 0) & (assignments < w.k))),
          f"assignments outside [0, {w.k})")

    model = trainer.ClusterModel(encoder, report.final_centroids, cfg.alpha)
    predict_s = []
    for _ in range(PREDICTS):
        t2 = perf_counter()
        q = model.predict(x)
        predict_s.append(perf_counter() - t2)
        check(q.shape == (n, w.k), f"predict returned {q.shape}")
        check(float(np.max(np.abs(q.sum(axis=1) - 1.0))) <= 1e-9,
              "predict rows do not sum to 1")
        check(np.array_equal(q.argmax(axis=1), assignments),
              "predict disagrees with the final assignments")

    acc, mapping = metrics.accuracy(y, assignments)
    ari = metrics.adjusted_rand_index(y, assignments)
    _, _, minority_f = metrics.per_class_prf(y, assignments, mapping, minority_class(y))
    return Repeat(pretrained, finetune_s, len(report.iterations), report.stop_reason,
                  len(report.checkpoints), predict_s, float(acc), float(ari),
                  float(minority_f), _digest(assignments.astype(np.int64)),
                  perf_counter() - t0)
