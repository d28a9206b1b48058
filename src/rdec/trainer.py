"""Two-phase training: autoencoder pretraining, then joint clustering.

Fine-tuning minimizes the clustering KL plus, for the regularized method,
a weighted virtual-adversarial consistency term. The sharpened target
distribution is refreshed from a full-dataset pass every ``tau``
iterations; training stops when the fraction of points whose hard
assignment changed between consecutive refreshes drops below ``sigma``,
or at the iteration cap.

Batch losses are means over batch rows. All randomness flows from the
config seed through purpose-tagged generator streams, so a run is a pure
function of (config, data); with the regularization weight at zero the
regularized method consumes exactly the same streams as the plain one and
their traces are bit-identical.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from . import metrics, vat
from .dec import clustering_grads, kl_divergence, soft_assign, target_distribution
from .kmeans import kmeans
from .network import ENCODE_CHUNK, Network, SgdMomentum, backward, encode, forward
from .tensor import Matrix, check_finite, mse_loss
from .vat import adversarial_perturbation, vat_loss

METHODS = ("kmeans", "ae_kmeans", "dec", "rdec")
ENCODER_METHODS = ("ae_kmeans", "dec", "rdec")  # need a pretrained encoder

# Generator stream tags; every consumer derives from (seed, tag, ...).
_STREAM_PRETRAIN = 1
_STREAM_SHUFFLE = 2
_STREAM_VAT = 3
_STREAM_KMEANS = 4

ProgressFn = Callable[[dict], None]


@dataclass
class TrainConfig:
    method: str = "rdec"
    gamma: float = 5.0
    s: float = 2.0
    alpha: float = 1.0
    epsilon: float = 1.0  # VAT perturbation radius, input-space units
    xi: float = 10.0  # VAT probe scale for the power-iteration gradient
    ip: int = 1  # VAT power iterations
    tau: int = 140
    sigma: float = 0.01
    max_iter: int = 20_000
    batch_size: int = 256
    pretrain_epochs: int = 300
    # Both phases train with SGD momentum (SgdMomentum).
    pretrain_lr: float = 1.0
    pretrain_momentum: float = 0.9
    finetune_lr: float = 0.01
    finetune_momentum: float = 0.9
    kmeans_restarts: int = 20
    seed: int = 0

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.s < 1.0:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if not 0.0 < self.sigma < 1.0:
            raise ValueError(f"sigma must be in (0, 1), got {self.sigma}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.pretrain_epochs < 0:
            raise ValueError(f"pretrain_epochs must be >= 0, got {self.pretrain_epochs}")
        for name in ("pretrain_lr", "finetune_lr"):
            lr = getattr(self, name)
            if not (math.isfinite(lr) and lr > 0):
                raise ValueError(f"{name} must be finite and positive, got {lr}")
        for name in ("pretrain_momentum", "finetune_momentum"):
            momentum = getattr(self, name)
            if not 0.0 <= momentum < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {momentum}")
        if self.kmeans_restarts < 1:
            raise ValueError(f"kmeans_restarts must be >= 1, got {self.kmeans_restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        vat.check_settings(self.epsilon, self.xi, self.ip)


@dataclass
class IterationRecord:
    iteration: int
    clustering_loss: float
    vat_loss: float
    total_loss: float


@dataclass
class CheckpointRecord:
    iteration: int
    loss: float | None  # full-dataset clustering KL per row; None for baselines
    acc: float | None
    ari: float | None
    label_change_rate: float | None  # None at the first checkpoint


@dataclass
class RunReport:
    method: str
    iterations: list[IterationRecord]
    checkpoints: list[CheckpointRecord]
    final_assignments: np.ndarray
    final_centroids: np.ndarray
    stop_reason: str  # "converged" or "max_iterations"
    wall_clock_seconds: float

    def to_dict(self) -> dict:
        """Every field, records as dicts and arrays as nested lists."""
        return {name: value.tolist() if isinstance(value, np.ndarray) else value
                for name, value in asdict(self).items()}


class ClusterModel:
    """Encoder plus centroids, viewed as a map from inputs to soft assignments."""

    def __init__(self, encoder: Network, centroids: np.ndarray, alpha: float = 1.0):
        self.encoder = encoder
        self.centroids = centroids
        self.alpha = alpha

    def parameters(self) -> list[np.ndarray]:
        return [*self.encoder.parameters(), self.centroids]

    def predict(self, x: Matrix) -> Matrix:
        z = encode(self.encoder, x)
        return soft_assign(z, self.centroids, self.alpha)

    def _kl_forward_backward(self, x: Matrix, q_ref: Matrix, need_input: bool,
                             need_params: bool):
        """Mean-row KL(q_ref || predict(x)) from one forward, one distance
        pass and one backward.

        Returns (loss, q, grad_x, grads): q is the prediction on x, grad_x
        is None unless need_input, and loss and grads are None unless
        need_params; grads lists the encoder gradients followed by the
        centroid gradient.
        """
        n = x.shape[0]
        z, caches = forward(self.encoder, x)
        q, grad_z, grad_centroids = clustering_grads(z, self.centroids, q_ref, self.alpha)
        loss = kl_divergence(q_ref, q) / n if need_params else None
        param_grads, grad_x = backward(
            self.encoder, caches, grad_z / n,
            need_input_grad=need_input, need_param_grads=need_params,
        )
        grads = None if param_grads is None else [*param_grads, grad_centroids / n]
        return loss, q, grad_x, grads

    def kl_input_grad(self, x: Matrix, q_ref: Matrix) -> Matrix:
        """d/dx of mean-row KL(q_ref || predict(x)), q_ref constant."""
        return self._kl_forward_backward(x, q_ref, True, False)[2]

    def kl_param_grads(self, x: Matrix, q_ref: Matrix):
        """Mean-row KL(q_ref || predict(x)) and gradients per parameter."""
        loss, _, _, grads = self._kl_forward_backward(x, q_ref, False, True)
        return loss, grads


def label_change_rate(prev_assignments, new_assignments) -> float:
    """Fraction of indices whose hard assignment changed."""
    prev = np.asarray(prev_assignments)
    new = np.asarray(new_assignments)
    if prev.shape != new.shape:
        raise ValueError(f"length mismatch: {prev.shape} vs {new.shape}")
    return float(np.mean(prev != new))


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    """One epoch of index batches from a fresh seeded permutation."""
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


def _kmeans(points: Matrix, k: int, cfg: TrainConfig):
    """Best of ``cfg.kmeans_restarts`` K-means runs, seeded from the config seed."""
    seed = int(np.random.SeedSequence([cfg.seed, _STREAM_KMEANS]).generate_state(1)[0])
    return kmeans(points, k, restarts=cfg.kmeans_restarts, seed=seed)


def _scores(labels, assignments) -> tuple[float | None, float | None]:
    """(ACC, ARI) of the assignments, or (None, None) without labels."""
    if labels is None:
        return None, None
    acc, _ = metrics.accuracy(labels, assignments)
    return acc, metrics.adjusted_rand_index(labels, assignments)


def _endless_batches(n: int, batch_size: int, rng: np.random.Generator):
    while True:
        yield from _epoch_batches(n, batch_size, rng)


def _reconstruction_loss(autoencoder: Network, data: Matrix) -> float:
    total = 0.0
    for start in range(0, data.shape[0], ENCODE_CHUNK):
        x = data[start : start + ENCODE_CHUNK]
        diff = encode(autoencoder, x)
        diff -= x
        total += float(np.sum(np.square(diff, out=diff)))
    return total / data.size


def _reconstruction_step(autoencoder: Network, optimizers: list[SgdMomentum],
                         x: Matrix) -> float:
    """One SGD-momentum step of every layer on the batch MSE, which it returns.

    ``optimizers[i]`` steps layer i as soon as backward has its gradients,
    so no more than one layer's gradients are held at a time. The batch's
    activations and gradients are freed on return, so none of them are
    still held while the next batch allocates its own."""
    recon, caches = forward(autoencoder, x)
    loss, grad = mse_loss(recon, x)
    layers = autoencoder.layers

    def step(i: int, grad_weight: Matrix, grad_bias: np.ndarray) -> None:
        optimizers[i].step([layers[i].weight, layers[i].bias], [grad_weight, grad_bias])

    backward(autoencoder, caches, grad, step=step)
    return loss


def pretrain(
    encoder: Network,
    decoder: Network,
    data: Matrix,
    cfg: TrainConfig,
    progress: ProgressFn | None = None,
) -> float:
    """Train encoder+decoder in place to reconstruct the data; returns final loss.

    Mini-batch reconstruction training for ``pretrain_epochs`` epochs with
    SGD momentum, one optimizer per layer. A non-finite batch loss raises
    FloatingPointError naming the epoch and the batch; per-epoch mean
    batch losses are emitted through the progress callback.
    """
    if data.shape[0] == 0:
        raise ValueError("cannot pretrain on an empty dataset")
    cfg.validate()
    rng = np.random.default_rng([cfg.seed, _STREAM_PRETRAIN])
    # One stack over the encoder's and decoder's own layer arrays.
    autoencoder = Network(encoder.layers + decoder.layers)
    optimizers = [SgdMomentum(cfg.pretrain_lr, cfg.pretrain_momentum)
                  for _ in autoencoder.layers]
    n = data.shape[0]
    for epoch in range(cfg.pretrain_epochs):
        losses = []
        for batch, idx in enumerate(_epoch_batches(n, cfg.batch_size, rng)):
            loss = _reconstruction_step(autoencoder, optimizers, data[idx])
            check_finite(f"reconstruction loss at epoch {epoch} batch {batch}", loss)
            losses.append(loss)
        epoch_loss = float(np.mean(losses))
        if progress is not None:
            progress({"phase": "pretrain", "epoch": epoch, "loss": epoch_loss})
    return _reconstruction_loss(autoencoder, data)


def finetune(
    encoder: Network,
    data: Matrix,
    k: int,
    cfg: TrainConfig,
    labels=None,
    progress: ProgressFn | None = None,
) -> tuple[np.ndarray, RunReport]:
    """Jointly optimize encoder weights and centroids; returns hard assignments.

    Centroids start from the best of several K-means runs on the embedded
    data and are updated by the same SGD-momentum optimizer as the network
    weights. When ``labels`` is given, ACC and ARI are recorded at every
    target refresh. A non-finite batch loss raises FloatingPointError
    naming the iteration and the term. The encoder is mutated in place.
    """
    cfg.validate()
    if k < 2:
        raise ValueError(f"need k >= 2 clusters, got {k}")
    n = data.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds {n} data points")
    t0 = time.perf_counter()

    z = encode(encoder, data)
    km = _kmeans(z, k, cfg)
    centroids = km.centroids.copy()
    model = ClusterModel(encoder, centroids, cfg.alpha)
    params = model.parameters()
    optimizer = SgdMomentum(cfg.finetune_lr, cfg.finetune_momentum)
    use_vat = cfg.method == "rdec" and cfg.gamma > 0.0

    batch_iter = _endless_batches(n, cfg.batch_size,
                                  np.random.default_rng([cfg.seed, _STREAM_SHUFFLE]))

    iterations: list[IterationRecord] = []
    checkpoints: list[CheckpointRecord] = []
    target_full = None
    prev_assign: np.ndarray | None = None
    assignments: np.ndarray | None = None
    stop_reason = "max_iterations"

    for it in range(cfg.max_iter):
        if it % cfg.tau == 0:
            # At iteration 0 the encoder has not moved since K-means embedded the data.
            q_full = soft_assign(z, centroids, cfg.alpha) if it == 0 else model.predict(data)
            assignments = q_full.argmax(axis=1)
            target_full = target_distribution(q_full, cfg.s)
            ckpt_loss = kl_divergence(target_full, q_full) / n
            acc, ari = _scores(labels, assignments)
            rate = None if prev_assign is None else label_change_rate(prev_assign, assignments)
            record = CheckpointRecord(it, ckpt_loss, acc, ari, rate)
            checkpoints.append(record)
            if progress is not None:
                progress({"phase": "finetune", **asdict(record)})
            if rate is not None and rate < cfg.sigma:
                stop_reason = "converged"
                break
            prev_assign = assignments

        idx = next(batch_iter)
        x_b = data[idx]
        # The clean prediction q_b is also the VAT reference.
        clustering, q_b, _, grads = model._kl_forward_backward(
            x_b, target_full[idx], False, True
        )
        check_finite(f"clustering loss at iteration {it}", clustering)

        consistency = 0.0
        if use_vat:
            vat_rng = np.random.default_rng([cfg.seed, _STREAM_VAT, it])
            r_adv = adversarial_perturbation(model, x_b, q_b, cfg.epsilon, cfg.xi,
                                             cfg.ip, vat_rng)
            consistency, vat_grads = vat_loss(model, x_b, r_adv, q_ref=q_b)
            check_finite(f"VAT loss at iteration {it}", consistency)
            for g, vg in zip(grads, vat_grads):
                vg *= cfg.gamma
                g += vg

        optimizer.step(params, grads)
        iterations.append(
            IterationRecord(it, clustering, consistency,
                            clustering + cfg.gamma * consistency)
        )

    if stop_reason == "max_iterations":  # the last refresh is stale
        assignments = model.predict(data).argmax(axis=1)

    report = RunReport(
        method=cfg.method,
        iterations=iterations,
        checkpoints=checkpoints,
        final_assignments=assignments,
        final_centroids=centroids.copy(),
        stop_reason=stop_reason,
        wall_clock_seconds=time.perf_counter() - t0,
    )
    return assignments, report


def run_clustering(
    method: str,
    data: Matrix,
    k: int,
    cfg: TrainConfig,
    encoder: Network | None = None,
    labels=None,
    progress: ProgressFn | None = None,
) -> tuple[np.ndarray, RunReport]:
    """Uniform entry point for all methods, baselines included."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if method in ENCODER_METHODS and encoder is None:
        raise ValueError(f"method {method} needs a pretrained encoder")
    if method in ("dec", "rdec"):
        return finetune(encoder, data, k, replace(cfg, method=method),
                        labels=labels, progress=progress)

    t0 = time.perf_counter()
    points = encode(encoder, data) if method == "ae_kmeans" else data
    km = _kmeans(points, k, cfg)
    acc, ari = _scores(labels, km.assignments)
    report = RunReport(
        method=method,
        iterations=[],
        checkpoints=[CheckpointRecord(0, None, acc, ari, None)],
        final_assignments=km.assignments,
        final_centroids=km.centroids,
        stop_reason="converged",
        wall_clock_seconds=time.perf_counter() - t0,
    )
    return km.assignments, report
