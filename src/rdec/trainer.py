"""Two-phase training: autoencoder pretraining, then joint clustering.

Fine-tuning minimizes the clustering KL plus, for the regularized method,
a weighted virtual-adversarial consistency term; ``_step`` takes one step
of it. ``finetune`` is the loop around it: the sharpened target
distribution is refreshed from a full-dataset pass every ``tau``
iterations, and training stops when the fraction of points whose hard
assignment changed between consecutive refreshes drops below ``SIGMA``,
or at the iteration cap.

Batch losses are means over batch rows; both phases check a batch's loss
before any parameter moves on it. All randomness flows from the
config seed through purpose-tagged generator streams, so a run is a pure
function of (config, data); with the regularization weight at zero the
regularized method consumes exactly the same streams as the plain one and
their traces are bit-identical.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, ClassVar

import numpy as np

from . import metrics, vat
from .dec import clustering_grads, kl_divergence, soft_assign, target_distribution
from .kmeans import kmeans
from .network import Network, SgdMomentum, backward, encode, forward, reconstruction_loss
from .tensor import Matrix, check_finite, mse_loss
from .vat import adversarial_perturbation, vat_loss

METHODS = ("kmeans", "ae_kmeans", "dec", "rdec")
ENCODER_METHODS = ("ae_kmeans", "dec", "rdec")  # need a pretrained encoder
FINETUNE_METHODS = ("dec", "rdec")  # fine-tune the encoder and centroids

# Generator stream tags; every consumer derives from (seed, tag, ...).
_STREAM_PRETRAIN = 1
_STREAM_SHUFFLE = 2
_STREAM_VAT = 3
_STREAM_KMEANS = 4

# Fixed; no fields. As in DEC: SGD momentum of both phases, fine-tuning's
# learning rate, and the label-change rate below which fine-tuning stops.
# Pretraining's learning rate is the one every shipped config runs.
MOMENTUM = 0.9
FINETUNE_LR = 0.01
SIGMA = 0.01
PRETRAIN_LR = 1.0

ProgressFn = Callable[[dict], None]


@dataclass(frozen=True)
class TrainConfig:
    """Training settings, checked when built: a bad value raises ValueError,
    and ``dataclasses.replace`` checks the new settings again. Fixed choices
    are no fields: DEC's α, the target's square, ``MOMENTUM``,
    ``FINETUNE_LR`` and ``SIGMA``, and pretraining's ``PRETRAIN_LR``."""

    alpha: ClassVar[float] = 1.0  # Student-t degrees of freedom, fixed as in DEC; no field
    method: str = "rdec"
    gamma: float = 5.0
    epsilon: float = 1.0  # VAT perturbation radius, input-space units
    xi: float = 10.0  # VAT probe scale for the power-iteration gradient
    tau: int = 140
    max_iter: int = 20_000
    batch_size: int = 256
    pretrain_epochs: int = 300
    kmeans_restarts: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        for name, least in (("tau", 1), ("batch_size", 1), ("max_iter", 1),
                            ("kmeans_restarts", 1), ("pretrain_epochs", 0), ("seed", 0)):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        vat.check_settings(self.epsilon, self.xi)


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

    def __init__(self, encoder: Network, centroids: np.ndarray, alpha: float = TrainConfig.alpha):
        if alpha != TrainConfig.alpha:
            raise ValueError(f"alpha is fixed at {TrainConfig.alpha}, as in DEC; got {alpha}")
        self.encoder = encoder
        self.centroids = centroids

    def parameters(self) -> list[np.ndarray]:
        return [*self.encoder.parameters(), self.centroids]

    def predict(self, x: Matrix) -> Matrix:
        z = encode(self.encoder, x)
        return soft_assign(z, self.centroids)

    def _kl_forward(self, x: Matrix, q_ref: Matrix):
        """Forward half of mean-row KL(q_ref || predict(x)): one forward and
        one distance pass.

        Returns (q, caches, grad_z, grad_centroids): the prediction on x, the
        encoder caches backward reads, and the mean-row gradients at the
        embedding and the centroids.
        """
        n = x.shape[0]
        z, caches = forward(self.encoder, x)
        q, grad_z, grad_centroids = clustering_grads(z, self.centroids, q_ref)
        grad_z /= n
        grad_centroids /= n
        return q, caches, grad_z, grad_centroids

    def kl_input_grad(self, x: Matrix, q_ref: Matrix) -> Matrix:
        """d/dx of mean-row KL(q_ref || predict(x)), q_ref constant."""
        _, caches, grad_z, _ = self._kl_forward(x, q_ref)
        return backward(self.encoder, caches, grad_z)

    def kl_param_grads(self, x: Matrix, q_ref: Matrix):
        """Mean-row KL(q_ref || predict(x)) and its gradients aligned with
        ``parameters()``, collected from backward's hand-off, centroids last."""
        q, caches, grad_z, grad_centroids = self._kl_forward(x, q_ref)
        grads = [None] * (2 * len(self.encoder.layers))

        def keep(i: int, grad_weight: Matrix, grad_bias: np.ndarray) -> None:
            grads[2 * i], grads[2 * i + 1] = grad_weight, grad_bias

        backward(self.encoder, caches, grad_z, step=keep)
        grads.append(grad_centroids)
        return kl_divergence(q_ref, q) / x.shape[0], grads


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


def _stepped_backward(net: Network, optimizers: list[SgdMomentum], caches: list[Matrix],
                      grad_out: Matrix, added: list[np.ndarray] | None = None) -> None:
    """Backpropagate grad_out, stepping layer i with ``optimizers[i]`` as
    soon as backward has its gradients, so one layer's are held at a time.

    ``added``, a gradient list aligned with ``net.parameters()``, has layer
    i's entries added to its gradients and dropped before the step. Layer
    i's output is then dropped from the caches: backward has used it, and
    with no other name for it it is freed before the next layer's
    gradients are made."""
    layers = net.layers

    def step(i: int, grad_weight: Matrix, grad_bias: np.ndarray) -> None:
        if added is not None:
            grad_weight += added[2 * i]
            grad_bias += added[2 * i + 1]
            added[2 * i] = added[2 * i + 1] = None
        optimizers[i].step([layers[i].weight, layers[i].bias], [grad_weight, grad_bias])
        caches[i + 1] = None

    backward(net, caches, grad_out, step=step)


def _reconstruction_step(autoencoder: Network, optimizers: list[SgdMomentum],
                         x: Matrix, name: str) -> float:
    """One SGD-momentum step of every layer on the batch MSE, which it returns.

    A non-finite MSE raises FloatingPointError for ``name`` before any
    layer steps. The reconstruction is freed with the other layer outputs as
    backward passes it, and the rest of the batch's activations and
    gradients on return, so none are held while the next batch allocates."""
    caches = forward(autoencoder, x)[1]
    loss, grad = mse_loss(caches[-1], x)
    check_finite(name, loss)
    _stepped_backward(autoencoder, optimizers, caches, grad)
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
    SGD at rate ``PRETRAIN_LR`` and momentum ``MOMENTUM``, one optimizer per
    layer. A non-finite batch loss raises FloatingPointError naming the
    epoch and batch before any layer steps; per-epoch mean batch losses are
    emitted through the progress callback.
    """
    if data.shape[0] == 0:
        raise ValueError("cannot pretrain on an empty dataset")
    rng = np.random.default_rng([cfg.seed, _STREAM_PRETRAIN])
    # One stack over the encoder's and decoder's own layer arrays.
    autoencoder = Network(encoder.layers + decoder.layers)
    optimizers = [SgdMomentum(PRETRAIN_LR, MOMENTUM) for _ in autoencoder.layers]
    n = data.shape[0]
    for epoch in range(cfg.pretrain_epochs):
        losses = []
        for batch, idx in enumerate(_epoch_batches(n, cfg.batch_size, rng)):
            losses.append(_reconstruction_step(
                autoencoder, optimizers, data[idx],
                f"reconstruction loss at epoch {epoch} batch {batch}"))
        epoch_loss = float(np.mean(losses))
        if progress is not None:
            progress({"phase": "pretrain", "epoch": epoch, "loss": epoch_loss})
    return reconstruction_loss(autoencoder, data)


def _step(model: ClusterModel, optimizers: list[SgdMomentum], x: Matrix, target: Matrix,
          cfg: TrainConfig, it: int) -> IterationRecord:
    """One fine-tuning step on batch ``x`` and its target rows; returns its record.

    The clean forward half gives the clustering loss and the prediction q.
    For rdec with gamma > 0, q is the reference of the VAT probe and
    perturbed pass, whose gradients are scaled by gamma in place. The clean
    backward then adds layer i's VAT gradients to its own, frees them and
    steps the layer; the centroids step last. So a step holds at most one
    whole-encoder gradient list, the VAT one, and no parameter moves before
    both losses pass ``check_finite``, which names the iteration and term.
    """
    q, caches, grad_z, grad_centroids = model._kl_forward(x, target)
    clustering = kl_divergence(target, q) / x.shape[0]
    check_finite(f"clustering loss at iteration {it}", clustering)

    consistency, vat_grads = 0.0, None
    if cfg.method == "rdec" and cfg.gamma > 0.0:
        vat_rng = np.random.default_rng([cfg.seed, _STREAM_VAT, it])
        r_adv = adversarial_perturbation(model, x, q, cfg.epsilon, cfg.xi, vat_rng)
        consistency, vat_grads = vat_loss(model, x, r_adv, q_ref=q)
        check_finite(f"VAT loss at iteration {it}", consistency)
        for grad in vat_grads:
            grad *= cfg.gamma
        grad_centroids += vat_grads.pop()

    _stepped_backward(model.encoder, optimizers, caches, grad_z, added=vat_grads)
    optimizers[-1].step([model.centroids], [grad_centroids])
    return IterationRecord(it, clustering, consistency, clustering + cfg.gamma * consistency)


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
    data. Each encoder layer and the centroids have their own SGD-momentum
    optimizer, and each iteration is one ``_step``. When ``labels`` is
    given, ACC and ARI are recorded at every target refresh. The encoder is
    mutated in place.
    """
    if k < 2:
        raise ValueError(f"need k >= 2 clusters, got {k}")
    n = data.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds {n} data points")
    t0 = time.perf_counter()

    z = encode(encoder, data)
    model = ClusterModel(encoder, _kmeans(z, k, cfg).centroids.copy())
    # At the first refresh the encoder has not moved since K-means embedded the data.
    q_full = soft_assign(z, model.centroids)
    # One optimizer per encoder layer, then one for the centroids.
    optimizers = [SgdMomentum(FINETUNE_LR, MOMENTUM) for _ in range(len(encoder.layers) + 1)]
    batch_iter = _endless_batches(n, cfg.batch_size,
                                  np.random.default_rng([cfg.seed, _STREAM_SHUFFLE]))

    iterations: list[IterationRecord] = []
    checkpoints: list[CheckpointRecord] = []
    assignments: np.ndarray | None = None

    for it in range(cfg.max_iter):
        if it % cfg.tau == 0:
            if it > 0:
                q_full = model.predict(data)
            prev_assign, assignments = assignments, q_full.argmax(axis=1)
            target_full = target_distribution(q_full)
            ckpt_loss = kl_divergence(target_full, q_full) / n
            acc, ari = _scores(labels, assignments)
            rate = None if prev_assign is None else label_change_rate(prev_assign, assignments)
            record = CheckpointRecord(it, ckpt_loss, acc, ari, rate)
            checkpoints.append(record)
            if progress is not None:
                progress({"phase": "finetune", **asdict(record)})
            if rate is not None and rate < SIGMA:
                stop_reason = "converged"
                break
        idx = next(batch_iter)
        iterations.append(_step(model, optimizers, data[idx], target_full[idx], cfg, it))
    else:  # the iteration cap; the last refresh is stale
        stop_reason = "max_iterations"
        assignments = model.predict(data).argmax(axis=1)

    report = RunReport(
        method=cfg.method,
        iterations=iterations,
        checkpoints=checkpoints,
        final_assignments=assignments,
        final_centroids=model.centroids.copy(),
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
    cfg = replace(cfg, method=method)
    if method in ENCODER_METHODS and encoder is None:
        raise ValueError(f"method {method} needs a pretrained encoder")
    if method in FINETUNE_METHODS:
        return finetune(encoder, data, k, cfg, labels=labels, progress=progress)

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
