"""Virtual adversarial perturbations and the consistency loss they induce.

The perturbation for each input row is the direction, of fixed Euclidean
norm epsilon, that most increases the KL between the model's prediction
on the clean row and on the perturbed row. It is approximated by ip steps
of power iteration: probe the KL gradient at a random direction scaled by
xi, normalize, repeat. The consistency loss then penalizes prediction
change under that perturbation, treating the clean prediction as a
constant. The trainer reads epsilon, xi and ip from its ``TrainConfig``;
``check_settings`` holds their ranges for both.

Models are duck-typed; writing q(x) for the model's row-stochastic
prediction on x, they must expose:

    kl_input_grad(x, q_ref) -> grad       d/dx of mean-row KL(q_ref || q(x))
    kl_param_grads(x, q_ref) -> (loss, [grads])   same loss, by parameter

Losses are means over batch rows, so the regularization weight applied by
the trainer does not change meaning with batch size.
"""

from __future__ import annotations

import numpy as np

from .tensor import Matrix

# Rows whose norm falls below this keep their previous direction (flat model).
_NORM_FLOOR = 1e-30


def check_settings(epsilon: float, xi: float, ip: int) -> None:
    """Raise ValueError unless epsilon and xi are positive and ip is at least 1."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if xi <= 0:
        raise ValueError(f"xi must be positive, got {xi}")
    if ip < 1:
        raise ValueError(f"ip must be >= 1, got {ip}")


def _normalize_rows(d: Matrix, fallback: Matrix | None = None) -> Matrix:
    """Scale each row to unit norm; rows with ~zero norm fall back unchanged."""
    norms = np.linalg.norm(d, axis=1, keepdims=True)
    flat = norms[:, 0] < _NORM_FLOOR
    safe = np.where(norms < _NORM_FLOOR, 1.0, norms)
    out = d / safe
    if np.any(flat):
        if fallback is None:
            raise FloatingPointError("cannot normalize an all-zero direction")
        out[flat] = fallback[flat]
    return out


def adversarial_perturbation(
    model, x: Matrix, q_ref: Matrix, epsilon: float, xi: float, ip: int,
    rng: np.random.Generator,
) -> Matrix:
    """Per-row adversarial direction of norm epsilon, via ip power iterations
    that probe the gradient at distance xi.

    q_ref must be the model's prediction on x; it is treated as constant
    throughout. Rows where the probed gradient vanishes (locally flat
    model) keep their current random direction. Settings out of range
    raise ValueError before any probe runs.
    """
    check_settings(epsilon, xi, ip)
    d = _normalize_rows(rng.standard_normal(x.shape))
    for _ in range(ip):
        grad = model.kl_input_grad(x + xi * d, q_ref)
        d = _normalize_rows(grad, fallback=d)
    return epsilon * d


def vat_loss(model, x: Matrix, r_adv: Matrix, q_ref: Matrix):
    """Mean-row KL between clean and perturbed predictions, with param grads.

    q_ref must be the model's clean prediction on x. It is a stop-gradient
    reference: returned gradients flow only through the perturbed branch.
    """
    return model.kl_param_grads(x + r_adv, q_ref)
