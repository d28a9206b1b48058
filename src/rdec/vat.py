"""Virtual adversarial perturbations and the consistency loss they induce.

The perturbation for each input row is the direction, of fixed Euclidean
norm epsilon, that most increases the KL between the model's prediction
on the clean row and on the perturbed row. It is approximated by power
iteration (``POWER_ITERATIONS`` steps, one as in VAT): probe the KL gradient
at a random direction scaled by xi, normalize, repeat. The consistency loss
then penalizes prediction change under that perturbation, treating the clean
prediction as a constant. The trainer reads epsilon and xi from its ``TrainConfig``;
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

# Rows whose norm falls below this keep their fallback direction (flat model).
_NORM_FLOOR = 1e-30
# Power-iteration steps per perturbation: one, as in VAT and in every run.
POWER_ITERATIONS = 1


def check_settings(epsilon: float, xi: float) -> None:
    """Raise ValueError unless epsilon and xi are finite positives."""
    for name, value in (("epsilon", epsilon), ("xi", xi)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


def _normalize_rows(d: Matrix, fallback: Matrix) -> Matrix:
    """Scale each row to unit norm; rows with ~zero norm take the fallback's row."""
    norms = np.linalg.norm(d, axis=1, keepdims=True)
    flat = norms < _NORM_FLOOR
    return np.where(flat, fallback, d / np.where(flat, 1.0, norms))


def adversarial_perturbation(
    model, x: Matrix, q_ref: Matrix, epsilon: float, xi: float, rng: np.random.Generator,
) -> Matrix:
    """Per-row adversarial direction of norm epsilon, via ``POWER_ITERATIONS``
    power iterations that probe the gradient at distance xi.

    q_ref must be the model's prediction on x; it is treated as constant.
    Rows where the probed gradient vanishes (locally flat model) keep their
    current direction. Settings out of range raise ValueError before any probe.
    """
    check_settings(epsilon, xi)
    d = rng.standard_normal(x.shape)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    for _ in range(POWER_ITERATIONS):
        grad = model.kl_input_grad(x + xi * d, q_ref)
        d = _normalize_rows(grad, fallback=d)
    return epsilon * d


def vat_loss(model, x: Matrix, r_adv: Matrix, q_ref: Matrix):
    """Mean-row KL between clean and perturbed predictions, with param grads.

    q_ref must be the model's clean prediction on x. It is a stop-gradient
    reference: returned gradients flow only through the perturbed branch.
    """
    return model.kl_param_grads(x + r_adv, q_ref)
