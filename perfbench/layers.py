"""Per-layer metrics from the spans of one traced set-up plus one traced repeat.

Times are self times (span duration minus the child spans it covers)
unless the name says inclusive in PER_LAYER. GEMM flop and byte counts
are computed from operand shapes in the tensor primitives; the
input-gradient-only backward path multiplies inside ``network.backward``
itself and so shows up there, not in ``tensor.gemm_*``.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracer import END, NAME, PARENT, SPAN_NAMES, START, WORK, self_times

LAYERS = ("tensor", "network", "kmeans", "dec", "vat", "trainer", "metrics", "data")

VAT_SPANS = ("vat.adversarial_perturbation", "vat.vat_loss",
             "trainer.kl_input_grad", "trainer.kl_param_grads")
# Full-data passes inside finetune: what one target refresh costs.
_REFRESH_SPANS = ("trainer.predict", "dec.target_distribution",
                  "metrics.accuracy", "metrics.adjusted_rand_index")

# name -> unit. Thread-count-dependent ones also appear with a _1t suffix.
PER_LAYER = {
    "tensor.affine_forward_s": "s",
    "tensor.affine_backward_s": "s",
    "tensor.relu_s": "s",
    "tensor.mse_s": "s",
    "tensor.affine_calls": "count",
    "tensor.gemm_gflop": "GFLOP",  # computed from shapes
    "tensor.gemm_gb": "GB",  # computed from shapes
    "tensor.gemm_gflop_per_s": "GFLOP/s",
    "tensor.peak_gflop_per_s": "GFLOP/s",  # plain numpy DGEMM, same run
    "network.forward_calls": "count",
    "network.forward_s": "s",
    "network.backward_calls": "count",
    "network.backward_s": "s",
    "network.encode_rows": "rows",
    "network.encode_s": "s",  # inclusive
    "network.optimizer_step_calls": "count",
    "network.optimizer_step_s": "s",
    "kmeans.calls": "count",
    "kmeans.restarts": "count",
    "kmeans.s": "s",
    "kmeans.s_per_restart": "s",
    "dec.soft_assign_calls": "count",
    "dec.soft_assign_s": "s",
    "dec.clustering_grads_calls": "count",
    "dec.clustering_grads_s": "s",
    "dec.target_distribution_s": "s",
    "dec.kl_divergence_s": "s",
    "dec.squared_distances_calls": "count",
    "dec.squared_distances_s": "s",
    "vat.perturbation_s": "s",  # inclusive
    "vat.loss_s": "s",  # inclusive
    "vat.calls": "count",
    "vat.share": "fraction",  # inclusive VAT time / run_clustering time
    "trainer.iterations": "count",
    "trainer.refreshes": "count",
    "trainer.refresh_s": "s",  # inclusive
    "trainer.refresh_share": "fraction",
    "trainer.kmeans_init_s": "s",  # inclusive
    "trainer.step_ms_p50": "ms",
    "trainer.step_ms_p90": "ms",
    "trainer.step_samples": "count",
    "trainer.pretrain_epoch_s_p50": "s",
    "trainer.converged": "fraction",
    "trainer.kl_input_grad_s": "s",  # inclusive
    "trainer.kl_param_grads_s": "s",  # inclusive
    "metrics.accuracy_calls": "count",
    "metrics.accuracy_s": "s",
    "metrics.ari_calls": "count",
    "metrics.ari_s": "s",
    "metrics.per_class_prf_s": "s",
    "metrics.acc": "fraction",
    "metrics.ari": "index",
    "metrics.minority_f": "index",
    "data.save_idx_s": "s",
    "data.load_idx_s": "s",
    "data.load_idx_mb_per_s": "MB/s",
    "data.subsample_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}
SINGLE_THREAD = ["tensor.gemm_gflop_per_s", "tensor.peak_gflop_per_s", "trainer.step_ms_p50",
                 *(f"{layer}.self_s" for layer in LAYERS)]
RUN = {
    "run.blas_threads": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",  # traced repeat wall time minus untraced
    "trace.overhead_share": "fraction",
}


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def summarize(spans: list[list], lo: int, hi: int, *, epoch_seconds, repeat,
              idx_bytes: int, peak_gflop_per_s: float) -> dict[str, float]:
    """Per-layer metrics for spans[lo:hi] (one traced set-up and one repeat)."""
    own = self_times(spans[:hi], lo)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl = defaultdict(float)
    work = defaultdict(float)
    flops = gemm_bytes = 0.0
    children = defaultdict(list)
    for i in range(lo, hi):
        s = spans[i]
        name = s[NAME]
        calls[name] += 1
        self_s[name] += own[i - lo]
        incl[name] += s[END] - s[START]
        if isinstance(s[WORK], tuple):
            flops += s[WORK][0]
            gemm_bytes += s[WORK][1]
        elif s[WORK] is not None:
            work[name] += s[WORK]
        children[s[PARENT]].append(i)

    refresh_s = kmeans_init_s = 0.0
    steps_ms = []
    for f in (i for i in range(lo, hi) if spans[i][NAME] == "trainer.finetune"):
        n_rows = spans[f][WORK]
        step_start = None
        for c in children[f]:
            name, start, end = spans[c][NAME], spans[c][START], spans[c][END]
            if name in _REFRESH_SPANS or (name == "dec.kl_divergence" and spans[c][WORK] == n_rows):
                refresh_s += end - start
            elif name == "kmeans.kmeans":
                kmeans_init_s += end - start
            elif name == "network.forward" and step_start is None:
                step_start = start
            elif name == "network.optimizer_step" and step_start is not None:
                steps_ms.append(1e3 * (end - step_start))
                step_start = None

    affine_s = self_s["tensor.affine_forward"] + self_s["tensor.affine_backward"]
    clustering_s = incl["trainer.run_clustering"]
    vat_s = incl["vat.adversarial_perturbation"] + incl["vat.vat_loss"]
    load_s = self_s["data.load_idx"]
    out = {
        "tensor.affine_forward_s": self_s["tensor.affine_forward"],
        "tensor.affine_backward_s": self_s["tensor.affine_backward"],
        "tensor.relu_s": self_s["tensor.relu_forward"] + self_s["tensor.relu_backward"],
        "tensor.mse_s": self_s["tensor.mse_loss"],
        "tensor.affine_calls": calls["tensor.affine_forward"] + calls["tensor.affine_backward"],
        "tensor.gemm_gflop": flops / 1e9,
        "tensor.gemm_gb": gemm_bytes / 1e9,
        "tensor.gemm_gflop_per_s": flops / 1e9 / affine_s if affine_s else 0.0,
        "tensor.peak_gflop_per_s": peak_gflop_per_s,
        "network.forward_calls": calls["network.forward"],
        "network.forward_s": self_s["network.forward"],
        "network.backward_calls": calls["network.backward"],
        "network.backward_s": self_s["network.backward"],
        "network.encode_rows": work["network.encode"],
        "network.encode_s": incl["network.encode"],
        "network.optimizer_step_calls": calls["network.optimizer_step"],
        "network.optimizer_step_s": self_s["network.optimizer_step"],
        "kmeans.calls": calls["kmeans.kmeans"],
        "kmeans.restarts": work["kmeans.kmeans"],
        "kmeans.s": self_s["kmeans.kmeans"],
        "kmeans.s_per_restart": (self_s["kmeans.kmeans"] / work["kmeans.kmeans"]
                                 if work["kmeans.kmeans"] else 0.0),
        "dec.soft_assign_calls": calls["dec.soft_assign"],
        "dec.soft_assign_s": self_s["dec.soft_assign"],
        "dec.clustering_grads_calls": calls["dec.clustering_grads"],
        "dec.clustering_grads_s": self_s["dec.clustering_grads"],
        "dec.target_distribution_s": self_s["dec.target_distribution"],
        "dec.kl_divergence_s": self_s["dec.kl_divergence"],
        "dec.squared_distances_calls": calls["dec.squared_distances"],
        "dec.squared_distances_s": self_s["dec.squared_distances"],
        "vat.perturbation_s": incl["vat.adversarial_perturbation"],
        "vat.loss_s": incl["vat.vat_loss"],
        "vat.calls": calls["vat.adversarial_perturbation"],
        "vat.share": vat_s / clustering_s if clustering_s else 0.0,
        "trainer.iterations": repeat.iterations,
        "trainer.refreshes": repeat.refreshes,
        "trainer.refresh_s": refresh_s,
        "trainer.refresh_share": refresh_s / clustering_s if clustering_s else 0.0,
        "trainer.kmeans_init_s": kmeans_init_s,
        "trainer.step_ms_p50": _pct(steps_ms, 50),
        "trainer.step_ms_p90": _pct(steps_ms, 90),
        "trainer.step_samples": len(steps_ms),
        "trainer.pretrain_epoch_s_p50": _pct(epoch_seconds, 50),
        "trainer.converged": float(repeat.stop_reason == "converged"),
        "trainer.kl_input_grad_s": incl["trainer.kl_input_grad"],
        "trainer.kl_param_grads_s": incl["trainer.kl_param_grads"],
        "metrics.accuracy_calls": calls["metrics.accuracy"],
        "metrics.accuracy_s": self_s["metrics.accuracy"],
        "metrics.ari_calls": calls["metrics.adjusted_rand_index"],
        "metrics.ari_s": self_s["metrics.adjusted_rand_index"],
        "metrics.per_class_prf_s": self_s["metrics.per_class_prf"],
        "metrics.acc": repeat.acc,
        "metrics.ari": repeat.ari,
        "metrics.minority_f": repeat.minority_f,
        "data.save_idx_s": self_s["data.save_idx"],
        "data.load_idx_s": load_s,
        "data.load_idx_mb_per_s": idx_bytes / 1e6 / load_s if load_s else 0.0,
        "data.subsample_s": self_s["data.subsample"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    return out


def coverage_errors(spans: list[list], lo: int, hi: int, zero: set[str]) -> list[str]:
    """Spans expected on this workload that never fired, and zero spans that did."""
    fired = {spans[i][NAME] for i in range(lo, hi)}
    errors = [f"{name} never fired" for name in SPAN_NAMES
              if name not in zero and name not in fired]
    errors += [f"{name} fired but is predicted zero here" for name in sorted(zero & fired)]
    return errors
