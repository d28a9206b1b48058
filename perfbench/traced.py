"""Traced run: per-layer metrics, span coverage, overhead, 1-thread baseline."""

from __future__ import annotations

import ctypes
import glob
import os
from time import perf_counter

import numpy as np

import layers
import workloads
from tracer import Tracer

UNITS = {
    **layers.PER_LAYER,
    **{f"{name}_1t": layers.PER_LAYER[name] for name in layers.SINGLE_THREAD},
    **layers.RUN,
}
# Spans predicted to stay silent; every other wrapped span must fire.
ZERO_SPANS = {
    "pretrain": {*layers.VAT_SPANS, "data.subsample"},
    "rdec-imbalanced": set(),
    "dec-refresh": {*layers.VAT_SPANS, "data.subsample"},
}


class BlasThreads:
    """Runtime BLAS thread control through OpenBLAS's own entry points."""

    _SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                "openblas_set_num_threads64_", "openblas_set_num_threads")

    def __init__(self):
        self._setters = []
        libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in self._SETTERS:
                if hasattr(lib, symbol):
                    setter = getattr(lib, symbol)
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    self._setters.append(setter)
                    break
        if not self._setters:
            raise LookupError("no OpenBLAS thread setter found next to numpy")

    def set(self, count: int) -> None:
        for setter in self._setters:
            setter(count)


def peak_gflop_per_s(reps: int = 20) -> float:
    """Median rate of a plain DGEMM the size of the widest encoder layer at batch 256."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((256, 500)), rng.standard_normal((500, 2000))
    a @ b
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        a @ b
        times.append(perf_counter() - t0)
    return 2 * 256 * 500 * 2000 / 1e9 / float(np.median(times))


def _traced_pass(w, run, tracer, seed, scratch):
    """One traced set-up and repeat at the current thread count.

    Returns the repeat and its per-layer metrics, or (None, None).
    """
    lo = tracer.mark()
    s = run.phase("setup traced", workloads.setup, w, seed, scratch)
    r = s and run.phase("repeat traced", workloads.repeat, w, s, seed)
    if not r:
        return None, None
    return r, layers.summarize(tracer.spans, lo, tracer.mark(),
                               epoch_seconds=r.pretrained.epoch_seconds, repeat=r,
                               idx_bytes=s.idx_bytes, peak_gflop_per_s=peak_gflop_per_s())


def trace(args, w, run, record: dict, pinned_threads: int, out_dir: str) -> dict:
    scratch = os.path.join(out_dir, f"idx-{os.getpid()}")
    base = run.phase("setup", workloads.setup, w, args.seed, scratch)
    # The first repeat warms caches and allocator; it is not compared.
    untraced = base and run.phase("warm-up repeat", workloads.repeat, w, base, args.seed) \
        and run.phase("repeat untraced", workloads.repeat, w, base, args.seed)
    blas = run.phase("blas thread control", BlasThreads)
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = untraced and blas and run.phase("install tracer", Tracer(run_id).install)
    if not tracer:
        return {}
    try:
        r, metrics = _traced_pass(w, run, tracer, args.seed, scratch)
        pinned_spans = tracer.mark()
        # A second untraced/traced pair halves the noise in the overhead.
        tracer.uninstall()
        untraced2 = run.phase("repeat untraced", workloads.repeat, w, base, args.seed)
        tracer.install()
        r2 = run.phase("repeat traced", workloads.repeat, w, base, args.seed)
        blas.set(1)
        try:
            r1, single = _traced_pass(w, run, tracer, args.seed, scratch)
        finally:
            blas.set(pinned_threads)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
    if not (r and r1 and untraced2 and r2):
        return {}
    errors = layers.coverage_errors(tracer.spans, 0, pinned_spans, ZERO_SPANS[w.name])
    run.phase("span coverage", workloads.check, not errors, "; ".join(errors))
    run.agree("assignment hashes", [x.assignments_sha256 for x in (untraced, untraced2, r, r2)])

    metrics.update({f"{name}_1t": single[name] for name in layers.SINGLE_THREAD})
    untraced_s = (untraced.wall_s + untraced2.wall_s) / 2
    overhead_s = (r.wall_s + r2.wall_s) / 2 - untraced_s
    metrics.update({
        "run.blas_threads": pinned_threads,
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": overhead_s / untraced_s,
    })
    record.update(
        quality={"acc": r.acc, "ari": r.ari, "minority_f": r.minority_f,
                 "assignments_sha256": r.assignments_sha256,
                 "assignments_sha256_1t": r1.assignments_sha256},
        untraced_repeat_s=[untraced.wall_s, untraced2.wall_s],
        traced_repeat_s=[r.wall_s, r2.wall_s],
        traced_repeat_1t_s=r1.wall_s, coverage_errors=errors, span_run_id=run_id,
    )
    return metrics
