"""Offline benchmark for rdec: one workload per run, metrics as JSON.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rdec-imbalanced --seed 1 --seconds 12 --trace 0

``--trace 0`` sets up several times and repeats the measured phase for
``--seconds``, then prints the end-to-end metrics (medians). ``--trace 1``
sets up once, runs one untraced repeat, then a traced set-up and repeat at
the pinned BLAS thread count and again at one thread, and prints the
per-layer metrics. Either way the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a run record
and (when traced) the spans go to ``.perfbench_out/`` in the checkout.

The library is imported from ``src/`` of the current directory; without
it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

# One BLAS thread count for every workload, fixed before numpy loads.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RDEC_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

OUT_DIR = ".perfbench_out"
SETUPS = 5  # set-ups per untraced run; setup_s is their median
MIN_REPEATS = 3
END_TO_END = {
    "setup_s": "s",
    "pretrain_rows_per_s": "rows/s",
    "pretrain_loss": "MSE",
    "finetune_s": "s",
    "finetune_rows_per_s": "rows/s",
    "predict_rows_per_s": "rows/s",
    "peak_rss_mb": "MiB",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_record(args, sizes: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu, "sizes": sizes,
        "numpy_hugepage_madvise": _hugepage_madvise(),
        "notes": {
            "processes": "single process; no queue, lock or exchange, so no wait-time metrics",
            "out_of_scope": "rdec.cli is not driven: config parsing, sha256 manifests "
                            "and JSON/CSV report writing are not measured",
        },
    }


def _hugepage_madvise():
    get = getattr(np._core.multiarray, "_get_madvise_hugepage", None)
    return None if get is None else bool(get())


def _median(values) -> float:
    return float(statistics.median(values))


def measure(args, w, run, record: dict) -> dict:
    """Untraced run: end-to-end metrics as medians over set-ups and repeats."""
    import workloads

    scratch = os.path.join(OUT_DIR, f"idx-{os.getpid()}")
    setups = [s for s in (run.phase("setup", workloads.setup, w, args.seed, scratch)
                          for _ in range(SETUPS)) if s is not None]
    if not setups:
        return {}
    run.agree("setup digests", [workloads.setup_digest(s) for s in setups])
    base = setups[-1]
    repeats = []
    t0 = perf_counter()
    # Stop before a repeat that would end past --seconds, once there are enough.
    while len(repeats) < MIN_REPEATS or \
            perf_counter() - t0 + _median(r.wall_s for r in repeats) <= args.seconds:
        r = run.phase("repeat", workloads.repeat, w, base, args.seed)
        if r is None:
            break
        repeats.append(r)
    if not repeats:
        return {}
    run.agree("assignment hashes", [r.assignments_sha256 for r in repeats])
    pretrains = [r.pretrained for r in repeats]
    run.agree("pretrain losses", [p.loss for p in pretrains])
    last = repeats[-1]
    n = base.features.shape[0]
    record.update(
        setup_s=[s.seconds for s in setups],
        repeats=[vars(r) for r in repeats],
        quality={"acc": last.acc, "ari": last.ari, "minority_f": last.minority_f,
                 "assignments_sha256": last.assignments_sha256},
    )
    return {
        "setup_s": _median(s.seconds for s in setups),
        "pretrain_rows_per_s": _median(p.rows_trained / p.seconds for p in pretrains),
        "pretrain_loss": pretrains[-1].loss,
        "finetune_s": _median(r.finetune_s for r in repeats),
        "finetune_rows_per_s": _median(r.iterations * workloads.BATCH / r.finetune_s
                                       for r in repeats),
        "predict_rows_per_s": _median(n / t for r in repeats for t in r.predict_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join("src", "rdec", "__init__.py")):
        print("perfbench: run from the root of an rdec checkout (src/rdec not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))

    # Whether the kernel grants transparent huge pages to numpy's large
    # buffers varies from run to run and makes timings bimodal; ask for none.
    hugepage_off = getattr(np._core.multiarray, "_set_madvise_hugepage", None)
    if hugepage_off is not None:
        hugepage_off(False)

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    record = run_record(args, vars(w))
    run = workloads.Run()
    if args.trace:
        import traced
        metrics, units = traced.trace(args, w, run, record, BLAS_THREADS, OUT_DIR), traced.UNITS
    else:
        metrics, units = measure(args, w, run, record), END_TO_END
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record.update(failures=run.failures, attempted=run.attempted, metrics=metrics)
    with open(os.path.join(OUT_DIR, f"record-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=vars)
    for failure in run.failures:
        print(f"FAILED {failure['phase']}: {failure['type']}: {failure['message']}")
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(f"{'error_rate':32s} {len(run.failures) / run.attempted:.6g} fraction")
    if "quality" in record:
        for key, value in record["quality"].items():
            print(f"{key:32s} {value}")
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
