"""Spans recorded from outside the library, by wrapping its public functions.

Modules bind names at import time (``from .tensor import affine_forward``),
so a wrapper only sees calls made through the name it replaces. Every
target is therefore patched in each loaded ``rdec`` module that holds the
original object, and methods are patched on their class. ``uninstall``
puts the originals back.

A span is ``[name, start, end, parent_index, work]``; spans stay in memory
and the run id tags the file they are written to at the end. ``work`` is a
number the wrapper computes from the arguments (rows, restarts, or GEMM
flop and byte counts derived from shapes), or None.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


def _rows(arg_index: int):
    return lambda args, kwargs: int(args[arg_index].shape[0])


def _affine_forward_work(args, kwargs):
    x, weight = args[0], args[1]
    m, (k, n) = x.shape[0], weight.shape
    return (2 * m * k * n, 8 * (m * k + k * n + m * n))


def _affine_backward_work(args, kwargs):
    grad_out, weight = args[0], args[2]
    m, n = grad_out.shape
    k = weight.shape[0]
    # grad_out @ weight.T and input.T @ grad_out
    return (4 * m * k * n, 8 * 2 * (m * n + k * n + m * k))


def _restarts(args, kwargs):
    return int(kwargs.get("restarts", args[2] if len(args) > 2 else 20))


# (module, attribute, span name, work function). Functions are patched in
# every rdec module that binds them; "Class.method" entries on the class.
TARGETS = [
    ("rdec.tensor", "affine_forward", "tensor.affine_forward", _affine_forward_work),
    ("rdec.tensor", "affine_backward", "tensor.affine_backward", _affine_backward_work),
    ("rdec.tensor", "relu_forward", "tensor.relu_forward", None),
    ("rdec.tensor", "relu_backward", "tensor.relu_backward", None),
    ("rdec.tensor", "mse_loss", "tensor.mse_loss", None),
    ("rdec.network", "forward", "network.forward", _rows(1)),
    ("rdec.network", "backward", "network.backward", None),
    ("rdec.network", "encode", "network.encode", _rows(1)),
    ("rdec.network", "SgdMomentum.step", "network.optimizer_step", None),
    ("rdec.network", "Adam.step", "network.optimizer_step", None),
    ("rdec.kmeans", "kmeans", "kmeans.kmeans", _restarts),
    ("rdec.dec", "squared_distances", "dec.squared_distances", _rows(0)),
    ("rdec.dec", "soft_assign", "dec.soft_assign", _rows(0)),
    ("rdec.dec", "clustering_grads", "dec.clustering_grads", _rows(0)),
    ("rdec.dec", "target_distribution", "dec.target_distribution", None),
    ("rdec.dec", "kl_divergence", "dec.kl_divergence", _rows(0)),
    ("rdec.vat", "adversarial_perturbation", "vat.adversarial_perturbation", None),
    ("rdec.vat", "vat_loss", "vat.vat_loss", None),
    ("rdec.trainer", "pretrain", "trainer.pretrain", _rows(2)),
    ("rdec.trainer", "finetune", "trainer.finetune", _rows(1)),
    ("rdec.trainer", "run_clustering", "trainer.run_clustering", _rows(1)),
    ("rdec.trainer", "ClusterModel.predict", "trainer.predict", _rows(1)),
    ("rdec.trainer", "ClusterModel.kl_input_grad", "trainer.kl_input_grad", None),
    ("rdec.trainer", "ClusterModel.kl_param_grads", "trainer.kl_param_grads", None),
    ("rdec.metrics", "accuracy", "metrics.accuracy", None),
    ("rdec.metrics", "adjusted_rand_index", "metrics.adjusted_rand_index", None),
    ("rdec.metrics", "per_class_prf", "metrics.per_class_prf", None),
    ("rdec.data", "save_idx", "data.save_idx", None),
    ("rdec.data", "load_idx", "data.load_idx", None),
    ("rdec.data", "subsample", "data.subsample", None),
]

SPAN_NAMES = sorted({name for _, _, name, _ in TARGETS})
NAME, START, END, PARENT, WORK = range(5)


class MissingTargetError(LookupError):
    """A wrapped name no longer exists where the benchmark expects it."""


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, work_fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      work_fn(args, kwargs) if work_fn else None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> "Tracer":
        rdec_modules = [m for key, m in sys.modules.items()
                        if key == "rdec" or key.startswith("rdec.")]
        for module_name, attr, name, work_fn in TARGETS:
            home = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                if cls is None or meth not in vars(cls):
                    raise MissingTargetError(f"{module_name}.{attr}")
                self._patch(cls, meth, self._wrap(name, vars(cls)[meth], work_fn))
                continue
            original = getattr(home, attr, None)
            if original is None:
                raise MissingTargetError(f"{module_name}.{attr}")
            wrapped = self._wrap(name, original, work_fn)
            for module in rdec_modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapped)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def mark(self) -> int:
        """Index of the next span, for slicing out one phase's spans."""
        return len(self.spans)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent", "work"],
                       "spans": self.spans}, fh)


def self_times(spans: list[list], first: int = 0) -> list[float]:
    """Duration of each span from ``first`` on, minus what its children cover.

    Calls are synchronous, so children of one span never overlap.
    """
    own = [s[END] - s[START] for s in spans[first:]]
    for i, s in enumerate(spans[first:]):
        if s[PARENT] >= first:
            own[s[PARENT] - first] -= s[END] - s[START]
    return own
