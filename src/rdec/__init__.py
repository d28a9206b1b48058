"""Deep embedded clustering with virtual adversarial regularization.

Library surface: dense-layer primitives (`tensor`), encoder/decoder stacks
and optimizers (`network`), Lloyd's K-means (`kmeans`), the soft-assignment
clustering head (`dec`), adversarial perturbations (`vat`), the two-phase
trainer (`trainer`), clustering metrics (`metrics`), and dataset handling
(`data`). The `rdec` console script drives end-to-end experiments.

Submodules load lazily so the command line can pin BLAS thread counts
before numpy is imported.
"""

import importlib

__version__ = "0.1.0"

# Public name -> home submodule; resolved on first attribute access. No name
# repeats a submodule's, so ``rdec.kmeans`` is always the module.
_EXPORTS = {
    "Dataset": "data",
    "SubsampleSpec": "data",
    "load_csv": "data",
    "load_idx": "data",
    "subsample": "data",
    "kl_divergence": "dec",
    "soft_assign": "dec",
    "target_distribution": "dec",
    "KMeansResult": "kmeans",
    "accuracy": "metrics",
    "adjusted_rand_index": "metrics",
    "per_class_prf": "metrics",
    "Network": "network",
    "build_network": "network",
    "encode": "network",
    "load_model": "network",
    "save_model": "network",
    "RunReport": "trainer",
    "TrainConfig": "trainer",
    "finetune": "trainer",
    "label_change_rate": "trainer",
    "pretrain": "trainer",
    "run_clustering": "trainer",
    "VatConfig": "vat",
    "adversarial_perturbation": "vat",
    "vat_loss": "vat",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS.values():
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
