"""Deep embedded clustering with virtual adversarial regularization.

Library surface: dense-layer primitives (`tensor`), encoder/decoder stacks
and optimizers (`network`), Lloyd's K-means (`kmeans`), the soft-assignment
clustering head (`dec`), adversarial perturbations (`vat`), the two-phase
trainer (`trainer`), clustering metrics (`metrics`), and dataset handling
(`data`). The `rdec` console script drives end-to-end experiments.

``RDEC_NUM_THREADS``, if set, is copied into the OpenMP, OpenBLAS and MKL
thread variables when ``rdec`` is first imported, from the CLI or a library.
BLAS reads them when numpy loads, so numpy must not be imported first.
"""

import os

# Must run before any submodule import below loads numpy.
_threads = os.environ.get("RDEC_NUM_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = _threads

from .data import Dataset, SubsampleSpec, load_csv, load_idx, subsample  # noqa: E402
from .dec import kl_divergence, soft_assign, target_distribution  # noqa: E402
from .kmeans import KMeansResult  # noqa: E402
from .metrics import accuracy, adjusted_rand_index, per_class_prf  # noqa: E402
from .network import Network, build_network, encode, load_model, save_model  # noqa: E402
from .trainer import (  # noqa: E402
    RunReport,
    TrainConfig,
    finetune,
    label_change_rate,
    pretrain,
    run_clustering,
)
from .vat import adversarial_perturbation, vat_loss  # noqa: E402

__version__ = "0.1.0"

# No name repeats a submodule's, so ``rdec.kmeans`` is always the module.
__all__ = [
    "Dataset", "SubsampleSpec", "load_csv", "load_idx", "subsample",
    "kl_divergence", "soft_assign", "target_distribution",
    "KMeansResult",
    "accuracy", "adjusted_rand_index", "per_class_prf",
    "Network", "build_network", "encode", "load_model", "save_model",
    "RunReport", "TrainConfig", "finetune", "label_change_rate", "pretrain",
    "run_clustering",
    "adversarial_perturbation", "vat_loss",
]
