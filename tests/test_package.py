import importlib
import pkgutil

import rdec

# Every public name of the package and the submodule it comes from.
EXPORTS = {
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
    "adversarial_perturbation": "vat",
    "vat_loss": "vat",
}


def test_public_names_are_their_home_submodules_objects():
    assert sorted(rdec.__all__) == sorted(EXPORTS)
    for name, home in EXPORTS.items():
        assert getattr(rdec, name) is getattr(importlib.import_module(f"rdec.{home}"), name)
    # so ``rdec.kmeans`` and the rest stay modules
    submodules = {info.name for info in pkgutil.iter_modules(rdec.__path__)}
    assert not submodules & set(rdec.__all__)
