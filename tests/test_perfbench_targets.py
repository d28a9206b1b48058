"""The benchmark's tracer wraps library functions by module and name.

A renamed or moved target makes ``Tracer.install`` raise; this check runs
it against the current tree so that such a change fails here, in seconds,
rather than only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_installs_and_uninstalls(tracer_module):
    for module_name in sorted({target[0] for target in tracer_module.TARGETS}):
        importlib.import_module(module_name)
    from rdec import dec, trainer

    before = (dec.squared_distances, trainer.soft_assign,
              vars(trainer.ClusterModel)["kl_param_grads"])
    tracer = tracer_module.Tracer("tier1").install()
    try:
        assert dec.squared_distances is not before[0]
        assert trainer.soft_assign is not before[1]
        assert vars(trainer.ClusterModel)["kl_param_grads"] is not before[2]
        dec.clustering_grads(np.zeros((3, 2)), np.ones((2, 2)), np.full((3, 2), 0.5))
    finally:
        tracer.uninstall()
    assert (dec.squared_distances, trainer.soft_assign,
            vars(trainer.ClusterModel)["kl_param_grads"]) == before
    # the distance pass inside clustering_grads is seen as its child span
    assert [span[0] for span in tracer.spans] == [
        "dec.clustering_grads", "dec.squared_distances"]
    assert tracer.spans[1][3] == 0


def test_tracer_sees_one_step_per_fine_tuning_iteration(tracer_module):
    # perfbench times a step from a network.forward child of the
    # trainer.finetune span to the next network.optimizer_step child (the
    # centroid step); a step hidden inside a traced span would leave none.
    from rdec import trainer
    from rdec.network import build_network

    data = np.random.default_rng(0).random((64, 16))
    encoder, _ = build_network(16, 2, seed=0)
    cfg = trainer.TrainConfig(method="rdec", max_iter=5, batch_size=16, kmeans_restarts=2)
    tracer = tracer_module.Tracer("tier1").install()
    try:
        _, report = trainer.finetune(encoder, data, 2, cfg)
    finally:
        tracer.uninstall()
    [root] = [i for i, span in enumerate(tracer.spans) if span[0] == "trainer.finetune"]
    pairs, in_step = 0, False
    for name, _, _, parent, _ in tracer.spans:
        if parent != root:
            continue
        if name == "network.forward" and not in_step:
            in_step = True
        elif name == "network.optimizer_step" and in_step:
            pairs, in_step = pairs + 1, False
    assert pairs == len(report.iterations) == 5
