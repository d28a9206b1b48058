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
