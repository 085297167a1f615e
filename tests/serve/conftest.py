"""Shared serving-test fixtures: tiny synthetic models, no training.

The serve registry's loader hook is the test seam: instead of the
store-backed :func:`repro.analysis.sweep.trained_model` (which would train
a real parent model), these fixtures hand back small deterministic MLPs
wrapped in the same ``TrainedModel``-shaped interface (``.model``,
``.dataset.class_names``, ``.float32_accuracy``).
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.nn.model import MLP

#: dataset name -> (topology, class names, rng seed)
TOY_SPECS = {
    "toy": ((4, 6, 3), ("setosa", "versicolor", "virginica"), 3),
    "toy2": ((5, 7, 2), ("benign", "malignant"), 9),
}


def tiny_loader(dataset: str):
    """A ``TrainedModel``-shaped object for the toy datasets."""
    if dataset not in TOY_SPECS:
        raise KeyError(f"unknown dataset '{dataset}'")
    topology, class_names, seed = TOY_SPECS[dataset]
    model = MLP(topology, np.random.default_rng(seed))
    return SimpleNamespace(
        model=model,
        dataset=SimpleNamespace(class_names=class_names),
        float32_accuracy=0.9,
    )


def slow_loader(dataset: str):
    """:func:`tiny_loader` after a pause far past any test's ready deadline."""
    time.sleep(5.0)
    return tiny_loader(dataset)


@pytest.fixture
def loader():
    return tiny_loader


@pytest.fixture(scope="module")
def pool():
    """A live 2-worker SO_REUSEPORT pool serving the toy loaders.

    Module-scoped: spawning processes is the expensive part, and every
    consumer only ever *reads* through the pool (predict/stats/swap) or
    exercises restarts that leave it whole again.  Callers are expected
    to be gated on multi-core hosts (see ``test_pool.py``).
    """
    from repro.serve import start_pool_in_thread

    handle = start_pool_in_thread(
        port=0, workers=2,
        loader_spec="tests.serve.conftest:tiny_loader",
        server_kwargs={"max_delay_ms": 1.0},
        restart_backoff_s=0.1, seed=7,
    )
    yield handle
    handle.stop()


@pytest.fixture
def toy_inputs(rng):
    """(rows, 4) float features for the ``toy`` dataset."""

    def make(rows: int) -> np.ndarray:
        return rng.normal(size=(rows, 4))

    return make
