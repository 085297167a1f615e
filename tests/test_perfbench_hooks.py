"""The names the benchmark reaches into under ``src/`` must still resolve.

``perfbench/layers.py`` wraps module and class attributes of the serve,
formats, core and analysis layers for traced runs, and ``perfbench/run.py``
and ``perfbench/launch.py`` call a few more in untraced ones.  A rename in
``src/`` otherwise only shows in the benchmark's own self-test, which takes
minutes.  This test resolves every one of those names in a fresh
interpreter: the tracer patches modules in place, so it must not run in the
test process.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = r"""
import inspect

import numpy as np

from layers import Tracer, install_tracing
from repro import formats

# Untraced runs: run.py checks answers and tails, launch.py records paths
# and assembles the sweep.  Importing a name is half the check.
from repro.analysis import runner
from repro.analysis.store import ArtifactStore, artifact_store
from repro.analysis.sweep import (
    EXPERIMENTS, _table2_row, figure9_series, model_key, trained_model,
)
from repro.core.positron import PositronNetwork
from repro.serve import registry
from repro.serve.stats import percentile

assert callable(registry.build_served_model)
assert callable(registry.ServedModel.quantize)
assert callable(_table2_row)
assert "sweeps" in inspect.signature(figure9_series).parameters
assert issubclass(runner.GridQuarantine, Exception)
assert callable(ArtifactStore.has_model)
assert percentile([1.0, 2.0, 3.0], 50) == 2.0

rng = np.random.default_rng(0)
weights = [rng.normal(size=(3, 4)), rng.normal(size=(2, 3))]
biases = [rng.normal(size=3), rng.normal(size=2)]
for name in ("posit8_1", "float4_3", "fixed8_4"):
    net = PositronNetwork.from_float_params(
        formats.get(name).fmt, weights, biases
    )
    patterns = net.engine.quantize(rng.normal(size=(2, 4)))
    scalar = net.forward_scalar(patterns[0])
    assert list(net.forward_patterns(patterns)[0]) == list(scalar)
    net.engine.decode_values(np.asarray(scalar))
    assert all("path" in row for row in net.network_kernel().explain())

# Traced runs: every wrapped attribute must exist.
install_tracing(Tracer())
print("perfbench hooks resolve")
"""


def test_perfbench_hooks_resolve():
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
    )
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "perfbench hooks resolve"
