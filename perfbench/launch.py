"""Child-process side of the benchmark: the server or one sweep pass.

``run.py`` starts this script in a fresh interpreter with ``src`` on
``PYTHONPATH`` and ``REPRO_CACHE_DIR`` inside ``.bench_build``::

    launch.py prepare                  # train or load the three parents
    launch.py serve RECORD [--trace SPANS] -- ARGS...
    launch.py sweep RECORD --widths W,.. [--trace SPANS]

``serve`` runs ``python -m repro serve ARGS`` in this process.  ``sweep``
loads the three parents, prints ``READY``, runs the grid through the
serial runner with the widths in the given order and assembles Fig. 9
and Table II.  Both write RECORD (JSON): the words path of every compiled
layer, and for the sweep the per-step times, the host speed probes
(``speed.py``) and the assembled results.
With ``--trace``, :mod:`layers` wraps every traced layer first and the
spans are written to SPANS when the process ends.
"""

from __future__ import annotations

import argparse
import json
import runpy
import sys
import time

from layers import Tracer, install_tracing

DATASETS = ("wbc", "iris", "mushroom")
WIDTHS = (5, 6, 7, 8)


def _paths(network) -> list[str]:
    return [layer["path"] for layer in network.network_kernel().explain()]


def vmhwm_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of a live process, MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _write(path: str, record: dict) -> None:
    with open(path, "w") as handle:
        json.dump(record, handle)


def prepare() -> None:
    from repro.analysis.sweep import trained_model

    for dataset in DATASETS:
        trained_model(dataset)


def serve(record_path: str, serve_args: list[str]) -> int:
    from repro.serve import registry

    record = {"paths": []}
    build = registry.build_served_model

    def build_recorded(*args, **kwargs):
        model = build(*args, **kwargs)
        record["paths"].append(
            {"network": model.key, "paths": _paths(model.network)}
        )
        _write(record_path, record)
        return model

    registry.build_served_model = build_recorded
    sys.argv = ["repro", "serve", *serve_args]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return exc.code or 0
    return 0


def sweep(record_path: str, widths: list[int]) -> int:
    from repro.analysis import runner
    from repro.analysis.sweep import _table2_row, figure9_series, trained_model
    from repro.core.positron import PositronNetwork
    from speed import Speedometer

    for dataset in DATASETS:
        trained_model(dataset)
    print("READY", flush=True)
    # One probe of the host's speed here and one after each step, outside
    # the step's time; their time is taken out of the pass's time.
    meter = Speedometer("sweep")
    meter.burst(1)

    # One deploy-and-evaluate step = from_float_params .. predict (see
    # evaluate_configs_batch); two clock reads per step, then one probe.
    steps, paths, opened, rows, probing = [], [], [0.0], [0], [0.0]
    from_float_params = PositronNetwork.from_float_params.__func__
    predict = PositronNetwork.predict

    def timed_from_float_params(cls, *args, **kwargs):
        opened[0] = time.perf_counter()
        return from_float_params(cls, *args, **kwargs)

    def timed_predict(self, inputs):
        out = predict(self, inputs)
        steps.append(time.perf_counter() - opened[0])
        rows[0] += len(inputs)
        paths.append({"network": f"{self.fmt}@{self.topology[0]}",
                      "paths": _paths(self)})
        probed = time.perf_counter()
        meter.burst(1)
        probing[0] += time.perf_counter() - probed
        return out

    PositronNetwork.from_float_params = classmethod(timed_from_float_params)
    PositronNetwork.predict = timed_predict

    failures = []
    start = time.perf_counter()
    try:
        results = runner.run_sweeps(DATASETS, widths, jobs=1)
    except runner.GridQuarantine as exc:
        results, failures = exc.results, exc.report
    sweep_s = time.perf_counter() - start - probing[0]

    lookup = {(t.dataset, t.width): v for t, v in results.items()}
    record = {
        "sweep_s": sweep_s,
        "steps_s": steps,
        "probes_s": meter.bursts,  # at READY, then after each step
        "rows": rows[0],
        "paths": paths,
        "failures": failures,
        "tasks": sorted(f"{d}-{w}" for d, w in lookup),
        "table2": [_table2_row(lookup[(d, 8)]) for d in DATASETS
                   if (d, 8) in lookup],
        "figure9": (figure9_series(WIDTHS, DATASETS, sweeps=lookup)
                    if len(lookup) == len(DATASETS) * len(WIDTHS) else None),
        "peak_rss_mb": vmhwm_mb(),
    }
    _write(record_path, record)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "serve", "sweep"))
    parser.add_argument("record", nargs="?")
    parser.add_argument("--trace", metavar="SPANS")
    parser.add_argument("--widths", default=",".join(map(str, WIDTHS)))
    argv = sys.argv[1:]
    rest = []
    if "--" in argv:
        split = argv.index("--")
        argv, rest = argv[:split], argv[split + 1:]
    ns = parser.parse_args(argv)
    if ns.mode == "prepare":
        prepare()
        return 0
    tracer = None
    if ns.trace:
        tracer = Tracer()
        install_tracing(tracer)
    try:
        if ns.mode == "serve":
            return serve(ns.record, rest)
        return sweep(ns.record, [int(w) for w in ns.widths.split(",")])
    finally:
        if tracer is not None:
            tracer.write(ns.trace)


if __name__ == "__main__":
    raise SystemExit(main())
