"""Accuracy sweeps — Table II and Fig. 9.

Methodology (paper Section IV-B): train a 32-bit float parent model per
dataset; deploy it on Deep Positron at every [5, 8]-bit configuration of the
three formats *without retraining*; report the best accuracy per format per
width.  The 32-bit float baseline is the parent model itself evaluated in
float32.

Trained models are cached in-process *and* serialized to the
content-addressed artifact store (:mod:`repro.analysis.store`), keyed by a
hash of the full :class:`ExperimentSpec` — parallel sweep workers load the
parent parameters instead of retraining, bit-identically.  Sweep results
are persisted per (dataset, width) task under a key that also covers the
candidate-config list, so any change to the spec or the format registry
invalidates exactly the affected artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .. import formats
from ..core.positron import PositronNetwork
from ..datasets import load_iris, load_mushroom, load_wbc
from ..datasets.splits import Dataset
from ..hw.metrics import emac_report
from ..nn.metrics import degradation
from ..nn.model import MLP
from ..nn.quantize import FormatConfig, candidate_configs
from ..nn.train import TrainConfig, train_classifier
from .store import artifact_store, content_key, store_enabled

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "TrainedModel",
    "model_key",
    "sweep_task_key",
    "trained_model",
    "evaluate_config",
    "evaluate_configs_batch",
    "evaluate_named_format",
    "sweep_width",
    "table2_rows",
    "figure9_series",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """Per-dataset topology and training hyperparameters."""

    name: str
    topology: tuple[int, ...]
    train: TrainConfig


EXPERIMENTS: dict[str, ExperimentSpec] = {
    "wbc": ExperimentSpec(
        name="wbc",
        topology=(30, 16, 8, 2),
        train=TrainConfig(
            epochs=500,
            batch_size=32,
            learning_rate=5e-3,
            weight_decay=1e-5,
            early_stop_patience=80,
            optimizer="adam",
            seed=1,
        ),
    ),
    "iris": ExperimentSpec(
        name="iris",
        topology=(4, 10, 6, 3),
        train=TrainConfig(
            epochs=900,
            batch_size=16,
            learning_rate=5e-3,
            weight_decay=1e-5,
            early_stop_patience=150,
            optimizer="adam",
            seed=2,
        ),
    ),
    "mushroom": ExperimentSpec(
        name="mushroom",
        topology=(117, 24, 12, 2),
        train=TrainConfig(
            epochs=100,
            batch_size=64,
            learning_rate=2e-3,
            early_stop_patience=30,
            optimizer="adam",
            seed=4,
        ),
    ),
}

_LOADERS = {"wbc": load_wbc, "iris": load_iris, "mushroom": load_mushroom}


@dataclass
class TrainedModel:
    """A trained float parent model plus its dataset and baseline accuracy."""

    spec: ExperimentSpec
    dataset: Dataset
    model: MLP
    float32_accuracy: float


def model_key(spec: ExperimentSpec) -> str:
    """Content key of a trained parent model: the full experiment spec."""
    return content_key({"kind": "model", "spec": spec})


def sweep_task_key(dataset_name: str, n: int) -> str:
    """Content key of one (dataset, width) sweep task.

    Covers the model key (spec + hyperparameters) *and* the candidate
    configuration labels, so registering a new format family — or changing
    a knob set — invalidates exactly the sweeps it affects.
    """
    if dataset_name not in EXPERIMENTS:
        raise KeyError(f"unknown dataset '{dataset_name}'")
    labels = [config.label for config in candidate_configs(n)]
    return content_key(
        {
            "kind": "sweep",
            "model": model_key(EXPERIMENTS[dataset_name]),
            "n": n,
            "configs": labels,
        }
    )


def _train_parent(spec: ExperimentSpec, dataset: Dataset) -> tuple[MLP, float]:
    rng = np.random.default_rng(spec.train.seed)
    model = MLP(spec.topology, rng)
    train_classifier(
        model,
        dataset.train_x,
        dataset.train_y,
        dataset.test_x,
        dataset.test_y,
        spec.train,
    )
    # The paper's baseline is 32-bit float; round parameters through float32.
    model.cast_float32()
    baseline = model.accuracy(dataset.test_x, dataset.test_y)
    return model, baseline


@lru_cache(maxsize=None)
def trained_model(dataset_name: str) -> TrainedModel:
    """The parent model for a dataset: store-loaded, or trained and stored.

    In-process the result is memoized; across processes the parameters are
    shared through the artifact store, so a sweep worker whose sibling (or a
    previous, interrupted run) already trained the model loads the exact
    float64 parameters instead of retraining — bit-identical by the
    :meth:`~repro.nn.model.MLP.export_arrays` round-trip guarantee.
    """
    if dataset_name not in EXPERIMENTS:
        raise KeyError(f"unknown dataset '{dataset_name}'")
    spec = EXPERIMENTS[dataset_name]
    dataset = _LOADERS[dataset_name]()
    if dataset.num_features != spec.topology[0]:
        raise AssertionError("topology/feature mismatch")
    if store_enabled():
        store = artifact_store()
        key = model_key(spec)
        cached = store.load_model(key)
        if cached is not None:
            arrays, meta = cached
            model = MLP.from_arrays(arrays)
            if model.topology == spec.topology:
                return TrainedModel(
                    spec, dataset, model, float(meta["float32_accuracy"])
                )
    model, baseline = _train_parent(spec, dataset)
    if store_enabled():
        artifact_store().save_model(
            model_key(spec),
            model.export_arrays(),
            {"dataset": spec.name, "float32_accuracy": baseline},
        )
    return TrainedModel(spec, dataset, model, baseline)


def evaluate_config(tm: TrainedModel, config: FormatConfig) -> float:
    """Deploy the parent model at one low-precision config; test accuracy."""
    return evaluate_configs_batch(tm, [config])[0]


def evaluate_configs_batch(
    tm: TrainedModel, configs: list[FormatConfig] | tuple[FormatConfig, ...]
) -> list[float]:
    """Accuracies of many configs, batched: one engine pass per config.

    The parent parameters are exported once and each config's quantized
    network runs the full test set in a single compiled-kernel forward —
    backends, decode/operand/round tables, and engines are memoized per
    format key in the registry, so repeated sweeps (and the parallel
    runner's pool workers) stop rebuilding them per config.  Classification
    argmaxes the readout *patterns* through the format's monotone rank
    table, skipping the float64 decode of every readout row; results are
    bit-identical to evaluating configs one at a time with decoded argmax.
    """
    weights, biases = tm.model.export_params()
    test_x = np.asarray(tm.dataset.test_x, dtype=np.float64)
    labels = np.asarray(tm.dataset.test_y)
    accuracies = []
    for config in configs:
        network = PositronNetwork.from_float_params(config.fmt, weights, biases)
        accuracies.append(float(np.mean(network.predict(test_x) == labels)))
    return accuracies


def evaluate_named_format(dataset_name: str, format_name: str) -> dict:
    """Deploy one dataset's parent model at a registry-named format.

    End-to-end by-name path (CLI ``python -m repro sweep iris posit8_1``):
    any registered family works without further code changes.
    """
    backend = formats.get(format_name)
    tm = trained_model(dataset_name)
    config = FormatConfig(backend.family, backend.fmt)
    return {
        "dataset": dataset_name,
        "format": backend.name,
        "label": backend.label,
        "accuracy": evaluate_config(tm, config),
        "float32_accuracy": tm.float32_accuracy,
    }


def _sweep_width_uncached(dataset_name: str, n: int) -> dict:
    tm = trained_model(dataset_name)
    configs = candidate_configs(n)
    accuracies = evaluate_configs_batch(tm, configs)
    results = [
        {"family": config.family, "label": config.label, "accuracy": acc}
        for config, acc in zip(configs, accuracies)
    ]
    best = {}
    for family in (f.name for f in formats.families() if f.sweep_candidates):
        fam = [r for r in results if r["family"] == family]
        best[family] = max(fam, key=lambda r: r["accuracy"]) if fam else None
    return {
        "dataset": dataset_name,
        "n": n,
        "float32_accuracy": tm.float32_accuracy,
        "inference_size": tm.dataset.inference_size,
        "all": results,
        "best": best,
    }


def sweep_width(dataset_name: str, n: int) -> dict:
    """All format configs of width ``n`` on one dataset (store-cached).

    The result is persisted individually in the content-addressed store,
    keyed by spec + width + candidate set — this is the resume granularity
    of the parallel runner: an interrupted run recomputes only the tasks
    whose artifacts are missing.
    """
    if not store_enabled():
        return _sweep_width_uncached(dataset_name, n)
    store = artifact_store()
    key = sweep_task_key(dataset_name, n)
    cached = store.load_result(key)
    if cached is not None:
        return cached
    value = _sweep_width_uncached(dataset_name, n)
    store.save_result(key, value)
    return value


def _table2_row(sweep: dict) -> dict:
    """One Table II row assembled from a width-8 sweep result."""
    return {
        "dataset": sweep["dataset"],
        "inference_size": sweep["inference_size"],
        "posit": sweep["best"]["posit"]["accuracy"],
        "posit_config": sweep["best"]["posit"]["label"],
        "float": sweep["best"]["float"]["accuracy"],
        "float_config": sweep["best"]["float"]["label"],
        "fixed": sweep["best"]["fixed"]["accuracy"],
        "fixed_config": sweep["best"]["fixed"]["label"],
        "float32": sweep["float32_accuracy"],
    }


def table2_rows(datasets: tuple[str, ...] = ("wbc", "iris", "mushroom")) -> list[dict]:
    """Table II: best 8-bit accuracy per format vs the 32-bit float baseline."""
    return [_table2_row(sweep_width(name, 8)) for name in datasets]


def figure9_series(
    widths: tuple[int, ...] = (5, 6, 7, 8),
    datasets: tuple[str, ...] = ("wbc", "iris", "mushroom"),
    sweeps: dict[tuple[str, int], dict] | None = None,
) -> dict[str, list[dict]]:
    """Fig. 9: per format family, (avg accuracy degradation, EDP) per width.

    Degradation is averaged over the datasets using each dataset's best
    config of that family at that width (the paper plots the *lowest*
    degradation per width); EDP comes from the hardware model for the
    best-performing configuration, averaged across datasets.

    ``sweeps`` optionally supplies precomputed per-task results keyed by
    ``(dataset, n)`` (the parallel runner passes its fan-out output here);
    missing entries fall back to :func:`sweep_width`.
    """
    def config_from_label(label: str):
        return formats.get(label).fmt

    def get_sweep(name: str, n: int) -> dict:
        if sweeps is not None and (name, n) in sweeps:
            return sweeps[(name, n)]
        return sweep_width(name, n)

    series: dict[str, list[dict]] = {"posit": [], "float": [], "fixed": []}
    for n in widths:
        per_family: dict[str, list[tuple[float, float]]] = {
            f: [] for f in series
        }
        for name in datasets:
            sweep = get_sweep(name, n)
            for family in series:
                best = sweep["best"][family]
                if best is None:
                    continue
                deg = degradation(sweep["float32_accuracy"], best["accuracy"])
                edp = emac_report(config_from_label(best["label"])).edp
                per_family[family].append((deg, edp))
        for family, points in per_family.items():
            if not points:
                continue
            series[family].append(
                {
                    "n": n,
                    "avg_degradation_pct": float(np.mean([p[0] for p in points])),
                    "avg_edp": float(np.mean([p[1] for p in points])),
                }
            )
    return series
