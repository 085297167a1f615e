"""Ablation studies of the EMAC design choices, on the compiled kernels.

The paper's EMAC defers rounding until a whole dot product has been
accumulated (Section III-A) and rounds with round-to-nearest-even
(Section III-A, "recommended by IEEE-754 and the posit standard").  Two
ablations quantify those choices:

* **naive MAC** — round back to the n-bit format after *every*
  multiply-accumulate, the behaviour of a chain of ordinary low-precision
  FMA units;
* **truncated EMAC** — accumulate exactly but truncate (round toward zero)
  instead of RNE at the output stage.

Both run the same Deep Positron networks as the main sweeps, so the deltas
are directly comparable to Table II — and both now run *vectorized*:

* the truncated EMAC is simply the network recompiled with
  ``rounding_mode="rtz"`` (:meth:`PositronNetwork.with_rounding_mode`), so
  it rides the same stacked digit-plane GEMM kernels as the main sweeps;
* the naive MAC replaces its per-step ``quantize∘decode∘quantize`` with a
  registry-memoized pattern-domain **product table** — a ``(2**n, 2**n)``
  uint32 gather holding ``round(w · a)`` for every pattern pair — plus the
  backends' sorted-boundary ``searchsorted`` quantizer for the add-round,
  vectorized over ``(batch, out)``; only the (inherently sequential)
  fan-in recurrence remains a Python loop.

The seed scalar paths are retained as ``naive_forward_reference`` and
``truncated_forward_reference``: they are the property-test oracles the
vectorized paths are bit-identical to, and the baselines of the
benchmark guard's ``ablation`` speedup gate (``benchmarks/guard.py``).

:func:`ablation_width` evaluates one ``(dataset, width)`` cell of the full
ablation grid — exact/naive/truncated accuracy for every posit sweep
candidate — persisting results in the content-addressed store (keys cover
the rounding modes and the product-table shape); the parallel runner fans
the grid out as ``python -m repro run ablation --jobs N``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .. import formats
from ..core.positron import PositronNetwork, scalar_emac_for
from ..core.vector import engine_for
from ..nn.quantize import candidate_configs, quantize_nearest
from .store import artifact_store, content_key, store_enabled
from .sweep import EXPERIMENTS, model_key, trained_model

__all__ = [
    "naive_product_table",
    "naive_forward",
    "naive_forward_reference",
    "naive_accuracy",
    "truncated_forward",
    "truncated_forward_reference",
    "truncated_accuracy",
    "ablation_task_key",
    "ablation_width",
    "ablation_table",
    "ABLATION_WIDTHS",
]

#: Widths of the ablation grid (the paper's deployment range).
ABLATION_WIDTHS: tuple[int, ...] = (5, 6, 7, 8)

#: Product tables are dense ``(2**n, 2**n)`` gathers; beyond this width the
#: quadratic table stops paying for itself (and stops fitting in cache).
_MAX_TABLE_WIDTH = 12


def _dequantize(fmt, patterns: np.ndarray) -> np.ndarray:
    return engine_for(fmt).decode_values(patterns)


# ----------------------------------------------------------------------
# Naive MAC (round after every multiply-accumulate)
# ----------------------------------------------------------------------
def naive_product_table(backend) -> tuple[np.ndarray, np.ndarray]:
    """``(values, products)`` for the pattern-domain naive-MAC recurrence.

    ``values[p]`` is pattern ``p`` decoded to float64 (invalid patterns
    pinned to 0 — the datapath never sees them); ``products[w, a]`` is the
    pattern of ``round(value[w] * value[a])``, i.e. one whole
    quantize∘multiply step as a single indexed gather.  Memoized on the
    registry-cached backend, so every ablation cell, pool worker, and
    benchmark in a process shares one table per format.
    """
    if backend.width > _MAX_TABLE_WIDTH:
        raise ValueError(
            f"naive product table for {backend.name} would need "
            f"2**{2 * backend.width} entries; widths above "
            f"{_MAX_TABLE_WIDTH} bits are not supported"
        )

    def build():
        patterns = np.arange(1 << backend.width, dtype=np.uint32)
        values = backend.decode_batch(patterns)
        values = np.where(np.isfinite(values), values, 0.0)
        products = backend.quantize_batch(values[:, None] * values[None, :])
        return values, products.astype(np.uint32)

    return backend._memo("_naive_product_table", build)


def naive_forward(network: PositronNetwork, inputs: np.ndarray) -> np.ndarray:
    """Forward pass with rounding after every MAC (the EMAC's antithesis).

    Uses the same quantized parameters as ``network`` but a sequential
    ``acc = round(acc + round(w * a))`` recurrence per neuron, evaluated in
    pattern space: the product round is one gather from the memoized
    product table, the add-round one decode-gather + add + batched
    sorted-boundary quantize — both vectorized over every (sample, neuron)
    pair at once.  Bit-identical to :func:`naive_forward_reference`.
    """
    backend = formats.backend_for(network.fmt)
    values, products = naive_product_table(backend)
    engine = network.engine
    current = engine.quantize(np.asarray(inputs, dtype=np.float64))
    if current.ndim == 1:
        current = current[None, :]
    batch = current.shape[0]
    for layer in network.layers:
        weights = layer.weights.astype(np.int64)  # (out, in)
        # Bias preloaded, like the EMAC.
        acc = np.broadcast_to(
            layer.bias.astype(np.int64), (batch, layer.out_features)
        ).copy()
        cur = current.astype(np.int64)
        for i in range(layer.in_features):
            prod = products[weights[None, :, i], cur[:, i, None]]  # (batch, out)
            acc = backend.quantize_batch(values[acc] + values[prod]).astype(
                np.int64
            )
        out = acc.astype(np.uint32)
        if layer.activation == "relu":
            out = engine.relu(out)
        current = out
    return current


def naive_forward_reference(
    network: PositronNetwork, inputs: np.ndarray
) -> np.ndarray:
    """Seed per-feature naive-MAC loop, retained as the bit-exact oracle.

    One ``quantize∘decode∘quantize`` round-trip through float64 per input
    feature; :func:`naive_forward` must (and, property-tested, does) match
    it bit for bit.
    """
    fmt = network.fmt
    engine = network.engine
    current = engine.quantize(np.asarray(inputs, dtype=np.float64))
    for layer in network.layers:
        w_val = _dequantize(fmt, layer.weights)  # (out, in)
        b_val = _dequantize(fmt, layer.bias)  # (out,)
        x_val = _dequantize(fmt, current)  # (batch, in)
        batch = x_val.shape[0]
        acc = np.tile(b_val, (batch, 1))  # bias preloaded, like the EMAC
        for i in range(x_val.shape[1]):
            product = x_val[:, i : i + 1] * w_val[None, :, i]
            product = _dequantize(fmt, quantize_nearest(fmt, product))
            acc = _dequantize(fmt, quantize_nearest(fmt, acc + product))
        out = quantize_nearest(fmt, acc)
        if layer.activation == "relu":
            out = engine.relu(out)
        current = out
    return current


def naive_accuracy(
    network: PositronNetwork, inputs: np.ndarray, labels: np.ndarray
) -> float:
    """Classification accuracy of the naive rounded-MAC forward pass.

    Readout argmaxes the output patterns through the format's monotone
    rank table — the same pattern-space readout as
    :meth:`PositronNetwork.predict_patterns`, applied to the naive pass's
    output.
    """
    out = naive_forward(network, inputs)
    ranks = formats.backend_for(network.fmt).rank_table()
    predicted = np.argmax(ranks[out.astype(np.int64)], axis=1)
    return float(np.mean(predicted == np.asarray(labels)))


# ----------------------------------------------------------------------
# Truncated EMAC (exact accumulation, round-toward-zero output stage)
# ----------------------------------------------------------------------
def truncated_forward(
    network: PositronNetwork, inputs: np.ndarray
) -> np.ndarray:
    """Batched forward pass through EMACs whose final rounding truncates.

    Exact accumulation is kept (this isolates the *rounding mode* choice);
    only the quire -> output conversion changes from RNE to round-toward-
    zero.  Runs the same compiled digit-plane GEMM kernels as the main
    sweeps via :meth:`PositronNetwork.with_rounding_mode`; bit-identical to
    :func:`truncated_forward_reference`.
    """
    twin = network.with_rounding_mode("rtz")
    patterns = twin.engine.quantize(np.asarray(inputs, dtype=np.float64))
    return twin.forward_patterns(patterns)


def _truncate_to_format(fmt, value: Fraction) -> int:
    """Round ``value`` toward zero to the nearest format pattern."""
    return formats.backend_for(fmt).truncate_scalar(value)


def truncated_forward_reference(
    network: PositronNetwork, sample: np.ndarray
) -> list[int]:
    """One sample through scalar EMACs with truncating output stages.

    The retained oracle for :func:`truncated_forward`: exact ``Fraction``
    accumulation per neuron, rounded toward zero by ``truncate_scalar``.
    ReLU is applied table-wise on the whole layer output (the seed version
    built a 1-element array per neuron).
    """
    fmt = network.fmt
    engine = network.engine
    patterns = [int(p) for p in engine.quantize(np.asarray(sample, dtype=np.float64))]
    emac = scalar_emac_for(fmt)
    for layer in network.layers:
        outputs = []
        for o in range(layer.out_features):
            emac.reset(int(layer.bias[o]))
            for w, a in zip(layer.weights[o], patterns):
                emac.step(int(w), int(a))
            exact = emac.accumulator_value()
            outputs.append(_truncate_to_format(fmt, exact))
        if layer.activation == "relu":
            relu = engine.relu(np.asarray(outputs, dtype=np.uint32))
            outputs = [int(b) for b in relu]
        patterns = outputs
    return patterns


def truncated_accuracy(
    network: PositronNetwork, inputs: np.ndarray, labels: np.ndarray
) -> float:
    """Accuracy with truncating (round-toward-zero) output stages.

    The rtz twin is a full :class:`PositronNetwork`, so this is simply its
    ``predict`` (quantize, compiled rtz kernels, rank-table readout)
    against the labels.
    """
    twin = network.with_rounding_mode("rtz")
    return float(np.mean(twin.predict(inputs) == np.asarray(labels)))


# ----------------------------------------------------------------------
# The ablation grid (runner + store integration)
# ----------------------------------------------------------------------
def _ablation_configs(n: int):
    """The grid's configs at width ``n``: the posit sweep candidates.

    The rounding-mode ablations are posit studies in the paper (the quire
    and its RNE output stage are posit-standard mandates); the es knob
    comes from the same registry hook as the accuracy sweeps.
    """
    return [c for c in candidate_configs(n) if c.family == "posit"]


def ablation_task_key(dataset_name: str, n: int) -> str:
    """Content key of one (dataset, width) ablation task.

    Covers the model key (spec + hyperparameters), the candidate config
    labels, the rounding modes compared, and the product-table shape, so
    changing any ingredient of the comparison invalidates exactly the
    affected artifacts.
    """
    if dataset_name not in EXPERIMENTS:
        raise KeyError(f"unknown dataset '{dataset_name}'")
    labels = [config.label for config in _ablation_configs(n)]
    return content_key(
        {
            "kind": "ablation",
            "model": model_key(EXPERIMENTS[dataset_name]),
            "n": n,
            "configs": labels,
            "modes": ["rne", "rtz", "naive"],
            "product_table": [1 << n, 1 << n],
        }
    )


def _ablation_width_uncached(dataset_name: str, n: int) -> dict:
    tm = trained_model(dataset_name)
    weights, biases = tm.model.export_params()
    test_x = np.asarray(tm.dataset.test_x, dtype=np.float64)
    labels = np.asarray(tm.dataset.test_y)
    rows = []
    for config in _ablation_configs(n):
        network = PositronNetwork.from_float_params(config.fmt, weights, biases)
        rows.append(
            {
                "label": config.label,
                "format": config.name,
                "exact": float(np.mean(network.predict(test_x) == labels)),
                "naive": naive_accuracy(network, test_x, labels),
                "truncated": truncated_accuracy(network, test_x, labels),
            }
        )
    return {
        "dataset": dataset_name,
        "n": n,
        "float32_accuracy": tm.float32_accuracy,
        "rows": rows,
    }


def ablation_width(dataset_name: str, n: int) -> dict:
    """One (dataset, width) cell of the ablation grid (store-cached).

    For every posit candidate config at width ``n``: test accuracy of the
    exact round-once EMAC, the naive round-every-MAC recurrence, and the
    truncated (RTZ) EMAC — all through the vectorized paths.  Persisted
    individually in the content-addressed store; this is the resume
    granularity of ``python -m repro run ablation``.
    """
    if not store_enabled():
        return _ablation_width_uncached(dataset_name, n)
    store = artifact_store()
    key = ablation_task_key(dataset_name, n)
    cached = store.load_result(key)
    if cached is not None:
        return cached
    value = _ablation_width_uncached(dataset_name, n)
    store.save_result(key, value)
    return value


def ablation_table(
    datasets: tuple[str, ...] = ("wbc", "iris", "mushroom"),
    widths: tuple[int, ...] = ABLATION_WIDTHS,
) -> list[dict]:
    """The full ablation grid, serially (the runner parallelizes this)."""
    return [ablation_width(name, n) for name in datasets for n in widths]
