"""Ablation — round-to-nearest-even vs truncation at the EMAC output.

The paper adopts RNE "to further improve accuracy" (Section III-A).  This
bench isolates that choice across all three paper datasets: exact
accumulation in both arms, only the final quire -> output conversion
differs — the truncated arm is the same compiled digit-plane GEMM stack
recompiled with ``rounding_mode="rtz"``.

The ``ablation-truncated-emac`` group times the vectorized truncated pass
against the retained scalar ``Fraction`` reference on the *full* WBC test
set (bit-identical outputs asserted in-run); ``guard.py``'s ``ablation``
gate reads both entries from ``BENCH_ablation.json`` and requires the
mean speedup to stay >= 619x (half the 1238x measured when it was set).
"""

import numpy as np
import pytest

from repro.analysis import truncated_accuracy
from repro.analysis.ablation import truncated_forward, truncated_forward_reference
from repro.core import PositronNetwork
from repro.posit.format import standard_format

WIDTHS = [(5, 0), (6, 0), (7, 0)]
DATASETS = ("iris", "wbc", "mushroom")

#: Format of the timed truncated-EMAC speedup pair (a Table II headliner).
SPEEDUP_FORMAT = (8, 0)


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.benchmark(group="ablation-rounding")
def test_rne_vs_truncation(benchmark, write_result, request, dataset):
    model = request.getfixturevalue(f"{dataset}_model")
    ds = model.dataset
    weights, biases = model.model.export_params()

    def run():
        rows = []
        for n, es in WIDTHS:
            net = PositronNetwork.from_float_params(
                standard_format(n, es), weights, biases
            )
            rne = net.accuracy(ds.test_x, ds.test_y)
            trunc = truncated_accuracy(net, ds.test_x, ds.test_y)
            rows.append((n, es, rne, trunc))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"Ablation: RNE vs truncation at the EMAC output ({dataset}, posit)",
        f"{'format':<12} {'RNE':>8} {'trunc':>8} {'delta pp':>9}",
    ]
    for n, es, rne, trunc in rows:
        lines.append(
            f"posit<{n},{es}>   {100 * rne:>7.2f}% {100 * trunc:>7.2f}% "
            f"{100 * (rne - trunc):>8.2f}"
        )
    write_result(f"ablation_rounding_{dataset}.txt", "\n".join(lines))
    for _, __, rne, trunc in rows:
        assert trunc <= rne + 0.041  # truncation never meaningfully better


@pytest.fixture(scope="module")
def wbc_truncation_case(wbc_model):
    """(network, test set) of the timed WBC truncated-EMAC ablation."""
    weights, biases = wbc_model.model.export_params()
    net = PositronNetwork.from_float_params(
        standard_format(*SPEEDUP_FORMAT), weights, biases
    )
    return net, np.asarray(wbc_model.dataset.test_x, dtype=np.float64)


@pytest.mark.benchmark(group="ablation-truncated-emac")
def test_truncated_vectorized_wbc(benchmark, wbc_truncation_case):
    """Compiled-kernel (rtz) truncated pass over the full WBC test set."""
    net, test_x = wbc_truncation_case
    out = benchmark(lambda: truncated_forward(net, test_x))
    assert out.shape == (len(test_x), 2)


@pytest.mark.benchmark(group="ablation-truncated-emac")
def test_truncated_reference_wbc(benchmark, wbc_truncation_case):
    """Scalar Fraction-EMAC reference on the same set — the speedup
    baseline — with bit-identity to the vectorized pass asserted."""
    net, test_x = wbc_truncation_case

    def run():
        return [truncated_forward_reference(net, x) for x in test_x]

    ref = benchmark.pedantic(run, rounds=1, iterations=1)
    vec = truncated_forward(net, test_x)
    assert [list(map(int, row)) for row in vec] == ref
