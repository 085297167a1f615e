"""Vectorized ablation layer: bit-identity to the scalar oracles,
the naive product table, the store-cached grid, and (slow) the paper's
directional exact-vs-naive claim over the full 3-dataset table."""

import numpy as np
import pytest

from repro import formats
from repro.analysis import trained_model
from repro.analysis.ablation import (
    ABLATION_WIDTHS,
    _ablation_configs,
    ablation_table,
    ablation_task_key,
    ablation_width,
    naive_accuracy,
    naive_forward,
    naive_forward_reference,
    naive_product_table,
    truncated_accuracy,
    truncated_forward,
)
from repro.analysis.runner import run_ablation
from repro.core import PositronNetwork
from repro.fixedpoint import fixed_format
from repro.floatp import float_format
from repro.nn.quantize import quantize_nearest
from repro.posit.format import standard_format


@pytest.fixture(scope="module")
def iris_model():
    return trained_model("iris")


@pytest.fixture(scope="module")
def iris_networks(iris_model):
    weights, biases = iris_model.model.export_params()
    return {
        fmt: PositronNetwork.from_float_params(fmt, weights, biases)
        for fmt in (
            standard_format(5, 0),
            standard_format(6, 1),
            standard_format(8, 0),
            standard_format(8, 2),
        )
    }


class TestNaiveForward:
    def test_bit_identical_to_reference(self, iris_model, iris_networks):
        ds = iris_model.dataset
        for fmt, net in iris_networks.items():
            vec = naive_forward(net, ds.test_x)
            ref = naive_forward_reference(net, ds.test_x)
            assert np.array_equal(vec, ref), str(fmt)

    def test_nonposit_families_bit_identical(self, iris_model):
        """naive_forward is format-generic: float and fixed match too."""
        weights, biases = iris_model.model.export_params()
        ds = iris_model.dataset
        for fmt in (float_format(4, 3), float_format(2, 3), fixed_format(8, 4)):
            net = PositronNetwork.from_float_params(fmt, weights, biases)
            vec = naive_forward(net, ds.test_x)
            ref = naive_forward_reference(net, ds.test_x)
            assert np.array_equal(vec, ref), str(fmt)

    def test_single_sample_and_empty_batch(self, iris_model, iris_networks):
        net = next(iter(iris_networks.values()))
        one = naive_forward(net, iris_model.dataset.test_x[0])
        assert one.shape == (1, 3)
        empty = naive_forward(net, np.zeros((0, 4)))
        assert empty.shape == (0, 3)

    def test_accuracy_matches_decoded_argmax(self, iris_model, iris_networks):
        """Rank-table readout == decoded-argmax readout for the naive pass."""
        ds = iris_model.dataset
        net = iris_networks[standard_format(6, 1)]
        out = naive_forward(net, ds.test_x)
        values = net.engine.decode_values(out)
        decoded = float(np.mean(np.argmax(values, axis=1) == ds.test_y))
        assert naive_accuracy(net, ds.test_x, ds.test_y) == decoded


class TestNaiveProductTable:
    @pytest.mark.parametrize(
        "name", ["posit8_1", "posit6_0", "float4_3", "float2_2", "fixed8_4"]
    )
    def test_matches_quantize_nearest(self, name, rng):
        backend = formats.get(name)
        values, products = naive_product_table(backend)
        valid = np.flatnonzero(np.isfinite(backend.decode_batch(
            np.arange(1 << backend.width, dtype=np.uint32))))
        w = rng.choice(valid, size=200)
        a = rng.choice(valid, size=200)
        expect = quantize_nearest(
            backend.fmt, backend.decode_batch(w) * backend.decode_batch(a)
        )
        assert np.array_equal(products[w, a], expect)

    def test_memoized_per_backend(self):
        backend = formats.get("posit6_0")
        assert naive_product_table(backend)[1] is naive_product_table(backend)[1]

    def test_width_guard(self):
        with pytest.raises(ValueError, match="product table"):
            naive_product_table(formats.backend_for(standard_format(16, 1)))


def truncated_oracle(net, inputs):
    """Each row through the scalar EMACs, rounded toward zero."""
    patterns = net.engine.quantize(np.asarray(inputs, dtype=np.float64))
    return [net.forward_scalar(row, rounding_mode="rtz") for row in patterns]


class TestTruncatedForward:
    def test_bit_identical_to_reference(self, iris_model, iris_networks):
        ds = iris_model.dataset
        subset = ds.test_x[:12]  # the full-set identity check lives in the bench
        for fmt, net in iris_networks.items():
            vec = truncated_forward(net, subset)
            ref = truncated_oracle(net, subset)
            assert vec.tolist() == ref, str(fmt)

    def test_nonposit_families(self, iris_model):
        """The mode pipeline is format-generic: float and fixed ablate too."""
        weights, biases = iris_model.model.export_params()
        ds = iris_model.dataset
        for fmt in (float_format(4, 3), fixed_format(8, 4)):
            net = PositronNetwork.from_float_params(fmt, weights, biases)
            vec = truncated_forward(net, ds.test_x[:8])
            ref = truncated_oracle(net, ds.test_x[:8])
            assert vec.tolist() == ref, str(fmt)

    def test_single_sample(self, iris_model, iris_networks):
        net = next(iter(iris_networks.values()))
        x = iris_model.dataset.test_x[0]
        assert truncated_forward(net, x).tolist() == truncated_oracle(net, [x])

    def test_accuracy_in_range(self, iris_model, iris_networks):
        ds = iris_model.dataset
        net = iris_networks[standard_format(6, 1)]
        acc = truncated_accuracy(net, ds.test_x, ds.test_y)
        assert 0.0 <= acc <= 1.0
        predicted = np.argmax(
            formats.backend_for(net.fmt).rank_table()[
                truncated_forward(net, ds.test_x).astype(np.int64)
            ],
            axis=1,
        )
        assert acc == float(np.mean(predicted == ds.test_y))
        # One 1-D sample is one row, as in ``truncated_forward``.
        one = truncated_accuracy(net, ds.test_x[0], ds.test_y[:1])
        assert one == float(predicted[0] == ds.test_y[0])


class TestAblationGrid:
    def test_structure(self, iris_model):
        cell = ablation_width("iris", 6)
        assert cell["dataset"] == "iris" and cell["n"] == 6
        labels = [c.label for c in _ablation_configs(6)]
        assert [r["label"] for r in cell["rows"]] == labels
        for row in cell["rows"]:
            for key in ("exact", "naive", "truncated"):
                assert 0.0 <= row[key] <= 1.0

    def test_task_key_covers_grid_ingredients(self):
        assert ablation_task_key("iris", 6) != ablation_task_key("iris", 7)
        assert ablation_task_key("iris", 6) != ablation_task_key("wbc", 6)
        with pytest.raises(KeyError):
            ablation_task_key("nonesuch", 6)

    def test_store_caches_cells(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        trained_model.cache_clear()
        try:
            from repro.analysis import ablation as mod

            calls = []
            real = mod._ablation_width_uncached

            def counting(name, n):
                calls.append((name, n))
                return real(name, n)

            monkeypatch.setattr(mod, "_ablation_width_uncached", counting)
            first = ablation_width("iris", 5)
            again = ablation_width("iris", 5)
            assert calls == [("iris", 5)]
            assert first == again
        finally:
            trained_model.cache_clear()

    def test_runner_serial_matches_direct(self, iris_model):
        results = run_ablation(datasets=("iris",), widths=(6,), jobs=1)
        (task, value), = results.items()
        assert task.dataset == "iris" and task.width == 6
        assert value == ablation_width("iris", 6)


@pytest.mark.slow
def test_full_ablation_directional_claim():
    """Section III-A, machine-checked over the full 3-dataset grid: at every
    (dataset, width), the best exact round-once accuracy is at least the
    best round-every-MAC accuracy (the paper's best-config selection, as in
    Table II), and truncation never meaningfully beats RNE."""
    results = ablation_table()
    assert len(results) == 3 * len(ABLATION_WIDTHS)
    for cell in results:
        best_exact = max(r["exact"] for r in cell["rows"])
        best_naive = max(r["naive"] for r in cell["rows"])
        best_trunc = max(r["truncated"] for r in cell["rows"])
        where = f"{cell['dataset']} n={cell['n']}"
        assert best_exact - best_naive >= 0.0, where
        assert best_trunc <= best_exact + 0.01, where
