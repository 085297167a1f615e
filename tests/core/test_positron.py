"""Tests for the Deep Positron network architecture."""

import numpy as np
import pytest

from repro import formats
from repro.core import PositronNetwork, engine_for
from repro.core.positron import PositronLayer
from repro.fixedpoint import fixed_format
from repro.floatp import float_format
from repro.posit.format import standard_format

P8 = standard_format(8, 1)


def tiny_network(fmt, rng, topology=(4, 5, 3)):
    engine = engine_for(fmt)
    weights, biases = [], []
    for fan_in, fan_out in zip(topology, topology[1:]):
        weights.append(rng.normal(scale=0.8, size=(fan_out, fan_in)))
        biases.append(rng.normal(scale=0.2, size=fan_out))
    return PositronNetwork.from_float_params(fmt, weights, biases), engine


class TestConstruction:
    def test_from_float_params(self, rng):
        net, _ = tiny_network(P8, rng)
        assert net.topology == (4, 5, 3)
        assert net.layers[0].activation == "relu"
        assert net.layers[-1].activation == "identity"

    def test_layer_size_mismatch(self, rng):
        l1 = PositronLayer(P8, np.zeros((5, 4), np.uint32), np.zeros(5, np.uint32), "relu")
        l2 = PositronLayer(P8, np.zeros((3, 6), np.uint32), np.zeros(3, np.uint32), "identity")
        with pytest.raises(ValueError):
            PositronNetwork(P8, [l1, l2])

    def test_layer_of_another_format_rejected(self):
        """A float layer in a posit network would run a posit plan over
        float patterns; the constructor refuses it."""
        f43 = float_format(4, 3)
        layer = PositronLayer(
            f43, np.zeros((3, 4), np.uint32), np.zeros(3, np.uint32), "identity"
        )
        with pytest.raises(ValueError, match="format"):
            PositronNetwork(P8, [layer])
        net = PositronNetwork(f43, [layer])
        assert net.engine is engine_for(f43)
        assert layer.engine is engine_for(f43)

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("posit8_1", 0x80),  # NaR
            ("float4_3", 0b01111000),  # reserved (inf-like)
            ("fixed8_4", 300),  # outside 8-bit patterns
            ("posit8_1", 1 << 32 | 24),  # a uint32 cast would wrap it to 24
            ("fixed8_4", 1.7),  # a uint32 cast would truncate it to 1
        ],
    )
    @pytest.mark.parametrize("where", ["weights", "bias"])
    def test_invalid_patterns_rejected_at_construction(self, name, bad, where):
        """from_arrays rejects a bad parameter pattern before any compile."""
        fmt = formats.get(name).fmt
        weights = [np.zeros((3, 4), np.uint32), np.zeros((2, 3), np.uint32)]
        biases = [np.zeros(3, np.uint32), np.zeros(2, np.uint32)]
        arrays = weights if where == "weights" else biases
        arrays[1] = arrays[1].astype(np.asarray(bad).dtype)
        arrays[1][0] = bad
        with pytest.raises(ValueError, match=where):
            PositronNetwork.from_arrays(fmt, weights, biases)

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            PositronNetwork(P8, [])

    def test_bad_activation(self):
        with pytest.raises(ValueError):
            PositronLayer(
                P8, np.zeros((2, 2), np.uint32), np.zeros(2, np.uint32),
                "sigmoid",
            )

    def test_bias_shape_check(self):
        with pytest.raises(ValueError):
            PositronLayer(
                P8, np.zeros((2, 2), np.uint32), np.zeros(3, np.uint32),
                "relu",
            )

    def test_mismatched_array_counts(self):
        with pytest.raises(ValueError):
            PositronNetwork.from_arrays(P8, [np.zeros((2, 2), np.uint32)], [])


@pytest.mark.parametrize(
    "fmt",
    [standard_format(8, 1), float_format(4, 3), fixed_format(8, 4)],
    ids=["posit", "float", "fixed"],
)
class TestForwardConsistency:
    def test_vector_equals_scalar_path(self, fmt, rng):
        net, engine = tiny_network(fmt, rng)
        inputs = rng.normal(size=(3, 4))
        patterns = engine.quantize(inputs)
        vec_out = net.forward_patterns(patterns)
        for i in range(3):
            scalar_out = net.forward_scalar([int(p) for p in patterns[i]])
            assert [int(b) for b in vec_out[i]] == scalar_out

    def test_single_sample_promotion(self, fmt, rng):
        net, engine = tiny_network(fmt, rng)
        patterns = engine.quantize(rng.normal(size=4))
        out = net.forward_patterns(patterns)
        assert out.shape == (1, 3)


class TestInference:
    def test_predict_shape_and_range(self, rng):
        net, _ = tiny_network(P8, rng)
        preds = net.predict(rng.normal(size=(10, 4)))
        assert preds.shape == (10,)
        assert set(np.unique(preds)).issubset({0, 1, 2})

    def test_accuracy_metric(self, rng):
        net, _ = tiny_network(P8, rng)
        x = rng.normal(size=(10, 4))
        preds = net.predict(x)
        assert net.accuracy(x, preds) == 1.0
        assert 0.0 <= net.accuracy(x, np.zeros(10, dtype=int)) <= 1.0

    def test_relu_zeroes_hidden_negatives(self, rng):
        """Hidden activations out of layer 0 must be non-negative."""
        net, engine = tiny_network(P8, rng)
        patterns = engine.quantize(rng.normal(size=(5, 4)))
        hidden = net.layers[0].forward(patterns)
        values = engine.decode_values(hidden)
        assert np.all(values >= 0)

    def test_forward_values_decodes(self, rng):
        net, _ = tiny_network(P8, rng)
        out = net.forward_values(rng.normal(size=(2, 4)))
        assert out.shape == (2, 3)
        assert np.all(np.isfinite(out))

    def test_identical_float_params_same_predictions(self, rng):
        """Quantizing twice yields the same network bit-for-bit."""
        weights = [rng.normal(size=(5, 4)), rng.normal(size=(3, 5))]
        biases = [rng.normal(size=5), rng.normal(size=3)]
        a = PositronNetwork.from_float_params(P8, weights, biases)
        b = PositronNetwork.from_float_params(P8, weights, biases)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)


class TestFusedPlanLifecycle:
    """The cached fused network plan and its epoch-based invalidation."""

    def test_plan_cached_until_recompile(self, rng):
        net, _ = tiny_network(P8, rng)
        plan = net.network_kernel()
        assert net.network_kernel() is plan
        net.recompile()
        assert net.network_kernel() is not plan

    def test_recompile_after_weight_mutation(self, rng, scalar_forward):
        """Mutating weights after the plan compiled requires recompile();
        the fused forward must then track the new parameters exactly."""
        net, engine = tiny_network(P8, rng)
        X = engine.quantize(rng.normal(size=(6, 4)))
        before = net.forward_patterns(X).copy()  # warms the cached plan
        net.layers[0].weights[...] = engine.quantize(
            rng.normal(scale=0.8, size=net.layers[0].weights.shape)
        )
        net.recompile()
        after = net.forward_patterns(X)
        assert np.array_equal(after, scalar_forward(net, X))
        assert not np.array_equal(after, before)

    def test_each_mode_compiles_its_own_plan(self, rng, scalar_forward):
        """One cached plan per rounding mode, each pinned to the scalar
        oracle in its mode; ``recompile()`` invalidates both."""
        net, engine = tiny_network(
            standard_format(8, 0), rng, topology=(6, 8, 3)
        )
        X = engine.quantize(rng.normal(scale=2.0, size=(200, 6)))
        rne, rtz = net.network_kernel(), net.network_kernel("rtz")
        assert (rne.rounding_mode, rtz.rounding_mode) == ("rne", "rtz")
        assert net.network_kernel("rne") is rne
        assert net.network_kernel("rtz") is rtz
        rtz_out = rtz.forward(X)
        assert np.array_equal(rtz_out, scalar_forward(net, X, "rtz"))
        assert not np.array_equal(rtz_out, net.forward_patterns(X))
        net.recompile()
        assert net.network_kernel() is not rne
        assert net.network_kernel("rtz") is not rtz

    def test_unknown_rounding_mode_rejected(self, rng):
        net, engine = tiny_network(P8, rng)
        with pytest.raises(ValueError, match="rounding mode"):
            net.network_kernel("up")
        with pytest.raises(ValueError, match="rounding mode"):
            net.forward_scalar(engine.quantize(rng.normal(size=4)), "up")
        assert "up" not in net._plans

    @pytest.mark.parametrize("entry", ["forward_patterns", "predict_patterns"])
    @pytest.mark.parametrize(
        "bad", [1 << 32 | 24, 1.7], ids=["wrapping-int64", "float"]
    )
    def test_input_patterns_checked_before_any_cast(self, rng, entry, bad):
        """2**32 + 24 would wrap onto pattern 24 and 1.7 truncate to 1."""
        net, _ = tiny_network(P8, rng)
        X = np.zeros((2, 4), dtype=np.asarray(bad).dtype)
        X[1, 2] = bad
        with pytest.raises(ValueError, match="activations"):
            getattr(net, entry)(X)

    def test_predict_patterns_empty_batch(self, rng):
        net, _ = tiny_network(P8, rng)
        empty = np.zeros((0, 4), np.uint32)
        assert net.predict_patterns(empty).shape == (0,)
        assert net.forward_patterns(empty).shape == (0, 3)

    def test_predict_patterns_single_row_1d(self, rng):
        net, engine = tiny_network(P8, rng)
        x = engine.quantize(rng.normal(size=4))
        pred = net.predict_patterns(x)
        assert pred.shape == (1,)
        assert np.array_equal(pred, net.predict_patterns(x[None, :]))
        assert net.forward_patterns(x).shape == (1, 3)


class TestTimingAndMemory:
    def test_timing_matches_topology(self, rng):
        net, _ = tiny_network(P8, rng, topology=(4, 6, 3))
        timing = net.timing()
        depth = 4  # posit EMAC pipeline
        assert timing.per_layer_cycles == (4 + depth, 6 + depth)
        assert timing.latency_cycles == sum(timing.per_layer_cycles)
        assert timing.initiation_interval == max(timing.per_layer_cycles)

    def test_memory_accounting(self, rng):
        net, _ = tiny_network(P8, rng, topology=(4, 6, 3))
        expected_words = (4 * 6 + 6) + (6 * 3 + 3)
        assert net.total_memory_bits() == expected_words * 8

    def test_layer_memory(self, rng):
        net, _ = tiny_network(P8, rng)
        mem = net.layers[0].memory
        assert mem.weight_words == 20 and mem.bias_words == 5
        assert mem.word_bits == 8

    def test_repr(self, rng):
        net, _ = tiny_network(P8, rng)
        assert "4-5-3" in repr(net)
