"""Integration tests of the Table II / Fig. 9 experiment pipeline.

These train the (small) iris parent model in-process; the heavier datasets
are exercised by the benchmarks.  Sweep results are read through the disk
cache when available.
"""

import numpy as np
import pytest

from repro.analysis import EXPERIMENTS, evaluate_config, sweep_width, trained_model
from repro.nn import FormatConfig
from repro.posit.format import standard_format


@pytest.fixture(scope="module")
def iris_model():
    return trained_model("iris")


class TestTrainedModel:
    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            trained_model("mnist")

    def test_iris_baseline_quality(self, iris_model):
        """The float32 parent must be competitive (paper: 98%)."""
        assert iris_model.float32_accuracy >= 0.94

    def test_cached_in_process(self, iris_model):
        assert trained_model("iris") is iris_model

    def test_topologies_match_datasets(self):
        for name, spec in EXPERIMENTS.items():
            assert spec.name == name
            assert len(spec.topology) == 4  # two hidden layers, as in Fig. 1


class TestEvaluateConfig:
    def test_posit8_close_to_baseline(self, iris_model):
        config = FormatConfig("posit", standard_format(8, 1))
        acc = evaluate_config(iris_model, config)
        assert acc >= iris_model.float32_accuracy - 0.06

    def test_narrow_posit_degrades(self, iris_model):
        acc5 = evaluate_config(iris_model, FormatConfig("posit", standard_format(5, 0)))
        acc8 = evaluate_config(iris_model, FormatConfig("posit", standard_format(8, 1)))
        assert acc5 <= acc8 + 1e-9

    def test_deterministic(self, iris_model):
        config = FormatConfig("posit", standard_format(8, 0))
        assert evaluate_config(iris_model, config) == evaluate_config(
            iris_model, config
        )


class TestSweepStructure:
    def test_sweep_width_iris(self, iris_model):
        sweep = sweep_width("iris", 8)
        assert sweep["dataset"] == "iris" and sweep["n"] == 8
        assert sweep["inference_size"] == 50
        families = {r["family"] for r in sweep["all"]}
        assert families == {"posit", "float", "fixed"}
        for family in families:
            best = sweep["best"][family]
            assert best is not None
            fam_accs = [r["accuracy"] for r in sweep["all"] if r["family"] == family]
            assert best["accuracy"] == max(fam_accs)

    def test_all_accuracies_in_range(self, iris_model):
        sweep = sweep_width("iris", 8)
        for record in sweep["all"]:
            assert 0.0 <= record["accuracy"] <= 1.0


class TestAblations:
    def test_naive_mac_never_beats_emac_much(self, iris_model):
        """Rounding every MAC must not outperform exact accumulation."""
        from repro.analysis import naive_accuracy
        from repro.core import PositronNetwork

        fmt = standard_format(8, 1)
        weights, biases = iris_model.model.export_params()
        net = PositronNetwork.from_float_params(fmt, weights, biases)
        ds = iris_model.dataset
        exact = net.accuracy(ds.test_x, ds.test_y)
        naive = naive_accuracy(net, ds.test_x, ds.test_y)
        assert naive <= exact + 0.04  # naive may tie but not dominate

    def test_truncated_rounding_not_better(self, iris_model):
        from repro.analysis import truncated_accuracy
        from repro.core import PositronNetwork

        fmt = standard_format(6, 0)  # narrow, where rounding mode matters
        weights, biases = iris_model.model.export_params()
        net = PositronNetwork.from_float_params(fmt, weights, biases)
        ds = iris_model.dataset
        exact = net.accuracy(ds.test_x, ds.test_y)
        truncated = truncated_accuracy(net, ds.test_x, ds.test_y)
        assert truncated <= exact + 0.04

    def test_truncated_forward_is_valid_patterns(self, iris_model):
        from repro.core import PositronNetwork

        fmt = standard_format(8, 1)
        weights, biases = iris_model.model.export_params()
        net = PositronNetwork.from_float_params(fmt, weights, biases)
        row = net.engine.quantize(iris_model.dataset.test_x[0])
        out = net.forward_scalar(row, rounding_mode="rtz")
        assert len(out) == 3
        assert all(0 <= b < 256 for b in out)
        assert fmt.nar_pattern not in out
