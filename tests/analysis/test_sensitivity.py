"""Tests for the sensitivity studies and the CLI driver."""

import pytest

from repro.analysis import (
    layer_sensitivity,
    mixed_precision_network,
    trained_model,
    width_sensitivity,
)
from repro.posit.format import standard_format


@pytest.fixture(scope="module")
def iris_model():
    return trained_model("iris")


class TestWidthSensitivity:
    def test_structure(self, iris_model):
        rows = width_sensitivity("iris", "posit", widths=(6, 8))
        assert [r["n"] for r in rows] == [6, 8]
        for row in rows:
            assert 0 <= row["accuracy"] <= 1
            assert row["label"].startswith("posit")

    def test_robust_at_7_and_8_bits(self, iris_model):
        """The paper's conclusion: robustness at 7- and 8-bit widths."""
        rows = width_sensitivity("iris", "posit", widths=(7, 8))
        for row in rows:
            assert row["baseline"] - row["accuracy"] <= 0.05

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            width_sensitivity("iris", "bfloat")


class TestMixedPrecision:
    def test_all_wide_matches_baseline_closely(self, iris_model):
        wide = standard_format(16, 1)
        acc = mixed_precision_network(iris_model, [wide] * 3)
        assert acc >= iris_model.float32_accuracy - 0.03

    def test_format_count_validated(self, iris_model):
        with pytest.raises(ValueError):
            mixed_precision_network(iris_model, [standard_format(8, 1)])

    def test_uniform_8bit_close_to_positron_path(self, iris_model):
        """Mixed-precision helper at uniform 8 bits ~ the Positron engine.

        Not bit-identical (activations cross layer boundaries through
        float64 re-encoding rather than staying patterns), but accuracy
        must agree closely.
        """
        from repro.analysis import evaluate_config
        from repro.nn import FormatConfig

        fmt = standard_format(8, 1)
        mixed = mixed_precision_network(iris_model, [fmt] * 3)
        uniform = evaluate_config(iris_model, FormatConfig("posit", fmt))
        assert abs(mixed - uniform) <= 0.06


class TestLayerSensitivity:
    def test_structure_and_reference(self, iris_model):
        rows = layer_sensitivity(iris_model)
        assert [r["layer"] for r in rows] == [0, 1, 2]
        for row in rows:
            assert row["probe"] == "posit<6,0>"
            assert row["reference_accuracy"] >= iris_model.float32_accuracy - 0.03
            # Quantizing a single layer to 6 bits cannot be catastrophic.
            assert row["drop_pct"] < 40

    def test_custom_probe(self, iris_model):
        rows = layer_sensitivity(iris_model, probe_format=standard_format(8, 1))
        for row in rows:
            assert row["drop_pct"] <= 6  # 8-bit probe is nearly free


class TestCli:
    def test_table1(self, capsys):
        from repro.__main__ import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Regime" in out and "-3" in out

    def test_fig7(self, capsys):
        from repro.__main__ import main

        assert main(["fig7"]) == 0
        assert "EDP" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        from repro.__main__ import main

        assert main(["nonsense"]) == 2

    @pytest.mark.parametrize("args, message", [
        (["synth", "wbc", "nosuch"], "unknown format name 'nosuch'"),
        (["run", "sweep", "--widths", "x"], "invalid literal for int()"),
        (["formats", "--explain", "iris"], "--explain wants DATASET:FORMAT"),
        (["sweep", "iris", "nosuch"], "unknown format name 'nosuch'"),
    ], ids=["synth", "run", "formats-explain", "sweep"])
    def test_bad_argument_is_one_error_line(self, capsys, args, message):
        from repro.__main__ import main

        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_help(self, capsys):
        from repro.__main__ import main

        assert main([]) == 0
        assert "table2" in capsys.readouterr().out
