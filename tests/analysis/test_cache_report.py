"""Tests for the experiment cache and text renderers."""

import json
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    ascii_bar,
    render_figure9,
    render_histogram,
    render_series,
    render_table2,
)
from repro.analysis.histograms import Histogram


class TestCache:
    def test_clear(self, tmp_path, monkeypatch):
        from repro.analysis import artifact_store, clear_cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = artifact_store()
        store.save_result("k", {"x": 1})
        assert store.load_result("k") == {"x": 1}
        clear_cache()
        assert store.load_result("k") is None
        assert not (tmp_path / "store").exists()


def _hammer_atomic_writes(path_str: str, writer: int, iterations: int) -> None:
    """Worker: repeatedly publish one JSON artifact at a shared path."""
    from repro.analysis.cache import atomic_write_json

    payload = {"writer": writer, "blob": list(range(256))}
    for _ in range(iterations):
        atomic_write_json(Path(path_str), payload)


class TestConcurrentWriters:
    """Regression for the fixed-name ``.tmp`` race: concurrent writers used
    to share one temp file, so one writer's ``replace`` could yank the file
    out from under another mid-write (FileNotFoundError / torn JSON)."""

    def test_two_concurrent_writers_same_artifact(self, tmp_path):
        path = tmp_path / "artifact.json"
        procs = [
            multiprocessing.Process(
                target=_hammer_atomic_writes, args=(str(path), i, 200)
            )
            for i in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        assert all(p.exitcode == 0 for p in procs)
        value = json.loads(path.read_text())  # never torn: one full payload
        assert value["writer"] in (0, 1)
        assert value["blob"] == list(range(256))
        assert not list(tmp_path.glob("*.tmp"))  # no temp litter either

    def test_unique_tmp_paths_never_collide(self, tmp_path):
        from repro.analysis.cache import unique_tmp

        path = tmp_path / "x.json"
        names = {unique_tmp(path) for _ in range(64)}
        assert len(names) == 64
        assert all(t.parent == path.parent for t in names)


class TestRenderers:
    def test_ascii_bar(self):
        assert ascii_bar(5, 10, width=10) == "#####"
        assert ascii_bar(20, 10, width=10) == "#" * 10
        with pytest.raises(ValueError):
            ascii_bar(1, 0)

    def test_render_table2(self):
        rows = [
            {
                "dataset": "iris",
                "inference_size": 50,
                "posit": 0.98,
                "posit_config": "posit<8,1>",
                "float": 0.96,
                "float_config": "float<1,4,3>",
                "fixed": 0.92,
                "fixed_config": "fixed<8,4>",
                "float32": 0.98,
            }
        ]
        text = render_table2(rows)
        assert "iris" in text and "98.00%" in text and "92.00%" in text
        assert "posit<8,1>" in text

    def test_render_series(self):
        text = render_series(
            "Fig test",
            {"posit": [(5, 1e-10)], "fixed": [(5, 2e-11)]},
            x_label="n",
            y_label="EDP",
        )
        assert "posit" in text and "1.000e-10" in text

    def test_render_figure9(self):
        series = {
            "posit": [{"n": 8, "avg_degradation_pct": 0.3, "avg_edp": 1e-10}]
        }
        text = render_figure9(series)
        assert "posit" in text and "0.300" in text

    def test_render_histogram(self):
        hist = Histogram(np.array([0.0, 1.0, 2.0]), np.array([2.0, 4.0]))
        text = render_histogram("H", hist, width=8)
        assert "H" in text and "########" in text

    def test_render_empty_histogram_raises(self):
        hist = Histogram(np.array([0.0, 1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            render_histogram("H", hist)
