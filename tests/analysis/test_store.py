"""Content-addressed artifact store: keys, round-trips, recovery, bypass."""

import json

import numpy as np
import pytest

from repro.analysis.store import ArtifactStore, artifact_store, content_key
from repro.analysis.sweep import (
    EXPERIMENTS,
    ExperimentSpec,
    model_key,
    sweep_task_key,
    sweep_width,
    trained_model,
)
from repro.nn.model import MLP
from repro.nn.train import TrainConfig


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An isolated cache dir with the in-process model cache cleared."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    trained_model.cache_clear()
    yield tmp_path
    trained_model.cache_clear()


class TestContentKey:
    def test_stable_and_order_insensitive(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})
        assert content_key({"a": 1}) != content_key({"a": 2})

    def test_dataclasses_hash_by_field_values(self):
        a = TrainConfig(seed=1)
        b = TrainConfig(seed=1)
        c = TrainConfig(seed=2)
        assert content_key(a) == content_key(b)
        assert content_key(a) != content_key(c)

    def test_tuples_and_lists_agree(self):
        assert content_key((1, 2, 3)) == content_key([1, 2, 3])


class TestModelKeys:
    def test_every_experiment_distinct(self):
        keys = {model_key(spec) for spec in EXPERIMENTS.values()}
        assert len(keys) == len(EXPERIMENTS)

    def test_hyperparameter_change_invalidates(self):
        spec = EXPERIMENTS["iris"]
        tweaked = ExperimentSpec(
            name=spec.name,
            topology=spec.topology,
            train=TrainConfig(
                **{
                    **{
                        f: getattr(spec.train, f)
                        for f in spec.train.__dataclass_fields__
                    },
                    "seed": spec.train.seed + 1,
                }
            ),
        )
        assert model_key(spec) != model_key(tweaked)

    def test_sweep_key_covers_width(self):
        assert sweep_task_key("iris", 5) != sweep_task_key("iris", 8)
        assert sweep_task_key("iris", 8) != sweep_task_key("wbc", 8)

    def test_sweep_key_unknown_dataset(self):
        with pytest.raises(KeyError):
            sweep_task_key("mnist", 8)


class TestModelRoundTrip:
    def test_export_import_bit_identity(self, rng):
        model = MLP((7, 5, 3), rng)
        clone = MLP.from_arrays(model.export_arrays())
        for ours, theirs in zip(model.dense_layers, clone.dense_layers):
            np.testing.assert_array_equal(ours.weight, theirs.weight)
            np.testing.assert_array_equal(ours.bias, theirs.bias)
        x = rng.normal(size=(11, 7))
        np.testing.assert_array_equal(model.forward(x), clone.forward(x))

    def test_npz_round_trip_bit_identity(self, rng, tmp_path):
        model = MLP((4, 6, 2), rng)
        path = tmp_path / "model.npz"
        model.save_npz(path)
        clone = MLP.load_npz(path)
        assert clone.topology == model.topology
        x = rng.normal(size=(5, 4))
        np.testing.assert_array_equal(model.forward(x), clone.forward(x))

    def test_from_arrays_missing_entries(self, rng):
        with pytest.raises(ValueError):
            MLP.from_arrays({})
        arrays = MLP((3, 2), rng).export_arrays()
        del arrays["bias_0"]
        with pytest.raises(ValueError):
            MLP.from_arrays(arrays)

    def test_store_round_trip(self, fresh_cache, rng):
        store = artifact_store()
        model = MLP((3, 4, 2), rng)
        store.save_model("k1", model.export_arrays(), {"note": "hi"})
        loaded = store.load_model("k1")
        assert loaded is not None
        arrays, meta = loaded
        assert meta == {"note": "hi"}
        clone = MLP.from_arrays(arrays)
        x = rng.normal(size=(6, 3))
        np.testing.assert_array_equal(model.forward(x), clone.forward(x))


class TestTrainedModelStore:
    def test_second_process_state_loads_instead_of_retraining(
        self, fresh_cache, monkeypatch
    ):
        first = trained_model("iris")
        trained_model.cache_clear()  # simulate a fresh process
        import repro.analysis.sweep as sweep_mod

        def boom(*args, **kwargs):  # retraining would be a resume bug
            raise AssertionError("train_classifier called despite cached model")

        monkeypatch.setattr(sweep_mod, "train_classifier", boom)
        second = trained_model("iris")
        assert second.float32_accuracy == first.float32_accuracy
        w1, b1 = first.model.export_params()
        w2, b2 = second.model.export_params()
        for a, b in zip(w1 + b1, w2 + b2):
            np.testing.assert_array_equal(a, b)

    def test_corrupt_model_artifact_recovers(self, fresh_cache):
        first = trained_model("iris")
        store = artifact_store()
        path = store.model_path(model_key(EXPERIMENTS["iris"]))
        assert path.exists()
        path.write_bytes(b"this is not an npz archive")
        trained_model.cache_clear()
        again = trained_model("iris")  # retrains and heals the store
        assert again.float32_accuracy == first.float32_accuracy
        assert store.load_model(model_key(EXPERIMENTS["iris"])) is not None

    def test_stale_artifact_not_picked_up(self, fresh_cache, monkeypatch):
        trained_model("iris")
        store = artifact_store()
        old_key = model_key(EXPERIMENTS["iris"])
        assert store.has_model(old_key)
        spec = EXPERIMENTS["iris"]
        changed = ExperimentSpec(
            name=spec.name,
            topology=spec.topology,
            train=TrainConfig(
                **{
                    **{
                        f: getattr(spec.train, f)
                        for f in spec.train.__dataclass_fields__
                    },
                    "epochs": spec.train.epochs + 1,
                }
            ),
        )
        monkeypatch.setitem(EXPERIMENTS, "iris", changed)
        trained_model.cache_clear()
        trained_model("iris")
        # Both artifacts exist under their own keys; neither shadowed the other.
        assert store.has_model(old_key)
        assert store.has_model(model_key(changed))
        assert model_key(changed) != old_key


class TestSweepResultStore:
    def test_result_persisted_and_reused(self, fresh_cache, monkeypatch):
        import repro.analysis.sweep as sweep_mod

        calls = []
        real = sweep_mod._sweep_width_uncached

        def counting(name, n):
            calls.append((name, n))
            return real(name, n)

        monkeypatch.setattr(sweep_mod, "_sweep_width_uncached", counting)
        first = sweep_width("iris", 5)
        second = sweep_width("iris", 5)
        assert first == second
        assert calls == [("iris", 5)]
        store = artifact_store()
        assert store.has_result(sweep_task_key("iris", 5))

    def test_corrupt_result_recomputed(self, fresh_cache):
        first = sweep_width("iris", 5)
        store = artifact_store()
        path = store.result_path(sweep_task_key("iris", 5))
        path.write_text("{torn write")
        assert sweep_width("iris", 5) == first

    def test_no_cache_bypasses_store(self, fresh_cache, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        trained_model.cache_clear()
        import repro.analysis.sweep as sweep_mod

        calls = []
        real = sweep_mod._sweep_width_uncached

        def counting(name, n):
            calls.append((name, n))
            return real(name, n)

        monkeypatch.setattr(sweep_mod, "_sweep_width_uncached", counting)
        sweep_width("iris", 5)
        sweep_width("iris", 5)
        assert calls == [("iris", 5), ("iris", 5)]
        assert not (fresh_cache / "store").exists()

    def test_no_cache_never_creates_cache_dir(self, tmp_path, monkeypatch):
        """With REPRO_NO_CACHE set, the cache directory itself must not be
        created (a read-only checkout would otherwise crash on mkdir)."""
        root = tmp_path / "never-created"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        trained_model.cache_clear()
        sweep_width("iris", 5)
        assert not root.exists()

    def test_cache_dir_override_respected(self, fresh_cache):
        sweep_width("iris", 5)
        store_root = fresh_cache / "store"
        assert (store_root / "models").is_dir()
        assert (store_root / "results").is_dir()
        assert list((store_root / "results").glob("*.json"))


class TestStoreRecovery:
    def test_load_model_missing(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.load_model("nope") is None

    def test_load_result_missing_and_corrupt(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.load_result("nope") is None
        store.save_result("k", {"v": 1})
        store.result_path("k").write_text("not json at all {{{")
        assert store.load_result("k") is None
        assert not store.result_path("k").exists()  # corrupt file removed

    def test_save_result_round_trips_json(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        value = {"acc": 0.98, "all": [{"label": "posit<8,1>"}]}
        store.save_result("k", value)
        assert store.load_result("k") == value
        record = json.load(store.result_path("k").open())
        assert record["value"] == value  # plain JSON beside its digest
        assert len(record["sha256"]) == 64
