"""Content-addressed artifact store for models and per-task sweep results.

This replaces name-keyed JSON caching for the experiment pipeline: every
artifact is stored under a key derived from the *content of its inputs* —
the full :class:`~repro.analysis.sweep.ExperimentSpec` (topology plus every
training hyperparameter) for trained parent models, and additionally the
sweep width and candidate-config list for sweep results.  Change a seed, a
learning rate, or the candidate set and the key changes with it, so stale
artifacts are never picked up; they are simply unreferenced files.

Layout (under :func:`repro.analysis.cache.cache_dir`)::

    .repro_cache/store/models/<key>.npz    trained parent model parameters
    .repro_cache/store/results/<key>.json  one sweep task's result

Both tiers are written atomically via per-writer unique temp files, so
parallel sweep workers can race on the same artifact safely (worst case: a
duplicated identical write).  Every artifact records a sha256 digest of its
content (models also their member names), and a load keeps one rule: the
digest matches or the artifact is gone — a file that fails to parse or to
verify is deleted and recomputed.  Zip CRCs alone are not enough: they
cover member data but not member names, so a flipped byte in an ``.npz``
central directory can rename a member.
``REPRO_NO_CACHE=1`` bypasses the store entirely; ``REPRO_CACHE_DIR``
relocates it.

The store feeds both the experiment runner (``docs/running-experiments.md``
documents keys, layout, and resume semantics) and the serving layer's model
registry (``docs/serving.md``), which loads trained parents by the same
spec hash instead of retraining per server start.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .. import faults
from .cache import (
    POINT_PUBLISH,
    atomic_write_json,
    cache_dir,
    cache_enabled,
    fsync_dir,
    unique_tmp,
)

__all__ = ["content_key", "ArtifactStore", "artifact_store", "store_enabled"]

#: Bump when the serialized artifact layout changes incompatibly; it is
#: hashed into every key, so old artifacts are orphaned, not misread.
#: Version 2 added the content digests.
SCHEMA_VERSION = 2


def _canonical(obj: Any) -> Any:
    """A JSON-stable view of ``obj`` for hashing (dataclasses included)."""
    if is_dataclass(obj) and not isinstance(obj, type):
        fields = {k: _canonical(v) for k, v in asdict(obj).items()}
        return {"__type__": type(obj).__name__, **fields}
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def _arrays_digest(arrays: dict[str, np.ndarray]) -> str:
    """sha256 over every array's name, dtype, shape and bytes, name-ordered."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(json.dumps([name, array.dtype.str, array.shape]).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _json_digest(value: Any) -> str:
    """sha256 over the canonical JSON text of a JSON value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def content_key(payload: Any) -> str:
    """Hex digest keying an artifact by the content of its inputs."""
    blob = json.dumps(
        {"schema": SCHEMA_VERSION, "payload": _canonical(payload)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


class ArtifactStore:
    """Two-tier content-addressed store: ``.npz`` arrays and JSON results."""

    def __init__(self, root: Path | None = None):
        self.root = Path(root) if root is not None else cache_dir() / "store"

    # -- array artifacts (trained models) ------------------------------
    @property
    def models_dir(self) -> Path:
        return self.root / "models"

    def model_path(self, key: str) -> Path:
        return self.models_dir / f"{key}.npz"

    def has_model(self, key: str) -> bool:
        return self.model_path(key).exists()

    def save_model(self, key: str, arrays: dict[str, np.ndarray],
                   meta: dict[str, Any]) -> Path:
        """Atomically store a model's arrays plus a JSON metadata sidecar.

        The sidecar also records the member names and the arrays' digest,
        which :meth:`load_model` verifies.
        """
        self.models_dir.mkdir(parents=True, exist_ok=True)
        path = self.model_path(key)
        record = {
            "meta": meta,
            "members": sorted(arrays),
            "sha256": _arrays_digest(arrays),
        }
        tmp = unique_tmp(path)
        try:
            with tmp.open("wb") as handle:
                np.savez(
                    handle,
                    __meta__=np.frombuffer(
                        json.dumps(record).encode("utf-8"), dtype=np.uint8
                    ),
                    **arrays,
                )
                handle.flush()
                os.fsync(handle.fileno())
            faults.fire(POINT_PUBLISH, path=str(tmp), artifact=str(path))
            tmp.replace(path)
            fsync_dir(path.parent)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    def load_model(self, key: str) -> tuple[dict[str, np.ndarray], dict] | None:
        """(arrays, meta) for ``key``, or ``None`` (missing/corrupt).

        An artifact that fails to parse, or whose member names or digest
        do not match its record, is deleted so the caller recomputes and
        heals the store.
        """
        path = self.model_path(key)
        if not path.exists():
            return None
        try:
            with np.load(path) as data:
                arrays = {k: data[k] for k in data.files if k != "__meta__"}
                record = json.loads(bytes(data["__meta__"]).decode("utf-8"))
            intact = (
                record["members"] == sorted(arrays)
                and record["sha256"] == _arrays_digest(arrays)
            )
        except (OSError, ValueError, KeyError, EOFError,
                NotImplementedError, zipfile.BadZipFile,
                json.JSONDecodeError):
            # EOFError: np.load on a file truncated inside the npy magic.
            # NotImplementedError: zipfile on a corrupted version-needed
            # field it reads as "unsupported zip feature".
            intact = False
        if not intact:
            path.unlink(missing_ok=True)
            return None
        return arrays, record["meta"]

    # -- JSON artifacts (per-task sweep results) -----------------------
    @property
    def results_dir(self) -> Path:
        return self.root / "results"

    def result_path(self, key: str) -> Path:
        return self.results_dir / f"{key}.json"

    def has_result(self, key: str) -> bool:
        return self.result_path(key).exists()

    def save_result(self, key: str, value: Any) -> Path:
        """Atomically store a JSON value with its digest."""
        self.results_dir.mkdir(parents=True, exist_ok=True)
        path = self.result_path(key)
        value = json.loads(json.dumps(value))  # the value a load returns
        atomic_write_json(path, {"sha256": _json_digest(value), "value": value})
        return path

    def load_result(self, key: str) -> Any | None:
        """The stored JSON value, or ``None`` (missing or corrupt).

        A result that fails to parse or to match its digest is deleted.
        """
        path = self.result_path(key)
        if not path.exists():
            return None
        try:
            with path.open() as handle:
                record = json.load(handle)
            intact = record["sha256"] == _json_digest(record["value"])
        except (ValueError, OSError, KeyError, TypeError):
            # ValueError covers JSONDecodeError and the UnicodeDecodeError
            # corrupted bytes raise before JSON parsing begins; KeyError
            # and TypeError a file that parses but is not a result record.
            intact = False
        if not intact:
            path.unlink(missing_ok=True)
            return None
        return record["value"]


def artifact_store() -> ArtifactStore:
    """The store under the current cache directory (env-sensitive).

    Constructed per call so ``REPRO_CACHE_DIR`` changes (tests, parallel
    workers inheriting the parent environment) take effect immediately.
    """
    return ArtifactStore()


def store_enabled() -> bool:
    """Whether artifacts should be persisted (``REPRO_NO_CACHE`` unset)."""
    return cache_enabled()
