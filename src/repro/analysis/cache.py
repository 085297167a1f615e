"""Where expensive experiment artifacts live on disk, and how they land.

Training the parent models and running exact-inference sweeps takes tens of
seconds; tests, benchmarks, and examples all share the results through the
content-addressed store (:mod:`repro.analysis.store`) under
``.repro_cache/`` in the working directory (delete the directory, or set
``REPRO_NO_CACHE=1``, to force recomputation; point ``REPRO_CACHE_DIR``
somewhere else to relocate it).  This module owns that directory and the
atomic write every artifact goes through.

All writes are atomic: content goes to a per-writer unique temp file in the
destination directory, then a ``rename`` publishes it.  Concurrent writers
(e.g. parallel sweep workers racing on the same artifact) each hold their
own temp file, so the worst case is a duplicated write, never a torn file
or a vanished temp.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
from pathlib import Path
from typing import Any

from .. import faults

__all__ = [
    "cache_dir",
    "cache_enabled",
    "clear_cache",
    "atomic_write_json",
    "fsync_dir",
    "unique_tmp",
]

_ENV_DISABLE = "REPRO_NO_CACHE"
_DIRNAME = ".repro_cache"

#: Fires on an artifact temp file after it is fully written and synced
#: but before the rename publishes it — ``truncate``/``corrupt`` here
#: simulate the torn artifact a mid-write crash would leave behind.
POINT_PUBLISH = faults.register_point(
    "store.publish", "artifact temp file written, pre-rename"
)


def cache_enabled() -> bool:
    """Whether on-disk caching is active (``REPRO_NO_CACHE`` unset)."""
    return not os.environ.get(_ENV_DISABLE)


def cache_dir() -> Path:
    """Directory for cached experiment results (created on demand)."""
    root = Path(os.environ.get("REPRO_CACHE_DIR", _DIRNAME))
    root.mkdir(parents=True, exist_ok=True)
    return root


def unique_tmp(path: Path) -> Path:
    """A temp-file path unique to this writer, in ``path``'s directory.

    Same filesystem as the destination, so ``Path.replace`` stays atomic;
    unique per (pid, uuid), so concurrent writers never share a temp file —
    a fixed ``.tmp`` suffix would let one writer rename the file out from
    under another mid-write.
    """
    return path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")


def fsync_dir(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives a hard kill.

    Best-effort: some filesystems (and Windows) refuse directory fsync;
    those platforms simply keep their weaker rename durability.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_json(path: Path, value: Any) -> None:
    """Atomically publish ``value`` as JSON at ``path`` (race-safe).

    The temp file is fsynced before the rename and the directory after
    it, so a power loss or SIGKILL cannot publish a truncated artifact
    under the final name.
    """
    tmp = unique_tmp(path)
    try:
        with tmp.open("w") as handle:
            json.dump(value, handle)
            handle.flush()
            os.fsync(handle.fileno())
        faults.fire(POINT_PUBLISH, path=str(tmp), artifact=str(path))
        tmp.replace(path)
        fsync_dir(path.parent)
    finally:
        tmp.unlink(missing_ok=True)


def clear_cache() -> None:
    """Delete every cached experiment artifact (the whole store)."""
    shutil.rmtree(cache_dir() / "store", ignore_errors=True)
