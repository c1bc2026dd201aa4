"""Per-phase / per-partition lineage manifests for checkpoint-resume.

The reference has NO resume: a failed run truncates and rebuilds from
scratch (reference Indexer.java:83-89, Main.java:118-129). The north rule
requires better: every build phase seals an atomic manifest recording its
input fingerprint, config hash, outputs and row counts; a re-run with the
same key skips the phase, and the merge phase additionally records one row
per segment bucket. All writes are tmp+rename so replays are idempotent.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any


def atomic_write_json(path: str | Path, obj: Any) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(obj, indent=1, sort_keys=True, default=str))
    tmp.rename(path)


def read_json(path: str | Path) -> Any | None:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError):
        return None


def fingerprint_inputs(paths: list[str | Path]) -> str:
    """Stable fingerprint of input files: sorted (name, size, mtime_ns).
    mtime guards against same-size in-place regeneration of the corpus
    silently resuming from a stale checkpoint."""
    items = sorted(
        (Path(p).name, (st := Path(p).stat()).st_size, st.st_mtime_ns) for p in paths
    )
    return hashlib.blake2b(json.dumps(items).encode(), digest_size=12).hexdigest()


def config_key(cfg: Any) -> str:
    d = asdict(cfg) if is_dataclass(cfg) else dict(cfg)
    # execution-only knobs must not invalidate checkpoints
    for k in ("batch_size", "spimi_batch_size"):
        d.pop(k, None)
    return hashlib.blake2b(json.dumps(d, sort_keys=True).encode(), digest_size=12).hexdigest()


class PhaseManifest:
    """Phase completion marker under ``<out_dir>/_manifests/``."""

    def __init__(self, out_dir: str | Path, phase: str, key: str):
        self.path = Path(out_dir) / "_manifests" / f"phase-{phase}.json"
        self.phase = phase
        self.key = key

    def is_complete(self) -> bool:
        m = read_json(self.path)
        return bool(m) and m.get("key") == self.key and m.get("completed")

    def seal(self, **extra: Any) -> None:
        atomic_write_json(self.path, {"phase": self.phase, "key": self.key, "completed": True, **extra})
