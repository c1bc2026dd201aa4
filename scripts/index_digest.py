"""Print a sha256 digest of an index's derived artifacts.

Usage: python scripts/index_digest.py [--values] INDEX_DIR

One line per file, ``<sha256>  <path relative to INDEX_DIR>``, for the
segment files, ``stats.json`` and ``hot_terms.json`` of the base index
and of every ``gen-*`` generation. Two builds of the same input give the
same lines exactly when their artifacts are byte-identical, so ``diff``
of two digests is the check for a change that must not move any byte.

``--values`` hashes each segment file's decoded table (schema, then every
column's values in row order) instead of its bytes: the same lines then
mean the same segment values whatever the compression, encodings,
statistics or row-group sizes, the check for a change that only
re-encodes segments. ``stats.json`` and ``hot_terms.json`` are still
hashed as bytes.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path


def _values_hash(f: Path) -> str:
    import pyarrow.parquet as pq

    t = pq.read_table(f)
    h = hashlib.sha256(str(t.schema.remove_metadata()).encode())
    for c in t.columns:
        h.update(repr(c.to_pylist()).encode())
    return h.hexdigest()


def digest(index_dir: Path, values: bool = False) -> list[str]:
    lines = []
    for d in [index_dir] + sorted(index_dir.glob("gen-*")):
        files = sorted((d / "segments").glob("*.parquet"))
        files += [f for f in (d / "stats.json", d / "hot_terms.json") if f.exists()]
        for f in files:
            if values and f.suffix == ".parquet":
                h = _values_hash(f)
            else:
                h = hashlib.sha256(f.read_bytes()).hexdigest()
            lines.append(f"{h}  {f.relative_to(index_dir)}")
    return lines


def main() -> int:
    args = sys.argv[1:]
    values = "--values" in args
    args = [a for a in args if a != "--values"]
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root = Path(args[0])
    if not (root / "stats.json").exists():
        print(f"{root}: no stats.json, not an index", file=sys.stderr)
        return 2
    print("\n".join(digest(root, values)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
