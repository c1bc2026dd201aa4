"""Print a sha256 digest of an index's derived artifacts.

Usage: python scripts/index_digest.py INDEX_DIR

One line per file, ``<sha256>  <path relative to INDEX_DIR>``, for the
segment files, ``stats.json`` and ``hot_terms.json`` of the base index
and of every ``gen-*`` generation. Two builds of the same input give the
same lines exactly when their artifacts are byte-identical, so ``diff``
of two digests is the check for a change that must not move any byte.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path


def digest(index_dir: Path) -> list[str]:
    lines = []
    for d in [index_dir] + sorted(index_dir.glob("gen-*")):
        files = sorted((d / "segments").glob("*.parquet"))
        files += [f for f in (d / "stats.json", d / "hot_terms.json") if f.exists()]
        for f in files:
            h = hashlib.sha256(f.read_bytes()).hexdigest()
            lines.append(f"{h}  {f.relative_to(index_dir)}")
    return lines


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root = Path(sys.argv[1])
    if not (root / "stats.json").exists():
        print(f"{root}: no stats.json, not an index", file=sys.stderr)
        return 2
    print("\n".join(digest(root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
