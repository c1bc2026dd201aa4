import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (module-level init is a
    known anti-pattern: every init/shutdown costs seconds)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def pages_1k(tmp_path_factory):
    from gxdindexer_ray.fixtures import generate_pages

    d = tmp_path_factory.mktemp("fixtures") / "pages_1k"
    return str(generate_pages(d, 1000, seed=42))


@pytest.fixture(scope="session")
def oracle_1k(pages_1k):
    from gxdindexer_ray.oracle import OracleIndex

    return OracleIndex.build_from_pages(pages_1k)


@pytest.fixture(scope="session")
def check_stats():
    """Check one index directory's (or generation's) stats.json against
    its own files: N is the docstore footers' row count, total_dl the sum
    of the segments' cf and of the docstore's dl column."""
    import json
    from pathlib import Path

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    def col_sum(files, col):
        return sum(int(pc.sum(pq.read_table(f, columns=[col])[col]).as_py() or 0)
                   for f in files)

    def check(index_dir) -> dict:
        d = Path(index_dir)
        stats = json.loads((d / "stats.json").read_text())
        docs = sorted((d / "docs").glob("*.parquet"))
        n = sum(pq.ParquetFile(f).metadata.num_rows for f in docs)
        total_dl = col_sum(sorted((d / "segments").glob("*.parquet")), "cf")
        assert (stats["N"], stats["total_dl"]) == (n, total_dl), d
        assert col_sum(docs, "dl") == total_dl, d
        assert stats["avgdl"] == (total_dl / n if n else 0.0), d
        return stats

    return check
