"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in gxdindexer_ray) calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: build the full inverted
    index (dedup -> extract -> SPIMI -> shuffle-merge -> segments) over the
    documents table wrapped as a Common-Crawl-style pages corpus, then
    return the merged lexicon (term, df, cf) as a Dataset."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from gxdindexer_ray.pipelines.queries import _index_for

    ix = _index_for("/root/testdata/sf0.001")
    seg = rd.read_parquet(str(ix / "segments"), columns=["term", "df", "cf"],
                          file_extensions=["parquet"])
    return seg.groupby("term").aggregate(Sum("df", alias_name="df"), Sum("cf", alias_name="cf"))


def queries() -> dict[str, Callable[[str], Any]]:
    from gxdindexer_ray.pipelines.queries import queries as _q

    return _q()


def oracle_sql() -> dict[str, str]:
    from gxdindexer_ray.pipelines.queries import oracle_sql as _o

    return _o()
