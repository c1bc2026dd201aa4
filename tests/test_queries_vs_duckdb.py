"""Mirror of the driver's correctness gate: run each catalog query through
Ray AND through DuckDB on the same sf tables; compare row count, column
names, and values exactly (order-insensitive)."""

from pathlib import Path

import duckdb
import numpy as np
import pandas as pd
import pytest

from gxdindexer_ray.pipelines.queries import CATALOG

import os

SF_DIR = os.environ.get("GXDRAY_TEST_SF", "/root/testdata/sf0.001")
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")
    return c


def _to_pandas(obj):
    import pyarrow as pa
    import ray.data

    if isinstance(obj, ray.data.Dataset):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime64"):
            df[c] = pd.to_datetime(df[c]).astype("datetime64[us]")
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype(np.int64)
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype(np.float64)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


SQL_CASES = [(n, fn, sql) for n, (fn, sql) in CATALOG.items() if sql is not None]
NOSQL_CASES = [(n, fn) for n, (fn, sql) in CATALOG.items() if sql is None]


def _assert_matches(name: str, got: pd.DataFrame, exp: pd.DataFrame) -> None:
    """Exact compare after _canon; dtypes must agree too (int64 vs
    float64 fails, as in the driver's typed hash)."""
    got, exp = _canon(got), _canon(exp)
    assert list(got.columns) == list(exp.columns), f"{name}: column names differ"
    assert len(got) == len(exp), f"{name}: row count {len(got)} != {len(exp)}"
    pd.testing.assert_frame_equal(got, exp, check_dtype=True, check_exact=True)


def test_compare_is_dtype_strict():
    exp = pd.DataFrame({"k": np.array([2, 1], np.int32), "v": [1.5, 2.5]})
    _assert_matches("same", exp.iloc[::-1], exp)
    bad = exp.assign(k=exp["k"].astype(np.float64))
    with pytest.raises(AssertionError, match="dtype"):
        _assert_matches("int-vs-float", bad, exp)


@pytest.mark.parametrize("name,fn,sql", SQL_CASES, ids=[c[0] for c in SQL_CASES])
def test_query_matches_oracle(name, fn, sql, con, ray_session):
    _assert_matches(name, _to_pandas(fn(SF_DIR)), con.sql(sql).df())


@pytest.mark.parametrize("name,fn", NOSQL_CASES, ids=[c[0] for c in NOSQL_CASES])
def test_nosql_query_runs(name, fn, ray_session):
    out = _to_pandas(fn(SF_DIR))
    assert out is not None
    assert len(out.columns) > 0


def test_q70_single_corpus_materialize(ray_session, monkeypatch):
    """VERDICT r4 #4: q70 must pin exactly ONE corpus-sized (text-bearing)
    dataset in the object store — the exact-dedup survivor filter fuses
    lazily into downstream reads instead of materializing a second copy."""
    import ray.data as rd

    from gxdindexer_ray.pipelines.queries import q70_corpus_curation

    text_pins = []
    orig = rd.Dataset.materialize

    def spy(self, *a, **kw):
        md = orig(self, *a, **kw)
        if "text" in (md.schema().names or []):
            text_pins.append(md)
        return md

    monkeypatch.setattr(rd.Dataset, "materialize", spy)
    out = q70_corpus_curation("/root/testdata/sf0.001")
    assert len(out) > 0
    assert len(text_pins) == 1, f"{len(text_pins)} corpus-sized pins"
