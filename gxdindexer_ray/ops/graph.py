"""DAG / graph operators: transitive closure over an edge Dataset.

The reference ships precomputed edge + closure tables and walks them
(GxdDagEdgeIndexer.java:63-73 direct edges, :123-133 descendant closure;
SharedQueries.java:59-62 ancestor closure). Here the closure is COMPUTED:
semi-naive iteration — each round joins the frontier's dst against the base
edges' src (a distributed hash-partitioned join), keeps only never-seen
pairs, and stops at fixpoint. Rounds = graph depth, not size.

Two variants share the semi-naive shape:
- ``transitive_closure`` keeps the seen-set on the driver — right for
  ontology-sized closures (the reference broadcasts them into doc build,
  SURVEY.md T7/T8), and what the q39 catalog entry uses.
- ``transitive_closure_distributed`` keeps EVERYTHING as Datasets: the
  per-round dedup is a groupby-aggregate distinct and the seen-filter is a
  bucketed anti-join through the group-integral hash exchange — the
  web-graph-scale path (nothing graph-sized ever reaches the driver)."""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data as rd

from .relational import partitioned_join


def transitive_closure(edges_ds, *, src: str = "src", dst: str = "dst",
                       max_iters: int = 32) -> pd.DataFrame:
    """All reachable (src, dst) pairs, src != dst not enforced (follows the
    edge relation as given). Returns a pandas DataFrame (closure is
    dimension-sized; see module docstring)."""
    base = edges_ds.to_pandas().drop_duplicates([src, dst])
    closure = set(map(tuple, base[[src, dst]].to_numpy()))
    frontier = base
    for _ in range(max_iters):
        f_ds = rd.from_pandas(frontier.rename(columns={src: "f_src", dst: "f_mid"}))
        e_ds = rd.from_pandas(base.rename(columns={src: "e_mid", dst: "e_dst"}))
        step = partitioned_join(f_ds, e_ds, "f_mid", "e_mid", how="inner").to_pandas()
        if step.empty:
            break
        pairs = step[["f_src", "e_dst"]].drop_duplicates()
        fresh = [(a, b) for a, b in map(tuple, pairs.to_numpy()) if (a, b) not in closure]
        if not fresh:
            break
        closure.update(fresh)
        frontier = pd.DataFrame(fresh, columns=[src, dst])
    else:
        raise RuntimeError(f"transitive_closure did not converge in {max_iters} iters (cycle?)")
    out = pd.DataFrame(sorted(closure), columns=[src, dst])
    return out


def transitive_closure_distributed(edges_ds, *, src: str = "src", dst: str = "dst",
                                   max_iters: int = 32, n_buckets: int = 32):
    """Web-graph-scale variant: all reachable (src, dst) pairs with the
    closure, frontier, joins, distinct AND the seen-set anti-join all
    distributed. Per round: frontier ⋈ edges (one key-hash shuffle) ->
    distinct (aggregate combiner tree) -> anti-join against the closure
    (bucketed by pair hash through one keyed exchange) -> union. The
    driver only sees per-round COUNTS. Returns a Dataset."""
    from ray.data.aggregate import Count

    from .relational import exchange

    def distinct(ds):
        agg = ds.groupby([src, dst]).aggregate(Count(alias_name="__n"))
        return agg.map_batches(lambda t: t.select([src, dst]), batch_format="pyarrow")

    base = distinct(edges_ds).materialize()
    closure = base
    frontier = base
    for _ in range(max_iters):
        f = frontier.map_batches(
            lambda df: df.rename(columns={src: "f_src", dst: "f_mid"}),
            batch_format="pandas")
        e = base.map_batches(
            lambda df: df.rename(columns={src: "e_mid", dst: "e_dst"}),
            batch_format="pandas")
        step = partitioned_join(f, e, "f_mid", "e_mid", how="inner")
        pairs = distinct(step.map_batches(
            lambda df: df[["f_src", "e_dst"]].rename(
                columns={"f_src": src, "e_dst": dst}),
            batch_format="pandas"))
        # bucketed anti-join: pairs minus closure, whole-bucket integrity
        tag = "__is_new"
        tagged = closure.map_batches(
            lambda df: df.assign(**{tag: np.int8(0)}), batch_format="pandas"
        ).union(pairs.map_batches(
            lambda df: df.assign(**{tag: np.int8(1)}), batch_format="pandas"))

        def anti(df: pd.DataFrame) -> pd.DataFrame:
            seen = set(map(tuple, df.loc[df[tag] == 0, [src, dst]].to_numpy()))
            new = df[df[tag] == 1]
            keep = np.fromiter(((a, b) not in seen for a, b in
                                zip(new[src], new[dst])), bool, len(new))
            return new.loc[keep, [src, dst]]

        fresh = exchange(tagged, anti, keys=[src, dst],
                         n_buckets=n_buckets).materialize()
        if fresh.count() == 0:
            return closure
        closure = distinct(closure.union(fresh)).materialize()
        frontier = fresh
    raise RuntimeError(f"transitive_closure did not converge in {max_iters} iters (cycle?)")


# ---------------------------------------------------------------------------
# PageRank over pinned buckets (link-graph scoring at web scale)
# ---------------------------------------------------------------------------


def _pr_setup(node_tbl, edges_tbl):
    """Per-bucket state: sorted unique node ids owned by this bucket
    (hash(node) == bucket) with out-degree (0 = dangling) and uniform
    initial rank placeholder (filled by the caller once N is known)."""
    import pyarrow as pa

    nodes = np.unique(node_tbl["node"].to_numpy(zero_copy_only=False))
    outdeg = np.zeros(nodes.size, dtype=np.int64)
    if edges_tbl is not None:
        uu, cnt = np.unique(edges_tbl["u"].to_numpy(zero_copy_only=False),
                            return_counts=True)
        outdeg[np.searchsorted(nodes, uu)] = cnt
    return pa.table({"node": pa.array(nodes, pa.int64()),
                     "outdeg": pa.array(outdeg, pa.int64()),
                     "pr": pa.array(np.zeros(nodes.size), pa.float64())})


def _pr_contrib(edges_tbl, state_tbl, n_buckets):
    """One bucket's round: dangling mass (rank of outdeg-0 nodes) plus
    per-destination pre-summed contributions pr(u)/outdeg(u), partitioned
    by hash(v). Returns (keys, {bucket: table ref}, dangling_sum)."""
    import pyarrow as pa

    import ray as _ray

    from .relational import bucket_ids

    nodes = state_tbl["node"].to_numpy(zero_copy_only=False)
    outdeg = state_tbl["outdeg"].to_numpy(zero_copy_only=False)
    pr = state_tbl["pr"].to_numpy(zero_copy_only=False)
    dang = float(pr[outdeg == 0].sum())
    if edges_tbl is None:
        return [], {}, dang
    u = edges_tbl["u"].to_numpy(zero_copy_only=False)
    v = edges_tbl["v"].to_numpy(zero_copy_only=False)
    iu = np.searchsorted(nodes, u)
    w = pr[iu] / outdeg[iu]  # outdeg(u) >= 1: u has this out-edge
    order = np.argsort(v, kind="stable")
    vs, ws = v[order], w[order]
    starts = np.flatnonzero(np.r_[True, vs[1:] != vs[:-1]])
    pv = vs[starts]
    pw = np.add.reduceat(ws, starts)  # combiner: one row per dst
    buckets = bucket_ids(pa.table({"node": pv.astype(np.int64)}), ["node"],
                         n_buckets)
    border = np.argsort(buckets, kind="stable")
    pv, pw, buckets = pv[border], pw[border], buckets[border]
    bounds = np.concatenate([[0], np.flatnonzero(buckets[1:] != buckets[:-1]) + 1,
                             [buckets.size]])
    keys, out = [], {}
    for i in range(bounds.size - 1):
        s, e = int(bounds[i]), int(bounds[i + 1])
        tbl = pa.table({"node": pa.array(pv[s:e], pa.int64()),
                        "c": pa.array(pw[s:e], pa.float64())})
        out[int(buckets[s])] = _ray.put(tbl)
        keys.append(int(buckets[s]))
    return keys, out, dang


def _pr_apply(tb, state_tbl, base_term, damp, *contrib_dict_refs):
    """Merge this bucket's incoming contributions:
    pr'(n) = base_term + damp * sum(contribs to n). Returns
    (L1 delta, new state table)."""
    import pyarrow as pa

    import ray as _ray

    nodes = state_tbl["node"].to_numpy(zero_copy_only=False)
    old = state_tbl["pr"].to_numpy(zero_copy_only=False)
    acc = np.zeros(nodes.size, dtype=np.float64)
    props = [d[tb] for d in contrib_dict_refs if tb in d]
    for tbl in _ray.get(props):
        pn = tbl["node"].to_numpy(zero_copy_only=False)
        pc_ = tbl["c"].to_numpy(zero_copy_only=False)
        np.add.at(acc, np.searchsorted(nodes, pn), pc_)
    new = base_term + damp * acc
    delta = float(np.abs(new - old).sum())
    return delta, pa.table({"node": state_tbl["node"],
                            "outdeg": state_tbl["outdeg"],
                            "pr": pa.array(new, pa.float64())})


def _pr_seed(state_tbl, init):
    import pyarrow as pa

    n = state_tbl.num_rows
    return pa.table({"node": state_tbl["node"], "outdeg": state_tbl["outdeg"],
                     "pr": pa.array(np.full(n, init), pa.float64())})


def _num_rows(t):
    return t.num_rows


_PR_FNS: dict = {}


def pagerank(edges_ds, *, src: str = "src", dst: str = "dst",
             damping: float = 0.85, iters: int = 20, tol: float = 1e-12,
             n_buckets: int = 32):
    """Distributed PageRank over an int64 (src, dst) edge Dataset with ONE
    PERSISTENT BUCKETING (the connected-components pattern generalized to
    weighted iteration): edges are hash-partitioned by src ONCE into
    pinned object-store tables — a node's rank, out-degree and out-edges
    all live in bucket hash(node) — and each round ships only per-dst
    PRE-SUMMED contribution rows between buckets. Dangling-node mass is
    redistributed uniformly (driver sees one scalar per bucket per round,
    plus the L1 delta for early stop). Returns a Dataset of (node, rank);
    ranks sum to 1.

    Partitioning assumption: a bucket's node+edge tables fit one worker —
    size n_buckets to the graph, and salt super-hub dst keys upstream if
    one destination's contribution fan-in must be split."""
    import pyarrow as pa

    import ray
    import ray.data as rd

    from .relational import exchange

    if not _PR_FNS:
        _PR_FNS["setup"] = ray.remote(_pr_setup)
        _PR_FNS["seed"] = ray.remote(_pr_seed)
        _PR_FNS["contrib"] = ray.remote(num_returns=3)(_pr_contrib)
        _PR_FNS["apply"] = ray.remote(num_returns=2)(_pr_apply)
        _PR_FNS["nrows"] = ray.remote(_num_rows)

    def edge_pre(tbl: pa.Table) -> pa.Table:
        u = tbl[src].to_numpy(zero_copy_only=False).astype(np.int64)
        v = tbl[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"u": pa.array(u, pa.int64()),
                         "v": pa.array(v, pa.int64())})

    def node_pre(tbl: pa.Table) -> pa.Table:
        u = tbl[src].to_numpy(zero_copy_only=False).astype(np.int64)
        v = tbl[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"node": pa.array(np.concatenate([u, v]), pa.int64())})

    # pinned form (no fn): a node's edges and state share bucket
    # bucket_ids(node), the same bucketing _pr_contrib routes contributions by
    edges_ds = edges_ds.materialize()  # consumed twice (edge + node passes)
    ebuckets = exchange(edges_ds, keys=["u"], n_buckets=n_buckets, pre=edge_pre)
    nbuckets_t = exchange(edges_ds, keys=["node"], n_buckets=n_buckets,
                          pre=node_pre)
    if not nbuckets_t:
        return rd.from_arrow(pa.table({"node": pa.array([], pa.int64()),
                                       "rank": pa.array([], pa.float64())}))
    states = {b: _PR_FNS["setup"].remote(nbuckets_t[b], ebuckets.get(b))
              for b in nbuckets_t}
    counts = ray.get([_PR_FNS["nrows"].remote(s) for s in states.values()])
    n_total = sum(counts)
    states = {b: _PR_FNS["seed"].remote(s, 1.0 / n_total)
              for b, s in states.items()}
    for _ in range(iters):
        keys_r, dicts_r, dang_r = [], [], []
        for b in states:
            kr, dr, gr = _PR_FNS["contrib"].remote(ebuckets.get(b), states[b],
                                                   n_buckets)
            keys_r.append(kr)
            dicts_r.append(dr)
            dang_r.append(gr)
        dang_total = sum(ray.get(dang_r))
        base_term = (1.0 - damping) / n_total + damping * dang_total / n_total
        hit: dict = {}
        for ti, keys in enumerate(ray.get(keys_r)):
            for tb in keys:
                hit.setdefault(tb, []).append(ti)
        delta_r, new_states = [], {}
        for b in states:
            drefs = [dicts_r[i] for i in sorted(set(hit.get(b, [])))]
            dref, nref = _PR_FNS["apply"].remote(b, states[b], base_term,
                                                 damping, *drefs)
            delta_r.append(dref)
            new_states[b] = nref
        states = new_states
        if sum(ray.get(delta_r)) < tol:
            break
    return rd.from_arrow_refs(list(states.values())).map_batches(
        lambda t: pa.table({"node": t["node"], "rank": t["pr"]}),
        batch_format="pyarrow")


def triangle_count(edges_ds, *, src: str = "src", dst: str = "dst",
                   n_buckets: int = 32) -> pd.DataFrame:
    """EXACT global triangle count over an undirected int64 edge Dataset —
    the degree-ordered node-iterator (the distributed-graph standard:
    orient every edge from its lower-(degree, id) endpoint to the higher
    one, so each triangle {x ≺ y ≺ z} is found exactly once, at its apex
    x, and out-degrees stay O(sqrt m) even at power-law hubs — a hub's
    edges all point INTO it, so the hub never enumerates its neighbor
    pairs).

    Wholly distributed: canonical distinct edges (one dedup exchange),
    degree counts (partial/final aggregate), two degree-attach
    partitioned joins, ONE apex-keyed exchange emitting wedge partials
    via ``blocked_pairs`` (no per-node Python, never the d^2 grid), and
    ONE two-sided pair-keyed exchange closing wedges against the oriented
    edge set. The driver sees one int per closure bucket. Returns a 1-row
    DataFrame {n_triangles}."""
    import pyarrow as pa

    from .relational import (arrow_refs, blocked_pairs, dedup_first,
                             exchange, partitioned_join)

    def canon(t: pa.Table) -> pa.Table:
        a = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        u, v = np.minimum(a, b), np.maximum(a, b)
        keep = u != v
        tbl = pa.table({"u": pa.array(u[keep]), "v": pa.array(v[keep])})
        return tbl.group_by(["u", "v"]).aggregate([])

    # consumed by three stages (degrees, orientation join, closure side)
    edges = dedup_first(edges_ds.map_batches(canon, batch_format="pyarrow"),
                        ["u", "v"], ["u", "v"], n_buckets).materialize()

    def endpoints(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        nodes, cnt = np.unique(np.concatenate([u, v]), return_counts=True)
        return pa.table({"node": pa.array(nodes),
                         "cnt": pa.array(cnt.astype(np.int64))})

    def sum_deg(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("node", sort=False)["cnt"].sum()
                .reset_index().rename(columns={"cnt": "deg"}))

    # node-count-sized keys make the Dataset combiner-tree groupby the
    # bottleneck (measured 93s vs ~8s at 3M nodes / 10M edges): per-batch
    # unique partials + ONE explicit node-keyed exchange instead. deg is
    # consumed by BOTH degree-attach joins — materialize or the aggregate
    # runs twice.
    deg = exchange(edges.map_batches(endpoints, batch_format="pyarrow"),
                   sum_deg, keys=["node"], n_buckets=n_buckets).materialize()
    deg_u = deg.map_batches(
        lambda t: t.rename_columns(["node_u", "deg_u"]),
        batch_format="pyarrow")
    deg_v = deg.map_batches(
        lambda t: t.rename_columns(["node_v", "deg_v"]),
        batch_format="pyarrow")
    j = partitioned_join(edges, deg_u, "u", "node_u", n_buckets=n_buckets)
    j = partitioned_join(j, deg_v, "v", "node_v", n_buckets=n_buckets)

    def orient(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        du = t["deg_u"].to_numpy(zero_copy_only=False)
        dv = t["deg_v"].to_numpy(zero_copy_only=False)
        u_first = (du < dv) | ((du == dv) & (u < v))
        return pa.table({
            "s": pa.array(np.where(u_first, u, v)),
            "t": pa.array(np.where(u_first, v, u)),
            "t_deg": pa.array(np.where(u_first, dv, du))})

    # consumed twice (wedge exchange + closure side) — pin the skinny
    # (s, t, t_deg) form instead of re-running the degree joins
    oriented = j.map_batches(orient, batch_format="pyarrow").materialize()
    w_empty = pd.DataFrame({"a": pd.Series([], dtype=np.int64),
                            "b": pd.Series([], dtype=np.int64),
                            "cnt": pd.Series([], dtype=np.int64)})

    def mk_wedges(df: pd.DataFrame) -> pd.DataFrame:
        # out-neighborhoods ordered by the SAME (deg, id) total order the
        # orientation used, so every wedge (a, b) has a ≺ b and matches
        # the oriented closing edge exactly
        ta = df["t"].to_numpy()
        ia, ib, _ = blocked_pairs(df["s"].to_numpy(),
                                  (df["t_deg"].to_numpy(), ta))
        if ia.size == 0:
            return w_empty
        out = pd.DataFrame({"a": ta[ia], "b": ta[ib]})
        return (out.groupby(["a", "b"], sort=False)
                .size().reset_index(name="cnt"))

    wedges = exchange(oriented, mk_wedges, keys=["s"], n_buckets=n_buckets)

    def mk_pre(side: int):
        def pre(tbl: pa.Table) -> pa.Table:
            a_col, b_col = ("s", "t") if side == 0 else ("a", "b")
            a = tbl[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
            b = tbl[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
            cnt = (np.zeros(a.size, np.int64) if side == 0
                   else tbl["cnt"].to_numpy(zero_copy_only=False).astype(np.int64))
            return pa.table({
                "a": pa.array(a), "b": pa.array(b), "cnt": pa.array(cnt),
                "__side": pa.array(np.full(a.size, side, np.int8))})
        return pre

    def close(df: pd.DataFrame) -> pd.DataFrame:
        e = df[df["__side"] == 0]
        w = df[df["__side"] == 1]
        if e.empty or w.empty:
            return pd.DataFrame({"n": [0]})
        m = w.merge(e[["a", "b"]], on=["a", "b"], how="inner")
        return pd.DataFrame({"n": [int(m["cnt"].sum())]})

    parts = exchange(
        [(arrow_refs(oriented), mk_pre(0)),
         (arrow_refs(wedges), mk_pre(1))], close, keys=["a", "b"],
        n_buckets=n_buckets)
    total = int(parts.to_pandas()["n"].sum())
    return pd.DataFrame({"n_triangles": [total]})
