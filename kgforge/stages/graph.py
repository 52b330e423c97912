"""Graph analytics over the built knowledge graph.

The reference stops at graph *construction* (nodes/edges upserted into
FalkorDB, ``extract_data_step.py``); any analysis happens inside the
graph DB.  Here the KG is a pair of Datasets, so the classic read-side
operators are expressed Ray-Data-first:

- :func:`degree_table`: per-node in/out/total degree — one combiner
  pass over edges, ONE coarse-bucket fold (never a per-node group).
- :func:`entity_cooccurrence`: co-mention pair weights — pages are the
  natural partition key, pairs are emitted per page and counted with a
  bucketed fold.
- :func:`pagerank`: fixed-iteration damped PageRank with dangling-mass
  redistribution.  The edge list stays distributed and is indexed ONCE
  (src/dst positions in a sorted node vector); each iteration is one
  ``map_batches`` over the materialized edge blocks with the rank
  vector broadcast via ``ray.put`` (8 B/node — ~80 MB at 10M nodes,
  the documented driver bound) and a node-sized partial-sum collect.
  At billions of nodes the same loop runs with ranks co-partitioned by
  dst bucket instead of broadcast; the per-iteration dataflow
  (edge-parallel contribution scatter + keyed reduce) is unchanged.
"""

from __future__ import annotations


import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset


def degree_table(edges: Dataset, src_col: str = "src_id",
                 dst_col: str = "dst_id", n_buckets: int = 64) -> Dataset:
    """Per-node (out_degree, in_degree, degree) from an edge list.
    Per-batch ``value_counts`` combiner on both endpoint columns →
    one bucketed fold; a node appearing only as src (or only dst)
    gets 0 for the other side."""

    def partial(batch: pa.Table) -> pa.Table:
        src = batch.column(src_col).to_numpy(zero_copy_only=False)
        dst = batch.column(dst_col).to_numpy(zero_copy_only=False)
        su, sc = np.unique(src, return_counts=True)
        du, dc = np.unique(dst, return_counts=True)
        node = np.concatenate([su, du])
        out_n = np.concatenate([sc, np.zeros(len(du), np.int64)])
        in_n = np.concatenate([np.zeros(len(su), np.int64), dc])
        return pa.table({
            "node_id": pa.array(node, pa.uint64()),
            "out_degree": pa.array(out_n, pa.int64()),
            "in_degree": pa.array(in_n, pa.int64()),
            "bucket": pa.array((node % n_buckets).astype(np.int64),
                               pa.int64())})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("node_id", as_index=False).agg(
            out_degree=("out_degree", "sum"), in_degree=("in_degree", "sum"))
        agg["out_degree"] = agg["out_degree"].astype(np.int64)
        agg["in_degree"] = agg["in_degree"].astype(np.int64)
        agg["degree"] = agg["out_degree"] + agg["in_degree"]
        return agg[["node_id", "out_degree", "in_degree", "degree"]]

    return (edges.map_batches(partial, batch_format="pyarrow")
                 .groupby("bucket")
                 .map_groups(fold, batch_format="pandas"))


def entity_cooccurrence(page_entities: Dataset, page_col: str,
                        key_col: str, min_pages: int = 1,
                        n_buckets: int = 64) -> Dataset:
    """Entity co-mention pairs: for every unordered pair of distinct
    entities mentioned on the same page, the number of distinct pages
    mentioning both.  ``groupby(page)`` collects one page's mentions on
    one worker (pages are small — the bounded-group contract), emits
    each pair once per page, then a bucketed fold sums page counts.
    Output: (src_key, dst_key, n_pages) with src_key < dst_key."""

    def page_bucket(batch: pa.Table) -> pa.Table:
        pages = batch.column(page_col).to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array((pages % n_buckets).astype(np.int64),
                               pa.int64()))

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        # pages never span buckets, so in-bucket dedupe is global; the
        # self-merge builds every within-page pair vectorized
        pk = (g[[page_col, key_col]]
              .drop_duplicates([page_col, key_col]))
        m = pk.merge(pk, on=page_col, suffixes=("_a", "_b"))
        m = m[m[f"{key_col}_a"] < m[f"{key_col}_b"]]
        c = (m.groupby([f"{key_col}_a", f"{key_col}_b"], as_index=False)
              .size())
        from .joins import str_bucket
        buckets = str_bucket(c[f"{key_col}_a"].astype(str) + "\x1f"
                             + c[f"{key_col}_b"].astype(str), n_buckets)
        return pd.DataFrame({
            "src_key": c[f"{key_col}_a"].astype(str),
            "dst_key": c[f"{key_col}_b"].astype(str),
            "n": c["size"].astype(np.int64),
            "pair_bucket": np.asarray(buckets, np.int64)})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["src_key", "dst_key"], as_index=False)["n"].sum()
        agg = agg[agg["n"] >= min_pages]
        agg = agg.rename(columns={"n": "n_pages"})
        agg["n_pages"] = agg["n_pages"].astype(np.int64)
        return agg

    return (page_entities.map_batches(page_bucket, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(pairs, batch_format="pandas")
            .groupby("pair_bucket")
            .map_groups(fold, batch_format="pandas"))


def pagerank(edges: Dataset, src_col: str = "src_id",
             dst_col: str = "dst_id", damping: float = 0.85,
             n_iter: int = 20) -> pd.DataFrame:
    """Damped PageRank with uniform dangling-mass redistribution, fixed
    ``n_iter`` power iterations.  Returns a pandas DataFrame
    (node_id, pagerank) — node-sized, like every rank vector here.

    Dataflow: the node universe and out-degrees are derived from the
    edge list with one :func:`degree_table` pass (node-sized collect);
    edges are re-indexed to positions ONCE and materialized; each
    iteration broadcasts the per-node outgoing contribution (rank /
    out_degree) and scatters it edge-parallel with ``np.bincount``
    partials folded per block, so only node-sized vectors ever cross
    the driver boundary — never the edge list."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")

    deg = degree_table(edges, src_col, dst_col).to_pandas()
    nodes = np.sort(deg["node_id"].to_numpy(np.uint64))
    outdeg = np.zeros(len(nodes), np.int64)
    pos = np.searchsorted(nodes, deg["node_id"].to_numpy(np.uint64))
    outdeg[pos] = deg["out_degree"].to_numpy(np.int64)
    n = len(nodes)
    if n == 0:
        return pd.DataFrame({"node_id": pd.Series([], dtype=np.uint64),
                             "pagerank": pd.Series([], dtype=np.float64)})
    nodes_ref = ray.put(nodes)

    def index_edges(batch: pa.Table) -> pa.Table:
        nds = ray.get(nodes_ref)
        s = np.searchsorted(nds, batch.column(src_col)
                            .to_numpy(zero_copy_only=False))
        d = np.searchsorted(nds, batch.column(dst_col)
                            .to_numpy(zero_copy_only=False))
        return pa.table({"si": pa.array(s, pa.int64()),
                         "di": pa.array(d, pa.int64())})

    indexed = (edges.select_columns([src_col, dst_col])
               .map_batches(index_edges, batch_format="pyarrow")
               .materialize())

    rank = np.full(n, 1.0 / n, np.float64)
    safe_out = np.maximum(outdeg, 1)
    for _ in range(n_iter):
        contrib_ref = ray.put(rank / safe_out)

        def scatter(batch: pa.Table) -> pa.Table:
            c = ray.get(contrib_ref)
            si = batch.column("si").to_numpy()
            di = batch.column("di").to_numpy()
            sums = np.bincount(di, weights=c[si], minlength=len(c))
            nz = np.flatnonzero(sums)
            return pa.table({"i": pa.array(nz, pa.int64()),
                             "s": pa.array(sums[nz], pa.float64())})

        parts = indexed.map_batches(scatter,
                                    batch_format="pyarrow").to_pandas()
        incoming = np.zeros(n, np.float64)
        np.add.at(incoming, parts["i"].to_numpy(np.int64),
                  parts["s"].to_numpy(np.float64))
        dangling = rank[outdeg == 0].sum()
        rank = ((1.0 - damping) / n
                + damping * (incoming + dangling / n))

    return pd.DataFrame({"node_id": nodes, "pagerank": rank})


def pagerank_fixed(edges: Dataset, src_col: str = "src_id",
                   dst_col: str = "dst_id", damping_num: int = 17,
                   damping_den: int = 20, n_iter: int = 20,
                   scale_bits: int = 40, mode: str = "auto",
                   driver_node_limit: int | None = None):
    """Deterministic fixed-point PageRank: the same damped power
    iteration as :func:`pagerank` carried out entirely in integers so
    the result is bit-exact regardless of summation order — and hence
    SQL-mirrorable (the driver gate unrolls the identical recurrence
    as a DuckDB CTE chain; see ``__ray_entry__._pagerank_sql``).

    Ranks are scaled by ``S = 2**scale_bits``; damping is the rational
    ``damping_num/damping_den`` (default 17/20 = 0.85).  Recurrence
    (all operations integer, ``//`` = floor division, every quantity
    non-negative):

    - ``r0[v]      = S // n``
    - ``contrib[u] = r[u] // outdeg[u]``            (outdeg > 0)
    - ``incoming[v] = sum contrib[u] over edges (u, v)``  (exact int)
    - ``dangling  = sum r[u] over outdeg[u] == 0``
    - ``r'[v] = ((den-num)*S) // (den*n)
              + (num * (incoming[v] + dangling // n)) // den``

    Dataflow matches :func:`pagerank` (edge list indexed once and kept
    distributed; node-sized int64 vectors broadcast per iteration);
    per-block partial sums use ``np.add.at`` on int64 so distributed
    summation is exact.  Total mass is bounded by S, so every value
    fits comfortably in int64 for scale_bits <= 58.

    The float column ``pagerank = pr_fixed / S`` is exactly
    representable (pr_fixed < 2**53) and monotone in pr_fixed, so the
    fixed-point ranking IS a PageRank ranking; parity of the ordering
    vs the float :func:`pagerank` is pinned in pytest.

    Return contract: ``mode="auto"`` ALWAYS returns a Dataset (the
    driver-path result is wrapped with ``ray.data.from_pandas``) so
    caller code tested at small scale doesn't change type when the
    ``driver_node_limit`` gate trips in production; explicit
    ``mode="driver"`` is the documented DataFrame-out contract and
    ``mode="distributed"`` forces :func:`pagerank_fixed_distributed`
    (bit-identical output)."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    if not (0 < damping_num < damping_den):
        raise ValueError("damping must be a rational in (0, 1)")
    if scale_bits > 58:
        raise ValueError("scale_bits > 58 overflows the int64 mass bound")

    limit = (DRIVER_NODE_LIMIT if driver_node_limit is None
             else driver_node_limit)
    deg_ds = degree_table(edges, src_col, dst_col).materialize()
    wrap_out = mode == "auto"
    if mode == "auto":
        mode = "driver" if deg_ds.count() <= limit else "distributed"
    if mode == "distributed":
        return pagerank_fixed_distributed(
            edges, src_col, dst_col, damping_num, damping_den, n_iter,
            scale_bits)
    if mode != "driver":
        raise ValueError(f"unknown mode {mode!r}")
    deg = deg_ds.to_pandas()
    nodes = np.sort(deg["node_id"].to_numpy(np.uint64))
    n = len(nodes)
    if n == 0:
        out = pd.DataFrame({
            "node_id": pd.Series([], dtype=np.uint64),
            "pr_fixed": pd.Series([], dtype=np.int64),
            "pagerank": pd.Series([], dtype=np.float64)})
        return ray.data.from_pandas(out) if wrap_out else out
    outdeg = np.zeros(n, np.int64)
    pos = np.searchsorted(nodes, deg["node_id"].to_numpy(np.uint64))
    outdeg[pos] = deg["out_degree"].to_numpy(np.int64)
    nodes_ref = ray.put(nodes)

    def index_edges(batch: pa.Table) -> pa.Table:
        nds = ray.get(nodes_ref)
        s = np.searchsorted(nds, batch.column(src_col)
                            .to_numpy(zero_copy_only=False))
        d = np.searchsorted(nds, batch.column(dst_col)
                            .to_numpy(zero_copy_only=False))
        return pa.table({"si": pa.array(s, pa.int64()),
                         "di": pa.array(d, pa.int64())})

    indexed = (edges.select_columns([src_col, dst_col])
               .map_batches(index_edges, batch_format="pyarrow")
               .materialize())

    S = 1 << scale_bits
    num, den = int(damping_num), int(damping_den)
    base = ((den - num) * S) // (den * n)
    safe_out = np.maximum(outdeg, 1)
    dangling_mask = outdeg == 0
    r = np.full(n, S // n, np.int64)
    for _ in range(n_iter):
        contrib_ref = ray.put(r // safe_out)

        def scatter(batch: pa.Table) -> pa.Table:
            c = ray.get(contrib_ref)
            si = batch.column("si").to_numpy()
            di = batch.column("di").to_numpy()
            sums = np.zeros(len(c), np.int64)
            np.add.at(sums, di, c[si])
            nz = np.flatnonzero(sums)
            return pa.table({"i": pa.array(nz, pa.int64()),
                             "s": pa.array(sums[nz], pa.int64())})

        parts = indexed.map_batches(scatter,
                                    batch_format="pyarrow").to_pandas()
        incoming = np.zeros(n, np.int64)
        np.add.at(incoming, parts["i"].to_numpy(np.int64),
                  parts["s"].to_numpy(np.int64))
        dangling = int(r[dangling_mask].sum())
        r = base + (num * (incoming + dangling // n)) // den

    out = pd.DataFrame({"node_id": nodes,
                        "pr_fixed": r.astype(np.int64),
                        "pagerank": r.astype(np.float64) / float(S)})
    return ray.data.from_pandas(out) if wrap_out else out


def connected_components(edges: Dataset, src_col: str = "src_id",
                         dst_col: str = "dst_id",
                         max_sweeps: int = 64, mode: str = "auto",
                         driver_node_limit: int | None = None):
    """Undirected connected components by distributed min-label
    propagation: ``component_id`` = the minimum node id reachable from
    each node.  Returns a node-sized pandas DataFrame
    (node_id, component_id) over the edge-connected node universe
    (isolated nodes never appear in an edge list).

    Unlike the driver union-find in ``dedup.dedup_clusters`` (bounded
    by PAIR count), the edge list here stays distributed: per sweep,
    each edge block emits sparse (node_pos, min_label) partials
    (vectorized two-sided minimum + in-block reduce) and only
    node-sized vectors reach the driver, where labels are
    path-compressed (label := label-of-label until stable) so sweeps
    converge in O(log n), not graph diameter.

    Return contract (mirrors :func:`pagerank_fixed`): ``mode="auto"``
    ALWAYS returns a Dataset (the driver result is wrapped) so the
    caller's type never changes when the ``driver_node_limit`` gate
    trips past :data:`DRIVER_NODE_LIMIT` nodes; explicit
    ``mode="driver"`` returns the node-sized DataFrame,
    ``mode="distributed"`` forces
    :func:`connected_components_distributed`."""
    limit = (DRIVER_NODE_LIMIT if driver_node_limit is None
             else driver_node_limit)
    deg_ds = degree_table(edges, src_col, dst_col).materialize()
    wrap_out = mode == "auto"
    if mode == "auto":
        mode = "driver" if deg_ds.count() <= limit else "distributed"
    if mode == "distributed":
        return connected_components_distributed(
            edges, src_col, dst_col, max_sweeps)
    if mode != "driver":
        raise ValueError(f"unknown mode {mode!r}")
    deg = deg_ds.to_pandas()
    nodes = np.sort(deg["node_id"].to_numpy(np.uint64))
    n = len(nodes)
    if n == 0:
        out = pd.DataFrame({
            "node_id": pd.Series([], dtype=np.uint64),
            "component_id": pd.Series([], dtype=np.uint64)})
        return ray.data.from_pandas(out) if wrap_out else out
    nodes_ref = ray.put(nodes)

    def index_edges(batch: pa.Table) -> pa.Table:
        nds = ray.get(nodes_ref)
        s = np.searchsorted(nds, batch.column(src_col)
                            .to_numpy(zero_copy_only=False))
        d = np.searchsorted(nds, batch.column(dst_col)
                            .to_numpy(zero_copy_only=False))
        keep = s != d
        return pa.table({"si": pa.array(s[keep], pa.int64()),
                         "di": pa.array(d[keep], pa.int64())})

    indexed = (edges.select_columns([src_col, dst_col])
               .map_batches(index_edges, batch_format="pyarrow")
               .materialize())

    labels = nodes.copy()                      # label = own id initially
    for _ in range(max_sweeps):
        lab_ref = ray.put(labels)

        def sweep(batch: pa.Table) -> pa.Table:
            lab = ray.get(lab_ref)
            si = batch.column("si").to_numpy()
            di = batch.column("di").to_numpy()
            m = np.minimum(lab[si], lab[di])
            idx = np.concatenate([si, di])
            cand = np.concatenate([m, m])
            df = pd.DataFrame({"i": idx, "m": cand})
            g = df.groupby("i", as_index=False)["m"].min()
            return pa.table({"i": pa.array(g["i"], pa.int64()),
                             "m": pa.array(g["m"].to_numpy(np.uint64),
                                           pa.uint64())})

        parts = indexed.map_batches(sweep,
                                    batch_format="pyarrow").to_pandas()
        new = labels.copy()
        np.minimum.at(new, parts["i"].to_numpy(np.int64),
                      parts["m"].to_numpy(np.uint64))
        # driver path compression: labels are node ids, so chase them
        # through the label vector until fixed (O(log n) chases)
        while True:
            chased = new[np.searchsorted(nodes, new)]
            if np.array_equal(chased, new):
                break
            new = np.minimum(new, chased)
        if np.array_equal(new, labels):
            break
        labels = new

    out = pd.DataFrame({"node_id": nodes, "component_id": labels})
    return ray.data.from_pandas(out) if wrap_out else out


# Above this many nodes, the node-sized driver vectors (ranks, labels,
# frontiers — ~16 B/node) stop fitting a sane driver heap and the
# *_distributed keyed-Dataset paths below take over (mode="auto").
DRIVER_NODE_LIMIT = 50_000_000


def pagerank_fixed_distributed(edges: Dataset, src_col: str = "src_id",
                               dst_col: str = "dst_id",
                               damping_num: int = 17,
                               damping_den: int = 20, n_iter: int = 20,
                               scale_bits: int = 40,
                               n_buckets: int = 64) -> Dataset:
    """Scale path for :func:`pagerank_fixed`: the rank table is a keyed
    DATASET (node_id, pr_fixed) — no node-sized driver vector or
    per-iteration broadcast.  Per iteration:

    1. contribution scatter: directed edges co-partitioned with the
       rank/out-degree state on the SOURCE bucket emit per-bucket
       pre-aggregated (dst, contribution-sum) partials (the combiner —
       message volume leaving a bucket is bounded by its distinct dst
       count, not its edge count);
    2. dangling mass: a distributed integer sum over the state rows
       with out-degree 0 (one scalar to the driver);
    3. rank fold: partials co-partitioned with the state on the
       DESTINATION bucket apply the identical integer recurrence.

    All sums are int64 (total mass <= 2**scale_bits), so the result is
    bit-identical to :func:`pagerank_fixed` — pinned in pytest."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    num, den = int(damping_num), int(damping_den)
    S = 1 << scale_bits

    def dir_rows(t: pa.Table) -> pa.Table:
        s = t.column(src_col).to_numpy(zero_copy_only=False) \
             .astype(np.uint64)
        d = t.column(dst_col).to_numpy(zero_copy_only=False) \
             .astype(np.uint64)
        return pa.table({
            "s": pa.array(s, pa.uint64()),
            "d": pa.array(d, pa.uint64()),
            "bucket": pa.array((s % np.uint64(n_buckets))
                               .astype(np.int64), pa.int64())})

    dir_edges = (edges.select_columns([src_col, dst_col])
                 .map_batches(dir_rows, batch_format="pyarrow")
                 .materialize())

    deg = degree_table(edges, src_col, dst_col).materialize()
    n = deg.count()
    if n == 0:
        return ray.data.from_arrow(pa.table({
            "node_id": pa.array([], pa.uint64()),
            "pr_fixed": pa.array([], pa.int64()),
            "pagerank": pa.array([], pa.float64())}))
    base = ((den - num) * S) // (den * n)
    r0 = S // n

    def init_state(t: pa.Table) -> pa.Table:
        node = t.column("node_id").to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
        return pa.table({
            "node_id": pa.array(node, pa.uint64()),
            "r": pa.array(np.full(len(node), r0, np.int64), pa.int64()),
            "outdeg": t.column("out_degree").cast(pa.int64()),
            "bucket": pa.array((node % np.uint64(n_buckets))
                               .astype(np.int64), pa.int64())})

    state = deg.map_batches(init_state,
                            batch_format="pyarrow").materialize()
    # loop-carried block budget: the node table's own natural block
    # count (scale-proportional, tiny at test scale)
    state_blocks = max(1, state.num_blocks())

    def edge_side(t: pa.Table) -> pa.Table:
        zero = pa.array(np.zeros(t.num_rows, np.int64), pa.int64())
        return pa.table({
            "node": t.column("s"), "dst": t.column("d"),
            "r": zero, "outdeg": zero,
            "is_s": pa.array(np.zeros(t.num_rows, bool)),
            "bucket": t.column("bucket")})

    def state_side(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t.column("node_id"),
            "dst": pa.array(np.zeros(t.num_rows, np.uint64), pa.uint64()),
            "r": t.column("r"), "outdeg": t.column("outdeg"),
            "is_s": pa.array(np.ones(t.num_rows, bool)),
            "bucket": t.column("bucket")})

    def scatter(g: pd.DataFrame) -> pa.Table:
        st = g.loc[g["is_s"] & (g["outdeg"] > 0), ["node", "r", "outdeg"]]
        e = g.loc[~g["is_s"], ["node", "dst"]]
        m = e.merge(st, on="node")
        if len(m) == 0:
            return pa.table({"node_id": pa.array([], pa.uint64()),
                             "inc": pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int64())})
        contrib = (m["r"].to_numpy(np.int64)
                   // m["outdeg"].to_numpy(np.int64))
        agg = (pd.DataFrame({"d": m["dst"].to_numpy(np.uint64),
                             "c": contrib})
               .groupby("d", sort=False)["c"].sum())
        node = agg.index.to_numpy(np.uint64)
        return pa.table({
            "node_id": pa.array(node, pa.uint64()),
            "inc": pa.array(agg.to_numpy(np.int64), pa.int64()),
            "bucket": pa.array((node % np.uint64(n_buckets))
                               .astype(np.int64), pa.int64())})

    def msg_side(t: pa.Table) -> pa.Table:
        zero64 = pa.array(np.zeros(t.num_rows, np.int64), pa.int64())
        return pa.table({
            "node_id": t.column("node_id"), "inc": t.column("inc"),
            "r": zero64, "outdeg": zero64,
            "is_s": pa.array(np.zeros(t.num_rows, bool)),
            "bucket": t.column("bucket")})

    def state_side2(t: pa.Table) -> pa.Table:
        return pa.table({
            "node_id": t.column("node_id"),
            "inc": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
            "r": t.column("r"), "outdeg": t.column("outdeg"),
            "is_s": pa.array(np.ones(t.num_rows, bool)),
            "bucket": t.column("bucket")})

    for _ in range(n_iter):
        dangling = state.map_batches(
            lambda t: t.filter(pc.equal(t.column("outdeg"),
                                        pa.scalar(0, pa.int64())))
                       .select(["r"]),
            batch_format="pyarrow").sum("r")
        share = int(dangling or 0) // n

        msgs = (dir_edges.map_batches(edge_side, batch_format="pyarrow")
                .union(state.map_batches(state_side,
                                         batch_format="pyarrow"))
                .groupby("bucket")
                .map_groups(scatter, batch_format="pandas"))

        def fold(g: pd.DataFrame, _share=share) -> pa.Table:
            st = g.loc[g["is_s"], ["node_id", "outdeg"]]
            inc = (g.groupby("node_id", sort=False)["inc"].sum()
                   .reindex(st["node_id"].to_numpy(np.uint64),
                            fill_value=0))
            node = st["node_id"].to_numpy(np.uint64)
            new_r = base + (num * (inc.to_numpy(np.int64) + _share)) // den
            return pa.table({
                "node_id": pa.array(node, pa.uint64()),
                "r": pa.array(new_r.astype(np.int64), pa.int64()),
                "outdeg": pa.array(st["outdeg"].to_numpy(np.int64),
                                   pa.int64()),
                "bucket": pa.array((node % np.uint64(n_buckets))
                                   .astype(np.int64), pa.int64())})

        # repartition bounds the loop-carried block count: union sums
        # block counts, so without it blocks (and sort-shuffle cost)
        # DOUBLE per iteration — measured exponential wall-time growth
        state = (msgs.map_batches(msg_side, batch_format="pyarrow")
                 .union(state.map_batches(state_side2,
                                          batch_format="pyarrow"))
                 .groupby("bucket")
                 .map_groups(fold, batch_format="pandas")
                 .repartition(state_blocks)
                 .materialize())

    def finish(t: pa.Table) -> pa.Table:
        r = t.column("r").to_numpy(zero_copy_only=False)
        return pa.table({
            "node_id": t.column("node_id"),
            "pr_fixed": t.column("r"),
            "pagerank": pa.array(r.astype(np.float64) / float(S),
                                 pa.float64())})

    return state.map_batches(finish, batch_format="pyarrow")


def _directed_both(edges: Dataset, src_col: str, dst_col: str,
                   n_buckets: int) -> Dataset:
    """Both directions of every edge as (k, o), self-loops dropped,
    bucketed by the lookup key — the co-partition layout every
    distributed traversal below shuffles on."""
    def f(t: pa.Table) -> pa.Table:
        s = t.column(src_col).to_numpy(zero_copy_only=False).astype(np.uint64)
        d = t.column(dst_col).to_numpy(zero_copy_only=False).astype(np.uint64)
        keep = s != d
        s, d = s[keep], d[keep]
        k = np.concatenate([s, d])
        o = np.concatenate([d, s])
        return pa.table({
            "k": pa.array(k, pa.uint64()),
            "o": pa.array(o, pa.uint64()),
            "bucket": pa.array((k % n_buckets).astype(np.int64),
                               pa.int64())})

    return (edges.select_columns([src_col, dst_col])
                 .map_batches(f, batch_format="pyarrow"))


def connected_components_distributed(edges: Dataset,
                                     src_col: str = "src_id",
                                     dst_col: str = "dst_id",
                                     max_sweeps: int = 64,
                                     n_buckets: int = 64) -> Dataset:
    """Scale path for :func:`connected_components`: the label table is
    a keyed DATASET (node_id, component_id) — no node-sized driver
    vector anywhere, so it works past the ~10^8-node driver bound.

    Per sweep, two co-partition exchanges (the tag-union bucket-groupby
    machinery shared with stages.joins — ``Dataset.join`` deliberately
    avoided):

    1. message generation: directed edges co-partitioned with labels on
       the source key emit (neighbor, label) candidates; one extra
       (label -> node) row per node implements POINTER JUMPING
       (label := label(label)), which keeps convergence O(log n)
       sweeps instead of O(diameter) — the distributed equivalent of
       the driver path's chase loop.
    2. min-fold: candidates co-partitioned with the current labels take
       the per-node minimum; the fold also counts strict improvements,
       and the sweep loop stops when a sweep improves nothing.

    Labels only ever decrease, so the improvement count reaching zero
    IS the fixpoint.  Parity with the driver path is pinned in pytest
    on multi-component / high-diameter graphs."""
    dir_edges = _directed_both(edges, src_col, dst_col,
                               n_buckets).materialize()

    def init_labels(g: pd.DataFrame) -> pa.Table:
        u = np.unique(g["k"].to_numpy(np.uint64))
        return pa.table({
            "node_id": pa.array(u, pa.uint64()),
            "label": pa.array(u, pa.uint64()),
            "bucket": pa.array((u % np.uint64(n_buckets)).astype(np.int64),
                               pa.int64())})

    labels = (dir_edges.groupby("bucket")
              .map_groups(init_labels, batch_format="pandas")
              .materialize())
    label_blocks = max(1, labels.num_blocks())

    def edge_rows(t: pa.Table) -> pa.Table:
        # 0-filled placeholders, NOT nulls: pandas promotes
        # uint64-with-null to float64 in map_groups, corrupting ids
        # above 2^53 (the md5-derived node ids)
        zero = pa.array(np.zeros(t.num_rows, np.uint64), pa.uint64())
        return pa.table({"node": t.column("k"), "other": t.column("o"),
                         "lab": zero,
                         "is_lab": pa.array(np.zeros(t.num_rows, bool)),
                         "bucket": t.column("bucket")})

    def jump_rows(t: pa.Table) -> pa.Table:
        # (label -> node): a node asks for its label's label
        lab = t.column("label").to_numpy(zero_copy_only=False)
        return pa.table({
            "node": t.column("label"), "other": t.column("node_id"),
            "lab": pa.array(np.zeros(t.num_rows, np.uint64), pa.uint64()),
            "is_lab": pa.array(np.zeros(t.num_rows, bool)),
            "bucket": pa.array((lab % np.uint64(n_buckets))
                               .astype(np.int64), pa.int64())})

    def lab_rows(t: pa.Table) -> pa.Table:
        return pa.table({"node": t.column("node_id"),
                         "other": pa.array(np.zeros(t.num_rows, np.uint64),
                                           pa.uint64()),
                         "lab": t.column("label"),
                         "is_lab": pa.array(np.ones(t.num_rows, bool)),
                         "bucket": t.column("bucket")})

    def resolve(g: pd.DataFrame) -> pa.Table:
        e = g.loc[~g["is_lab"], ["node", "other"]]
        l = g.loc[g["is_lab"], ["node", "lab"]]
        m = e.merge(l, on="node")
        tgt = m["other"].to_numpy(np.uint64)
        return pa.table({
            "node": pa.array(tgt, pa.uint64()),
            "cand": pa.array(m["lab"].to_numpy(np.uint64), pa.uint64()),
            "is_lab": pa.array(np.zeros(len(m), bool)),
            "bucket": pa.array((tgt % np.uint64(n_buckets))
                               .astype(np.int64), pa.int64())})

    def cand_lab_rows(t: pa.Table) -> pa.Table:
        return pa.table({"node": t.column("node_id"),
                         "cand": t.column("label"),
                         "is_lab": pa.array(np.ones(t.num_rows, bool)),
                         "bucket": t.column("bucket")})

    def min_fold(g: pd.DataFrame) -> pa.Table:
        agg = g.groupby("node", sort=False)["cand"].min()
        old = g.loc[g["is_lab"]].set_index("node")["cand"]
        old = old.reindex(agg.index)
        node = agg.index.to_numpy(np.uint64)
        new = agg.to_numpy(np.uint64)
        improved = (new < old.to_numpy(np.uint64)).astype(np.int64)
        return pa.table({
            "node_id": pa.array(node, pa.uint64()),
            "label": pa.array(new, pa.uint64()),
            "bucket": pa.array((node % np.uint64(n_buckets))
                               .astype(np.int64), pa.int64()),
            "improved": pa.array(improved, pa.int64())})

    for _ in range(max_sweeps):
        msgs = (dir_edges.map_batches(edge_rows, batch_format="pyarrow")
                .union(labels.map_batches(jump_rows,
                                          batch_format="pyarrow"))
                .union(labels.map_batches(lab_rows,
                                          batch_format="pyarrow"))
                .groupby("bucket")
                .map_groups(resolve, batch_format="pandas"))
        folded = (msgs.union(labels.map_batches(cand_lab_rows,
                                                batch_format="pyarrow"))
                  .groupby("bucket")
                  .map_groups(min_fold, batch_format="pandas")
                  .materialize())
        improved = folded.sum("improved")
        # repartition bounds loop-carried blocks (else they double per
        # sweep through the unions and sweeps slow exponentially)
        labels = (folded.drop_columns(["improved"])
                  .repartition(label_blocks).materialize())
        if not improved:
            break

    return labels.map_batches(
        lambda t: t.select(["node_id", "label"]).rename_columns(
            ["node_id", "component_id"]),
        batch_format="pyarrow")


def k_hop_distributed(edges: Dataset, n_seeds: int = 5, k: int = 2,
                      src_col: str = "src_id", dst_col: str = "dst_id",
                      seeds: "np.ndarray | None" = None,
                      n_buckets: int = 64) -> Dataset:
    """Scale path for :func:`k_hop`: the visited set and frontier are
    keyed DATASETS; per hop, one co-partition exchange expands the
    frontier (directed edges bucket-grouped with the frontier on the
    lookup key, per-bucket vectorized ``isin``), a second bucket-dedup
    makes reached nodes globally unique (the bucket is a function of
    the node id), and :func:`kgforge.stages.joins.anti_join_keys` on
    its shuffle path subtracts the visited set.  Driver state: the
    seed array and one count per hop.  Parity with the driver path is
    pinned in pytest."""
    dir_edges = _directed_both(edges, src_col, dst_col,
                               n_buckets).materialize()
    if seeds is None:
        # the default seed rule needs the n smallest universe ids —
        # a tiny sorted head, not a node-sized collect
        heads = dir_edges.map_batches(
            lambda t: pa.table({"node_id": pa.array(np.sort(np.unique(
                t.column("k").to_numpy(zero_copy_only=False)))[:n_seeds],
                pa.uint64())}),
            batch_format="pyarrow").to_pandas()
        seeds = np.sort(np.unique(
            heads["node_id"].to_numpy(np.uint64)))[:n_seeds]
    seeds = np.unique(np.asarray(seeds, dtype=np.uint64))

    def seed_table(hops: int) -> pa.Table:
        return pa.table({
            "node_id": pa.array(seeds, pa.uint64()),
            "hops": pa.array(np.full(len(seeds), hops, np.int64),
                             pa.int64()),
            "bucket": pa.array((seeds % np.uint64(n_buckets))
                               .astype(np.int64), pa.int64())})

    visited = ray.data.from_arrow(seed_table(0)).materialize()
    frontier = visited

    def edge_rows(t: pa.Table) -> pa.Table:
        return pa.table({"k": t.column("k"), "o": t.column("o"),
                         "is_f": pa.array(np.zeros(t.num_rows, bool)),
                         "bucket": t.column("bucket")})

    def frontier_rows(t: pa.Table) -> pa.Table:
        # 0-filled placeholder, not null (pandas uint64 promotion trap)
        return pa.table({"k": t.column("node_id"),
                         "o": pa.array(np.zeros(t.num_rows, np.uint64),
                                       pa.uint64()),
                         "is_f": pa.array(np.ones(t.num_rows, bool)),
                         "bucket": t.column("bucket")})

    def expand(g: pd.DataFrame) -> pa.Table:
        fr = g.loc[g["is_f"], "k"].to_numpy(np.uint64)
        e = g.loc[~g["is_f"]]
        hit = np.isin(e["k"].to_numpy(np.uint64), fr)
        out = np.unique(e.loc[hit, "o"].to_numpy(np.uint64))
        return pa.table({
            "node_id": pa.array(out, pa.uint64()),
            "bucket": pa.array((out % np.uint64(n_buckets))
                               .astype(np.int64), pa.int64())})

    def dedup(g: pd.DataFrame) -> pa.Table:
        u = np.unique(g["node_id"].to_numpy(np.uint64))
        return pa.table({
            "node_id": pa.array(u, pa.uint64()),
            "bucket": pa.array((u % np.uint64(n_buckets))
                               .astype(np.int64), pa.int64())})

    from .joins import anti_join_keys
    for hop in range(1, k + 1):
        reached = (dir_edges.map_batches(edge_rows,
                                         batch_format="pyarrow")
                   .union(frontier.map_batches(frontier_rows,
                                               batch_format="pyarrow"))
                   .groupby("bucket")
                   .map_groups(expand, batch_format="pandas")
                   .groupby("bucket")
                   .map_groups(dedup, batch_format="pandas"))
        fresh = anti_join_keys(reached, visited, "node_id", "node_id",
                               strategy="join",
                               num_partitions=n_buckets).materialize()
        if fresh.count() == 0:
            break
        fresh_h = fresh.map_batches(
            lambda t, h=hop: t.append_column(
                "hops", pa.array(np.full(t.num_rows, h, np.int64),
                                 pa.int64())).select(
                ["node_id", "hops", "bucket"]),
            batch_format="pyarrow")
        visited = visited.union(fresh_h).materialize()
        frontier = fresh

    return visited.map_batches(
        lambda t: t.select(["node_id", "hops"]), batch_format="pyarrow")


def k_core_distributed(edges: Dataset, k: int,
                       src_col: str = "src_id", dst_col: str = "dst_id",
                       max_rounds: int = 40,
                       n_buckets: int = 64) -> tuple[Dataset, int]:
    """Scale path for :func:`k_core`: no broadcast survivor vector —
    each peel round computes the degree table as a keyed DATASET
    (per-batch value_counts partials, bucket fold) and keeps edges via
    two shuffle-path :func:`kgforge.stages.joins.semi_join_keys` passes
    (one per endpoint).  Fixpoint when a round removes no edge.
    Driver state: one edge count per round.  Parity with the driver
    path is pinned in pytest."""
    from .joins import semi_join_keys
    canon = edges if {"a", "b"} <= set(edges.schema().names) else \
        _canonical_edges(edges, src_col, dst_col, n_buckets)
    canon = canon.select_columns(["a", "b"]).materialize()
    canon_blocks = max(1, canon.num_blocks())
    m = canon.count()
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        deg = _degree_dataset(canon, n_buckets)
        keep = deg.map_batches(
            lambda t: t.filter(pc.greater_equal(t.column("deg"),
                                                pa.scalar(k))),
            batch_format="pyarrow")
        kept = semi_join_keys(
            semi_join_keys(canon, keep, "a", "node_id",
                           strategy="join", num_partitions=n_buckets),
            keep, "b", "node_id",
            strategy="join",
            num_partitions=n_buckets).repartition(canon_blocks) \
            .materialize()
        m2 = kept.count()
        if m2 == m:
            canon = kept
            break
        canon, m = kept, m2
        if m == 0:
            break
    else:
        raise RuntimeError(
            f"k_core_distributed did not reach its fixpoint in "
            f"{max_rounds} rounds; raise max_rounds")
    out = _degree_dataset(canon, n_buckets).map_batches(
        lambda t: t.select(["node_id", "deg"]).rename_columns(
            ["node_id", "core_degree"]),
        batch_format="pyarrow")
    return out, rounds


def _degree_dataset(canon: Dataset, n_buckets: int) -> Dataset:
    """Undirected degree per node as a keyed Dataset (node_id, deg,
    bucket) — the distributed companion of :func:`_node_degrees`."""
    def partial(t: pa.Table) -> pa.Table:
        ids = np.concatenate([
            t.column("a").to_numpy(zero_copy_only=False),
            t.column("b").to_numpy(zero_copy_only=False)]).astype(np.uint64)
        u, c = np.unique(ids, return_counts=True)
        return pa.table({
            "node_id": pa.array(u, pa.uint64()),
            "n": pa.array(c, pa.int64()),
            "bucket": pa.array((u % np.uint64(n_buckets))
                               .astype(np.int64), pa.int64())})

    def fold(g: pd.DataFrame) -> pa.Table:
        agg = g.groupby("node_id", sort=False)["n"].sum()
        node = agg.index.to_numpy(np.uint64)
        return pa.table({
            "node_id": pa.array(node, pa.uint64()),
            "deg": pa.array(agg.to_numpy(np.int64), pa.int64()),
            "bucket": pa.array((node % np.uint64(n_buckets))
                               .astype(np.int64), pa.int64())})

    return (canon.map_batches(partial, batch_format="pyarrow")
                 .groupby("bucket")
                 .map_groups(fold, batch_format="pandas"))


def k_hop(edges: Dataset, n_seeds: int = 5, k: int = 2,
          src_col: str = "src_id", dst_col: str = "dst_id",
          seeds: "np.ndarray | None" = None, mode: str = "auto",
          driver_node_limit: int | None = None):
    """Undirected k-hop neighborhood (BFS) from a seed set: returns
    (node_id, hops) where hops = minimum number of edges from any seed
    (0 for the seeds themselves), restricted to hops <= k.  Default
    seed rule — the ``n_seeds`` smallest node ids in the edge-connected
    universe — is deterministic and SQL-expressible, so the driver gate
    can oracle it with a bounded recursive CTE.

    Scale shape: the edge list stays distributed and is scanned once
    per hop (k scans total); each scan is a vectorized ``pc.is_in``
    against the broadcast frontier and returns only per-block DISTINCT
    neighbor ids.  Driver state is the visited/frontier vectors —
    bounded by the k-hop neighborhood size, the same node-sized driver
    bound as :func:`pagerank` / :func:`connected_components`.
    Return contract (mirrors :func:`pagerank_fixed`): ``mode="auto"``
    ALWAYS returns a Dataset — past ``driver_node_limit`` nodes
    (default :data:`DRIVER_NODE_LIMIT`) it switches to
    :func:`k_hop_distributed` (visited set and frontier stay keyed
    Datasets, dedup-vs-visited is an anti-join), below it the driver
    result is wrapped, so the caller's type never changes at the gate.
    Explicit ``mode="driver"`` returns the DataFrame.

    Reference: graph traversal happens inside FalkorDB via generated
    Cypher (graphrag_sdk/kg.py ask/query path); here it is a native
    Ray dataflow over the edge table."""
    limit = (DRIVER_NODE_LIMIT if driver_node_limit is None
             else driver_node_limit)
    deg_ds = degree_table(edges, src_col, dst_col).materialize()
    wrap_out = mode == "auto"
    if mode == "auto":
        mode = "driver" if deg_ds.count() <= limit else "distributed"
    if mode == "distributed":
        return k_hop_distributed(edges, n_seeds, k, src_col, dst_col,
                                 seeds)
    if mode != "driver":
        raise ValueError(f"unknown mode {mode!r}")
    deg = deg_ds.to_pandas()
    universe = np.sort(deg["node_id"].to_numpy(np.uint64))
    if len(universe) == 0:
        out = pd.DataFrame({
            "node_id": pd.Series([], dtype=np.uint64),
            "hops": pd.Series([], dtype=np.int64)})
        return ray.data.from_pandas(out) if wrap_out else out
    if seeds is None:
        seeds = universe[:n_seeds]
    seeds = np.unique(np.asarray(seeds, dtype=np.uint64))

    pruned = edges.select_columns([src_col, dst_col]).materialize()
    hops = {int(s): 0 for s in seeds}
    frontier = seeds
    for hop in range(1, k + 1):
        fr_ref = ray.put(frontier)

        def expand(batch: pa.Table) -> pa.Table:
            fr = ray.get(fr_ref)
            s = batch.column(src_col).to_numpy(zero_copy_only=False)
            d = batch.column(dst_col).to_numpy(zero_copy_only=False)
            out = np.concatenate([
                d[np.isin(s, fr)], s[np.isin(d, fr)]])
            return pa.table({"n": pa.array(np.unique(out), pa.uint64())})

        reached = pruned.map_batches(
            expand, batch_format="pyarrow").to_pandas()
        nxt = np.unique(reached["n"].to_numpy(np.uint64)) \
            if len(reached) else np.array([], dtype=np.uint64)
        fresh = np.array([n for n in nxt if int(n) not in hops],
                         dtype=np.uint64)
        for n in fresh:
            hops[int(n)] = hop
        if len(fresh) == 0:
            break
        frontier = fresh

    ids = np.array(sorted(hops), dtype=np.uint64)
    out = pd.DataFrame({
        "node_id": ids,
        "hops": np.array([hops[int(i)] for i in ids], dtype=np.int64)})
    return ray.data.from_pandas(out) if wrap_out else out


def _canonical_edges(edges: Dataset, src_col: str, dst_col: str,
                     n_buckets: int = 64) -> Dataset:
    """Distinct undirected edge set as (a, b) with a < b, self-loops
    dropped — one coarse-bucket shuffle keyed on a mixed (a, b) hash,
    per-bucket vectorized drop_duplicates (no per-edge groups)."""
    MIX = np.uint64(0x9E3779B97F4A7C15)

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column(src_col).to_numpy(zero_copy_only=False)
        d = batch.column(dst_col).to_numpy(zero_copy_only=False)
        keep = s != d
        s, d = s[keep].astype(np.uint64), d[keep].astype(np.uint64)
        a, b = np.minimum(s, d), np.maximum(s, d)
        bk = ((a * MIX + b) & np.uint64(n_buckets - 1)).astype(np.int64)
        return pa.table({"a": pa.array(a, pa.uint64()),
                         "b": pa.array(b, pa.uint64()),
                         "bucket": pa.array(bk, pa.int64())})

    def dedup(g: pd.DataFrame) -> pa.Table:
        g = g[["a", "b"]].drop_duplicates()
        # typed Arrow out: group partitions keep an (a,b) schema (a
        # pandas return degrades empty partitions to schema-less blocks)
        return pa.table({"a": pa.array(g["a"].to_numpy(np.uint64),
                                       pa.uint64()),
                         "b": pa.array(g["b"].to_numpy(np.uint64),
                                       pa.uint64())})

    return (edges.select_columns([src_col, dst_col])
                 .map_batches(canon, batch_format="pyarrow")
                 .groupby("bucket")
                 .map_groups(dedup, batch_format="pandas"))


def _node_degrees(canon: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(sorted node ids, undirected degree per node) from the
    canonical edge set — per-batch value_counts partials, summed on
    the driver.  Node-sized driver state: the same documented bound
    as :func:`pagerank`'s rank vector (~16 B/node)."""
    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "a" not in t.column_names:
            # schema-less empty partition from the group shuffle (more
            # output partitions than buckets at large block counts)
            return pa.table({"node_id": pa.array([], pa.uint64()),
                             "n": pa.array([], pa.int64())})
        ids = np.concatenate([
            t.column("a").to_numpy(zero_copy_only=False),
            t.column("b").to_numpy(zero_copy_only=False)])
        u, c = np.unique(ids, return_counts=True)
        return pa.table({"node_id": pa.array(u, pa.uint64()),
                         "n": pa.array(c, pa.int64())})

    agg = (canon.map_batches(partial, batch_format="pyarrow")
                .to_pandas().groupby("node_id", sort=True)["n"].sum())
    return (agg.index.to_numpy(np.uint64), agg.to_numpy(np.int64))


def triangle_counts(edges: Dataset, src_col: str = "src_id",
                    dst_col: str = "dst_id",
                    n_buckets: int = 64, _precomputed=None) -> Dataset:
    """Per-node triangle participation counts (node_id, n_triangles)
    over the undirected simple graph — nodes in no triangle are
    omitted.  Degree-ordered orientation bounds wedge volume to
    O(m^1.5) regardless of hub skew (each oriented out-degree is
    O(sqrt(m))): every canonical edge is directed from its
    lower-(degree, id) endpoint, wedges (u -> x, u -> y) are generated
    by a per-bucket vectorized self-merge (no per-node loop), and
    wedge-vs-edge matching is a tag-union coarse-bucket shuffle keyed
    on the closing pair (x, y) — the edge set is never broadcast.
    Driver state is the node-sized degree vector only.  The reference
    stops at graph construction (`graphrag_sdk/kg.py` upserts);
    triangle counting is the standard clustering-coefficient /
    community-density read-side primitive."""
    MIX = np.uint64(0x9E3779B97F4A7C15)
    if _precomputed is not None:
        canon, nodes, deg = _precomputed
    else:
        canon = _canonical_edges(edges, src_col, dst_col,
                                 n_buckets).materialize()
        nodes, deg = _node_degrees(canon)
    if len(nodes) == 0:
        return ray.data.from_arrow(pa.table({
            "node_id": pa.array([], pa.uint64()),
            "n_triangles": pa.array([], pa.int64())}))
    nodes_ref = ray.put(nodes)
    deg_ref = ray.put(deg)

    def tagged(batch: pa.Table) -> pa.Table:
        """kind=0: edge rows keyed on their own (a, b); kind=1: wedge
        rows keyed on the closing pair, carrying the center u."""
        nds, dg = ray.get(nodes_ref), ray.get(deg_ref)
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        da, db = dg[np.searchsorted(nds, a)], dg[np.searchsorted(nds, b)]
        # orient from lower (degree, id) to higher; a < b breaks ties
        lo_first = (da < db) | (da == db)
        u = np.where(lo_first, a, b)
        v = np.where(lo_first, b, a)
        ubk = ((u * MIX) & np.uint64(63)).astype(np.int64)
        return pa.table({"u": pa.array(u, pa.uint64()),
                         "v": pa.array(v, pa.uint64()),
                         "wb": pa.array(ubk, pa.int64())})

    oriented = canon.map_batches(tagged, batch_format="pyarrow")

    def wedges(g: pd.DataFrame) -> pa.Table:
        """All (x < y) out-neighbor pairs per center u — vectorized
        self-merge across every u in the bucket at once.  Returns an
        Arrow table so the union with the edge branch stays
        uniformly Arrow-backed."""
        if len(g) == 0:
            m = None
        else:
            e = g[["u", "v"]]
            m = e.merge(e, on="u")
            m = m[m["v_x"] < m["v_y"]]
        if m is None or len(m) == 0:
            return pa.table({"a": pa.array([], pa.uint64()),
                             "b": pa.array([], pa.uint64()),
                             "u": pa.array([], pa.uint64()),
                             "kind": pa.array([], pa.int64())})
        return pa.table({
            "a": pa.array(m["v_x"].to_numpy(np.uint64), pa.uint64()),
            "b": pa.array(m["v_y"].to_numpy(np.uint64), pa.uint64()),
            "u": pa.array(m["u"].to_numpy(np.uint64), pa.uint64()),
            "kind": pa.array(np.ones(len(m), np.int64), pa.int64())})

    wedge_ds = (oriented.groupby("wb")
                .map_groups(wedges, batch_format="pandas"))

    def edge_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({"a": t.column("a"), "b": t.column("b"),
                         "u": pa.array(np.zeros(n, np.uint64),
                                       pa.uint64()),
                         "kind": pa.array(np.zeros(n, np.int64),
                                          pa.int64())})

    union = wedge_ds.union(canon.map_batches(edge_rows,
                                             batch_format="pyarrow"))

    def pair_bucket(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        bk = ((a * MIX + b) & np.uint64(n_buckets - 1)).astype(np.int64)
        return t.append_column("pb", pa.array(bk, pa.int64()))

    def close_and_count(g: pd.DataFrame) -> pd.DataFrame:
        """Inner-join wedges to edges on the closing pair; emit
        per-node triangle-corner count partials."""
        ed = g[g["kind"] == 0][["a", "b"]]
        wd = g[g["kind"] == 1]
        if len(ed) == 0 or len(wd) == 0:
            return pd.DataFrame({
                "node_id": pd.Series([], dtype=np.uint64),
                "n": pd.Series([], dtype=np.int64)})
        tri = wd.merge(ed, on=["a", "b"])
        corners = np.concatenate([tri["u"].to_numpy(np.uint64),
                                  tri["a"].to_numpy(np.uint64),
                                  tri["b"].to_numpy(np.uint64)])
        u, c = np.unique(corners, return_counts=True)
        return pd.DataFrame({"node_id": u, "n": c.astype(np.int64)})

    def node_bucket(t: pa.Table) -> pa.Table:
        i = t.column("node_id").to_numpy(zero_copy_only=False)
        bk = ((i * MIX) & np.uint64(n_buckets - 1)).astype(np.int64)
        return t.append_column("nb", pa.array(bk, pa.int64()))

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({
                "node_id": pd.Series([], dtype=np.uint64),
                "n_triangles": pd.Series([], dtype=np.int64)})
        s = g.groupby("node_id", sort=False)["n"].sum()
        return pd.DataFrame({
            "node_id": s.index.to_numpy(np.uint64),
            "n_triangles": s.to_numpy(np.int64)})

    return (union.map_batches(pair_bucket, batch_format="pyarrow")
            .groupby("pb").map_groups(close_and_count,
                                      batch_format="pandas")
            .map_batches(node_bucket, batch_format="pyarrow")
            .groupby("nb").map_groups(fold, batch_format="pandas"))


def _wedge_candidates(canon, n_buckets: int, nodes_ref, q_ref):
    """Shared candidate machinery for common-neighbor link predictors
    (:func:`neighborhood_jaccard`, :func:`link_prediction_adamic_adar`):
    non-edge distance-2 pairs of the canonical undirected simple graph
    as ``(a, b, inter, s)`` rows, where ``inter`` counts common
    neighbors and ``s`` sums the per-center int64 weight looked up in
    the broadcast ``(nodes, q)`` vectors (pass an all-ones q for plain
    counting).

    Shape: wedge self-merge per center (coarse-bucketed by the center
    id — NEVER all pairs), in-bucket (a, b) combiner, tag-union
    anti-join against the edge set inside ONE pair-bucketed fold.
    ``n_buckets`` must be a power of two (both bucket masks).  Hub
    skew: a degree-d hub contributes C(d, 2) wedges; at web scale cap
    per-center candidate generation (top-d neighbor truncation) — at
    KG density it is exact."""
    MIX = np.uint64(0x9E3779B97F4A7C15)
    wedge_mask = np.uint64(n_buckets - 1)
    empty = pa.table({"a": pa.array([], pa.uint64()),
                      "b": pa.array([], pa.uint64()),
                      "inter": pa.array([], pa.int64()),
                      "s": pa.array([], pa.int64())})

    def symmetrize(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        w = np.concatenate([a, b])
        x = np.concatenate([b, a])
        wb = ((w * MIX) & wedge_mask).astype(np.int64)
        return pa.table({"w": pa.array(w, pa.uint64()),
                         "x": pa.array(x, pa.uint64()),
                         "wb": pa.array(wb, pa.int64())})

    def wedge_partials(g: pd.DataFrame) -> pa.Table:
        """Per-center neighbor pairs weighted by q(center), pre-summed
        per (a, b) within the bucket (combiner) — kind=1 rows."""
        if len(g) == 0:
            m = None
        else:
            e = g[["w", "x"]]
            m = e.merge(e, on="w")
            m = m[m["x_x"] < m["x_y"]]
        if m is None or len(m) == 0:
            return pa.table({"a": pa.array([], pa.uint64()),
                             "b": pa.array([], pa.uint64()),
                             "n": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64()),
                             "kind": pa.array([], pa.int64())})
        nds, q = ray.get(nodes_ref), ray.get(q_ref)
        wq = q[np.searchsorted(nds, m["w"].to_numpy(np.uint64))]
        m = m.assign(_q=wq)
        c = m.groupby(["x_x", "x_y"], as_index=False).agg(
            n=("_q", "size"), s=("_q", "sum"))
        return pa.table({
            "a": pa.array(c["x_x"].to_numpy(np.uint64), pa.uint64()),
            "b": pa.array(c["x_y"].to_numpy(np.uint64), pa.uint64()),
            "n": pa.array(c["n"].to_numpy(np.int64), pa.int64()),
            "s": pa.array(c["s"].to_numpy(np.int64), pa.int64()),
            "kind": pa.array(np.ones(len(c), np.int64), pa.int64())})

    wedge_ds = (canon.map_batches(symmetrize, batch_format="pyarrow")
                .groupby("wb")
                .map_groups(wedge_partials, batch_format="pandas"))

    def edge_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        z = pa.array(np.zeros(n, np.int64), pa.int64())
        return pa.table({"a": t.column("a"), "b": t.column("b"),
                         "n": z, "s": z,
                         "kind": pa.array(np.zeros(n, np.int64),
                                          pa.int64())})

    union = wedge_ds.union(canon.map_batches(edge_rows,
                                             batch_format="pyarrow"))

    def pair_bucket(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        bk = ((a * MIX + b) & np.uint64(n_buckets - 1)).astype(np.int64)
        return t.append_column("pb", pa.array(bk, pa.int64()))

    def fold(g: pd.DataFrame) -> pa.Table:
        """Sum partials per pair; drop pairs that ARE edges (anti-join
        inside the bucket)."""
        wd = g[g["kind"] == 1]
        if len(wd) == 0:
            return empty
        srt = wd.groupby(["a", "b"], as_index=False).agg(
            n=("n", "sum"), s=("s", "sum"))
        ed = g[g["kind"] == 0][["a", "b"]]
        if len(ed):
            srt = srt.merge(ed.assign(_e=1), on=["a", "b"], how="left")
            srt = srt[srt["_e"].isna()]
        if len(srt) == 0:
            return empty
        return pa.table({
            "a": pa.array(srt["a"].to_numpy(np.uint64), pa.uint64()),
            "b": pa.array(srt["b"].to_numpy(np.uint64), pa.uint64()),
            "inter": pa.array(srt["n"].to_numpy(np.int64), pa.int64()),
            "s": pa.array(srt["s"].to_numpy(np.int64), pa.int64())})

    return (union.map_batches(pair_bucket, batch_format="pyarrow")
            .groupby("pb").map_groups(fold, batch_format="pandas"))


def neighborhood_jaccard(edges: Dataset, src_col: str = "src_id",
                         dst_col: str = "dst_id", k: int = 20,
                         n_buckets: int = 64) -> Dataset:
    """Link prediction by neighborhood Jaccard: for every NON-edge
    pair at distance 2, ``|N(u) ∩ N(v)| / |N(u) ∪ N(v)|`` over the
    undirected simple graph; returns the top-k pairs as
    (src_id, dst_id, inter, union_ct, jaccard) ordered by
    (jaccard desc, src_id, dst_id).  Candidate generation / anti-join
    / combiner shape: :func:`_wedge_candidates` (all-ones center
    weight).  Degrees attach from the node-sized broadcast vector
    (:func:`pagerank`'s documented bound); inter/union are integers
    and jaccard is ONE correctly-rounded IEEE division of them, so the
    DuckDB oracle matches bit-for-bit."""
    canon = _canonical_edges(edges, src_col, dst_col, n_buckets)
    canon = canon.materialize()
    nodes, deg = _node_degrees(canon)
    empty = pa.table({"src_id": pa.array([], pa.uint64()),
                      "dst_id": pa.array([], pa.uint64()),
                      "inter": pa.array([], pa.int64()),
                      "union_ct": pa.array([], pa.int64()),
                      "jaccard": pa.array([], pa.float64())})
    if len(nodes) == 0:
        return ray.data.from_arrow(empty)
    nodes_ref = ray.put(nodes)
    deg_ref = ray.put(deg)
    ones_ref = ray.put(np.ones(len(nodes), np.int64))
    pairs = _wedge_candidates(canon, n_buckets, nodes_ref, ones_ref)

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        nds, dg = ray.get(nodes_ref), ray.get(deg_ref)
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        inter = t.column("inter").to_numpy(zero_copy_only=False)
        un = (dg[np.searchsorted(nds, a)]
              + dg[np.searchsorted(nds, b)] - inter)
        jac = inter.astype(np.float64) / un.astype(np.float64)
        return pa.table({"src_id": pa.array(a, pa.uint64()),
                         "dst_id": pa.array(b, pa.uint64()),
                         "inter": pa.array(inter, pa.int64()),
                         "union_ct": pa.array(un, pa.int64()),
                         "jaccard": pa.array(jac, pa.float64())})

    return (pairs.map_batches(finish, batch_format="pyarrow")
            .sort(["jaccard", "src_id", "dst_id"],
                  descending=[True, False, False])
            .limit(k))


def link_prediction_adamic_adar(edges: Dataset,
                                src_col: str = "src_id",
                                dst_col: str = "dst_id", k: int = 20,
                                n_buckets: int = 64) -> Dataset:
    """Adamic-Adar link prediction over the undirected simple graph:
    for every non-edge pair at distance 2,
    ``AA(u, v) = sum over w in N(u) inter N(v) of 1 / ln(deg(w))`` —
    the classic common-neighbor weighting that discounts hub centers.

    Exactness contract (the DSIR discipline,
    :func:`kgforge.stages.retrieval.importance_weights`): the per-node
    weight is quantized ONCE to integer nano-units
    ``q(d) = floor(1e9 / ln(d) + 0.5)`` so pair scores are order-free
    integer sums — SQL-oracle-able without float-summation hazards.
    Wedge centers always have deg >= 2 (a center needs two neighbors
    to form a pair), so ``ln(deg) >= ln 2 > 0`` by construction.

    Candidate generation / anti-join / combiner shape:
    :func:`_wedge_candidates` with the quantized weight as the
    per-center payload.  Output ``(src_id, dst_id, inter, aa_e9, aa)``
    ordered by (aa_e9 desc, src_id, dst_id) limit k — the ordering key
    is the INTEGER score, so ties are deterministic."""
    canon = _canonical_edges(edges, src_col, dst_col, n_buckets)
    canon = canon.materialize()
    nodes, deg = _node_degrees(canon)
    empty = pa.table({"src_id": pa.array([], pa.uint64()),
                      "dst_id": pa.array([], pa.uint64()),
                      "inter": pa.array([], pa.int64()),
                      "aa_e9": pa.array([], pa.int64()),
                      "aa": pa.array([], pa.float64())})
    if len(nodes) == 0:
        return ray.data.from_arrow(empty)
    qdeg = np.zeros(len(deg), np.int64)
    m2 = deg >= 2
    qdeg[m2] = np.floor(
        1e9 / np.log(deg[m2].astype(np.float64)) + 0.5).astype(np.int64)
    nodes_ref = ray.put(nodes)
    q_ref = ray.put(qdeg)
    pairs = _wedge_candidates(canon, n_buckets, nodes_ref, q_ref)

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        aa_e9 = t.column("s").to_numpy(zero_copy_only=False)
        return pa.table({
            "src_id": t.column("a").cast(pa.uint64()),
            "dst_id": t.column("b").cast(pa.uint64()),
            "inter": t.column("inter").cast(pa.int64()),
            "aa_e9": pa.array(aa_e9, pa.int64()),
            "aa": pa.array(aa_e9.astype(np.float64) / 1e9,
                           pa.float64())})

    return (pairs.map_batches(finish, batch_format="pyarrow")
            .sort(["aa_e9", "src_id", "dst_id"],
                  descending=[True, False, False])
            .limit(k))


def link_prediction_preferential(edges: Dataset,
                                 src_col: str = "src_id",
                                 dst_col: str = "dst_id", k: int = 20,
                                 n_buckets: int = 64) -> Dataset:
    """Preferential-attachment link prediction over the undirected
    simple graph: ``PA(u, v) = deg(u) * deg(v)`` — the growth-model
    baseline every link-prediction benchmark reports next to
    Adamic-Adar and Jaccard (Liben-Nowell & Kleinberg 2003).  Scored
    over the same distance-2 non-edge candidate set as the other two
    predictors (the standard evaluation restriction; all-pairs PA is
    a cross join by definition and carries no locality signal).

    Everything is exact integers: candidates from
    :func:`_wedge_candidates` (all-ones center weight), degrees from
    the node-sized broadcast vector, score one int64 product — so the
    DuckDB oracle matches bit-for-bit and top-k ties are
    deterministic (pa_score desc, src_id, dst_id)."""
    canon = _canonical_edges(edges, src_col, dst_col, n_buckets)
    canon = canon.materialize()
    nodes, deg = _node_degrees(canon)
    empty = pa.table({"src_id": pa.array([], pa.uint64()),
                      "dst_id": pa.array([], pa.uint64()),
                      "inter": pa.array([], pa.int64()),
                      "pa_score": pa.array([], pa.int64())})
    if len(nodes) == 0:
        return ray.data.from_arrow(empty)
    nodes_ref = ray.put(nodes)
    deg_ref = ray.put(deg)
    ones_ref = ray.put(np.ones(len(nodes), np.int64))
    pairs = _wedge_candidates(canon, n_buckets, nodes_ref, ones_ref)

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        nds, dg = ray.get(nodes_ref), ray.get(deg_ref)
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        score = (dg[np.searchsorted(nds, a)]
                 * dg[np.searchsorted(nds, b)])
        return pa.table({
            "src_id": pa.array(a, pa.uint64()),
            "dst_id": pa.array(b, pa.uint64()),
            "inter": t.column("inter").cast(pa.int64()),
            "pa_score": pa.array(score, pa.int64())})

    return (pairs.map_batches(finish, batch_format="pyarrow")
            .sort(["pa_score", "src_id", "dst_id"],
                  descending=[True, False, False])
            .limit(k))


def katz_fixed(edges: Dataset, src_col: str = "src_id",
               dst_col: str = "dst_id", n_iter: int = 5,
               scale_bits: int = 30) -> Dataset:
    """Deterministic fixed-point Katz centrality over the undirected
    simple graph: ``x[v] = beta + alpha * sum over u in N(v) of x[u]``
    iterated ``n_iter`` times from ``x0 = beta`` — the classic
    attenuated-path centrality (Katz 1953) that, unlike PageRank,
    rewards raw reach without out-degree normalization.

    Integer recurrence (the :func:`pagerank_fixed` discipline, so the
    DuckDB oracle — an unrolled MATERIALIZED CTE chain — reproduces it
    bit-for-bit): ``beta = S = 2**scale_bits`` and the attenuation is
    ``alpha = 1/den`` with ``den = 2*max_degree + 1`` chosen from the
    data, which guarantees convergence (``alpha < 1/lambda_max``
    because ``lambda_max <= max_degree``) AND a mass bound: the
    geometric series is dominated by ratio ``max_degree/den < 1/2``,
    so ``x < 2*S`` always fits int64.  Per-edge contributions are
    ``x[u] // den`` (each an exact integer, so distributed summation
    is order-free).

    Dataflow: the canonical edge list is indexed ONCE and stays
    distributed; each iteration broadcasts the node-sized int64 vector
    and folds per-block ``np.add.at`` scatter partials — identical
    shape to :func:`pagerank_fixed` (node-sized driver state is the
    documented ~16 B/node bound; the keyed-Dataset scale path of
    ``pagerank_fixed_distributed`` applies verbatim past that).
    Returns a Dataset of ``(node_id, den, katz_fixed, katz)`` with
    ``katz = katz_fixed / S`` exactly representable."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    if scale_bits > 31:
        raise ValueError(
            "scale_bits > 31 can overflow the 2*S int64 mass bound "
            "under the edge-count multiplier")
    canon = _canonical_edges(edges, src_col, dst_col).materialize()
    nodes, deg = _node_degrees(canon)
    empty = pa.table({"node_id": pa.array([], pa.uint64()),
                      "den": pa.array([], pa.int64()),
                      "katz_fixed": pa.array([], pa.int64()),
                      "katz": pa.array([], pa.float64())})
    if len(nodes) == 0:
        return ray.data.from_arrow(empty)
    den = 2 * int(deg.max()) + 1
    nodes_ref = ray.put(nodes)

    def index_edges(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.table({"ai": pa.array([], pa.int64()),
                             "bi": pa.array([], pa.int64())})
        nds = ray.get(nodes_ref)
        a = np.searchsorted(nds, batch.column("a")
                            .to_numpy(zero_copy_only=False))
        b = np.searchsorted(nds, batch.column("b")
                            .to_numpy(zero_copy_only=False))
        return pa.table({"ai": pa.array(a, pa.int64()),
                         "bi": pa.array(b, pa.int64())})

    indexed = canon.map_batches(index_edges,
                                batch_format="pyarrow").materialize()
    n = len(nodes)
    S = 1 << scale_bits
    x = np.full(n, S, np.int64)
    for _ in range(n_iter):
        contrib_ref = ray.put(x // den)

        def scatter(batch: pa.Table) -> pa.Table:
            c = ray.get(contrib_ref)
            ai = batch.column("ai").to_numpy()
            bi = batch.column("bi").to_numpy()
            sums = np.zeros(len(c), np.int64)
            np.add.at(sums, bi, c[ai])
            np.add.at(sums, ai, c[bi])
            nz = np.flatnonzero(sums)
            return pa.table({"i": pa.array(nz, pa.int64()),
                             "s": pa.array(sums[nz], pa.int64())})

        parts = indexed.map_batches(scatter,
                                    batch_format="pyarrow").to_pandas()
        incoming = np.zeros(n, np.int64)
        if len(parts):
            np.add.at(incoming, parts["i"].to_numpy(np.int64),
                      parts["s"].to_numpy(np.int64))
        x = S + incoming
    out = pa.table({
        "node_id": pa.array(nodes, pa.uint64()),
        "den": pa.array(np.full(n, den, np.int64), pa.int64()),
        "katz_fixed": pa.array(x, pa.int64()),
        "katz": pa.array(x.astype(np.float64) / float(S),
                         pa.float64())})
    return ray.data.from_arrow(out)


def bfs_distances(edges: Dataset, n_hops: int = 6,
                  src_col: str = "src_id", dst_col: str = "dst_id",
                  n_buckets: int = 64) -> Dataset:
    """Hop-labeled BFS over the undirected simple graph from a
    DETERMINISTIC seed (the smallest node id): ``(node_id, dist)`` for
    every node within ``n_hops`` — the distance-labeling primitive
    under k-hop audience queries, eccentricity estimates and
    seed-centric graph debugging (``k_hop`` returns membership only;
    this labels WHICH hop).

    Fixed ``n_hops`` unroll (the k-core/PageRank oracle discipline —
    a data-dependent loop length can't be a static SQL string);
    everything is integer, so the unrolled LEFT-JOIN CTE chain in the
    oracle is bit-exact.  Dataflow: canonical edge list indexed once
    and kept distributed; per hop, one sparse frontier-neighbor
    scatter against the broadcast distance vector (node-sized driver
    state — :func:`pagerank_fixed`'s documented bound)."""
    if n_hops < 1:
        raise ValueError("n_hops must be >= 1")
    canon = _canonical_edges(edges, src_col, dst_col,
                             n_buckets).materialize()
    nodes, _deg = _node_degrees(canon)
    empty = pa.table({"node_id": pa.array([], pa.uint64()),
                      "dist": pa.array([], pa.int64())})
    if len(nodes) == 0:
        return ray.data.from_arrow(empty)
    nodes_ref = ray.put(nodes)

    def index_edges(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.table({"ai": pa.array([], pa.int64()),
                             "bi": pa.array([], pa.int64())})
        nds = ray.get(nodes_ref)
        a = np.searchsorted(nds, batch.column("a")
                            .to_numpy(zero_copy_only=False))
        b = np.searchsorted(nds, batch.column("b")
                            .to_numpy(zero_copy_only=False))
        return pa.table({"ai": pa.array(a, pa.int64()),
                         "bi": pa.array(b, pa.int64())})

    indexed = canon.map_batches(index_edges,
                                batch_format="pyarrow").materialize()
    n = len(nodes)
    dist = np.full(n, -1, np.int64)
    dist[0] = 0                      # nodes is sorted: seed = min id
    for h in range(1, n_hops + 1):
        dist_ref = ray.put(dist)
        hm1 = h - 1

        def frontier_scatter(batch: pa.Table) -> pa.Table:
            d = ray.get(dist_ref)
            ai = batch.column("ai").to_numpy()
            bi = batch.column("bi").to_numpy()
            hit = np.zeros(len(d), bool)
            hit[bi[d[ai] == hm1]] = True
            hit[ai[d[bi] == hm1]] = True
            nz = np.flatnonzero(hit & (d == -1))
            return pa.table({"i": pa.array(nz, pa.int64())})

        parts = indexed.map_batches(frontier_scatter,
                                    batch_format="pyarrow").to_pandas()
        if len(parts) == 0:
            break
        dist[parts["i"].to_numpy(np.int64)] = h
    keep = dist >= 0
    return ray.data.from_arrow(pa.table({
        "node_id": pa.array(nodes[keep], pa.uint64()),
        "dist": pa.array(dist[keep], pa.int64())}))


def degree_assortativity(edges: Dataset, src_col: str = "src_id",
                         dst_col: str = "dst_id",
                         n_buckets: int = 64) -> Dataset:
    """Degree assortativity coefficient of the undirected simple graph
    (Newman 2002): the Pearson correlation of the degrees at either
    end of an edge, computed over both orientations of every edge —
    one scalar that says whether hubs attach to hubs (> 0, social
    graphs) or to leaves (< 0, web/biology graphs).

    Exactness contract (the ``grouped_corr`` discipline,
    ``kgforge.stages.relational``): moments are EXACT arbitrary-
    precision integers — per-block partials accumulate Python ints
    over the broadcast degree vector, the driver folds the tiny
    O(blocks) partial table, and the coefficient is the same mirrored
    IEEE finish (three rounded casts + sqrt·sqrt + one division), so
    the DuckDB oracle gates bit-exactly.  Symmetry note: over both
    orientations ``sx == sy`` and ``sxx == syy`` by construction; the
    engine still carries them separately so the finish is op-for-op
    the oracle's.

    Dataflow: canonical edge set (one bucket shuffle) → per-block
    integer moment partials against the node-sized broadcast degree
    vector → driver fold of O(blocks) rows.  Output: ONE row
    ``(n_nodes, n_edges, assortativity)``; empty graph → empty
    table."""
    import math
    canon = _canonical_edges(edges, src_col, dst_col,
                             n_buckets).materialize()
    nodes, deg = _node_degrees(canon)
    empty = pa.table({"n_nodes": pa.array([], pa.int64()),
                      "n_edges": pa.array([], pa.int64()),
                      "assortativity": pa.array([], pa.float64())})
    if len(nodes) == 0:
        return ray.data.from_arrow(empty)
    nodes_ref = ray.put(nodes)
    deg_ref = ray.put(deg)
    dec = pa.decimal128(38, 0)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "a" not in t.column_names:
            return pa.table({"m": pa.array([], pa.int64()),
                             "sx": pa.array([], pa.int64()),
                             "sxx": pa.array([], dec),
                             "sxy": pa.array([], dec)})
        nds, dg = ray.get(nodes_ref), ray.get(deg_ref)
        da = dg[np.searchsorted(
            nds, t.column("a").to_numpy(zero_copy_only=False))]
        db = dg[np.searchsorted(
            nds, t.column("b").to_numpy(zero_copy_only=False))]
        ao, bo = da.astype(object), db.astype(object)
        # both orientations of every edge: sx == sy, sxx == syy
        return pa.table({
            "m": pa.array([2 * t.num_rows], pa.int64()),
            "sx": pa.array([int((ao + bo).sum())], pa.int64()),
            "sxx": pa.array([int((ao * ao + bo * bo).sum())], dec),
            "sxy": pa.array([int((2 * ao * bo).sum())], dec)})

    m = sx = sxx = sxy = 0
    for row in canon.map_batches(partial,
                                 batch_format="pyarrow").take_all():
        m += int(row["m"]); sx += int(row["sx"])
        sxx += int(row["sxx"]); sxy += int(row["sxy"])
    num = float(m * sxy - sx * sx)
    den = (math.sqrt(float(m * sxx - sx * sx))
           * math.sqrt(float(m * sxx - sx * sx)))
    r = num / den if den != 0.0 else 0.0
    return ray.data.from_arrow(pa.table({
        "n_nodes": pa.array([len(nodes)], pa.int64()),
        "n_edges": pa.array([m // 2], pa.int64()),
        "assortativity": pa.array([r], pa.float64())}))


def two_hop_reach(edges: Dataset, src_col: str = "src_id",
                  dst_col: str = "dst_id",
                  n_buckets: int = 64) -> Dataset:
    """Per-node 2-hop reach over the undirected simple graph:
    ``reach2(v) = |{u : 1 <= dist(v, u) <= 2}|`` — the
    friend-of-friend audience size used for influence estimation and
    for sizing negative-sampling pools in graph-embedding training.

    Pure composition of existing exact machinery:
    ``reach2 = deg(v) + #distance-2-non-edge candidate pairs touching
    v`` — the candidate set from :func:`_wedge_candidates` is exactly
    the distinct distance-2 non-neighbor pairs, so no new exchange
    shape; one extra per-node count fold over the candidate rows plus
    the node-sized broadcast degree vector.  All integers → bit-exact
    oracle."""
    canon = _canonical_edges(edges, src_col, dst_col,
                             n_buckets).materialize()
    nodes, deg = _node_degrees(canon)
    empty = pa.table({"node_id": pa.array([], pa.uint64()),
                      "degree": pa.array([], pa.int64()),
                      "n_dist2": pa.array([], pa.int64()),
                      "reach2": pa.array([], pa.int64())})
    if len(nodes) == 0:
        return ray.data.from_arrow(empty)
    nodes_ref = ray.put(nodes)
    ones_ref = ray.put(np.ones(len(nodes), np.int64))
    pairs = _wedge_candidates(canon, n_buckets, nodes_ref, ones_ref)

    def count_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "a" not in t.column_names:
            return pa.table({"i": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        nds = ray.get(nodes_ref)
        sums = np.zeros(len(nds), np.int64)
        np.add.at(sums, np.searchsorted(
            nds, t.column("a").to_numpy(zero_copy_only=False)), 1)
        np.add.at(sums, np.searchsorted(
            nds, t.column("b").to_numpy(zero_copy_only=False)), 1)
        nz = np.flatnonzero(sums)
        return pa.table({"i": pa.array(nz, pa.int64()),
                         "c": pa.array(sums[nz], pa.int64())})

    parts = pairs.map_batches(count_partial,
                              batch_format="pyarrow").to_pandas()
    n_dist2 = np.zeros(len(nodes), np.int64)
    if len(parts):
        np.add.at(n_dist2, parts["i"].to_numpy(np.int64),
                  parts["c"].to_numpy(np.int64))
    return ray.data.from_arrow(pa.table({
        "node_id": pa.array(nodes, pa.uint64()),
        "degree": pa.array(deg, pa.int64()),
        "n_dist2": pa.array(n_dist2, pa.int64()),
        "reach2": pa.array(deg + n_dist2, pa.int64())}))


def clustering_coefficient(edges: Dataset, src_col: str = "src_id",
                           dst_col: str = "dst_id",
                           n_buckets: int = 64) -> pd.DataFrame:
    """Per-node local clustering coefficient
    ``2*T(v) / (deg(v) * (deg(v)-1))`` for every node with degree >= 2
    (isolated/leaf nodes have no defined coefficient) — the standard
    community-density read-out on top of :func:`triangle_counts`.
    Returns a node-sized pandas DataFrame (node_id, degree,
    n_triangles, clustering), the same driver bound as
    :func:`pagerank` / :func:`connected_components`.  The numerator
    and denominator are exact integers; the coefficient is ONE IEEE
    division, so the DuckDB oracle matches bit-for-bit."""
    canon = _canonical_edges(edges, src_col, dst_col,
                             n_buckets).materialize()
    nodes, deg = _node_degrees(canon)
    if len(nodes) == 0:
        return pd.DataFrame({
            "node_id": pd.Series([], dtype=np.uint64),
            "degree": pd.Series([], dtype=np.int64),
            "n_triangles": pd.Series([], dtype=np.int64),
            "clustering": pd.Series([], dtype=np.float64)})
    tri = triangle_counts(edges, src_col, dst_col, n_buckets,
                          _precomputed=(canon, nodes, deg)).to_pandas()
    t = np.zeros(len(nodes), np.int64)
    if len(tri):
        pos = np.searchsorted(nodes, tri["node_id"].to_numpy(np.uint64))
        t[pos] = tri["n_triangles"].to_numpy(np.int64)
    keep = deg >= 2
    d = deg[keep]
    tk = t[keep]
    cc = (2 * tk).astype(np.float64) / (d * (d - 1)).astype(np.float64)
    return pd.DataFrame({"node_id": nodes[keep],
                         "degree": d,
                         "n_triangles": tk,
                         "clustering": cc})


def k_core(edges: Dataset, k: int, src_col: str = "src_id",
           dst_col: str = "dst_id", max_rounds: int = 40,
           n_buckets: int = 64, mode: str = "auto",
           driver_node_limit: int | None = None) -> tuple[Dataset, int]:
    """The k-core of the undirected graph: the maximal subgraph where
    every node has degree ≥ k, found by iterative peeling.

    Distributed shape: the canonical edge set is materialized ONCE and
    stays put; each round broadcasts the surviving-node set (node-sized,
    the same documented driver bound as :func:`pagerank`'s rank vector),
    one ``map_batches`` pass over the edge blocks computes surviving-
    degree partials with sorted-array membership (``searchsorted``, no
    per-edge Python), and the driver folds a node-sized degree vector
    and peels.  Rounds are data-dependent but small in practice
    (each round removes every node made deficient by the previous
    round); the loop stops at the fixpoint.

    Returns ``(dataset of (node_id, core_degree), rounds_used)`` —
    ``core_degree`` is the node's degree INSIDE the k-core.  The
    bounded-unroll SQL oracle replays exactly this fixpoint; pytest
    asserts convergence within its round budget.

    ``mode="auto"`` switches to :func:`k_core_distributed` (degree
    table stays a keyed Dataset, survivors kept via shuffle semi-joins
    — no broadcast survivor vector) when the node universe exceeds
    ``driver_node_limit``; node count is bounded by 2x the canonical
    edge count, which is what the cheap gate checks."""
    limit = (DRIVER_NODE_LIMIT if driver_node_limit is None
             else driver_node_limit)
    canon = edges if {"a", "b"} <= set(edges.schema().names) else \
        _canonical_edges(edges, src_col, dst_col, n_buckets)
    canon = canon.materialize()
    if mode == "auto":
        mode = "driver" if 2 * canon.count() <= limit else "distributed"
    if mode == "distributed":
        return k_core_distributed(canon, k, src_col, dst_col,
                                  max_rounds, n_buckets)
    if mode != "driver":
        raise ValueError(f"unknown mode {mode!r}")
    nodes, deg = _node_degrees(canon)
    active_ids = nodes[deg >= k] if k > 0 else nodes
    rounds = 0
    last_deg = np.zeros(0, dtype=np.int64)
    while rounds < max_rounds:
        rounds += 1
        ref = ray.put(active_ids)          # sorted

        def part(t: pa.Table) -> pa.Table:
            act = ray.get(ref)
            a = t.column("a").to_numpy(zero_copy_only=False)
            b = t.column("b").to_numpy(zero_copy_only=False)
            ia = np.searchsorted(act, a)
            ib = np.searchsorted(act, b)
            ka = (ia < len(act)) & (act[np.minimum(ia, len(act) - 1)] == a) \
                if len(act) else np.zeros(len(a), bool)
            kb = (ib < len(act)) & (act[np.minimum(ib, len(act) - 1)] == b) \
                if len(act) else np.zeros(len(b), bool)
            keep = ka & kb
            ids = np.concatenate([a[keep], b[keep]])
            u, c = np.unique(ids, return_counts=True)
            return pa.table({"node_id": pa.array(u, pa.uint64()),
                             "n": pa.array(c, pa.int64())})

        agg = (canon.map_batches(part, batch_format="pyarrow")
                    .to_pandas().groupby("node_id", sort=True)["n"].sum())
        cur_ids = agg.index.to_numpy(np.uint64)
        cur_deg = agg.to_numpy(np.int64)
        ok = cur_deg >= k
        new_active = cur_ids[ok]
        if len(new_active) == len(active_ids) and \
                np.array_equal(new_active, active_ids):
            last_deg = cur_deg[ok]
            break
        active_ids = new_active
        last_deg = cur_deg[ok]
        if len(active_ids) == 0:
            break
    else:
        # a silent non-converged result would be a subgraph that is NOT
        # a k-core, with degrees counted against already-peeled nodes
        raise RuntimeError(
            f"k_core did not reach its fixpoint in {max_rounds} rounds; "
            "raise max_rounds (long path-like peel chains need ~diameter "
            "rounds)")
    out = pa.table({"node_id": pa.array(active_ids, pa.uint64()),
                    "core_degree": pa.array(last_deg, pa.int64())})
    return ray.data.from_arrow(out), rounds


def _pair_key_column(a: np.ndarray, b: np.ndarray) -> pa.Array:
    """Collision-free canonical pair key ``"min:max"`` (decimal strings
    — exact for full-range uint64, unlike any 64-bit mixed hash).
    Fully vectorized: this runs on the SCALE path, where a per-row
    Python str() loop would be the bottleneck it exists to avoid."""
    lo = np.minimum(a, b).astype(np.uint64)
    hi = np.maximum(a, b).astype(np.uint64)
    return pc.binary_join_element_wise(
        pc.cast(pa.array(lo, pa.uint64()), pa.string()),
        pc.cast(pa.array(hi, pa.uint64()), pa.string()), ":")


def negative_edge_samples(edges: Dataset, k: int = 5,
                          src_col: str = "src_id",
                          dst_col: str = "dst_id",
                          salt: str = "neg",
                          pair_strategy: str = "auto",
                          broadcast_pair_limit: int = 50_000_000) -> Dataset:
    """Deterministic negative-edge sampling for link-prediction /
    contrastive training: each node proposes ``k`` pseudo-random
    candidate partners (md5-derived index into the sorted node vector),
    then candidates that are self-loops or EXISTING edges are dropped
    (no resampling — the deterministic drop is what keeps the sample
    SQL-re-derivable and identical across cluster sizes/reruns).

    Distributed shape: the sorted node vector broadcasts once
    (node-sized, the pagerank bound); candidate generation is an
    embarrassingly-parallel ``map_batches`` over the node list.  The
    existing-edge filter is size-gated like the repo's joins: below
    ``broadcast_pair_limit`` edges the pair set broadcasts (``ray.put``
    once, one in-batch membership test); above it the SCALE PATH
    anti-joins candidates against the canonical edge set on an exact
    ``"min:max"`` pair key (``joins.anti_join_keys`` tag-union shuffle
    — no edge-sized driver state).  Paths are output-identical (pinned
    in pytest, the ``test_join_strategy_parity`` pattern); force one
    with ``pair_strategy="broadcast"|"join"``."""
    import hashlib

    canon = edges if {"a", "b"} <= set(edges.schema().names) else \
        _canonical_edges(edges, src_col, dst_col)
    canon = canon.materialize()
    nodes, _deg = _node_degrees(canon)
    if len(nodes) == 0:          # no (non-self-loop) edges at all
        return ray.data.from_arrow(pa.table({
            "src_id": pa.array([], pa.uint64()),
            "sample_j": pa.array([], pa.int64()),
            "neg_id": pa.array([], pa.uint64())}))
    if pair_strategy == "auto":
        pair_strategy = ("broadcast"
                         if canon.count() <= broadcast_pair_limit
                         else "join")
    nodes_ref = ray.put(nodes)
    n_nodes = len(nodes)

    def gen(t: pa.Table) -> pa.Table:
        """Candidates with self-loops dropped; existing-edge filter is
        applied by the strategy-specific stage below."""
        nd = ray.get(nodes_ref)
        out_u, out_j, out_v = [], [], []
        for u in t.column("node_id").to_pylist():
            ui = int(u)
            for j in range(k):
                idx = int(hashlib.md5(
                    f"{ui}:{j}:{salt}".encode("utf-8")).hexdigest()[:16],
                    16) % n_nodes
                v = int(nd[idx])
                if v == ui:
                    continue
                out_u.append(ui)
                out_j.append(j)
                out_v.append(v)
        return pa.table({
            "src_id": pa.array(np.asarray(out_u, dtype=np.uint64),
                               pa.uint64()),
            "sample_j": pa.array(out_j, pa.int64()),
            "neg_id": pa.array(np.asarray(out_v, dtype=np.uint64),
                               pa.uint64())})

    node_ds = ray.data.from_arrow(pa.table({
        "node_id": pa.array(nodes, pa.uint64())}))
    cands = node_ds.map_batches(gen, batch_format="pyarrow")

    if pair_strategy == "broadcast":
        pair_set = set()
        for t in canon.to_arrow_refs():
            tt = ray.get(t)
            if tt.num_rows == 0 or "a" not in tt.column_names:
                continue  # schema-less empty partition (_node_degrees)
            for a, b in zip(tt.column("a").to_pylist(),
                            tt.column("b").to_pylist()):
                pair_set.add((int(a), int(b)))
        pairs_ref = ray.put(pair_set)

        def drop_existing(t: pa.Table) -> pa.Table:
            pairs = ray.get(pairs_ref)
            u = t.column("src_id").to_numpy(zero_copy_only=False)
            v = t.column("neg_id").to_numpy(zero_copy_only=False)
            keep = np.fromiter(
                ((min(int(a), int(b)), max(int(a), int(b))) not in pairs
                 for a, b in zip(u, v)), dtype=bool, count=len(u))
            return t.filter(pa.array(keep))

        return cands.map_batches(drop_existing, batch_format="pyarrow")

    # scale path: exact-key anti-join, edges never land on the driver
    from .joins import anti_join_keys

    def with_key(t: pa.Table) -> pa.Table:
        return t.append_column("pair_key", _pair_key_column(
            t.column("src_id").to_numpy(zero_copy_only=False),
            t.column("neg_id").to_numpy(zero_copy_only=False)))

    def canon_key(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "a" not in t.column_names:
            return pa.table({"pair_key": pa.array([], pa.string())})
        return pa.table({"pair_key": _pair_key_column(
            t.column("a").to_numpy(zero_copy_only=False),
            t.column("b").to_numpy(zero_copy_only=False))})

    kept = anti_join_keys(
        cands.map_batches(with_key, batch_format="pyarrow"),
        canon.map_batches(canon_key, batch_format="pyarrow"),
        "pair_key", "pair_key", strategy="join")
    return kept.select_columns(["src_id", "sample_j", "neg_id"])


def _walk_adjacency(edges: Dataset, src_col: str, dst_col: str,
                    n_buckets: int) -> Dataset:
    """Ranked adjacency of the undirected simple graph as a Dataset:
    ``(u, v, rnk, deg, bucket)`` where ``rnk`` is v's 0-based position
    in u's ascending neighbor list and ``deg`` = |N(u)| — the indexable
    form a deterministic walk step needs (one row lookup per step).
    One coarse-bucket shuffle keyed on u; per-bucket vectorized rank."""
    canon = _canonical_edges(edges, src_col, dst_col, n_buckets)

    def both_dirs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "a" not in t.column_names:
            return pa.table({"u": pa.array([], pa.uint64()),
                             "v": pa.array([], pa.uint64()),
                             "bucket": pa.array([], pa.int64())})
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        u = np.concatenate([a, b]).astype(np.uint64)
        v = np.concatenate([b, a]).astype(np.uint64)
        return pa.table({
            "u": pa.array(u, pa.uint64()),
            "v": pa.array(v, pa.uint64()),
            "bucket": pa.array((u % np.uint64(n_buckets))
                               .astype(np.int64), pa.int64())})

    def rank_fold(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            return pa.table({"u": pa.array([], pa.uint64()),
                             "v": pa.array([], pa.uint64()),
                             "rnk": pa.array([], pa.int64()),
                             "deg": pa.array([], pa.int64())})
        g = g.sort_values(["u", "v"])
        rnk = g.groupby("u", sort=False).cumcount().to_numpy(np.int64)
        deg = (g.groupby("u", sort=False)["v"].transform("size")
               .to_numpy(np.int64))
        return pa.table({
            "u": pa.array(g["u"].to_numpy(np.uint64), pa.uint64()),
            "v": pa.array(g["v"].to_numpy(np.uint64), pa.uint64()),
            "rnk": pa.array(rnk, pa.int64()),
            "deg": pa.array(deg, pa.int64())})

    return (canon.map_batches(both_dirs, batch_format="pyarrow")
                 .groupby("bucket")
                 .map_groups(rank_fold, batch_format="pandas"))


def _walk_hash(starts, reps, step: int) -> np.ndarray:
    """uint64 choice hash per walk row: first 16 hex chars of
    ``md5(f"{start}:{rep}:{step}")`` — md5-derived precisely so the
    oracle can rebuild every step
    (``('0x' || substr(md5(s || ':' || r || ':' || t), 1, 16))``)."""
    import hashlib
    return np.fromiter(
        (int(hashlib.md5(f"{s}:{r}:{step}".encode()).hexdigest()[:16],
             16) for s, r in zip(starts, reps)),
        dtype=np.uint64, count=len(starts))


def deterministic_walks(edges: Dataset, n_walks: int = 2,
                        walk_len: int = 3, src_col: str = "src_id",
                        dst_col: str = "dst_id", mode: str = "auto",
                        driver_adj_limit: int | None = None,
                        n_buckets: int = 64) -> Dataset:
    """DeepWalk-style walk-corpus generation (Perozzi et al. 2014) with
    DETERMINISTIC neighbor choice: from every node of the undirected
    simple graph, ``n_walks`` walks of ``walk_len`` steps; at step t
    the walk at node u moves to u's ascending-sorted neighbor number
    ``md5(f"{start}:{rep}:{t}") % deg(u)``.  Hash-seeded instead of
    RNG-seeded so re-runs are byte-identical regardless of
    partitioning AND the whole corpus is SQL-re-derivable (walks never
    die: every node in the edge universe has deg >= 1).  Returns
    ``(start_id, rep, step, node_id)`` rows — step 0 is the start.

    Scale shape: the ranked adjacency (2|E| rows) stays a Dataset.
    Below ``driver_adj_limit`` rows it is collected once and broadcast
    via ``ray.put`` (the k_hop frontier discipline) and each step is
    one ``map_batches`` over the walk-state Dataset — zero per-step
    shuffles.  Above the limit, each step is two coarse-bucket
    tag-union shuffle joins of the state against the keyed adjacency
    ((cur)->deg to pick the neighbor rank, then (cur, rnk)->v), the
    same exchange shape as ``k_hop_distributed`` — no driver state at
    any size.  Both paths are output-identical (pinned in pytest).

    The reference has no walk generator (graph access is Cypher via
    FalkorDB, graphrag_sdk/kg.py); this extends the SURVEY.md §2 graph
    family as the training-data exporter for graph embeddings."""
    from .joins import _broadcast_cache
    limit = (DRIVER_NODE_LIMIT if driver_adj_limit is None
             else driver_adj_limit)
    adj = _walk_adjacency(edges, src_col, dst_col,
                          n_buckets).materialize()
    n_adj = adj.count()
    if n_adj == 0:
        # empty graph: typed empty corpus (group shuffles can emit
        # schema-less empty partitions — don't touch adj further)
        return ray.data.from_arrow(pa.table({
            "start_id": pa.array([], pa.uint64()),
            "rep": pa.array([], pa.int64()),
            "step": pa.array([], pa.int64()),
            "node_id": pa.array([], pa.uint64())}))
    if mode == "auto":
        mode = "broadcast" if n_adj <= limit else "distributed"

    def starts(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "u" not in t.column_names:
            return pa.table({"start_id": pa.array([], pa.uint64()),
                             "rep": pa.array([], pa.int64()),
                             "cur": pa.array([], pa.uint64())})
        first = t.filter(pc.equal(t.column("rnk"), 0))
        u = first.column("u").to_numpy(zero_copy_only=False)
        s = np.repeat(u, n_walks)
        r = np.tile(np.arange(n_walks, dtype=np.int64), len(u))
        return pa.table({"start_id": pa.array(s, pa.uint64()),
                         "rep": pa.array(r, pa.int64()),
                         "cur": pa.array(s, pa.uint64())})

    state = adj.map_batches(starts, batch_format="pyarrow").materialize()

    def emit(ds: Dataset, step: int) -> Dataset:
        def fmt(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "cur" not in t.column_names:
                return pa.table({
                    "start_id": pa.array([], pa.uint64()),
                    "rep": pa.array([], pa.int64()),
                    "step": pa.array([], pa.int64()),
                    "node_id": pa.array([], pa.uint64())})
            return pa.table({
                "start_id": t.column("start_id"),
                "rep": t.column("rep"),
                "step": pa.array(np.full(t.num_rows, step, np.int64),
                                 pa.int64()),
                "node_id": t.column("cur")})
        return ds.map_batches(fmt, batch_format="pyarrow")

    outputs = [emit(state, 0)]

    if mode == "broadcast":
        adj_pd = adj.to_pandas().sort_values(["u", "rnk"])
        nbrs = {int(u): sub["v"].to_numpy(np.uint64)
                for u, sub in adj_pd.groupby("u", sort=False)}
        ref = ray.put(nbrs)

        for t_step in range(1, walk_len + 1):
            def step_fn(tb: pa.Table, _t=t_step) -> pa.Table:
                if tb.num_rows == 0:
                    return tb
                d = _broadcast_cache(ref)
                s = tb.column("start_id").to_numpy(zero_copy_only=False)
                r = tb.column("rep").to_numpy(zero_copy_only=False)
                c = tb.column("cur").to_numpy(zero_copy_only=False)
                h = _walk_hash(s, r, _t)
                new = np.empty(len(c), dtype=np.uint64)
                for i in range(len(c)):
                    nb = d[int(c[i])]
                    new[i] = nb[int(h[i]) % len(nb)]
                return pa.table({
                    "start_id": pa.array(s, pa.uint64()),
                    "rep": pa.array(r, pa.int64()),
                    "cur": pa.array(new, pa.uint64())})

            state = state.map_batches(
                step_fn, batch_format="pyarrow").materialize()
            outputs.append(emit(state, t_step))
    elif mode == "distributed":
        for t_step in range(1, walk_len + 1):
            state = _walk_step_distributed(state, adj, t_step,
                                           n_buckets).materialize()
            outputs.append(emit(state, t_step))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    out = outputs[0]
    for o in outputs[1:]:
        out = out.union(o)
    return out


def _walk_step_distributed(state: Dataset, adj: Dataset, step: int,
                           n_buckets: int) -> Dataset:
    """One walk step with no driver state: tag-union shuffle #1 keys
    both sides on the current node (state needs deg(cur) to turn its
    hash into a neighbor rank); shuffle #2 keys on (node, rank) to
    fetch the chosen neighbor.  Adjacency rides both exchanges — the
    broadcast path avoids that when it fits."""

    def tag_state1(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cur" not in t.column_names:
            return _walk_phase1_empty()
        c = t.column("cur").to_numpy(zero_copy_only=False)
        return pa.table({
            "k": pa.array(c, pa.uint64()),
            "start_id": t.column("start_id"),
            "rep": t.column("rep"),
            "rnk": pa.array(np.zeros(len(c), np.int64), pa.int64()),
            "deg": pa.array(np.zeros(len(c), np.int64), pa.int64()),
            "side": pa.array(np.ones(len(c), np.int8), pa.int8()),
            "bucket": pa.array((c.astype(np.uint64)
                                % np.uint64(n_buckets)).astype(np.int64),
                               pa.int64())})

    def tag_deg(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "u" not in t.column_names:
            return _walk_phase1_empty()
        first = t.filter(pc.equal(t.column("rnk"), 0))
        u = first.column("u").to_numpy(zero_copy_only=False)
        return pa.table({
            "k": pa.array(u, pa.uint64()),
            "start_id": pa.array(np.zeros(len(u), np.uint64),
                                 pa.uint64()),
            "rep": pa.array(np.zeros(len(u), np.int64), pa.int64()),
            "rnk": pa.array(np.zeros(len(u), np.int64), pa.int64()),
            "deg": first.column("deg"),
            "side": pa.array(np.zeros(len(u), np.int8), pa.int8()),
            "bucket": pa.array((u.astype(np.uint64)
                                % np.uint64(n_buckets)).astype(np.int64),
                               pa.int64())})

    def fold1(g: pd.DataFrame) -> pa.Table:
        st = g[g["side"] == 1]
        dg = g[g["side"] == 0][["k", "deg"]]
        if len(st) == 0 or len(dg) == 0:
            return pa.table({"start_id": pa.array([], pa.uint64()),
                             "rep": pa.array([], pa.int64()),
                             "cur": pa.array([], pa.uint64()),
                             "sel": pa.array([], pa.int64())})
        m = st.merge(dg, on="k", how="inner", suffixes=("_s", ""))
        s = m["start_id"].to_numpy(np.uint64)
        r = m["rep"].to_numpy(np.int64)
        h = _walk_hash(s, r, step)
        sel = (h % m["deg"].to_numpy(np.uint64)).astype(np.int64)
        return pa.table({
            "start_id": pa.array(s, pa.uint64()),
            "rep": pa.array(r, pa.int64()),
            "cur": pa.array(m["k"].to_numpy(np.uint64), pa.uint64()),
            "sel": pa.array(sel, pa.int64())})

    MIX = np.uint64(0x9E3779B97F4A7C15)

    def tag_state2(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cur" not in t.column_names:
            return _walk_phase2_empty()
        c = t.column("cur").to_numpy(zero_copy_only=False)
        sel = t.column("sel").to_numpy(zero_copy_only=False)
        bk = ((c.astype(np.uint64) * MIX + sel.astype(np.uint64))
              % np.uint64(n_buckets)).astype(np.int64)
        return pa.table({
            "u": pa.array(c, pa.uint64()),
            "rnk": pa.array(sel, pa.int64()),
            "start_id": t.column("start_id"),
            "rep": t.column("rep"),
            "v": pa.array(np.zeros(len(c), np.uint64), pa.uint64()),
            "side": pa.array(np.ones(len(c), np.int8), pa.int8()),
            "bucket": pa.array(bk, pa.int64())})

    def tag_adj2(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "u" not in t.column_names:
            return _walk_phase2_empty()
        u = t.column("u").to_numpy(zero_copy_only=False)
        rnk = t.column("rnk").to_numpy(zero_copy_only=False)
        bk = ((u.astype(np.uint64) * MIX + rnk.astype(np.uint64))
              % np.uint64(n_buckets)).astype(np.int64)
        return pa.table({
            "u": pa.array(u, pa.uint64()),
            "rnk": pa.array(rnk, pa.int64()),
            "start_id": pa.array(np.zeros(len(u), np.uint64),
                                 pa.uint64()),
            "rep": pa.array(np.zeros(len(u), np.int64), pa.int64()),
            "v": t.column("v"),
            "side": pa.array(np.zeros(len(u), np.int8), pa.int8()),
            "bucket": pa.array(bk, pa.int64())})

    def fold2(g: pd.DataFrame) -> pa.Table:
        st = g[g["side"] == 1]
        ad = g[g["side"] == 0][["u", "rnk", "v"]]
        if len(st) == 0 or len(ad) == 0:
            return pa.table({"start_id": pa.array([], pa.uint64()),
                             "rep": pa.array([], pa.int64()),
                             "cur": pa.array([], pa.uint64())})
        m = st.merge(ad, on=["u", "rnk"], how="inner",
                     suffixes=("_s", ""))
        return pa.table({
            "start_id": pa.array(m["start_id"].to_numpy(np.uint64),
                                 pa.uint64()),
            "rep": pa.array(m["rep"].to_numpy(np.int64), pa.int64()),
            "cur": pa.array(m["v"].to_numpy(np.uint64), pa.uint64())})

    phase1 = (state.map_batches(tag_state1, batch_format="pyarrow")
              .union(adj.map_batches(tag_deg, batch_format="pyarrow"))
              .groupby("bucket")
              .map_groups(fold1, batch_format="pandas"))
    return (phase1.map_batches(tag_state2, batch_format="pyarrow")
            .union(adj.map_batches(tag_adj2, batch_format="pyarrow"))
            .groupby("bucket")
            .map_groups(fold2, batch_format="pandas"))


def _walk_phase1_empty() -> pa.Table:
    return pa.table({"k": pa.array([], pa.uint64()),
                     "start_id": pa.array([], pa.uint64()),
                     "rep": pa.array([], pa.int64()),
                     "rnk": pa.array([], pa.int64()),
                     "deg": pa.array([], pa.int64()),
                     "side": pa.array([], pa.int8()),
                     "bucket": pa.array([], pa.int64())})


def _walk_phase2_empty() -> pa.Table:
    return pa.table({"u": pa.array([], pa.uint64()),
                     "rnk": pa.array([], pa.int64()),
                     "start_id": pa.array([], pa.uint64()),
                     "rep": pa.array([], pa.int64()),
                     "v": pa.array([], pa.uint64()),
                     "side": pa.array([], pa.int8()),
                     "bucket": pa.array([], pa.int64())})


def personalized_pagerank_fixed(edges: Dataset, n_seeds: int = 5,
                                src_col: str = "src_id",
                                dst_col: str = "dst_id",
                                damping_num: int = 17,
                                damping_den: int = 20,
                                n_iter: int = 10,
                                scale_bits: int = 40) -> pd.DataFrame:
    """Personalized (seed-restart) PageRank in the same deterministic
    fixed-point arithmetic as :func:`pagerank_fixed` — relevance of
    every KG node RELATIVE to a seed set (the "which entities matter
    to this query/user" primitive behind GraphRAG-style retrieval).
    Seed rule mirrors :func:`k_hop`: the ``n_seeds`` smallest node ids
    (deterministic and SQL-expressible).  Teleport AND dangling mass
    return to the seeds only:

    - ``r0[v]  = S // k``  for seeds, else 0   (k = |seeds|)
    - ``r'[v] = (v in seeds ? ((den-num)*S) // (den*k) : 0)
              + (num * (incoming[v]
                        + (v in seeds ? dangling // k : 0))) // den``

    All integer → bit-exact regardless of summation order → the gate
    unrolls the identical recurrence as a DuckDB CTE chain
    (``__ray_entry__._ppr_sql``).  Dataflow is :func:`pagerank_fixed`'s
    driver path (edge list indexed once, distributed scatter per
    iteration, node-sized rank vector — the documented ~8 B/node
    bound); past driver memory the same seed-indicator column rides
    :func:`pagerank_fixed_distributed`'s keyed rank table unchanged."""
    if n_iter < 1 or n_seeds < 1:
        raise ValueError("n_iter and n_seeds must be >= 1")
    deg = degree_table(edges, src_col, dst_col).to_pandas()
    nodes = np.sort(deg["node_id"].to_numpy(np.uint64))
    n = len(nodes)
    if n == 0:
        return pd.DataFrame({
            "node_id": pd.Series([], dtype=np.uint64),
            "ppr_fixed": pd.Series([], dtype=np.int64),
            "ppr": pd.Series([], dtype=np.float64)})
    outdeg = np.zeros(n, np.int64)
    pos = np.searchsorted(nodes, deg["node_id"].to_numpy(np.uint64))
    outdeg[pos] = deg["out_degree"].to_numpy(np.int64)
    k = min(int(n_seeds), n)
    seed_mask = np.zeros(n, bool)
    seed_mask[:k] = True                    # nodes sorted ascending
    nodes_ref = ray.put(nodes)

    def index_edges(batch: pa.Table) -> pa.Table:
        nds = ray.get(nodes_ref)
        s = np.searchsorted(nds, batch.column(src_col)
                            .to_numpy(zero_copy_only=False))
        d = np.searchsorted(nds, batch.column(dst_col)
                            .to_numpy(zero_copy_only=False))
        return pa.table({"si": pa.array(s, pa.int64()),
                         "di": pa.array(d, pa.int64())})

    indexed = (edges.select_columns([src_col, dst_col])
               .map_batches(index_edges, batch_format="pyarrow")
               .materialize())

    S = 1 << scale_bits
    num, den = int(damping_num), int(damping_den)
    base = ((den - num) * S) // (den * k)
    safe_out = np.maximum(outdeg, 1)
    dangling_mask = outdeg == 0
    seed_base = np.where(seed_mask, base, 0).astype(np.int64)
    r = np.where(seed_mask, S // k, 0).astype(np.int64)
    for _ in range(n_iter):
        contrib_ref = ray.put(r // safe_out)

        def scatter(batch: pa.Table) -> pa.Table:
            c = ray.get(contrib_ref)
            si = batch.column("si").to_numpy()
            di = batch.column("di").to_numpy()
            sums = np.zeros(len(c), np.int64)
            np.add.at(sums, di, c[si])
            nz = np.flatnonzero(sums)
            return pa.table({"i": pa.array(nz, pa.int64()),
                             "s": pa.array(sums[nz], pa.int64())})

        parts = indexed.map_batches(scatter,
                                    batch_format="pyarrow").to_pandas()
        incoming = np.zeros(n, np.int64)
        np.add.at(incoming, parts["i"].to_numpy(np.int64),
                  parts["s"].to_numpy(np.int64))
        dangling = int(r[dangling_mask].sum())
        r = seed_base + (num * (incoming
                                + np.where(seed_mask, dangling // k, 0))
                         ) // den

    return pd.DataFrame({"node_id": nodes,
                         "ppr_fixed": r.astype(np.int64),
                         "ppr": r.astype(np.float64) / float(S)})


def pagerank_weighted_fixed(edges: Dataset, weight_col: str = "w",
                            src_col: str = "src_id",
                            dst_col: str = "dst_id",
                            damping_num: int = 17,
                            damping_den: int = 20, n_iter: int = 10,
                            scale_bits: int = 40,
                            undirected: bool = True) -> pd.DataFrame:
    """WEIGHTED fixed-point PageRank: mass flows along each edge in
    proportion to its integer weight — ``contrib(u->v) =
    (r[u] * w(u,v)) // Wsum(u)`` — in the same deterministic integer
    arithmetic as :func:`pagerank_fixed`, so the result is bit-exact
    at any partitioning and the gate unrolls the identical recurrence
    (``__ray_entry__._wpagerank_sql``).  ``undirected=True`` expands
    each input pair into both directions first (the co-mention-graph
    use).  Overflow bound: ``S * max_weight < 2^63`` (checked at
    runtime; lower ``scale_bits`` for heavier weights).

    Dataflow matches :func:`pagerank_fixed`'s driver path — weighted
    edge list indexed once and kept distributed, rank and weight-sum
    vectors broadcast per iteration (node-sized, the documented
    bound), per-block int64 partial sums."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    cols = [src_col, dst_col, weight_col]

    def expand(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or src_col not in t.column_names:
            return pa.table({
                "u": pa.array([], pa.uint64()),
                "v": pa.array([], pa.uint64()),
                "w": pa.array([], pa.int64())})
        s = t.column(src_col).to_numpy(zero_copy_only=False)
        d = t.column(dst_col).to_numpy(zero_copy_only=False)
        w = t.column(weight_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        if undirected:
            u = np.concatenate([s, d]).astype(np.uint64)
            v = np.concatenate([d, s]).astype(np.uint64)
            w = np.concatenate([w, w])
        else:
            u, v = s.astype(np.uint64), d.astype(np.uint64)
        return pa.table({"u": pa.array(u, pa.uint64()),
                         "v": pa.array(v, pa.uint64()),
                         "w": pa.array(w, pa.int64())})

    dir_edges = (edges.select_columns(cols)
                 .map_batches(expand, batch_format="pyarrow")
                 .materialize())

    def wsum_partial(t: pa.Table) -> pa.Table:
        # emit destinations with weight 0 so pure-sink nodes (possible
        # when undirected=False) enter the node universe with Wsum=0 —
        # they then take the dangling path instead of being silently
        # credited to a neighboring index by searchsorted
        u = np.concatenate([
            t.column("u").to_numpy(zero_copy_only=False),
            t.column("v").to_numpy(zero_copy_only=False)])
        w = np.concatenate([
            t.column("w").to_numpy(zero_copy_only=False),
            np.zeros(t.num_rows, np.int64)])
        uu, inv = np.unique(u, return_inverse=True)
        s = np.zeros(len(uu), np.int64)
        np.add.at(s, inv, w)
        return pa.table({"node_id": pa.array(uu, pa.uint64()),
                         "s": pa.array(s, pa.int64())})

    # nodes = sources ∪ destinations; node-sized driver vectors as in
    # pagerank_fixed
    agg = (dir_edges.map_batches(wsum_partial, batch_format="pyarrow")
           .to_pandas().groupby("node_id", sort=True)["s"].sum())
    nodes = agg.index.to_numpy(np.uint64)
    wsum = agg.to_numpy(np.int64)
    n = len(nodes)
    if n == 0:
        return pd.DataFrame({
            "node_id": pd.Series([], dtype=np.uint64),
            "wpr_fixed": pd.Series([], dtype=np.int64),
            "wpr": pd.Series([], dtype=np.float64)})
    S = 1 << scale_bits
    w_max = int(dir_edges.max("w"))
    if S * w_max >= (1 << 63):
        raise ValueError(
            f"S*max_weight={S * w_max} overflows int64; lower "
            f"scale_bits (={scale_bits}) or pre-scale weights")
    nodes_ref = ray.put(nodes)

    def index_edges(batch: pa.Table) -> pa.Table:
        nds = ray.get(nodes_ref)
        si = np.searchsorted(nds, batch.column("u")
                             .to_numpy(zero_copy_only=False))
        di = np.searchsorted(nds, batch.column("v")
                             .to_numpy(zero_copy_only=False))
        return pa.table({"si": pa.array(si, pa.int64()),
                         "di": pa.array(di, pa.int64()),
                         "w": batch.column("w")})

    indexed = dir_edges.map_batches(
        index_edges, batch_format="pyarrow").materialize()

    num, den = int(damping_num), int(damping_den)
    base = ((den - num) * S) // (den * n)
    safe_ws = np.maximum(wsum, 1)
    dangling_mask = wsum == 0
    r = np.full(n, S // n, np.int64)
    ws_ref = ray.put(safe_ws)
    for _ in range(n_iter):
        r_ref = ray.put(r)

        def scatter(batch: pa.Table) -> pa.Table:
            rv = ray.get(r_ref)
            ws = ray.get(ws_ref)
            si = batch.column("si").to_numpy()
            di = batch.column("di").to_numpy()
            w = batch.column("w").to_numpy()
            contrib = (rv[si] * w) // ws[si]
            sums = np.zeros(len(rv), np.int64)
            np.add.at(sums, di, contrib)
            nz = np.flatnonzero(sums)
            return pa.table({"i": pa.array(nz, pa.int64()),
                             "s": pa.array(sums[nz], pa.int64())})

        parts = indexed.map_batches(scatter,
                                    batch_format="pyarrow").to_pandas()
        incoming = np.zeros(n, np.int64)
        np.add.at(incoming, parts["i"].to_numpy(np.int64),
                  parts["s"].to_numpy(np.int64))
        dangling = int(r[dangling_mask].sum())
        r = base + (num * (incoming + dangling // n)) // den

    return pd.DataFrame({"node_id": nodes,
                         "wpr_fixed": r.astype(np.int64),
                         "wpr": r.astype(np.float64) / float(S)})


def label_propagation_fixed(edges: Dataset, src_col: str = "src_id",
                            dst_col: str = "dst_id", n_iter: int = 5,
                            n_buckets: int = 64, mode: str = "auto",
                            driver_node_limit: int | None = None,
                            dedup_edges: bool = True,
                            driver_fold_edge_limit: int = 2_000_000):
    """Deterministic synchronous label-propagation community detection
    over an undirected edge list — the classic LPA made SQL-oracle-able
    by removing every random choice:

    - labels start as the node's own id;
    - each round, EVERY node simultaneously adopts the label that is
      most frequent among its neighbours, ties broken by the SMALLEST
      label (``ORDER BY count DESC, label ASC`` — no RNG, no visit
      order);
    - a fixed ``n_iter`` rounds (synchronous LPA may oscillate on
      bipartite structures rather than converge; a fixed unroll is
      deterministic either way and mirrors the oracle CTE chain
      exactly).  Early-stop on an unchanged round is safe: re-applying
      the update to a fixed point is the identity.

    Dataflow: the per-round neighbour-label count is an in-block
    combiner (distinct (node, label) partials per block).  Below
    ``driver_fold_edge_limit`` indexed edges (default 2M — a bounded
    ≤2·|E|-row partial table, ~100 MB worst case) the argmax folds ON
    THE DRIVER, saving one sort-shuffle exchange PER ROUND; past the
    limit the partials fold in ONE coarse-bucket exchange and only
    node-sized (node, new_label) rows reach the driver, which holds
    the label vector (``mode="driver"``, gated at
    :data:`DRIVER_NODE_LIMIT`).  Both folds are the same argmax —
    parity is test-pinned.  ``mode="distributed"`` keeps the label
    table as a keyed Dataset instead (two tag-union co-partition
    exchanges per round, the :func:`pagerank_fixed_distributed` shape)
    — bit-identical output, pinned in pytest.

    Return contract (mirrors :func:`pagerank_fixed`): ``mode="auto"``
    ALWAYS returns a Dataset; explicit ``mode="driver"`` returns the
    node-sized pandas DataFrame (node_id, community)."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    if dedup_edges:
        # vote counts are per DISTINCT neighbour: a multigraph input
        # (e.g. the co-mention pair stream, which emits one (a, b) per
        # page bucket) must be canonicalized first or duplicate edges
        # inflate the frequency vote
        edges = _canonical_edges(edges, src_col, dst_col,
                                 n_buckets).materialize()
        src_col, dst_col = "a", "b"
    limit = (DRIVER_NODE_LIMIT if driver_node_limit is None
             else driver_node_limit)
    deg_ds = degree_table(edges, src_col, dst_col).materialize()
    n = deg_ds.count()
    wrap_out = mode == "auto"
    if mode == "auto":
        mode = "driver" if n <= limit else "distributed"
    if mode == "distributed":
        return label_propagation_distributed(edges, src_col, dst_col,
                                             n_iter, n_buckets,
                                             dedup_edges=False)
    if mode != "driver":
        raise ValueError(f"unknown mode {mode!r}")

    if n == 0:
        # an empty degree table loses its schema on to_pandas — emit
        # the typed empty directly
        out = pd.DataFrame({
            "node_id": pd.Series([], dtype=np.uint64),
            "community": pd.Series([], dtype=np.uint64)})
        return ray.data.from_pandas(out) if wrap_out else out
    nodes = np.sort(deg_ds.to_pandas()["node_id"].to_numpy(np.uint64))
    nodes_ref = ray.put(nodes)

    def index_edges(batch: pa.Table) -> pa.Table:
        nds = ray.get(nodes_ref)
        s = np.searchsorted(nds, batch.column(src_col)
                            .to_numpy(zero_copy_only=False))
        d = np.searchsorted(nds, batch.column(dst_col)
                            .to_numpy(zero_copy_only=False))
        keep = s != d
        return pa.table({"si": pa.array(s[keep], pa.int64()),
                         "di": pa.array(d[keep], pa.int64())})

    indexed = (edges.select_columns([src_col, dst_col])
               .map_batches(index_edges, batch_format="pyarrow")
               .materialize())

    def _empty_votes() -> pa.Table:
        return pa.table({"i": pa.array([], pa.int64()),
                         "lab": pa.array([], pa.uint64()),
                         "c": pa.array([], pa.int64()),
                         "bucket": pa.array([], pa.int64())})

    def argmax_fold(g: pd.DataFrame) -> pa.Table:
        # per-node winner: count DESC, label ASC (uint64-safe — no
        # nulls ever enter these columns)
        tot = (g.groupby(["i", "lab"], sort=False, as_index=False)["c"]
               .sum())
        tot = tot.sort_values(["i", "c", "lab"],
                              ascending=[True, False, True])
        win = tot.groupby("i", sort=False).head(1)
        return pa.table({
            "i": pa.array(win["i"].to_numpy(np.int64), pa.int64()),
            "lab": pa.array(win["lab"].to_numpy(np.uint64),
                            pa.uint64())})

    # Exchange-count knob (see docstring): below the edge gate the
    # <=2|E|-row vote-partial table folds on the driver — the
    # pagerank_fixed shape, saving one sort shuffle PER ROUND (each
    # Ray groupby costs ~seconds of fixed exchange latency, n_iter x
    # per run).  Past the gate the coarse-bucket exchange path is
    # unchanged (vote volume on a dense graph would exceed the
    # node-sized driver contract).
    driver_fold = indexed.count() <= driver_fold_edge_limit

    labels = nodes.copy()                      # label = own id
    for _ in range(n_iter):
        lab_ref = ray.put(labels)

        def votes(batch: pa.Table) -> pa.Table:
            lab = ray.get(lab_ref)
            si = batch.column("si").to_numpy()
            di = batch.column("di").to_numpy()
            if len(si) == 0:
                return _empty_votes()
            idx = np.concatenate([si, di])
            cand = np.concatenate([lab[di], lab[si]])
            df = (pd.DataFrame({"i": idx, "lab": cand})
                  .groupby(["i", "lab"], sort=False, as_index=False)
                  .size().rename(columns={"size": "c"}))
            return pa.table({
                "i": pa.array(df["i"].to_numpy(np.int64), pa.int64()),
                "lab": pa.array(df["lab"].to_numpy(np.uint64),
                                pa.uint64()),
                "c": pa.array(df["c"].to_numpy(np.int64), pa.int64()),
                "bucket": pa.array(
                    (df["i"].to_numpy(np.int64) % n_buckets),
                    pa.int64())})

        if driver_fold:
            parts = (indexed.map_batches(votes, batch_format="pyarrow")
                     .to_pandas())
            # the buckets partition i, so the global argmax IS the
            # per-bucket argmax — same fold, zero exchanges
            win = (argmax_fold(parts).to_pandas() if len(parts)
                   else pd.DataFrame({"i": pd.Series([], np.int64),
                                      "lab": pd.Series([], np.uint64)}))
        else:
            win = (indexed.map_batches(votes, batch_format="pyarrow")
                   .groupby("bucket")
                   .map_groups(argmax_fold, batch_format="pandas")
                   .to_pandas())
        new = labels.copy()
        new[win["i"].to_numpy(np.int64)] = win["lab"].to_numpy(np.uint64)
        if np.array_equal(new, labels):
            break
        labels = new

    out = pd.DataFrame({"node_id": nodes, "community": labels})
    return ray.data.from_pandas(out) if wrap_out else out


def label_propagation_distributed(edges: Dataset,
                                  src_col: str = "src_id",
                                  dst_col: str = "dst_id",
                                  n_iter: int = 5,
                                  n_buckets: int = 64,
                                  dedup_edges: bool = True) -> Dataset:
    """Scale path for :func:`label_propagation_fixed`: the label table
    is a keyed DATASET (node, lab) — no node-sized driver vector or
    per-round broadcast.  Per round (the
    :func:`pagerank_fixed_distributed` two-exchange shape):

    1. vote scatter: undirected adjacency rows co-partitioned with the
       label state on the NEIGHBOUR bucket emit per-bucket
       pre-aggregated (node, label, count) partials;
    2. argmax fold: partials co-partitioned with the state on the NODE
       bucket pick count-DESC/label-ASC winners.

    Bit-identical to the driver path (pinned in pytest)."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    if dedup_edges:
        edges = _canonical_edges(edges, src_col, dst_col,
                                 n_buckets).materialize()
        src_col, dst_col = "a", "b"

    def nb_rows(t: pa.Table) -> pa.Table:
        s = t.column(src_col).to_numpy(zero_copy_only=False) \
             .astype(np.uint64)
        d = t.column(dst_col).to_numpy(zero_copy_only=False) \
             .astype(np.uint64)
        keep = s != d
        s, d = s[keep], d[keep]
        u = np.concatenate([s, d])
        v = np.concatenate([d, s])
        return pa.table({
            "u": pa.array(u, pa.uint64()),
            "v": pa.array(v, pa.uint64()),
            "bucket": pa.array((v % np.uint64(n_buckets))
                               .astype(np.int64), pa.int64())})

    nb = (edges.select_columns([src_col, dst_col])
          .map_batches(nb_rows, batch_format="pyarrow").materialize())

    deg = degree_table(edges, src_col, dst_col)

    def init_state(t: pa.Table) -> pa.Table:
        node = t.column("node_id").to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
        return pa.table({
            "node": pa.array(node, pa.uint64()),
            "lab": pa.array(node, pa.uint64()),
            "bucket": pa.array((node % np.uint64(n_buckets))
                               .astype(np.int64), pa.int64())})

    state = deg.map_batches(init_state,
                            batch_format="pyarrow").materialize()
    state_blocks = max(1, state.num_blocks())

    def edge_side(t: pa.Table) -> pa.Table:
        zero = pa.array(np.zeros(t.num_rows, np.uint64), pa.uint64())
        return pa.table({
            "u": t.column("u"), "v": t.column("v"), "lab": zero,
            "is_s": pa.array(np.zeros(t.num_rows, bool)),
            "bucket": t.column("bucket")})

    def state_side(t: pa.Table) -> pa.Table:
        zero = pa.array(np.zeros(t.num_rows, np.uint64), pa.uint64())
        return pa.table({
            "u": zero, "v": t.column("node"), "lab": t.column("lab"),
            "is_s": pa.array(np.ones(t.num_rows, bool)),
            "bucket": t.column("bucket")})

    def scatter(g: pd.DataFrame) -> pa.Table:
        st = g.loc[g["is_s"], ["v", "lab"]]
        e = g.loc[~g["is_s"], ["u", "v"]]
        m = e.merge(st, on="v")
        if len(m) == 0:
            return pa.table({"node": pa.array([], pa.uint64()),
                             "lab": pa.array([], pa.uint64()),
                             "c": pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int64())})
        agg = (pd.DataFrame({"node": m["u"].to_numpy(np.uint64),
                             "lab": m["lab"].to_numpy(np.uint64)})
               .groupby(["node", "lab"], sort=False, as_index=False)
               .size().rename(columns={"size": "c"}))
        node = agg["node"].to_numpy(np.uint64)
        return pa.table({
            "node": pa.array(node, pa.uint64()),
            "lab": pa.array(agg["lab"].to_numpy(np.uint64),
                            pa.uint64()),
            "c": pa.array(agg["c"].to_numpy(np.int64), pa.int64()),
            "bucket": pa.array((node % np.uint64(n_buckets))
                               .astype(np.int64), pa.int64())})

    def msg_side(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t.column("node"), "lab": t.column("lab"),
            "c": t.column("c"),
            "is_s": pa.array(np.zeros(t.num_rows, bool)),
            "bucket": t.column("bucket")})

    def state_side2(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t.column("node"), "lab": t.column("lab"),
            "c": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
            "is_s": pa.array(np.ones(t.num_rows, bool)),
            "bucket": t.column("bucket")})

    def fold(g: pd.DataFrame) -> pa.Table:
        st = g.loc[g["is_s"], ["node", "lab"]]
        msgs = g.loc[~g["is_s"], ["node", "lab", "c"]]
        if len(msgs):
            tot = (msgs.groupby(["node", "lab"], sort=False,
                                as_index=False)["c"].sum()
                   .sort_values(["node", "c", "lab"],
                                ascending=[True, False, True]))
            win = tot.groupby("node", sort=False).head(1)[["node", "lab"]]
        else:
            win = st.iloc[0:0][["node", "lab"]]
        keep = st[~st["node"].isin(win["node"])]
        out = pd.concat([win, keep], ignore_index=True)
        node = out["node"].to_numpy(np.uint64)
        return pa.table({
            "node": pa.array(node, pa.uint64()),
            "lab": pa.array(out["lab"].to_numpy(np.uint64),
                            pa.uint64()),
            "bucket": pa.array((node % np.uint64(n_buckets))
                               .astype(np.int64), pa.int64())})

    for _ in range(n_iter):
        msgs = (nb.map_batches(edge_side, batch_format="pyarrow")
                .union(state.map_batches(state_side,
                                         batch_format="pyarrow"))
                .groupby("bucket")
                .map_groups(scatter, batch_format="pandas"))
        # repartition bounds loop-carried blocks (union sums block
        # counts; unbounded they double per iteration)
        state = (msgs.map_batches(msg_side, batch_format="pyarrow")
                 .union(state.map_batches(state_side2,
                                          batch_format="pyarrow"))
                 .groupby("bucket")
                 .map_groups(fold, batch_format="pandas")
                 .repartition(state_blocks)
                 .materialize())

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"node_id": t.column("node"),
                         "community": t.column("lab")})

    return state.map_batches(finish, batch_format="pyarrow")


def community_stats(edges: Dataset, communities,
                    src_col: str = "src_id", dst_col: str = "dst_id",
                    node_col: str = "node_id",
                    comm_col: str = "community",
                    dedup_edges: bool = True) -> Dataset:
    """Exact per-community quality stats over an undirected graph —
    including the MODULARITY numerator as a pure integer, so the whole
    table is SQL-oracle-able:

    for community c with ``e_in`` intra-community edges and ``d_tot``
    total member degree (2m = sum of all degrees), the standard
    modularity term is ``e_in/m - (d_tot/2m)^2``; scaled by ``4m^2``
    it is the INTEGER ``q_num = 4*m*e_in - d_tot^2`` (the float
    ``modularity_term = q_num / (4m^2)`` is one IEEE division of exact
    ints, bit-equal across engines).  Global modularity =
    sum(q_num)/(4m^2).

    ``communities`` is a node-sized pandas DataFrame or Dataset
    (node_col, comm_col) — e.g. :func:`label_propagation_fixed`
    output.  The label map is broadcast once (``ray.put`` of two
    sorted arrays, the documented node-sized driver bound); each edge
    block emits per-community (e_in, d) count partials — community-
    sized rows, never the edge list."""
    if hasattr(communities, "to_pandas"):
        communities = communities.to_pandas()
    lab_nodes = communities[node_col].to_numpy(np.uint64)
    order = np.argsort(lab_nodes, kind="stable")
    lab_nodes = lab_nodes[order]
    lab_vals = communities[comm_col].to_numpy(np.uint64)[order]
    if dedup_edges:
        edges = _canonical_edges(edges, src_col, dst_col).materialize()
        src_col, dst_col = "a", "b"
    ref = ray.put((lab_nodes, lab_vals))

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or src_col not in t.column_names:
            return pa.table({"community": pa.array([], pa.uint64()),
                             "e_in": pa.array([], pa.int64()),
                             "d": pa.array([], pa.int64())})
        nds, lab = ray.get(ref)
        s = t.column(src_col).to_numpy(zero_copy_only=False)
        d = t.column(dst_col).to_numpy(zero_copy_only=False)
        keep = s != d
        s, d = s[keep].astype(np.uint64), d[keep].astype(np.uint64)
        cs = lab[np.searchsorted(nds, s)]
        cd = lab[np.searchsorted(nds, d)]
        intra = pd.Series(cs[cs == cd]).value_counts()
        degs = pd.Series(np.concatenate([cs, cd])).value_counts()
        comm = degs.index.to_numpy(np.uint64)
        e_in = intra.reindex(comm, fill_value=0).to_numpy(np.int64)
        return pa.table({"community": pa.array(comm, pa.uint64()),
                         "e_in": pa.array(e_in, pa.int64()),
                         "d": pa.array(degs.to_numpy(np.int64),
                                       pa.int64())})

    parts = (edges.map_batches(partial, batch_format="pyarrow")
             .to_pandas())
    agg = (parts.groupby("community", sort=True)
           .agg(e_in=("e_in", "sum"), d_tot=("d", "sum"))
           .reset_index())
    # isolated-member communities (degree 0 everywhere) still count
    sizes = (pd.Series(lab_vals).value_counts().rename("n_nodes")
             .reset_index().rename(columns={"index": "community"}))
    out = sizes.merge(agg, on="community", how="left").fillna(0)
    out = out.sort_values("community").reset_index(drop=True)
    two_m = int(parts["d"].sum())      # sum of degrees = 2 * |edges|
    m = two_m // 2
    d_tot = out["d_tot"].to_numpy(np.int64)
    if two_m and (np.abs(d_tot).max(initial=0) >= 3_000_000_000):
        raise OverflowError("d_tot^2 would overflow int64; use the "
                            "rational form per-shard")
    q_num = 4 * m * out["e_in"].to_numpy(np.int64) - d_tot * d_tot
    den = 4 * m * m
    return ray.data.from_arrow(pa.table({
        "community": pa.array(out["community"].to_numpy(np.uint64),
                              pa.uint64()),
        "n_nodes": pa.array(out["n_nodes"].to_numpy(np.int64),
                            pa.int64()),
        "e_in": pa.array(out["e_in"].to_numpy(np.int64), pa.int64()),
        "d_tot": pa.array(d_tot, pa.int64()),
        "q_num": pa.array(q_num.astype(np.int64), pa.int64()),
        "modularity_term": pa.array(
            (q_num.astype(np.float64) / float(den)) if den
            else np.zeros(len(q_num)), pa.float64()),
    }))


def hits_fixed(edges: Dataset, src_col: str = "src_id",
               dst_col: str = "dst_id", n_iter: int = 5,
               scale_bits: int = 20, mode: str = "auto",
               driver_node_limit: int | None = None):
    """Deterministic fixed-point HITS (Kleinberg hubs/authorities) over
    a directed edge list — bit-exact and therefore DuckDB-oracle-able,
    like :func:`pagerank_fixed`.  With ``S = 2**scale_bits`` and
    ``h0[u] = S``:

    - ``a_raw[v] = sum h[u] over edges (u, v)``      (exact int)
    - ``a[v]    = (a_raw[v] * S) // max(sum a_raw, 1)``  (L1 normalize)
    - ``h_raw[u] = sum a[v] over edges (u, v)``
    - ``h[u]    = (h_raw[u] * S) // max(sum h_raw, 1)``

    Every op is a non-negative int64 (DuckDB ``//`` == numpy ``//``
    there); ``a_raw * S <= E * S**2`` guards the only overflow, checked
    at runtime.  The float ``hub``/``authority`` columns are
    ``fixed / S`` — exactly representable dyadics.  Parallel edge rows
    count once each (multigraph semantics, same as the PageRank
    contribution rule).

    Dataflow mirrors :func:`pagerank_fixed` (edges indexed once, two
    node-sized int64 broadcasts per iteration, ``np.add.at`` partials
    so distributed sums are order-free).  Return contract: ``auto``
    ALWAYS returns a Dataset and trips to
    :func:`hits_fixed_distributed` (bit-identical) past the
    ``driver_node_limit`` gate; explicit ``mode="driver"`` is the
    DataFrame-out contract.

    No reference counterpart (net-new graph op; complements the
    PageRank family)."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    if scale_bits > 30:
        raise ValueError("scale_bits > 30 risks a_raw*S overflow")
    limit = (DRIVER_NODE_LIMIT if driver_node_limit is None
             else driver_node_limit)
    deg_ds = degree_table(edges, src_col, dst_col).materialize()
    n_deg = deg_ds.count()
    wrap_out = mode == "auto"
    if mode == "auto":
        mode = "driver" if n_deg <= limit else "distributed"
    if mode == "distributed":
        return hits_fixed_distributed(edges, src_col, dst_col, n_iter,
                                      scale_bits)
    if mode != "driver":
        raise ValueError(f"unknown mode {mode!r}")
    if n_deg == 0:
        # empty BEFORE to_pandas: a 0-row map_batches output is
        # schema-less, so the column lookup would KeyError
        out = pd.DataFrame({
            "node_id": pd.Series([], dtype=np.uint64),
            "hub_fixed": pd.Series([], dtype=np.int64),
            "auth_fixed": pd.Series([], dtype=np.int64),
            "hub": pd.Series([], dtype=np.float64),
            "authority": pd.Series([], dtype=np.float64)})
        return ray.data.from_pandas(out) if wrap_out else out
    deg = deg_ds.to_pandas()
    nodes = np.sort(deg["node_id"].to_numpy(np.uint64))
    n = len(nodes)
    nodes_ref = ray.put(nodes)

    def index_edges(batch: pa.Table) -> pa.Table:
        nds = ray.get(nodes_ref)
        s = np.searchsorted(nds, batch.column(src_col)
                            .to_numpy(zero_copy_only=False))
        d = np.searchsorted(nds, batch.column(dst_col)
                            .to_numpy(zero_copy_only=False))
        return pa.table({"si": pa.array(s, pa.int64()),
                         "di": pa.array(d, pa.int64())})

    indexed = (edges.select_columns([src_col, dst_col])
               .map_batches(index_edges, batch_format="pyarrow")
               .materialize())

    S = 1 << scale_bits
    raw_cap = (1 << 63) // S

    def _scatter_sum(vec: np.ndarray, from_s: bool) -> np.ndarray:
        vec_ref = ray.put(vec)

        def scatter(batch: pa.Table) -> pa.Table:
            v = ray.get(vec_ref)
            si = batch.column("si").to_numpy()
            di = batch.column("di").to_numpy()
            sums = np.zeros(len(v), np.int64)
            if from_s:
                np.add.at(sums, di, v[si])      # authority gather
            else:
                np.add.at(sums, si, v[di])      # hub gather
            nz = np.flatnonzero(sums)
            return pa.table({"i": pa.array(nz, pa.int64()),
                             "s": pa.array(sums[nz], pa.int64())})

        parts = indexed.map_batches(scatter,
                                    batch_format="pyarrow").to_pandas()
        raw = np.zeros(n, np.int64)
        np.add.at(raw, parts["i"].to_numpy(np.int64),
                  parts["s"].to_numpy(np.int64))
        return raw

    h = np.full(n, S, np.int64)
    a = np.zeros(n, np.int64)
    for _ in range(n_iter):
        a_raw = _scatter_sum(h, from_s=True)
        if a_raw.max(initial=0) >= raw_cap:
            raise OverflowError("a_raw*S exceeds int64; lower scale_bits")
        tot_a = max(int(a_raw.sum()), 1)
        a = (a_raw * S) // tot_a
        h_raw = _scatter_sum(a, from_s=False)
        if h_raw.max(initial=0) >= raw_cap:
            raise OverflowError("h_raw*S exceeds int64; lower scale_bits")
        tot_h = max(int(h_raw.sum()), 1)
        h = (h_raw * S) // tot_h

    out = pd.DataFrame({
        "node_id": nodes,
        "hub_fixed": h.astype(np.int64),
        "auth_fixed": a.astype(np.int64),
        "hub": h.astype(np.float64) / float(S),
        "authority": a.astype(np.float64) / float(S)})
    return ray.data.from_pandas(out) if wrap_out else out


def hits_fixed_distributed(edges: Dataset, src_col: str = "src_id",
                           dst_col: str = "dst_id", n_iter: int = 5,
                           scale_bits: int = 20,
                           n_buckets: int = 64) -> Dataset:
    """Scale path for :func:`hits_fixed` (bit-identical, pinned in
    pytest): hub/authority state is a keyed DATASET — no node-sized
    driver vector.  Per iteration, each half-step is one co-partitioned
    scatter (edges bucketed on the state-lookup endpoint emit
    per-bucket pre-aggregated (node, sum) partials) + one fold that
    applies the integer normalization; the L1 total is a distributed
    ``sum`` (one scalar to the driver).  4 shuffles + 2 scalar sums per
    iteration, message volume bounded by distinct endpoint counts."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    S = 1 << scale_bits

    def dir_rows(t: pa.Table, key_is_src: bool) -> pa.Table:
        s = t.column(src_col).to_numpy(zero_copy_only=False) \
             .astype(np.uint64)
        d = t.column(dst_col).to_numpy(zero_copy_only=False) \
             .astype(np.uint64)
        k, o = (s, d) if key_is_src else (d, s)
        return pa.table({
            "k": pa.array(k, pa.uint64()),
            "o": pa.array(o, pa.uint64()),
            "bucket": pa.array((k % np.uint64(n_buckets))
                               .astype(np.int64), pa.int64())})

    ecols = edges.select_columns([src_col, dst_col])
    by_src = ecols.map_batches(
        lambda t: dir_rows(t, True), batch_format="pyarrow").materialize()
    by_dst = ecols.map_batches(
        lambda t: dir_rows(t, False), batch_format="pyarrow").materialize()

    deg = degree_table(edges, src_col, dst_col).materialize()
    if deg.count() == 0:
        return ray.data.from_arrow(pa.table({
            "node_id": pa.array([], pa.uint64()),
            "hub_fixed": pa.array([], pa.int64()),
            "auth_fixed": pa.array([], pa.int64()),
            "hub": pa.array([], pa.float64()),
            "authority": pa.array([], pa.float64())}))

    def init_state(t: pa.Table) -> pa.Table:
        node = t.column("node_id").to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
        return pa.table({
            "node_id": pa.array(node, pa.uint64()),
            "h": pa.array(np.full(len(node), S, np.int64), pa.int64()),
            "a": pa.array(np.zeros(len(node), np.int64), pa.int64()),
            "outdeg": t.column("out_degree").cast(pa.int64()),
            "indeg": t.column("in_degree").cast(pa.int64()),
            "bucket": pa.array((node % np.uint64(n_buckets))
                               .astype(np.int64), pa.int64())})

    state = deg.map_batches(init_state,
                            batch_format="pyarrow").materialize()
    state_blocks = max(1, state.num_blocks())

    def edge_side(t: pa.Table) -> pa.Table:
        zero = pa.array(np.zeros(t.num_rows, np.int64), pa.int64())
        return pa.table({
            "node": t.column("k"), "other": t.column("o"),
            "val": zero,
            "is_s": pa.array(np.zeros(t.num_rows, bool)),
            "bucket": t.column("bucket")})

    def state_side(t: pa.Table, col: str) -> pa.Table:
        return pa.table({
            "node": t.column("node_id"),
            "other": pa.array(np.zeros(t.num_rows, np.uint64),
                              pa.uint64()),
            "val": t.column(col),
            "is_s": pa.array(np.ones(t.num_rows, bool)),
            "bucket": t.column("bucket")})

    def scatter(g: pd.DataFrame) -> pa.Table:
        st = g.loc[g["is_s"], ["node", "val"]]
        e = g.loc[~g["is_s"], ["node", "other"]]
        m = e.merge(st, on="node")
        if len(m) == 0:
            return pa.table({"node_id": pa.array([], pa.uint64()),
                             "inc": pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int64())})
        agg = (pd.DataFrame({"o": m["other"].to_numpy(np.uint64),
                             "v": m["val"].to_numpy(np.int64)})
               .groupby("o", sort=False)["v"].sum())
        node = agg.index.to_numpy(np.uint64)
        return pa.table({
            "node_id": pa.array(node, pa.uint64()),
            "inc": pa.array(agg.to_numpy(np.int64), pa.int64()),
            "bucket": pa.array((node % np.uint64(n_buckets))
                               .astype(np.int64), pa.int64())})

    def msg_side(t: pa.Table) -> pa.Table:
        zero64 = pa.array(np.zeros(t.num_rows, np.int64), pa.int64())
        return pa.table({
            "node_id": t.column("node_id"), "inc": t.column("inc"),
            "h": zero64, "a": zero64,
            "outdeg": zero64, "indeg": zero64,
            "is_s": pa.array(np.zeros(t.num_rows, bool)),
            "bucket": t.column("bucket")})

    def state_side2(t: pa.Table) -> pa.Table:
        return pa.table({
            "node_id": t.column("node_id"),
            "inc": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
            "h": t.column("h"), "a": t.column("a"),
            "outdeg": t.column("outdeg"), "indeg": t.column("indeg"),
            "is_s": pa.array(np.ones(t.num_rows, bool)),
            "bucket": t.column("bucket")})

    def _half_step(edges_keyed: Dataset, state: Dataset, lookup: str,
                   update: str) -> Dataset:
        # L1 total WITHOUT materializing the message stage: the raw
        # mass is sum(value * degree) over the node-sized state —
        # sum_v sum_{u->v} h[u] == sum_u h[u]*outdeg[u] exactly — so
        # scatter and fold chain LAZILY in one execution per half-step
        # (the LPA lesson: per-iteration barriers dominate at this
        # stage count).
        deg_col = "outdeg" if lookup == "h" else "indeg"

        def mass(t: pa.Table, _l=lookup, _d=deg_col) -> pa.Table:
            v = t.column(_l).to_numpy(zero_copy_only=False)
            d = t.column(_d).to_numpy(zero_copy_only=False)
            return pa.table({"m": pa.array(
                [int((v * d).sum())], pa.int64())})

        tot = max(int(state.map_batches(
            mass, batch_format="pyarrow").sum("m") or 0), 1)

        def fold(g: pd.DataFrame, _tot=tot, _update=update) -> pa.Table:
            st = g.loc[g["is_s"],
                       ["node_id", "h", "a", "outdeg", "indeg"]]
            inc = (g.groupby("node_id", sort=False)["inc"].sum()
                   .reindex(st["node_id"].to_numpy(np.uint64),
                            fill_value=0))
            raw = inc.to_numpy(np.int64)
            if raw.max(initial=0) >= (1 << 63) // S:
                raise OverflowError("raw*S exceeds int64")
            newv = (raw * S) // _tot
            node = st["node_id"].to_numpy(np.uint64)
            h = st["h"].to_numpy(np.int64)
            a = st["a"].to_numpy(np.int64)
            if _update == "a":
                a = newv
            else:
                h = newv
            return pa.table({
                "node_id": pa.array(node, pa.uint64()),
                "h": pa.array(h.astype(np.int64), pa.int64()),
                "a": pa.array(a.astype(np.int64), pa.int64()),
                "outdeg": pa.array(st["outdeg"].to_numpy(np.int64),
                                   pa.int64()),
                "indeg": pa.array(st["indeg"].to_numpy(np.int64),
                                  pa.int64()),
                "bucket": pa.array((node % np.uint64(n_buckets))
                                   .astype(np.int64), pa.int64())})

        msgs = (edges_keyed.map_batches(edge_side,
                                        batch_format="pyarrow")
                .union(state.map_batches(
                    lambda t, c=lookup: state_side(t, c),
                    batch_format="pyarrow"))
                .groupby("bucket")
                .map_groups(scatter, batch_format="pandas"))
        # repartition bounds the loop-carried block count (union sums
        # block counts; unbounded, they double per half-step and the
        # sort-shuffle cost grows exponentially)
        return (msgs.map_batches(msg_side, batch_format="pyarrow")
                .union(state.map_batches(state_side2,
                                         batch_format="pyarrow"))
                .groupby("bucket")
                .map_groups(fold, batch_format="pandas")
                .repartition(state_blocks)
                .materialize())

    for _ in range(n_iter):
        # authority: gather h over in-edges (edges keyed on SRC so the
        # state lookup is local; messages land on the dst bucket)
        state = _half_step(by_src, state, lookup="h", update="a")
        # hub: gather a over out-edges (edges keyed on DST)
        state = _half_step(by_dst, state, lookup="a", update="h")

    def finish(t: pa.Table) -> pa.Table:
        h = t.column("h").to_numpy(zero_copy_only=False)
        a = t.column("a").to_numpy(zero_copy_only=False)
        return pa.table({
            "node_id": t.column("node_id"),
            "hub_fixed": t.column("h"),
            "auth_fixed": t.column("a"),
            "hub": pa.array(h.astype(np.float64) / float(S),
                            pa.float64()),
            "authority": pa.array(a.astype(np.float64) / float(S),
                                  pa.float64())})

    return state.map_batches(finish, batch_format="pyarrow")


def walk_skipgram_pairs(walks: Dataset, window: int = 2,
                        n_buckets: int = 64) -> Dataset:
    """Skip-gram (center, context) training pairs from a walk corpus
    (the word2vec-over-walks step of DeepWalk / node2vec): for every
    walk position, every node within ``window`` steps on either side
    is a context; returns ``(center_id, context_id, n_pairs)`` counts
    — the aggregated co-occurrence table an embedding trainer consumes
    (or samples from) instead of raw pair streams.

    Input: ``(start_id, rep, step, node_id)`` rows as produced by
    :func:`deterministic_walks`.  Shape: ONE start-bucketed exchange
    co-locates each walk's rows (walks are ``walk_len+1`` rows — no
    skew axis); the in-bucket fold sorts once by ``(start, rep,
    step)`` and pairs rows at offsets 1..window with vectorized
    same-walk masks (pairs never cross walks), combining counts
    in-bucket; a pair-bucketed fold sums partials.  Output is
    co-occurrence-vocabulary-sized, bounded by ``2·window·|walk
    rows|`` emissions.

    No reference counterpart; composes with ``deterministic_walks``
    so the whole corpus is SQL-re-derivable (oracle: self-join of the
    unrolled walk CTE on |step distance| <= window)."""
    MIX = np.uint64(0x9E3779B97F4A7C15)

    def sbucket(t: pa.Table) -> pa.Table:
        s = t.column("start_id").to_numpy(zero_copy_only=False)
        bk = ((s.astype(np.uint64) * MIX)
              & np.uint64(n_buckets - 1)).astype(np.int64)
        return t.append_column("_sb", pa.array(bk, pa.int64()))

    def pairs(g: pd.DataFrame) -> pa.Table:
        empty = pa.table({"center_id": pa.array([], pa.uint64()),
                          "context_id": pa.array([], pa.uint64()),
                          "n": pa.array([], pa.int64()),
                          "_pb": pa.array([], pa.int64())})
        if len(g) == 0 or "start_id" not in g.columns:
            return empty
        g = g.sort_values(["start_id", "rep", "step"], kind="mergesort")
        s = g["start_id"].to_numpy(np.uint64)
        r = g["rep"].to_numpy(np.int64)
        nodes = g["node_id"].to_numpy(np.uint64)
        cs, xs = [], []
        for d in range(1, window + 1):
            if d >= len(nodes):
                break
            same = (s[d:] == s[:-d]) & (r[d:] == r[:-d])
            lo, hi = nodes[:-d][same], nodes[d:][same]
            cs.append(lo)
            xs.append(hi)
            cs.append(hi)
            xs.append(lo)
        if not cs:
            return empty
        df = pd.DataFrame({"c": np.concatenate(cs),
                           "x": np.concatenate(xs)})
        agg = df.groupby(["c", "x"], as_index=False).size()
        c = agg["c"].to_numpy(np.uint64)
        x = agg["x"].to_numpy(np.uint64)
        bk = ((c * MIX + x) & np.uint64(n_buckets - 1)).astype(np.int64)
        return pa.table({
            "center_id": pa.array(c, pa.uint64()),
            "context_id": pa.array(x, pa.uint64()),
            "n": pa.array(agg["size"].to_numpy(np.int64), pa.int64()),
            "_pb": pa.array(bk, pa.int64())})

    def fold(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0 or "center_id" not in g.columns:
            return pa.table({"center_id": pa.array([], pa.uint64()),
                             "context_id": pa.array([], pa.uint64()),
                             "n_pairs": pa.array([], pa.int64())})
        gg = g.groupby(["center_id", "context_id"],
                       as_index=False)["n"].sum()
        return pa.table({
            "center_id": pa.array(gg["center_id"].to_numpy(np.uint64),
                                  pa.uint64()),
            "context_id": pa.array(gg["context_id"].to_numpy(np.uint64),
                                   pa.uint64()),
            "n_pairs": pa.array(gg["n"].to_numpy(np.int64), pa.int64())})

    return (walks.map_batches(sbucket, batch_format="pyarrow")
                 .groupby("_sb")
                 .map_groups(pairs, batch_format="pandas")
                 .groupby("_pb")
                 .map_groups(fold, batch_format="pandas"))


def entity_pmi(page_entities: Dataset, page_col: str, key_col: str,
               n_buckets: int = 64) -> Dataset:
    """Pointwise mutual information of every co-mentioned entity pair —
    the collocation-strength upgrade of :func:`entity_cooccurrence`
    (raw pair counts over-rank ubiquitous entities; PMI normalizes by
    each entity's page frequency).

    Log-free exactness (the ``pmi_collocations`` trick): PMI =
    ``ln(c_ab·N / (c_a·c_b))`` is monotone in the exact rational, so
    ``pmi_ratio = (c_ab·N) / (c_a·c_b)`` is emitted instead — integer
    products, ONE IEEE division, bit-exact against the SQL oracle.

    Scale shape: pair counts ride :func:`entity_cooccurrence`'s
    page-bucketed machinery; the per-entity page frequencies and the
    page total take one more bucket exchange of count partials (pages
    never span buckets, so in-bucket distinct is global).  The final
    compose collects entity-count and pair tables on the driver —
    node-scale, the same bound every graph driver path documents."""

    def page_bucket(batch: pa.Table) -> pa.Table:
        pages = batch.column(page_col).to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array((pages % n_buckets).astype(np.int64),
                               pa.int64()))

    def counts(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0 or page_col not in g.columns:
            return pd.DataFrame({
                "kind": pd.Series([], dtype=object),
                "key": pd.Series([], dtype=object),
                "n": pd.Series([], dtype=np.int64)})
        pk = (g[[page_col, key_col]]
              .drop_duplicates([page_col, key_col]))
        ec = pk.groupby(key_col, as_index=False).size()
        kinds = ["k"] * len(ec) + ["t"]
        keys = ec[key_col].astype(str).tolist() + [""]
        ns = [int(v) for v in ec["size"].to_numpy()]
        ns.append(int(pk[page_col].nunique()))
        return pd.DataFrame({"kind": kinds, "key": keys,
                             "n": np.asarray(ns, np.int64)})

    parts = (page_entities.map_batches(page_bucket,
                                       batch_format="pyarrow")
             .groupby("bucket")
             .map_groups(counts, batch_format="pandas"))
    sizes: dict[str, int] = {}
    total = 0
    for row in parts.take_all():
        if row["kind"] == "t":
            total += int(row["n"])
        else:
            sizes[row["key"]] = sizes.get(row["key"], 0) + int(row["n"])

    cooc = entity_cooccurrence(page_entities, page_col, key_col,
                               n_buckets=n_buckets)
    pairs = sorted((r["src_key"], r["dst_key"], int(r["n_pages"]))
                   for r in cooc.take_all())
    src, dst, nab, na, nb, ratio = [], [], [], [], [], []
    for a, b, c in pairs:
        ca, cb = sizes[a], sizes[b]
        src.append(a); dst.append(b); nab.append(c)
        na.append(ca); nb.append(cb)
        ratio.append(float(c * total) / float(ca * cb))
    return ray.data.from_arrow(pa.table({
        "src_key": pa.array(src, pa.string()),
        "dst_key": pa.array(dst, pa.string()),
        "n_pages": pa.array(nab, pa.int64()),
        "n_src": pa.array(na, pa.int64()),
        "n_dst": pa.array(nb, pa.int64()),
        "pmi_ratio": pa.array(ratio, pa.float64())}))


# k-truss SQL-unroll budget: the oracle unrolls this many peel rounds;
# the engine raises if convergence needs more (the k-core contract)
KTRUSS_UNROLL = 6
# below this canonical-edge count the peel runs on the driver (edge
# list ≈ 16 B/edge — 5M edges = 80 MB, the graph-driver-path budget);
# past it the keyed-Dataset peel runs.  Both paths are parity-pinned
# in pytest and both return a Dataset (the r4 ADVICE contract: auto
# must not change the return type at the gate)
KTRUSS_DRIVER_EDGE_LIMIT = 5_000_000


def _edge_support(canon: Dataset, n_buckets: int = 64) -> Dataset:
    """Per-EDGE triangle support over a canonical (a < b) edge set —
    the k-truss inner primitive.  Same degree-ordered wedge/edge
    tag-union as :func:`triangle_counts` (O(m^1.5) wedge bound, edge
    set never broadcast), but each closed triangle (u, a, b) credits
    its THREE edges, and the per-pair partials take one more
    pair-bucket fold (a triangle's side edges hash to other buckets
    than its closing pair).  ``n_buckets`` must be a power of two: every
    bucket hash here masks with ``n_buckets - 1``."""
    if n_buckets <= 0 or n_buckets & (n_buckets - 1):
        raise ValueError(f"n_buckets must be a power of two, got {n_buckets}")
    MIX = np.uint64(0x9E3779B97F4A7C15)
    mask = np.uint64(n_buckets - 1)
    nodes, deg = _node_degrees(canon)
    empty = pa.table({"a": pa.array([], pa.uint64()),
                      "b": pa.array([], pa.uint64()),
                      "support": pa.array([], pa.int64())})
    if len(nodes) == 0:
        return ray.data.from_arrow(empty)
    nodes_ref = ray.put(nodes)
    deg_ref = ray.put(deg)

    def tagged(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.table({"u": pa.array([], pa.uint64()),
                             "v": pa.array([], pa.uint64()),
                             "wb": pa.array([], pa.int64())})
        nds, dg = ray.get(nodes_ref), ray.get(deg_ref)
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        da, db = dg[np.searchsorted(nds, a)], dg[np.searchsorted(nds, b)]
        lo_first = (da < db) | (da == db)
        u = np.where(lo_first, a, b)
        v = np.where(lo_first, b, a)
        ubk = ((u * MIX) & mask).astype(np.int64)
        return pa.table({"u": pa.array(u, pa.uint64()),
                         "v": pa.array(v, pa.uint64()),
                         "wb": pa.array(ubk, pa.int64())})

    oriented = canon.map_batches(tagged, batch_format="pyarrow")

    def wedges(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0 or "u" not in g.columns:
            m = None
        else:
            e = g[["u", "v"]]
            m = e.merge(e, on="u")
            m = m[m["v_x"] < m["v_y"]]
        if m is None or len(m) == 0:
            return pa.table({"a": pa.array([], pa.uint64()),
                             "b": pa.array([], pa.uint64()),
                             "u": pa.array([], pa.uint64()),
                             "kind": pa.array([], pa.int64())})
        return pa.table({
            "a": pa.array(m["v_x"].to_numpy(np.uint64), pa.uint64()),
            "b": pa.array(m["v_y"].to_numpy(np.uint64), pa.uint64()),
            "u": pa.array(m["u"].to_numpy(np.uint64), pa.uint64()),
            "kind": pa.array(np.ones(len(m), np.int64), pa.int64())})

    wedge_ds = (oriented.groupby("wb")
                .map_groups(wedges, batch_format="pandas"))

    def edge_rows(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "a" not in t.column_names:
            return pa.table({"a": pa.array([], pa.uint64()),
                             "b": pa.array([], pa.uint64()),
                             "u": pa.array([], pa.uint64()),
                             "kind": pa.array([], pa.int64())})
        n = t.num_rows
        return pa.table({"a": t.column("a"), "b": t.column("b"),
                         "u": pa.array(np.zeros(n, np.uint64),
                                       pa.uint64()),
                         "kind": pa.array(np.zeros(n, np.int64),
                                          pa.int64())})

    union = wedge_ds.union(canon.map_batches(edge_rows,
                                             batch_format="pyarrow"))

    def pair_bucket(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        bk = ((a * MIX + b) & mask).astype(np.int64)
        return t.append_column("pb", pa.array(bk, pa.int64()))

    def close_support(g: pd.DataFrame) -> pa.Table:
        out_empty = pa.table({"a": pa.array([], pa.uint64()),
                              "b": pa.array([], pa.uint64()),
                              "n": pa.array([], pa.int64()),
                              "pb2": pa.array([], pa.int64())})
        if len(g) == 0 or "kind" not in g.columns:
            return out_empty
        ed = g[g["kind"] == 0][["a", "b"]]
        wd = g[g["kind"] == 1]
        if len(ed) == 0 or len(wd) == 0:
            return out_empty
        tri = wd.merge(ed, on=["a", "b"])
        if len(tri) == 0:
            return out_empty
        u = tri["u"].to_numpy(np.uint64)
        a = tri["a"].to_numpy(np.uint64)
        b = tri["b"].to_numpy(np.uint64)
        all_a = np.concatenate([a, np.minimum(u, a), np.minimum(u, b)])
        all_b = np.concatenate([b, np.maximum(u, a), np.maximum(u, b)])
        cnt = (pd.DataFrame({"a": all_a, "b": all_b})
               .groupby(["a", "b"], as_index=False).size())
        ca = cnt["a"].to_numpy(np.uint64)
        cb = cnt["b"].to_numpy(np.uint64)
        bk2 = ((ca * MIX + cb) & mask).astype(np.int64)
        return pa.table({"a": pa.array(ca, pa.uint64()),
                         "b": pa.array(cb, pa.uint64()),
                         "n": pa.array(cnt["size"].to_numpy(np.int64),
                                       pa.int64()),
                         "pb2": pa.array(bk2, pa.int64())})

    def fold(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0 or "a" not in g.columns:
            return pa.table({"a": pa.array([], pa.uint64()),
                             "b": pa.array([], pa.uint64()),
                             "support": pa.array([], pa.int64())})
        s = g.groupby(["a", "b"], as_index=False)["n"].sum()
        return pa.table({"a": pa.array(s["a"].to_numpy(np.uint64),
                                       pa.uint64()),
                         "b": pa.array(s["b"].to_numpy(np.uint64),
                                       pa.uint64()),
                         "support": pa.array(
                             s["n"].to_numpy(np.int64), pa.int64())})

    return (union.map_batches(pair_bucket, batch_format="pyarrow")
                 .groupby("pb")
                 .map_groups(close_support, batch_format="pandas")
                 .groupby("pb2")
                 .map_groups(fold, batch_format="pandas"))


def _ktruss_driver(a: np.ndarray, b: np.ndarray, k: int,
                   max_rounds: int) -> pa.Table:
    """Driver-side simultaneous k-truss peel over a collected
    canonical edge list — the fast path below
    ``KTRUSS_DRIVER_EDGE_LIMIT`` (the k-truss fixpoint is unique, so
    this is bit-identical to the keyed-Dataset peel; pinned in
    pytest).  Each round is the distributed algorithm in-process at C
    speed: degree-ordered orientation, a vectorized pandas self-merge
    for wedges (O(m^1.5) bound), a merge against the edge set to close
    triangles, and one groupby for per-edge support — no interpreted
    per-edge set intersections."""
    es = pd.DataFrame({"a": a.astype(np.uint64),
                       "b": b.astype(np.uint64)})
    empty = pa.table({"src_id": pa.array([], pa.uint64()),
                      "dst_id": pa.array([], pa.uint64()),
                      "support": pa.array([], pa.int64())})
    for _ in range(max_rounds + 1):
        ids = np.concatenate([es["a"].to_numpy(np.uint64),
                              es["b"].to_numpy(np.uint64)])
        nodes, deg = np.unique(ids, return_counts=True)
        da = deg[np.searchsorted(nodes, es["a"].to_numpy(np.uint64))]
        db = deg[np.searchsorted(nodes, es["b"].to_numpy(np.uint64))]
        lo_first = da <= db
        ori = pd.DataFrame({
            "u": np.where(lo_first, es["a"], es["b"]),
            "v": np.where(lo_first, es["b"], es["a"])})
        w = ori.merge(ori, on="u")
        w = w[w["v_x"] < w["v_y"]]
        tri = w.merge(es, left_on=["v_x", "v_y"],
                      right_on=["a", "b"])
        if len(tri):
            u = tri["u"].to_numpy(np.uint64)
            x = tri["v_x"].to_numpy(np.uint64)
            y = tri["v_y"].to_numpy(np.uint64)
            all_a = np.concatenate([x, np.minimum(u, x),
                                    np.minimum(u, y)])
            all_b = np.concatenate([y, np.maximum(u, x),
                                    np.maximum(u, y)])
            sup = (pd.DataFrame({"a": all_a, "b": all_b})
                   .groupby(["a", "b"], as_index=False).size()
                   .rename(columns={"size": "support"}))
        else:
            sup = pd.DataFrame({"a": pd.Series([], dtype=np.uint64),
                                "b": pd.Series([], dtype=np.uint64),
                                "support": pd.Series([],
                                                     dtype=np.int64)})
        keep = sup[sup["support"] >= k - 2]
        if len(keep) == len(es):
            out = keep.sort_values(["a", "b"], kind="mergesort")
            return pa.table({
                "src_id": pa.array(out["a"].to_numpy(np.uint64),
                                   pa.uint64()),
                "dst_id": pa.array(out["b"].to_numpy(np.uint64),
                                   pa.uint64()),
                "support": pa.array(out["support"].to_numpy(np.int64),
                                    pa.int64())})
        if len(keep) == 0:
            return empty
        es = keep[["a", "b"]].reset_index(drop=True)
    raise RuntimeError(
        f"k-truss peel did not converge within the {max_rounds}-round "
        f"SQL unroll budget — raise KTRUSS_UNROLL and the oracle "
        f"together")


def ktruss_edges(edges: Dataset, k: int = 4,
                 src_col: str = "src_id", dst_col: str = "dst_id",
                 n_buckets: int = 64,
                 max_rounds: int = KTRUSS_UNROLL,
                 mode: str = "auto") -> Dataset:
    """The k-truss of the undirected simple graph: the maximal edge
    subgraph where every edge participates in ≥ k-2 triangles WITHIN
    the subgraph — the cohesion filter one rung stronger than k-core
    (a k-truss edge's endpoints share k-2 common neighbors, so it
    prunes barely-attached hubs that k-core keeps).

    Iterative peel: each round computes per-edge support over the
    SURVIVING edge set (:func:`_edge_support` — degree-ordered wedges,
    two bucket exchanges) and drops edges with support < k-2
    (including triangle-free edges, absent from the support table);
    fixpoint when no edge drops.  Convergence must land inside
    ``max_rounds`` (the oracle's mechanically-unrolled CTE budget, the
    k-core contract — runtime raises past it, pytest pins the margin).
    Output: (src_id, dst_id, support) with src < dst, support measured
    in the final subgraph.  ``k`` must be at least 3: the 2-truss is the
    whole graph, but triangle-free edges would be peeled here."""
    if k < 3:
        raise ValueError(f"k-truss needs k >= 3, got {k}")
    canon = _canonical_edges(edges, src_col, dst_col,
                             n_buckets).materialize()
    n_edges = canon.count()
    empty = pa.table({"src_id": pa.array([], pa.uint64()),
                      "dst_id": pa.array([], pa.uint64()),
                      "support": pa.array([], pa.int64())})
    if n_edges == 0:
        return ray.data.from_arrow(empty)
    if mode == "driver" or (mode == "auto"
                            and n_edges <= KTRUSS_DRIVER_EDGE_LIMIT):
        tbls = [t for t in ray.get(canon.to_arrow_refs())
                if t.num_rows and "a" in t.column_names]
        t = pa.concat_tables(tbls) if tbls else None
        if t is None:
            return ray.data.from_arrow(empty)
        return ray.data.from_arrow(_ktruss_driver(
            t.column("a").to_numpy(zero_copy_only=False),
            t.column("b").to_numpy(zero_copy_only=False),
            k, max_rounds))
    for _ in range(max_rounds + 1):
        sup = _edge_support(canon, n_buckets)
        keep = sup.filter(expr=f"support >= {k - 2}").materialize()
        n_keep = keep.count()
        if n_keep == n_edges:
            def rename(t: pa.Table) -> pa.Table:
                if t.num_rows == 0 or "a" not in t.column_names:
                    return empty
                return pa.table({"src_id": t.column("a"),
                                 "dst_id": t.column("b"),
                                 "support": t.column("support")})
            return keep.map_batches(rename, batch_format="pyarrow")
        if n_keep == 0:
            return ray.data.from_arrow(empty)
        canon = keep.drop_columns(["support"]).materialize()
        n_edges = n_keep
    raise RuntimeError(
        f"k-truss peel did not converge within the {max_rounds}-round "
        f"SQL unroll budget — raise KTRUSS_UNROLL and the oracle "
        f"together")
