"""Endpoint-resolution semi-join.

The reference resolves edge endpoints with ``MATCH src MATCH dst MERGE``
(``graphrag_sdk/steps/extract_data_step.py:266``): an inner semi-join of
edges against the node set on the unique-attr identity, where dangling
edges silently no-op.

Two exact strategies, picked by node-table size:

- ``broadcast``: ship the key set once (``ray.put``; the KG build
  broadcasts refs to its node table's per-block key arrays) and filter
  inside ``map_batches`` — no shuffle; right-sized for node tables up
  to ~10^7 keys.
- ``join``: hash-partitioned ``Dataset.join`` (Ray >= 2.46) on the key —
  both sides shuffle once; the scale path when the node set outgrows a
  single worker's heap.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset
from ray.data.block import BlockAccessor

_BCAST_CACHE: dict[str, object] = {}


def arrow_type_of(t) -> pa.DataType:
    """Schema type → arrow type (pandas-block datasets report numpy
    dtypes; object means string in this codebase)."""
    if isinstance(t, pa.DataType):
        return t
    try:
        return pa.from_numpy_dtype(t)
    except (pa.ArrowNotImplementedError, TypeError, ValueError):
        return pa.string()


def str_bucket(values, n: int) -> np.ndarray:
    """Vectorized TRANSIENT bucket ids for a sequence/Series of strings
    (``pandas.util.hash_array`` — cython siphash — replacing per-item
    Python crc32 loops on combiner outputs).  Same contract as
    :func:`key_bucket`: buckets are run-internal shuffle routing only,
    never persisted, so the hash needs no cross-version stability."""
    if isinstance(values, pd.Series):
        arr = values.to_numpy(dtype=object)
    elif isinstance(values, np.ndarray) and values.dtype == object:
        arr = values
    else:
        arr = np.asarray(list(values), dtype=object)
    hashed = pd.util.hash_array(arr, categorize=False)
    return (hashed % np.uint64(n)).astype(np.int64)


def key_bucket(col, n: int) -> pa.Array:
    """Deterministic bucket id per key: vectorized modulo for integer
    keys (full uint64 range — a safe int64 cast would reject ids above
    2^63, half of hash64's output space; negatives wrap two's-complement,
    which is fine because bucketing only needs consistency), vectorized
    siphash (``pandas.util.hash_array``, cython — replaces a per-row
    Python crc32 loop) for strings.  Nulls → bucket 0.  Buckets are
    TRANSIENT shuffle routing within one run — every consumer drops the
    bucket column after its fold, so the hash only needs run-internal
    consistency, never cross-version stability (the persisted shard
    layout in ``pipelines.kg_build`` is versioned separately)."""
    if pa.types.is_integer(col.type):
        filled = pc.fill_null(col, 0).cast(pa.uint64(), safe=False)
        vals = filled.to_numpy(zero_copy_only=False)
        return pa.array((vals % n).astype("int64"), pa.int64())
    ser = col.to_pandas()
    hashed = pd.util.hash_array(ser.to_numpy(dtype=object),
                                categorize=False)
    out = (hashed % np.uint64(n)).astype("int64")
    na = ser.isna().to_numpy()
    if na.any():
        out[na] = 0
    return pa.array(out, pa.int64())


def _broadcast_cache(ref):
    """Resolve a broadcast ObjectRef once per worker process (bounded)."""
    key = ref.hex()
    if key not in _BCAST_CACHE:
        if len(_BCAST_CACHE) >= 4:
            _BCAST_CACHE.clear()
        _BCAST_CACHE[key] = ray.get(ref)
    return _BCAST_CACHE[key]


def _broadcast_value_array(ref) -> pa.Array:
    """Broadcast key set → ``pa.Array`` value set for ``pc.is_in``,
    built ONCE per worker process (the per-row Python membership loop it
    replaces was the hot spot on the flagship edge path).  The broadcast
    value is a set or list of keys, or a list of refs to per-block key
    arrays (:func:`map_blocks`), which are fetched and concatenated."""
    key = ("arr", ref.hex())
    if key not in _BCAST_CACHE:
        if len(_BCAST_CACHE) >= 8:
            _BCAST_CACHE.clear()
        vals = ray.get(ref)
        if isinstance(vals, (set, frozenset)):
            vals = list(vals)
        if isinstance(vals, list) and vals and isinstance(
                vals[0], ray.ObjectRef):
            _BCAST_CACHE[key] = pa.concat_arrays(ray.get(vals))
        else:
            _BCAST_CACHE[key] = pa.array(vals)
    return _BCAST_CACHE[key]


@ray.remote
def _on_block(fn, block, *args):
    return fn(BlockAccessor.for_block(block).to_arrow(), *args)


def nonempty_blocks(ds: Dataset) -> list:
    """``(ref, num_rows)`` of the non-empty blocks of a materialized
    Dataset, in order.  Empty blocks are skipped: Ray may store them
    without a schema."""
    return [(ref, meta.num_rows) for bundle in ds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows]


def map_blocks(ds: Dataset, fn, *args, num_returns: int = 1) -> list:
    """Run ``fn(block, *args)`` on every non-empty block of a
    materialized Dataset as one plain Ray task per block, and return the
    result refs in block order (a list of ``num_returns`` refs per block
    when ``fn`` returns that many values).  ObjectRef ``args`` arrive
    resolved.  A per-block result of a few KB (a sum, a mask of the rows
    a block matched, a key column) costs one small task per block
    instead of a Dataset execution."""
    task = _on_block.options(num_returns=num_returns)
    return [task.remote(fn, ref, *args) for ref, _ in nonempty_blocks(ds)]


def filter_keys_in_broadcast(left: Dataset, key_set_ref,
                             cols: list[str]) -> Dataset:
    """Keep rows where EVERY column in ``cols`` hits the broadcast key set
    — the endpoint existence check for src and dst in ONE pass."""

    def _filter(batch: pa.Table) -> pa.Table:
        value_set = _broadcast_value_array(key_set_ref)
        if len(value_set) == 0:   # null-typed empty array breaks is_in
            return batch.slice(0, 0)
        mask = None
        for col in cols:
            hit = pc.is_in(batch.column(col), value_set=value_set)
            hit = pc.fill_null(hit, False)
            mask = hit if mask is None else pc.and_(mask, hit)
        return batch.filter(mask)

    return left.map_batches(_filter, batch_format="pyarrow")


def semi_join_keys(left: Dataset, right_keys: Dataset, left_col: str,
                   right_col: str, strategy: str = "auto",
                   num_partitions: int = 32,
                   broadcast_limit: int = 2_000_000,
                   right_count: int | None = None) -> Dataset:
    """Rows of ``left`` whose ``left_col`` exists in ``right_keys[right_col]``."""
    if strategy == "auto":
        n = right_count if right_count is not None else right_keys.count()
        strategy = "broadcast" if n <= broadcast_limit else "join"

    if strategy == "broadcast":
        keys: set[str] = set()
        for batch in right_keys.select_columns([right_col]).iter_batches(
                batch_size=65536, batch_format="pyarrow"):
            keys.update(batch.column(right_col).to_pylist())
        ref = ray.put(keys)

        def _filter(batch: pa.Table) -> pa.Table:
            # stateless task (no actor pool — a pool could starve sibling
            # operators on small clusters); the broadcast set is fetched
            # from the local object store and converted to a pc.is_in
            # value array once per worker process.
            value_set = _broadcast_value_array(ref)
            if len(value_set) == 0:
                return batch.slice(0, 0)
            mask = pc.fill_null(
                pc.is_in(batch.column(left_col), value_set=value_set), False)
            return batch.filter(mask)

        return left.map_batches(_filter, batch_format="pyarrow")

    if strategy == "join":
        return _semi_join_shuffle(left, right_keys, left_col, right_col,
                                  n_buckets=num_partitions)

    raise ValueError(f"unknown semi-join strategy {strategy!r}")


def _semi_join_shuffle(left: Dataset, right_keys: Dataset, left_col: str,
                       right_col: str, n_buckets: int = 32,
                       anti: bool = False) -> Dataset:
    """Hash-partitioned semi-join (``anti=True``: anti-join — keep left
    rows WITHOUT a key match) as ONE task-based sort shuffle.

    Both sides are tagged into a common schema (right keys occupy the
    ``left_col`` slot, every other column null) and co-located by a key
    bucket groupby; each bucket then keeps the left rows whose key
    appears among its right keys (vectorized ``isin``).  True semi-join
    semantics — duplicate right keys cannot duplicate left rows.

    ``Dataset.join`` (ray 2.49) is deliberately NOT used here: its hash
    aggregator pool is actor-based — two chained join operators under a
    small CPU budget can starve each other and deadlock the streaming
    executor (observed at num_cpus=8 on the src+dst edge semi-join
    chain), and empty partitions finalize as schema-less tables that
    crash pyarrow's join."""
    schema = left.schema()
    names = list(schema.names)
    types = {n: arrow_type_of(t) for n, t in zip(schema.names, schema.types)}

    def _bucket_col(keys) -> pa.Array:
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        return key_bucket(keys, n_buckets)

    def left_rows(t: pa.Table) -> pa.Table:
        t = t.append_column("_is_key", pa.array([False] * t.num_rows))
        return t.append_column("_bucket", _bucket_col(t.column(left_col)))

    def right_rows(t: pa.Table) -> pa.Table:
        k = t.column(right_col).cast(types[left_col])

        def filler(typ: pa.DataType) -> pa.Array:
            # 0-fill INTEGER slots instead of null: these placeholder
            # cells are dropped at output (only left rows survive), but
            # a null in a uint64/int64 column makes the pandas group
            # fold promote the WHOLE column to float64 — silently
            # corrupting surviving left ids above 2^53
            if pa.types.is_integer(typ):
                return pc.fill_null(pa.nulls(len(k), typ), 0)
            return pa.nulls(len(k), typ)

        cols = {n: (k if n == left_col else filler(types[n]))
                for n in names}
        out = pa.table(cols).append_column("_is_key",
                                           pa.array([True] * len(k)))
        return out.append_column("_bucket", _bucket_col(k))

    tagged = (left.map_batches(left_rows, batch_format="pyarrow")
              .union(right_keys.select_columns([right_col])
                     .map_batches(right_rows, batch_format="pyarrow")))

    def keep_matching(group, _names=tuple(names)):
        keys = set(group.loc[group["_is_key"], left_col])
        hit = group[left_col].isin(keys)
        if anti:
            hit = ~hit
        out = group.loc[~group["_is_key"] & hit, list(_names)]
        return out

    return tagged.groupby("_bucket").map_groups(keep_matching,
                                                batch_format="pandas")


def anti_join_keys(left: Dataset, right_keys: Dataset, left_col: str,
                   right_col: str, strategy: str = "auto",
                   num_partitions: int = 32,
                   broadcast_limit: int = 2_000_000,
                   right_count: int | None = None) -> Dataset:
    """Rows of ``left`` whose ``left_col`` does NOT exist in
    ``right_keys[right_col]`` — the complement of :func:`semi_join_keys`
    with the same size gate: DISTINCT right keys broadcast when they fit
    (``ray.put`` once, negated ``pc.is_in`` per batch), else the same
    tag-union bucket shuffle with the match inverted."""
    if strategy == "auto":
        n = right_count if right_count is not None else right_keys.count()
        strategy = "broadcast" if n <= broadcast_limit else "join"

    if strategy == "broadcast":
        keys: set = set()
        for batch in right_keys.select_columns([right_col]).iter_batches(
                batch_size=65536, batch_format="pyarrow"):
            keys.update(batch.column(right_col).to_pylist())
        ref = ray.put(keys)

        def _filter(batch: pa.Table) -> pa.Table:
            value_set = _broadcast_value_array(ref)
            if len(value_set) == 0:
                return batch               # nothing to exclude
            hit = pc.fill_null(
                pc.is_in(batch.column(left_col), value_set=value_set),
                False)
            return batch.filter(pc.invert(hit))

        return left.map_batches(_filter, batch_format="pyarrow")

    if strategy == "join":
        return _semi_join_shuffle(left, right_keys, left_col, right_col,
                                  n_buckets=num_partitions, anti=True)

    raise ValueError(f"unknown anti-join strategy {strategy!r}")


def filter_kind(ds: Dataset, kind: str) -> Dataset:
    """Vectorized branch filter on the normalized-mention ``kind`` column."""
    return ds.map_batches(
        lambda t: t.filter(pc.equal(t.column("kind"), kind)),
        batch_format="pyarrow")


def left_outer_join(left: Dataset, right: Dataset, left_col: str,
                    right_col: str, right_vals: list[str],
                    strategy: str = "auto", num_partitions: int = 32,
                    broadcast_limit: int = 2_000_000,
                    suffix: str = "_r",
                    right_count: int | None = None) -> Dataset:
    """General 1:N LEFT OUTER equi-join: every left row survives;
    matching right rows attach their ``right_vals`` columns (suffixed),
    duplicated right keys duplicate left rows (SQL semantics), misses
    fill null.  NULL join keys never match (SQL semantics — a raw
    pandas merge would pair NaN keys): null-key right rows are dropped
    from the match table, null-key left rows pass through null-filled.
    Size-gated like the semi-join family:

    - ``broadcast``: the (key, vals) right table is shipped once via
      ``ray.put`` and each left batch does one vectorized pandas merge
      — no shuffle; for dimension-table sides up to ~10^6 rows.
    - ``join``: the same tag-union single sort-shuffle as
      :func:`_semi_join_shuffle` (Dataset.join avoided — see that
      docstring), with a per-bucket pandas left merge.

    ``auto`` decides while collecting: the right side streams into the
    broadcast frame and flips to the shuffle path only if it exceeds
    ``broadcast_limit`` rows — one right-side pass in the common case
    (``right.count()`` on a transformed dataset would execute the whole
    upstream chain once, then the collect would re-execute it).  Pass
    ``right_count`` when the caller already knows the size to skip even
    the trial collect on oversized sides."""
    out_names = [v + suffix for v in right_vals]
    for n in out_names:
        if n in left.schema().names:
            raise ValueError(f"suffixed column {n!r} collides with left")
    if strategy == "auto" and right_count is not None:
        strategy = "broadcast" if right_count <= broadcast_limit else "join"

    lschema = left.schema()
    ltypes = {n: arrow_type_of(t)
              for n, t in zip(lschema.names, lschema.types)}
    key_type = ltypes[left_col]
    names = list(lschema.names)
    rschema = right.schema()
    rtypes = {n: arrow_type_of(t)
              for n, t in zip(rschema.names, rschema.types)}
    final_cols = names + out_names

    def _typed_table(df: pd.DataFrame) -> pa.Table:
        # pandas left-merge misses surface as NaN (numeric) or all-None
        # object columns; rebuild every column at its declared arrow
        # type so block schemas are identical whether a bucket/batch had
        # matches, partial matches, or none at all.
        cols = {}
        for n in names:
            cols[n] = pa.Array.from_pandas(df[n], type=ltypes[n])
        for v, o in zip(right_vals, out_names):
            arr = pa.Array.from_pandas(df[o])
            cols[o] = (pa.nulls(len(arr), rtypes[v])
                       if pa.types.is_null(arr.type)
                       else arr.cast(rtypes[v], safe=False))
        return pa.table(cols)

    if strategy in ("auto", "broadcast"):
        parts, total, oversized = [], 0, False
        for b in right.select_columns([right_col] + right_vals) \
                      .iter_batches(batch_size=65536,
                                    batch_format="pandas"):
            parts.append(b)
            total += len(b)
            if strategy == "auto" and total > broadcast_limit:
                # flip to the shuffle path; the abandoned partial
                # collect re-executes the right side there — only paid
                # when auto guessed wrong, vs. always paying a count()
                # pass up front
                oversized = True
                break
        if not oversized:
            rdf = (pd.concat(parts, ignore_index=True) if parts
                   else pd.DataFrame(columns=[right_col] + right_vals))
            rdf = rdf.rename(columns={right_col: "_jk",
                                      **{v: v + suffix
                                         for v in right_vals}})
            # SQL: NULL keys never match (pandas would pair NaN keys)
            rdf = rdf[rdf["_jk"].notna()]
            ref = ray.put(rdf)

            def attach(batch: pa.Table) -> pa.Table:
                r = _broadcast_cache(ref)
                df = batch.to_pandas().merge(
                    r, how="left", left_on=left_col, right_on="_jk")
                return _typed_table(df)

            return left.map_batches(attach, batch_format="pyarrow")
        parts = None
        strategy = "join"

    if strategy == "join":

        def left_rows(t: pa.Table) -> pa.Table:
            for v in right_vals:
                t = t.append_column(v + suffix,
                                    pa.nulls(t.num_rows, rtypes[v]))
            t = t.append_column("_is_key",
                                pa.array([False] * t.num_rows))
            k = t.column(left_col)
            if isinstance(k, pa.ChunkedArray):
                k = k.combine_chunks()
            return t.append_column("_bucket",
                                   key_bucket(k, num_partitions))

        def right_rows(t: pa.Table) -> pa.Table:
            k = t.column(right_col).cast(key_type)
            if isinstance(k, pa.ChunkedArray):
                k = k.combine_chunks()
            cols = {n: (k if n == left_col
                        else pa.nulls(len(k), ltypes[n]))
                    for n in names}
            for v in right_vals:
                cols[v + suffix] = t.column(v)
            out = pa.table(cols)
            out = out.append_column("_is_key",
                                    pa.array([True] * len(k)))
            return out.append_column("_bucket", key_bucket(k, num_partitions))

        tagged = (left.map_batches(left_rows, batch_format="pyarrow")
                  .union(right.select_columns([right_col] + right_vals)
                         .map_batches(right_rows,
                                      batch_format="pyarrow")))

        def merge_bucket(g: pd.DataFrame) -> pa.Table:
            l = g.loc[~g["_is_key"], names]
            r = g.loc[g["_is_key"], [left_col] + out_names]
            # SQL: NULL keys never match — dropping null-key right rows
            # leaves null-key left rows unmatched (null-filled) in the
            # merge, mirroring full_outer_join's ln/rn handling
            r = r[r[left_col].notna()]
            return _typed_table(
                l.merge(r, how="left", on=left_col)[final_cols])

        return tagged.groupby("_bucket").map_groups(
            merge_bucket, batch_format="pandas")

    raise ValueError(f"unknown left-join strategy {strategy!r}")


def full_outer_join(left: Dataset, right: Dataset, left_col: str,
                    right_col: str, left_vals: list[str],
                    right_vals: list[str], num_partitions: int = 32,
                    key_name: str = "key") -> Dataset:
    """General FULL OUTER equi-join: rows from BOTH sides survive,
    matches pair up (duplicated keys produce the SQL cartesian per
    key), one-sided keys fill the other side's columns with null.

    Same macro shape as :func:`left_outer_join`'s shuffle path — ONE
    tag-union sort shuffle (``Dataset.join`` deliberately avoided, see
    :func:`_semi_join_shuffle`) with a per-bucket vectorized pandas
    outer merge; every output column is rebuilt at its declared arrow
    type so block schemas are identical whatever mix of matched /
    left-only / right-only keys a bucket holds.  int64 value columns
    above 2^53 would lose precision through pandas' null-promotion to
    float — keep such ids on the key, not in ``*_vals`` (same caveat
    as the left join)."""
    lschema, rschema = left.schema(), right.schema()
    ltypes = {n: arrow_type_of(t)
              for n, t in zip(lschema.names, lschema.types)}
    rtypes = {n: arrow_type_of(t)
              for n, t in zip(rschema.names, rschema.types)}
    key_type = ltypes[left_col]
    final_cols = [key_name] + left_vals + right_vals

    def _prep(col, side):
        def f(t: pa.Table) -> pa.Table:
            k = t.column(col).cast(key_type)
            if isinstance(k, pa.ChunkedArray):
                k = k.combine_chunks()
            cols = {key_name: k}
            for v in left_vals:
                cols[v] = (t.column(v) if side == 0
                           else pa.nulls(len(k), ltypes[v]))
            for v in right_vals:
                cols[v] = (t.column(v) if side == 1
                           else pa.nulls(len(k), rtypes[v]))
            cols["_side"] = pa.array(np.full(len(k), side, np.int8))
            out = pa.table(cols)
            return out.append_column("_bucket",
                                     key_bucket(k, num_partitions))
        return f

    tagged = (left.select_columns([left_col] + left_vals)
              .map_batches(_prep(left_col, 0),
                           batch_format="pyarrow")
              .union(right.select_columns([right_col] + right_vals)
                     .map_batches(_prep(right_col, 1),
                                  batch_format="pyarrow")))

    vtypes = {**{v: ltypes[v] for v in left_vals},
              **{v: rtypes[v] for v in right_vals}}

    def merge_bucket(g: pd.DataFrame) -> pa.Table:
        l = g.loc[g["_side"] == 0, [key_name] + left_vals]
        r = g.loc[g["_side"] == 1, [key_name] + right_vals]
        # SQL equi-join semantics: NULL keys never match (pandas merge
        # would pair NaN keys with each other) — null-key rows from
        # either side pass through unmatched
        ln, rn = l[key_name].isna(), r[key_name].isna()
        m = l[~ln].merge(r[~rn], how="outer", on=key_name)
        if ln.any():
            m = pd.concat([m, l[ln].reindex(columns=final_cols)],
                          ignore_index=True)
        if rn.any():
            m = pd.concat([m, r[rn].reindex(columns=final_cols)],
                          ignore_index=True)
        m = m[final_cols]
        cols = {key_name: pa.Array.from_pandas(m[key_name],
                                               type=key_type)}
        for v in left_vals + right_vals:
            arr = pa.Array.from_pandas(m[v])
            cols[v] = (pa.nulls(len(arr), vtypes[v])
                       if pa.types.is_null(arr.type)
                       else arr.cast(vtypes[v], safe=False))
        return pa.table(cols)

    return tagged.groupby("_bucket").map_groups(
        merge_bucket, batch_format="pandas")


def snapshot_diff(v1: Dataset, v2: Dataset,
                  n_buckets: int = 16) -> Dataset:
    """Crawl-refresh delta between two snapshot Datasets of
    ``(url, th)`` content-hash rows (``th1`` on the v1 side, ``th2``
    on v2): per-host counts of added / removed / changed / unchanged
    urls — the incremental-refresh primitive that decides how much of
    a recrawl actually needs reprocessing.

    Shape: ONE tag-union sort shuffle (:func:`full_outer_join`) pairs
    the two snapshots by url; status is a vectorized per-batch CASE;
    the per-(host, status) combiner collapses to host-sized rows
    before the tiny host-bucket pivot fold.  Content hashes ride the
    exchange, never text."""
    from ..functions.web import url_host_section
    j = full_outer_join(v1, v2, "url", "url", ["th1"], ["th2"],
                        key_name="url")
    statuses = ["added", "removed", "changed", "unchanged"]

    def partial(t: pa.Table) -> pa.Table:
        host, _, ok = url_host_section(t.column("url"))
        df = pa.table({"host": host,
                       "th1": t.column("th1"),
                       "th2": t.column("th2")}).filter(ok).to_pandas()
        a = df["th1"].isna()
        r = df["th2"].isna()
        df["status"] = np.where(
            a, "added", np.where(
                r, "removed", np.where(
                    df["th1"] != df["th2"], "changed", "unchanged")))
        agg = df.groupby(["host", "status"], as_index=False).size()
        return pa.table({
            "host": pa.array(agg["host"], pa.string()),
            "status": pa.array(agg["status"], pa.string()),
            "n": pa.array(agg["size"].to_numpy(np.int64), pa.int64()),
            "_b": pa.array(str_bucket(agg["host"], n_buckets),
                           pa.int64())})

    def fold(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0 or "host" not in g.columns:
            return pa.table(
                {"host": pa.array([], pa.string())}
                | {f"n_{s}": pa.array([], pa.int64())
                   for s in statuses})
        piv = g.pivot_table(index="host", columns="status", values="n",
                            aggfunc="sum", fill_value=0)
        hosts = piv.index.tolist()
        cols = {"host": pa.array(hosts, pa.string())}
        for s in statuses:
            v = (piv[s].to_numpy(np.int64) if s in piv.columns
                 else np.zeros(len(hosts), np.int64))
            cols[f"n_{s}"] = pa.array(v, pa.int64())
        return pa.table(cols)

    return (j.map_batches(partial, batch_format="pyarrow")
             .groupby("_b")
             .map_groups(fold, batch_format="pandas")
             .sort("host"))
