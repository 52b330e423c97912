"""Relational / corpus-curation operators Ray Data lacks natively:
as-of join, distributed exact quantiles, deterministic hash split, and
global token frequencies.

Each follows the repo's scale pattern: per-batch combiners, ONE coarse-
bucketed shuffle for the wide step, vectorized in-bucket work, and a
documented partitioning assumption.  All four are SQL-oracle-checkable
(see ``__ray_entry__.oracle_sql``).
"""

from __future__ import annotations


import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from .joins import arrow_type_of, key_bucket, str_bucket

N_BUCKETS = 64


def _key_bucket(col, n: int = N_BUCKETS) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return key_bucket(col, n)


def as_of_join(left: Dataset, right: Dataset, key: str, left_ts: str,
               right_ts: str, right_vals: list[str],
               right_key: str | None = None,
               right_order: str | None = None,
               n_buckets: int = N_BUCKETS) -> Dataset:
    """For every left row, attach ``right_vals`` from the LATEST right
    row with the same ``key`` and ``right_ts <= left_ts`` (NULLs when no
    such row).  Ties on ``right_ts`` break on ``right_order`` (largest
    wins) so the result is deterministic.

    Dataflow: both sides tagged into a common schema and co-located by
    ONE key-bucket sort shuffle; within a bucket the right side is
    sorted per key once and every left timestamp resolves by
    ``np.searchsorted`` — O((L+R) log R) per key, no per-row join.
    Partitioning assumption: one key's rows fit one worker (same as any
    keyed window); salt hot keys upstream if a single key dominates."""
    right_key = right_key or key
    l_schema = left.schema()
    l_names = list(l_schema.names)

    l_types = {n: arrow_type_of(t)
               for n, t in zip(l_schema.names, l_schema.types)}

    def ts_us(col: pa.ChunkedArray) -> pa.ChunkedArray:
        # normalize BOTH sides to microseconds: a date32 column cast
        # straight to int64 would be a DAY count silently compared
        # against microsecond timestamps
        if pa.types.is_date(col.type) or pa.types.is_timestamp(col.type):
            return col.cast(pa.timestamp("us")).cast(pa.int64())
        return col.cast(pa.int64())

    def left_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = {c: t.column(c) for c in l_names}
        cols["_k"] = t.column(key).cast(pa.int64())
        cols["_ts"] = ts_us(t.column(left_ts))
        cols["_ord"] = pa.nulls(n, pa.int64())
        for v in right_vals:
            cols[f"_r_{v}"] = pa.nulls(n, pa.float64())
        cols["_is_right"] = pa.array([False] * n)
        out = pa.table(cols)
        return out.append_column("_bucket", _key_bucket(out.column("_k"),
                                                        n_buckets))

    def right_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = {c: pa.nulls(n, l_types[c]) for c in l_names}
        cols["_k"] = t.column(right_key).cast(pa.int64())
        cols["_ts"] = ts_us(t.column(right_ts))
        cols["_ord"] = (t.column(right_order).cast(pa.int64())
                        if right_order else pa.nulls(n, pa.int64()))
        for v in right_vals:
            cols[f"_r_{v}"] = t.column(v).cast(pa.float64())
        cols["_is_right"] = pa.array([True] * n)
        out = pa.table(cols)
        return out.append_column("_bucket", _key_bucket(out.column("_k"),
                                                        n_buckets))

    tagged = (left.map_batches(left_rows, batch_format="pyarrow")
              .union(right.map_batches(right_rows, batch_format="pyarrow")))

    def attach(group: pd.DataFrame) -> pa.Table:
        # sort is stable AND the trailing value columns participate, so
        # exact (key, ts, ord) duplicates still resolve deterministically
        # from data alone, not block arrival order
        sort_cols = (["_k", "_ts", "_ord"]
                     + [f"_r_{v}" for v in right_vals])
        rights = group[group["_is_right"]].sort_values(sort_cols,
                                                       kind="mergesort")
        # merge_asof needs the on-column globally monotonic; the stable
        # re-sort by _ts keeps the per-(key, ts) tie order from above, so
        # the LAST positional match (what merge_asof picks) is still the
        # max (_ord, values) row — identical to the searchsorted
        # side="right" semantics this replaced
        rcols = ["_k", "_ts"] + [f"_r_{v}" for v in right_vals]
        rights = rights[rcols].sort_values("_ts", kind="mergesort")
        lefts = (group.loc[~group["_is_right"], l_names + ["_k", "_ts"]]
                 .sort_values("_ts", kind="mergesort"))
        if len(rights):
            merged = pd.merge_asof(lefts, rights, on="_ts", by="_k",
                                   direction="backward")
        else:
            merged = lefts.copy()
            for v in right_vals:
                merged[f"_r_{v}"] = np.nan
        arrays = []
        names = []
        for c in l_names:
            arrays.append(pa.Array.from_pandas(merged[c], type=l_types[c]))
            names.append(c)
        for v in right_vals:
            arrays.append(pa.Array.from_pandas(merged[f"_r_{v}"],
                                               type=pa.float64()))
            names.append(f"{v}_asof")
        return pa.Table.from_arrays(arrays, names=names)

    return tagged.groupby("_bucket").map_groups(attach,
                                                batch_format="pandas")


def _zero_pad(n: int, typ: pa.DataType) -> pa.Array:
    """Typed zero/empty filler for cross-side padding in tag-union
    shuffles.  Padding with NULLs instead would let pandas promote
    int64 columns to float64 inside map_groups, corrupting 64-bit ids
    above 2^53 — the padded slots are never read, so zeros are safe."""
    if pa.types.is_timestamp(typ) or pa.types.is_date(typ):
        return pa.nulls(n, typ)          # zero-epoch is fine but nulls
        # keep date arithmetic honest; ts cols don't ride pandas here
    if pa.types.is_string(typ) or pa.types.is_large_string(typ):
        return pa.array([""] * n, typ)
    if pa.types.is_boolean(typ):
        return pa.array(np.zeros(n, dtype=bool))
    if pa.types.is_floating(typ):
        return pa.array(np.zeros(n, dtype=np.float64), typ)
    return pa.array(np.zeros(n, dtype=np.int64), typ)


def range_join(left: Dataset, right: Dataset, key: str, left_ts: str,
               right_ts: str, right_vals: list[str],
               lo_us: int, hi_us: int,
               right_key: str | None = None,
               n_buckets: int = N_BUCKETS) -> Dataset:
    """Distributed interval (range) join: one output row per
    ``(left, right)`` pair with equal keys and
    ``left_ts + lo_us <= right_ts <= left_ts + hi_us`` (inner-join
    semantics; timestamps normalized to int64 microseconds).

    Dataflow — the textbook co-partitioning for interval joins: both
    sides shuffle ONCE on ``(key, time_bucket)`` with bucket width =
    the window span.  A right row lands in exactly one time bucket; a
    left row's query interval touches at most two, so only the left
    side replicates (≤2×) and every matching pair surfaces exactly
    once — no dedup aggregate.  Within a bucket the match is ONE
    vectorized pandas inner merge + window filter; no per-key Python.
    Hot keys stay survivable because a skewed key's rows still spread
    across time cells — the cross product is bounded per (key, cell),
    not per key.  (Ray Data has no native range join; SURVEY §2
    custom-operator mandate.)"""
    if hi_us < lo_us:
        raise ValueError("hi_us must be >= lo_us")
    right_key = right_key or key
    width = max(hi_us - lo_us, 1)
    l_schema = left.schema()
    l_names = list(l_schema.names)
    l_types = {n: arrow_type_of(t)
               for n, t in zip(l_schema.names, l_schema.types)}
    r_schema = right.schema()
    r_types = {n: arrow_type_of(t)
               for n, t in zip(r_schema.names, r_schema.types)}

    def ts_us(col: pa.ChunkedArray) -> pa.ChunkedArray:
        if pa.types.is_date(col.type) or pa.types.is_timestamp(col.type):
            return col.cast(pa.timestamp("us")).cast(pa.int64())
        return col.cast(pa.int64())

    def left_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        lts = ts_us(t.column(left_ts)).to_numpy(zero_copy_only=False)
        base = {c: t.column(c) for c in l_names}
        base["_k"] = t.column(key).cast(pa.int64())
        base["_ts"] = pa.array(lts, pa.int64())
        base["_rts"] = pa.array(np.zeros(n, np.int64), pa.int64())
        for v in right_vals:
            base[f"_r_{v}"] = _zero_pad(n, r_types[v])
        base["_is_right"] = pa.array(np.zeros(n, dtype=bool))
        tb1 = (lts + lo_us) // width
        tb2 = (lts + hi_us) // width
        t1 = pa.table({**base, "_tb": pa.array(tb1, pa.int64())})
        spill = tb2 != tb1
        if spill.any():
            t2 = (pa.table({**base, "_tb": pa.array(tb2, pa.int64())})
                  .filter(pa.array(spill)))
            t1 = pa.concat_tables([t1, t2])
        return t1.append_column(
            "_bucket", pa.array((t1.column("_k").to_numpy() * 1000003
                                 + t1.column("_tb").to_numpy())
                                % n_buckets, pa.int64()))

    def right_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        rts = ts_us(t.column(right_ts)).to_numpy(zero_copy_only=False)
        cols = {c: _zero_pad(n, l_types[c]) for c in l_names}
        cols["_k"] = t.column(right_key).cast(pa.int64())
        cols["_ts"] = pa.array(np.zeros(n, np.int64), pa.int64())
        cols["_rts"] = pa.array(rts, pa.int64())
        for v in right_vals:
            cols[f"_r_{v}"] = t.column(v).cast(r_types[v])
        cols["_is_right"] = pa.array(np.ones(n, dtype=bool))
        cols["_tb"] = pa.array(rts // width, pa.int64())
        out = pa.table(cols)
        return out.append_column(
            "_bucket", pa.array((out.column("_k").to_numpy() * 1000003
                                 + out.column("_tb").to_numpy())
                                % n_buckets, pa.int64()))

    tagged = (left.map_batches(left_rows, batch_format="pyarrow")
              .union(right.map_batches(right_rows,
                                       batch_format="pyarrow")))

    out_names = l_names + [f"{v}_r" for v in right_vals]
    out_types = ([l_types[c] for c in l_names]
                 + [r_types[v] for v in right_vals])

    def attach(g: pd.DataFrame) -> pa.Table:
        lefts = g[~g["_is_right"]]
        rights = g[g["_is_right"]]
        if not len(lefts) or not len(rights):
            return pa.table({nm: pa.array([], ty)
                             for nm, ty in zip(out_names, out_types)})
        rcols = ["_k", "_tb", "_rts"] + [f"_r_{v}" for v in right_vals]
        merged = (lefts[l_names + ["_k", "_ts", "_tb"]]
                  .merge(rights[rcols], on=["_k", "_tb"]))
        win = ((merged["_rts"] >= merged["_ts"] + lo_us)
               & (merged["_rts"] <= merged["_ts"] + hi_us))
        merged = merged[win]
        arrays = [pa.Array.from_pandas(merged[c], type=l_types[c])
                  for c in l_names]
        arrays += [pa.Array.from_pandas(merged[f"_r_{v}"],
                                        type=r_types[v])
                   for v in right_vals]
        return pa.Table.from_arrays(arrays, names=out_names)

    return tagged.groupby("_bucket").map_groups(attach,
                                                batch_format="pandas")


def hash_split(ds: Dataset, id_col: str, n_buckets: int = 10,
               train_buckets: int = 8,
               split_col: str = "split") -> Dataset:
    """Deterministic train/test split on ``id % n_buckets`` — the same
    row lands in the same split on every run and every cluster layout
    (never use ``random_shuffle`` for split assignment: resumes and
    re-runs would disagree)."""

    def tag(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        bucket = pa.array(ids % n_buckets, pa.int64())
        is_train = pc.less(bucket, train_buckets)
        label = pc.if_else(is_train, "train", "test")
        return t.append_column(split_col, label)

    return ds.map_batches(tag, batch_format="pyarrow")


def grouped_limit(ds: Dataset, key_col: str, order_col: str, k: int,
                  n_buckets: int = N_BUCKETS) -> Dataset:
    """Per-key LIMIT: keep at most ``k`` rows per key, chosen by
    ascending ``(order_col, remaining columns...)``-free deterministic
    order (``order_col`` alone must be unique per key for a stable
    result — use a hash/id column).  The Common-Crawl curation use is
    per-domain document caps: a handful of giant hosts otherwise
    dominate the training mix.

    One coarse-bucket shuffle on the key (many keys per fold — never a
    per-key task); the fold sorts its bucket once by (key, order) and
    applies a vectorized per-key cumcount mask.  SQL mirror:
    ``QUALIFY row_number() OVER (PARTITION BY key ORDER BY ord) <= k``.
    Partitioning assumption: one key's rows fit one worker; for a
    single pathological key, pre-filter with a per-batch local head
    (any batch contributes at most k rows per key) before the shuffle —
    the combiner below does exactly that, so shuffle volume per key is
    bounded by k x n_input_blocks, not the key's row count."""
    if k < 1:
        raise ValueError("k must be >= 1")

    def keep_indices(t: pa.Table) -> pa.Array:
        # rank on a (key, order) pandas PROJECTION only; payload columns
        # never round-trip through pandas (a nullable int64/uint64
        # payload would degrade to float64 and corrupt ids above 2^53)
        g = pd.DataFrame({"k": t.column(key_col).to_pandas(),
                          "o": t.column(order_col).to_pandas()})
        g = g.sort_values(["k", "o"], kind="mergesort")
        keep = (g.groupby("k", sort=False).cumcount() < k).to_numpy()
        return pa.array(np.sort(g.index.to_numpy()[keep]), pa.int64())

    def local_head(t: pa.Table) -> pa.Table:
        # in-batch pre-trim: at most k rows per key leave each block
        out = t.take(keep_indices(t))
        return out.append_column(
            "_bucket", _key_bucket(out.column(key_col), n_buckets))

    def fold(t: pa.Table) -> pa.Table:
        return t.take(keep_indices(t)).drop_columns(["_bucket"])

    return (ds.map_batches(local_head, batch_format="pyarrow")
              .groupby("_bucket")
              .map_groups(fold, batch_format="pyarrow"))


def token_frequencies(ds: Dataset, text_col: str = "text",
                      k: int = 100, n_buckets: int = N_BUCKETS) -> Dataset:
    """Global top-k token frequencies (whitespace tokens): per-batch
    ``value_counts`` combiner → ONE bucket-grouped fold (per-token Ray
    aggregation would pay per-tiny-group overhead on an open vocabulary)
    → sort/limit on the vocabulary-sized result."""

    def partial(t: pa.Table) -> pa.Table:
        # RE2-semantics tokenization ('\S' = [^ \t\n\f\r]), vectorized:
        # Python str.split() would also split on Unicode whitespace
        # (NBSP, \v, …) and silently disagree with the DuckDB oracle and
        # token_stats_batch on such corpora
        col = t.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        toks = pc.split_pattern_regex(
            pc.fill_null(col, ""), pattern="[ \t\n\f\r]+").flatten()
        toks = toks.filter(pc.greater(pc.utf8_length(toks), 0))
        if len(toks) == 0:
            return pa.table({"token": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int64())})
        vc = pc.value_counts(toks)
        tokens = vc.field("values")
        buckets = str_bucket(tokens.to_pandas(), n_buckets)
        return pa.table({"token": tokens.cast(pa.string()),
                         "n": vc.field("counts").cast(pa.int64()),
                         "bucket": pa.array(buckets, pa.int64())})

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("token", as_index=False)["n"].sum()
        g["n"] = g["n"].astype(np.int64)
        return g[["token", "n"]]

    out = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("bucket")
             .map_groups(fold, batch_format="pandas"))
    return out.sort(["n", "token"], descending=[True, False]).limit(k)


def grouped_quantiles(ds: Dataset, group_col: str, col: str,
                      qs: list[float],
                      n_buckets: int = N_BUCKETS) -> Dataset:
    """EXACT discrete quantiles of ``col`` PER GROUP.

    One coarse-bucket shuffle co-locates each group's rows (groups hash
    into ``n_buckets`` buckets — per-tiny-group ``map_groups`` overhead
    is the scale killer this avoids); inside a bucket each group's
    column is sorted once and all ranks are gathered vectorized.  Rank
    formula matches DuckDB ``quantile_disc``: ``ceil(q*n) - 1``.
    Partitioning assumption: one group's rows fit one worker — the same
    contract as any keyed window; for a single giant group use
    :func:`exact_quantiles` (full distributed sort) instead."""
    qs_arr = np.asarray(qs, dtype=np.float64)

    def bucket(t: pa.Table) -> pa.Table:
        # quantile_disc ignores NULL values; null GROUPS drop as the
        # gate oracles' WHERE <group> IS NOT NULL mirrors
        t = t.select([group_col, col]).filter(
            pc.and_(t.column(col).is_valid(),
                    t.column(group_col).is_valid()))
        return t.append_column(
            "_bucket", _key_bucket(t.column(group_col), n_buckets))

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        out_g, out_q, out_v = [], [], []
        for g, sub in group.groupby(group_col, sort=False):
            vals = np.sort(sub[col].to_numpy())
            n = len(vals)
            ranks = np.minimum(n - 1, np.maximum(
                0, np.ceil(qs_arr * n).astype(np.int64) - 1))
            out_g.extend([g] * len(qs_arr))
            out_q.extend(qs_arr.tolist())
            out_v.extend(vals[ranks].astype(np.float64).tolist())
        return pd.DataFrame({group_col: out_g,
                             "q": np.asarray(out_q, np.float64),
                             "value": np.asarray(out_v, np.float64)})

    return (ds.map_batches(bucket, batch_format="pyarrow")
              .groupby("_bucket")
              .map_groups(fold, batch_format="pandas"))


def chunk_documents(ds: Dataset, text_col: str = "text",
                    id_col: str = "doc_id", chunk_chars: int = 200,
                    overlap: int = 50) -> Dataset:
    """RAG-style fixed-size character chunking with overlap: document →
    chunks of ``chunk_chars`` starting every ``chunk_chars - overlap``
    characters (last chunk may be short; empty docs emit no chunks).
    A pure per-batch flat map — embarrassingly parallel, no shuffle."""
    if overlap >= chunk_chars:
        raise ValueError("overlap must be smaller than chunk_chars")
    step = chunk_chars - overlap

    def chunks(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_pylist()
        texts = t.column(text_col).to_pylist()
        id_o, cid_o, chunk_o = [], [], []
        for i, s in zip(ids, texts):
            s = s or ""
            for cid, start in enumerate(range(0, len(s), step)):
                id_o.append(i)
                cid_o.append(cid)
                chunk_o.append(s[start:start + chunk_chars])
        return pa.table({id_col: pa.array(id_o, pa.int64()),
                         "chunk_id": pa.array(cid_o, pa.int64()),
                         "chunk": pa.array(chunk_o, pa.string())})

    return ds.map_batches(chunks, batch_format="pyarrow")


def ngram_frequencies(ds: Dataset, text_col: str = "text", n: int = 2,
                      k: int = 100, n_buckets: int = N_BUCKETS) -> Dataset:
    """Global top-k word n-gram frequencies (n=2: bigram counts — the
    language-model / collocation statistic).  Same shape as
    :func:`token_frequencies`: per-batch count combiner → ONE bucket
    fold → vocabulary-sized sort/limit.  Tokenization matches the RE2
    ``\\S+`` semantics of the oracle."""

    def partial(t: pa.Table) -> pa.Table:
        col = t.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lists = pc.split_pattern_regex(pc.fill_null(col, ""),
                                       pattern="[ \t\n\f\r]+")
        grams: list[str] = []
        for toks in lists.to_pylist():
            toks = [tk for tk in toks if tk]
            grams.extend(" ".join(toks[i:i + n])
                         for i in range(len(toks) - n + 1))
        if not grams:
            return pa.table({"ngram": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int64())})
        vc = pd.Series(grams).value_counts()
        buckets = str_bucket(vc.index.to_series(), n_buckets)
        return pa.table({"ngram": pa.array(vc.index, pa.string()),
                         "n": pa.array(vc.to_numpy(), pa.int64()),
                         "bucket": pa.array(buckets, pa.int64())})

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("ngram", as_index=False)["n"].sum()
        g["n"] = g["n"].astype(np.int64)
        return g[["ngram", "n"]]

    out = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("bucket")
             .map_groups(fold, batch_format="pandas"))
    return out.sort(["n", "ngram"], descending=[True, False]).limit(k)


def doc_frequencies(ds: Dataset, text_col: str = "text",
                    k: int | None = 100,
                    n_buckets: int = N_BUCKETS) -> Dataset:
    """Corpus document-frequency table ``(token, df, tf)`` — the IDF
    statistic under TF-IDF/BM25 scoring.  The distributed-interesting
    part is ``df``: it needs per-document DISTINCT tokens before the
    count.  Documents never span batch rows, so the per-batch combiner
    emits both partials exactly — ``tf`` from ``value_counts`` over the
    flat tokens, ``df`` from ``value_counts`` over per-row deduplicated
    tokens — and ONE bucket-grouped fold sums them.  Output is the
    top-``k`` by ``(df DESC, token ASC)``; the full table (no limit)
    is the broadcast side of a TF-IDF scoring pass."""

    def partial(t: pa.Table) -> pa.Table:
        col = t.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lists = pc.split_pattern_regex(pc.fill_null(col, ""),
                                       pattern="[ \t\n\f\r]+")
        nl = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        rows = np.repeat(np.arange(len(t), dtype=np.int64), nl)
        flat = lists.flatten()
        keep = pc.greater(pc.utf8_length(flat), 0).to_numpy(
            zero_copy_only=False)
        toks = np.asarray(flat.to_pylist(), dtype=object)[keep]
        rows = rows[keep]
        if not len(toks):
            return pa.table({"token": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64()),
                             "tf": pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int64())})
        tf = pd.Series(toks).value_counts()
        df_ = (pd.DataFrame({"r": rows, "t": toks}).drop_duplicates()
                 ["t"].value_counts())
        merged = pd.DataFrame({"tf": tf, "df": df_})
        buckets = str_bucket(merged.index.to_series(), n_buckets)
        return pa.table({"token": pa.array(merged.index, pa.string()),
                         "df": pa.array(merged["df"].to_numpy(np.int64),
                                        pa.int64()),
                         "tf": pa.array(merged["tf"].to_numpy(np.int64),
                                        pa.int64()),
                         "bucket": pa.array(buckets, pa.int64())})

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("token", as_index=False)[["df", "tf"]].sum()
        g["df"] = g["df"].astype(np.int64)
        g["tf"] = g["tf"].astype(np.int64)
        return g[["token", "df", "tf"]]

    out = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("bucket")
             .map_groups(fold, batch_format="pandas"))
    if k is None:            # full table (the broadcast side of TF-IDF)
        return out
    return out.sort(["df", "token"], descending=[True, False]).limit(k)


def exact_quantiles(ds: Dataset, col: str,
                    qs: list[float]) -> pa.Table:
    """EXACT discrete quantiles of a column, distributed.

    One full sort shuffle, then ``split_at_indices`` on the target ranks
    — only the rank rows are ever fetched to the driver, never the
    column.  Rank formula matches DuckDB ``quantile_disc``:
    ``ceil(q*n) - 1`` (clamped).  At 100-TB scale swap in a mergeable
    KLL/t-digest sketch; this is the exact baseline the sketch is
    measured against (same relationship as brute-force vs IVF ANN)."""
    import math
    ds = ds.select_columns([col]).map_batches(
        lambda t: t.filter(t.column(col).is_valid()),
        batch_format="pyarrow")   # quantile_disc ignores NULLs
    # sort+materialize FIRST: count() then reads block metadata instead
    # of paying a second full scan of the filtered column
    s = ds.sort(col).materialize()
    n = s.count()
    if n == 0:
        return pa.table({"q": pa.array(qs, pa.float64()),
                         "value": pa.array([None] * len(qs), pa.float64())})
    ranks = [min(n - 1, max(0, math.ceil(q * n) - 1)) for q in qs]
    uniq = sorted(set(ranks))
    parts = s.split_at_indices(uniq)
    # parts[i+1] starts at global sorted index uniq[i], so the element
    # AT rank uniq[i] is its first row (holds for uniq[0] == 0 too:
    # parts[0] is then empty)
    at_rank = {}
    for r, part in zip(uniq, parts[1:]):
        row = part.take(1)
        at_rank[r] = row[0][col] if row else None
    return pa.table({
        "q": pa.array(qs, pa.float64()),
        "value": pa.array([at_rank[r] for r in ranks], pa.float64())})


def prefix_sum(ds: Dataset, order_col: str, weight_col: str,
               out_col: str = "offset") -> Dataset:
    """Distributed EXCLUSIVE prefix sum: each row gets the total weight
    of all rows strictly before it in ``order_col`` order (which must be
    unique — it identifies blocks after the sort).

    Classic two-pass scan: global sort, then one tiny pass collects each
    block's (first order value, weight total) — O(blocks) rows to the
    driver — which are exclusive-scanned and broadcast; a second pass
    adds each block's base to its local cumsum.  Only per-block scalars
    ever leave the workers."""
    s = ds.sort(order_col).materialize()

    def block_stat(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"first": pa.array([], pa.int64()),
                             "total": pa.array([], pa.float64())})
        w = t.column(weight_col).to_numpy(zero_copy_only=False)
        first = t.column(order_col)[0].as_py()
        return pa.table({"first": pa.array([int(first)], pa.int64()),
                         "total": pa.array([float(w.sum())], pa.float64())})

    stats = []
    # batch_size=None = one batch per BLOCK: both passes must see the
    # exact same boundaries or the base lookup misses
    for b in (s.map_batches(block_stat, batch_format="pyarrow",
                            batch_size=None)
              .iter_batches(batch_size=4096, batch_format="pyarrow")):
        stats.extend(zip(b.column("first").to_pylist(),
                         b.column("total").to_pylist()))
    stats.sort()
    bases: dict[int, float] = {}
    running = 0.0
    for first, total in stats:
        bases[first] = running
        running += total

    import ray as _ray
    ref = _ray.put(bases)

    def attach(t: pa.Table) -> pa.Table:
        from .joins import _broadcast_cache
        base_by_first = _broadcast_cache(ref)
        if t.num_rows == 0:
            return t.append_column(out_col, pa.array([], pa.float64()))
        w = t.column(weight_col).to_numpy(zero_copy_only=False).astype(
            "float64")
        local = np.concatenate([[0.0], np.cumsum(w)[:-1]])
        base = base_by_first[int(t.column(order_col)[0].as_py())]
        return t.append_column(out_col,
                               pa.array(base + local, pa.float64()))

    return s.map_batches(attach, batch_format="pyarrow",
                         batch_size=None)


def pack_sequences(ds: Dataset, id_col: str, n_tokens_col: str,
                   seq_len: int) -> Dataset:
    """GPT-style pretraining packing (concatenate-then-chop): documents
    are laid out end to end in ``id_col`` order and cut into fixed
    ``seq_len``-token training sequences; each doc reports its global
    token offset and the first/last sequence it lands in (docs may span
    sequence boundaries — that's the concat-packing contract).

    Built on :func:`prefix_sum`, so the layout is exact and
    deterministic at any parallelism."""
    with_off = prefix_sum(ds, id_col, n_tokens_col, out_col="_off")

    def finish(t: pa.Table) -> pa.Table:
        off = t.column("_off").to_numpy(zero_copy_only=False).astype(
            "int64")
        n = t.column(n_tokens_col).to_numpy(zero_copy_only=False).astype(
            "int64")
        first = off // seq_len
        last = np.maximum(off, off + n - 1) // seq_len
        return pa.table({
            id_col: t.column(id_col),
            n_tokens_col: pa.array(n, pa.int64()),
            "token_offset": pa.array(off, pa.int64()),
            "first_seq": pa.array(first, pa.int64()),
            "last_seq": pa.array(last, pa.int64())})

    return with_off.map_batches(finish, batch_format="pyarrow")


def deterministic_shuffle(ds: Dataset, id_col: str = "doc_id",
                          n_shards: int = 8) -> Dataset:
    """Deterministic global shuffle + shard assignment — the training-
    export primitive: every row gets a content-independent md5 shuffle
    key, a shard (two leading hex chars mod ``n_shards``), and a dense
    0-based position within its shard ordered by ``(key, id)``.  Unlike
    ``random_shuffle`` the layout is a pure function of the ids, so a
    resumed/re-run export produces byte-identical shards and any shard
    can be regenerated alone.

    Scale shape: md5 is map-side (no data moves to compute the key);
    the only exchange is ONE groupby on ``shard`` (``n_shards`` groups,
    each fold a single vectorized sort) — no global sort, no driver
    materialization.  Positions are per-shard, which is exactly what a
    sharded writer needs; a global position would need the prefix_sum
    two-pass instead.

    Reference has no shuffle/export story (FalkorDB ingest is the sink,
    graphrag_sdk/kg.py); this is net-new for the 100-TB pipeline."""
    import hashlib
    if not 1 <= n_shards <= 256:
        raise ValueError("n_shards must be in [1, 256]")

    def keyed(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_pylist()
        keys = [hashlib.md5(str(i).encode()).hexdigest() for i in ids]
        shard = np.array([int(k[:2], 16) for k in keys],
                         dtype=np.int64) % n_shards
        return pa.table({id_col: t.column(id_col),
                         "shuffle_key": pa.array(keys, pa.string()),
                         "shard": pa.array(shard, pa.int64())})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["shuffle_key", id_col],
                          kind="mergesort").reset_index(drop=True)
        g["pos"] = np.arange(len(g), dtype=np.int64)
        return g

    return (ds.select_columns([id_col])
              .map_batches(keyed, batch_format="pyarrow")
              .groupby("shard")
              .map_groups(fold, batch_format="pandas"))


def pmi_collocations(ds: Dataset, text_col: str = "text",
                     min_count: int = 5, k: int = 100,
                     n_buckets: int = N_BUCKETS) -> Dataset:
    """Top-k collocations by pointwise mutual information.  PMI =
    ``ln(P(xy) / (P(x)P(y)))`` is monotone in the exact rational
    ``(c_xy * U * U) / (B * c_x * c_y)`` (U = total tokens, B = total
    bigrams), so the emitted ``pmi_ratio`` skips the log entirely:
    every float op is mirrored left-associatively against the DuckDB
    oracle, making score, order and values bit-exact (no ulp caveat —
    the BM25 rank-only compromise is unnecessary here).
    Log-monotone equivalence: report ``ln(pmi_ratio)`` downstream if
    true PMI units are needed; top-k and ties are unaffected.

    One corpus scan emits tagged count partials (unigrams + bigrams +
    the two scalar totals) that fold in ONE coarse-bucket exchange;
    the unigram vocabulary is collected and broadcast (~16 B/term —
    at a 10M-term web vocabulary ~300 MB, the documented driver
    bound; the scale path joins bigrams to unigram counts by token
    bucket instead), while the larger bigram table stays distributed
    through scoring and the final vocabulary-sized sort/limit."""
    import ray

    def partial(t: pa.Table) -> pa.Table:
        col = t.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lists = pc.split_pattern_regex(pc.fill_null(col, ""),
                                       pattern="[ \t\n\f\r]+")
        toks_per_doc = [[tk for tk in toks if tk]
                        for toks in lists.to_pylist()]
        uni: list[str] = []
        grams: list[str] = []
        n_bigrams = 0
        for toks in toks_per_doc:
            uni.extend(toks)
            if len(toks) >= 2:
                n_bigrams += len(toks) - 1
                grams.extend(f"{a} {b}"
                             for a, b in zip(toks, toks[1:]))
        terms = [" U", " B"]
        kinds = ["t", "t"]
        ns = [len(uni), n_bigrams]
        if uni:
            vc = pd.Series(uni).value_counts()
            terms += vc.index.tolist()
            kinds += ["u"] * len(vc)
            ns += [int(v) for v in vc.to_numpy()]
        if grams:
            vc = pd.Series(grams).value_counts()
            terms += vc.index.tolist()
            kinds += ["b"] * len(vc)
            ns += [int(v) for v in vc.to_numpy()]
        buckets = str_bucket(pd.Series(kinds, dtype=object)
                             + "\x1f" + pd.Series(terms, dtype=object),
                             n_buckets)
        return pa.table({"term": pa.array(terms, pa.string()),
                         "kind": pa.array(kinds, pa.string()),
                         "n": pa.array(ns, pa.int64()),
                         "bucket": pa.array(buckets, pa.int64())})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        a = g.groupby(["kind", "term"], as_index=False)["n"].sum()
        a["n"] = a["n"].astype(np.int64)
        return a[["kind", "term", "n"]]

    counts = (ds.select_columns([text_col])
                .map_batches(partial, batch_format="pyarrow")
                .groupby("bucket")
                .map_groups(fold, batch_format="pandas")
                .materialize())

    small = counts.filter(
        expr="kind != 'b'").to_pandas()
    tot = dict(zip(small[small["kind"] == "t"]["term"],
                   small[small["kind"] == "t"]["n"]))
    u_total = float(int(tot.get(" U", 0)))
    b_total = float(int(tot.get(" B", 0)))
    uc = small[small["kind"] == "u"]
    uni_map = dict(zip(uc["term"], uc["n"].astype(np.int64)))
    uni_ref = ray.put(uni_map)

    def score(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.equal(t.column("kind"), "b"),
                       pc.greater_equal(t.column("n"), min_count))
        t = t.filter(mask)
        if t.num_rows == 0 or b_total == 0.0:
            return pa.table({"x": pa.array([], pa.string()),
                             "y": pa.array([], pa.string()),
                             "n_xy": pa.array([], pa.int64()),
                             "n_x": pa.array([], pa.int64()),
                             "n_y": pa.array([], pa.int64()),
                             "pmi_ratio": pa.array([], pa.float64())})
        um = ray.get(uni_ref)
        grams = t.column("term").to_pylist()
        xs, ys = zip(*(g.split(" ", 1) for g in grams))
        cxy = t.column("n").to_numpy(zero_copy_only=False).astype(
            np.float64)
        cx = np.array([um[x] for x in xs], np.float64)
        cy = np.array([um[y] for y in ys], np.float64)
        # mirror of SQL left-assoc: (c_xy * U * U) / (B * c_x * c_y)
        ratio = ((cxy * u_total) * u_total) / ((b_total * cx) * cy)
        return pa.table({
            "x": pa.array(list(xs), pa.string()),
            "y": pa.array(list(ys), pa.string()),
            "n_xy": pa.array(cxy.astype(np.int64), pa.int64()),
            "n_x": pa.array(cx.astype(np.int64), pa.int64()),
            "n_y": pa.array(cy.astype(np.int64), pa.int64()),
            "pmi_ratio": pa.array(ratio, pa.float64())})

    return (counts.map_batches(score, batch_format="pyarrow")
            .sort(["pmi_ratio", "x", "y"],
                  descending=[True, False, False])
            .limit(k))


def winsorized_group_stats(ds: Dataset, group_col: str, col: str,
                           lo_q: float = 0.05, hi_q: float = 0.95,
                           n_buckets: int = N_BUCKETS) -> Dataset:
    """Per-group winsorized (percentile-clipped) statistics — the
    robust aggregate a curation pipeline uses when raw means are
    outlier-dominated.  Exact discrete P_lo/P_hi per group come from
    ONE :func:`grouped_quantiles` pass (group-count-sized result,
    broadcast back); a second scan clips values to [lo, hi], converts
    to integer cents (the repo's exact-sum trick) and pre-aggregates
    per batch, then one tiny group fold emits
    ``(group, n, win_sum_cents, win_mean_cents)``.  Counts and sums
    are integer-exact; the mean is ONE IEEE division, so the DuckDB
    oracle matches bit-for-bit."""
    import ray

    th = grouped_quantiles(ds, group_col, col,
                           [lo_q, hi_q], n_buckets).to_pandas()
    lo_map = dict(zip(th[th["q"] == lo_q][group_col],
                      th[th["q"] == lo_q]["value"]))
    hi_map = dict(zip(th[th["q"] == hi_q][group_col],
                      th[th["q"] == hi_q]["value"]))
    th_ref = ray.put((lo_map, hi_map))

    def partial(t: pa.Table) -> pa.Table:
        # null GROUP keys drop too (grouped_quantiles never saw them,
        # so the threshold lookup below would KeyError)
        t = t.select([group_col, col]).filter(
            pc.and_(t.column(col).is_valid(),
                    t.column(group_col).is_valid()))
        if t.num_rows == 0:
            return pa.table({group_col: pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64())})
        lo_m, hi_m = ray.get(th_ref)
        g = t.column(group_col).to_pylist()
        v = t.column(col).to_numpy(zero_copy_only=False)
        lo = np.array([lo_m[x] for x in g], np.float64)
        hi = np.array([hi_m[x] for x in g], np.float64)
        clipped = np.minimum(np.maximum(v, lo), hi)
        cents = np.floor(clipped * 100.0 + 0.5).astype(np.int64)
        df = pd.DataFrame({group_col: g, "c": cents})
        agg = df.groupby(group_col).agg(n=("c", "size"), s=("c", "sum"))
        return pa.table({
            group_col: pa.array(agg.index.tolist(), pa.string()),
            "n": pa.array(agg["n"].to_numpy(np.int64), pa.int64()),
            "s": pa.array(agg["s"].to_numpy(np.int64), pa.int64())})

    def fold(g: pd.DataFrame) -> pa.Table:
        agg = g.groupby(group_col).agg(n=("n", "sum"), s=("s", "sum"))
        n = agg["n"].to_numpy(np.int64)
        s = agg["s"].to_numpy(np.int64)
        mean = s.astype(np.float64) / n.astype(np.float64)
        return pa.table({
            group_col: pa.array(agg.index.tolist(), pa.string()),
            "n": pa.array(n, pa.int64()),
            "win_sum_cents": pa.array(s, pa.int64()),
            "win_mean_cents": pa.array(mean, pa.float64())})

    def bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_bucket", _key_bucket(t.column(group_col), n_buckets))

    return (ds.map_batches(partial, batch_format="pyarrow")
              .map_batches(bucket, batch_format="pyarrow")
              .groupby("_bucket")
              .map_groups(fold, batch_format="pandas"))


def _cents(v: np.ndarray) -> np.ndarray:
    """The repo's exact-sum representation: ``round(value * 100)`` as
    int64 (mirrors DuckDB ``CAST(round(value*100) AS BIGINT)`` for the
    non-negative values this corpus carries)."""
    return np.floor(np.asarray(v, np.float64) * 100.0 + 0.5).astype(np.int64)


def grouped_zscore(ds: Dataset, group_col: str, col: str,
                   keep_cols: list[str] | None = None) -> Dataset:
    """Per-group z-score feature normalization with EXACT integer
    moments — the standard feature-scaling pass of a training-data
    pipeline, kept bit-identical to its SQL oracle.

    Pass 1 is a per-batch combiner emitting ``(group, n, sum_cents,
    sumsq)`` int64 partials — O(blocks × groups) rows ever leave the
    workers, never O(rows).  The driver folds them with Python ints
    (arbitrary precision) and broadcasts ``{group: (mean, std)}`` where
    every float op mirrors the oracle's expression tree exactly::

        mean = CAST(s AS DOUBLE) / n
        var  = (CAST(ss AS DOUBLE) - CAST(s AS DOUBLE)*CAST(s AS DOUBLE)/n) / n
        z    = (CAST(c AS DOUBLE) - mean) / sqrt(var)   -- 0 when var = 0

    Pass 2 attaches ``value_cents`` and ``z`` per row (vectorized IEEE
    ops — identical results to the scalar tree).  int64 partial bound:
    ``n_block × max_cents² < 2^63`` (holds to ~10^8 rows/block at
    cents ≤ 10^5; decompose sumsq hi/lo beyond that)."""
    import math

    import ray

    def partial(t: pa.Table) -> pa.Table:
        t = t.select([group_col, col]).filter(
            pc.and_(t.column(col).is_valid(),
                    t.column(group_col).is_valid()))
        if t.num_rows == 0:
            return pa.table({group_col: pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64()),
                             "ss": pa.array([], pa.int64())})
        c = _cents(t.column(col).to_numpy(zero_copy_only=False))
        df = pd.DataFrame({group_col: t.column(group_col).to_pylist(),
                           "c": c, "c2": c * c})
        agg = df.groupby(group_col).agg(n=("c", "size"), s=("c", "sum"),
                                        ss=("c2", "sum"))
        return pa.table({
            group_col: pa.array(agg.index.tolist(), pa.string()),
            "n": pa.array(agg["n"].to_numpy(np.int64), pa.int64()),
            "s": pa.array(agg["s"].to_numpy(np.int64), pa.int64()),
            "ss": pa.array(agg["ss"].to_numpy(np.int64), pa.int64())})

    folded: dict[str, list[int]] = {}
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        e = folded.setdefault(row[group_col], [0, 0, 0])
        e[0] += row["n"]; e[1] += row["s"]; e[2] += row["ss"]
    stats = {}
    for g, (n, s, ss) in folded.items():
        mean = float(s) / float(n)
        var = (float(ss) - float(s) * float(s) / float(n)) / float(n)
        stats[g] = (mean, math.sqrt(var) if var > 0.0 else 0.0)
    ref = ray.put(stats)

    keep = keep_cols if keep_cols is not None else []

    def attach(t: pa.Table) -> pa.Table:
        st = ray.get(ref)
        # null groups drop exactly as the oracle's JOIN on the group
        # key drops them (and the stats fold never saw them)
        t = t.filter(pc.and_(t.column(col).is_valid(),
                             t.column(group_col).is_valid()))
        c = _cents(t.column(col).to_numpy(zero_copy_only=False))
        groups = t.column(group_col).to_pylist()
        mean = np.array([st[g][0] for g in groups], np.float64)
        std = np.array([st[g][1] for g in groups], np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(std == 0.0, 0.0, (c.astype(np.float64) - mean) / std)
        out = t.select(keep + [group_col])
        out = out.append_column("value_cents", pa.array(c, pa.int64()))
        return out.append_column("z", pa.array(z, pa.float64()))

    return ds.map_batches(attach, batch_format="pyarrow")


def rollup_aggregate(ds: Dataset, dims: list[tuple[str, object]],
                     col: str, n_buckets: int = N_BUCKETS,
                     mode: str = "rollup") -> Dataset:
    """``GROUP BY ROLLUP/CUBE(d1, .., dk)`` — count + exact cents sum
    at every grouping level, coarser levels marked with per-dim
    sentinel values (``dims`` is ``[(name, sentinel), ...]``; SQL
    mirrors with ``COALESCE(dim, sentinel)``).  ``mode="rollup"``
    emits the k+1 prefix levels; ``mode="cube"`` all 2^k dim subsets.

    Two-shuffle plan that never rescans the input for coarser levels:
    per-batch combiner → one coarse-bucket fold produces the FINEST
    aggregate; each finest row then expands to its level rows
    (levels × distinct-combo rows, tiny relative to input) and a second
    small fold sums them — sum/count associativity is what makes
    deriving coarse levels from fine exact."""
    if mode not in ("rollup", "cube"):
        raise ValueError(f"unknown mode {mode!r}")
    names = [d[0] for d in dims]
    sentinels = {d[0]: d[1] for d in dims}
    if mode == "rollup":
        level_masks = [names[lvl:] for lvl in range(len(names) + 1)]
    else:                       # cube: every subset of dims rolled up
        level_masks = []
        for bits in range(1 << len(names)):
            level_masks.append([n for i, n in enumerate(names)
                                if bits & (1 << i)])

    def partial(t: pa.Table) -> pa.Table:
        t = t.select(names + [col]).filter(t.column(col).is_valid())
        if t.num_rows == 0:
            # schema-typed empty partial (untyped pd empties infer null
            # columns and clash with typed blocks at the groupby)
            cols = {n: pa.array([], arrow_type_of(t.schema.field(n).type))
                    for n in names}
            cols["n"] = pa.array([], pa.int64())
            cols["s"] = pa.array([], pa.int64())
            return pa.table(cols)
        df = pd.DataFrame({n: t.column(n).to_pylist() for n in names})
        # NULL dims fold into the sentinel level (the oracle's
        # COALESCE(dim, sentinel)) — without this, pandas groupby would
        # silently DROP null-dim rows from every level including the
        # grand total.  A real value equal to the sentinel would be
        # indistinguishable from the rolled-up level on both sides, so
        # that's a hard error, not a silent merge.
        for n in names:
            sent = sentinels[n]
            if (df[n] == sent).any():
                raise ValueError(
                    f"rollup sentinel {sent!r} collides with a real "
                    f"value in dim {n!r}; pick a sentinel outside the "
                    "dim's domain")
            if df[n].isna().any():
                df[n] = df[n].fillna(sent)
        df["c"] = _cents(t.column(col).to_numpy(zero_copy_only=False))
        agg = (df.groupby(names, sort=False)
                 .agg(n=("c", "size"), s=("c", "sum")).reset_index())
        return pa.Table.from_pandas(agg, preserve_index=False)

    def _bucket_of(df: pd.DataFrame) -> list[int]:
        key = df[names[0]].astype(str)
        for n in names[1:]:
            key = key + "\x1f" + df[n].astype(str)
        return str_bucket(key, n_buckets).tolist()

    def add_bucket(t: pa.Table) -> pa.Table:
        # arrow-preserving (to_pandas→from_pandas would degrade typed
        # EMPTY blocks back to null-typed columns)
        if t.num_rows == 0:
            return t.append_column("_bucket", pa.array([], pa.int64()))
        return t.append_column(
            "_bucket", pa.array(_bucket_of(t.to_pandas()), pa.int64()))

    def fold(g: pd.DataFrame) -> pa.Table:
        agg = (g.groupby(names, sort=False)
                .agg(n=("n", "sum"), s=("s", "sum")).reset_index())
        return pa.Table.from_pandas(agg, preserve_index=False)

    finest = (ds.map_batches(partial, batch_format="pyarrow")
                .map_batches(add_bucket, batch_format="pyarrow")
                .groupby("_bucket")
                .map_groups(fold, batch_format="pandas"))

    def expand(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        levels = []
        for masked in level_masks:
            d = df.copy()
            for n in masked:
                d[n] = sentinels[n]
            levels.append(d)
        out = pd.concat(levels, ignore_index=True)[names + ["n", "s"]]
        out["_bucket"] = _bucket_of(out)
        return pa.Table.from_pandas(out, preserve_index=False)

    return (finest.map_batches(expand, batch_format="pyarrow")
                  .groupby("_bucket")
                  .map_groups(fold, batch_format="pandas")
                  .map_batches(lambda t: t.rename_columns(
                      names + ["n", "sum_cents"]), batch_format="pyarrow"))


def fixed_width_histogram(ds: Dataset, col: str,
                          width_cents: int = 500) -> Dataset:
    """Fixed-width value histogram: ``bin = floor(cents / width)`` with
    per-bin count and exact cents sum.  Per-batch combiner → one tiny
    fold over O(bins) rows; floor (not truncate) division on both the
    engine (``np.floor_divide``) and the oracle
    (``CAST(floor(cents / (width*1.0)) AS BIGINT)``) so negatives bin
    identically."""
    w = int(width_cents)

    def partial(t: pa.Table) -> pa.Table:
        t = t.select([col]).filter(t.column(col).is_valid())
        c = _cents(t.column(col).to_numpy(zero_copy_only=False))
        b = np.floor_divide(c, w)
        df = pd.DataFrame({"bin": b, "c": c})
        agg = df.groupby("bin").agg(n=("c", "size"), s=("c", "sum"))
        return pa.table({
            "bin": pa.array(agg.index.to_numpy(np.int64), pa.int64()),
            "n": pa.array(agg["n"].to_numpy(np.int64), pa.int64()),
            "s": pa.array(agg["s"].to_numpy(np.int64), pa.int64())})

    def fold(g: pd.DataFrame) -> pa.Table:
        agg = g.groupby("bin").agg(n=("n", "sum"), s=("s", "sum"))
        bins = agg.index.to_numpy(np.int64)
        return pa.table({
            "bin": pa.array(bins, pa.int64()),
            "lo_cents": pa.array(bins * w, pa.int64()),
            "n": pa.array(agg["n"].to_numpy(np.int64), pa.int64()),
            "sum_cents": pa.array(agg["s"].to_numpy(np.int64), pa.int64())})

    def bucket(t: pa.Table) -> pa.Table:
        b = t.column("bin").to_numpy(zero_copy_only=False)
        return t.append_column("_bucket",
                               pa.array(np.abs(b) % 16, pa.int64()))

    return (ds.map_batches(partial, batch_format="pyarrow")
              .map_batches(bucket, batch_format="pyarrow")
              .groupby("_bucket")
              .map_groups(fold, batch_format="pandas"))


def grouped_mad(ds: Dataset, group_col: str, col: str,
                n_buckets: int = N_BUCKETS) -> Dataset:
    """Per-group median + MAD (median absolute deviation) — the robust
    dispersion pair used to gate outliers when std is itself
    outlier-dominated.  Both medians are EXACT discrete quantiles on
    integer cents: pass 1 reuses :func:`grouped_quantiles` (rank
    ``ceil(0.5 n) - 1``, DuckDB ``quantile_disc`` semantics), the
    group-count-sized median map broadcasts back, pass 2 runs the same
    machinery over ``|cents - median|``.  All-integer → bit-exact."""
    import ray

    def to_cents(t: pa.Table) -> pa.Table:
        t = t.select([group_col, col]).filter(
            pc.and_(t.column(col).is_valid(),
                    t.column(group_col).is_valid()))
        return pa.table({
            group_col: t.column(group_col),
            "cents": pa.array(_cents(
                t.column(col).to_numpy(zero_copy_only=False)), pa.int64())})

    cents_ds = ds.map_batches(to_cents, batch_format="pyarrow")
    med = grouped_quantiles(cents_ds, group_col, "cents", [0.5],
                            n_buckets).to_pandas()
    med_map = {g: int(v) for g, v in zip(med[group_col], med["value"])}
    ref = ray.put(med_map)

    def to_dev(t: pa.Table) -> pa.Table:
        m = ray.get(ref)
        c = t.column("cents").to_numpy(zero_copy_only=False)
        groups = t.column(group_col).to_pylist()
        meds = np.array([m[g] for g in groups], np.int64)
        return pa.table({group_col: t.column(group_col),
                         "dev": pa.array(np.abs(c - meds), pa.int64())})

    mad = grouped_quantiles(cents_ds.map_batches(to_dev,
                                                 batch_format="pyarrow"),
                            group_col, "dev", [0.5], n_buckets)

    def finish(t: pa.Table) -> pa.Table:
        m = ray.get(ref)
        groups = t.column(group_col).to_pylist()
        return pa.table({
            group_col: t.column(group_col),
            "median_cents": pa.array([m[g] for g in groups], pa.int64()),
            "mad_cents": pa.array(
                t.column("value").to_numpy(zero_copy_only=False)
                 .astype(np.int64), pa.int64())})

    return mad.map_batches(finish, batch_format="pyarrow")


def grouped_corr(ds: Dataset, group_col: str, x_col: str, y_col: str,
                 n_buckets: int = 16) -> Dataset:
    """Per-group Pearson correlation with EXACT integer moments.

    Both columns convert to integer cents; the per-batch combiner emits
    ``(group, n, sx, sy, sxx, syy, sxy)`` partials where the three
    second-order sums are accumulated as arbitrary-precision Python
    ints and stored as ``decimal128(38)`` (price-cents squares overflow
    int64 at ~10^5 rows — the decimal column is the honest carrier, and
    DuckDB's HUGEINT matches its range).  The driver folds the tiny
    O(blocks × groups) partial table with Python ints, then emits::

        corr = CAST(n*sxy - sx*sy AS DOUBLE)
               / (sqrt(CAST(n*sxx - sx*sx AS DOUBLE))
                  * sqrt(CAST(n*syy - sy*sy AS DOUBLE)))

    — inner terms exact, three rounded conversions + sqrt/mul/div
    mirrored in the oracle, so the float gates bit-exactly."""
    import math

    dec = pa.decimal128(38, 0)

    def partial(t: pa.Table) -> pa.Table:
        t = t.select([group_col, x_col, y_col])
        t = t.filter(pc.and_(
            pc.and_(t.column(x_col).is_valid(),
                    t.column(y_col).is_valid()),
            t.column(group_col).is_valid()))
        if t.num_rows == 0:
            return pa.table({group_col: pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "sx": pa.array([], pa.int64()),
                             "sy": pa.array([], pa.int64()),
                             "sxx": pa.array([], dec),
                             "syy": pa.array([], dec),
                             "sxy": pa.array([], dec)})
        x = _cents(t.column(x_col).to_numpy(zero_copy_only=False))
        y = _cents(t.column(y_col).to_numpy(zero_copy_only=False))
        df = pd.DataFrame({group_col: t.column(group_col).to_pylist()})
        gname, ns, sxs, sys_, sxxs, syys, sxys = [], [], [], [], [], [], []
        for g, idx in df.groupby(group_col, sort=False).groups.items():
            xi = x[np.asarray(idx)]
            yi = y[np.asarray(idx)]
            xo = xi.astype(object)
            yo = yi.astype(object)
            gname.append(g)
            ns.append(len(xi))
            sxs.append(int(xi.sum()))
            sys_.append(int(yi.sum()))
            sxxs.append(int((xo * xo).sum()))
            syys.append(int((yo * yo).sum()))
            sxys.append(int((xo * yo).sum()))
        return pa.table({group_col: pa.array(gname, pa.string()),
                         "n": pa.array(ns, pa.int64()),
                         "sx": pa.array(sxs, pa.int64()),
                         "sy": pa.array(sys_, pa.int64()),
                         "sxx": pa.array(sxxs, dec),
                         "syy": pa.array(syys, dec),
                         "sxy": pa.array(sxys, dec)})

    folded: dict[str, list[int]] = {}
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        e = folded.setdefault(row[group_col], [0, 0, 0, 0, 0, 0])
        e[0] += int(row["n"]); e[1] += int(row["sx"])
        e[2] += int(row["sy"]); e[3] += int(row["sxx"])
        e[4] += int(row["syy"]); e[5] += int(row["sxy"])
    groups = sorted(folded)
    ns, corrs = [], []
    for g in groups:
        n, sx, sy, sxx, syy, sxy = folded[g]
        num = float(n * sxy - sx * sy)
        den = (math.sqrt(float(n * sxx - sx * sx))
               * math.sqrt(float(n * syy - sy * sy)))
        corrs.append(num / den if den != 0.0 else 0.0)
        ns.append(n)
    import ray
    return ray.data.from_arrow(pa.table({
        group_col: pa.array(groups, pa.string()),
        "n": pa.array(ns, pa.int64()),
        "corr": pa.array(corrs, pa.float64())}))


def grouped_token_frequencies(ds: Dataset, group_col: str = "lang",
                              text_col: str = "text", k: int = 10,
                              n_buckets: int = N_BUCKETS) -> Dataset:
    """Top-``k`` tokens PER GROUP by ``(count DESC, token ASC)`` — the
    per-language vocabulary profile of a corpus.  Same combiner shape
    as :func:`token_frequencies` with the group riding the key: per-
    batch ``(group, token)`` value_counts → one (group, token)-bucket
    fold sums exact counts → one small group-bucket pass ranks and
    heads each group's list.  Shuffle volume is O(batches × distinct
    pairs), never O(tokens)."""

    def _empty() -> pa.Table:
        return pa.table({"g": pa.array([], pa.string()),
                         "tok": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64()),
                         "_bucket": pa.array([], pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(t.column(group_col).is_valid())
        if t.num_rows == 0:
            return _empty()
        toks = pc.split_pattern_regex(
            pc.coalesce(t.column(text_col), pa.scalar("")), r"[ \t\n\f\r]+")
        rows_g, rows_t = [], []
        groups = t.column(group_col).to_pylist()
        for g, tl in zip(groups, toks.to_pylist()):
            for tok in tl:
                if tok:
                    rows_g.append(g)
                    rows_t.append(tok)
        if not rows_t:
            return _empty()
        df = pd.DataFrame({"g": rows_g, "tok": rows_t})
        agg = (df.groupby(["g", "tok"], sort=False)
                 .size().reset_index(name="n"))
        agg["_bucket"] = str_bucket(
            agg["g"].astype(str) + "\x1f" + agg["tok"].astype(str),
            n_buckets)
        return pa.Table.from_pandas(agg, preserve_index=False)

    def fold(g: pd.DataFrame) -> pa.Table:
        agg = (g.groupby(["g", "tok"], sort=False)["n"].sum()
                .reset_index())
        agg["_gb"] = str_bucket(agg["g"].astype(str), 16)
        return pa.Table.from_pandas(agg, preserve_index=False)

    def head(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["g", "n", "tok"],
                          ascending=[True, False, True],
                          kind="mergesort")
        out = g.groupby("g", sort=False).head(k)
        return pa.table({
            group_col: pa.array(out["g"].tolist(), pa.string()),
            "token": pa.array(out["tok"].tolist(), pa.string()),
            "n": pa.array(out["n"].to_numpy(np.int64), pa.int64())})

    return (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("_bucket")
              .map_groups(fold, batch_format="pandas")
              .groupby("_gb")
              .map_groups(head, batch_format="pandas"))


def weighted_bernoulli_sample(ds: Dataset, id_col: str, weight_col: str,
                              scale: int, salt: str = "ws") -> Dataset:
    """Deterministic weighted Bernoulli sampling: row ``i`` survives
    with probability ``min(1, w_i / scale)`` — decided by comparing an
    md5-derived 52-bit uniform against the weight with PURE INTEGER
    math (``u52 * scale < w_i * 2^52``), so there is no float boundary
    and the SQL oracle reproduces the exact sample.  Embarrassingly
    parallel (no shuffle); reproducible across runs/cluster sizes by
    construction — the property a resumable 100-TB sampling pass
    needs."""
    import hashlib

    def pick(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_pylist()
        w = t.column(weight_col).to_numpy(zero_copy_only=False)
        keep = []
        for i, wi in zip(ids, w):
            u52 = int(hashlib.md5(f"{i}:{salt}".encode("utf-8"))
                      .hexdigest()[:13], 16)
            keep.append(u52 * scale < int(wi) * (1 << 52))
        return t.filter(pa.array(keep, pa.bool_()))

    return ds.map_batches(pick, batch_format="pyarrow")


def grouped_mode(ds: Dataset, group_col: str, col: str,
                 n_buckets: int = N_BUCKETS) -> Dataset:
    """Per-group MODE with a deterministic tie-break (highest count,
    then SMALLEST value) — the categorical summary statistic.  Same
    combiner shape as the frequency operators: per-batch
    ``(group, value)`` counts → one pair-bucket fold sums exact counts
    → one group-bucket argmax pass.  Shuffle volume is
    O(batches × distinct pairs)."""

    def partial(t: pa.Table) -> pa.Table:
        t = t.select([group_col, col]).filter(
            pc.and_(t.column(col).is_valid(),
                    t.column(group_col).is_valid()))
        if t.num_rows == 0:
            return pa.table({
                "g": pa.array([], pa.string()),
                "v": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "_bucket": pa.array([], pa.int64())})
        df = pd.DataFrame({"g": t.column(group_col).to_pylist(),
                           "v": _cents(t.column(col).to_numpy(
                               zero_copy_only=False))})
        agg = df.groupby(["g", "v"], sort=False).size().reset_index(
            name="n")
        agg["_bucket"] = str_bucket(
            agg["g"].astype(str) + "\x1f" + agg["v"].astype(str),
            n_buckets)
        return pa.Table.from_pandas(agg, preserve_index=False)

    def fold(g: pd.DataFrame) -> pa.Table:
        agg = g.groupby(["g", "v"], sort=False)["n"].sum().reset_index()
        agg["_gb"] = str_bucket(agg["g"].astype(str), 16)
        return pa.Table.from_pandas(agg, preserve_index=False)

    def argmax(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["g", "n", "v"],
                          ascending=[True, False, True],
                          kind="mergesort")
        top = g.groupby("g", sort=False).head(1)
        return pa.table({
            group_col: pa.array(top["g"].tolist(), pa.string()),
            "mode_cents": pa.array(top["v"].to_numpy(np.int64),
                                   pa.int64()),
            "mode_n": pa.array(top["n"].to_numpy(np.int64), pa.int64())})

    return (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("_bucket")
              .map_groups(fold, batch_format="pandas")
              .groupby("_gb")
              .map_groups(argmax, batch_format="pandas"))


def grouped_distinct_count(ds: Dataset, group_col: str, col: str,
                           n_buckets: int = N_BUCKETS) -> Dataset:
    """EXACT ``COUNT(DISTINCT col)`` per group: per-batch
    ``(group, value)`` dedup (partial size bounded by true pair
    cardinality, not rows) → one pair-bucket fold dedups across
    batches and partial-counts per group → a tiny per-group sum.
    The cross-batch partial counts are disjoint because each (group,
    value) pair lives in exactly one bucket."""

    def partial(t: pa.Table) -> pa.Table:
        t = t.select([group_col, col]).filter(
            pc.and_(t.column(col).is_valid(),
                    t.column(group_col).is_valid()))
        if t.num_rows == 0:
            return pa.table({
                "g": pa.array([], pa.string()),
                "v": pa.array([], pa.int64()),
                "_bucket": pa.array([], pa.int64())})
        df = (pd.DataFrame({"g": t.column(group_col).to_pylist(),
                            "v": t.column(col).to_pylist()})
              .drop_duplicates())
        df["_bucket"] = str_bucket(
            df["g"].astype(str) + "\x1f" + df["v"].astype(str),
            n_buckets)
        return pa.Table.from_pandas(df, preserve_index=False)

    def fold(g: pd.DataFrame) -> pa.Table:
        agg = (g.drop_duplicates(subset=["g", "v"])
                .groupby("g").size().reset_index(name="nd"))
        agg["_gb"] = str_bucket(agg["g"].astype(str), 16)
        return pa.Table.from_pandas(agg, preserve_index=False)

    def final(g: pd.DataFrame) -> pa.Table:
        agg = g.groupby("g")["nd"].sum()
        return pa.table({
            group_col: pa.array(agg.index.tolist(), pa.string()),
            "n_distinct": pa.array(agg.to_numpy(np.int64), pa.int64())})

    return (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("_bucket")
              .map_groups(fold, batch_format="pandas")
              .groupby("_gb")
              .map_groups(final, batch_format="pandas"))


def bottom_k_sample(ds: Dataset, id_col: str, k: int = 50,
                    salt: str = "bk") -> Dataset:
    """Deterministic fixed-size uniform sample: the ``k`` rows with the
    SMALLEST md5-derived hash of their id (the classic bottom-k /
    KMV sketch).  Statistically equivalent to reservoir sampling but
    mergeable — min-k of per-block min-ks IS the global min-k, so the
    per-batch combiner keeps only k rows per block and the only
    exchange is the (blocks × k)-row final sort+limit.  Reproducible
    across runs and cluster sizes; fixed-width lowercase hex keeps
    lexicographic order equal to numeric order for the SQL oracle."""
    import hashlib

    def local_k(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_pylist()
        hk = [hashlib.md5(f"{i}:{salt}".encode("utf-8")).hexdigest()[:16]
              for i in ids]
        out = t.append_column("_hk", pa.array(hk, pa.string()))
        order = np.argsort(np.asarray(hk, dtype=object),
                           kind="stable")[:k]
        return out.take(pa.array(np.sort(order), pa.int64()))

    picked = (ds.map_batches(local_k, batch_format="pyarrow")
                .sort("_hk").limit(k))

    def rank(t: pa.Table) -> pa.Table:
        # the limit(k) result is a single tiny block in hash order; the
        # _hk scratch key is dropped so callers get clean doc columns
        t = t.append_column(
            "sample_rank", pa.array(np.arange(1, t.num_rows + 1,
                                              dtype=np.int64), pa.int64()))
        return t.drop_columns(["_hk"])

    return picked.repartition(1).map_batches(rank,
                                             batch_format="pyarrow")


def pivot_counts(ds: Dataset, row_col: str, col_col: str,
                 value_col: str, categories: list[str],
                 n_buckets: int = 64) -> Dataset:
    """Crosstab / wide conditional aggregation: one output row per
    ``row_col`` key with a ``(n_<cat>, cents_<cat>)`` column pair per
    category — the feature-table layout model-training joins want
    (per-user interaction features, per-domain type mixes).  The
    category list is EXPLICIT (fixed output schema; rows whose
    ``col_col`` is outside it are dropped, as are null row keys — the
    repo-wide grouped-op contract).  Values fold as integer cents
    (:func:`_cents`), so sums are order-free exact.

    Scale shape: the classic combiner→fold pair — pass 1 pre-pivots
    per batch to at most ``rows x |categories|`` partial cells, ONE
    coarse-bucket shuffle on the row key, pass 2 pivots vectorized per
    bucket (never a per-key group).  Equivalent SQL is a FILTER
    conditional aggregation, which is how the oracle mirrors it."""
    from .joins import key_bucket
    cats = list(categories)

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(t.column(row_col).is_valid())
        # NULL values count the row (COUNT(*)) but contribute 0 cents
        # (SQL SUM skips NULLs); without the mask np.floor(NaN)→int64
        # is undefined garbage.
        vcol = t.column(value_col)
        cents = np.where(
            vcol.is_valid().to_numpy(zero_copy_only=False),
            _cents(np.nan_to_num(
                vcol.to_numpy(zero_copy_only=False).astype(np.float64))),
            0)
        df = pd.DataFrame({
            "r": t.column(row_col).to_pandas(),
            "c": t.column(col_col).to_pandas(),
            "cents": cents})
        df = df[df["c"].isin(cats)]
        agg = (df.groupby(["r", "c"], sort=False)["cents"]
               .agg(["size", "sum"]).reset_index())
        out = pa.table({
            "r": pa.array(agg["r"].to_numpy()),
            "c": pa.array(agg["c"].to_numpy(object), pa.string()),
            "n": pa.array(agg["size"].to_numpy(np.int64), pa.int64()),
            "s": pa.array(agg["sum"].to_numpy(np.int64), pa.int64())})
        return out.append_column(
            "bucket", key_bucket(out.column("r"), n_buckets))

    def fold(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            return pa.table({row_col: pa.array([], pa.int64()),
                             **{f"n_{c}": pa.array([], pa.int64())
                                for c in cats},
                             **{f"cents_{c}": pa.array([], pa.int64())
                                for c in cats}})
        summed = (g.groupby(["r", "c"], sort=False)[["n", "s"]]
                  .sum().reset_index())
        nw = summed.pivot(index="r", columns="c", values="n")
        sw = summed.pivot(index="r", columns="c", values="s")
        idx = nw.index.sort_values()
        cols = {row_col: pa.array(idx.to_numpy())}
        for c in cats:
            nv = (nw[c].reindex(idx).fillna(0).to_numpy(np.int64)
                  if c in nw.columns else np.zeros(len(idx), np.int64))
            sv = (sw[c].reindex(idx).fillna(0).to_numpy(np.int64)
                  if c in sw.columns else np.zeros(len(idx), np.int64))
            cols[f"n_{c}"] = pa.array(nv, pa.int64())
            cols[f"cents_{c}"] = pa.array(sv, pa.int64())
        return pa.table(cols)

    return (ds.select_columns([row_col, col_col, value_col])
              .map_batches(partial, batch_format="pyarrow")
              .groupby("bucket")
              .map_groups(fold, batch_format="pandas"))


def grouped_bottom_k_sample(ds: Dataset, group_col: str, id_col: str,
                            k: int = 20, salt: str = "bk",
                            n_buckets: int = 16) -> Dataset:
    """STRATIFIED deterministic sampling: the ``k`` rows with the
    smallest md5-derived hash PER GROUP (fixed-size per-stratum
    uniform sample — per-language / per-domain training-mix slices).
    Same mergeability as :func:`bottom_k_sample`: per-batch local
    min-k per group is a lossless combiner, so the only exchange is
    the (blocks x groups x k)-row coarse-bucket fold — never the
    corpus.  Null group keys drop (repo-wide grouped-op contract).
    Returns the sampled rows + ``sample_rank`` (1-based hash order
    within the group)."""
    import hashlib

    from .joins import key_bucket

    # typed empty matching the non-empty fold output (input columns +
    # sample_rank): group shuffles emit schema-less empty partitions,
    # and the caller's sort needs the key in every block
    sch = ds.schema()
    empty_out = pa.table({**{nm: pa.array([], tp)
                             for nm, tp in zip(sch.names, sch.types)},
                          "sample_rank": pa.array([], pa.int64())})

    def local_k(t: pa.Table) -> pa.Table:
        t = t.filter(t.column(group_col).is_valid())
        ids = t.column(id_col).to_pylist()
        hk = [hashlib.md5(f"{i}:{salt}".encode("utf-8")).hexdigest()[:16]
              for i in ids]
        t = t.append_column("_hk", pa.array(hk, pa.string()))
        df = pd.DataFrame({
            "g": t.column(group_col).to_pandas(),
            "h": hk, "i": np.arange(len(hk), dtype=np.int64)})
        take = (df.sort_values(["g", "h"])
                .groupby("g", sort=False).head(k)["i"]
                .sort_values().to_numpy())
        out = t.take(pa.array(take, pa.int64()))
        return out.append_column(
            "bucket", key_bucket(out.column(group_col), n_buckets))

    def fold(g: pd.DataFrame):
        if len(g) == 0:
            return empty_out
        g = g.sort_values([group_col, "_hk"])
        g = g.groupby(group_col, sort=False).head(k).copy()
        g["sample_rank"] = (g.groupby(group_col, sort=False)
                            .cumcount() + 1)
        return g.drop(columns=["bucket", "_hk"])

    return (ds.map_batches(local_k, batch_format="pyarrow")
              .groupby("bucket")
              .map_groups(fold, batch_format="pandas"))


def token_budget_select(ds: Dataset, budgets: dict,
                        id_col: str = "doc_id",
                        text_col: str = "text",
                        lang_col: str = "lang", salt: str = "tb",
                        n_buckets: int = 16) -> Dataset:
    """Token-budget mixture curation (the data-mixing allocator): for
    each language with an integer token budget, keep documents in
    deterministic md5(id:salt) order while the RUNNING token total
    stays within the budget (a doc is kept iff the cumulative count
    INCLUDING it is <= budget) — how a training mix is cut to target
    proportions.  Languages without a budget drop.

    Only (id, lang, n_tokens, hash-key) rides the exchange — the text
    stays in the tokenize pass (the ``exact_dedup keep_text=False``
    discipline); re-join kept ids against the corpus afterwards.
    Token count is the RE2 ``\\S+`` kernel (DuckDB-identical).  The
    per-language fold is a sequential cumsum over that language's
    surviving rows; at 10^12-doc scale replace it with the two-pass
    block scan of :func:`prefix_sum` partitioned by language (per-
    bucket partial sums -> driver offsets -> second filter pass).

    Output: (id, lang, n_tokens, cum_tokens) for the KEPT rows.  No
    reference counterpart (net-new training-data op)."""
    import hashlib

    from ..functions.textstats import TOKEN_RE
    from .joins import key_bucket

    langs = sorted(budgets)

    def tokenize(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(t.column(lang_col).is_valid(),
                             pc.is_in(t.column(lang_col),
                                      pa.array(langs, pa.string()))))
        ids = t.column(id_col).to_pylist()
        hk = [hashlib.md5(f"{i}:{salt}".encode("utf-8")).hexdigest()[:16]
              for i in ids]
        n_tok = pc.count_substring_regex(
            t.column(text_col), TOKEN_RE).cast(pa.int64())
        out = pa.table({id_col: t.column(id_col),
                        lang_col: t.column(lang_col),
                        "n_tokens": n_tok,
                        "_hk": pa.array(hk, pa.string())})
        return out.append_column(
            "bucket", key_bucket(out.column(lang_col), n_buckets))

    empty_out = pa.table({
        id_col: pa.array([], pa.int64()),
        lang_col: pa.array([], pa.string()),
        "n_tokens": pa.array([], pa.int64()),
        "cum_tokens": pa.array([], pa.int64())})

    def fold(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0 or lang_col not in g.columns:
            return empty_out
        out = []
        for lang, sub in g.groupby(lang_col, sort=True):
            sub = sub.sort_values("_hk")
            cum = sub["n_tokens"].to_numpy(np.int64).cumsum()
            keep = cum <= int(budgets[lang])
            kept = sub[keep]
            out.append(pa.table({
                id_col: pa.array(kept[id_col].to_numpy(np.int64),
                                 pa.int64()),
                lang_col: pa.array(kept[lang_col], pa.string()),
                "n_tokens": pa.array(
                    kept["n_tokens"].to_numpy(np.int64), pa.int64()),
                "cum_tokens": pa.array(cum[keep], pa.int64())}))
        return pa.concat_tables(out) if out else empty_out

    return (ds.map_batches(tokenize, batch_format="pyarrow")
              .groupby("bucket")
              .map_groups(fold, batch_format="pandas"))


def pack_sequences_by_lang(ds: Dataset, seq_len: int,
                           id_col: str = "doc_id", text_col: str = "text",
                           lang_col: str = "lang", salt: str = "pk",
                           n_buckets: int = 16) -> Dataset:
    """Training-sequence packing (the pretraining-export primitive):
    per language, lay documents end-to-end in deterministic
    md5(id:salt) order and assign each doc to the fixed-width context
    window its FIRST token lands in — ``pack_id = cum_before //
    seq_len``, ``pack_offset = cum_before % seq_len``.  A doc may
    straddle its window boundary (standard concat-then-chunk packing:
    the chunker splits it downstream); what matters for the exporter
    is the deterministic (pack, offset) placement, which this emits.

    Same exchange discipline as :func:`token_budget_select`: only
    (id, lang, n_tokens, hash-key) rides the per-language shuffle, the
    text never leaves the tokenize pass, and the per-language
    sequential cumsum is the fold — at 10^12-doc scale replace it with
    the two-pass block prefix scan (per-bucket partial sums -> driver
    offsets -> second pass).  Token count is the RE2 ``\\S+`` kernel
    (DuckDB-identical).

    Output: (id, lang, n_tokens, pack_id, pack_offset).  No reference
    counterpart (net-new training-data op)."""
    import hashlib

    from ..functions.textstats import TOKEN_RE
    from .joins import key_bucket

    if seq_len < 1:
        raise ValueError("seq_len must be >= 1")

    def tokenize(t: pa.Table) -> pa.Table:
        t = t.filter(t.column(lang_col).is_valid())
        ids = t.column(id_col).to_pylist()
        hk = [hashlib.md5(f"{i}:{salt}".encode("utf-8")).hexdigest()[:16]
              for i in ids]
        n_tok = pc.count_substring_regex(
            t.column(text_col), TOKEN_RE).cast(pa.int64())
        out = pa.table({id_col: t.column(id_col),
                        lang_col: t.column(lang_col),
                        "n_tokens": n_tok,
                        "_hk": pa.array(hk, pa.string())})
        return out.append_column(
            "bucket", key_bucket(out.column(lang_col), n_buckets))

    empty_out = pa.table({
        id_col: pa.array([], pa.int64()),
        lang_col: pa.array([], pa.string()),
        "n_tokens": pa.array([], pa.int64()),
        "pack_id": pa.array([], pa.int64()),
        "pack_offset": pa.array([], pa.int64())})

    def fold(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0 or lang_col not in g.columns:
            return empty_out
        out = []
        for lang, sub in g.groupby(lang_col, sort=True):
            sub = sub.sort_values(["_hk", id_col])
            n = sub["n_tokens"].to_numpy(np.int64)
            cum_before = n.cumsum() - n
            out.append(pa.table({
                id_col: pa.array(sub[id_col].to_numpy(np.int64),
                                 pa.int64()),
                lang_col: pa.array(sub[lang_col], pa.string()),
                "n_tokens": pa.array(n, pa.int64()),
                "pack_id": pa.array(cum_before // seq_len, pa.int64()),
                "pack_offset": pa.array(cum_before % seq_len,
                                        pa.int64())}))
        return pa.concat_tables(out) if out else empty_out

    return (ds.map_batches(tokenize, batch_format="pyarrow")
              .groupby("bucket")
              .map_groups(fold, batch_format="pandas"))


def grouped_ks_drift(ds: Dataset, group_col: str, value_col: str,
                     ts_col: str, n_buckets: int = 16) -> Dataset:
    """Per-group two-sample Kolmogorov-Smirnov drift detector between
    the early and late halves of the stream — the distribution-shift
    monitor a production training-data pipeline runs between crawl
    snapshots.  Split point = midpoint of the observed time range
    (integer µs, exact); the KS statistic is computed on the
    integer-cents value grid with the CDF gap CROSS-MULTIPLIED
    (``|F_old*n_new - F_new*n_old|``) so the max is found entirely in
    integers — the float ``ks_stat = ks_num / (n_old*n_new)`` is a
    single IEEE division on identical operands both sides, hence
    bit-exact vs the SQL oracle.

    Shape: pass A folds per-batch (min, max) timestamp partials (tiny);
    pass B's combiner pre-aggregates ``(group, value, c_old, c_new)``
    counts per batch, ONE group-bucketed exchange moves only those
    count rows, and the per-group fold is a vectorized cumsum sweep.
    Cross products stay in int64 up to ~2^31 rows per side per group;
    beyond that the fold switches to Python ints (arbitrary precision,
    same values).  Null group/value/ts rows are dropped (oracle
    mirrors with WHERE IS NOT NULL).

    No reference counterpart; net-new curation-monitoring op."""
    from .joins import str_bucket

    def rng_partial(t: pa.Table) -> pa.Table:
        # the midpoint must be computed over the SAME row set the
        # counting pass keeps (group AND value AND ts non-null) or a
        # null-value row at the global min/max shifts the engine's mid
        # but not the oracle's
        keep = pc.and_(pc.and_(t.column(group_col).is_valid(),
                               t.column(value_col).is_valid()),
                       t.column(ts_col).is_valid())
        us = t.filter(keep).column(ts_col).cast(pa.int64())
        if len(us) == 0:
            return pa.table({"mn": pa.array([], pa.int64()),
                             "mx": pa.array([], pa.int64())})
        return pa.table({"mn": pa.array([pc.min(us).as_py()], pa.int64()),
                         "mx": pa.array([pc.max(us).as_py()], pa.int64())})

    rng = ds.map_batches(rng_partial, batch_format="pyarrow").to_pandas()
    if len(rng) == 0:
        raise ValueError("grouped_ks_drift: no non-null timestamps")
    mid = (int(rng["mn"].min()) + int(rng["mx"].max())) // 2

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.and_(t.column(group_col).is_valid(),
                               t.column(value_col).is_valid()),
                       t.column(ts_col).is_valid())
        t = t.filter(keep)
        us = t.column(ts_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        v = _cents(t.column(value_col).to_numpy(zero_copy_only=False))
        new = us > mid
        df = pd.DataFrame({
            "g": t.column(group_col).to_pylist(),
            "v": v,
            "c_old": (~new).astype(np.int64),
            "c_new": new.astype(np.int64)})
        agg = df.groupby(["g", "v"], as_index=False).agg(
            c_old=("c_old", "sum"), c_new=("c_new", "sum"))
        return pa.table({
            "g": pa.array(agg["g"], pa.string()),
            "v": pa.array(agg["v"].to_numpy(np.int64), pa.int64()),
            "c_old": pa.array(agg["c_old"].to_numpy(np.int64), pa.int64()),
            "c_new": pa.array(agg["c_new"].to_numpy(np.int64), pa.int64()),
            "_bucket": pa.array(str_bucket(agg["g"], n_buckets),
                                pa.int64())})

    def fold(grp: pd.DataFrame) -> pa.Table:
        out_g, out_n0, out_n1, out_ks, out_stat = [], [], [], [], []
        if len(grp) and "g" in grp.columns:
            for key, sub in grp.groupby("g", sort=False):
                sub = (sub.groupby("v", as_index=False)
                       .agg(c_old=("c_old", "sum"),
                            c_new=("c_new", "sum"))
                       .sort_values("v", kind="mergesort"))
                c0 = sub["c_old"].to_numpy(np.int64)
                c1 = sub["c_new"].to_numpy(np.int64)
                n0, n1 = int(c0.sum()), int(c1.sum())
                cum0, cum1 = np.cumsum(c0), np.cumsum(c1)
                if n0 * n1 < (1 << 62):
                    ks = int(np.abs(cum0 * np.int64(n1)
                                    - cum1 * np.int64(n0)).max()) \
                        if len(sub) else 0
                else:  # arbitrary-precision fallback at extreme scale
                    ks = max(abs(int(a) * n1 - int(b) * n0)
                             for a, b in zip(cum0, cum1))
                stat = (float(ks) / (float(n0) * float(n1))
                        if n0 and n1 else None)
                out_g.append(key)
                out_n0.append(n0)
                out_n1.append(n1)
                out_ks.append(ks)
                out_stat.append(stat)
        return pa.table({
            "g": pa.array(out_g, pa.string()),
            "n_old": pa.array(out_n0, pa.int64()),
            "n_new": pa.array(out_n1, pa.int64()),
            "ks_num": pa.array(out_ks, pa.int64()),
            "ks_stat": pa.array(out_stat, pa.float64())})

    folded = (ds.map_batches(partial, batch_format="pyarrow")
                .groupby("_bucket")
                .map_groups(fold, batch_format="pandas"))

    def rename(t: pa.Table) -> pa.Table:
        if t.num_columns != 5:
            # schema-less empty partition from the group shuffle (more
            # output partitions than buckets) bypasses the fold
            return pa.table({group_col: pa.array([], pa.string()),
                             "n_old": pa.array([], pa.int64()),
                             "n_new": pa.array([], pa.int64()),
                             "ks_num": pa.array([], pa.int64()),
                             "ks_stat": pa.array([], pa.float64())})
        return t.rename_columns([group_col, "n_old", "n_new",
                                 "ks_num", "ks_stat"])

    return folded.map_batches(rename, batch_format="pyarrow")


def host_lang_entropy(pages: Dataset, n_buckets: int = 16) -> Dataset:
    """Per-host Shannon entropy of the language mix over a
    ``(url, lang)`` Dataset — the crawl-audit signal that separates
    single-language sites from mixed/mis-tagged hosts (a high-entropy
    host is where lang-ID escalation pays).  Rows with a NULL lang are
    DROPPED (the repo-wide null-group-key convention; the oracle
    mirrors ``lang IS NOT NULL``).

    Integer-exact via the quantized-ln trick on COUNTS (not
    probabilities): with ``q(x) = floor(ln(x)*1e9 + 0.5)``,
    ``h_e9n = n*q(n) - sum over langs of c*q(c)`` is an order-free
    integer (= n·H in nano-nats, exact at 1e-9 per term), and the
    float ``entropy`` is one mirrored IEEE expression.  One tiny
    (host, lang) count exchange; text/html never move."""
    from ..functions.web import url_host_section

    def partial(t: pa.Table) -> pa.Table:
        host, _, ok = url_host_section(t.column("url"))
        df = pa.table({"host": host,
                       "lang": t.column("lang")}).filter(ok).to_pandas()
        # pandas groupby drops NaN keys — the documented null-lang drop
        agg = df.groupby(["host", "lang"], as_index=False).size()
        return pa.table({
            "host": pa.array(agg["host"], pa.string()),
            "lang": pa.array(agg["lang"], pa.string()),
            "n": pa.array(agg["size"].to_numpy(np.int64), pa.int64()),
            "_b": pa.array(str_bucket(agg["host"], n_buckets),
                           pa.int64())})

    def fold(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0 or "host" not in g.columns:
            return pa.table({"host": pa.array([], pa.string()),
                             "n_pages": pa.array([], pa.int64()),
                             "n_langs": pa.array([], pa.int64()),
                             "h_e9n": pa.array([], pa.int64()),
                             "entropy": pa.array([], pa.float64())})
        cl = g.groupby(["host", "lang"], as_index=False)["n"].sum()

        def q(v: np.ndarray) -> np.ndarray:
            # floor(ln(c)*1e9 + 0.5) per count — op-for-op the SQL
            # oracle's expression (ulp-safe: ln args are small ints)
            return np.floor(
                np.log(v.astype(np.float64)) * 1e9 + 0.5).astype(np.int64)

        cl["cq"] = cl["n"].to_numpy(np.int64) * q(cl["n"].to_numpy())
        hn = cl.groupby("host").agg(
            n_pages=("n", "sum"), n_langs=("n", "size"),
            sum_cq=("cq", "sum")).reset_index()
        n = hn["n_pages"].to_numpy(np.int64)
        h_e9n = n * q(n) - hn["sum_cq"].to_numpy(np.int64)
        ent = h_e9n.astype(np.float64) / (n.astype(np.float64) * 1e9)
        return pa.table({
            "host": pa.array(hn["host"], pa.string()),
            "n_pages": pa.array(n, pa.int64()),
            "n_langs": pa.array(hn["n_langs"].to_numpy(np.int64),
                                pa.int64()),
            "h_e9n": pa.array(h_e9n, pa.int64()),
            "entropy": pa.array(ent, pa.float64())})

    return (pages.map_batches(partial, batch_format="pyarrow")
                 .groupby("_b")
                 .map_groups(fold, batch_format="pandas")
                 .sort("host"))


def largest_remainder_allocation(counts: Dataset, key_cols: list[str],
                                 count_col: str,
                                 budget: int) -> Dataset:
    """Hamilton (largest-remainder) apportionment of an integer
    ``budget`` across keys proportional to ``count_col`` — the crawl-
    budget / sampling-quota allocator: every key gets
    ``budget*c // total`` and the leftover units go to the largest
    remainders (ties by key order).  Pure integer arithmetic, so the
    DuckDB oracle (window rank over ``(budget*c) % total``) matches
    bit-exactly, and ``sum(allocated) == budget`` always.

    The input is a COUNTS table (the output of a fold like
    ``domain_stats_pages`` — keys × 1 row), so this is a driver-sized
    computation by construction; the distributed work is the count
    fold that produced it."""
    import ray
    df = counts.to_pandas()
    if len(df) == 0:
        return ray.data.from_arrow(pa.table(
            {c: pa.array([], pa.string()) for c in key_cols}
            | {count_col: pa.array([], pa.int64()),
               "allocated": pa.array([], pa.int64())}))
    c = df[count_col].to_numpy(np.int64)
    total = int(c.sum())
    base = (budget * c) // total
    rem = (budget * c) % total
    order = df.assign(_rem=rem).sort_values(
        ["_rem"] + key_cols, ascending=[False] + [True] * len(key_cols),
        kind="mergesort")
    extra = np.zeros(len(df), np.int64)
    n_extra = budget - int(base.sum())
    extra[order.index.to_numpy()[:n_extra]] = 1
    out = df[key_cols].copy()
    out[count_col] = c
    out["allocated"] = base + extra
    return ray.data.from_pandas(out)


def grouped_ols_trend(ds: Dataset, group_col: str, ts_col: str,
                      value_col: str) -> Dataset:
    """Per-group OLS trend line of ``value`` (cents) against time
    (epoch SECONDS) — the drift detector that turns "is this event
    type's value going up?" into one number per group.

    Exactness follows :func:`grouped_corr`'s recipe: per-batch
    combiners emit exact integer moments ``(n, sx, sy, sxx, sxy)``
    (second-order sums carried as ``decimal128(38)`` — epoch-seconds
    squares overflow int64 after ~10^5 rows), the driver folds the tiny
    O(blocks × groups) partial table with Python ints, and the finish
    is mirrored IEEE op-for-op against the DuckDB oracle::

        num       = n*sxy - sx*sy          -- exact ints
        den       = n*sxx - sx*sx
        slope     = CAST(num AS DOUBLE) / CAST(den AS DOUBLE) -- 1 div
        intercept = CAST(sy*den - num*sx AS DOUBLE)
                    / CAST(n*den AS DOUBLE)                   -- 1 div

    Units: slope is cents per second.  The intercept is the EXACT
    rational ``(sy·den - num·sx)/(n·den)`` — one division of exact
    integers; the naive ``(sy - slope·sx)/n`` float product rounds
    differently under DuckDB's fused multiply-add and diverged at
    sf0.1 (caught by the full mirror).  ``num·sx`` stays inside
    HUGEINT up to ~10^8 rows/group at epoch-second × cent magnitudes;
    past that, center x first.  Rows with a NULL group, ts or value
    are dropped (both sides).  Zero-variance groups emit slope =
    intercept = 0.0 (mirrored CASE)."""
    import ray

    dec = pa.decimal128(38, 0)

    def partial(t: pa.Table) -> pa.Table:
        t = t.select([group_col, ts_col, value_col])
        t = t.filter(pc.and_(
            pc.and_(t.column(ts_col).is_valid(),
                    t.column(value_col).is_valid()),
            t.column(group_col).is_valid()))
        if t.num_rows == 0:
            return pa.table({group_col: pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "sx": pa.array([], pa.int64()),
                             "sy": pa.array([], pa.int64()),
                             "sxx": pa.array([], dec),
                             "sxy": pa.array([], dec)})
        # epoch seconds: µs // 1e6, matching the oracle's
        # epoch_us(ts) // 1000000 (int floor division both sides)
        x = pc.divide(t.column(ts_col).cast(pa.int64()),
                      1_000_000).to_numpy(zero_copy_only=False)
        y = _cents(t.column(value_col).to_numpy(zero_copy_only=False))
        df = pd.DataFrame({group_col: t.column(group_col).to_pylist()})
        gname, ns, sxs, sys_, sxxs, sxys = [], [], [], [], [], []
        for g, idx in df.groupby(group_col, sort=False).groups.items():
            xi = x[np.asarray(idx)]
            yi = y[np.asarray(idx)]
            xo = xi.astype(object)
            yo = yi.astype(object)
            gname.append(g)
            ns.append(len(xi))
            sxs.append(int(xi.sum()))
            sys_.append(int(yi.sum()))
            sxxs.append(int((xo * xo).sum()))
            sxys.append(int((xo * yo).sum()))
        return pa.table({group_col: pa.array(gname, pa.string()),
                         "n": pa.array(ns, pa.int64()),
                         "sx": pa.array(sxs, pa.int64()),
                         "sy": pa.array(sys_, pa.int64()),
                         "sxx": pa.array(sxxs, dec),
                         "sxy": pa.array(sxys, dec)})

    folded: dict[str, list[int]] = {}
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        e = folded.setdefault(row[group_col], [0, 0, 0, 0, 0])
        e[0] += int(row["n"]); e[1] += int(row["sx"])
        e[2] += int(row["sy"]); e[3] += int(row["sxx"])
        e[4] += int(row["sxy"])
    groups = sorted(folded)
    ns, slopes, intercepts = [], [], []
    for g in groups:
        n, sx, sy, sxx, sxy = folded[g]
        num = n * sxy - sx * sy
        den = n * sxx - sx * sx
        if den == 0:
            slope, intercept = 0.0, 0.0
        else:
            slope = float(num) / float(den)
            intercept = float(sy * den - num * sx) / float(n * den)
        ns.append(n); slopes.append(slope); intercepts.append(intercept)
    return ray.data.from_arrow(pa.table({
        group_col: pa.array(groups, pa.string()),
        "n": pa.array(ns, pa.int64()),
        "slope": pa.array(slopes, pa.float64()),
        "intercept": pa.array(intercepts, pa.float64())}))


def host_vocab_jaccard(pages: Dataset, n_buckets: int = N_BUCKETS
                       ) -> Dataset:
    """Pairwise Jaccard similarity of the distinct-token vocabularies
    of every DOMAIN pair (domain = ``host/section``, the corpus's
    crawl-partition unit) — the crawl-audit signal for mirror/
    syndication detection (near-identical vocabularies flag scraped
    copies that URL canonicalization misses).

    Scale shape: the per-batch combiner emits DISTINCT ``(host,
    token)`` rows (text never leaves the batch), ONE token-bucket
    exchange dedups them globally, and each bucket emits per-host
    vocabulary counts plus per-host-PAIR intersection counts (pairs
    per token = hosts-on-token choose 2 — bounded by the host fan-out
    of a token, not the corpus).  The driver folds the tiny
    O(buckets × host-pairs) table; ``jaccard = n_common /
    (n_a + n_b - n_common)`` is ONE IEEE division, mirrored in the
    oracle.  Host count is assumed small relative to the corpus
    (domains, not documents); the pair table is O(hosts²) worst case
    but only for token-sharing hosts."""
    import ray

    from ..functions.web import url_host_section

    def partial(t: pa.Table) -> pa.Table:
        # shared tokenize kernel (retrieval._token_lists): ONE
        # implementation of the RE2 '\S+'-equivalent split keeps every
        # operator's tokenization oracle-aligned
        from .retrieval import _token_lists

        host, section, ok = url_host_section(t.column("url"))
        dom = pc.binary_join_element_wise(host, section, "/")
        t2 = pa.table({"host": dom,
                       "text": t.column("text")}).filter(ok)
        flat, parent, _dl = _token_lists(t2.column("text"))
        hosts_np = t2.column("host").to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"host": hosts_np[parent],
                           "token": flat.to_numpy(zero_copy_only=False)})
        df = df.drop_duplicates()
        bucket = str_bucket(df["token"], n_buckets)
        return pa.table({"host": pa.array(df["host"], pa.string()),
                         "token": pa.array(df["token"], pa.string()),
                         "_b": pa.array(bucket, pa.int64())})

    def fold(g: pd.DataFrame) -> pa.Table:
        cols = {"kind": pa.array([], pa.string()),
                "a": pa.array([], pa.string()),
                "b": pa.array([], pa.string()),
                "n": pa.array([], pa.int64())}
        if len(g) == 0 or "host" not in g.columns:
            return pa.table(cols)
        g = g.drop_duplicates(["host", "token"])
        kinds, a_, b_, ns = [], [], [], []
        hc = g.groupby("host").size()
        kinds += ["h"] * len(hc)
        a_ += hc.index.tolist()
        b_ += [""] * len(hc)
        ns += [int(v) for v in hc.to_numpy()]
        # per token: every (h1 < h2) host pair once — a vectorized
        # self-merge, not a per-token Python loop (a stopword shared
        # by H domains would cost H²/2 interpreted dict ops)
        gt = g[["token", "host"]]
        m = gt.merge(gt, on="token")
        m = m[m["host_x"] < m["host_y"]]
        if len(m):
            pc_ = (m.groupby(["host_x", "host_y"], as_index=False)
                   .size())
            kinds += ["p"] * len(pc_)
            a_ += pc_["host_x"].tolist()
            b_ += pc_["host_y"].tolist()
            ns += [int(v) for v in pc_["size"].to_numpy()]
        return pa.table({"kind": pa.array(kinds, pa.string()),
                         "a": pa.array(a_, pa.string()),
                         "b": pa.array(b_, pa.string()),
                         "n": pa.array(ns, pa.int64())})

    parts = (pages.map_batches(partial, batch_format="pyarrow")
                  .groupby("_b")
                  .map_groups(fold, batch_format="pandas"))
    sizes: dict[str, int] = {}
    commons: dict[tuple, int] = {}
    for row in parts.take_all():
        if row["kind"] == "h":
            sizes[row["a"]] = sizes.get(row["a"], 0) + int(row["n"])
        else:
            k = (row["a"], row["b"])
            commons[k] = commons.get(k, 0) + int(row["n"])
    pairs = sorted(commons)
    ha, hb, na, nb, nc, jac = [], [], [], [], [], []
    for a, b in pairs:
        c = commons[(a, b)]
        sa, sb = sizes[a], sizes[b]
        ha.append(a); hb.append(b)
        na.append(sa); nb.append(sb); nc.append(c)
        jac.append(float(c) / float(sa + sb - c))
    return ray.data.from_arrow(pa.table({
        "domain_a": pa.array(ha, pa.string()),
        "domain_b": pa.array(hb, pa.string()),
        "n_a": pa.array(na, pa.int64()),
        "n_b": pa.array(nb, pa.int64()),
        "n_common": pa.array(nc, pa.int64()),
        "jaccard": pa.array(jac, pa.float64())}))


def grouped_order_rounds(ds: Dataset, key_col: str, order_col: str,
                         rate: int, n_buckets: int = N_BUCKETS
                         ) -> Dataset:
    """Assign every row a 0-based ROUND within its key: rows ordered by
    ``(order_col, ...)`` are dealt into consecutive rounds of ``rate``
    rows each — the crawl-frontier politeness scheduler (a host with
    35 queued URLs at rate 10 fetches over rounds 0..3) and the
    batch-quota allocator behind it.  ``order_col`` must be unique per
    key (use a hash column) for a deterministic result.

    SQL mirror: ``(row_number() OVER (PARTITION BY key ORDER BY ord)
    - 1) // rate``.  One coarse key-bucket exchange; ranking is global
    per key so there is no local combiner (unlike ``grouped_limit``)
    — shuffle volume is the frontier table itself, which is the
    operator's working set by definition (URLs + keys, never
    payloads).  Like :func:`grouped_limit`, the rank runs on a
    (key, order) pandas projection and rows are re-assembled with
    ``Table.take`` so payload columns never round-trip through pandas."""
    if rate < 1:
        raise ValueError("rate must be >= 1")

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_bucket", _key_bucket(t.column(key_col), n_buckets))

    def fold(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({"k": t.column(key_col).to_pandas(),
                          "o": t.column(order_col).to_pandas()})
        g = g.sort_values(["k", "o"], kind="mergesort")
        cc = g.groupby("k", sort=False).cumcount().to_numpy(np.int64)
        out = t.take(pa.array(g.index.to_numpy(), pa.int64()))
        out = out.append_column("round",
                                pa.array(cc // rate, pa.int64()))
        return out.drop_columns(["_bucket"])

    return (ds.map_batches(add_bucket, batch_format="pyarrow")
              .groupby("_bucket")
              .map_groups(fold, batch_format="pyarrow"))


def _trunc_mod(x, m: int) -> np.ndarray:
    """``x % m`` with the sign of the dividend (C / SQL semantics), for
    the truncated quotients Arrow's integer ``divide`` gives."""
    return pc.subtract(x, pc.multiply(pc.divide(x, m), m)).to_numpy(
        zero_copy_only=False)


def grouped_hourly_chi2(ds: Dataset, group_col: str, ts_col: str
                        ) -> Dataset:
    """Per-group hour-of-day seasonality test: chi-square statistic of
    the 24-bin hour histogram against uniform — the traffic-anomaly /
    bot-detection signal (organic event types show diurnal structure;
    uniform or single-spike types are automation).

    EXACT: with integer counts ``o_h`` and ``n = Σ o_h``, the statistic
    ``Σ (o_h - n/24)² / (n/24) = Σ (24·o_h - n)² / (24·n)`` has an
    integer numerator (all 24 cells, including zeros), so the float is
    ONE mirrored division.  Hours are integer arithmetic both sides
    (``(epoch_µs // 3.6e9) % 24`` — no timezone/calendar surface), with
    DuckDB's truncating ``//`` and dividend-signed ``%``: before 1970 an
    hour falls in [-23, 0], and the negative ones, as in the oracle, in
    none of the 24 cells.
    One tiny (group, hour) count exchange via per-batch combiners."""
    import ray

    def partial(t: pa.Table) -> pa.Table:
        t = t.select([group_col, ts_col])
        t = t.filter(pc.and_(t.column(ts_col).is_valid(),
                             t.column(group_col).is_valid()))
        hours = pc.divide(t.column(ts_col).cast(pa.int64()),
                          3_600_000_000)
        df = pd.DataFrame({"g": t.column(group_col).to_pylist(),
                           "h": _trunc_mod(hours, 24)})
        agg = df.groupby(["g", "h"], as_index=False).size()
        return pa.table({
            "g": pa.array(agg["g"], pa.string()),
            "h": pa.array(agg["h"].to_numpy(np.int64), pa.int64()),
            "n": pa.array(agg["size"].to_numpy(np.int64), pa.int64())})

    folded: dict[tuple, int] = {}
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        k = (row["g"], int(row["h"]))
        folded[k] = folded.get(k, 0) + int(row["n"])
    groups = sorted({g for g, _ in folded})
    ns, chi2s = [], []
    for g in groups:
        o = [folded.get((g, h), 0) for h in range(24)]
        n = sum(o)
        num = sum((24 * oh - n) ** 2 for oh in o)
        ns.append(n)
        chi2s.append(float(num) / float(24 * n) if n else 0.0)
    return ray.data.from_arrow(pa.table({
        group_col: pa.array(groups, pa.string()),
        "n": pa.array(ns, pa.int64()),
        "chi2": pa.array(chi2s, pa.float64())}))


def grouped_gini(ds: Dataset, group_col: str, value_col: str,
                 id_col: str, n_buckets: int = 16) -> Dataset:
    """Per-group Gini coefficient of the value distribution — the
    inequality audit (is one user/domain taking all the value?) next
    to the winsorized stats.  Deterministic under ties via the
    ``(value, id)`` rank order, so the rank-weighted sum is exact::

        G = (2·Σ i·x_(i) - (n+1)·Σx) / (n·Σx)     -- i = 1-based rank

    — integer numerator and denominator (cents × python-int ranks),
    ONE mirrored IEEE division; zero-sum groups emit 0.0 (mirrored
    CASE).  One coarse group-bucket exchange of (group, value, id)
    rows (ranking is global per group — no combiner exists); the fold
    sorts its bucket once and reduces each group to one row, so
    output is group-sized."""
    import ray

    def add_bucket(t: pa.Table) -> pa.Table:
        t = t.select([group_col, value_col, id_col])
        t = t.filter(pc.and_(
            pc.and_(t.column(value_col).is_valid(),
                    t.column(id_col).is_valid()),
            t.column(group_col).is_valid()))
        from .joins import key_bucket
        return t.append_column(
            "_b", key_bucket(t.column(group_col), n_buckets))

    def fold(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0 or group_col not in g.columns:
            return pa.table({group_col: pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "gini": pa.array([], pa.float64())})
        x_all = _cents(g[value_col].to_numpy(np.float64))
        g = g.assign(_x=x_all).sort_values(
            [group_col, "_x", id_col], kind="mergesort")
        names, ns, ginis = [], [], []
        for name, grp in g.groupby(group_col, sort=True):
            x = grp["_x"].to_numpy(np.int64).astype(object)
            n = len(x)
            s = int(x.sum())
            ix = int((np.arange(1, n + 1, dtype=np.int64)
                      .astype(object) * x).sum())
            names.append(name)
            ns.append(n)
            ginis.append(
                float(2 * ix - (n + 1) * s) / float(n * s)
                if s != 0 else 0.0)
        return pa.table({group_col: pa.array(names, pa.string()),
                         "n": pa.array(ns, pa.int64()),
                         "gini": pa.array(ginis, pa.float64())})

    return (ds.map_batches(add_bucket, batch_format="pyarrow")
              .groupby("_b")
              .map_groups(fold, batch_format="pandas")
              .sort(group_col))


def grouped_daily_autocorr(ds: Dataset, group_col: str, ts_col: str
                           ) -> Dataset:
    """Per-group lag-1 autocorrelation of the DAILY count series
    (zero-filled over the group's [min_day, max_day] span) — the
    periodicity/trend-persistence signal next to the KS drift monitor
    (organic activity autocorrelates; bursty bot traffic does not).

    EXACT by the :func:`grouped_corr` discipline: daily counts are
    integers, the lag-pair moments are integer sums over the
    driver-folded (group, day) count table (days are calendar-bounded
    — thousands of rows per group, a driver-sized series by
    construction), and the Pearson finish mirrors the oracle op-for-op
    (two sqrt, one division).  Days truncate toward zero as the
    oracle's ``epoch_us(ts) // 86400000000`` does, so day 0 spans
    (-1 day, +1 day).  One tiny (group, day) count exchange; events
    never shuffle."""
    import math

    import ray

    def partial(t: pa.Table) -> pa.Table:
        t = t.select([group_col, ts_col])
        t = t.filter(pc.and_(t.column(ts_col).is_valid(),
                             t.column(group_col).is_valid()))
        days = pc.divide(t.column(ts_col).cast(pa.int64()), 86_400_000_000)
        df = pd.DataFrame({"g": t.column(group_col).to_pylist(),
                           "d": days.to_numpy(zero_copy_only=False)})
        agg = df.groupby(["g", "d"], as_index=False).size()
        return pa.table({
            "g": pa.array(agg["g"], pa.string()),
            "d": pa.array(agg["d"].to_numpy(np.int64), pa.int64()),
            "n": pa.array(agg["size"].to_numpy(np.int64), pa.int64())})

    folded: dict[tuple, int] = {}
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        k = (row["g"], int(row["d"]))
        folded[k] = folded.get(k, 0) + int(row["n"])
    by_group: dict[str, dict[int, int]] = {}
    for (g, d), n in folded.items():
        by_group.setdefault(g, {})[d] = n
    groups = sorted(by_group)
    n_pairs, acs = [], []
    for g in groups:
        days = by_group[g]
        lo, hi = min(days), max(days)
        series = [days.get(d, 0) for d in range(lo, hi + 1)]
        m = len(series) - 1
        if m < 1:
            n_pairs.append(max(m, 0)); acs.append(0.0)
            continue
        xs, ys = series[:-1], series[1:]
        sx, sy = sum(xs), sum(ys)
        sxx = sum(v * v for v in xs)
        syy = sum(v * v for v in ys)
        sxy = sum(a * b for a, b in zip(xs, ys))
        vx, vy = m * sxx - sx * sx, m * syy - sy * sy
        if vx == 0 or vy == 0:
            ac = 0.0
        else:
            ac = (float(m * sxy - sx * sy)
                  / (math.sqrt(float(vx)) * math.sqrt(float(vy))))
        n_pairs.append(m); acs.append(ac)
    return ray.data.from_arrow(pa.table({
        group_col: pa.array(groups, pa.string()),
        "n_pairs": pa.array(n_pairs, pa.int64()),
        "autocorr": pa.array(acs, pa.float64())}))


def grouped_log_moments(ds: Dataset, group_col: str, value_col: str
                        ) -> Dataset:
    """Per-group mean/variance of ``ln(value)`` — the lognormal length
    audit (document lengths are lognormal-ish per language; μ/σ of the
    log pin the outlier-filter thresholds a curation pass uses).

    EXACT: each value's log is quantized ``q(v) = floor(ln(v)·1e9 +
    0.5)`` (an integer, the quantized-ln discipline), so per-group
    ``(n, Σq, Σq²)`` partials are exact big-int sums (decimal128
    carrier for the squares) and the finishes are mirrored divisions::

        mean_log_e9  = CAST(Σq AS DOUBLE) / CAST(n AS DOUBLE)
        var_log_e18  = CAST(n·Σq² - (Σq)² AS DOUBLE)
                       / CAST(n·n AS DOUBLE)         -- population var

    Rows with NULL group or value < 1 are dropped (ln undefined /
    negative-length guard; the oracle mirrors ``value >= 1``).  One
    tiny O(blocks × groups) partial fold on the driver."""
    import ray

    dec = pa.decimal128(38, 0)

    def partial(t: pa.Table) -> pa.Table:
        t = t.select([group_col, value_col])
        t = t.filter(pc.and_(
            pc.and_(t.column(value_col).is_valid(),
                    pc.greater_equal(t.column(value_col), 1)),
            t.column(group_col).is_valid()))
        if t.num_rows == 0:
            return pa.table({group_col: pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64()),
                             "sq": pa.array([], dec)})
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        q = np.floor(np.log(v.astype(np.float64)) * 1e9
                     + 0.5).astype(np.int64)
        df = pd.DataFrame({group_col: t.column(group_col).to_pylist()})
        gname, ns, ss, sqs = [], [], [], []
        for g, idx in df.groupby(group_col, sort=False).groups.items():
            qi = q[np.asarray(idx)].astype(object)
            gname.append(g)
            ns.append(len(qi))
            ss.append(int(qi.sum()))
            sqs.append(int((qi * qi).sum()))
        return pa.table({group_col: pa.array(gname, pa.string()),
                         "n": pa.array(ns, pa.int64()),
                         "s": pa.array(ss, pa.int64()),
                         "sq": pa.array(sqs, dec)})

    folded: dict[str, list[int]] = {}
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        e = folded.setdefault(row[group_col], [0, 0, 0])
        e[0] += int(row["n"]); e[1] += int(row["s"])
        e[2] += int(row["sq"])
    groups = sorted(folded)
    ns, means, vars_ = [], [], []
    for g in groups:
        n, s, sq = folded[g]
        ns.append(n)
        means.append(float(s) / float(n))
        vars_.append(float(n * sq - s * s) / float(n * n))
    return ray.data.from_arrow(pa.table({
        group_col: pa.array(groups, pa.string()),
        "n": pa.array(ns, pa.int64()),
        "mean_log_e9": pa.array(means, pa.float64()),
        "var_log_e18": pa.array(vars_, pa.float64())}))
