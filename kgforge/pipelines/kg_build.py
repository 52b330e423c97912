"""End-to-end KG construction: extract → link → canonicalize → materialize.

Ray-Data-native re-expression of the reference's
``KnowledgeGraph.process_sources`` flow (``graphrag_sdk/kg.py:88-119`` →
``steps/extract_data_step.py:62-92``), with FalkorDB replaced by explicit
shuffles and deduplicated node/edge Parquet tables.

Stage graph::

    read_parquet(pages)                       # prune to url, warc_ts, text[, html]
      → map_batches(extract_text_batch)       # html→text (skipped when the CC
                                              #   corpus ships a text column)
      → vectorized empty-text filter          # extract_data_step.py:67-74
      → map_batches(TripleExtractor, ...)     # ACTOR POOL, model built once
      → [checkpoint: mentions/ shard=N parquet + manifests]   (resume unit)
      → map_batches(NormalizeMentions)        # sanitize/link/key + combiner
        (in memory: one fused extract+normalize stage instead)
      → compact_state: groupby(bucket) fold   # the one canonicalize shuffle,
                                              #   both kinds; one row per key
      → materialize state                     # both renders read it
      → entity rows → node finalizer → nodes parquet
      → relation rows → semi-join src/dst against node keys
                                              # dangling-edge drop (MATCH no-op)
                                              #   broadcast: refs to the node
                                              #   table's per-block key arrays
      → typed edge build → edges parquet

An incremental delta (``kg_update.apply_delta``) replaces the fold with
an exchange-free merge of the folded delta into the state's blocks, then
runs the same two renders.

The extraction checkpoint shards by ``shard_fn(url) % n_shards`` so a
resumed run recomputes only unfinished shards regardless of input block
layout; shard count AND shard hash function are part of the checkpoint
contract (manifests record both; a resume adopts the recorded fn).
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

from ..functions.html_text import extract_text_batch
from ..keys import hash64
from ..stages.canonicalize import (bucket_fold, make_edge_typed_builder,
                                   make_node_finalizer)
from ..stages.extract import TripleExtractor
from ..stages.joins import (filter_keys_in_broadcast, filter_kind,
                            map_blocks, semi_join_keys)
from ..state import checkpoint as ckpt


@dataclass
class KGBuildConfig:
    ontology_json: str
    alias_map: dict | None = None
    use_text_column: bool = True          # CC corpus ships extracted text
    model_factory: Callable | None = None  # ExtractorModel factory
    max_input_chars: int = 500_000        # reference truncation (step :119)
    extract_batch_size: int = 256
    # autoscaling pools with min=1: a fixed-size pool that reserves every
    # CPU starves sibling task operators and deadlocks the pipeline
    extract_concurrency: Any = (1, 8)
    # large normalize batches make Ray coalesce the extractor's small
    # output blocks, so the per-batch combiner compresses to ~one row per
    # distinct key per 64k mentions instead of per tiny block
    normalize_batch_size: int = 65536
    # in-memory fast path: one fused extract+normalize pool; None = fixed
    # pool sized to ~70% of cluster CPUs (autoscaling ramps too slowly for
    # short runs; a full-size pool would starve the read/fold tasks)
    fused_concurrency: Any = None
    # None ⇒ adaptive: ~2 batches per CPU clamped to [2048, 8192].  Too
    # big starves parallelism at small corpora (8192 over 50k pages ran
    # 6 tasks on 32 CPUs — 28% headline loss); too small makes per-block
    # scheduling, not compute, dominate the downstream folds (the
    # round-1 586-tiny-blocks lesson) and weakens the in-batch combiner.
    fused_batch_size: int | None = None
    n_buckets: int = 32                   # canonicalize reduce partitions
    # block-size ceiling during the fold shuffles: the sort planner sizes
    # its parallelism to data_bytes / target_block_size, and the
    # combiner-compressed fold inputs are small relative to page data
    fold_target_block_size: int = 16 * 1024 * 1024
    join_strategy: str = "auto"           # auto | broadcast | join
    join_num_partitions: int = 32
    broadcast_limit: int = 2_000_000
    n_shards: int = 16                    # resume granularity
    keep_lang: list[str] | None = None    # optional language filter
    # opt-in embedding-ANN entity-linking fallback (the north-star
    # "alias dictionary + embedding ANN" candidate generation): surfaces
    # the alias dictionary misses are linked to this canonical catalog
    # ({label: {attr: [canonical, ...]}}) by hashed char-3-gram cosine
    # (stages/linker.py); catalog broadcast once per worker process
    ann_link_catalog: dict | None = None
    ann_link_threshold: tuple = (7, 20)   # cosine >= tn/td, exact ints


@dataclass
class KGResult:
    nodes: Dataset
    edges: Dataset
    metrics: dict = field(default_factory=dict)


def pages_read_columns(schema_names, cfg: "KGBuildConfig | None" = None
                       ) -> list[str]:
    """The column projection a KG build actually consumes from a pages
    corpus: ``url, warc_ts, text`` (or ``html`` when
    ``use_text_column=False`` / no text column exists), plus
    ``instruction`` when present and ``lang`` when ``cfg.keep_lang``
    filters on it."""
    use_text = cfg is None or cfg.use_text_column
    body = "text" if (use_text and "text" in schema_names) else "html"
    want = ["url", "warc_ts", body, "instruction"]
    if cfg is not None and cfg.keep_lang:
        want.append("lang")
    return [c for c in want if c in schema_names]


def read_pages(pages_path, cfg: "KGBuildConfig | None" = None) -> Dataset:
    """COLUMN-PRUNED pages read.  Ray 2.49 has no projection-pushdown
    optimizer rule (only ``limit_pushdown`` exists in
    ``ray/data/_internal/logical/rules/``), so a ``select_columns``
    after ``read_parquet`` does NOT save the scan: the multi-MB
    ``html`` column would be read and decoded, then dropped — ~half
    the corpus bytes in the synthetic pages file and 5-10x the text on
    real Common Crawl.  Resolve the projection from the Parquet footer
    (metadata-only driver lookup) and pass ``columns=`` to the read so
    only the needed columns ever leave storage."""
    import pyarrow.dataset as pads
    try:
        names = pads.dataset(pages_path).schema.names
    except Exception as exc:  # noqa: BLE001 — odd path/filesystem
        import logging
        logging.getLogger(__name__).warning(
            "read_pages: could not resolve schema for %s (%s); "
            "falling back to an UNPRUNED read", pages_path, exc)
        return ray.data.read_parquet(pages_path)
    return ray.data.read_parquet(
        pages_path, columns=pages_read_columns(names, cfg))


def _prepare_pages(pages: Dataset, cfg: KGBuildConfig) -> Dataset:
    cols = pages.schema().names
    if cfg.keep_lang and "lang" in cols:
        keep = set(cfg.keep_lang)
        pages = pages.map_batches(
            lambda t: t.filter(pc.is_in(t.column("lang"),
                                        pa.array(sorted(keep)))),
            batch_format="pyarrow")
    if cfg.use_text_column and "text" in cols:
        keep_cols = [c for c in ("url", "warc_ts", "text", "instruction")
                     if c in cols]
        pages = pages.select_columns(keep_cols)
    else:
        keep_cols = [c for c in ("url", "warc_ts", "html", "instruction")
                     if c in cols]
        pages = pages.select_columns(keep_cols)
        pages = pages.map_batches(extract_text_batch, batch_format="pyarrow")
    # empty-document filter (reference extract_data_step.py:67-74)
    return pages.map_batches(
        lambda t: t.filter(
            pc.and_(t.column("text").is_valid(),
                    pc.greater(pc.utf8_length(t.column("text")), 0))),
        batch_format="pyarrow")


def extract_mentions(pages: Dataset, cfg: KGBuildConfig) -> Dataset:
    prepared = _prepare_pages(pages, cfg)
    if cfg.model_factory is None:
        # light default model → stateless tasks (no actor spawn/ramp)
        from ..stages.extract import triple_extract_task
        return prepared.map_batches(
            triple_extract_task,
            fn_kwargs={"ontology_json": cfg.ontology_json,
                       "max_input_chars": cfg.max_input_chars},
            batch_format="pyarrow",
            batch_size=cfg.extract_batch_size)
    return prepared.map_batches(
        TripleExtractor,
        fn_constructor_kwargs={
            "ontology_json": cfg.ontology_json,
            "model_factory": cfg.model_factory,
            "max_input_chars": cfg.max_input_chars,
        },
        batch_format="pyarrow",
        batch_size=cfg.extract_batch_size,
        concurrency=cfg.extract_concurrency)


# Persisted shard-layout versions.  The url→shard mapping is part of the
# checkpoint contract (a resume recomputes ONLY missing shards, so the
# mapping must match whatever partitioned the shards already on disk);
# manifests record which function wrote them, and a resume adopts it.
# "pdhash64" = vectorized pandas siphash (stability pinned in
# tests/test_resume.py — if a pandas upgrade ever changes it, mint a v3,
# don't silently repartition); "blake2b64" = the legacy per-row hash64.
SHARD_FN = "pdhash64"
SHARD_FN_LEGACY = "blake2b64"


def _url_shards(col, n_shards: int, shard_fn: str) -> "pa.Array":
    if shard_fn == SHARD_FN_LEGACY:
        return pa.array([hash64(u) % n_shards for u in col.to_pylist()],
                        pa.int64())
    if shard_fn != SHARD_FN:
        raise ValueError(f"unknown checkpoint shard_fn {shard_fn!r}")
    import pandas as pd
    hashed = pd.util.hash_array(
        col.to_pandas().to_numpy(dtype=object), categorize=False)
    return pa.array((hashed % np.uint64(n_shards)).astype("int64"),
                    pa.int64())


def _add_shard(batch: pa.Table, n_shards: int,
               shard_fn: str = SHARD_FN) -> pa.Table:
    return batch.append_column(
        "shard", _url_shards(batch.column("url"), n_shards, shard_fn))


def _normalized(mentions: Dataset, cfg: KGBuildConfig) -> Dataset:
    from ..stages.canonicalize import normalize_mentions_task
    alias_ref = [ray.put(cfg.alias_map)] if cfg.alias_map else None
    ann_ref = ([ray.put(cfg.ann_link_catalog)]
               if cfg.ann_link_catalog else None)
    return mentions.map_batches(
        normalize_mentions_task,
        fn_kwargs={"ontology_json": cfg.ontology_json,
                   "alias_ref": alias_ref,
                   "ann_ref": ann_ref,
                   "ann_threshold": tuple(cfg.ann_link_threshold)},
        batch_format="pyarrow",
        batch_size=cfg.normalize_batch_size)


def _is_bare_read(ds: Dataset) -> bool:
    """True when the dataset is an untransformed read — the only case
    where ``count()`` is a pure metadata lookup.  On a transformed
    dataset ``count()`` would execute the upstream chain once, silently
    doubling work before the fused stage."""
    try:
        from ray.data._internal.logical.operators.read_operator import Read
        dag = ds._plan._logical_plan.dag
        return isinstance(dag, Read)
    except Exception:  # noqa: BLE001 — private API; be conservative
        return False


def _resolve_fused_batch_size(pages: Dataset, cfg: KGBuildConfig) -> int:
    if cfg.fused_batch_size is not None:
        return cfg.fused_batch_size
    if not _is_bare_read(pages):
        return 8192
    try:
        n = pages.count()  # parquet metadata — no data read
        cpus = int(ray.cluster_resources().get("CPU", 8))
        return min(8192, max(2048, -(-n // (2 * cpus))))
    except Exception:  # noqa: BLE001 — fall back to the safe ceiling
        return 8192


def _fused_normalized(pages: Dataset, cfg: KGBuildConfig) -> Dataset:
    from ..stages.canonicalize import (FusedExtractNormalize,
                                       fused_extract_normalize_task)
    batch_size = _resolve_fused_batch_size(pages, cfg)
    prepared = _prepare_pages(pages, cfg)
    if cfg.model_factory is None:
        # light default model → stateless tasks in the warm default worker
        # pool (per-process module cache holds the folder); elastic, no
        # actor spawn cost
        alias_ref = [ray.put(cfg.alias_map)] if cfg.alias_map else None
        ann_ref = ([ray.put(cfg.ann_link_catalog)]
                   if cfg.ann_link_catalog else None)
        return prepared.map_batches(
            fused_extract_normalize_task,
            fn_kwargs={"ontology_json": cfg.ontology_json,
                       "alias_ref": alias_ref,
                       "ann_ref": ann_ref,
                       "ann_threshold": tuple(cfg.ann_link_threshold),
                       "max_input_chars": cfg.max_input_chars},
            batch_format="pyarrow",
            batch_size=batch_size)
    # heavy models (LLM clients, big gazetteers) get a real actor pool
    conc = cfg.fused_concurrency
    if conc is None:
        avail = int(ray.cluster_resources().get("CPU", 8))
        conc = max(2, int(avail * 0.7))
    alias_arg: Any = cfg.alias_map
    if alias_arg and len(json.dumps(alias_arg)) > 1_000_000:
        alias_arg = [ray.put(alias_arg)]
    return prepared.map_batches(
        FusedExtractNormalize,
        fn_constructor_kwargs={"ontology_json": cfg.ontology_json,
                               "alias_map": alias_arg,
                               "model_factory": cfg.model_factory,
                               "max_input_chars": cfg.max_input_chars,
                               "ann_catalog": cfg.ann_link_catalog,
                               "ann_threshold":
                                   tuple(cfg.ann_link_threshold)},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=conc)


def compact_state(normalized: Dataset, cfg: KGBuildConfig) -> Dataset:
    """Fold normalized partials to ONE row per entity / relation key:
    the build's one canonicalize exchange, and the mergeable snapshot
    state an incremental update keeps (``kg_update``)."""
    return bucket_fold(normalized, cfg.n_buckets)


def build_nodes(state: Dataset, cfg: KGBuildConfig) -> Dataset:
    """Folded state → typed node table.  The state holds one row per
    key, so the finalizer runs block by block with no exchange."""
    return filter_kind(state, "entity").map_batches(
        make_node_finalizer(cfg.ontology_json), batch_format="pyarrow",
        batch_size=None)


def build_edges(state: Dataset, nodes: Dataset, cfg: KGBuildConfig,
                node_count: int | None = None) -> Dataset:
    """Folded state → typed edge table: drop relations with an endpoint
    outside the materialized ``nodes`` (the size gate picks a broadcast
    of refs to the node table's per-block key arrays, or a shuffle
    semi-join), then build typed rows."""
    folded = filter_kind(state, "relation")
    node_keys = nodes.select_columns(["node_key"])
    strategy = cfg.join_strategy
    if strategy == "auto":
        n = node_count if node_count is not None else node_keys.count()
        strategy = "broadcast" if n <= cfg.broadcast_limit else "join"
    if strategy == "broadcast":
        key_ref = ray.put(map_blocks(nodes, _column, "node_key"))
        folded = filter_keys_in_broadcast(folded, key_ref,
                                          ["src_key", "dst_key"])
    else:
        folded = semi_join_keys(folded, node_keys, "src_key", "node_key",
                                strategy="join",
                                num_partitions=cfg.join_num_partitions)
        folded = semi_join_keys(folded, node_keys, "dst_key", "node_key",
                                strategy="join",
                                num_partitions=cfg.join_num_partitions)
    return folded.map_batches(make_edge_typed_builder(cfg.ontology_json),
                              batch_format="pandas")


def _column(block: pa.Table, col: str) -> pa.Array:
    return block.column(col).combine_chunks()


def _column_sum(block: pa.Table, col: str) -> int:
    return pc.sum(block.column(col)).as_py() or 0


def build_kg(pages: Dataset, cfg: KGBuildConfig,
             output_dir: str | None = None, resume: bool = False) -> KGResult:
    """Run the full pipeline.

    With ``output_dir``, every phase checkpoints to partitioned Parquet
    with per-partition manifests and the run is resumable; without it
    extraction streams straight into the canonicalize fold.  Either way
    only the folded state (one row per key) is pinned, because the node
    and edge renders both read it.
    """
    t0 = time.time()
    metrics: dict[str, Any] = {"config": {
        k: v for k, v in vars(cfg).items()
        if isinstance(v, (int, str, bool, list, type(None)))}}
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy
    ctx = DataContext.get_current()
    prev_block_size = ctx.target_max_block_size
    prev_shuffle = ctx.shuffle_strategy
    # a Dataset CAPTURES its DataContext at creation, so the caller's
    # `pages` (created before this call) must be patched too — otherwise
    # every derived dataset keeps the default 128 MiB blocks and the sort
    # planner runs the fold shuffles single-task
    contexts = [ctx]
    pages_ctx = getattr(pages, "context", None)
    if pages_ctx is not None and pages_ctx is not ctx:
        contexts.append(pages_ctx)
    for c in contexts:
        c.target_max_block_size = cfg.fold_target_block_size
        # push-based sort shuffle: measurably faster than pull-based for
        # the many-small-partition exchanges the folds produce
        c.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    try:
        return _build_kg_inner(pages, cfg, output_dir, resume, metrics, t0)
    finally:
        # restore even on failure — these are session-wide settings and a
        # leaked 16 MiB block size would silently reshape every later
        # pipeline on this driver
        for c in contexts:
            c.target_max_block_size = prev_block_size
            c.shuffle_strategy = prev_shuffle


def _build_kg_inner(pages: Dataset, cfg: KGBuildConfig,
                    output_dir: str | None, resume: bool,
                    metrics: dict, t0: float) -> KGResult:
    if output_dir:
        mentions = _mentions_checkpointed(pages, cfg, output_dir, resume,
                                          metrics)
        t1 = time.time()
        metrics["extract_sec"] = t1 - t0
        normalized = _normalized(mentions, cfg)
    else:
        # in-memory fast path: ONE fused extract+normalize stage —
        # payloads flow straight into the combiner and on into the fold
        t1 = t0
        normalized = _fused_normalized(pages, cfg)

    # the one exchange; its state is pinned because both renders read it
    state = compact_state(normalized, cfg).materialize()
    metrics["mentions"] = sum(ray.get(map_blocks(state, _column_sum,
                                                 "n_mentions")))
    nodes = build_nodes(state, cfg).materialize()
    node_count = nodes.count()
    t2 = time.time()
    metrics["nodes"] = node_count
    # in memory, extraction streams into the fold: one timer covers both
    metrics["canonicalize_sec" if output_dir
            else "extract_canonicalize_sec"] = t2 - t1

    edges = build_edges(state, nodes, cfg, node_count=node_count)
    if output_dir:
        nodes_dir = os.path.join(output_dir, "nodes")
        edges_dir = os.path.join(output_dir, "edges")
        # final tables are derived wholesale from the mentions checkpoint:
        # always rewritten (write_parquet appends uuid-named files, so a
        # stale dir would duplicate rows on a resumed run)
        for d in (nodes_dir, edges_dir):
            if os.path.isdir(d):
                shutil.rmtree(d)
        nodes.write_parquet(nodes_dir)
        edges.write_parquet(edges_dir)
        edges = ray.data.read_parquet(edges_dir)
        metrics["edges"] = edges.count()
        t3 = time.time()
        metrics["edges_sec"] = t3 - t2
        metrics["total_sec"] = t3 - t0
        with open(os.path.join(output_dir, "ontology.json"), "w") as fh:
            fh.write(cfg.ontology_json)
        # lineage manifests for the final tables (same shape as the
        # per-shard mention manifests; validates a completed run)
        for name, count in (("nodes", node_count), ("edges",
                                                    metrics["edges"])):
            ckpt.write_table_manifest(os.path.join(output_dir, name),
                                      rows=count,
                                      extra={"stage": name,
                                             "n_shards": cfg.n_shards})
        with open(os.path.join(output_dir, "metrics.json"), "w") as fh:
            json.dump(metrics, fh, indent=2, default=str)
    else:
        edges = edges.materialize()
        metrics["edges"] = edges.count()
        t3 = time.time()
        metrics["edges_sec"] = t3 - t2
        metrics["total_sec"] = t3 - t0
    return KGResult(nodes, edges, metrics)


def _mentions_checkpointed(pages: Dataset, cfg: KGBuildConfig,
                           output_dir: str, resume: bool,
                           metrics: dict) -> Dataset:
    """Extraction with shard-level checkpoint/resume.

    Shard = ``hash64(url) % n_shards``; finished shards (valid manifest)
    are skipped entirely — their pages never reach the extractor."""
    mentions_dir = os.path.join(output_dir, "mentions")
    os.makedirs(mentions_dir, exist_ok=True)
    done = (ckpt.completed_shards(mentions_dir,
                                  expect_n_shards=cfg.n_shards)
            if resume else set())
    if not resume:
        ckpt.clear_incomplete_shards(mentions_dir, set())
    else:
        ckpt.clear_incomplete_shards(mentions_dir, done)
    missing = [s for s in range(cfg.n_shards) if s not in done]
    metrics["resume_skipped_shards"] = sorted(done)
    metrics["resume_recomputed_shards"] = missing

    # the url→shard fn must match whatever partitioned the shards already
    # on disk; manifests record it (absent = legacy blake2b checkpoint)
    shard_fn = SHARD_FN
    if done:
        recorded = ckpt.manifest_field(mentions_dir, "shard_fn",
                                       shards=done)
        shard_fn = str(recorded) if recorded is not None else SHARD_FN_LEGACY
    metrics["shard_fn"] = shard_fn

    if missing:
        todo = set(missing)
        filtered = pages.map_batches(
            lambda t: _filter_shards(t, cfg.n_shards, todo, shard_fn),
            batch_format="pyarrow")
        mentions = extract_mentions(filtered, cfg)
        mentions = mentions.map_batches(
            lambda t: _add_shard(t, cfg.n_shards, shard_fn),
            batch_format="pyarrow")
        mentions.write_parquet(mentions_dir, partition_cols=["shard"])
        for s in missing:
            ckpt.write_shard_manifest(mentions_dir, s,
                                      extra={"n_shards": cfg.n_shards,
                                             "shard_fn": shard_fn})
    return ray.data.read_parquet(mentions_dir)


def _filter_shards(batch: pa.Table, n_shards: int, todo: set[int],
                   shard_fn: str = SHARD_FN) -> pa.Table:
    shards = _url_shards(batch.column("url"), n_shards, shard_fn)
    return batch.filter(pc.is_in(shards, pa.array(sorted(todo),
                                                  pa.int64())))
