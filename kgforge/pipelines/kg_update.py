"""Incremental KG update: merge a new crawl batch into an existing
snapshot WITHOUT reprocessing old pages.

The reference's FalkorDB sink is incremental by construction — every
extraction batch is MERGE-upserted into the live graph
(`/root/reference/graphrag_sdk/steps/extract_data_step.py:195-230`),
so "add a crawl batch" is its normal mode of operation.  This engine
materializes Parquet snapshots instead, so incrementality needs an
explicit mergeable state.  That state already exists in the dataflow:
the normalized mention rows (``NORMALIZED_SCHEMA``) carry a per-attr
LWW state whose merge (`canonicalize._merge_state`) is associative and
commutative, and mention counts are sums — therefore

    fold(compact(norm(A)) ∪ norm(B))  ==  fold(norm(A ∪ B))

bit-for-bit: an incremental run equals a full rebuild, which is
exactly what the driver gate checks (the incremental queries share the
full-rebuild kg_nodes/kg_edges SQL oracles).

Dataflow per delta batch (sized by the DELTA, not the corpus):
- the snapshot state is a compacted Dataset — ONE row per entity /
  relation key holding the folded LWW state.  ``compact_state`` runs
  the build's own canonicalize folds (``canonicalize.bucket_fold`` with
  ``entity_state_fold`` / ``relation_fold``): two exchanges;
- ``apply_delta`` unions the state with the delta's normalized rows
  (state rows are just another mergeable partial) and compacts once.
  The compacted state already holds one row per key, so it is rendered
  without another exchange: nodes by the build's node finalizer over
  each block, edges by the build's endpoint gate + typed build
  (``kg_build.resolve_edges``).  Two exchanges per delta in all.

At 100 TB the state table is node+edge-key-sized (not corpus-sized),
lives in partitioned Parquet via ``write_state``/``read_state``, and
each delta re-shuffles only state + delta rows.
"""

from __future__ import annotations

from ray.data import Dataset

from ..stages.canonicalize import (NORMALIZED_SCHEMA, bucket_fold,
                                   entity_state_fold, make_node_finalizer,
                                   relation_fold)
from ..stages.joins import filter_kind
from .kg_build import KGBuildConfig, resolve_edges


def compact_state(normalized: Dataset, cfg: KGBuildConfig) -> Dataset:
    """Fold normalized mention rows to ONE row per entity/relation key
    (the persistent snapshot state): the build's two coarse-bucket
    folds, emitting mergeable ``NORMALIZED_SCHEMA`` rows instead of
    final tables."""
    # both folds read the input: pin it once, or each branch re-runs
    # the whole upstream (and a lazy extract can stall at one CPU)
    normalized = normalized.materialize()
    ents = bucket_fold(normalized, "entity", cfg.n_buckets, entity_state_fold)
    rels = bucket_fold(normalized, "relation", cfg.n_buckets, relation_fold)
    return ents.union(rels)


def apply_delta(state: Dataset, delta_normalized: Dataset,
                cfg: KGBuildConfig):
    """Merge a delta batch into the snapshot: returns
    ``(nodes, edges, new_state)``.  State rows union with the delta's
    normalized rows as ordinary mergeable partials; one compaction
    (two exchanges), then the build's finalizers render the one-row-
    per-key state block by block — bit-identical to a full rebuild over
    all pages."""
    new_state = compact_state(state.union(delta_normalized), cfg).materialize()
    nodes = filter_kind(new_state, "entity").map_batches(
        make_node_finalizer(cfg.ontology_json), batch_format="pandas",
        batch_size=None).materialize()
    edges = resolve_edges(filter_kind(new_state, "relation"), nodes, cfg,
                          node_count=nodes.count())
    return nodes, edges, new_state


def write_state(state: Dataset, path: str) -> None:
    """Persist the snapshot state as partitioned Parquet (resumable:
    the next delta run reads it back instead of reprocessing)."""
    state.write_parquet(path)


def read_state(path: str):
    import ray
    return ray.data.read_parquet(path, schema=NORMALIZED_SCHEMA)
