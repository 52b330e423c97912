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
  relation key holding the folded LWW state.  ``compact_state`` is the
  build's own canonicalize fold (``kg_build.compact_state``): one
  exchange for both kinds;
- ``apply_delta`` unions the state with the delta's normalized rows
  (state rows are just another mergeable partial) and compacts once;
  keys the delta does not touch pass through the fold unparsed.  The
  compacted state is then rendered exactly as a build renders its
  state (``kg_build.build_nodes`` / ``build_edges``), with no further
  exchange.  One exchange per delta in all.

At 100 TB the state table is node+edge-key-sized (not corpus-sized),
lives in partitioned Parquet via ``write_state``/``read_state``, and
each delta re-shuffles only state + delta rows.
"""

from __future__ import annotations

from ray.data import Dataset

from ..stages.canonicalize import NORMALIZED_SCHEMA
from .kg_build import KGBuildConfig, build_edges, build_nodes, compact_state


def apply_delta(state: Dataset, delta_normalized: Dataset,
                cfg: KGBuildConfig):
    """Merge a delta batch into the snapshot: returns
    ``(nodes, edges, new_state)``.  State rows union with the delta's
    normalized rows as ordinary mergeable partials; one compaction (one
    exchange), then the build's renders turn the new state into nodes
    and edges — bit-identical to a full rebuild over all pages."""
    new_state = compact_state(state.union(delta_normalized), cfg).materialize()
    nodes = build_nodes(new_state, cfg).materialize()
    edges = build_edges(new_state, nodes, cfg, node_count=nodes.count())
    return nodes, edges, new_state


def write_state(state: Dataset, path: str) -> None:
    """Persist the snapshot state as partitioned Parquet (resumable:
    the next delta run reads it back instead of reprocessing)."""
    state.write_parquet(path)


def read_state(path: str):
    import ray
    return ray.data.read_parquet(path, schema=NORMALIZED_SCHEMA)
