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
  relation key holding the folded LWW state, as the build's one
  canonicalize exchange (``kg_build.compact_state``) emits it;
- ``apply_delta`` materializes the delta once and runs no exchange: a
  task folds the delta to one row per key (``state_fold``); one plain
  task per state block (``joins.map_blocks``) merges each touched key
  as ``state_fold(state row, delta row)``, passes every other row
  through untouched and marks the delta rows the block holds; one more
  task adds, once, the folded rows no block holds to the smallest
  merged block, so the block count does not grow from delta to delta.
  This beat compacting state and delta together in one exchange at
  every delta size measured, up to 37x the state's rows;
- the new state is then rendered exactly as a build renders its state
  (``kg_build.build_nodes`` / ``build_edges``), with no further
  exchange.

At 100 TB the state table is node+edge-key-sized (not corpus-sized),
lives in partitioned Parquet via ``write_state``/``read_state``, and
a delta reads it once and shuffles none of it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset
from ray.data.block import BlockAccessor
from ray.data.dataset import MaterializedDataset

from ..stages.canonicalize import NORMALIZED_SCHEMA, fold_key, state_fold
from ..stages.joins import map_blocks, nonempty_blocks
# compact_state is re-exported: it makes the state a delta merges into
from .kg_build import KGBuildConfig, build_edges, build_nodes, compact_state


def apply_delta(state: Dataset, delta_normalized: Dataset,
                cfg: KGBuildConfig):
    """Merge a delta batch into the snapshot: returns
    ``(nodes, edges, new_state)``, bit-identical to a full rebuild over
    all pages.  The delta runs once; the folded delta is merged into
    the state block by block, so no state row crosses an exchange, and
    the build's renders turn the new state into nodes and edges."""
    new_state = _merge_delta(_materialized(state),
                             _materialized(delta_normalized))
    nodes = build_nodes(new_state, cfg).materialize()
    edges = build_edges(new_state, nodes, cfg, node_count=nodes.count())
    return nodes, edges, new_state


def _materialized(ds: Dataset) -> MaterializedDataset:
    # materialize() on a materialized Dataset still copies its plan
    return ds if isinstance(ds, MaterializedDataset) else ds.materialize()


def _merge_delta(state: Dataset, delta: Dataset) -> Dataset:
    """Fold the delta once in a task; one task per state block merges
    it into the block and marks the delta rows the block holds; the
    folded rows no block holds join the smallest merged block, so the
    state's block count stays put from delta to delta."""
    folded, keys = _fold_blocks.options(num_returns=2).remote(
        *(ref for ref, _ in nonempty_blocks(delta)))
    outs = map_blocks(state, _merge_block, folded, keys, num_returns=2)
    merged = [block for block, _ in outs]
    rows = [n for _, n in nonempty_blocks(state)]
    at = rows.index(min(rows)) if rows else 0
    into = merged[at] if merged else None
    merged[at:at + 1] = [_add_absent.remote(
        folded, into, *(held for _, held in outs))]
    return ray.data.from_arrow_refs(merged)


def _state_keys(t: pa.Table) -> pa.Array:
    """The identity ``state_fold`` groups on: the fold key and kind."""
    return pc.binary_join_element_wise(t.column("kind"), fold_key(t), "\x00")


@ray.remote
def _fold_blocks(*blocks):
    """The folded delta and its keys."""
    tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
    folded = state_fold(pa.concat_tables(tables) if tables
                        else NORMALIZED_SCHEMA.empty_table())
    return folded, _state_keys(folded)


def _merge_block(block: pa.Table, delta: pa.Table, keys: pa.Array):
    """One state block with the folded delta merged in, and which delta
    rows the block holds.  Untouched rows pass through as they are; a
    touched key becomes ``state_fold`` of its state row, then its delta
    row, so the state row keeps the precedence a union-then-compact
    gives it.  The delta's keys probe a hash of the block's keys, so a
    block costs O(block) to hash and O(delta) to probe."""
    pos = pc.index_in(keys, value_set=_state_keys(block))
    held = pos.is_valid()
    hit = pos.drop_null().to_numpy()
    if len(hit) == 0:
        return block, held
    touched = np.zeros(block.num_rows, dtype=bool)
    touched[hit] = True
    return pa.concat_tables([
        block.filter(~touched),
        state_fold(pa.concat_tables([block.take(hit), delta.filter(held)])),
    ]), held


@ray.remote
def _add_absent(delta: pa.Table, into, *held: pa.Array) -> pa.Table:
    """The block ``into`` (if any) plus the delta rows no block holds."""
    absent = np.ones(delta.num_rows, dtype=bool)
    for mask in held:
        absent &= ~mask.to_numpy(zero_copy_only=False)
    added = delta.filter(absent)
    return added if into is None else pa.concat_tables([into, added])


def write_state(state: Dataset, path: str) -> None:
    """Persist the snapshot state as partitioned Parquet (resumable:
    the next delta run reads it back instead of reprocessing)."""
    state.write_parquet(path)


def read_state(path: str):
    import ray
    return ray.data.read_parquet(path, schema=NORMALIZED_SCHEMA)
