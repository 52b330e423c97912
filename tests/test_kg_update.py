"""Incremental KG update: what a delta executes, counted from the Ray
Data stats of its outputs, and that it renders the full rebuild."""

import json

import pyarrow as pa
import pytest

import ray

from kgforge.keys import hash64
from kgforge.pipelines.kg_build import (KGBuildConfig, _fused_normalized,
                                        build_kg)
from kgforge.pipelines.kg_update import (apply_delta, compact_state,
                                         read_state, write_state)
from kgforge.testing.corpus import ONTOLOGY_JSON


def _executed(*datasets) -> list:
    """``(summary, operator)`` for every operator that ran in the
    datasets' lineage, once each (lineages share their parents)."""
    seen = {}
    for ds in datasets:
        todo = [ds._get_stats_summary()]
        while todo:
            summary = todo.pop()
            for op in summary.operators_stats:
                seen.setdefault((op.operator_name, op.earliest_start_time),
                                (summary, op))
            todo.extend(summary.parents)
    return list(seen.values())


def _exchanges(*datasets) -> int:
    """All-to-all operators run: one stats summary per exchange holds
    its sub-operators (sort map and reduce)."""
    return len({id(s) for s, op in _executed(*datasets)
                if op.is_sub_operator})


@pytest.fixture(scope="module")
def setup(tiny_corpus):
    cfg = KGBuildConfig(ontology_json=json.dumps(ONTOLOGY_JSON),
                        alias_map=tiny_corpus.alias_map, n_buckets=4)
    return ray.data.from_arrow(tiny_corpus.pages), cfg


def _half(pages, parity: int):
    def keep(t: pa.Table) -> pa.Table:
        urls = t.column("url").to_pylist()
        return t.filter(pa.array([hash64(u) % 2 == parity for u in urls]))
    return pages.map_batches(keep, batch_format="pyarrow")


def test_compact_state_runs_lazy_input_once(setup):
    """Both folds read the input; a lazy input must still be extracted
    only once."""
    pages, cfg = setup
    state = compact_state(_fused_normalized(pages, cfg), cfg).materialize()
    fused = [op for _s, op in _executed(state)
             if "fused_extract_normalize_task" in op.operator_name]
    assert len(fused) == 1, [op.operator_name for op in fused]
    assert _exchanges(state) == 2


def test_apply_delta_two_exchanges_equals_rebuild(setup, tmp_path):
    """A delta compacts state + delta rows (two exchanges) and renders
    the one-row-per-key state without another: no node or edge fold."""
    pages, cfg = setup
    base = compact_state(_fused_normalized(_half(pages, 0), cfg), cfg)
    write_state(base, str(tmp_path / "state"))
    state = read_state(str(tmp_path / "state")).materialize()
    delta = _fused_normalized(_half(pages, 1), cfg).materialize()
    assert _exchanges(state, delta) == 0

    nodes, edges, new_state = apply_delta(state, delta, cfg)
    edges = edges.materialize()
    assert _exchanges(nodes, edges, new_state) == 2

    full = build_kg(pages, cfg)
    for got, want, key in ((nodes, full.nodes, "node_key"),
                           (edges, full.edges, "edge_id")):
        a = got.to_pandas().sort_values(key).reset_index(drop=True)
        b = want.to_pandas().sort_values(key).reset_index(drop=True)
        assert len(a) > 0
        assert a.equals(b), key
