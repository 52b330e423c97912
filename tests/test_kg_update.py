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
from kgforge.stages.canonicalize import NORMALIZED_SCHEMA
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


def _fused_ops(*datasets) -> list:
    return [op for _s, op in _executed(*datasets)
            if "fused_extract_normalize_task" in op.operator_name]


def test_compact_state_runs_lazy_input_once(setup):
    """One fold reads both kinds: a lazy input is extracted once and
    crosses a single exchange."""
    pages, cfg = setup
    state = compact_state(_fused_normalized(pages, cfg), cfg).materialize()
    fused = _fused_ops(state)
    assert len(fused) == 1, [op.operator_name for op in fused]
    assert _exchanges(state) == 1


def test_build_kg_one_exchange(setup):
    """An in-memory build folds nodes and edges in one exchange and
    renders both from the state without re-running extraction."""
    pages, cfg = setup
    res = build_kg(pages, cfg)
    assert res.metrics["nodes"] > 0 and res.metrics["edges"] > 0
    assert len(_fused_ops(res.nodes, res.edges)) == 1
    assert _exchanges(res.nodes, res.edges) == 1


def test_state_fold_passthrough_idempotent(setup):
    """Compacting a compacted state changes nothing; a key with one
    partial keeps its state bytes; an exact order tie merges the same
    whichever partial arrives first."""
    pages, cfg = setup
    normalized = _fused_normalized(pages, cfg).materialize()
    state = compact_state(normalized, cfg).materialize()
    assert compact_state(state, cfg).take_all() == state.take_all()

    parts = normalized.to_pandas()
    ents = parts[parts.kind == "entity"]
    single = ents.groupby("node_key").filter(lambda g: len(g) == 1)
    assert len(single) > 0
    folded = dict(zip(*(state.to_pandas()[c]
                        for c in ("node_key", "state_json"))))
    for key, raw in zip(single.node_key, single.state_json):
        assert folded[key] == raw

    def partial(value) -> dict:
        return {"kind": "entity", "label": "Person",
                "node_key": 'Person\x1f{name: "Tie"}',
                "unique_json": '{"name": "Tie"}',
                "state_json": json.dumps({"age": [[7, 8, 9], value]}),
                "src_key": None, "dst_key": None, "n_mentions": 1}
    a, b = partial(40), partial(41)
    merged = [compact_state(ray.data.from_arrow(
        pa.Table.from_pylist(rows, schema=NORMALIZED_SCHEMA)), cfg)
        .take_all() for rows in ([a, b], [b, a])]
    assert merged[0] == merged[1]
    assert json.loads(merged[0][0]["state_json"]) == {"age": [[7, 8, 9], 41]}
    assert merged[0][0]["n_mentions"] == 2


def test_apply_delta_one_exchange_equals_rebuild(setup, tmp_path):
    """A delta compacts state + delta rows in one exchange and renders
    the one-row-per-key state without another."""
    pages, cfg = setup
    base = compact_state(_fused_normalized(_half(pages, 0), cfg), cfg)
    write_state(base, str(tmp_path / "state"))
    state = read_state(str(tmp_path / "state")).materialize()
    delta = _fused_normalized(_half(pages, 1), cfg).materialize()
    assert _exchanges(state, delta) == 0

    nodes, edges, new_state = apply_delta(state, delta, cfg)
    edges = edges.materialize()
    assert _exchanges(nodes, edges, new_state) == 1

    full = build_kg(pages, cfg)
    for got, want, key in ((nodes, full.nodes, "node_key"),
                           (edges, full.edges, "edge_id")):
        a = got.to_pandas().sort_values(key).reset_index(drop=True)
        b = want.to_pandas().sort_values(key).reset_index(drop=True)
        assert len(a) > 0
        assert a.equals(b), key
