"""Incremental KG update: what a delta executes, counted from the Ray
Data stats of its outputs, and that it renders the full rebuild."""

import json
import uuid

import pyarrow as pa
import pytest

import ray

from kgforge.keys import hash64
from kgforge.pipelines.kg_build import (KGBuildConfig, _fused_normalized,
                                        build_edges, build_kg, build_nodes)
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


def _frame(ds, key):
    return ds.to_pandas().sort_values(key).reset_index(drop=True)


def _assert_same_kg(nodes, edges, want_nodes, want_edges):
    for got, want, key in ((nodes, want_nodes, "node_key"),
                           (edges, want_edges, "edge_id")):
        a, b = _frame(got, key), _frame(want, key)
        assert len(a) > 0
        assert a.equals(b), key


def _delta_split(pages, cfg, tmp_path):
    """The even half of the pages as a persisted state, the odd half's
    normalized rows as a lazy delta."""
    base = compact_state(_fused_normalized(_half(pages, 0), cfg), cfg)
    write_state(base, str(tmp_path / "state"))
    state = read_state(str(tmp_path / "state")).materialize()
    return state, _fused_normalized(_half(pages, 1), cfg)


def test_apply_delta_one_exchange_equals_rebuild(setup, tmp_path):
    """A delta crosses no exchange: the folded delta is merged into the
    state block by block, and the one-row-per-key state renders without
    one."""
    pages, cfg = setup
    state, delta = _delta_split(pages, cfg, tmp_path)
    delta = delta.materialize()
    assert _exchanges(state, delta) == 0

    nodes, edges, new_state = apply_delta(state, delta, cfg)
    edges = edges.materialize()
    assert _exchanges(nodes, edges, new_state) == 0

    full = build_kg(pages, cfg)
    _assert_same_kg(nodes, edges, full.nodes, full.edges)


def test_apply_delta_larger_than_state_equals_rebuild(setup):
    """A delta with more rows than the state it merges into still
    crosses no exchange and equals the full rebuild."""
    pages, cfg = setup

    def part(keep):
        def f(t: pa.Table) -> pa.Table:
            urls = t.column("url").to_pylist()
            return t.filter(pa.array([keep(hash64(u) % 4) for u in urls]))
        return _fused_normalized(pages.map_batches(f, batch_format="pyarrow"),
                                 cfg)

    state = compact_state(part(lambda q: q == 0), cfg).materialize()
    delta = part(lambda q: q != 0).materialize()
    assert delta.count() > state.count()
    nodes, edges, new_state = apply_delta(state, delta, cfg)
    edges = edges.materialize()
    assert _exchanges(nodes, edges, new_state) == 0
    full = build_kg(pages, cfg)
    _assert_same_kg(nodes, edges, full.nodes, full.edges)


def _state_keys(df):
    return list(zip(df.kind, df.node_key.fillna("") + "|"
                    + df.src_key.fillna("") + "|" + df.dst_key.fillna("")
                    + "|" + df.label))


def test_apply_delta_many_blocks_new_keys_once(setup, tmp_path):
    """A state in several blocks, a lazy delta that touches keys in more
    than one of them and adds keys none holds: the delta's pipeline runs
    once, every new key is emitted once, the block count stays put, and
    the result is the full rebuild."""
    pages, cfg = setup
    state, delta = _delta_split(pages, cfg, tmp_path)
    table = pa.concat_tables(ray.get(state.to_arrow_refs()))
    step = -(-table.num_rows // 5)
    state = ray.data.from_arrow([table.slice(i, step) for i in
                                 range(0, table.num_rows, step)])
    assert state.num_blocks() >= 4

    calls = tmp_path / "calls"
    calls.mkdir()

    def mark(t: pa.Table) -> pa.Table:
        (calls / uuid.uuid4().hex).touch()
        return t

    delta = delta.map_batches(mark, batch_format="pyarrow")
    nodes, edges, new_state = apply_delta(state, delta, cfg)
    edges = edges.materialize()
    batches = len(list(calls.iterdir()))
    delta = delta.materialize()   # one more pass, to count its batches
    assert batches > 0 and len(list(calls.iterdir())) == 2 * batches

    delta_keys = set(_state_keys(delta.to_pandas()))
    touched = [bool(delta_keys & set(_state_keys(ray.get(ref).to_pandas())))
               for ref in state.to_arrow_refs()]
    assert sum(touched) >= 2
    old_keys = set(_state_keys(table.to_pandas()))
    assert delta_keys - old_keys
    keys = _state_keys(new_state.to_pandas())
    assert len(keys) == len(set(keys)) == len(old_keys | delta_keys)
    assert new_state.num_blocks() == state.num_blocks()

    full = build_kg(pages, cfg)
    _assert_same_kg(nodes, edges, full.nodes, full.edges)


def _partial(kind="entity", label="Person", name=None, src=None, dst=None,
             state=None, n=1) -> dict:
    key = f'{label}\x1f{{name: "{name}"}}' if name else None
    return {"kind": kind, "label": label, "node_key": key,
            "unique_json": json.dumps({"name": name}) if name else None,
            "state_json": json.dumps(state or {}), "src_key": src,
            "dst_key": dst, "n_mentions": n}


def _rows(rows) -> "ray.data.Dataset":
    return ray.data.from_arrow(
        pa.Table.from_pylist(rows, schema=NORMALIZED_SCHEMA)).materialize()


def _rebuild(rows, cfg):
    """Nodes and edges of one compaction over every partial."""
    state = compact_state(_rows(rows), cfg).materialize()
    nodes = build_nodes(state, cfg).materialize()
    return nodes, build_edges(state, nodes, cfg).materialize()


def test_apply_delta_completes_dangling_edge(setup):
    """A relation whose target node is missing from the state is dropped
    until a delta adds that node; then the edge appears."""
    _pages, cfg = setup
    ann = _partial(name="Ann", state={"age": [[1, 2, 0], 30]})
    film = {**_partial(label="Movie", state={"release_year": [[1, 2, 1],
                                                              1999]}),
            "node_key": 'Movie\x1f{title: "Film"}',
            "unique_json": json.dumps({"title": "Film"})}
    acted = _partial(kind="relation", label="ACTED_IN",
                     src=ann["node_key"], dst=film["node_key"],
                     state={"role": [[1, 2, 2], "lead"]})
    state = compact_state(_rows([ann, acted]), cfg).materialize()
    assert build_edges(state, build_nodes(state, cfg).materialize(),
                       cfg).count() == 0

    nodes, edges, _ = apply_delta(state, _rows([film]), cfg)
    want_nodes, want_edges = _rebuild([ann, acted, film], cfg)
    assert edges.count() == 1
    _assert_same_kg(nodes, edges, want_nodes, want_edges)


def test_apply_delta_empty_delta(setup, tmp_path):
    """An empty delta leaves the state and its renders unchanged; a
    delta into an empty state renders as a build of the delta alone."""
    pages, cfg = setup
    state, delta = _delta_split(pages, cfg, tmp_path)
    empty = _rows([])
    nodes, edges, new_state = apply_delta(state, empty, cfg)
    assert sorted(_state_keys(new_state.to_pandas())) == sorted(
        _state_keys(state.to_pandas()))
    half = build_kg(_half(pages, 0), cfg)
    _assert_same_kg(nodes, edges.materialize(), half.nodes, half.edges)

    nodes, edges, _ = apply_delta(empty, delta, cfg)
    half = build_kg(_half(pages, 1), cfg)
    _assert_same_kg(nodes, edges.materialize(), half.nodes, half.edges)


def test_apply_delta_exact_order_tie(setup):
    """A state row and a delta partial that tie exactly on order merge
    to the full rebuild whichever of them is the state."""
    _pages, cfg = setup
    a = _partial(name="Tie", state={"age": [[7, 8, 9], 40]})
    b = _partial(name="Tie", state={"age": [[7, 8, 9], 41]})
    want_nodes, want_edges = _rebuild([a, b], cfg)
    for old, new in ((a, b), (b, a)):
        state = compact_state(_rows([old]), cfg).materialize()
        nodes, _edges, new_state = apply_delta(state, _rows([new]), cfg)
        assert _frame(nodes, "node_key").equals(_frame(want_nodes,
                                                       "node_key"))
        row, = new_state.take_all()
        assert json.loads(row["state_json"]) == {"age": [[7, 8, 9], 41]}
        assert row["n_mentions"] == 2


def test_apply_delta_state_row_keeps_identity(setup):
    """A touched key keeps the state row's identity columns, as a
    union-then-compact of state and delta keeps its first partial's."""
    _pages, cfg = setup
    old = _partial(name="Same", state={"age": [[1, 2, 0], 30]})
    new = {**old, "unique_json": json.dumps({"name": "same"}),
           "state_json": json.dumps({"age": [[1, 2, 1], 31]})}
    state = compact_state(_rows([old]), cfg).materialize()
    _nodes, _edges, new_state = apply_delta(state, _rows([new]), cfg)
    row, = new_state.take_all()
    assert row["unique_json"] == old["unique_json"]
    assert json.loads(row["state_json"]) == {"age": [[1, 2, 1], 31]}
    assert row["n_mentions"] == 2
