"""Normalize → canonicalize → materialize stages.

Distributed re-expression of the reference's FalkorDB upsert semantics
(``graphrag_sdk/steps/extract_data_step.py:195-269``):

- node identity = rendered unique-attr MERGE text (see ``kgforge.keys``),
- ``SET n += {non-unique attrs}`` = per-attribute last-writer-wins,
  made DETERMINISTIC by ordering writes on ``(warc_ts, url, seq)``
  (the reference's order is thread-race nondeterministic, SURVEY §4),
- edge identity = (label, src node, dst node); endpoints resolved
  against the final node set, dangling edges silently dropped
  (Cypher ``MATCH`` no-op semantics, ``extract_data_step.py:266``).

Scale design (the whole point):

1. **Combiner**: each batch pre-aggregates mentions per key inside
   ``map_batches`` — the shuffle then moves at most one row per
   (key, block), which also neutralizes Zipfian head-entity skew.
2. **Bucketed final fold** (:func:`bucket_fold`): ``groupby("bucket")``
   over ``bucket = key_bucket(key, n_buckets)`` — one ``map_groups`` call
   per bucket (not per key), so the per-group Python overhead is
   O(buckets), and bucket count scales with the cluster, not the key
   count.  The build's node and edge folds and the incremental state's
   two folds all run it.
3. **Endpoint semi-join**: broadcast the node-key set (``ray.put`` once)
   when the node table is small, else a hash-partitioned
   ``Dataset.join`` — both exact, chosen by ``join_strategy``.

The attribute-merge state is associative/commutative: per attribute keep
``(max (warc_ts, url, seq), value)``; merging partials takes the larger
order tuple, so two-phase aggregation equals the sequential reference
fold.
"""

from __future__ import annotations

import json
from typing import Any

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

from ..keys import (KEY_SEP, coerce_value, compose_edge_key,
                    compose_edge_key_column, hash64, node_key,
                    non_unique_attr_dict, render_properties,
                    split_edge_key, unique_attr_dict)
from ..ontology import Ontology
# top-level (not runtime) import so worker tasks never need kgforge on
# sys.path when the by-value cloudpickle fallback is active
from .extract import RuleBasedExtractor  # noqa: E402
from .joins import key_bucket

NORMALIZED_SCHEMA = pa.schema([
    ("kind", pa.string()),
    ("label", pa.string()),
    ("node_key", pa.string()),      # entities: identity; relations: null
    ("unique_json", pa.string()),   # raw unique-attr dict (entities)
    ("state_json", pa.string()),    # attr -> [[ts,url,seq], value]
    ("src_key", pa.string()),
    ("dst_key", pa.string()),
    ("n_mentions", pa.int64()),
])


def _normalized_table(**cols: list) -> pa.Table:
    """``NORMALIZED_SCHEMA`` table from per-column lists; columns not
    given are all-null."""
    n = len(cols["kind"])
    return pa.Table.from_arrays(
        [pa.array(cols[f.name], f.type) if f.name in cols
         else pa.nulls(n, f.type) for f in NORMALIZED_SCHEMA],
        schema=NORMALIZED_SCHEMA)


def _resolve_aliases(label: str, attrs: dict, alias_map: dict | None) -> dict:
    """Entity-linking candidate resolution: alias surface form →
    canonical value, per (label, attribute).  The alias dictionary is
    broadcast once per actor (``ray.put`` on the driver)."""
    if not alias_map:
        return attrs
    per_attr = alias_map.get(label)
    if not per_attr:
        return attrs
    out = dict(attrs)
    for name, table in per_attr.items():
        v = out.get(name)
        if isinstance(v, str) and v in table:
            out[name] = table[v]
    return out


class _AnnFallback:
    """Opt-in second half of entity-linking candidate generation (the
    north-star "alias dictionary + embedding ANN"): surface forms the
    alias DICTIONARY misses are linked to the canonical catalog by
    hashed char-3-gram cosine (stages/linker.py).  Per-(label, attr)
    catalogs; results memoized per surface (Zipf corpora repeat
    surfaces constantly)."""

    def __init__(self, catalog: dict, threshold: tuple[int, int]):
        from .linker import AnnLinker
        self._per_label: dict[str, dict] = {}
        for label, per_attr in catalog.items():
            self._per_label[label] = {
                attr: AnnLinker(names, threshold=threshold)
                for attr, names in per_attr.items()}
        self._canon = {(lbl, attr): set(lk.canon)
                       for lbl, per in self._per_label.items()
                       for attr, lk in per.items()}
        self._memo: dict = {}

    def resolve(self, label: str, attrs: dict) -> dict:
        per_attr = self._per_label.get(label)
        if not per_attr:
            return attrs
        out = None
        for attr, linker in per_attr.items():
            v = attrs.get(attr)
            if not isinstance(v, str) or \
                    v in self._canon[(label, attr)]:
                continue  # already canonical (or non-string): keep
            mk = (label, attr, v)
            if mk in self._memo:
                hit = self._memo[mk]
            else:
                if len(self._memo) > 200_000:
                    self._memo.clear()
                hit = linker.link_one(v)
                self._memo[mk] = hit
            if hit is not None:
                if out is None:
                    out = dict(attrs)
                out[attr] = hit
        return out if out is not None else attrs


def _state(order: tuple, attrs: dict) -> dict:
    return {k: [list(order), v] for k, v in attrs.items()}


def _merge_state(into: dict, other: dict) -> dict:
    """Per-attribute LWW merge on the (warc_ts, url_hash, seq) order
    tuple.  Exact order ties (possible when the corpus repeats a
    url+warc_ts row) are broken on the serialized value so the merge is
    fully associative/commutative regardless of block layout."""
    for k, (order, val) in other.items():
        cur = into.get(k)
        if cur is None:
            into[k] = [order, val]
            continue
        o_new, o_cur = tuple(order), tuple(cur[0])
        if o_new > o_cur or (o_new == o_cur
                             and json.dumps(val) > json.dumps(cur[1])):
            into[k] = [order, val]
    return into


class _MentionFolder:
    """Shared normalize+combine core: entity/relation payloads →
    per-batch pre-aggregated identity rows.

    Used by :class:`NormalizeMentions` (over checkpointed mention rows)
    and :class:`FusedExtractNormalize` (straight from extractor payloads,
    no intermediate table).  Key renderings are memoized per actor:
    Zipf-skewed corpora repeat identical (label, attrs) payloads
    constantly and rendering + alias resolution is pure per payload.
    """

    def __init__(self, ontology_json: str, alias_map: Any = None,
                 ann_catalog: Any = None,
                 ann_threshold: tuple[int, int] = (7, 20)):
        self.ontology = Ontology.from_json(ontology_json)
        if isinstance(alias_map, list):  # [ObjectRef] wrapper
            alias_map = ray.get(alias_map[0])
        self.alias_map = alias_map
        if isinstance(ann_catalog, list):  # [ObjectRef] wrapper
            ann_catalog = ray.get(ann_catalog[0])
        self._ann = (_AnnFallback(ann_catalog, ann_threshold)
                     if ann_catalog else None)
        self._entities = {e.label: e for e in self.ontology.entities}
        self._relation_labels = {r.label for r in self.ontology.relations}
        self._ent_cache: dict = {}
        self._ep_cache: dict = {}

    # -- accumulation ------------------------------------------------------
    def start_batch(self) -> None:
        self._ent_acc: dict[str, list] = {}
        self._rel_acc: dict[str, list] = {}

    def add_entity(self, order: tuple, label: str, attrs: dict,
                   cache_key=None) -> None:
        hit = self._ent_cache.get(cache_key) if cache_key is not None else None
        if hit is None:
            entity = self._entities.get(label)
            if entity is None:
                # drop-unknown (extract_data_step.py:197-200)
                if cache_key is not None:
                    self._ent_cache[cache_key] = (None, None, None)
                return
            if isinstance(attrs, str):  # lazy parse (miss path only)
                attrs = json.loads(attrs)
            attrs = _resolve_aliases(label, attrs, self.alias_map)
            if self._ann is not None:
                attrs = self._ann.resolve(label, attrs)
            uniq = unique_attr_dict(entity, attrs)
            key = label + KEY_SEP + render_properties(uniq)
            nonuniq = non_unique_attr_dict(entity, attrs)
            hit = (key, json.dumps(uniq), nonuniq)
            if cache_key is not None:
                if len(self._ent_cache) > 200_000:
                    self._ent_cache.clear()
                self._ent_cache[cache_key] = hit
        key, uniq_json, nonuniq = hit
        if key is None:
            return
        cur = self._ent_acc.get(key)
        if cur is None:
            self._ent_acc[key] = [label, uniq_json, _state(order, nonuniq), 1]
        else:
            _merge_state(cur[2], _state(order, nonuniq))
            cur[3] += 1

    def add_relation(self, order: tuple, label: str, attrs: dict,
                     src_label: str, src_attrs: dict,
                     dst_label: str, dst_attrs: dict,
                     src_cache_key=None, dst_cache_key=None) -> None:
        if label not in self._relation_labels:
            return  # drop-unknown (extract_data_step.py:228-231)
        skey = self.endpoint_key(src_label, src_attrs, src_cache_key)
        dkey = self.endpoint_key(dst_label, dst_attrs, dst_cache_key)
        if skey is None or dkey is None:
            return  # unknown endpoint label: MATCH can never hit
        # escaped composition: node keys can contain EDGE_SEP bytes (real
        # web-text attribute values), so the combiner key must use the
        # same collision-free identity as the shuffle path (kg_build)
        ekey = compose_edge_key(label, skey, dkey)
        # edge attrs pass through UNFILTERED (the reference SET r += takes
        # args["attributes"] as-is, extract_data_step.py:250-266)
        cur = self._rel_acc.get(ekey)
        if cur is None:
            self._rel_acc[ekey] = [label, skey, dkey, _state(order, attrs), 1]
        else:
            _merge_state(cur[3], _state(order, attrs))
            cur[4] += 1

    def endpoint_key(self, label: str, attrs: dict, cache_key=None):
        """Endpoint identity for the edge semi-join.

        The reference MATCHes endpoints on whatever attributes the payload
        provides (``extract_data_step.py:232-248``); extraction is
        prompted to provide the unique attributes, so we canonicalize with
        the same schema-ordered unique-attr rendering used for node
        identity (missing values default to ``""``, matching MERGE).
        """
        if cache_key is not None and cache_key in self._ep_cache:
            return self._ep_cache[cache_key]
        entity = self._entities.get(label)
        if entity is None:
            key = None
        else:
            if isinstance(attrs, str):  # lazy parse (miss path only)
                attrs = json.loads(attrs)
            attrs = _resolve_aliases(label, attrs, self.alias_map)
            if self._ann is not None:
                attrs = self._ann.resolve(label, attrs)
            key = node_key(label, entity, attrs)
        if cache_key is not None:
            if len(self._ep_cache) > 200_000:
                self._ep_cache.clear()
            self._ep_cache[cache_key] = key
        return key

    def finish_batch(self) -> pa.Table:
        ents, rels = self._ent_acc, self._rel_acc
        return _normalized_table(
            kind=["entity"] * len(ents) + ["relation"] * len(rels),
            label=[v[0] for v in ents.values()]
            + [v[0] for v in rels.values()],
            node_key=list(ents) + [None] * len(rels),
            unique_json=[v[1] for v in ents.values()] + [None] * len(rels),
            state_json=[json.dumps(v[2]) for v in ents.values()]
            + [json.dumps(v[3]) for v in rels.values()],
            src_key=[None] * len(ents) + [v[1] for v in rels.values()],
            dst_key=[None] * len(ents) + [v[2] for v in rels.values()],
            n_mentions=[v[3] for v in ents.values()]
            + [v[4] for v in rels.values()])


class NormalizeMentions:
    """Actor-pool stage over checkpointed mention rows (the resume path):
    raw mention rows → normalized identity rows, pre-aggregated per key
    within the batch (the combiner)."""

    def __init__(self, ontology_json: str, alias_map: Any = None,
                 ann_catalog: Any = None,
                 ann_threshold: tuple[int, int] = (7, 20)):
        self._folder = _MentionFolder(ontology_json, alias_map,
                                      ann_catalog, ann_threshold)

    def __call__(self, batch: pa.Table) -> pa.Table:
        f = self._folder
        f.start_batch()
        urls = batch.column("url").to_pylist()
        ts_col = batch.column("warc_ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = ts_col.cast(pa.int64())
        tss = ts_col.to_pylist()
        seqs = batch.column("seq").to_pylist()
        kinds = batch.column("kind").to_pylist()
        labels = batch.column("label").to_pylist()
        attrs_l = batch.column("attrs").to_pylist()
        src_l = batch.column("src_label").to_pylist()
        src_a = batch.column("src_attrs").to_pylist()
        dst_l = batch.column("dst_label").to_pylist()
        dst_a = batch.column("dst_attrs").to_pylist()
        url_hash: dict[str, int] = {}
        for i in range(len(urls)):
            uh = url_hash.get(urls[i])
            if uh is None:
                uh = hash64(urls[i])
                url_hash[urls[i]] = uh
            order = (tss[i], uh, seqs[i])
            if kinds[i] == "entity":
                f.add_entity(order, labels[i], attrs_l[i],
                             cache_key=(labels[i], attrs_l[i]))
            else:
                f.add_relation(order, labels[i], json.loads(attrs_l[i]),
                               src_l[i], src_a[i], dst_l[i], dst_a[i],
                               src_cache_key=(src_l[i], src_a[i]),
                               dst_cache_key=(dst_l[i], dst_a[i]))
        return f.finish_batch()


class FusedExtractNormalize:
    """Single actor-pool stage: pages batch → normalized identity rows.

    Fuses extraction and normalization (the in-memory fast path): payload
    dicts flow straight into the combiner — no intermediate mention table,
    no JSON round-trip, one pool to size instead of two to balance.  The
    checkpointed path keeps the two-stage form so mentions land on disk as
    the resume unit.
    """

    def __init__(self, ontology_json: str, alias_map: Any = None,
                 model_factory=None, max_input_chars: int = 500_000,
                 ann_catalog: Any = None,
                 ann_threshold: tuple[int, int] = (7, 20)):
        self._folder = _MentionFolder(ontology_json, alias_map,
                                      ann_catalog, ann_threshold)
        self.model = (model_factory() if model_factory
                      else RuleBasedExtractor())
        self.max_input_chars = max_input_chars

    def __call__(self, batch: pa.Table) -> pa.Table:
        f = self._folder
        f.start_batch()
        urls = batch.column("url").to_pylist()
        ts_col = batch.column("warc_ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = ts_col.cast(pa.int64())
        tss = ts_col.to_pylist()
        texts = batch.column("text").to_pylist()
        instructions = (batch.column("instruction").to_pylist()
                        if "instruction" in batch.column_names
                        else [""] * len(urls))
        for url, ts, text, instr in zip(urls, tss, texts, instructions):
            if text is None or len(text) == 0:
                continue  # empty-document filter (extract_data_step.py:67-74)
            payload = self.model.extract(text[: self.max_input_chars],
                                         instr or "")
            if "entities" not in payload or "relations" not in payload:
                continue  # shape check (extract_data_step.py:170-176)
            # LWW order = (warc_ts, hash64(url), seq): the url hash keeps
            # the serialized per-attribute state compact through the
            # shuffle while preserving a deterministic total order
            uh = hash64(url)
            seq = 0
            for ent in payload["entities"]:
                if not isinstance(ent, dict) or "label" not in ent:
                    continue
                label = str(ent["label"])
                attrs = ent.get("attributes") or {}
                if not isinstance(attrs, dict):
                    continue  # bad per-item payload: skip, don't crash
                f.add_entity((ts, uh, seq), label, attrs,
                             cache_key=_dict_key(label, attrs))
                seq += 1
            for rel in payload["relations"]:
                if not isinstance(rel, dict) or "label" not in rel:
                    continue
                src = rel.get("source")
                dst = rel.get("target")
                src = src if isinstance(src, dict) else {}
                dst = dst if isinstance(dst, dict) else {}
                s_label = str(src.get("label", ""))
                d_label = str(dst.get("label", ""))
                r_attrs = rel.get("attributes") or {}
                s_attrs = src.get("attributes") or {}
                d_attrs = dst.get("attributes") or {}
                if not (isinstance(r_attrs, dict) and isinstance(s_attrs, dict)
                        and isinstance(d_attrs, dict)):
                    continue  # bad per-item payload: skip, don't crash
                f.add_relation((ts, uh, seq), str(rel["label"]),
                               r_attrs,
                               s_label, s_attrs, d_label, d_attrs,
                               src_cache_key=_dict_key(s_label, s_attrs),
                               dst_cache_key=_dict_key(d_label, d_attrs))
                seq += 1
        return f.finish_batch()


def _dict_key(label: str, attrs: dict):
    """Hashable memo key for a payload attrs dict (None if unhashable —
    e.g. list/dict attribute values from a sloppy LLM payload; hash() is
    probed because sorted() alone doesn't prove hashability)."""
    try:
        key = (label,) + tuple(sorted(attrs.items()))
        hash(key)
        return key
    except TypeError:
        return None


# Task-based paths: for light stage state, stateless tasks in the
# (already warm) default worker pool beat an actor pool — no actor
# process spawn/import cost, elastic parallelism.  The stage state lives
# in a per-worker-process module cache (workers are reused across tasks).
_FUSED_STATE: dict = {}
_NORMALIZE_STATE: dict = {}


def normalize_mentions_task(batch: pa.Table, *, ontology_json: str,
                            alias_ref=None, ann_ref=None,
                            ann_threshold=(7, 20)) -> pa.Table:
    key = (hash(ontology_json), alias_ref[0].hex() if alias_ref else None,
           ann_ref[0].hex() if ann_ref else None, tuple(ann_threshold))
    stage = _NORMALIZE_STATE.get(key)
    if stage is None:
        if len(_NORMALIZE_STATE) > 4:
            _NORMALIZE_STATE.clear()
        stage = NormalizeMentions(ontology_json, alias_ref,
                                  ann_catalog=ann_ref,
                                  ann_threshold=tuple(ann_threshold))
        _NORMALIZE_STATE[key] = stage
    return stage(batch)


def fused_extract_normalize_task(batch: pa.Table, *, ontology_json: str,
                                 alias_ref=None, ann_ref=None,
                                 ann_threshold=(7, 20),
                                 max_input_chars: int = 500_000) -> pa.Table:
    # hash() is salted per process but stable within one — exactly the
    # lifetime of this per-process cache
    key = (hash(ontology_json), alias_ref[0].hex() if alias_ref else None,
           ann_ref[0].hex() if ann_ref else None, tuple(ann_threshold))
    stage = _FUSED_STATE.get(key)
    if stage is None:
        if len(_FUSED_STATE) > 4:
            _FUSED_STATE.clear()
        stage = FusedExtractNormalize(ontology_json, alias_ref,
                                      max_input_chars=max_input_chars,
                                      ann_catalog=ann_ref,
                                      ann_threshold=tuple(ann_threshold))
        _FUSED_STATE[key] = stage
    return stage(batch)


# ---------------------------------------------------------------------------
# final folds (bucketed groupby)
# ---------------------------------------------------------------------------


def add_bucket(batch: pa.Table, col: str, n_buckets: int) -> pa.Table:
    """Append the shuffle-routing ``bucket`` column
    (:func:`~kgforge.stages.joins.key_bucket` of ``col``)."""
    return batch.append_column("bucket",
                               key_bucket(batch.column(col), n_buckets))


def _fold_input(t: pa.Table, kind: str, n_buckets: int) -> pa.Table:
    """Rows of one ``kind``, cut to what its fold reads, plus the bucket.
    Labels (and relation endpoints) are recovered from the key, so only
    key, state and count ride the shuffle."""
    t = t.filter(pc.equal(t.column("kind"), kind))
    if kind == "entity":
        t = t.select(["node_key", "unique_json", "state_json", "n_mentions"])
        return add_bucket(t, "node_key", n_buckets)
    # components are escaped at composition, so split_edge_key recovers
    # them even when attribute values contain separator bytes
    keys = compose_edge_key_column(t.column("label"), t.column("src_key"),
                                   t.column("dst_key"))
    t = t.select(["state_json", "n_mentions"]).append_column("edge_key", keys)
    return add_bucket(t, "edge_key", n_buckets)


def bucket_fold(normalized: Dataset, kind: str, n_buckets: int,
                fold) -> Dataset:
    """The exchange every canonicalize fold runs: normalized rows of one
    ``kind`` → ``groupby("bucket").map_groups(fold)``, one call per
    bucket (not per key), so per-group Python overhead is O(buckets).

    A sort-based shuffle: it is task-based and reuses warm workers,
    where hash-shuffle aggregator actors pay a spawn latency per
    groupby; its parallelism comes from the block size ``build_kg``
    sets."""
    routed = normalized.map_batches(
        _fold_input, fn_kwargs={"kind": kind, "n_buckets": n_buckets},
        batch_format="pyarrow")
    return routed.groupby("bucket").map_groups(fold, batch_format="pandas")


def _unified_attr_schema(parts: list[tuple[str, list]]) -> dict[str, str]:
    """attr name -> type over a set of (label, attributes) definitions;
    duplicate names must agree on type."""
    out: dict[str, str] = {}
    for label, attrs in parts:
        for a in attrs:
            if a.name in out and out[a.name] != a.type:
                raise ValueError(
                    f"attribute {a.name!r} has conflicting types "
                    f"{out[a.name]} vs {a.type} (label {label})")
            out.setdefault(a.name, a.type)
    return out


def node_attr_schema(ontology: Ontology) -> dict[str, str]:
    return _unified_attr_schema([(e.label, e.attributes)
                                 for e in ontology.entities])


def edge_attr_schema(ontology: Ontology) -> dict[str, str]:
    return _unified_attr_schema([(r.label, r.attributes)
                                 for r in ontology.relations])


def _fold_group(df: pd.DataFrame, key_col: str, with_unique: bool):
    """Merge partial rows per key within one bucket; returns
    {key: [uniq_json_or_None, state, n]}.  Only the key, state and count
    ride through the shuffle — label/endpoints are recovered from the key
    (KEY_SEP-joined), keeping exchanged bytes minimal."""
    acc: dict[str, list] = {}
    keys = df[key_col].to_numpy()
    states = df["state_json"].to_numpy()
    counts = df["n_mentions"].to_numpy()
    uniqs = df["unique_json"].to_numpy() if with_unique else None
    for i in range(len(keys)):
        key = keys[i]
        state = json.loads(states[i])
        cur = acc.get(key)
        if cur is None:
            acc[key] = [uniqs[i] if with_unique else None, state,
                        int(counts[i])]
        else:
            _merge_state(cur[1], state)
            cur[2] += int(counts[i])
    return acc


def make_node_finalizer(ontology_json: str):
    """Per-bucket fold → typed node rows.

    Output: ``node_id (uint64), node_key, label, <attr cols typed per
    ontology: string/double/bool>, n_mentions``.  Unique attrs come from
    the identity; non-unique attrs from the LWW state.
    """
    ontology = Ontology.from_json(ontology_json)
    schema = node_attr_schema(ontology)
    attr_names = list(schema)

    def finalize(df: pd.DataFrame) -> pa.Table:
        acc = _fold_group(df, "node_key", with_unique=True)
        keys = sorted(acc)  # deterministic output order within bucket
        data: dict[str, list] = {n: [] for n in attr_names}
        labels, n_mentions, node_ids = [], [], []
        for key in keys:
            uniq_json, state, n = acc[key]
            label = key.split(KEY_SEP, 1)[0]
            uniq = json.loads(uniq_json)
            values = {k: v for k, (_o, v) in state.items()}
            values.update(uniq)  # unique attrs are identity — never overwritten
            for name in attr_names:
                data[name].append(coerce_value(values.get(name), schema[name]))
            labels.append(label)
            n_mentions.append(n)
            node_ids.append(hash64(key))
        arrays = [pa.array(node_ids, pa.uint64()),
                  pa.array(keys, pa.string()),
                  pa.array(labels, pa.string())]
        names = ["node_id", "node_key", "label"]
        for name in attr_names:
            arrays.append(_typed_array(data[name], schema[name]))
            names.append(name)
        arrays.append(pa.array(n_mentions, pa.int64()))
        names.append("n_mentions")
        # explicit Arrow schema: blocks where an attr is all-null must not
        # degrade to a null-typed column (parquet files would disagree)
        return pa.Table.from_arrays(arrays, names=names)

    return finalize


def entity_state_fold(df: pd.DataFrame) -> pa.Table:
    """Per-bucket fold → one mergeable ``NORMALIZED_SCHEMA`` row per
    entity key (the incremental snapshot state)."""
    acc = _fold_group(df, "node_key", with_unique=True)
    keys = sorted(acc)
    return _normalized_table(
        kind=["entity"] * len(keys),
        label=[k.split(KEY_SEP, 1)[0] for k in keys],
        node_key=keys,
        unique_json=[acc[k][0] for k in keys],
        state_json=[json.dumps(acc[k][1]) for k in keys],
        n_mentions=[acc[k][2] for k in keys])


def relation_fold(df: pd.DataFrame) -> pa.Table:
    """Per-bucket fold → one ``NORMALIZED_SCHEMA`` row per edge key.
    Both the build's edge path and the incremental snapshot state run
    it; endpoint ids and typed attrs are attached after the endpoint
    semi-join (:func:`make_edge_typed_builder`)."""
    acc = _fold_group(df, "edge_key", with_unique=False)
    keys = sorted(acc)
    parts = [split_edge_key(k) for k in keys]
    return _normalized_table(
        kind=["relation"] * len(keys),
        label=[p[0] for p in parts],
        state_json=[json.dumps(acc[k][1]) for k in keys],
        src_key=[p[1] for p in parts],
        dst_key=[p[2] for p in parts],
        n_mentions=[acc[k][2] for k in keys])


def _typed_array(values: list, attr_type: str) -> pa.Array:
    if attr_type == "number":
        return pa.array(values, pa.float64())
    if attr_type == "boolean":
        return pa.array(values, pa.bool_())
    return pa.array(values, pa.string())


def make_edge_typed_builder(ontology_json: str):
    """Post-join ``map_batches`` body: folded relation rows (one per edge
    key, :func:`relation_fold`) → typed edge table
    ``edge_id, label, src_id, dst_id, <attr cols>, n_mentions``, where
    ``edge_id`` hashes the composed (label, src, dst) edge key.

    Attributes not declared on any ontology relation are dropped here (the
    Arrow sink is typed; the reference's schemaless DB kept them — see
    docstring deviation note in kgforge/keys.py)."""
    ontology = Ontology.from_json(ontology_json)
    schema = edge_attr_schema(ontology)
    attr_names = list(schema)

    def build(df: pd.DataFrame) -> pa.Table:
        labels = pa.array(df["label"], pa.string())
        edge_keys = compose_edge_key_column(
            labels, pa.array(df["src_key"], pa.string()),
            pa.array(df["dst_key"], pa.string()))
        arrays = [
            pa.array([hash64(k) for k in edge_keys.to_pylist()],
                     pa.uint64()),
            labels,
            pa.array([hash64(k) for k in df["src_key"]], pa.uint64()),
            pa.array([hash64(k) for k in df["dst_key"]], pa.uint64()),
        ]
        names = ["edge_id", "label", "src_id", "dst_id"]
        states = [json.loads(s) for s in df["state_json"]]
        for name in attr_names:
            vals = [coerce_value(st[name][1], schema[name])
                    if name in st else None for st in states]
            arrays.append(_typed_array(vals, schema[name]))
            names.append(name)
        arrays.append(pa.array(df["n_mentions"].tolist(), pa.int64()))
        names.append("n_mentions")
        return pa.Table.from_arrays(arrays, names=names)

    return build
