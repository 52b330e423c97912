"""Traced runs: spans around the library's public calls, and the
per-layer metrics computed from them.

While a tracer is active, the public functions each op reaches are
wrapped from outside the library.  A wrapper opens a span (name, start,
end, parent, op id) and, when the call returns a lazy Dataset,
materializes it inside the span, so the Ray operators that run belong
to the span that started them.  After the op the tracer reads
``Dataset.stats()`` for every Dataset the spans produced and files each
operator under the span that executed it.  Spans stay in memory until
the run writes its side file.  ``read_pages`` is the one call left
lazy: ``build_kg`` sizes its extraction batches from an untransformed
read, so its read operator runs inside the extraction span.

Layers are the repo's modules: ``kg_build``, ``extract``,
``canonicalize``, ``keys``, ``joins``, ``checkpoint`` (``state.checkpoint``)
and ``kg_update``.  Ray fuses some stages into one operator (the edge
semi-join filter and the typed edge build, and the fused extract +
combiner UDF); their time is split by in-process timings of the same
public functions on a fixed sample (see ``Probes``).
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

import ops as bench_ops

# name, unit; the home op kind whose traced runs give the value (the
# in-memory build, the checkpointed build, its resume, or the delta)
LAYER_METRICS = [
    ("kg_build.read_s", "s", "build"),
    ("kg_build.read_bytes", "bytes", "build"),
    ("kg_build.exchanges", "count", "build"),
    ("kg_build.barriers", "count", "build"),
    ("kg_build.output_write_s", "s", "persist"),
    ("kg_build.output_bytes", "bytes", "persist"),
    ("kg_build.worker_peak_heap_mb", "MiB", "build"),
    ("kg_build.nodes", "count", "build"),
    ("kg_build.edges", "count", "build"),
    ("extract.udf_s", "s", "build"),
    ("extract.us_per_page", "us", "probe"),
    ("extract.pages", "count", "build"),
    ("extract.mentions", "count", "build"),
    ("canonicalize.combine_udf_s", "s", "build"),
    ("canonicalize.us_per_mention", "us", "probe"),
    ("canonicalize.partials", "count", "build"),
    ("canonicalize.combine_ratio", "ratio", "build"),
    ("canonicalize.disk_normalize_udf_s", "s", "persist"),
    ("canonicalize.node_fold_s", "s", "build"),
    ("canonicalize.node_fold_rows_in", "count", "build"),
    ("canonicalize.node_exchange_bytes", "bytes", "build"),
    ("canonicalize.node_max_bucket_rows", "count", "build"),
    ("canonicalize.edge_fold_s", "s", "build"),
    ("canonicalize.edge_fold_rows_in", "count", "build"),
    ("canonicalize.edge_exchange_bytes", "bytes", "build"),
    ("canonicalize.edge_max_bucket_rows", "count", "build"),
    ("canonicalize.edges_folded", "count", "build"),
    ("canonicalize.finalize_udf_s", "s", "build"),
    ("canonicalize.typed_build_s", "s", "build"),
    ("keys.hash64_ns", "ns", "probe"),
    ("joins.semijoin_s", "s", "build"),
    ("joins.keys_broadcast", "count", "build"),
    ("joins.dangling_edges", "count", "build"),
    ("checkpoint.write_s", "s", "persist"),
    ("checkpoint.bytes_written", "bytes", "persist"),
    ("checkpoint.files_written", "count", "persist"),
    ("checkpoint.shards_skipped", "count", "resume"),
    ("checkpoint.shards_recomputed", "count", "resume"),
    ("checkpoint.resume_s", "s", "resume"),
    ("kg_update.compact_s", "s", "delta"),
    ("kg_update.state_rows", "count", "delta"),
    ("kg_update.delta_rows", "count", "delta"),
    ("kg_update.exchanges", "count", "delta"),
    ("trace.overhead_s", "s", "probe"),
]


@dataclass(eq=False)
class Span:
    idx: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op_id: int = 0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Spans and operator stats of the traced ops of one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.op_id = 0
        self._stack: list[int] = []
        self._datasets: list = []     # (span index, Dataset) to read stats from
        self._quiet = 0               # >0 while the tracer itself materializes
        self._patches: list = []

    # -- spans -----------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.spans)
        self.spans.append(Span(idx, name, time.perf_counter(),
                               parent=self._stack[-1] if self._stack else None,
                               op_id=self.op_id, attrs=dict(attrs)))
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def _materialize(self, ds, idx: int):
        from ray.data.dataset import Dataset, MaterializedDataset
        if isinstance(ds, Dataset) and not isinstance(ds, MaterializedDataset):
            self._quiet += 1
            try:
                ds = ds.materialize()
            finally:
                self._quiet -= 1
        if isinstance(ds, Dataset):
            self._datasets.append((idx, ds))
        return ds

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, module, attr: str, span_name: str,
              materialize: bool = True, on_result=None, before=None):
        orig = getattr(module, attr, None)
        if orig is None:
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            with tracer.span(span_name) as sp:
                if before:
                    args = before(args)
                out = orig(*args, **kwargs)
                if materialize:
                    out = tracer._materialize(out, sp.idx)
                if on_result:
                    on_result(sp, out)
            return out

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def install(self) -> None:
        from ray.data import Dataset

        from kgforge.pipelines import kg_build, kg_update
        from kgforge.state import checkpoint

        w = self._wrap
        w(kg_build, "read_pages", "kg_build.read_pages", materialize=False)
        w(kg_build, "_fused_normalized", "canonicalize.fused_extract_normalize")
        w(kg_build, "extract_mentions", "extract.extract_mentions")
        w(kg_build, "_normalized", "canonicalize.normalize_mentions")
        for mod in (kg_build, kg_update):
            w(mod, "build_nodes", "canonicalize.build_nodes")
            w(mod, "build_edges", "canonicalize.build_edges")
        w(kg_build, "collect_key_set", "joins.collect_key_set",
          materialize=False,
          on_result=lambda sp, out: sp.attrs.update(keys=len(out)))

        def fold_edges_first(args):
            # the folded edges become their own span, so the edge fold is
            # timed apart from the semi-join filter and typed build
            with self.span("canonicalize.edge_fold") as inner:
                folded = self._materialize(args[0], inner.idx)
                inner.attrs["rows"] = folded.count()
            return (folded,) + tuple(args[1:])

        w(kg_build, "filter_keys_in_broadcast", "joins.filter_keys",
          materialize=False, before=fold_edges_first)
        w(kg_build, "semi_join_keys", "joins.semi_join_keys")
        w(kg_update, "compact_state", "kg_update.compact_state")
        w(kg_update, "apply_delta", "kg_update.apply_delta", materialize=False)
        w(kg_update, "read_state", "kg_update.read_state")
        w(kg_update, "write_state", "kg_update.write_state", materialize=False)
        w(checkpoint, "completed_shards", "checkpoint.completed_shards",
          materialize=False,
          on_result=lambda sp, out: sp.attrs.update(done=len(out)))
        w(checkpoint, "write_shard_manifest", "checkpoint.write_shard_manifest",
          materialize=False)
        w(checkpoint, "clear_incomplete_shards",
          "checkpoint.clear_incomplete_shards", materialize=False)

        tracer = self
        orig_write = Dataset.write_parquet
        orig_mat = Dataset.materialize

        def write_parquet(ds, path, *args, **kwargs):
            if not tracer.active:
                return orig_write(ds, path, *args, **kwargs)
            with tracer.span("write_parquet", table=os.path.basename(
                    str(path).rstrip("/"))) as sp:
                tracer._quiet += 1
                try:
                    out = orig_write(ds, path, *args, **kwargs)
                finally:
                    tracer._quiet -= 1
                if getattr(ds, "_write_ds", None) is not None:
                    tracer._datasets.append((sp.idx, ds._write_ds))
            return out

        def materialize(ds, *args, **kwargs):
            if tracer.active and not tracer._quiet:
                with tracer.span("barrier") as sp:
                    out = orig_mat(ds, *args, **kwargs)
                    tracer._datasets.append((sp.idx, out))
                    return out
            return orig_mat(ds, *args, **kwargs)

        Dataset.write_parquet = write_parquet
        Dataset.materialize = materialize
        self._patches += [(Dataset, "write_parquet", orig_write),
                          (Dataset, "materialize", orig_mat)]

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    # -- per-op analysis -------------------------------------------------
    def begin_op(self, kind: str) -> None:
        self.op_id += 1
        self._datasets.clear()
        self.active = True
        self._root = self.span(f"op.{kind}")
        self._root_span = self._root.__enter__()

    def end_op(self) -> None:
        self._root.__exit__(None, None, None)
        self.active = False

    def op_operators(self, extra_datasets=()) -> list[dict]:
        """Operators that ran during the current op.  Datasets are
        registered in the order they executed, so an operator belongs to
        the span of the first registered Dataset whose lineage holds it
        (later Datasets repeat their parents' operators)."""
        root = self._root_span
        seen, rows = set(), []
        sources = list(self._datasets) + [(root.idx, d) for d in extra_datasets
                                          if d is not None]
        # hold every summary until the loop ends: the exchange count keys
        # on id(summary), which a freed summary could hand to the next
        harvested = [(home, bench_ops.operators(ds)) for home, ds in sources]
        for home, ops_of_ds in harvested:
            for summary, op in ops_of_ds:
                start = float(op.earliest_start_time or 0.0)
                key = (op.operator_name, start, float(op.latest_end_time or 0))
                # operators of earlier ops (a reused state Dataset) stay out
                if key in seen or start < root.start:
                    continue
                seen.add(key)
                rows.append({
                    "name": op.operator_name,
                    "span": self.spans[home].name,
                    "span_idx": home,
                    "exchange": bool(op.is_sub_operator),
                    "dataset": id(summary),
                    "start": start,
                    "wall_s": float((op.wall_time or {}).get("sum") or 0.0),
                    "udf_s": float((op.udf_time or {}).get("sum") or 0.0),
                    "rows": int((op.output_num_rows or {}).get("sum") or 0),
                    "bytes": int((op.output_size_bytes or {}).get("sum") or 0),
                    "heap_mb": float((op.memory or {}).get("max") or 0.0),
                })
        return rows

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the part its children cover."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = (child_time.get(s.parent, 0.0)
                                        + s.end - s.start)
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            out[s.name] = (out.get(s.name, 0.0)
                           + (s.end - s.start) - child_time.get(i, 0.0))
        return out


def _sum(rows, key, pred) -> float:
    return sum(r[key] for r in rows if pred(r))


def _in_span(name):
    return lambda r: r["span"] == name


def _exchange_stats(rows, span: str) -> tuple[int, int]:
    """(rows, bytes) into the exchange run inside ``span``: the output of
    its map side, which is the first sub-operator to start."""
    subs = sorted((r for r in rows if r["span"] == span and r["exchange"]),
                  key=lambda r: r["start"])
    return (subs[0]["rows"], subs[0]["bytes"]) if subs else (0, 0)


def _last_plain(rows, span: str) -> dict:
    """The last operator to start in ``span`` that is not part of an
    exchange: the stage the span's call adds on top of its inputs."""
    plain = sorted((r for r in rows if r["span"] == span and not r["exchange"]),
                   key=lambda r: r["start"])
    return plain[-1] if plain else {}


def _max_bucket(keys: list[str], n_buckets: int) -> int:
    from kgforge.stages.canonicalize import add_bucket
    if not keys:
        return 0
    b = add_bucket(pa.table({"k": keys}), "k", n_buckets).column("bucket")
    return int(np.bincount(b.to_numpy()).max())


def op_layers(tracer: Tracer, res, probes: "Probes", cfg) -> dict:
    """Per-layer values of one traced op."""
    rows = tracer.op_operators(res.datasets)
    spans = [s for s in tracer.spans if s.op_id == tracer.op_id]
    out: dict[str, float] = {}
    # exchanges: one per all-to-all dataset (its operators are sub-operators)
    exchanges = len({r["dataset"] for r in rows if r["exchange"]})
    if res.kind == "delta":
        out["kg_update.compact_s"] = sum(
            s.end - s.start for s in spans if s.name == "kg_update.compact_state")
        out["kg_update.state_rows"] = res.extra["state"].count()
        out["kg_update.delta_rows"] = res.extra["delta"].count()
        out["kg_update.exchanges"] = exchanges
        return out
    if res.kind == "resume":
        done = [s.attrs.get("done", 0) for s in spans
                if s.name == "checkpoint.completed_shards"]
        out["checkpoint.shards_skipped"] = done[-1] if done else 0
        out["checkpoint.shards_recomputed"] = cfg.n_shards - out[
            "checkpoint.shards_skipped"]
        out["checkpoint.resume_s"] = res.seconds
        return out

    fused, extract = ("canonicalize.fused_extract_normalize",
                      "extract.extract_mentions")

    def read(r):
        return r["name"].startswith("ReadParquet") and r["span"] in (fused,
                                                                     extract)

    out["kg_build.read_s"] = _sum(rows, "wall_s", read)
    out["kg_build.read_bytes"] = _sum(rows, "bytes", read)
    out["kg_build.exchanges"] = exchanges
    out["kg_build.barriers"] = sum(1 for s in spans if s.name == "barrier")
    out["kg_build.worker_peak_heap_mb"] = max(
        [r["heap_mb"] for r in rows] or [0.0])
    out["kg_build.nodes"], out["kg_build.edges"] = res.nodes, res.edges
    out["extract.pages"] = _sum(rows, "rows", read)

    fused_udf = _sum(rows, "udf_s", _in_span(fused))
    share = probes.extract_share
    disk_norm = _sum(rows, "udf_s", _in_span("canonicalize.normalize_mentions"))
    out["extract.udf_s"] = fused_udf * share + _sum(rows, "udf_s",
                                                    _in_span(extract))
    out["canonicalize.combine_udf_s"] = fused_udf * (1.0 - share)
    out["canonicalize.disk_normalize_udf_s"] = disk_norm
    out["canonicalize.partials"] = sum(
        _last_plain(rows, s).get("rows", 0)
        for s in (fused, "canonicalize.normalize_mentions"))
    mentions = res.extra.get("mentions") or 0
    out["extract.mentions"] = mentions
    out["canonicalize.combine_ratio"] = (out["canonicalize.partials"]
                                         / mentions if mentions else 0.0)

    node_span, edge_span = "canonicalize.build_nodes", "canonicalize.edge_fold"
    out["canonicalize.node_fold_s"] = _sum(rows, "wall_s", _in_span(node_span))
    out["canonicalize.edge_fold_s"] = _sum(rows, "wall_s", _in_span(edge_span))
    (out["canonicalize.node_fold_rows_in"],
     out["canonicalize.node_exchange_bytes"]) = _exchange_stats(rows, node_span)
    (out["canonicalize.edge_fold_rows_in"],
     out["canonicalize.edge_exchange_bytes"]) = _exchange_stats(rows, edge_span)
    folded = sum(s.attrs.get("rows", 0) for s in spans if s.name == edge_span)
    out["canonicalize.edges_folded"] = folded
    out["joins.dangling_edges"] = folded - res.edges

    # the filter and the typed build run fused in one operator after the
    # edge fold; split it by the in-process build time per edge
    tail_udf = _sum(rows, "udf_s", _in_span("canonicalize.build_edges"))
    typed = min(tail_udf, probes.build_s_per_edge * res.edges)
    out["canonicalize.typed_build_s"] = typed
    out["canonicalize.finalize_udf_s"] = sum(
        _last_plain(rows, s).get("udf_s", 0.0) for s in (node_span, edge_span))
    collect = [s for s in spans if s.name == "joins.collect_key_set"]
    out["joins.semijoin_s"] = (sum(s.end - s.start for s in collect)
                               + tail_udf - typed)
    out["joins.keys_broadcast"] = sum(s.attrs.get("keys", 0) for s in collect)

    nodes, edges = res.extra["tables"]
    node_keys = nodes.column("node_key").to_pylist()
    out["canonicalize.node_max_bucket_rows"] = _max_bucket(node_keys,
                                                           cfg.n_buckets)
    out["canonicalize.edge_max_bucket_rows"] = _max_bucket(
        probes.edge_keys(nodes, edges), cfg.n_buckets)

    idx = {s.idx for s in spans if s.name == "write_parquet"}
    by_table = {}
    for r in rows:
        if r["span_idx"] in idx:
            t = tracer.spans[r["span_idx"]].attrs.get("table")
            by_table[t] = by_table.get(t, 0.0) + r["wall_s"] - r["udf_s"]
    out["kg_build.output_write_s"] = by_table.get("nodes", 0.0) + by_table.get(
        "edges", 0.0)
    out["checkpoint.write_s"] = by_table.get("mentions", 0.0) + sum(
        s.end - s.start for s in spans
        if s.name == "checkpoint.write_shard_manifest")
    out_dir = res.extra.get("out_dir")
    if out_dir:
        nb, _ = bench_ops.dir_bytes(os.path.join(out_dir, "nodes"))
        eb, _ = bench_ops.dir_bytes(os.path.join(out_dir, "edges"))
        out["kg_build.output_bytes"] = nb + eb
        (out["checkpoint.bytes_written"],
         out["checkpoint.files_written"]) = bench_ops.dir_bytes(
            os.path.join(out_dir, "mentions"))
    return out


class Probes:
    """In-process timings of the library's public functions on a fixed
    sample: the first pages of the corpus and the keys of a build."""

    SAMPLE_PAGES = 600
    HASH_KEYS = 200_000

    def __init__(self, in_dir: str, cfg):
        import pyarrow.parquet as pq
        pages = pq.read_table(os.path.join(in_dir, "pages"),
                              columns=["url", "warc_ts", "text"])
        self.sample = pages.slice(0, self.SAMPLE_PAGES)
        self.cfg = cfg
        self.extract_share = 0.5
        self.build_s_per_edge = 0.0
        self.values: dict[str, float] = {}

    @staticmethod
    def _best(fn, reps: int = 3) -> float:
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    def run(self, nodes: pa.Table, edges: pa.Table) -> None:
        import pandas as pd

        from kgforge.stages.canonicalize import (FusedExtractNormalize,
                                                 add_bucket,
                                                 make_edge_typed_builder)
        from kgforge.stages.extract import RuleBasedExtractor
        texts = [t for t in self.sample.column("text").to_pylist() if t]
        ex = RuleBasedExtractor()
        t_extract = self._best(lambda: [ex.extract(t) for t in texts])
        mentions = sum(len(p["entities"]) + len(p["relations"])
                       for p in (ex.extract(t) for t in texts))
        fused = FusedExtractNormalize(self.cfg.ontology_json,
                                      self.cfg.alias_map)
        t_fused = self._best(lambda: fused(self.sample))
        self.extract_share = min(1.0, t_extract / t_fused)
        self.values["extract.us_per_page"] = t_extract / len(texts) * 1e6
        self.values["canonicalize.us_per_mention"] = (
            max(0.0, t_fused - t_extract) / max(1, mentions) * 1e6)

        keys = nodes.column("node_key").to_pylist()
        reps = -(-self.HASH_KEYS // max(1, len(keys)))
        sample = pa.table({"k": (keys * reps)[: self.HASH_KEYS]})
        t_hash = self._best(lambda: add_bucket(sample, "k",
                                               self.cfg.n_buckets))
        self.values["keys.hash64_ns"] = t_hash / sample.num_rows * 1e9

        folded = self._folded_sample(nodes, edges)
        build = make_edge_typed_builder(self.cfg.ontology_json)
        t_build = self._best(lambda: build(pd.DataFrame(folded)))
        self.build_s_per_edge = t_build / max(1, len(folded["edge_key"]))

    def edge_keys(self, nodes: pa.Table, edges: pa.Table) -> list[str]:
        from kgforge.keys import compose_edge_key_column
        id_to_key = dict(zip(nodes.column("node_id").to_pylist(),
                             nodes.column("node_key").to_pylist()))
        src = pa.array([id_to_key[i] for i in edges.column("src_id").to_pylist()])
        dst = pa.array([id_to_key[i] for i in edges.column("dst_id").to_pylist()])
        return compose_edge_key_column(edges.column("label"), src,
                                       dst).to_pylist()

    def _folded_sample(self, nodes: pa.Table, edges: pa.Table,
                       n: int = 4000) -> dict:
        """Folded-edge rows in the typed builder's input shape, rebuilt
        from a slice of the output edges."""
        import json
        head = edges.slice(0, n)
        keys = self.edge_keys(nodes, head)
        attrs = [c for c in head.column_names if c not in (
            "edge_id", "label", "src_id", "dst_id", "n_mentions")]
        cols = {c: head.column(c).to_pylist() for c in attrs}
        states = [json.dumps({c: [[0, 0, 0], cols[c][i]] for c in attrs
                              if cols[c][i] is not None})
                  for i in range(head.num_rows)]
        from kgforge.keys import split_edge_key
        parts = [split_edge_key(k) for k in keys]
        return {"edge_key": keys, "label": [p[0] for p in parts],
                "src_key": [p[1] for p in parts],
                "dst_key": [p[2] for p in parts], "state_json": states,
                "n_mentions": head.column("n_mentions").to_pylist()}


def summarize(per_op: list[tuple[str, dict]], probes: Probes,
              overhead_s: float) -> dict[str, float]:
    """Median of each metric over the traced ops of its home kind."""
    out = {}
    for name, _unit, home in LAYER_METRICS:
        if home == "probe":
            continue
        vals = [v[name] for kind, v in per_op if kind == home and name in v]
        out[name] = float(statistics.median(vals)) if vals else 0.0
    out.update(probes.values)
    out["trace.overhead_s"] = overhead_s
    return out
