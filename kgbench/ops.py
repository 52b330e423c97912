"""The benchmark's Ray session, its user-visible ops, and their checks.

Every op calls the library's public KG-construction API the way a user
job would.  Timing covers the op only; output checks, digests and
memory probes run after the clock stops.

Known hazards this file works around without touching the library:

(a) With Ray ``num_cpus=1``, ``kg_update.compact_state`` over a
    normalized Dataset that is not materialized never finishes (both
    fold branches sit ``[backpressured:tasks]``; it finishes at
    ``num_cpus=2`` or with a materialized input).  Every state and delta
    Dataset below is materialized before it reaches ``compact_state``.
    The library's own ``queries._kg_incremental`` still calls it on a
    lazy input; that is a defect to fix in the library, not here.
(b) On the in-memory path ``build_kg``'s ``normalize_sec`` is a copy of
    ``extract_normalize_sec``.  No time is read from ``build_kg``'s
    metrics dict: op times come from the clock here and layer times from
    the tracer's spans and ``Dataset.stats()``.
"""

from __future__ import annotations

import gc
import glob
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import corpora

# AF_UNIX socket paths are limited to 107 bytes and Ray puts its sockets
# at <temp_dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
_RAY_SOCKET_SUFFIX = 66
OBJECT_STORE_BYTES = 512 * 1024 * 1024
N_SHARDS = 4


@dataclass
class OpResult:
    kind: str
    seconds: float
    cpu_s: float = 0.0
    steal_s: float = 0.0
    nodes: int = 0
    edges: int = 0
    peak_mb: float = 0.0
    ok: bool = False
    error: str = ""
    # datasets whose stats() the tracer and the memory probe read
    datasets: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


# Ray gets one CPU whatever the machine's width: the workload sizes assume
# one, and one keeps the figures independent of how many cores other
# tenants of a shared machine leave free
RAY_NUM_CPUS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class RaySession:
    """Starts and stops the benchmark's own Ray session.  Ray's files go
    under ``work_dir`` when the socket paths fit, else under a private
    temporary directory that ``stop`` removes."""

    def __init__(self, work_dir: str, num_cpus: int):
        self.work_dir = work_dir
        self.num_cpus = num_cpus
        self._private_tmp = None

    def start(self) -> None:
        import ray
        from ray.data import DataContext
        temp = os.path.join(self.work_dir, "r")
        if len(temp) + _RAY_SOCKET_SUFFIX > 107:
            self._private_tmp = tempfile.mkdtemp(prefix="kgb")
            temp = self._private_tmp
        os.makedirs(temp, exist_ok=True)
        # Ray runs its workers at nice 15 by default; on a shared machine
        # that lets any other process preempt the op being timed
        os.environ["RAY_worker_niceness"] = "0"
        ray.init(num_cpus=self.num_cpus, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 _temp_dir=temp, object_store_memory=OBJECT_STORE_BYTES)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def stop(self) -> None:
        import ray
        session_dir = None
        if ray.is_initialized():
            try:
                session_dir = (ray._private.worker.global_worker.node
                               .get_session_dir_path())
            except AttributeError:   # private API moved: keep the logs
                pass
            ray.shutdown()
        reap_children()
        if session_dir:   # logs of a finished session: nothing reads them
            shutil.rmtree(session_dir, ignore_errors=True)
        if self._private_tmp:
            shutil.rmtree(self._private_tmp, ignore_errors=True)
            self._private_tmp = None


def _parents() -> dict[int, int]:
    """Every live process id mapped to its parent's."""
    parent = {}
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parent[int(stat.split("/")[2])] = int(fields[1])
    return parent


def _children(pid: int) -> list[int]:
    return [k for k, p in _parents().items() if p == pid]


def reap_children(timeout: float = 10.0) -> None:
    """Wait for every process this one started to end; kill the ones
    still alive after ``timeout`` (a Ray worker stuck in a hung task)."""
    import signal
    deadline = time.time() + timeout
    while True:
        kids = _children(os.getpid())
        if not kids:
            return
        for k in kids:
            try:
                os.waitpid(k, os.WNOHANG)
            except ChildProcessError:
                pass
        if time.time() > deadline:
            for k in kids:
                try:
                    os.kill(k, signal.SIGKILL)
                    os.waitpid(k, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
            return
        time.sleep(0.05)


# -- CPU time -------------------------------------------------------------

def _descendants(root: int) -> list[int]:
    """``root`` and every process below it (the Ray session's GCS, raylet
    and workers are this process's descendants)."""
    parent = _parents()
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(k for k, p in parent.items() if p == pid)
    return out


def tree_cpu_s() -> float:
    """CPU seconds run so far by every thread of this process and its
    descendants, from the scheduler's nanosecond run-time counters.
    Time the hypervisor steals from the machine and time spent waiting
    for a CPU are not in it."""
    total = 0
    for pid in _descendants(os.getpid()):
        for sched in glob.glob(f"/proc/{pid}/task/*/schedstat"):
            try:
                with open(sched) as fh:
                    total += int(fh.read().split()[0])
            except (OSError, ValueError, IndexError):
                continue
    return total / 1e9


def steal_s() -> float:
    """Machine-wide CPU time the hypervisor stole, in seconds."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


# -- memory -------------------------------------------------------------

def reset_rss_peak() -> None:
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def rss_peak_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def operators(ds) -> list:
    """Every operator summary in ``ds``'s executed lineage."""
    out, todo = [], [ds._get_stats_summary()]
    while todo:
        s = todo.pop()
        out.extend((s, o) for o in s.operators_stats)
        todo.extend(s.parents)
    return out


def operator_peak_heap_mb(datasets) -> float:
    peak = 0.0
    for ds in filter(None, datasets):
        for _s, op in operators(ds):
            peak = max(peak, float((op.memory or {}).get("max") or 0.0))
    return peak


# -- output digests -------------------------------------------------------

def arrow_of(ds) -> pa.Table:
    import ray
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tables, promote_options="permissive")


def table_digest(table: pa.Table) -> str:
    """Order-independent digest: row count plus the wrapping sum of the
    per-row hashes over the columns in name order."""
    df = table.select(sorted(table.column_names)).to_pandas()
    row_hashes = pd.util.hash_pandas_object(df, index=False).to_numpy()
    return f"{len(df)}:{int(row_hashes.sum(dtype=np.uint64))}"


def kg_digest(nodes: pa.Table, edges: pa.Table) -> str:
    return f"nodes={table_digest(nodes)};edges={table_digest(edges)}"


def dir_bytes(path: str) -> tuple[int, int]:
    """(bytes, files) under ``path``."""
    total = files = 0
    for dirpath, _dirs, names in os.walk(path):
        for n in names:
            total += os.path.getsize(os.path.join(dirpath, n))
            files += 1
    return total, files


# -- the workload ops ------------------------------------------------------

def oracle_path(in_dir: str, workload: str) -> str:
    """The seed's oracle record; written last when a seed is prepared."""
    return os.path.join(in_dir, f"oracle-{workload}.json")


class Ops:
    """One workload's ops over one seeded input directory.

    ``build`` is an in-memory build; ``persist`` a checkpointed build
    into a fresh output directory; ``resume`` resumes that directory
    after half its mention-shard manifests were invalidated; ``delta``
    folds the delta pages into the base state persisted on disk."""

    def __init__(self, in_dir: str, work_dir: str):
        from kgforge.pipelines.kg_build import KGBuildConfig
        from kgforge.testing.corpus import ONTOLOGY_JSON
        self.in_dir = in_dir
        self.work_dir = work_dir
        self.ontology_json = json.dumps(ONTOLOGY_JSON)
        # four checkpoint shards: with the default sixteen, a build of a
        # few thousand pages writes and re-reads dozens of tiny files, and
        # their per-file latency swamps the timings
        self.cfg = KGBuildConfig(ontology_json=self.ontology_json,
                                 alias_map=corpora.load_aliases(in_dir) or None,
                                 n_shards=N_SHARDS)
        self.out_dir = ""
        self._n_out = 0
        self.state_dir = os.path.join(in_dir, "state")
        self.expected: str | None = None

    def _pages(self, name: str):
        from kgforge.pipelines import kg_build
        return kg_build.read_pages(os.path.join(self.in_dir, name), self.cfg)

    @staticmethod
    def kinds(full: bool) -> list[str]:
        """Op kinds of one cycle; a full cycle adds the checkpointed path
        (``resume`` resumes the output directory of ``persist``)."""
        if full:
            return ["build", "persist", "resume", "delta"]
        return ["build", "delta"]

    # warm-up: the build path on a small slice (imports, worker start)
    def warm_up(self) -> None:
        from kgforge.pipelines import kg_build
        kg_build.build_kg(self._pages("warm"), self.cfg)

    # -- untimed preparation -------------------------------------------
    def base_state(self) -> None:
        """Write the delta op's base state (7/8 of the pages) once per
        input directory."""
        if os.path.exists(os.path.join(self.state_dir, "_COMPLETE")):
            return
        from kgforge.pipelines import kg_build, kg_update
        tmp = f"{self.state_dir}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        # hazard (a): materialize before compact_state
        normalized = kg_build._fused_normalized(self._pages("base"),
                                                self.cfg).materialize()
        state = kg_update.compact_state(normalized, self.cfg).materialize()
        kg_update.write_state(state, tmp)
        with open(os.path.join(tmp, "_COMPLETE"), "w") as fh:
            fh.write("ok")
        os.replace(tmp, self.state_dir)

    def cached_oracle(self, workload: str) -> dict | None:
        """The seed's oracle record, when an earlier run wrote it."""
        path = oracle_path(self.in_dir, workload)
        if not os.path.exists(path):
            return None
        with open(path) as fh:
            rec = json.load(fh)
        self.expected = rec["digest"]
        return rec

    def score(self, workload: str, build: OpResult) -> dict:
        """Score an unchecked full build against ReferenceSim.  When it is
        exact, its digest is the one every later op must match, and the
        record is cached beside the inputs."""
        from kgforge.ontology import Ontology
        from kgforge.testing import refsim
        nodes, edges = build.extra["tables"]
        truth = corpora.load_truth(self.in_dir)
        pages = pq.read_table(os.path.join(self.in_dir, "pages"),
                              columns=["url", "warc_ts", "text"])
        docs = [(ts, url, truth[url]) for ts, url, text in zip(
            pages.column("warc_ts").cast("int64").to_pylist(),
            pages.column("url").to_pylist(),
            pages.column("text").to_pylist()) if text]
        ontology = Ontology.from_json(self.ontology_json)
        sim = refsim.simulate(docs, ontology, self.cfg.alias_map)
        score = refsim.compare(nodes.to_pandas(), edges.to_pandas(), sim,
                               ontology)
        exact = all(score[k] == 1.0 for k in (
            "node_precision", "node_recall", "edge_precision",
            "edge_recall", "attr_agreement"))
        rec = {"digest": kg_digest(nodes, edges), "refsim": score,
               "exact": exact}
        if exact:
            with open(oracle_path(self.in_dir, workload), "w") as fh:
                json.dump(rec, fh)
            self.expected = rec["digest"]
        return rec

    # -- timed ops -------------------------------------------------------
    def run(self, kind: str, check: bool = True) -> OpResult:
        prepare = getattr(self, f"_prepare_{kind}", None)
        if prepare:
            prepare()
        # earlier ops' garbage would otherwise count in this op's peak
        gc.collect()
        reset_rss_peak()
        st0, c0 = steal_s(), tree_cpu_s()
        t0 = time.perf_counter()
        datasets, extra = getattr(self, f"_{kind}")()
        seconds = time.perf_counter() - t0
        c1, st1 = tree_cpu_s(), steal_s()
        res = OpResult(kind, seconds, cpu_s=c1 - c0, steal_s=st1 - st0,
                       datasets=datasets, extra=extra)
        res.peak_mb = max(rss_peak_mb(), operator_peak_heap_mb(datasets))
        nodes, edges = self._tables(datasets)
        res.nodes, res.edges = nodes.num_rows, edges.num_rows
        res.extra["tables"] = (nodes, edges)
        digest = kg_digest(nodes, edges)
        res.ok = (not check) or digest == self.expected
        if not res.ok:
            res.error = f"digest {digest} != expected {self.expected}"
        return res

    def _tables(self, datasets) -> tuple[pa.Table, pa.Table]:
        if datasets[1] is None:   # a checkpointed build: tables on disk
            return (pq.read_table(os.path.join(self.out_dir, "nodes")),
                    pq.read_table(os.path.join(self.out_dir, "edges")))
        return arrow_of(datasets[0]), arrow_of(datasets[1])

    def _fresh_dir(self, name: str) -> str:
        """A new directory per op.  Outputs are deleted only when the run
        ends, so no op's timing includes deleting the previous op's files."""
        self._n_out += 1
        return os.path.join(self.work_dir, f"{name}-{self._n_out}")

    def _build(self):
        from kgforge.pipelines import kg_build
        res = kg_build.build_kg(self._pages("pages"), self.cfg)
        # counts only: no time is read from the metrics dict (hazard b)
        return [res.nodes, res.edges], {
            "mentions": res.metrics.get("mentions", 0)}

    def _prepare_persist(self) -> None:
        self.out_dir = self._fresh_dir("out")

    def _persist(self):
        from kgforge.pipelines import kg_build
        res = kg_build.build_kg(self._pages("pages"), self.cfg,
                                output_dir=self.out_dir)
        # the tables are on disk; they are read after the clock stops
        return [res.nodes, None], {"mentions": res.metrics.get("mentions", 0),
                                   "out_dir": self.out_dir}

    def _prepare_resume(self) -> None:
        """Invalidate the manifests of every second mention shard, as a
        crash half-way through extraction would leave them."""
        for m in glob.glob(os.path.join(self.out_dir, "mentions", "shard=*",
                                        "_manifest.json")):
            shard = int(os.path.basename(os.path.dirname(m)).split("=")[1])
            if shard % 2 == 0:
                os.remove(m)

    def _resume(self):
        from kgforge.pipelines import kg_build
        res = kg_build.build_kg(self._pages("pages"), self.cfg,
                                output_dir=self.out_dir, resume=True)
        return [res.nodes, None], {}

    def _delta(self):
        """Fold the delta pages (1/8) into the base state on disk: read
        the state, normalize the delta, apply it, and materialize the
        tables."""
        from kgforge.pipelines import kg_build, kg_update
        # hazard (a): both inputs of compact_state are materialized
        state = kg_update.read_state(self.state_dir).materialize()
        delta = kg_build._fused_normalized(self._pages("delta"),
                                           self.cfg).materialize()
        nodes, edges, new_state = kg_update.apply_delta(state, delta, self.cfg)
        edges = edges.materialize()
        return [nodes, edges, new_state], {"state": state, "delta": delta}
