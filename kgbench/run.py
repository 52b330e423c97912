"""kgforge benchmark: seeded KG-construction workloads, end to end and
layer by layer.

Usage (from the repository root)::

    python3 kgbench/run.py --workload zipf_mem --seed 1 --seconds 20 --trace 0

One closed loop: this process (Ray's driver) runs one op at a time
against the public KG-construction API (``kgforge.pipelines.kg_build`` /
``kg_update``), with Ray on one CPU (``ops.RAY_NUM_CPUS``).  The two
workloads run the same ops over corpora that load different layers:

- ``zipf_mem``: the fixture crawl corpus (Zipf head entities, alias
  forms).  The combiner folds most mentions away, so extraction and the
  per-batch combiner dominate a build; the folds stay small.
- ``tail_mem``: a long-tail corpus where nearly every name is unique.
  The combiner removes almost nothing, so the node/edge folds, hashing
  and the endpoint semi-join dominate a build.

Timed cycles alternate an in-memory ``build`` and a ``delta`` that folds
1/8 of the pages into the persisted state of the other 7/8 and must
reproduce the full build exactly.  Every run starts with one warm cycle
(checked, not timed), then runs timed cycles until ``--seconds`` have
passed, ending on a whole cycle.  In a traced run the warm cycle and
every traced cycle are full cycles: they add the checkpointed path, a
``persist`` build into a fresh output directory and a ``resume`` of it
after half its mention-shard manifests were invalidated.

Op costs are CPU seconds: every thread of this process and of the Ray
session's processes, read from the scheduler's run-time counters
(``ops.tree_cpu_s``).  On a shared virtual machine the wall time of the
same op moved by up to a quarter between runs as other tenants came and
went; CPU time excludes the time the hypervisor stole and the time spent
waiting for a CPU, and moved less (README.md has the figures).  Wall
times are still measured and printed on the context line.

Outputs are checked: once per seed a child process (``--prepare``)
makes the inputs and the delta's base state, scores one build against
ReferenceSim (precision, recall and attribute agreement must all be
1.0) and records its node/edge digest; every op of a run must reproduce
that digest.  An op that raises, times out or mismatches is failed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same loop with every second timed cycle traced (``tracing.py``) and prints the
per-layer metrics, including the traced-minus-untraced build time as
``trace.overhead_s``.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
names the workload and carries the run's context.  Ops, spans and the
per-layer table go to ``.kgbench/results/`` beside the inputs cache.
The exit code is 0 only when every op passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".kgbench")


# workload name -> (input generator, pages)
WORKLOADS = {
    "zipf_mem": ("fixture", 8000),
    "tail_mem": ("tail", 2400),
}

END_TO_END = [("setup_s", "s"), ("build_cpu_s", "s"),
              ("triples_per_cpu_s", "1/s"), ("delta_cpu_s", "s"),
              ("peak_mem_mb", "MiB")]
SETUP_REPS = 3          # Ray start + warm-up, repeated; setup_s is the median
MIN_CYCLES = 2
OP_TIMEOUT_S = 60.0
DEADLINE_S = 170.0      # the whole run, set-up and input generation included
PREPARE_DEADLINE_S = 90.0


class OpTimeout(Exception):
    pass


def _abort(session, reason: str) -> None:
    """Last resort for a hung run: stop every child process and exit
    without a result line."""
    print(f"kgbench: {reason}", file=sys.stderr, flush=True)
    from ops import reap_children
    reap_children(timeout=0.0)
    if session is not None and session._private_tmp:
        shutil.rmtree(session._private_tmp, ignore_errors=True)
    os._exit(3)


def timed_op(ops_, kind: str, tracer=None):
    """Run one op in a worker thread so a hung op cannot hang the run."""
    box: dict = {}

    def target():
        try:
            if tracer:
                tracer.begin_op(kind)
            try:
                box["res"] = ops_.run(kind)
            finally:
                if tracer:
                    tracer.end_op()
        except Exception:  # noqa: BLE001 — a failed op is counted, not fatal
            box["error"] = traceback.format_exc()

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(OP_TIMEOUT_S)
    if th.is_alive():
        raise OpTimeout(f"{kind} op exceeded {OP_TIMEOUT_S:.0f} s")
    if "error" in box:
        from ops import OpResult
        print(f"kgbench: {kind} op failed:\n{box['error']}", file=sys.stderr)
        return OpResult(kind, 0.0, error=box["error"].strip().splitlines()[-1])
    return box["res"]


def run_loop(ops_, seconds: float, tracer=None, probes=None) -> tuple:
    """One warm cycle of every op kind (checked, not timed: the first
    full-size ops after set-up run measurably slower), then whole cycles
    until ``seconds`` pass.  With a tracer every second timed cycle is
    traced and yields layer values."""
    import tracing
    records, layers = [], []

    def cycle(label: str, traced: bool) -> None:
        for kind in ops_.kinds(full=tracer is not None and label != "timed"):
            res = timed_op(ops_, kind, tracer if traced else None)
            if not res.ok:
                print(f"kgbench: {kind} op failed its check: {res.error}",
                      file=sys.stderr)
            elif traced:
                nodes, edges = res.extra["tables"]
                if kind == "build" and not probes.values:
                    probes.run(nodes, edges)
                layers.append((kind, tracing.op_layers(
                    tracer, res, probes, ops_.cfg)))
            records.append({"kind": kind, "cycle": label,
                            "seconds": res.seconds, "cpu_s": res.cpu_s,
                            "steal_s": res.steal_s, "nodes": res.nodes,
                            "edges": res.edges, "peak_mb": res.peak_mb,
                            "ok": res.ok, "error": res.error})

    cycle("warm", traced=False)
    t0 = time.perf_counter()
    n = 0
    while n < MIN_CYCLES or time.perf_counter() - t0 < seconds:
        traced = tracer is not None and n % 2 == 1
        cycle("traced" if traced else "timed", traced)
        n += 1
    return records, layers


def prepare(workload: str, in_dir: str, generator: str, pages: int,
            seed: int) -> int:
    """Make and cache the seed's inputs, the delta op's base state and
    its oracle record: a build scored against ReferenceSim, whose digest
    every op must then reproduce.  ``main`` runs this in a child process
    (``--prepare``), so the memory this work leaves behind never counts
    in the measuring process, whether or not the seed was cached."""
    import corpora
    import ops
    session = None
    watchdog = threading.Timer(PREPARE_DEADLINE_S, lambda: _abort(
        session, f"preparation exceeded {PREPARE_DEADLINE_S:.0f} s"))
    watchdog.daemon = True
    watchdog.start()
    corpora.input_dir(os.path.dirname(in_dir), generator, pages, seed)
    run_dir = os.path.join(WORK, "runs", f"prepare-{os.getpid()}")
    ops_ = ops.Ops(in_dir, run_dir)
    session = ops.RaySession(WORK, ops.RAY_NUM_CPUS)
    try:
        session.start()
        ops_.base_state()
        if ops_.cached_oracle(workload) is None:
            rec = ops_.score(workload, ops_.run("build", check=False))
            if not rec["exact"]:
                print(f"kgbench: engine output differs from ReferenceSim: "
                      f"{rec['refsim']}", file=sys.stderr)
                return 1
    finally:
        session.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
        watchdog.cancel()
    return 0


def _prepare_in_child(args, in_dir: str) -> str:
    """Prepare the seed unless an earlier run did; the error, if any."""
    import ops
    if os.path.exists(ops.oracle_path(in_dir, args.workload)):
        return ""
    cmd = [sys.executable, os.path.abspath(__file__), "--prepare",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    if args.pages:
        cmd += ["--pages", str(args.pages)]
    # the child's stdout goes to stderr: stdout carries only the result
    code = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          timeout=PREPARE_DEADLINE_S + 15).returncode
    return f"preparing the inputs failed (exit {code})" if code else ""


def _median(records, kind, key="seconds", cycle="timed") -> float:
    vals = [r[key] if isinstance(key, str) else key(r) for r in records
            if r["kind"] == kind and r["ok"] and r.get("cycle") == cycle]
    return float(statistics.median(vals)) if vals else 0.0


def end_to_end(records, setup_times) -> dict[str, float]:
    kinds = {r["kind"] for r in records}
    return {
        "setup_s": statistics.median(setup_times),
        "build_cpu_s": _median(records, "build", "cpu_s"),
        "triples_per_cpu_s": _median(
            records, "build", key=lambda r: (r["nodes"] + r["edges"])
            / r["cpu_s"]),
        "delta_cpu_s": _median(records, "delta", "cpu_s"),
        "peak_mem_mb": max(_median(records, k, "peak_mb") for k in kinds),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pages", type=int, default=None,
                    help="override the workload's corpus size (smoke tests)")
    ap.add_argument("--prepare", action="store_true",
                    help="only make and cache the seed's inputs, base state "
                         "and oracle record (a run does this itself)")
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    # Ray workers import kgforge from the same checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    try:
        import kgforge  # noqa: F401
    except ImportError as exc:
        print(f"kgbench: cannot import kgforge from {ROOT}: {exc}",
              file=sys.stderr)
        return 2
    import corpora
    import ops
    import tracing
    from bench import _calibration_sec

    generator, pages = WORKLOADS[args.workload]
    pages = args.pages or pages
    in_dir = corpora.input_path(os.path.join(WORK, "inputs"), generator,
                                pages, args.seed)
    if args.prepare:
        return prepare(args.workload, in_dir, generator, pages, args.seed)

    session = None
    watchdog = threading.Timer(DEADLINE_S, lambda: _abort(
        session, f"run exceeded {DEADLINE_S:.0f} s"))
    watchdog.daemon = True
    watchdog.start()

    # wall time of each phase of the run, for the side file
    phases: dict[str, float] = {}
    mark = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    run_dir = os.path.join(WORK, "runs", f"{args.workload}-{os.getpid()}")
    session = ops.RaySession(WORK, ops.RAY_NUM_CPUS)
    tracer = probes = None
    oracle: dict = {}
    setup_times: list[float] = []
    records: list = []
    layers: list = []
    error = _prepare_in_child(args, in_dir)
    phase("prepare")
    if error:
        print(f"kgbench: {error}", file=sys.stderr)
        records.append({"kind": "prepare", "ok": False, "error": error})
    else:
        os.makedirs(run_dir, exist_ok=True)
        ops_ = ops.Ops(in_dir, run_dir)
        oracle = ops_.cached_oracle(args.workload)
        try:
            for i in range(SETUP_REPS):
                t0 = time.perf_counter()
                session.start()
                ops_.warm_up()
                setup_times.append(time.perf_counter() - t0)
                if i < SETUP_REPS - 1:
                    session.stop()
            phase("setup")
            if args.trace:
                tracer = tracing.Tracer()
                tracer.install()
                probes = tracing.Probes(in_dir, ops_.cfg)
            records, layers = run_loop(ops_, args.seconds, tracer, probes)
            phase("loop")
        except OpTimeout as exc:
            _report_timeout(session, records, str(exc))
        finally:
            if tracer:
                tracer.uninstall()
            session.stop()
            shutil.rmtree(run_dir, ignore_errors=True)
            phase("teardown")
    watchdog.cancel()

    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    e2e = end_to_end(records, setup_times) if failed < attempted else {}
    if args.trace:
        overhead = (_median(records, "build", cycle="traced")
                    - _median(records, "build"))
        values = tracing.summarize(layers, probes, overhead) if layers else {}
        declared = [(n, u) for n, u, _h in tracing.LAYER_METRICS]
    else:
        values = e2e
        declared = END_TO_END
    metrics = {n: {"value": values.get(n, 0.0), "unit": u} for n, u in declared}

    import pyarrow
    import ray
    context = {"nproc": ops.nproc(), "ray_num_cpus": session.num_cpus,
               "ray": ray.__version__, "pyarrow": pyarrow.__version__,
               "python": platform.python_version(),
               "calib_sec": _calibration_sec()}
    side = os.path.join(WORK, "results",
                        f"{args.workload}-n{pages}-s{args.seed}"
                        f"-t{args.trace}.json")
    os.makedirs(os.path.dirname(side), exist_ok=True)
    with open(side, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "context": context, "phases_s": phases,
                   "setup_s": setup_times,
                   "end_to_end": e2e, "refsim": oracle.get("refsim"),
                   "ops": records, "per_layer": values,
                   "layers_per_op": layers,
                   "self_times": tracer.self_times() if tracer else {},
                   "spans": [vars(s) for s in tracer.spans] if tracer else []},
                  fh, indent=1, default=str)
    # Not declared: wall times follow the shared host's load (a run's
    # median moved by a quarter when other tenants took the CPU), and the
    # checkpointed path runs in traced runs only, where persist_s and
    # resume_s are its untraced warm-cycle ops, one sample each.
    extra = {n: {"value": v, "unit": u} for n, v, u in (
        ("build_s", _median(records, "build"), "s"),
        ("triples_per_s", _median(records, "build", key=lambda r: (
            r["nodes"] + r["edges"]) / r["seconds"]), "1/s"),
        ("delta_s", _median(records, "delta"), "s"),
        ("persist_s", _median(records, "persist", cycle="warm"), "s"),
        ("resume_s", _median(records, "resume", cycle="warm"), "s"),
        ("fail_frac", failed / max(1, attempted), "ratio"))}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "extra": extra,
                      "context": context,
                      "side_file": os.path.relpath(side, ROOT)}))
    # records is never empty: it holds the warm cycle's first op or the
    # failed preparation
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def _report_timeout(session, records, reason: str) -> None:
    """A hung op: count it as failed, print the result, stop everything."""
    records.append({"kind": "timeout", "ok": False})
    failed = sum(1 for r in records if not r["ok"])
    print(json.dumps({"correct": False, "attempted": len(records),
                      "failed": failed, "metrics": {}}), flush=True)
    _abort(session, reason)


if __name__ == "__main__":
    sys.exit(main())
