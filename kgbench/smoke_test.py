"""Smoke test of the benchmark itself, at tiny corpus sizes.

Run from the repository root::

    python3 -m pytest kgbench/smoke_test.py -q

It runs the benchmark command on every workload, untraced and traced,
and checks that every metric ``BENCHMARK.json`` declares is printed,
that the per-layer counters obey the dataflow's invariants, and that a
planted output mismatch makes the command fail.  One traced run per
workload at its declared corpus size checks which layers dominate it.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PAGES = 400
WORKLOADS = ["zipf_mem", "tail_mem"]


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload: str, trace: int, seed: int = 1,
         pages: int | None = PAGES) -> tuple[int, dict]:
    size = ["--pages", str(pages)] if pages else []
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *size],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


def test_workloads_declared():
    assert sorted(w["name"] for w in _spec()["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    code, out = _run(workload, trace=0)
    assert code == 0 and out["correct"] and out["failed"] == 0
    for m in _spec()["end_to_end"]:
        value = out["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and value["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_invariants(workload):
    code, out = _run(workload, trace=1)
    assert code == 0 and out["correct"]
    declared = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {n: v["unit"] for n, v in out["metrics"].items()} == declared
    m = {n: v["value"] for n, v in out["metrics"].items()}
    assert m["extract.mentions"] >= m["canonicalize.partials"] >= m[
        "kg_build.nodes"] > 0
    assert (m["canonicalize.edges_folded"] - m["joins.dangling_edges"]
            == m["kg_build.edges"])
    assert m["kg_build.exchanges"] >= 2
    assert m["checkpoint.shards_skipped"] + m[
        "checkpoint.shards_recomputed"] > 0
    assert m["checkpoint.files_written"] > 0
    assert m["kg_update.state_rows"] > 0 and m["kg_update.delta_rows"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_profile(workload):
    """The workloads load different layers at their declared sizes: in
    an in-memory build, extraction plus the combiner outweigh the node
    and edge folds on zipf_mem, and the folds outweigh them on
    tail_mem."""
    code, out = _run(workload, trace=1, pages=None)
    assert code == 0 and out["correct"]
    m = {n: v["value"] for n, v in out["metrics"].items()}
    front = m["extract.udf_s"] + m["canonicalize.combine_udf_s"]
    folds = m["canonicalize.node_fold_s"] + m["canonicalize.edge_fold_s"]
    if workload == "zipf_mem":
        assert front > folds, (front, folds)
    else:
        assert folds > front, (front, folds)


def test_planted_mismatch_fails():
    workload = "zipf_mem"
    code, _ = _run(workload, trace=0, seed=2)
    assert code == 0
    records = glob.glob(os.path.join(
        ROOT, ".kgbench", "inputs", f"fixture-v*-n{PAGES}-s2",
        f"oracle-{workload}.json"))
    assert len(records) == 1
    with open(records[0]) as fh:
        rec = json.load(fh)
    rec["digest"] = rec["digest"].replace("nodes=", "nodes=1")
    with open(records[0], "w") as fh:
        json.dump(rec, fh)
    try:
        code, out = _run(workload, trace=0, seed=2)
        assert code != 0
        assert out["correct"] is False and out["failed"] == out["attempted"]
    finally:
        os.remove(records[0])
