"""Checkpoint/resume: a rerun skips manifested shards and produces
byte-identical final tables (BASELINE.md resumability criterion)."""

import json
import os

import ray

from kgforge.pipelines.kg_build import KGBuildConfig, build_kg
from kgforge.state import checkpoint as ckpt
from kgforge.testing.corpus import ONTOLOGY_JSON, write_corpus


def _cfg(corpus):
    return KGBuildConfig(ontology_json=json.dumps(ONTOLOGY_JSON),
                         alias_map=corpus.alias_map,
                         extract_concurrency=2, n_buckets=4, n_shards=4)


def _hashes(out):
    import duckdb
    con = duckdb.connect()
    n = con.execute(f"SELECT * FROM read_parquet('{out}/nodes/*.parquet') "
                    "ORDER BY node_key").fetchall()
    e = con.execute(f"SELECT * FROM read_parquet('{out}/edges/*.parquet') "
                    "ORDER BY edge_id, src_id, dst_id").fetchall()
    return n, e


def test_resume_skips_and_matches(tmp_path):
    corpus = write_corpus(str(tmp_path / "corpus"), n_pages=120, seed=9,
                          n_files=4)
    pages = ray.data.read_parquet(str(tmp_path / "corpus" / "pages"))
    out = str(tmp_path / "out")

    res1 = build_kg(pages, _cfg(corpus), output_dir=out)
    assert res1.metrics["resume_recomputed_shards"] == [0, 1, 2, 3]
    nodes1, edges1 = _hashes(out)
    assert len(nodes1) == res1.metrics["nodes"]

    # crash simulation: one shard incomplete
    os.remove(os.path.join(out, "mentions", "shard=2", "_manifest.json"))
    res2 = build_kg(pages, _cfg(corpus), output_dir=out, resume=True)
    assert res2.metrics["resume_skipped_shards"] == [0, 1, 3]
    assert res2.metrics["resume_recomputed_shards"] == [2]
    assert _hashes(out) == (nodes1, edges1)

    # fully complete: nothing recomputed, tables still identical
    res3 = build_kg(pages, _cfg(corpus), output_dir=out, resume=True)
    assert res3.metrics["resume_recomputed_shards"] == []
    assert _hashes(out) == (nodes1, edges1)


def test_shard_assignment_pinned():
    """The url→shard mapping is a persisted layout contract: pin golden
    assignments for the current shard fn so an accidental hash change
    (e.g. a pandas upgrade altering hash_array) fails loudly — the
    correct response is minting a new SHARD_FN version, not silently
    repartitioning existing checkpoints."""
    import pyarrow as pa
    from kgforge.pipelines.kg_build import (SHARD_FN, SHARD_FN_LEGACY,
                                            _url_shards)
    urls = pa.array([f"https://site{i}.example/p/{i * 37}"
                     for i in range(12)])
    got = _url_shards(urls, 16, SHARD_FN).to_pylist()
    assert got == [14, 8, 15, 2, 6, 13, 6, 14, 11, 3, 1, 9]
    legacy = _url_shards(urls, 16, SHARD_FN_LEGACY).to_pylist()
    assert legacy == [1, 11, 6, 2, 1, 12, 7, 4, 11, 13, 9, 15]


def test_resume_adopts_legacy_shard_fn(tmp_path):
    """A checkpoint written by the pre-versioned (blake2b) layout must
    resume with that SAME mapping: recomputed shards are filtered and
    re-partitioned with the recorded fn, so final tables stay
    byte-identical and skipped shards are never misrouted."""
    from kgforge.pipelines.kg_build import SHARD_FN_LEGACY
    corpus = write_corpus(str(tmp_path / "corpus"), n_pages=120, seed=5,
                          n_files=4)
    pages = ray.data.read_parquet(str(tmp_path / "corpus" / "pages"))
    out = str(tmp_path / "out")
    res1 = build_kg(pages, _cfg(corpus), output_dir=out)
    assert res1.metrics["shard_fn"] == "pdhash64"
    nodes1, edges1 = _hashes(out)

    # rewrite every manifest as a legacy one (no shard_fn key) and
    # re-partition the mention parquet with the legacy mapping, as an
    # old run would have left it
    mdir = os.path.join(out, "mentions")
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq
    from kgforge.keys import hash64
    tbl = duckdb.sql(
        f"SELECT * FROM read_parquet('{mdir}/shard=*/*.parquet', "
        "hive_partitioning=0) ").arrow()
    import shutil
    shutil.rmtree(mdir)
    shards = [hash64(u) % 4 for u in tbl.column("url").to_pylist()]
    tbl = tbl.append_column("shard", pa.array(shards, pa.int64()))
    for s in range(4):
        d = os.path.join(mdir, f"shard={s}")
        os.makedirs(d)
        pq.write_table(tbl.filter(pa.array([x == s for x in shards]))
                       .drop_columns(["shard"]),
                       os.path.join(d, "part.parquet"))
        ckpt.write_shard_manifest(mdir, s, extra={"n_shards": 4})

    os.remove(os.path.join(mdir, "shard=2", "_manifest.json"))
    res2 = build_kg(pages, _cfg(corpus), output_dir=out, resume=True)
    assert res2.metrics["shard_fn"] == SHARD_FN_LEGACY
    assert res2.metrics["resume_skipped_shards"] == [0, 1, 3]
    assert res2.metrics["resume_recomputed_shards"] == [2]
    assert _hashes(out) == (nodes1, edges1)


def test_partial_shard_dir_cleared(tmp_path):
    corpus = write_corpus(str(tmp_path / "corpus"), n_pages=60, seed=4,
                          n_files=2)
    pages = ray.data.read_parquet(str(tmp_path / "corpus" / "pages"))
    out = str(tmp_path / "out")
    build_kg(pages, _cfg(corpus), output_dir=out)
    nodes1, edges1 = _hashes(out)
    # orphan files without manifest must be cleared, not double-counted
    mdir = os.path.join(out, "mentions")
    os.remove(os.path.join(mdir, "shard=1", "_manifest.json"))
    done = ckpt.completed_shards(mdir)
    assert 1 not in done
    build_kg(pages, _cfg(corpus), output_dir=out, resume=True)
    assert _hashes(out) == (nodes1, edges1)
