"""End-to-end KG construction vs the ReferenceSim oracle.

This is the BASELINE.md correctness gate: the distributed Ray pipeline's
node/edge tables must match a sequential plain-Python implementation of
the reference's MERGE/SET-+= semantics at P/R >= 0.95 (we require 1.0 on
the deterministic corpus)."""

import json

import pytest

import ray

from kgforge.pipelines.kg_build import KGBuildConfig, build_kg
from kgforge.testing import refsim
from kgforge.testing.corpus import ONTOLOGY_JSON, make_corpus


def _run(corpus, **cfg_kw):
    pages = ray.data.from_arrow(corpus.pages)
    cfg = KGBuildConfig(ontology_json=json.dumps(ONTOLOGY_JSON),
                        alias_map=corpus.alias_map,
                        extract_concurrency=2, n_buckets=8, **cfg_kw)
    return build_kg(pages, cfg)


@pytest.fixture(scope="module")
def built(small_corpus):
    return _run(small_corpus)


def test_pipeline_matches_reference_sim(small_corpus, built):
    sim = refsim.simulate_corpus(small_corpus)
    nodes = built.nodes.to_pandas()
    edges = built.edges.to_pandas()
    m = refsim.compare(nodes, edges, sim, small_corpus.ontology)
    assert m["node_precision"] == 1.0 and m["node_recall"] == 1.0, m
    assert m["edge_precision"] == 1.0 and m["edge_recall"] == 1.0, m
    assert m["attr_agreement"] == 1.0, m
    assert m["nodes_engine"] > 10 and m["edges_engine"] > 10, m


def test_pipeline_from_html(small_corpus):
    """Same result when text is re-extracted from the html column."""
    base = _run(small_corpus)
    via_html = _run(small_corpus, use_text_column=False)
    a = base.nodes.to_pandas().sort_values("node_key").reset_index(drop=True)
    b = via_html.nodes.to_pandas().sort_values("node_key").reset_index(drop=True)
    assert a["node_key"].tolist() == b["node_key"].tolist()
    assert base.edges.count() == via_html.edges.count()


def test_keep_lang_filters_pages(small_corpus, built):
    """The optional language filter drops non-matching pages before
    extraction, so mention mass can only shrink (the corpus plants ~5%
    de/fr pages)."""
    only_en = _run(small_corpus, keep_lang=["en"])
    assert only_en.metrics["mentions"] < built.metrics["mentions"]
    assert only_en.metrics["mentions"] > 0
    # filtering to a language the corpus doesn't contain yields nothing
    none = _run(small_corpus, keep_lang=["zz"])
    assert none.metrics["mentions"] == 0
    assert none.nodes.count() == 0 and none.edges.count() == 0


def test_entity_linking_folds_aliases(small_corpus, built):
    """Alias surface forms ('J. Doe', 'Doe') must canonicalize into the
    full-name node — so no node may carry a linkable alias as its name."""
    alias_surfaces = set(small_corpus.alias_map["Person"]["name"])
    nodes = built.nodes.to_pandas()
    person_names = set(nodes[nodes["label"] == "Person"]["name"])
    assert not (person_names & alias_surfaces)


def test_join_strategy_parity(small_corpus, built):
    """Partitioned Dataset.join endpoint resolution == broadcast result."""
    joined = _run(small_corpus, join_strategy="join", join_num_partitions=4)
    a = built.edges.to_pandas().sort_values("edge_id").reset_index(drop=True)
    b = joined.edges.to_pandas().sort_values("edge_id").reset_index(drop=True)
    assert a["edge_id"].tolist() == b["edge_id"].tolist()
    assert a["n_mentions"].tolist() == b["n_mentions"].tolist()


def test_lww_determinism_across_runs(small_corpus, built):
    """Two executions produce byte-identical node tables (the reference is
    thread-race nondeterministic here; we sort by (warc_ts, url, seq))."""
    again = _run(small_corpus)
    a = built.nodes.to_pandas().sort_values("node_key").reset_index(drop=True)
    b = again.nodes.to_pandas().sort_values("node_key").reset_index(drop=True)
    assert a.equals(b)


def test_unknown_labels_dropped():
    corpus = make_corpus(16, seed=3)
    pages = ray.data.from_arrow(corpus.pages)

    class NoisyExtractor:
        def extract(self, text, instruction=""):
            return {"entities": [
                        {"label": "Alien", "attributes": {"name": "zork"}},
                        {"label": "Person", "attributes": {"name": "Real One"}}],
                    "relations": [
                        {"label": "KNOWS",
                         "source": {"label": "Person",
                                    "attributes": {"name": "Real One"}},
                         "target": {"label": "Person",
                                    "attributes": {"name": "Real One"}},
                         "attributes": {}}]}

    cfg = KGBuildConfig(ontology_json=json.dumps(ONTOLOGY_JSON),
                        model_factory=NoisyExtractor,
                        extract_concurrency=2, n_buckets=4)
    res = build_kg(pages, cfg)
    nodes = res.nodes.to_pandas()
    assert set(nodes["label"]) == {"Person"}   # Alien dropped
    assert res.edges.count() == 0              # KNOWS not in ontology


def test_dangling_edges_dropped(small_corpus):
    """An edge whose endpoint node never appears must vanish (Cypher MATCH
    no-op, extract_data_step.py:266)."""
    pages = ray.data.from_arrow(small_corpus.pages.slice(0, 8))

    class DanglingExtractor:
        def extract(self, text, instruction=""):
            return {"entities": [{"label": "Person",
                                  "attributes": {"name": "Only Node"}}],
                    "relations": [
                        {"label": "ACTED_IN",
                         "source": {"label": "Person",
                                    "attributes": {"name": "Only Node"}},
                         "target": {"label": "Movie",
                                    "attributes": {"title": "Ghost Movie"}},
                         "attributes": {"role": "Hero"}}]}

    cfg = KGBuildConfig(ontology_json=json.dumps(ONTOLOGY_JSON),
                        model_factory=DanglingExtractor,
                        extract_concurrency=2, n_buckets=4)
    res = build_kg(pages, cfg)
    assert res.nodes.count() == 1
    assert res.edges.count() == 0


def test_malformed_payload_values_survive(small_corpus):
    """Review regressions: list-valued attributes (unhashable memo key)
    and separator control bytes inside attribute values must not crash
    the fused pipeline or corrupt edge identity."""
    pages = ray.data.from_arrow(small_corpus.pages.slice(0, 6))

    class HostileExtractor:
        def extract(self, text, instruction=""):
            return {"entities": [
                        {"label": "Person",
                         "attributes": {"name": ["not", "a", "string"]}},
                        {"label": "Person",
                         "attributes": {"name": "a\x1eb\x1fc"}},
                        {"label": "Movie",
                         "attributes": {"title": "T\x1e"}}],
                    "relations": [
                        {"label": "ACTED_IN",
                         "source": {"label": "Person",
                                    "attributes": {"name": "a\x1eb\x1fc"}},
                         "target": {"label": "Movie",
                                    "attributes": {"title": "T\x1e"}},
                         "attributes": {"role": "Weird"}}]}

    cfg = KGBuildConfig(ontology_json=json.dumps(ONTOLOGY_JSON),
                        model_factory=HostileExtractor, fused_concurrency=1,
                        n_buckets=2)
    res = build_kg(pages, cfg)
    nodes = res.nodes.to_pandas()
    # list-valued name stringified by coercion; control-char names intact
    assert "a\x1eb\x1fc" in set(nodes[nodes.label == "Person"]["name"])
    edges = res.edges.to_pandas()
    assert len(edges) == 1 and edges.iloc[0]["role"] == "Weird"


def test_resume_shard_count_mismatch_rejected(tmp_path):
    from kgforge.testing.corpus import write_corpus
    corpus = write_corpus(str(tmp_path / "c"), n_pages=30, seed=2, n_files=2)
    pages = ray.data.read_parquet(str(tmp_path / "c" / "pages"))
    out = str(tmp_path / "out")
    cfg = KGBuildConfig(ontology_json=json.dumps(ONTOLOGY_JSON),
                        alias_map=corpus.alias_map, n_shards=4, n_buckets=2)
    build_kg(pages, cfg, output_dir=out)
    cfg2 = KGBuildConfig(ontology_json=json.dumps(ONTOLOGY_JSON),
                        alias_map=corpus.alias_map, n_shards=8, n_buckets=2)
    with pytest.raises(ValueError, match="n_shards"):
        build_kg(pages, cfg2, output_dir=out, resume=True)


def test_metric_keys_per_path(small_corpus, built, tmp_path):
    """Each path records only the phases it runs: the in-memory path
    extracts and normalizes in one fused stage (one timer), the
    checkpointed path times the two apart and reports its shards."""
    common = {"config", "mentions", "nodes", "canonicalize_nodes_sec",
              "edges", "edges_sec", "total_sec"}
    assert set(built.metrics) == common | {"extract_normalize_sec"}

    pages = ray.data.from_arrow(small_corpus.pages.slice(0, 40))
    cfg = KGBuildConfig(ontology_json=json.dumps(ONTOLOGY_JSON),
                        alias_map=small_corpus.alias_map, n_buckets=4,
                        n_shards=2)
    res = build_kg(pages, cfg, output_dir=str(tmp_path / "out"))
    assert set(res.metrics) == common | {
        "extract_sec", "normalize_sec", "resume_skipped_shards",
        "resume_recomputed_shards", "shard_fn"}


def test_head_key_skew_bounded_by_combiner():
    """Salted-key-free skew defense (SCALING.md "the combiner is the
    skew defense"): a pathological corpus where EVERY page mentions the
    same head entity must (a) produce one correct node with the full
    mention count, and (b) ship at most one partial row per input block
    through the canonicalize exchange — shuffle volume for a hot key is
    O(blocks), never O(mentions)."""
    import pyarrow as pa

    from kgforge.pipelines.kg_build import _fused_normalized

    n_pages, n_blocks = 600, 8
    rows = {
        "url": [f"https://skew.test/p{i:04d}" for i in range(n_pages)],
        "warc_ts": pa.array([1_700_000_000_000_000 + i * 1000
                             for i in range(n_pages)],
                            pa.timestamp("us")),
        "text": [f"Tom Hanks starred in Big ({1988}) as Hero.\n"
                 f"Tom Hanks is {30 + i % 3} years old."
                 for i in range(n_pages)],
    }
    pages = ray.data.from_arrow(pa.table(rows)).repartition(n_blocks)
    cfg = KGBuildConfig(ontology_json=json.dumps(ONTOLOGY_JSON),
                        fused_batch_size=n_pages // n_blocks, n_buckets=4)

    normalized = _fused_normalized(pages, cfg).materialize()
    hot = normalized.filter(
        lambda r: r["kind"] == "entity" and r["label"] == "Person")
    partials = hot.take_all()
    assert all(p["node_key"].startswith("Person") for p in partials)
    # combiner bound: <= one partial per block for the single hot key
    assert 1 <= len(partials) <= n_blocks, len(partials)
    assert sum(p["n_mentions"] for p in partials) == 2 * n_pages

    res = build_kg(pages, cfg)
    nodes = res.nodes.to_pandas()
    person = nodes[nodes.label == "Person"]
    assert len(person) == 1
    assert person.iloc[0]["n_mentions"] == 2 * n_pages
    # LWW: the age from the max (warc_ts, url_hash, seq) order wins
    assert person.iloc[0]["age"] == 30 + (n_pages - 1) % 3
