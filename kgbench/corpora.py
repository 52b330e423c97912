"""Seeded benchmark inputs, cached on disk by (generator, size, seed).

Two generators write the same page schema ``(url, warc_ts, text[, html,
lang])`` in the sentence grammar ``RuleBasedExtractor`` parses, with the
ground-truth extraction payload of every page kept beside the pages so
ReferenceSim can score the engine:

- ``fixture``: ``kgforge.testing.corpus`` — Zipf-distributed head
  entities and alias surface forms, so the per-batch combiner folds many
  mentions into few partials.
- ``tail``: a long-tail corpus defined here.  Nearly every person and
  movie name is unique, so the combiner removes almost nothing and the
  node/edge folds carry one row per mention.

Every input directory holds the full pages, a small warm-up slice, and
the page split used by the delta op (``base`` = 7/8 of the pages by url
hash, ``delta`` = the rest).  Generation needs no Ray session and never
runs inside a timed region.
"""

from __future__ import annotations

import json
import os
import random
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from kgforge.keys import hash64
from kgforge.testing import corpus as fixture

# bump when a generator or the on-disk layout changes
INPUT_VERSION = 1
N_PAGE_FILES = 4
WARM_PAGES = 256
DELTA_SHARE = 8        # pages with hash64(url) % DELTA_SHARE == 0 form the delta

_SYLLABLES = ["ka", "lo", "ven", "ri", "ta", "mu", "sel", "dor", "ni", "pa",
              "zu", "ber", "qui", "han", "ol", "tes", "mar", "ic", "fen",
              "go", "ul", "ras", "ye", "wen"]
_ROLES = ["Hero", "Villain", "Detective", "Mentor", "Pilot", "Doctor",
          "Captain", "Stranger", "Judge", "Rebel"]


def _word(n: int) -> str:
    """Capitalized pseudo-word spelling ``n`` in base len(_SYLLABLES)
    (three syllables at least), so distinct ids give distinct words that
    match the extractor's ``[A-Z][a-z]+`` name pattern."""
    parts = []
    for _ in range(3):
        n, r = divmod(n, len(_SYLLABLES))
        parts.append(_SYLLABLES[r])
    while n:
        n, r = divmod(n, len(_SYLLABLES))
        parts.append(_SYLLABLES[r])
    return "".join(parts).capitalize()


def _tail_page(i: int, seed: int, ids: random.Random) -> tuple:
    """One long-tail page: 1-5 facts, each naming fresh entities (a 3%
    chance of re-using a small head pool keeps a few multi-mention keys)."""
    rng = random.Random((seed << 24) ^ i)
    url = f"https://tail.test/page-{i:06d}"
    ts = fixture.BASE_TS_US + i * 137_000_000
    if rng.random() < 0.01:
        return url, ts, "", {"entities": [], "relations": []}

    def person() -> str:
        n = rng.randrange(64) if rng.random() < 0.03 else ids.getrandbits(32)
        return f"{_word(n)} {_word(n >> 20 ^ 0x5bd1)}"

    def movie() -> tuple[str, int]:
        n = rng.randrange(64) if rng.random() < 0.03 else ids.getrandbits(32)
        return f"The {_word(n)} {_word(n >> 17 ^ 0x2c9)}", 1950 + n % 75

    sentences, entities, relations = [], [], []
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        if roll < 0.70:
            p = person()
            title, year = movie()
            pair = [{"label": "Person", "attributes": {"name": p}},
                    {"label": "Movie", "attributes": {
                        "title": title, "release_year": year}}]
            if roll < 0.45:
                role = rng.choice(_ROLES)
                sentences.append(f"{p} starred in {title} ({year}) as {role}.")
                label, attrs = "ACTED_IN", {"role": role}
            else:
                sentences.append(f"{title} ({year}) was directed by {p}.")
                pair.reverse()  # the extractor emits the movie first here
                label, attrs = "DIRECTED", {}
            entities.extend(pair)
            relations.append({
                "label": label,
                "source": {"label": "Person", "attributes": {"name": p}},
                "target": {"label": "Movie", "attributes": {"title": title}},
                "attributes": attrs})
        elif roll < 0.90:
            p = person()
            age = rng.randint(20, 79)
            sentences.append(f"{p} is {age} years old.")
            entities.append({"label": "Person", "attributes": {
                "name": p, "age": age}})
        else:
            title, year = movie()
            sentences.append(f"{title} ({year}) is a sequel.")
            entities.append({"label": "Movie", "attributes": {
                "title": title, "release_year": year, "is_sequel": True}})
    text = "\n".join([f"page {i:06d} — long-tail archive",
                      "home & index", *sentences,
                      "generated long-tail archive footer"])
    return url, ts, text, {"entities": entities, "relations": relations}


def _tail_corpus(n_pages: int, seed: int) -> tuple[pa.Table, dict, dict]:
    ids = random.Random(seed * 7919 + 1)
    rows = [_tail_page(i, seed, ids) for i in range(n_pages)]
    urls, tss, texts, payloads = zip(*rows)
    pages = pa.table({"url": pa.array(urls, pa.string()),
                      "warc_ts": pa.array(tss, pa.timestamp("us")),
                      "text": pa.array(texts, pa.string())})
    return pages, dict(zip(urls, payloads)), {}


def _fixture_corpus(n_pages: int, seed: int) -> tuple[pa.Table, dict, dict]:
    c = fixture.make_corpus(n_pages, seed)
    return c.pages, c.truth, c.alias_map


GENERATORS = {"fixture": _fixture_corpus, "tail": _tail_corpus}


def _write_pages(table: pa.Table, out_dir: str, n_files: int) -> None:
    os.makedirs(out_dir)
    per = max(1, -(-table.num_rows // n_files))
    for f in range(n_files):
        part = table.slice(f * per, per)
        if part.num_rows:
            pq.write_table(part, os.path.join(out_dir, f"part-{f:04d}.parquet"))


def input_path(cache_root: str, gen: str, n_pages: int, seed: int) -> str:
    return os.path.join(cache_root,
                        f"{gen}-v{INPUT_VERSION}-n{n_pages}-s{seed}")


def input_dir(cache_root: str, gen: str, n_pages: int, seed: int) -> str:
    """Generate the inputs once per key; later runs reuse the directory."""
    out = input_path(cache_root, gen, n_pages, seed)
    if os.path.exists(os.path.join(out, "_COMPLETE")):
        return out
    tmp = f"{out}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    pages, truth, alias_map = GENERATORS[gen](n_pages, seed)
    _write_pages(pages, os.path.join(tmp, "pages"), N_PAGE_FILES)
    _write_pages(pages.slice(0, WARM_PAGES), os.path.join(tmp, "warm"), 1)
    in_delta = pa.array([hash64(u) % DELTA_SHARE == 0
                         for u in pages.column("url").to_pylist()])
    _write_pages(pages.filter(in_delta), os.path.join(tmp, "delta"), 1)
    _write_pages(pages.filter(pc.invert(in_delta)),
                 os.path.join(tmp, "base"), N_PAGE_FILES)
    pq.write_table(pa.table({
        "url": list(truth),
        "payload": [json.dumps(p) for p in truth.values()]}),
        os.path.join(tmp, "truth.parquet"))
    with open(os.path.join(tmp, "aliases.json"), "w") as fh:
        json.dump(alias_map, fh)
    with open(os.path.join(tmp, "_COMPLETE"), "w") as fh:
        fh.write("ok")
    os.replace(tmp, out)
    return out


def load_truth(in_dir: str) -> dict:
    t = pq.read_table(os.path.join(in_dir, "truth.parquet")).to_pydict()
    return {u: json.loads(p) for u, p in zip(t["url"], t["payload"])}


def load_aliases(in_dir: str) -> dict:
    with open(os.path.join(in_dir, "aliases.json")) as fh:
        return json.load(fh)
