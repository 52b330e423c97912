"""Mergeable-sketch aggregation shape: per-batch partial sketches → one
tiny merge stage (the pre-aggregation pattern for distinct counts and
quantiles at 100 TB — shuffle volume is O(batches × sketch size), never
O(rows)).

- :func:`distinct_count_exact`: per-batch key SETS (serialized), driver
  merge — exact; right when the distinct cardinality is bounded (it is
  for user ids / labels; for open-ended keys use the HLL below).
- :func:`hll_distinct`: HyperLogLog (deterministic md5-based, so a SQL
  oracle can rebuild every register), ~2% error at 2^11 registers;
  registers are max-mergeable so any tree shape works.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ray.data import Dataset


def distinct_count_exact(ds: Dataset, col: str) -> int:
    """Exact COUNT(DISTINCT col): per-batch uniques → driver set union.
    Partial size is bounded by the true cardinality, not row count."""

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        uniq = pc.unique(batch.column(col))
        return pa.table({col: uniq})

    seen: set = set()
    for b in (ds.map_batches(partial, batch_format="pyarrow")
                .iter_batches(batch_size=65536, batch_format="pyarrow")):
        seen.update(b.column(col).to_pylist())
    return len(seen)


_HLL_P = 11                      # 2^11 registers → ~2.3% relative error
_HLL_M = 1 << _HLL_P
_HLL_ALPHA = 0.7213 / (1 + 1.079 / _HLL_M)
def _hll_hash(values: list) -> np.ndarray:
    """First 16 hex chars of ``md5(str(v))`` as uint64 — md5-derived
    precisely so a DuckDB oracle can rebuild every register:
    ``('0x' || substr(md5(CAST(v AS VARCHAR)), 1, 16))::UBIGINT``
    (the same scheme as :func:`_bloom_positions`)."""
    return np.fromiter(
        (int(hashlib.md5(str(v).encode("utf-8")).hexdigest()[:16], 16)
         for v in values), dtype=np.uint64, count=len(values))


def hll_partial(values: list) -> np.ndarray:
    """Register array (uint8[m]) for one batch of values.  NULLs are
    dropped (COUNT DISTINCT semantics — and the SQL oracle's
    md5(CAST(x AS VARCHAR)) is NULL for NULL, which its register join
    discards; hashing str(None) would silently diverge)."""
    values = [v for v in values if v is not None]
    regs = np.zeros(_HLL_M, dtype=np.uint8)
    if not values:
        return regs
    h = _hll_hash(values)
    idx = (h >> np.uint64(64 - _HLL_P)).astype(np.int64)
    rest = h << np.uint64(_HLL_P)
    # rank = position (1-based) of the first 1-bit in the remaining
    # 64-P bits; all-zero → max rank
    ranks = np.zeros(len(h), dtype=np.int64)
    for bit in range(64 - _HLL_P):
        mask = (rest >> np.uint64(63 - bit)) & np.uint64(1)
        ranks = np.where((ranks == 0) & (mask == np.uint64(1)),
                         bit + 1, ranks)
    ranks = np.where(ranks == 0, 64 - _HLL_P + 1, ranks)
    np.maximum.at(regs, idx, ranks.astype(np.uint8))
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Exact-arithmetic HLL estimate, structured so a SQL oracle can
    mirror it bit-for-bit: the harmonic denominator is the INTEGER
    ``Z_scaled = sum(2^(64-reg))`` (the dyadic rationals ``2^-reg``
    scaled by ``2^64`` — no float-sum order dependence), and the
    estimate is ``alpha * (float(m^2 * 2^64) / float(Z_scaled))`` —
    exact casts, one division, one multiply, in this order.  The
    small-range branch keeps the classic ``m * ln(m/zeros)``; DuckDB's
    ``ln`` can differ from libm in the last ulp (the BM25 lesson), so
    gates quantize the estimate to milli-units."""
    import math
    m = _HLL_M
    counts = np.bincount(regs.astype(np.int64), minlength=65)
    z_scaled = sum(int(c) << (64 - r)
                   for r, c in enumerate(counts.tolist()) if c)
    est = _HLL_ALPHA * (float((m * m) << 64) / float(z_scaled))
    zeros = int(counts[0])
    if est <= 2.5 * m and zeros:
        est = m * math.log(m / zeros)    # small-range correction
    return float(est)


def hll_zero_registers(regs: np.ndarray) -> int:
    """Count of zero registers (the small-range-branch input) — gated
    alongside the quantized estimate."""
    return int(np.sum(regs == 0))


def hll_merged_registers(ds: Dataset, col: str) -> np.ndarray:
    """Merged register array over the whole dataset: one m-byte row per
    batch rides the exchange, elementwise-max folded on the driver."""

    def partial(batch: pa.Table) -> pa.Table:
        regs = hll_partial(batch.column(col).to_pylist())
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    merged = np.zeros(_HLL_M, dtype=np.uint8)
    for b in (ds.map_batches(partial, batch_format="pyarrow")
                .iter_batches(batch_size=1024, batch_format="pyarrow")):
        for raw in b.column("regs").to_pylist():
            merged = np.maximum(merged, np.frombuffer(raw, dtype=np.uint8))
    return merged


def hll_distinct(ds: Dataset, col: str) -> float:
    """Approximate COUNT(DISTINCT): one register row per batch, merged
    with element-wise max (associative/commutative)."""
    return hll_estimate(hll_merged_registers(ds, col))


class QuantileSketch:
    """Mergeable compressed-CDF quantile sketch.

    State: sorted ``(value, weight)`` pairs capped at ``k`` entries.
    Compaction keeps the exact min/max and samples the weighted CDF at
    ``k`` evenly spaced cumulative ranks, so per-compaction rank error
    is ≤ total_weight / k and merge order only affects results within
    that envelope.  This is the 100-TB path for quantiles — shuffle
    volume O(batches × k) — measured against the EXACT distributed
    ``relational.exact_quantiles`` baseline in tests (the same
    exact-vs-sketch pairing as brute-force vs IVF ANN)."""

    def __init__(self, k: int = 1024):
        self.k = k
        self.values = np.empty(0, dtype=np.float64)
        self.weights = np.empty(0, dtype=np.float64)

    def add_batch(self, vals: np.ndarray) -> "QuantileSketch":
        vals = np.asarray(vals, dtype=np.float64)
        vals = vals[~np.isnan(vals)]
        if vals.size:
            order = np.argsort(vals, kind="mergesort")
            self._merge_sorted(vals[order], np.ones(vals.size))
        return self

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        self._merge_sorted(other.values, other.weights)
        return self

    def _merge_sorted(self, vals: np.ndarray, wts: np.ndarray) -> None:
        v = np.concatenate([self.values, vals])
        w = np.concatenate([self.weights, wts])
        order = np.argsort(v, kind="mergesort")
        v, w = v[order], w[order]
        if v.size > self.k:
            v, w = self._compact(v, w)
        self.values, self.weights = v, w

    def _compact(self, v: np.ndarray, w: np.ndarray):
        total = w.sum()
        cum = np.cumsum(w)
        # sample the CDF at k evenly spaced ranks, pinning both extremes
        targets = np.linspace(0, total, self.k)
        idx = np.searchsorted(cum, targets, side="left")
        idx = np.unique(np.clip(idx, 0, v.size - 1))
        nv = v[idx]
        ncum = cum[idx]
        nw = np.diff(np.concatenate([[0.0], ncum]))
        return nv, nw

    def query(self, q: float) -> float | None:
        if self.values.size == 0:
            return None
        total = self.weights.sum()
        cum = np.cumsum(self.weights)
        rank = max(0.0, min(total, q * total))
        i = int(np.searchsorted(cum, rank, side="left"))
        return float(self.values[min(i, self.values.size - 1)])

    def to_bytes(self) -> bytes:
        return (np.int64(self.values.size).tobytes()
                + self.values.tobytes() + self.weights.tobytes())

    @staticmethod
    def from_bytes(raw: bytes, k: int = 1024) -> "QuantileSketch":
        n = int(np.frombuffer(raw[:8], dtype=np.int64)[0])
        s = QuantileSketch(k)
        s.values = np.frombuffer(raw[8:8 + 8 * n], dtype=np.float64).copy()
        s.weights = np.frombuffer(raw[8 + 8 * n:8 + 16 * n],
                                  dtype=np.float64).copy()
        return s


HIST_QUANTILE_BINS = 4096


def histogram_quantiles(ds: Dataset, col: str,
                        qs: list[tuple[int, int]],
                        n_bins: int = HIST_QUANTILE_BINS,
                        n_buckets: int = 64) -> pa.Table:
    """DETERMINISTIC mergeable quantile sketch: a fixed-bin histogram
    CDF over the repo's integer-cents representation.  Unlike
    :class:`QuantileSketch` (whose compaction is merge-order-dependent
    by design), every state here is order-free — bin counts SUM and
    bin maxima MAX, both associative/commutative — so the result is
    bit-identical regardless of partitioning / merge tree, and the
    whole computation is re-derivable in SQL with integer arithmetic
    (the KMV-oracle pattern):

    - pass 1: exact global ``(min_c, max_c, total)`` of
      ``c = round(value*100)`` (one tiny row per block);
    - bin width ``W = (max_c - min_c + n_bins) // n_bins`` (integer —
      at most ``n_bins`` bins regardless of value range);
    - pass 2: per-batch ``(bin, count, max_c)`` partials → ONE
      coarse-bucket fold → a ≤ ``n_bins``-row table on the driver;
    - quantile ``num/den``: the max value in the first bin whose
      cumulative count reaches ``rank = (num*total + den - 1) // den``
      (integer ceil) — a REAL data value, rank error bounded by the
      chosen bin's population.

    ``qs`` are exact rationals ``(num, den)`` so the rank target is
    integer on both the engine and the oracle side (``0.25`` as a
    float would make ``q*total`` precision-sensitive).  Two corpus
    scans (extent + histogram), the BM25 discipline; shuffle volume is
    O(blocks x n_bins) 24-byte rows."""
    def cents(batch: pa.Table) -> np.ndarray:
        a = (batch.column(col).to_numpy(zero_copy_only=False)
             .astype(np.float64))
        a = a[~np.isnan(a)]        # SQL aggregates skip NULLs
        return np.floor(a * 100.0 + 0.5).astype(np.int64)

    def extent(batch: pa.Table) -> pa.Table:
        c = cents(batch)
        if c.size == 0:
            return pa.table({"mn": pa.array([], pa.int64()),
                             "mx": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        return pa.table({"mn": pa.array([int(c.min())], pa.int64()),
                         "mx": pa.array([int(c.max())], pa.int64()),
                         "n": pa.array([int(c.size)], pa.int64())})

    ext = (ds.map_batches(extent, batch_format="pyarrow")
             .to_pandas())              # one row per block — tiny
    if ext.empty or ext["n"].sum() == 0:
        return pa.table({"q": pa.array([], pa.float64()),
                         "value": pa.array([], pa.float64())})
    mn, mx = int(ext["mn"].min()), int(ext["mx"].max())
    total = int(ext["n"].sum())
    w = max(1, (mx - mn + n_bins) // n_bins)

    def partial(batch: pa.Table) -> pa.Table:
        c = cents(batch)
        if c.size == 0:
            return pa.table({"bin": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "mxc": pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int64())})
        bins = (c - mn) // w
        df = (pd.DataFrame({"bin": bins, "c": c})
              .groupby("bin")["c"].agg(["size", "max"]).reset_index())
        return pa.table({
            "bin": pa.array(df["bin"].to_numpy(np.int64), pa.int64()),
            "n": pa.array(df["size"].to_numpy(np.int64), pa.int64()),
            "mxc": pa.array(df["max"].to_numpy(np.int64), pa.int64()),
            "bucket": pa.array((df["bin"].to_numpy(np.int64)
                                % n_buckets), pa.int64())})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("bin", as_index=False)
                .agg(n=("n", "sum"), mxc=("mxc", "max")))
        out["n"] = out["n"].astype(np.int64)
        out["mxc"] = out["mxc"].astype(np.int64)
        return out[["bin", "n", "mxc"]]

    hist = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("bucket")
              .map_groups(fold, batch_format="pandas")
              .to_pandas().sort_values("bin"))   # ≤ n_bins rows
    cum = hist["n"].cumsum().to_numpy(np.int64)
    mxc = hist["mxc"].to_numpy(np.int64)
    out_q, out_v = [], []
    for num, den in qs:
        rank = max(1, (num * total + den - 1) // den)   # integer ceil
        i = int(np.searchsorted(cum, rank, side="left"))
        out_q.append(num / den)
        out_v.append(mxc[min(i, mxc.size - 1)] / 100.0)
    return pa.table({"q": pa.array(out_q, pa.float64()),
                     "value": pa.array(out_v, pa.float64())})


# ---------------------------------------------------------------------------
# Bloom filter (mergeable bitmap)
# ---------------------------------------------------------------------------

BLOOM_M_BITS = 1 << 16
BLOOM_K = 4


def _bloom_positions(key, m_bits: int, k: int) -> list[int]:
    """Bit positions of ``key``: the j-th position is the first 8 bytes
    of ``md5(f"{key}:{j}")`` mod ``m_bits`` — md5-derived precisely so a
    SQL engine can re-derive the whole filter
    (``('0x' || substr(md5(key || ':' || j), 1, 16))::UBIGINT % m``)."""
    return [int(hashlib.md5(f"{key}:{j}".encode("utf-8")).hexdigest()[:16],
                16) % m_bits for j in range(k)]


def bloom_build(ds: Dataset, col: str, m_bits: int = BLOOM_M_BITS,
                k: int = BLOOM_K) -> np.ndarray:
    """Distributed Bloom-filter build: each batch ORs its keys into a
    local ``m_bits``-wide bitmap (one uint64 word array); the per-block
    bitmaps — ``m_bits/8`` bytes each, FIXED size regardless of row
    count — are the only thing that leaves the workers, and bitwise OR
    is associative/commutative so any merge tree works.  At 100 TB the
    shuffle volume is O(blocks × m/8), never O(rows); the returned
    driver-side bitmap is broadcast once via ``ray.put`` for probing."""

    def partial(t: pa.Table) -> pa.Table:
        bitmap = np.zeros(m_bits // 64, dtype=np.uint64)
        for key in t.column(col).to_pylist():
            for pos in _bloom_positions(key, m_bits, k):
                bitmap[pos >> 6] |= np.uint64(1) << np.uint64(pos & 63)
        return pa.table({"bitmap": pa.array([bitmap.tobytes()],
                                            pa.binary())})

    out = np.zeros(m_bits // 64, dtype=np.uint64)
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        out |= np.frombuffer(row["bitmap"], dtype=np.uint64)
    return out


def bloom_probe(ds: Dataset, col: str, bitmap: np.ndarray,
                m_bits: int = BLOOM_M_BITS, k: int = BLOOM_K,
                out_col: str = "bloom_hit") -> Dataset:
    """Append a boolean membership verdict per row (no false negatives;
    false-positive rate ~``(1 - e^{-kn/m})^k``).  The bitmap ships once
    (``ray.put``), each probe batch reads it zero-copy from the object
    store — the classic broadcast-small-side pattern that replaces a
    shuffle join when only an existence verdict is needed."""
    import ray
    ref = ray.put(bitmap)

    def probe(t: pa.Table) -> pa.Table:
        bm = ray.get(ref)
        hits = []
        for key in t.column(col).to_pylist():
            hits.append(all(
                bool(bm[p >> 6] >> np.uint64(p & 63) & np.uint64(1))
                for p in _bloom_positions(key, m_bits, k)))
        return t.append_column(out_col, pa.array(hits, pa.bool_()))

    return ds.map_batches(probe, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Count-min sketch (mergeable counter matrix)
# ---------------------------------------------------------------------------

CMS_WIDTH = 1024
CMS_DEPTH = 4


def cms_build(ds: Dataset, col: str, width: int = CMS_WIDTH,
              depth: int = CMS_DEPTH) -> np.ndarray:
    """Distributed count-min sketch build: each block accumulates a
    local ``depth × width`` int64 counter matrix (fixed size regardless
    of rows — shuffle volume O(blocks × d·w·8), never O(rows)); counter
    matrices merge by elementwise SUM, so any merge tree works.  Cell
    positions reuse the md5 scheme of :func:`_bloom_positions` (row j's
    position = md5-derived), which makes every counter — and therefore
    every estimate — re-derivable in plain SQL."""

    def partial(t: pa.Table) -> pa.Table:
        mat = np.zeros((depth, width), dtype=np.int64)
        for key in t.column(col).to_pylist():
            for j, pos in enumerate(_bloom_positions(key, width, depth)):
                mat[j, pos] += 1
        return pa.table({"mat": pa.array([mat.tobytes()], pa.binary())})

    out = np.zeros((depth, width), dtype=np.int64)
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        out += np.frombuffer(row["mat"],
                             dtype=np.int64).reshape(depth, width)
    return out


def cms_estimate(ds: Dataset, col: str, mat: np.ndarray,
                 width: int = CMS_WIDTH, depth: int = CMS_DEPTH,
                 out_col: str = "cms_count") -> Dataset:
    """Append the CMS frequency estimate per (distinct-keyed) row:
    ``min over rows j of counter[j, pos_j(key)]`` — never undercounts,
    overcounts by colliding keys' mass with probability bounded by the
    standard (ε = e/width, δ = e^-depth) guarantee.  The matrix ships
    once via ``ray.put``."""
    import ray
    ref = ray.put(mat)

    def probe(t: pa.Table) -> pa.Table:
        m = ray.get(ref)
        est = [int(min(m[j, p] for j, p in
                       enumerate(_bloom_positions(k, width, depth))))
               for k in t.column(col).to_pylist()]
        return t.append_column(out_col, pa.array(est, pa.int64()))

    return ds.map_batches(probe, batch_format="pyarrow")


def grouped_hll_distinct(ds: Dataset, group_col: str, col: str,
                         n_buckets: int = 16) -> Dataset:
    """Approximate ``COUNT(DISTINCT col)`` PER GROUP — one HLL register
    array per (group, batch) rides the exchange (m bytes each,
    independent of row count), merged per group with elementwise max
    (associative, so the coarse-bucket fold tree is exact for the
    sketch).  The open-cardinality companion of
    :func:`~kgforge.stages.relational.grouped_distinct_count`; ~2%
    standard error at 2^11 registers.  Null group keys drop (same
    contract as the exact variant)."""
    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        groups, blobs = [], []
        t = t.select([group_col, col]).filter(
            t.column(group_col).is_valid())
        df = pd.DataFrame({"g": t.column(group_col).to_pylist(),
                           "v": t.column(col).to_pylist()})
        for g, sub in df.groupby("g", sort=False):
            groups.append(g)
            blobs.append(hll_partial(sub["v"].tolist()).tobytes())
        out = pa.table({"g": pa.array(groups, pa.string()),
                        "regs": pa.array(blobs, pa.binary())})
        from .joins import str_bucket
        bk = str_bucket(pd.Series(groups, dtype=object), n_buckets)
        return out.append_column("_b", pa.array(bk, pa.int64()))

    def fold(g: pd.DataFrame) -> pa.Table:
        names, millis, zeros = [], [], []
        for name, sub in g.groupby("g", sort=False):
            merged = np.zeros(_HLL_M, dtype=np.uint8)
            for raw in sub["regs"]:
                merged = np.maximum(
                    merged, np.frombuffer(raw, dtype=np.uint8))
            names.append(name)
            millis.append(int(np.floor(hll_estimate(merged) * 1000
                                       + 0.5)))
            zeros.append(hll_zero_registers(merged))
        return pa.table({
            group_col: pa.array(names, pa.string()),
            "approx_distinct": pa.array(
                [mv / 1000.0 for mv in millis], pa.float64()),
            "est_milli": pa.array(millis, pa.int64()),
            "n_zero_regs": pa.array(zeros, pa.int64())})

    return (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("_b")
              .map_groups(fold, batch_format="pandas"))
