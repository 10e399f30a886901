"""Deterministic sampling / splitting + mergeable sketches for
training-data pipelines.

- train/eval split and stratified sampling use an md5-threshold rule
  (hash of the id, compare hex prefix) — deterministic, cluster-size
  independent, and expressible in SQL for oracle checks (DuckDB md5()
  matches Python hashlib.md5).
- HyperLogLog count-distinct: one sketch per batch inside map_batches,
  merged associatively — the mergeable-sketch aggregation pattern
  (ray_guide 'Aggregation at scale'); the reference has no sketches
  (SURVEY.md §2.5), the engine adds them for 10^12-row distincts.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd


def _md5_hex(v) -> str:
    return hashlib.md5(str(v).encode()).hexdigest()


def hash_bucket_filter(batch: pa.Table, id_col: str, lo: str, hi: str) -> pa.Table:
    """Keep rows whose md5(id) hex digest falls in [lo, hi) — the
    deterministic split predicate (lexicographic hex compare == numeric)."""
    ids = batch[id_col].to_pylist()
    mask = pa.array([lo <= _md5_hex(i) < hi for i in ids])
    return batch.filter(mask)


# md5 hex digests below this go to train: first nibble < 0xc, 12/16 = 75%
TRAIN_CUT = "c"


def train_eval_split(ds: rd.Dataset, id_col: str) -> tuple[rd.Dataset, rd.Dataset]:
    """Split by the first md5 hex nibble: digests < ``TRAIN_CUT`` go to
    train (75%).  Rows never migrate between splits as the data or
    cluster grows."""
    train = ds.map_batches(
        lambda t: hash_bucket_filter(t, id_col, "0", TRAIN_CUT), batch_format="pyarrow"
    )
    eval_ = ds.map_batches(
        lambda t: hash_bucket_filter(t, id_col, TRAIN_CUT, "g"), batch_format="pyarrow"
    )
    return train, eval_


def stratified_sample(
    ds: rd.Dataset, id_col: str, frac_16ths: int = 4
) -> rd.Dataset:
    """Deterministic ~frac_16ths/16 sample (uniform within every stratum
    because the hash is independent of any stratum column)."""
    cut = format(frac_16ths, "x")
    return ds.map_batches(
        lambda t: hash_bucket_filter(t, id_col, "0", cut), batch_format="pyarrow"
    )


def temperature_rates(
    counts: dict, alpha: float, budget: float
) -> dict:
    """Per-group keep rates for temperature (α) sampling: group share
    p_g ∝ n_g^α (mT5/XLM-R corpus mixing), per-doc keep probability
    min(1, budget·p_g / n_g).  α < 1 upweights small groups; α = 1 is
    proportional (rate = budget/N for all); α = 0 is uniform-by-group.
    Computed with the same float-op sequence a SQL oracle uses
    (pow → sum → left-to-right divide) so thresholds replay exactly."""
    w = {g: float(n) ** alpha for g, n in counts.items()}
    z = sum(w[g] for g in sorted(w, key=str))
    return {
        g: min(1.0, budget * w[g] / z / float(counts[g])) for g in counts
    }


def _rate_to_hex_threshold(rate: float) -> str:
    """Keep-iff md5hex[:8] < threshold.  'g' sorts above every hex char,
    so rate ≥ 1 keeps all rows; otherwise the first 8 md5 nibbles are a
    uniform u32 and the cut is floor(rate·2^32) in lowercase hex —
    byte-identical to SQL's lower(lpad(to_hex(floor(rate*2^32)),8,'0'))."""
    if rate >= 1.0:
        return "g"
    return format(int(rate * 4294967296.0), "08x")


def temperature_sample(
    ds: rd.Dataset,
    *,
    group_col: str,
    id_col: str,
    alpha: float = 0.5,
    budget: float = 1000.0,
) -> rd.Dataset:
    """Deterministic temperature-based corpus mixing (the multilingual
    LM standard: sample source g at rate ∝ n_g^α, Xue et al. 2021 /
    Conneau et al. 2020): ONE tiny count groupby (map-side partial
    combine), per-group hash thresholds shipped in the closure
    (dimension-sized), then a shuffle-free filter scan — a document is
    kept iff its md5 u32 falls under its group's rate cut, so selection
    is stable under data growth, cluster size and row order, and
    replayable in SQL for the oracle check.

    The reference engine has no sampling operators (SURVEY.md §2.5);
    this complements ``select_token_quota`` (hard per-source caps) with
    proportional-to-n^α mixing."""
    from ray.data.aggregate import Sum as _Sum

    def partial(t: pa.Table) -> pa.Table:
        return t.group_by(group_col).aggregate([(id_col, "count")])

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby(group_col)
        .aggregate(_Sum(f"{id_col}_count", alias_name="n"))
        .to_pandas()
    )
    counts = dict(zip(agg[group_col], agg["n"].astype(int)))
    rates = temperature_rates(counts, alpha, budget)
    thr = {g: _rate_to_hex_threshold(r) for g, r in rates.items()}

    def keep(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_pylist()
        gs = t[group_col].to_pylist()
        mask = pa.array(
            [_md5_hex(i)[:8] < thr[g] for i, g in zip(ids, gs)]
        )
        return t.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")


# --- HyperLogLog ------------------------------------------------------------

_HLL_P = 12  # 4096 registers → ~1.6% standard error
_HLL_M = 1 << _HLL_P
_ALPHA = 0.7213 / (1 + 1.079 / _HLL_M)


def hll_sketch(values: list) -> np.ndarray:
    """Registers (uint8) for one batch of values — mergeable via max."""
    regs = np.zeros(_HLL_M, dtype=np.uint8)
    for v in values:
        h = int.from_bytes(
            hashlib.blake2b(str(v).encode(), digest_size=8).digest(), "big"
        )
        idx = h >> (64 - _HLL_P)
        rest = h & ((1 << (64 - _HLL_P)) - 1)
        # rank = position of leftmost 1 in the remaining 52 bits
        rank = (64 - _HLL_P) - rest.bit_length() + 1
        if rank > regs[idx]:
            regs[idx] = rank
    return regs


def hll_merge(sketches: list[np.ndarray]) -> np.ndarray:
    out = np.zeros(_HLL_M, dtype=np.uint8)
    for s in sketches:
        np.maximum(out, s, out=out)
    return out


def hll_estimate(regs: np.ndarray) -> float:
    est = _ALPHA * _HLL_M * _HLL_M / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * _HLL_M and zeros:
        est = _HLL_M * np.log(_HLL_M / zeros)  # linear counting correction
    return float(est)


def approx_count_distinct(ds: rd.Dataset, col: str) -> float:
    """Distributed HLL: one sketch per batch (map_batches), reduced by
    the adaptive tree merge (register-wise max is associative) — the
    driver handles a bounded number of 4 KiB sketches at any scale."""
    from .sketches import reduce_sketch_blobs

    def sketch_batch(batch: pa.Table) -> pa.Table:
        regs = hll_sketch(batch[col].to_pylist())
        return pa.table({"sketch": pa.array([regs.tobytes()], type=pa.binary())})

    def max_merge(blobs: list[bytes]) -> bytes:
        return hll_merge([np.frombuffer(b, dtype=np.uint8) for b in blobs]).tobytes()

    blob = reduce_sketch_blobs(
        ds.map_batches(sketch_batch, batch_format="pyarrow", batch_size=8192),
        max_merge,
        blob_col="sketch",
    )
    if blob is None:
        return 0.0
    return hll_estimate(np.frombuffer(blob, dtype=np.uint8))


# --- mergeable quantile sketch ----------------------------------------------
#
# Fixed-width histogram quantile sketch: a (tiny) min/max pre-aggregate
# fixes the bin edges, then every batch contributes a 4096-bin count
# vector, merged by element-wise sum — fully deterministic, associative,
# and constant-size regardless of data volume (the scale path beside the
# exact per-group quantiles of q63).  Rank error ≤ one bin's occupancy;
# accuracy asserted in tests (<1% rank error on the events table).

_QS_BINS = 4096


def quantile_sketch_edges(ds: rd.Dataset, col: str) -> tuple[float, float]:
    """Pass 1: global (min, max) via Ray's native aggregate (tiny)."""
    from ray.data.aggregate import Max as _Max
    from ray.data.aggregate import Min as _Min

    row = ds.aggregate(_Min(col, alias_name="lo"), _Max(col, alias_name="hi"))
    return float(row["lo"]), float(row["hi"])


def quantile_sketch(ds: rd.Dataset, col: str) -> tuple[np.ndarray, float, float]:
    """Pass 2: per-batch histogram counts (int64[4096]) merged by sum."""
    lo, hi = quantile_sketch_edges(ds, col)
    span = hi - lo or 1.0

    def sketch_batch(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        idx = np.clip(((v - lo) / span * _QS_BINS).astype(np.int64), 0, _QS_BINS - 1)
        counts = np.bincount(idx, minlength=_QS_BINS)
        return pa.table({"counts": pa.array([counts.astype(np.int64).tobytes()])})

    from .sketches import reduce_sketch_blobs

    def sum_merge(blobs: list[bytes]) -> bytes:
        acc = np.frombuffer(blobs[0], dtype=np.int64).copy()
        for b in blobs[1:]:
            acc += np.frombuffer(b, dtype=np.int64)
        return acc.tobytes()

    blob = reduce_sketch_blobs(
        ds.map_batches(sketch_batch, batch_format="pyarrow", batch_size=65536),
        sum_merge,
        blob_col="counts",
    )
    total = (
        np.frombuffer(blob, dtype=np.int64).copy()
        if blob is not None
        else np.zeros(_QS_BINS, dtype=np.int64)
    )
    return total, lo, hi


def quantile_estimate(
    counts: np.ndarray, lo: float, hi: float, qs: list[float]
) -> list[float]:
    """Quantile values from the merged histogram (bin-midpoint rule)."""
    n = int(counts.sum())
    if n == 0:
        return [float("nan")] * len(qs)
    cum = np.cumsum(counts)
    span = hi - lo or 1.0
    out = []
    for q in qs:
        rank = q * (n - 1)
        b = int(np.searchsorted(cum, rank + 1))
        b = min(b, _QS_BINS - 1)
        out.append(lo + (b + 0.5) / _QS_BINS * span)
    return out


def approx_quantiles(ds: rd.Dataset, col: str, qs: list[float]) -> list[float]:
    counts, lo, hi = quantile_sketch(ds, col)
    return quantile_estimate(counts, lo, hi, qs)


def epoch_mix(
    ds: rd.Dataset,
    epochs: dict,
    *,
    source_col: str = "source",
    id_col: str = "doc_id",
    seed: int = 0,
    out_col: str = "epoch",
) -> rd.Dataset:
    """Fractional-epoch mixture materialization (the LLaMA/GPT-3-style
    static data mixture: each source s repeats ``epochs[s]`` times, e.g.
    2.5 epochs = 2 full copies + a deterministic half-sample third
    copy).  Every row of source s is emitted with ``out_col`` copy
    indices 0..floor(e_s)-1; copy floor(e_s) is added iff
    splitmix64(id + seed) < frac(e_s)·2^64 — the same hash-threshold
    rule as the engine's other deterministic samplers, so selection is
    independent of row order, block layout and cluster size, and larger
    budgets select supersets.  Sources absent from ``epochs`` are
    dropped (budget 0).

    Shuffle-free: the epoch table is dimension-sized and ships in the
    closure; the expansion is one vectorized ``take`` per batch (repeat
    indices + concatenated per-row aranges, no Python loop)."""
    import pyarrow.compute as pc

    from .shuffle import shuffle_hash

    srcs = sorted(epochs)
    full = np.array([int(np.floor(epochs[s])) for s in srcs], dtype=np.int64)
    frac = np.array([float(epochs[s]) - int(np.floor(epochs[s])) for s in srcs])
    thr = np.array([min(int(f * 2.0**64), 2**64 - 1) for f in frac],
                   dtype=np.uint64)

    def expand(t: pa.Table) -> pa.Table:
        codes = pc.index_in(
            t[source_col], options=pc.SetLookupOptions(value_set=pa.array(srcs))
        ).to_numpy(zero_copy_only=False)
        known = ~np.isnan(codes.astype(np.float64)) if codes.dtype.kind == "f" \
            else codes != -1
        codes = np.where(known, codes, 0).astype(np.int64)
        h = shuffle_hash(t[id_col], seed)
        reps = full[codes] + (h < thr[codes]).astype(np.int64)
        reps[~known] = 0
        idx = np.repeat(np.arange(len(reps), dtype=np.int64), reps)
        starts = np.concatenate([[0], np.cumsum(reps)[:-1]])
        epoch = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(starts, reps)
        out = t.take(pa.array(idx))
        return out.append_column(out_col, pa.array(epoch))

    return ds.map_batches(expand, batch_format="pyarrow")


def cap_per_group(
    ds: rd.Dataset,
    *,
    group_col: str,
    id_col: str,
    k: int,
    seed: int = 0,
    num_parts: int = 32,
) -> rd.Dataset:
    """Per-group cap (the FineWeb-style per-domain URL cap): keep at
    most ``k`` rows of every group, selected by seeded splitmix64 hash
    order (hash asc, id asc on ties) — a uniform, layout-independent
    sample of each group, NOT the first-k by position (which would
    depend on block order and cluster size).

    Scale shape: per batch, a vectorized sort + ``groupby.head(k)``
    keeps each group's k smallest-hash rows (a superset of the global
    winners — the global k smallest of a group are each the k smallest
    of their own batch), so the ONE group-hash cogroup that finishes the
    selection shuffles at most k × blocks rows per group, never the
    group's full membership.  Hot groups (giant hosts) therefore cannot
    overload a reducer beyond k × blocks."""
    import pandas as pd

    from .dedup import add_key_partition
    from .shuffle import shuffle_hash

    def partial(t: pa.Table) -> pa.Table:
        h = shuffle_hash(t[id_col], seed)
        df = t.to_pandas()
        df["_h"] = h
        kept = (
            df.sort_values([group_col, "_h", id_col], kind="mergesort")
            .groupby(group_col, sort=False)
            .head(k)
        )
        return pa.Table.from_pandas(kept, preserve_index=False)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.sort_values([group_col, "_h", id_col], kind="mergesort")
            .groupby(group_col, sort=False)
            .head(k)
            .drop(columns=["_h", "_part"])
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .map_batches(
            lambda t: add_key_partition(t, group_col, num_parts=num_parts),
            batch_format="pyarrow",
        )
        .groupby("_part")
        .map_groups(final, batch_format="pandas")
    )


def weighted_sample(
    ds: rd.Dataset,
    *,
    k: int,
    weight_col: str,
    id_col: str = "doc_id",
    seed: int = 0,
    keep_cols: tuple[str, ...] = (),
):
    """Deterministic weighted sampling WITHOUT replacement
    (Efraimidis-Spirakis A-Res): each row gets the reservoir key
    ``ln(u) / w`` with ``u = (splitmix64(id + seed) + 1) / 2^64`` — a
    monotone transform of the classic ``u^(1/w)`` — and the sample is
    the k LARGEST keys.  Inclusion probabilities are proportional to
    weight in the ES sense, yet the draw is a pure function of
    (ids, weights, seed): independent of row order, block layout, and
    cluster size, so a resumed job redraws the identical sample.

    Scale shape: one shuffle-free keying scan + ``global_top_k``
    (per-block partial top-k; at most k × blocks rows exist anywhere,
    driver merge is k × blocks).  The splitmix64/float arithmetic is
    IEEE-exact on both engines, so the SAME draw is SQL-replayable via
    ``weighted_sample_sql`` (ties on key break by id).

    Weights must be strictly positive (a zero weight has key -inf and
    an undefined SQL twin; reject loudly)."""
    from .selection import global_top_k
    from .shuffle import shuffle_hash

    def add_key(t: pa.Table) -> pa.Table:
        h = shuffle_hash(t[id_col], seed)
        u = (h.astype(np.float64) + 1.0) / 2.0**64
        w = t[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        if (w <= 0).any() or np.isnan(w).any():
            raise ValueError(
                f"weighted_sample needs strictly positive weights in "
                f"'{weight_col}'"
            )
        cols: dict = {id_col: t[id_col], weight_col: t[weight_col]}
        for c in keep_cols:
            cols[c] = t[c]
        cols["_es_key"] = pa.array(np.log(u) / w, type=pa.float64())
        return pa.table(cols)

    keyed = ds.map_batches(add_key, batch_format="pyarrow")
    out = global_top_k(keyed, k=k, by=["_es_key", id_col], descending=[True, False])
    return out.drop(columns=["_es_key"]).reset_index(drop=True)


def weighted_sample_sql(
    *,
    k: int,
    table: str = "documents",
    weight_col: str = "n_chars",
    id_col: str = "doc_id",
    seed: int = 0,
) -> str:
    """DuckDB replay of ``weighted_sample`` — generated from the SAME
    parameters (single-generator policy): identical splitmix64 bits
    (``splitmix64_sql`` HUGEINT arithmetic), identical u/key formulas,
    identical (key DESC, id ASC) tie-break."""
    from .shuffle import splitmix64_sql

    h = splitmix64_sql(id_col, seed)
    return f"""
        WITH keyed AS (
          SELECT {id_col}, {weight_col},
                 ln((CAST({h} AS DOUBLE) + 1.0) / 18446744073709551616.0)
                   / CAST({weight_col} AS DOUBLE) AS es_key
          FROM {table}
        )
        SELECT CAST({id_col} AS BIGINT) AS {id_col},
               CAST({weight_col} AS BIGINT) AS {weight_col}
        FROM keyed ORDER BY es_key DESC, {id_col} LIMIT {k}
    """


def disjoint_split_by_key(
    ds: rd.Dataset,
    key_col: str,
    *,
    pcts: tuple[int, ...] = (90, 5, 5),
    names: tuple[str, ...] = ("train", "val", "test"),
    seed: int = 0,
    out: str = "split",
) -> rd.Dataset:
    """Leakage-safe corpus split: EVERY row sharing a key (host,
    registrable domain, user id) lands in the same split, because the
    assignment is a pure function of the key alone —
    ``bucket = splitmix64(polyhash64(key) + seed) % 100`` against
    cumulative ``pcts`` thresholds.  This is how web corpora must be
    split: near-duplicate boilerplate within a host would leak
    train→test under a per-document draw like ``train_eval_split``.

    One shuffle-free scan (no groupby — co-location is irrelevant when
    the label is key-deterministic); rows never migrate as data grows or
    the cluster resizes; the draw is SQL-replayable exactly
    (``shuffle.polyhash64_sql`` + ``splitmix64_sql`` — see
    :func:`disjoint_split_sql`), unlike the siphash family
    ``hashing.hash_u64`` uses for shuffle routing.  Null keys split as
    the empty string (one deterministic bucket)."""
    from .hashing import polyhash64, splitmix64

    if len(pcts) != len(names) or sum(pcts) != 100:
        raise ValueError(
            f"pcts must sum to 100 and pair with names: {pcts} / {names}"
        )
    cuts = np.cumsum(np.asarray(pcts, dtype=np.int64))
    labels = np.asarray(names, dtype=object)
    add = np.uint64(seed % (1 << 64))

    def assign(t: pa.Table) -> pa.Table:
        with np.errstate(over="ignore"):
            b = splitmix64(polyhash64(t[key_col]) + add) % np.uint64(100)
        idx = np.searchsorted(cuts, b.astype(np.int64), side="right")
        return t.append_column(out, pa.array(labels[idx], type=pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def disjoint_split_sql(
    values_rel: str,
    key_col: str,
    *,
    pcts: tuple[int, ...] = (90, 5, 5),
    names: tuple[str, ...] = ("train", "val", "test"),
    seed: int = 0,
    out_rel: str = "__split",
    out_col: str = "split",
    max_len: int = 256,
) -> str:
    """CTE-chain replay of :func:`disjoint_split_by_key`, generated from
    the SAME pcts/names/seed (single-generator policy).  Defines
    ``{out_rel}({key_col}, {out_col})`` over the distinct keys of
    ``{values_rel}``; the caller joins it back on the key and must open
    the query with ``WITH RECURSIVE`` (polyhash64_sql's power table)."""
    from .shuffle import polyhash64_sql, splitmix64_sql

    if len(pcts) != len(names) or sum(pcts) != 100:
        raise ValueError(
            f"pcts must sum to 100 and pair with names: {pcts} / {names}"
        )
    bucket = f"CAST({splitmix64_sql('ph', seed)} % 100 AS BIGINT)"
    case = "CASE"
    hi = 0
    for p, nm in zip(pcts[:-1], names[:-1]):
        hi += p
        case += f" WHEN bucket < {hi} THEN '{nm}'"
    case += f" ELSE '{names[-1]}' END"
    ph = polyhash64_sql(values_rel, key_col, max_len=max_len)
    return (
        f"{ph},\n"
        f"__b AS (SELECT {key_col}, {bucket} AS bucket FROM __ph),\n"
        f"{out_rel} AS (SELECT {key_col}, {case} AS {out_col} FROM __b)"
    )


def group_weight_table(
    ds: rd.Dataset, *, group_col: str, weight_col: str
) -> pd.DataFrame:
    """(group, w=Σweight) ordered by w DESC then group ASC — the shared
    preamble of every group-granular driver fold (nucleus selection,
    LPT shard packing): per-batch Arrow partials → ONE group-cardinality
    groupby → |groups|-sized frame."""
    from ray.data.aggregate import Sum

    from .collect import collect_table

    def partial(t: pa.Table) -> pa.Table:
        g = t.select([group_col, weight_col]).group_by([group_col]).aggregate(
            [(weight_col, "sum")]
        )
        return g.rename_columns([group_col, "w"])

    return (
        collect_table(
            ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
            .groupby(group_col)
            .aggregate(Sum("w", alias_name="w"))
        )
        .to_pandas()
        .sort_values([group_col])
        .sort_values(["w"], ascending=False, kind="mergesort")
        .reset_index(drop=True)
    )


def nucleus_sources(
    ds: rd.Dataset,
    *,
    group_col: str = "source",
    weight_col: str = "n_chars",
    p_num: int = 4,
    p_den: int = 5,
) -> pd.DataFrame:
    """Top-p (nucleus) source selection: order sources by total weight
    DESC (ties by name ASC) and keep the minimal prefix whose cumulative
    weight reaches p = p_num/p_den of the corpus — the head/tail split
    corpus mixing applies before per-source treatment (heads get
    temperature mixing, tails get up-weighting or pruning).

    The keep rule is INTEGER arithmetic (p_den·cum_before < p_num·total
    — a source is kept while the mass BEFORE it is under p), so no FP
    boundary can flip a branch between engine and oracle.  Scale shape:
    :func:`group_weight_table` (ONE group-cardinality groupby) + a
    |groups|-sized driver fold.  Output: (group, total weight, share,
    cum_share, kept) for every source."""
    from .selection import round_half_away

    out = group_weight_table(ds, group_col=group_col, weight_col=weight_col)
    w = [int(v) for v in out["w"].to_numpy()]
    total = sum(w)
    cum_before, kept, cum = 0, [], []
    for wi in w:
        kept.append(p_den * cum_before < p_num * total)
        cum_before += wi
        cum.append(cum_before)
    out["w"] = out["w"].astype(np.int64)
    out["share"] = round_half_away(
        np.array(w, dtype=np.float64) / float(total), 6
    )
    out["cum_share"] = round_half_away(
        np.array(cum, dtype=np.float64) / float(total), 6
    )
    out["kept"] = np.array(kept, dtype=bool)
    return out


def nucleus_sources_sql(
    *,
    table: str = "documents",
    group_col: str = "source",
    weight_col: str = "n_chars",
    p_num: int = 4,
    p_den: int = 5,
) -> str:
    """DuckDB replay of :func:`nucleus_sources` (single-generator
    policy): identical (w DESC, group ASC) order, identical integer keep
    rule over the lagged cumulative."""
    return f"""
        WITH s AS (
          SELECT {group_col}, CAST(sum({weight_col}) AS BIGINT) AS w
          FROM {table} GROUP BY {group_col}
        ),
        o AS (
          SELECT {group_col}, w,
                 coalesce(sum(w) OVER (ORDER BY w DESC, {group_col}
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                   AS cum_before,
                 sum(w) OVER (ORDER BY w DESC, {group_col}) AS cum,
                 sum(w) OVER () AS total
          FROM s
        )
        SELECT {group_col}, w,
               round(w / CAST(total AS DOUBLE), 6) AS share,
               round(cum / CAST(total AS DOUBLE), 6) AS cum_share,
               {p_den} * cum_before < {p_num} * total AS kept
        FROM o
    """


def group_sample(
    ds: rd.Dataset,
    *,
    k: int,
    group_col: str,
    id_col: str,
    seed: int = 0,
    num_parts: int = 64,
) -> rd.Dataset:
    """Deterministic EXACT-k-per-group sample (stratified sampling with
    a hard per-stratum count — per-source eval sets, per-language probe
    corpora): each group keeps its k smallest rows in the splitmix64
    hash order of the id, so the draw is a pure function of (ids, seed)
    — independent of row order, block layout and cluster size, and
    SQL-replayable exactly (:func:`group_sample_sql`).  Complements the
    rate-based ``stratified_sample`` (≈p per row, no count guarantee)
    and ``cap_per_group`` (which keeps FIRST-seen rows, order-defined).

    Scale shape: per-batch keep-k combiner (a batch contributes at most
    k rows per group it touches), ONE coarse group-hash partition
    shuffle, per-partition keep-k finish; at most k × blocks rows per
    group exist anywhere.  Output: (group, id), one Ray Dataset row per
    kept id."""
    import pandas as pd

    from .dedup import add_key_partition
    from .shuffle import shuffle_hash

    if k <= 0:
        raise ValueError("group_sample: k must be positive")

    def keep_k(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(["_h", id_col], kind="mergesort")
            .groupby(group_col, sort=False, dropna=False)
            .head(k)
        )

    def partial(t: pa.Table) -> pa.Table:
        h = shuffle_hash(t[id_col], seed)
        df = pd.DataFrame(
            {
                group_col: t[group_col].to_pandas(),
                id_col: t[id_col].to_pandas(),
                "_h": h,
            }
        )
        out = pa.Table.from_pandas(keep_k(df), preserve_index=False)
        return add_key_partition(out, group_col, num_parts=num_parts)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        return keep_k(g)[[group_col, id_col]].reset_index(drop=True)

    return (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby("_part")
        .map_groups(finish, batch_format="pandas")
    )


def group_sample_sql(
    *,
    k: int,
    table: str = "documents",
    group_col: str = "lang",
    id_col: str = "doc_id",
    seed: int = 0,
) -> str:
    """DuckDB replay of :func:`group_sample`, generated from the SAME
    parameters (single-generator policy): identical splitmix64 bits,
    identical (hash ASC, id ASC) per-group order, rn <= k."""
    from .shuffle import splitmix64_sql

    h = splitmix64_sql(id_col, seed)
    return f"""
        WITH keyed AS (
          SELECT {group_col}, {id_col}, {h} AS h FROM {table}
        ),
        r AS (
          SELECT {group_col}, {id_col},
                 row_number() OVER (PARTITION BY {group_col}
                                    ORDER BY h, {id_col}) AS rn
          FROM keyed
        )
        SELECT {group_col}, {id_col} FROM r WHERE rn <= {k}
    """


def stratified_exact_split(
    ds: rd.Dataset,
    *,
    id_col: str,
    stratum_col: str,
    train_frac: tuple[int, int] = (4, 5),
    num_parts: int = 32,
    out: str = "split",
) -> rd.Dataset:
    """Stratified split with EXACT per-stratum quotas: within every
    stratum, rank rows by (splitmix64(id), id) and label the first
    ceil(num·n/den) "train", the rest "eval" — the evaluation-design
    guarantee hash-threshold splits (``train_eval_split``) cannot give
    (their per-stratum counts are only binomially close to the
    fraction).  The ranking hash is a pure function of the id, so the
    assignment is reproducible across runs and layouts; quotas are
    exact by construction.  The fraction is a RATIONAL (num, den) and
    the quota is integer arithmetic — no float boundary.

    Scale shape: ONE coarse stratum-hash shuffle; inside each
    partition a vectorized (stratum, hash, id) mergesort assigns ranks
    for all its strata at once.  A single stratum must fit one task
    (the cogroup convention); at sizes beyond that, compute the
    per-stratum k-th-smallest hash with the quantile-refinement
    machinery and label by threshold instead.  Null strata form their
    own stratum (matching the SQL's GROUP BY null handling).  Output:
    input columns + ``split``:string.  SQL replay GENERATED by
    :func:`stratified_exact_split_sql` (row_number over the identical
    hash order)."""
    import pandas as pd

    from .dedup import add_key_partition
    from .hashing import splitmix64

    num, den = train_frac
    if not (0 <= num <= den and den > 0):
        raise ValueError("train_frac must be a rational in [0, 1]")

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["_part"])
        if not len(g):
            g[out] = pd.Series([], dtype=object)
            return g
        ids = g[id_col].to_numpy()
        with np.errstate(over="ignore"):
            h = splitmix64(ids.astype(np.int64).view(np.uint64))
        # factorize (None -> -1) instead of sorting raw values: a null
        # stratum is its OWN stratum (matching SQL PARTITION BY), and
        # lexsort on a mixed str/None object array raises TypeError.
        # The stratum key only needs to make equal strata contiguous —
        # per-stratum ranking uses (h, id) alone, so first-appearance
        # codes keep the output layout-independent.
        strata, _ = pd.factorize(g[stratum_col], use_na_sentinel=True)
        order = np.lexsort((ids, h.astype(np.uint64), strata))
        sg = g.iloc[order].reset_index(drop=True)
        ss = strata[order]  # codes, not raw values: NaN != NaN is True
        new = np.empty(len(ss), dtype=bool)
        new[0] = True
        new[1:] = ss[1:] != ss[:-1]
        seg = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, len(ss)))
        rank = np.arange(len(ss)) - starts[seg]
        quota = (num * sizes + den - 1) // den  # ceil(num*n/den)
        lab = np.where(rank < quota[seg], "train", "eval")
        sg[out] = lab
        return sg

    return (
        ds.map_batches(
            lambda t: add_key_partition(t, stratum_col, num_parts=num_parts),
            batch_format="pyarrow",
        )
        .groupby("_part")
        .map_groups(per_partition, batch_format="pandas")
    )


def stratified_exact_split_sql(
    *,
    table: str,
    id_col: str,
    stratum_col: str,
    train_frac: tuple[int, int] = (4, 5),
    columns: tuple[str, ...] = (),
) -> str:
    """DuckDB replay of :func:`stratified_exact_split`
    (single-generator): identical splitmix64 rank order and integer
    ceil quota, via the GENERATED ``shuffle.splitmix64_sql``."""
    from .shuffle import splitmix64_sql

    num, den = train_frac
    h = splitmix64_sql(f"CAST({id_col} AS BIGINT)")
    cols = ", ".join(columns) if columns else "*"
    return f"""
        WITH ranked AS (
            SELECT {cols},
                   row_number() OVER (
                       PARTITION BY {stratum_col}
                       ORDER BY {h}, {id_col}) AS rn,
                   count(*) OVER (PARTITION BY {stratum_col}) AS n
            FROM {table}
        )
        SELECT * EXCLUDE (rn, n),
               CASE WHEN rn <= ({num} * n + {den} - 1) // {den}
                    THEN 'train' ELSE 'eval' END AS split
        FROM ranked
    """
