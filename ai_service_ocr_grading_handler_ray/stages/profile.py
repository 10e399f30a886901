"""Table profiler — the Deequ/Great-Expectations-style data-quality
audit every ingestion pipeline runs before trusting a new drop: per
column, row count, null count, EXACT distinct count, and numeric
min/max (typed columns only; strings/binary get NULL bounds so the
output schema is uniform).

Scale shape (10^12 rows):

- **One scan** computes all per-batch partials: a one-row table per
  (batch, column) with n/n_null/min/max, folded on the driver
  (columns × blocks rows — never data-sized).
- **Exact distincts cost one shuffle, total**: every profiled column's
  per-batch DISTINCT values enter a single unioned (col, value-hash)
  stream — hashed to u64 BEFORE the shuffle so wide strings don't
  travel — and one groupby counts distinct hashes per column.  Hash
  collisions would undercount (~n²/2^64 — at 10^9 distincts, ~0.03
  expected collisions); the oracle's COUNT(DISTINCT) pins testdata
  scales exactly.  Callers needing estimates at any scale should use
  ``sampling.approx_count_distinct`` (HLL) instead; this operator is
  the EXACT audit.

The DuckDB oracle is GENERATED from the same column list and the same
numeric-vs-other split (:func:`profile_sql` — single-generator policy).
Timestamps profile their epoch-microseconds as the numeric bound.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .hashing import hash_u64


def _is_numeric(t: pa.DataType) -> bool:
    return (
        pa.types.is_integer(t)
        or pa.types.is_floating(t)
        or pa.types.is_timestamp(t)
        or pa.types.is_date(t)
    )


def _as_float(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    t = col.type
    if pa.types.is_timestamp(t) or pa.types.is_date(t):
        # normalize to MICROSECONDS first — the documented bound unit and
        # what the oracle's epoch_us replays (a timestamp[ns] column
        # would otherwise profile nanoseconds, 1000x off)
        col = col.cast(pa.timestamp("us")).cast(pa.int64())
    return col.cast(pa.float64()) if not pa.types.is_floating(col.type) else col


def profile_table(ds: rd.Dataset, columns: list[str]) -> pd.DataFrame:
    """Profile ``columns`` of ``ds``: returns a DataFrame
    (column, n, n_null, n_distinct, min_num, max_num) sorted by column.
    min/max_num are NULL (NaN) for non-numeric columns and for
    all-null columns."""
    from .collect import collect_table

    def stat_partial(t: pa.Table) -> pa.Table:
        rows = {"column": [], "n": [], "n_null": [], "mn": [], "mx": []}
        for c in columns:
            col = t[c]
            rows["column"].append(c)
            rows["n"].append(len(col))
            rows["n_null"].append(col.null_count)
            if _is_numeric(col.type) and len(col) > col.null_count:
                f = _as_float(col)
                rows["mn"].append(pc.min(f).as_py())
                rows["mx"].append(pc.max(f).as_py())
            else:
                rows["mn"].append(None)
                rows["mx"].append(None)
        return pa.table(
            {
                "column": pa.array(rows["column"], type=pa.string()),
                "n": pa.array(rows["n"], type=pa.int64()),
                "n_null": pa.array(rows["n_null"], type=pa.int64()),
                "mn": pa.array(rows["mn"], type=pa.float64()),
                "mx": pa.array(rows["mx"], type=pa.float64()),
            }
        )

    def distinct_partial(t: pa.Table) -> pa.Table:
        from .hashing import splitmix64

        cols, hashes = [], []
        for c in columns:
            vals = t[c].combine_chunks().unique().drop_null()
            if len(vals):
                if pa.types.is_floating(vals.type):
                    # SQL-equality semantics: -0.0 == 0.0 (bit-distinct)
                    # and all NaN payloads are ONE value — canonicalize
                    # before hashing bits
                    v = vals.to_numpy(zero_copy_only=False).astype(np.float64)
                    v = v + 0.0
                    v[np.isnan(v)] = np.nan
                    h = splitmix64(v.view(np.uint64)).view(np.int64)
                else:
                    h = hash_u64(vals).view(np.int64)
                cols.append(np.full(len(h), c, dtype=object))
                hashes.append(h)
        if not cols:
            return pa.table(
                {"column": pa.array([], type=pa.string()),
                 "h": pa.array([], type=pa.int64()),
                 "_part": pa.array([], type=pa.int32())}
            )
        h = np.concatenate(hashes)
        return pa.table(
            {
                "column": pa.array(np.concatenate(cols), type=pa.string()),
                "h": pa.array(h),
                # 64-way salt so one high-cardinality column never lands
                # in a single dedup group
                "_part": pa.array((h % 64).astype(np.int32)),
            }
        )

    stats = collect_table(
        ds.map_batches(stat_partial, batch_format="pyarrow")
    ).to_pandas()
    agg = stats.groupby("column").agg(
        n=("n", "sum"), n_null=("n_null", "sum"),
        min_num=("mn", "min"), max_num=("mx", "max"),
    )

    def dedup_in_part(g: pd.DataFrame) -> pd.DataFrame:
        r = g.drop_duplicates(["column", "h"]).groupby("column", sort=False)
        out = r.size().reset_index(name="nd")
        out["nd"] = out["nd"].astype("int64")
        return out

    nd = collect_table(
        ds.map_batches(distinct_partial, batch_format="pyarrow")
        .groupby(["column", "_part"])
        .map_groups(dedup_in_part, batch_format="pandas")
    ).to_pandas()
    nd = nd.groupby("column")["nd"].sum()

    out = agg.join(nd.rename("n_distinct")).reset_index()
    out["n_distinct"] = out["n_distinct"].fillna(0).astype("int64")
    return out[
        ["column", "n", "n_null", "n_distinct", "min_num", "max_num"]
    ].sort_values("column").reset_index(drop=True)


def profile_sql(
    table: str, column_kinds: dict[str, str], *, round_to: int = 6
) -> str:
    """DuckDB replay of :func:`profile_table`, generated from the SAME
    column list and kind split (single-generator policy).
    ``column_kinds``: name → 'num' (plain numeric), 'ts' (timestamp —
    bounds profile as epoch microseconds, the engine's int64 cast), or
    'other' (NULL bounds)."""
    parts = []
    for c, kind in column_kinds.items():
        if kind == "num":
            mn = f"round(CAST(min({c}) AS DOUBLE), {round_to})"
            mx = f"round(CAST(max({c}) AS DOUBLE), {round_to})"
        elif kind == "ts":
            mn = f"round(CAST(epoch_us(min({c})) AS DOUBLE), {round_to})"
            mx = f"round(CAST(epoch_us(max({c})) AS DOUBLE), {round_to})"
        else:
            mn = mx = "CAST(NULL AS DOUBLE)"
        parts.append(
            f'SELECT \'{c}\' AS "column", count(*) AS n,'
            f" count(*) - count({c}) AS n_null,"
            f" count(DISTINCT {c}) AS n_distinct,"
            f" {mn} AS min_num, {mx} AS max_num FROM {table}"
        )
    return " UNION ALL ".join(parts)


def grouped_category_entropy(
    ds: rd.Dataset,
    *,
    group_col: str,
    cat_col: str,
) -> pd.DataFrame:
    """Per-group Shannon entropy (bits) of a categorical column — the
    mix-purity audit signal (a host/source serving many languages is a
    scraper-farm smell; a single-language source is routable).  Output:
    (group, n_rows, n_cats, cat_entropy).

    Scale shape: per-batch (group, cat) Arrow count partials → ONE
    small groupby → a |groups×cats|-sized driver fold.  Entropy terms
    fold in sorted-category order (deterministic), one log2 per distinct
    pair; -0.0 is normalized to +0.0 so single-category groups hash
    identically to the SQL replay."""
    from ray.data.aggregate import Sum

    from .collect import collect_table
    from .selection import round_half_away

    def partial(t: pa.Table) -> pa.Table:
        g = t.select([group_col, cat_col]).group_by(
            [group_col, cat_col]
        ).aggregate([(cat_col, "count")])
        return g.rename_columns([group_col, cat_col, "n"])

    counts = (
        collect_table(
            ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
            .groupby([group_col, cat_col])
            .aggregate(Sum("n", alias_name="n"))
        )
        .to_pandas()
        .sort_values([group_col, cat_col])
    )
    rows = []
    for grp, sub in counts.groupby(group_col, sort=True):
        n = int(sub["n"].sum())
        p = sub["n"].to_numpy(np.float64) / n
        ent = float(-(p * np.log2(p)).sum()) + 0.0
        rows.append((grp, n, len(sub), ent))
    out = pd.DataFrame(
        rows, columns=[group_col, "n_rows", "n_cats", "cat_entropy"]
    )
    out["n_rows"] = out["n_rows"].astype(np.int64)
    out["n_cats"] = out["n_cats"].astype(np.int64)
    out["cat_entropy"] = round_half_away(
        out["cat_entropy"].to_numpy(np.float64), 6
    )
    return out.reset_index(drop=True)


def category_entropy_sql(
    *,
    table: str = "documents",
    group_col: str = "source",
    cat_col: str = "lang",
) -> str:
    """DuckDB replay of :func:`grouped_category_entropy` — identical
    -Σ p·log2 p with the same -0.0 → +0.0 fold (the q139 convention)."""
    return f"""
        WITH c AS (
          SELECT {group_col}, {cat_col}, count(*) AS n
          FROM {table} GROUP BY {group_col}, {cat_col}
        ),
        t AS (
          SELECT {group_col}, sum(n) AS tot, count(*) AS n_cats
          FROM c GROUP BY {group_col}
        )
        SELECT c.{group_col},
               CAST(t.tot AS BIGINT) AS n_rows,
               CAST(t.n_cats AS BIGINT) AS n_cats,
               round(coalesce(-sum((c.n / CAST(t.tot AS DOUBLE))
                     * log2(c.n / CAST(t.tot AS DOUBLE))), 0.0) + 0.0, 6)
                 AS cat_entropy
        FROM c JOIN t USING ({group_col})
        GROUP BY c.{group_col}, t.tot, t.n_cats
    """


def daily_activity(
    ds: rd.Dataset,
    *,
    ts_col: str = "ts",
    user_col: str = "user_id",
) -> pd.DataFrame:
    """Per-day event volume + EXACT distinct users + repeat rate — the
    ingestion-monitoring rollup (traffic dips, bot storms, dedup-rate
    drift) next to the table profiler.  Output: (day, n_events,
    n_users, events_per_user, repeat_rate = 1 − users/events).

    Scale shape: per-batch (day, user, n) count partials → ONE coarse
    user-hash partition shuffle (a user's days co-locate, so the
    per-partition (day, user) sum is globally exact — the composite
    (day, user) Ray groupby measured 5 s at sf0.1, the many-tiny-groups
    anti-pattern) → per-partition per-day (events, distinct-user)
    partials → |days×partitions| driver fold.  One all-to-all total,
    volume bounded by daily actives."""
    import pyarrow.compute as pc

    from .collect import collect_table
    from .dedup import add_key_partition
    from .selection import round_half_away

    def pairs(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t[ts_col].cast(pa.timestamp("us")), unit="day")
        # count the never-null day column: Arrow "count" skips nulls, so
        # counting u itself would zero out the null-user group's events
        g = pa.table({"day": day, "u": t[user_col]}).group_by(
            ["day", "u"]
        ).aggregate([("day", "count")])
        return add_key_partition(
            g.rename_columns(["day", "u", "n"]), "u", num_parts=64
        )

    def day_partial(df: pd.DataFrame) -> pd.DataFrame:
        # dropna=False: a null user is still an event (and ONE distinct
        # user), matching the Arrow groupby this refit replaced
        per_user = df.groupby(["day", "u"], sort=False, dropna=False)["n"].sum().reset_index()
        r = per_user.groupby("day", sort=False, dropna=False).agg(
            n_events=("n", "sum"), n_users=("n", "size")
        ).reset_index()
        r["n_events"] = r["n_events"].astype("int64")
        r["n_users"] = r["n_users"].astype("int64")
        return r

    out = (
        collect_table(
            ds.map_batches(pairs, batch_format="pyarrow", batch_size=65536)
            .groupby("_part")
            .map_groups(day_partial, batch_format="pandas")
        )
        .to_pandas()
        .groupby("day", as_index=False)[["n_events", "n_users"]]
        .sum()
        .sort_values("day")
        .reset_index(drop=True)
    )
    out["n_events"] = out["n_events"].astype(np.int64)
    out["n_users"] = out["n_users"].astype(np.int64)
    ev, us = out["n_events"].to_numpy(np.float64), out["n_users"].to_numpy(np.float64)
    out["events_per_user"] = round_half_away(ev / us, 6)
    out["repeat_rate"] = round_half_away(1.0 - us / ev, 6)
    return out


def numeric_drift(
    ds_a: rd.Dataset,
    ds_b: rd.Dataset,
    columns: "list[str]",
) -> pd.DataFrame:
    """Numeric-column drift report between two dataset snapshots — the
    ingestion regression gate (a feed whose mean value or null fraction
    jumps between crawls is broken upstream).  One row per column:
    n / null fraction / mean / min / max per side plus the mean shift.

    Scale shape: ONE moment-partial scan per side (one row per batch
    per column: n, nulls, Σ, min, max) folded on the driver — never a
    shuffle, never row-count-sized driver state.  Means round at 6
    (partial-order float sums, the q01 convention)."""
    from .collect import collect_table
    from .selection import round_half_away

    def partials(cols):
        def f(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            rows = {"col": [], "n": [], "nulls": [], "s": [], "mn": [], "mx": []}
            for c in cols:
                col = t[c]
                nn = col.null_count
                v = col.drop_null()
                rows["col"].append(c)
                rows["n"].append(t.num_rows)
                rows["nulls"].append(nn)
                rows["s"].append(
                    float(pc.sum(v).as_py() or 0.0) if len(v) else 0.0
                )
                rows["mn"].append(
                    float(pc.min(v).as_py()) if len(v) else float("inf")
                )
                rows["mx"].append(
                    float(pc.max(v).as_py()) if len(v) else float("-inf")
                )
            return pa.table(
                {
                    "col": pa.array(rows["col"], pa.string()),
                    "n": pa.array(rows["n"], pa.int64()),
                    "nulls": pa.array(rows["nulls"], pa.int64()),
                    "s": pa.array(rows["s"], pa.float64()),
                    "mn": pa.array(rows["mn"], pa.float64()),
                    "mx": pa.array(rows["mx"], pa.float64()),
                }
            )

        return f

    def fold(ds) -> pd.DataFrame:
        p = collect_table(
            ds.map_batches(partials(columns), batch_format="pyarrow",
                           batch_size=65536)
        ).to_pandas()
        return p.groupby("col").agg(
            n=("n", "sum"), nulls=("nulls", "sum"), s=("s", "sum"),
            mn=("mn", "min"), mx=("mx", "max"),
        )

    a, b = fold(ds_a), fold(ds_b)
    out = pd.DataFrame({"col": sorted(columns)})
    for side, f in (("a", a), ("b", b)):
        f = f.reindex(out["col"])
        n = f["n"].fillna(0).to_numpy(np.float64)
        nulls = f["nulls"].fillna(0).to_numpy(np.float64)
        out[f"n_{side}"] = n.astype(np.int64)
        with np.errstate(invalid="ignore", divide="ignore"):
            out[f"null_frac_{side}"] = round_half_away(
                np.where(n > 0, nulls / np.where(n > 0, n, 1.0), np.nan), 6
            )
            nv = n - nulls
            out[f"mean_{side}"] = round_half_away(
                np.where(nv > 0,
                         f["s"].to_numpy(np.float64) / np.where(nv > 0, nv, 1.0),
                         np.nan), 6
            )
        # empty/all-null sides report NULL bounds like the SQL min()/max(),
        # never the +/-inf fold sentinels
        mn = f["mn"].to_numpy(np.float64)
        mx = f["mx"].to_numpy(np.float64)
        out[f"min_{side}"] = np.where(np.isfinite(mn), mn, np.nan)
        out[f"max_{side}"] = np.where(np.isfinite(mx), mx, np.nan)
    out["mean_shift"] = round_half_away(
        out["mean_b"].to_numpy() - out["mean_a"].to_numpy(), 6
    )
    return out


def rolling_distinct_users(
    ds: rd.Dataset,
    *,
    ts_col: str = "ts",
    user_col: str = "user_id",
    window_days: int = 7,
) -> pd.DataFrame:
    """EXACT rolling distinct users (WAU-style): for every active day,
    the count of distinct users seen in the trailing ``window_days``
    window (inclusive) — the windowed-engagement monitor next to
    :func:`daily_activity` (whose per-day distincts can't be summed
    across days).  Output: (day, wau).

    Scale shape: the (day, user) DISTINCT pair table comes from the
    same one-coarse-shuffle recipe as daily_activity (a user's days
    co-locate, per-partition dedup is globally exact); the driver then
    runs ONE sliding-multiset sweep over the pair table — O(pairs) with
    a Counter, memory bounded by the window's active users.  Pairs are
    bounded by Σ daily actives, the same driver budget daily_activity
    already accepts."""
    import collections

    import pyarrow.compute as pc

    from .collect import collect_table
    from .dedup import add_key_partition

    def pairs(t: pa.Table) -> pa.Table:
        # null users are excluded, matching SQL count(DISTINCT user_id)
        # (NaN keys would also never match themselves in the Counter)
        t = t.filter(pc.is_valid(t[user_col]))
        day = pc.floor_temporal(t[ts_col].cast(pa.timestamp("us")), unit="day")
        g = pa.table({"day": day, "u": t[user_col]}).group_by(
            ["day", "u"]
        ).aggregate([])
        return add_key_partition(g, "u", num_parts=64)

    def dedup_part(df: pd.DataFrame) -> pd.DataFrame:
        return df[["day", "u"]].drop_duplicates()

    pt = (
        collect_table(
            ds.map_batches(pairs, batch_format="pyarrow", batch_size=65536)
            .groupby("_part")
            .map_groups(dedup_part, batch_format="pandas")
        )
        .to_pandas()
        .sort_values(["day", "u"])
        .reset_index(drop=True)
    )
    days = pt["day"].drop_duplicates().to_numpy()
    day_series = pt["day"].to_numpy()
    users = pt["u"].to_numpy()
    width = np.timedelta64(window_days - 1, "D").astype("timedelta64[us]")
    counter: collections.Counter = collections.Counter()
    lo = hi = 0
    rows = []
    for d in days:
        while hi < len(pt) and day_series[hi] <= d:
            counter[users[hi]] += 1
            hi += 1
        start = d - width
        while lo < hi and day_series[lo] < start:
            u = users[lo]
            counter[u] -= 1
            if not counter[u]:
                del counter[u]
            lo += 1
        rows.append((d, len(counter)))
    out = pd.DataFrame(rows, columns=["day", "wau"])
    out["wau"] = out["wau"].astype(np.int64)
    return out


def grouped_mode(
    ds: rd.Dataset,
    *,
    group_col: str = "user_id",
    value_col: str = "event_type",
    num_parts: int = 64,
) -> rd.Dataset:
    """Most frequent value per group (deterministic ties: highest count,
    then SMALLEST value) — the modal-label rollup (a user's dominant
    event type, a host's dominant language) the top-k family (q29)
    doesn't express because the ranking key is a per-(group, value)
    COUNT, not a row value.

    Scale shape: per-batch (group, value) Arrow count partials (the
    map-side combiner) → ONE coarse group-hash partition shuffle (a
    group's candidate values co-locate, so the per-partition sum and
    argmax are globally exact; the composite (group, value) Ray groupby
    is the many-tiny-groups anti-pattern q186 measured at 10x) → one
    row per group streams out of map_groups.  Null groups ride the
    hash sentinel bucket; null values count like any other value.
    """
    from .dedup import add_key_partition

    def partial(t: pa.Table) -> pa.Table:
        g = (
            t.select([group_col, value_col])
            .group_by([group_col, value_col])
            .aggregate([([], "count_all")])
        )
        g = g.rename_columns([group_col, value_col, "n"])
        return add_key_partition(g, group_col, num_parts=num_parts)

    def mode_partition(df: pd.DataFrame) -> pd.DataFrame:
        summed = (
            df.groupby([group_col, value_col], sort=False, dropna=False)["n"]
            .sum()
            .reset_index()
        )
        summed = summed.sort_values(
            [group_col, "n", value_col], ascending=[True, False, True],
            kind="mergesort",
        )
        out = summed.drop_duplicates(group_col, keep="first").reset_index(drop=True)
        out["n"] = out["n"].astype(np.int64)
        return out

    return (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby("_part")
        .map_groups(mode_partition, batch_format="pandas")
    )


def grouped_mode_sql(
    *,
    table: str = "events",
    group_col: str = "user_id",
    value_col: str = "event_type",
) -> str:
    """DuckDB replay of :func:`grouped_mode` (single-generator policy):
    count per (group, value), row_number over (count DESC, value ASC)."""
    return f"""
        WITH c AS (
          SELECT {group_col}, {value_col}, count(*) AS n
          FROM {table} GROUP BY 1, 2
        ),
        r AS (
          SELECT *, row_number() OVER (
                   PARTITION BY {group_col}
                   ORDER BY n DESC, {value_col} ASC) AS rn
          FROM c
        )
        SELECT {group_col}, {value_col}, CAST(n AS BIGINT) AS n
        FROM r WHERE rn = 1
    """


def benford_profile(
    ds: rd.Dataset,
    *,
    group_col: str = "event_type",
    value_col: str = "value",
    decimals: int = 2,
    round_to: int = 6,
) -> pa.Table:
    """Benford's-law first-significant-digit audit per group — the
    fabricated-numbers screen for ingested numeric feeds (Benford 1938;
    the digit-frequency test auditors run on transaction streams).

    Values are quantized to integers at ``decimals`` places
    (``round(v * 10^decimals)``; rows quantizing to <= 0 drop — Benford
    applies to positive magnitudes), the first digit is taken in
    integer arithmetic, and each group reports ALL NINE digit rows
    (zero-observed digits included — they still contribute N*p to the
    chi-square).  Output columns: (group, digit:int64, n:int64,
    share:f64, expected:f64 = log10(1+1/d), chi2:f64 — the group's full
    9-cell statistic, repeated on each of its rows).

    Scale shape: one shuffle-free scan emits <= 9 partial-count rows
    per (batch, group); the driver folds (groups x 9)-sized partials —
    never row-count-sized (the low-cardinality-group assumption of the
    q17/q179 family, loudly capped at 10_000 groups).  Returns a
    pa.Table (bins-sized, like profile_table)."""
    from .collect import collect_tables

    def partial(t: pa.Table) -> pa.Table:
        vals = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        # half-AWAY-from-zero quantization (SQL ROUND); np.round is
        # half-to-even and diverges from the oracle on exact halves
        x = vals * 10.0**decimals
        iv = (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)
        keep = iv > 0
        if not keep.any():
            return pa.table(
                {
                    "grp": pa.array([], type=t[group_col].type),
                    "digit": pa.array([], type=pa.int64()),
                    "n": pa.array([], type=pa.int64()),
                }
            )
        iv = iv[keep]
        groups = t[group_col].filter(pa.array(keep))
        while (big := iv >= 10).any():
            iv[big] //= 10
        df = pd.DataFrame({"g": groups.to_pandas(), "d": iv})
        c = df.groupby(["g", "d"], sort=False).size().reset_index(name="n")
        return pa.table(
            {
                "grp": pa.Array.from_pandas(c["g"], type=t[group_col].type),
                "digit": pa.array(c["d"].to_numpy().astype(np.int64)),
                "n": pa.array(c["n"].to_numpy().astype(np.int64)),
            }
        )

    parts = collect_tables(
        ds.map_batches(partial, batch_format="pyarrow"), drop_empty=True
    )
    if not parts:
        return pa.table(
            {
                "grp": pa.array([], type=pa.string()),
                "digit": pa.array([], type=pa.int64()),
                "n": pa.array([], type=pa.int64()),
                "share": pa.array([], type=pa.float64()),
                "expected": pa.array([], type=pa.float64()),
                "chi2": pa.array([], type=pa.float64()),
            }
        )
    merged = pa.concat_tables(parts).to_pandas()
    counts = merged.groupby(["grp", "digit"], sort=True)["n"].sum()
    groups = counts.index.get_level_values(0).unique()
    if len(groups) > 10_000:
        raise ValueError(
            f"benford_profile: {len(groups)} groups exceeds the "
            "low-cardinality-group assumption (10000); group by a "
            "coarser key"
        )
    full = counts.reindex(
        pd.MultiIndex.from_product([groups, range(1, 10)], names=["grp", "digit"]),
        fill_value=0,
    ).reset_index()
    digits = full["digit"].to_numpy().astype(np.int64)
    n = full["n"].to_numpy().astype(np.int64)
    p = np.log10(1.0 + 1.0 / digits)
    tot = full.groupby("grp", sort=False)["n"].transform("sum").to_numpy()
    exp_n = tot * p
    cell = (n - exp_n) ** 2 / exp_n
    chi2 = (
        pd.DataFrame({"grp": full["grp"], "c": cell})
        .groupby("grp", sort=False)["c"]
        .transform("sum")
        .to_numpy()
    )
    from .selection import round_half_away

    def rnd(x: np.ndarray) -> np.ndarray:
        return round_half_away(x, round_to)

    return pa.table(
        {
            "grp": pa.Array.from_pandas(full["grp"]),
            "digit": pa.array(digits),
            "n": pa.array(n),
            "share": pa.array(rnd(n / tot)),
            "expected": pa.array(rnd(p)),
            "chi2": pa.array(rnd(chi2)),
        }
    )


def benford_sql(
    *,
    table: str = "events",
    group_col: str = "event_type",
    value_col: str = "value",
    decimals: int = 2,
    round_to: int = 6,
) -> str:
    """DuckDB replay of :func:`benford_profile` (single-generator):
    integer first digit via VARCHAR head, all nine digits per group via
    a groups x generate_series cross join."""
    return f"""
        WITH q AS (
            SELECT {group_col} AS grp,
                   CAST(substr(CAST(CAST(round({value_col} * {10**decimals})
                        AS BIGINT) AS VARCHAR), 1, 1) AS BIGINT) AS digit
            FROM {table}
            WHERE CAST(round({value_col} * {10**decimals}) AS BIGINT) > 0
        ), c AS (
            SELECT grp, digit, count(*) AS n FROM q GROUP BY 1, 2
        ), cells AS (
            SELECT g.grp, d.digit, coalesce(c.n, 0) AS n
            FROM (SELECT DISTINCT grp FROM c) g
            CROSS JOIN (SELECT unnest(generate_series(1, 9)) AS digit) d
            LEFT JOIN c ON c.grp = g.grp AND c.digit = d.digit
        ), t AS (
            SELECT grp, sum(n) AS tot FROM cells GROUP BY 1
        )
        SELECT cells.grp, cells.digit, CAST(cells.n AS BIGINT) AS n,
               round(cells.n / t.tot, {round_to}) AS share,
               round(ln(1.0 + 1.0 / cells.digit) / ln(10), {round_to})
                   AS expected,
               round(sum(pow(cells.n - t.tot * ln(1.0 + 1.0 / cells.digit)
                                 / ln(10), 2)
                         / (t.tot * ln(1.0 + 1.0 / cells.digit) / ln(10)))
                     OVER (PARTITION BY cells.grp), {round_to}) AS chi2
        FROM cells JOIN t ON cells.grp = t.grp
    """


def categorical_independence(
    ds: rd.Dataset,
    *,
    x_col: str,
    y_col: str,
    round_to: int = 6,
) -> pd.DataFrame:
    """Association audit between two categorical columns — mutual
    information (nats) and the chi-square independence statistic over
    the full |X|×|Y| contingency grid (zero-observed cells contribute
    their expectation to chi²; they add 0 to MI by the p·ln p → 0
    limit), plus Cramér's V = sqrt(chi² / (n·(min(|X|,|Y|)−1))) — the
    "is lang confounded with source?" screen a corpus-mixture design
    needs before treating the two as independent knobs.  Null rows in
    either column drop on both engines.

    Scale shape: per-batch Arrow (x, y) count partials (grid-sized rows
    leave each task, never row-count-sized), ONE tiny groupby, a
    |X|·|Y| driver fold.  Loud cap at 1e6 grid cells.  Output: ONE row
    (n:int64, n_x:int64, n_y:int64, mi:f64, chi2:f64, df:int64,
    cramers_v:f64 — rounded).  SQL replay: single-generator
    :func:`independence_sql` (identical float order: shares divided by
    n first)."""
    from ray.data.aggregate import Sum as _Sum

    from .selection import round_half_away

    def partial(t: pa.Table) -> pa.Table:
        t2 = pa.table({"x": t[x_col], "y": t[y_col]}).drop_null()
        return t2.group_by(["x", "y"]).aggregate([([], "count_all")])

    c = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby(["x", "y"])
        .aggregate(_Sum("count_all", alias_name="n"))
        .to_pandas()
    )
    if not len(c):
        return pd.DataFrame(
            {"n": pd.Series([], dtype=np.int64),
             "n_x": pd.Series([], dtype=np.int64),
             "n_y": pd.Series([], dtype=np.int64),
             "mi": pd.Series([], dtype=np.float64),
             "chi2": pd.Series([], dtype=np.float64),
             "df": pd.Series([], dtype=np.int64),
             "cramers_v": pd.Series([], dtype=np.float64)}
        )
    cells = c["x"].nunique() * c["y"].nunique()
    if cells > 1_000_000:
        # BEFORE pivoting — the dense grid is exactly the allocation
        # the cap exists to prevent
        raise ValueError(
            f"categorical_independence: {cells} grid cells exceeds the "
            "1e6 cap; bucket one of the columns first"
        )
    piv = c.pivot_table(index="x", columns="y", values="n",
                        fill_value=0, aggfunc="sum")
    obs = piv.to_numpy().astype(np.float64)
    n = float(obs.sum())
    cx = obs.sum(axis=1)
    cy = obs.sum(axis=0)
    px = cx / n
    py = cy / n
    pxy = obs / n
    with np.errstate(invalid="ignore", divide="ignore"):
        mi_cells = np.where(
            obs > 0, pxy * np.log(pxy / (px[:, None] * py[None, :])), 0.0
        )
    e = (cx[:, None] * cy[None, :]) / n
    chi2 = float((((obs - e) ** 2) / e).sum())
    mi = float(mi_cells.sum())
    nx, ny = len(cx), len(cy)
    df = (nx - 1) * (ny - 1)
    v = float(np.sqrt(chi2 / (n * (min(nx, ny) - 1)))) if min(nx, ny) > 1 else float("nan")
    return pd.DataFrame(
        {
            "n": [np.int64(n)],
            "n_x": [np.int64(nx)],
            "n_y": [np.int64(ny)],
            "mi": round_half_away(np.array([mi]), round_to),
            "chi2": round_half_away(np.array([chi2]), round_to),
            "df": [np.int64(df)],
            "cramers_v": round_half_away(np.array([v]), round_to),
        }
    )


def independence_sql(
    *,
    table: str = "documents",
    x_col: str = "lang",
    y_col: str = "source",
    round_to: int = 6,
) -> str:
    """DuckDB replay of :func:`categorical_independence`
    (single-generator): full grid via DISTINCT × DISTINCT cross join,
    identical share arithmetic (divide by n first), identical MI
    zero-cell and Cramér's V conventions."""
    return f"""
        WITH base AS (
            SELECT {x_col} AS x, {y_col} AS y FROM {table}
            WHERE {x_col} IS NOT NULL AND {y_col} IS NOT NULL
        ), c AS (
            SELECT x, y, count(*) AS cnt FROM base GROUP BY x, y
        ), grid AS (
            SELECT gx.x, gy.y, coalesce(c.cnt, 0) AS cnt
            FROM (SELECT DISTINCT x FROM c) gx
            CROSS JOIN (SELECT DISTINCT y FROM c) gy
            LEFT JOIN c ON c.x = gx.x AND c.y = gy.y
        ), cx AS (SELECT x, sum(cnt) AS cx FROM grid GROUP BY x),
        cy AS (SELECT y, sum(cnt) AS cy FROM grid GROUP BY y),
        tot AS (
            SELECT sum(cnt) AS n,
                   count(DISTINCT x) AS nx, count(DISTINCT y) AS ny
            FROM c
        ), cells AS (
            SELECT g.cnt, cx.cx, cy.cy, t.n, t.nx, t.ny,
                   CASE WHEN g.cnt > 0
                        THEN (g.cnt / CAST(t.n AS DOUBLE))
                             * ln((g.cnt / CAST(t.n AS DOUBLE))
                                  / ((cx.cx / CAST(t.n AS DOUBLE))
                                     * (cy.cy / CAST(t.n AS DOUBLE))))
                        ELSE 0 END AS mi_cell,
                   pow(g.cnt - (CAST(cx.cx AS DOUBLE) * cy.cy / t.n), 2)
                       / (CAST(cx.cx AS DOUBLE) * cy.cy / t.n) AS chi_cell
            FROM grid g
            JOIN cx ON g.x = cx.x
            JOIN cy ON g.y = cy.y
            CROSS JOIN tot t
        )
        SELECT CAST(max(n) AS BIGINT) AS n,
               CAST(max(nx) AS BIGINT) AS n_x,
               CAST(max(ny) AS BIGINT) AS n_y,
               round(sum(mi_cell), {round_to}) AS mi,
               round(sum(chi_cell), {round_to}) AS chi2,
               CAST((max(nx) - 1) * (max(ny) - 1) AS BIGINT) AS df,
               round(CASE WHEN least(max(nx), max(ny)) > 1
                          THEN sqrt(sum(chi_cell)
                                    / (max(n) * (least(max(nx), max(ny))
                                                 - 1)))
                     END, {round_to}) AS cramers_v
        FROM cells
    """


def fd_audit(
    ds: rd.Dataset,
    *,
    det_col: str,
    dep_col: str,
    round_to: int = 6,
) -> pd.DataFrame:
    """Approximate-functional-dependency audit det_col → dep_col (the
    data-profiling FD check, Huhtala et al.'s TANE framing reduced to
    one candidate): for each determinant value, the dependency holds
    exactly iff all its rows share ONE dependent value; the g3-style
    violation count is rows − the majority dependent's count, i.e. the
    minimum number of rows to delete for the FD to hold.  The
    "is url→host stable / source→lang clean?" screen run before a
    column is trusted as a partition or join key.  Null rows in either
    column drop on both engines.

    Scale shape: per-batch (det, dep) Arrow count partials (grid-sized
    rows leave each task), ONE (det, dep) groupby, then a coarse
    det-hash cogroup folds per-determinant majorities — the driver sees
    ONE row.  Output: (n_groups:int64, exact_groups:int64,
    n_rows:int64, violation_rows:int64, violation_share:f64 rounded —
    NaN on empty input).  SQL replay GENERATED by :func:`fd_audit_sql`."""
    from ray.data.aggregate import Sum as _Sum

    from .collect import collect_tables
    from .dedup import add_key_partition
    from .selection import round_half_away

    def partial(t: pa.Table) -> pa.Table:
        t2 = pa.table({"det": t[det_col], "dep": t[dep_col]}).drop_null()
        return t2.group_by(["det", "dep"]).aggregate([([], "count_all")])

    grid = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby(["det", "dep"])
        .aggregate(_Sum("count_all", alias_name="n"))
    )

    def fold_partition(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(
                {"groups": pd.Series([], dtype=np.int64),
                 "exact": pd.Series([], dtype=np.int64),
                 "rows": pd.Series([], dtype=np.int64),
                 "viol": pd.Series([], dtype=np.int64)}
            )
        agg = g.groupby("det", sort=False)["n"].agg(["sum", "max", "count"])
        return pd.DataFrame(
            {
                "groups": [np.int64(len(agg))],
                "exact": [np.int64((agg["count"] == 1).sum())],
                "rows": [np.int64(agg["sum"].sum())],
                "viol": [np.int64((agg["sum"] - agg["max"]).sum())],
            }
        )

    groups = exact = rows = viol = 0
    for t in collect_tables(
        grid.map_batches(
            lambda t: add_key_partition(t, "det", num_parts=32),
            batch_format="pyarrow",
        )
        .groupby("_part")
        .map_groups(fold_partition, batch_format="pandas"),
        drop_empty=True,
    ):
        for g_, e_, r_, v_ in zip(
            t["groups"].to_pylist(), t["exact"].to_pylist(),
            t["rows"].to_pylist(), t["viol"].to_pylist(),
        ):
            groups += g_
            exact += e_
            rows += r_
            viol += v_
    share = (
        round_half_away(np.array([viol / rows]), round_to)[0]
        if rows
        else np.nan
    )
    return pd.DataFrame(
        {
            "n_groups": pd.Series([groups], dtype=np.int64),
            "exact_groups": pd.Series([exact], dtype=np.int64),
            "n_rows": pd.Series([rows], dtype=np.int64),
            "violation_rows": pd.Series([viol], dtype=np.int64),
            "violation_share": pd.Series([share], dtype=np.float64),
        }
    )


def fd_audit_sql(
    *,
    table: str,
    det_col: str,
    dep_col: str,
    round_to: int = 6,
) -> str:
    """DuckDB replay of :func:`fd_audit` (single-generator): identical
    null handling, majority fold, division order."""
    return f"""
        WITH c AS (
            SELECT {det_col} AS det, {dep_col} AS dep, count(*) AS n
            FROM {table}
            WHERE {det_col} IS NOT NULL AND {dep_col} IS NOT NULL
            GROUP BY 1, 2
        ),
        g AS (
            SELECT det, sum(n) AS rows, count(*) AS k, max(n) AS maj
            FROM c GROUP BY det
        )
        SELECT CAST(count(*) AS BIGINT) AS n_groups,
               CAST(coalesce(sum(CASE WHEN k = 1 THEN 1 ELSE 0 END), 0)
                    AS BIGINT) AS exact_groups,
               CAST(coalesce(sum(rows), 0) AS BIGINT) AS n_rows,
               CAST(coalesce(sum(rows - maj), 0) AS BIGINT)
                   AS violation_rows,
               round(sum(rows - maj) * 1.0 / sum(rows), {round_to})
                   AS violation_share
        FROM g
    """


def ref_integrity(
    child: rd.Dataset,
    parent: rd.Dataset,
    *,
    fk_col: str,
    pk_col: str,
    round_to: int = 6,
    broadcast_cap: int = 50_000_000,
) -> pd.DataFrame:
    """Referential-integrity audit child.fk → parent.pk: orphan rows
    (child rows whose non-null fk has no parent), distinct missing
    keys, orphan share — the cross-table data-quality gate run before a
    join key is trusted.  Null fks are NOT orphans (SQL semantics: a
    null fk matches nothing but is vacuously "not broken"); they are
    counted separately.

    Scale shape: parent's distinct key set folds through ONE groupby
    and broadcasts once via ``ray.put`` (loud ``broadcast_cap``; for
    parents too big to broadcast, run ``sketches.bloom_anti_join`` on
    the child and aggregate its output instead — same answer, Bloom
    path).  One scan of child computes per-batch orphan partials; the
    distinct missing keys fold through a missing-key groupby bounded by
    the orphan key vocabulary.  Output: ONE row (n_child:int64,
    n_null_fk:int64, n_orphan_rows:int64, n_missing_keys:int64,
    orphan_share:f64 — orphans / non-null-fk rows, NaN when none).
    SQL replay GENERATED by :func:`ref_integrity_sql`."""
    import ray as _ray

    from ray.data.aggregate import Count as _Count, Sum as _Sum

    from .collect import cached_ref, collect_tables
    from .selection import round_half_away

    pk = parent.select_columns([pk_col]).groupby(pk_col).aggregate(
        _Count(alias_name="_c")
    )
    keys: list = []
    for t in collect_tables(pk, drop_empty=True):
        keys.extend(t[pk_col].drop_null().to_pylist())
        if len(keys) > broadcast_cap:
            raise ValueError(
                f"ref_integrity: parent key set exceeds broadcast_cap="
                f"{broadcast_cap}; use sketches.bloom_anti_join for the "
                "orphan rows and aggregate its output"
            )
    key_arr = pa.array(sorted(keys))
    ref = _ray.put(key_arr)

    # one scan emitting a tagged union: a counts row + the batch's
    # distinct missing keys (null-n rows)
    def scan(t: pa.Table, _ref=ref) -> pa.Table:
        import pyarrow.compute as pc

        ks = cached_ref(_ref)
        fk = t[fk_col]
        n = len(fk)
        n_null = int(pc.sum(pc.is_null(fk)).as_py() or 0)
        nn = fk.drop_null().combine_chunks() if isinstance(fk, pa.ChunkedArray) else fk.drop_null()
        # empty parent key set has Arrow type null, and an int32 parent
        # vs int64 child makes is_in raise — align to the child's type.
        # Parent keys NOT representable in the child type can never
        # match (SQL join coercion semantics), so they are dropped via
        # a round-trip check rather than letting a narrowing cast raise
        # (or, worse, wrap onto a spuriously-matching value).
        if len(ks) == 0:
            ks = pa.array([], type=nn.type)
        elif not ks.type.equals(nn.type):
            try:
                down = pc.cast(ks, nn.type, safe=False)
                back = pc.cast(down, ks.type, safe=False)
                ks = down.filter(pc.fill_null(pc.equal(back, ks), False))
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                ks = pa.array([], type=nn.type)  # nothing representable
        hit = pc.fill_null(pc.is_in(nn, value_set=ks), False)
        miss = nn.filter(pc.invert(hit))
        miss_u = pc.unique(miss)
        counts = pa.table(
            {
                "k": pa.nulls(1, type=miss_u.type),
                "n": pa.array([n], type=pa.int64()),
                "n_null": pa.array([n_null], type=pa.int64()),
                "n_orphan": pa.array([len(miss)], type=pa.int64()),
            }
        )
        missing = pa.table(
            {
                "k": miss_u,
                "n": pa.nulls(len(miss_u), type=pa.int64()),
                "n_null": pa.nulls(len(miss_u), type=pa.int64()),
                "n_orphan": pa.nulls(len(miss_u), type=pa.int64()),
            }
        )
        return pa.concat_tables([counts, missing])

    folded = child.map_batches(scan, batch_format="pyarrow")
    n_child = n_null = n_orphan = 0
    miss_keys: set = set()
    for t in collect_tables(folded, drop_empty=True):
        for k_, n_, nl_, no_ in zip(
            t["k"].to_pylist(), t["n"].to_pylist(),
            t["n_null"].to_pylist(), t["n_orphan"].to_pylist(),
        ):
            if n_ is None:
                miss_keys.add(k_)
            else:
                n_child += n_
                n_null += nl_
                n_orphan += no_
    nn_rows = n_child - n_null
    share = (
        round_half_away(np.array([n_orphan / nn_rows]), round_to)[0]
        if nn_rows
        else np.nan
    )
    return pd.DataFrame(
        {
            "n_child": pd.Series([n_child], dtype=np.int64),
            "n_null_fk": pd.Series([n_null], dtype=np.int64),
            "n_orphan_rows": pd.Series([n_orphan], dtype=np.int64),
            "n_missing_keys": pd.Series([len(miss_keys)], dtype=np.int64),
            "orphan_share": pd.Series([share], dtype=np.float64),
        }
    )


def ref_integrity_sql(
    *,
    child_table: str,
    parent_table: str,
    fk_col: str,
    pk_col: str,
    round_to: int = 6,
) -> str:
    """DuckDB replay of :func:`ref_integrity` (single-generator), zeros on an empty child."""
    return f"""
        WITH pk AS (SELECT DISTINCT {pk_col} AS k FROM {parent_table}
                    WHERE {pk_col} IS NOT NULL),
        j AS (
            SELECT c.{fk_col} AS fk, pk.k AS hit
            FROM {child_table} c LEFT JOIN pk ON c.{fk_col} = pk.k
        )
        SELECT CAST(count(*) AS BIGINT) AS n_child,
               CAST(coalesce(sum(CASE WHEN fk IS NULL THEN 1 ELSE 0 END), 0)
                    AS BIGINT) AS n_null_fk,
               CAST(coalesce(sum(CASE WHEN fk IS NOT NULL AND hit IS NULL
                                      THEN 1 ELSE 0 END), 0) AS BIGINT)
                   AS n_orphan_rows,
               CAST(count(DISTINCT CASE WHEN fk IS NOT NULL AND hit IS NULL
                                        THEN fk END) AS BIGINT)
                   AS n_missing_keys,
               round(sum(CASE WHEN fk IS NOT NULL AND hit IS NULL
                              THEN 1 ELSE 0 END) * 1.0
                     / sum(CASE WHEN fk IS NOT NULL THEN 1 ELSE 0 END),
                     {round_to}) AS orphan_share
        FROM j
    """
