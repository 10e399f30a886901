"""Per-key linear trend — grouped ordinary-least-squares slope /
intercept / R² of value against time, the drift detector analytics
pipelines run per user / per host / per source (is this host's quality
score degrading? is this user's spend trending up?).

The whole regression reduces to per-key SUFFICIENT STATISTICS
(n, Σx, Σy, Σxy, Σx², Σy²), so the scale shape is the TPC-H-Q1
pattern: one shuffle-free ``map_batches`` scan emits per-batch per-key
moment partials (an Arrow group_by inside the batch — the map-side
combiner), ONE tiny ``groupby(key)`` sum over key-count-sized rows,
and a final shuffle-free compute scan.  No row-count-sized state ever
reaches the driver.

x is time in DAYS from a fixed origin (``(epoch_us - origin) /
86 400 000 000.0`` — the same IEEE double division on both engines);
the small magnitudes keep every moment well inside float64's exact
range so the engine's fold order and the oracle's scan order agree to
~1e-12, absorbed by the shared 6-decimal rounding.

Degenerate keys (n < 2, or x-variance below ``var_eps``) report
slope 0 / intercept = mean(y) / r2 0 — thresholded, not ==0, so an
ulp-level disagreement between engines can never flip the branch
(:func:`grouped_trend_sql` replays the same threshold).

Textbook formulas (replayed exactly by the oracle):

    vx  = n*Σxx - Σx²         vy  = n*Σyy - Σy²
    cov = n*Σxy - Σx*Σy
    slope = cov / vx          intercept = (Σy - slope*Σx) / n
    r2 = cov² / (vx * vy)     (0 when vy <= var_eps)
"""

from __future__ import annotations

import math
import pandas as pd
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data.aggregate import Count, Sum

# epoch_us of 2024-01-01 00:00:00 UTC — the x origin used by the
# events-table query (any fixed origin works; both generators share it)
DEFAULT_ORIGIN_US = 1_704_067_200_000_000
US_PER_DAY = 86_400_000_000.0


def grouped_linear_trend(
    ds: rd.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    origin_us: int = DEFAULT_ORIGIN_US,
    var_eps: float = 1e-9,
    round_to: int = 6,
) -> rd.Dataset:
    """Per-key OLS trend of value vs time-in-days.  Output: (key,
    n:int64, slope, intercept, r2 — float64 rounded).  See module
    docstring for semantics and the scale shape."""

    def partial(t: pa.Table) -> pa.Table:
        # normalize to µs first: pandas-born blocks carry timestamp[ns]
        x = (
            t[ts_col].cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
            - origin_us
        ) / US_PER_DAY
        y = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        aug = pa.table(
            {
                key_col: t[key_col],
                "x": pa.array(x),
                "y": pa.array(y),
                "xy": pa.array(x * y),
                "xx": pa.array(x * x),
                "yy": pa.array(y * y),
            }
        )
        return aug.group_by([key_col]).aggregate(
            [("x", "sum"), ("y", "sum"), ("xy", "sum"), ("xx", "sum"),
             ("yy", "sum"), ("x", "count")]
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby(key_col)
        .aggregate(
            Sum("x_sum", alias_name="sx"),
            Sum("y_sum", alias_name="sy"),
            Sum("xy_sum", alias_name="sxy"),
            Sum("xx_sum", alias_name="sxx"),
            Sum("yy_sum", alias_name="syy"),
            Sum("x_count", alias_name="n"),
        )
    )

    f = 10.0**round_to

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        sx = t["sx"].to_numpy(zero_copy_only=False)
        sy = t["sy"].to_numpy(zero_copy_only=False)
        sxy = t["sxy"].to_numpy(zero_copy_only=False)
        sxx = t["sxx"].to_numpy(zero_copy_only=False)
        syy = t["syy"].to_numpy(zero_copy_only=False)
        vx = n * sxx - sx * sx
        vy = n * syy - sy * sy
        cov = n * sxy - sx * sy
        ok = (n >= 2) & (vx > var_eps)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(ok, cov / np.where(ok, vx, 1.0), 0.0)
            r2 = np.where(
                ok & (vy > var_eps),
                (cov * cov) / np.where(vy > var_eps, vx * vy, 1.0),
                0.0,
            )
        intercept = (sy - slope * sx) / n

        def rnd(a: np.ndarray) -> np.ndarray:
            return np.sign(a) * np.floor(np.abs(a) * f + 0.5) / f

        return pa.table(
            {
                key_col: t[key_col],
                "n": pa.array(n.astype(np.int64)),
                "slope": pa.array(rnd(slope)),
                "intercept": pa.array(rnd(intercept)),
                "r2": pa.array(rnd(r2)),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def grouped_trend_sql(
    *,
    table: str = "events",
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    origin_us: int = DEFAULT_ORIGIN_US,
    var_eps: float = 1e-9,
    round_to: int = 6,
) -> str:
    """DuckDB replay of :func:`grouped_linear_trend`, generated from the
    SAME parameters (single-generator policy): the identical sufficient
    statistics, thresholds, and textbook formulas — deliberately NOT
    regr_slope/regr_r2, whose internal centering would differ from the
    engine's fold at the ulp level."""
    eps = repr(float(var_eps))
    return f"""
        WITH pts AS (
          SELECT {key_col} AS k,
                 (epoch_us({ts_col}) - {origin_us}) / {US_PER_DAY!r} AS x,
                 CAST({value_col} AS DOUBLE) AS y
          FROM {table}
        ),
        s AS (
          SELECT k, CAST(count(*) AS DOUBLE) AS n,
                 sum(x) AS sx, sum(y) AS sy, sum(x * y) AS sxy,
                 sum(x * x) AS sxx, sum(y * y) AS syy
          FROM pts GROUP BY k
        ),
        m AS (
          SELECT k, n, sx, sy,
                 n * sxx - sx * sx AS vx,
                 n * syy - sy * sy AS vy,
                 n * sxy - sx * sy AS cov
          FROM s
        ),
        sl AS (
          SELECT k, n, sx, sy, vx, vy, cov,
                 CASE WHEN n >= 2 AND vx > {eps}
                      THEN cov / vx ELSE 0.0 END AS slope
          FROM m
        )
        SELECT k AS {key_col},
               CAST(n AS BIGINT) AS n,
               round(slope, {round_to}) AS slope,
               round((sy - slope * sx) / n, {round_to}) AS intercept,
               round(CASE WHEN n >= 2 AND vx > {eps} AND vy > {eps}
                     THEN (cov * cov) / (vx * vy) ELSE 0.0 END,
                     {round_to}) AS r2
        FROM sl
    """


def period_over_period(
    ds: "rd.Dataset",
    *,
    key_col: str = "event_type",
    ts_col: str = "ts",
    value_col: str = "value",
    period: str = "day",
) -> "pd.DataFrame":
    """Period-over-period change per key (period ∈ {'day', 'month'}):
    per-period value totals, each period's previous total (lag over
    EXISTING periods — calendar-sparse, same as SQL lag) and the
    relative change ``(total - prev) / prev`` — the drift dashboard
    next to the OLS trend (grouped_linear_trend).  First period per key
    drops (no lag).

    Scale shape: the TPC-H-Q1 partial pattern — per-batch period-floor
    + (key, period) Arrow-group partials, ONE keys×periods-sized
    groupby sum, and a keys×periods driver fold for the lag (bounded by
    key and calendar cardinality, never event rows)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    unit = {"day": "datetime64[D]", "month": "datetime64[M]"}
    if period not in unit:
        raise ValueError(f"period must be day or month, got {period!r}")

    def partial(t: pa.Table) -> pa.Table:
        ts = t[ts_col].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        p = ts.astype(unit[period]).astype("datetime64[us]")
        df = pd.DataFrame(
            {
                key_col: t[key_col].to_pandas(),
                "period": p,
                "_v": t[value_col].to_numpy(zero_copy_only=False).astype(
                    np.float64
                ),
            }
        )
        r = df.groupby([key_col, "period"], sort=False)["_v"].sum().reset_index()
        return pa.Table.from_pandas(r, preserve_index=False)

    totals = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby([key_col, "period"])
        .aggregate(Sum("_v", alias_name="total"))
        .to_pandas()
    )
    totals = totals.sort_values([key_col, "period"], kind="mergesort")
    totals["prev_total"] = totals.groupby(key_col)["total"].shift(1)
    out = totals[totals["prev_total"].notna()].copy()
    out["pct_change"] = (out["total"] - out["prev_total"]) / out["prev_total"]
    return out.reset_index(drop=True)


def recency_weighted_mean(
    ds,
    *,
    key_col: str,
    value_col: str,
    ts_col: str = "ts",
    half_life_days: float = 7.0,
) -> "pd.DataFrame":
    """Per-key exponentially recency-weighted mean of ``value_col``
    (EWMA-at-a-point): weight_i = 2^(−age_days_i / half_life) with age
    measured from the corpus max(ts) — the host-reputation / drifting-
    quality signal where last week's errors matter more than last
    year's.  Unlike a running EWMA this closed form needs NO sequential
    pass: it is a pair of weighted sums, so it folds exactly like the
    OLS trend.

    Scale shape: pass 1 folds max(ts) from one-row per-batch partials;
    pass 2 is one shuffle-free scan of per-batch per-key
    (Σw·v, Σw, n) partials (Arrow group_by as the map-side combiner)
    into ONE key-count-sized groupby, finished on the driver.  Output:
    (key, n, w_sum, rw_mean) rounded to 6 (sums are float — partial
    order drift absorbed by rounding, the q01 convention)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from .collect import collect_table
    from .selection import round_half_away

    def max_partial(t: pa.Table) -> pa.Table:
        return pa.table({"m": pa.array([pc.max(t[ts_col]).as_py()])})

    parts = collect_table(
        ds.map_batches(max_partial, batch_format="pyarrow")
    ).to_pandas()
    ref = pd.Timestamp(parts["m"].max())
    ref_us = np.int64(ref.value // 1000)

    def partial(t: pa.Table) -> pa.Table:
        ts = t[ts_col].cast(pa.timestamp("us")).to_numpy(zero_copy_only=False)
        age_days = (ref_us - ts.astype(np.int64)) / 86_400_000_000.0
        w = np.exp2(-age_days / float(half_life_days))
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        g = pa.table(
            {
                key_col: t[key_col],
                "wv": pa.array(w * v, type=pa.float64()),
                "w": pa.array(w, type=pa.float64()),
            }
        ).group_by([key_col]).aggregate(
            [("wv", "sum"), ("w", "sum"), ("w", "count")]
        )
        return g.rename_columns([key_col, "wv", "w", "n"])

    out = collect_table(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby(key_col)
        .aggregate(
            Sum("wv", alias_name="wv"),
            Sum("w", alias_name="w_sum"),
            Sum("n", alias_name="n"),
        )
    ).to_pandas()
    out["n"] = out["n"].astype(np.int64)
    out["rw_mean"] = round_half_away(
        (out["wv"] / out["w_sum"]).to_numpy(np.float64), 6
    )
    out["w_sum"] = round_half_away(out["w_sum"].to_numpy(np.float64), 6)
    return (
        out[[key_col, "n", "w_sum", "rw_mean"]]
        .sort_values(key_col)
        .reset_index(drop=True)
    )


def recency_weighted_sql(
    *,
    table: str = "events",
    key_col: str = "event_type",
    value_col: str = "value",
    ts_col: str = "ts",
    half_life_days: float = 7.0,
) -> str:
    """DuckDB replay of :func:`recency_weighted_mean` (single-generator
    policy): identical weight formula, identical age arithmetic
    (microsecond epoch difference / 86.4e9, pow(2, −x))."""
    hl = float(half_life_days)
    return f"""
        WITH ref AS (
          SELECT epoch_us(max({ts_col})) AS ref_us FROM {table}
        ),
        w AS (
          SELECT {key_col},
                 {value_col} AS v,
                 pow(2.0, -((ref.ref_us - epoch_us({ts_col}))
                            / 86400000000.0) / {hl!r}) AS w
          FROM {table} CROSS JOIN ref
        )
        SELECT {key_col}, CAST(count(*) AS BIGINT) AS n,
               round(sum(w), 6) AS w_sum,
               round(sum(w * v) / sum(w), 6) AS rw_mean
        FROM w GROUP BY {key_col}
    """


def daily_burst(
    ds,
    *,
    key_col: str = "event_type",
    ts_col: str = "ts",
    value_col: str = "value",
    window: int = 7,
    min_hist: int = 3,
) -> "pd.DataFrame":
    """Burst detection over per-key daily totals: each day's total is
    z-scored against the TRAILING ``window`` days (row-frame, needs
    ``min_hist`` history) — the traffic-spike / bot-storm monitor
    composing the q166 lag family with rolling moments.  Output:
    (key, day, total, trail_mean, trail_sd, zscore) for days with
    enough history; sd is the explicit textbook form
    sqrt((Σx² − n·μ²)/(n−1)) so the SQL replay is the IDENTICAL
    expression (not the engine-internal stddev_samp).

    Scale shape: per-batch (key, day) partials → ONE keys×days groupby
    → a keys×days driver fold (daily series are tiny by construction).
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from .collect import collect_table
    from .selection import round_half_away

    def partial(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t[ts_col].cast(pa.timestamp("us")), unit="day")
        g = pa.table(
            {"k": t[key_col], "day": day, "v": t[value_col]}
        ).group_by(["k", "day"]).aggregate([("v", "sum")])
        return g.rename_columns(["k", "day", "t"])

    daily = (
        collect_table(
            ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
            .groupby(["k", "day"])
            .aggregate(Sum("t", alias_name="t"))
        )
        .to_pandas()
        .sort_values(["k", "day"])
        .reset_index(drop=True)
    )
    rows = []
    for key, sub in daily.groupby("k", sort=True):
        t = sub["t"].to_numpy(np.float64)
        days = sub["day"].to_numpy()
        for i in range(len(t)):
            lo = max(0, i - window)
            hist = t[lo:i]
            n = len(hist)
            if n < min_hist:
                continue
            s1 = float(hist.sum())
            s2 = float((hist * hist).sum())
            mu = s1 / n
            sd = math.sqrt(max((s2 - n * mu * mu) / (n - 1), 0.0))
            if sd == 0.0:
                # constant history: z undefined — excluded on BOTH sides
                # (the SQL generator filters sd > 0 identically)
                continue
            rows.append((key, days[i], t[i], mu, sd, (t[i] - mu) / sd))
    out = pd.DataFrame(
        rows, columns=[key_col, "day", "total", "trail_mean", "trail_sd",
                       "zscore"]
    )
    for c in ("total", "trail_mean", "trail_sd", "zscore"):
        out[c] = round_half_away(out[c].to_numpy(np.float64), 6)
    return out


def daily_burst_sql(
    *,
    table: str = "events",
    key_col: str = "event_type",
    ts_col: str = "ts",
    value_col: str = "value",
    window: int = 7,
    min_hist: int = 3,
) -> str:
    """DuckDB replay of :func:`daily_burst` (single-generator policy):
    windowed Σ and Σx² with the identical explicit sd expression."""
    frame = f"ROWS BETWEEN {window} PRECEDING AND 1 PRECEDING"
    return f"""
        WITH m AS (
          SELECT {key_col} AS k, date_trunc('day', {ts_col}) AS day,
                 sum({value_col}) AS t
          FROM {table} GROUP BY k, date_trunc('day', {ts_col})
        ),
        w AS (
          SELECT k, day, t,
                 count(t) OVER (PARTITION BY k ORDER BY day {frame}) AS n,
                 sum(t) OVER (PARTITION BY k ORDER BY day {frame}) AS s1,
                 sum(t * t) OVER (PARTITION BY k ORDER BY day {frame}) AS s2
          FROM m
        )
        SELECT k AS {key_col}, CAST(day AS TIMESTAMP) AS day,
               round(t, 6) AS total,
               round(s1 / n, 6) AS trail_mean,
               round(sqrt(greatest((s2 - n * (s1/n) * (s1/n)) / (n - 1),
                                   0.0)), 6) AS trail_sd,
               round((t - s1 / n)
                     / sqrt(greatest((s2 - n * (s1/n) * (s1/n)) / (n - 1),
                                     0.0)), 6) AS zscore
        FROM w
        WHERE n >= {min_hist}
          AND sqrt(greatest((s2 - n * (s1/n) * (s1/n)) / (n - 1), 0.0)) > 0
    """


def grouped_spearman(
    ds: rd.Dataset,
    *,
    group_col: str = "event_type",
    x_col: str = "x",
    y_col: str = "y",
    num_parts: int = 32,
    round_to: int = 6,
) -> pd.DataFrame:
    """Per-group Spearman rank correlation of x vs y — the monotone-
    association drift detector (is a source's quality score still
    tracking document length? is a metric decaying with time?) that is
    robust to the outliers Pearson (q157) is not.

    Ranks use the AVERAGE-tie convention (pandas rank(method="average")
    == SQL rank() + (tie_count-1)/2 — replayed by :func:`spearman_sql`)
    and are centered by (n+1)/2 before the moment sums, so every term
    is a multiple of 0.25 bounded by n²/4: the engine/oracle fold-order
    FP drift stays ~n·ulp, absorbed by the shared rounding.  rho =
    Σdxdy / sqrt(Σdx²·Σdy²); degenerate groups (all-tied on either
    axis: Σd² == 0, exact on both engines) are excluded on both sides.

    Scale shape: ONE coarse group-hash partition shuffle
    (add_key_partition — each group lands wholly in one partition,
    ranked vectorized inside), group-count-sized driver fold.  Groups
    are assumed worker-sized (event types / sources / hosts); corpus-
    sized single groups belong to the moment-partial family (q157),
    not a rank statistic.
    """
    from .dedup import add_key_partition
    from .selection import round_half_away

    def rank_partition(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for key, grp in g.groupby(group_col, sort=False, dropna=False):
            n = len(grp)
            if n < 2:
                continue
            rx = grp[x_col].rank(method="average").to_numpy(np.float64)
            ry = grp[y_col].rank(method="average").to_numpy(np.float64)
            c = (n + 1) / 2.0
            dx, dy = rx - c, ry - c
            sxx = float(np.dot(dx, dx))
            syy = float(np.dot(dy, dy))
            if sxx <= 0.0 or syy <= 0.0:
                continue  # all-tied axis: rho undefined, excluded both sides
            rows.append((key, n, float(np.dot(dx, dy)) / math.sqrt(sxx * syy)))
        return pd.DataFrame(rows, columns=[group_col, "n", "spearman"])

    parts = (
        ds.map_batches(
            lambda t: add_key_partition(t, group_col, num_parts=num_parts),
            batch_format="pyarrow",
        )
        .groupby("_part")
        .map_groups(rank_partition, batch_format="pandas")
    )
    out = parts.to_pandas()
    if out.empty:
        return pd.DataFrame(
            {
                group_col: pd.Series([], dtype=object),
                "n": pd.Series([], dtype=np.int64),
                "spearman": pd.Series([], dtype=np.float64),
            }
        )
    out["n"] = out["n"].astype(np.int64)
    out["spearman"] = round_half_away(
        out["spearman"].to_numpy(np.float64), round_to
    )
    return out.sort_values(group_col).reset_index(drop=True)


def spearman_sql(
    *,
    table: str = "events",
    group_col: str = "event_type",
    x_expr: str = "epoch_us(ts)",
    y_expr: str = "value",
    where: str = "value IS NOT NULL",
) -> str:
    """DuckDB replay of :func:`grouped_spearman` (single-generator
    policy): average-tie rank = rank() + (tie_count-1)/2, the identical
    centering and the identical one division + sqrt."""
    return f"""
        WITH f AS (
          SELECT {group_col} AS g, {x_expr} AS x, {y_expr} AS y
          FROM {table} WHERE {where}
        ),
        r AS (
          SELECT g,
                 rank() OVER (PARTITION BY g ORDER BY x)
                   + (count(*) OVER (PARTITION BY g, x) - 1) / 2.0 AS rx,
                 rank() OVER (PARTITION BY g ORDER BY y)
                   + (count(*) OVER (PARTITION BY g, y) - 1) / 2.0 AS ry,
                 count(*) OVER (PARTITION BY g) AS n
          FROM f
        ),
        c AS (
          SELECT g, n, rx - (n + 1) / 2.0 AS dx, ry - (n + 1) / 2.0 AS dy
          FROM r WHERE n >= 2
        ),
        s AS (
          SELECT g, max(n) AS n, sum(dx * dy) AS sxy,
                 sum(dx * dx) AS sxx, sum(dy * dy) AS syy
          FROM c GROUP BY g
        )
        SELECT g AS {group_col}, CAST(n AS BIGINT) AS n,
               round(sxy / sqrt(sxx * syy), 6) AS spearman
        FROM s WHERE sxx > 0 AND syy > 0
    """


def welch_drift(
    ds: rd.Dataset,
    *,
    key_col: str = "event_type",
    ts_col: str = "ts",
    value_col: str = "value",
    split_us: int = 0,
    round_to: int = 6,
) -> pd.DataFrame:
    """Per-key Welch two-sample comparison of value between the EARLY
    (ts < split) and LATE (ts >= split) halves of the stream — the
    "did this metric shift?" significance layer on top of the
    mean-delta drift report (q190).

    Sample variance is the EXPLICIT textbook expression on both sides
    ((Σx² - n·m²)/(n-1), not engine-internal var_samp):
        t  = (m1 - m2) / sqrt(v1/n1 + v2/n2)
        df = (v1/n1 + v2/n2)² / ((v1/n1)²/(n1-1) + (v2/n2)²/(n2-1))
    Keys missing a side, sides with n < 2, or zero pooled variance are
    excluded identically on both engines (the v1+v2 > 0 test is exact
    only up to FP fold order — guarded by requiring BOTH engines to
    compute it from the same rounded-free expression; all-constant
    sides yield exactly 0 on both).

    Scale shape: TPC-H-Q1 moment partials per (key, side) — one
    shuffle-free scan, ONE tiny groupby, a finish scan; nothing
    row-count-sized leaves any task.
    """
    from .selection import round_half_away

    def partial(t: pa.Table) -> pa.Table:
        v = t[value_col]
        mask = pc.is_valid(v)
        t2 = t.filter(mask)
        x = t2[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ts = (
            t2[ts_col].cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        late = (ts >= split_us).astype(np.int64)
        aug = pa.table(
            {
                key_col: t2[key_col],
                "late": pa.array(late),
                "x": pa.array(x),
                "xx": pa.array(x * x),
            }
        )
        return aug.group_by([key_col, "late"]).aggregate(
            [("x", "sum"), ("xx", "sum"), ("x", "count")]
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby([key_col, "late"])
        .aggregate(
            Sum("x_sum", alias_name="s1"),
            Sum("xx_sum", alias_name="s2"),
            Sum("x_count", alias_name="n"),
        )
    )
    df = agg.to_pandas()  # 2 rows per key — key-count-sized
    early = df[df["late"] == 0].set_index(key_col)
    late = df[df["late"] == 1].set_index(key_col)
    keys = sorted(set(early.index) & set(late.index))
    rows = []
    for k in keys:
        n1, n2 = int(early.loc[k, "n"]), int(late.loc[k, "n"])
        if n1 < 2 or n2 < 2:
            continue
        s11, s21 = float(early.loc[k, "s1"]), float(early.loc[k, "s2"])
        s12, s22 = float(late.loc[k, "s1"]), float(late.loc[k, "s2"])
        m1, m2 = s11 / n1, s12 / n2
        v1 = (s21 - n1 * m1 * m1) / (n1 - 1)
        v2 = (s22 - n2 * m2 * m2) / (n2 - 1)
        se2 = v1 / n1 + v2 / n2
        if se2 <= 0.0:
            continue
        t_stat = (m1 - m2) / math.sqrt(se2)
        dof = (se2 * se2) / (
            (v1 / n1) * (v1 / n1) / (n1 - 1) + (v2 / n2) * (v2 / n2) / (n2 - 1)
        )
        rows.append((k, n1, n2, m1, m2, t_stat, dof))
    out = pd.DataFrame(
        rows,
        columns=[key_col, "n_early", "n_late", "mean_early", "mean_late",
                 "welch_t", "welch_df"],
    )
    for c in ("mean_early", "mean_late", "welch_t", "welch_df"):
        out[c] = round_half_away(out[c].to_numpy(np.float64), round_to)
    out["n_early"] = out["n_early"].astype(np.int64)
    out["n_late"] = out["n_late"].astype(np.int64)
    return out


def welch_drift_sql(
    *,
    table: str = "events",
    key_col: str = "event_type",
    ts_col: str = "ts",
    value_col: str = "value",
    split_expr: str = "TIMESTAMP '2024-01-16'",
) -> str:
    """DuckDB replay of :func:`welch_drift` (single-generator policy):
    per-(key, side) moments, the identical explicit variance / t / df
    expressions, the identical exclusion rules."""
    return f"""
        WITH m AS (
          SELECT {key_col} AS k,
                 CASE WHEN {ts_col} >= {split_expr} THEN 1 ELSE 0 END AS late,
                 sum({value_col}) AS s1, sum({value_col} * {value_col}) AS s2,
                 count({value_col}) AS n
          FROM {table} WHERE {value_col} IS NOT NULL
          GROUP BY 1, 2
        ),
        j AS (
          SELECT e.k,
                 e.n AS n1, l.n AS n2,
                 e.s1 / e.n AS m1, l.s1 / l.n AS m2,
                 (e.s2 - e.n * (e.s1/e.n) * (e.s1/e.n)) / (e.n - 1) AS v1,
                 (l.s2 - l.n * (l.s1/l.n) * (l.s1/l.n)) / (l.n - 1) AS v2
          FROM m e JOIN m l ON e.k = l.k AND e.late = 0 AND l.late = 1
          WHERE e.n >= 2 AND l.n >= 2
        )
        SELECT k AS {key_col},
               CAST(n1 AS BIGINT) AS n_early, CAST(n2 AS BIGINT) AS n_late,
               round(m1, 6) AS mean_early, round(m2, 6) AS mean_late,
               round((m1 - m2) / sqrt(v1/n1 + v2/n2), 6) AS welch_t,
               round((v1/n1 + v2/n2) * (v1/n1 + v2/n2)
                     / ((v1/n1) * (v1/n1) / (n1 - 1)
                        + (v2/n2) * (v2/n2) / (n2 - 1)), 6) AS welch_df
        FROM j WHERE v1/n1 + v2/n2 > 0
    """


def ks_drift(
    ds: rd.Dataset,
    *,
    key_col: str = "event_type",
    ts_col: str = "ts",
    value_col: str = "value",
    split_us: int = 0,
    num_parts: int = 32,
    round_to: int = 6,
) -> rd.Dataset:
    """Per-key exact two-sample Kolmogorov-Smirnov statistic between the
    EARLY (ts < split) and LATE (ts >= split) halves of the stream —
    the DISTRIBUTION-shift layer the mean tests miss (Welch (q205) is
    blind to a variance blow-up or a bimodal split with an unchanged
    mean; KS is not).  D = max over observed values of
    |F_early(v) - F_late(v)| with both ECDFs evaluated at every
    distinct value of the key; ks_stat = D * sqrt(n1*n2/(n1+n2)) (the
    asymptotic normalization; >= ~1.36 rejects at 5%).  Keys missing a
    side drop on both engines.

    Scale shape: a per-batch (key, value) count partial collapses the
    scan to distinct-value rows, ONE coarse key-hash shuffle co-locates
    each key's distinct values, and the per-partition pass is one
    lexsort + segment cumsums — the per-key state is distinct-value-
    sized, never row-count-sized, and the output streams from
    map_groups (one row per key).  Output: (key, n_early:int64,
    n_late:int64, ks_d:f64, ks_stat:f64 — rounded).  SQL replay:
    single-generator :func:`ks_drift_sql`."""
    from .dedup import add_key_partition
    from .selection import round_half_away

    def partial(t: pa.Table) -> pa.Table:
        t2 = t.filter(pc.is_valid(t[value_col]))
        ts = (
            t2[ts_col].cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        early = (ts < split_us).astype(np.int64)
        aug = pa.table(
            {
                key_col: t2[key_col],
                "v": t2[value_col],
                "a": pa.array(early),
                "b": pa.array(1 - early),
            }
        )
        return aug.group_by([key_col, "v"]).aggregate(
            [("a", "sum"), ("b", "sum")]
        ).rename_columns([key_col, "v", "a", "b"])

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                key_col: pd.Series([], dtype=g[key_col].dtype),
                "n_early": pd.Series([], dtype=np.int64),
                "n_late": pd.Series([], dtype=np.int64),
                "ks_d": pd.Series([], dtype=np.float64),
                "ks_stat": pd.Series([], dtype=np.float64),
            }
        )
        if not len(g):
            return empty
        # merge per-batch partials FIRST: the same (key, value) arriving
        # from two batches would otherwise create a spurious mid-value
        # ECDF evaluation point and inflate D (e.g. a value occurring
        # 100x early in one batch and 100x late in another reads D=1.0
        # where the true D=0.0)
        g = g.groupby([key_col, "v"], sort=False)[["a", "b"]].sum().reset_index()
        keys = g[key_col].to_numpy()
        v = g["v"].to_numpy().astype(np.float64)
        a = g["a"].to_numpy().astype(np.int64)
        b = g["b"].to_numpy().astype(np.int64)
        order = np.lexsort((v, keys))
        keys, a, b = keys[order], a[order], b[order]
        new = np.empty(len(keys), dtype=bool)
        new[0] = True
        new[1:] = keys[1:] != keys[:-1]
        seg = np.cumsum(new) - 1
        nseg = int(seg[-1]) + 1
        n1 = np.bincount(seg, weights=a, minlength=nseg).astype(np.int64)
        n2 = np.bincount(seg, weights=b, minlength=nseg).astype(np.int64)
        # segmented cumulative counts (reset at key boundaries)
        ca = np.cumsum(a)
        cb = np.cumsum(b)
        seg_first = np.flatnonzero(new)[seg]
        ca = ca - np.where(seg_first > 0, ca[np.maximum(seg_first - 1, 0)], 0)
        cb = cb - np.where(seg_first > 0, cb[np.maximum(seg_first - 1, 0)], 0)
        keep = (n1 > 0) & (n2 > 0)
        if not keep.any():
            return empty
        n1f = n1[seg].astype(np.float64)
        n2f = n2[seg].astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            diff = np.abs(ca / n1f - cb / n2f)
        d = np.zeros(nseg, dtype=np.float64)
        np.maximum.at(d, seg, np.where(np.isfinite(diff), diff, 0.0))
        n1k, n2k, dk = n1[keep], n2[keep], d[keep]
        n1kf, n2kf = n1k.astype(np.float64), n2k.astype(np.float64)
        stat = dk * np.sqrt(n1kf * n2kf / (n1kf + n2kf))
        return pd.DataFrame(
            {
                key_col: keys[new][keep],
                "n_early": n1k,
                "n_late": n2k,
                "ks_d": round_half_away(dk, round_to),
                "ks_stat": round_half_away(stat, round_to),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .map_batches(
            lambda t: add_key_partition(t, key_col, num_parts=num_parts),
            batch_format="pyarrow",
        )
        .groupby("_part")
        .map_groups(per_partition, batch_format="pandas")
    )


def ks_drift_sql(
    *,
    table: str = "events",
    key_col: str = "event_type",
    ts_col: str = "ts",
    value_col: str = "value",
    split_expr: str = "TIMESTAMP '2024-01-16'",
    round_to: int = 6,
) -> str:
    """DuckDB replay of :func:`ks_drift` (single-generator): distinct-
    value counts per side, ROWS-framed cumulative sums (one row per
    distinct value, so ROWS == RANGE), max of the ECDF gap.  The
    normalization forces the DOUBLE multiply before the divide,
    matching the engine's float order."""
    return f"""
        WITH base AS (
            SELECT {key_col} AS k, {value_col} AS v,
                   CASE WHEN {ts_col} < {split_expr} THEN 1 ELSE 0 END
                       AS early
            FROM {table} WHERE {value_col} IS NOT NULL
        ), c AS (
            SELECT k, v, sum(early) AS a, sum(1 - early) AS b
            FROM base GROUP BY k, v
        ), tot AS (
            SELECT k, sum(a) AS n1, sum(b) AS n2 FROM c GROUP BY k
            HAVING sum(a) > 0 AND sum(b) > 0
        ), cum AS (
            SELECT k,
                   sum(a) OVER w AS ca,
                   sum(b) OVER w AS cb
            FROM c
            WINDOW w AS (PARTITION BY k ORDER BY v
                         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
        )
        SELECT t.k AS {key_col},
               CAST(t.n1 AS BIGINT) AS n_early,
               CAST(t.n2 AS BIGINT) AS n_late,
               round(max(abs(ca / CAST(t.n1 AS DOUBLE)
                             - cb / CAST(t.n2 AS DOUBLE))), {round_to})
                   AS ks_d,
               round(max(abs(ca / CAST(t.n1 AS DOUBLE)
                             - cb / CAST(t.n2 AS DOUBLE)))
                     * sqrt(CAST(t.n1 AS DOUBLE) * t.n2 / (t.n1 + t.n2)),
                     {round_to}) AS ks_stat
        FROM cum c JOIN tot t ON c.k = t.k
        GROUP BY t.k, t.n1, t.n2
    """


def psi_drift(
    ds: rd.Dataset,
    *,
    key_col: str = "event_type",
    ts_col: str = "ts",
    value_col: str = "value",
    split_us: int = 0,
    n_bins: int = 10,
    round_to: int = 6,
) -> pd.DataFrame:
    """Per-key Population Stability Index between the EARLY (ts < split)
    and LATE halves — the ML-monitoring drift score scorecards run on
    model inputs: bin the key's values into ``n_bins`` equi-width bins
    over the key's own [min, max], then
        PSI = Σ_bins (q_i − p_i) · ln(q_i / p_i),
    with the continuity-smoothed shares p_i = (a_i + 0.5)/(n1 + B/2)
    (q_i likewise) so empty bins are defined — the standard fix, applied
    IDENTICALLY in the SQL replay.  Rule of thumb: < 0.1 stable, > 0.25
    action.  Keys missing a side drop (PSI vs nothing is undefined).
    Complements KS (q219): PSI is the binned, magnitude-weighted view
    auditors threshold; KS is the exact sup-gap.

    Scale shape: one min/max stats scan (tiny groupby), one binned
    count scan emitting ≤ (batch × keys × bins) partials, ONE tiny
    groupby, keys × bins driver fold.  Output: (key, n_early:int64,
    n_late:int64, psi:f64 rounded).  SQL replay: single-generator
    :func:`psi_sql` (identical bin and smoothing arithmetic)."""
    import ray
    from ray.data.aggregate import Max as _Max, Min as _Min

    from .collect import cached_ref
    from .selection import round_half_away

    def mm_partial(t: pa.Table) -> pa.Table:
        t2 = t.filter(pc.is_valid(t[value_col]))
        return pa.table(
            {key_col: t2[key_col], "v": t2[value_col]}
        ).group_by(key_col).aggregate([("v", "min"), ("v", "max")])

    mm = (
        ds.map_batches(mm_partial, batch_format="pyarrow", batch_size=65536)
        .groupby(key_col)
        .aggregate(_Min("v_min", alias_name="mn"), _Max("v_max", alias_name="mx"))
        .to_pandas()
    )
    bounds = {
        row[key_col]: (float(row["mn"]), float(row["mx"]))
        for _, row in mm.iterrows()
    }
    ref = ray.put(bounds)

    def bin_partial(t: pa.Table, _ref=ref) -> pa.Table:
        bmap = cached_ref(_ref)
        t2 = t.filter(pc.is_valid(t[value_col]))
        keys = t2[key_col].to_numpy(zero_copy_only=False)
        v = t2[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ts = (
            t2[ts_col].cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        early = (ts < split_us).astype(np.int64)
        # per-key equi-width binning, mirroring the SQL expression
        # floor((v - mn) / ((mx - mn) / B)) clipped to B-1; degenerate
        # mx == mn puts everything in bin 0; lookups vectorized (no
        # per-row Python loop in the scan)
        ks = pd.Series(keys)
        mns = ks.map({k: b[0] for k, b in bmap.items()}).to_numpy()
        mxs = ks.map({k: b[1] for k, b in bmap.items()}).to_numpy()
        width = (mxs - mns) / float(n_bins)
        with np.errstate(invalid="ignore", divide="ignore"):
            raw = np.floor((v - mns) / width)
        b = np.where(
            width > 0,
            np.minimum(np.nan_to_num(raw, nan=0.0), n_bins - 1),
            0.0,
        ).astype(np.int64)
        aug = pa.table(
            {
                key_col: t2[key_col],
                "bin": pa.array(b),
                "a": pa.array(early),
                "b_": pa.array(1 - early),
            }
        )
        return aug.group_by([key_col, "bin"]).aggregate(
            [("a", "sum"), ("b_", "sum")]
        ).rename_columns([key_col, "bin", "a", "b_"])

    agg = (
        ds.map_batches(bin_partial, batch_format="pyarrow", batch_size=65536)
        .groupby([key_col, "bin"])
        .aggregate(Sum("a", alias_name="a"), Sum("b_", alias_name="b"))
        .to_pandas()
    )
    if not len(agg):
        return pd.DataFrame(
            {key_col: pd.Series([], dtype=object),
             "n_early": pd.Series([], dtype=np.int64),
             "n_late": pd.Series([], dtype=np.int64),
             "psi": pd.Series([], dtype=np.float64)}
        )
    keys = sorted(agg[key_col].unique(), key=str)
    full = agg.set_index([key_col, "bin"]).reindex(
        pd.MultiIndex.from_product([keys, range(n_bins)],
                                   names=[key_col, "bin"]),
        fill_value=0,
    ).reset_index()
    a = full["a"].to_numpy().astype(np.float64)
    b = full["b"].to_numpy().astype(np.float64)
    n1 = full.groupby(key_col, sort=False)["a"].transform("sum").to_numpy()
    n2 = full.groupby(key_col, sort=False)["b"].transform("sum").to_numpy()
    p = (a + 0.5) / (n1 + 0.5 * n_bins)
    q = (b + 0.5) / (n2 + 0.5 * n_bins)
    cell = (q - p) * np.log(q / p)
    psi = (
        pd.DataFrame({"k": full[key_col], "c": cell})
        .groupby("k", sort=False)["c"].sum()
    )
    n1g = full.groupby(key_col, sort=False)["a"].sum()
    n2g = full.groupby(key_col, sort=False)["b"].sum()
    keep = (n1g > 0) & (n2g > 0)
    out = pd.DataFrame(
        {
            key_col: psi.index[keep],
            "n_early": n1g[keep].to_numpy().astype(np.int64),
            "n_late": n2g[keep].to_numpy().astype(np.int64),
            "psi": round_half_away(psi[keep].to_numpy(), round_to),
        }
    ).reset_index(drop=True)
    return out


def psi_sql(
    *,
    table: str = "events",
    key_col: str = "event_type",
    ts_col: str = "ts",
    value_col: str = "value",
    split_expr: str = "TIMESTAMP '2024-01-16'",
    n_bins: int = 10,
    round_to: int = 6,
) -> str:
    """DuckDB replay of :func:`psi_drift` (single-generator): identical
    equi-width bin expression, full keys × bins grid (empty bins
    smoothed identically), identical share arithmetic."""
    return f"""
        WITH base AS (
            SELECT {key_col} AS k, {value_col} AS v,
                   CASE WHEN {ts_col} < {split_expr} THEN 1 ELSE 0 END
                       AS early
            FROM {table} WHERE {value_col} IS NOT NULL
        ), mm AS (
            SELECT k, min(v) AS mn, max(v) AS mx FROM base GROUP BY k
        ), binned AS (
            SELECT b.k,
                   CAST(CASE WHEN m.mx > m.mn
                             THEN least(floor((b.v - m.mn)
                                        / ((m.mx - m.mn) / {n_bins}.0)),
                                        {n_bins - 1})
                             ELSE 0 END AS BIGINT) AS bin,
                   b.early
            FROM base b JOIN mm m ON b.k = m.k
        ), c AS (
            SELECT k, bin, sum(early) AS a, sum(1 - early) AS b
            FROM binned GROUP BY k, bin
        ), grid AS (
            SELECT g.k, d.bin, coalesce(c.a, 0) AS a, coalesce(c.b, 0) AS b
            FROM (SELECT DISTINCT k FROM c) g
            CROSS JOIN (SELECT unnest(generate_series(0, {n_bins - 1}))
                        AS bin) d
            LEFT JOIN c ON c.k = g.k AND c.bin = d.bin
        ), tot AS (
            SELECT k, sum(a) AS n1, sum(b) AS n2 FROM grid GROUP BY k
            HAVING sum(a) > 0 AND sum(b) > 0
        )
        SELECT t.k AS {key_col},
               CAST(t.n1 AS BIGINT) AS n_early,
               CAST(t.n2 AS BIGINT) AS n_late,
               round(sum(((g.b + 0.5) / (t.n2 + 0.5 * {n_bins})
                          - (g.a + 0.5) / (t.n1 + 0.5 * {n_bins}))
                         * ln(((g.b + 0.5) / (t.n2 + 0.5 * {n_bins}))
                              / ((g.a + 0.5) / (t.n1 + 0.5 * {n_bins})))),
                     {round_to}) AS psi
        FROM grid g JOIN tot t ON g.k = t.k
        GROUP BY t.k, t.n1, t.n2
    """


def grouped_autocorr(
    ds,
    *,
    key_col: str = "event_type",
    ts_col: str = "ts",
    round_to: int = 6,
) -> pd.DataFrame:
    """Lag-1 autocorrelation of the per-key DAILY COUNT series — the
    "is today's volume predicted by yesterday's" memory diagnostic that
    separates bursty keys (q191 flags the spikes) from autocorrelated
    ones (regime shifts, weekly habits), and sizes how much history a
    forecast needs.

        x_d  = count of key's events on day d   (observed days only)
        x̄   = Σx / n_days
        den  = Σ_all (x - x̄)²
        num  = Σ_{d+1 observed} (x_d - x̄)(x_{d+1} - x̄)
        r1   = num / den        (NULL when den == 0 or no pairs)

    Gap semantics match q166's calendar-sparse lag: only CONSECUTIVE
    calendar days pair in the numerator (a gap contributes no pair);
    mean and denominator run over all observed days.  Documented
    because zero-filling the gaps is a different statistic.

    Scale shape: per-batch Arrow (key, day) count partials, ONE tiny
    groupby over keys×days rows (days are calendar-bounded), a
    keys×days driver fold — the q228 shape.  SQL replay is GENERATED
    by :func:`autocorr_sql` (identical mean order: sum/n first)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum as _Sum

    from .selection import round_half_away

    def partial(t: pa.Table) -> pa.Table:
        t2 = pa.table(
            {"k": t[key_col],
             "day": pc.cast(pc.floor_temporal(t[ts_col], unit="day"),
                            pa.date32())}
        ).drop_null()
        return t2.group_by(["k", "day"]).aggregate([([], "count_all")])

    c = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby(["k", "day"])
        .aggregate(_Sum("count_all", alias_name="x"))
        .to_pandas()
    )
    out_rows = []
    for k, g in c.groupby("k", sort=True):
        g = g.sort_values("day")
        x = g["x"].to_numpy(dtype=np.float64)
        days = g["day"].to_numpy(dtype="datetime64[D]").astype(np.int64)
        n = len(x)
        xbar = x.sum() / n
        den = ((x - xbar) ** 2).sum()
        adj = days[1:] - days[:-1] == 1
        num = ((x[:-1] - xbar) * (x[1:] - xbar))[adj].sum()
        n_pairs = int(adj.sum())
        r1 = num / den if (den > 0.0 and n_pairs > 0) else float("nan")
        out_rows.append((k, n, n_pairs, r1))
    out = pd.DataFrame(
        out_rows, columns=[key_col, "n_days", "n_pairs", "r1"]
    )
    out["n_days"] = out["n_days"].astype(np.int64)
    out["n_pairs"] = out["n_pairs"].astype(np.int64)
    out["r1"] = round_half_away(
        out["r1"].to_numpy(dtype=np.float64), round_to
    )
    return out.reset_index(drop=True)


def autocorr_sql(
    *,
    table: str = "events",
    key_col: str = "event_type",
    ts_col: str = "ts",
    round_to: int = 6,
) -> str:
    """DuckDB replay of :func:`grouped_autocorr` (single-generator):
    identical day truncation, consecutive-day pair mask, and float
    order (x̄ = sum/count first; num only over day+1 pairs)."""
    return f"""
        WITH d AS (
            SELECT {key_col} AS k,
                   CAST(date_trunc('day', {ts_col}) AS DATE) AS day,
                   count(*) AS x
            FROM {table}
            WHERE {key_col} IS NOT NULL AND {ts_col} IS NOT NULL
            GROUP BY 1, 2
        ), m AS (
            SELECT k, sum(CAST(x AS DOUBLE)) / count(*) AS xbar
            FROM d GROUP BY k
        ), j AS (
            SELECT d.k, d.day, CAST(d.x AS DOUBLE) AS x, m.xbar,
                   lead(d.day) OVER w AS nday,
                   CAST(lead(d.x) OVER w AS DOUBLE) AS nx
            FROM d JOIN m ON d.k = m.k
            WINDOW w AS (PARTITION BY d.k ORDER BY d.day)
        )
        SELECT k AS {key_col},
               CAST(count(*) AS BIGINT) AS n_days,
               CAST(count(CASE WHEN nday = day + 1 THEN 1 END) AS BIGINT)
                   AS n_pairs,
               round(CASE WHEN sum((x - xbar) * (x - xbar)) > 0.0
                          AND count(CASE WHEN nday = day + 1 THEN 1 END) > 0
                          THEN sum(CASE WHEN nday = day + 1
                                        THEN (x - xbar) * (nx - xbar)
                                        ELSE 0.0 END)
                               / sum((x - xbar) * (x - xbar)) END,
                     {round_to}) AS r1
        FROM j GROUP BY k
    """


def stickiness(
    ds,
    *,
    key_col: str = "event_type",
    ts_col: str = "ts",
    user_col: str = "user_id",
    num_parts: int = 32,
    round_to: int = 6,
) -> pd.DataFrame:
    """DAU/MAU stickiness per key: average daily active users divided
    by average monthly active users — the engagement-depth ratio
    (habitual keys near 1, episodic keys near 1/30) next to q185's
    daily-activity monitor and q231's volume autocorrelation.

        avg_dau   = Σ_day |users(key, day)|   / #observed days
        avg_mau   = Σ_month |users(key, mo)|  / #observed months
        stickiness = avg_dau / avg_mau

    Days/months are UTC calendar buckets (numpy datetime64[D]/[M] ==
    SQL CAST(ts AS DATE) / date_trunc('month')); only observed buckets
    count.  Null key/ts/user rows drop on both engines.  All folds are
    int ratios — no float accumulation order to drift.

    Scale shape: per-batch local dedup partials, then ONE user-hash
    coarse shuffle — ALL of a user's (key, bucket, user) rows
    co-locate, so both the day- and month-level distincts dedup
    INSIDE the partition and each partition emits keys×buckets-sized
    active-count partials that sum exactly across partitions (every
    (key, bucket, user) combination lives in exactly one).  The first
    version ran a 3-key Ray groupby per level (4 all-to-alls; the
    triple groupby alone cost 8 s at sf0.1 on tiny-group sort
    latency); this shape is 1 shuffle and the driver folds
    keys×buckets integers.  SQL replay GENERATED by
    :func:`stickiness_sql`."""
    from .collect import collect_tables as _collect
    from .dedup import add_key_partition
    from .selection import round_half_away

    def project(df: pd.DataFrame) -> pd.DataFrame:
        df = df.dropna(subset=[key_col, ts_col, user_col])
        # integer day/bucket ids (epoch days) — avoids Arrow's lossy
        # datetime64[D] conversion; bucket IDENTITY is all that counts
        out = pd.DataFrame(
            {
                "k": df[key_col],
                "d": df[ts_col].to_numpy()
                .astype("datetime64[D]").astype(np.int64),
                "u": df[user_col],
            }
        )
        return out.drop_duplicates()

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"level": pd.Series([], dtype=object),
             "k": pd.Series([], dtype=object),
             "b": pd.Series([], dtype=np.int64),
             "c": pd.Series([], dtype=np.int64)}
        )
        if not len(g):
            return empty
        day = g[["k", "d", "u"]].drop_duplicates()
        dau = (
            day.groupby(["k", "d"], sort=False).size().reset_index(
                name="c"
            )
        )
        mon = pd.DataFrame(
            {
                "k": day["k"],
                "m": day["d"].to_numpy().astype("datetime64[D]")
                .astype("datetime64[M]").astype(np.int64),
                "u": day["u"],
            }
        ).drop_duplicates()
        mau = (
            mon.groupby(["k", "m"], sort=False).size().reset_index(
                name="c"
            )
        )
        return pd.concat(
            [
                pd.DataFrame({"level": "d", "k": dau["k"],
                              "b": dau["d"].astype(np.int64),
                              "c": dau["c"].astype(np.int64)}),
                pd.DataFrame({"level": "m", "k": mau["k"],
                              "b": mau["m"].astype(np.int64),
                              "c": mau["c"].astype(np.int64)}),
            ],
            ignore_index=True,
        )

    partials = (
        ds.map_batches(project, batch_format="pandas")
        .map_batches(
            lambda t: add_key_partition(t, "u", num_parts=num_parts),
            batch_format="pyarrow",
        )
        .groupby("_part")
        .map_groups(per_partition, batch_format="pandas")
    )
    acc: dict = {}
    for t in _collect(partials, drop_empty=True):
        for lv, k, b, c in zip(t["level"].to_pylist(), t["k"].to_pylist(),
                               t["b"].to_pylist(), t["c"].to_pylist()):
            kk = (lv, k, b)
            acc[kk] = acc.get(kk, 0) + int(c)
    stats: dict = {}
    for (lv, k, _b), c in acc.items():
        s_cnt, n_b = stats.get((lv, k), (0, 0))
        stats[(lv, k)] = (s_cnt + c, n_b + 1)
    keys = sorted({k for (_lv, k) in stats})
    rows = []
    for k in keys:
        s_dau, n_days = stats.get(("d", k), (0, 0))
        s_mau, n_months = stats.get(("m", k), (0, 0))
        if not n_days or not n_months:
            continue
        avg_dau = s_dau / n_days
        avg_mau = s_mau / n_months
        rows.append((k, n_days, n_months, avg_dau, avg_mau))
    if not rows:
        return pd.DataFrame(
            {key_col: pd.Series([], dtype=object),
             "n_days": pd.Series([], dtype=np.int64),
             "n_months": pd.Series([], dtype=np.int64),
             "avg_dau": pd.Series([], dtype=np.float64),
             "avg_mau": pd.Series([], dtype=np.float64),
             "stickiness": pd.Series([], dtype=np.float64)}
        )
    res = pd.DataFrame(
        rows, columns=[key_col, "n_days", "n_months", "avg_dau", "avg_mau"]
    )
    ad = res["avg_dau"].to_numpy(dtype=np.float64)
    am = res["avg_mau"].to_numpy(dtype=np.float64)
    return pd.DataFrame(
        {
            key_col: res[key_col],
            "n_days": res["n_days"].astype(np.int64),
            "n_months": res["n_months"].astype(np.int64),
            "avg_dau": round_half_away(ad, round_to),
            "avg_mau": round_half_away(am, round_to),
            "stickiness": round_half_away(ad / am, round_to),
        }
    ).reset_index(drop=True)


def stickiness_sql(
    *,
    table: str = "events",
    key_col: str = "event_type",
    ts_col: str = "ts",
    user_col: str = "user_id",
    round_to: int = 6,
) -> str:
    """DuckDB replay of :func:`stickiness` (single-generator):
    identical calendar bucketing and int-ratio folds."""
    return f"""
        WITH d AS (
            SELECT DISTINCT {key_col} AS k, CAST({ts_col} AS DATE) AS day,
                   {user_col} AS u
            FROM {table}
            WHERE {key_col} IS NOT NULL AND {ts_col} IS NOT NULL
                  AND {user_col} IS NOT NULL
        ), dau AS (
            SELECT k, day, count(*) AS c FROM d GROUP BY k, day
        ), a AS (
            SELECT k, sum(c) AS s_dau, count(*) AS n_days
            FROM dau GROUP BY k
        ), mo AS (
            SELECT DISTINCT k, date_trunc('month', day) AS m, u FROM d
        ), mau AS (
            SELECT k, m, count(*) AS c FROM mo GROUP BY k, m
        ), b AS (
            SELECT k, sum(c) AS s_mau, count(*) AS n_months
            FROM mau GROUP BY k
        )
        SELECT a.k AS {key_col},
               CAST(a.n_days AS BIGINT) AS n_days,
               CAST(b.n_months AS BIGINT) AS n_months,
               round(a.s_dau / CAST(a.n_days AS DOUBLE), {round_to})
                   AS avg_dau,
               round(b.s_mau / CAST(b.n_months AS DOUBLE), {round_to})
                   AS avg_mau,
               round((a.s_dau / CAST(a.n_days AS DOUBLE))
                     / (b.s_mau / CAST(b.n_months AS DOUBLE)),
                     {round_to}) AS stickiness
        FROM a JOIN b ON a.k = b.k
    """


def kendall_tau_daily(
    ds,
    *,
    type_a: str,
    type_b: str,
    type_col: str = "event_type",
    ts_col: str = "ts",
    round_to: int = 6,
) -> "pd.DataFrame":
    """Kendall's τ-b between the DAILY VOLUMES of two event types —
    the rank-concordance drift check next to Spearman (q201, which
    needs full rankings) and Pearson-style OLS (q177): τ-b reads
    directly as "how often do the two series move the same way", is
    robust to monotone re-scaling, and its tie correction makes it
    honest on low-count days where both series repeat values.

        τ_b = (C − D) / sqrt((n0 − n1)(n0 − n2)),
        n0 = n(n−1)/2,  n1/n2 = Σ t(t−1)/2 over tied x / y values

    Days are UTC calendar buckets over ALL observed days (either
    type); a day where one type is absent counts 0 for it.  Every
    quantity up to the final division is integer-exact on both
    engines.

    Scale shape: per-batch (day, type) count partials, ONE days-sized
    groupby; the driver folds |days| rows (bounded by the calendar —
    366/year) and evaluates C − D with a vectorized O(days²) upper-
    triangle sign product, which is trivial at calendar size and
    NEVER corpus-sized.  Output: one row (n_days, nc_minus_nd:int64,
    tau_b).  SQL replay GENERATED by :func:`kendall_sql`."""
    import pandas as pd
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from .selection import round_half_away

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(t[ts_col]),
                       pc.is_in(t[type_col],
                                value_set=pa.array([type_a, type_b])))
        t = t.filter(keep)
        day = (
            t[ts_col].to_numpy(zero_copy_only=False)
            .astype("datetime64[D]").astype(np.int64)
        )
        is_a = np.asarray(
            pc.equal(t[type_col], pa.scalar(type_a)).to_numpy(
                zero_copy_only=False
            ),
            dtype=bool,
        )
        return (
            pa.table(
                {"day": pa.array(day),
                 "xa": pa.array(is_a.astype(np.int64)),
                 "xb": pa.array((~is_a).astype(np.int64))}
            )
            .group_by("day")
            .aggregate([("xa", "sum"), ("xb", "sum")])
        )

    days = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("xa_sum", alias_name="x"),
                   Sum("xb_sum", alias_name="y"))
        .to_pandas()
    )
    n = len(days)
    if n < 2:
        return pd.DataFrame(
            {"n_days": pd.Series([n], dtype=np.int64),
             "nc_minus_nd": pd.Series([0], dtype=np.int64),
             "tau_b": pd.Series([np.nan], dtype=np.float64)}
        )
    x = days["x"].to_numpy(dtype=np.int64)
    y = days["y"].to_numpy(dtype=np.int64)
    sx = np.sign(x[:, None] - x[None, :])
    sy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(n, k=1)
    cd = int((sx[iu] * sy[iu]).sum())
    n0 = n * (n - 1) // 2
    _, cx = np.unique(x, return_counts=True)
    _, cy = np.unique(y, return_counts=True)
    n1 = int((cx * (cx - 1) // 2).sum())
    n2 = int((cy * (cy - 1) // 2).sum())
    denom = float(n0 - n1) * float(n0 - n2)
    tau = cd / np.sqrt(denom) if denom > 0 else np.nan
    return pd.DataFrame(
        {"n_days": pd.Series([n], dtype=np.int64),
         "nc_minus_nd": pd.Series([cd], dtype=np.int64),
         "tau_b": pd.Series(round_half_away(np.array([tau]), round_to))}
    )


def kendall_sql(
    *,
    table: str = "events",
    type_a: str,
    type_b: str,
    type_col: str = "event_type",
    ts_col: str = "ts",
    round_to: int = 6,
) -> str:
    """DuckDB replay of :func:`kendall_tau_daily` (single-generator):
    identical day bucketing, i < j sign-product sum, tie terms."""
    type_a = type_a.replace("'", "''")
    type_b = type_b.replace("'", "''")
    return f"""
        WITH days AS (
            SELECT CAST({ts_col} AS DATE) AS day,
                   sum(CASE WHEN {type_col} = '{type_a}' THEN 1
                            ELSE 0 END) AS x,
                   sum(CASE WHEN {type_col} = '{type_b}' THEN 1
                            ELSE 0 END) AS y
            FROM {table}
            WHERE {ts_col} IS NOT NULL
                  AND {type_col} IN ('{type_a}', '{type_b}')
            GROUP BY day
        ), cd AS (
            SELECT sum(sign(a.x - b.x) * sign(a.y - b.y)) AS v
            FROM days a JOIN days b ON a.day < b.day
        ), nn AS (
            SELECT count(*) AS n FROM days
        ), t1 AS (
            SELECT sum(c * (c - 1) // 2) AS v
            FROM (SELECT count(*) AS c FROM days GROUP BY x)
        ), t2 AS (
            SELECT sum(c * (c - 1) // 2) AS v
            FROM (SELECT count(*) AS c FROM days GROUP BY y)
        )
        SELECT CAST(nn.n AS BIGINT) AS n_days,
               CAST(coalesce(cd.v, 0) AS BIGINT) AS nc_minus_nd,
               round(coalesce(cd.v, 0)
                     / sqrt((nn.n * (nn.n - 1) // 2 - t1.v)
                            * CAST(nn.n * (nn.n - 1) // 2 - t2.v
                                   AS DOUBLE)),
                     {round_to}) AS tau_b
        FROM nn, cd, t1, t2
    """


def dow_seasonality(
    ds: rd.Dataset,
    *,
    ts_col: str = "ts",
    value_col: str = "value",
    round_to: int = 6,
) -> pd.DataFrame:
    """Day-of-week seasonal profile of the daily value total — the
    seasonal component of an STL-lite decomposition (seasonal mean per
    weekday + residual RMS around it), the "is Sunday traffic really
    down or just seasonal?" screen before alerting on a daily series.

    dow follows DuckDB's ``dayofweek`` (0 = Sunday … 6 = Saturday;
    epoch day 0, 1970-01-01, was a Thursday → dow 4).  Null ts/value
    rows drop on both engines.  mean = Σ/n then RMS =
    sqrt(Σ(x−mean)²/n) divide in that order on both engines; the
    cross-day float fold-order drift is absorbed by round-6.

    Scale shape: per-batch (day, Σvalue) Arrow partials, ONE tiny
    day-keyed groupby (the series' day count bounds it), a ≤7-row
    driver fold.  Output: (dow:int64, n_days:int64, seasonal_mean:f64,
    residual_rms:f64), dow-ascending.  SQL replay GENERATED by
    :func:`dow_seasonality_sql`."""
    from ray.data.aggregate import Sum as _Sum

    from .collect import collect_tables
    from .selection import round_half_away

    def partial(t: pa.Table) -> pa.Table:
        t2 = pa.table({"ts": t[ts_col], "v": t[value_col]}).drop_null()
        if not len(t2):
            return pa.table({"day": pa.array([], type=pa.int64()),
                             "s": pa.array([], type=pa.float64())})
        days = (
            t2["ts"].cast(pa.timestamp("us")).to_numpy(zero_copy_only=False)
            .astype("datetime64[D]").astype(np.int64)
        )
        v = t2["v"].to_numpy(zero_copy_only=False).astype(np.float64)
        code, uniq = pd.factorize(days, sort=True)
        s = np.zeros(len(uniq), dtype=np.float64)
        np.add.at(s, code, v)
        return pa.table({"day": pa.array(uniq), "s": pa.array(s)})

    daily = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(_Sum("s", alias_name="v"))
    )
    parts = [t for t in collect_tables(daily, drop_empty=True)]
    empty = pd.DataFrame(
        {"dow": pd.Series([], dtype=np.int64),
         "n_days": pd.Series([], dtype=np.int64),
         "seasonal_mean": pd.Series([], dtype=np.float64),
         "residual_rms": pd.Series([], dtype=np.float64)}
    )
    if not parts:
        return empty
    tbl = pa.concat_tables([p.cast(parts[0].schema) for p in parts])
    days = tbl["day"].to_numpy(zero_copy_only=False).astype(np.int64)
    v = tbl["v"].to_numpy(zero_copy_only=False).astype(np.float64)
    order = np.argsort(days, kind="stable")  # deterministic fold order
    days, v = days[order], v[order]
    dow = (days + 4) % 7  # epoch day 0 = Thursday = DuckDB dayofweek 4
    rows = []
    for d in sorted(set(dow.tolist())):
        m = dow == d
        n = int(m.sum())
        mean = float(v[m].sum()) / n
        rms = float(np.sqrt(((v[m] - mean) ** 2).sum() / n))
        rows.append((d, n, mean, rms))
    out = pd.DataFrame(
        rows, columns=["dow", "n_days", "seasonal_mean", "residual_rms"]
    )
    out["dow"] = out["dow"].astype(np.int64)
    out["n_days"] = out["n_days"].astype(np.int64)
    out["seasonal_mean"] = round_half_away(
        out["seasonal_mean"].to_numpy(np.float64), round_to
    )
    out["residual_rms"] = round_half_away(
        out["residual_rms"].to_numpy(np.float64), round_to
    )
    return out


def dow_seasonality_sql(
    *,
    table: str = "events",
    ts_col: str = "ts",
    value_col: str = "value",
    round_to: int = 6,
) -> str:
    """DuckDB replay of :func:`dow_seasonality` (single-generator):
    identical day bucketing, dow convention, division order."""
    return f"""
        WITH daily AS (
            SELECT CAST({ts_col} AS DATE) AS d, sum({value_col}) AS v
            FROM {table}
            WHERE {ts_col} IS NOT NULL AND {value_col} IS NOT NULL
            GROUP BY d
        ),
        m AS (
            SELECT dayofweek(d) AS dow, count(*) AS n_days,
                   sum(v) / count(*) AS mean_v
            FROM daily GROUP BY 1
        )
        SELECT CAST(m.dow AS BIGINT) AS dow,
               CAST(m.n_days AS BIGINT) AS n_days,
               round(m.mean_v, {round_to}) AS seasonal_mean,
               round(sqrt(sum((daily.v - m.mean_v) * (daily.v - m.mean_v))
                          / m.n_days), {round_to}) AS residual_rms
        FROM daily
        JOIN m ON dayofweek(daily.d) = m.dow
        GROUP BY m.dow, m.n_days, m.mean_v
        ORDER BY dow
    """


def changepoint_detect(
    ds: rd.Dataset,
    *,
    ts_col: str = "ts",
    round_to: int = 6,
) -> pd.DataFrame:
    """Changepoint LOCATOR for a daily count series — binary
    segmentation over the CUSUM statistic (Page's test statistic;
    Scott & Knott's splitting scheme, depth 2): the day maximizing
    |Σ_{i<=k}(c_i − mean)| over the whole series, then the maximizing
    day inside each resulting half — the "WHEN did the crawl change?"
    companion to the one-number drift detectors (q214 CUSUM flags THAT
    it changed).

    The argmax is INTEGER-exact: with daily counts c_i, n days and
    total T, n·S_k = n·Σ_{i<=k} c_i − k·T is an integer, so the
    maximizing day (ties → earliest) cannot flip on float fold order;
    only the reported statistic max|S_k|/n divides (rounded).
    Segments need ≥ 2 days to emit; a left/right segment is
    [start, cp] / (cp, end] — the cp day closes its left segment.

    Scale shape: per-batch (day, count) Arrow partials → ONE tiny
    day-keyed groupby (day count bounds it) → day-sorted driver fold
    (≤ series length).  Output: (segment:int64 — 0 full / 1 left /
    2 right, cp_day:date32, stat:f64 rounded), segment-ascending.
    SQL replay GENERATED by :func:`changepoint_sql` (identical integer
    argmax via HUGEINT window arithmetic)."""
    from ray.data.aggregate import Sum as _Sum

    from .collect import collect_tables
    from .selection import round_half_away

    def partial(t: pa.Table) -> pa.Table:
        ts = t[ts_col].drop_null()
        if not len(ts):
            return pa.table({"day": pa.array([], type=pa.int64()),
                             "c": pa.array([], type=pa.int64())})
        days = (
            ts.cast(pa.timestamp("us")).to_numpy(zero_copy_only=False)
            .astype("datetime64[D]").astype(np.int64)
        )
        code, uniq = pd.factorize(days, sort=True)
        cnt = np.bincount(code, minlength=len(uniq))
        return pa.table({"day": pa.array(uniq),
                         "c": pa.array(cnt.astype(np.int64))})

    daily = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(_Sum("c", alias_name="c"))
    )
    from .collect import collect_table

    tbl = collect_table(daily)
    empty = pd.DataFrame(
        {"segment": pd.Series([], dtype=np.int64),
         "cp_day": pd.Series([], dtype="datetime64[ns]"),
         "stat": pd.Series([], dtype=np.float64)}
    )
    if not tbl.num_rows:
        return empty
    days = tbl["day"].to_numpy(zero_copy_only=False).astype(np.int64)
    cnts = tbl["c"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(days, kind="stable")
    days, cnts = days[order], cnts[order]
    # the integer-exact argmax works in int64: n·cum ≤ n_days·total must
    # stay below 2^63 (the HUGEINT oracle has no such bound) — loud
    # guard rather than a silent numpy wraparound
    if len(days) * int(cnts.sum()) >= (1 << 62):
        raise ValueError(
            "changepoint_detect: n_days * total_count >= 2^62 — the "
            "int64 argmax would wrap; pre-aggregate to coarser buckets"
        )

    def seg_cp(lo: int, hi: int):
        """argmax over k in [lo, hi) of |n·cum_k − (k−lo+1)·T| with the
        segment's own n and T; None when the segment has < 2 days."""
        n = hi - lo
        if n < 2:
            return None
        c = cnts[lo:hi]
        cum = np.cumsum(c, dtype=np.int64)
        k = np.arange(1, n + 1, dtype=np.int64)
        score = np.abs(n * cum - k * int(c.sum()))
        j = int(np.argmax(score))  # first max = earliest day
        return lo + j, float(score[j]) / n

    out_rows = []
    full = seg_cp(0, len(days))
    if full is not None:
        cp0, stat0 = full
        out_rows.append((0, days[cp0], stat0))
        left = seg_cp(0, cp0 + 1)
        if left is not None:
            out_rows.append((1, days[left[0]], left[1]))
        right = seg_cp(cp0 + 1, len(days))
        if right is not None:
            out_rows.append((2, days[right[0]], right[1]))
    if not out_rows:
        return empty
    out = pd.DataFrame(out_rows, columns=["segment", "cp_day", "stat"])
    out["segment"] = out["segment"].astype(np.int64)
    out["cp_day"] = pd.to_datetime(
        out["cp_day"].to_numpy(dtype=np.int64).astype("datetime64[D]")
    )
    out["stat"] = round_half_away(out["stat"].to_numpy(np.float64), round_to)
    return out


def changepoint_sql(
    *,
    table: str = "events",
    ts_col: str = "ts",
    round_to: int = 6,
) -> str:
    """DuckDB replay of :func:`changepoint_detect` (single-generator):
    identical integer argmax (HUGEINT window arithmetic), boundary
    convention, tie rule."""

    def seg(name: str, where: str) -> str:
        return f"""
        {name}_d AS (
            SELECT d, c,
                   row_number() OVER (ORDER BY d) AS k,
                   sum(c) OVER (ORDER BY d) AS cum,
                   count(*) OVER () AS n,
                   sum(c) OVER () AS tot
            FROM daily {where}
        ),
        {name}_pick AS (
            SELECT d, n,
                   abs(CAST(n AS HUGEINT) * cum
                       - CAST(k AS HUGEINT) * tot) AS score
            FROM {name}_d
            WHERE n >= 2
            ORDER BY score DESC, d ASC
            LIMIT 1
        )"""

    return f"""
        WITH daily AS (
            SELECT CAST({ts_col} AS DATE) AS d, count(*) AS c
            FROM {table}
            WHERE {ts_col} IS NOT NULL
            GROUP BY d
        ),
        {seg("full", "")},
        {seg("lseg", "WHERE d <= (SELECT d FROM full_pick)")},
        {seg("rseg", "WHERE d > (SELECT d FROM full_pick)")}
        SELECT * FROM (
            SELECT CAST(0 AS BIGINT) AS segment, d AS cp_day,
                   round(score * 1.0 / n, {round_to}) AS stat
            FROM full_pick
            UNION ALL
            SELECT CAST(1 AS BIGINT), d,
                   round(score * 1.0 / n, {round_to})
            FROM lseg_pick
            UNION ALL
            SELECT CAST(2 AS BIGINT), d,
                   round(score * 1.0 / n, {round_to})
            FROM rseg_pick
        )
        ORDER BY segment
    """


def runs_test_daily(
    ds: rd.Dataset,
    *,
    ts_col: str = "ts",
    round_to: int = 6,
) -> pd.DataFrame:
    """Wald–Wolfowitz runs test on the daily event-count series: is the
    sequence of above/below-median days RANDOM, or does it cluster
    (trend/regime) or alternate (over-correction)?  The
    "is this series even i.i.d. enough to alert on?" pre-check run
    before the drift detectors (q214/q219/q280).

    Convention (exact, integer-friendly on both engines): the threshold
    is the LOWER MEDIAN — the value at 1-indexed position ceil(n/2) of
    the day-count sort (ties by day) — and days EQUAL to it drop (the
    standard runs-test tie rule).  R = number of runs over the
    remaining ± sequence (day order); with n1 above / n2 below,
    z = (R − μ) / σ, μ = 2·n1·n2/(n1+n2) + 1,
    σ² = (μ−1)(μ−2)/(n1+n2−1) — NaN when σ = 0 or a side is empty.

    Scale shape: per-batch (day, count) partials → ONE tiny day
    groupby → series-length driver fold.  Output: ONE row
    (n_days:int64, n_above:int64, n_below:int64, runs:int64, z:f64
    rounded).  SQL replay GENERATED by :func:`runs_test_sql`."""
    from ray.data.aggregate import Sum as _Sum

    from .collect import collect_table
    from .selection import round_half_away

    def partial(t: pa.Table) -> pa.Table:
        ts = t[ts_col].drop_null()
        if not len(ts):
            return pa.table({"day": pa.array([], type=pa.int64()),
                             "c": pa.array([], type=pa.int64())})
        days = (
            ts.cast(pa.timestamp("us")).to_numpy(zero_copy_only=False)
            .astype("datetime64[D]").astype(np.int64)
        )
        code, uniq = pd.factorize(days, sort=True)
        cnt = np.bincount(code, minlength=len(uniq))
        return pa.table({"day": pa.array(uniq),
                         "c": pa.array(cnt.astype(np.int64))})

    daily = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(_Sum("c", alias_name="c"))
    )
    tbl = collect_table(daily)
    empty = pd.DataFrame(
        {"n_days": pd.Series([], dtype=np.int64),
         "n_above": pd.Series([], dtype=np.int64),
         "n_below": pd.Series([], dtype=np.int64),
         "runs": pd.Series([], dtype=np.int64),
         "z": pd.Series([], dtype=np.float64)}
    )
    if not tbl.num_rows:
        return empty
    days = tbl["day"].to_numpy(zero_copy_only=False).astype(np.int64)
    cnts = tbl["c"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(days, kind="stable")
    days, cnts = days[order], cnts[order]
    n = len(days)
    # lower median: 1-indexed position ceil(n/2) of the (count, day) sort
    m_order = np.lexsort((days, cnts))
    med = int(cnts[m_order[(n + 1) // 2 - 1]])
    sign = cnts[cnts != med] > med
    n1 = int(sign.sum())
    n2 = int(len(sign) - n1)
    if len(sign):
        runs = int(1 + (sign[1:] != sign[:-1]).sum())
    else:
        runs = 0
    if n1 == 0 or n2 == 0:
        z = np.nan
    else:
        mu = 2.0 * n1 * n2 / (n1 + n2) + 1.0
        var = (mu - 1.0) * (mu - 2.0) / (n1 + n2 - 1.0)
        z = (runs - mu) / np.sqrt(var) if var > 0 else np.nan
    return pd.DataFrame(
        {"n_days": pd.Series([n], dtype=np.int64),
         "n_above": pd.Series([n1], dtype=np.int64),
         "n_below": pd.Series([n2], dtype=np.int64),
         "runs": pd.Series([runs], dtype=np.int64),
         "z": pd.Series(round_half_away(np.array([z]), round_to))}
    )


def runs_test_sql(
    *,
    table: str = "events",
    ts_col: str = "ts",
    round_to: int = 6,
) -> str:
    """DuckDB replay of :func:`runs_test_daily` (single-generator):
    identical lower-median convention, tie drop, run counting and
    z arithmetic; no row when no day has an event, as the engine."""
    return f"""
        WITH daily AS (
            SELECT CAST({ts_col} AS DATE) AS d, count(*) AS c
            FROM {table}
            WHERE {ts_col} IS NOT NULL
            GROUP BY d
        ),
        med AS (
            SELECT c AS m FROM (
                SELECT c, row_number() OVER (ORDER BY c, d) AS r,
                       count(*) OVER () AS n
                FROM daily
            ) WHERE r = (n + 1) // 2
        ),
        seq AS (
            SELECT d, (c > (SELECT m FROM med)) AS above,
                   lag(c > (SELECT m FROM med))
                       OVER (ORDER BY d) AS prev
            FROM daily
            WHERE c <> (SELECT m FROM med)
        ),
        agg AS (
            SELECT count(*) AS n_kept,
                   sum(CASE WHEN above THEN 1 ELSE 0 END) AS n1,
                   sum(CASE WHEN above THEN 0 ELSE 1 END) AS n2,
                   sum(CASE WHEN prev IS NULL OR above <> prev
                            THEN 1 ELSE 0 END) AS runs
            FROM seq
        )
        SELECT CAST((SELECT count(*) FROM daily) AS BIGINT) AS n_days,
               CAST(coalesce(n1, 0) AS BIGINT) AS n_above,
               CAST(coalesce(n2, 0) AS BIGINT) AS n_below,
               CAST(coalesce(runs, 0) AS BIGINT) AS runs,
               round(CASE WHEN n1 > 0 AND n2 > 0
                          AND (2.0 * n1 * n2 / (n1 + n2) + 1.0 - 1.0)
                              * (2.0 * n1 * n2 / (n1 + n2) + 1.0 - 2.0)
                              / (n1 + n2 - 1.0) > 0
                     THEN (runs - (2.0 * n1 * n2 / (n1 + n2) + 1.0))
                          / sqrt((2.0 * n1 * n2 / (n1 + n2) + 1.0 - 1.0)
                                 * (2.0 * n1 * n2 / (n1 + n2) + 1.0 - 2.0)
                                 / (n1 + n2 - 1.0))
                     END, {round_to}) AS z
        FROM agg
        WHERE (SELECT count(*) FROM daily) > 0
    """
