"""Deterministic splits/samples and the HLL sketch."""

import duckdb
import pandas as pd
import numpy as np
import ray.data as rd

from ai_service_ocr_grading_handler_ray.stages.sampling import (
    approx_count_distinct,
    hll_estimate,
    hll_merge,
    hll_sketch,
    stratified_sample,
    train_eval_split,
)


def test_split_partitions_exactly(sf_dir):
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    train, ev = train_eval_split(ds, "doc_id")
    t_ids = set(train.to_pandas()["doc_id"])
    e_ids = set(ev.to_pandas()["doc_id"])
    assert t_ids | e_ids == set(range(500))
    assert not (t_ids & e_ids)
    assert 0.65 < len(t_ids) / 500 < 0.85  # ~75%


def test_split_matches_duckdb_md5(sf_dir):
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    train, _ = train_eval_split(ds, "doc_id")
    mine = sorted(train.to_pandas()["doc_id"])
    ref = duckdb.sql(
        f"""SELECT doc_id FROM read_parquet('{sf_dir}/documents.parquet')
        WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 1) < 'c' ORDER BY doc_id"""
    ).df()["doc_id"].tolist()
    assert mine == ref


def test_stratified_sample_uniform_across_strata(sf_dir):
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    samp = stratified_sample(ds, "doc_id", frac_16ths=4).to_pandas()
    frac = len(samp) / 500
    assert 0.15 < frac < 0.35


def test_hll_accuracy():
    values = [f"item-{i}" for i in range(20000)] * 2  # 20k distinct, 40k rows
    regs = hll_merge([hll_sketch(values[:15000]), hll_sketch(values[15000:])])
    est = hll_estimate(regs)
    assert abs(est - 20000) / 20000 < 0.05


def test_hll_merge_associative():
    a, b = [f"a{i}" for i in range(500)], [f"b{i}" for i in range(500)]
    merged = hll_merge([hll_sketch(a), hll_sketch(b)])
    direct = hll_sketch(a + b)
    assert (merged == direct).all()


def test_approx_count_distinct_on_lineitem(sf_dir):
    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_partkey"])
    est = approx_count_distinct(ds, "l_partkey")
    exact = duckdb.sql(
        f"SELECT count(DISTINCT l_partkey) FROM read_parquet('{sf_dir}/lineitem.parquet')"
    ).fetchone()[0]
    assert abs(est - exact) / exact < 0.05


def test_quantile_sketch_accuracy(sf_dir):
    """Histogram quantile sketch: <1% rank error vs exact quantiles."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from ai_service_ocr_grading_handler_ray.stages.sampling import approx_quantiles

    vals = np.sort(
        pq.read_table(f"{sf_dir}/events.parquet", columns=["value"])["value"]
        .to_numpy(zero_copy_only=False)
        .astype(np.float64)
    )
    qs = [0.1, 0.5, 0.9, 0.99]
    approx = approx_quantiles(
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"]), "value", qs
    )
    n = len(vals)
    for q, a in zip(qs, approx):
        # rank of the approximate value vs the requested rank
        rank = np.searchsorted(vals, a) / n
        assert abs(rank - q) < 0.01, (q, a, rank)


def test_quantile_sketch_associative(sf_dir):
    """Merging per-batch histograms is order-insensitive: two different
    batch sizes give the identical merged sketch."""
    import numpy as np
    import ray.data as rd

    from ai_service_ocr_grading_handler_ray.stages.sampling import quantile_sketch

    ds1 = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    ds2 = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"]).repartition(7)
    c1, lo1, hi1 = quantile_sketch(ds1, "value")
    c2, lo2, hi2 = quantile_sketch(ds2, "value")
    assert (lo1, hi1) == (lo2, hi2)
    assert np.array_equal(c1, c2)


def test_temperature_rates_alpha_semantics():
    from ai_service_ocr_grading_handler_ray.stages.sampling import temperature_rates

    counts = {"big": 9000, "small": 1000}
    # alpha=1: proportional -> identical per-doc rate for every group
    r1 = temperature_rates(counts, 1.0, 500)
    assert abs(r1["big"] - r1["small"]) < 1e-12
    # alpha<1 upweights the small group's per-doc rate
    r5 = temperature_rates(counts, 0.5, 500)
    assert r5["small"] > r5["big"]
    # alpha=0: equal group shares -> per-doc rate inversely prop. to n
    r0 = temperature_rates(counts, 0.0, 500)
    assert abs(r0["small"] / r0["big"] - 9.0) < 1e-9
    # rates cap at 1
    assert temperature_rates({"x": 2}, 0.5, 1e9)["x"] == 1.0


def test_temperature_sample_deterministic_and_budget(sf_dir):
    import pandas as pd

    from ai_service_ocr_grading_handler_ray.stages.sampling import temperature_sample

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    a = temperature_sample(
        ds, group_col="source", id_col="doc_id", alpha=0.5, budget=240.0
    ).to_pandas()
    b = temperature_sample(
        ds.repartition(5), group_col="source", id_col="doc_id",
        alpha=0.5, budget=240.0,
    ).to_pandas()
    # selection independent of block layout
    pd.testing.assert_frame_equal(
        a.sort_values("doc_id").reset_index(drop=True),
        b.sort_values("doc_id").reset_index(drop=True),
    )
    # realized count concentrates near the budget (binomial, n=500)
    assert 0.6 * 240 <= len(a) <= 1.4 * 240
    # a shrunk budget selects a strict subset (nested thresholds)
    c = temperature_sample(
        ds, group_col="source", id_col="doc_id", alpha=0.5, budget=120.0
    ).to_pandas()
    assert set(c["doc_id"]).issubset(set(a["doc_id"]))


def test_epoch_mix_integer_and_fractional_epochs():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ai_service_ocr_grading_handler_ray.stages.sampling import epoch_mix

    n = 400
    df = pd.DataFrame(
        {"doc_id": range(n), "source": ["a"] * (n // 2) + ["b"] * (n // 2)}
    )
    out = epoch_mix(
        rd.from_pandas(df).repartition(4), {"a": 2.0, "b": 1.5}, seed=3
    ).to_pandas()
    a = out[out["source"] == "a"]
    b = out[out["source"] == "b"]
    # integer epochs: every 'a' doc appears exactly twice (epochs 0,1)
    assert len(a) == n and set(a["epoch"]) == {0, 1}
    assert a.groupby("doc_id").size().eq(2).all()
    # fractional: every 'b' doc >= 1 copy; ~half get a second
    counts = b.groupby("doc_id").size()
    assert counts.ge(1).all() and counts.le(2).all()
    assert abs(counts.eq(2).mean() - 0.5) < 0.15


def test_epoch_mix_deterministic_and_unknown_sources_dropped():
    import pandas as pd
    import ray.data as rd

    from ai_service_ocr_grading_handler_ray.stages.sampling import epoch_mix

    df = pd.DataFrame({"doc_id": range(60), "source": ["a", "b", "zz"] * 20})
    cfg = {"a": 1.2, "b": 0.4}
    one = epoch_mix(rd.from_pandas(df), cfg, seed=9).to_pandas()
    two = epoch_mix(
        rd.from_pandas(df.sample(frac=1.0, random_state=1)).repartition(7),
        cfg, seed=9,
    ).to_pandas()
    key = ["doc_id", "source", "epoch"]
    assert one.sort_values(key).reset_index(drop=True).equals(
        two.sort_values(key).reset_index(drop=True)
    )
    assert not (one["source"] == "zz").any()
    # budget 0.4 < 1: source b is a strict subsample at epoch 0 only
    assert set(one[one["source"] == "b"]["epoch"]) == {0}
    # nested budgets: the 0.4 selection is a subset of the 0.9 selection
    big = epoch_mix(rd.from_pandas(df), {"a": 1.2, "b": 0.9}, seed=9).to_pandas()
    small_b = set(one[one["source"] == "b"]["doc_id"])
    big_b = set(big[big["source"] == "b"]["doc_id"])
    assert small_b <= big_b


def test_cap_per_group_uniform_and_layout_independent():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ai_service_ocr_grading_handler_ray.stages.sampling import cap_per_group

    df = pd.DataFrame(
        {
            "doc_id": range(300),
            "source": ["big"] * 280 + ["small"] * 15 + ["tiny"] * 5,
        }
    )
    a = cap_per_group(
        rd.from_pandas(df).repartition(1),
        group_col="source", id_col="doc_id", k=10, seed=2,
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = cap_per_group(
        rd.from_pandas(df.sample(frac=1.0, random_state=3)).repartition(9),
        group_col="source", id_col="doc_id", k=10, seed=2,
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)  # layout/row-order independent
    sizes = a.groupby("source").size()
    assert sizes["big"] == 10 and sizes["small"] == 10 and sizes["tiny"] == 5
    # selection is hash-ordered, not first-k by position
    assert list(a[a["source"] == "big"]["doc_id"]) != list(range(10))
    # different seed → different winners in the capped group
    c = cap_per_group(
        rd.from_pandas(df), group_col="source", id_col="doc_id", k=10, seed=5
    ).to_pandas()
    assert set(c[c["source"] == "big"]["doc_id"]) != set(
        a[a["source"] == "big"]["doc_id"]
    )


def test_disjoint_split_by_key_invariants(ray_session):
    """Host-disjointness, determinism across layouts, pct validation,
    null-as-empty, and agreement with the SQL generator's thresholds."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from ai_service_ocr_grading_handler_ray.stages.hashing import polyhash64, splitmix64
    from ai_service_ocr_grading_handler_ray.stages.sampling import (
        disjoint_split_by_key,
        disjoint_split_sql,
    )

    hosts = [f"h{i:03d}.example.org" for i in range(200)]
    df = pd.DataFrame(
        {"doc_id": range(2000), "host": [hosts[i % 200] for i in range(2000)]}
    )
    out = (
        disjoint_split_by_key(rd.from_pandas(df).repartition(7), "host", seed=7)
        .to_pandas()
    )
    # every host in exactly one split
    assert (out.groupby("host")["split"].nunique() == 1).all()
    # deterministic across layout/row order
    out2 = (
        disjoint_split_by_key(
            rd.from_pandas(df.sample(frac=1.0, random_state=5)).repartition(3),
            "host",
            seed=7,
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out.sort_values("doc_id").reset_index(drop=True).equals(out2)
    # fractions land near 90/5/5 over 200 hosts
    per_host = out.drop_duplicates("host")["split"].value_counts()
    assert per_host.get("train", 0) > 150
    assert 0 < per_host.get("val", 0) < 40 and 0 < per_host.get("test", 0) < 40
    # engine assignment == the formula the SQL generator encodes
    with np.errstate(over="ignore"):
        b = splitmix64(polyhash64(pa.array(hosts)) + np.uint64(7)) % np.uint64(100)
    lab = np.array(["train", "val", "test"], dtype=object)[
        np.searchsorted(np.cumsum([90, 5, 5]), b.astype(np.int64), side="right")
    ]
    eng = out.drop_duplicates("host").set_index("host")["split"]
    assert all(eng[h] == s for h, s in zip(hosts, lab))
    # null key → empty-string bucket, not a crash
    dfn = pd.DataFrame({"doc_id": [0, 1], "host": [None, ""]})
    outn = disjoint_split_by_key(rd.from_pandas(dfn), "host", seed=7).to_pandas()
    assert outn["split"].nunique() == 1
    with pytest.raises(ValueError):
        disjoint_split_by_key(rd.from_pandas(df), "host", pcts=(50, 40))
    with pytest.raises(ValueError):
        disjoint_split_sql("t", "host", pcts=(50, 40, 5))


# --- nucleus_sources ---------------------------------------------------------


def test_nucleus_hand_case(ray_session):
    from ai_service_ocr_grading_handler_ray.stages.sampling import nucleus_sources

    # weights: a=50, b=30, c=15, d=5 (total 100), p=0.8:
    # a (before 0) kept, b (before 50) kept, c (before 80 == 0.8*100,
    # NOT < ) dropped, d dropped
    df = pd.DataFrame(
        {
            "source": ["a"] * 5 + ["b"] * 3 + ["c"] * 3 + ["d"],
            "w": [10] * 5 + [10] * 3 + [5] * 3 + [5],
        }
    )
    out = nucleus_sources(
        rd.from_pandas(df).repartition(3),
        group_col="source", weight_col="w", p_num=4, p_den=5,
    ).set_index("source")
    assert dict(out.kept) == {"a": True, "b": True, "c": False, "d": False}
    assert out.loc["a", "share"] == 0.5
    assert out.loc["c", "cum_share"] == 0.95
    # order is weight desc then name asc
    assert list(out.index) == ["a", "b", "c", "d"]


def test_nucleus_tie_order_and_full_p(ray_session):
    from ai_service_ocr_grading_handler_ray.stages.sampling import nucleus_sources

    df = pd.DataFrame({"source": ["z", "y", "x"], "w": [10, 10, 10]})
    out = nucleus_sources(
        rd.from_pandas(df), group_col="source", weight_col="w",
        p_num=1, p_den=1,
    )
    # ties order by name asc; p=1 keeps everything (cum_before < total)
    assert list(out.source) == ["x", "y", "z"]
    assert out.kept.all()


# --------------------------------------------------------------------------
# exact-k-per-group sample
# --------------------------------------------------------------------------

from ai_service_ocr_grading_handler_ray.stages.sampling import (
    group_sample,
    group_sample_sql,
)
from ai_service_ocr_grading_handler_ray.stages.shuffle import shuffle_hash

import pyarrow as pa
import pytest


def _gs_ds(groups, ids):
    return rd.from_pandas(pd.DataFrame({"g": groups, "id": ids}))


def test_group_sample_exact_k_and_deterministic(ray_session):
    rng = np.random.RandomState(9)
    n = 4000
    groups = [f"g{rng.randint(8)}" for _ in range(n)]
    ids = list(range(n))
    out1 = group_sample(_gs_ds(groups, ids), k=25, group_col="g",
                        id_col="id").to_pandas()
    out2 = group_sample(_gs_ds(groups, ids), k=25, group_col="g",
                        id_col="id").to_pandas()
    counts = out1.groupby("g").size()
    assert (counts == 25).all()
    a = set(zip(out1["g"], out1["id"]))
    assert a == set(zip(out2["g"], out2["id"]))
    # brute: per group, the 25 smallest (hash, id)
    h = shuffle_hash(pa.array(np.asarray(ids, dtype=np.int64)), 0)
    df = pd.DataFrame({"g": groups, "id": ids, "h": h})
    ref = (
        df.sort_values(["h", "id"], kind="mergesort")
        .groupby("g", sort=False).head(25)
    )
    assert a == set(zip(ref["g"], ref["id"]))


def test_group_sample_small_groups_keep_all(ray_session):
    out = group_sample(_gs_ds(["a", "a", "b"], [1, 2, 3]), k=10,
                       group_col="g", id_col="id").to_pandas()
    assert len(out) == 3


def test_group_sample_k_positive(ray_session):
    with pytest.raises(ValueError, match="positive"):
        group_sample(_gs_ds(["a"], [1]), k=0, group_col="g", id_col="id")


def test_group_sample_sql_replays_exactly(ray_session, sf_dir):
    out = group_sample(
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["lang", "doc_id"]),
        k=7, group_col="lang", id_col="doc_id",
    ).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf_dir}/documents.parquet')"
    )
    ref = con.sql(group_sample_sql(k=7, table="documents", group_col="lang",
                                   id_col="doc_id")).df()
    assert set(zip(out["lang"], out["doc_id"])) == set(
        zip(ref["lang"], ref["doc_id"])
    )
