"""Round-5 additions C: CDC chunking, referential-integrity audit,
exact stratified split."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from ai_service_ocr_grading_handler_ray.stages.cdc import (
    cdc_chunk_stats,
    gear_cut_points,
)
from ai_service_ocr_grading_handler_ray.stages.profile import ref_integrity
from ai_service_ocr_grading_handler_ray.stages.sampling import (
    stratified_exact_split,
)


class TestGearCutPoints:
    def test_deterministic_and_covers(self):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 256, size=50_000, dtype=np.uint8).tobytes()
        a = gear_cut_points(data, mask_bits=10, min_size=128, max_size=4096)
        b = gear_cut_points(data, mask_bits=10, min_size=128, max_size=4096)
        assert (a == b).all()
        assert a[-1] == len(data)
        sizes = np.diff(np.concatenate([[0], a]))
        assert (sizes[:-1] >= 128).all()  # min clamp (last chunk may be short)
        assert (sizes <= 4096).all()      # max clamp

    def test_shift_resync(self):
        # insert bytes at the front: cut points must re-synchronize, so
        # most chunks (by content) are shared with the original
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, size=40_000, dtype=np.uint8).tobytes()
        shifted = b"PREFIXBYTES" + data

        def chunk_set(d):
            cuts = gear_cut_points(d, mask_bits=9, min_size=64, max_size=2048)
            out, last = set(), 0
            for c in cuts:
                out.add(d[last:c])
                last = int(c)
            return out

        a, b = chunk_set(data), chunk_set(shifted)
        shared = len(a & b)
        assert shared / len(a) > 0.9  # CDC resyncs; fixed blocks would share ~0

    def test_empty_payload(self):
        assert gear_cut_points(b"").tolist() == [0]


class TestCdcChunkStats:
    def test_duplicate_payloads_dedupe(self, ray_session):
        rng = np.random.default_rng(4)
        blob = rng.integers(0, 256, size=20_000, dtype=np.uint8).tobytes()
        ds = rd.from_arrow(
            pa.table(
                {"doc_id": pa.array([1, 2, 3], type=pa.int64()),
                 "payload": pa.array([blob, blob, blob], type=pa.binary())}
            )
        )
        out = cdc_chunk_stats(
            ds, payload_col="payload",
            mask_bits=9, min_size=64, max_size=2048,
        ).iloc[0]
        assert out["n_payloads"] == 3
        assert out["total_bytes"] == 60_000
        assert out["distinct_bytes"] == 20_000  # 3 identical copies
        assert out["dedup_ratio"] == pytest.approx(2 / 3, abs=1e-6)
        assert out["n_chunks"] == 3 * out["n_distinct_chunks"]

    def test_layout_independent(self, ray_session):
        rng = np.random.default_rng(5)
        payloads = [
            rng.integers(0, 256, size=5000, dtype=np.uint8).tobytes()
            for _ in range(20)
        ]
        t = pa.table(
            {"doc_id": pa.array(range(20), type=pa.int64()),
             "payload": pa.array(payloads, type=pa.binary())}
        )
        a = cdc_chunk_stats(rd.from_arrow(t), payload_col="payload")
        b = cdc_chunk_stats(rd.from_arrow(t).repartition(7),
                            payload_col="payload")
        assert a.equals(b)


class TestRefIntegrity:
    def test_hand_computed(self, ray_session):
        child = rd.from_arrow(
            pa.table({"fk": pa.array([1, 1, 2, 9, 9, 9, None],
                                     type=pa.int64())})
        )
        parent = rd.from_arrow(
            pa.table({"pk": pa.array([1, 2, 3], type=pa.int64())})
        )
        r = ref_integrity(child, parent, fk_col="fk", pk_col="pk").iloc[0]
        assert r["n_child"] == 7 and r["n_null_fk"] == 1
        assert r["n_orphan_rows"] == 3 and r["n_missing_keys"] == 1
        assert r["orphan_share"] == pytest.approx(0.5, abs=1e-9)  # 3/6

    def test_clean_integrity(self, ray_session):
        child = rd.from_arrow(pa.table({"fk": pa.array([1, 2], type=pa.int64())}))
        parent = rd.from_arrow(pa.table({"pk": pa.array([1, 2, 3], type=pa.int64())}))
        r = ref_integrity(child, parent, fk_col="fk", pk_col="pk").iloc[0]
        assert r["n_orphan_rows"] == 0 and r["orphan_share"] == 0.0


class TestStratifiedExactSplit:
    def test_exact_quotas_and_determinism(self, ray_session):
        rng = np.random.default_rng(6)
        langs = rng.choice(["en", "de", "fr"], size=1000, p=[0.6, 0.3, 0.1])
        t = pa.table(
            {"doc_id": pa.array(range(1000), type=pa.int64()),
             "lang": pa.array(langs.tolist(), type=pa.string())}
        )
        out = (
            stratified_exact_split(rd.from_arrow(t), id_col="doc_id",
                                   stratum_col="lang", train_frac=(4, 5))
            .to_pandas()
        )
        assert len(out) == 1000
        for lang, grp in out.groupby("lang"):
            n = len(grp)
            want = (4 * n + 4) // 5
            assert (grp["split"] == "train").sum() == want, lang
        # layout independence
        out2 = (
            stratified_exact_split(rd.from_arrow(t).repartition(9),
                                   id_col="doc_id", stratum_col="lang",
                                   train_frac=(4, 5))
            .to_pandas()
        )
        a = out.sort_values("doc_id").reset_index(drop=True)
        b = out2.sort_values("doc_id").reset_index(drop=True)
        assert a.equals(b)

    def test_frac_edges(self, ray_session):
        t = pa.table(
            {"doc_id": pa.array(range(10), type=pa.int64()),
             "lang": pa.array(["en"] * 10, type=pa.string())}
        )
        all_train = stratified_exact_split(
            rd.from_arrow(t), id_col="doc_id", stratum_col="lang",
            train_frac=(1, 1),
        ).to_pandas()
        assert (all_train["split"] == "train").all()
        none_train = stratified_exact_split(
            rd.from_arrow(t), id_col="doc_id", stratum_col="lang",
            train_frac=(0, 1),
        ).to_pandas()
        assert (none_train["split"] == "eval").all()


def test_simjoin_parquet_checkpoint_roundtrip(ray_session, tmp_path):
    """The (id, shingle-set) profile supports the durable checkpoint
    protocol: checkpoint='parquet' yields identical pairs and commits a
    reusable manifest."""
    import os

    import pyarrow as pa
    import ray.data as rd

    from ai_service_ocr_grading_handler_ray.stages.simjoin import similarity_join

    texts = ["the quick brown fox jumps over the lazy dog today",
             "the quick brown fox jumps over the lazy cat today",
             "completely different text about database engines here now"]
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array([1, 2, 3], type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    )
    base = similarity_join(ds, threshold=(1, 3)).to_pandas()
    ck = str(tmp_path / "ck")
    out = similarity_join(
        ds, threshold=(1, 3), checkpoint="parquet", checkpoint_dir=ck
    ).to_pandas()
    assert os.path.isfile(os.path.join(ck, "simjoin_prof", "_COMPLETE.json"))
    sort = lambda d: d.sort_values(["a", "b"]).reset_index(drop=True)
    assert sort(out).equals(sort(base))


def test_stratified_split_null_strata_form_own_stratum(ray_session):
    """Code-review r5: null strata must form one stratum (SQL PARTITION
    BY semantics), not crash lexsort."""
    import pyarrow as pa
    import ray.data as rd

    t = pa.table(
        {"doc_id": pa.array(range(20), type=pa.int64()),
         "lang": pa.array((["en"] * 10) + ([None] * 10), type=pa.string())}
    )
    out = stratified_exact_split(
        rd.from_arrow(t), id_col="doc_id", stratum_col="lang",
        train_frac=(1, 2),
    ).to_pandas()
    assert len(out) == 20
    nulls = out[out["lang"].isna()]
    assert (nulls["split"] == "train").sum() == 5  # ceil(10/2) exactly


def test_ref_integrity_empty_and_mismatched_parent(ray_session):
    """Code-review r5: an empty parent key set (Arrow type null) and an
    int32 parent vs int64 child must not crash is_in — all non-null fks
    are orphans / the type aligns to the child."""
    import pyarrow as pa
    import ray.data as rd

    child = rd.from_arrow(
        pa.table({"fk": pa.array([1, 2, None], type=pa.int64())})
    )
    empty_parent = rd.from_arrow(
        pa.table({"pk": pa.array([], type=pa.int64())})
    )
    r = ref_integrity(child, empty_parent, fk_col="fk", pk_col="pk").iloc[0]
    assert r["n_orphan_rows"] == 2 and r["n_missing_keys"] == 2

    parent32 = rd.from_arrow(
        pa.table({"pk": pa.array([1], type=pa.int32())})
    )
    r2 = ref_integrity(child, parent32, fk_col="fk", pk_col="pk").iloc[0]
    assert r2["n_orphan_rows"] == 1 and r2["n_missing_keys"] == 1


def test_ref_integrity_empty_child_equals_duckdb(ray_session):
    """An empty child table: the engine and its DuckDB replay both count
    zeros, with a NaN orphan share."""
    import duckdb

    from ai_service_ocr_grading_handler_ray.stages.profile import ref_integrity_sql

    child = pa.table({"fk": pa.array([], type=pa.int64())})
    parent = pa.table({"pk": pa.array([1, 2], type=pa.int64())})
    got = ref_integrity(rd.from_arrow(child), rd.from_arrow(parent), fk_col="fk", pk_col="pk")
    con = duckdb.connect()
    con.register("child", child)
    con.register("parent", parent)
    want = con.sql(ref_integrity_sql(child_table="child", parent_table="parent",
                                     fk_col="fk", pk_col="pk")).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert got.iloc[0]["n_null_fk"] == 0 and np.isnan(got.iloc[0]["orphan_share"])


def test_ref_integrity_narrowing_parent_keys(ray_session):
    """Code-review r5b: an int64 parent key not representable in the
    int32 child type can never match — dropped, not crashed or
    wrapped onto a spurious match."""
    import pyarrow as pa
    import ray.data as rd

    child = rd.from_arrow(
        pa.table({"fk": pa.array([1, 2], type=pa.int32())})
    )
    parent = rd.from_arrow(
        pa.table({"pk": pa.array([1, 5_000_000_000 + 2], type=pa.int64())})
    )
    # 5e9+2 wraps to some int32 value; must NOT spuriously match 2
    r = ref_integrity(child, parent, fk_col="fk", pk_col="pk").iloc[0]
    assert r["n_orphan_rows"] == 1 and r["n_missing_keys"] == 1


def test_cdc_batched_tape_equals_per_doc_reference(ray_session):
    """The batched concatenated-tape gear hash must chunk identically
    to the per-doc reference whenever min_size >= 64 (doc-start window
    contamination sits below the min-size clamp)."""
    rng = np.random.default_rng(31)
    payloads = [
        rng.integers(0, 256, size=int(s), dtype=np.uint8).tobytes()
        for s in rng.integers(0, 3000, size=30)
    ]
    t = pa.table(
        {"doc_id": pa.array(range(len(payloads)), type=pa.int64()),
         "payload": pa.array(payloads, type=pa.binary())}
    )
    batched = cdc_chunk_stats(
        rd.from_arrow(t), payload_col="payload",
        mask_bits=9, min_size=64, max_size=2048,
    )
    # per-doc reference: single-row batches force the fallback shape
    # only when min_size < 64; instead compute reference driver-side
    from ai_service_ocr_grading_handler_ray.stages.cdc import (
        _chunk_hashes,
        gear_cut_points,
    )

    n_chunks = 0
    total = 0
    seen = {}
    for p in payloads:
        cuts = gear_cut_points(p, mask_bits=9, min_size=64, max_size=2048)
        hs = _chunk_hashes(p, cuts)
        sz = np.diff(np.concatenate([[0], cuts]))
        n_chunks += len(cuts)
        total += int(sz.sum())
        for h, s in zip(hs.tolist(), sz.tolist()):
            seen.setdefault(h, int(s))
    r = batched.iloc[0]
    assert r["n_chunks"] == n_chunks
    assert r["total_bytes"] == total
    assert r["n_distinct_chunks"] == len(seen)
    assert r["distinct_bytes"] == sum(seen.values())
