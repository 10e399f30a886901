"""Benchmark harness (driver-run per round; see BASELINE.md).

Headline: the flagship extraction pipeline (synthesize pages from the
documents table, replicated deterministically → classify → extract →
write parquet), measured end-to-end over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": ..., "value": <headline sec (median of GRAFT_REPS)>,
   "unit": "sec", "queries": {...per-query MEDIAN sec...},
   "queries_spread": {...per-query min/max...}, "value_spread": {...},
   "sf": ..., "num_cpus": N, "docs": N, "docs_per_sec": N}

Medians-of-3 with reported spread (GRAFT_REPS, default 3): this VM has
±15% machine phases (BASELINE.md), which made round-over-round single
runs unattributable to code (VERDICT r3 #3).

--scaling: runs the headline twice in fresh processes (num_cpus=8 and 32)
on the same input and prints throughput at both plus scaling efficiency
(rate_32 / rate_8) / 4  — the sandbox substitute for N vs 4N nodes
(BASELINE.md / SURVEY.md §4).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
REPLICATE = int(os.environ.get("GRAFT_REPLICATE", "144"))
REPS = max(1, int(os.environ.get("GRAFT_REPS", "3")))

BENCH_QUERIES = [
    "q01_pricing_summary",
    "q03_top_revenue_orders",
    "q05_orders_by_segment",
    "q11_events_hourly",
    "q12_sessionize",
    "q16_dedup_docs_exact",
    "q20_knn_brute",
    "q28_streaming_window",
    "q31_grading",
    "q32_minhash_dedup",
    "q47_asof_join",
    "q52_curation",
    "q75_inverted_index",
    "q80_sliding_window",
    "q83_skewed_join",
    "q84_streaming_sessionize",
    "q86_decontaminate",
    "q92_pack_sequences",
    "q93_repetition_signals",
    "q98_corpus_build",
    "q99_perplexity_tiers",
    "q101_tier_extract",
    "q102_dup_ngram_coverage",
    "q103_remove_dup_spans",
    "q104_kmeans_assign",
    "q105_cluster_prune",
    "q106_shuffle_positions",
    "q107_epoch_mix",
    "q109_cap_per_source",
    "q110_subtract_corpus",
    "q111_covariance",
    "q112_url_near_dup",
    "q113_bigram_logprob",
    "q114_winsorize",
    "q115_curriculum_order",
    "q116_snapshot_dedup",
    "q117_gopher_quality",
    "q118_host_pagerank",
    "q119_bpe_tokenize",
    "q120_quality_classifier",
    "q121_phash_image_dedup",
    "q122_multimodal_features",
    "q123_url_filter",
    "q124_link_graph_pagerank",
    "q125_interval_join",
    "q126_chunk_documents",
    "q127_robots_gate",
    "q128_connected_components",
    "q129_surt_cdx_dedup",
    "q130_bm25_rank",
    "q131_weighted_sample",
    "q132_host_template_removal",
    "q133_snapshot_diff",
    "q139_char_entropy",
    "q140_host_disjoint_split",
    "q141_inverted_index",
    "q142_pmi_collocations",
    "q146_crawl_frontier",
    "q150_funnel",
    "q151_cohort_retention",
    "q152_triangle_clustering",
    "q153_resample_ffill",
    "q154_rolling_window",
    "q155_similarity_join",
    "q156_crawl_depth",
    "q157_user_trend",
    "q158_naive_bayes",
    "q159_markov_transitions",
    "q160_rollup_lang_source",
    "q161_pareto_skyline",
    "q162_mad_outliers",
    "q163_url_param_profile",
    "q164_left_outer_join",
    "q165_grouped_histogram",
    "q166_day_over_day",
    "q167_fuzzy_linkage",
    "q168_cube_lang_source",
    "q169_classifier_eval",
    "q170_source_gini",
    "q171_degree_distribution",
    "q172_c4_line_filter",
    "q173_novelty",
    "q174_fix_encoding",
    "q175_rrf_fusion",
    "q176_head_meta",
    "q177_politeness_schedule",
    "q178_recency_reputation",
    "q179_source_lang_entropy",
    "q180_nucleus_sources",
    "q181_html_tables",
    "q182_shard_packing",
    "q183_readability",
    "q184_host_churn",
    "q185_daily_activity",
    "q186_cume_dist",
    "q187_k_anonymity",
    "q188_personalized_pagerank",
    "q189_top_paths",
    "q190_numeric_drift",
    "q191_daily_burst",
    "q192_source_quality_report",
    "q193_decile_bins",
    "q194_rolling_distinct",
    "q195_url_templates",
    "q196_table_linearize",
    "q197_host_dup_profile",
    "q198_mirror_pairs",
    "q199_sitemap_coverage",
    "q200_jpeg_decode",
    "q201_spearman_drift",
    "q202_user_modal_event",
    "q203_json_ld",
    "q204_containment_join",
    "q205_welch_drift",
    "q206_apply_changelog",
    "q207_global_rank",
    "q208_group_sample",
    "q209_ohlc_bars",
    "q210_heading_outline",
    "q211_running_totals",
    "q212_interarrival",
    "q213_attribution",
    "q214_cusum_drift",
    "q215_unpivot",
    "q216_benford",
    "q217_kwic",
    "q218_weighted_median",
    "q219_ks_drift",
    "q220_keyness",
    "q221_psi_drift",
    "q222_lang_source_independence",
    "q223_trimmed_mean",
    "q224_dedup_impact",
    "q225_lateness_audit",
    "q226_session_copairs",
    "q227_ntile",
    "q228_km_conversion",
    "q229_quality_kappa",
    "q230_ab_test",
    "q231_daily_autocorr",
    "q232_calibration",
    "q233_path_rollup",
    "q234_position_attribution",
    "q235_scd2_history",
    "q236_lexical_diversity",
    "q237_tag_histogram",
    "q238_zipf_slope",
    "q239_mann_whitney",
    "q240_rfm_segments",
    "q241_stickiness",
    "q242_vocab_overlap",
    "q243_source_jsd",
    "q244_host_kcore",
    "q245_entry_exit",
    "q246_zorder_layout",
    "q247_change_rate",
    "q248_cocitation",
    "q249_kendall_tau",
    "q250_wilson_ranking",
    "q251_union_coverage",
    "q252_longest_streak",
    "q253_approx_distinct",
    "q254_revisit_schedule",
    "q255_hreflang_rollup",
    "q256_assortativity",
    "q257_reciprocity",
    "q258_burstiness",
    "q259_heaps_fit",
    "q260_ring_balance",
    "q261_vocab_coverage",
    "q262_ring_resize",
    "q263_shard_digests",
    "q264_lang_script_audit",
    "q265_centroid_cosines",
    "q266_rendezvous",
    "q267_content_survival",
    "q268_assoc_rules",
    "q269_fd_audit",
    "q270_binned_quantiles",
    "q271_kcenter_coreset",
    "q272_golden_record",
    "q273_dow_seasonality",
    "q274_pca_project",
    "q275_ref_integrity",
    "q276_cdc_chunks",
    "q277_stratified_split",
    "q278_truncation_audit",
    "q279_winnow_overlap",
    "q280_changepoints",
    "q281_sprt",
    "q282_runs_test",
]


def _stage_stats(result) -> list[dict]:
    """Per-operator breakdown from Ray Data's structured stats summary
    (VERDICT r4 #7): walks the summary DAG (parents first) and returns
    one row per operator — task-wall-seconds summed across tasks plus
    output rows — so a round-over-round regression localizes to a stage
    without rerunning it in isolation.  Empty for non-Dataset results
    (driver-side DataFrames carry no stage plan)."""
    import ray.data as rd

    if not isinstance(result, rd.Dataset):
        return []
    try:
        # a written dataset records its executed plan on _write_ds
        # (Dataset.stats() does the same dance)
        src = getattr(result, "_write_ds", None) or result
        summary = src._get_stats_summary()
    except Exception:
        return []
    out: list[dict] = []
    seen: set[int] = set()

    def walk(s) -> None:
        if id(s) in seen:
            return
        seen.add(id(s))
        for p in getattr(s, "parents", None) or []:
            walk(p)
        for op in getattr(s, "operators_stats", None) or []:
            wall = getattr(op, "wall_time", None) or {}
            rows = getattr(op, "output_num_rows", None) or {}
            out.append(
                {
                    "operator": op.operator_name,
                    "task_wall_sum_s": round(float(wall.get("sum", 0.0)), 3),
                    "rows": int(rows.get("sum", 0)) if rows else 0,
                }
            )

    walk(summary)
    return out


def _consume(result) -> int:
    """Force execution; return row count."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    if isinstance(result, rd.Dataset):
        return result.count()
    if isinstance(result, (pd.DataFrame, pa.Table)):
        return len(result)
    return 0


def build_replicated_pages(sf_dir: str, replicate: int):
    """documents → pages, replicated deterministically (distinct urls per
    replica) so the benchmark workload is ≫ the tiny source table."""
    import pyarrow as pa
    import ray.data as rd

    from ai_service_ocr_grading_handler_ray.synth import docs_to_pages

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )

    def explode(batch: pa.Table) -> pa.Table:
        tables = []
        for r in range(replicate):
            t = batch.set_column(
                0,
                "doc_id",
                pa.array(
                    [d + r * 10_000_000 for d in batch["doc_id"].to_pylist()],
                    type=pa.int64(),
                ),
            )
            tables.append(docs_to_pages(t))
        return pa.concat_tables(tables)

    # small input batches: each input row fans out ×replicate, so 32 doc
    # rows → ~384 pages per fused task; ~160 tasks keeps every CPU busy
    return ds.map_batches(explode, batch_format="pyarrow", batch_size=32)


def ensure_pages_input(sf_dir: str, replicate: int) -> str:
    """Materialize the synthetic pages table ONCE per (sf, replicate) —
    untimed; the timed headline is read_pages(pages) → extract → write,
    matching the north-star metric (docs/sec over Common-Crawl-style
    Parquet), not synthesis."""
    tag = sf_dir.strip("/").replace("/", "_")
    cache = f"/tmp/bench_pages_{tag}_x{replicate}"
    marker = os.path.join(cache, "_COMPLETE")
    if not os.path.exists(marker):
        shutil.rmtree(cache, ignore_errors=True)
        # bounded file sizes → file-level read parallelism + resumable
        # units (never one giant file)
        build_replicated_pages(sf_dir, replicate).write_parquet(
            cache, min_rows_per_file=8192, max_rows_per_file=8192
        )
        with open(marker, "w") as f:
            f.write("ok")
    return cache


def _pages_files(pages_dir: str) -> list[str]:
    """The Parquet files of ``ensure_pages_input``'s directory, which also
    holds its ``_COMPLETE`` marker."""
    return sorted(
        os.path.join(pages_dir, n) for n in os.listdir(pages_dir) if n.endswith(".parquet")
    )


def _median(xs: list[float]) -> float:
    xs = sorted(xs)
    n = len(xs)
    return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2


def run_headline() -> tuple[float, int, dict]:
    from ai_service_ocr_grading_handler_ray.pipelines.extract import extract_pages
    from ai_service_ocr_grading_handler_ray.sources.readers import read_pages

    out_dir = f"/tmp/bench_out_{NUM_CPUS}"
    shutil.rmtree(out_dir, ignore_errors=True)

    pages_dir = ensure_pages_input(SF_DIR, REPLICATE)
    # warm the OS page cache so we measure compute+shuffle, not first read
    files = _pages_files(pages_dir)
    for path in files:
        with open(path, "rb") as f:
            f.read()
    # untimed warmup: spin up every Ray worker process + import the engine
    # in each, so the timed run measures steady-state throughput
    warm = read_pages(files[: max(1, len(files) // 4)])
    extract_pages(warm).count()

    times: list[float] = []
    n_docs = 0
    stages: list[dict] = []
    for _ in range(REPS):
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        result = extract_pages(read_pages(files))
        result.write_parquet(out_dir)
        times.append(time.perf_counter() - t0)
        stages = _stage_stats(result) or stages

        import pyarrow.dataset as pads

        n_docs = pads.dataset(out_dir, format="parquet").count_rows()
        shutil.rmtree(out_dir, ignore_errors=True)
    spread = {"min": round(min(times), 3), "max": round(max(times), 3),
              "runs": [round(t, 3) for t in times], "stages": stages}
    return _median(times), n_docs, spread


def run_queries() -> tuple[dict[str, float], dict[str, dict]]:
    from ai_service_ocr_grading_handler_ray.pipelines.queries import QUERIES

    # fail fast and loudly on a battery/registry name drift — a KeyError
    # mid-battery silently costs the whole run's numbers
    unknown = [n for n in BENCH_QUERIES if n not in QUERIES]
    if unknown:
        raise KeyError(f"bench battery names not in QUERIES: {unknown}")

    out: dict[str, float] = {}
    spread: dict[str, dict] = {}
    last_result: dict[str, object] = {}
    for name in BENCH_QUERIES:
        ts: list[float] = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            res = QUERIES[name](SF_DIR)
            _consume(res)
            ts.append(time.perf_counter() - t0)
        out[name] = round(_median(ts), 3)
        spread[name] = {"min": round(min(ts), 3), "max": round(max(ts), 3)}
        last_result[name] = res
    # per-stage breakdown for the 10 most expensive entries (VERDICT r4
    # #7) — from the already-executed final rep, no rerun
    top10 = sorted(out, key=out.get, reverse=True)[:10]
    for name in top10:
        st = _stage_stats(last_result[name])
        if st:
            spread[name]["stages"] = st
    return out, spread


def _silence_empty_schema_warnings() -> None:
    """Drop Ray 2.49's 'RefBundle with a different schema … new schema: .'
    warning for SCHEMA-LESS EMPTY bundles only.  Those bundles are created
    inside Ray's aggregate plumbing for empty partitions (our UDFs return
    typed empty tables — verified); real schema mismatches (two non-empty
    schemas) still warn."""
    import logging

    class _F(logging.Filter):
        def filter(self, record: logging.LogRecord) -> bool:
            m = record.getMessage()
            return not (
                "RefBundle with a different schema" in m and "new schema: ." in m
            )

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_F())


def main() -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    _silence_empty_schema_warnings()
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.preserve_order = False

    headline_sec, n_docs, value_spread = run_headline()
    if "--headline-only" in sys.argv:
        queries, queries_spread = {}, {}
    else:
        queries, queries_spread = run_queries()

    print(
        json.dumps(
            {
                "metric": "flagship extraction wall time (read pages parquet -> classify -> extract -> write)",
                "value": round(headline_sec, 3),
                "unit": "sec",
                "reps": REPS,
                "value_spread": value_spread,
                "queries": queries,
                "queries_spread": queries_spread,
                "sf": SF_DIR,
                "num_cpus": NUM_CPUS,
                "docs": n_docs,
                "docs_per_sec": round(n_docs / headline_sec, 1),
            }
        )
    )
    ray.shutdown()


def scaling() -> None:
    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        # pin the whole process tree to ncpu physical cores: ray's num_cpus
        # only caps concurrent tasks, while Arrow/numpy internal thread
        # pools would otherwise leak onto all cores and inflate the
        # small-"cluster" rate (this emulates a real N-core node)
        cmd = [sys.executable, os.path.abspath(__file__), "--headline-only"]
        if shutil.which("taskset"):
            cmd = ["taskset", "-c", f"0-{ncpu - 1}"] + cmd
        out = subprocess.run(
            cmd, env=env, capture_output=True, text=True, check=True
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    n_lo = int(os.environ.get("GRAFT_SCALE_LO", "4"))
    n_hi = int(os.environ.get("GRAFT_SCALE_HI", "16"))
    lo, hi = run(n_lo), run(n_hi)
    eff = (hi["docs_per_sec"] / lo["docs_per_sec"]) / (n_hi / n_lo)
    out = {
        f"sec_{n_lo}cpu": lo["value"],
        f"sec_{n_hi}cpu": hi["value"],
        "docs": hi["docs"],
        f"docs_per_sec_{n_lo}cpu": lo["docs_per_sec"],
        f"docs_per_sec_{n_hi}cpu": hi["docs_per_sec"],
        "scaling_efficiency": round(eff, 3),
    }
    # secondary pair on the full machine: this single VM shares one memory
    # bus, so per-core throughput degrades near 32-way (real 4N-node
    # clusters have 4N memory buses); reported for transparency
    lo2, hi2 = run(8), run(32)
    out["secondary_8_32"] = {
        "sec_8cpu": lo2["value"],
        "sec_32cpu": hi2["value"],
        "docs_per_sec_8cpu": lo2["docs_per_sec"],
        "docs_per_sec_32cpu": hi2["docs_per_sec"],
        "scaling_efficiency": round((hi2["docs_per_sec"] / lo2["docs_per_sec"]) / 4, 3),
    }
    print(json.dumps(out))




def stats() -> None:
    """--stats: print the per-operator breakdown of the headline pipeline."""
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from ai_service_ocr_grading_handler_ray.pipelines.extract import extract_pages
    from ai_service_ocr_grading_handler_ray.sources.readers import read_pages

    files = _pages_files(ensure_pages_input(SF_DIR, REPLICATE))
    res = extract_pages(read_pages(files)).materialize()
    print(res.stats())
    ray.shutdown()


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif "--stats" in sys.argv:
        stats()
    else:
        main()
