"""CLI entry points — the engine's replacement for the reference's URL-path
router (SURVEY.md S2, ``service_handler.py:31-101``): one pipeline builder
per job kind, launched as ``python -m ai_service_ocr_grading_handler_ray <job> ...``
(or ``ray job submit -- python -m ai_service_ocr_grading_handler_ray ...`` on a cluster).

This module OWNS a Ray session (guarded init; see __ray_entry__ contract —
library code never calls ray.init, only CLI/bench/test fixtures do).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def _ensure_ray(num_cpus: int | None) -> bool:
    """Init Ray if nobody has; returns True iff WE own the session (so a
    caller embedding the CLI in an existing session keeps its session)."""
    import ray

    owned = False
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
        owned = True
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return owned


def _input_files(pattern: str) -> list[str]:
    """``--input`` → sorted glob matches, or the path itself when it has no
    glob characters; reports an empty match on stderr."""
    if not any(c in pattern for c in "*?["):
        return [pattern]
    files = sorted(glob.glob(pattern))
    if not files:
        print(f"no input files match {pattern}", file=sys.stderr)
    return files


def cmd_extract(args: argparse.Namespace) -> int:
    """Flagship: pages parquet → extraction parquet, resumable."""
    from .state.manifest import resumable_extract

    files = _input_files(args.input)
    if not files:
        return 2
    manifests = resumable_extract(
        files, args.out, partition_size=args.partition_size,
        input_format=args.format,
    )
    done = len(manifests)
    total_rows = sum(m["row_count"] for m in manifests)
    print(json.dumps({"partitions_processed": done, "rows": total_rows, "out": args.out}))
    return 0


def cmd_grade(args: argparse.Namespace) -> int:
    from .pipelines.grading import grade_requests

    import ray.data as rd

    reqs = rd.read_parquet(args.input)
    out = grade_requests(reqs)
    out.write_parquet(args.out)
    print(json.dumps({"out": args.out}))
    return 0


def cmd_questions(args: argparse.Namespace) -> int:
    from .pipelines.questions import question_generation_batch

    import ray.data as rd

    reqs = rd.read_parquet(args.input)
    out = reqs.map_batches(question_generation_batch, batch_format="pyarrow")
    out.write_parquet(args.out)
    print(json.dumps({"out": args.out}))
    return 0


def _refuse_existing_out(out: str) -> bool:
    """Ray's write_parquet APPENDS part files into an existing directory,
    silently doubling rows on a rerun — refuse instead."""
    if os.path.isdir(out) and os.listdir(out):
        print(
            f"output dir {out} exists and is non-empty; write_parquet would "
            "append to it — use a fresh directory",
            file=sys.stderr,
        )
        return True
    return False


def cmd_curate(args: argparse.Namespace) -> int:
    """pages parquet → curated train/eval parquet (extract → dedup →
    redact → filter → lang-ID → split), partitioned by split."""
    from .pipelines.curate import curate_pages
    from .sources.readers import read_pages

    files = _input_files(args.input)
    if not files:
        return 2
    if _refuse_existing_out(args.out):
        return 2
    curated = curate_pages(
        read_pages(files),
        min_quality=args.min_quality,
        max_repetition=args.max_repetition,
    )
    curated.write_parquet(args.out, partition_cols=["split"])
    import pyarrow.dataset as pads

    n = pads.dataset(args.out, format="parquet", partitioning="hive").count_rows()
    print(json.dumps({"out": args.out, "rows": n}))
    return 0


def cmd_tier(args: argparse.Namespace) -> int:
    """pages parquet → extracted + CCNet head/middle/tail tier parquet,
    partitioned by (lang, tier)."""
    from .pipelines.tiering import tier_extract, write_tiered
    from .sources.readers import read_pages

    files = _input_files(args.input)
    if not files:
        return 2
    if _refuse_existing_out(args.out):
        return 2
    tiers = tier_extract(read_pages(files), detect_lang=not args.page_lang)
    write_tiered(tiers, args.out)
    import pyarrow.dataset as pads

    n = pads.dataset(args.out, format="parquet", partitioning="hive").count_rows()
    print(json.dumps({"out": args.out, "rows": n}))
    return 0


def cmd_dedup(args: argparse.Namespace) -> int:
    """documents-style parquet → (id, cluster_id) near-dup clusters, or
    (--emit deduped) the surviving full rows with non-canonical
    near-duplicates removed."""
    import ray.data as rd

    from .stages.dedup import minhash_lsh_clusters, near_dedup_keep_one

    if _refuse_existing_out(args.out):
        return 2
    ckpt_dir = getattr(args, "checkpoint_dir", None)
    if ckpt_dir:
        # key the checkpoint by the input's identity AND content
        # fingerprint (path + per-file size/mtime): stage params alone
        # don't include the source, so reusing one dir across different
        # or re-generated --input values would silently serve the
        # previous corpus
        import glob as _glob
        import hashlib
        import os as _os

        h = hashlib.sha256(_os.path.abspath(args.input).encode())
        files = sorted(_glob.glob(args.input)) or [args.input]
        for f in files:
            try:
                st = _os.stat(f)
                h.update(f"{f}:{st.st_size}:{st.st_mtime_ns}".encode())
            except OSError:
                pass
        ckpt_dir = _os.path.join(ckpt_dir, f"input-{h.hexdigest()[:16]}")
    ckpt = "parquet" if ckpt_dir else None
    if getattr(args, "emit", "clusters") == "deduped":
        out = near_dedup_keep_one(
            rd.read_parquet(args.input),
            id_col=args.id_col, text_col=args.text_col,
            threshold=args.threshold,
            checkpoint=ckpt, checkpoint_dir=ckpt_dir,
        )
        out.write_parquet(args.out)
        import pyarrow.dataset as pads

        n = pads.dataset(args.out, format="parquet").count_rows()
        print(json.dumps({"out": args.out, "rows": n}))
        return 0
    ds = rd.read_parquet(args.input, columns=[args.id_col, args.text_col])
    out = minhash_lsh_clusters(
        ds, id_col=args.id_col, text_col=args.text_col,
        threshold=args.threshold,
        checkpoint=ckpt, checkpoint_dir=ckpt_dir,
    )
    out.write_parquet(args.out)
    import pyarrow.dataset as pads

    n = pads.dataset(args.out, format="parquet").count_rows()
    print(json.dumps({"out": args.out, "rows": n}))
    return 0


def cmd_pack(args: argparse.Namespace) -> int:
    """documents-style parquet → (doc_id, group, n_tokens, tok_offset,
    seq_id) training-sequence assignment table."""
    import ray.data as rd

    from .stages.packing import pack_sequences

    if _refuse_existing_out(args.out):
        return 2
    ds = rd.read_parquet(
        args.input, columns=[args.id_col, args.group_col, args.text_col]
    )
    out = pack_sequences(
        ds,
        budget=args.budget,
        group_col=args.group_col,
        order_col=args.id_col,
        text_col=args.text_col,
    )
    out.write_parquet(args.out)
    import pyarrow.dataset as pads

    n = pads.dataset(args.out, format="parquet").count_rows()
    print(json.dumps({"out": args.out, "rows": n}))
    return 0


def cmd_shard(args: argparse.Namespace) -> int:
    """documents-style parquet → seeded reproducible training order
    written as hive shard-partitioned parquet (shard_id = pos //
    shard_size; shard N regenerable alone from the same seed)."""
    import ray.data as rd

    from .stages.shuffle import write_training_shards

    if _refuse_existing_out(args.out):
        return 2
    ds = rd.read_parquet(args.input)
    write_training_shards(
        ds,
        args.out,
        key_col=args.key_col,
        seed=args.seed,
        shard_size=args.shard_size,
    )
    import pyarrow.dataset as pads

    n = pads.dataset(args.out, format="parquet", partitioning="hive").count_rows()
    print(json.dumps({"out": args.out, "rows": n}))
    return 0


def cmd_corpus_build(args: argparse.Namespace) -> int:
    """documents-style parquet → packed training-sequence assignment:
    the full curation capstone (prefix dedup → frequent-segment removal
    → fused quality cascade → offset packing) in one job."""
    import ray.data as rd

    from .pipelines.curate import corpus_build

    if _refuse_existing_out(args.out):
        return 2
    ds = rd.read_parquet(
        args.input, columns=[args.id_col, args.group_col, args.text_col]
    )
    out = corpus_build(
        ds,
        budget=args.budget,
        min_tokens=args.min_tokens,
        max_tokens=args.max_tokens,
        max_frac_dup_words=args.max_dup,
        min_avg_logprob=args.min_logprob,
        freq_frac=args.freq_frac,
        text_col=args.text_col,
        id_col=args.id_col,
        group_col=args.group_col,
        seg_method=args.seg_method,
    )
    out.write_parquet(args.out)
    import pyarrow.dataset as pads

    n = pads.dataset(args.out, format="parquet").count_rows()
    print(json.dumps({"out": args.out, "rows": n}))
    return 0


def cmd_quality(args: argparse.Namespace) -> int:
    """documents-style parquet → per-doc quality signals + keep verdict
    (fused FineWeb-style cascade: token bounds, dup-word fraction,
    unigram-LM logprob)."""
    import ray.data as rd

    from .stages.text_analysis import fused_quality_filter

    if _refuse_existing_out(args.out):
        return 2
    ds = rd.read_parquet(args.input, columns=[args.id_col, args.text_col])
    out = fused_quality_filter(
        ds,
        min_tokens=args.min_tokens,
        max_tokens=args.max_tokens,
        max_frac_dup_words=args.max_dup,
        min_avg_logprob=args.min_logprob,
        text_col=args.text_col,
        id_col=args.id_col,
    )
    out.write_parquet(args.out)
    import pyarrow.dataset as pads

    t = pads.dataset(args.out, format="parquet").to_table(columns=["keep"])
    import pyarrow.compute as pc

    print(
        json.dumps(
            {
                "out": args.out,
                "rows": t.num_rows,
                "kept": pc.sum(t["keep"]).as_py() or 0,
            }
        )
    )
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Job-level metrics rollup over a resumable-extract output dir:
    per-partition lineage + docs/sec and the aggregate (the engine's
    metrics surface, SURVEY.md A7)."""
    from .state.manifest import metrics_rollup

    if not os.path.isdir(os.path.join(args.out, "manifest")):
        print(f"no manifest dir under {args.out}", file=sys.stderr)
        return 2
    print(json.dumps(metrics_rollup(args.out)))
    return 0


def cmd_synth_pages(args: argparse.Namespace) -> int:
    """Materialize the synthetic pages table from a testdata sf dir."""
    from .pipelines.extract import build_pages_dataset

    build_pages_dataset(args.sf_dir).write_parquet(args.out)
    print(json.dumps({"out": args.out}))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="ai_service_ocr_grading_handler_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="job", required=True)

    pe = sub.add_parser("extract", help="pages parquet → extraction parquet (resumable)")
    pe.add_argument("--input", required=True, help="input file or glob")
    pe.add_argument("--out", required=True)
    pe.add_argument("--partition-size", type=int, default=4)
    pe.add_argument(
        "--format", choices=["parquet", "jsonl", "csv", "warc"], default="parquet",
        help="input format (jsonl/csv carry html base64-encoded; warc = "
        "Common-Crawl archive framing, gzip member-per-record supported)",
    )
    pe.set_defaults(fn=cmd_extract)

    pg = sub.add_parser("grade", help="grading requests parquet → graded parquet")
    pg.add_argument("--input", required=True)
    pg.add_argument("--out", required=True)
    pg.set_defaults(fn=cmd_grade)

    pq_ = sub.add_parser("questions", help="question-gen requests parquet → questions parquet")
    pq_.add_argument("--input", required=True)
    pq_.add_argument("--out", required=True)
    pq_.set_defaults(fn=cmd_questions)

    pc_ = sub.add_parser("curate", help="pages parquet → curated train/eval parquet")
    pc_.add_argument("--input", required=True, help="parquet file or glob")
    pc_.add_argument("--out", required=True)
    pc_.add_argument("--min-quality", type=float, default=0.35)
    pc_.add_argument("--max-repetition", type=float, default=0.5)
    pc_.set_defaults(fn=cmd_curate)

    pt = sub.add_parser(
        "tier", help="pages parquet → per-language head/middle/tail tiers (CCNet)"
    )
    pt.add_argument("--input", required=True, help="parquet file or glob")
    pt.add_argument("--out", required=True)
    pt.add_argument(
        "--page-lang",
        action="store_true",
        help="trust the page table's lang column instead of re-detecting "
        "from the extracted text",
    )
    pt.set_defaults(fn=cmd_tier)

    pd_ = sub.add_parser("dedup", help="documents parquet → near-dup clusters parquet")
    pd_.add_argument("--input", required=True)
    pd_.add_argument("--out", required=True)
    pd_.add_argument("--id-col", default="doc_id")
    pd_.add_argument("--text-col", default="text")
    pd_.add_argument("--threshold", type=float, default=0.7)
    pd_.add_argument("--emit", choices=["clusters", "deduped"], default="clusters")
    pd_.add_argument(
        "--checkpoint-dir", default=None,
        help="durable parquet stage checkpoints (atomic rename + manifest); "
             "a killed run resumes from committed stages",
    )
    pd_.set_defaults(fn=cmd_dedup)

    pp = sub.add_parser("pack", help="documents parquet → training-sequence assignment parquet")
    pp.add_argument("--input", required=True)
    pp.add_argument("--out", required=True)
    pp.add_argument("--budget", type=int, default=2048)
    pp.add_argument("--group-col", default="source")
    pp.add_argument("--id-col", default="doc_id")
    pp.add_argument("--text-col", default="text")
    pp.set_defaults(fn=cmd_pack)

    pql = sub.add_parser("quality", help="documents parquet → quality signals + keep verdict parquet")
    pql.add_argument("--input", required=True)
    pql.add_argument("--out", required=True)
    pql.add_argument("--min-tokens", type=int, default=1)
    pql.add_argument("--max-tokens", type=int, default=1 << 62)
    pql.add_argument("--max-dup", type=float, default=1.0)
    pql.add_argument("--min-logprob", type=float, default=float("-inf"))
    pql.add_argument("--id-col", default="doc_id")
    pql.add_argument("--text-col", default="text")
    pql.set_defaults(fn=cmd_quality)

    pcb = sub.add_parser(
        "corpus-build",
        help="documents parquet → dedup+clean+quality+pack training-corpus parquet",
    )
    pcb.add_argument("--input", required=True)
    pcb.add_argument("--out", required=True)
    pcb.add_argument("--budget", type=int, default=2048)
    pcb.add_argument("--min-tokens", type=int, default=20)
    pcb.add_argument("--max-tokens", type=int, default=1 << 62)
    pcb.add_argument("--max-dup", type=float, default=0.92)
    pcb.add_argument("--min-logprob", type=float, default=float("-inf"))
    pcb.add_argument("--freq-frac", type=float, default=0.05)
    pcb.add_argument("--seg-method", choices=["broadcast", "bloom"], default="broadcast")
    pcb.add_argument("--group-col", default="source")
    pcb.add_argument("--id-col", default="doc_id")
    pcb.add_argument("--text-col", default="text")
    pcb.set_defaults(fn=cmd_corpus_build)

    psh = sub.add_parser(
        "shard", help="documents parquet → seeded training-order shards (hive parquet)"
    )
    psh.add_argument("--input", required=True)
    psh.add_argument("--out", required=True)
    psh.add_argument("--key-col", default="doc_id")
    psh.add_argument("--seed", type=int, default=0)
    psh.add_argument("--shard-size", type=int, default=1_000_000)
    psh.set_defaults(fn=cmd_shard)

    pm = sub.add_parser("metrics", help="manifest rollup for an extract output dir")
    pm.add_argument("--out", required=True)
    pm.set_defaults(fn=cmd_metrics, no_ray=True)

    ps = sub.add_parser("synth-pages", help="testdata sf dir → pages parquet")
    ps.add_argument("--sf-dir", default=os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.001"))
    ps.add_argument("--out", required=True)
    ps.set_defaults(fn=cmd_synth_pages)

    args = p.parse_args(argv)
    if getattr(args, "no_ray", False):  # pure-filesystem job kinds
        return args.fn(args)
    owned = _ensure_ray(args.num_cpus)
    try:
        return args.fn(args)
    finally:
        if owned:
            import ray

            ray.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
