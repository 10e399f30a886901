"""End-to-end training-data curation pipeline — the composition of the
engine's webtext operators into one streaming job:

    pages
      → classify + extract                (stages/extract, task compute)
      → canonical-url exact dedup         (stages/clean + dedup: earliest
                                           snapshot per canonical url)
      → PII redaction                     (stages/clean)
      → quality + repetition filters      (stages/text_analysis + clean)
      → language ID                       (stages/text_analysis)
      → deterministic train/eval split    (stages/sampling)

Everything is lazy map_batches/groupby — one url-hash shuffle total (the
dedup); every other stage streams.  Output: curated train/eval page
tables with provenance columns (url, canonical_url, lang_pred,
quality_score, repetition_ratio, split).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..stages.clean import add_canonical_url, add_redacted, add_repetition_ratio
from ..stages.sampling import TRAIN_CUT
from ..stages.text_analysis import add_language_id, add_quality_metrics
from .extract import build_pages_dataset, extract_pages


def curate_pages(
    pages: rd.Dataset,
    *,
    min_quality: float = 0.35,
    max_repetition: float = 0.5,
) -> rd.Dataset:
    """pages → curated rows with a ``split`` column ('train'/'eval')."""
    extracted = extract_pages(pages)

    ok = extracted.map_batches(
        lambda t: t.filter(pc.equal(t["status"], "ok")), batch_format="pyarrow"
    )

    # canonical-url dedup: earliest snapshot per canonical url
    import pandas as pd

    with_canon = ok.map_batches(
        lambda t: add_canonical_url(t, url_col="url"), batch_format="pyarrow"
    )

    from ..stages.dedup import add_key_partition

    def first(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.sort_values(["warc_ts", "content_sha256"], kind="mergesort")
            .drop_duplicates(subset=["canonical_url"], keep="first")
            .drop(columns=["_part"])
        )

    deduped = (
        with_canon.map_batches(
            lambda t: add_key_partition(t, "canonical_url"), batch_format="pyarrow"
        )
        .groupby("_part")
        .map_groups(first, batch_format="pandas")
    )

    def enrich(t: pa.Table) -> pa.Table:
        t = add_redacted(t, text_col="extracted_text", out="curated_text")
        t = add_quality_metrics(t, text_col="curated_text")
        t = add_repetition_ratio(t, text_col="curated_text")
        t = add_language_id(t, text_col="curated_text")
        keep = pc.and_(
            pc.greater_equal(t["quality_score"], min_quality),
            pc.less_equal(t["repetition_ratio"], max_repetition),
        )
        t = t.filter(keep)
        return t.select(
            [
                "url", "canonical_url", "warc_ts", "lang", "lang_pred", "title",
                "curated_text", "content_sha256", "quality_score", "repetition_ratio",
            ]
        )

    enriched = deduped.map_batches(enrich, batch_format="pyarrow")

    def add_split(t: pa.Table) -> pa.Table:
        # same md5-threshold rule as stages/sampling.train_eval_split
        import hashlib

        split = [
            "train" if hashlib.md5(str(u).encode()).hexdigest() < TRAIN_CUT else "eval"
            for u in t["canonical_url"].to_pylist()
        ]
        return t.append_column("split", pa.array(split, type=pa.string()))

    return enriched.map_batches(add_split, batch_format="pyarrow")


def curation_pipeline(sf_dir: str) -> rd.Dataset:
    return curate_pages(build_pages_dataset(sf_dir))


def _stage_checkpoint(
    ds: rd.Dataset,
    mode,
    ckpt_dir: str | None,
    name: str,
    params: dict,
) -> rd.Dataset:
    """Stage-boundary checkpoint for double-consumed intermediates —
    the shared ``state/checkpoint.py`` protocol (``mode=True`` →
    in-memory materialize; ``mode="parquet"`` → durable atomic
    rename-then-manifest checkpoint, making corpus_build resumable like
    the extract CLI, VERDICT r3 #6).  Callers here always pin
    (``mode`` is True or "parquet", never None)."""
    from ..state.checkpoint import stage_checkpoint

    return stage_checkpoint(ds, mode, ckpt_dir, name, params)


def corpus_build(
    docs: rd.Dataset,
    *,
    prefix_chars: int = 30,
    words_per_seg: int = 2,
    freq_frac: float = 0.05,
    min_docs_floor: int = 20,
    min_tokens: int = 20,
    max_tokens: int = 80,
    max_frac_dup_words: float = 0.92,
    min_avg_logprob: float = -3.41,
    budget: int = 256,
    text_col: str = "text",
    id_col: str = "doc_id",
    group_col: str = "source",
    num_parts: int = 32,
    seg_method: str = "broadcast",
    checkpoint: bool | str = True,
    checkpoint_dir: str | None = None,
) -> rd.Dataset:
    """The training-corpus capstone — the curation operators composed
    into one job, documents in → packed training sequences out:

        docs
          → prefix-fingerprint exact dedup   (first ``prefix_chars``
            chars; keep lowest ``id_col``)                 [1 shuffle]
          → frequent-segment removal          (CCNet boilerplate; the
            doc-frequency cut scales with corpus size:
            max(min_docs_floor, freq_frac × |docs|))       [1 shuffle]
          → fused quality cascade             (token bounds + dup-word
            fraction + self-trained unigram-LM logprob, ONE scan)
                                               [1 vocab-sized shuffle]
          → offset sequence packing           (per ``group_col``,
            ``budget``-token sequences)        [1 coarse shuffle]

    Output: (id_col, group_col, n_tokens, tok_offset, seq_id) — one row
    per surviving document, its slot on the training-token tape.

    ``checkpoint=True`` materializes the corpus after the dedup and
    clean stages: both downstream stages consume their input TWICE
    (a corpus-statistics pass + a rewrite pass), so without a
    checkpoint the upstream shuffles re-execute.
    ``checkpoint="parquet"`` (with ``checkpoint_dir``) is the durable
    100-TB form: each stage boundary writes once to partitioned parquet
    with an atomic manifest, and a rerun resumes from the last committed
    stage instead of re-running its shuffles (``_stage_checkpoint``).
    """
    from ..stages.dedup import exact_dedup
    from ..stages.packing import pack_sequences
    from ..stages.text_analysis import fused_quality_filter

    from ..stages.clean import remove_frequent_segments

    # scale the boilerplate cut with corpus size (parquet metadata count)
    n_docs = docs.count()
    min_docs = max(min_docs_floor, int(round(freq_frac * n_docs)))

    def add_pfx(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_pfx", pc.utf8_slice_codeunits(t[text_col], 0, prefix_chars)
        )

    deduped = exact_dedup(
        docs.map_batches(add_pfx, batch_format="pyarrow"),
        "_pfx",
        id_col,
        num_parts=num_parts,
    ).map_batches(lambda t: t.drop_columns(["_pfx"]), batch_format="pyarrow")
    ckpt_params = {
        "prefix_chars": prefix_chars, "words_per_seg": words_per_seg,
        "min_docs": min_docs, "text_col": text_col, "id_col": id_col,
        "group_col": group_col, "seg_method": seg_method,
    }
    if checkpoint:
        deduped = _stage_checkpoint(
            deduped, checkpoint, checkpoint_dir, "s1_deduped", ckpt_params
        )

    cleaned = remove_frequent_segments(
        deduped,
        min_docs=min_docs,
        text_col=text_col,
        id_col=id_col,
        words_per_seg=words_per_seg,
        num_parts=num_parts,
        method=seg_method,
        passthrough_cols=(group_col,),
    )
    if checkpoint:
        cleaned = _stage_checkpoint(
            cleaned, checkpoint, checkpoint_dir, "s2_cleaned", ckpt_params
        )

    scored = fused_quality_filter(
        cleaned,
        text_col="text_clean",
        id_col=id_col,
        min_tokens=min_tokens,
        max_tokens=max_tokens,
        max_frac_dup_words=max_frac_dup_words,
        min_avg_logprob=min_avg_logprob,
        num_parts=num_parts,
        passthrough_cols=(group_col,),
    )
    kept = scored.map_batches(
        lambda t: t.filter(pc.equal(t["keep"], 1)).select(
            [id_col, group_col, "n_tokens"]
        ),
        batch_format="pyarrow",
    )

    return pack_sequences(
        kept,
        budget=budget,
        group_col=group_col,
        order_col=id_col,
        token_col="n_tokens",
        num_parts=num_parts,
    )
