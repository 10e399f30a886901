"""Tier-extraction capstone: pages → extract → language ID → unigram-LM
score → per-language head/middle/tail terciles → (optionally) parquet
partitioned by (lang, tier).

This is the CCNet shape (Wenzek et al. 2020) over this engine's
extraction core: main-content extraction feeds a self-trained unigram-LM
perplexity proxy, and each language's score distribution is cut at its
EXACT terciles (stages/selection.exact_group_quantiles — distributed
histogram refinement, no sort) so downstream consumers can pull
`tier=head` partitions only.  The reference repo has no corpus-tiering
step; this composes its extraction surface (SURVEY.md §3.1) with the
added curation operators (§2.5+).

Scale notes:
- extraction output is checkpointed as a SLIM (id, lang, text)
  projection before scoring: the LM-count pass, the scoring pass and the
  refinement scans each consume it, and re-running extraction per scan
  would dominate.  At 100 TB the checkpoint is a partitioned-parquet
  write (resumable) instead of an in-memory materialize — same role as
  in `curate.corpus_build`.
- the tier assign is shuffle-free: thresholds are #langs × 2 floats,
  shipped in the task closure.
- the partitioned write groups output files by (lang, tier), so a
  consumer of one tier reads only its directories.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..stages.selection import perplexity_tiers
from .extract import BUILT_BATCH_ROWS, build_pages_dataset, extract_pages


def tier_extract(pages: rd.Dataset, *, detect_lang: bool = True) -> rd.Dataset:
    """pages (url, warc_ts, html, …) → one row per successfully extracted
    unique url: (url, lang, n_tokens, avg_logprob, tier).

    The north-rule exact url dedup runs BEFORE extraction (Common-Crawl
    snapshots repeat urls; dedup ahead of the expensive stage — never
    extract a url twice), so the output is one row per url; rows with
    empty extracted text are dropped.  ``detect_lang=True`` re-derives the
    language from the EXTRACTED text (CCNet order: extraction first,
    language ID second — the page-table ``lang`` column describes the raw
    page, not what survived boilerplate removal); ``False`` trusts the
    page column.
    """
    from ..stages.text_analysis import add_language_id
    from .extract import dedup_pages_by_url

    extracted = extract_pages(dedup_pages_by_url(pages), batch_size=BUILT_BATCH_ROWS)

    def slim(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.equal(t["status"], "ok"),
            pc.greater(
                pc.utf8_length(pc.coalesce(t["extracted_text"], pa.scalar(""))), 0
            ),
        )
        t = t.filter(keep)
        if detect_lang:
            t = add_language_id(t, text_col="extracted_text")
            lang = t["lang_pred"]
        else:
            lang = t["lang"]
        return pa.table(
            {
                "url": t["url"],
                "lang": lang,
                "text": pc.cast(t["extracted_text"], pa.string()),
            }
        )

    # checkpoint: the LM-count, scoring and refinement scans each consume
    # the slim corpus (module docstring)
    corpus = extracted.map_batches(slim, batch_format="pyarrow").materialize()

    return perplexity_tiers(corpus, text_col="text", id_col="url", group_col="lang")


def tier_extract_sf(sf_dir: str) -> rd.Dataset:
    """Capstone over one testdata sf dir (driver/bench entry)."""
    return tier_extract(build_pages_dataset(sf_dir))


def write_tiered(ds: rd.Dataset, out_dir: str) -> None:
    """Partitioned sink: one directory per (lang, tier) — a consumer of
    `tier=head` reads only those files; a failed run reruns cleanly by
    deleting and rewriting the output dir."""
    ds.write_parquet(out_dir, partition_cols=["lang", "tier"])
