"""Flagship pipeline: pages → extract (payload-kind sniff included) → digest.

Engine equivalent of the reference's /generate dataflow (SURVEY.md §3.1):

    read_pages(pages)                        # PagesDatasource
      → map_batches(extract_batch_task)      # stateless tasks, per-worker
                                             # cached engine; sniffs each
                                             # row's payload kind itself
      → write_parquet / downstream scoring

On any read of ``read_pages`` or ``build_pages_dataset`` all of it is ONE
Ray Data operator, ``ReadPages->MapBatches(extract_batch_task)->Write``,
one task per ~16 MiB group of whole input files (at least one per CPU);
a dataset a caller built (in memory, or derived by a shuffle) is
extracted in the batches its caller asks for (``extract_pages``).

The whole thing is lazy and streams with backpressure; nothing
materializes the full input.
"""

from __future__ import annotations

import pyarrow.fs as pafs
import ray.data as rd

from ..schema import PAGES_SCHEMA
from ..sources.readers import PagesDatasource, parquet_tables, read_source
from ..stages import extract as _extract
# kept importable here: perfbench/tracing.py patches this name
from ..stages.classify import classify_payload_kind  # noqa: F401
from ..synth import docs_to_pages

# rows per Stage A batch of a dataset built by a shuffle (its blocks are
# whole hash partitions): on a multi-core host, tasks of these run in parallel
BUILT_BATCH_ROWS = 256


def _documents_pages(fs: pafs.FileSystem, path: str):
    """The documents table's decoder: each table of the file → its pages."""
    for docs in parquet_tables(fs, path, columns=["doc_id", "text", "lang", "source"]):
        yield docs_to_pages(docs)


def build_pages_dataset(sf_dir: str) -> rd.Dataset:
    """documents.parquet → synthetic pages table, synthesized inside the
    read task (distributed, streaming — the driver never holds the
    pages); ``input_files()`` lists the documents file."""
    path = f"{sf_dir}/documents.parquet"
    return read_source(PagesDatasource(path, decode=_documents_pages, schema=PAGES_SCHEMA))


def extract_pages(pages: rd.Dataset, *, batch_size: int | None = None) -> rd.Dataset:
    """Sniff → extract.  Returns the EXTRACTED_SCHEMA dataset (lazy).

    ONE ``map_batches``: ``extract_batch_task`` sniffs each row's payload
    kind itself (``ExtractActor``), so no separate classify stage copies
    the batch first.  Stateless tasks with a per-worker cached engine:
    zero pool spin-up, elastic, fuses with read/write (measured ~1.6×
    faster end-to-end and better scaling than a fixed actor pool, since
    this extractor's state is cheap).

    Without a ``batch_size`` each block is one batch, so on a read of
    ``read_pages`` (any format) or ``build_pages_dataset`` Ray fuses the
    read, the extract and a ``write_parquet`` or writer ``map_batches``
    after it into ONE operator with one task per read group of ~16 MiB of
    whole files (``PagesDatasource.read_tasks``; at least one per CPU;
    N → 4N scaling is not measured).  Ray's per-task cost (~10-20 ms per
    block read and again per file written, on one core) is then paid once
    per group: fused at Ray's own split (twelve read blocks), a seed-7
    ``crawl_mix`` job took 0.62 s against 0.37 s grouped (median of 10,
    one CPU).  Each batch is one table the read yields, under about
    ``BATCH_BYTES``, so multi-MB rows still come a few at a time.  A
    caller that extracts a dataset it built (in memory, or by a shuffle
    such as ``dedup_pages_by_url``) passes a row count in ``batch_size``."""
    # looked up at call time, so a replaced extract_batch_task takes effect
    return pages.map_batches(
        _extract.extract_batch_task,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )


def dedup_pages_by_url(pages: rd.Dataset) -> rd.Dataset:
    """North-rule exact dedup by url: Common-Crawl-style inputs repeat
    urls across snapshots (SURVEY.md §2.5).  One hash shuffle on a salted
    url partition; inside each partition a stable sort +
    drop_duplicates handles every url vectorized.  Deterministic winner =
    earliest snapshot (min warc_ts, then min content for exact ties)."""
    import pandas as pd

    from ..stages.dedup import add_key_partition

    def first(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.sort_values(["warc_ts", "text"], kind="mergesort")
            .drop_duplicates(subset=["url"], keep="first")
            .drop(columns=["_part"])
        )

    return (
        pages.map_batches(
            lambda t: add_key_partition(t, "url"), batch_format="pyarrow"
        )
        .groupby("_part")
        .map_groups(first, batch_format="pandas")
    )


def flagship(sf_dir: str) -> rd.Dataset:
    """End-to-end flagship over one sf dir (used by ``__ray_entry__.entry``)."""
    return extract_pages(build_pages_dataset(sf_dir))


def flagship_deduped(sf_dir: str) -> rd.Dataset:
    """Flagship with the north-rule url-dedup stage ahead of extraction
    (dedup before the expensive stage: never extract a url twice)."""
    return extract_pages(
        dedup_pages_by_url(build_pages_dataset(sf_dir)), batch_size=BUILT_BATCH_ROWS
    )
