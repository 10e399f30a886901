"""Flagship pipeline: pages → payload-kind classify → extract → digest.

Engine equivalent of the reference's /generate dataflow (SURVEY.md §3.1):

    read_parquet(pages)
      → map_batches(classify_payload_kind)   # stateless, vectorized sniff
      → map_batches(extract_batch_task)      # stateless tasks, per-worker
                                             # cached engine; batches of
                                             # ~16 MiB of pages
      → write_parquet / downstream scoring

The whole thing is lazy and streams with backpressure; nothing
materializes the full input.
"""

from __future__ import annotations

import os

import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..stages import extract as _extract
from ..stages.classify import classify_payload_kind
from ..synth import docs_to_pages


def build_pages_dataset(sf_dir: str) -> rd.Dataset:
    """documents.parquet → synthetic pages table, synthesized inside Ray
    tasks (distributed, streaming — the driver never holds the pages)."""
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "source"],
    )
    return ds.map_batches(docs_to_pages, batch_format="pyarrow", zero_copy_batch=True)


# Stage A batch sizing (see ``stage_a_batch_rows``)
BATCH_BYTES = 16 * 1024**2
MAX_BATCH_ROWS = 8192
FALLBACK_BATCH_ROWS = 256


def stage_a_batch_rows(pages: rd.Dataset) -> int:
    """Rows per Stage A batch for ``pages``: about ``BATCH_BYTES`` of pages.

    Ray runs one fused classify → extract (→ write) task per batch, and
    its per-task cost (~10-20 ms per block read and again per file
    written, on one core) is a large share of a job: its Parquet read
    splits six 1,000-row files into twelve ~500-row blocks, and a small
    fixed batch keeps each as its own task and output file.  The target is
    in bytes, not rows, because row sizes differ by an order of magnitude
    between payload kinds (~2 KB per HTML page, ~21 KB per scanned page);
    a fixed 8,192-row batch is as fast on HTML pages but uses more memory.

    The input's rows and uncompressed bytes come from the Parquet footers
    of ``pages.input_files()`` (metadata only, read on the driver), and

        rows = min(BATCH_BYTES // bytes_per_row,
                   ceil(total_rows / cluster CPUs), MAX_BATCH_ROWS) ≥ 1

    The CPU term keeps at least one batch per CPU, so a multi-core host
    still runs Stage A in parallel; N → 4N scaling of this rule is not
    measured.  The CPU count is the running Ray cluster's, else this
    host's (Ray is not started for it).  The row cap bounds a wrong
    estimate: ``input_files()`` names the *source* files, and operators
    such as ``limit`` pass those through, so the footers can describe more
    rows than reach Stage A.  Operators that hide them (``map_batches``,
    ``select_columns``, ``filter``; so ``build_pages_dataset`` and the
    jsonl, csv and WARC readers), in-memory datasets and files without a
    readable Parquet footer get ``FALLBACK_BATCH_ROWS``: nothing is counted
    or executed to size a batch."""
    files = pages.input_files()
    try:
        metas = [pq.read_metadata(f) for f in files]
    except (OSError, ValueError):  # not Parquet, or not readable from here
        return FALLBACK_BATCH_ROWS
    rows = sum(m.num_rows for m in metas)
    if not rows:
        return FALLBACK_BATCH_ROWS
    nbytes = sum(m.row_group(i).total_byte_size for m in metas for i in range(m.num_row_groups))
    if ray.is_initialized():
        cpus = int(ray.cluster_resources().get("CPU", 1))
    else:
        cpus = os.cpu_count() or 1
    per_cpu = -(-rows // max(1, cpus))  # ceil: at least one batch per CPU
    return max(1, min(BATCH_BYTES * rows // nbytes, per_cpu, MAX_BATCH_ROWS))


def extract_pages(pages: rd.Dataset, *, batch_size: int | None = None) -> rd.Dataset:
    """classify → extract.  Returns the EXTRACTED_SCHEMA dataset (lazy).

    Stateless tasks with a per-worker cached engine: zero pool spin-up,
    elastic, fuses with read/write (measured ~1.6× faster end-to-end and
    better scaling than a fixed actor pool, since this extractor's state
    is cheap).  ``batch_size=None`` sizes batches by bytes
    (``stage_a_batch_rows``): Ray bundles the read's small blocks into one
    task per ~16 MiB of pages, and a ``write_parquet`` that follows writes
    one file per task.  A row count overrides the rule; a caller with
    multi-MB rows in an in-memory dataset (where the rule falls back to
    256 rows) passes one."""
    if batch_size is None:
        batch_size = stage_a_batch_rows(pages)
    classified = pages.map_batches(
        classify_payload_kind, batch_format="pyarrow", zero_copy_batch=True
    )
    # looked up at call time, so a replaced extract_batch_task takes effect
    return classified.map_batches(
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
    return extract_pages(dedup_pages_by_url(build_pages_dataset(sf_dir)))
