"""Readers and the schema gate for the engine's tables (SURVEY.md §2.1).

Outputs go through ``Dataset.write_parquet`` into partitioned directories
(never one giant file — resumable layout, see state/manifest.py).
"""

from __future__ import annotations

import base64
import os
import weakref

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from .warc import read_warc

# bytes of pages per read task (uncompressed, by the Parquet footers) and
# the bound on each block a grouped read yields, so on each Stage A batch
BATCH_BYTES = 16 * 1024**2

# the Parquet reads ``read_pages`` split into groups (see ``read_tasks``)
_GROUPED: weakref.WeakSet[rd.Dataset] = weakref.WeakSet()


def read_tasks(paths: str | list[str]) -> int | None:
    """Read tasks for the Parquet files ``paths``: one per ~``BATCH_BYTES``
    group of whole files, at least one per CPU, at most one per file:

        min(files, max(cluster CPUs, ceil(footer bytes / BATCH_BYTES)))

    Bytes, not rows, because row sizes differ by an order of magnitude
    between payload kinds (~2 KB per HTML page, ~21 KB per scanned page).
    They are the row groups' uncompressed sizes from the footers
    (metadata only, read on the driver).  The CPU count is the running
    Ray cluster's, else this host's (Ray is not started for it).  None
    when a path is not a readable Parquet file (a directory, a remote
    path, another format): Ray's default split is then kept."""
    files = [paths] if isinstance(paths, str) else list(paths)
    try:
        metas = [pq.read_metadata(f) for f in files]
    except (OSError, ValueError):
        return None
    nbytes = sum(m.row_group(i).total_byte_size for m in metas for i in range(m.num_row_groups))
    return min(len(files), max(_cpus(), -(-nbytes // BATCH_BYTES)))


def _cpus() -> int:
    if ray.is_initialized():
        return int(ray.cluster_resources().get("CPU", 1))
    return os.cpu_count() or 1


def grouped_read(ds: rd.Dataset) -> bool:
    """Whether ``ds`` is a Parquet read of ``read_pages`` split by
    ``read_tasks`` (not a dataset derived from one)."""
    return ds in _GROUPED


def read_pages(
    paths: str | list[str], *, fmt: str = "parquet", include_paths: bool = False
) -> rd.Dataset:
    """Pages reader over the interchange formats.

    ``parquet`` is the native layout (binary html column); ``warc`` parses
    web archives (``read_warc``).  ``jsonl`` and ``csv`` carry the html
    payload base64-encoded (text formats cannot hold raw bytes) and
    ``warc_ts`` as epoch microseconds or an ISO string; both decode
    inside map_batches into the native schema.

    A Parquet file list is read in ``read_tasks(paths)`` tasks, each
    over a group of whole files, in blocks under ``BATCH_BYTES``, and
    ``grouped_read`` then holds for the returned dataset: Stage A runs
    inside those tasks, one block per batch (``extract_pages``).

    ``include_paths`` is Ray's reader option: every row gains a ``path``
    column naming its input file, in every format (resumable extraction
    routes rows to their partition by it)."""
    if fmt == "parquet":
        tasks = read_tasks(paths)
        ds = rd.read_parquet(paths, include_paths=include_paths, override_num_blocks=tasks)
        if tasks is not None:
            # a read task merges its file batches into blocks of up to
            # target_max_block_size (128 MiB by default: 40 rows of 2 MB
            # came as one batch), closing one once it passes the target
            # and slicing one that reaches 1.5× it, so 2/3 of BATCH_BYTES
            # keeps blocks under about BATCH_BYTES.  Set on this dataset's
            # own context copy, never the global one.
            ds.context.target_max_block_size = BATCH_BYTES * 2 // 3
            _GROUPED.add(ds)
        return ds
    if fmt == "warc":
        return read_warc(paths, include_paths=include_paths)
    if fmt not in ("jsonl", "json", "csv"):
        raise ValueError(f"unsupported pages format: {fmt}")
    read = rd.read_json if fmt in ("jsonl", "json") else rd.read_csv
    ds = read(paths, include_paths=include_paths)

    def decode(t: pa.Table) -> pa.Table:
        html = pa.array(
            [base64.b64decode(v) if v else b"" for v in t["html"].to_pylist()],
            type=pa.binary(),
        )
        ts_col = t["warc_ts"]
        if pa.types.is_timestamp(ts_col.type):
            ts = ts_col.cast(pa.timestamp("us"))
        elif pa.types.is_integer(ts_col.type):
            ts = ts_col.cast(pa.timestamp("us"))  # epoch micros
        else:
            import pandas as pd

            # utc=True normalizes tz-aware / mixed-offset strings, then
            # drop the tz for the naive-UTC native schema (a direct
            # astype from tz-aware raises in pandas 2)
            parsed = pd.to_datetime(ts_col.to_pylist(), utc=True).tz_localize(None)
            ts = pa.array(parsed.astype("datetime64[us]"))
        cols = {
            "url": t["url"].cast(pa.string()),
            "warc_ts": ts,
            "html": html,
            "text": t["text"].cast(pa.string()) if "text" in t.column_names
            else pa.nulls(len(t), type=pa.string()),
            "lang": t["lang"].cast(pa.string()) if "lang" in t.column_names
            else pa.nulls(len(t), type=pa.string()),
        }
        if "path" in t.column_names:
            cols["path"] = t["path"]
        return pa.table(cols)

    return ds.map_batches(decode, batch_format="pyarrow")


def validate_schema(ds: rd.Dataset, expected, *, strict: bool = True) -> rd.Dataset:
    """Declared-schema gate (the engine's replacement for the reference's
    duck-typing): raises with a field-level diff instead of failing deep
    inside a kernel."""
    actual = ds.schema().base_schema
    exp_fields = {f.name: f.type for f in expected}
    act_fields = {f.name: f.type for f in actual}
    missing = sorted(set(exp_fields) - set(act_fields))
    extra = sorted(set(act_fields) - set(exp_fields))
    wrong = sorted(
        n for n in set(exp_fields) & set(act_fields) if exp_fields[n] != act_fields[n]
    )
    if missing or wrong or (strict and extra):
        raise ValueError(
            f"schema mismatch: missing={missing} wrong_type={wrong} extra={extra}"
        )
    return ds
