"""Readers and the schema gate for the engine's tables (SURVEY.md §2.1).

``read_pages`` reads local Parquet page files with the engine's own
``PagesDatasource`` (public Ray Data API only): footers read once, whole
files grouped into ~``BATCH_BYTES`` read tasks, no sampling task.  Ray
names that read ``ReadPages``; with Stage A and the write fused after it,
a job is one ``ReadPages->MapBatches(extract_batch_task)->Write``
operator.  Other inputs go through Ray's readers.

Outputs go through ``Dataset.write_parquet`` into partitioned directories
(never one giant file — resumable layout, see state/manifest.py).
"""

from __future__ import annotations

import base64
import functools
import os
import weakref

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

from .warc import read_warc

# bytes of pages per read task (uncompressed, by the Parquet footers) and
# the bound on each block a grouped read yields, so on each Stage A batch
BATCH_BYTES = 16 * 1024**2

# the reads ``read_pages`` made through ``PagesDatasource``.  Ray has no
# public way to ask whether a dataset is a read with nothing after it (a
# ``limit`` or ``map_batches`` on it must not count), so the read is
# remembered here when it is made.
_GROUPED: weakref.WeakSet[rd.Dataset] = weakref.WeakSet()


class PagesDatasource(Datasource):
    """Local Parquet page files, read in ``read_tasks()`` tasks of whole
    files.

    Each footer is read once, here; the task count, the groups and the
    read tasks' metadata all come from those footers, and there is no
    sampling task.  Files whose schemas differ read into one schema
    (``pa.unify_schemas``: a column some files lack reads as nulls there,
    a null-typed column takes the other files' type).  With
    ``include_paths`` every row gains a ``path`` column holding its file's
    path as given.  Ray names the read operator ``ReadPages``."""

    def __init__(self, files: list[str], include_paths: bool = False) -> None:
        metas = [pq.read_metadata(f) for f in files]
        self._files = list(files)
        # read by absolute path: a relative one names a file in this
        # process's working directory, not the read task's
        self._absolute = [os.path.abspath(f) for f in files]
        self._include_paths = include_paths
        self._rows = [m.num_rows for m in metas]
        self._bytes = [
            sum(m.row_group(i).total_byte_size for i in range(m.num_row_groups)) for m in metas
        ]
        self._file_schema = pa.unify_schemas([m.schema.to_arrow_schema() for m in metas])
        self._schema = self._file_schema
        if include_paths:
            self._schema = self._schema.append(pa.field("path", pa.string()))

    def read_tasks(self) -> int:
        """One task per ~``BATCH_BYTES`` group of whole files, at least one
        per CPU, at most one per file:

            min(files, max(cluster CPUs, ceil(footer bytes / BATCH_BYTES)))

        Bytes, not rows, because row sizes differ by an order of magnitude
        between payload kinds (~2 KB per HTML page, ~21 KB per scanned
        page).  They are the row groups' uncompressed sizes.  The CPU count
        is the running Ray cluster's, else this host's."""
        return min(len(self._files), max(_cpus(), -(-sum(self._bytes) // BATCH_BYTES)))

    def estimate_inmemory_data_size(self) -> int:
        return sum(self._bytes)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        """``parallelism`` contiguous groups of whole files, in the order
        given (their file counts differ by at most one)."""
        groups = np.array_split(np.arange(len(self._files)), min(parallelism, len(self._files)))
        tasks = []
        for group in groups:
            files = [self._files[i] for i in group]
            # rows per table read: about BATCH_BYTES of them, at least one.
            # In a fused Stage A each table the task yields is one batch.
            rows = [max(1, self._rows[i] * BATCH_BYTES // max(1, self._bytes[i])) for i in group]
            meta = BlockMetadata(
                num_rows=sum(self._rows[i] for i in group),
                size_bytes=sum(self._bytes[i] for i in group),
                input_files=files,
                exec_stats=None,
            )
            read = functools.partial(
                _read_files,
                [self._absolute[i] for i in group],
                rows,
                self._file_schema,
                files if self._include_paths else None,
            )
            tasks.append(ReadTask(read, meta, schema=self._schema))
        return tasks


def _read_files(
    files: list[str], rows: list[int], schema: pa.Schema, paths: list[str] | None
):
    """The non-empty tables of ``files`` in ``schema``, ``rows`` rows at a
    time per file, then a ``path`` column from ``paths`` if given."""
    for i, (file, batch_rows) in enumerate(zip(files, rows)):
        reader = pq.ParquetFile(file)
        for batch in reader.iter_batches(batch_size=batch_rows, use_threads=False):
            if not batch.num_rows:
                continue
            table = pa.Table.from_batches([batch])
            if table.schema != schema:
                table = _conform(table, schema)
            if paths is not None:
                table = table.append_column("path", pa.array([paths[i]] * len(table), pa.string()))
            yield table


def _conform(table: pa.Table, schema: pa.Schema) -> pa.Table:
    """``table`` in ``schema``: a missing column as nulls, the others cast."""
    columns = [
        table[f.name].cast(f.type) if f.name in table.column_names else pa.nulls(len(table), f.type)
        for f in schema
    ]
    return pa.Table.from_arrays(columns, schema=schema)


def _local_parquet_files(paths: str | list[str]) -> list[str] | None:
    """``paths`` as a list of local files: a directory counts as its
    ``*.parquet`` files, in name order.  None when a path is neither a
    local file nor a directory holding only such files (a remote path, a
    nested or hive-partitioned directory), or when there is none."""
    files = []
    for path in [paths] if isinstance(paths, str) else paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            inside = [os.path.join(path, name) for name in sorted(os.listdir(path))]
            if not all(f.endswith(".parquet") and os.path.isfile(f) for f in inside):
                return None
            files += inside
        else:
            return None
    return files or None


def _pages_datasource(paths: str | list[str], include_paths: bool) -> PagesDatasource | None:
    """``PagesDatasource`` over ``paths``, or None when it cannot read them
    (see ``_local_parquet_files``; a file that is not Parquet; schemas that
    do not unify)."""
    files = _local_parquet_files(paths)
    if files is None:
        return None
    try:
        return PagesDatasource(files, include_paths)
    except (OSError, pa.ArrowException):
        return None


def _cpus() -> int:
    if ray.is_initialized():
        return int(ray.cluster_resources().get("CPU", 1))
    return os.cpu_count() or 1


def grouped_read(ds: rd.Dataset) -> bool:
    """Whether ``ds`` is a ``PagesDatasource`` read of ``read_pages`` (not
    a dataset derived from one)."""
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

    Local Parquet files, and directories of them, are read by
    ``PagesDatasource`` in ``read_tasks()`` tasks, each over a group of
    whole files, in blocks under about ``BATCH_BYTES``, and
    ``grouped_read`` then holds for the returned dataset: Stage A runs
    inside those tasks, one block per batch (``extract_pages``).  Other
    Parquet inputs (a remote path, a nested directory) go through Ray's
    ``read_parquet``.

    ``include_paths`` is Ray's reader option: every row gains a ``path``
    column naming its input file, in every format (resumable extraction
    routes rows to their partition by it)."""
    if fmt == "parquet":
        source = _pages_datasource(paths, include_paths)
        if source is None:
            return rd.read_parquet(paths, include_paths=include_paths)
        ds = rd.read_datasource(source, override_num_blocks=source.read_tasks())
        # the tables the read yields are the Stage A batches, but Ray merges
        # what Stage A returns into blocks of up to target_max_block_size
        # (128 MiB by default: the extracts of 40 rows of 2 MB reached a
        # writer map as one batch) before a write or writer map, closing one
        # once it passes the target and slicing one that reaches 1.5× it,
        # so 2/3 of BATCH_BYTES keeps those blocks under about BATCH_BYTES.
        # Set on this dataset's own context copy, never the global one.
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
