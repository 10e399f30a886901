"""Readers and the schema gate for the engine's tables (SURVEY.md §2.1).

``read_pages`` reads every input format with the engine's own
``PagesDatasource`` (public Ray Data API only): whole files grouped into
~``BATCH_BYTES`` read tasks, each file decoded inside its task by its
format's decoder (Parquet and jsonl/csv here, WARC in ``warc.py``, the
documents table in ``pipelines/extract.py``).  With Stage A and the write
fused after it, a job of any format is one
``ReadPages->MapBatches(extract_batch_task)->Write`` operator.  Only
nested or hive-partitioned Parquet directories go through Ray's
``read_parquet``, which derives their partition columns.

Outputs go through ``Dataset.write_parquet`` into partitioned directories
(never one giant file — resumable layout, see state/manifest.py).
"""

from __future__ import annotations

import base64
import functools
import os
from collections.abc import Callable, Iterator

import numpy as np
import pyarrow as pa
import pyarrow.csv as pacsv
import pyarrow.fs as pafs
import pyarrow.json as pajson
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

from ..schema import PAGES_SCHEMA

# bytes of pages per read task (uncompressed, by the Parquet footers; the
# file sizes for other formats) and the bound on each block a read yields,
# so on each Stage A batch
BATCH_BYTES = 16 * 1024**2

# one file's pages: (its filesystem, its path there) → tables
Decoder = Callable[[pafs.FileSystem, str], Iterator[pa.Table]]


class PagesDatasource(Datasource):
    """Page files (local, or URIs ``pyarrow.fs`` resolves; a directory
    stands for the files under it), read in ``read_tasks()`` tasks of whole
    files, each file decoded inside its task.

    ``decode`` yields one file's pages tables in ``schema``, and files are
    sized by their sizes.  Without one they are Parquet: each footer is
    read once, here, for the sizes, row counts and schema, and differing
    schemas read into one (``pa.unify_schemas``: a column some files lack
    reads as nulls there, a null-typed column takes the others' type).
    Every table a task yields is under about ``BATCH_BYTES`` (a larger one
    is sliced by its own ``nbytes``).  ``include_paths`` adds a ``path``
    column: each row's file as given.  Ray names the operator
    ``ReadPages``."""

    def __init__(
        self,
        paths: str | list[str],
        include_paths: bool = False,
        decode: Decoder | None = None,
        schema: pa.Schema | None = None,
    ) -> None:
        listed = _list_files(paths)
        self._files = [(given, fs, info.path) for given, fs, info in listed]
        self._include_paths = include_paths
        self._rows: list[int | None] = [None] * len(listed)
        self._bytes = [info.size for _, _, info in listed]
        if decode is None:
            metas = [pq.read_metadata(path, filesystem=fs) for _, fs, path in self._files]
            self._rows = [m.num_rows for m in metas]
            self._bytes = [_footer_bytes(m) for m in metas]
            schema = pa.unify_schemas([m.schema.to_arrow_schema() for m in metas])
            decode = functools.partial(parquet_tables, schema=schema)
        self._decode = decode
        self._schema = schema.append(pa.field("path", pa.string())) if include_paths else schema

    def read_tasks(self) -> int:
        """One task per ~``BATCH_BYTES`` group of whole files, at least one
        per CPU, at most one per file:

            min(files, max(cluster CPUs, ceil(bytes / BATCH_BYTES)))

        Bytes, not rows, because row sizes differ by an order of magnitude
        between payload kinds (~2 KB per HTML page, ~21 KB per scanned
        page).  For Parquet they are the row groups' uncompressed sizes.
        The CPU count is the running Ray cluster's, else this host's."""
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
            rows = [self._rows[i] for i in group]
            meta = BlockMetadata(
                num_rows=None if None in rows else sum(rows),
                size_bytes=sum(self._bytes[i] for i in group),
                input_files=[given for given, _, _ in files],
                exec_stats=None,
            )
            read = functools.partial(_read_group, self._decode, files, self._include_paths)
            tasks.append(ReadTask(read, meta, schema=self._schema))
        return tasks


def _read_group(decode: Decoder, files: list, include_paths: bool) -> Iterator[pa.Table]:
    """The non-empty tables ``decode`` yields for ``files``, each under
    about ``BATCH_BYTES``, then a ``path`` column if asked."""
    for given, fs, path in files:
        for table in decode(fs, path):
            if include_paths:
                table = table.append_column("path", pa.array([given] * len(table), pa.string()))
            if table.nbytes <= BATCH_BYTES:
                yield table
                continue
            rows = max(1, table.num_rows * BATCH_BYTES // table.nbytes)
            for start in range(0, table.num_rows, rows):
                yield table.slice(start, rows)


def _resolve(given: str) -> tuple[pafs.FileSystem, str]:
    """A path without a scheme is local, read by its absolute path (a
    relative one names a file in this process's working directory, not
    the read task's)."""
    return pafs.FileSystem.from_uri(given if "://" in given else os.path.abspath(given))


def _list_files(paths: str | list[str]) -> list[tuple[str, pafs.FileSystem, pafs.FileInfo]]:
    """Each file of ``paths`` as (its path as given, its filesystem, its
    ``FileInfo`` there); a directory stands for the files under it, in
    path order."""
    files = []
    for given in [paths] if isinstance(paths, str) else paths:
        fs, path = _resolve(given)
        info = fs.get_file_info(path)
        if info.type == pafs.FileType.NotFound:
            raise FileNotFoundError(given)
        if info.type != pafs.FileType.Directory:
            files.append((given, fs, info))
            continue
        inside = fs.get_file_info(pafs.FileSelector(path, recursive=True))
        files += [
            (given.rstrip("/") + f.path[len(path):], fs, f)
            for f in sorted(inside, key=lambda f: f.path) if f.type == pafs.FileType.File
        ]
    return files


def _hive_parquet(paths: str | list[str]) -> bool:
    """Whether a directory of ``paths`` holds anything but ``*.parquet``
    files directly under it (a nested or hive-partitioned dataset)."""
    for given in [paths] if isinstance(paths, str) else paths:
        fs, path = _resolve(given)
        if fs.get_file_info(path).type == pafs.FileType.Directory and any(
            f.type != pafs.FileType.File or not f.path.endswith(".parquet")
            for f in fs.get_file_info(pafs.FileSelector(path))
        ):
            return True
    return False


def _footer_bytes(meta: pq.FileMetaData) -> int:
    return sum(meta.row_group(i).total_byte_size for i in range(meta.num_row_groups))


def parquet_tables(
    fs: pafs.FileSystem, path: str, *, schema: pa.Schema | None = None,
    columns: list[str] | None = None,
) -> Iterator[pa.Table]:
    """The non-empty tables of one Parquet file, about ``BATCH_BYTES`` of
    rows each by its footer, in ``schema`` if given (a missing column as
    nulls, the others cast)."""
    with fs.open_input_file(path) as f:
        reader = pq.ParquetFile(f)
        meta = reader.metadata
        rows = max(1, meta.num_rows * BATCH_BYTES // max(1, _footer_bytes(meta)))
        for batch in reader.iter_batches(batch_size=rows, columns=columns, use_threads=False):
            if not batch.num_rows:
                continue
            table = pa.Table.from_batches([batch])
            yield table if schema is None else _conform(table, schema)


def _conform(table: pa.Table, schema: pa.Schema) -> pa.Table:
    """``table`` in ``schema``: a missing column as nulls, the others cast."""
    if table.schema == schema:
        return table
    return pa.Table.from_arrays([
        table[f.name].cast(f.type) if f.name in table.column_names else pa.nulls(len(table), f.type)
        for f in schema
    ], schema=schema)


def _text_tables(fs: pafs.FileSystem, path: str, *, fmt: str) -> Iterator[pa.Table]:
    """One jsonl/json or csv file of pages → the native pages schema: the
    html payload is base64 (text formats cannot hold raw bytes) and
    ``warc_ts`` epoch microseconds, a timestamp or an ISO string.  The
    file's compression follows its extension, as in Ray's readers."""
    with fs.open_input_stream(path) as f:
        data = f.read_buffer()
    if fmt == "csv":
        t = pacsv.read_csv(pa.BufferReader(data))
    else:
        # one block for the whole file: a row must not straddle two
        block = min(max(data.size, 1), 2**31 - 1)
        t = pajson.read_json(pa.BufferReader(data), pajson.ReadOptions(block_size=block))
    if not t.num_rows:
        return
    ts = t["warc_ts"]
    if pa.types.is_timestamp(ts.type) or pa.types.is_integer(ts.type):
        ts = ts.cast(pa.timestamp("us"))  # integers are epoch micros
    else:
        import pandas as pd

        # utc=True normalizes tz-aware / mixed-offset strings, then
        # drop the tz for the naive-UTC native schema (a direct
        # astype from tz-aware raises in pandas 2)
        parsed = pd.to_datetime(ts.to_pylist(), utc=True).tz_localize(None)
        ts = pa.array(parsed.astype("datetime64[us]"))
    html = [base64.b64decode(v) if v else b"" for v in t["html"].to_pylist()]
    t = t.select([name for name in ("url", "text", "lang") if name in t.column_names])
    t = t.append_column("warc_ts", ts).append_column("html", pa.array(html, pa.binary()))
    yield _conform(t, PAGES_SCHEMA)


def _cpus() -> int:
    if ray.is_initialized():
        return int(ray.cluster_resources().get("CPU", 1))
    return os.cpu_count() or 1


def read_source(source: PagesDatasource) -> rd.Dataset:
    """``source`` read in ``read_tasks()`` tasks."""
    return _bounded(rd.read_datasource(source, override_num_blocks=source.read_tasks()))


def _bounded(ds: rd.Dataset) -> rd.Dataset:
    # the tables a read yields are the Stage A batches, but Ray merges what
    # Stage A returns into blocks of up to target_max_block_size (128 MiB
    # by default: the extracts of 40 rows of 2 MB reached a writer map as
    # one batch) before a write or writer map, closing one once it passes
    # the target and slicing one that reaches 1.5× it, so 2/3 of
    # BATCH_BYTES keeps those blocks under about BATCH_BYTES.  Set on this
    # dataset's own context copy, never the global one.
    ds.context.target_max_block_size = BATCH_BYTES * 2 // 3
    return ds


def read_pages(
    paths: str | list[str], *, fmt: str = "parquet", include_paths: bool = False
) -> rd.Dataset:
    """Pages reader over the interchange formats: ``parquet`` is the
    native layout (binary html column); ``warc`` parses web archives
    (``read_warc``); ``jsonl`` and ``csv`` carry the html payload
    base64-encoded and ``warc_ts`` as epoch microseconds or an ISO string.

    Every format is read by ``PagesDatasource``, decoded inside its read
    tasks, in blocks under about ``BATCH_BYTES``: Stage A runs inside those
    tasks, one block per batch (``extract_pages``).  Nested or
    hive-partitioned Parquet directories go through Ray's ``read_parquet``
    with the same block bound.  ``include_paths`` adds a ``path`` column
    naming each row's input file (resumable extraction routes rows to
    their partition by it)."""
    if fmt == "warc":
        from .warc import read_warc  # warc.py builds on this module

        return read_warc(paths, include_paths=include_paths)
    if fmt == "parquet":
        if _hive_parquet(paths):
            return _bounded(rd.read_parquet(paths, include_paths=include_paths))
        return read_source(PagesDatasource(paths, include_paths))
    if fmt not in ("jsonl", "json", "csv"):
        raise ValueError(f"unsupported pages format: {fmt}")
    decode = functools.partial(_text_tables, fmt=fmt)
    return read_source(PagesDatasource(paths, include_paths, decode, PAGES_SCHEMA))


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
