"""Readers and the schema gate for the engine's tables (SURVEY.md §2.1).

Outputs go through ``Dataset.write_parquet`` into partitioned directories
(never one giant file — resumable layout, see state/manifest.py).
"""

from __future__ import annotations

import base64

import pyarrow as pa
import ray.data as rd

from .warc import read_warc


def read_pages(
    paths: str | list[str], *, fmt: str = "parquet", include_paths: bool = False
) -> rd.Dataset:
    """Pages reader over the interchange formats.

    ``parquet`` is the native layout (binary html column); ``warc`` parses
    web archives (``read_warc``).  ``jsonl`` and ``csv`` carry the html
    payload base64-encoded (text formats cannot hold raw bytes) and
    ``warc_ts`` as epoch microseconds or an ISO string; both decode
    inside map_batches into the native schema.

    ``include_paths`` is Ray's reader option: every row gains a ``path``
    column naming its input file, in every format (resumable extraction
    routes rows to their partition by it)."""
    if fmt == "parquet":
        return rd.read_parquet(paths, include_paths=include_paths)
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
