"""Row-level correctness check of an extraction output against its input.

A row is bad when any of these holds:
- it is missing from the output (rows are keyed by ``(url, warc_ts)``);
- its ``content_sha256`` differs from the digest of the independent
  stdlib-tokenizer twin, ``ExtractActor(html_engine="stdlib")``;
- it is not a deliberately corrupt edge row (``synth.edge_bucket``) and its
  status is not ``ok`` or its extracted words differ from the source
  document's words.
An output row whose key is not expected, or is repeated, is also bad.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ai_service_ocr_grading_handler_ray.stages.classify import classify_payload_kind
from ai_service_ocr_grading_handler_ray.stages.extract import ExtractActor
from ai_service_ocr_grading_handler_ray.synth import edge_bucket

OUTPUT_COLUMNS = ["url", "warc_ts", "status", "extracted_text", "content_sha256"]
EMPTY_OUTPUT = pa.schema(
    [(c, pa.timestamp("us") if c == "warc_ts" else pa.string()) for c in OUTPUT_COLUMNS]
).empty_table()


def _keys(tbl: pa.Table) -> list[tuple[str, int]]:
    return list(
        zip(tbl["url"].to_pylist(), pc.cast(tbl["warc_ts"], pa.int64()).to_pylist())
    )


def reference(pages: pa.Table) -> pa.Table:
    """Expected rows of the input ``pages``: key, source text and twin
    digest.  Runs in-process, outside any timed window."""
    twin = ExtractActor(html_engine="stdlib")(classify_payload_kind(pages))
    return pa.table(
        {
            "url": pages["url"],
            "warc_ts": pages["warc_ts"],
            "text": pages["text"],
            "ref_sha256": twin["content_sha256"],
        }
    )


def output_files(out_dir: str) -> list[str]:
    """Parquet files under ``out_dir``, flat or one partition level deep."""
    return sorted(
        glob.glob(os.path.join(out_dir, "*.parquet"))
        + glob.glob(os.path.join(out_dir, "*", "*.parquet"))
    )


def read_tables(files: list[str], columns: list[str] | None = None) -> pa.Table:
    return pa.concat_tables(pq.read_table(f, columns=columns) for f in files)


def read_output(out_dir: str) -> pa.Table:
    """The checked columns of every output file under ``out_dir``."""
    files = output_files(out_dir)
    return read_tables(files, OUTPUT_COLUMNS) if files else EMPTY_OUTPUT


def count_bad(expected: pa.Table, output: pa.Table) -> int:
    """Number of bad rows (see module docstring)."""
    got: dict[tuple[str, int], tuple[str, str, str]] = {}
    spurious = 0
    for key, status, text, sha in zip(
        _keys(output),
        output["status"].to_pylist(),
        output["extracted_text"].to_pylist(),
        output["content_sha256"].to_pylist(),
    ):
        if key in got:
            spurious += 1
        got[key] = (status, text or "", sha)
    bad = 0
    for key, source, ref in zip(
        _keys(expected), expected["text"].to_pylist(), expected["ref_sha256"].to_pylist()
    ):
        row = got.pop(key, None)
        if row is None:
            bad += 1
            continue
        status, text, sha = row
        if sha != ref:
            bad += 1
        elif not edge_bucket(key[0]) and (
            status != "ok" or text.split() != (source or "").split()
        ):
            bad += 1
    return bad + spurious + len(got)
