"""Stage A batch sizing: rows per batch from the input's Parquet footers
(``pipelines.extract.stage_a_batch_rows``), and the files it leaves."""

import base64
import json
import os

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from ai_service_ocr_grading_handler_ray.pipelines import extract as pipeline
from ai_service_ocr_grading_handler_ray.pipelines.extract import (
    extract_pages,
    stage_a_batch_rows,
)
from ai_service_ocr_grading_handler_ray.sources.readers import read_pages
from ai_service_ocr_grading_handler_ray.synth import docs_to_pages


def _cpus() -> int:
    return int(ray.cluster_resources()["CPU"])


@pytest.fixture(scope="module")
def pages_files(tmp_path_factory, sf_dir):
    """Six 1,000-row Parquet files of ~2 KB pages (the sf0.001 pages, tiled)."""
    pages = docs_to_pages(pq.read_table(f"{sf_dir}/documents.parquet"))
    pages = pa.concat_tables([pages] * 12)
    d = tmp_path_factory.mktemp("pages")
    files = []
    for i in range(6):
        files.append(str(d / f"pages-{i}.parquet"))
        pq.write_table(pages.slice(i * 1000, 1000), files[-1])
    return files


def _footer_bytes(files):
    metas = [pq.read_metadata(f) for f in files]
    return sum(m.row_group(i).total_byte_size for m in metas for i in range(m.num_row_groups))


def test_cpu_floor_binds_on_small_input(pages_files):
    # 16 MiB of ~2 KB rows is above the 8,192-row cap; 6,000 rows over
    # the session's CPUs is below both
    assert _footer_bytes(pages_files) / 6000 < pipeline.BATCH_BYTES / pipeline.MAX_BATCH_ROWS
    assert stage_a_batch_rows(read_pages(pages_files)) == -(-6000 // _cpus())


def test_byte_target_binds(pages_files, monkeypatch):
    monkeypatch.setattr(pipeline, "BATCH_BYTES", 2**20)
    rows = stage_a_batch_rows(read_pages(pages_files))
    assert rows == 2**20 * 6000 // _footer_bytes(pages_files)
    assert 400 < rows < -(-6000 // _cpus())


def test_row_cap_binds(pages_files, monkeypatch):
    monkeypatch.setattr(pipeline, "MAX_BATCH_ROWS", 100)
    assert stage_a_batch_rows(read_pages(pages_files)) == 100


def test_multi_mb_rows_get_at_most_8_per_batch(tmp_path):
    """40 rows of 2 MB: one CPU share is 10 rows, 16 MiB holds 8."""
    html = b"<html><body><p>" + b"lorem ipsum " * 170_000 + b"</p></body></html>"
    row = pa.table({
        "url": ["https://big.example.com/p"],
        "warc_ts": pa.array([1_704_067_200_000_000], type=pa.timestamp("us")),
        "html": pa.array([html], type=pa.binary()),
        "text": pa.array([None], type=pa.string()),
        "lang": ["en"],
    })
    path = str(tmp_path / "big.parquet")
    with pq.ParquetWriter(path, row.schema, use_dictionary=False) as w:
        for _ in range(40):
            w.write_table(row)
    assert 1 <= stage_a_batch_rows(read_pages(path)) <= 8


def test_fallback_without_parquet_footers(tmp_path, pages_files):
    """jsonl files (read directly, or decoded by read_pages) and in-memory
    datasets keep the fixed 256-row batch."""
    t = pq.read_table(pages_files[0]).slice(0, 20)
    path = tmp_path / "p.jsonl"
    with open(path, "w") as f:
        for r in t.to_pylist():
            r["html"] = base64.b64encode(r["html"]).decode()
            r["warc_ts"] = r["warc_ts"].isoformat()
            f.write(json.dumps(r) + "\n")
    for ds in (rd.read_json(str(path)), read_pages(str(path), fmt="jsonl"), rd.from_arrow(t)):
        assert stage_a_batch_rows(ds) == pipeline.FALLBACK_BATCH_ROWS


def test_byte_rule_writes_fewer_files_than_read_blocks(tmp_path, pages_files):
    """Six 1,000-row files: a 256-row batch wrote one file per read block;
    the byte rule writes one per CPU share, every row once."""
    read_blocks = read_pages(pages_files).materialize().num_blocks()
    out = str(tmp_path / "out")
    extract_pages(read_pages(pages_files)).write_parquet(out)
    assert _cpus() <= len(os.listdir(out)) < read_blocks
    urls = pads.dataset(out, format="parquet").to_table(columns=["url"])["url"]
    expected = pads.dataset(pages_files, format="parquet").to_table(columns=["url"])["url"]
    assert sorted(urls.to_pylist()) == sorted(expected.to_pylist())
