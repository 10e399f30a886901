"""Stage A's unit of work: one fused read → extract → write task per
~16 MiB group of whole input files (``PagesDatasource.read_tasks``), and
the 256-row batches of every other input."""

import base64
import json
import math
import os
import re

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from ai_service_ocr_grading_handler_ray.pipelines import extract as pipeline
from ai_service_ocr_grading_handler_ray.pipelines.extract import extract_pages
from ai_service_ocr_grading_handler_ray.sources import readers
from ai_service_ocr_grading_handler_ray.sources.readers import PagesDatasource, grouped_read, read_pages
from ai_service_ocr_grading_handler_ray.stages import extract as stage
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


def _urls(paths):
    return pa.concat_tables(pq.read_table(p, columns=["url"]) for p in paths)["url"].to_pylist()


def _extract_to(out, files):
    """Extract ``files`` into ``out``; returns the written files in name
    (= task) order."""
    extract_pages(read_pages(files)).write_parquet(out)
    return [os.path.join(out, name) for name in sorted(os.listdir(out))]


def test_cpu_floor_binds_on_small_input(pages_files):
    # six ~2 MB files are less than one 16 MiB group: one task per CPU
    assert _footer_bytes(pages_files) < readers.BATCH_BYTES
    assert PagesDatasource(pages_files).read_tasks() == min(6, _cpus())


def test_byte_target_binds(tmp_path, pages_files, monkeypatch):
    monkeypatch.setattr(readers, "BATCH_BYTES", 2**20)
    tasks = min(6, math.ceil(_footer_bytes(pages_files) / 2**20))
    assert tasks > _cpus()  # the byte term binds, not the CPU floor
    assert PagesDatasource(pages_files).read_tasks() == tasks
    written = _extract_to(str(tmp_path / "out"), pages_files)
    assert len(written) == tasks
    assert _urls(written) == _urls(pages_files)


def test_byte_rule_writes_fewer_files_than_read_blocks(tmp_path, pages_files):
    """One output file per read task, where Ray's own split of the six
    files gives twelve blocks; every row once, in input order."""
    read_blocks = rd.read_parquet(pages_files).materialize().num_blocks()
    written = _extract_to(str(tmp_path / "out"), pages_files)
    assert len(written) == min(6, _cpus()) < read_blocks
    assert _urls(written) == _urls(pages_files)


def test_grouped_read_runs_as_one_operator(tmp_path, pages_files):
    """Read (``PagesDatasource``), extract and write execute as ONE Ray Data
    operator, and the read's block target stays on the dataset's own
    context."""
    from ray.data import DataContext

    before = DataContext.get_current().target_max_block_size
    ds = extract_pages(read_pages(pages_files))
    ds.write_parquet(str(tmp_path / "out"))
    ops = re.findall(r"^Operator \d+ (\S+):", ds.stats(), flags=re.M)
    assert len(ops) == 1, ds.stats()
    assert ops == ["ReadPages->MapBatches(extract_batch_task)->Write"], ops
    assert DataContext.get_current().target_max_block_size == before


def _batch_rows(ds_of, monkeypatch, log):
    """Rows each Stage A batch receives while ``ds_of()`` is extracted."""
    plain = stage.extract_batch_task

    def counting(batch):
        with open(log, "a") as f:
            f.write(f"{batch.num_rows}\n")
        return plain(batch)

    monkeypatch.setattr(stage, "extract_batch_task", counting)
    n = extract_pages(ds_of()).count()
    monkeypatch.setattr(stage, "extract_batch_task", plain)
    with open(log) as f:
        rows = [int(line) for line in f]
    assert sum(rows) == n
    return rows


def test_multi_mb_rows_get_at_most_8_per_batch(tmp_path, monkeypatch):
    """40 rows of 2 MB in one file (one read task): 16 MiB holds 8."""
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
    assert PagesDatasource([path]).read_tasks() == 1
    rows = _batch_rows(lambda: read_pages(path), monkeypatch, str(tmp_path / "log"))
    assert sum(rows) == 40
    assert max(rows) <= 8, rows


def test_fallback_without_parquet_footers(tmp_path, pages_files, monkeypatch):
    """jsonl (decoded by read_pages) and in-memory input are not grouped
    reads, nor is a dataset derived from one: their 600 rows come in
    batches of at most 256 (a task's last batch holds its remainder)."""
    t = pq.read_table(pages_files[0]).slice(0, 600)
    path = tmp_path / "p.jsonl"
    with open(path, "w") as f:
        for r in t.to_pylist():
            r["html"] = base64.b64encode(r["html"]).decode()
            r["warc_ts"] = r["warc_ts"].isoformat()
            f.write(json.dumps(r) + "\n")
    assert grouped_read(read_pages(pages_files))
    assert not grouped_read(read_pages(pages_files).limit(10))
    for i, ds_of in enumerate([lambda: read_pages(str(path), fmt="jsonl"), lambda: rd.from_arrow(t)]):
        assert not grouped_read(ds_of())
        rows = _batch_rows(ds_of, monkeypatch, str(tmp_path / f"log{i}"))
        assert max(rows) == pipeline.FALLBACK_BATCH_ROWS, rows
