"""Stage A's unit of work: one fused read → extract → write task per
~16 MiB group of whole input files (``PagesDatasource.read_tasks``), in
every input format, and the batches a caller asks for on a dataset it
built."""

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

from ai_service_ocr_grading_handler_ray.pipelines.extract import build_pages_dataset, extract_pages
from ai_service_ocr_grading_handler_ray.sources import readers
from ai_service_ocr_grading_handler_ray.sources.readers import PagesDatasource, read_pages
from ai_service_ocr_grading_handler_ray.sources.warc import (
    pages_to_full_warc_bytes,
    pages_to_warc_bytes,
)
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


def _write_jsonl(table, path):
    """``table`` as jsonl pages: base64 html, ISO ``warc_ts``."""
    with open(path, "w") as f:
        for r in table.to_pylist():
            r["html"] = base64.b64encode(r["html"]).decode()
            r["warc_ts"] = r["warc_ts"].isoformat()
            f.write(json.dumps(r) + "\n")
    return str(path)


def _write_warc(table, path, full=False):
    path.write_bytes((pages_to_full_warc_bytes if full else pages_to_warc_bytes)(table))
    return str(path)


@pytest.mark.parametrize("fmt", ["jsonl", "csv", "warc", "warc_full", "documents"])
def test_every_format_runs_as_one_operator(tmp_path, pages_files, sf_dir, fmt):
    """A jsonl, csv or WARC job, and the flagship's documents read, plan
    as the same ONE operator as a Parquet job: the file is decoded inside
    the read task."""
    t = pq.read_table(pages_files[0]).slice(0, 300)
    if fmt == "documents":
        pages = build_pages_dataset(sf_dir)
    elif fmt == "jsonl":
        pages = read_pages(_write_jsonl(t, tmp_path / "p.jsonl"), fmt="jsonl")
    elif fmt == "csv":
        df = t.to_pandas()
        df["html"] = [base64.b64encode(h).decode() for h in df["html"]]
        df.to_csv(tmp_path / "p.csv", index=False)
        pages = read_pages(str(tmp_path / "p.csv"), fmt="csv")
    else:
        pages = read_pages(_write_warc(t, tmp_path / "p.warc.gz", fmt == "warc_full"), fmt="warc")
    ds = extract_pages(pages)
    ds.write_parquet(str(tmp_path / "out"))
    ops = re.findall(r"^Operator \d+ (\S+):", ds.stats(), flags=re.M)
    assert ops == ["ReadPages->MapBatches(extract_batch_task)->Write"], ds.stats()
    written = pq.read_table(str(tmp_path / "out"))
    assert written.num_rows == (500 if fmt == "documents" else 300)


def _batch_rows(ds_of, monkeypatch, log, batch_size=None):
    """Rows each Stage A batch receives while ``ds_of()`` is extracted."""
    plain = stage.extract_batch_task

    def counting(batch):
        with open(log, "a") as f:
            f.write(f"{batch.num_rows}\n")
        return plain(batch)

    monkeypatch.setattr(stage, "extract_batch_task", counting)
    n = extract_pages(ds_of(), batch_size=batch_size).count()
    monkeypatch.setattr(stage, "extract_batch_task", plain)
    with open(log) as f:
        rows = [int(line) for line in f]
    assert sum(rows) == n
    return rows


def test_multi_mb_rows_get_at_most_8_per_batch(tmp_path, monkeypatch):
    """40 rows of 2 MB in one file (one read task): 16 MiB holds 8, as
    Parquet, jsonl (the decoded table sliced by its size) and WARC (the
    archive streamed a batch at a time)."""
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
    rows_40 = pa.concat_tables([row] * 40)
    reads = {
        "parquet": lambda: read_pages(path),
        "jsonl": lambda: read_pages(_write_jsonl(rows_40, tmp_path / "big.jsonl"), fmt="jsonl"),
        "warc": lambda: read_pages(_write_warc(rows_40, tmp_path / "big.warc.gz"), fmt="warc"),
    }
    for fmt, ds_of in reads.items():
        rows = _batch_rows(ds_of, monkeypatch, str(tmp_path / f"log-{fmt}"))
        assert sum(rows) == 40, fmt
        assert max(rows) <= 8, (fmt, rows)


def test_batch_size_comes_only_from_the_caller(tmp_path, pages_files, monkeypatch):
    """No input falls back to fixed batches: a jsonl file's 600 rows (one
    decoded table under 16 MiB) come as one batch, and an in-memory
    dataset's blocks are its batches unless the caller passes a row
    count, as the callers that extract a dataset they built do."""
    t = pq.read_table(pages_files[0]).slice(0, 600)
    path = _write_jsonl(t, tmp_path / "p.jsonl")
    rows = _batch_rows(lambda: read_pages(path, fmt="jsonl"), monkeypatch, str(tmp_path / "log0"))
    assert rows == [600]
    rows = _batch_rows(lambda: rd.from_arrow(t), monkeypatch, str(tmp_path / "log1"))
    assert rows == [600]
    rows = _batch_rows(
        lambda: rd.from_arrow(t), monkeypatch, str(tmp_path / "log2"), batch_size=256
    )
    assert rows == [256, 256, 88]
