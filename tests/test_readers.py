"""Reader surface: interchange formats, WARC framing."""

import pytest

from ai_service_ocr_grading_handler_ray.schema import EXTRACTED_SCHEMA
from ai_service_ocr_grading_handler_ray.sources.readers import read_pages


def test_jsonl_and_csv_pages_match_parquet_extraction(tmp_path, sf_dir):
    """The same pages ingested as parquet, jsonl (base64 html), and csv
    must produce byte-identical extraction digests."""
    import base64
    import json as _json

    import pandas as pd
    import pyarrow.parquet as pq

    from ai_service_ocr_grading_handler_ray.pipelines.extract import extract_pages
    from ai_service_ocr_grading_handler_ray.synth import docs_to_pages

    docs = pq.read_table(f"{sf_dir}/documents.parquet").slice(0, 120)
    pages = docs_to_pages(docs)
    pq_path = tmp_path / "pages.parquet"
    pq.write_table(pages, str(pq_path))

    rows = pages.to_pylist()
    jl_path = tmp_path / "pages.jsonl"
    with open(jl_path, "w") as f:
        for r in rows:
            f.write(_json.dumps({
                "url": r["url"],
                "warc_ts": int(pd.Timestamp(r["warc_ts"]).value // 1000),
                "html": base64.b64encode(r["html"]).decode(),
                "text": r["text"], "lang": r["lang"],
            }) + "\n")
    csv_path = tmp_path / "pages.csv"
    pd.DataFrame({
        "url": [r["url"] for r in rows],
        "warc_ts": [int(pd.Timestamp(r["warc_ts"]).value // 1000) for r in rows],
        "html": [base64.b64encode(r["html"]).decode() for r in rows],
        "text": [r["text"] for r in rows],
        "lang": [r["lang"] for r in rows],
    }).to_csv(csv_path, index=False)

    def digests(fmt, path):
        ds = extract_pages(read_pages(str(path), fmt=fmt))
        assert ds.schema().base_schema == EXTRACTED_SCHEMA
        out = ds.to_pandas()
        return sorted(zip(out["url"], out["content_sha256"]))

    ref = digests("parquet", pq_path)
    assert digests("jsonl", jl_path) == ref
    assert digests("csv", csv_path) == ref


def test_read_pages_rejects_unknown_format():
    import pytest

    with pytest.raises(ValueError, match="unsupported pages format"):
        read_pages("/tmp/x.avro", fmt="avro")


class TestWarcLite:
    def _pages(self):
        import pyarrow.parquet as pq

        from ai_service_ocr_grading_handler_ray.synth import docs_to_pages

        docs = pq.read_table(
            "/root/testdata/sf0.001/documents.parquet",
            columns=["doc_id", "text", "lang", "source"],
        )
        return docs_to_pages(docs.slice(0, 40))

    def test_roundtrip_gzip_and_plain(self, tmp_path):
        import pyarrow as pa
        import ray.data as rd

        from ai_service_ocr_grading_handler_ray.sources.warc import (
            pages_to_warc_bytes,
            read_warc,
        )

        pages = self._pages()
        for compress, name in ((True, "a.warc.gz"), (False, "b.warc")):
            (tmp_path / name).write_bytes(
                pages_to_warc_bytes(pages, compress=compress)
            )
            got = (
                read_warc(str(tmp_path / name))
                .to_pandas()
                .sort_values("url")
                .reset_index(drop=True)
            )
            ref = (
                pages.select(["url", "warc_ts", "html"])
                .to_pandas()
                .sort_values("url")
                .reset_index(drop=True)
            )
            assert got["url"].tolist() == ref["url"].tolist()
            assert got["html"].tolist() == ref["html"].tolist()  # byte-exact payloads
            assert (got["warc_ts"] == ref["warc_ts"]).all()

    def test_payload_containing_warc_literal(self):
        import pyarrow as pa

        from ai_service_ocr_grading_handler_ray.sources.warc import (
            pages_to_warc_bytes,
            parse_warc_records,
        )

        # Content-Length framing must survive adversarial payload bytes
        evil = b"x\r\n\r\nWARC/1.0\r\nContent-Length: 9999\r\n\r\n" + b"\x00" * 10
        t = pa.table(
            {
                "url": ["https://e.example/x"],
                "warc_ts": pa.array([0], type=pa.timestamp("us")),
                "html": pa.array([evil], type=pa.binary()),
            }
        )
        urls, ts, payloads, *_ = parse_warc_records(pages_to_warc_bytes(t))
        assert urls == ["https://e.example/x"] and payloads == [evil]

    def test_warc_feeds_extraction(self, tmp_path):
        """read_warc output drives the flagship extractor directly —
        html-only pages (no text/lang columns) are the real-crawl shape."""
        from ai_service_ocr_grading_handler_ray.pipelines.extract import extract_pages
        from ai_service_ocr_grading_handler_ray.sources.warc import (
            pages_to_warc_bytes,
            read_warc,
        )

        (tmp_path / "c.warc.gz").write_bytes(pages_to_warc_bytes(self._pages()))
        ds = extract_pages(read_warc(str(tmp_path / "c.warc.gz")))
        assert ds.schema().base_schema == EXTRACTED_SCHEMA
        out = ds.to_pandas()
        assert len(out) == 40
        assert (out["status"] == "ok").sum() > 30


class TestFullWarcFraming:
    """Full WARC framing (VERDICT r4 #6): a spec-shaped segment —
    warcinfo + request + HTTP-wrapped response records, the layout of a
    real Common-Crawl segment — round-trips into the pages schema and
    feeds extraction green."""

    def _pages(self):
        import numpy as np
        import pyarrow.parquet as pq

        from ai_service_ocr_grading_handler_ray.synth import docs_to_pages

        docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
        return docs_to_pages(docs).slice(0, 40)

    def test_full_segment_roundtrip(self):
        import pyarrow.compute as pc

        from ai_service_ocr_grading_handler_ray.sources.warc import (
            pages_to_full_warc_bytes,
            parse_warc_records,
        )

        pages = self._pages()
        blob = pages_to_full_warc_bytes(pages, chunked_every=3)
        urls, ts, payloads, rtypes, statuses, mimes = parse_warc_records(blob)
        # warcinfo + request records skipped; one page per response
        assert len(urls) == pages.num_rows
        assert urls == pages["url"].to_pylist()
        assert all(r == "response" for r in rtypes)
        assert all(s == 200 for s in statuses)
        assert all(m == "text/html" for m in mimes)
        # HTTP envelope stripped and chunked bodies de-chunked:
        # byte-identical page payloads
        want = [p or b"" for p in pages["html"].to_pylist()]
        assert payloads == want
        want_ts = (
            pages["warc_ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype("int64").tolist()
        )
        assert ts == want_ts

    def test_warc11_fractional_date_and_conversion_records(self):
        from ai_service_ocr_grading_handler_ray.sources.warc import (
            parse_warc_records,
        )

        payload = b"extracted text body"
        rec = (
            b"WARC/1.1\r\n"
            b"WARC-Type: conversion\r\n"
            b"WARC-Target-URI: https://w.example/a\r\n"
            b"WARC-Date: 2017-10-24T12:00:00.123456Z\r\n"
            b"Content-Type: text/plain\r\n"
            b"Content-Length: %d\r\n\r\n" % len(payload)
        ) + payload + b"\r\n\r\n"
        urls, ts, payloads, rtypes, statuses, mimes = parse_warc_records(rec)
        assert urls == ["https://w.example/a"]
        assert payloads == [payload]
        assert rtypes == ["conversion"] and mimes == ["text/plain"]
        assert ts[0] % 1_000_000 == 123456

    def test_non_page_records_skipped(self):
        from ai_service_ocr_grading_handler_ray.sources.warc import (
            parse_warc_records,
        )

        def rec(rtype, payload=b"x"):
            return (
                b"WARC/1.0\r\nWARC-Type: " + rtype.encode() + b"\r\n"
                b"WARC-Target-URI: https://s.example/\r\n"
                b"WARC-Date: 2024-01-01T00:00:00Z\r\n"
                b"Content-Length: %d\r\n\r\n" % len(payload)
            ) + payload + b"\r\n\r\n"

        blob = b"".join(
            rec(t) for t in
            ("warcinfo", "request", "metadata", "revisit", "resource")
        )
        urls, ts, payloads, rtypes, *_ = parse_warc_records(blob)
        assert rtypes == ["resource"]  # only the page-bearing one

    def test_full_segment_feeds_extraction(self, tmp_path, ray_session):
        from ai_service_ocr_grading_handler_ray.pipelines.extract import (
            extract_pages,
        )
        from ai_service_ocr_grading_handler_ray.sources.warc import (
            pages_to_full_warc_bytes,
            read_warc,
        )

        (tmp_path / "full.warc.gz").write_bytes(
            pages_to_full_warc_bytes(self._pages(), chunked_every=4)
        )
        ds = read_warc(str(tmp_path / "full.warc.gz"), with_meta=True)
        df = ds.to_pandas()
        assert set(df["record_type"]) == {"response"}
        assert (df["http_status"] == 200).all()
        out = extract_pages(
            read_warc(str(tmp_path / "full.warc.gz"))
        ).to_pandas()
        assert len(out) == 40
        assert (out["status"] == "ok").sum() > 30


def _read_table(ds):
    import pyarrow as pa
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _by_url_ts(table):
    return table.sort_by([("url", "ascending"), ("warc_ts", "ascending")])


def _written_as(pages, fmt, path):
    """``pages`` written to ``path`` the way each format carries them."""
    import base64

    import pandas as pd
    import pyarrow.parquet as pq

    from ai_service_ocr_grading_handler_ray.sources.warc import (
        pages_to_full_warc_bytes,
        pages_to_warc_bytes,
    )

    if fmt == "parquet":
        pq.write_table(pages, path)
    elif fmt in ("warc", "warc_full"):
        write = pages_to_full_warc_bytes if fmt == "warc_full" else pages_to_warc_bytes
        with open(path, "wb") as f:
            f.write(write(pages))
    else:
        df = pages.to_pandas()
        df["html"] = [base64.b64encode(h).decode() for h in df["html"]]
        df["warc_ts"] = pages["warc_ts"].cast("int64").to_numpy()  # epoch micros
        if fmt == "jsonl":
            df.to_json(path, orient="records", lines=True)
        else:
            df.to_csv(path, index=False)
    return path


@pytest.mark.parametrize(
    "fmt,include_paths,with_meta",
    [(fmt, paths, False) for fmt in ("parquet", "jsonl", "csv") for paths in (False, True)]
    + [(fmt, paths, meta) for fmt in ("warc", "warc_full")
       for paths in (False, True) for meta in (False, True)],
)
def test_every_format_reads_the_pages_it_was_written_from(
    tmp_path, sf_dir, fmt, include_paths, with_meta
):
    """Each format's decoder gives back the table its file was written
    from (WARC carries url, warc_ts and html only)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ai_service_ocr_grading_handler_ray.sources.warc import read_warc
    from ai_service_ocr_grading_handler_ray.synth import docs_to_pages

    pages = docs_to_pages(pq.read_table(f"{sf_dir}/documents.parquet").slice(0, 120))
    path = _written_as(pages, fmt, str(tmp_path / f"pages.{fmt}"))
    if fmt.startswith("warc"):
        ds = read_warc(path, with_meta=with_meta, include_paths=include_paths)
        want = pages.select(["url", "warc_ts", "html"])
        if with_meta:
            full = fmt == "warc_full"
            want = want.append_column("record_type", pa.array(["response"] * 120))
            want = want.append_column("http_status", pa.array([200 if full else 0] * 120))
            want = want.append_column("mime", pa.array(["text/html" if full else ""] * 120))
    else:
        ds = read_pages(path, fmt=fmt, include_paths=include_paths)
        want = pages
    if include_paths:
        want = want.append_column("path", pa.array([path] * 120))
    got = _read_table(ds)
    assert got.schema == want.schema == ds.schema().base_schema
    assert _by_url_ts(got).equals(_by_url_ts(want))


def test_documents_read_is_the_pages_table(sf_dir):
    """``build_pages_dataset`` reads documents.parquet, with the pages
    synthesized inside the read task, and names the file it reads."""
    import pyarrow.parquet as pq

    from ai_service_ocr_grading_handler_ray.pipelines.extract import build_pages_dataset
    from ai_service_ocr_grading_handler_ray.synth import docs_to_pages

    ds = build_pages_dataset(sf_dir)
    assert ds.input_files() == [f"{sf_dir}/documents.parquet"]
    want = docs_to_pages(pq.read_table(f"{sf_dir}/documents.parquet"))
    assert _by_url_ts(_read_table(ds)).equals(_by_url_ts(want))


def test_warc_tail_cut_short():
    """A payload the file ends inside is kept as far as it goes, a header
    block it ends inside is dropped, and a gzip member it ends inside
    raises."""
    import pyarrow as pa

    from ai_service_ocr_grading_handler_ray.sources.warc import (
        pages_to_warc_bytes,
        parse_warc_records,
    )

    payloads = [b"<p>first page</p>", b"<p>second page, cut short</p>"]
    t = pa.table({
        "url": ["https://t.example/1", "https://t.example/2"],
        "warc_ts": pa.array([0, 1_000_000], type=pa.timestamp("us")),
        "html": pa.array(payloads, type=pa.binary()),
    })
    blob = pages_to_warc_bytes(t, compress=False)
    urls, _, got, *_ = parse_warc_records(blob[:-10])
    assert urls == t["url"].to_pylist()
    assert got == [payloads[0], payloads[1][:-6]]
    urls, _, got, *_ = parse_warc_records(blob + b"WARC/1.0\r\nWARC-Type: response\r\n")
    assert got == payloads
    with pytest.raises(EOFError):
        parse_warc_records(pages_to_warc_bytes(t)[:-10])


def test_warc_decoder_streams_a_large_archive(tmp_path):
    """A 64 MiB (uncompressed) archive decodes with the peak Python
    allocation plus Arrow's allocation under 3 × ``BATCH_BYTES``: the file
    is read a record at a time, in tables of at most ~``BATCH_BYTES``."""
    import gzip
    import tracemalloc

    import pyarrow as pa
    import pyarrow.fs as pafs

    from ai_service_ocr_grading_handler_ray.sources.readers import BATCH_BYTES
    from ai_service_ocr_grading_handler_ray.sources.warc import warc_tables

    path, raw = str(tmp_path / "big.warc.gz"), 0
    with open(path, "wb") as f:
        for i in range(2048):
            payload = (b"<p>page %06d lorem ipsum</p>\n" % i) * 1100
            record = (
                b"WARC/1.0\r\nWARC-Type: response\r\n"
                b"WARC-Target-URI: https://big.example/%d\r\n"
                b"WARC-Date: 2024-01-01T00:00:00Z\r\n"
                b"Content-Length: %d\r\n\r\n" % (i, len(payload))
            ) + payload + b"\r\n\r\n"
            raw += len(record)
            f.write(gzip.compress(record, 1))
    assert raw >= 64 * 2**20
    tracemalloc.start()
    try:
        base, arrow, rows, tables = pa.total_allocated_bytes(), 0, 0, 0
        for table in warc_tables(pafs.LocalFileSystem(), path):
            rows, tables = rows + table.num_rows, tables + 1
            arrow = max(arrow, pa.total_allocated_bytes() - base)
        python = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 2048 and tables >= 4
    assert python + arrow < 3 * BATCH_BYTES, (python, arrow)
