"""WARC source: Common-Crawl-style web archives → pages Dataset.

Real Common-Crawl data ships as WARC files (ISO 28500): concatenated
records, each a ``WARC/1.0`` (or 1.1) header block + CRLF CRLF + exactly
``Content-Length`` payload bytes + CRLF CRLF, the whole file usually
gzipped (one gzip member per record — a valid multi-member stream).
A real segment mixes RECORD TYPES: one leading ``warcinfo``, then per
capture a ``request`` (the outgoing HTTP request), a ``response``
(HTTP status line + headers + body wrapped in the record as
``Content-Type: application/http; msgtype=response``), and often
``metadata``; WET segments carry ``conversion`` records whose payload
is the extracted text directly; ``revisit`` records mark unchanged
re-crawls and carry no usable body.

This module implements the full framing with the stdlib only (no
warcio), once, over a file object (``_page_records``): each header block,
then ``Content-Length`` payload bytes, one record in memory at a time, so
a ~1 GB gzipped (~5 GB raw) Common-Crawl segment streams.  ``read_warc``
is the engine's one read (``PagesDatasource``) with the WARC decoder
``warc_tables``: whole archives grouped into read tasks, each parsed
inside its task into tables of at most ~``BATCH_BYTES`` of payloads;
``parse_warc_records`` runs the same framing over bytes in memory.
Page-bearing records (``response`` with the
HTTP envelope STRIPPED — status + headers parsed, ``Transfer-Encoding:
chunked`` bodies de-chunked — plus ``conversion``/``resource`` raw
payloads) map onto the engine's page schema (url, warc_ts, html);
``warcinfo``/``request``/``metadata``/``revisit`` are skipped.
``text``/``lang`` are absent in real archives, so the reader emits the
3-column core (plus record_type/http_status/mime under ``with_meta``)
and callers derive the rest.

``pages_to_warc_bytes`` is the inverse for the lite form;
``pages_to_full_warc_bytes`` emits a spec-shaped full segment
(warcinfo + request + HTTP-wrapped response records) for fixtures —
real Common-Crawl segments share its record layout.
"""

from __future__ import annotations

import functools
import gzip
import io
from collections.abc import Iterator
from datetime import datetime, timezone
from typing import BinaryIO

import pyarrow as pa
import pyarrow.fs as pafs
import ray.data as rd

from .readers import BATCH_BYTES, PagesDatasource, read_source

_ISO = "%Y-%m-%dT%H:%M:%SZ"


def _parse_warc_date(date: str) -> int:
    """WARC-Date → microseconds since epoch.  WARC/1.0 mandates second
    granularity; WARC/1.1 allows fractional seconds — both accepted."""
    if "." in date:
        head, _, frac = date.rstrip("Z").partition(".")
        dt = datetime.strptime(head + "Z", _ISO).replace(tzinfo=timezone.utc)
        micros = int((frac + "000000")[:6])
        return int(dt.timestamp() * 1_000_000) + micros
    dt = datetime.strptime(date, _ISO).replace(tzinfo=timezone.utc)
    return int(dt.timestamp() * 1_000_000)


def _dechunk(body: bytes) -> bytes:
    """Decode an HTTP/1.1 chunked transfer-encoded body (hex size line
    CRLF data CRLF ... 0 CRLF [trailers] CRLF).  Malformed framing
    returns the bytes as captured — crawls store what the wire said."""
    out = []
    pos = 0
    n = len(body)
    while pos < n:
        eol = body.find(b"\r\n", pos)
        if eol < 0:
            return body
        size_tok = body[pos:eol].split(b";", 1)[0].strip()
        try:
            size = int(size_tok, 16)
        except ValueError:
            return body
        if size == 0:
            break
        start = eol + 2
        out.append(body[start : start + size])
        pos = start + size + 2  # skip chunk CRLF
    return b"".join(out)


def _split_http_response(payload: bytes) -> tuple[int, str, bytes]:
    """HTTP response bytes → (status, content-type, body).  Strips the
    status line + headers; de-chunks chunked bodies.  Anything that does
    not start with 'HTTP/' is returned as-is with status 0."""
    if not payload.startswith(b"HTTP/"):
        return 0, "", payload
    sep = payload.find(b"\r\n\r\n")
    if sep < 0:
        return 0, "", payload
    head = payload[:sep].decode("latin-1", errors="replace")
    body = payload[sep + 4 :]
    lines = head.split("\r\n")
    try:
        status = int(lines[0].split()[1])
    except (IndexError, ValueError):
        status = 0
    http_fields = {}
    for line in lines[1:]:
        k, _, v = line.partition(":")
        http_fields[k.strip().lower()] = v.strip()
    if "chunked" in http_fields.get("transfer-encoding", "").lower():
        body = _dechunk(body)
    return status, http_fields.get("content-type", ""), body


# record types whose payload is (or contains) page content
PAGE_RECORD_TYPES = ("response", "conversion", "resource")


def _warc_stream(f: BinaryIO) -> BinaryIO:
    """``f`` (seekable, at its start) as a buffered stream of WARC bytes,
    gunzipped as it is read when it starts with the gzip magic
    (``GzipFile`` reads multi-member streams as one concatenation)."""
    gzipped = f.read(2) == b"\x1f\x8b"
    f.seek(0)
    return gzip.GzipFile(fileobj=f) if gzipped else io.BufferedReader(f)


def _page_records(stream: BinaryIO) -> Iterator[tuple[str, int, bytes, str, int, str]]:
    """(url, ts_us, payload, record_type, http_status, mime) of each
    page-bearing record of an uncompressed WARC stream, one record in
    memory at a time.

    Full framing: every record's WARC-Type is read; ``warcinfo`` /
    ``request`` / ``metadata`` / ``revisit`` records are walked over
    (their Content-Length still frames the scan) and dropped.
    ``response`` records wrapped as ``application/http`` have the HTTP
    envelope stripped (status + Content-Type parsed, chunked bodies
    decoded); lite-form response records (raw payload, no HTTP head)
    pass through unchanged.  ``conversion``/``resource`` payloads are
    taken raw (WET-style extracted text or original resources).
    Content-Length framing — payloads may contain anything, including
    'WARC/1.0' literals; a payload cut short by the end of the stream is
    kept as far as it goes, and a header block the stream ends inside is
    dropped."""
    while True:
        head = b""
        while not head.endswith(b"\r\n\r\n"):
            line = stream.readline()
            if not line:
                return
            head += line
        fields = {}
        for line in head[:-4].decode("utf-8", errors="replace").split("\r\n")[1:]:
            k, _, v = line.partition(":")
            fields[k.strip().lower()] = v.strip()
        payload = stream.read(max(0, int(fields.get("content-length", "0"))))
        stream.read(4)  # the record's closing CRLF CRLF
        rtype = fields.get("warc-type", "response").lower()
        if rtype not in PAGE_RECORD_TYPES:
            continue
        status, mime = 0, fields.get("content-type", "")
        if rtype == "response" and mime.lower().startswith("application/http"):
            status, mime, payload = _split_http_response(payload)
        yield (
            fields.get("warc-target-uri", ""),
            _parse_warc_date(fields.get("warc-date", "1970-01-01T00:00:00Z")),
            payload,
            rtype,
            status,
            mime.split(";")[0].strip(),
        )


def parse_warc_records(
    blob: bytes,
) -> tuple[list[str], list[int], list[bytes], list[str], list[int], list[str]]:
    """One WARC file body (gzipped or not) → (urls, ts_us, payloads,
    record_types, http_statuses, mimes) for the page-bearing records
    (``_page_records``)."""
    columns: tuple[list, ...] = ([], [], [], [], [], [])
    for record in _page_records(_warc_stream(io.BytesIO(blob))):
        for column, value in zip(columns, record):
            column.append(value)
    return columns


def _warc_schema(with_meta: bool) -> pa.Schema:
    core = [("url", pa.string()), ("warc_ts", pa.timestamp("us")), ("html", pa.binary())]
    meta = [("record_type", pa.string()), ("http_status", pa.int64()), ("mime", pa.string())]
    return pa.schema(core + meta if with_meta else core)


def warc_tables(fs: pafs.FileSystem, path: str, *, with_meta: bool = False) -> Iterator[pa.Table]:
    """One WARC file → pages tables of at most ~``BATCH_BYTES`` of
    payloads (one record more when a record alone is larger), streamed:
    the file is read, and gunzipped, a record at a time."""
    schema = _warc_schema(with_meta)
    with fs.open_input_file(path) as f, _warc_stream(f) as stream:
        records: list[tuple] = []
        size = 0
        for record in _page_records(stream):
            if records and size + len(record[2]) > BATCH_BYTES:
                yield _warc_table(records, schema)
                records, size = [], 0
            records.append(record)
            size += len(record[2])
        if records:
            yield _warc_table(records, schema)


def _warc_table(records: list[tuple], schema: pa.Schema) -> pa.Table:
    columns = list(zip(*records))
    return pa.table([pa.array(c, f.type) for c, f in zip(columns, schema)], schema=schema)


def read_warc(
    paths: str | list[str], *, with_meta: bool = False, include_paths: bool = False
) -> rd.Dataset:
    """WARC files → pages Dataset (url, warc_ts, html; plus
    record_type/http_status/mime under ``with_meta``).  Full framing:
    warcinfo/request/metadata/revisit records are skipped, response
    records lose their HTTP envelope (see ``_page_records``), so real
    Common-Crawl segments ingest unmodified.  The engine's one read
    (``PagesDatasource``): whole archives grouped into read tasks, each
    archive streamed and parsed inside its task (``warc_tables``).
    ``include_paths`` adds each record's archive file as a ``path``
    column."""
    decode = functools.partial(warc_tables, with_meta=with_meta)
    return read_source(PagesDatasource(paths, include_paths, decode, _warc_schema(with_meta)))


def _record(headers: list[tuple[str, str]], payload: bytes) -> bytes:
    head = "WARC/1.0\r\n" + "".join(f"{k}: {v}\r\n" for k, v in headers)
    head += f"Content-Length: {len(payload)}\r\n\r\n"
    return head.encode("utf-8") + payload + b"\r\n\r\n"


def _captures(pages: pa.Table) -> list[tuple[str, str, bytes]]:
    """(url, WARC-Date, payload) of each row of ``pages``."""
    ts = pages["warc_ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_pylist()
    dates = [datetime.fromtimestamp(t / 1_000_000, tz=timezone.utc).strftime(_ISO) for t in ts]
    return list(zip(pages["url"].to_pylist(), dates,
                    [p or b"" for p in pages["html"].to_pylist()]))


def _segment(records: list[bytes], compress: bool) -> bytes:
    return b"".join(gzip.compress(r) if compress else r for r in records)


def pages_to_warc_bytes(pages: pa.Table, *, compress: bool = True) -> bytes:
    """pages rows → one WARC-lite file body: one ``response`` record per
    row whose payload is the raw ``html`` (gzip member per record when
    ``compress``, byte-concatenated records otherwise)."""
    return _segment([
        _record([("WARC-Type", "response"), ("WARC-Target-URI", url), ("WARC-Date", date)], body)
        for url, date, body in _captures(pages)
    ], compress)


def pages_to_full_warc_bytes(
    pages: pa.Table, *, compress: bool = True, chunked_every: int = 0
) -> bytes:
    """pages rows → a FULL spec-shaped WARC segment: one leading
    ``warcinfo`` record, then per page a ``request`` record (HTTP GET)
    and a ``response`` record whose payload is a complete HTTP response
    (status line + headers + body) wrapped as ``application/http;
    msgtype=response`` — the record layout of a real Common-Crawl
    segment.  ``chunked_every=k`` > 0 emits every k-th response with a
    ``Transfer-Encoding: chunked`` body (exercises the de-chunker).
    Gzip member per record when ``compress``."""
    info = b"software: graft-warc-fixture\r\nformat: WARC File Format 1.0\r\n"
    records = [_record([("WARC-Type", "warcinfo"), ("WARC-Date", "2024-01-01T00:00:00Z"),
                        ("Content-Type", "application/warc-fields")], info)]
    for i, (url, date, body) in enumerate(_captures(pages)):
        request = f"GET {url} HTTP/1.1\r\nHost: fixture\r\nUser-Agent: graft-fixture\r\n\r\n"
        records.append(_record([
            ("WARC-Type", "request"), ("WARC-Target-URI", url), ("WARC-Date", date),
            ("Content-Type", "application/http; msgtype=request"),
        ], request.encode("latin-1")))
        if chunked_every and i % chunked_every == 0 and body:
            mid = max(1, len(body) // 2)
            http_body = (
                f"{mid:x}\r\n".encode() + body[:mid] + b"\r\n"
                + f"{len(body) - mid:x}\r\n".encode() + body[mid:] + b"\r\n0\r\n\r\n"
            )
            framing = "Transfer-Encoding: chunked"
        else:
            http_body, framing = body, f"Content-Length: {len(body)}"
        http = f"HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n{framing}\r\n\r\n"
        records.append(_record([
            ("WARC-Type", "response"), ("WARC-Target-URI", url), ("WARC-Date", date),
            ("Content-Type", "application/http; msgtype=response"),
        ], http.encode("latin-1") + http_body))
    return _segment(records, compress)
