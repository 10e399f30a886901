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

This module implements the full framing with the stdlib only (the
container has no warcio): ``read_warc`` is ``ray.data.read_binary_files``
→ one ``map_batches`` parse — each WARC file is one row of bytes, so the
parse is embarrassingly parallel and streams file-by-file with the
normal block backpressure.  Page-bearing records (``response`` with the
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

import gzip
from datetime import datetime, timezone

import pyarrow as pa
import ray.data as rd

_ISO = "%Y-%m-%dT%H:%M:%SZ"


def _record_bytes(url: str, ts_us: int, payload: bytes) -> bytes:
    dt = datetime.fromtimestamp(ts_us / 1_000_000, tz=timezone.utc)
    head = (
        "WARC/1.0\r\n"
        "WARC-Type: response\r\n"
        f"WARC-Target-URI: {url}\r\n"
        f"WARC-Date: {dt.strftime(_ISO)}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "\r\n"
    ).encode("utf-8")
    return head + payload + b"\r\n\r\n"


def pages_to_warc_bytes(
    pages: pa.Table,
    *,
    url_col: str = "url",
    ts_col: str = "warc_ts",
    payload_col: str = "html",
    compress: bool = True,
) -> bytes:
    """pages rows → one WARC-lite file body (gzip member per record when
    ``compress``, byte-concatenated records otherwise)."""
    urls = pages[url_col].to_pylist()
    ts = (
        pages[ts_col]
        .to_numpy(zero_copy_only=False)
        .astype("datetime64[us]")
        .astype("int64")
    )
    payloads = pages[payload_col].to_pylist()
    out = []
    for u, t, p in zip(urls, ts, payloads):
        rec = _record_bytes(u, int(t), p or b"")
        out.append(gzip.compress(rec) if compress else rec)
    return b"".join(out)


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


def parse_warc_records(
    blob: bytes,
) -> tuple[list[str], list[int], list[bytes], list[str], list[int], list[str]]:
    """One WARC file body → (urls, ts_us, payloads, record_types,
    http_statuses, mimes) for the page-bearing records.

    Full framing: every record's WARC-Type is read; ``warcinfo`` /
    ``request`` / ``metadata`` / ``revisit`` records are walked over
    (their Content-Length still frames the scan) and dropped.
    ``response`` records wrapped as ``application/http`` have the HTTP
    envelope stripped (status + Content-Type parsed, chunked bodies
    decoded); lite-form response records (raw payload, no HTTP head)
    pass through unchanged.  ``conversion``/``resource`` payloads are
    taken raw (WET-style extracted text or original resources).
    Handles the gzipped form transparently (multi-member streams
    decompress as one concatenation).  Content-Length framing —
    payloads may contain anything, including 'WARC/1.0' literals."""
    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    urls: list[str] = []
    ts_us: list[int] = []
    payloads: list[bytes] = []
    rtypes: list[str] = []
    statuses: list[int] = []
    mimes: list[str] = []
    pos = 0
    n = len(blob)
    while pos < n:
        end = blob.find(b"\r\n\r\n", pos)
        if end < 0:
            break
        header = blob[pos:end].decode("utf-8", errors="replace")
        fields = {}
        for line in header.split("\r\n")[1:]:
            k, _, v = line.partition(":")
            fields[k.strip().lower()] = v.strip()
        length = int(fields.get("content-length", "0"))
        body_start = end + 4
        payload = blob[body_start : body_start + length]
        pos = body_start + length + 4  # skip payload + record CRLFCRLF
        rtype = fields.get("warc-type", "response").lower()
        if rtype not in PAGE_RECORD_TYPES:
            continue
        status, mime = 0, fields.get("content-type", "")
        if rtype == "response" and mime.lower().startswith("application/http"):
            status, mime, payload = _split_http_response(payload)
        urls.append(fields.get("warc-target-uri", ""))
        ts_us.append(
            _parse_warc_date(fields.get("warc-date", "1970-01-01T00:00:00Z"))
        )
        payloads.append(payload)
        rtypes.append(rtype)
        statuses.append(status)
        mimes.append(mime.split(";")[0].strip())
    return urls, ts_us, payloads, rtypes, statuses, mimes


def read_warc(
    paths: str | list[str], *, with_meta: bool = False, include_paths: bool = False
) -> rd.Dataset:
    """WARC files → pages Dataset (url, warc_ts, html; plus
    record_type/http_status/mime under ``with_meta``).  Full framing:
    warcinfo/request/metadata/revisit records are skipped, response
    records lose their HTTP envelope (see ``parse_warc_records``), so
    real Common-Crawl segments ingest unmodified.  One binary-file row
    per archive; the parse runs inside map_batches, so N archive files
    parse with N-way parallelism and stream under backpressure — no
    driver-side file handling.  ``include_paths`` adds each record's
    archive file as a ``path`` column."""
    raw = rd.read_binary_files(paths, include_paths=include_paths)

    def parse(t: pa.Table) -> pa.Table:
        urls: list[str] = []
        ts: list[int] = []
        payloads: list[bytes] = []
        rtypes: list[str] = []
        statuses: list[int] = []
        mimes: list[str] = []
        files: list[str] = []
        blob_paths = t["path"].to_pylist() if include_paths else [None] * len(t)
        for blob, path in zip(t["bytes"].to_pylist(), blob_paths):
            u, s, p, r, st, mi = parse_warc_records(blob)
            files.extend([path] * len(u))
            urls.extend(u)
            ts.extend(s)
            payloads.extend(p)
            rtypes.extend(r)
            statuses.extend(st)
            mimes.extend(mi)
        cols = {
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array(ts, type=pa.timestamp("us")),
            "html": pa.array(payloads, type=pa.binary()),
        }
        if with_meta:
            cols["record_type"] = pa.array(rtypes, type=pa.string())
            cols["http_status"] = pa.array(statuses, type=pa.int64())
            cols["mime"] = pa.array(mimes, type=pa.string())
        if include_paths:
            cols["path"] = pa.array(files, type=pa.string())
        return pa.table(cols)

    return raw.map_batches(parse, batch_format="pyarrow")


def pages_to_full_warc_bytes(
    pages: pa.Table,
    *,
    url_col: str = "url",
    ts_col: str = "warc_ts",
    payload_col: str = "html",
    compress: bool = True,
    chunked_every: int = 0,
) -> bytes:
    """pages rows → a FULL spec-shaped WARC segment: one leading
    ``warcinfo`` record, then per page a ``request`` record (HTTP GET)
    and a ``response`` record whose payload is a complete HTTP response
    (status line + headers + body) wrapped as ``application/http;
    msgtype=response`` — the record layout of a real Common-Crawl
    segment.  ``chunked_every=k`` > 0 emits every k-th response with a
    ``Transfer-Encoding: chunked`` body (exercises the de-chunker).
    Gzip member per record when ``compress``."""

    def _rec(headers: list[tuple[str, str]], payload: bytes) -> bytes:
        head = (
            "WARC/1.0\r\n"
            + "".join(f"{k}: {v}\r\n" for k, v in headers)
            + f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode("utf-8")
        return head + payload + b"\r\n\r\n"

    urls = pages[url_col].to_pylist()
    ts = (
        pages[ts_col]
        .to_numpy(zero_copy_only=False)
        .astype("datetime64[us]")
        .astype("int64")
    )
    payloads = pages[payload_col].to_pylist()
    out = []
    info = b"software: graft-warc-fixture\r\nformat: WARC File Format 1.0\r\n"
    recs = [
        _rec(
            [("WARC-Type", "warcinfo"),
             ("WARC-Date", "2024-01-01T00:00:00Z"),
             ("Content-Type", "application/warc-fields")],
            info,
        )
    ]
    for i, (u, t_us, p) in enumerate(zip(urls, ts, payloads)):
        dt = datetime.fromtimestamp(int(t_us) / 1_000_000, tz=timezone.utc)
        date = dt.strftime(_ISO)
        body = p or b""
        req = (
            f"GET {u} HTTP/1.1\r\nHost: fixture\r\n"
            "User-Agent: graft-fixture\r\n\r\n"
        ).encode("latin-1")
        recs.append(
            _rec(
                [("WARC-Type", "request"),
                 ("WARC-Target-URI", u),
                 ("WARC-Date", date),
                 ("Content-Type", "application/http; msgtype=request")],
                req,
            )
        )
        if chunked_every and i % chunked_every == 0 and len(body):
            mid = max(1, len(body) // 2)
            http_body = (
                f"{mid:x}\r\n".encode() + body[:mid] + b"\r\n"
                + f"{len(body) - mid:x}\r\n".encode() + body[mid:]
                + b"\r\n0\r\n\r\n"
            )
            te = "Transfer-Encoding: chunked\r\n"
        else:
            http_body = body
            te = f"Content-Length: {len(body)}\r\n"
        http = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/html; charset=utf-8\r\n"
            f"{te}\r\n"
        ).encode("latin-1") + http_body
        recs.append(
            _rec(
                [("WARC-Type", "response"),
                 ("WARC-Target-URI", u),
                 ("WARC-Date", date),
                 ("Content-Type", "application/http; msgtype=response")],
                http,
            )
        )
    out = [gzip.compress(r) if compress else r for r in recs]
    return b"".join(out)
