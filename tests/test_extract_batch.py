"""Native Stage-A batch (stages/extract_native.c): one call per batch gives
the same table as the per-row path on mixed batches, and its hand-written
SHA-256 equals hashlib's."""

import hashlib
import random

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ai_service_ocr_grading_handler_ray.payloads import (
    GLYPH_MARKER,
    PDF_MAGIC,
    encode_image_text,
    encode_pdf_glyphs,
    layout_text_as_glyphs,
)
from ai_service_ocr_grading_handler_ray.schema import EXTRACTED_SCHEMA
from ai_service_ocr_grading_handler_ray.stages import native
from ai_service_ocr_grading_handler_ray.stages.classify import KINDS, classify_payload_kind
from ai_service_ocr_grading_handler_ray.stages.extract import ExtractActor

PAD = "enough words in this paragraph to pass the length rule"
HEAD = PDF_MAGIC + b"1.4\n" + GLYPH_MARKER


def _kernel():
    kernel = native.load()
    if kernel is None:
        pytest.skip("native kernel unavailable on this host")
    return kernel


def per_row(batch: pa.Table) -> pa.Table:
    """``ExtractActor()(batch)`` with every row through ``_extract_one``."""
    engine = ExtractActor()
    engine._extract_native = lambda _kernel, b: engine._extract_rows(b)
    return engine(batch)


def assert_same_as_per_row(batch: pa.Table) -> pa.Table:
    _kernel()
    got, want = ExtractActor()(batch), per_row(batch)
    for name in (*EXTRACTED_SCHEMA.names, "path"):
        if name in want.column_names:
            assert got[name].to_pylist() == want[name].to_pylist(), name
    assert got.schema == want.schema
    return got


# --- mixed batches: batch path == per-row path --------------------------------

html_pages = st.one_of(
    st.sampled_from([
        f"<html><title>T &amp; t</title><p>{PAD}</p><nav><a>menu</a></nav></html>",
        f'<DIV ID = \'nav\'><p>{PAD}</p></DIV><p data-id="nav">{PAD} x</p>',
        f'<p xclass="nav">{PAD}</p><p role\t=banner>{PAD}</p><p claſs="nav">{PAD}</p>',
        f'<p ıd="menu">{PAD}</p><div class="Sİdebar"><p>{PAD}</p></div>',
        f"<p>{PAD}　\x85 &#x3000; &nbsp;</p><p>é 😀 {PAD}</p>",
        "<p>　</p>",
        "<title>only a title</title>",
        f"<p>{'a' * 20}</p><p>{'b' * 30}</p>",
    ]).map(str.encode),
    # not valid UTF-8: Python's errors="replace" decode repairs these rows
    st.binary(max_size=40).map(lambda b: b"<p>" + PAD.encode() + b"\xff" + b + b"\xed\xa0\x80</p>"),
    st.lists(st.sampled_from(["<p>", "</p>", "<div class='ad'>", "</div>", "<a>", "</a>", "&amp;",
                              "<br>", "<title>", "</title>", " ", "word", "　", PAD]),
             max_size=30).map(lambda t: ("<" + "".join(t)).encode()),
)
pdf_pages = st.one_of(
    st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]), max_size=40)
    .map(lambda ws: encode_pdf_glyphs(layout_text_as_glyphs(" ".join(ws)))),
    st.sampled_from([
        HEAD + b'[[0,0,6,10,"\\ud800"]]',  # lone surrogate: the kernel declines
        encode_pdf_glyphs([(0, 0, 6, 10, "　")]),  # ok, yet blank
        encode_pdf_glyphs([(0, 0, 6, 10, " ")]),
        encode_pdf_glyphs([(0, 0, 6, 10, "a"), (0, 0, 6, 10, "\x85")]),
        HEAD + b"[[0.5,0,6,10,\"a\"]]",  # a float: declined, Python decodes it
        HEAD + b"[]",
        PDF_MAGIC + b"1.7 a real PDF, no glyph marker",
    ]),
)
other_pages = st.one_of(
    st.lists(st.sampled_from(["ocr", "text", "here"]), max_size=8)
    .map(lambda ws: encode_image_text(" ".join(ws))),
    st.just(b"\x89PNG\r\n\x1a\n not a synthetic image"),
    st.just(b""),
    st.none(),
    st.binary(max_size=30).filter(lambda b: b"<" not in b[:16]),
)
rows = st.tuples(
    st.one_of(html_pages, pdf_pages, other_pages),
    st.sampled_from([None, "en", "EN", "De", "zh", "fr", "xx", ""]),
    st.one_of(st.none(), st.sampled_from([*KINDS, "other", None])),  # None: classify's kind
)


def _batch(rs, *, lang=True, path=False) -> pa.Table:
    n = len(rs)
    table = pa.table({
        "url": [f"https://e.example/{i}" for i in range(n)],
        "warc_ts": pa.array(range(n), pa.timestamp("us")),
        "html": pa.array([r[0] for r in rs], pa.binary()),
        "text": pa.array([None] * n, pa.string()),
        "lang": pa.array([r[1] for r in rs], pa.string()),
    })
    sniffed = classify_payload_kind(table)["payload_kind"].to_pylist()
    table = table.append_column(
        "payload_kind", pa.array([k if k is not None else s for (_, _, k), s in zip(rs, sniffed)],
                                 pa.string()))
    if not lang:
        table = table.drop_columns(["lang"])
    if path:
        table = table.append_column("path", pa.array([f"/in/{i % 3}.parquet" for i in range(n)]))
    return table


@given(st.lists(rows, max_size=24), st.booleans(), st.booleans(), st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_batch_equals_per_row_on_mixed_batches(rs, lang, path, cut):
    batch = _batch(rs, lang=lang, path=path)
    assert_same_as_per_row(batch)
    assert_same_as_per_row(batch.slice(min(cut, len(batch))))  # nonzero array offset
    half = len(batch) // 2
    multi = pa.concat_tables([batch.slice(0, half), batch.slice(half)])
    assert_same_as_per_row(multi)


def test_the_mixed_rows_take_every_branch():
    """One batch of the hand-picked rows: each status and fallback class is
    there, so the equality above is not vacuous."""
    rs = [(p, "en", None) for p in [
        f"<p>{PAD}</p>".encode(), b"<p>" + PAD.encode() + b"\xff</p>", b"<p>x</p>",
        HEAD + b'[[0,0,6,10,"\\ud800"]]', encode_pdf_glyphs([(0, 0, 6, 10, "　")]),
        PDF_MAGIC + b"1.7 no marker", encode_image_text("ocr text"), b"", None, b"garbage",
    ]]
    out = assert_same_as_per_row(_batch(rs, path=True))
    assert out["status"].to_pylist() == [
        "ok", "ok", "blank", "error", "ok", "error", "ok", "blank", "blank", "error"]
    assert out["is_blank"].to_pylist() == [
        False, False, True, True, True, True, False, True, True, True]
    assert out["extracted_text"][1].as_py() == PAD + "�"


def test_empty_batch():
    out = assert_same_as_per_row(_batch([]))
    assert out.num_rows == 0


# --- SHA-256 --------------------------------------------------------------------


def test_sha256_equals_hashlib():
    kernel = _kernel()
    rng = random.Random(0)
    # every length to 300 crosses the 55/56, 63/64 and 119/120 padding edges
    cases = [rng.randbytes(n) for n in range(301)]
    cases += [rng.randbytes(rng.randrange(5000)) for _ in range(1000)]
    cases.append(("é 😀 text " * 400_000)[:5_000_000].encode())
    for data in cases:
        assert kernel.sha256_hex(data) == hashlib.sha256(data).hexdigest(), len(data)
