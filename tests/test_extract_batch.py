"""Native Stage-A batch (stages/extract_native.c): one call per batch gives
the same table as the oracle engine (``ExtractActor(html_engine="stdlib")``,
per row) on mixed batches, its payload-kind sniff equals
``classify_payload_kind``, its hand-written SHA-256 (SHA-NI and
portable) equals hashlib's, a batch's mis-encoded HTML rows take one more
call, and a build without the SIMD fast paths gives the same bytes."""

import hashlib
import random

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ai_service_ocr_grading_handler_ray.payloads import (
    GLYPH_MARKER,
    PDF_MAGIC,
    PNG_MAGIC,
    decode_pdf_glyphs,
    encode_image_text,
    encode_pdf_glyphs,
    layout_text_as_glyphs,
)
from ai_service_ocr_grading_handler_ray.schema import EXTRACTED_SCHEMA
from ai_service_ocr_grading_handler_ray.stages import extract as extract_mod
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
    """The oracle engine: every row through ``_extract_one``, HTML by
    ``extract_html_with_title``, PDF by the Python decoder and XY-cut."""
    return ExtractActor(html_engine="stdlib")(batch)


def assert_same_as_per_row(batch: pa.Table) -> pa.Table:
    _kernel()
    got, want = ExtractActor()(batch), per_row(batch)
    for name in (*EXTRACTED_SCHEMA.names, "path"):
        if name in want.column_names:
            assert got[name].to_pylist() == want[name].to_pylist(), name
    assert got.schema == want.schema
    return got


# --- mixed batches: batch path == oracle engine --------------------------------

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
# the sniff's edges: magic prefixes cut short, RIFF....WEBP, '<' at the
# edge of the 16-byte window
WEBP = b"RIFF\x10\x00\x00\x00WEBPVP8 "
no_lt = st.binary(max_size=20).map(lambda b: b.replace(b"<", b"."))
sniff_pages = st.one_of(
    st.sampled_from([m[:cut] for m in (HEAD, PNG_MAGIC + b"GRAFTOCR", WEBP) for cut in (4, 7, 11)]),
    st.tuples(st.binary(min_size=4, max_size=4), no_lt).map(lambda t: b"RIFF" + t[0] + b"WEBP" + t[1]),
    st.tuples(st.sampled_from([0, 15, 16]), no_lt).map(
        lambda t: b"x" * t[0] + b"<p>" + PAD.encode() + b"</p>" + t[1]),
)
other_pages = st.one_of(
    st.lists(st.sampled_from(["ocr", "text", "here"]), max_size=8)
    .map(lambda ws: encode_image_text(" ".join(ws))),
    st.just(b"\x89PNG\r\n\x1a\n not a synthetic image"),
    st.just(b""),
    st.none(),
    st.binary(max_size=30).filter(lambda b: b"<" not in b[:16]),
    sniff_pages,
)
rows = st.tuples(
    st.one_of(html_pages, pdf_pages, other_pages),
    st.sampled_from([None, "en", "EN", "De", "zh", "fr", "xx", ""]),
    st.one_of(st.none(), st.sampled_from([*KINDS, "other", None])),  # None: classify's kind
)


def _batch(rs, *, lang=True, path=False, kind=True) -> pa.Table:
    n = len(rs)
    table = pa.table({
        "url": [f"https://e.example/{i}" for i in range(n)],
        "warc_ts": pa.array(range(n), pa.timestamp("us")),
        "html": pa.array([r[0] for r in rs], pa.binary()),
        "text": pa.array([None] * n, pa.string()),
        "lang": pa.array([r[1] for r in rs], pa.string()),
    })
    sniffed = classify_payload_kind(table)["payload_kind"].to_pylist()
    if kind:
        table = table.append_column(
            "payload_kind",
            pa.array([k if k is not None else s for (_, _, k), s in zip(rs, sniffed)], pa.string()))
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


@given(st.lists(rows, max_size=24), st.booleans(), st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_sniff_equals_classify(rs, lang, cut):
    """A batch without ``payload_kind``: the kernel's sniff gives
    ``classify_payload_kind``'s kinds, and the output equals the oracle
    engine's (which classifies first) and the output of the batch
    classified beforehand."""
    batch = _batch(rs, lang=lang, kind=False)
    assert "payload_kind" not in batch.column_names
    for b in (batch, batch.slice(min(cut, len(batch)))):
        got = assert_same_as_per_row(b)
        assert got["payload_kind"].to_pylist() == classify_payload_kind(b)["payload_kind"].to_pylist()
        assert got.equals(ExtractActor()(classify_payload_kind(b)))


def test_the_sniff_edges():
    """The cut magic prefixes sniff as ``error``; the whole ones, RIFF....WEBP
    and a '<' at offset 15 sniff as their kinds; a '<' at offset 16 is past
    the window."""
    _kernel()
    payloads = [HEAD[:4], PNG_MAGIC[:7], WEBP[:11], HEAD, PNG_MAGIC, WEBP,
                b"x" * 15 + b"<p>", b"x" * 16 + b"<p>", b"", None]
    out = ExtractActor()(_batch([(p, "en", None) for p in payloads], kind=False))
    assert out["payload_kind"].to_pylist() == [
        "error", "error", "error", "pdf", "image", "image", "html", "error", "blank", "blank"]


def test_declined_pdf_rows_are_decoded_once(monkeypatch):
    """A PDF row the batch kernel declines is flagged and decoded once, by
    the Python decoder; the output is the oracle engine's."""
    _kernel()
    declined = [HEAD + b'[[0,0,6,10,"\\ud800"]]', HEAD + b"[[0.5,0,6,10,\"a\"]]"]
    rs = [(p, "en", None) for p in [*declined, f"<p>{PAD}</p>".encode(), *declined]]
    batch = _batch(rs)
    want = per_row(batch)
    calls = []

    def decode(payload):
        calls.append(payload)
        return decode_pdf_glyphs(payload)

    monkeypatch.setattr(extract_mod, "decode_pdf_glyphs", decode)
    got = ExtractActor()(batch)
    assert calls == [*declined, *declined]
    assert got.equals(want)
    assert got["status"].to_pylist() == ["error", "ok", "ok", "error", "ok"]


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


def test_mis_encoded_html_rows_take_one_more_batch_call(monkeypatch):
    """A batch's HTML rows that are not valid UTF-8 are repaired and run
    together: two kernel calls for the whole batch, however many such rows,
    and the oracle's output."""
    _kernel()
    good = f"<title>T</title><p>{PAD}</p>".encode()
    bad = [f"<title>é{i}\xff</title><p>{PAD} {i}\xfe</p>".encode("latin-1") for i in range(5)]
    pdf = encode_pdf_glyphs(layout_text_as_glyphs("alpha beta"))
    image = encode_image_text("ocr text")
    rs = [(p, lang, None) for p, lang in zip(
        [good, bad[0], pdf, bad[1], image, bad[2], bad[3], good, bad[4]],
        ["en", "de", None, "zh", "fr", "xx", "", "EN", None])]
    calls, rows = [], []
    extract_batch, extract_one = native.NativeKernel.extract_batch, ExtractActor._extract_one

    def counted_batch(self, html, *args):
        calls.append(len(html))
        return extract_batch(self, html, *args)

    def counted_row(self, kind, *args):
        rows.append(kind)
        return extract_one(self, kind, *args)

    monkeypatch.setattr(native.NativeKernel, "extract_batch", counted_batch)
    monkeypatch.setattr(ExtractActor, "_extract_one", counted_row)
    batch = _batch(rs, kind=False)
    got = ExtractActor()(batch)
    assert (calls, rows) == ([len(rs), len(bad)], ["image"])
    monkeypatch.undo()
    assert got.equals(per_row(batch))
    assert got["title"].to_pylist()[:2] == ["T", "\ufffd0\ufffd"]  # latin-1 "é", then \xff


# --- SHA-256 --------------------------------------------------------------------


def test_sha256_equals_hashlib():
    """Both block functions: the one chosen for this CPU (SHA-NI where it
    has the SHA extensions) and the portable one."""
    kernel = _kernel()
    rng = random.Random(0)
    # every length to 300 crosses the 55/56, 63/64 and 119/120 padding edges
    cases = [rng.randbytes(n) for n in range(301)]
    cases += [rng.randbytes(rng.randrange(5000)) for _ in range(1000)]
    cases.append(("é 😀 text " * 400_000)[:5_000_000].encode())
    for data in cases:
        want = hashlib.sha256(data).hexdigest()
        assert kernel.sha256_hex(data) == want, len(data)
        assert kernel.sha256_hex(data, portable=True) == want, len(data)


def test_scalar_build_gives_the_same_bytes(tmp_path):
    """The library built with -DXB_NO_SIMD, the scalar loops alone, gives
    byte-identical batch outputs on the seed-7 crawl_mix rows and on the
    fast paths' boundary cases, as the portable SHA-256 does above."""
    from perfbench.gen import crawl_pages
    from test_html_native import boundary_cases
    from test_pdf_native import compact_boundary_bodies

    kernel = _kernel()
    so = tmp_path / "scalar.so"
    native.build(str(so), native.compiler(), native.CFLAGS + ("-DXB_NO_SIMD",))
    scalar = native.NativeKernel(str(so))
    pages = crawl_pages(7, 6000, "crawl_mix")["html"].to_pylist()
    html = [(doc.encode("utf-8"), min_len, pct) for doc, min_len, pct in boundary_cases()]
    rows = [(p, 25, 33) for p in pages] + html + [(HEAD + b, 0, 0) for b, _ in compact_boundary_bodies()]
    payloads = pa.array([r[0] for r in rows], pa.large_binary())
    outputs = []
    for k in (kernel, scalar):
        kinds = np.full(len(rows), native.SNIFF, np.int8)
        res = k.extract_batch(payloads, kinds, np.array([r[1] for r in rows]), np.array([r[2] for r in rows]))
        outputs.append([kinds, res.text, res.title, res.n_blocks, res.status, res.is_blank, res.flagged,
                        res.sha])
    assert (outputs[0][0] >= 0).all()
    for name, simd, plain in zip(("kind", "text", "title", "n_blocks", "status", "is_blank", "flagged",
                                  "sha"), *outputs):
        assert simd.equals(plain) if isinstance(simd, pa.Array) else np.array_equal(simd, plain), name
