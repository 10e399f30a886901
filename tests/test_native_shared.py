"""What the three native kernels share, each stated once: the UTF-8 rules
of ``stages/native.h`` against Python's decoder, exhaustively on their edge
classes and on both builds; the kind and status codes, generated from
``classify.KINDS`` and ``native.BATCH_STATUSES``; and the library's
exports, which cffi reads from ``native.h``."""

import shutil
import subprocess

import cffi
import numpy as np
import pyarrow as pa
import pytest

from ai_service_ocr_grading_handler_ray.payloads import (
    GLYPH_MARKER,
    PDF_MAGIC,
    encode_image_text,
    encode_pdf_glyphs,
    layout_text_as_glyphs,
)
from ai_service_ocr_grading_handler_ray.stages import classify, native
from ai_service_ocr_grading_handler_ray.stages.extract import ExtractActor
from ai_service_ocr_grading_handler_ray.stages.html_extract import extract_html_with_title

PAD = "enough words in this paragraph to pass the length rule"


def _kernel() -> native.NativeKernel:
    kernel = native.load()
    if kernel is None:
        pytest.skip("native kernel unavailable on this host")
    return kernel


@pytest.fixture(scope="module", params=["simd", "scalar"])
def kernel(request, tmp_path_factory):
    """The cached library, and one built with -DXB_NO_SIMD."""
    kernel = _kernel()
    if request.param == "simd":
        return kernel
    so = tmp_path_factory.mktemp("scalar") / "scalar.so"
    native.build(str(so), native.compiler(), native.CFLAGS + ("-DXB_NO_SIMD",))
    return native.NativeKernel(str(so))


# --- UTF-8 -------------------------------------------------------------------------


def utf8_cases() -> list[bytes]:
    """Every 2-byte string, and every lead byte E0-F4 with every second
    byte and third and fourth bytes on the edges of the continuation range:
    the classes random bytes rarely reach (E0 80-9F, ED A0-BF, F0 80-8F,
    F4 90+, truncated and overlong forms)."""
    edges = (0x7F, 0x80, 0xBF, 0xC0)
    two = [bytes((a, b)) for a in range(256) for b in range(256)]
    four = [bytes((lead, second, third, fourth)) for lead in range(0xE0, 0xF5) for second in range(256)
            for third in edges for fourth in edges]
    return two + four


def _decodes(b: bytes) -> bool:
    try:
        b.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def test_html_rows_are_flagged_exactly_when_python_cannot_decode(kernel):
    """One batch call of HTML rows: each case alone, and between ASCII so
    that the ASCII skip-ahead scans run into it.  A row is flagged exactly
    when ``bytes.decode("utf-8")`` raises; the others give the oracle's
    text, block count and title."""
    rows = [r for case in utf8_cases() for r in (case, b"x" + case + b"y" * 16)]
    html = pa.array(rows, pa.large_binary())
    kinds = np.full(len(rows), classify.KINDS.index("html"), np.int8)
    res = kernel.extract_batch(html, kinds, np.zeros(len(rows)), np.full(len(rows), 100))
    valid = np.array([_decodes(r) for r in rows])
    assert np.array_equal(res.flagged, ~valid)
    texts, titles = res.text.to_pylist(), res.title.to_pylist()
    for i in np.flatnonzero(valid):
        want = extract_html_with_title(rows[i], 0, 100)
        assert (texts[i], int(res.n_blocks[i]), titles[i]) == want, rows[i]


def _pages(payloads: list[bytes]) -> pa.Table:
    return pa.table({"url": [f"https://e.example/{i}" for i in range(len(payloads))],
                     "warc_ts": pa.array([0] * len(payloads), pa.timestamp("us")),
                     "html": pa.array(payloads, pa.binary())})


@pytest.fixture(scope="module")
def glyph_pages() -> pa.Table:
    """Each case as the text of a one-glyph PDF, followed by enough spaces
    that the compact-glyph reader looks at it before the strict one."""
    head = PDF_MAGIC + b"1.4\n" + GLYPH_MARKER + b'[[0,0,6,10,"'
    return _pages([head + case + b'"]]' + b" " * 40 for case in utf8_cases()])


@pytest.fixture(scope="module")
def glyph_oracle(glyph_pages) -> pa.Table:
    return ExtractActor(html_engine="stdlib")(glyph_pages)


def test_one_glyph_pdfs_equal_the_stdlib_twin(kernel, glyph_pages, glyph_oracle, monkeypatch):
    monkeypatch.setattr(native, "load", lambda: kernel)
    got = ExtractActor()(glyph_pages)
    assert got.equals(glyph_oracle)
    assert 0 < got["status"].to_pylist().count("ok") < len(got)


# --- kind and status codes ---------------------------------------------------------


def test_codes_follow_permuted_kinds_and_statuses(tmp_path, monkeypatch):
    """A library built from rotated ``classify.KINDS`` and
    ``native.BATCH_STATUSES`` writes codes that index the rotated tuples:
    the sniffed kinds are ``classify_payload_kind``'s and the statuses the
    oracle's."""
    from perfbench.gen import crawl_pages

    _kernel()
    kinds = classify.KINDS[1:] + classify.KINDS[:1]
    statuses = native.BATCH_STATUSES[1:] + native.BATCH_STATUSES[:1]
    monkeypatch.setattr(classify, "KINDS", kinds)
    monkeypatch.setattr(native, "BATCH_STATUSES", statuses)
    so = tmp_path / "rotated.so"
    native.build(str(so), native.compiler())
    monkeypatch.undo()

    html = crawl_pages(7, 1000, "crawl_mix")["html"].to_pylist() + [
        f"<p>{PAD}</p>".encode(), b"<p>short</p>", encode_pdf_glyphs(layout_text_as_glyphs(PAD)),
        encode_image_text("ocr"), b"", b"no markup here"]
    n = len(html)
    codes = np.full(n, native.SNIFF, np.int8)
    res = native.NativeKernel(str(so)).extract_batch(
        pa.array(html, pa.large_binary()), codes, np.full(n, 25), np.full(n, 33))
    want = ExtractActor(html_engine="stdlib")(_pages(html))
    assert [kinds[c] for c in codes] == want["payload_kind"].to_pylist()
    kept = ~res.flagged
    assert [statuses[s] for s in res.status[kept]] == np.array(want["status"].to_pylist())[kept].tolist()
    assert set(want["payload_kind"].to_pylist()) == set(kinds)
    assert set(np.array(want["status"].to_pylist())[kept]) == set(statuses)


# --- exports -----------------------------------------------------------------------


def test_the_library_exports_what_native_h_declares():
    """The defined dynamic symbols of the library are the functions cffi
    parses from native.h's export block, and nothing else."""
    nm = shutil.which("nm")
    if nm is None:
        pytest.skip("nm not on PATH")
    _kernel()
    path = native.library_path(native.cache_dir(), native.compiler())
    listing = subprocess.run([nm, "-D", "--defined-only", path], capture_output=True, text=True,
                             check=True).stdout
    defined = {line.split()[-1] for line in listing.splitlines() if line.strip()}
    ffi = cffi.FFI()
    ffi.cdef(native.exports())
    declared = set(dir(ffi.dlopen(path)))
    assert defined == declared == {"xb_extract", "xb_free", "xb_sha256_hex", "xb_sha256_hex_portable"}
