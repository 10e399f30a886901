"""Native PDF kernel (stages/pdf_native.c), reached through the Stage-A
batch call on one-row batches: equality with the Python glyph decode +
XY-cut (the oracle) on random pages, every input class the kernel
declines (the batch flags the row and the Python path runs), generated
glyph JSON in and out of the kernel's subset, glyphs just off the compact
form its fast path reads, near-linear cost on a growing scan and a long
line, a sanitizer run, no silent fallback, a forced fallback, and
the two row failures it fixed (a lone-surrogate glyph failing its whole
batch, a deep cut tree becoming an error row)."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ai_service_ocr_grading_handler_ray.payloads import (
    GLYPH_MARKER,
    PDF_MAGIC,
    decode_pdf_glyphs,
    encode_pdf_glyphs,
    layout_text_as_glyphs,
)
from ai_service_ocr_grading_handler_ray.stages import native
from ai_service_ocr_grading_handler_ray.stages.classify import KINDS
from ai_service_ocr_grading_handler_ray.stages.extract import ExtractActor
from ai_service_ocr_grading_handler_ray.stages.pdf_layout import parse_pdf_layout

HEAD = PDF_MAGIC + b"1.4\n" + GLYPH_MARKER


def _run(payload):
    """The oracle: ``parse_pdf_layout(decode_pdf_glyphs(payload))``, or the
    exception type it raises."""
    try:
        return parse_pdf_layout(decode_pdf_glyphs(payload))
    except Exception as exc:  # the comparison is on the exception type
        return type(exc)


def _kernel():
    kernel = native.load()
    if kernel is None:
        pytest.skip("native kernel unavailable on this host")
    return kernel


def _batch_row(payload):
    """``(text, n_blocks)`` of one PDF row through ``extract_batch``, or
    None when the kernel flags the row for the Python path."""
    res = _kernel().extract_batch(pa.array([payload], pa.large_binary()),
                                  np.array([KINDS.index("pdf")], np.int8),
                                  np.zeros(1, np.int64), np.zeros(1, np.int64))
    return None if res.flagged[0] else (res.text[0].as_py(), int(res.n_blocks[0]))


# --- random pages: native == Python -----------------------------------------

# small coordinate ranges give ties, overlaps and duplicate positions
coords = st.one_of(st.integers(0, 40), st.sampled_from([0, 6, 12, 18, 24, 30, 60, 2**30 - 1]))
sizes = st.one_of(st.integers(0, 12), st.sampled_from([0, 6, 10, 30]))
chars = st.one_of(
    st.sampled_from(["a", "", "ab", "é", "😀", "e\u0301", '"', "\\", "/", "\n", "\t", "\x00",
                     "\x1f", "\x7f", "\u2028", " "]),
    st.text(max_size=3).filter(lambda t: t.encode("utf-8", "surrogatepass") == t.encode("utf-8", "replace")),
)
glyph = st.tuples(coords, coords, sizes, sizes, chars)
pages = st.lists(glyph, max_size=60).flatmap(
    lambda gs: st.lists(st.sampled_from(gs), max_size=10).map(lambda dup: gs + dup) if gs else st.just(gs)
)


@given(pages, st.booleans())
@settings(max_examples=400, deadline=None)
def test_native_equals_python_on_random_pages(glyphs, ascii_json):
    body = json.dumps(glyphs, ensure_ascii=ascii_json, separators=(",", ":") if ascii_json else None)
    payload = HEAD + body.encode("utf-8")
    assert decode_pdf_glyphs(payload) == glyphs
    assert _batch_row(payload) == parse_pdf_layout(glyphs)  # accepted, not flagged


def _bands(n_lines, gap, xs, w=6, h=6):
    """One-glyph lines ``gap`` apart in y, cycling through x positions."""
    return [(xs[i % len(xs)], i * (h + gap), w, h, "abc"[i % 3]) for i in range(n_lines)]


@pytest.mark.parametrize("glyphs", [
    _bands(60, 24, [0]),            # a run of equal y gaps
    _bands(60, 24, [0, 30]),        # ... whose x gap ties the y gap
    _bands(60, 24, [0, 31]),        # ... or beats it
    _bands(60, 24, [0, 10, 300]),
    [(y, x, h, w, c) for x, y, w, h, c in _bands(60, 30, [0, 36])],  # runs along x
    layout_text_as_glyphs(" ".join(f"w{i}" for i in range(3000))),
    layout_text_as_glyphs(" ".join(f"w{i}" for i in range(900)), columns=3, lines_per_col=7),
], ids=["y-run", "x-tie", "x-wins", "three-x", "x-run", "text", "three-columns"])
def test_native_equals_python_on_cut_runs(glyphs):
    payload = encode_pdf_glyphs(glyphs)
    assert _batch_row(payload) == _run(payload)


# --- declined input: the row is flagged and the Python path runs -------------

DECLINED = {
    "float": "[[1.0,2,3,4,\"a\"]]",
    "exponent": "[[1e2,2,3,4,\"a\"]]",
    "bool": "[[true,2,3,4,\"a\"]]",
    "null": "[[null,2,3,4,\"a\"]]",
    "negative": "[[-1,2,3,4,\"a\"]]",
    "negative zero": "[[-0,2,3,4,\"a\"]]",
    "2^30": f"[[{2**30},2,3,4,\"a\"]]",
    "big int": f"[[{10**40},2,3,4,\"a\"]]",
    "leading zero": "[[01,2,3,4,\"a\"]]",
    "NaN": "[[NaN,2,3,4,\"a\"]]",
    "arity 4": "[[1,2,3,4]]",
    "arity 6": "[[1,2,3,4,\"a\",\"b\"]]",
    "int text": "[[1,2,3,4,5]]",
    "string coordinate": "[[\"1\",2,3,4,\"a\"]]",
    "nested": "[[[1],2,3,4,\"a\"]]",
    "not a list": "{\"a\":1}",
    "flat list": "[1,2,3]",
    "lone high surrogate": "[[1,2,3,4,\"\\ud800\"]]",
    "lone low surrogate": "[[1,2,3,4,\"\\udc00x\"]]",
    "high then non-low": "[[1,2,3,4,\"\\ud800\\u0041\"]]",
    "raw control char": "[[1,2,3,4,\"a\x01\"]]",
    "raw newline": "[[1,2,3,4,\"a\nb\"]]",
    "bad escape": "[[1,2,3,4,\"\\x41\"]]",
    "short \\u": "[[1,2,3,4,\"\\u41\"]]",
    "trailing data": "[[1,2,3,4,\"a\"]]x",
    "trailing comma": "[[1,2,3,4,\"a\"],]",
    "two documents": "[][]",
    "unterminated": "[[1,2,3,4,\"a",
    "empty": "",
    "non-JSON whitespace": "[\x0b[1,2,3,4,\"a\"]]",
    "no-break space": "[\u00a0[1,2,3,4,\"a\"]]",
    "BOM": "\ufeff[[1,2,3,4,\"a\"]]",
}
DECLINED_BYTES = {
    "invalid UTF-8": b"[[1,2,3,4,\"\xff\"]]",
    "encoded surrogate": b"[[1,2,3,4,\"\xed\xa0\x80\"]]",
    "overlong": b"[[1,2,3,4,\"\xc0\xaf\"]]",
    "truncated UTF-8": b"[[1,2,3,4,\"\xe2\x82\"]]",
    "above U+10FFFF": b"[[1,2,3,4,\"\xf4\x90\x80\x80\"]]",
}
ACCEPTED = {
    "empty list": "[]",
    "whitespace": " \t\r\n[ [ 1 , 2 , 3 , 4 , \"a\" ] , [0,0,0,0,\"\"] ]\n ",
    "escapes": "[[1,2,3,4,\"\\\"\\\\\\/\\b\\f\\n\\r\\t\\u0000\\u00e9\\uFFFF\"]]",
    "surrogate pair": "[[1,2,3,4,\"\\ud83d\\ude00\\uD83D\\uDE00\"]]",
    "largest coordinate": f"[[{2**30 - 1},{2**30 - 1},{2**30 - 1},{2**30 - 1},\"a\"]]",
}


@pytest.mark.parametrize(
    "body", [b.encode("utf-8", "surrogatepass") for b in DECLINED.values()] + list(DECLINED_BYTES.values()),
    ids=list(DECLINED) + list(DECLINED_BYTES),
)
def test_declined_input_runs_the_python_path(body):
    payload = HEAD + body
    assert _batch_row(payload) is None
    _assert_engines_agree([payload])


@pytest.mark.parametrize("body", list(ACCEPTED.values()), ids=list(ACCEPTED))
def test_accepted_edge_cases_equal_python(body):
    payload = HEAD + body.encode("utf-8")
    assert _batch_row(payload) == _run(payload)


def test_not_a_glyph_pdf_still_raises():
    for payload in (b"%PDF-1.7\nreal pdf bytes", b"<html>" + GLYPH_MARKER):
        assert _run(payload) is ValueError
        assert _batch_row(payload) is None


# --- row failures ---------------------------------------------------------------


def _pdf_batch(payloads):
    n = len(payloads)
    return pa.table({
        "url": [f"https://e.example/{i}" for i in range(n)],
        "warc_ts": pa.array([0] * n, type=pa.timestamp("us")),
        "html": pa.array(payloads, type=pa.binary()),
        "lang": ["en"] * n,
        "payload_kind": ["pdf"] * n,
    })


@pytest.mark.parametrize("engine", ["fused", "stdlib"])
def test_lone_surrogate_glyph_fails_its_row_not_the_batch(engine):
    good = encode_pdf_glyphs(layout_text_as_glyphs("hello world"))
    bad = HEAD + b'[[0,0,6,10,"\\ud800"]]'
    out = ExtractActor(html_engine=engine)(_pdf_batch([good, bad]))
    assert out["status"].to_pylist() == ["ok", "error"]
    assert out["extracted_text"].to_pylist() == ["hello world", ""]


def test_deep_cut_tree_is_not_an_error_row():
    glyphs = [(0, i * 30, 6, 10, "x") for i in range(1500)]  # equal 20 px gaps
    payload = encode_pdf_glyphs(glyphs)
    out = ExtractActor()(_pdf_batch([payload]))
    assert out["status"].to_pylist() == ["ok"]
    assert out["n_blocks"].to_pylist() == [1500]
    python = _run(payload)
    assert python == ("\n\n".join(["x"] * 1500), 1500)
    assert _batch_row(payload) == python


def test_stdlib_engine_runs_the_python_pdf_path(monkeypatch):
    def production(*_args):
        raise AssertionError("the oracle must not run the production kernel")

    monkeypatch.setattr(native.NativeKernel, "extract_batch", production)
    good = encode_pdf_glyphs(layout_text_as_glyphs("alpha beta"))
    out = ExtractActor(html_engine="stdlib")(_pdf_batch([good]))
    assert out["extracted_text"].to_pylist() == ["alpha beta"]


def _assert_engines_agree(payloads):
    """The production engine and the oracle give the same status, text and
    digest on every row."""
    batch = _pdf_batch(payloads)
    fused, stdlib = ExtractActor()(batch), ExtractActor(html_engine="stdlib")(batch)
    for column in ("status", "extracted_text", "content_sha256"):
        assert fused[column].equals(stdlib[column]), column


# --- generated glyph JSON, in and out of the kernel's subset ---------------------

# (inside, outside) the subset: a coordinate, a glyph text, whitespace
_COORDINATE = (
    st.integers(0, 2**30 - 1).map(str),
    st.one_of(
        st.integers(2**30, 2**70).map(str),
        st.integers(-(2**40), -1).map(str),
        st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
        *map(st.just, ["-0", "01", "1e2", "1E+2", "2.0", "true", "false", "null", '"1"', "[1]",
                       "NaN", "Infinity"]),
    ),
)
_GLYPH_TEXT = (
    st.tuples(st.text(max_size=4).filter(lambda t: not any(0xD800 <= ord(c) < 0xE000 for c in t)),
              st.booleans()).map(lambda a: json.dumps(a[0], ensure_ascii=a[1])),
    st.sampled_from(['"\\ud800"', '"\\udc00x"', '"\\ud800\\u0041"', '"a\x01"', '"a\nb"',
                     '"\\x41"', '"\\u41"', '"\ud800"', "5", "null", "1.5", "[]"]),
)
_SPACE = (
    st.sampled_from(["", " ", "\n", "\t", "\r\n  "]),
    st.sampled_from(["\x0b", "\x0c", "\xa0", "\u3000", "\ufeff"]),
)
_ARITY = (st.just(4), st.sampled_from([3, 5]))
_TAIL = (_SPACE[0], st.sampled_from(["x", ",", "[]", "]"]))


@st.composite
def glyph_json(draw):
    """A glyph JSON body and whether it is inside the kernel's subset:
    ``[[int,int,int,int,"str"],…]`` with ints in [0, 2^30), JSON
    whitespace, valid UTF-8 and no lone surrogate.  About half the bodies
    have exactly one piece outside, so each class is checked alone."""
    bad = draw(st.integers(0, 40)) if draw(st.booleans()) else -1
    count = 0

    def piece(pair):
        nonlocal count
        count += 1
        return draw(pair[1 if count - 1 == bad else 0])

    glyphs = []
    for _ in range(draw(st.integers(0, 4))):
        fields = [piece(_COORDINATE) for _ in range(piece(_ARITY))] + [piece(_GLYPH_TEXT)]
        glyphs.append("[" + ",".join(piece(_SPACE) + f for f in fields) + "]")
    body = "[" + ",".join(glyphs) + "]" + piece(_TAIL)
    return body, not 0 <= bad < count


@given(glyph_json())
@settings(max_examples=400, deadline=None)
def test_glyph_json_outside_the_subset_is_flagged(case):
    """The kernel flags exactly the payloads outside its subset, and both
    engines give the same rows on every payload."""
    body, inside = case
    payload = HEAD + body.encode("utf-8", "surrogatepass")
    row = _batch_row(payload)
    if inside:
        assert row == _run(payload)
    else:
        assert row is None
    _assert_engines_agree([payload])


# --- the compact-glyph fast path at its edges ------------------------------------

COMPACT = '[12,340,6,10,"a"]'
# (field, inside the subset) just off the compact form; the compact glyph
# is [12,340,6,10,"a"]
_COORDS = [("0", True), ("7", True), ("999999999", True), ("1000000000", True),
           (str(2**30 - 1), True), (" 12", True), ("12 ", True), ("\n12\t", True),
           ("01", False), ("00", False), ("-0", False), ("-1", False), ("+1", False),
           ("1.0", False), ("0.5", False), ("1e2", False), ("1E2", False), (str(2**30), False),
           (str(10**10), False), ("true", False), ("null", False), ('"1"', False), ("", False)]
_TEXTS = [('""', True), ('" "', True), ('"ab"', True), ('"' + "x" * 40 + '"', True),
          ('"\x7f"', True), ('"é"', True), ('"😀"', True), ('"a b"', True), ('"\\n"', True),
          ('"\\u0041"', True), ('"\\""', True), ('"\\\\"', True), ('"\\/"', True),
          ('"\\ud83d\\ude00"', True), (' "a"', True), ('"a" ', True),
          ('"a\x01"', False), ('"\\ud800"', False), ('"\\x41"', False), ('"a', False), ("a", False),
          ("5", False), ('"a"]', False)]


def compact_variants() -> list[tuple[str, bool]]:
    """Glyphs one field off the compact form, and whether the strict
    decoder accepts them."""
    x, y, w, h = "12", "340", "6", "10"
    out = [(COMPACT, True), ("[ " + COMPACT[1:], True), (COMPACT[:-1] + " ]", True),
           # the longest coordinates: read up to the last byte the fast path reads unchecked
           ('[999999999,999999999,999999999,999999999,"a"]', True),
           ('[999999999,999999999,999999999,1000000000,"a"]', True),
           ('[12,340,6,10]', False), ('[12,340,6,10,"a","b"]', False), ('[12,340,6,10,"a",]', False)]
    for field in range(4):
        for value, inside in _COORDS:
            coords = [x, y, w, h]
            coords[field] = value
            out.append(("[" + ",".join(coords) + ',"a"]', inside))
    out += [(f"[{x},{y},{w},{h},{text}]", inside) for text, inside in _TEXTS]
    return out


def compact_boundary_bodies() -> list[tuple[bytes, bool]]:
    """Glyph JSON bodies with each variant first, last, between compact
    glyphs and alone, followed by 0 to 47 bytes of whitespace, so that it
    ends on either side of the 42 bytes the fast path reads unchecked."""
    bodies = []
    for glyph, inside in compact_variants():
        for page in ([glyph], [COMPACT, glyph], [glyph, COMPACT], [COMPACT, glyph, COMPACT]):
            for pad in range(48):
                bodies.append((("[" + ",".join(page) + "]" + " " * pad).encode("utf-8"), inside))
    return bodies


def test_compact_glyphs_decode_or_decline_as_the_strict_decoder():
    cases = compact_boundary_bodies()
    res = _kernel().extract_batch(pa.array([HEAD + b for b, _ in cases], pa.large_binary()),
                                  np.full(len(cases), KINDS.index("pdf"), np.int8),
                                  np.zeros(len(cases), np.int64), np.zeros(len(cases), np.int64))
    got = zip(res.flagged.tolist(), res.text.to_pylist(), res.n_blocks.tolist())
    for (body, inside), (flagged, text, n_blocks) in zip(cases, got):
        assert flagged != inside, body
        if inside:
            assert (text, n_blocks) == _run(HEAD + body), body


# --- cost, build and fallback ----------------------------------------------------


def _scan(n_words):
    return encode_pdf_glyphs(layout_text_as_glyphs(" ".join(f"w{i % 997}x" for i in range(n_words))))


def _best_times(payloads, rounds=9):
    """Best time of each payload's native parse, the payloads timed in
    turn within each round so that a slow spell of the host hits all."""
    best = [float("inf")] * len(payloads)
    for _ in range(rounds):
        for i, payload in enumerate(payloads):
            t = time.perf_counter()
            _batch_row(payload)
            best[i] = min(best[i], time.perf_counter() - t)
    return best


def test_native_kernel_cost_is_near_linear():
    small, big = _scan(6_000), _scan(28_000)
    assert 28_000 < len(decode_pdf_glyphs(small)) < 32_000
    assert 135_000 < len(decode_pdf_glyphs(big)) < 145_000
    t_small, t_big = _best_times([small, big])
    assert t_big / t_small <= 6, (t_small, t_big)


def test_compact_page_cost_is_near_linear():
    """One line of compact glyphs, all read by the fast path: 5,000 and
    20,000 glyphs."""
    small, big = (encode_pdf_glyphs([(6 * i, 0, 6, 10, "x") for i in range(n)]) for n in (5_000, 20_000))
    assert _batch_row(big) == ("x" * 20_000, 1)
    t_small, t_big = _best_times([small, big])
    assert t_big / t_small <= 6, (t_small, t_big)


@pytest.mark.xfail(
    strict=True,
    reason="cut_node costs O(n) per cut on an equal-gap chain: ~15x the time at 4x the lines",
)
def test_alternating_chain_cost_is_near_linear():
    """One-glyph lines of 6 x 6, y step 30, x alternating between 0 and 30
    (the x gap ties the y gap): 5,000 and 20,000 lines."""
    small, big = (
        encode_pdf_glyphs([(30 * (i % 2), 30 * i, 6, 6, "x") for i in range(n)])
        for n in (5_000, 20_000)
    )
    t_small, t_big = _best_times([small, big], rounds=3)
    assert t_big / t_small <= 6, (t_small, t_big)


def test_compiler_present_means_native_pdf_engine():
    """A host with a compiler must run the native kernel: a silent
    fallback to the Python engine would pass every equality test."""
    if native.compiler() is None:
        pytest.skip("no C compiler on this host")
    assert native.load() is not None
    assert _batch_row(_scan(100)) is not None


def test_forced_fallback_gives_identical_output(monkeypatch):
    batch = _pdf_batch([_scan(500), encode_pdf_glyphs(_bands(60, 24, [0, 30])), HEAD + b"[]",
                        HEAD + ACCEPTED["escapes"].encode()])
    assert all(_batch_row(p) is not None for p in batch["html"].to_pylist())
    produced = ExtractActor()(batch)
    monkeypatch.setattr(native, "load", lambda: None)
    assert ExtractActor()(batch).equals(produced)


_SANITIZED_RUN = r"""
import json, random, sys
sys.path[:0] = [sys.argv[2], sys.argv[3]]
from ai_service_ocr_grading_handler_ray.payloads import PDF_MAGIC, decode_pdf_glyphs
from ai_service_ocr_grading_handler_ray.stages.classify import KINDS
from ai_service_ocr_grading_handler_ray.stages.native import NativeKernel
from ai_service_ocr_grading_handler_ray.stages.pdf_layout import parse_pdf_layout
from perfbench.gen import crawl_pages
from test_pdf_native import (ACCEPTED, COMPACT, DECLINED, DECLINED_BYTES, HEAD, _bands,
                             compact_boundary_bodies, compact_variants)

kernel = NativeKernel(sys.argv[1])
ffi, lib = kernel._ffi, kernel._lib
PDF = KINDS.index("pdf")


# one PDF row through the batch entry, every array in a buffer of exactly
# its size, so a read one byte past the end hits a redzone
def row_call(payload):
    data = ffi.new(f"char[{len(payload)}]")
    ffi.memmove(data, payload, len(payload))
    out = ffi.new("xb_text *")
    text_off, n_blocks, flagged = ffi.new("int64_t[2]"), ffi.new("int32_t[1]"), ffi.new("uint8_t[1]")
    rc = lib.xb_extract(
        ffi.new("int64_t[2]", [0, len(payload)]), data, 1, ffi.new("int8_t[1]", [PDF]),
        ffi.new("int64_t[1]"), ffi.new("int64_t[1]"), text_off, ffi.new("int64_t[2]"), n_blocks,
        ffi.new("int8_t[1]"), ffi.new("uint8_t[1]"), flagged, ffi.new("char[64]"), out)
    assert rc == 0
    text = ffi.unpack(out.text, text_off[1]).decode("utf-8")
    lib.xb_free(out.text)
    lib.xb_free(out.title)
    return None if flagged[0] else (text, n_blocks[0])


pdfs = [p for p in crawl_pages(7, 6000, "crawl_mix")["html"].to_pylist() if p.startswith(PDF_MAGIC)]
for p in pdfs:
    assert row_call(p) == parse_pdf_layout(decode_pdf_glyphs(p))

bodies = [p[len(HEAD):] for p in pdfs]
bodies += [b.encode("utf-8", "surrogatepass") for b in (*DECLINED.values(), *ACCEPTED.values())]
bodies += list(DECLINED_BYTES.values())
bodies.append(json.dumps(_bands(1500, 24, [0, 30])).encode())
for raw in bodies:
    for cut in range(0, len(raw), max(1, len(raw) // 7)):  # and ~7 prefixes of each
        row_call(HEAD + raw[:cut])
    row_call(HEAD + raw)
# the compact fast path's edges: each body whole, and a compact glyph then
# each variant cut at every byte of its last 50
for body, _ in compact_boundary_bodies():
    row_call(HEAD + body)
for glyph, _ in compact_variants():
    raw = ("[" + COMPACT + "," + glyph + "]").encode("utf-8")
    for cut in range(max(0, len(raw) - 50), len(raw)):
        row_call(HEAD + raw[:cut])
rng = random.Random(0)
alphabet = b'[],"\\u0123456789 ade\xc3\xa9\xed\xa0\x80\xf0\x9f\x98\x80\n'
for _ in range(5000):
    raw = bytes(rng.choice(alphabet) for _ in range(rng.randrange(40)))
    row_call(HEAD + rng.choice([b"", b"[", b"[[", b"[[1,2,3,4,\"", b"[[1,2,3,4,\"a\"],"]) + raw)
    row_call(HEAD + bytes(rng.randrange(256) for _ in range(rng.randrange(40))))
print("sanitized run ok", len(pdfs))
"""


def test_kernel_under_address_and_undefined_sanitizers(tmp_path):
    cc = native.compiler()
    if cc is None:
        pytest.skip("no C compiler on this host")
    libasan = subprocess.run(
        [cc, "-print-file-name=libasan.so"], capture_output=True, text=True
    ).stdout.strip()
    if not os.path.isabs(libasan):
        pytest.skip("compiler has no AddressSanitizer runtime")
    so = tmp_path / "native_asan.so"
    flags = ("-O1", "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
             "-fno-sanitize-recover=all")
    native.build(str(so), cc, native.CFLAGS + flags)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # PYTHONMALLOC=malloc: every Python buffer gets its own redzones
    env = dict(os.environ, LD_PRELOAD=libasan, ASAN_OPTIONS="detect_leaks=0",
               PYTHONMALLOC="malloc")
    proc = subprocess.run(
        [sys.executable, "-c", _SANITIZED_RUN, str(so), root, os.path.join(root, "tests")],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "sanitized run ok" in proc.stdout
