"""Native HTML kernel (stages/html_native.c): equality with the oracle
(``extract_html_with_title``) on Unicode and tokenizer edge cases,
near-linear cost on large and adversarial pages, and the build: warnings
as errors, a sanitizer run, no silent fallback, a forced fallback (to the
oracle) and a corrupt cache."""

import os
import subprocess
import sys
import time

import numpy as np
import pyarrow as pa
import pytest

from ai_service_ocr_grading_handler_ray.stages import native as html_native
from ai_service_ocr_grading_handler_ray.stages.html_extract import (
    _EVENT_TAGS,
    extract_html_fused,
    extract_html_with_title,
)

PAD = "enough words in this paragraph to pass the length rule"

# --- Unicode and tokenizer edge cases: native == oracle ----------------------

SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]

EDGE_CASES = [
    # every str.isspace code point, inside a block and as the only content
    *(f"<p>a{s}{PAD}{s}b{s}</p><p>{s}</p><title>{s}t{s}{s}u{s}</title>" for s in SPACES),
    "<p>" + "".join(SPACES) + PAD + "".join(SPACES) + "</p>",
    # code points re.IGNORECASE folds onto ASCII letters: they fold in
    # boilerplate values, not in attribute names or end tags
    f'<div class="ſidebar"><p>{PAD}</p></div><p>{PAD} kept</p>',
    f'<div class="Sİdebar"><p>{PAD}</p></div>',
    f'<div claſs="nav"><p>{PAD}</p></div>',
    f'<div ıd="nav"><p>{PAD}</p></div>',
    f'<div İD="menu"><p>{PAD}</p></div>',
    f'<div class="cooKie"><p>{PAD}</p></div>',
    f'<span class="Kookie">x</span><p>{PAD}</p>',
    f"<script>var a='<p>{PAD}</p>';</ſcript><p>{PAD}</p>",
    f"<title>T</tİtle><p>{PAD}</p>",
    f"<title>T</tıtle ><p>{PAD}</p>",
    f"<style>x</STYLE　><p>{PAD}</p>",
    # attribute names run to space, '/', '>' or '='; a repeated one is dropped
    f'<div data-id="nav"><p>{PAD}</p></div>',
    f'<div 5id="nav"><p>{PAD}</p></div>',
    f'<div éid="nav"><p>{PAD}</p></div>',
    f'<div xid="nav" id = "x" class=\'ad_x\'><p>{PAD}</p></div>',
    f'<p role="a　banner">{PAD}</p>',
    f'<p class="a\x85nav">{PAD}</p>',
    f'<p class="nav\n">{PAD}</p>',
    f'<p class="x" CLASS="promo">{PAD}</p>',
    f'<p class=nav/>{PAD}',
    f'<p class="unterminated>{PAD}</p>',
    f"<p class='a\" id=\"nav'>{PAD}</p>",
    # comments, bogus comments and EOF inside markup
    f"<p>{PAD}<!-- never closed\n",
    f"<p>{PAD}<!-- never closed\n\n",
    f"<p>{PAD}<!--\n",
    f"<p>{PAD}<![CDATA[ never closed\n",
    f"<p>{PAD}<!---->tail</p>",
    # named entities without ';' and longest-prefix entities
    f"<p>{PAD} &amp &lt &gt &nbsp; &copy &AMP &ampx &notit; &notin; &not;</p>",
    f"<p>{PAD} &Aacute &aacute; &zwnj &Zfr; &nvle; &CounterClockwiseContourIntegral;x</p>",
    f"<p>{PAD} &{'a' * 40}; &ab &a; &; & &# &#; &#x; &amp&amp;</p>",
    f"<title>&notit; &amp &xyz;</title><p>{PAD}</p>",
    f"<p>{PAD} &ampé &ampſ; &　amp; &amp　;</p>",
    # numeric charrefs: invalid, surrogate, above 0x10FFFF
    f"<p>{PAD} &#0; &#13; &#128; &#x80; &#x9F; &#129; &#1; &#x0B; &#xFFFE; &#x10FFFF;</p>",
    f"<p>{PAD} &#xD800; &#xdfff; &#55296 &#x110000; &#1114112; &#99999999999999999999;</p>",
    f"<p>{PAD} &#65 &#x41 &#X41; &#0000065; &#x00000000041;</p>",
    f"<p>{PAD} &#32; &#x3000; &#133; &#xa0;x</p>",
    # NUL bytes and invalid UTF-8
    f"<p>{PAD}\x00\x00</p><p>\x00</p>".encode(),
    b"<p>" + PAD.encode() + b"\xff\xfe\xc3\x28\xe2\x82\xf0\x9f\x98</p>",
    b"<div class=\"\xc5\xbfidebar\xff\"><p>" + PAD.encode() + b"</p></div>",
    b"\xed\xa0\x80<p>" + PAD.encode() + b"</p>",
    "<p>lone \ud800 surrogate " + PAD + "</p>",
    # attribute names in any ASCII case, spaced, and run into other characters
    f"<DIV ID = 'nav'><p>{PAD}</p></DIV><p>{PAD} kept</p>",
    f'<p data-id="nav">{PAD}</p><p xclass="nav">{PAD}</p><p Role="banner">{PAD}</p>',
    f"<p role\t=banner>{PAD}</p><p class\x1f=ad>{PAD}</p><p id\x0b= menu>{PAD}</p>",
    f'<p 1class="ad">{PAD}</p><p _id="nav">{PAD}</p><p clasS ="promo">{PAD}</p>',
    # every tag the kernel looks up, in both cases
    "".join(f"<{t}>a<br>b {PAD}</{t}><{t.upper()} id=nav>{PAD}</{t.upper()}>" for t in sorted(_EVENT_TAGS)),
]


@pytest.mark.parametrize("doc", EDGE_CASES, ids=range(len(EDGE_CASES)))
def test_native_equals_python_on_edge_cases(doc):
    for min_len, max_link_pct in ((25, 33), (0, 100), (1, 0)):
        assert extract_html_fused(doc, min_len, max_link_pct) == extract_html_with_title(
            doc, min_len, max_link_pct
        )


def test_edge_cases_exercise_the_folds():
    """The fold cases above really change the result, so the equality
    test would catch a kernel that got them wrong: a fold counts in a
    boilerplate value, not in an end tag's name."""
    assert extract_html_fused(f'<div class="ſidebar"><p>{PAD}</p></div>')[1] == 0
    assert extract_html_fused(f'<div class="xidebar"><p>{PAD}</p></div>')[1] == 1
    assert extract_html_fused(f"<script>x</ſcript><p>{PAD}</p>")[0] == ""
    assert extract_html_fused(f"<p>{PAD} &notit;</p>")[0] == PAD + " ¬it;"


# --- WHATWG decisions, each with its output from both engines -----------------

WHATWG_CASES = [
    # 1. <title> is RCDATA
    ("<title><p>", ("", 0, "<p>")),
    (f"<title><p><style></title>{PAD}", (PAD, 1, "<p><style>")),
    ("<title>T &amp; U</TITLE>", ("", 0, "T & U")),
    # 2. <textarea> is RCDATA, and its content is dropped
    (f"<textarea>{PAD}", ("", 0, "")),
    (f"<textarea><p>{PAD}</textarea><p>{PAD}", (PAD, 1, "")),
    # 3. EOF inside a tag drops the partial tag
    (f"{PAD}<p", (PAD, 1, "")),
    (f"<p{PAD}", ("", 0, "")),
    (f"<p>{PAD}<a href='x", (PAD, 1, "")),
    # 4. raw text ends only at "</" + its own name in ASCII case + space, "/" or ">"
    ("<script></ſcript><title>abc", ("", 0, "")),
    (f"<script>x</ script><p>{PAD}", ("", 0, "")),
    (f"<script>x</SCRIPT\n><p>{PAD}", (PAD, 1, "")),
    (f"<script>x</scripts></script/><p>{PAD}", (PAD, 1, "")),
    (f"<title>a</titles>{PAD}</title>", ("", 0, f"a</titles>{PAD}")),
    (f"<textarea></textareas>{PAD}", ("", 0, "")),
    # 5. "</" + a character that is not an ASCII letter opens a bogus comment
    (f"</ſcript>{PAD}", (PAD, 1, "")),
    (f"</ p>{PAD}</>", (PAD, 1, "")),
    # 6. a tag name runs until space, "/" or ">"
    (f"<p<DIV ID='sidebar'><div>{PAD}", (PAD, 1, "")),
    # 7. an end tag with attributes closes its element
    (f"<title>a</title x>{PAD}", (PAD, 1, "a")),
    (f"<script>x</script foo='>'>{PAD}", (PAD, 1, "")),
    # a self-closing flag does not stop raw text
    (f"<script/>{PAD}", ("", 0, "")),
    ("<title/>abc", ("", 0, "abc")),
    # comments: "-->" or "--!>", and "<!-->" / "<!--->" close at once
    (f"<!-->{PAD}", (PAD, 1, "")),
    (f"<!--->{PAD}", (PAD, 1, "")),
    (f"<!-- x --!>{PAD}", (PAD, 1, "")),
    (f"<!-- x -- >{PAD}", ("", 0, "")),
    # the first of a repeated attribute counts; values decode references
    (f"<p class='x' CLASS='nav'>{PAD}", (PAD, 1, "")),
    (f"<p class='&#110;av'>{PAD}", ("", 0, "")),
    (f"<p class=nav/>{PAD}", (PAD, 1, "")),
]


@pytest.mark.parametrize("doc,want", WHATWG_CASES, ids=range(len(WHATWG_CASES)))
def test_whatwg_decisions(doc, want):
    assert extract_html_with_title(doc) == want
    assert extract_html_fused(doc) == want


# --- near-linear cost on large and adversarial pages ------------------------


def adversarial(scale: int) -> dict[str, str]:
    """Inputs whose size grows linearly with ``scale`` (scale 4 is the full
    size: 4 MB pages, 50k-deep nesting, 1 MB unterminated comment and
    script, a tag with 100k attributes)."""
    page = (
        '<div class="article"><h1>Heading</h1><p>' + PAD + ' &amp; <a href="/x">link</a>'
        "</p><nav><a>menu</a></nav><script>var x = 1 < 2;</script></div>\n"
    )
    return {
        "page": page * (scale * 1_000_000 // len(page)),
        "nesting": '<div class="c">' * (12_500 * scale) + PAD + "</div>" * (12_500 * scale),
        "boiler_nesting": '<div id="nav">' * (12_500 * scale) + PAD,
        "comment": "<p>x</p><!--" + "a-" * (125_000 * scale),
        "script": "<script>" + "a < b </scrip " * (20_000 * scale),
        "close_spaces": "<script>" + ("</script" + " " * 40 + "x") * (10_000 * scale),
        "attrs": "<div " + " ".join(f'a{i}="v"' for i in range(25_000 * scale)) + ' class="nav">' + PAD,
        "open_quotes": '<a "' * (62_500 * scale),
        "long_entities": ("&" + "x" * 40 + " ") * (6_000 * scale),
    }


def _best_time(fn, doc, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        t = time.perf_counter()
        fn(doc, 25, 33)
        best = min(best, time.perf_counter() - t)
    return best


def test_native_kernel_cost_is_near_linear():
    kernel = html_native.load()
    if kernel is None:
        pytest.skip("native kernel unavailable on this host")
    small, big = adversarial(1), adversarial(4)
    for name in small:
        kernel(small[name], 25, 33)  # warm
        ratio = _best_time(kernel, big[name]) / _best_time(kernel, small[name])
        assert ratio <= 6, (name, ratio)


def _one_row_batch(kernel):
    """Run one page through the batch entry, as a one-row HTML batch."""

    def run(doc, min_len, max_link_pct):
        html = pa.array([doc.encode("utf-8")], pa.large_binary())
        one = np.ones(1, np.int64)
        return kernel.extract_batch(html, np.zeros(1, np.int8), one * min_len, one * max_link_pct)

    return run


def test_batch_kernel_cost_is_near_linear():
    kernel = html_native.load()
    if kernel is None:
        pytest.skip("native kernel unavailable on this host")
    run = _one_row_batch(kernel)
    small, big = adversarial(1), adversarial(4)
    for name in small:
        run(small[name], 25, 33)  # warm
        ratio = _best_time(run, big[name]) / _best_time(run, small[name])
        assert ratio <= 6, (name, ratio)


# --- build ---------------------------------------------------------------------


def test_build_treats_warnings_as_errors():
    assert {"-Wall", "-Wextra", "-Werror"} <= set(html_native.CFLAGS)
    assert "-march=native" not in html_native.CFLAGS


def test_compiler_present_means_native_engine():
    """A host with a compiler must run the native kernel: a silent
    fallback to the oracle would pass every equality test."""
    if html_native.compiler() is None:
        pytest.skip("no C compiler on this host")
    assert html_native.load() is not None


def test_forced_fallback_gives_identical_output(monkeypatch):
    docs = EDGE_CASES[-12:] + [adversarial(1)["page"][:20_000]]
    native = [extract_html_fused(d) for d in docs]
    monkeypatch.setattr(html_native, "load", lambda: None)
    assert [extract_html_fused(d) for d in docs] == native


def test_truncated_library_in_cache_is_rebuilt(tmp_path):
    cc = html_native.compiler()
    if cc is None:
        pytest.skip("no C compiler on this host")
    path = html_native.library_path(str(tmp_path), cc)
    html_native.build(path, cc)
    with open(path, "rb") as f:
        head = f.read(4096)
    with open(path, "wb") as f:  # never loaded: safe to cut in place
        f.write(head)
    kernel = html_native.open_kernel(str(tmp_path))
    assert kernel(f"<p>{PAD}</p>", 25, 33) == (PAD, 1, "")
    assert os.path.getsize(path) > len(head)


def test_unwritable_cache_falls_back(tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    monkeypatch.setattr(html_native, "cache_dir", lambda: str(blocker / "cache"))
    html_native.load.cache_clear()
    try:
        assert html_native.load() is None
        assert extract_html_fused(f"<p>{PAD}</p>") == (PAD, 1, "")
    finally:
        html_native.load.cache_clear()


_SANITIZED_RUN = r"""
import hashlib, random, sys
sys.path[:0] = [sys.argv[2], sys.argv[3]]
import pyarrow as pa
import pyarrow.parquet as pq
from ai_service_ocr_grading_handler_ray.stages.classify import KINDS, classify_payload_kind
from ai_service_ocr_grading_handler_ray.stages.html_extract import extract_html_with_title
from ai_service_ocr_grading_handler_ray.stages.native import NativeKernel
from ai_service_ocr_grading_handler_ray.synth import docs_to_pages
from test_html_native import EDGE_CASES, adversarial

kernel = NativeKernel(sys.argv[1])
ffi, lib = kernel._ffi, kernel._lib
pages = classify_payload_kind(docs_to_pages(pq.read_table(sys.argv[4])))
html = [p for p, k in zip(pages["html"].to_pylist(), pages["payload_kind"].to_pylist()) if k == "html"]
for doc in html + EDGE_CASES:
    assert kernel(doc, 25, 33) == extract_html_with_title(doc, 25, 33)


# bytes straight into C, in a buffer of exactly their size, so a read one
# byte past the end hits a redzone
def raw_call(raw, min_len=25, max_link_pct=33):
    buf = ffi.new(f"char[{len(raw)}]")
    ffi.memmove(buf, raw, len(raw))
    res = ffi.new("hx_result *")
    assert lib.hx_extract(buf, len(raw), min_len, max_link_pct, res) == 0
    lib.hx_free(res)


docs = html + EDGE_CASES + list(adversarial(4).values())
for doc in docs:
    raw = doc if isinstance(doc, bytes) else doc.encode("utf-8", "surrogatepass")
    for cut in range(0, len(raw), max(1, len(raw) // 7)):  # and ~7 prefixes of each
        raw_call(raw[:cut])
    raw_call(raw)
rng = random.Random(0)  # invalid UTF-8 everywhere
for i in range(3000):
    raw = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
    raw += rng.choice([b"<p class='", b"&#x", b"&ab", b"<!--", b"</scr", b"<title>", b"\xe2", b""])
    raw_call(raw, 25 - i, 33 + i)


# the batch entry, every array in a buffer of exactly its size
def batch_call(payloads, kinds, first=0):
    rows = payloads[first:]
    n = len(rows)
    offsets = [0]
    for p in payloads:
        offsets.append(offsets[-1] + len(p))
    data = b"".join(payloads)
    data_buf = ffi.new(f"char[{len(data)}]")
    ffi.memmove(data_buf, data, len(data))
    offsets_buf = ffi.new(f"int64_t[{len(offsets)}]", offsets)
    out = ffi.new("xb_text *")
    sha = ffi.new(f"char[{64 * n}]")
    kinds_buf = ffi.new(f"int8_t[{n}]", kinds[first:])
    rc = lib.xb_extract(
        offsets_buf + first, data_buf, n, kinds_buf,
        ffi.new(f"int64_t[{n}]", [25] * n), ffi.new(f"int64_t[{n}]", [33] * n),
        ffi.new(f"int64_t[{n + 1}]"), ffi.new(f"int64_t[{n + 1}]"), ffi.new(f"int32_t[{n}]"),
        ffi.new(f"int8_t[{n}]"), ffi.new(f"uint8_t[{n}]"), ffi.new(f"uint8_t[{n}]"), sha, out)
    assert rc == 0
    lib.xb_free(out.text)
    lib.xb_free(out.title)
    return list(kinds_buf)


kinds = [KINDS.index(k) for k in pages["payload_kind"].to_pylist()]
payloads = [p or b"" for p in pages["html"].to_pylist()]
assert set(kinds) == set(range(len(KINDS)))  # every kind, images left to the caller
batch_call(payloads, kinds)
batch_call(payloads, kinds, first=len(payloads) // 3)  # a sliced array
edge = [d if isinstance(d, bytes) else d.encode("utf-8", "surrogatepass") for d in EDGE_CASES]
batch_call(edge, [0] * len(edge))
for raw in (b"", b"<p>x</p>", payloads[0], bytes(range(256))):  # one row
    for kind in range(len(KINDS)):
        batch_call([raw], [kind])
batch_call([], [])  # zero rows

# the sniff (kind -1), over the same rows and one row at a time over its
# edges: each payload then ends exactly where its buffer does
assert batch_call(payloads, [-1] * len(payloads)) == kinds
edges = [m[:cut] for m in (b"%PDF-1.4", b"\x89PNG\r\n\x1a\nGRAFTOCR", b"RIFF\0\0\0\0WEBPVP8 ")
         for cut in range(13)]
edges += [b"x" * at + b"<" for at in range(18)] + [payloads[0][:cut] for cut in range(20)]
for raw in edges:
    sniffed = classify_payload_kind(pa.table({"html": pa.array([raw], pa.binary())}))
    assert batch_call([raw], [-1]) == [KINDS.index(sniffed["payload_kind"][0].as_py())], raw

# both SHA-256 block functions, each input in a buffer of exactly its size
rng = random.Random(1)
hex_ = ffi.new("char[64]")
for data in [rng.randbytes(n) for n in range(300)] + [rng.randbytes(70_000)]:
    buf = ffi.new(f"char[{len(data)}]")
    ffi.memmove(buf, data, len(data))
    for digest in (lib.xb_sha256_hex, lib.xb_sha256_hex_portable):
        digest(buf, len(data), hex_)
        assert ffi.unpack(hex_, 64).decode() == hashlib.sha256(data).hexdigest()
print("sanitized run ok", len(html))
"""


def test_kernel_under_address_and_undefined_sanitizers(tmp_path, sf_dir):
    cc = html_native.compiler()
    if cc is None:
        pytest.skip("no C compiler on this host")
    libasan = subprocess.run(
        [cc, "-print-file-name=libasan.so"], capture_output=True, text=True
    ).stdout.strip()
    if not os.path.isabs(libasan):
        pytest.skip("compiler has no AddressSanitizer runtime")
    so = tmp_path / "html_native_asan.so"
    flags = ("-O1", "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
             "-fno-sanitize-recover=all")
    html_native.build(str(so), cc, html_native.CFLAGS + flags)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # PYTHONMALLOC=malloc: every Python buffer gets its own redzones
    env = dict(os.environ, LD_PRELOAD=libasan, ASAN_OPTIONS="detect_leaks=0",
               PYTHONMALLOC="malloc")
    proc = subprocess.run(
        [sys.executable, "-c", _SANITIZED_RUN, str(so), root, os.path.join(root, "tests"),
         os.path.join(sf_dir, "documents.parquet")],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "sanitized run ok" in proc.stdout
