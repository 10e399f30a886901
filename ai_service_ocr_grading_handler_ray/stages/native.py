"""Build, cache and open the native kernels.

- ``html_native.c`` is the production HTML engine,
  ``html_extract.extract_html_fused``; its oracle is
  ``html_extract.extract_html_with_title``;
- ``pdf_native.c`` decodes a synthetic PDF's glyph payload and lays the
  page out; its oracle is ``payloads.decode_pdf_glyphs`` +
  ``pdf_layout.parse_pdf_layout``, which also run every PDF row it
  declines;
- ``extract_native.c`` runs both over a whole Stage-A batch in one call
  (``NativeKernel.extract_batch``, used by ``extract.ExtractActor``): the
  payload column's Arrow buffers in, each row's payload kind (when not
  given), text, title, block count, status, ``is_blank`` and SHA-256
  (written out in C, with SHA-NI where the CPU has it) back, with the rows
  it leaves to the per-row Python path flagged.  It is the only way into
  the PDF kernel.

``native.h`` declares what the three share.  They compile into one shared
library, once per host, on first use; cffi opens it in ABI mode.  One
library means one cache key and one ``load()``: a worker process pays for
one ``cc --version`` and one dlopen.  The library lives in
``$XDG_CACHE_HOME/ai_service_ocr_grading_handler_ray/`` (``~/.cache/...``
when the variable is unset) under a name keyed by the sha256 of the C
sources and header, this file, the generated tables, the cffi version,
the compiler version and the Python ABI tag.  Deleting that directory
forces a rebuild.

Each build writes a temporary file in the cache directory and
``os.replace``-s it into place, so processes that build at the same time
cannot see a half-written library.  When there is no compiler or the
cache cannot be written, ``load()`` logs one warning and returns ``None``;
the callers then run the oracles.
"""

from __future__ import annotations

import functools
import hashlib
import html
import html.entities
import logging
import os
import re
import shutil
import subprocess
import sysconfig
import tempfile
import unicodedata

import cffi
import numpy as np
import pyarrow as pa

_HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = tuple(os.path.join(_HERE, name)
                for name in ("html_native.c", "pdf_native.c", "extract_native.c"))
HEADER = os.path.join(_HERE, "native.h")
CFLAGS = ("-O2", "-std=gnu99", "-fPIC", "-shared", "-Wall", "-Wextra", "-Werror")
_CDEF = """
typedef struct {
    char *text;
    size_t text_len;
    char *title;
    size_t title_len;
    int64_t n_kept;
} hx_result;
int hx_extract(const char *doc, size_t n, int64_t min_len, int64_t max_link_pct, hx_result *res);
void hx_free(hx_result *res);

typedef struct {
    char *text;
    size_t text_len;
    char *title;
    size_t title_len;
} xb_text;
int xb_extract(const int64_t *offsets, const char *data, int64_t n, int8_t *kinds,
               const int64_t *min_len, const int64_t *max_link_pct, int64_t *text_off,
               int64_t *title_off, int32_t *n_blocks, int8_t *status, uint8_t *is_blank,
               uint8_t *flagged, char *sha_hex, xb_text *out);
void xb_free(void *p);
void xb_sha256_hex(const char *s, size_t n, char *hex);
void xb_sha256_hex_portable(const char *s, size_t n, char *hex);
"""
# extract_native.c's status codes
BATCH_STATUSES = ("ok", "blank", "error")
_I64 = 2**63

log = logging.getLogger(__name__)


def cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "ai_service_ocr_grading_handler_ray")


def compiler() -> str | None:
    return shutil.which("cc") or shutil.which("gcc")


# --- generated tables (html_native_tables.h, pdf_native_tables.h) -----------


def _c_bytes(b: bytes) -> str:
    return '"' + "".join(f"\\{c:03o}" for c in b) + '"'


def _c_u32(name: str, xs: list[int]) -> str:
    body = ",".join(str(x) for x in xs) or "0"
    return f"static const uint32_t {name}[] = {{{body}}};\n#define {name.replace('HX_', 'HX_N_')} {len(xs)}u\n"


def _data_tables() -> str:
    """Tag sets, boiler words and the character-reference tables."""
    from . import html_extract as hx  # html_extract imports this module

    flags = {"HX_BLOCK": hx._BLOCK_TAGS, "HX_SKIP": hx._SKIP_TAGS, "HX_BOILER": hx._BOILER_TAGS,
             "HX_VOID": hx._VOID_TAGS, "HX_RAWTEXT": hx._RAWTEXT,
             "HX_A": {"a"}, "HX_TITLE": {"title"}, "HX_BR": {"br"}}
    tags = sorted(hx._EVENT_TAGS)
    out = ["static const hx_tag HX_TAGS[] = {\n"]
    for t in tags:
        f = "|".join(k for k, v in flags.items() if t in v)
        out.append(f'    {{"{t}", {len(t)}, {f}}},\n')
    out.append(f"}};\n#define HX_N_TAGS {len(tags)}u\n#define HX_TAG_MAX {max(map(len, tags))}\n")
    first = [sum(t < letter for t in tags) for letter in "abcdefghijklmnopqrstuvwxyz{"]
    out.append(_c_u32("HX_TAG_FIRST", first))

    words = hx._BOILER_WORDS
    out.append("static const char *const HX_BOILER_WORDS[] = {"
               + ",".join(f'"{w}"' for w in words) + "};\n")
    out.append(f"#define HX_N_BOILER_WORDS {len(words)}u\n#define HX_BOILER_WORD_MAX {max(map(len, words))}\n")

    ents = sorted((k.encode(), v.encode()) for k, v in html.entities.html5.items())
    out.append("static const hx_entity HX_ENTITIES[] = {\n")
    out.extend(f"    {{{_c_bytes(k)}, {len(k)}, {_c_bytes(v)}, {len(v)}}},\n" for k, v in ents)
    out.append(f"}};\n#define HX_N_ENTITIES {len(ents)}u\n")

    refs = sorted(html._invalid_charrefs.items())
    out.append("static const hx_charref HX_INVALID_CHARREFS[] = {\n")
    out.extend(f"    {{{cp}u, {_c_bytes(v.encode())}, {len(v.encode())}}},\n" for cp, v in refs)
    out.append(f"}};\n#define HX_N_INVALID_CHARREFS {len(refs)}u\n")
    out.append(_c_u32("HX_INVALID_CODEPOINTS", sorted(html._invalid_codepoints)))
    return "".join(out)


def _unicode_tables() -> str:
    """str.isspace and the non-ASCII code points re.IGNORECASE matches to
    ASCII letters, from this Python's Unicode database.  Slow (~0.5 s), so
    it runs only when building; the cache key carries
    ``unicodedata.unidata_version`` instead."""
    everything = "".join(map(chr, range(0x110000)))
    spaces = [ord(c) for c in everything if c.isspace()]
    folds = [(ord(c), letter) for letter in "abcdefghijklmnopqrstuvwxyz"
             for c in re.findall(letter, everything, re.IGNORECASE) if ord(c) >= 128]
    return "".join([
        "static const unsigned char HX_ASCII_SPACE[128] = {"
        + ",".join("1" if chr(c).isspace() else "0" for c in range(128)) + "};\n",
        _c_u32("HX_SPACES", [c for c in spaces if c >= 128]),
        "static const hx_fold HX_FOLDS[] = {" + ",".join(f"{{{cp}u,'{ch}'}}" for cp, ch in folds) + "};\n",
        f"#define HX_N_FOLDS {len(folds)}u\n",
    ])


def _payload_tables() -> str:
    """The layout constants of pdf_layout.py, the magic bytes and markers of
    payloads.py and the sniff window of classify.py."""
    from .. import payloads  # payloads (so classify) and pdf_layout import this module
    from . import classify, pdf_layout

    return "".join([
        *(f"#define PX_{name} {getattr(pdf_layout, name)}\n"
          for name in ("MIN_GAP_X", "MIN_GAP_Y", "LINE_SLACK")),
        f"#define PX_PDF_MAGIC {_c_bytes(payloads.PDF_MAGIC)}\n",
        f"#define PX_GLYPH_MARKER {_c_bytes(payloads.GLYPH_MARKER)}\n",
        f"#define XB_PNG_MAGIC {_c_bytes(payloads.PNG_MAGIC)}\n",
        f"#define XB_WEBP_RIFF {_c_bytes(payloads.WEBP_RIFF)}\n",
        f"#define XB_WEBP_TAG {_c_bytes(payloads.WEBP_TAG)}\n",
        f"#define XB_WEBP_TAG_AT {classify.WEBP_TAG_AT}\n",
        f"#define XB_HTML_WINDOW {classify.HTML_WINDOW}\n",
    ])


def cache_key(cc: str) -> str:
    version = subprocess.run([cc, "--version"], capture_output=True, text=True, timeout=60,
                             check=True).stdout
    h = hashlib.sha256()
    for path in (*SOURCES, HEADER, __file__):
        with open(path, "rb") as f:
            h.update(f.read())
    for part in (_data_tables(), _payload_tables(), unicodedata.unidata_version, cffi.__version__, version,
                 str(sysconfig.get_config_var("SOABI"))):
        h.update(b"\0" + part.encode())
    return h.hexdigest()


def build(so_path: str, cc: str, cflags: tuple[str, ...] = CFLAGS) -> None:
    """Compile the kernels into one library at ``so_path``, atomically."""
    directory = os.path.dirname(os.path.abspath(so_path))
    with tempfile.TemporaryDirectory(dir=directory, prefix=".build-") as tmp:
        with open(os.path.join(tmp, "html_native_tables.h"), "w") as f:
            f.write(_data_tables() + _unicode_tables())
        with open(os.path.join(tmp, "pdf_native_tables.h"), "w") as f:
            f.write(_payload_tables())
        out = os.path.join(tmp, "kernel.so")
        subprocess.run([cc, *cflags, "-I", tmp, "-o", out, *SOURCES],
                       capture_output=True, text=True, timeout=600, check=True)
        with open(out, "rb") as f:
            digest = hashlib.sha256(f.read()).digest()
        with open(out, "ab") as f:  # the loader ignores bytes past the ELF image
            f.write(digest)
        os.replace(out, so_path)


def _intact(so_path: str) -> bool:
    """The library ends with the sha256 of the rest: it is whole.  dlopen
    of a truncated library can fault instead of failing."""
    try:
        with open(so_path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        return False
    return len(data) > 32 and hashlib.sha256(data[:-32]).digest() == data[-32:]


class BatchResult:
    """The outputs of one ``NativeKernel.extract_batch`` call: per-row
    numpy arrays the caller fills in for the flagged rows, and the text and
    title columns (empty at those rows)."""

    def __init__(self, n: int) -> None:
        self.text_off = np.empty(n + 1, np.int64)
        self.title_off = np.empty(n + 1, np.int64)
        self.n_blocks = np.empty(n, np.int32)
        self.status = np.empty(n, np.int8)  # indexes into BATCH_STATUSES
        self.is_blank = np.empty(n, np.bool_)
        self.flagged = np.empty(n, np.bool_)
        self.sha = np.empty((n, 64), np.uint8)  # lowercase hex digits
        self.text: pa.LargeStringArray | None = None
        self.title: pa.LargeStringArray | None = None


class NativeKernel:
    """The compiled library.  Calling it runs the HTML kernel on one page,
    like ``extract_html_fused``; ``extract_batch`` runs a whole batch."""

    def __init__(self, so_path: str) -> None:
        self._ffi = ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        self._lib = ffi.dlopen(so_path)

    def __call__(self, payload: bytes | str, min_len: int, max_link_pct: int) -> tuple[str, int, str]:
        if isinstance(payload, bytes):
            buf = payload.decode("utf-8", errors="replace").encode("utf-8")
        else:
            buf = payload.encode("utf-8", errors="surrogatepass")
        ffi, lib = self._ffi, self._lib
        res = ffi.new("hx_result *")
        try:
            if lib.hx_extract(buf, len(buf), min_len, max_link_pct, res) != 0:
                raise MemoryError("native: out of memory")
            text = ffi.unpack(res.text, res.text_len).decode("utf-8", errors="surrogatepass")
            title = ffi.unpack(res.title, res.title_len).decode("utf-8", errors="surrogatepass")
            return text, res.n_kept, title
        finally:
            lib.hx_free(res)

    def extract_batch(self, html: pa.LargeBinaryArray, kinds: np.ndarray, min_len: np.ndarray,
                      max_link_pct: np.ndarray) -> BatchResult:
        """Extract and digest every row of ``html`` in one call of
        ``extract_native.c``.  ``kinds`` is an int8 array of indexes into
        ``classify.KINDS``, or -1 where the kernel is to sniff the kind; it
        writes the sniffed index there.  The thresholds are one int64 per
        row; ``html`` has no nulls.  The flagged rows (images among them)
        are left empty for the caller."""
        n = len(html)
        min_len, max_link_pct = (np.ascontiguousarray(a, np.int64) for a in (min_len, max_link_pct))
        if html.type != pa.large_binary() or html.null_count or not (
                isinstance(kinds, np.ndarray) and kinds.dtype == np.int8
                and kinds.flags.c_contiguous and kinds.flags.writeable) or not (
                len(kinds) == len(min_len) == len(max_link_pct) == n):
            raise ValueError("extract_batch: a large_binary column without nulls, a writable "
                             "int8 kind array and one kind and threshold pair per row")
        ffi, lib = self._ffi, self._lib
        _, offsets, data = html.buffers()
        res = BatchResult(n)
        out = ffi.new("xb_text *")
        buf = ffi.from_buffer
        data = ffi.cast("char *", data.address) if data is not None and data.size else ffi.new("char[1]")
        rc = lib.xb_extract(
            ffi.cast("int64_t *", offsets.address) + html.offset, data,
            n, buf("int8_t[]", kinds), buf("int64_t[]", min_len), buf("int64_t[]", max_link_pct),
            buf("int64_t[]", res.text_off), buf("int64_t[]", res.title_off),
            buf("int32_t[]", res.n_blocks), buf("int8_t[]", res.status),
            buf("uint8_t[]", res.is_blank), buf("uint8_t[]", res.flagged),
            buf("char[]", res.sha), out)
        if rc != 0:
            raise MemoryError("native: out of memory")
        res.text = self._strings(res.text_off, out.text, out.text_len)
        res.title = self._strings(res.title_off, out.title, out.title_len)
        return res

    def _strings(self, offsets: np.ndarray, ptr, size: int) -> pa.LargeStringArray:
        """Strings at ``offsets`` into the kernel's malloc'd ``ptr``, which
        is freed when Arrow lets go of it."""
        owner = self._ffi.gc(ptr, self._lib.xb_free)
        data = pa.foreign_buffer(int(self._ffi.cast("uintptr_t", ptr)), size, base=owner)
        return pa.Array.from_buffers(pa.large_string(), len(offsets) - 1,
                                     [None, pa.py_buffer(offsets), data])

    def sha256_hex(self, data: bytes, *, portable: bool = False) -> str:
        """``hashlib.sha256(data).hexdigest()``, computed by the kernel with
        the block function it chose for this CPU, or with the portable
        one."""
        hex_ = self._ffi.new("char[64]")
        digest = self._lib.xb_sha256_hex_portable if portable else self._lib.xb_sha256_hex
        digest(data, len(data), hex_)
        return self._ffi.unpack(hex_, 64).decode("ascii")

    @staticmethod
    def accepts(min_len: int, max_link_pct: int) -> bool:
        """Thresholds the C int64 parameters can carry."""
        return -_I64 <= min_len < _I64 and -_I64 <= max_link_pct < _I64


def library_path(directory: str, cc: str) -> str:
    return os.path.join(directory, f"native-{cache_key(cc)[:32]}.so")


def open_kernel(directory: str) -> NativeKernel:
    """Load the cached library from ``directory``, building it when it is
    missing, cut short or cannot be loaded."""
    cc = compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH")
    path = library_path(directory, cc)
    if _intact(path):
        try:
            return NativeKernel(path)
        except OSError:
            log.warning("native: rebuilding unloadable %s", path)
    os.makedirs(directory, exist_ok=True)
    build(path, cc)
    return NativeKernel(path)


@functools.cache
def load() -> NativeKernel | None:
    """The host's kernels, or ``None`` (with one warning) when they cannot
    be built or loaded."""
    try:
        return open_kernel(cache_dir())
    except Exception as exc:  # extraction must not fail because of the build
        detail = getattr(exc, "stderr", None) or exc
        log.warning("native: kernels unavailable, using the oracles: %s", detail)
        return None
