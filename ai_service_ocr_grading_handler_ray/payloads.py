"""Synthetic binary payload formats and their deterministic codecs.

The container has no image/PDF libraries (no PIL/cv2/pdfminer/tesseract), so
the engine defines small deterministic on-disk formats that *shape-match*
real payloads (correct magic bytes, binary body, non-trivial layout to
parse) while keeping every byte a pure function of the page text.  The
Ray-side plumbing (binary columns, actor signatures, batch sizes, schemas)
is identical to what real decoders would need; swapping in pdfminer /
tesseract is a per-actor ``__init__`` change.

Reference analogues: image crop fetch + base64 at ``utils.py:164-165``,
cv2 decode at ``llm_number_prediction.py:39-55``.
"""

from __future__ import annotations

import json
import struct
import zlib

# Real-world magic bytes (what classify.py sniffs).
PDF_MAGIC = b"%PDF-"
PNG_MAGIC = b"\x89PNG\r\n\x1a\n"
WEBP_RIFF = b"RIFF"
WEBP_TAG = b"WEBP"

# Synthetic-format markers placed after the real magic.
GLYPH_MARKER = b"%GRAFT-GLYPHS\n"
OCR_MARKER = b"GRAFTOCR"


# --- synthetic "PDF": magic + JSON glyph boxes ------------------------------

def encode_pdf_glyphs(glyphs: list[tuple[int, int, int, int, str]]) -> bytes:
    """Serialize glyph boxes ``(x, y, w, h, ch)`` into a %PDF-magic payload."""
    body = json.dumps(glyphs, separators=(",", ":"), ensure_ascii=False)
    return PDF_MAGIC + b"1.4\n" + GLYPH_MARKER + body.encode("utf-8")


def _glyph_body(payload: bytes) -> int:
    """Offset of the glyph JSON in a synthetic-PDF payload.  Raises
    ``ValueError`` on a real (non-synthetic) PDF — the caller turns that
    into a ``status='error'`` row (poison-pill policy, SURVEY.md §4)."""
    idx = payload.find(GLYPH_MARKER)
    if not payload.startswith(PDF_MAGIC) or idx < 0:
        raise ValueError("not a synthetic glyph PDF")
    return idx + len(GLYPH_MARKER)


def decode_pdf_glyphs(payload: bytes) -> list[tuple[int, int, int, int, str]]:
    """Parse a synthetic-PDF payload back into glyph boxes (``json.loads``).

    The Python decoder: ``pdf_layout.parse_pdf_layout`` of its output is the
    oracle of the native PDF kernel (``stages/pdf_native.c``, which decodes
    and lays out a page inside the Stage-A batch call), and the path of
    every PDF row that kernel declines (anything but
    ``[[int,int,int,int,"str"],…]`` with ints in [0, 2^30), valid UTF-8 and
    no lone surrogate) or cannot run on.  A glyph text holding a lone
    surrogate raises ``ValueError``: it has no UTF-8 form to digest.
    """
    text = payload[_glyph_body(payload):].decode("utf-8")
    glyphs = [tuple(g) for g in json.loads(text)]
    if "\\u" in text:  # only a \u escape decodes to a lone surrogate
        for g in glyphs:
            if len(g) == 5 and isinstance(g[4], str):
                g[4].encode("utf-8")  # UnicodeEncodeError is a ValueError
    return glyphs


def layout_text_as_glyphs(
    text: str,
    columns: int = 2,
    col_chars: int = 36,
    char_w: int = 6,
    char_h: int = 10,
    line_gap: int = 2,
    col_gap: int = 40,
    lines_per_col: int = 40,
) -> list[tuple[int, int, int, int, str]]:
    """Lay text out as per-character glyph boxes in N newspaper columns.

    Reading order is column-major (finish column 0 top-to-bottom, then
    column 1 …) so a naive y-sort scrambles the text — the XY-cut parser
    must find the vertical column gap first.  Integer coordinates only
    (determinism, SURVEY.md §7.4).
    """
    words = text.split()
    lines: list[str] = []
    cur = ""
    for w in words:
        if cur and len(cur) + 1 + len(w) > col_chars:
            lines.append(cur)
            cur = w
        else:
            cur = f"{cur} {w}" if cur else w
    if cur:
        lines.append(cur)

    glyphs: list[tuple[int, int, int, int, str]] = []
    col_w = col_chars * char_w
    for i, line in enumerate(lines):
        col = (i // lines_per_col) % columns
        row = (i % lines_per_col) if columns > 1 else i
        # with >1 columns, overflow past all columns wraps to a new "page band"
        band = i // (lines_per_col * columns) if columns > 1 else 0
        x0 = col * (col_w + col_gap)
        y0 = (band * (lines_per_col + 4) + row) * (char_h + line_gap)
        for j, ch in enumerate(line):
            if ch == " ":
                continue
            glyphs.append((x0 + j * char_w, y0, char_w, char_h, ch))
        # represent the space implicitly via x gaps (parser re-inserts them)
    return glyphs


# --- synthetic "image": PNG magic + compressed text -------------------------

def encode_image_text(text: str) -> bytes:
    """Pack text into a PNG-magic payload the OCR actor can 'recognize'."""
    comp = zlib.compress(text.encode("utf-8"), 6)
    return PNG_MAGIC + OCR_MARKER + struct.pack(">I", len(comp)) + comp


def decode_image_text(payload: bytes) -> str:
    """Deterministic stand-in for Tesseract: recover text from a synthetic
    image payload.  Raises ``ValueError`` for real PNG/WEBP bytes."""
    if payload.startswith(PNG_MAGIC) and payload[8:16] == OCR_MARKER:
        (n,) = struct.unpack(">I", payload[16:20])
        return zlib.decompress(payload[20 : 20 + n]).decode("utf-8")
    raise ValueError("not a synthetic OCR image")
