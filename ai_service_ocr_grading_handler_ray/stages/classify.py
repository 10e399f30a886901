"""Payload-kind router — the engine's replacement for the reference's
per-record model-class dispatch (``gen_ai_calling.py:128-415``, SURVEY.md M2).

Instead of a per-row Python switch, one vectorized call sniffs magic bytes
of the ``html`` binary column and emits a ``payload_kind`` column in
{"html", "pdf", "image", "blank", "error"}.  Stage A's batch call
(``extract.ExtractActor``) sniffs a batch that has no ``payload_kind``
itself, inside the one ``map_batches`` of ``extract_pages``; grading
calls this on its answer payloads.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..payloads import PDF_MAGIC, PNG_MAGIC, WEBP_RIFF, WEBP_TAG

KINDS = ("html", "pdf", "image", "blank", "error")
# HTML: a '<' within the first HTML_WINDOW bytes; WEBP: RIFF, then the
# WEBP tag at WEBP_TAG_AT (extract_native.c's sniff takes both from here)
HTML_WINDOW = 16
WEBP_TAG_AT = 8


def single_array(column: pa.ChunkedArray | pa.Array) -> pa.Array:
    """``column`` as one array: its only chunk as it is (``combine_chunks``
    copies even then), else the chunks combined."""
    if isinstance(column, pa.ChunkedArray):
        return column.chunk(0) if column.num_chunks == 1 else column.combine_chunks()
    return column


def classify_payload_kind(batch: pa.Table, column: str = "html") -> pa.Table:
    """Append ``payload_kind`` derived from magic-byte sniffing.

    Fully vectorized (binary_slice + equal + case-when); never decodes the
    payload body.  Zero-copy over a one-chunk Arrow binary column.  The
    production Stage A sniffs in C instead (``extract_native.c``); this is
    its oracle and the engine's sniff where the kernel is not built.
    """
    b = single_array(batch[column])

    empty = pc.equal(pc.binary_length(b), 0)
    is_pdf = pc.equal(pc.binary_slice(b, 0, len(PDF_MAGIC)), PDF_MAGIC)
    is_png = pc.equal(pc.binary_slice(b, 0, len(PNG_MAGIC)), PNG_MAGIC)
    is_webp = pc.and_(
        pc.equal(pc.binary_slice(b, 0, len(WEBP_RIFF)), WEBP_RIFF),
        pc.equal(pc.binary_slice(b, WEBP_TAG_AT, WEBP_TAG_AT + len(WEBP_TAG)), WEBP_TAG),
    )
    # a '<' near the start covers leading whitespace / doctype.
    # match_substring operates on raw binary, so invalid UTF-8 garbage
    # can't poison the kernel.
    is_html = pc.match_substring(pc.binary_slice(b, 0, HTML_WINDOW), "<")

    kind = pc.case_when(
        pc.make_struct(
            pc.fill_null(empty, True),
            pc.fill_null(is_pdf, False),
            pc.fill_null(pc.or_(is_png, is_webp), False),
            pc.fill_null(is_html, False),
        ),
        "blank",
        "pdf",
        "image",
        "html",
        "error",
    )
    return batch.append_column("payload_kind", kind)
