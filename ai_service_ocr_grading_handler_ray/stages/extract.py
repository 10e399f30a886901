"""Stage-A extraction: one `map_batches` stage covering all payload kinds
(SURVEY.md M2 replacement for the per-record switch at
``gen_ai_calling.py:278-415``).

Each row of a batch goes through ``ExtractActor._extract_one``, which picks
the extractor by the row's ``payload_kind``; the output columns keep the
batch's row order.  Parser state (OCR engine, per-lang policies) is built
once per engine in ``__init__``.  Per-row failures follow the poison-pill
policy (SURVEY.md §4): the row gets ``status='error'`` and empty text
instead of failing the block — mirroring the reference's
degraded-response records (``llm_calling.py:111-112,173-174``).

Per-lang extraction policies mirror the reference's (task, subjectName)
prompt lookup (J3, ``utils.py:23-29`` + subject_wise_prompt.json): the
policy table broadcasts by closure, resolved once per distinct lang per
engine — never re-read per record (the reference re-reads its JSON table
per record at gen_ai_calling.py:200-201).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..config import get_policy
from ..payloads import decode_pdf_glyphs, decode_pdf_glyphs_py
from ..schema import EXTRACTED_SCHEMA
from .html_extract import extract_html_fused, extract_html_with_title
from .ocr import OcrEngine
from .pdf_layout import parse_pdf_layout


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ExtractActor:
    """Callable extraction engine: ``extract_batch_task`` caches one per
    worker process; ``map_batches(ExtractActor, concurrency=N)`` hosts it
    in an actor pool when the OCR engine carries heavy state.

    Input batch columns: url, warc_ts, html(binary), text, lang,
    payload_kind, and optionally path.  Output: EXTRACTED_SCHEMA
    (schema.py), then ``path`` when the input has it.  HTML thresholds
    come from the per-lang policy table (config.EXTRACTION_POLICIES).

    ``html_engine`` picks the engines for HTML and PDF rows together:
    ``"fused"`` runs the production kernels (native C, Python fallback),
    ``"stdlib"`` the oracles (``html.parser``; ``decode_pdf_glyphs_py`` +
    the Python XY-cut).  The benchmark's row check (``perfbench/check.py``)
    digests every row with the ``"stdlib"`` twin, so it compares the
    native kernels with their oracles on every HTML and PDF row.  PDF rows
    go through this module's ``decode_pdf_glyphs`` and
    ``parse_pdf_layout`` names, which the traced benchmark wraps.
    """

    def __init__(
        self,
        html_engine: str = "fused",
        ocr_engine_factory: type[OcrEngine] | None = None,
    ) -> None:
        # warm engine state, once per engine.  The factory hook lets a real
        # engine (tesseract handle, vision model) — or a test fake — be
        # injected without changing the extraction plumbing.
        self.ocr = (ocr_engine_factory or OcrEngine)()
        self._policy_cache: dict[str, tuple[int, int]] = {}
        self._extract_html = {
            "fused": extract_html_fused,
            "stdlib": extract_html_with_title,
        }[html_engine]
        self._pdf_oracle = html_engine == "stdlib"

    def _params_for(self, lang: str) -> tuple[int, int]:
        key = (lang or "").lower()
        if key not in self._policy_cache:
            p = get_policy(key)
            self._policy_cache[key] = (p["min_len"], p["max_link_pct"])
        return self._policy_cache[key]

    def _extract_one(
        self, kind: str, payload: bytes, lang: str = ""
    ) -> tuple[str, int, str, str]:
        """→ (extracted_text, n_blocks, status, title)."""
        if kind == "blank":
            return "", 0, "blank", ""
        try:
            if kind == "html":
                min_len, max_link_pct = self._params_for(lang)
                text, n, title = self._extract_html(payload, min_len, max_link_pct)
                return text, n, ("ok" if text else "blank"), title
            if kind == "pdf":
                decode = decode_pdf_glyphs_py if self._pdf_oracle else decode_pdf_glyphs
                text, n = parse_pdf_layout(decode(payload))
                return text, n, ("ok" if text else "blank"), ""
            if kind == "image":
                text = self.ocr.recognize(payload)
                return text, (1 if text else 0), ("ok" if text else "blank"), ""
            return "", 0, "error", ""
        except Exception:
            return "", 0, "error", ""

    def __call__(self, batch: pa.Table) -> pa.Table:
        kinds = batch["payload_kind"].to_pylist()
        langs = (
            batch["lang"].to_pylist()
            if "lang" in batch.column_names
            else [""] * len(batch)
        )
        # one vectorized column conversion beats n per-row scalar
        # .as_py() round-trips (each allocates an Arrow scalar wrapper)
        payloads = batch["html"].to_pylist()
        n = len(batch)
        texts: list[str] = [""] * n
        titles: list[str] = [""] * n
        blocks = np.zeros(n, dtype=np.int32)
        statuses: list[str] = ["error"] * n
        digests: list[str] = [""] * n
        for i in range(n):
            payload = payloads[i] or b""
            text, nb, st, title = self._extract_one(kinds[i], payload, langs[i] or "")
            texts[i] = text
            titles[i] = title
            blocks[i] = nb
            statuses[i] = st
            digests[i] = sha256_hex(text)
        is_blank = np.array([not t.strip() for t in texts], dtype=bool)
        # real crawls (WARC sources) carry no page-level lang column —
        # pass nulls through; downstream re-derives from extracted text
        lang_col = (
            batch["lang"]
            if "lang" in batch.column_names
            else pa.nulls(n, type=pa.string())
        )
        # from_arrays casts each column to its declared type (safe casts)
        out = pa.Table.from_arrays(
            [
                batch["url"],
                batch["warc_ts"],
                lang_col,
                batch["payload_kind"],
                pa.array(titles),
                pa.array(texts),
                pa.array(digests),
                pa.array(blocks),
                pa.array(is_blank),
                pa.array(statuses),
            ],
            schema=EXTRACTED_SCHEMA,
        )
        # the input file (read_pages(include_paths=True)) rides along so
        # resumable extraction can route each row to its partition
        if "path" in batch.column_names:
            out = out.append_column("path", batch["path"])
        return out


# --- stateless tasks with a per-worker engine cache -------------------------
#
# The engine's state is cheap (policy table, OCR stub; no model weights), so
# Stage A runs as STATELESS TASKS with the engine cached per Ray worker
# process (workers persist across tasks → warm after the first batch, zero
# actor-pool spin-up, fully elastic scheduling, fuses with read/write).

_TASK_ENGINE: dict[str, ExtractActor] = {}


def extract_batch_task(batch: pa.Table) -> pa.Table:
    eng = _TASK_ENGINE.get("fused")
    if eng is None:
        eng = _TASK_ENGINE["fused"] = ExtractActor()
    return eng(batch)
