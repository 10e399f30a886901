"""Stage-A extraction: one `map_batches` actor class covering all payload
kinds by mask-dispatch (SURVEY.md M2 replacement for the per-record switch
at ``gen_ai_calling.py:278-415``).

Rows are grouped by ``payload_kind`` inside the batch; each kind's
extractor runs over its sub-batch; results are scattered back into
document order.  Parser state (OCR engine, per-lang policies) is warmed
once per actor in ``__init__``.  Per-row failures follow the poison-pill
policy (SURVEY.md §4): the row gets ``status='error'`` and empty text
instead of failing the block — mirroring the reference's
degraded-response records (``llm_calling.py:111-112,173-174``).

Per-lang extraction policies mirror the reference's (task, subjectName)
prompt lookup (J3, ``utils.py:23-29`` + subject_wise_prompt.json): the
policy table broadcasts by closure, resolved once per distinct lang per
batch — never re-read per record (the reference re-reads its JSON table
per record at gen_ai_calling.py:200-201).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..config import DEFAULT_POLICY, get_policy
from ..payloads import decode_pdf_glyphs
from .html_extract import extract_html_fused, extract_html_with_title
from .ocr import OcrEngine
from .pdf_layout import parse_pdf_layout


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ExtractActor:
    """Callable class for ``map_batches(ExtractActor, concurrency=N, ...)``.

    Input batch columns: url, warc_ts, html(binary), text, lang,
    payload_kind.  Output: EXTRACTED_SCHEMA (schema.py).

    ``min_len`` / ``max_link_pct`` override the per-lang policy table when
    given explicitly (policy=None default uses config.EXTRACTION_POLICIES).
    """

    def __init__(
        self,
        min_len: int | None = None,
        max_link_pct: int | None = None,
        task: str = "extract",
        html_engine: str = "fused",
        ocr_engine_factory: type[OcrEngine] | None = None,
    ) -> None:
        # warm engine state, once per actor.  The factory hook lets a real
        # engine (tesseract handle, vision model) — or a test fake — be
        # injected without changing the actor-pool plumbing.
        self.ocr = (ocr_engine_factory or OcrEngine)()
        self.task = task
        self._override = (min_len, max_link_pct)
        self._policy_cache: dict[str, tuple[int, int]] = {}
        # "fused" (default) = the production engine: the native C kernel
        # (html_native.c, built once per host) with its Python body as
        # fallback.  "stdlib" = html.parser tokenizer, the independent
        # oracle.  Same output on the corpus.
        self._extract_html = {
            "fused": extract_html_fused,
            "stdlib": extract_html_with_title,
        }[html_engine]

    def _params_for(self, lang: str) -> tuple[int, int]:
        if self._override != (None, None):
            p = DEFAULT_POLICY
            return (
                self._override[0] if self._override[0] is not None else p["min_len"],
                self._override[1] if self._override[1] is not None else p["max_link_pct"],
            )
        key = (lang or "").lower()
        if key not in self._policy_cache:
            p = get_policy(self.task, key)
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
                text, n = parse_pdf_layout(decode_pdf_glyphs(payload))
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
        return pa.table(
            {
                "url": batch["url"],
                "warc_ts": batch["warc_ts"],
                "lang": lang_col,
                "payload_kind": batch["payload_kind"],
                "title": pa.array(titles, type=pa.string()),
                "extracted_text": pa.array(texts, type=pa.large_string()),
                "content_sha256": pa.array(digests, type=pa.string()),
                "n_blocks": pa.array(blocks),
                "is_blank": pa.array(is_blank),
                "status": pa.array(statuses, type=pa.string()),
            }
        )


# --- task-based twin with per-worker engine cache ---------------------------
#
# ExtractActor state is cheap (regex + policy table; no model weights), so
# the flagship can run as STATELESS TASKS with the engine cached per Ray
# worker process (workers persist across tasks → warm after first batch,
# zero actor-pool spin-up, fully elastic scheduling).  Heavy-state stages
# (real OCR models) should stay actor pools; this path exists because the
# measured actor-pool startup (~2-3 s for cpus-2 actors) dominates short
# jobs and costs scaling efficiency.

_TASK_ENGINE: dict[tuple, ExtractActor] = {}


def extract_batch_task(
    batch: pa.Table,
    min_len: int | None = None,
    max_link_pct: int | None = None,
    task: str = "extract",
) -> pa.Table:
    key = (min_len, max_link_pct, task)
    eng = _TASK_ENGINE.get(key)
    if eng is None:
        eng = _TASK_ENGINE[key] = ExtractActor(min_len, max_link_pct, task)
    return eng(batch)
