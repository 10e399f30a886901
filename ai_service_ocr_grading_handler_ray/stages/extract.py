"""Stage-A extraction: one `map_batches` stage covering all payload kinds
(SURVEY.md M2 replacement for the per-record switch at
``gen_ai_calling.py:278-415``).

Stage A is ONE ``map_batches`` (``extract_batch_task``), fused with the
``ReadPages`` read and the write into one Ray Data operator on a grouped
read (``pipelines.extract.extract_pages``).  A batch without a
``payload_kind`` column has its kinds sniffed inside the same call; a
batch that carries one keeps it.

Where the native kernels are built (``native.load()``), the production
engine makes ONE C call per batch (``extract_native.c``, through
``NativeKernel.extract_batch``).  It reads the ``html`` column's Arrow
buffers, sniffs each row's kind when the batch has none (as
``classify.classify_payload_kind`` does) and extracts every HTML and PDF
row, with each row's status, ``is_blank`` and SHA-256 digest; its text and
title buffers become the output columns without a per-row Python object.
The rows it flags run through ``ExtractActor._extract_one`` and
``sha256_hex`` instead: image rows (OCR), HTML that is not valid UTF-8
(Python's ``errors="replace"`` decode is the one definition of its
repair), and PDFs without the glyph marker or that the PDF kernel
declines (the Python decoder and XY-cut).  The oracle engine
(``html_engine="stdlib"``), and the production one on a host without a
compiler, sniff with ``classify_payload_kind`` and run every row that
way; the two differ only in the HTML engine.  The output
columns keep the batch's row order.  Parser state (OCR engine, per-lang
policies) is built once per engine in ``__init__``.  Per-row failures follow the poison-pill
policy (SURVEY.md §4): the row gets ``status='error'`` and empty text
instead of failing the block — mirroring the reference's
degraded-response records (``llm_calling.py:111-112,173-174``).  A
``MemoryError`` is not the row's fault: it propagates and fails the task,
and so the execution (``resumable_extract`` then has committed only
partitions whose rows were all written; a rerun extracts the rest).

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
import pyarrow.compute as pc

from ..config import get_policy
from ..payloads import decode_pdf_glyphs
from ..schema import EXTRACTED_SCHEMA
from . import native
from .classify import KINDS, classify_payload_kind, single_array
from .html_extract import extract_html_fused, extract_html_with_title
from .ocr import OcrEngine
from .pdf_layout import parse_pdf_layout

_KINDS = pa.array(KINDS)
_BATCH_STATUSES = pa.array(native.BATCH_STATUSES)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ExtractActor:
    """Callable extraction engine: ``extract_batch_task`` caches one per
    worker process; ``map_batches(ExtractActor, concurrency=N)`` hosts it
    in an actor pool when the OCR engine carries heavy state.

    Input batch columns: url, warc_ts, html(binary), text, lang, and
    optionally payload_kind (sniffed here when absent) and path.  Output:
    EXTRACTED_SCHEMA (schema.py), then ``path`` when the input has it.  HTML thresholds
    come from the per-lang policy table (config.EXTRACTION_POLICIES).

    ``html_engine`` picks the engines for HTML and PDF rows together:
    ``"fused"`` runs the production kernels (the native batch call; per
    row where it cannot be built), ``"stdlib"`` the oracles per row
    (``extract_html_with_title``; ``decode_pdf_glyphs`` + the Python
    XY-cut; ``hashlib``).  Per row, the PDF path is the Python one for
    both.  The benchmark's row check (``perfbench/check.py``) digests
    every row with the ``"stdlib"`` twin, so it compares the native
    kernels and the C SHA-256 with their oracles on every HTML and PDF
    row.  Per-row PDF rows go through this module's ``decode_pdf_glyphs``
    and ``parse_pdf_layout`` names, which the traced benchmark wraps; the
    batch call goes around them.
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
        self._fused = html_engine == "fused"

    def _params_for(self, lang: str) -> tuple[int, int]:
        key = (lang or "").lower()
        if key not in self._policy_cache:
            p = get_policy(key)
            self._policy_cache[key] = (p["min_len"], p["max_link_pct"])
        return self._policy_cache[key]

    def _extract_one(self, kind: str, payload: bytes, lang: str = "") -> tuple[str, int, str, str]:
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
        except MemoryError:
            raise  # a resource failure fails the task, not the row
        except Exception:
            return "", 0, "error", ""

    def __call__(self, batch: pa.Table) -> pa.Table:
        kernel = native.load() if self._fused else None
        columns = self._extract_native(kernel, batch) if kernel else self._extract_rows(batch)
        # real crawls (WARC sources) carry no page-level lang column —
        # pass nulls through; downstream re-derives from extracted text
        lang_col = (
            batch["lang"]
            if "lang" in batch.column_names
            else pa.nulls(len(batch), type=pa.string())
        )
        # from_arrays casts each column to its declared type (safe casts)
        out = pa.Table.from_arrays(
            [batch["url"], batch["warc_ts"], lang_col, *columns],
            schema=EXTRACTED_SCHEMA,
        )
        # the input file (read_pages(include_paths=True)) rides along so
        # resumable extraction can route each row to its partition
        if "path" in batch.column_names:
            out = out.append_column("path", batch["path"])
        return out

    def _extract_rows(self, batch: pa.Table) -> list[pa.Array]:
        """payload_kind (``classify_payload_kind``'s when the batch has
        none), title, extracted_text, content_sha256, n_blocks, is_blank
        and status, one ``_extract_one`` call and one digest per row."""
        if "payload_kind" not in batch.column_names:
            batch = classify_payload_kind(batch)
        kinds = batch["payload_kind"].to_pylist()
        langs = (
            batch["lang"].to_pylist()
            if "lang" in batch.column_names
            else [""] * len(batch)
        )
        # one vectorized column conversion beats n per-row scalar
        # .as_py() round-trips (each allocates an Arrow scalar wrapper)
        payloads = batch["html"].to_pylist()
        rows = [
            self._extract_one(kind, payload or b"", lang or "")
            for kind, payload, lang in zip(kinds, payloads, langs)
        ]
        texts, blocks, statuses, titles = (list(c) for c in zip(*rows)) if rows else ([],) * 4
        return [
            batch["payload_kind"],
            pa.array(titles, pa.string()),
            pa.array(texts, pa.large_string()),
            pa.array([sha256_hex(t) for t in texts], pa.string()),
            pa.array(blocks, pa.int32()),
            pa.array([not t.strip() for t in texts], pa.bool_()),
            pa.array(statuses, pa.string()),
        ]

    def _extract_native(self, kernel: native.NativeKernel, batch: pa.Table) -> list[pa.Array]:
        """The same columns from one ``kernel.extract_batch`` call, which
        sniffs the kinds when the batch has none; the rows it flags
        (images, HTML that is not valid UTF-8, PDFs it declines) go through
        ``_extract_one``."""
        n = len(batch)
        html = single_array(batch["html"].cast(pa.large_binary()))
        if html.null_count:
            html = html.fill_null(b"")
        if "payload_kind" in batch.column_names:
            kind_col = batch["payload_kind"]
            kinds = pc.index_in(kind_col, value_set=_KINDS).fill_null(KINDS.index("error"))
            kinds = np.array(kinds.to_numpy(), np.int8)
        else:
            kind_col, kinds = None, np.full(n, -1, np.int8)  # the kernel sniffs
        res = kernel.extract_batch(html, kinds, *self._thresholds(batch))
        if kind_col is None:
            kind_col = _KINDS.take(pa.array(kinds))
        text, title = res.text, res.title

        rows = np.flatnonzero(res.flagged)
        if len(rows):
            langs = [None] * len(rows)
            if "lang" in batch.column_names:
                langs = batch["lang"].take(rows).to_pylist()
            done = [
                self._extract_one(KINDS[kind], payload, lang or "")
                for kind, payload, lang in zip(kinds[rows], html.take(rows).to_pylist(), langs)
            ]
            texts, blocks, statuses, titles = zip(*done)
            res.n_blocks[rows] = blocks
            res.status[rows] = [native.BATCH_STATUSES.index(s) for s in statuses]
            res.is_blank[rows] = [not t.strip() for t in texts]
            res.sha[rows] = np.frombuffer(
                "".join(sha256_hex(t) for t in texts).encode("ascii"), np.uint8
            ).reshape(-1, 64)
            flagged = pa.array(res.flagged)
            text = pc.replace_with_mask(text, flagged, pa.array(texts, text.type))
            title = pc.replace_with_mask(title, flagged, pa.array(titles, title.type))

        offsets = np.arange(0, 64 * n + 1, 64, dtype=np.int32)
        digests = pa.Array.from_buffers(
            pa.string(), n, [None, pa.py_buffer(offsets), pa.py_buffer(res.sha)]
        )
        return [
            kind_col,
            title,
            text,
            digests,
            pa.array(res.n_blocks),
            pa.array(res.is_blank),
            _BATCH_STATUSES.take(pa.array(res.status)),
        ]

    def _thresholds(self, batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """Per-row ``(min_len, max_link_pct)``, one policy lookup per
        distinct lang."""
        langs, index = [""], np.zeros(len(batch), np.intp)  # index 0: no lang
        if "lang" in batch.column_names:
            encoded = single_array(batch["lang"]).dictionary_encode()
            langs += encoded.dictionary.to_pylist()
            index = encoded.indices.fill_null(-1).to_numpy().astype(np.intp) + 1
        table = np.array([self._params_for(lang) for lang in langs], np.int64)[index]
        return table[:, 0], table[:, 1]


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
