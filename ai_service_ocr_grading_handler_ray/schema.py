"""Declared Arrow schemas for the engine's tables.

The reference is duck-typed (guarded dict access everywhere, e.g.
``utils.py:16-21`` ``field_exist_or_not``); this engine replaces that with
declared, nullable Arrow schemas (SURVEY.md §1.4).  The primary input table
is the BASELINE.json ``input_hint`` page table.
"""

from __future__ import annotations

import pyarrow as pa

# --- primary input: Common-Crawl-style page table --------------------------
PAGES_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("html", pa.binary()),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
    ]
)

# --- flagship output: extraction result table -------------------------------
# payload_kind in {"html", "pdf", "image", "blank", "error"}
# status in {"ok", "blank", "error"}
EXTRACTED_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("lang", pa.string()),
        pa.field("payload_kind", pa.string()),
        pa.field("title", pa.string()),
        pa.field("extracted_text", pa.large_string()),
        pa.field("content_sha256", pa.string()),
        pa.field("n_blocks", pa.int32()),
        pa.field("is_blank", pa.bool_()),
        pa.field("status", pa.string()),
    ]
)

# --- grading-request table (reference reqobj shape, FIXTURES.md §2) ---------
RUBRIC_TYPE = pa.list_(
    pa.struct(
        [
            pa.field("rubric_id", pa.string()),
            pa.field("score", pa.float64()),
            pa.field("criteria", pa.string()),
        ]
    )
)

GRADING_REQUESTS_SCHEMA = pa.schema(
    [
        pa.field("model_name", pa.string()),
        pa.field("grading_prompt", pa.string()),
        pa.field("subject", pa.string()),
        pa.field("scan_id", pa.string()),
        pa.field("student_id", pa.string()),
        pa.field("que_id", pa.string()),
        pa.field("question", pa.string()),
        pa.field("student_answer", pa.string()),
        pa.field("student_answer_payload", pa.binary()),
        pa.field("max_score", pa.float64()),
        pa.field("rubrics", RUBRIC_TYPE),
        pa.field("correct_answer", pa.string()),
    ]
)

RUBRIC_RESPONSE_TYPE = pa.list_(
    pa.struct(
        [
            pa.field("rubric_id", pa.string()),
            pa.field("rubric_wise_score", pa.float64()),
            pa.field("rubric_wise_max_score", pa.float64()),
            pa.field("criteria", pa.string()),
        ]
    )
)
