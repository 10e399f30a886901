"""/generate grading pipeline — the reference's flagship dataflow
(SURVEY.md §3.1) as one streaming Ray Data pipeline:

    requests
      → map_batches(route)                  # gradingPrompt → alias → engine class
      → map_batches(grade_extract_task)     # Stage A: inline answer, else the payload's text
      → map_batches(score_batch)            # Stage B: rubric scores + flags + sink shape

Reference per-record boundary crossings (HTTPS per model call,
service_handler.py:57 sequential loop) become per-batch in-process calls:
Stage A is extraction's own ``extract_batch_task``, one native call per
batch, with per-row Python only for the rows it flags (image answers:
OCR).  The sink record shape (utils.py:114-125) is the output schema.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..config import ENGINE_ALIASES, GRADING_PROMPT_TO_ALIAS
from ..functions.textfns import MODEL_NOT_FOUND
from ..stages.extract import extract_batch_task
from ..stages.score import score_batch
from ..synth import docs_to_grading_requests


def route_requests(batch: pa.Table) -> pa.Table:
    """gradingPrompt → alias (gen_ai_calling.py:140-159) → engine
    descriptor (J2 broadcast lookup, gen_ai_calling.py:164-167).  Closure
    captures the tiny registry — loaded once, not per record."""
    prompts = batch["grading_prompt"].to_pylist()
    aliases = [GRADING_PROMPT_TO_ALIAS.get(p, "gpt-4-latest") for p in prompts]
    classes = []
    for a in aliases:
        desc = ENGINE_ALIASES.get(a, MODEL_NOT_FOUND)
        classes.append(desc["engine_class"] if isinstance(desc, dict) else "unknown")
    return batch.append_column(
        "engine_alias", pa.array(aliases, type=pa.string())
    ).append_column("engine_class", pa.array(classes, type=pa.string()))


def grade_extract_task(batch: pa.Table) -> pa.Table:
    """Stage A over grading requests: the inline answer where there is one
    (text-only classes, gen_ai_calling.py:174-182), else the text Stage A
    extracts from the binary payload.  The payloads run through
    ``extract_batch_task`` as a pages table (no url, timestamp or lang), so
    one native call sniffs and extracts the whole batch (SURVEY.md T1)."""
    n = len(batch)
    pages = pa.table({
        "url": pa.nulls(n, pa.string()),
        "warc_ts": pa.nulls(n, pa.timestamp("us")),
        "html": batch["student_answer_payload"],
    })
    extracted = extract_batch_task(pages)["extracted_text"]
    inline = batch["student_answer"].cast(pa.large_string())
    has_inline = pc.fill_null(pc.greater(pc.binary_length(inline), 0), False)
    return batch.append_column("extracted_answer", pc.if_else(has_inline, inline, extracted))


def build_grading_requests(sf_dir: str) -> rd.Dataset:
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    return ds.map_batches(docs_to_grading_requests, batch_format="pyarrow")


def grade_requests(requests: rd.Dataset, *, batch_size: int = 256) -> rd.Dataset:
    """Full Stage A + Stage B over a grading-request dataset (lazy).
    Stage A runs as stateless tasks with extraction's per-worker engine."""
    routed = requests.map_batches(route_requests, batch_format="pyarrow")
    extracted = routed.map_batches(
        grade_extract_task,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )
    return extracted.map_batches(score_batch, batch_format="pyarrow")


def grading_pipeline(sf_dir: str, **kwargs) -> rd.Dataset:
    return grade_requests(build_grading_requests(sf_dir), **kwargs)
