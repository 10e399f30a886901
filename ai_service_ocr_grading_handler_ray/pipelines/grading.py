"""/generate grading pipeline — the reference's flagship dataflow
(SURVEY.md §3.1) as one streaming Ray Data pipeline:

    requests
      → map_batches(route)                  # gradingPrompt → alias → engine class
      → map_batches(grade_extract_task)     # Stage A: answer from payload (by kind)
      → map_batches(score_batch)            # Stage B: rubric scores + flags + sink shape

Reference per-record boundary crossings (HTTPS per model call,
service_handler.py:57 sequential loop) become per-batch in-process calls;
the sink record shape (utils.py:114-125) is the output schema.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data as rd

from ..config import ENGINE_ALIASES, GRADING_PROMPT_TO_ALIAS
from ..functions.textfns import MODEL_NOT_FOUND
from ..stages.classify import classify_payload_kind
from ..stages.extract import ExtractActor
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


# per-worker cached engine (workers persist across tasks → warm after the
# first batch; same rationale as stages/extract.extract_batch_task)
_TASK_GRADER: list[ExtractActor] = []


def grade_extract_task(batch: pa.Table) -> pa.Table:
    """Stage A over grading requests: answer text from inline field or
    binary payload (html/pdf/image by magic sniff) — per-row dispatch on
    the sniffed kind (SURVEY.md T1)."""
    if not _TASK_GRADER:
        _TASK_GRADER.append(ExtractActor())
    extractor = _TASK_GRADER[0]
    sniffed = classify_payload_kind(batch, column="student_answer_payload")
    kinds = sniffed["payload_kind"].to_pylist()
    inline = batch["student_answer"].to_pylist()
    payloads = batch["student_answer_payload"]
    answers: list[str] = []
    for i, (kind, ans) in enumerate(zip(kinds, inline)):
        if ans:  # text-only classes: inline answer wins (gen_ai_calling.py:174-182)
            answers.append(ans)
            continue
        payload = payloads[i].as_py() or b""
        text, _nb, _st, _title = extractor._extract_one(kind, payload)
        answers.append(text)
    return batch.append_column(
        "extracted_answer", pa.array(answers, type=pa.large_string())
    )


def build_grading_requests(sf_dir: str) -> rd.Dataset:
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    return ds.map_batches(docs_to_grading_requests, batch_format="pyarrow")


def grade_requests(requests: rd.Dataset, *, batch_size: int = 256) -> rd.Dataset:
    """Full Stage A + Stage B over a grading-request dataset (lazy).
    Stage A runs as stateless tasks with a per-worker cached engine."""
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
