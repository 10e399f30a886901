"""The benchmark's traced run (perfbench/tracing.py) patches engine names by
attribute: ``classify_payload_kind`` in pipelines.extract,
``extract_batch_task`` / ``_TASK_ENGINE`` and the kernels in stages.extract,
and ``OcrEngine.recognize``.  Renaming any of them must fail here, not only
in the traced benchmark.

The native batch kernel extracts and digests HTML and PDF rows in one C
call, around the per-row kernel probes, so those count only the rows it
leaves to the per-row path (here: the images).  Without the kernel every
row goes through the probes."""

import pyarrow.parquet as pq

from ai_service_ocr_grading_handler_ray.pipelines import extract as pipeline
from ai_service_ocr_grading_handler_ray.stages import extract as stage
from ai_service_ocr_grading_handler_ray.stages import native
from ai_service_ocr_grading_handler_ray.synth import docs_to_pages
from perfbench import tracing


def _traced(pages, trace_dir):
    with tracing.installed(tracing.StateProbe()):
        classified = pipeline.classify_payload_kind(pages)
        out = stage.extract_batch_task(classified)
    return classified["payload_kind"].to_pylist(), out, tracing.collect(trace_dir)


def test_traced_hooks_count_every_row(tmp_path, monkeypatch, sf_dir):
    monkeypatch.setenv(tracing.TRACE_DIR_ENV, str(tmp_path))
    pages = docs_to_pages(pq.read_table(f"{sf_dir}/documents.parquet").slice(0, 60))
    batch_kernel = native.load() is not None

    kinds, out, got = _traced(pages, str(tmp_path))
    assert got["classify.rows"] == pages.num_rows == 60
    assert got["extract.rows"] == out.num_rows == 60
    assert got["ocr.rows"] == kinds.count("image") > 0
    per_row = 0 if batch_kernel else 1
    assert got.get("html_extract.rows", 0) == per_row * kinds.count("html")
    assert got.get("pdf_layout.rows", 0) == per_row * kinds.count("pdf")

    monkeypatch.setattr(native, "load", lambda: None)
    kinds, fallback_out, got = _traced(pages, str(tmp_path))
    assert fallback_out.equals(out)
    assert got["extract.rows"] == 60
    assert got["html_extract.rows"] == kinds.count("html") > 0
    assert got["pdf_layout.rows"] == kinds.count("pdf") > 0
    assert got["ocr.rows"] == kinds.count("image") > 0
