"""The benchmark's traced run (perfbench/tracing.py) patches engine names by
attribute: ``classify_payload_kind`` in pipelines.extract,
``extract_batch_task`` / ``_TASK_ENGINE`` and the kernels in stages.extract,
and ``OcrEngine.recognize``.  Renaming any of them must fail here, not only
in the traced benchmark."""

import pyarrow.parquet as pq

from ai_service_ocr_grading_handler_ray.pipelines import extract as pipeline
from ai_service_ocr_grading_handler_ray.stages import extract as stage
from ai_service_ocr_grading_handler_ray.synth import docs_to_pages
from perfbench import tracing


def test_traced_hooks_count_every_row(tmp_path, monkeypatch, sf_dir):
    monkeypatch.setenv(tracing.TRACE_DIR_ENV, str(tmp_path))
    pages = docs_to_pages(pq.read_table(f"{sf_dir}/documents.parquet").slice(0, 60))

    with tracing.installed(tracing.StateProbe()):
        classified = pipeline.classify_payload_kind(pages)
        out = stage.extract_batch_task(classified)
    got = tracing.collect(str(tmp_path))

    kinds = classified["payload_kind"].to_pylist()
    assert got["classify.rows"] == pages.num_rows == 60
    assert got["extract.rows"] == out.num_rows == 60
    assert got["html_extract.rows"] == kinds.count("html") > 0
    assert got["pdf_layout.rows"] == kinds.count("pdf") > 0
    assert got["ocr.rows"] == kinds.count("image") > 0
