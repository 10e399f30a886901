"""Schema gate, manifest metrics rollup."""

import pyarrow as pa
import pytest
import ray.data as rd

from ai_service_ocr_grading_handler_ray.schema import PAGES_SCHEMA
from ai_service_ocr_grading_handler_ray.sources.readers import validate_schema
from ai_service_ocr_grading_handler_ray.state.manifest import metrics_rollup


def test_validate_schema_pass_and_diffs(sf_dir):
    from ai_service_ocr_grading_handler_ray.pipelines.extract import build_pages_dataset

    pages = build_pages_dataset(sf_dir)
    assert validate_schema(pages, PAGES_SCHEMA) is pages

    bad = rd.from_arrow(pa.table({"url": ["x"], "html": [b"y"]}))
    with pytest.raises(ValueError, match="missing=\\['lang', 'text', 'warc_ts'\\]"):
        validate_schema(bad, PAGES_SCHEMA)

    wrong = rd.from_arrow(
        pa.table(
            {
                "url": ["x"],
                "warc_ts": [1],  # int, not timestamp
                "html": [b"y"],
                "text": ["t"],
                "lang": ["en"],
            }
        )
    )
    with pytest.raises(ValueError, match="wrong_type=\\['warc_ts'\\]"):
        validate_schema(wrong, PAGES_SCHEMA)


def test_metrics_rollup(tmp_path, sf_dir):
    import pyarrow.parquet as pq

    from ai_service_ocr_grading_handler_ray.state.manifest import resumable_extract
    from ai_service_ocr_grading_handler_ray.synth import docs_to_pages

    docs = pq.read_table(f"{sf_dir}/documents.parquet")
    pages = docs_to_pages(docs)
    src = tmp_path / "pages.parquet"
    pq.write_table(pages, str(src))
    out = str(tmp_path / "out")
    resumable_extract([str(src)], out, partition_size=1)
    roll = metrics_rollup(out)
    assert roll["partitions"] == 1
    assert roll["rows"] == 500
    assert roll["n_ok"] == 482
    assert roll["docs_per_sec"] > 0
