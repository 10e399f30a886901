"""Self-test of the benchmark's row checker: a faithful output has no bad
rows; an altered text, a dropped row and a spurious ``error`` row are each
caught.  Runs the extractor in-process (no Ray)."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from ai_service_ocr_grading_handler_ray.stages.classify import classify_payload_kind
from ai_service_ocr_grading_handler_ray.stages.extract import ExtractActor
from ai_service_ocr_grading_handler_ray.synth import edge_bucket
from perfbench import check, gen


@pytest.fixture(scope="module")
def case():
    pages = gen.crawl_pages(7, 300, "crawl_mix")
    output = ExtractActor()(classify_payload_kind(pages)).select(check.OUTPUT_COLUMNS)
    return check.reference(pages), output


def _ok_rows(output: pa.Table) -> list[int]:
    return [
        i
        for i, (url, st) in enumerate(
            zip(output["url"].to_pylist(), output["status"].to_pylist())
        )
        if st == "ok" and not edge_bucket(url)
    ]


def _set(output: pa.Table, column: str, i: int, value) -> pa.Table:
    values = output[column].to_pylist()
    values[i] = value
    idx = output.schema.get_field_index(column)
    return output.set_column(idx, column, pa.array(values, output.schema.field(column).type))


def test_untouched_output_has_no_bad_rows(case):
    expected, output = case
    # the fixture holds deliberately corrupt edge rows the checker must excuse
    edge_errors = pc.sum(pc.equal(output["status"], "error")).as_py()
    assert edge_errors > 0
    assert check.count_bad(expected, output) == 0


def test_altered_text_dropped_row_and_spurious_error_are_bad(case):
    expected, output = case
    a, b, c = _ok_rows(output)[:3]
    words = output["extracted_text"][a].as_py().split()
    altered = _set(output, "extracted_text", a, " ".join(words[:-1] + ["tampered"]))
    assert check.count_bad(expected, altered) == 1

    dropped = output.take([i for i in range(output.num_rows) if i != b])
    assert check.count_bad(expected, dropped) == 1

    spurious = _set(output, "status", c, "error")
    assert check.count_bad(expected, spurious) == 1

    all_three = _set(_set(output, "extracted_text", a, "tampered"), "status", c, "error")
    all_three = all_three.take([i for i in range(output.num_rows) if i != b])
    failed_frac = check.count_bad(expected, all_three) / expected.num_rows
    assert failed_frac == 3 / expected.num_rows > 0


def test_wrong_digest_and_duplicate_row_are_bad(case):
    expected, output = case
    (a,) = _ok_rows(output)[:1]
    assert check.count_bad(expected, _set(output, "content_sha256", a, "0" * 64)) == 1
    assert check.count_bad(expected, pa.concat_tables([output, output.slice(a, 1)])) == 1
