"""Driver-contract smoke test for the engine-specific ``queries()`` entries
that have no SQL oracle: each one must build and run at sf0.001 through
``__ray_entry__.queries()``, the way the driver calls it."""

import pyarrow.compute as pc
import pytest

import __ray_entry__
from ai_service_ocr_grading_handler_ray.schema import EXTRACTED_SCHEMA
from ai_service_ocr_grading_handler_ray.stages.collect import collect_table


@pytest.fixture(scope="module")
def run(sf_dir):
    qs = __ray_entry__.queries()
    return lambda name: collect_table(qs[name](sf_dir))


def test_q30_flagship_extract(run):
    tbl = run("q30_flagship_extract")
    assert tbl.num_rows == 500
    assert tbl.column_names == EXTRACTED_SCHEMA.names


def test_q41_flagship_deduped_one_row_per_url(run):
    urls = run("q30_flagship_extract")["url"]
    tbl = run("q41_flagship_deduped")
    assert tbl.num_rows == len(pc.unique(urls)) < len(urls)
    assert len(pc.unique(tbl["url"])) == tbl.num_rows


def test_q31_grading(run):
    assert run("q31_grading").num_rows == 500
