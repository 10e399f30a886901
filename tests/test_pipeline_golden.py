"""Golden end-to-end: deterministic synthetic page table → flagship
pipeline → per-url SHA-256 digests compared against committed goldens
(SURVEY.md §5 item 2; BASELINE.md per-row correctness gate)."""

import hashlib
import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

from ai_service_ocr_grading_handler_ray.pipelines.extract import build_pages_dataset, extract_pages
from ai_service_ocr_grading_handler_ray.stages.classify import classify_payload_kind
from ai_service_ocr_grading_handler_ray.stages.extract import ExtractActor
from ai_service_ocr_grading_handler_ray.synth import docs_to_pages, edge_bucket

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "extract_sf0.001.json")


@pytest.fixture(scope="module")
def extracted(sf_dir) -> pa.Table:
    from ai_service_ocr_grading_handler_ray.stages.collect import collect_table

    out = extract_pages(build_pages_dataset(sf_dir))
    return collect_table(out)


def test_flagship_golden(extracted):
    tbl = extracted
    assert tbl.num_rows == 500

    # order-insensitive global digest over (url, content_sha256)
    pairs = sorted(zip(tbl["url"].to_pylist(), tbl["content_sha256"].to_pylist()))
    global_digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()

    kinds = dict(
        zip(*[c.to_pylist() for c in pc.value_counts(tbl["payload_kind"]).flatten()])
    )
    statuses = dict(
        zip(*[c.to_pylist() for c in pc.value_counts(tbl["status"]).flatten()])
    )

    with open(GOLDEN) as f:
        golden = json.load(f)
    assert kinds == golden["kinds"]
    assert statuses == golden["statuses"]
    assert global_digest == golden["global_digest"], (
        "extracted text drifted from golden digests — extraction must be "
        "byte-identical per url"
    )

    ok = tbl.filter(pc.equal(tbl["status"], "ok"))
    assert pc.min(pc.utf8_length(ok["extracted_text"])).as_py() > 0
    blank = tbl.filter(pc.equal(tbl["status"], "blank"))
    assert pc.all(blank["is_blank"]).as_py() is True


def test_extracted_text_matches_source_words(sf_dir):
    """For html/pdf/image rows the extracted words must equal the source
    document words verbatim (boilerplate fully stripped, content fully
    kept) — the engine's analogue of the reference's extract-exactly
    invariant (gen_ai_calling.py:205)."""
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{sf_dir}/documents.parquet")
    pages = docs_to_pages(docs)
    classified = classify_payload_kind(pages)
    result = ExtractActor()(classified)

    n_checked = 0
    for kind, status, url, extracted, source in zip(
        result["payload_kind"].to_pylist(),
        result["status"].to_pylist(),
        result["url"].to_pylist(),
        result["extracted_text"].to_pylist(),
        pages["text"].to_pylist(),
    ):
        if kind in ("html", "pdf", "image") and status == "ok" and not edge_bucket(url):
            assert " ".join(extracted.split()) == " ".join(source.split()), (kind, url)
            n_checked += 1
    assert n_checked > 400  # ~95% of 500 rows are non-edge


def test_title_extraction(sf_dir):
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{sf_dir}/documents.parquet")
    pages = docs_to_pages(docs)
    result = ExtractActor()(classify_payload_kind(pages))
    ok_html = result.filter(
        pc.and_(pc.equal(result["payload_kind"], "html"), pc.equal(result["status"], "ok"))
    )
    titled = ok_html.filter(pc.match_substring(ok_html["title"], "Document "))
    assert titled.num_rows > 380  # every non-edge html page carries its title


def test_url_dedup_collapses_pairs(sf_dir):
    """North-rule exact dedup by url: ~3.8% duplicate-url pairs collapse
    to the earliest snapshot before extraction."""
    from ai_service_ocr_grading_handler_ray.pipelines.extract import (
        build_pages_dataset,
        dedup_pages_by_url,
    )

    pages = build_pages_dataset(sf_dir)
    total = pages.count()
    deduped = dedup_pages_by_url(build_pages_dataset(sf_dir))
    from ai_service_ocr_grading_handler_ray.stages.collect import collect_table

    tbl = collect_table(deduped)
    urls = tbl["url"].to_pylist()
    assert len(urls) == len(set(urls))  # unique by url
    n_dup_urls = total - len(set(urls))
    assert n_dup_urls > 0  # the fixture really had duplicates
    # winner is the earliest snapshot per url
    dup = [u for u in urls if "dup.example.com" in u]
    assert dup, "dup-host urls present"


def test_en_policy_drops_short_block_zh_policy_keeps_it():
    """The per-lang policy table sets the HTML thresholds: a 21-character
    block is below en's min_len (25) and above zh's (12)."""
    html = b"<body><p>a tiny block here ok</p></body>"  # 21 chars normalized
    actor = ExtractActor()
    assert actor._extract_one("html", html, "en")[0] == ""
    assert actor._extract_one("html", html, "zh")[0] == "a tiny block here ok"


def test_flagship_golden_sf001():
    """Second committed golden at sf0.01 (distinct table from sf0.001) —
    extraction digests stable across inputs and runs."""
    import pyarrow.parquet as pq

    docs = pq.read_table("/root/testdata/sf0.01/documents.parquet")
    tbl = ExtractActor()(classify_payload_kind(docs_to_pages(docs)))
    pairs = sorted(zip(tbl["url"].to_pylist(), tbl["content_sha256"].to_pylist()))
    digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()
    with open(os.path.join(os.path.dirname(__file__), "golden", "extract_sf0.01.json")) as f:
        golden = json.load(f)
    assert digest == golden["global_digest"]
    statuses = dict(
        zip(*[c.to_pylist() for c in pc.value_counts(tbl["status"]).flatten()])
    )
    assert statuses == golden["statuses"]
