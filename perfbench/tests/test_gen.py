"""Generator determinism: one seed gives byte-identical input files; another
seed gives other urls with the same payload-kind mix."""

import collections
import hashlib

import pytest

from ai_service_ocr_grading_handler_ray.stages.classify import classify_payload_kind
from ai_service_ocr_grading_handler_ray.synth import edge_bucket
from perfbench import check, gen

# |share(seed A) - share(seed B)| per payload kind; the smallest workload
# (400 scanned pages) has a binomial sd of ~3 points for a 75% share
KIND_MIX_TOLERANCE = 0.10


def _digests(paths: list[str]) -> list[str]:
    out = []
    for p in paths:
        with open(p, "rb") as f:
            out.append(hashlib.sha256(f.read()).hexdigest())
    return out


def _kind_shares(paths: list[str]) -> dict[str, float]:
    kinds = classify_payload_kind(check.read_tables(paths))["payload_kind"].to_pylist()
    return {k: n / len(kinds) for k, n in collections.Counter(kinds).items()}


@pytest.mark.parametrize("workload", ["crawl_mix", "scanned_pages", "recrawl_resume"])
def test_same_seed_same_bytes_other_seed_same_mix(workload, tmp_path):
    a = gen.generate(workload, 3, str(tmp_path / "a"))
    again = gen.generate(workload, 3, str(tmp_path / "again"))
    b = gen.generate(workload, 4, str(tmp_path / "b"))
    assert _digests(a) == _digests(again)

    urls_a = set(check.read_tables(a, ["url"])["url"].to_pylist())
    urls_b = set(check.read_tables(b, ["url"])["url"].to_pylist())
    assert not urls_a & urls_b

    shares_a, shares_b = _kind_shares(a), _kind_shares(b)
    for kind in set(shares_a) | set(shares_b):
        assert abs(shares_a.get(kind, 0) - shares_b.get(kind, 0)) < KIND_MIX_TOLERANCE, kind


def test_scanned_pages_are_pdf_or_image_and_never_edge_rows(tmp_path):
    paths = gen.generate("scanned_pages", 5, str(tmp_path))
    shares = _kind_shares(paths)
    assert set(shares) == {"pdf", "image"}
    assert abs(shares["pdf"] - 0.75) < KIND_MIX_TOLERANCE
    urls = check.read_tables(paths, ["url"])["url"].to_pylist()
    assert not any(edge_bucket(u) for u in urls)


def test_crawl_mix_matches_the_repository_page_mix(tmp_path):
    shares = _kind_shares(gen.generate("crawl_mix", 5, str(tmp_path)))
    # ~80% html (plus truncated-html edge rows), 10% pdf, 5% image
    assert abs(shares["html"] - 0.82) < 0.03
    assert abs(shares["pdf"] - 0.10) < 0.02
    assert abs(shares["image"] - 0.05) < 0.02
