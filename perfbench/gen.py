"""Seeded input generators for the three benchmark workloads.

Every generator runs in one process, before any timing, and writes Parquet
page files with the engine's pages schema (url, warc_ts, html, text, lang).
The seed is the only source of variation: the same seed gives
byte-identical files.  The engine sees only the files.

Documents follow the statistics of the engine's ``documents`` test table
(sf0.1, 5,000 rows): 30 words drawn uniformly (the table's 31st word, "dup",
is 0.09% of words and is left out), 10-100 words per document uniformly
(mean 54, ~297 characters), 41% ``en`` and ~15% each of de/es/fr/zh, 20
sources.  They are made here rather than read from a test-data directory
so that the benchmark needs nothing outside its checkout.
"""

from __future__ import annotations

import os
import random

import pyarrow as pa
import pyarrow.parquet as pq

from ai_service_ocr_grading_handler_ray.payloads import (
    encode_image_text,
    encode_pdf_glyphs,
    layout_text_as_glyphs,
)
from ai_service_ocr_grading_handler_ray.synth import docs_to_pages, edge_bucket

VOCAB = (
    "a agg batch big column customer data fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream table "
    "the value vector window"
).split()
LANGS = ("en", "de", "es", "fr", "zh")
LANG_WEIGHTS = (41, 14, 15, 15, 15)
WORDS_PER_DOC = (10, 100)
N_SOURCES = 20

# workload sizes: one job of each takes 2-4 s on one core, so a run of
# --seconds 15 holds several jobs to take the median of
CRAWL_PAGES, CRAWL_ROWS_PER_FILE = 6000, 1000
SCAN_PAGES, SCAN_ROWS_PER_FILE = 400, 100
RESUME_FILES, RESUME_ROWS_PER_FILE = 16, 250

# doc ids of different seeds never collide, so urls differ by seed
_SEED_STRIDE = 10_000_000
_MAX_SEED = 100_000


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def documents(rng: random.Random, n: int, first_id: int) -> pa.Table:
    """``n`` documents with ids ``first_id`` … in the documents-table schema."""
    texts, langs, sources = [], [], []
    for _ in range(n):
        texts.append(" ".join(rng.choices(VOCAB, k=rng.randint(*WORDS_PER_DOC))))
        langs.append(rng.choices(LANGS, LANG_WEIGHTS)[0])
        sources.append(f"src{rng.randrange(N_SOURCES)}")
    return pa.table(
        {
            "doc_id": pa.array(range(first_id, first_id + n), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(langs, type=pa.string()),
            "source": pa.array(sources, type=pa.string()),
        }
    )


def _write_files(pages: pa.Table, out_dir: str, rows_per_file: int) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, start in enumerate(range(0, pages.num_rows, rows_per_file)):
        path = os.path.join(out_dir, f"pages-{i:05d}.parquet")
        pq.write_table(pages.slice(start, rows_per_file), path)
        paths.append(path)
    return paths


def crawl_pages(seed: int, n: int, workload: str) -> pa.Table:
    """The repository's page mix (``synth.docs_to_pages``): ~80% HTML, 10%
    PDF, 5% image and 5% edge rows, keyed by url."""
    first_id = (seed % _MAX_SEED) * _SEED_STRIDE
    return docs_to_pages(documents(_rng(seed, workload), n, first_id))


def scanned_pages(seed: int, n: int) -> pa.Table:
    """Scanned answer pages: each page holds 4-8 documents' text, 3 in 4 as a
    glyph PDF and the rest as an OCR image.  No page is an edge row."""
    rng = _rng(seed, "scanned_pages")
    docs = documents(rng, n * 8, (seed % _MAX_SEED) * _SEED_STRIDE)
    doc_texts, doc_langs = docs["text"].to_pylist(), docs["lang"].to_pylist()
    urls, payloads, texts, langs = [], [], [], []
    for i in range(n):
        k = rng.randint(4, 8)
        text = " ".join(doc_texts[i * 8 : i * 8 + k])
        url = f"https://scans.example.net/exam-{seed}/sheet-{i // 40}/page-{i}"
        while edge_bucket(url):  # edge rows may fail; these pages must not
            url += "-r"
        if rng.random() < 0.75:
            payloads.append(encode_pdf_glyphs(layout_text_as_glyphs(text)))
        else:
            payloads.append(encode_image_text(text))
        urls.append(url)
        texts.append(text)
        langs.append(doc_langs[i * 8])
    epoch_us = 1_704_067_200_000_000
    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array(
                [epoch_us + i * 1_000_000 for i in range(n)], type=pa.timestamp("us")
            ),
            "html": pa.array(payloads, type=pa.binary()),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(langs, type=pa.string()),
        }
    )


def generate(workload: str, seed: int, out_dir: str) -> list[str]:
    """Write the workload's page files under ``out_dir``; returns their
    paths in order."""
    if workload == "crawl_mix":
        pages = crawl_pages(seed, CRAWL_PAGES, workload)
        return _write_files(pages, out_dir, CRAWL_ROWS_PER_FILE)
    if workload == "scanned_pages":
        return _write_files(scanned_pages(seed, SCAN_PAGES), out_dir, SCAN_ROWS_PER_FILE)
    if workload == "recrawl_resume":
        pages = crawl_pages(seed, RESUME_FILES * RESUME_ROWS_PER_FILE, workload)
        return _write_files(pages, out_dir, RESUME_ROWS_PER_FILE)
    raise ValueError(f"unknown workload: {workload}")
