"""Fake-OCR-engine injection (SURVEY.md T1): proves the actor-pool
extraction path warms a NON-synthetic engine once per actor in
``__init__`` and reuses it across batches — without pytesseract/PIL in
the container.  The fake stands in for a real tesseract handle: its
"expensive state" is a per-instance id that leaks into every recognized
text, so distinct ids in the output == number of engine constructions."""

import glob
import hashlib
import uuid

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from ai_service_ocr_grading_handler_ray.payloads import PNG_MAGIC
from ai_service_ocr_grading_handler_ray.stages.classify import classify_payload_kind
from ai_service_ocr_grading_handler_ray.stages.extract import ExtractActor
from ai_service_ocr_grading_handler_ray.stages.ocr import OcrEngine


def make_fake_tesseract() -> type[OcrEngine]:
    """Deterministic stand-in for a real OCR engine (handles payloads the
    synthetic codec can't).  Built inside a function so cloudpickle ships
    the class BY VALUE to Ray workers — the tests/ dir is not importable
    from worker processes."""

    class FakeTesseract(OcrEngine):
        def __init__(self) -> None:
            super().__init__()
            self.engine_id = uuid.uuid4().hex[:8]  # "expensive" warm state

        def recognize(self, payload: bytes) -> str:
            return f"fake[{self.engine_id}] {hashlib.sha256(payload).hexdigest()[:8]}"

    return FakeTesseract


def _real_pngish_pages(n: int) -> pa.Table:
    # PNG magic + arbitrary bytes: classifies as "image" but is NOT the
    # synthetic codec format (no OCR marker) — a real engine must handle it
    payloads = [PNG_MAGIC + f"realpng-{i}".encode() for i in range(n)]
    return pa.table(
        {
            "url": [f"https://ex.com/{i}.png" for i in range(n)],
            "warc_ts": pa.array([0] * n, type=pa.timestamp("us")),
            "html": pa.array(payloads, type=pa.binary()),
            "text": [""] * n,
            "lang": ["en"] * n,
        }
    )


def test_fake_engine_injected_via_actor_pool():
    n, batch_size, concurrency = 64, 8, 2
    ds = (
        rd.from_arrow(_real_pngish_pages(n))
        .map_batches(classify_payload_kind, batch_format="pyarrow")
        .map_batches(
            ExtractActor,
            fn_constructor_kwargs={"ocr_engine_factory": make_fake_tesseract()},
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
        )
    )
    out = ds.to_pandas()
    assert len(out) == n
    assert (out["status"] == "ok").all()
    assert (out["payload_kind"] == "image").all()
    # every payload recognized by the injected engine, deterministically
    for url, text in zip(out["url"], out["extracted_text"]):
        i = url.rsplit("/", 1)[1].split(".")[0]
        digest = hashlib.sha256(PNG_MAGIC + f"realpng-{i}".encode()).hexdigest()[:8]
        assert text.endswith(digest)
    # warm-state proof: far fewer engine constructions than batches —
    # __init__ ran once per actor, not once per batch
    ids = {t.split("]")[0] for t in out["extracted_text"]}
    assert 1 <= len(ids) <= concurrency < n // batch_size


def test_default_engine_errors_on_real_bytes():
    """Without an injected engine (and without tesseract installed), real
    PNG bytes follow the poison-pill policy: status='error', no crash."""
    ds = (
        rd.from_arrow(_real_pngish_pages(4))
        .map_batches(classify_payload_kind, batch_format="pyarrow")
        .map_batches(
            lambda t: ExtractActor()(t),
            batch_format="pyarrow",
        )
    )
    out = ds.to_pandas()
    assert (out["status"] == "error").all()
    assert (out["extracted_text"] == "").all()


def _failing_ocr(exc: type[Exception]) -> type[OcrEngine]:
    class FailingOcr(OcrEngine):
        def recognize(self, payload: bytes) -> str:
            raise exc("injected")

    return FailingOcr


def _extract_with(engine: type[OcrEngine], out: str) -> None:
    (
        rd.from_arrow(_real_pngish_pages(4))
        .map_batches(classify_payload_kind, batch_format="pyarrow")
        .map_batches(
            ExtractActor,
            fn_constructor_kwargs={"ocr_engine_factory": engine},
            batch_format="pyarrow",
            concurrency=1,
        )
        .write_parquet(out)
    )


def test_memory_error_fails_the_task_not_the_row(tmp_path):
    """A MemoryError is a resource failure: the execution raises and no
    status='error' row is written.  A ValueError from the same engine is
    the row's own failure: an error row."""
    out = str(tmp_path / "oom")
    with pytest.raises(Exception, match="MemoryError"):
        _extract_with(_failing_ocr(MemoryError), out)
    for path in glob.glob(f"{out}/*.parquet"):
        assert "error" not in pq.read_table(path)["status"].to_pylist()

    out = str(tmp_path / "bad")
    _extract_with(_failing_ocr(ValueError), out)
    status = pq.read_table(out)["status"].to_pylist()
    assert status == ["error"] * 4


def test_fake_image_decoder_injected_via_actor_pool():
    """Same injection contract for the multimodal image stage: a
    non-synthetic decoder is constructed once per actor and drives the
    pool without PIL installed."""
    from ai_service_ocr_grading_handler_ray.stages.multimodal import ImageDecodeActor

    def make_fake_decoder():
        class FakeDecoder:
            def __init__(self) -> None:
                self.decoder_id = uuid.uuid4().hex[:8]

            def decode(self, payload: bytes):
                return len(payload), 7, f"fake-{self.decoder_id}"

        return FakeDecoder

    n = 32
    payloads = [PNG_MAGIC + b"x" * i for i in range(n)]  # real-ish, no marker
    tbl = pa.table({"payload": pa.array(payloads, type=pa.binary())})
    out = (
        rd.from_arrow(tbl)
        .map_batches(
            ImageDecodeActor,
            fn_constructor_kwargs={"decoder_factory": make_fake_decoder()},
            batch_format="pyarrow",
            batch_size=4,
            concurrency=2,
        )
        .to_pandas()
    )
    assert (out["decode_status"] == "ok").all()
    widths = [m["width"] for m in out["image_meta"]]
    assert widths == [len(p) for p in payloads]
    ids = {m["format"] for m in out["image_meta"]}
    assert 1 <= len(ids) <= 2 < n // 4  # once per actor, not per batch


def _real_png_1x1() -> bytes:
    """A REAL (non-synthetic) 1×1 RGBA PNG built with stdlib only."""
    import struct
    import zlib

    def chunk(tag: bytes, body: bytes) -> bytes:
        return (
            struct.pack(">I", len(body))
            + tag
            + body
            + struct.pack(">I", zlib.crc32(tag + body))
        )

    ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 6, 0, 0, 0)
    idat = zlib.compress(b"\x00" + b"\x10\x20\x30\xff")  # filter 0 + 1 px
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", idat)
        + chunk(b"IEND", b"")
    )


def test_real_png_without_pil_decodes_via_stdlib():
    """A genuine PNG decodes through the stdlib codec (stages/png.py)
    even without Pillow — round 4 upgraded the old poison-pill policy to
    a REAL decode; non-PNG real media still becomes a
    decode_status='error' row (never a raised batch)."""
    import pyarrow as pa

    from ai_service_ocr_grading_handler_ray.stages.multimodal import ImageDecodeActor

    actor = ImageDecodeActor()
    jpeg_ish = b"\xff\xd8\xff\xe0" + b"\x00" * 32  # no JPEG codec in stdlib
    out = actor(
        pa.table(
            {"payload": pa.array([_real_png_1x1(), jpeg_ish], type=pa.binary())}
        )
    )
    assert out["decode_status"].to_pylist() == ["ok", "error"]
    meta = out["image_meta"].to_pylist()[0]
    assert (meta["width"], meta["height"]) == (1, 1)


def test_real_png_with_pil():
    """When Pillow IS installed, the PilImageDecoder seam decodes a real
    PNG end-to-end through the actor (skips in this container)."""
    import pytest

    pytest.importorskip("PIL")
    import pyarrow as pa

    from ai_service_ocr_grading_handler_ray.stages.multimodal import (
        ImageDecodeActor,
        PilImageDecoder,
    )

    actor = ImageDecodeActor(decoder_factory=PilImageDecoder)
    out = actor(pa.table({"payload": pa.array([_real_png_1x1()], type=pa.binary())}))
    assert out["decode_status"].to_pylist() == ["ok"]
    meta = out["image_meta"].to_pylist()[0]
    assert (meta["width"], meta["height"]) == (1, 1)


def test_pil_decoder_raises_cleanly_when_absent():
    import pytest

    try:
        import PIL  # noqa: F401

        pytest.skip("Pillow installed")
    except ImportError:
        pass
    from ai_service_ocr_grading_handler_ray.stages.multimodal import PilImageDecoder

    with pytest.raises(ImportError):
        PilImageDecoder()
