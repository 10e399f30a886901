"""OCR engine for image-only pages.

The reference sends image crops to vision LLMs (claude_vision_calling,
``ocr_llm_calling_modules.py:49-79``; cv2 decode at
``llm_number_prediction.py:39-55``).  Here OCR is a local engine owned by
the Stage-A ``ExtractActor`` (stages/extract.py): engine initialisation
happens once per engine in ``__init__`` (SURVEY.md T1), and the engine is
cached per worker process by ``extract_batch_task``; ``recognize`` runs
per image row.

Tesseract/pytesseract and PIL are not present in this container, so the
real decode path is gated behind an import-try; the deterministic
synthetic-image codec (payloads.py) stands in.  Real (non-synthetic)
PNG/WEBP bytes raise and become ``status='error'`` rows upstream.
"""

from __future__ import annotations

from ..payloads import decode_image_text

try:  # pragma: no cover - not installed in this container
    import pytesseract  # type: ignore
    from PIL import Image  # type: ignore

    _HAVE_TESSERACT = True
except ImportError:
    _HAVE_TESSERACT = False


class OcrEngine:
    """Warm per-engine OCR state.  ``recognize`` maps payload bytes → text."""

    def __init__(self) -> None:
        # Real path: configure a tesseract API handle here (loaded once per
        # engine; amortized over every batch the engine processes).
        self.have_tesseract = _HAVE_TESSERACT

    def recognize(self, payload: bytes) -> str:
        try:
            return decode_image_text(payload)
        except ValueError:
            if self.have_tesseract:  # pragma: no cover
                import io

                img = Image.open(io.BytesIO(payload))
                return pytesseract.image_to_string(img)
            raise NotImplementedError(
                "real image decode requires PIL+pytesseract (absent in container)"
            )
