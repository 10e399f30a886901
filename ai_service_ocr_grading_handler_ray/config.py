"""Broadcast lookup tables — the engine's user-extension surface
(SURVEY.md §2.9).

The reference routes records through a 17-entry model-alias registry
(``gen_ai_calling.py:13-31``) and a 9-row (task, subjectName)→prompt table
(``subject_wise_prompt.json``, consumed at ``gen_ai_calling.py:200-218``).
The engine keeps the same two-level lookup shape but the targets are
deterministic local extractor/scorer classes instead of remote LLMs
(SURVEY.md T5): alias → {engine, engine_class}; lang →
extraction-policy parameters.

These tables are tiny: they broadcast by closure capture into
``map_batches`` stages (loaded once at driver / actor init — never
re-read per record like the reference does at gen_ai_calling.py:200-201).
"""

from __future__ import annotations

# alias → engine descriptor (reference: llm_name_mapping, gen_ai_calling.py:13-31)
# engine_class selects the extraction sub-pipeline exactly like the
# reference's model_class switch (gen_ai_calling.py:278-415).
ENGINE_ALIASES: dict[str, dict[str, str]] = {
    "gpt-4-latest": {"engine": "overlap-scorer", "engine_class": "textScore"},
    "gpt-3.5-latest": {"engine": "overlap-scorer", "engine_class": "textScore"},
    "claude-latest": {"engine": "overlap-scorer", "engine_class": "textScore"},
    "claude-small": {"engine": "overlap-scorer", "engine_class": "textScore"},
    "claude-medium": {"engine": "overlap-scorer", "engine_class": "textScore"},
    "gemini-latest": {"engine": "overlap-scorer", "engine_class": "textScore"},
    "gemini-small": {"engine": "overlap-scorer", "engine_class": "textScore"},
    "gpt-vision": {"engine": "payload-extract", "engine_class": "extractScore"},
    "gpt-ocr-vision": {"engine": "payload-extract", "engine_class": "extractScore"},
    "gpt-vision-mcq": {"engine": "payload-extract", "engine_class": "extractMcq"},
    "llamma-latest": {"engine": "overlap-scorer", "engine_class": "textScore"},
    "shozemi-gpt-latest": {"engine": "payload-extract", "engine_class": "essayExtract"},
    "claude-vision-ocr": {"engine": "payload-extract", "engine_class": "extractScore"},
    "ensamble-vision": {"engine": "payload-extract", "engine_class": "extractEnsemble"},
    "gemini-vision-number": {"engine": "payload-extract", "engine_class": "numberPredict"},
    "whole-page-ocr": {"engine": "payload-extract", "engine_class": "extractOnly"},
}

# gradingPrompt → alias routing (reference: gen_ai_calling.py:140-159)
GRADING_PROMPT_TO_ALIAS: dict[str, str] = {
    "default": "gpt-4-latest",
    "ocr": "gpt-vision",
    "gpt-ocr": "gpt-ocr-vision",
    "claude-ocr": "claude-vision-ocr",
    "expository-essay-ocr": "gpt-ocr-vision",
    "argumentative-essay-ocr": "shozemi-gpt-latest",
    "gemini-number": "gemini-vision-number",
    "whole-page-ocr": "whole-page-ocr",
    "omr": "gpt-vision-mcq",
}

# lang → extraction-policy parameters (subject_wise_prompt.json analogue:
# per-subject prompt rows become per-lang density thresholds).
# Miss falls back to DEFAULT_POLICY (utils.py:29 default-prompt semantics).
EXTRACTION_POLICIES: list[dict] = [
    {"lang": "en", "min_len": 25, "max_link_pct": 33},
    {"lang": "de", "min_len": 30, "max_link_pct": 33},
    {"lang": "fr", "min_len": 28, "max_link_pct": 33},
    {"lang": "es", "min_len": 28, "max_link_pct": 33},
    {"lang": "zh", "min_len": 12, "max_link_pct": 40},
]
DEFAULT_POLICY: dict = {"min_len": 25, "max_link_pct": 33}


def get_policy(lang: str) -> dict:
    """Case-insensitive lang lookup with default fallback — get_prompt
    semantics (utils.py:23-29)."""
    for p in EXTRACTION_POLICIES:
        if p["lang"].lower() == (lang or "").lower():
            return p
    return DEFAULT_POLICY
