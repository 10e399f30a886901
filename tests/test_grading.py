"""/generate grading pipeline parity tests (SURVEY.md §3.1 engine
equivalent): routing, Stage-A answer extraction, Stage-B scoring
invariants, flags, sink record shape."""

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from ai_service_ocr_grading_handler_ray.pipelines.grading import grade_extract_task, grading_pipeline
from ai_service_ocr_grading_handler_ray.stages import native
from ai_service_ocr_grading_handler_ray.stages.extract import ExtractActor
from ai_service_ocr_grading_handler_ray.stages.score import quantize_half, score_one
from ai_service_ocr_grading_handler_ray.stages.collect import collect_tables
from ai_service_ocr_grading_handler_ray.synth import docs_to_grading_requests


@pytest.fixture(scope="module")
def graded(sf_dir) -> pa.Table:
    out = grading_pipeline(sf_dir)
    return pa.concat_tables(collect_tables(out, drop_empty=False))


def test_sink_record_shape(graded):
    # utils.py:114-125 update-record shape as columns
    assert set(graded.column_names) == {
        "student_id", "scan_id", "que_id", "ai_feedback", "score", "max_score",
        "student_answer", "is_correct", "is_blank", "rubric_wise_response", "status",
    }
    assert graded.num_rows == 500
    assert pc.all(pc.equal(graded["status"], "processed")).as_py()


def test_score_invariants(graded):
    scores = graded["score"].to_pylist()
    maxes = graded["max_score"].to_pylist()
    rubrics = graded["rubric_wise_response"].to_pylist()
    for s, m, rub in zip(scores, maxes, rubrics):
        assert 0.0 <= s <= m
        assert s * 2 == int(s * 2)  # half-point quantization (gen_ai_calling.py:55)
        if rub:  # score == Σ rubricWiseScore (utils.py:217)
            assert s == pytest.approx(sum(r["rubric_wise_score"] for r in rub))
            assert m == pytest.approx(sum(r["rubric_wise_max_score"] for r in rub))


def test_blank_rows_short_circuit(graded):
    # doc_id % 10 == 3 rows have no answer and no payload → M19 path
    blank = graded.filter(pc.equal(graded["ai_feedback"], "No answer provided"))
    assert blank.num_rows > 0
    assert pc.all(pc.equal(blank["score"], 0.0)).as_py()
    assert pc.all(blank["is_blank"]).as_py()
    assert not pc.any(blank["is_correct"]).as_py()


def test_flags_consistent(graded):
    for s, m, c in zip(
        graded["score"].to_pylist(),
        graded["max_score"].to_pylist(),
        graded["is_correct"].to_pylist(),
    ):
        assert c == (s == m)


def test_payload_rows_graded(graded):
    """Rows whose answer came from a binary payload must score like
    inline-answer rows (answer text is the doc text either way)."""
    nonblank = graded.filter(pc.invert(graded["is_blank"]))
    assert nonblank.num_rows >= 400
    assert pc.min(pc.utf8_length(nonblank["student_answer"])).as_py() > 0


def test_stage_a_is_one_batch_call(sf_dir, monkeypatch):
    """Grading Stage A over the requests in 256-row batches: one native
    call per batch, per-row Python only for the image answers, and each
    answer is the inline one, else the stdlib twin's text for its payload,
    over every kind of answer."""
    if native.load() is None:
        pytest.skip("native kernel unavailable on this host")
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])
    requests = docs_to_grading_requests(docs)
    batch_calls, row_kinds = [], []
    extract_batch, extract_one = native.NativeKernel.extract_batch, ExtractActor._extract_one

    def counted_batch(self, html, *args):
        batch_calls.append(len(html))
        return extract_batch(self, html, *args)

    def counted_row(self, kind, *args):
        row_kinds.append(kind)
        return extract_one(self, kind, *args)

    monkeypatch.setattr(native.NativeKernel, "extract_batch", counted_batch)
    monkeypatch.setattr(ExtractActor, "_extract_one", counted_row)
    batches = [requests.slice(i, 256) for i in range(0, len(requests), 256)]
    answers = [a for b in batches for a in grade_extract_task(b)["extracted_answer"].to_pylist()]
    assert batch_calls == [len(b) for b in batches]
    monkeypatch.undo()

    n = len(requests)
    twin = ExtractActor(html_engine="stdlib")(pa.table({
        "url": pa.nulls(n, pa.string()),
        "warc_ts": pa.nulls(n, pa.timestamp("us")),
        "html": requests["student_answer_payload"],
    }))
    inline = requests["student_answer"].to_pylist()
    kinds = twin["payload_kind"].to_pylist()
    assert {"inline" if a else k for a, k in zip(inline, kinds)} == {
        "inline", "html", "pdf", "image", "blank"}
    assert row_kinds == [k for k in kinds if k == "image"]
    assert answers == [a or t for a, t in zip(inline, twin["extracted_text"].to_pylist())]


def test_score_one_deterministic_and_quantized():
    rubrics = [
        {"rubric_id": "r1", "score": 2.0, "criteria": "alpha beta gamma delta"},
        {"rubric_id": "r2", "score": 3.0, "criteria": "epsilon zeta"},
    ]
    rec1 = score_one("alpha beta epsilon", rubrics, 5.0)
    rec2 = score_one("alpha beta epsilon", rubrics, 5.0)
    assert rec1 == rec2
    # overlap r1 = 2/4 → 1.0 of 2.0; r2 = 1/2 → 1.5 of 3.0
    assert rec1["rubric_wise_response"][0]["rubric_wise_score"] == 1.0
    assert rec1["rubric_wise_response"][1]["rubric_wise_score"] == 1.5
    assert rec1["score"] == 2.5


def test_quantize_half():
    assert quantize_half(1.24) == 1.0
    assert quantize_half(1.25) == 1.5
    assert quantize_half(1.76) == 2.0
    assert quantize_half(0.0) == 0.0


def test_essay_path(graded, sf_dir):
    """argumentativeEssayOcr rows: 3-call concat → feedback fold, fixed
    maxScore 15 (gen_ai_calling.py:394-415)."""
    from ai_service_ocr_grading_handler_ray.functions.essay import essay_grade

    fb, score, mx = essay_grade(
        "a reasonably long essay answer " + "with many words " * 20
    )
    assert mx == 15.0
    assert 0.0 <= score <= 10.0  # 10 feedback points, each ≤ 1
    assert "Transition Words -" in fb
    fb2, score2, _ = essay_grade("short")
    assert score2 <= score  # worse answers score lower

    essay_rows = graded.filter(pc.equal(graded["max_score"], 15.0))
    assert essay_rows.num_rows > 0


def test_mcq_omr_path(graded):
    """omr rows: correct-or-not equality scoring, brief feedback."""
    mcq = graded.filter(
        pc.is_in(graded["ai_feedback"], value_set=pa.array(["Correct", "Incorrect"]))
    )
    assert mcq.num_rows > 0
    for s, m, fb in zip(
        mcq["score"].to_pylist(), mcq["max_score"].to_pylist(), mcq["ai_feedback"].to_pylist()
    ):
        assert (s == m) if fb == "Correct" else (s == 0.0)
