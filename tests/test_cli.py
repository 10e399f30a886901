"""CLI job entry points (S2 router analogue), driven in-process against
the shared Ray session (the CLI only shuts Ray down when it owns it)."""

import json

import pyarrow.parquet as pq
import pytest

from ai_service_ocr_grading_handler_ray.cli import main
from ai_service_ocr_grading_handler_ray.synth import docs_to_grading_requests


def test_synth_extract_roundtrip(tmp_path, sf_dir, capsys):
    pages = tmp_path / "pages"
    out = tmp_path / "out"
    assert main(["synth-pages", "--sf-dir", sf_dir, "--out", str(pages)]) == 0
    assert (
        main(
            [
                "extract",
                "--input", f"{pages}/*.parquet",
                "--out", str(out),
                "--partition-size", "2",
            ]
        )
        == 0
    )
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["rows"] == 500
    # resumable: second invocation with the same job parameters is a no-op
    # (a different --partition-size would remap pid→files and correctly
    # trigger reprocessing under the manifest lineage check)
    assert main([
        "extract",
        "--input", f"{pages}/*.parquet",
        "--out", str(out),
        "--partition-size", "2",
    ]) == 0
    summary2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary2["partitions_processed"] == 0


def test_grade_command(tmp_path, sf_dir, capsys):
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])
    reqs = docs_to_grading_requests(docs.slice(0, 50))
    req_path = tmp_path / "reqs.parquet"
    pq.write_table(reqs, str(req_path))
    out = tmp_path / "graded"
    assert main(["grade", "--input", str(req_path), "--out", str(out)]) == 0
    graded = pq.read_table(str(out))
    assert graded.num_rows == 50
    assert "score" in graded.column_names


def test_questions_command(tmp_path, capsys):
    import pyarrow as pa

    reqs = pa.table(
        {
            "user_id": ["u1"],
            "grade_level": [7],
            "subject": ["Mathematics"],
            "board": ["CBSE"],
            "topic": ["fractions"],
            "n_questions": [3],
        }
    )
    req_path = tmp_path / "qreqs.parquet"
    pq.write_table(reqs, str(req_path))
    out = tmp_path / "questions"
    assert main(["questions", "--input", str(req_path), "--out", str(out)]) == 0
    qs = pq.read_table(str(out))
    assert qs.num_rows == 3


@pytest.mark.parametrize("job", ["extract", "curate", "tier"])
def test_bad_input_glob(tmp_path, capsys, job):
    assert main([job, "--input", f"{tmp_path}/nope*.parquet", "--out", str(tmp_path / "o")]) == 2
    assert "no input files match" in capsys.readouterr().err


def test_curate_and_dedup_cli(tmp_path, sf_dir, capsys):
    pages = tmp_path / "pages2"
    assert main(["synth-pages", "--sf-dir", sf_dir, "--out", str(pages)]) == 0
    capsys.readouterr()

    out = tmp_path / "curated"
    assert main(["curate", "--input", f"{pages}/*.parquet", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["rows"] > 300
    import os
    assert any(d.startswith("split=") for d in os.listdir(out))

    dd = tmp_path / "clusters"
    assert main(["dedup", "--input", f"{sf_dir}/documents.parquet", "--out", str(dd)]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["rows"] == 500


def test_metrics_cli(tmp_path, sf_dir, capsys):
    pages = tmp_path / "pages3"
    assert main(["synth-pages", "--sf-dir", sf_dir, "--out", str(pages)]) == 0
    out = tmp_path / "m_out"
    assert main([
        "extract", "--input", f"{pages}/*.parquet", "--out", str(out),
        "--partition-size", "2",
    ]) == 0
    capsys.readouterr()
    assert main(["metrics", "--out", str(out)]) == 0
    m = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert m["rows"] == 500 and m["partitions"] >= 1
    assert m["partition_ids"] == list(range(m["partitions"]))
    assert m["docs_per_sec"] > 0
    # bad dir → exit 2
    assert main(["metrics", "--out", str(tmp_path / "nope")]) == 2


def test_pack_and_quality_cli(tmp_path, sf_dir, capsys):
    out_pack = tmp_path / "packed"
    assert (
        main(
            [
                "pack",
                "--input", f"{sf_dir}/documents.parquet",
                "--out", str(out_pack),
                "--budget", "256",
            ]
        )
        == 0
    )
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["rows"] == 500
    t = pq.read_table(str(out_pack))
    assert set(t.column_names) >= {"doc_id", "source", "n_tokens", "tok_offset", "seq_id"}

    out_q = tmp_path / "quality"
    assert (
        main(
            [
                "quality",
                "--input", f"{sf_dir}/documents.parquet",
                "--out", str(out_q),
                "--min-tokens", "30",
                "--max-tokens", "90",
            ]
        )
        == 0
    )
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["rows"] == 500
    assert 0 < summary["kept"] < 500


def test_corpus_build_cli(tmp_path, sf_dir, capsys):
    out = tmp_path / "corpus"
    assert (
        main(
            [
                "corpus-build",
                "--input", f"{sf_dir}/documents.parquet",
                "--out", str(out),
                "--budget", "256",
                "--min-logprob", "-3.41",
                "--max-tokens", "80",
            ]
        )
        == 0
    )
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0 < summary["rows"] < 500
    t = pq.read_table(str(out))
    assert set(t.column_names) == {"doc_id", "source", "n_tokens", "tok_offset", "seq_id"}


def test_tier_cli(tmp_path, sf_dir, capsys):
    pages = tmp_path / "pages"
    out = tmp_path / "tiered"
    assert main(["synth-pages", "--sf-dir", sf_dir, "--out", str(pages)]) == 0
    capsys.readouterr()
    assert main(["tier", "--input", f"{pages}/*.parquet", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["rows"] == 481
    import pyarrow.dataset as pads

    d = pads.dataset(str(out), format="parquet", partitioning="hive")
    paths = {f.path for f in d.get_fragments()}
    assert any("tier=head" in p for p in paths)
    # refuses to append into a non-empty output dir
    assert main(["tier", "--input", f"{pages}/*.parquet", "--out", str(out)]) == 2


def test_shard_cli(tmp_path, sf_dir, capsys):
    import pyarrow.dataset as pads

    out = tmp_path / "shards"
    assert (
        main(
            [
                "shard",
                "--input", f"{sf_dir}/documents.parquet",
                "--out", str(out),
                "--seed", "5",
                "--shard-size", "128",
            ]
        )
        == 0
    )
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["rows"] == 500
    df = (
        pads.dataset(str(out), format="parquet", partitioning="hive")
        .to_table().to_pandas()
    )
    assert sorted(df["pos"]) == list(range(500))
    assert (df["shard_id"].astype(int) == df["pos"] // 128).all()


def test_dedup_emit_deduped_cli(tmp_path, sf_dir, capsys):
    out = tmp_path / "deduped"
    assert (
        main(
            [
                "dedup",
                "--input", f"{sf_dir}/documents.parquet",
                "--out", str(out),
                "--emit", "deduped",
                "--threshold", "0.5",
            ]
        )
        == 0
    )
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0 < summary["rows"] <= 500
    t = pq.read_table(str(out))
    # full rows survive (all document columns), ids unique
    assert {"doc_id", "text", "lang", "source"} <= set(t.column_names)
    ids = t["doc_id"].to_pylist()
    assert len(ids) == len(set(ids))


def test_checkpoint_key_follows_files_inside_a_directory_input(tmp_path):
    """A file rewritten in place under a directory ``--input`` leaves the
    directory's own stat unchanged; the dedup checkpoint key must change."""
    import pyarrow as pa

    from ai_service_ocr_grading_handler_ray.cli import _input_key

    src = tmp_path / "docs"
    src.mkdir()
    pq.write_table(pa.table({"id": [1, 2]}), src / "a.parquet")
    pq.write_table(pa.table({"id": [3]}), src / "b.parquet")
    dir_stat = src.stat()
    before = _input_key(str(src))
    assert _input_key(str(src)) == before
    pq.write_table(pa.table({"id": [1, 2, 3, 4]}), src / "a.parquet")  # same name
    assert src.stat().st_mtime_ns == dir_stat.st_mtime_ns
    assert _input_key(str(src)) != before
