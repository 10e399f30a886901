"""Kill/restart resume test (SURVEY.md §5 item 4): run K partitions, stop,
restart, assert byte-identical final output and no reprocessed partitions."""

import json
import os

import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from ai_service_ocr_grading_handler_ray.state import manifest
from ai_service_ocr_grading_handler_ray.state.manifest import (
    committed_manifests,
    resumable_extract,
)
from ai_service_ocr_grading_handler_ray.synth import docs_to_pages


def _make_input(tmp_path, sf_dir, n_files=4):
    """Split the synthetic pages into several parquet files."""
    docs = pq.read_table(f"{sf_dir}/documents.parquet")
    pages = docs_to_pages(docs)
    files = []
    step = pages.num_rows // n_files
    d = tmp_path / "pages"
    d.mkdir()
    for i in range(n_files):
        path = str(d / f"pages-{i}.parquet")
        pq.write_table(pages.slice(i * step, step), path)
        files.append(path)
    return files


def _digests(out_dir):
    import glob

    files = sorted(glob.glob(os.path.join(out_dir, "part=*", "*.parquet")))
    t = pads.dataset(files, format="parquet").to_table(columns=["url", "content_sha256"])
    return sorted(zip(t["url"].to_pylist(), t["content_sha256"].to_pylist()))


def test_resume_exact(tmp_path, sf_dir):
    files = _make_input(tmp_path, sf_dir)

    # full run in one go → reference result
    ref_dir = str(tmp_path / "ref")
    resumable_extract(files, ref_dir, partition_size=1)
    ref = _digests(ref_dir)

    # interrupted run: only 2 of 4 partitions, then "crash"
    out_dir = str(tmp_path / "out")
    first = resumable_extract(files, out_dir, partition_size=1, max_partitions=2)
    assert len(first) == 2
    assert set(committed_manifests(out_dir)) == {0, 1}
    mtimes = {
        p: os.path.getmtime(os.path.join(out_dir, "manifest", p))
        for p in os.listdir(os.path.join(out_dir, "manifest"))
    }

    # restart: must process exactly the remaining 2 partitions
    second = resumable_extract(files, out_dir, partition_size=1)
    assert [m["partition_id"] for m in second] == [2, 3]
    # finished partitions untouched (no reprocessing)
    for p, t in mtimes.items():
        assert os.path.getmtime(os.path.join(out_dir, "manifest", p)) == t

    # byte-identical final output vs the uninterrupted run
    assert _digests(out_dir) == ref

    # manifests carry lineage + metrics
    with open(os.path.join(out_dir, "manifest", "part-0000.json")) as f:
        m = json.load(f)
    assert set(m) == {
        "partition_id", "input_files", "input_stats", "row_count", "n_ok",
        "digest", "wall_s", "docs_per_sec",
    }
    assert m["docs_per_sec"] > 0
    assert m["row_count"] == 125


def test_crash_between_rename_and_manifest(tmp_path, sf_dir):
    """Simulated crash window: partition dir renamed but manifest missing
    → rerun reprocesses that partition and commits an identical digest."""
    import shutil

    files = _make_input(tmp_path, sf_dir, n_files=2)
    out_dir = str(tmp_path / "crash")
    resumable_extract(files, out_dir, partition_size=1)
    m_path = os.path.join(out_dir, "manifest", "part-0001.json")
    with open(m_path) as f:
        orig_digest = json.load(f)["digest"]
    os.remove(m_path)  # crash: data present, manifest lost

    redone = resumable_extract(files, out_dir, partition_size=1)
    assert [m["partition_id"] for m in redone] == [1]
    with open(m_path) as f:
        assert json.load(f)["digest"] == orig_digest


def test_changed_input_list_reprocesses(tmp_path, sf_dir):
    """Lineage check: if the input file list changes between runs, a
    committed partition whose pid now maps to DIFFERENT files must be
    reprocessed, not silently skipped (ADVICE r01)."""
    files = _make_input(tmp_path, sf_dir, n_files=4)
    out_dir = str(tmp_path / "lineage")
    resumable_extract(files, out_dir, partition_size=2)
    assert set(committed_manifests(out_dir)) == {0, 1}

    # drop the first file: sorted chunking shifts every pid→files mapping
    shifted = files[1:]
    redone = resumable_extract(shifted, out_dir, partition_size=2)
    assert [m["partition_id"] for m in redone] == [0, 1]
    for m in redone:
        expected = shifted[m["partition_id"] * 2 : m["partition_id"] * 2 + 2]
        assert m["input_files"] == expected

    # unchanged rerun: nothing reprocessed
    assert resumable_extract(shifted, out_dir, partition_size=2) == []


def test_same_relative_names_from_another_cwd_reprocess(tmp_path, sf_dir, monkeypatch):
    """Lineage is kept as absolute paths: the same relative glob run from
    another working directory names different files, so the committed
    partitions are re-extracted from the new content, not served stale."""
    import subprocess
    import sys

    import ai_service_ocr_grading_handler_ray as pkg

    (tmp_path / "a").mkdir()
    _make_input(tmp_path / "a", sf_dir, n_files=2)  # 2 x 250 rows
    b_pages = tmp_path / "b" / "pages"
    b_pages.mkdir(parents=True)
    docs = pq.read_table(f"{sf_dir}/documents.parquet").slice(300, 100)
    for i in range(2):
        pages = docs_to_pages(docs.slice(i * 50, 50))
        pq.write_table(pages, str(b_pages / f"pages-{i}.parquet"))
    out_dir = str(tmp_path / "out")

    # first run: the CLI from a/, in its own process (its Ray workers
    # resolve relative paths against a/)
    root = os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__)))
    subprocess.run(
        [sys.executable, "-m", "ai_service_ocr_grading_handler_ray", "--num-cpus", "1",
         "extract", "--input", "pages/*.parquet", "--out", out_dir,
         "--partition-size", "1"],
        cwd=tmp_path / "a", env={**os.environ, "PYTHONPATH": root},
        check=True, timeout=300,
    )
    monkeypatch.chdir(tmp_path / "b")
    redone = resumable_extract(
        ["pages/pages-0.parquet", "pages/pages-1.parquet"], out_dir, partition_size=1
    )

    assert [m["input_files"] for m in redone] == [
        [str(b_pages / "pages-0.parquet")], [str(b_pages / "pages-1.parquet")]
    ]
    assert len(_digests(out_dir)) == 100  # no stale rows from a/


def test_shrunken_input_with_orphan_partitions_refuses(tmp_path, sf_dir):
    """If the input list shrinks below the committed partition count, the
    orphaned partitions would silently stay in the output — resume must
    refuse instead of serving stale rows."""
    import pytest

    files = _make_input(tmp_path, sf_dir, n_files=4)
    out_dir = str(tmp_path / "orphan")
    resumable_extract(files, out_dir, partition_size=1)
    assert set(committed_manifests(out_dir)) == {0, 1, 2, 3}

    with pytest.raises(RuntimeError, match="beyond the current input"):
        resumable_extract(files[:2], out_dir, partition_size=1)


def test_resumable_extract_warc_inputs(tmp_path):
    """The resumable CLI path works over WARC archives: partitioned by
    archive file, committed with manifests, exact resume."""
    import pyarrow.parquet as pq

    from ai_service_ocr_grading_handler_ray.sources.warc import pages_to_warc_bytes
    from ai_service_ocr_grading_handler_ray.synth import docs_to_pages

    docs = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "text", "lang", "source"],
    )
    files = []
    for i in range(4):
        pages = docs_to_pages(docs.slice(i * 25, 25))
        f = tmp_path / f"crawl-{i}.warc.gz"
        f.write_bytes(pages_to_warc_bytes(pages))
        files.append(str(f))

    out_dir = str(tmp_path / "out")
    first = resumable_extract(
        files, out_dir, partition_size=2, max_partitions=1, input_format="warc"
    )
    assert len(first) == 1 and set(committed_manifests(out_dir)) == {0}
    rest = resumable_extract(
        files, out_dir, partition_size=2, input_format="warc"
    )
    assert len(rest) == 1 and set(committed_manifests(out_dir)) == {0, 1}
    import pyarrow.dataset as pads

    total = pads.dataset(out_dir + "/part=0000", format="parquet").count_rows()
    total += pads.dataset(out_dir + "/part=0001", format="parquet").count_rows()
    assert total == 100


def _write_text_pages(pages, path, fmt):
    """Pages as jsonl/csv: base64 html, warc_ts in epoch microseconds."""
    import base64

    import pandas as pd

    rows = pages.to_pylist()
    df = pd.DataFrame({
        "url": [r["url"] for r in rows],
        "warc_ts": [int(pd.Timestamp(r["warc_ts"]).value // 1000) for r in rows],
        "html": [base64.b64encode(r["html"]).decode() for r in rows],
        "text": [r["text"] for r in rows],
        "lang": [r["lang"] for r in rows],
    })
    if fmt == "jsonl":
        df.to_json(path, orient="records", lines=True)
    else:
        df.to_csv(path, index=False)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_resumable_extract_text_inputs(tmp_path, sf_dir, fmt):
    """Resume over jsonl/csv inputs: the ``path`` column survives the
    base64 decode, and the partitions commit the same digests as the same
    pages given as Parquet."""
    files = _make_input(tmp_path, sf_dir)
    text_files = []
    for f in files:
        path = f.replace(".parquet", f".{fmt}")
        _write_text_pages(pq.read_table(f), path, fmt)
        text_files.append(path)

    ref = resumable_extract(files, str(tmp_path / "ref"), partition_size=1)
    out_dir = str(tmp_path / "out")
    first = resumable_extract(
        text_files, out_dir, partition_size=1, max_partitions=2, input_format=fmt
    )
    rest = resumable_extract(text_files, out_dir, partition_size=1, input_format=fmt)
    assert [m["partition_id"] for m in first + rest] == [0, 1, 2, 3]
    assert [m["input_files"] for m in first + rest] == [[f] for f in text_files]
    assert [m["digest"] for m in first + rest] == [m["digest"] for m in ref]
    assert _digests(out_dir) == _digests(str(tmp_path / "ref"))


def test_worker_kill_midrun_retries_to_identical_output(tmp_path, sf_dir, monkeypatch):
    """Failure injection (VERDICT r4 #5): a worker process dies MID-TASK
    during extraction — Ray retries the failed block task and the manifest
    protocol still commits byte-identical, no-duplicate output."""
    files = _make_input(tmp_path, sf_dir)

    ref_dir = str(tmp_path / "ref")
    resumable_extract(files, ref_dir, partition_size=2)
    ref = _digests(ref_dir)

    # kill-once poison: the first worker to claim the marker dies hard
    # mid-batch (os._exit skips all cleanup, like an OOM kill); the
    # retried task finds the marker claimed and proceeds normally
    marker = str(tmp_path / "kill-once")
    with open(marker, "w") as f:
        f.write("armed")

    from ai_service_ocr_grading_handler_ray.stages import extract as extract_mod

    orig = extract_mod.extract_batch_task

    def killing_extract(batch, **kw):
        try:
            os.rename(marker, marker + ".claimed")  # atomic claim
            os._exit(1)
        except OSError:
            pass  # already claimed -> normal path
        return orig(batch, **kw)

    monkeypatch.setattr(extract_mod, "extract_batch_task", killing_extract)
    out_dir = str(tmp_path / "killed")
    manifests = resumable_extract(files, out_dir, partition_size=2)
    monkeypatch.undo()

    assert os.path.exists(marker + ".claimed")  # the kill really fired
    assert [m["partition_id"] for m in manifests] == [0, 1]
    assert _digests(out_dir) == ref  # byte-identical, no dup/missing rows


def test_empty_input_file_commits_zero_row_partition(tmp_path, sf_dir):
    """A 0-row input file gets no writes: its partition still commits,
    with 0 rows and the digest of no rows — between two non-empty
    partitions and as the last one."""
    import hashlib

    files = _make_input(tmp_path, sf_dir)
    empty = pq.read_table(files[0]).slice(0, 0)
    for f in (files[1], files[3]):
        pq.write_table(empty, f)

    out_dir = str(tmp_path / "out")
    done = resumable_extract(files, out_dir, partition_size=1)
    assert [m["row_count"] for m in done] == [125, 0, 125, 0]
    no_rows = hashlib.sha256(b"").hexdigest()
    assert [m["digest"] == no_rows for m in done] == [False, True, False, True]
    assert os.listdir(os.path.join(out_dir, "part=0001")) == []
    assert len(_digests(out_dir)) == 250
    assert resumable_extract(files, out_dir, partition_size=1) == []


def test_duplicated_input_path_extracted_once(tmp_path, sf_dir, monkeypatch):
    """The same file named twice (absolute and ./relative) is one input:
    every (url, warc_ts) appears once in the output."""
    files = _make_input(tmp_path, sf_dir, n_files=2)
    monkeypatch.chdir(os.path.dirname(files[0]))
    out_dir = str(tmp_path / "out")
    done = resumable_extract(
        [files[0], "./" + os.path.basename(files[0]), files[1]], out_dir, partition_size=1
    )
    assert [m["input_files"] for m in done] == [[files[0]], [files[1]]]

    import glob

    written = glob.glob(os.path.join(out_dir, "part=*", "*.parquet"))
    t = pads.dataset(written, format="parquet").to_table(columns=["url", "warc_ts"])
    keys = list(zip(t["url"].to_pylist(), t["warc_ts"].to_pylist()))
    assert len(keys) == len(set(keys)) == 500


def test_stray_tmp_file_deleted_before_rename(tmp_path, sf_dir, monkeypatch):
    """A file in part=NNNN.tmp that no writer record names (the output of
    a failed task attempt) is deleted before the partition is renamed."""
    files = _make_input(tmp_path, sf_dir, n_files=2)
    ref_dir = str(tmp_path / "ref")
    resumable_extract(files, ref_dir, partition_size=1)

    out_dir = str(tmp_path / "out")
    stray = pq.read_table(next(
        os.path.join(ref_dir, "part=0000", n) for n in os.listdir(os.path.join(ref_dir, "part=0000"))
    ))
    commit = manifest.run_partition

    def commit_with_stray(pid, files, out_dir, records, since, **kw):
        pq.write_table(stray, os.path.join(out_dir, f"part={pid:04d}.tmp", "stray.parquet"))
        return commit(pid, files, out_dir, records, since, **kw)

    monkeypatch.setattr(manifest, "run_partition", commit_with_stray)
    resumable_extract(files, out_dir, partition_size=1)
    for part in ("part=0000", "part=0001"):
        assert "stray.parquet" not in os.listdir(os.path.join(out_dir, part))
    assert _digests(out_dir) == _digests(ref_dir)


def test_footer_row_count_mismatch_refuses_commit(tmp_path, sf_dir, monkeypatch):
    """When a written file's Parquet footer disagrees with its writer
    record, the commit raises before the rename: no part=NNNN directory,
    no manifest.  A rerun commits the partition."""
    files = _make_input(tmp_path, sf_dir, n_files=2)
    out_dir = str(tmp_path / "out")
    commit = manifest.run_partition

    def miscounted(pid, files, out_dir, records, since, **kw):
        if pid == 1:
            records = [{**records[0], "rows": records[0]["rows"] + 1}, *records[1:]]
        return commit(pid, files, out_dir, records, since, **kw)

    monkeypatch.setattr(manifest, "run_partition", miscounted)
    with pytest.raises(RuntimeError, match="not committed"):
        resumable_extract(files, out_dir, partition_size=1)
    assert not os.path.exists(os.path.join(out_dir, "part=0001"))
    assert set(committed_manifests(out_dir)) == {0}

    monkeypatch.undo()
    redone = resumable_extract(files, out_dir, partition_size=1)
    assert [m["partition_id"] for m in redone] == [1]
    assert len(_digests(out_dir)) == 500


def test_one_execution_per_call(tmp_path, sf_dir, monkeypatch):
    """All pending partitions run in ONE Ray Data execution; nothing
    pending builds none.  The call leaves the global DataContext's
    preserve_order as it found it."""
    from ray.data import DataContext

    files = _make_input(tmp_path, sf_dir)
    calls = []
    build = manifest.extract_pages

    def counted(pages):
        calls.append(pages)
        return build(pages)

    monkeypatch.setattr(manifest, "extract_pages", counted)
    before = DataContext.get_current().execution_options.preserve_order
    out_dir = str(tmp_path / "out")
    assert len(resumable_extract(files, out_dir, partition_size=1)) == 4
    assert len(calls) == 1
    assert DataContext.get_current().execution_options.preserve_order == before
    assert resumable_extract(files, out_dir, partition_size=1) == []
    assert len(calls) == 1


def test_one_read_task_spans_all_partitions(tmp_path, sf_dir, monkeypatch):
    """At 1 CPU the four ~125-row files are one read group: one fused task
    reads, extracts and writes all four partitions, and every one commits
    with the digest of its rows' extraction."""
    import hashlib

    from ai_service_ocr_grading_handler_ray.sources import readers
    from ai_service_ocr_grading_handler_ray.stages.classify import classify_payload_kind
    from ai_service_ocr_grading_handler_ray.stages.extract import ExtractActor

    files = _make_input(tmp_path, sf_dir)
    monkeypatch.setattr(readers, "_cpus", lambda: 1)
    assert readers.PagesDatasource(files).read_tasks() == 1
    done = resumable_extract(files, str(tmp_path / "out"), partition_size=1)
    assert [m["partition_id"] for m in done] == [0, 1, 2, 3]
    engine = ExtractActor()
    for m, f in zip(done, files):
        rows = engine(classify_payload_kind(pq.read_table(f)))
        hashes = sorted(rows["content_sha256"].to_pylist())
        assert m["row_count"] == rows.num_rows
        assert m["digest"] == hashlib.sha256("".join(hashes).encode()).hexdigest()


def _rewrite_input(files, out_dir):
    """Regenerate input 2 in place with other rows and a new mtime."""
    pages = pq.read_table(files[3])
    pq.write_table(pages.slice(0, 60), files[2])
    st = os.stat(files[2])
    os.utime(files[2], ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))


def _rewrite_input_same_stat(files, out_dir):
    """Input 2 rewritten twice: first uncompressed and without dictionary
    pages (re-extracted as a rewrite), then with the last character of its
    largest url changed, which keeps the file size, and its mtime put
    back: only the footer's column statistics tell the two apart."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def write(pages):
        pq.write_table(pages, files[2], compression="NONE", use_dictionary=False)

    pages = pq.read_table(files[2])
    write(pages)
    resumable_extract(files, out_dir, partition_size=1)
    st = os.stat(files[2])
    largest = pc.max(pages["url"]).as_py()
    urls = [u[:-1] + chr(ord(u[-1]) + 1) if u == largest else u for u in pages["url"].to_pylist()]
    write(pages.set_column(pages.column_names.index("url"), "url", pa.array(urls, pa.string())))
    assert os.stat(files[2]).st_size == st.st_size
    os.utime(files[2], ns=(st.st_atime_ns, st.st_mtime_ns))


def _truncate_output(files, out_dir):
    part = os.path.join(out_dir, "part=0002")
    path = os.path.join(part, sorted(os.listdir(part))[0])
    os.truncate(path, os.path.getsize(path) // 2)


def _delete_output(files, out_dir):
    import shutil

    shutil.rmtree(os.path.join(out_dir, "part=0002"))


def _drop_input_stats(files, out_dir):
    path = os.path.join(out_dir, "manifest", "part-0002.json")
    with open(path) as f:
        m = json.load(f)
    del m["input_stats"]
    with open(path, "w") as f:
        json.dump(m, f)


@pytest.mark.parametrize(
    "damage",
    [_rewrite_input, _rewrite_input_same_stat, _truncate_output, _delete_output,
     _drop_input_stats],
    ids=["input_rewritten_in_place", "input_rewritten_same_stat", "output_truncated",
         "output_deleted", "manifest_without_input_stats"],
)
def test_resume_reextracts_only_the_stale_partition(tmp_path, sf_dir, damage):
    """A committed partition whose input changed under the same path, whose
    files no longer hold its manifest's rows, or whose manifest predates
    ``input_stats`` is re-extracted; the others are skipped, and the output
    equals a fresh run's."""
    files = _make_input(tmp_path, sf_dir)
    out_dir = str(tmp_path / "out")
    resumable_extract(files, out_dir, partition_size=1)
    damage(files, out_dir)

    redone = resumable_extract(files, out_dir, partition_size=1)
    assert [m["partition_id"] for m in redone] == [2]
    fresh = resumable_extract(files, str(tmp_path / "fresh"), partition_size=1)
    assert redone[0]["digest"] == fresh[2]["digest"]
    assert redone[0]["input_stats"] == fresh[2]["input_stats"]
    assert _digests(out_dir) == _digests(str(tmp_path / "fresh"))
    assert resumable_extract(files, out_dir, partition_size=1) == []


def test_stale_partition_uncommitted_before_reextract(tmp_path, sf_dir, monkeypatch):
    """A partition that is re-extracted loses its manifest before its data:
    a crash before the new commit leaves no manifest over rows that are
    gone, so the rollup counts only the partitions on disk."""
    files = _make_input(tmp_path, sf_dir)
    out_dir = str(tmp_path / "out")
    resumable_extract(files, out_dir, partition_size=1)
    _rewrite_input(files, out_dir)

    def crash(*args, **kw):
        raise RuntimeError("crash before commit")

    monkeypatch.setattr(manifest, "run_partition", crash)
    with pytest.raises(RuntimeError, match="crash before commit"):
        resumable_extract(files, out_dir, partition_size=1)
    assert set(committed_manifests(out_dir)) == {0, 1, 3}
    assert manifest.metrics_rollup(out_dir)["rows"] == 375
