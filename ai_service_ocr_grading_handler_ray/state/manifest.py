"""Per-partition checkpoint manifests → exact resume (SURVEY.md §4).

The reference has no resume; idempotence is delegated to the sink filter
key ``(studentId, scanId, queId)`` + ``status:'processed'`` marker
(``utils.py:121-123``).  At 100 TB a job-level retry must not redo
finished work, so this engine partitions the *input* into fixed file
groups and commits a manifest row per finished partition:

    out_dir/
      part=0000/ *.parquet            (atomic: written to .tmp, renamed)
      manifest/part-0000.json         {partition_id, input_files,
                                       input_stats, row_count, n_ok,
                                       digest, wall_s, docs_per_sec}
                                      (written last)

``digest`` is the sha256 of the sorted per-row ``content_sha256`` values —
an order-insensitive content fingerprint, so two runs producing the same
rows in any order commit identical manifests.  ``committed_manifests`` is
the one loader of the manifest set, used by resume and the metrics rollup.
On restart, a partition with a committed manifest is skipped only when

- its ``input_files`` equal the partition's current files (absolute
  paths, so a relative glob run from another directory does not match; a
  path given twice is read once);
- its ``input_stats`` (``[size, mtime_ns]`` per input, taken before the
  read, plus the SHA-256 of a Parquet input's footer bytes) equal the
  files' current ones, so an input rewritten in place is re-extracted.
  Unseen: a change that keeps size, mtime and (Parquet) the footer with
  its row counts, offsets and column statistics.  A manifest without the
  key, or without footer digests, does not match;
- the Parquet footers of its ``part=NNNN`` files add up to its
  ``row_count`` (metadata only), so a deleted, truncated or unreadable
  committed file is re-extracted.

A partition that is not skipped loses its manifest first, then its
directories; a crash between data rename and manifest write is safe
because the rerun clears the partition directory before extracting.

One ``resumable_extract`` call is ONE lazy Ray Data execution over every
pending partition's files: read (``include_paths=True``) → extract (the
kind sniff included) → a writer ``map_batches`` that writes each
partition's rows of a batch to ``part=NNNN.tmp/<uuid>.parquet`` and
returns a small record (pid, file, rows, n_ok, row digests).  The driver
iterates the records with ``preserve_order`` set on that dataset's own
context (the global ``DataContext`` is untouched), so records arrive in
input order and pids ascend: when a record for a later pid arrives, every
earlier pending partition is complete, and at the end of the stream all
of them are.
``run_partition`` then commits it: delete tmp files no record names (a
failed task attempt's output), check the Parquet footer row counts
against the records, rename ``.tmp`` → ``part=NNNN``, write the manifest.
On a multi-core host ``preserve_order`` holds back blocks that finish
ahead of an earlier one; N → 4N scaling of this path is not measured.
The read (``PagesDatasource``, every input format), extract and writer
run as one fused task per ~16 MiB group of whole input files, so one
task can span several partitions, and no partition is committed before
the task holding its last row has written it: a crash loses at most the
in-flight tasks (on one CPU, a call over under 16 MiB of pages is one
task).
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import shutil
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..pipelines.extract import extract_pages
from ..sources.readers import read_pages

# one record per file the writer commits to a partition's tmp dir
_RECORD_SCHEMA = pa.schema([
    ("pid", pa.int64()),
    ("file", pa.string()),
    ("rows", pa.int64()),
    ("n_ok", pa.int64()),
    ("digests", pa.list_(pa.string())),
])


def _partitions(input_files: list[str], partition_size: int) -> list[list[str]]:
    files = sorted(input_files)
    return [files[i : i + partition_size] for i in range(0, len(files), partition_size)]


def _part_dir(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, f"part={pid:04d}")


def _manifest_path(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, "manifest", f"part-{pid:04d}.json")


def _input_stats(files: list[str], input_format: str) -> list[list]:
    stats = [[st.st_size, st.st_mtime_ns] for st in map(os.stat, files)]
    if input_format == "parquet":
        stats = [stat + [_footer_sha256(path)] for stat, path in zip(stats, files)]
    return stats


def _footer_sha256(path: str) -> str:
    """SHA-256 of a Parquet file's footer: the ``len`` bytes before its
    trailing ``<len: u32 LE>PAR1``."""
    with open(path, "rb") as f:
        f.seek(-8, os.SEEK_END)
        n = int.from_bytes(f.read(4), "little")
        f.seek(-8 - n, os.SEEK_END)
        return hashlib.sha256(f.read(n)).hexdigest()


def _rows_on_disk(out_dir: str, pid: int) -> int | None:
    """Rows in a committed partition's files by their Parquet footers, or
    None when its directory or a footer cannot be read."""
    part_dir = _part_dir(out_dir, pid)
    try:
        return sum(
            pq.read_metadata(os.path.join(part_dir, name)).num_rows
            for name in os.listdir(part_dir) if name.endswith(".parquet")
        )
    except (OSError, ValueError):  # missing, or not a Parquet file any more
        return None


def committed_manifests(out_dir: str) -> dict[int, dict]:
    """partition_id → committed manifest, for every partition of
    ``out_dir`` whose manifest was written (the commit point)."""
    mdir = os.path.join(out_dir, "manifest")
    out: dict[int, dict] = {}
    for name in sorted(os.listdir(mdir)) if os.path.isdir(mdir) else []:
        if name.startswith("part-") and name.endswith(".json"):
            with open(os.path.join(mdir, name)) as f:
                out[int(name[5:-5])] = json.load(f)
    return out


def _write_partitions(batch: pa.Table, out_dir: str, pid_of: dict[str, int]) -> pa.Table:
    """Writer stage (runs in the map task): each run of one partition's
    rows in ``batch`` → a new Parquet file in that partition's tmp dir
    (temp name, then ``os.replace``); returns one record per file.  The
    tmp dirs exist already, so a write for a partition that has been
    committed fails instead of creating a stray directory."""
    pids = np.array([pid_of[p] for p in batch["path"].to_pylist()], dtype=np.int64)
    rows = batch.drop_columns(["path"])
    starts = np.flatnonzero(np.diff(pids, prepend=-1))
    recs: dict[str, list] = {name: [] for name in _RECORD_SCHEMA.names}
    for lo, hi in zip(starts, np.append(starts[1:], len(pids))):
        part = rows.slice(lo, hi - lo)
        pid = int(pids[lo])
        name = f"{uuid.uuid4().hex}.parquet"
        path = os.path.join(_part_dir(out_dir, pid) + ".tmp", name)
        pq.write_table(part, path + ".inflight")
        os.replace(path + ".inflight", path)
        recs["pid"].append(pid)
        recs["file"].append(name)
        recs["rows"].append(part.num_rows)
        recs["n_ok"].append(pc.sum(pc.equal(part["status"], "ok")).as_py() or 0)
        recs["digests"].append(part["content_sha256"].to_pylist())
    return pa.table(recs, schema=_RECORD_SCHEMA)


def run_partition(
    pid: int,
    files: list[str],
    out_dir: str,
    records: list[dict],
    since: float,
    *,
    input_stats: list[list],
) -> dict:
    """Commit one partition whose rows the execution has finished writing,
    atomically.  The manifest records lineage (input files and their
    ``input_stats`` from before the read) AND per-partition metrics — the
    engine's replacement for dashboard counters; ``wall_s`` runs from
    ``since`` (the previous commit, or the execution start), so one call's
    walls add up to its execution wall."""
    part_dir = _part_dir(out_dir, pid)
    tmp_dir = part_dir + ".tmp"
    rows_of = {r["file"]: r["rows"] for r in records}
    for name in os.listdir(tmp_dir):
        if name not in rows_of:  # output of a failed task attempt
            os.remove(os.path.join(tmp_dir, name))
    for name, rows in rows_of.items():
        on_disk = pq.read_metadata(os.path.join(tmp_dir, name)).num_rows
        if on_disk != rows:
            raise RuntimeError(
                f"partition {pid}: {name} holds {on_disk} rows, its writer "
                f"reported {rows}; not committed"
            )
    os.replace(tmp_dir, part_dir)

    rows = sum(rows_of.values())
    hashes = sorted(h for r in records for h in r["digests"])
    wall_s = time.perf_counter() - since
    manifest = {
        "partition_id": pid,
        "input_files": files,
        "input_stats": input_stats,
        "row_count": rows,
        "n_ok": sum(r["n_ok"] for r in records),
        "digest": hashlib.sha256("".join(hashes).encode()).hexdigest(),
        "wall_s": round(wall_s, 3),
        "docs_per_sec": round(rows / wall_s, 1) if wall_s > 0 else 0.0,
    }
    mpath = _manifest_path(out_dir, pid)
    os.makedirs(os.path.dirname(mpath), exist_ok=True)
    with open(mpath + ".tmp", "w") as f:
        json.dump(manifest, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(mpath + ".tmp", mpath)
    return manifest


def resumable_extract(
    input_files: list[str],
    out_dir: str,
    *,
    partition_size: int = 4,
    input_format: str = "parquet",
    max_partitions: int | None = None,
) -> list[dict]:
    """Run (or resume) the flagship over ``input_files``; returns the
    manifests of partitions processed *this* call.  ``max_partitions``
    exists for the kill/restart test."""
    os.makedirs(out_dir, exist_ok=True)
    done = committed_manifests(out_dir)
    parts = _partitions(list({os.path.abspath(f) for f in input_files}), partition_size)
    # a committed partition BEYOND the current partition count holds rows
    # from inputs no longer in the job — its files would silently remain
    # part of the output dataset; refuse rather than serve stale rows
    orphans = {pid for pid in done if pid >= len(parts)}
    if orphans:
        raise RuntimeError(
            f"{out_dir} contains committed partitions {sorted(orphans)} beyond "
            f"the current input's {len(parts)} partitions — the input list "
            "shrank; use a fresh output directory (or delete the orphaned "
            "part=NNNN dirs and manifests)"
        )
    # lineage check: a committed partition is only skippable if it covers
    # the SAME input files, unchanged — if the input list changed, the
    # sorted chunking shifts the pid→files mapping, and a file rewritten in
    # place holds other rows — and its committed files still hold its rows.
    # Reprocess on mismatch.
    stats = [_input_stats(files, input_format) for files in parts]
    pending = [
        (pid, files) for pid, files in enumerate(parts)
        if not (
            pid in done
            and done[pid].get("input_files") == files
            and done[pid].get("input_stats") == stats[pid]
            and _rows_on_disk(out_dir, pid) == done[pid]["row_count"]
        )
    ][:max_partitions]
    if not pending:
        return []
    for pid, _ in pending:
        # uncommit first: a crash below leaves no manifest over stale data
        with contextlib.suppress(FileNotFoundError):
            os.remove(_manifest_path(out_dir, pid))
        part_dir = _part_dir(out_dir, pid)
        shutil.rmtree(part_dir + ".tmp", ignore_errors=True)
        # crashed after rename, before manifest
        shutil.rmtree(part_dir, ignore_errors=True)
        # up front: a partition whose inputs hold no rows gets no writes
        os.makedirs(part_dir + ".tmp")

    pid_of = {f: pid for pid, files in pending for f in files}
    written = extract_pages(
        read_pages(list(pid_of), fmt=input_format, include_paths=True)
    ).map_batches(
        _write_partitions,
        batch_format="pyarrow",
        zero_copy_batch=True,
        fn_kwargs={"out_dir": out_dir, "pid_of": pid_of},
    )
    # the commit rule needs records in input order; set on this dataset's
    # own context copy, never the global DataContext
    written.context.execution_options.preserve_order = True

    out: list[dict] = []
    since = time.perf_counter()
    # closing: a commit that raises shuts the execution down at once
    with contextlib.closing(iter(written.iter_rows())) as rows:
        groups = itertools.groupby(rows, key=lambda r: r["pid"])
        group = next(groups, None)
        for pid, files in pending:
            records: list[dict] = []
            if group is not None and group[0] == pid:
                # draining the group reads the next pid's first record (or
                # the stream's end): only then is this partition complete
                records = list(group[1])
                group = next(groups, None)
            if group is not None and group[0] <= pid:
                raise RuntimeError(f"records of partition {group[0]} arrived out of order")
            out.append(
                run_partition(pid, files, out_dir, records, since, input_stats=stats[pid])
            )
            since = time.perf_counter()
    return out


def metrics_rollup(out_dir: str) -> dict:
    """A7 global rollup over committed partition manifests: totals +
    aggregate docs/sec (the job-level metrics surface)."""
    manifests = committed_manifests(out_dir)
    rows = sum(m["row_count"] for m in manifests.values())
    wall = sum(m.get("wall_s", 0.0) for m in manifests.values())
    return {
        "partitions": len(manifests),
        "partition_ids": sorted(manifests),
        "rows": rows,
        "n_ok": sum(m["n_ok"] for m in manifests.values()),
        "sum_wall_s": round(wall, 3),
        "docs_per_sec": round(rows / wall, 1) if wall else 0.0,
    }
