"""Per-partition checkpoint manifests → exact resume (SURVEY.md §4).

The reference has no resume; idempotence is delegated to the sink filter
key ``(studentId, scanId, queId)`` + ``status:'processed'`` marker
(``utils.py:121-123``).  At 100 TB a job-level retry must not redo
finished work, so this engine partitions the *input* into fixed file
groups and commits a manifest row per finished partition:

    out_dir/
      part=0000/ *.parquet            (atomic: written to .tmp, renamed)
      manifest/part-0000.json         {partition_id, input_files, row_count,
                                       n_ok, digest, wall_s, docs_per_sec}
                                      (written last)

``digest`` is the sha256 of the sorted per-row ``content_sha256`` values —
an order-insensitive content fingerprint, so two runs producing the same
rows in any order commit identical manifests.  ``committed_manifests`` is
the one loader of the manifest set, used by resume and the metrics rollup.
On restart, a partition with a committed manifest is skipped when its
``input_files`` equal the partition's current files (absolute paths, so a
relative glob run from another directory does not match); a crash between
data rename and manifest write is safe because the rerun overwrites the
partition directory before re-renaming.

Each partition is one lazy Ray Data pipeline (read → classify → extract →
write); partitions run sequentially on the driver but every stage inside a
partition is fully parallel, so with partition_size × file_size ≫ cluster
throughput quantum the sequential loop costs nothing at scale.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import pyarrow.compute as pc
import pyarrow.dataset as pads

from ..pipelines.extract import extract_pages
from ..sources.readers import read_pages


def _partitions(input_files: list[str], partition_size: int) -> list[list[str]]:
    files = sorted(input_files)
    return [files[i : i + partition_size] for i in range(0, len(files), partition_size)]


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


def _rollup(part_dir: str) -> tuple[int, int, str]:
    """(row_count, n_ok, order-insensitive digest) from written parquet —
    reads only the two small metadata columns back."""
    tbl = pads.dataset(part_dir, format="parquet").to_table(
        columns=["content_sha256", "status"]
    )
    hashes = sorted(tbl["content_sha256"].to_pylist())
    n_ok = tbl.filter(pc.equal(tbl["status"], "ok")).num_rows
    digest = hashlib.sha256("".join(hashes).encode()).hexdigest()
    return tbl.num_rows, n_ok, digest


def run_partition(pid: int, files: list[str], out_dir: str, input_format: str) -> dict:
    """Process one input partition end-to-end, atomically.  The manifest
    records lineage (input files) AND per-partition metrics (wall seconds,
    docs/sec) — the engine's replacement for dashboard counters."""
    part_dir = os.path.join(out_dir, f"part={pid:04d}")
    tmp_dir = part_dir + ".tmp"
    if os.path.isdir(tmp_dir):
        shutil.rmtree(tmp_dir)
    if os.path.isdir(part_dir):  # crashed after rename, before manifest
        shutil.rmtree(part_dir)

    t0 = time.perf_counter()
    result = extract_pages(read_pages(files, fmt=input_format))
    result.write_parquet(tmp_dir)
    wall_s = time.perf_counter() - t0
    os.replace(tmp_dir, part_dir)

    rows, n_ok, digest = _rollup(part_dir)
    manifest = {
        "partition_id": pid,
        "input_files": files,
        "row_count": rows,
        "n_ok": n_ok,
        "digest": digest,
        "wall_s": round(wall_s, 3),
        "docs_per_sec": round(rows / wall_s, 1) if wall_s > 0 else 0.0,
    }
    mdir = os.path.join(out_dir, "manifest")
    os.makedirs(mdir, exist_ok=True)
    mtmp = os.path.join(mdir, f"part-{pid:04d}.json.tmp")
    with open(mtmp, "w") as f:
        json.dump(manifest, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(mtmp, os.path.join(mdir, f"part-{pid:04d}.json"))
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
    parts = _partitions([os.path.abspath(f) for f in input_files], partition_size)
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
    out: list[dict] = []
    for pid, files in enumerate(parts):
        # lineage check: a committed partition is only skippable if it
        # covers the SAME input files — if the input list changed, the
        # sorted chunking shifts the pid→files mapping and the old
        # partition silently holds stale rows.  Reprocess on mismatch.
        if pid in done and done[pid].get("input_files") == files:
            continue
        out.append(run_partition(pid, files, out_dir, input_format))
        if max_partitions is not None and len(out) >= max_partitions:
            break
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
