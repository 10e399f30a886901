"""Per-layer tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own code, around calls into each
layer's public functions; the program itself is unchanged.  Two sides:

- Worker side: ``traced_classify`` and ``traced_extract_batch`` replace the
  two ``map_batches`` functions of ``extract_pages``; each call of
  ``traced_extract_batch`` wraps the extraction kernels (``html_extract``,
  ``pdf_layout``, ``decode_pdf_glyphs``, ``ocr``, ``sha256_hex``) for its
  own batch and restores them after, so untraced jobs in the same worker
  processes run unprobed.  ``TracedParquetDatasource`` / ``TracedParquetDatasink``
  time the Parquet read and write inside Ray's read and write tasks.
  Each task appends its counter deltas as one JSON line to
  ``$PERFBENCH_TRACE_DIR/<pid>.jsonl``; the driver sums and deletes them
  after each iteration (``collect``).
- Driver side: ``installed`` swaps those functions into the modules the
  pipeline is built from, and ``StateProbe`` times ``run_partition`` and
  keeps the datasets each partition builds, for Ray Data's operator stats.

Self times: a span's time minus the part its child spans cover.  The sink
and read spans exclude time spent waiting on their input iterators, and
``extract.self_s`` is the batch time minus its kernels and digests.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import defaultdict

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import dataset as _dataset_mod
from ray.data import read_api as _read_api
from ray.data._internal.datasource.parquet_datasink import ParquetDatasink
from ray.data._internal.datasource.parquet_datasource import ParquetDatasource
from ray.data.datasource.datasource import ReadTask

from ai_service_ocr_grading_handler_ray.pipelines import extract as _pipeline
from ai_service_ocr_grading_handler_ray.stages import extract as _extract
from ai_service_ocr_grading_handler_ray.stages import ocr as _ocr
from ai_service_ocr_grading_handler_ray.stages.classify import classify_payload_kind
from ai_service_ocr_grading_handler_ray.state import manifest as _manifest

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_extract_batch_task = _extract.extract_batch_task
_now = time.perf_counter

# Counters of the current batch in this worker process.  Module-level
# because the kernel wrappers are module functions the engine looks up.
_counts: dict[str, float] = defaultdict(float)


def _emit(record: dict[str, float]) -> None:
    path = os.path.join(os.environ[TRACE_DIR_ENV], f"{os.getpid()}.jsonl")
    with open(path, "a") as f:
        f.write(json.dumps(record) + "\n")


def collect(trace_dir: str) -> dict[str, float]:
    """Sum and delete every record written since the last call."""
    total: dict[str, float] = defaultdict(float)
    for name in os.listdir(trace_dir):
        path = os.path.join(trace_dir, name)
        with open(path) as f:
            for line in f:
                for k, v in json.loads(line).items():
                    total[k] += v
        os.remove(path)
    return dict(total)


# --- worker side: kernel probes ---------------------------------------------

def _probe(fn, prefix_s: str, rows: str | None = None, size=None):
    def wrapper(*args):
        t = _now()
        out = fn(*args)
        _counts[prefix_s] += _now() - t
        if rows:
            _counts[rows] += 1
        if size:
            k, v = size(args, out)
            _counts[k] += v
        return out

    return wrapper


# (owner, attribute, plain kernel, probed kernel)
_KERNELS = [
    (owner, name, getattr(owner, name), _probe(getattr(owner, name), *spec))
    for owner, name, spec in [
        (_extract, "extract_html_fused", ("html_extract.s", "html_extract.rows",
                                          lambda a, _o: ("html_extract.mb", len(a[0]) / 1e6))),
        (_extract, "decode_pdf_glyphs", ("pdf_layout.decode_s", None,
                                         lambda _a, o: ("pdf_layout.glyphs", len(o)))),
        (_extract, "parse_pdf_layout", ("pdf_layout.xycut_s", "pdf_layout.rows")),
        (_extract, "sha256_hex", ("extract.digest_s",)),
        (_ocr.OcrEngine, "recognize", ("ocr.s", "ocr.rows")),
    ]
]
# Engines built while the probes are in: an engine keeps the html kernel it
# was built with, so traced and untraced batches must not share engines.
_TRACED_ENGINES: dict = {}


def traced_classify(batch: pa.Table) -> pa.Table:
    t = _now()
    out = classify_payload_kind(batch)
    _emit({"classify.s": _now() - t, "classify.rows": batch.num_rows})
    return out


def traced_extract_batch(batch: pa.Table, **kwargs) -> pa.Table:
    """``extract_batch_task`` with the kernel probes in for this batch only,
    so untraced batches in the same worker run the plain kernels."""
    engines = _extract._TASK_ENGINE
    _extract._TASK_ENGINE = _TRACED_ENGINES
    for owner, name, _plain, probed in _KERNELS:
        setattr(owner, name, probed)
    _counts.clear()
    try:
        t = _now()
        out = _extract_batch_task(batch, **kwargs)
        _counts["extract.s"] += _now() - t
    finally:
        for owner, name, plain, _probed in _KERNELS:
            setattr(owner, name, plain)
        _extract._TASK_ENGINE = engines
    _counts["extract.rows"] += out.num_rows
    _counts["extract.ok"] += pc.sum(pc.equal(out["status"], "ok")).as_py() or 0
    _emit(dict(_counts))
    return out


# --- worker side: Parquet read and write ------------------------------------

def _traced_read(read_fn):
    def read():
        it = iter(read_fn())
        while True:
            t = _now()
            try:
                block = next(it)
            except StopIteration:
                _emit({"sources.read_s": _now() - t})
                return
            _emit({"sources.read_s": _now() - t, "sources.read_mb": block.nbytes / 1e6})
            yield block

    return read


class TracedParquetDatasource(ParquetDatasource):
    def get_read_tasks(self, *args, **kwargs) -> list[ReadTask]:
        return [
            ReadTask(_traced_read(t.read_fn), t.metadata, schema=t.schema)
            for t in super().get_read_tasks(*args, **kwargs)
        ]


class TracedParquetDatasink(ParquetDatasink):
    def write(self, blocks, ctx) -> None:
        waited = 0.0

        def pull():
            nonlocal waited
            it = iter(blocks)
            while True:
                t = _now()
                try:
                    block = next(it)
                except StopIteration:
                    waited += _now() - t
                    return
                waited += _now() - t
                yield block

        t = _now()
        super().write(pull(), ctx)
        _emit({"sink.write_s": _now() - t - waited})


# --- driver side -------------------------------------------------------------

class StateProbe:
    """Times each ``run_partition`` call and keeps the datasets each
    partition builds, so their operator stats can be read afterwards."""

    def __init__(self) -> None:
        self.partition_s: list[float] = []
        self.datasets: list = []
        self._run_partition = _manifest.run_partition
        self._extract_pages = _manifest.extract_pages

    def run_partition(self, *args, **kwargs) -> dict:
        t = _now()
        out = self._run_partition(*args, **kwargs)
        self.partition_s.append(_now() - t)
        return out

    def extract_pages(self, *args, **kwargs):
        ds = self._extract_pages(*args, **kwargs)
        self.datasets.append(ds)
        return ds


@contextlib.contextmanager
def installed(state: StateProbe | None = None):
    """Build pipelines from the traced functions while the block runs."""
    patches = [
        (_pipeline, "classify_payload_kind", traced_classify),
        (_extract, "extract_batch_task", traced_extract_batch),
        (_read_api, "ParquetDatasource", TracedParquetDatasource),
        (_dataset_mod, "ParquetDatasink", TracedParquetDatasink),
    ]
    if state is not None:
        patches += [
            (_manifest, "run_partition", state.run_partition),
            (_manifest, "extract_pages", state.extract_pages),
        ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, fn in patches:
            setattr(mod, name, fn)
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def op_stats(ds) -> dict[str, float]:
    """Task wall seconds per Ray Data operator of an executed, written
    dataset, plus the job's total time (``job_s``).  The plan has two
    operators: the Parquet read and the fused classify → extract → write."""
    summary = (getattr(ds, "_write_ds", None) or ds)._get_stats_summary()
    out = {"ray.op.read.task_wall_s": 0.0, "ray.op.map_write.task_wall_s": 0.0}
    stack = [summary]
    while stack:
        s = stack.pop()
        stack.extend(s.parents or [])
        for op in s.operators_stats or []:
            key = "read" if op.operator_name.startswith("Read") else "map_write"
            out[f"ray.op.{key}.task_wall_s"] += float((op.wall_time or {}).get("sum", 0.0))
    out["job_s"] = float(summary.time_total_s or 0.0)
    return out
