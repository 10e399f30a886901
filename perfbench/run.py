"""Extraction benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload crawl_mix --seed 1 --seconds 15 --trace 0

Run from the repository root.  The run and every Ray process it starts
are confined to ``nproc`` CPUs (``confine_to_nproc``).  Steps:

1. Generate the workload's Parquet page files from ``--seed`` (gen.py) and
   the expected rows, with digests from the stdlib-tokenizer twin
   (check.py).  Neither is timed.
2. Set up three times: ``ray.init`` with ``num_cpus`` = ``nproc``, then
   one warm-up batch through the pipeline (worker start, engine imports,
   first batch).  ``setup_s`` is the median; the third session stays up.
3. Run the batch job in a closed loop, one job at a time, until the timed
   jobs add up to ``--seconds`` (at least three).  Each job is checked row
   by row after its timed window, and its output is deleted before the next.
4. With ``--trace 1``: one set-up, then untraced jobs and jobs with the
   per-layer probes of tracing.py in turn.

The second-to-last line of standard output is a JSON record of the raw
timings; the last is the result JSON.  End-to-end metrics are medians over
jobs (set-ups): ``docs_per_s`` (output rows / wall from first read to last
output file or manifest), ``setup_s``, ``peak_rss_mb`` (driver plus Ray
workers).  ``failed``/``attempted`` count bad rows over all jobs; the info
line gives their ratio as ``failed_frac``.  Per-layer names and units come
from plan.json, which also says what each should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "ai_service_ocr_grading_handler_ray"
WORKLOADS = ("crawl_mix", "scanned_pages", "recrawl_resume")
SETUPS = 3
MIN_JOBS = 3
MIN_TRACED_JOBS = 3
DEADLINE_S = 170  # the whole run, set-up included
# Ray's temp dir, in the checkout (the working directory of the driver and
# of every Ray process).  Ray wants an absolute path and puts AF_UNIX
# sockets (107-byte limit) ~64 bytes deep in it: too deep under a long
# checkout path, so the path goes through /proc/self/cwd.
RAY_TEMP_DIR = ".pbr"
RAY_TEMP_PATH = os.path.join("/proc/self/cwd", RAY_TEMP_DIR)


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def nproc() -> int:
    """CPUs as ``nproc`` counts them: ``OMP_NUM_THREADS`` when set, else the
    CPUs this process may run on."""
    try:
        return max(1, int(os.environ.get("OMP_NUM_THREADS", "")))
    except ValueError:
        return len(os.sched_getaffinity(0))


def confine_to_nproc(n: int) -> list[int]:
    """Run this process, and the Ray processes it starts, on ``n`` CPUs: the
    highest-numbered ones it may use (CPU 0 usually serves device
    interrupts).  Ray is told it has ``n`` CPUs; unconfined, its system
    processes and workers also run on the host's other CPUs, and the wall
    time then depends on how many of those there are and how busy the host
    keeps them."""
    cpus = sorted(os.sched_getaffinity(0))[-n:]
    os.sched_setaffinity(0, cpus)
    return cpus


def _median(xs: list[float]) -> float:
    return float(statistics.median(xs))


class Bench:
    """One benchmark run: owns the work directory and the Ray session."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(ROOT, ".pbw")
        self.trace_dir = os.path.join(self.work, "trace")
        self.out_dir = os.path.join(self.work, "out")
        self.num_cpus = nproc()
        self.attempted = 0
        self.failed = 0
        self.extra_failures: list[str] = []
        self.ray_up = False

    # --- inputs ---------------------------------------------------------

    def prepare(self) -> None:
        from perfbench import check, gen

        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.trace_dir)
        self.files = gen.generate(self.workload, self.seed, os.path.join(self.work, "in"))
        self.expected = check.reference(check.read_tables(self.files))

    # --- Ray session ------------------------------------------------------

    def start_ray(self) -> None:
        import ray
        from ray.data import DataContext

        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=256 * 1024**2,
            _temp_dir=RAY_TEMP_PATH,
        )
        self.ray_up = True
        DataContext.get_current().enable_progress_bars = False

    def stop_ray(self) -> None:
        import ray

        from perfbench import procs

        pids = procs.descendants(os.getpid())
        ray.shutdown()
        self.ray_up = False
        procs.wait_gone(pids)

    def setup(self) -> float:
        """``ray.init`` + one warm-up batch; returns its seconds."""
        from ai_service_ocr_grading_handler_ray.pipelines.extract import extract_pages
        from ai_service_ocr_grading_handler_ray.sources.readers import read_pages

        warm = os.path.join(self.work, "warm")
        t0 = time.perf_counter()
        self.start_ray()
        extract_pages(read_pages(self.files[:1])).write_parquet(warm)
        dt = time.perf_counter() - t0
        shutil.rmtree(warm)
        return dt

    # --- one job ----------------------------------------------------------

    def job(self, traced: bool) -> dict[str, float]:
        """Run the workload once into a fresh output directory; returns the
        wall time, committed rows and, if ``traced``, per-layer numbers."""
        from perfbench import procs, tracing

        shutil.rmtree(self.out_dir, ignore_errors=True)
        run = self._recrawl if self.workload == "recrawl_resume" else self._batch
        sampler = procs.RssSampler()
        state = tracing.StateProbe() if traced else None
        sampler.start()
        if traced:
            with tracing.installed(state):
                res = run(state)
        else:
            res = run(None)
        res["peak_rss_mb"] = sampler.stop()
        if traced:
            res.update(tracing.collect(self.trace_dir))
        self._check(res)
        shutil.rmtree(self.out_dir)
        return res

    def _batch(self, state) -> dict[str, float]:
        from ai_service_ocr_grading_handler_ray.pipelines.extract import extract_pages
        from ai_service_ocr_grading_handler_ray.sources.readers import read_pages

        from perfbench import tracing

        t0 = time.perf_counter()
        ds = extract_pages(read_pages(self.files))
        ds.write_parquet(self.out_dir)
        res = {"wall_s": time.perf_counter() - t0}
        if state is not None:
            res.update(tracing.op_stats(ds))
        return res  # the Dataset is dropped here: no blocks outlive the job

    def _recrawl(self, state) -> dict[str, float]:
        from ai_service_ocr_grading_handler_ray.state.manifest import (
            metrics_rollup,
            resumable_extract,
        )

        from perfbench import tracing

        n = len(self.files)
        t0 = time.perf_counter()
        first = resumable_extract(
            self.files, self.out_dir, partition_size=1, max_partitions=n // 2
        )
        resumed = resumable_extract(self.files, self.out_dir, partition_size=1)
        res = {"wall_s": time.perf_counter() - t0}
        t = time.perf_counter()
        rollup = metrics_rollup(self.out_dir)
        res["state.rollup_s"] = time.perf_counter() - t
        committed = {m["partition_id"]: m["row_count"] for m in first}
        redone = sum(m["row_count"] for m in resumed if m["partition_id"] in committed)
        res["state.partitions"] = rollup["partitions"]
        res["state.skipped_partitions"] = n - len(resumed)
        res["state.redo_frac"] = redone / max(1, rollup["rows"])
        res["rollup_rows"] = rollup["rows"]
        if state is not None:
            ps = state.partition_s
            res["state.partition_s_p50"] = _median(ps)
            res["state.partition_s_p90"] = statistics.quantiles(ps, n=10)[-1]
            jobs = [tracing.op_stats(ds) for ds in state.datasets]
            state.datasets.clear()
            for key in jobs[0]:
                res[key] = sum(j[key] for j in jobs)
            # the state layer's own work: each partition's wall minus its job
            res["state.self_s"] = sum(ps) - res.pop("job_s")
        return res

    def _check(self, res: dict[str, float]) -> None:
        from perfbench import check

        files = check.output_files(self.out_dir)
        res["sink.files"] = len(files)
        res["sink.mb"] = sum(os.path.getsize(f) for f in files) / 1e6
        out = check.read_output(self.out_dir)
        res["rows"] = out.num_rows
        self.attempted += self.expected.num_rows
        self.failed += min(self.expected.num_rows, check.count_bad(self.expected, out))
        if "rollup_rows" in res and res["rollup_rows"] != out.num_rows:
            self.extra_failures.append("manifest rollup rows != committed rows")
        if res.get("state.redo_frac", 0) > 0:
            self.extra_failures.append("resume re-extracted committed partitions")

    def jobs(self, seconds: float, min_rounds: int, traced_too: bool) -> tuple[list, list]:
        """Untraced jobs, each followed by a traced one if ``traced_too`` (so
        both kinds see the same host speed), until their walls add up to
        ``seconds``."""
        plain: list[dict] = []
        traced: list[dict] = []
        while len(plain) < min_rounds or sum(r["wall_s"] for r in plain + traced) < seconds:
            plain.append(self.job(traced=False))
            if traced_too:
                traced.append(self.job(traced=True))
        return plain, traced

    def close(self) -> None:
        if self.ray_up:
            self.stop_ray()
        shutil.rmtree(self.work, ignore_errors=True)
        shutil.rmtree(RAY_TEMP_DIR, ignore_errors=True)


def per_layer_units() -> dict[str, str]:
    """name -> unit of every per-layer metric the traced run prints."""
    with open(os.path.join(ROOT, "perfbench", "plan.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


KERNELS = ("html_extract.s", "pdf_layout.decode_s", "pdf_layout.xycut_s", "ocr.s",
           "extract.digest_s")
# layers whose self times add up to the in-process work of a job
LAYERS = ("sources.read_s", "classify.s", "extract.s", "sink.write_s", "state.self_s")


def _derive(job: dict[str, float]) -> dict[str, float]:
    """Per-layer numbers of one traced job, with derived self times."""
    m = dict(job)
    m["extract.self_s"] = job.get("extract.s", 0.0) - sum(job.get(k, 0.0) for k in KERNELS)
    m["extract.ok_frac"] = job.get("extract.ok", 0.0) / max(1.0, job.get("extract.rows", 0.0))
    m["layer_sum_s"] = sum(job.get(k, 0.0) for k in LAYERS)
    return m


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, PACKAGE)):
        print(f"perfbench: package {PACKAGE!r} not found under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    # Ray workers inherit the environment: they import the package and the
    # trace probes from the checkout and write trace records into it
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )

    def on_alarm(*_):
        raise TimeoutError(f"benchmark exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S)
    bench = Bench(args.workload, args.seed)
    cpus = confine_to_nproc(bench.num_cpus)
    try:
        bench.prepare()
        os.environ["PERFBENCH_TRACE_DIR"] = bench.trace_dir
        if args.trace:
            setups = [bench.setup()]
            plain, traced = bench.jobs(args.seconds, MIN_TRACED_JOBS, traced_too=True)
            metrics = _traced_metrics(bench, plain, traced)
        else:
            setups = []
            for k in range(SETUPS):
                setups.append(bench.setup())
                if k < SETUPS - 1:
                    bench.stop_ray()
            plain, traced = bench.jobs(args.seconds, MIN_JOBS, traced_too=False)
            metrics = {
                "docs_per_s": (_median([r["rows"] / r["wall_s"] for r in plain]), "docs/s"),
                "setup_s": (_median(setups), "s"),
                "peak_rss_mb": (_median([r["peak_rss_mb"] for r in plain]), "MB"),
            }
    except BaseException:
        traceback.print_exc()
        bench.close()
        return 1
    signal.alarm(0)
    bench.close()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "num_cpus": bench.num_cpus,
        "cpus": cpus,
        "cpus_online": os.cpu_count(),
        "jobs": len(plain) + len(traced),
        "wall_s": [round(r["wall_s"], 4) for r in plain],
        "setup_runs_s": [round(s, 4) for s in setups],
        "failed_frac": bench.failed / bench.attempted,
        "failures": bench.extra_failures,
    }
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": bench.failed == 0 and not bench.extra_failures,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def _traced_metrics(bench: Bench, plain: list[dict], traced: list[dict]) -> dict:
    units = per_layer_units()
    jobs = [_derive(r) for r in traced]
    m = {k: _median([j.get(k, 0.0) for j in jobs]) for k in units}
    m["trace.untraced_wall_s"] = _median([r["wall_s"] for r in plain])
    m["trace.wall_s"] = _median([r["wall_s"] for r in traced])
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    for j in jobs:
        if j["layer_sum_s"] > j["wall_s"] * bench.num_cpus:
            bench.extra_failures.append(
                f"layer self times {j['layer_sum_s']:.3f} s exceed traced wall "
                f"{j['wall_s']:.3f} s x {bench.num_cpus} CPUs"
            )
    layer_sum = _median([j["layer_sum_s"] for j in jobs])
    m["ray.overhead_s"] = m["trace.untraced_wall_s"] - layer_sum / bench.num_cpus
    return {k: (v, units[k]) for k, v in m.items()}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
