"""The benchmark's own command, traced, on both gated workloads.

``perfbench/run.py --trace 1`` patches engine names
(``state.manifest.extract_pages`` and ``run_partition``) and builds its
jobs from ``read_pages`` and ``extract_pages``; a rename or a changed
signature breaks the benchmark long before anyone runs it.  ``--seconds
0`` runs the fewest jobs the command allows (~15-40 s each on one CPU).
``run.py`` waits for its own Ray processes to exit, so nothing is left
running."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["crawl_mix", "recrawl_resume"])
def test_traced_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, last
    assert last["failed"] == 0, last
