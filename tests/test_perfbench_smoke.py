"""The benchmark harness still runs against the library.

perfbench/run.py imports library names, and its tracer patches about 40
planner, graph, action, world and confirm names. A refactor that drops one of
them fails here, instead of only when the benchmark is next run. Each run
solves the builtins panel at its smallest size and takes a few seconds.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_perfbench_builtins_run_is_correct(trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "builtins", "--seed", "0", "--seconds", "1", "--trace", trace]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    if trace == "1":
        # each job runs to its verdict in the cycle that submits it
        assert result["metrics"]["confirm.latency_cycles.max"]["value"] == 0
        assert result["metrics"]["confirm.queue_depth.max"]["value"] == 1
