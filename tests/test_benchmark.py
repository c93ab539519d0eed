import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_checkers_accept_the_package_api():
    """The benchmark's correctness checkers, fed right and wrong outputs,
    still run against the package: an API change that breaks the benchmark
    fails here rather than in a benchmark run."""
    proc = subprocess.run(
        [sys.executable, "-c", "import selftest; selftest.checkers()"],
        cwd=PERFBENCH, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert "ok  per-layer figures are per operation, not per run" in proc.stdout


@pytest.mark.parametrize("workload", ["corpus-short", "train-unified", "train-attribute", "predict-cold"])
def test_traced_smoke_reaches_every_expected_layer(workload):
    """The benchmark's tiny traced run, from the repository root: it fails if
    a timed call stops reaching a layer the benchmark expects (for example
    ``evaluate`` no longer calling ``nn.gru_forward``) or a check fails."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import selftest; selftest.smoke({workload!r}, 1)"],
        cwd=PERFBENCH.parent, env={**os.environ, "PYTHONPATH": str(PERFBENCH)},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert f"ok  smoke {workload} trace=1" in proc.stdout
