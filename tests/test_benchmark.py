import subprocess
import sys
from pathlib import Path

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
