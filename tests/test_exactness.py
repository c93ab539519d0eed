"""``tests/exactness.py`` compares two versions of the package by their
digests, so its own output must not vary from run to run: the same bytes
under two string-hash seeds and under one and two BLAS threads, one
well-formed line per artifact, and no artifact named twice. The two runs
differ in both settings at once, so an output that moves with either one
fails."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_digests_are_well_formed_and_independent_of_hash_seed_and_blas_threads():
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    runs = [
        subprocess.Popen(
            [sys.executable, str(ROOT / "tests" / "exactness.py")], cwd=ROOT,
            env={**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": seed, "OPENBLAS_NUM_THREADS": threads},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for seed, threads in (("0", "1"), ("4242", "2"))
    ]
    outputs = [proc.communicate(timeout=300) for proc in runs]
    for proc, (_, err) in zip(runs, outputs):
        assert proc.returncode == 0, err.decode()[-3000:]
    (first, _), (second, _) = outputs
    assert first == second
    lines = first.decode().splitlines()
    assert lines
    assert all(re.fullmatch(r"[0-9a-f]{64} .+", line) for line in lines)
    names = [line[65:] for line in lines]
    assert len(set(names)) == len(names)
