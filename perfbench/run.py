"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Generates the workload's seeded inputs under
``.bench_work/``, runs the workload in a fresh process with BLAS pinned to
one thread, checks the outputs, and prints the environment record and a
human-readable report followed, as the last line of stdout, by one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the workload untraced and
then traced and reports the per-layer metrics, the tracing overhead and the
unattributed remainder of wall time. Exits non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("train-unified", "train-attribute", "predict-cold", "corpus-short")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "nproc": os.cpu_count(),
        "cpu": cpu, "loadavg": os.getloadavg(), "commit": commit, "seed": seed,
    }


def run_worker(request: dict, workdir: Path) -> dict:
    req_path = workdir / f"request-{request['trace']}.json"
    request = {**request, "out": str(workdir / f"result-{request['trace']}.json")}
    req_path.write_text(json.dumps(request))
    proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), str(req_path)], timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(Path(request["out"]).read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hero" / "__init__.py").is_file():
        return fail("src/hero not found; run from the repository root")
    if not (ROOT / "tests" / "reference.py").is_file():
        return fail("tests/reference.py (the encoder oracle) not found")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from gen import SIZES, generate

    # Metric names and units come from BENCHMARK.json. The per-layer ones
    # are the figures every workload exercises; the traced table line
    # prints the rest.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        record = {"environment": environment(args.seed)}
        inputs = generate(args.workload, args.seed, args.size, workdir)
        record["inputs"] = inputs["props"]
        print(json.dumps(record), flush=True)
        request = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "files": inputs["files"], "workdir": str(workdir), "trace": 0,
            "train_docs": SIZES[args.size].train_docs,
            "heldout_docs": SIZES[args.size].heldout_docs,
        }
        results = [run_worker(request, workdir)]
        if args.trace:
            spans = work_root / f"spans-{args.workload}-{args.seed}.json"
            results.append(run_worker({**request, "trace": 1, "spans_out": str(spans)}, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for r in results for f in r["failures"]]
    attempted = sum(r["ops"] + r["checks"] for r in results)
    untraced = results[0]
    if args.trace:
        layers = dict(results[1]["layers"])
        layers.update({k: v for k, v in inputs["props"].items() if k in per_layer})
        for key in ("model.param_count", "model.registry_keys"):
            layers[key] = results[1]["report"][key]
        traced = results[1]["metrics"]
        overhead = {k: traced[k] - untraced["metrics"][k] for k in end_to_end}
        layers["trace.overhead_frac"] = (
            untraced["metrics"]["docs_per_s"] / traced["docs_per_s"] - 1.0
        )
        print(json.dumps({"trace_overhead": overhead, "layers": layers, "spans": str(spans)}), flush=True)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in per_layer.items()}
    else:
        metrics = {k: {"value": untraced["metrics"][k], "unit": u} for k, u in end_to_end.items()}
    print(json.dumps({"report": untraced["report"], "fail_rate": len(failures) / attempted,
                      "failures": failures}), flush=True)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
