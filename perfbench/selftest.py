"""Self-test of the benchmark: a tiny-size smoke run of every workload, plus
each correctness checker fed a deliberately wrong output.

    python3 perfbench/selftest.py

Run from the repository root; takes well under a minute. Exits non-zero on
the first failed assertion.
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (puts src/ and tests/ on sys.path)
from checks import (  # noqa: E402
    Checks, check_encoding, check_gradient, check_predict, check_roundtrip, check_welch,
)
from hero import model as hero_model  # noqa: E402
from hero import stats as hero_stats  # noqa: E402
from hero import synthetic, trainer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in spec}, set(last["metrics"]) ^ {m["name"] for m in spec}
    for m in spec:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m["name"], got)
        if not trace:
            assert got["value"] > 0, (m["name"], got)
    print(f"ok  smoke {workload} trace={trace}: {len(spec)} metrics")


def expect_failures(checks: Checks, before: int, name: str) -> None:
    assert checks.failed > before, f"{name} accepted a wrong output"
    print(f"ok  {name} counts a wrong output as failed")


def checkers() -> None:
    rng = np.random.default_rng(0)
    gen, table = synthetic.gradcheck_fixture(rng, 8)
    vocab = hero_model.AttributeVocab.from_trees([gen.tree])
    params = hero_model.init_model(
        8, hero_model.SharingMode.ATTRIBUTE_SPECIFIC, vocab=vocab, rng=rng, random_classifier=True,
    )
    enc = hero_model.encode_document(params, gen.tree, table)
    checks = Checks()

    assert check_encoding(checks, enc.h_doc, params, gen.tree, table)
    check_encoding(checks, enc.h_doc + 1e-6, params, gen.tree, table)
    expect_failures(checks, 0, "check_encoding")

    grads = hero_model.backward(params, enc, 1)
    assert check_gradient(checks, grads, params, gen.tree, table, 1, seed=0), checks.failures
    wrong = copy.deepcopy(grads)
    next(iter(wrong.registry.values())).fwd.w_r[0, 0] += 0.05
    before = checks.failed
    check_gradient(checks, wrong, params, gen.tree, table, 1, seed=0)
    expect_failures(checks, before, "check_gradient")

    assert check_roundtrip(checks, [0.25, 0.5], [0.25, 0.5])
    before = checks.failed
    check_roundtrip(checks, [0.25, 0.5], [0.25, math.nextafter(0.5, 1.0)])
    expect_failures(checks, before, "check_roundtrip")

    assert check_predict(checks, 0, "0.5\n", 0.5)
    before = checks.failed
    check_predict(checks, 0, "0.5000001\n", 0.5)
    check_predict(checks, 2, "", 0.5)
    assert checks.failed == before + 2
    expect_failures(checks, before, "check_predict")

    docs = []
    for i in range(30):
        g = synthetic.random_tree(rng)
        docs.append(trainer.LabeledDocument(f"d{i}", g.tree, i % 2))
    report = hero_stats.corpus_report(docs)
    before = checks.failed
    check_welch(checks, report, docs)
    assert checks.failed == before, checks.failures
    bad = copy.deepcopy(report)
    next(r for r in bad.rows if r.statistic == "depth").t *= 1.001
    check_welch(checks, bad, docs)
    expect_failures(checks, before, "check_welch")

    run = workloads.Run({"seconds": 1, "files": {}, "trace": 1})
    workloads.layer_metrics(run, "predict-cold")
    assert run.checks.failed == len(workloads.EXPECTED["predict-cold"]), run.checks.failures
    print("ok  wrapper check counts wrappers that never fired")

    for _ in range(3):
        run.timed(lambda: hero_stats.corpus_report(docs), "corpus_report", scale=False)
    layers = workloads.layer_metrics(run, "corpus-short")
    assert layers["stats.corpus_report.calls"] == 1, layers
    assert layers["stats.compute_tree_stats.calls"] == len(docs), layers
    print("ok  per-layer figures are per operation, not per run")


def main() -> int:
    checkers()
    for workload in ("train-unified", "train-attribute", "predict-cold", "corpus-short"):
        for trace in (0, 1):
            smoke(workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
