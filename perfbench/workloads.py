"""One workload run in a fresh process: set-up, timed phases, checks.

Run by ``run.py`` as ``python3 perfbench/workloads.py <request.json>``; the
request names the workload, the generated input files, the time budget and
whether to trace. The result is written as JSON to the path the request
gives.

Every timed phase is a closed loop with one operation outstanding that
repeats one operation on the same inputs until its share of the budget is
used (at least once).

The gated times are reported at a reference host speed: each operation's
wall time is divided by the slowdown a probe (``probe.py``) saw right before
and right after it. For ``hero predict`` the probes run inside the child
process, around the CLI call. Raw times (first, fastest, median, tail
percentile, sample count) go to the report alongside.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import numpy as np  # noqa: E402

from hero import embed as hero_embed  # noqa: E402
from hero import model as hero_model  # noqa: E402
from hero import stats as hero_stats  # noqa: E402
from hero import trainer  # noqa: E402
from hero.ling_tree import iter_nodes, parse_sexpr  # noqa: E402

from checks import (  # noqa: E402
    Checks, check_encoding, check_gradient, check_predict, check_roundtrip, check_welch,
)
from probe import Probe  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPS = 5
STATS_DOCS = 500
EVAL_TWEETS = 100
IMPORT_TIMER = "import time; t = time.perf_counter(); import hero; print(time.perf_counter() - t)"

# Wrapped functions each workload must reach, in this process or a child.
# This module calls hero only through module attributes, so the wrappers
# the tracer binds there see those calls.
EXPECTED = {
    "train": (
        "trainer.read_dataset", "ling_tree.parse_sexpr", "embed.load_table",
        "model.init_model", "trainer.train", "model.encode_document",
        "embed.embed_leaves", "nn.gru_forward", "model.backward", "nn.gru_backward",
        "nn.adam_step", "model.params_to_vec", "model.vec_to_params",
        "model.copy_model", "trainer.evaluate", "trainer.compute_metrics",
        "model.predict", "model.save_model", "model.load_model",
    ),
    "corpus-short": (
        "trainer.read_dataset", "ling_tree.parse_sexpr", "embed.load_table",
        "model.load_model", "stats.corpus_report", "stats.compute_tree_stats",
        "stats.compare_groups", "trainer.evaluate", "model.encode_document",
        "embed.embed_leaves", "nn.gru_forward", "trainer.compute_metrics",
        "model.save_model",
    ),
    "predict-cold": (
        "cli.run", "model.load_model", "embed.load_table", "ling_tree.parse_sexpr",
        "model.encode_document", "embed.embed_leaves", "nn.gru_forward",
        "model.predict", "model.save_model",
    ),
}


class Run:
    """Timing and check state shared by the phases of one workload run."""

    def __init__(self, request: dict):
        self.req = request
        self.budget = float(request["seconds"])
        self.files = request["files"]
        self.checks = Checks()
        self.ops = Counter()  # timed operations per phase
        self.window = defaultdict(float)  # timed wall seconds per phase
        self.report: dict = {}
        self.probe = Probe()
        self.tracer = Tracer() if request["trace"] else None
        if self.tracer:
            self.tracer.install()

    def timed(self, fn, phase: str, scale=True, memory=False):
        """Run one operation of ``phase`` with tracing on; return (wall
        seconds, seconds at the reference host speed, result). With
        ``scale`` false the second value is the wall time."""
        before = self.probe.slowdown(memory) if scale else 1.0
        if self.tracer:
            self.tracer.active, self.tracer.request = True, (phase, self.ops[phase])
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            dt = time.perf_counter() - t0
            if self.tracer:
                self.tracer.active = False
        after = self.probe.slowdown(memory) if scale else 1.0
        self.ops[phase] += 1
        self.window[phase] += dt
        return dt, dt / ((before + after) / 2), result

    def loop(self, share: float, fn, tag: str, reps: int = 0, memory=False):
        """Repeat ``fn`` for ``share`` of the budget, or ``reps`` times.
        Returns the median seconds at reference speed (raw figures go to
        the report under ``tag``) and the last result."""
        raw, ref, result, start = [], [], None, time.perf_counter()
        while not raw or (len(raw) < reps if reps else time.perf_counter() - start < share * self.budget):
            dt, scaled, result = self.timed(fn, tag, memory=memory)
            raw.append(dt)
            ref.append(scaled)
        self.report[tag] = {**summary(raw), "p50_ref_s": statistics.median(ref)}
        return statistics.median(ref), result

    def setup(self, fn):
        """Median of SETUP_REPS set-ups; the last one's result is used."""
        return self.loop(0.0, fn, "setup", reps=SETUP_REPS)

    def checkpoint(self, params, workdir: Path, docs, table) -> None:
        """Save/load round trip of ``params``, then a bit-identity check.
        Timings are reported, not gated: on train-attribute one save takes
        most of the budget, so a run holds a single, unsteady sample."""
        path = workdir / "roundtrip.json"
        self.loop(0.05, lambda: hero_model.save_model(params, path), "checkpoint_save")
        _, loaded = self.loop(0.05, lambda: hero_model.load_model(path), "checkpoint_load")
        self.report["checkpoint_bytes"] = path.stat().st_size
        before = [hero_model.predict(params, hero_model.encode_document(params, d.tree, table)) for d in docs]
        after = [hero_model.predict(loaded, hero_model.encode_document(loaded, d.tree, table)) for d in docs]
        check_roundtrip(self.checks, before, after)

    def score(self, share: float, params, docs, table) -> float:
        """Milliseconds per document of ``trainer.evaluate`` on ``docs``."""
        seconds, _ = self.loop(share, lambda: trainer.evaluate(params, docs, table), "evaluate")
        return 1000.0 * seconds / len(docs)


def summary(times: list[float]) -> dict:
    """Sample count, first (coldest), fastest, median, and the highest
    percentile with at least ten samples beyond it (when there are enough
    samples)."""
    out = {"n": len(times), "first_s": times[0], "min_s": min(times), "p50_s": statistics.median(times)}
    if len(times) >= 20:
        q = int(100 * (1 - 10 / len(times)))
        out[f"p{q}_s"] = sorted(times)[max(0, int(len(times) * q / 100) - 1)]
    return out


def record_model(run: Run, params) -> None:
    run.report["model.param_count"] = hero_model.param_count(params)
    run.report["model.registry_keys"] = len(params.registry)


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_train(run: Run, mode: str, workdir: Path) -> dict:
    """Train on two news docs (tweet-sized val/test docs keep the per-epoch
    evaluation small), evaluate held-out news docs, round-trip the result."""
    d, n_train, n_held = run.files["dim"], run.req["train_docs"], run.req["heldout_docs"]
    sharing = hero_model.SharingMode(mode)

    def setup():
        docs = trainer.read_dataset(run.files["data"])
        table = hero_embed.load_table(run.files["table"], d)
        vocab = hero_model.AttributeVocab.from_trees(doc.tree for doc in docs[:n_train])
        return docs, table, hero_model.init_model(d, sharing, vocab=vocab)

    setup_s, (docs, table, init) = run.setup(setup)
    record_model(run, init)
    train_docs, heldout, small = docs[:n_train], docs[n_train:n_train + n_held], docs[n_train + n_held:]
    split = trainer.Split(train_docs, small[:1], small[1:2])
    config = trainer.TrainConfig(lr=1e-3, max_epochs=1, seed=run.req["seed"], d=d, mode=sharing)
    # An attribute-specific training call allocates and streams ~1 GB in
    # 43 MB arrays (gradients, Adam temporaries, parameter copies), so its
    # probe blends in the memory kind.
    attribute = sharing is hero_model.SharingMode.ATTRIBUTE_SPECIFIC
    seconds, (params, _) = run.loop(0.6, lambda: trainer.train(split, config, table), "train", memory=attribute)
    score_ms = run.score(0.3, params, heldout, table)
    run.checkpoint(params, workdir, heldout[:2], table)
    rss = peak_rss_mb()

    # The pure-Python oracle takes ~3 s on a news-sized tree; predict-cold
    # checks one of those every run, so here the small validation doc does.
    doc = split.val[0]
    check_encoding(run.checks, hero_model.encode_document(params, doc.tree, table).h_doc, params, doc.tree, table)
    doc = train_docs[0]
    grads = hero_model.backward(params, hero_model.encode_document(params, doc.tree, table), doc.y)
    check_gradient(run.checks, grads, params, doc.tree, table, doc.y, run.req["seed"])
    return {"setup_s": setup_s, "docs_per_s": n_train / seconds, "score_ms": score_ms, "peak_rss_mb": rss}


def run_corpus(run: Run, workdir: Path) -> dict:
    """Parse the whole tweet corpus in set-up; time the corpus report and
    evaluation on fixed slices of it."""
    d = run.files["dim"]

    def setup():
        docs = trainer.read_dataset(run.files["data"])
        return docs, hero_embed.load_table(run.files["table"], d), hero_model.load_model(run.files["model"])

    setup_s, (docs, table, params) = run.setup(setup)
    record_model(run, params)
    stats_docs = docs[:STATS_DOCS]
    seconds, report = run.loop(0.35, lambda: hero_stats.corpus_report(stats_docs), "corpus_report")
    score_ms = run.score(0.55, params, docs[:EVAL_TWEETS], table)
    run.checkpoint(params, workdir, docs[:20], table)
    rss = peak_rss_mb()

    check_welch(run.checks, report, stats_docs)
    for doc in docs[:20]:
        check_encoding(run.checks, hero_model.encode_document(params, doc.tree, table).h_doc, params, doc.tree, table)
    return {"setup_s": setup_s, "docs_per_s": len(stats_docs) / seconds, "score_ms": score_ms, "peak_rss_mb": rss}


def _vocab_table(path: str, dim: int, tokens) -> hero_embed.EmbeddingTable:
    """The rows of ``path`` for the given tokens, parsed as load_table does,
    so the in-process probability uses the same floats as the CLI."""
    wanted = set(tokens) | {t.lower() for t in tokens}
    vectors = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            tok, _, rest = line.partition(" ")
            if tok in wanted:
                vectors[tok] = np.array(rest.split(), dtype=np.float64)
    return hero_embed.EmbeddingTable(dim, vectors)


def run_predict(run: Run, workdir: Path) -> dict:
    """``hero predict`` in fresh interpreters, one at a time; set-up is a
    bare ``import hero`` in a fresh interpreter, between probes in this one."""
    files, env = run.files, dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    argv = ["predict", "--model", files["model"], "--embeddings", files["table"], "--tree", files["tree"]]

    def child(cmd):
        return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170)

    imports = []
    for _ in range(SETUP_REPS):
        dt, scaled, out = run.timed(lambda: child([sys.executable, "-c", IMPORT_TIMER]), "setup")
        imports.append((float(out.stdout), scaled / dt))
    run.report["setup"] = {**summary([t for t, _ in imports]),
                           "p50_ref_s": statistics.median(t * k for t, k in imports)}

    params = hero_model.load_model(files["model"])
    record_model(run, params)
    tree = parse_sexpr(Path(files["tree"]).read_text(encoding="utf-8"))
    words = [n.label for n in iter_nodes(tree.root) if not n.children]
    table = _vocab_table(files["table"], params.d, words)
    enc = hero_model.encode_document(params, tree, table)
    expected = hero_model.predict(params, enc)
    check_encoding(run.checks, enc.h_doc, params, tree, table)

    raw, ref, start = [], [], time.perf_counter()
    while not raw or time.perf_counter() - start < 0.9 * run.budget:
        i = len(raw)
        record = workdir / f"child{i}.json"
        cmd = [sys.executable, str(HERE / "predict_child.py"), str(record), str(int(bool(run.tracer))), *argv]
        dt, _, out = run.timed(lambda: child(cmd), "predict", scale=False)
        check_predict(run.checks, out.returncode, out.stdout, expected)
        info = json.loads(record.read_text())
        run.window["predict"] -= info["probe_s"]
        raw.append(dt - info["probe_s"])
        ref.append(raw[-1] / info["slowdown"])
        if run.tracer:
            run.tracer.merge(info, ("predict", i))
            run.tracer.counts["predict"]["cli.import_s"] += info["import_s"]
            run.report["child_absent"] = info["absent"]
    run.report["predict"] = {**summary(raw), "p50_ref_s": statistics.median(ref)}
    seconds = statistics.median(ref)
    run.checkpoint(params, workdir, [trainer.LabeledDocument("doc", tree, 1)], table)
    return {
        "setup_s": run.report["setup"]["p50_ref_s"], "docs_per_s": 1.0 / seconds,
        "score_ms": 1000.0 * seconds, "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
    }


def layer_metrics(run: Run, kind: str) -> dict:
    """Per-layer figures from the spans and counts, plus the expected-wrapper check.

    Every phase loops until its share of the budget is used, so run totals
    would track the budget rather than the program. Each figure is instead
    given per pass: the sum over phases of the phase's total divided by its
    number of timed operations, i.e. one set-up plus one operation of each
    timed phase. Ratios and per-call figures are formed from these."""
    tr, ops = run.tracer, run.ops

    def per_pass(table) -> defaultdict:
        out = defaultdict(float)
        for (phase, key), value in table.items():
            out[key] += value / ops[phase]
        return out

    calls, self_s = per_pass(tr.calls()), per_pass(tr.self_times())
    counts = per_pass({(p, k): v for p, c in tr.counts.items() for k, v in c.items()})
    absent = sorted(set(tr.absent) | set(run.report.get("child_absent", [])))
    for name in EXPECTED[kind]:
        if name not in absent:
            run.checks.record("wrapper_fired", calls[name] > 0, f"{name} never called")
    out = {}
    for name in sorted(calls):
        out[f"{name}.s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]
    for name in ("nn.gru_forward", "nn.gru_backward"):
        out[f"{name}.steps"] = counts[f"{name}.steps"]
    out["nn.gru.flops"] = counts["nn.gru.flops"]
    out["nn.adam_step.bytes"] = counts["nn.adam_step.bytes"]
    if counts["nn.adam_step.params"]:
        out["nn.adam_step.useful_frac"] = counts["nn.adam_step.nonzero_grads"] / counts["nn.adam_step.params"]
    out["embed.load_table.lines"] = counts["embed.load_table.lines"] / max(1, calls["embed.load_table"])
    out["embed.oov_rate"] = counts["embed.oov_leaves"] / max(1, counts["embed.leaves"])
    out["model.save_model.bytes"] = counts["model.save_model.bytes"] / max(1, calls["model.save_model"])
    if counts["cli.import_s"]:
        out["cli.import_s"] = counts["cli.import_s"] / max(1, calls["cli.run"])
    roots = tr.root_times()
    out["trace.window_s"] = sum(run.window[p] / ops[p] for p in ops)
    out["trace.unattributed_s"] = sum((run.window[p] - roots.get(p, 0.0)) / ops[p] for p in ops)
    out["trace.ops"] = dict(ops)
    out["trace.absent"] = absent
    return out


def main(request_path: str) -> int:
    request = json.loads(Path(request_path).read_text())
    run = Run(request)
    workload = request["workload"]
    workdir = Path(request["workdir"])
    if workload == "train-unified":
        kind, metrics = "train", run_train(run, "unified", workdir)
    elif workload == "train-attribute":
        kind, metrics = "train", run_train(run, "attribute_specific", workdir)
    elif workload == "corpus-short":
        kind, metrics = workload, run_corpus(run, workdir)
    else:
        kind, metrics = workload, run_predict(run, workdir)
    layers = {}
    if run.tracer:
        layers = layer_metrics(run, kind)
        Path(request["spans_out"]).write_text(json.dumps(run.tracer.export()))
    result = {
        "metrics": metrics, "report": run.report, "layers": layers,
        "ops": sum(run.ops.values()), "checks": run.checks.attempted, "failures": run.checks.failures,
    }
    Path(request["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
