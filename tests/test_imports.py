"""The import boundary, checked in fresh interpreters.

In this process every hero module is already loaded, so only a new
interpreter shows what ``import hero`` and each command load, and that a
command's exit code holds when the exception's module loads inside it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hero.ling_tree import leaf_words, serialize_sexpr
from hero.model import AttributeVocab, SharingMode, init_model, save_model
from hero.synthetic import marker_corpus
from hero.trainer import write_dataset

SRC = Path(__file__).resolve().parents[1] / "src"

# Every name ``hero`` bound before its names resolved lazily, by defining module.
EXPORTS = {
    "embed": ("EmbeddingTable", "embed_leaves", "load_table"),
    "ling_tree": ("Level", "LingTree", "NodeKind", "TreeNode", "leaf_words", "parse_sexpr",
                  "serialize_sexpr", "tree_equal"),
    "model": ("AblationMode", "AttributeVocab", "DocumentEncoding", "ModelParams", "SharingMode", "backward",
              "encode_document", "gradient_check_model", "init_model", "load_model", "param_count",
              "predict", "save_model"),
    "stats": ("WelchResult", "compare_groups", "compute_tree_stats", "corpus_report"),
    "trainer": ("LabeledDocument", "MetricsReport", "Split", "TrainConfig", "TrainReport", "compute_metrics",
                "evaluate", "grid_search_lr", "read_dataset", "split_dataset", "train"),
}
SUBMODULES = ("embed", "ling_tree", "model", "nn", "stats", "trainer")


def python(*args, cwd):
    """Run a fresh interpreter with hero on its path; returns the process."""
    return subprocess.run([sys.executable, *args], cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    docs, table = marker_corpus(np.random.default_rng(0), 40, 8)
    write_dataset(docs, root / "data.jsonl")
    write_dataset(docs[:5], root / "small.jsonl")
    write_dataset([d for d in docs if d.y == 1][:3], root / "single.jsonl")
    (root / "vectors.txt").write_text("".join(
        tok + " " + " ".join(repr(float(v)) for v in vec) + "\n" for tok, vec in table.vectors.items()))
    tokens = sorted({w for d in docs for w in leaf_words(d.tree)})
    (root / "huge.txt").write_text("".join(  # overflows the first encoding: a numeric failure
        tok + " " + " ".join(repr(s * 1.7e308) for s in [1 - 2 * (i % 2), 2 * (i % 2) - 1] * 4) + "\n"
        for i, tok in enumerate(tokens)))
    config = "lr=0.01\nmax_epochs=1\nseed=0\nd=8\nmode=unified\nablation={}\n"
    (root / "train.cfg").write_text(config.format("full"))
    (root / "no_structure.cfg").write_text(config.format("no_structure"))
    (root / "one.tree").write_text(serialize_sexpr(docs[0].tree))
    save_model(init_model(8, SharingMode.UNIFIED, vocab=AttributeVocab.from_trees(d.tree for d in docs), seed=1),
               root / "model.json")
    return root


def test_predict_loads_neither_trainer_nor_stats(files):
    """Nor a thread pool module: ``nn`` imports one only in an Adam step
    that splits, and predict takes no step."""
    script = ("import sys; from hero import cli; "
              "code = cli.run(['predict', '--model', 'model.json', '--embeddings', 'vectors.txt', '--tree', 'one.tree']); "
              "print(sorted(m for m in sys.modules if m.startswith('hero'))); "
              "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = python("-c", script, cwd=files)
    assert proc.returncode == 0, proc.stderr
    probability, loaded, pools = proc.stdout.splitlines()
    assert 0.0 <= float(probability) <= 1.0
    assert loaded == str(["hero", "hero.cli", "hero.embed", "hero.ling_tree", "hero.model", "hero.nn"])
    assert pools == "[]"


def test_package_names_resolve_lazily(files):
    script = f"""
import importlib, json, sys
import hero
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("hero."))
exports = {json.dumps(EXPORTS)}
same = all(getattr(hero, n) is getattr(importlib.import_module("hero." + m), n)
           for m, names in exports.items() for n in names)
subs = all(getattr(hero, m) is sys.modules["hero." + m] for m in {SUBMODULES!r})
try:
    hero.nope
    missing = "resolved"
except AttributeError as exc:
    missing = str(exc)
star = {{}}
exec("from hero import *", star)
print(json.dumps({{"loaded": loaded, "same": same, "subs": subs, "missing": missing,
                  "dir": dir(hero), "star": sorted(star), "version": hero.__version__}}))
"""
    proc = python("-c", script, cwd=files)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["loaded"] == []  # import hero alone loads no submodule and not numpy
    assert got["same"] and got["subs"]
    assert got["missing"] == "module 'hero' has no attribute 'nope'"
    names = {n for names in EXPORTS.values() for n in names} | set(SUBMODULES)
    assert names <= set(got["dir"]) and names <= set(got["star"])
    assert got["version"] == "0.1.0"


@pytest.mark.parametrize("argv, code, note", [
    (["gradcheck", "--mode", "unified", "--d", "-2"], 2, "d must be a positive even integer"),
    (["stats", "--data", "single.jsonl"], 2, "fake and true"),
    (["train", "--data", "small.jsonl", "--embeddings", "vectors.txt", "--config", "train.cfg",
      "--out", "m.json", "--report", "r.json"], 2, "at least 10"),
    (["train", "--data", "data.jsonl", "--embeddings", "huge.txt", "--config", "no_structure.cfg",
      "--out", "m.json", "--report", "r.json"], 3, "numeric failure"),
    (["validate", "--data", "missing.jsonl"], 2, "missing.jsonl"),
], ids=["gradcheck-config", "stats-single-class", "train-too-few", "train-numeric", "validate-missing"])
def test_module_run_keeps_exit_codes(files, argv, code, note):
    """``python -m hero.cli`` runs the CLI, and an exception whose module
    loads inside the command still maps to its exit code. The failure is one
    stderr line, after any progress lines (``split: ...``); numpy's overflow
    warnings are silenced."""
    proc = python("-W", "ignore:overflow", "-W", "ignore:invalid value", "-m", "hero.cli", *argv, cwd=files)
    assert "Traceback" not in proc.stderr, proc.stderr
    failure = [line for line in proc.stderr.splitlines() if not line.startswith("split: ")]
    assert (proc.returncode, len(failure)) == (code, 1), proc.stderr
    assert note in failure[0] and proc.stderr.endswith(failure[0] + "\n")
