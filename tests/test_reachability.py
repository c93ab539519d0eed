"""The reachability audit: every function in ``src/hero`` serves a command.

Every command runs under ``sys.setprofile`` on a 40-document marker corpus:
``validate``; ``stats`` with both report files; ``train``, ``eval`` and
``predict`` in each sharing mode and ablation; one ``train --grid``; and one
``gradcheck``. A named function of ``src/hero/*.py`` that none of them calls
must be listed in UNREACHED with the reason it stays. A new function that no
command calls fails the test, and so does an entry that a command calls.

The commands run in a fresh interpreter. In this process earlier tests have
already bound the ``hero`` submodules, so ``hero.__getattr__`` would never
run and would read as unreached.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from hero.ling_tree import serialize_sexpr
from hero.model import AblationMode, SharingMode
from hero.synthetic import marker_corpus
from hero.trainer import write_dataset

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# module.qualname -> why it stays although no command calls it.
UNREACHED = {
    "__init__.__dir__": "dir(hero)",
    "cli.entry": "the console script",
    "embed.DimMismatchError.__init__": "bad input only",
    "embed.EmbeddingParseError.__init__": "bad input only",
    "trainer.DatasetError.__init__": "bad input only",
    "trainer.NonFiniteLossError.__init__": "numeric failure only",
    "embed.EmbeddingTable.__len__": "perfbench/tracing.py",
    "nn.GruTrace.__len__": "perfbench/tracing.py",
    "ling_tree.serialize_sexpr": "perfbench/gen.py",
    "trainer.write_dataset": "perfbench/gen.py",
    "model.param_count": "perfbench/workloads.py and perfbench/run.py",
    "nn.GruParams.w_r": "perfbench/selftest.py",
    "nn.GruParams.matrices": "perfbench/checks.py and the tests/reference.py oracle",
    "nn.GruParams.copy": "criterion 03 ties weights by assigning copies",
    "nn.ClassifierParams.copy": "criterion 03 ties weights by assigning copies",
    "synthetic.marker_corpus": "the README's CLI walkthrough builds its demo corpus with it",
}

# Runs each command given as argv on the command line, under the profiler,
# and prints (module, first line) of every src/hero function that ran.
AUDIT = """
import json, sys
from pathlib import Path

codes = set()

def hook(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)

sys.setprofile(hook)
from cli_contract import run_cli

for argv, stdin in json.loads(sys.argv[1]):
    code, _, err = run_cli(argv, stdin)
    assert code == 0, (argv, code, err)
sys.setprofile(None)
package = str(Path(sys.argv[2]).resolve())
print(json.dumps(sorted({(Path(c.co_filename).stem, c.co_firstlineno)
                         for c in codes if str(Path(c.co_filename).parent) == package})))
"""


def defined_functions() -> dict[tuple[str, int], str]:
    """(module, first line) -> module.qualname of each def in src/hero,
    nested ones as ``f.<locals>.g``; a decorated def starts at its first
    decorator. Lambdas, comprehensions and class bodies are not defs."""
    names = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                names[module, first] = f"{module}.{prefix}{child.name}"
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted((SRC / "hero").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return names


def commands(root: Path) -> list:
    """(argv, stdin) of every command the audit runs, with its input files
    written under root."""
    docs, table = marker_corpus(np.random.default_rng(0), 40, 8)
    write_dataset(docs, root / "data.jsonl")
    (root / "vectors.txt").write_text("".join(
        tok + " " + " ".join(repr(float(v)) for v in vec) + "\n" for tok, vec in table.vectors.items()))
    tree = serialize_sexpr(docs[0].tree)
    embeddings = ["--embeddings", "vectors.txt"]
    runs = [(["validate", "--data", "data.jsonl"], ""),
            (["stats", "--data", "data.jsonl", "--csv", "stats.csv", "--json", "stats.json"], "")]
    for mode in SharingMode:
        for ablation in AblationMode:
            name = f"{mode.value}-{ablation.value}"
            (root / f"{name}.cfg").write_text(
                f"lr=0.01\nmax_epochs=2\nseed=0\nd=8\nmode={mode.value}\nablation={ablation.value}\n")
            model = ["--model", f"{name}.json"]
            runs += [(["train", "--data", "data.jsonl", *embeddings, "--config", f"{name}.cfg",
                       "--out", f"{name}.json", "--report", f"{name}.report.json"], ""),
                     (["eval", *model, "--data", "data.jsonl", *embeddings], ""),
                     (["predict", *model, *embeddings], tree)]
    runs += [(["train", "--grid", "--data", "data.jsonl", *embeddings, "--config", "unified-full.cfg",
               "--out", "grid.json", "--report", "grid.report.json"], ""),
             (["gradcheck", "--mode", "level_specific", "--ablation", "no_syntax"], "")]
    return runs


def test_every_function_serves_a_command_or_is_listed(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", AUDIT, json.dumps(commands(tmp_path)), str(SRC / "hero")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])})
    assert proc.returncode == 0, proc.stderr
    called = {(module, line) for module, line in json.loads(proc.stdout)}
    unreached = {name for key, name in defined_functions().items() if key not in called}
    assert unreached - UNREACHED.keys() == set(), "no command calls these: delete each, or list it with its reason"
    assert UNREACHED.keys() - unreached == set(), "listed, but a command calls these or they are gone"
