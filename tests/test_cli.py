import io
import json

import numpy as np
import pytest

from hero.cli import run
from hero.ling_tree import serialize_sexpr
from hero.model import AttributeVocab, SharingMode, init_model, save_model
from hero.synthetic import marker_corpus
from hero.trainer import write_dataset

CONFIG = """
lr=0.01
max_epochs=2
seed=0
d=8
mode=unified
ablation=full
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    docs, table = marker_corpus(rng, 40, 8)
    data = root / "data.jsonl"
    write_dataset(docs, data)
    emb = root / "vectors.txt"
    with open(emb, "w", encoding="utf-8") as fh:
        for tok, vec in table.vectors.items():
            fh.write(tok + " " + " ".join(repr(float(v)) for v in vec) + "\n")
    config = root / "train.cfg"
    config.write_text(CONFIG, encoding="utf-8")
    tree_file = root / "one.tree"
    tree_file.write_text(serialize_sexpr(docs[0].tree), encoding="utf-8")
    fixture_model = root / "fixture_model.json"
    vocab = AttributeVocab.from_trees(d.tree for d in docs)
    save_model(init_model(8, SharingMode.UNIFIED, vocab=vocab, seed=1), fixture_model)
    return {"root": root, "data": data, "emb": emb, "config": config,
            "tree": tree_file, "docs": docs, "model": fixture_model}


def test_validate_ok(workspace, capsys):
    assert run(["validate", "--data", str(workspace["data"])]) == 0
    out = capsys.readouterr().out
    assert "40 valid, 0 invalid" in out


def test_validate_flags_bad_line(workspace, capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    good_line = workspace["data"].read_text().splitlines()[0]
    bad.write_text(good_line + "\n" + '{"id": "x", "label": 1, "tree": "(EDU"}\n')
    assert run(["validate", "--data", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "line 2" in captured.err
    assert "1 valid, 1 invalid" in captured.out


def test_train_eval_predict_cycle(workspace, capsys, monkeypatch):
    root = workspace["root"]
    model = root / "model.json"
    report = root / "report.json"
    code = run([
        "train", "--data", str(workspace["data"]), "--embeddings", str(workspace["emb"]),
        "--config", str(workspace["config"]), "--out", str(model), "--report", str(report),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "macro_f1" in captured.out
    assert "epoch 1" in captured.err
    payload = json.loads(report.read_text())
    assert payload["best_epoch"] in (1, 2)

    assert run([
        "eval", "--model", str(model), "--data", str(workspace["data"]),
        "--embeddings", str(workspace["emb"]),
    ]) == 0
    out = capsys.readouterr().out
    assert "auc" in out

    assert run([
        "predict", "--model", str(model), "--embeddings", str(workspace["emb"]),
        "--tree", str(workspace["tree"]),
    ]) == 0
    value = float(capsys.readouterr().out.strip())
    assert 0.0 < value < 1.0

    monkeypatch.setattr("sys.stdin", io.StringIO(workspace["tree"].read_text()))
    assert run([
        "predict", "--model", str(model), "--embeddings", str(workspace["emb"]),
    ]) == 0
    value = float(capsys.readouterr().out.strip())
    assert 0.0 < value < 1.0


def test_train_is_deterministic(workspace, tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        model = tmp_path / f"{name}.json"
        report = tmp_path / f"{name}_rep.json"
        assert run([
            "train", "--data", str(workspace["data"]), "--embeddings", str(workspace["emb"]),
            "--config", str(workspace["config"]), "--out", str(model), "--report", str(report),
        ]) == 0
        outs.append((model.read_bytes(), report.read_bytes()))
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_predict_rejects_bad_tree(workspace, capsys, tmp_path):
    model = workspace["model"]
    bad = tmp_path / "bad.tree"
    bad.write_text("(EDU (NNP x)", encoding="utf-8")
    assert run([
        "predict", "--model", str(model), "--embeddings", str(workspace["emb"]),
        "--tree", str(bad),
    ]) == 1
    assert "invalid tree" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["unified", "level_specific", "attribute_specific"])
def test_gradcheck_passes(mode, capsys):
    assert run(["gradcheck", "--mode", mode, "--d", "8", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert float(out.split(":")[1].strip()) < 1e-4


def test_stats_csv_on_stdout(workspace, capsys):
    assert run(["stats", "--data", str(workspace["data"])]) == 0
    out = capsys.readouterr().out
    assert out.startswith("statistic,fake_mean,true_mean,t,dof,p_value")


def test_stats_file_outputs(workspace, tmp_path):
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    assert run([
        "stats", "--data", str(workspace["data"]),
        "--csv", str(csv_path), "--json", str(json_path),
    ]) == 0
    assert csv_path.read_text().startswith("statistic,")
    rows = json.loads(json_path.read_text())
    assert rows and "p_value" in rows[0]


def test_missing_file_is_io_error(capsys):
    assert run(["validate", "--data", "/nonexistent/data.jsonl"]) == 2
    assert run(["eval", "--model", "/nonexistent/m.json", "--data", "x", "--embeddings", "y"]) == 2


def test_corrupt_model_is_io_error(workspace, tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text("{", encoding="utf-8")
    assert run([
        "eval", "--model", str(bad), "--data", str(workspace["data"]),
        "--embeddings", str(workspace["emb"]),
    ]) == 2


def test_non_finite_model_is_io_error(workspace, tmp_path, capsys):
    doc = json.loads(workspace["model"].read_text())
    doc["classifier"]["W"][0][0] = float("nan")
    bad = tmp_path / "nan_model.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert run([
        "predict", "--model", str(bad), "--embeddings", str(workspace["emb"]),
        "--tree", str(workspace["tree"]),
    ]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_failure_exit_code(workspace, tmp_path, capsys):
    emb = tmp_path / "huge.txt"
    tokens = sorted({w for d in workspace["docs"] for w in _words(d.tree)})
    with open(emb, "w", encoding="utf-8") as fh:
        for i, tok in enumerate(tokens):
            sign = 1 if i % 2 else -1
            vals = [sign * 1.7e308, -sign * 1.7e308] * 4
            fh.write(tok + " " + " ".join(repr(v) for v in vals) + "\n")
    config = tmp_path / "c.cfg"
    config.write_text(CONFIG + "ablation=no_structure\n", encoding="utf-8")
    code = run([
        "train", "--data", str(workspace["data"]), "--embeddings", str(emb),
        "--config", str(config),
        "--out", str(tmp_path / "m.json"), "--report", str(tmp_path / "r.json"),
    ])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


def _words(tree):
    from hero.ling_tree import leaf_words

    return leaf_words(tree)


def test_single_class_stats_is_input_error(tmp_path, capsys):
    single = tmp_path / "single.jsonl"
    single.write_text(
        '{"id": "a", "label": 1, "tree": "(EDU (NNP x))"}\n'
        '{"id": "b", "label": 1, "tree": "(EDU (NNP y))"}\n',
        encoding="utf-8",
    )
    assert run(["stats", "--data", str(single)]) == 2
    assert "fake and true" in capsys.readouterr().err


def test_too_few_documents_is_input_error(workspace, tmp_path, capsys):
    small = tmp_path / "small.jsonl"
    small.write_text(
        "\n".join(workspace["data"].read_text().splitlines()[:5]) + "\n",
        encoding="utf-8",
    )
    code = run([
        "train", "--data", str(small), "--embeddings", str(workspace["emb"]),
        "--config", str(workspace["config"]),
        "--out", str(tmp_path / "m.json"), "--report", str(tmp_path / "r.json"),
    ])
    assert code == 2
    assert "at least 10" in capsys.readouterr().err
