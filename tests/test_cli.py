import base64
import io
import json

import numpy as np
import pytest

from hero.cli import run
from hero.embed import load_table
from hero.ling_tree import parse_sexpr, serialize_sexpr
from hero.model import (
    AttributeVocab, SharingMode, encode_document, init_model, load_model, predict, save_model,
)
from hero.synthetic import marker_corpus
from hero.trainer import LabeledDocument, evaluate, format_metrics_table, write_dataset

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


def test_validate_flags_non_integer_labels(tmp_path, capsys):
    data = tmp_path / "labels.jsonl"
    data.write_text(
        '{"id": "a", "label": true, "tree": "(EDU (NNP x))"}\n'
        '{"id": "b", "label": 0.0, "tree": "(EDU (NNP x))"}\n',
        encoding="utf-8",
    )
    assert run(["validate", "--data", str(data)]) == 1
    captured = capsys.readouterr()
    assert "line 1" in captured.err and "line 2" in captured.err
    assert "0 valid, 2 invalid" in captured.out


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_non_finite_lr_is_config_error(workspace, tmp_path, capsys, lr):
    config = tmp_path / "c.cfg"
    config.write_text(CONFIG.replace("lr=0.01", f"lr={lr}"), encoding="utf-8")
    code = run([
        "train", "--data", str(workspace["data"]), "--embeddings", str(workspace["emb"]),
        "--config", str(config),
        "--out", str(tmp_path / "m.json"), "--report", str(tmp_path / "r.json"),
    ])
    assert code == 2
    assert "finite" in capsys.readouterr().err


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
    flat = np.frombuffer(base64.b64decode(doc["flat"]), dtype="<f8").copy()
    flat[-1] = float("nan")
    doc["flat"] = base64.b64encode(flat.tobytes()).decode("ascii")
    bad = tmp_path / "nan_model.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert run([
        "predict", "--model", str(bad), "--embeddings", str(workspace["emb"]),
        "--tree", str(workspace["tree"]),
    ]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_version_1_model_is_io_error(workspace, tmp_path, capsys):
    doc = json.loads(workspace["model"].read_text())
    doc["version"] = 1
    old = tmp_path / "v1_model.json"
    old.write_text(json.dumps(doc), encoding="utf-8")
    assert run([
        "predict", "--model", str(old), "--embeddings", str(workspace["emb"]),
        "--tree", str(workspace["tree"]),
    ]) == 2
    assert "version 1" in capsys.readouterr().err


def test_version_2_model_is_io_error(workspace, tmp_path, capsys):
    # Version 2 stored flat as a JSON list of numbers.
    doc = json.loads(workspace["model"].read_text())
    doc["version"] = 2
    doc["flat"] = load_model(workspace["model"]).flat.tolist()
    old = tmp_path / "v2_model.json"
    old.write_text(json.dumps(doc), encoding="utf-8")
    assert run([
        "predict", "--model", str(old), "--embeddings", str(workspace["emb"]),
        "--tree", str(workspace["tree"]),
    ]) == 2
    assert "version 2" in capsys.readouterr().err


def test_predict_logs_oov_leaves_and_unk_nodes(workspace, tmp_path, capsys):
    vocab = AttributeVocab.from_trees(d.tree for d in workspace["docs"])
    params = init_model(8, SharingMode.ATTRIBUTE_SPECIFIC, vocab=vocab, seed=2)
    model = tmp_path / "attr.json"
    save_model(params, model)
    table = load_table(workspace["emb"], 8)
    known = serialize_sexpr(workspace["docs"][0].tree)
    word = next(iter(table.vectors))
    cases = [
        (known, ""),
        # Two unseen words; an unseen relation, and an unseen constituency
        # label that its EDU borrows.
        (f"(SN-unseen (EDU (XYZ qqnever)) (EDU (NN {word} qqalso)))",
         "2 of 3 leaves out of vocabulary; 3 nodes use an UNK GRU\n"),
        (f"(EDU (XYZ {word}))", "0 of 1 leaves out of vocabulary; 2 nodes use an UNK GRU\n"),
    ]
    for text, note in cases:
        tree_file = tmp_path / "t.tree"
        tree_file.write_text(text, encoding="utf-8")
        assert run([
            "predict", "--model", str(model), "--embeddings", str(workspace["emb"]),
            "--tree", str(tree_file),
        ]) == 0
        captured = capsys.readouterr()
        assert captured.err == note
        tree = parse_sexpr(text)
        assert captured.out == f"{predict(params, encode_document(params, tree, table))}\n"


def test_negative_seed_in_config_is_config_error(workspace, tmp_path, capsys):
    config = tmp_path / "c.cfg"
    config.write_text(CONFIG.replace("seed=0", "seed=-1"), encoding="utf-8")
    code = run([
        "train", "--data", str(workspace["data"]), "--embeddings", str(workspace["emb"]),
        "--config", str(config),
        "--out", str(tmp_path / "m.json"), "--report", str(tmp_path / "r.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"


def test_negative_gradcheck_seed_is_config_error(capsys):
    assert run(["gradcheck", "--mode", "unified", "--seed", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be non-negative, got -3\n"


def test_table_duplicates_are_logged(workspace, tmp_path, capsys):
    lines = workspace["emb"].read_text().splitlines(keepends=True)
    emb = tmp_path / "dup.txt"
    emb.write_text("".join(lines + lines[:2]), encoding="utf-8")
    model, report = tmp_path / "m.json", tmp_path / "r.json"
    commands = [
        ["train", "--data", str(workspace["data"]), "--config", str(workspace["config"]),
         "--out", str(model), "--report", str(report)],
        ["eval", "--model", str(model), "--data", str(workspace["data"])],
        ["predict", "--model", str(model), "--tree", str(workspace["tree"])],
    ]

    def outputs(argv, table):
        code = run(argv + ["--embeddings", str(table)])
        return code, capsys.readouterr(), model.read_bytes(), report.read_bytes()

    for argv in commands:
        code, plain, *files = outputs(argv, workspace["emb"])
        code_dup, dup, *files_dup = outputs(argv, emb)
        assert code == code_dup == 0
        assert dup.out == plain.out and files_dup == files
        notes = [line for line in dup.err.splitlines() if line not in plain.err.splitlines()]
        assert notes == [f"{emb}: 2 duplicate token lines; the last vector of each token is used"]



def _predict(workspace, emb, tree=None):
    return run([
        "predict", "--model", str(workspace["model"]), "--embeddings", str(emb),
        "--tree", str(tree or workspace["tree"]),
    ])


@pytest.mark.parametrize("bad", ["{tok} 1 2", "{tok} " + "x " * 8, "{tok} " + "nan " * 8, "{tok}"],
                         ids=["short", "not_a_float", "nan", "token_only"])
def test_predict_checks_only_the_table_lines_it_uses(workspace, tmp_path, capsys, bad):
    """Lines of tokens the tree does not contain are not parsed."""
    assert _predict(workspace, workspace["emb"]) == 0
    expected = capsys.readouterr()
    words = set(_words(workspace["docs"][0].tree))
    lines = workspace["emb"].read_text().splitlines(keepends=True)
    tokens = [line.split()[0] for line in lines]
    unused = next(i for i, tok in enumerate(tokens) if tok not in words)
    used = next(i for i, tok in enumerate(tokens) if tok in words)
    emb = tmp_path / "bad.txt"

    emb.write_text("".join(lines[:unused] + [bad.format(tok=tokens[unused]) + "\n"] + lines[unused + 1:]))
    assert _predict(workspace, emb) == 0
    assert capsys.readouterr() == expected

    emb.write_text("".join(lines[:used] + [bad.format(tok=tokens[used]) + "\n"] + lines[used + 1:]))
    assert _predict(workspace, emb) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line {used + 1}: " in captured.err


def test_predict_rejects_a_width_its_checkpoint_bytes_do_not_fit(workspace, tmp_path, capsys):
    doc = json.loads(workspace["model"].read_text())
    doc["d"] = 2 ** 24
    model = tmp_path / "huge.json"
    model.write_text(json.dumps(doc))
    assert run(["predict", "--model", str(model), "--embeddings", str(workspace["emb"]),
                "--tree", str(workspace["tree"])]) == 2
    assert "do not fit" in capsys.readouterr().err


def test_predict_rejects_bad_tree_before_reading_the_table(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.tree"
    bad.write_text("(EDU (NNP x)", encoding="utf-8")
    assert _predict(workspace, tmp_path / "no_such_table.txt", bad) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid tree: ") and "no_such_table" not in err


def test_eval_logs_oov_leaves(workspace, tmp_path, capsys):
    argv = ["eval", "--model", str(workspace["model"]), "--data", str(workspace["data"]), "--embeddings"]
    assert run(argv + [str(workspace["emb"])]) == 0
    plain = capsys.readouterr()
    assert "out of vocabulary" not in plain.err
    dropped = {"the", "zzhoax"}
    lines = workspace["emb"].read_text().splitlines(keepends=True)
    emb = tmp_path / "partial.txt"
    emb.write_text("".join(line for line in lines if line.split()[0] not in dropped))
    words = [w for d in workspace["docs"] for w in _words(d.tree)]
    oov = sum(w in dropped for w in words)
    assert 0 < oov < len(words)
    assert run(argv + [str(emb)]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"{oov} of {len(words)} leaves out of vocabulary; 0 nodes use an UNK GRU\n"
    assert captured.out.startswith("macro_f1")


def test_eval_logs_unk_nodes_of_labels_unseen_in_training(workspace, tmp_path, capsys):
    vocab = AttributeVocab.from_trees(d.tree for d in workspace["docs"])
    params = init_model(8, SharingMode.ATTRIBUTE_SPECIFIC, vocab=vocab, seed=2)
    model = tmp_path / "attr.json"
    save_model(params, model)
    table = load_table(workspace["emb"], 8)
    word = next(iter(table.vectors))
    texts = [
        serialize_sexpr(workspace["docs"][0].tree),
        # An unseen relation, and an unseen constituency label that its EDU
        # borrows: 3 UNK nodes.
        f"(SN-unseen (EDU (XYZ {word})) (EDU (NN {word} {word})))",
        f"(EDU (XYZ {word}))",  # 2 UNK nodes
    ]
    docs = [LabeledDocument(f"u{i}", parse_sexpr(text), i % 2) for i, text in enumerate(texts)]
    data = tmp_path / "unseen.jsonl"
    write_dataset(docs, data)
    assert run(["eval", "--model", str(model), "--data", str(data), "--embeddings", str(workspace["emb"])]) == 0
    captured = capsys.readouterr()
    leaves = sum(len(_words(d.tree)) for d in docs)
    assert captured.err == f"0 of {leaves} leaves out of vocabulary; 5 nodes use an UNK GRU\n"
    assert captured.out == format_metrics_table(evaluate(params, docs, table)) + "\n"


def test_model_label_at_the_wrong_level_is_io_error(workspace, tmp_path, capsys):
    doc = json.loads(workspace["model"].read_text())
    doc["attribute_vocab"] = {"syntax": ["NS-x", "NN"], "rr": []}
    bad = tmp_path / "levels.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert _predict(workspace, workspace["emb"]) == 0
    capsys.readouterr()
    assert run(["predict", "--model", str(bad), "--embeddings", str(workspace["emb"]),
                "--tree", str(workspace["tree"])]) == 2
    assert "syntax label 'NS-x' is a RR label" in capsys.readouterr().err


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
    config.write_text(CONFIG.replace("ablation=full", "ablation=no_structure"), encoding="utf-8")
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
