"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Numbered tolerances and runtime budgets are asserted directly. The final
at-scale reproduction check is conditional on externally supplied corpora
and skips otherwise; it is documentation, not a gate.
"""

import os
import time

import numpy as np
import pytest

from hero.ling_tree import parse_sexpr, serialize_sexpr
from hero.model import (
    AblationMode, AttributeVocab, SharingMode, UNIFIED_KEY,
    encode_document, gradient_check_model, init_model,
    load_model, param_count, save_model,
)
from hero.synthetic import gradcheck_fixture, marker_corpus, random_embedding_table, random_tree
from hero.trainer import (
    TrainConfig, compute_metrics, read_dataset, split_dataset, train,
)
from hero.stats import compare_groups, t_two_sided_p
from reference import (
    auc_reference, encode_reference, macro_f1_reference, micro_f1_reference,
    t_two_sided_p_reference, tree_equal,
)


def report(criterion, message):
    print(f"\n[PASS] criterion {criterion}: {message}")


def test_criterion_01_gradient_exactness():
    started = time.time()
    worst = 0.0
    for mode in SharingMode:
        for ablation in AblationMode:
            rng = np.random.default_rng(7)
            gen, table = gradcheck_fixture(rng, 8)
            vocab = AttributeVocab.from_trees([gen.tree])
            model = init_model(8, mode, ablation, vocab, rng=rng, random_classifier=True)
            err = gradient_check_model(model, gen.tree, table, y=1)
            assert err < 1e-4, f"{mode.value}/{ablation.value}: {err:.3e}"
            worst = max(worst, err)
    elapsed = time.time() - started
    assert elapsed < 120.0
    report(1, f"12 sharing/ablation combos, worst relative error {worst:.2e} in {elapsed:.0f}s")


def test_criterion_02_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(100)
    worst = 0.0
    for i in range(50):
        gen = random_tree(rng)
        table = random_embedding_table(rng, gen.words, 8)
        vocab = AttributeVocab.from_trees([gen.tree])
        for mode in SharingMode:
            model = init_model(8, mode, AblationMode.FULL, vocab,
                               seed=i, random_classifier=True)
            mine = encode_document(model, gen.tree, table).h_doc
            ref = encode_reference(model, gen.tree, table)
            diff = float(np.max(np.abs(mine - np.asarray(ref))))
            assert diff < 1e-10, f"tree {i}, {mode.value}: {diff:.3e}"
            worst = max(worst, diff)
    elapsed = time.time() - started
    assert elapsed < 30.0
    report(2, f"50 trees x 3 modes vs brute-force evaluator, worst |diff| {worst:.2e} in {elapsed:.1f}s")


def test_criterion_03_mode_nesting():
    rng = np.random.default_rng(200)
    for i in range(20):
        gen = random_tree(rng)
        table = random_embedding_table(rng, gen.words, 8)
        vocab = AttributeVocab.from_trees([gen.tree])
        unified = init_model(8, SharingMode.UNIFIED, vocab=vocab, seed=i,
                             random_classifier=True)
        shared = unified.registry[UNIFIED_KEY]
        others = []
        for mode in (SharingMode.LEVEL_SPECIFIC, SharingMode.ATTRIBUTE_SPECIFIC):
            tied = init_model(8, mode, vocab=vocab, seed=i)
            for key in tied.registry:
                tied.registry[key] = shared.copy()
            tied.classifier = unified.classifier.copy()
            others.append(tied)
        h_unified = encode_document(unified, gen.tree, table).h_doc
        for tied in others:
            h_tied = encode_document(tied, gen.tree, table).h_doc
            assert np.array_equal(h_unified, h_tied)
    report(3, "tied level-specific and attribute-specific registries reproduce "
              "unified encodings bit-for-bit on 20 trees")


def test_criterion_04_synthetic_learnability():
    started = time.time()
    rng = np.random.default_rng(42)
    docs, table = marker_corpus(rng, 200, 16)
    split = split_dataset(docs, seed=1)
    config = TrainConfig(lr=0.01, max_epochs=50, seed=1, d=16,
                         mode=SharingMode.UNIFIED)
    _, train_report = train(split, config, table)
    elapsed = time.time() - started
    auc = train_report.test.auc
    assert auc is not None and auc >= 0.95, f"held-out AUC {auc}"
    assert elapsed < 300.0
    report(4, f"separable 200-document corpus reaches held-out AUC {auc:.3f} "
              f"(epoch {train_report.best_epoch}) in {elapsed:.0f}s")


def test_criterion_05_parameter_counts():
    unified = init_model(100, SharingMode.UNIFIED)
    level = init_model(100, SharingMode.LEVEL_SPECIFIC)
    vocab = AttributeVocab(
        tuple(f"P{i}" for i in range(10)), tuple(f"NS-r{j}" for j in range(5))
    )
    attr = init_model(100, SharingMode.ATTRIBUTE_SPECIFIC, vocab=vocab)
    counts = (param_count(unified), param_count(level), param_count(attr))
    assert counts == (45_202, 90_202, 765_202)
    report(5, f"parameter counts {counts} match the d=100 closed forms exactly")


def test_criterion_06_metrics_oracle():
    rng = np.random.default_rng(300)
    for trial in range(100):
        n = int(rng.integers(2, 50))
        labels = rng.integers(0, 2, n).tolist()
        scores = np.round(rng.uniform(0, 1, n), 2).tolist()
        metrics = compute_metrics(labels, scores)
        preds = [1 if s >= 0.5 else 0 for s in scores]
        assert abs(metrics.macro_f1 - macro_f1_reference(labels, preds)) < 1e-12
        assert abs(metrics.micro_f1 - micro_f1_reference(labels, preds)) < 1e-12
        ref_auc = auc_reference(labels, scores)
        if ref_auc is None:
            assert metrics.auc is None
        else:
            assert abs(metrics.auc - ref_auc) < 1e-12
        # micro-F1 = accuracy for single-label binary classification
        accuracy = sum(1 for y, p in zip(labels, preds) if y == p) / n
        assert abs(metrics.micro_f1 - accuracy) < 1e-12
        # AUC is rank-based: invariant under strictly increasing transforms
        cubed = compute_metrics(labels, [s ** 3 for s in scores]).auc
        if metrics.auc is not None:
            assert abs(metrics.auc - cubed) < 1e-12
    report(6, "macro/micro/AUC match quadratic-time references on 100 random "
              "prediction sets; accuracy and monotone-invariance identities hold")


def test_criterion_07_welch_t_test():
    worst = 0.0
    for dof in range(1, 201):
        for t in (0.0, 0.5, 1.3, 2.7, 5.0):
            mine = t_two_sided_p(t, float(dof))
            ref = t_two_sided_p_reference(t, float(dof))
            worst = max(worst, abs(mine - ref))
            assert abs(mine - ref) < 1e-6, f"dof={dof}, t={t}"
    fixture = compare_groups([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert fixture.t == pytest.approx(-1.0, abs=1e-12)
    assert fixture.dof == pytest.approx(8.0, abs=1e-12)
    assert fixture.p_value == pytest.approx(0.3466, abs=1e-4)
    report(7, f"tail probabilities match numerical integration within {worst:.1e} "
              f"over dof 1..200; textbook fixture gives t=-1, dof=8, p=0.3466")


def test_criterion_08_round_trips(tmp_path):
    rng = np.random.default_rng(400)
    for _ in range(1000):
        gen = random_tree(rng)
        text = serialize_sexpr(gen.tree)
        again = parse_sexpr(text)
        assert tree_equal(gen.tree.root, again.root)
        assert serialize_sexpr(again) == text

    gen = random_tree(rng, n_edus=4)
    table = random_embedding_table(rng, gen.words, 8)
    vocab = AttributeVocab.from_trees([gen.tree])
    model = init_model(8, SharingMode.ATTRIBUTE_SPECIFIC, vocab=vocab, seed=5,
                       random_classifier=True)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    h_before = encode_document(model, gen.tree, table).h_doc
    h_after = encode_document(loaded, gen.tree, table).h_doc
    assert np.array_equal(h_before, h_after)
    report(8, "1000 generated trees survive parse/serialize identity; "
              "checkpoint reload reproduces encodings bit-for-bit")


def test_criterion_09_determinism(tmp_path):
    rng = np.random.default_rng(500)
    docs, table = marker_corpus(rng, 60, 8)
    split = split_dataset(docs, seed=2)
    config = TrainConfig(lr=0.01, max_epochs=5, seed=2, d=8)
    artifacts = []
    for name in ("first", "second"):
        params, train_report = train(split, config, table)
        ckpt = tmp_path / f"{name}.json"
        save_model(params, ckpt)
        rep = tmp_path / f"{name}_report.json"
        rep.write_text(train_report.to_json(), encoding="utf-8")
        artifacts.append((ckpt.read_bytes(), rep.read_bytes()))
    assert artifacts[0][0] == artifacts[1][0], "checkpoints differ"
    assert artifacts[0][1] == artifacts[1][1], "reports differ"
    report(9, "repeated training with identical seed/config/data yields "
              "byte-identical checkpoints and reports")


def test_criterion_10_conditional_reproduction():
    """At-scale mode comparison on externally supplied pre-parsed corpora.

    Point HERO_DATA_DIR at a directory containing recovery.jsonl (and a
    GloVe-style recovery_vectors.txt) to run the three sharing modes under
    the full protocol and check that the attribute-specific model ranks
    first by test AUC. This is an experiment, not a CI gate.
    """
    data_dir = os.environ.get("HERO_DATA_DIR")
    if not data_dir:
        pytest.skip("set HERO_DATA_DIR to pre-parsed corpora to run the "
                    "at-scale mode-ranking experiment (non-gating)")
    from hero.embed import load_table

    docs = read_dataset(os.path.join(data_dir, "recovery.jsonl"))
    table = load_table(os.path.join(data_dir, "recovery_vectors.txt"), 100)
    split = split_dataset(docs, seed=0)
    aucs = {}
    for mode in SharingMode:
        config = TrainConfig(lr=1e-4, max_epochs=50, seed=0, d=100, mode=mode)
        _, train_report = train(split, config, table)
        aucs[mode.value] = train_report.test.auc
    best = max(aucs, key=aucs.get)
    assert best == SharingMode.ATTRIBUTE_SPECIFIC.value, aucs
    report(10, f"attribute-specific sharing ranks first on the supplied corpus: {aucs}")
