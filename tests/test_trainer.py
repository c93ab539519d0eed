import gc
import json
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import hero.trainer
from hero.embed import EmbeddingTable
from hero.ling_tree import iter_nodes, leaf_words, parse_sexpr, post_order
from hero.model import (
    CHUNK_ROWS, AblationMode, AttributeVocab, SharingMode, encode_document, init_model, predict, save_model,
)
from hero.synthetic import marker_corpus, random_embedding_table, random_tree
from hero.trainer import (
    ConfigError, DatasetError, EmptyEvalSetError, EpochLog, LabeledDocument,
    MetricsReport, NonFiniteLossError, TooFewDocumentsError, TrainConfig, TrainReport,
    compute_metrics, evaluate, format_metrics_table, grid_search_lr, parse_config,
    read_dataset, scan_dataset, split_dataset, train, write_dataset,
)
from reference import auc_reference, macro_f1_reference, micro_f1_reference

TINY_TREE = "(EDU (NNP word))"


class Cycle:
    """Refers to itself, so only the cyclic collector frees it."""


def dummy_docs(n):
    tree = parse_sexpr(TINY_TREE)
    return [LabeledDocument(f"d{i}", tree, i % 2) for i in range(n)]


class TestSplit:
    def test_ten_documents(self):
        split = split_dataset(dummy_docs(10), seed=0)
        assert (len(split.train), len(split.val), len(split.test)) == (7, 1, 2)

    def test_2029_documents(self):
        split = split_dataset(dummy_docs(2029), seed=0)
        assert (len(split.train), len(split.val), len(split.test)) == (1420, 202, 407)

    def test_same_seed_same_split(self):
        docs = dummy_docs(37)
        a = split_dataset(docs, seed=9)
        b = split_dataset(docs, seed=9)
        assert [d.doc_id for d in a.train] == [d.doc_id for d in b.train]
        assert [d.doc_id for d in a.test] == [d.doc_id for d in b.test]

    def test_partition_is_exact(self):
        docs = dummy_docs(53)
        split = split_dataset(docs, seed=2)
        ids = [d.doc_id for part in (split.train, split.val, split.test) for d in part]
        assert sorted(ids) == sorted(d.doc_id for d in docs)

    def test_too_few(self):
        with pytest.raises(TooFewDocumentsError):
            split_dataset(dummy_docs(9), seed=0)


class TestMetrics:
    def test_all_correct(self):
        m = compute_metrics([1, 0, 1, 0], [0.9, 0.1, 0.8, 0.2])
        assert m.macro_f1 == m.micro_f1 == m.auc == 1.0

    def test_auc_pairwise_fixture(self):
        m = compute_metrics([1, 1, 0, 0], [0.9, 0.4, 0.6, 0.1])
        assert m.auc == pytest.approx(0.75, abs=1e-12)

    def test_confusion_fixture(self):
        m = compute_metrics([1, 1, 0, 0], [0.9, 0.2, 0.3, 0.1])
        assert (m.tp, m.fn, m.tn, m.fp) == (1, 1, 2, 0)
        assert m.macro_f1 == pytest.approx(11.0 / 15.0, abs=1e-12)
        assert m.micro_f1 == pytest.approx(0.75, abs=1e-12)

    def test_single_class_auc_absent(self):
        m = compute_metrics([1, 1], [0.9, 0.2])
        assert m.auc is None

    def test_empty_set(self):
        with pytest.raises(EmptyEvalSetError):
            compute_metrics([], [])

    @pytest.mark.parametrize("scores", [[0.9, math.nan, 0.2, 0.1], [math.nan, 0.9, 0.2, 0.1]])
    def test_nan_score_rejected(self, scores):
        with pytest.raises(ValueError, match="NaN"):
            compute_metrics([1, 0, 1, 0], scores)

    def test_matches_quadratic_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 201))
            labels = rng.integers(0, 2, n).tolist()
            scores = np.round(rng.uniform(0, 1, n), int(rng.integers(0, 4))).tolist()  # force ties
            m = compute_metrics(labels, scores)
            preds = [1 if s >= 0.5 else 0 for s in scores]
            assert m.macro_f1 == pytest.approx(macro_f1_reference(labels, preds), abs=1e-12)
            assert m.micro_f1 == pytest.approx(micro_f1_reference(labels, preds), abs=1e-12)
            # Both divide an exact half-integer count: the same bits.
            assert m.auc == auc_reference(labels, scores)

    def test_micro_f1_is_accuracy(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            labels = rng.integers(0, 2, n).tolist()
            scores = rng.uniform(0, 1, n).tolist()
            m = compute_metrics(labels, scores)
            accuracy = sum(1 for y, s in zip(labels, scores) if (s >= 0.5) == bool(y)) / n
            assert m.micro_f1 == pytest.approx(accuracy, abs=1e-12)

    def test_auc_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            labels = rng.integers(0, 2, 25).tolist()
            scores = rng.uniform(0, 1, 25).tolist()
            a = compute_metrics(labels, scores).auc
            b = compute_metrics(labels, [s ** 3 for s in scores]).auc
            if a is None:
                assert b is None
            else:
                assert b == pytest.approx(a, abs=1e-12)

    def test_metrics_recompute_from_confusion_counts(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            labels = rng.integers(0, 2, 20).tolist()
            scores = rng.uniform(0, 1, 20).tolist()
            m = compute_metrics(labels, scores)
            f1_fake = 2 * m.tp / (2 * m.tp + m.fp + m.fn) if (2 * m.tp + m.fp + m.fn) else 0.0
            f1_true = 2 * m.tn / (2 * m.tn + m.fn + m.fp) if (2 * m.tn + m.fn + m.fp) else 0.0
            assert m.macro_f1 == pytest.approx((f1_fake + f1_true) / 2, abs=1e-15)
            assert m.micro_f1 == pytest.approx((m.tp + m.tn) / (m.tp + m.fp + m.tn + m.fn), abs=1e-15)


class TestConfig:
    def test_parse_round_trip(self):
        text = """
        # training setup
        lr=0.01
        max_epochs=5
        seed=3
        d=8
        mode=attribute_specific
        ablation=no_syntax
        """
        cfg = parse_config(text)
        assert cfg.lr == 0.01
        assert cfg.max_epochs == 5
        assert cfg.seed == 3
        assert cfg.d == 8
        assert cfg.mode is SharingMode.ATTRIBUTE_SPECIFIC
        assert cfg.ablation is AblationMode.NO_SYNTAX

    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.lr == 1e-4 and cfg.max_epochs == 50 and cfg.d == 100
        assert cfg.mode is SharingMode.UNIFIED

    @pytest.mark.parametrize(
        "text", ["lr=-1", "lr=nan", "lr=inf", "d=7", "max_epochs=0", "mode=giant", "whatever=1",
                 "lr 0.1", "shuffle=maybe",
                 "seed=-1", "lr=0.1\nd=8\nlr=0.001"]
    )
    def test_rejects(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)


class TestDatasetIO:
    def test_write_read_round_trip(self, tmp_path):
        docs = dummy_docs(12)
        path = tmp_path / "data.jsonl"
        write_dataset(docs, path)
        again = read_dataset(path)
        assert [d.doc_id for d in again] == [d.doc_id for d in docs]
        assert [d.y for d in again] == [d.y for d in docs]

    def test_scan_collects_problems(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"id": "a", "label": 1, "tree": "(EDU (NNP x))"}\n'
            "not json\n"
            '{"id": "c", "label": 2, "tree": "(EDU (NNP x))"}\n'
            '{"id": "d", "label": 0, "tree": "(EDU (NNP x)"}\n'
            '{"id": "", "label": 0, "tree": "(EDU (NNP x))"}\n',
            encoding="utf-8",
        )
        docs, problems = scan_dataset(path)
        assert [d.doc_id for d in docs] == ["a"]
        assert [line for line, _ in problems] == [2, 3, 4, 5]

    def test_scan_accepts_only_integer_labels(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"id": "a", "label": 0, "tree": "(EDU (NNP x))"}\n'
            '{"id": "b", "label": true, "tree": "(EDU (NNP x))"}\n'
            '{"id": "c", "label": 1.0, "tree": "(EDU (NNP x))"}\n'
            '{"id": "d", "label": false, "tree": "(EDU (NNP x))"}\n'
            '{"id": "e", "label": 1, "tree": "(EDU (NNP x))"}\n',
            encoding="utf-8",
        )
        docs, problems = scan_dataset(path)
        assert [d.doc_id for d in docs] == ["a", "e"]
        assert [type(d.y) for d in docs] == [int, int]
        assert [line for line, _ in problems] == [2, 3, 4]

    def test_scan_leaves_no_cycles(self, tmp_path):
        """The scan pauses the cyclic collector, so it must make no reference
        cycles: everything it discards, or drops with its result, is freed by
        reference counting alone."""
        path = tmp_path / "data.jsonl"
        lines = [
            '{"id": "a", "label": 1, "tree": "(NS-elaboration (EDU (NNP x)) (EDU (VBD y)))"}',
            '{"id": "b", "label": 0, "tree": "(EDU (NNP x)"}',  # UnbalancedParensError
            '{"id": "c", "label": 0, "tree": "(EDU ( x))"}',  # EmptyNodeError
            '{"id": "d", "label": 1, "tree": "(NNP x)"}',  # KindViolationError
            '{"id": "e", "label": 1, "tree": "(SS-joint (EDU (NNP x)))"}',  # UnknownRRPrefixError
            "not json",
            "[" * 100_000,
            '{"id": "f", "label": 2, "tree": "(EDU (NNP x))"}',
            '{"id": "g", "label": 1' + "0" * 5000 + ', "tree": "(EDU (NNP x))"}',
            '{"id": "h", "label": 0, "tree": "(EDU (NNP \\ud800))"}',
            '{"id": "i", "label": 0, "tree": "(EDU (NNP \u00e9))"}',
        ]
        data = "\n".join(lines).encode() + b'\n{"id": "j", "label": 1, "tree": "(EDU (NNP \xff))"}\n'
        path.write_bytes(data)
        gc.collect()
        docs, problems = scan_dataset(path)
        assert [d.doc_id for d in docs] == ["a", "i"]
        assert [line for line, _ in problems] == [2, 3, 4, 5, 6, 7, 8, 9, 10, 12]
        del docs, problems
        assert gc.collect() == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_scan_restores_collector_state(self, tmp_path, enabled):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "label": 1, "tree": "(EDU (NNP x))"}\n', encoding="utf-8")
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            scan_dataset(path)
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == 0
            with pytest.raises(FileNotFoundError):
                scan_dataset(tmp_path / "missing.jsonl")
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == 0
        finally:
            gc.enable() if was else gc.disable()

    def test_scan_moves_what_it_built_to_the_oldest_generation(self, tmp_path):
        """With collection on, no young-generation pass walks a read's trees;
        a cycle made before the read is still freed by a full collection."""
        path = tmp_path / "data.jsonl"
        write_dataset(marker_corpus(np.random.default_rng(3), 30, 4)[0], path)
        cycle = Cycle()
        cycle.me = cycle
        alive = weakref.ref(cycle)
        was = gc.isenabled()
        gc.enable()
        try:
            docs, problems = scan_dataset(path)
            assert gc.isenabled() and gc.get_freeze_count() == 0
        finally:
            gc.enable() if was else gc.disable()
        assert len(docs) == 30 and not problems
        built = {id(docs)} | {id(obj) for doc in docs
                              for obj in (doc, doc.tree, *iter_nodes(doc.tree.root))}
        young = {id(obj) for generation in (0, 1) for obj in gc.get_objects(generation)}
        assert not built & young
        assert any(obj is cycle for obj in gc.get_objects(2))  # the caller's young objects move too
        del cycle
        gc.collect()
        assert alive() is None

    def test_scan_leaves_a_callers_frozen_objects_frozen(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "label": 1, "tree": "(EDU (NNP x))"}\n', encoding="utf-8")
        frozen = Cycle()
        frozen.me = frozen
        was = gc.isenabled()
        gc.enable()
        gc.freeze()
        try:
            count = gc.get_freeze_count()
            assert count > 0
            (doc,), _ = scan_dataset(path)
            assert gc.isenabled() and gc.get_freeze_count() >= count
            assert all(frozen is not obj for generation in (0, 1, 2) for obj in gc.get_objects(generation))
        finally:
            gc.unfreeze()
            gc.enable() if was else gc.disable()
        assert doc.doc_id == "a"

    def test_read_raises_with_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "label": 1, "tree": "(EDU"}\n', encoding="utf-8")
        with pytest.raises(DatasetError) as err:
            read_dataset(path)
        assert err.value.line_no == 1


def quick_corpus(seed=0, n=60, d=8):
    rng = np.random.default_rng(seed)
    docs, table = marker_corpus(rng, n, d)
    return split_dataset(docs, seed=seed), table


class TestTrain:
    def test_empty_training_split_rejected_before_any_work(self, monkeypatch):
        split, table = quick_corpus()
        for name in ("init_model", "evaluate"):
            monkeypatch.setattr(hero.trainer, name, None)  # neither may run
        with pytest.raises(TooFewDocumentsError, match="^need at least 1 training document, got 0$"):
            train(replace(split, train=[]), TrainConfig(d=8), table)

    def test_lr_zero_changes_nothing(self):
        split, table = quick_corpus()
        cfg = TrainConfig(lr=0.0, max_epochs=3, seed=0, d=8)
        params, report = train(split, cfg, table)
        fresh_cfg = TrainConfig(lr=0.0, max_epochs=1, seed=0, d=8)
        fresh, _ = train(split, fresh_cfg, table)
        assert np.array_equal(params.flat, fresh.flat)
        losses = [log.train_loss for log in report.epochs]
        assert losses == [pytest.approx(losses[0], abs=1e-12)] * 3

    def test_initial_loss_is_ln2_on_balanced_corpus(self):
        split, table = quick_corpus(seed=5)
        cfg = TrainConfig(lr=1e-4, max_epochs=1, seed=5, d=8)
        _, report = train(split, cfg, table)
        assert report.epochs[0].train_loss == pytest.approx(math.log(2), abs=0.05)

    def test_learns_marker_signal(self):
        split, table = quick_corpus(seed=7, n=80)
        cfg = TrainConfig(lr=0.01, max_epochs=12, seed=7, d=8)
        _, report = train(split, cfg, table)
        assert report.test.auc is not None and report.test.auc >= 0.9

    def test_deterministic_reports_and_checkpoints(self, tmp_path):
        split, table = quick_corpus(seed=3)
        cfg = TrainConfig(lr=0.01, max_epochs=3, seed=3, d=8)
        params_a, report_a = train(split, cfg, table)
        params_b, report_b = train(split, cfg, table)
        assert report_a.to_json() == report_b.to_json()
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_model(params_a, pa)
        save_model(params_b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_best_epoch_selected_on_val_auc(self):
        split, table = quick_corpus(seed=11, n=70)
        cfg = TrainConfig(lr=0.01, max_epochs=6, seed=11, d=8)
        _, report = train(split, cfg, table)
        scores = [
            log.val.auc if log.val.auc is not None else log.val.micro_f1
            for log in report.epochs
        ]
        first_best = max(range(len(scores)), key=lambda i: (scores[i], -i)) + 1
        assert report.best_epoch == first_best

    def test_best_epoch_snapshot_is_not_the_live_buffer(self):
        # Training goes on past the best epoch; a snapshot that aliased the
        # trained parameters would return the last epoch's weights instead.
        split, table = quick_corpus(seed=2)
        cfg = TrainConfig(lr=0.05, max_epochs=4, seed=2, d=8)
        params, report = train(split, cfg, table)
        assert report.best_epoch < cfg.max_epochs
        stopped, _ = train(split, replace(cfg, max_epochs=report.best_epoch), table)
        assert np.array_equal(params.flat, stopped.flat)

    def test_dim_mismatch_between_table_and_config(self):
        from hero.model import DimMismatchError

        split, table = quick_corpus(d=8)
        cfg = TrainConfig(lr=0.01, max_epochs=1, seed=0, d=16)
        with pytest.raises(DimMismatchError):
            train(split, cfg, table)


class TestReturnedWeights:
    """train returns the weights of the best validation epoch from one
    snapshot buffer, allocated at the first improvement and refilled at
    each later one."""

    CASES = {"last": [1, 2, 3, 4], "earlier": [4, 1, 2, 3], "several": [1, 2, 3, 0]}

    def scripted(self, monkeypatch, split, table, mode, scores):
        """Train 4 epochs with epoch e's selection score set to scores[e-1].
        Returns the weights, the report, the weights each validation saw,
        the live parameters and the number of snapshot copies."""
        seen, live, copies = [], [], []
        real_evaluate, real_copy = hero.trainer.evaluate, hero.trainer.copy_model

        def evaluate(params, docs, table):
            if docs is split.val:
                seen.append(params.flat.copy())
                live.append(params)
            return real_evaluate(params, docs, table)

        def copy_model(params):
            copies.append(params)
            return real_copy(params)

        script = iter(scores)
        monkeypatch.setattr(hero.trainer, "evaluate", evaluate)
        monkeypatch.setattr(hero.trainer, "copy_model", copy_model)
        monkeypatch.setattr(hero.trainer, "selection_score", lambda metrics: next(script))
        cfg = TrainConfig(lr=0.05, max_epochs=len(scores), seed=4, d=8, mode=mode)
        params, report = train(split, cfg, table)
        monkeypatch.undo()
        assert len(set(map(id, live))) == 1
        return params, report, seen, live[0], len(copies)

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("mode", list(SharingMode))
    def test_best_epoch_weights(self, monkeypatch, mode, case):
        split, table = quick_corpus(seed=4, n=30)
        scores = self.CASES[case]
        params, report, seen, live, copies = self.scripted(monkeypatch, split, table, mode, scores)
        best = scores.index(max(scores)) + 1
        assert report.best_epoch == best
        val, _, _ = evaluate(params, split.val, table)
        assert val == report.best_val
        # Later epochs moved the live weights but not the returned ones.
        assert np.array_equal(params.flat, seen[best - 1])
        if best < len(scores):
            assert not np.array_equal(seen[-1], seen[best - 1])
        assert copies == 1  # later improvements refill the first snapshot
        assert not np.shares_memory(params.flat, live.flat)
        again, report_again, _, _, _ = self.scripted(monkeypatch, split, table, mode, scores)
        assert again.flat.tobytes() == params.flat.tobytes()
        assert report_again.to_json() == report.to_json()

    def test_attribute_training_peaks_below_five_models(self):
        # Parameters, Adam's two moments and one step's gradients are the
        # four model-sized buffers of a one-epoch run; the moments are
        # released before the snapshot is taken.
        rng = np.random.default_rng(6)
        docs, table = marker_corpus(rng, 12, 100)
        split = split_dataset(docs, seed=6)
        cfg = TrainConfig(lr=1e-3, max_epochs=1, seed=6, d=100, mode=SharingMode.ATTRIBUTE_SPECIFIC)
        tracemalloc.start()
        try:
            params, _ = train(split, cfg, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert params.flat.nbytes > 4_000_000
        assert peak < 5 * params.flat.nbytes, f"peak {peak / params.flat.nbytes:.2f} models"

    def test_multi_epoch_training_holds_one_step_of_gradients(self):
        # Parameters, both moments, the snapshot and the running step's
        # gradients: a gradient buffer kept from one step to the next
        # would be a sixth.
        docs, table = marker_corpus(np.random.default_rng(3), 40, 64)
        split = split_dataset(docs, seed=3)
        cfg = TrainConfig(lr=1e-3, max_epochs=3, seed=3, d=64, mode=SharingMode.ATTRIBUTE_SPECIFIC)
        tracemalloc.start()
        try:
            params, _ = train(split, cfg, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert params.flat.size == 442_498
        assert peak < 6 * params.flat.nbytes, f"peak {peak / params.flat.nbytes:.2f} models"


def overflow_corpus(seed=0):
    """Embeddings whose entries overflow double accumulation: any word-mean
    document vector becomes +-inf, so the zero classifier yields a nan loss."""
    rng = np.random.default_rng(seed)
    docs, table = marker_corpus(rng, 40, 4)
    huge = {
        tok: np.array([1.7e308, -1.7e308, 1.7e308, -1.7e308]) * (1 if i % 2 else -1)
        for i, tok in enumerate(table.vectors)
    }
    bad = EmbeddingTable(4, huge)
    return split_dataset(docs, seed=seed), bad


class TestNonFiniteLoss:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_raises_with_context(self):
        split, table = overflow_corpus()
        cfg = TrainConfig(
            lr=0.1, max_epochs=2, seed=0, d=4, ablation=AblationMode.NO_STRUCTURE
        )
        with pytest.raises(NonFiniteLossError) as err:
            train(split, cfg, table)
        assert err.value.epoch == 1
        assert err.value.doc_id

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("step", ["first", "last"])
    def test_a_non_finite_gradient_names_its_document_before_the_update(self, monkeypatch, value, step):
        """The check runs on the step's own gradient: the error names the
        document just encoded, and Adam never sees the gradient. On the
        last step of the last epoch it is this error, not a NaN score in the
        validation metrics."""
        docs, table = marker_corpus(np.random.default_rng(8), 20, 8)
        split = split_dataset(docs, seed=8)
        plant_at = 1 if step == "first" else len(split.train)
        encoded, steps = [], []
        encode, backward = hero.trainer.encode_document, hero.trainer.backward
        adam_step = hero.trainer.nn.adam_step

        def recording_encode(params, tree, table, *rest):
            encoded.append(tree)
            return encode(params, tree, table, *rest)

        def planting_backward(params, enc, y):
            grads = backward(params, enc, y)
            if len(encoded) == plant_at:
                grads.flat[len(grads.flat) // 2] = value
            return grads

        monkeypatch.setattr(hero.trainer, "encode_document", recording_encode)
        monkeypatch.setattr(hero.trainer, "backward", planting_backward)
        monkeypatch.setattr(hero.trainer.nn, "adam_step", lambda *args: steps.append(1) or adam_step(*args))
        cfg = TrainConfig(lr=1e-3, max_epochs=1, seed=8, d=8)
        with pytest.raises(NonFiniteLossError, match="gradient") as err:
            train(split, cfg, table)
        (doc,) = [doc for doc in split.train if doc.tree is encoded[-1]]
        assert (err.value.epoch, err.value.doc_id) == (1, doc.doc_id)
        assert len(steps) == plant_at - 1


class TestTrainingWorkspace:
    @pytest.mark.parametrize("mode", list(SharingMode))
    def test_a_step_no_larger_than_an_earlier_one_allocates_no_buffer(self, monkeypatch, mode):
        """train keeps one Workspace for all its steps, and a step on a
        document no larger than an earlier step's makes no new buffer."""
        rng = np.random.default_rng(9)
        big, small = (random_tree(rng, n_edus=n, rr_arity=(2, 3)) for n in (6, 2))
        table = random_embedding_table(rng, sorted({*big.words, *small.words}), 8)
        train_docs = [LabeledDocument("big", big.tree, 1), LabeledDocument("small", small.tree, 0)]
        split = hero.trainer.Split(train_docs, [LabeledDocument("v", small.tree, 1)],
                                   [LabeledDocument("t", big.tree, 0)])
        steps = []  # per training step: its tree, its workspace, the buffers it made
        take, encode = hero.trainer.hero_model.Workspace.take, hero.trainer.encode_document

        def recording_take(self, name, rows, width):
            before = self.buffers.get(name)
            view = take(self, name, rows, width)
            if steps and self is steps[-1][1] and self.buffers[name] is not before:
                steps[-1][2].append(name)
            return view

        def recording_encode(params, trees, table, *rest):
            if rest:
                steps.append((trees, rest[0], []))
            return encode(params, trees, table, *rest)

        monkeypatch.setattr(hero.trainer.hero_model.Workspace, "take", recording_take)
        monkeypatch.setattr(hero.trainer, "encode_document", recording_encode)
        cfg = TrainConfig(lr=1e-3, max_epochs=3, seed=9, d=8, mode=mode)
        train(split, cfg, table)
        assert len(steps) == 6 and all(work is steps[0][1] for _, work, _ in steps)
        assert {"inputs", "da"} <= set(steps[0][2])
        first_big = next(i for i, (tree, _, _) in enumerate(steps) if tree is big.tree)
        for i, (_, _, made) in enumerate(steps):
            if i not in (0, first_big):  # a document no larger than an earlier step's
                assert made == [], f"step {i} made {made}"


class TestGridSearch:
    def test_singleton_grid(self):
        split, table = quick_corpus(seed=13)
        base = TrainConfig(lr=1.0, max_epochs=2, seed=13, d=8)
        result = grid_search_lr(split, base, [0.01], table)
        assert result.best_lr == 0.01
        assert list(result.reports) == [0.01]
        assert not result.failures

    def test_full_grid_has_one_winner(self):
        split, table = quick_corpus(seed=17, n=40)
        base = TrainConfig(lr=1.0, max_epochs=2, seed=17, d=8)
        result = grid_search_lr(split, base, [0.1, 0.01, 0.001, 0.0001], table)
        assert len(result.reports) == 4
        assert result.best_lr in (0.1, 0.01, 0.001, 0.0001)
        assert result.best_params is not None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_cells_marked_and_search_continues(self):
        split, table = overflow_corpus(seed=1)
        base = TrainConfig(
            lr=1.0, max_epochs=2, seed=1, d=4, ablation=AblationMode.NO_STRUCTURE
        )
        result = grid_search_lr(split, base, [0.1, 0.001], table)
        assert set(result.failures) == {0.1, 0.001}
        assert result.best_lr is None and result.best_params is None

    def test_ties_break_toward_smaller_lr(self):
        # Both rates drive validation AUC to 1.0, so the tie must resolve to
        # the smaller one even though it is listed second.
        split, table = quick_corpus(seed=31, n=60)
        base = TrainConfig(lr=1.0, max_epochs=10, seed=31, d=8)
        result = grid_search_lr(split, base, [0.1, 0.01], table)
        a = result.reports[0.1].best_val
        b = result.reports[0.01].best_val
        assert a.auc == b.auc == 1.0, "fixture must saturate both cells"
        assert result.best_lr == 0.01

    def test_empty_grid_rejected(self):
        split, table = quick_corpus()
        with pytest.raises(ConfigError):
            grid_search_lr(split, TrainConfig(d=8), [], table)

    def test_empty_training_split_rejected(self, monkeypatch):
        split, table = quick_corpus()
        monkeypatch.setattr(hero.trainer, "init_model", None)  # nothing may start
        with pytest.raises(TooFewDocumentsError, match="^need at least 1 training document, got 0$"):
            grid_search_lr(replace(split, train=[]), TrainConfig(d=8), [0.1, 0.01], table)


def test_evaluate_runs_on_plain_doc_list():
    split, table = quick_corpus(seed=23, n=30)
    cfg = TrainConfig(lr=0.01, max_epochs=1, seed=23, d=8)
    params, _ = train(split, cfg, table)
    metrics, _, _ = evaluate(params, split.test, table)
    assert 0.0 <= metrics.macro_f1 <= 1.0
    assert metrics.tp + metrics.fp + metrics.tn + metrics.fn == len(split.test)
    with pytest.raises(EmptyEvalSetError):
        evaluate(params, [], table)


@pytest.mark.parametrize("mode", list(SharingMode))
def test_evaluate_totals_are_the_sums_of_one_tree_encodings(mode):
    """Trees with unseen words and, for attribute sharing, unseen labels,
    more than one schedule's worth of node rows."""
    rng = np.random.default_rng(37)
    docs = [LabeledDocument(f"d{i}", random_tree(rng, n_edus=1 + i % 5, edu_words=(2, 9)).tree, i % 2)
            for i in range(60)]
    assert sum(len(post_order(doc.tree.root)) for doc in docs) > CHUNK_ROWS
    words = sorted({w for doc in docs for w in leaf_words(doc.tree)})
    table = random_embedding_table(rng, words[::3], 8)
    vocab = AttributeVocab.from_trees(doc.tree for doc in docs[:5])
    params = init_model(8, mode, vocab=vocab, seed=38, random_classifier=True)
    singles = [encode_document(params, doc.tree, table) for doc in docs]
    metrics, oov, unk = evaluate(params, docs, table)
    assert oov == sum(enc.oov for enc in singles) > 0
    assert unk == sum(enc.unk for enc in singles)
    assert (unk > 0) is (mode is SharingMode.ATTRIBUTE_SPECIFIC)
    assert metrics == compute_metrics([doc.y for doc in docs], [predict(params, enc) for enc in singles])


def test_batched_test_metrics_equal_per_document_scores():
    split, table = quick_corpus(seed=31, n=60)
    cfg = TrainConfig(lr=0.01, max_epochs=3, seed=31, d=8, mode=SharingMode.ATTRIBUTE_SPECIFIC)
    params, report = train(split, cfg, table)
    scores = [predict(params, encode_document(params, doc.tree, table)) for doc in split.test]
    assert report.test == compute_metrics([doc.y for doc in split.test], scores)


def test_report_json_is_stable():
    split, table = quick_corpus(seed=29, n=30)
    cfg = TrainConfig(lr=0.01, max_epochs=2, seed=29, d=8)
    _, report = train(split, cfg, table)
    payload = json.loads(report.to_json())
    assert payload["best_epoch"] == report.best_epoch
    assert len(payload["epochs"]) == 2
    assert set(payload["test"]) == {"macro_f1", "micro_f1", "auc", "tp", "fp", "tn", "fn"}


def test_report_and_table_bytes():
    """The report JSON and the metrics table, byte for byte, from a hand-built
    report: every record field appears once, enums by value, a missing AUC as
    null in JSON and ``undefined`` in the table."""
    no_auc = MetricsReport(1 / 3, 0.5, None, 1, 0, 0, 1)
    val = MetricsReport(0.1 + 0.2, 0.75, 0.8125, 2, 1, 1, 0)
    test = MetricsReport(1.0, 1.0, 1.0, 3, 0, 2, 0)
    config = TrainConfig(lr=0.01, max_epochs=2, seed=7, d=8, mode=SharingMode.ATTRIBUTE_SPECIFIC,
                         ablation=AblationMode.NO_SYNTAX)
    report = TrainReport(config, [EpochLog(1, 0.6931471805599453, no_auc), EpochLog(2, 0.25, val)], 2, test)
    assert report.to_json() == """{
  "best_epoch": 2,
  "config": {
    "ablation": "no_syntax",
    "d": 8,
    "lr": 0.01,
    "max_epochs": 2,
    "mode": "attribute_specific",
    "seed": 7
  },
  "epochs": [
    {
      "epoch": 1,
      "train_loss": 0.6931471805599453,
      "val": {
        "auc": null,
        "fn": 1,
        "fp": 0,
        "macro_f1": 0.3333333333333333,
        "micro_f1": 0.5,
        "tn": 0,
        "tp": 1
      }
    },
    {
      "epoch": 2,
      "train_loss": 0.25,
      "val": {
        "auc": 0.8125,
        "fn": 0,
        "fp": 1,
        "macro_f1": 0.30000000000000004,
        "micro_f1": 0.75,
        "tn": 1,
        "tp": 2
      }
    }
  ],
  "test": {
    "auc": 1.0,
    "fn": 0,
    "fp": 0,
    "macro_f1": 1.0,
    "micro_f1": 1.0,
    "tn": 2,
    "tp": 3
  }
}"""
    assert format_metrics_table(no_auc) == (
        "macro_f1  0.333333\n"
        "micro_f1  0.500000\n"
        "auc       undefined\n"
        "tp        1\n"
        "fp        0\n"
        "tn        0\n"
        "fn        1"
    )
    assert format_metrics_table(val) == (
        "macro_f1  0.300000\n"
        "micro_f1  0.750000\n"
        "auc       0.812500\n"
        "tp        2\n"
        "fp        1\n"
        "tn        1\n"
        "fn        0"
    )
