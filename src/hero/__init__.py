"""Recursive neural document classification over hierarchical linguistic trees.

Every name below resolves on first use (PEP 562), so ``import hero`` loads
no submodule and not numpy, and a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "embed": ("EmbeddingTable", "embed_leaves", "load_table"),
    "ling_tree": ("LingTree", "NodeKind", "TreeNode", "leaf_words", "parse_sexpr", "serialize_sexpr"),
    "model": (
        "AblationMode", "AttributeVocab", "DocumentEncoding", "ModelParams", "SharingMode",
        "backward", "encode_document", "gradient_check_model", "init_model", "load_model",
        "param_count", "predict", "save_model",
    ),
    "stats": ("WelchResult", "compare_groups", "compute_tree_stats", "corpus_report"),
    "trainer": (
        "LabeledDocument", "MetricsReport", "Split", "TrainConfig", "TrainReport",
        "compute_metrics", "evaluate", "grid_search_lr", "read_dataset", "split_dataset", "train",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
# The submodules that importing the names above used to bind as attributes.
_SUBMODULES = ("embed", "ling_tree", "model", "nn", "stats", "trainer")

__all__ = [*_ORIGIN, *_SUBMODULES]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
