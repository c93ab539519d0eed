"""Recursive neural document classification over hierarchical linguistic trees."""

from .embed import EmbeddingTable, embed_leaves, load_table
from .ling_tree import (
    Level, LingTree, NodeKind, TreeNode,
    leaf_words, parse_sexpr, serialize_sexpr, tree_equal,
)
from .model import (
    AblationMode, AttributeVocab, DocumentEncoding, ModelParams, SharingMode,
    backward, encode_document, gradient_check_model, init_model, load_model,
    param_count, predict, save_model,
)
from .stats import WelchResult, compare_groups, compute_tree_stats, corpus_report
from .trainer import (
    LabeledDocument, MetricsReport, Split, TrainConfig, TrainReport,
    compute_metrics, evaluate, grid_search_lr, read_dataset, split_dataset, train,
)

__version__ = "0.1.0"
