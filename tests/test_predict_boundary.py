"""Mutations of ``hero predict``'s three inputs, run in-process.

A d=8 attribute-specific checkpoint (header fields, header line bytes and
payload bytes), a small embedding table (rows and bytes) and a tree (bytes,
as a file and on stdin) are each spoiled in turn while the other two stay
valid. Every run must end on the documented exit contract: 0 with one
probability on stdout, 1 for an invalid tree, 2 for an I/O or format error;
a failing run writes one stderr line, no traceback and nothing on stdout.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cli_contract import mutate, read_checkpoint, run_cli, write_checkpoint
from hero.ling_tree import leaf_words, parse_sexpr
from hero.model import AttributeVocab, SharingMode, init_model, save_model

TREE = "(NS-elaboration (EDU (S (NP (NNP Obama)) (VP (VBD spoke)) (, ,))) (NN-joint (EDU (NP (PRP He))) (EDU (VP (VBD left)))))"
SENTINEL = "@@value@@"
FIELDS = ("version", "mode", "ablation", "d", "attribute_vocab", "syntax", "rr")
HUGE = "9" * 5000  # past the int-to-str digit limit

SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_raw_value = st.sampled_from([
    "0", "-8", "7", "8", "10", "3", "3.0", "8.0", "1e400", "-1e400", "NaN", "Infinity", HUGE, "-" + HUGE,
    "9" * 4000, '"8"', "true", "null", "[]", "{}", '""', '"unified"', '"attribute_specific"', '"no_syntax"',
    '["NP"]', '["NP", "NP"]', '["NS-elaboration"]', '["EDU"]', '["XX-"]', '[""]', "[1]", '["\\ud800"]',
    '"\\ud800"', '"AAAA"', '"AAAAAAA="', '"===="',
])
_header = st.tuples(st.sampled_from(FIELDS), st.one_of(st.none(), _raw_value))  # None: drop the field


def _ops(payloads):
    return st.lists(st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, 10**6)),
        st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(0, 7)),
        st.tuples(st.just("splice"), st.integers(0, 10**6), st.integers(1, 64), st.integers(0, 10**6)),
        st.tuples(st.just("insert"), st.integers(0, 10**6), st.sampled_from(payloads)),
    ), min_size=1, max_size=3)


_not_utf8 = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]
# Line breaks and undecodable bytes inserted into the header line.
_line_ops = st.lists(st.tuples(st.just("insert"), st.integers(0, 10**6), st.sampled_from([b"\n", *_not_utf8])),
                     max_size=2)
_payload_ops = _ops([b"\n", bytes(8), b"\xff" * 8, b"\x00\x00\x00\x00\x00\x00\xf0\x7f", *_not_utf8])
_tree_ops = _ops([b"(", b")", b"(" * 3000, b"(NS- ", b"(XX-y ", b"(EDU ", b" (NNP x)", b"\x00", *_not_utf8])
_table_ops = _ops([b" 0.5", b"\n", b"nan", b"inf", b"1e999", b"abc", b"Obama", *_not_utf8])
_row_fault = st.tuples(
    st.integers(0, 10**6),
    st.sampled_from(["drop", "extra", "value", "duplicate"]),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "abc", "0x10", "1,5", "--1", "\udcff"]),
)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("predict_boundary")
    tree = parse_sexpr(TREE)
    params = init_model(8, SharingMode.ATTRIBUTE_SPECIFIC, vocab=AttributeVocab.from_trees([tree]),
                        seed=3, random_classifier=True)
    save_model(params, root / "model.json")
    rng = np.random.default_rng(4)
    words = sorted(set(leaf_words(tree))) + ["unused", "Other"]
    table = "".join(w + " " + " ".join(repr(float(v)) for v in rng.uniform(-1, 1, 8)) + "\n" for w in words)
    header, payload = read_checkpoint(root / "model.json")
    return {"header": header, "payload": payload, "table": table.encode(), "tree": TREE.encode()}


def _predict(tmp_path, base, model=None, table=None, tree=None, stdin=False):
    """Write the inputs (base ones where not given; the model as its header
    and payload) and run ``hero predict``; checks the exit contract and
    returns the exit code."""
    files = {name: tmp_path / name for name in ("model", "table", "tree")}
    write_checkpoint(files["model"], *(model or (base["header"], base["payload"])))
    for name, data in (("table", table), ("tree", tree)):
        files[name].write_bytes(data if data is not None else base[name])
    argv = ["predict", "--model", str(files["model"]), "--embeddings", str(files["table"])]
    if stdin:
        code, out, err = run_cli(argv, files["tree"].read_bytes().decode(errors="surrogateescape"))
    else:
        code, out, err = run_cli(argv + ["--tree", str(files["tree"])])
    assert "Traceback" not in err, err
    if code == 0:
        assert out.count("\n") == 1 and 0.0 <= float(out) <= 1.0, out
    else:
        assert out == "" and len(err.splitlines()) == 1, (code, err)
    return code


def _header_line(header: dict, edits) -> bytes:
    """The header line with each edit's field set to its raw JSON text, or
    dropped when that is None; ``syntax`` and ``rr`` are vocabulary levels."""
    doc = json.loads(json.dumps(header))
    raws = []
    for field, raw in edits:
        vocab = doc.get("attribute_vocab")
        at = vocab if field in ("syntax", "rr") and isinstance(vocab, dict) else doc
        if raw is None:
            at.pop(field, None)
        else:
            at[field] = f"{SENTINEL}{len(raws)}"
            raws.append(raw)
    text = json.dumps(doc)
    for i, raw in enumerate(raws):
        text = text.replace(f'"{SENTINEL}{i}"', raw)
    return text.encode()


@SETTINGS
@given(edits=st.lists(_header, min_size=1, max_size=2), ops=_line_ops)
@example(edits=[("d", HUGE)], ops=[])
@example(edits=[("version", HUGE)], ops=[])
@example(edits=[("d", "9" * 4000)], ops=[])
@example(edits=[("syntax", '["NS-elaboration"]')], ops=[])
@example(edits=[("version", "4")], ops=[("insert", 20, b"\n")])
@example(edits=[("version", "4")], ops=[("insert", 20, b"\xff")])
def test_mutated_checkpoint_header_keeps_exit_contract(tmp_path, base, edits, ops):
    line = mutate(_header_line(base["header"], edits), ops)
    code = _predict(tmp_path, base, model=(line, base["payload"]))
    assert code in (0, 2)


@SETTINGS
@given(ops=_payload_ops)
@example(ops=[("insert", 8, b"\n")])
@example(ops=[("truncate", 5)])
@example(ops=[("flip", 7, 6)])
def test_mutated_checkpoint_payload_keeps_exit_contract(tmp_path, base, ops):
    code = _predict(tmp_path, base, model=(base["header"], mutate(base["payload"], ops)))
    assert code in (0, 2)


@SETTINGS
@given(faults=st.lists(_row_fault, max_size=2), ops=st.one_of(st.just([]), _table_ops))
@example(faults=[(0, "duplicate", "nan")], ops=[])
@example(faults=[(0, "value", "\udcff")], ops=[])
def test_mutated_table_keeps_exit_contract(tmp_path, base, faults, ops):
    rows = base["table"].decode().splitlines()
    for at, fault, value in faults:
        i = at % len(rows)
        fields = rows[i].split(" ")
        if fault == "drop":
            rows[i] = " ".join(fields[:-1])
        elif fault == "extra":
            rows[i] += " 0.5"
        elif fault == "value":
            fields[1 + at % (len(fields) - 1)] = value
            rows[i] = " ".join(fields)
        else:
            rows.insert(i + 1, fields[0] + " 0.25" * 8)
    table = mutate("".join(r + "\n" for r in rows).encode(errors="surrogateescape"), ops)
    code = _predict(tmp_path, base, table=table)
    assert code in (0, 2)


@SETTINGS
@given(ops=_tree_ops, stdin=st.booleans())
@example(ops=[("insert", 0, b"(" * 3000)], stdin=True)
@example(ops=[("insert", 1, b"\xff")], stdin=True)
@example(ops=[("truncate", 0)], stdin=False)
def test_mutated_tree_keeps_exit_contract(tmp_path, base, ops, stdin):
    code = _predict(tmp_path, base, tree=mutate(base["tree"], ops), stdin=stdin)
    assert code in (0, 1, 2)
