"""Mutations of a small valid ``hero train`` config, run in-process.

Every mutated config must leave ``hero train`` on the documented exit
contract: 0 on success, 2 for a config it rejects, 3 for a numeric failure
during training; a failure is one stderr line, and nothing raises. The
table shares no word with the dataset, so the restricted table load checks
no vector width and the width a config sets reaches the model unchecked.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cli_contract import mutate, run_cli
from hero.synthetic import marker_corpus
from hero.trainer import write_dataset

LINES = {
    "lr": "0.01",
    "max_epochs": "1",
    "seed": "3",
    "d": "4",
    "mode": "attribute_specific",
    "ablation": "full",
}
BASE = ("# hero train config\n" + "".join(f"{key} = {value}\n" for key, value in LINES.items())).encode()

OVER_LONG = "9" * 5000  # past int()'s digit limit: rejected before it is a number
HUGE = [str(10**21), str(2**63), str(-10**21), OVER_LONG]
_value = st.sampled_from([
    "0", "1", "2", "-1", "6", "0.5", "1e21", "1e400", "nan", "-inf", "", "x", "1_0", " 4 ",
    "unified", "level_specific", "no_discourse", "no_syntax", "no_structure",
    "٤",  # an Arabic-Indic four, which int() reads as 4
])


def _values(key):
    # Nothing caps max_epochs: a huge count is a valid config that trains
    # for ever, so that key gets only the huge values it rejects.
    return st.one_of(_value, st.sampled_from([str(-10**21), OVER_LONG] if key == "max_epochs" else HUGE))


def _line_start(key: str) -> int:
    return BASE.index(f"\n{key} = ".encode()) + 1


def _value_at(key: str) -> int:
    return _line_start(key) + len(f"{key} = ")


_payload = st.sampled_from([
    b"=", b"#", b"\n", b" ", b"\t", b"\r", b"\x00", b"\xef\xbb\xbf",  # the last is a UTF-8 BOM
    b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf", *(f"{key} = 2\n".encode() for key in LINES),
])
_mutation = st.one_of(
    # Replace the value of one line, keeping the rest of the file.
    st.sampled_from(list(LINES)).flatmap(lambda key: st.tuples(st.just(key), _values(key))),
    st.tuples(st.just("insert"), st.integers(0, 10**6), _payload),
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(0, 7)),
)


def _apply(ops) -> bytes:
    """The byte-level ops first, then the value replacements: no inserted
    newline or comment can cut a huge value down to a width or an epoch
    count that is valid but costly."""
    data = BASE
    for op in sorted(ops, key=lambda op: op[0] in LINES):
        if op[0] in LINES:
            key, value = op
            start = data.find(f"\n{key} = {LINES[key]}\n".encode())
            if start >= 0:  # an earlier mutation may have spoiled the line
                at = start + len(f"\n{key} = ")
                data = data[:at] + value.encode() + data[at + len(LINES[key]):]
        else:
            data = mutate(data, [op])
    return data


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("config")
    docs, _ = marker_corpus(np.random.default_rng(0), 10, 4)
    write_dataset(docs, root / "data.jsonl")
    # No token of the table is a word of the dataset.
    (root / "vectors.txt").write_text("zzz-unused 0.1 0.2 0.3 0.4\n", encoding="utf-8")
    return root


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ops=st.lists(_mutation, min_size=1, max_size=3))
@example(ops=[])
@example(ops=[("d", str(10**21))])
@example(ops=[("d", str(2**30))])  # its float64 bytes overflow, its element count does not
@example(ops=[("lr", "1e21")])
@example(ops=[("insert", 0, b"\xef\xbb\xbf")])
@example(ops=[("insert", _line_start("mode"), b"mode = unified\n")])
@example(ops=[("insert", _value_at("seed"), b"\xff")])
@example(ops=[("insert", _line_start("d"), b"#")])  # d falls back to its default, 100
@example(ops=[("insert", _value_at("d"), b"=")])
def test_mutated_config_keeps_exit_contract(workspace, ops):
    config = workspace / "train.cfg"
    config.write_bytes(_apply(ops))
    argv = ["train", "--data", str(workspace / "data.jsonl"), "--embeddings", str(workspace / "vectors.txt"),
            "--config", str(config), "--out", str(workspace / "model.json"),
            "--report", str(workspace / "report.json")]
    code, out, err = run_cli(argv)
    assert code in (0, 2, 3) and "Traceback" not in err, (code, err)
    if code:
        assert len(err.splitlines()) == 1 and out == "", (code, err)
    else:
        assert out.splitlines()[0].startswith("macro_f1"), out
