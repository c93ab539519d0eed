"""Byte-level mutations of a small valid dataset, fed to ``hero validate`` and
``hero stats`` in-process.

Each mutated file must leave both commands on the documented exit contract:
validate exits 0 (every line valid) or 1 (some line invalid), stats exits 0
or 2, an error is one stderr line, and nothing raises. The two commands share
one reader, so when validate flags a line, stats fails naming the first line
validate flags.
"""

import csv
import io
import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cli_contract import mutate, run_cli

TREES = (
    "(NS-elaboration (EDU (S (NP (NNP Obama)) (VP (VBD spoke)) (, ,))) (EDU (NP (PRP He))))",
    "(EDU (S (NP (DT the) (NN lab)) (VP (VBD got) (NP (CD $3.7m))) (. .)))",
    "(NN-joint (EDU (NP (NNP X))) (EDU (NP (NNP Y))) (EDU (VP ('' ''))))",
)
BASE = "".join(
    f'{{"id": "d{i}", "label": {i % 2}, "tree": "{TREES[i % 3]}"}}\n' for i in range(6)
).encode()

_nesting = st.builds(lambda ch, n: ch * n, st.sampled_from([b"[", b"{", b"(", b'{"a":']), st.integers(1, 3000))
_not_utf8 = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\xc0\xaf"])
_payload = st.one_of(_nesting, _not_utf8, st.binary(min_size=1, max_size=8))

_mutation = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(0, 7)),
    st.tuples(st.just("splice"), st.integers(0, 10**6), st.integers(1, 64), st.integers(0, 10**6)),
    st.tuples(st.just("insert"), st.integers(0, 10**6), _payload),
)


def _after(marker: bytes) -> int:
    return BASE.index(marker) + len(marker)


@settings(
    max_examples=200, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=st.lists(_mutation, min_size=1, max_size=3))
@example(ops=[])
# A JSON integer longer than the int-to-str digit limit.
@example(ops=[("insert", _after(b'"label": 1'), b"0" * 5000)])
# A JSON escape that decodes to a lone surrogate in a tag, which stats writes.
@example(ops=[("insert", _after(b"(NP ("), b"\\ud800")])
@example(ops=[("insert", 0, b"[" * 100_000)])
def test_mutated_dataset_keeps_exit_contract(tmp_path, ops):
    data_path, csv_path = tmp_path / "data.jsonl", tmp_path / "report.csv"
    data_path.write_bytes(mutate(BASE, ops))

    code, out, err = run_cli(["validate", "--data", str(data_path)])
    assert code in (0, 1) and "Traceback" not in err, (code, err)
    flagged = [int(m) for m in re.findall(rf"^{re.escape(str(data_path))}: line (\d+): ", err, re.MULTILINE)]
    assert len(flagged) == len(err.splitlines()) and (code == 1) == bool(flagged), err
    assert re.fullmatch(r"\d+ valid, \d+ invalid\n", out), out

    code, out, err = run_cli(["stats", "--data", str(data_path), "--csv", str(csv_path)])
    assert code in (0, 2) and "Traceback" not in err, (code, err)
    assert len(err.splitlines()) == (code == 2), err
    if flagged:
        assert err.startswith(f"error: line {flagged[0]}: "), err
    elif code == 0:
        rows = list(csv.reader(io.StringIO(csv_path.read_text(encoding="utf-8"))))
        assert rows and all(len(row) == 6 for row in rows)
