"""In-process checks of the ``hero`` exit contract.

The documented exit codes are 0 success, 1 validation or threshold failure
(an invalid tree for ``predict``), 2 I/O or format error and 3 numeric
failure; an error is one stderr line. These helpers need no pytest fixture,
so property tests (hypothesis) can call them as well as plain tests. The
checkpoint pair reads and writes a model file as its two parts, so a test
can spoil either.
"""

import contextlib
import io
import json
import sys
import traceback
from pathlib import Path

from hero.cli import run


def run_cli(argv, stdin=""):
    """Run ``hero argv`` in this process with ``stdin`` as its standard
    input; returns (exit code, stdout, stderr). An exception that escapes
    ``cli.run`` fails with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    except Exception:
        raise AssertionError(f"hero {' '.join(argv)} raised:\n{traceback.format_exc()}") from None
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def assert_one_line_exit(argv, code, stdin=""):
    """Assert that ``hero argv`` exits with ``code`` after writing exactly one
    stderr line and no traceback; returns that line."""
    got, _, err = run_cli(argv, stdin)
    assert "Traceback" not in err, err
    lines = err.splitlines()
    assert (got, len(lines)) == (code, 1), f"hero {argv[0]}: exit {got}, stderr {err!r}"
    return lines[0]


def mutate(data: bytes, ops) -> bytes:
    """Apply each op in turn; positions wrap around the current length."""
    for op in ops:
        size = len(data) or 1
        if op[0] == "truncate":
            data = data[:op[1] % size]
        elif op[0] == "flip":
            if data:
                pos = op[1] % size
                data = data[:pos] + bytes([data[pos] ^ (1 << op[2])]) + data[pos + 1:]
        elif op[0] == "splice":
            start, length, dst = op[1] % size, op[2], op[3] % size
            data = data[:dst] + data[start:start + length] + data[dst:]
        else:
            pos = op[1] % size
            data = data[:pos] + op[2] + data[pos:]
    return data


def read_checkpoint(path) -> tuple[dict, bytes]:
    """A checkpoint file as (header, payload): its first line parsed as JSON,
    and every byte after that line."""
    line, _, payload = Path(path).read_bytes().partition(b"\n")
    return json.loads(line), payload


def write_checkpoint(path, header, payload: bytes) -> None:
    """The inverse of read_checkpoint. A header given as bytes is written as
    is, so it need not be JSON, nor one line."""
    line = header if isinstance(header, bytes) else json.dumps(header, sort_keys=True).encode()
    Path(path).write_bytes(line + b"\n" + payload)
