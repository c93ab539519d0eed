"""``hero predict`` in a fresh interpreter, between two probes.

Usage: ``python3 perfbench/predict_child.py <out.json> <trace 0|1> predict --model ...``.
Runs the probe, imports hero (timed), runs the CLI in-process exactly as the
``hero`` console script does, and runs the probe again. Writes the import
time, the mean slowdown, the probes' own wall time and, when tracing, the
spans and counts of the wrapped layer functions to ``<out.json>``. The CLI's
stdout and exit code pass through unchanged.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from probe import Probe  # noqa: E402


def main() -> int:
    out, trace, argv = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    probe = Probe()
    t0 = time.perf_counter()
    before = probe.slowdown()
    probe_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    from hero import cli
    import_s = time.perf_counter() - t0

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    try:
        code = cli.run(argv)
    finally:
        t0 = time.perf_counter()
        after = probe.slowdown()
        probe_s += time.perf_counter() - t0
        record = {"import_s": import_s, "slowdown": (before + after) / 2, "probe_s": probe_s}
        if tracer:
            tracer.active = False
            record.update(tracer.export())
        out.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
