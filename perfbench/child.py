"""One benchmark operation set, run in a fresh process of its own.

    python3 child.py --result R.json [--spans S.csv] scan --max L ...   # one CLI call
    python3 child.py --result R.json [--spans S.csv] --checks NS.txt    # `check -n N --json` per line

With --spans the calls into each layer are traced (see tracer.py) and the
spans are written to S.csv after the last operation.  The program is imported
from PYTHONPATH, which the parent points at the checkout's src/.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse
import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import Tracer  # noqa: E402


def _cache_entries(argv: list[str]) -> int:
    """Distinct discriminants in the --cache file the scan is about to load."""
    if "--cache" not in argv:
        return 0
    path = argv[argv.index("--cache") + 1]
    try:
        with open(path, encoding="ascii") as fh:
            return len({line.split()[0] for line in fh if line.strip()})
    except FileNotFoundError:
        return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--checks")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    tracer = Tracer() if args.spans else None
    with tracer.measure("cli.import") if tracer else contextlib.nullcontext():
        import congruent.cli  # noqa: F401

        classgroup = sys.modules["congruent.classgroup"]
        snapshot = getattr(classgroup, "cached_discriminants", None)
        if tracer:
            tracer.install()
    cli = sys.modules["congruent.cli"]

    def memo_size():
        return len(snapshot()) if snapshot else None

    result = {"cache_loaded": _cache_entries(args.cli), "memo_before": memo_size(), "ops": []}
    if args.checks:
        with open(args.checks, encoding="ascii") as fh:
            ns = [int(line) for line in fh if line.strip()]
        for n in ns:
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(["check", "-n", str(n), "--json"])
            except Exception as exc:  # a crash is one failed operation; the others still run
                rc = f"{type(exc).__name__}: {exc}"
            result["ops"].append({"n": n, "rc": rc, "s": time.perf_counter() - start, "out": buf.getvalue()})
    else:
        start = time.perf_counter()
        rc = cli.main(args.cli)
        result["ops"].append({"rc": rc, "s": time.perf_counter() - start})
    result["memo_after"] = memo_size()
    result["wall_s"] = time.perf_counter() - T0
    if tracer:
        result["trace"] = tracer.summary()
        tracer.write_spans(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
