"""One benchmark step in its own interpreter.

    python3 perfbench/child.py [--spans FILE RUN_ID] cli ARG...
    python3 perfbench/child.py [--spans FILE RUN_ID] large CSV N OUT_JSON

``cli`` runs ``emitternet.cli.main(ARG...)`` in-process, which is how the
traced run executes a subcommand. ``large`` reads a line list with the
library and computes the pair-overlap curve of its first N records at the
CLI's default windows, without bootstrap; it writes the curve and the wall
time of that read-and-curve step to OUT_JSON. With ``--spans`` every
public function of the library is wrapped first and the spans are written
to FILE when the step ends.
"""
from __future__ import annotations

import json
import sys
import time

from spans import Tracer


def _large(emitternet, csv_path: str, n: int, out_path: str, tracer: Tracer | None) -> int:
    gamma = emitternet.RunConfig.from_mapping({}).ensemble_model().gamma_mhz
    windows = [gamma * f for f in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)]
    span = tracer.begin("script.large_overlap") if tracer else None
    start = time.perf_counter()
    records = emitternet.read_line_list(csv_path)
    curve = emitternet.overlap_curve(records[:n], windows)
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.end(span)
    doc = {
        "n_records": len(records),
        "n_emitters": curve.n_emitters,
        "n_pairs": curve.n_pairs,
        "windows_mhz": list(curve.windows_mhz),
        "probabilities": list(curve.probabilities),
        "large_overlap_s": elapsed,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    return 0


def main(argv: list[str]) -> int:
    tracer = None
    if argv[0] == "--spans":
        spans_path, tracer = argv[1], Tracer(argv[2])
        argv = argv[3:]
    mode, rest = argv[0], argv[1:]
    try:
        span = tracer.begin("import.emitternet") if tracer else None
        import emitternet
        import emitternet.cli

        if tracer:
            tracer.end(span)
            tracer.install()
        if mode == "cli":
            return emitternet.cli.main(rest)
        if mode == "large":
            return _large(emitternet, rest[0], int(rest[1]), rest[2], tracer)
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
