#!/usr/bin/env python3
"""Paired timing of the in-process desk suite, one checkout against another.

    python tools/desk_pairs.py PARENT_SRC CHANGE_SRC [--pairs N]

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.  Each
pair runs `suite.run_suite(suite.DESK_CONFIG)` once per side, each in a
fresh interpreter, and the side that runs first alternates from pair to
pair, so a drift of the machine's speed weighs on both sides alike.  A run
times the call alone: the layers it loads on first use are inside the
timing, the interpreter's start-up and the import of `pqvw.suite` are not.
One run per side before the pairs, not counted, writes each checkout's
bytecode cache, and the two runs' records must be equal, so that both sides
time the same work: if they differ, nothing is timed and the tool exits 1,
naming the first record kind that differs.  The report gives each side's
median and quartiles and the pairs each side won, a tie counting for
neither, and then the median and quartiles of the per-pair ratio
change/parent: run on one checkout as both sides (an A/A run), that spread
is the noise against which a comparison of two checkouts is read.
Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

CHILD = """
import json, time
from pqvw import suite
start = time.perf_counter()
records = suite.run_suite(suite.DESK_CONFIG)
print(time.perf_counter() - start)
print(json.dumps(records))
"""


def desk_run(src: str) -> tuple[float, list[dict]]:
    """One fresh interpreter's time for the desk suite, importing pqvw from
    src, and the suite's records."""
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, check=True, timeout=300)
    seconds, records = done.stdout.splitlines()
    return float(seconds), json.loads(records)


def first_difference(parent: list[dict], change: list[dict]) -> str | None:
    """The kind of the first record that differs between two runs, or of the
    first record only one run has; None when the runs agree."""
    for a, b in zip(parent, change):
        if a != b:
            return a["kind"]
    extra = parent[len(change):] or change[len(parent):]
    return extra[0]["kind"] if extra else None


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", metavar="PARENT_SRC")
    parser.add_argument("change", metavar="CHANGE_SRC")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2, for quartiles")
    sides = {"parent": args.parent, "change": args.change}
    kind = first_difference(*(desk_run(src)[1] for src in sides.values()))
    if kind is not None:
        sys.exit(f"the two sides' desk records differ, first at {kind}: nothing timed")
    times: dict[str, list[float]] = {side: [] for side in sides}
    wins = dict.fromkeys(sides, 0)
    for i in range(args.pairs):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        pair = {side: desk_run(sides[side])[0] for side in order}
        for side, seconds in pair.items():
            times[side].append(seconds)
        if pair["parent"] != pair["change"]:
            wins[min(pair, key=pair.get)] += 1
    for side, runs in times.items():
        q1, _, q3 = statistics.quantiles(runs, n=4)
        print(f"{side}: median {statistics.median(runs) * 1e3:.1f} ms, quartiles "
              f"{q1 * 1e3:.1f} to {q3 * 1e3:.1f} ms, won {wins[side]} of {args.pairs} pairs")
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    print(f"change/parent: median {statistics.median(ratios):.3f}, quartiles "
          f"{q1:.3f} to {q3:.3f}, over {args.pairs} pairs")


if __name__ == "__main__":
    main()
