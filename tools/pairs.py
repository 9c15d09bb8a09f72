"""Alternating benchmark runs of two checkouts of relgnn, and the claim rule applied to them.

    python tools/pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT --workload W --seed N [--pairs 10] [--claim METRIC]

Runs the benchmark command of the change checkout's BENCHMARK.json (perfbench/run.py) from each checkout
in turn, for its `run_seconds`, `--pairs` times per side. Which side runs first alternates from pair to
pair: the parent in pair 0, the change in pair 1, and so on. It prints every run as it ends, then each
side's median and quartiles for each end-to-end metric of BENCHMARK.json, and the pairs in which the
change read better (ties count for neither side). With --claim it says whether the rule for a speed
claim holds for that metric: at least 10 pairs, the change better in at least nine tenths of them, and
the medians apart, in the metric's better direction, by more than the parent's interquartile range.

It warns when the two checkouts' paths differ in length, since peak RSS moves with the checkout
directory's name by up to about 2 MiB. It writes nothing itself; perfbench/run.py keeps its work files
in each checkout's .perfbench/. A run that fails stops it with exit 2.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
MIN_PAIRS = 10  # the fewest pairs a claim rests on
WIN_SHARE = 0.9  # of the pairs run, the share the change must read better in


def first_sides(pairs: int) -> list[tuple[str, str]]:
    """The order of the two sides in each pair: the parent first in even pairs, the change in odd ones."""
    return [SIDES if pair % 2 == 0 else SIDES[::-1] for pair in range(pairs)]


def run_once(checkout: Path, command: list[str]) -> dict:
    """One benchmark run from `checkout`: the JSON object of its last stdout line."""
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{checkout}: {' '.join(command)} exited {proc.returncode}\n{proc.stderr}")
        raise SystemExit(2)
    return json.loads(lines[-1])


def run_line(pair: int, side: str, result: dict, metrics: list[dict]) -> str:
    values = " ".join(f"{m['name']} {result['metrics'][m['name']]['value']:.4f}" for m in metrics)
    return f"pair {pair} {side:6s} {values} (operations {result['attempted']}, failed {result['failed']})"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated linearly between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(runs: list[dict[str, dict]], metrics: list[dict], claim: str | None = None) -> list[str]:
    """The lines that follow the runs: per metric each side's median and quartiles and the pairs the change
    won, then, for `claim`, whether the rule holds. `runs` holds one {side: result} per pair."""
    lines = [f"{'metric':14s} {'parent median [q1, q3]':32s} {'change median [q1, q3]':32s} change better"]
    verdict = None
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [pair[side]["metrics"][name]["value"] for pair in runs] for side in SIDES}
        (p1, parent, p3), (c1, change, c3) = (quartiles(values[side]) for side in SIDES)
        wins = sum(c < p if lower else c > p for p, c in zip(values["parent"], values["change"]))
        lines.append(f"{name:14s} {f'{parent:.4f} [{p1:.4f}, {p3:.4f}]':32s} "
                     f"{f'{change:.4f} [{c1:.4f}, {c3:.4f}]':32s} {wins} of {len(runs)} pairs")
        if name == claim:
            needed = math.ceil(WIN_SHARE * len(runs))
            gain = parent - change if lower else change - parent
            holds = len(runs) >= MIN_PAIRS and wins >= needed and gain > p3 - p1
            verdict = (f"claim {name}: {'holds' if holds else 'does not hold'}; {len(runs)} pairs (the rule needs "
                       f"{MIN_PAIRS}), change better in {wins} (needs {needed}), medians {parent:.4f} -> "
                       f"{change:.4f}, {gain:+.4f} in the better direction against the parent's IQR {p3 - p1:.4f}")
    failed = {side: sum(pair[side]["failed"] for pair in runs) for side in SIDES}
    attempted = {side: sum(pair[side]["attempted"] for pair in runs) for side in SIDES}
    lines.append("failed operations: " + ", ".join(f"{side} {failed[side]} of {attempted[side]}" for side in SIDES))
    return lines + ([verdict] if verdict else [])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--claim")
    args = parser.parse_args(argv)
    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    for checkout in checkouts.values():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} is not a relgnn checkout: it has no perfbench/run.py")
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = bench["end_to_end"]
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.claim is not None and args.claim not in [m["name"] for m in metrics]:
        parser.error(f"--claim {args.claim} is no end-to-end metric of BENCHMARK.json")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if len(str(checkouts["parent"])) != len(str(checkouts["change"])):
        sys.stderr.write("warning: the checkouts' paths differ in length, and peak RSS moves with the checkout "
                         "directory's name; run both from directories whose names have the same length\n")
    command = [*bench["command"], "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(bench["run_seconds"])]
    runs = []
    for pair, order in enumerate(first_sides(args.pairs)):
        runs.append({})
        for side in order:
            runs[pair][side] = run_once(checkouts[side], command)
            print(run_line(pair, side, runs[pair][side], metrics), flush=True)
    print("\n".join(summary(runs, metrics, args.claim)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
