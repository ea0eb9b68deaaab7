"""Run the benchmark on two commits in alternating pairs.

    python3 tools/bench_pairs.py --parent REV --change REV --workload W \
        [--workload W2 ...] --pairs N [--seed S] --out FILE

Exports each commit with ``git archive`` into its own directory, so both
sides run the benchmark code of their own commit from a clean tree.  Then,
for every workload, it runs N pairs one process at a time, the parent first
in even pairs and the change first in odd ones, each run being

    PYTHONDONTWRITEBYTECODE=1 python3 bench/run.py --workload W --seed S --trace 0

in that side's directory, so the run length is the benchmark's own
default; S defaults to 1, the benchmark's own seed, and another value
checks a claim on inputs not used while the change was written.  Each
run's end-to-end metrics and operation counts come from the final JSON
line of ``bench/run.py``, its rounds from the summary line on stderr.
FILE gets every pair, and per metric each side's median and quartiles, the
parent's interquartile range, the number of pairs the change won, the
signed gap between the medians (positive when the change reads better) and
whether that gap is above the parent's interquartile range; the metrics
and their direction are read from BENCHMARK.json.  Each
workload's summary also gets each side's total failed and attempted
operations and whether the change failed a larger share of its own.
Needs only the standard library, git and no network.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, target: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run_side(checkout: Path, workload: str, seed: int) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)  # each side imports its own src/
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout.name}: bench/run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    summary = json.loads(next(line for line in reversed(proc.stderr.splitlines()) if line.startswith("{")))
    return {
        "rounds": summary["rounds"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        **{name: metric["value"] for name, metric in result["metrics"].items()},
    }


def summarize(pairs: list, metrics: list) -> dict:
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        quartiles = {side: statistics.quantiles(values[side], n=4) for side in SIDES}
        medians = {side: statistics.median(values[side]) for side in SIDES}
        gap = medians["parent"] - medians["change"] if lower else medians["change"] - medians["parent"]
        iqr = quartiles["parent"][2] - quartiles["parent"][0]
        out[name] = {
            "parent_median": medians["parent"],
            "change_median": medians["change"],
            "parent_quartiles": quartiles["parent"],
            "change_quartiles": quartiles["change"],
            "parent_iqr": iqr,
            "change_better_pairs": sum((c < p) if lower else (c > p)
                                       for p, c in zip(values["parent"], values["change"])),
            "median_gap": gap,
            "gap_over_parent_iqr": gap > iqr,
            "pairs": len(pairs),
        }
    return out


def operations(pairs: list) -> dict:
    """Each side's failed and attempted operations over all pairs, and
    whether the change failed a larger share of its operations."""
    totals = {f"{side}_{count}": sum(pair[side][count] for pair in pairs)
              for side in SIDES for count in ("failed", "attempted")}
    share = {side: totals[f"{side}_failed"] / totals[f"{side}_attempted"] if totals[f"{side}_attempted"] else 0.0
             for side in SIDES}
    return {**totals, "change_failed_more": share["change"] > share["parent"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    revs = {"parent": args.parent, "change": args.change}
    document = {
        "description": "End-to-end metrics of bench/run.py, parent commit against this change, runs alternating "
                       "which side goes first, written by tools/bench_pairs.py. Quartiles by "
                       "statistics.quantiles(n=4); change_better_pairs counts pairs where the change reads better; "
                       "median_gap is the parent's median minus the change's, negated where higher is better, "
                       "so positive means the change reads better; gap_over_parent_iqr is whether median_gap "
                       "exceeds parent_iqr; summary.operations totals each side's failed and attempted operations.",
        "command": f"PYTHONDONTWRITEBYTECODE=1 python3 bench/run.py --workload W --seed {args.seed} --trace 0",
        "host": f"{os.cpu_count()} CPUs, {platform.system()}, Python {platform.python_version()}",
        **{side: {"commit": git("rev-parse", f"{rev}^{{commit}}"), "src_tree": git("rev-parse", f"{rev}:src")}
           for side, rev in revs.items()},
        "notes": [],
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as scratch:
        checkouts = {side: Path(scratch, side) for side in SIDES}
        for side in SIDES:
            export(document[side]["commit"], checkouts[side])
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_side(checkouts[side], workload, args.seed)
                pairs.append(pair)
                print(f"{workload} pair {i + 1}/{args.pairs}: "
                      + ", ".join(f"{side} wall_s {pair[side]['wall_s']:.4f}" for side in SIDES), file=sys.stderr)
            summary = {**summarize(pairs, metrics), "operations": operations(pairs)}
            document["workloads"][workload] = {"pairs": pairs, "summary": summary}
            args.out.write_text(json.dumps(document, indent=2) + "\n")  # what is done so far survives a stop
    return 0


if __name__ == "__main__":
    sys.exit(main())
