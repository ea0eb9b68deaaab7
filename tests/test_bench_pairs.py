"""The pair runner's summary and argument checks, without running a benchmark.

``tools/bench_pairs.py`` is a script, not a package module, so it is loaded
by its path.  Only the standard library is used."""

import contextlib
import importlib.util
import io
import json
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [1.0, 2.0, 3.0, 4.0, 5.0]
CHANGE = [0.5, 2.5, 2.0, 3.0, 6.0]


def synthetic_pairs(parent, change):
    return [{"first": "parent" if i % 2 == 0 else "change", "parent": {"x": p}, "change": {"x": c}}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_summary_medians_quartiles_and_parent_iqr():
    summary = bench_pairs.summarize(synthetic_pairs(PARENT, CHANGE), [{"name": "x", "better": "lower"}])
    x = summary["x"]
    assert (x["parent_median"], x["change_median"]) == (3.0, 2.5)
    # statistics.quantiles(n=4), exclusive method: cut points at ranks 1.5, 3 and 4.5 of five
    assert x["parent_quartiles"] == [1.5, 3.0, 4.5]
    assert x["change_quartiles"] == [1.25, 2.5, 4.5]
    assert x["parent_iqr"] == 3.0
    assert x["pairs"] == 5


def test_summary_counts_the_pairs_the_change_won_in_either_direction():
    pairs = synthetic_pairs(PARENT, CHANGE)
    lower = bench_pairs.summarize(pairs, [{"name": "x", "better": "lower"}])["x"]
    higher = bench_pairs.summarize(pairs, [{"name": "x", "better": "higher"}])["x"]
    assert lower["change_better_pairs"] == 3  # 0.5 < 1, 2 < 3, 3 < 4
    assert higher["change_better_pairs"] == 2  # 2.5 > 2, 6 > 5
    # a tie is a win for neither side
    ties = synthetic_pairs([1.0, 2.0], [1.0, 2.0])
    for better in ("lower", "higher"):
        assert bench_pairs.summarize(ties, [{"name": "x", "better": better}])["x"]["change_better_pairs"] == 0


def test_summary_signs_the_median_gap_by_direction_and_compares_it_with_the_parent_iqr():
    def gap(change, better):
        x = bench_pairs.summarize(synthetic_pairs(PARENT, change), [{"name": "x", "better": better}])["x"]
        return x["median_gap"], x["gap_over_parent_iqr"]

    # medians 3.0 and 2.5: the change is better by 0.5 where lower is better,
    # worse by 0.5 where higher is; neither gap is above the parent's IQR 3.0
    assert gap(CHANGE, "lower") == (0.5, False)
    assert gap(CHANGE, "higher") == (-0.5, False)
    # a gap equal to the IQR is not above it; one past it is
    assert gap([-1.0, -0.5, 0.0, 0.5, 1.0], "lower") == (3.0, False)
    assert gap([-1.0, -0.5, -0.5, 0.5, 1.0], "lower") == (3.5, True)
    assert gap([7.0, 7.5, 8.0, 8.5, 9.0], "higher") == (5.0, True)


def test_summary_reads_each_metric_by_name():
    pairs = [{"first": "parent", "parent": {"a": 1.0, "b": 9.0}, "change": {"a": 2.0, "b": 8.0}},
             {"first": "change", "parent": {"a": 1.0, "b": 9.0}, "change": {"a": 2.0, "b": 8.0}}]
    metrics = [{"name": "a", "better": "higher"}, {"name": "b", "better": "lower"}]
    summary = bench_pairs.summarize(pairs, metrics)
    assert sorted(summary) == ["a", "b"]
    assert (summary["a"]["change_median"], summary["b"]["change_median"]) == (2.0, 8.0)
    assert summary["a"]["change_better_pairs"] == summary["b"]["change_better_pairs"] == 2


def operation_pairs(parent, change):
    """Pairs of (failed, attempted) per side."""
    return [{"first": "parent", "parent": {"failed": pf, "attempted": pa}, "change": {"failed": cf, "attempted": ca}}
            for (pf, pa), (cf, ca) in zip(parent, change)]


def test_operations_total_each_side_and_flag_a_larger_failed_share():
    ops = bench_pairs.operations(operation_pairs([(0, 40), (1, 40)], [(0, 40), (0, 40)]))
    assert ops == {"parent_failed": 1, "parent_attempted": 80, "change_failed": 0, "change_attempted": 80,
                   "change_failed_more": False}
    assert bench_pairs.operations(operation_pairs([(0, 40), (0, 40)], [(0, 40), (2, 40)]))["change_failed_more"]
    # equal counts are no worse; the share decides when the sides attempted different numbers
    assert not bench_pairs.operations(operation_pairs([(1, 40)], [(1, 40)]))["change_failed_more"]
    assert bench_pairs.operations(operation_pairs([(2, 80)], [(2, 40)]))["change_failed_more"]
    assert not bench_pairs.operations(operation_pairs([(2, 40)], [(3, 80)]))["change_failed_more"]
    # nothing attempted reads as nothing failed
    assert bench_pairs.operations(operation_pairs([(0, 0)], [(1, 40)]))["change_failed_more"]
    assert not bench_pairs.operations(operation_pairs([(0, 40)], [(0, 0)]))["change_failed_more"]


def test_seed_defaults_to_the_benchmark_seed_and_reaches_bench_run(monkeypatch):
    argv = ["--parent", "HEAD", "--change", "HEAD", "--workload", "exact_tables", "--pairs", "2", "--out", "unused.json"]
    assert bench_pairs.parse_args(argv).seed == 1
    assert bench_pairs.parse_args([*argv, "--seed", "2"]).seed == 2
    commands = []

    def fake_run(command, **kwargs):
        commands.append(command)
        result = {"attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}
        return subprocess.CompletedProcess(command, 0, json.dumps(result) + "\n", '{"rounds": 4}\n')

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    run = bench_pairs.run_side(Path("side"), "exact_tables", 2)
    assert run == {"rounds": 4, "attempted": 3, "failed": 0, "wall_s": 0.5}
    assert commands[0][1:] == ["bench/run.py", "--workload", "exact_tables", "--seed", "2", "--trace", "0"]


def test_one_pair_is_a_usage_error():
    stderr = io.StringIO()
    argv = ["--parent", "HEAD", "--change", "HEAD", "--workload", "exact_tables",
            "--pairs", "1", "--out", "unused.json"]
    with contextlib.redirect_stderr(stderr):
        try:
            bench_pairs.main(argv)
        except SystemExit as stop:
            code = stop.code
        else:
            code = None
    assert code == 2
    assert "error: --pairs must be at least 2, for quartiles" in stderr.getvalue()
