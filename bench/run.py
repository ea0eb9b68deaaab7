"""Benchmark of the zetaseries library and CLI.

    python3 bench/run.py --workload exact_tables|numeric_eval|cli_cold \
        --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's fixed operation list for at least S
seconds, each round in a fresh interpreter, one process at a time, and
prints one JSON object as the last line of stdout.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 the per-layer metrics of
a separate traced run, whose spans go to bench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = BENCH / "out"

LIBRARY_WORKLOADS = ("exact_tables", "numeric_eval")
WORKLOADS = LIBRARY_WORKLOADS + ("cli_cold",)
MIN_ROUNDS = 3
MIN_PAIRS = 2  # untraced + traced round pairs in a traced run
PROBES = 3  # import-only processes after each library round, for setup_s
IMPORT_PROBES = 3
TIMEOUT_S = 170
SAMPLE_S = 0.05
MODULES = ("zetaseries", "zetaseries.exactnum", "zetaseries.stirling", "zetaseries.harmonicnums",
           "zetaseries.coeffs", "zetaseries.harmonic", "zetaseries.reports", "zetaseries.series",
           "zetaseries.special", "zetaseries.msums", "zetaseries.audit", "zetaseries.cli")
SUITES = ("core", "fourier", "harmonic", "msums", "series", "special")


class HarnessError(RuntimeError):
    """The benchmark itself could not run: no result is printed."""


# ---------------------------------------------------------------- processes

CPUS = sorted(os.sched_getaffinity(0))


def quickest_cpu() -> int:
    """The CPU on which the reference computation runs fastest right now:
    the host's load falls unevenly on its CPUs."""
    timings = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        timings.append((min(speed.reference_s() for _ in range(2)), cpu))
    os.sched_setaffinity(0, CPUS)
    return min(timings)[1]


def spawn(args, interpreter_flags=()) -> dict:
    """Run bench/worker.py in a fresh interpreter and wait for it.

    Returns exit code, output, wall seconds from launch to exit, set-up
    seconds from launch to the worker's post-import stamp, and the
    reference timings taken on the worker's CPU just before, every
    SAMPLE_S seconds during, and just after the run."""
    read_fd, write_fd = os.pipe()
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env = dict(os.environ, PYTHONPATH=path, BENCH_STAMP_FD=str(write_fd))
    argv = [sys.executable, *interpreter_flags, str(BENCH / "worker.py"), *args]
    os.sched_setaffinity(0, {quickest_cpu()})  # the worker inherits the pin
    try:
        before = speed.reference_s()
        start = time.monotonic()
        try:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    pass_fds=(write_fd,), env=env, cwd=ROOT, text=True)
        finally:
            os.close(write_fd)
        samples = []
        try:
            while True:
                try:
                    out, err = proc.communicate(timeout=SAMPLE_S)
                    break
                except subprocess.TimeoutExpired:
                    if time.monotonic() - start > TIMEOUT_S:
                        raise HarnessError(f"worker {args} ran past {TIMEOUT_S} s") from None
                    samples.append(speed.reference_s())  # on the worker's CPU, while it runs
        except BaseException:  # timeout or interrupt: leave no worker behind
            proc.kill()
            proc.communicate()
            os.close(read_fd)
            raise
        end = time.monotonic()
        after = speed.reference_s()
    finally:
        os.sched_setaffinity(0, CPUS)
    with os.fdopen(read_fd, "rb") as stamp_file:
        stamp = stamp_file.read()
    return {
        "code": proc.returncode,
        "out": out,
        "err": err,
        "wall_s": end - start,
        "setup_s": float(stamp) - start if stamp else None,
        "refs": [before, *samples, after],
    }


def worker_json(args) -> tuple:
    proc = spawn(args)
    if proc["code"] != 0 or proc["setup_s"] is None:
        raise HarnessError(f"worker {args} exited {proc['code']}: {proc['err'][-2000:]}")
    lines = proc["out"].splitlines()
    return proc, json.loads(lines[-1]) if lines else None


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------- rounds


class Tally:
    """Per-operation outcomes across the rounds of one workload.  The
    first round is checked against the oracles; each later round must
    reproduce the first round's results exactly."""

    def __init__(self):
        self.first = None  # per op: (digest, ok)
        self.attempted = 0
        self.failed = 0
        self.failures: dict = {}

    def add(self, names, digests, ok=None):
        if self.first is None:
            self.first = list(zip(digests, ok))
        if len(digests) != len(self.first):
            raise HarnessError("rounds of one workload ran different operation lists")
        passed = [first_ok and digest == first_digest
                  for digest, (first_digest, first_ok) in zip(digests, self.first)]
        self.attempted += len(passed)
        self.failed += passed.count(False)
        for name, p in zip(names, passed):
            if not p:
                self.failures[name] = self.failures.get(name, 0) + 1


def library_round(workload, seed, tally, traced=False) -> dict:
    check = tally is not None and tally.first is None
    proc, out = worker_json(["round", workload, str(seed), "1" if traced else "0", "1" if check else "0"])
    refs = out["ref_s"]
    out["wall"] = sum(speed.rescale(t, r) for t, r in zip(out["wall_s"], zip(refs, refs[1:])))
    out["cpu"] = sum(speed.rescale(t, r) for t, r in zip(out["cpu_s"], zip(refs, refs[1:])))
    out["setup"] = speed.rescale(proc["setup_s"], proc["refs"])
    for i, error in out["errors"].items():
        print(f"raised: {out['ops'][int(i)]}: {error}", file=sys.stderr)
    if tally is not None:
        tally.add(out["ops"], out["digests"], out.get("ok"))
    return out


def cli_round(tally, tracer=None) -> dict:
    import cli_cold
    from spans import NullTracer

    tracer = tracer or NullTracer()
    commands = cli_cold.commands()
    procs, cpus = [], []
    for cmd in commands:
        cpu0 = children_cpu_s()
        with tracer.span(f"cli.{cmd.slug}"):
            procs.append(spawn(["cli", *cmd.args]))
        cpus.append(children_cpu_s() - cpu0)
    setups = [speed.rescale(p["setup_s"], p["refs"]) for p in procs if p["setup_s"] is not None]
    if not setups:
        raise HarnessError(f"no CLI process imported zetaseries.cli: {procs[0]['err'][-2000:]}")
    digests = [hashlib.sha256(repr((p["code"], p["out"], p["err"])).encode()).hexdigest() for p in procs]
    ok = None
    if tally is not None and tally.first is None:
        results = {c.slug: cli_cold.Result(p["code"], p["out"], p["err"]) for c, p in zip(commands, procs)}
        ok = [_safe_check(c.check, results[c.slug], results) for c in commands]
        for c, passed in zip(commands, ok):
            if not passed:
                r = results[c.slug]
                print(f"check failed: {c.slug}: exit {r.code}, stdout {r.out[:120]!r}, stderr {r.err[-300:]!r}",
                      file=sys.stderr)
    if tally is not None:
        tally.add([c.slug for c in commands], digests, ok)
    return {
        "wall": sum(speed.rescale(p["wall_s"], p["refs"]) for p in procs),
        "cpu": sum(speed.rescale(t, p["refs"]) for t, p in zip(cpus, procs)),
        "wall_s": [p["wall_s"] for p in procs],
        "setups": setups,
        "slugs": [c.slug for c in commands],
    }


def _safe_check(check, *args) -> bool:
    try:
        return bool(check(*args))
    except Exception:  # unparseable output fails the operation
        return False


def run_rounds(seconds, one_round, min_rounds) -> list:
    rounds, start = [], time.monotonic()
    while len(rounds) < min_rounds or time.monotonic() - start < seconds:
        rounds.append(one_round())
    return rounds


# ---------------------------------------------------------------- timed run


def timed_run(workload, seed, seconds) -> tuple:
    tally = Tally()
    if workload == "cli_cold":
        rounds = run_rounds(seconds, lambda: cli_round(tally), MIN_ROUNDS)
        setups = [s for r in rounds for s in r["setups"]]
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        setups = []

        def one_round():
            out = library_round(workload, seed, tally)
            setups.append(out["setup"])
            for _ in range(PROBES):
                probe = worker_json(["probe"])[0]
                setups.append(speed.rescale(probe["setup_s"], probe["refs"]))
            return out

        rounds = run_rounds(seconds, one_round, MIN_ROUNDS)
        peak_kb = max(r["maxrss_kb"] for r in rounds)
    metrics = {
        "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
        "cpu_s": (statistics.median(r["cpu"] for r in rounds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    info = {"rounds": len(rounds), "setup_samples": len(setups),
            "measured_wall_s_median": statistics.median(sum(r["wall_s"]) for r in rounds)}
    return tally, metrics, info


# ---------------------------------------------------------------- traced run


def exact_layer_metrics(out) -> dict:
    from spans import totals

    t, caches = totals(out["spans"]), out["caches"]
    rec = caches["coeffs.s2star_rec"]
    looked_up = rec["hits"] + rec["misses"]
    stirling_entries = sum(v["currsize"] for k, v in caches.items() if k.startswith("stirling."))
    metrics = {
        "coeffs.s2star_rec.hit_ratio": (rec["hits"] / looked_up if looked_up else 0.0, "ratio"),
        "coeffs.s2star_rec.entries": (rec["currsize"], "count"),
        "harmonicnums.harmonic.entries": (caches["harmonicnums.harmonic"]["currsize"], "count"),
        "stirling.entries": (stirling_entries, "count"),
    }
    for name in ("coeffs.s2star_rec", "coeffs.s2star_sum", "harmonicnums.harmonic",
                 "stirling.stirling1_unsigned", "harmonic.harmonic_binomial_form", "harmonic.npow_inverse",
                 "series.transform_zeta", "series.intro_example", "series.dilog_functional_eq_check",
                 "msums.m_def", "msums.m_alt"):
        metrics[f"{name}_s"] = (t.get(name, 0.0), "s")
    return metrics


def special_layer_metrics(out) -> dict:
    from spans import durations, mean_ms, median_ms

    spans = out["spans"]
    cold, warm, seen = [], [], set()
    for name, start, end, parent in spans:
        if name == "special.li_new_series":
            key = spans[parent][0].split(",z=")[0]  # the operation's (s, J)
            (warm if key in seen else cold).append(end - start)
            seen.add(key)
    metrics = {
        "special.li_new_series.cold_ms": (median_ms(cold), "ms"),
        "special.li_new_series.warm_ms": (median_ms(warm), "ms"),
    }
    evals = len(cold) + len(warm)
    for name in ("li_classic_series", "hurwitz_phi", "zeta_star", "bernoulli_fourier"):
        calls = durations(spans, f"special.{name}")
        metrics[f"special.{name}_ms"] = (mean_ms(calls), "ms")
        evals += len(calls)
    metrics["special.evals"] = (evals, "count")
    return metrics


def audit_layer_metrics(processes) -> dict:
    from spans import durations

    metrics, emit = {}, 0.0
    for suite in SUITES:
        _, out = worker_json(["audit", suite])
        processes.append({"label": f"audit:{suite}", "spans": out["spans"]})
        metrics[f"audit.run_suite.{suite}_s"] = (durations(out["spans"], "audit.run_suite")[0], "s")
        metrics[f"audit.reports.{suite}"] = (out["reports"], "count")
        emit += durations(out["spans"], "audit.emit_report")[0]
    metrics["audit.emit_report_s"] = (emit, "s")
    return metrics


def import_layer_metrics() -> dict:
    samples: dict = {m: [] for m in MODULES}
    for _ in range(IMPORT_PROBES):
        proc = spawn(["cli", "--help"], interpreter_flags=("-X", "importtime"))
        for line in proc["err"].splitlines():
            if line.startswith("import time:") and "|" in line:
                self_us, _, name = line[len("import time:"):].split("|")
                if name.strip() in samples:
                    samples[name.strip()].append(int(self_us))
    short = {m: "package" if m == "zetaseries" else m.split(".")[1] for m in MODULES}
    return {f"import.zetaseries.{short[m]}_ms": (statistics.median(v) / 1000, "ms") for m, v in samples.items()}


def cli_layer_metrics(rounds) -> dict:
    walls = zip(*(r["wall_s"] for r in rounds))
    return {f"cli.{slug}_s": (statistics.median(w), "s") for slug, w in zip(rounds[0]["slugs"], walls)}


def median_metrics(per_round) -> dict:
    return {name: (statistics.median(m[name][0] for m in per_round), unit)
            for name, (_, unit) in per_round[0].items()}


def traced_run(workload, seed, seconds) -> tuple:
    """Untraced and traced rounds of the workload in alternation, for the
    tracing overhead; then one traced round of each other workload, so
    that every layer metric is present."""
    from spans import Tracer

    tally, processes = Tally(), []
    untraced, traced = [], []

    def pair():
        if workload == "cli_cold":
            untraced.append(cli_round(tally))
            tracer = Tracer()
            traced.append(cli_round(tally, tracer))
            processes.append({"label": "cli_cold", "spans": tracer.spans})
        else:
            untraced.append(library_round(workload, seed, tally))
            traced.append(library_round(workload, seed, tally, traced=True))
            processes.append({"label": workload, "spans": traced[-1]["spans"], "caches": traced[-1]["caches"]})

    run_rounds(seconds, pair, MIN_PAIRS)
    own = {"exact_tables": [], "numeric_eval": [], "cli_cold": []}
    own[workload] = traced
    for other in LIBRARY_WORKLOADS:
        if not own[other]:
            own[other] = [library_round(other, seed, None, traced=True)]
            processes.append({"label": other, "spans": own[other][0]["spans"], "caches": own[other][0]["caches"]})
    if not own["cli_cold"]:
        tracer = Tracer()
        own["cli_cold"] = [cli_round(None, tracer)]
        processes.append({"label": "cli_cold", "spans": tracer.spans})

    metrics = {}
    metrics.update(import_layer_metrics())
    metrics.update(median_metrics([exact_layer_metrics(r) for r in own["exact_tables"]]))
    metrics.update(median_metrics([special_layer_metrics(r) for r in own["numeric_eval"]]))
    metrics.update(audit_layer_metrics(processes))
    metrics.update(cli_layer_metrics(own["cli_cold"]))
    overhead = statistics.median(r["wall"] for r in traced) - statistics.median(r["wall"] for r in untraced)
    metrics["trace.overhead_s"] = (overhead, "s")

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-{seed}.json"
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "span_fields": ["name", "start", "end", "parent"],
                   "processes": processes, "metrics": metrics}, handle)
    return tally, metrics, {"pairs": len(traced), "trace": str(trace_path.relative_to(ROOT))}


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zetaseries" / "__init__.py").is_file():
        print(f"error: no zetaseries sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(SRC)]  # the CLI checks read the audit registry
    try:
        run = traced_run if args.trace else timed_run
        tally, metrics, info = run(args.workload, args.seed, args.seconds)
    except HarnessError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for name, count in sorted(tally.failures.items()):
        print(f"failed: {name} in {count} round(s)", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}), file=sys.stderr)
    print(json.dumps({
        # Every operation whose result was wrong is counted in "failed", so
        # the operations left were all checked and found correct.
        "correct": tally.first is not None,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through spawn, which kills its worker
    sys.exit(main())
