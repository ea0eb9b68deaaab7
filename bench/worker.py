"""One fresh interpreter doing one piece of a benchmark run.

    worker.py probe
    worker.py round WORKLOAD SEED TRACE CHECK
    worker.py audit SUITE
    worker.py cli ARGS...

Right after ``import zetaseries`` (``zetaseries.cli`` for ``cli``) the
worker writes its CLOCK_MONOTONIC stamp to the descriptor named by
BENCH_STAMP_FD, so the parent can time interpreter start to import
return.  ``round`` and ``audit`` print one JSON object on stdout; ``cli``
then runs the ``zetaseries`` command line exactly as its entry point
does.
"""

import json
import os
import sys
import time


def _stamp() -> None:
    fd = int(os.environ["BENCH_STAMP_FD"])
    os.write(fd, repr(time.monotonic()).encode())
    os.close(fd)


def _passes(check, result) -> bool:
    try:
        return bool(check(result))
    except Exception:  # a result the check cannot read is a wrong result
        return False


def run_round(workload: str, seed: int, traced: bool, check: bool) -> dict:
    import resource

    import workloads
    from spans import NullTracer, Tracer
    from speed import reference_s

    ops = workloads.WORKLOADS[workload](seed)
    tracer = Tracer() if traced else NullTracer()
    results, errors, walls, cpus, refs = [], {}, [], [], [reference_s()]
    for i, op in enumerate(ops):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with tracer.span(op.name):
            try:
                results.append(op.run(tracer))
            except Exception as error:  # an operation that raises has failed
                results.append(None)
                errors[i] = f"{type(error).__name__}: {error}"
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        refs.append(reference_s())
    out = {
        "wall_s": walls,
        "cpu_s": cpus,
        "ref_s": refs,  # reference timings between the operations
        # peak RSS of the operations, read before the checks allocate
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": [op.name for op in ops],
        "digests": [workloads.digest(r) for r in results],
        "errors": errors,
    }
    if traced:
        out["spans"] = tracer.spans
        out["caches"] = workloads.cache_snapshot()
    if check:
        out["ok"] = [i not in errors and _passes(op.check, r) for i, (op, r) in enumerate(zip(ops, results))]
    return out


def run_audit(suite: str) -> dict:
    from zetaseries import audit

    from spans import Tracer

    tracer = Tracer()
    reports = tracer.call("audit.run_suite", audit.run_suite, suite)
    tracer.call("audit.emit_report", audit.emit_report, reports, "json")
    return {"spans": tracer.spans, "reports": len(reports)}


def main(argv) -> int:
    if argv[0] == "cli":
        import zetaseries.cli

        _stamp()
        return zetaseries.cli.main(argv[1:])
    import zetaseries  # noqa: F401

    _stamp()
    if argv[0] == "probe":
        return 0
    if argv[0] == "round":
        workload, seed, traced, check = argv[1], int(argv[2]), argv[3] == "1", argv[4] == "1"
        out = run_round(workload, seed, traced, check)
    elif argv[0] == "audit":
        out = run_audit(argv[1])
    else:
        raise SystemExit(f"unknown worker mode {argv[0]!r}")
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
