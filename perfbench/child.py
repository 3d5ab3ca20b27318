"""One cold benchmark process: import operadkit, run one workload, report.

    python3 perfbench/child.py WORKLOAD SEED [TARGET,TARGET,...]

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src``.  The child prints ``ready`` once ``operadkit`` is imported, then
one JSON line with the checks it ran as ``[check_id, verdict, cases]``,
the wall and CPU time from the first check call to the verdict, and its
peak RSS.  With a target list it runs under a ``spans.Tracer`` and adds the
raw per-target stats.  The workload ``setup`` stops after ``ready``.
"""

import sys

# Set-up ends at "ready": interpreter start and the operadkit imports, with
# none of the benchmark's own imports in it.
if __name__ == "__main__":
    import operadkit
    import operadkit.cli
    import operadkit.reports

    print("ready", flush=True)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

from spans import Tracer  # noqa: E402


def suite_fast(seed):
    from operadkit import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.run_cli(
            ["report", "--suite", "fast", "--format", "json", "--seed", str(seed), "--out", "-"]
        )
    return buf.getvalue()


def closure(seed):
    from operadkit import gravity

    return [gravity.check_lie_embedding(5), gravity.check_generation(4)]


def kernel(seed):
    from operadkit import gravity

    return [gravity.check_free_module(7)]


def bv_relations(seed):
    from operadkit import bv

    return bv.check_bv_relations(5, 1) + bv.check_bv_relations(5, 3)


WORKLOADS = {
    "suite-fast": suite_fast,
    "closure": closure,
    "kernel": kernel,
    "bv-relations": bv_relations,
}

# span_rank is useful when the candidate it was given is independent of the
# vectors before it, i.e. the rank equals the number of input vectors.
OBSERVERS = {"exact.span_rank": lambda args, rank: rank == len(args[0])}


def report_digest(doc):
    """sha256 of the report with every check's params dropped: params may
    gain certificate fields without the verdicts changing."""
    doc = dict(doc, checks=[{k: v for k, v in c.items() if k != "params"} for c in doc["checks"]])
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def time_thunks(thunks):
    """Time every ReportDocument thunk once, keyed by the checks it returned;
    ReportDocument.wall_times gives a list-returning thunk's whole time to
    each of its checks."""
    from operadkit.reports import ReportDocument

    run = ReportDocument.run

    def timed_run(doc, thunk):
        t0 = perf_counter()
        rep = run(doc, thunk)
        dt = perf_counter() - t0
        thunks.append([[r.check_id for r in (rep if isinstance(rep, list) else [rep])], dt])
        return rep

    ReportDocument.run = timed_run


def main(argv):
    import operadkit

    workload, seed = argv[0], int(argv[1])
    out = {"module": operadkit.__file__}
    if workload == "setup":
        print(json.dumps(out), flush=True)
        return 0
    targets = [t for t in (argv[2] if len(argv) > 2 else "").split(",") if t]
    if workload == "suite-fast":
        out["thunks"] = []
        time_thunks(out["thunks"])
    tracer = Tracer(targets, OBSERVERS).install() if targets else None
    c0, t0 = process_time(), perf_counter()
    result = WORKLOADS[workload](seed)
    out["wall_s"] = perf_counter() - t0
    out["cpu_s"] = process_time() - c0
    if tracer is not None:
        tracer.uninstall()
        out["stats"] = tracer.stats
        out["absent"] = tracer.absent
    if workload == "suite-fast":
        doc = json.loads(result)
        out["digest"] = report_digest(doc)
        out["checks"] = [[c["check"], c["verdict"], c["cases"]] for c in doc["checks"]]
        out["thunk_sum_s"] = sum(t for _, t in out["thunks"])
    else:
        out["checks"] = [[r.check_id, "pass" if r.passed else "fail", r.total] for r in result]
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}), flush=True)
        sys.exit(1)
