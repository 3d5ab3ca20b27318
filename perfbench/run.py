"""operadkit benchmark: time to a correct verdict, set-up, memory and spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it needs ``BENCHMARK.json`` and
``src/operadkit``).  The loop is closed with one client: one fresh child
process (``child.py``) at a time, each running the workload once cold, the
way each ``operadkit`` CLI call runs.  Children are started until the next
one would end after ``--seconds`` (at least ``MIN_CHILDREN``).

The host's speed drifts by up to half over minutes (other tenants share its
cores), which would swamp most changes to the program.  So the benchmark
pins itself and its children to one CPU, and a thread times the fixed
stdlib-only ``probe_work`` on that CPU every ``PROBE_PERIOD_S``.  A child's
times are scaled by ``REFERENCE_PROBE_S`` over the mean probe time during
its life, so the times among the metrics are seconds at the reference host
speed.  The time to verdict is the child's CPU time, which leaves out the
probe's slices.  The record line keeps the raw times, the suite-fast
per-thunk times among them.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: medians
over the children of ``wall_s`` (first check call to verdict), ``setup_s``
(spawn until ``operadkit`` is imported, over every child and
``SETUP_PROBES`` set-up-only children) and ``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced children and
prints the per-layer metrics: span counts and times of the wrapped
functions, ``trace.overhead_ratio`` and ``check_fail_ratio``.

Every child's checks go through ``gate`` against ``reference.json``, pinned
at the seed commit.  The line before the result holds the provenance and
every per-child sample.

Left out, since 22 repetitions would take about an hour and ``closure`` and
``kernel`` run their code paths: ``report --suite default`` (over 150 s),
``check_generation(5)`` (90 s) and arity-7 closure.  ``bv-relations`` runs
arity 5, not 6: arity 6 takes 23-34 s a process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from spans import CALLS, SELF, TOTAL, USEFUL

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
MIN_CHILDREN = 3
SETUP_PROBES = 7
PROBE_ITERATIONS = 400
PROBE_PERIOD_S = 0.05
# Seconds probe_work() takes at the reference host speed: a 2-vCPU x86-64
# virtual machine reporting 2.0 GHz, CPython 3.11.
REFERENCE_PROBE_S = 0.001
# Children are not started past this point, and killed at RUN_LIMIT_S, so a
# run ends within the 180 s a run may take even if the program slows down.
START_LIMIT_S = 120.0
RUN_LIMIT_S = 170.0
STATS = ("calls", "total_s", "self_s", "useful_ratio")


def gate(workload, seed, checks, reference):
    """Compare one child's ``[check_id, verdict, cases]`` list (None when the
    child failed) with the pinned reference.  At the pinned seed, or for an
    unseeded workload, every tuple and the report digest must match; at
    another seed every pinned check must pass with at least one case.
    Returns (attempted, failed check ids)."""
    ref = reference[workload]
    pinned = {c[0]: c for c in ref["checks"]}
    if checks is None:
        return len(pinned), sorted(pinned)
    got = {c[0]: c for c in checks["checks"]}
    exact = ref["seed"] is None or seed == ref["seed"]
    bad = set()
    if len(got) != len(checks["checks"]):
        bad.add("duplicate-check-ids")
    for cid in set(pinned) | set(got):
        g, p = got.get(cid), pinned.get(cid)
        if g is None or p is None:
            bad.add(cid)
        elif exact and list(g) != list(p):
            bad.add(cid)
        elif not exact and (g[1] != "pass" or g[2] < 1):
            bad.add(cid)
    if exact and "digest" in ref and checks.get("digest") != ref["digest"]:
        bad.add("report-digest")
    return len(set(pinned) | set(got) | bad), sorted(bad)


def quartiles(values):
    if len(values) < 2:
        q1 = q3 = values[0] if values else 0.0
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values) if values else 0.0
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def spawn(root, workload, seed, targets, deadline):
    """Run one child; returns its result dict with ``setup_s`` and
    ``elapsed_s`` added, or a dict with ``error``."""
    # A fixed hash seed fixes set iteration order, so traced call counts repeat.
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    argv = [sys.executable, CHILD, workload, str(seed), ",".join(targets)]
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, bufsize=0)
    ready = proc.stdout.readline()
    setup = perf_counter() - t0
    try:
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        rest = b'{"error": "timed out"}'
    elapsed = perf_counter() - t0
    lines = rest.decode().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else {"error": "no result line"}
    except ValueError:
        out = {"error": "bad result line: %r" % lines[-1][:200]}
    if ready != b"ready\n" or proc.returncode != 0:
        out.setdefault("error", "exit code %s" % proc.returncode)
    src = os.path.realpath(os.path.join(root, "src"))
    if "error" not in out and not os.path.realpath(out["module"]).startswith(src):
        out["error"] = "operadkit imported from %s, not the checkout" % out["module"]
    out.update(setup_s=setup, elapsed_s=elapsed, t_spawn=t0)
    return out


def layer_targets(per_layer):
    targets = []
    for metric in per_layer:
        target, _, stat = metric["name"].rpartition(".")
        if stat in STATS and target not in targets:
            targets.append(target)
    return targets


def probe_work():
    """Fixed stdlib-only work like the engine's: linear combinations held as
    dicts keyed by sorted tuples, rebuilt on every addition."""
    out = {}
    for i in range(PROBE_ITERATIONS):
        key = tuple(sorted((i * 3 % 7, i * 5 % 11, i % 13)))
        terms = {key: i % 5 + 1, key[:1]: 1}
        new = dict(out)
        for k, c in terms.items():
            v = new.get(k, 0) + c
            if v:
                new[k] = v
            else:
                new.pop(k, None)
        out = new if len(new) < 64 else {}
    return out


class SpeedProbe:
    """Times ``probe_work`` every ``PROBE_PERIOD_S`` from a thread sharing
    the children's CPU, so its samples see what slows them down."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            t0 = perf_counter()
            probe_work()
            self.samples.append((t0, perf_counter() - t0))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, t0, t1):
        """Factor taking times measured between t0 and t1 to the reference
        host speed."""
        near = [d for t, d in self.samples if t0 <= t <= t1] or [d for _, d in self.samples]
        return REFERENCE_PROBE_S / statistics.mean(near) if near else 1.0


def layer_value(name, traced, overhead, fail_ratio):
    if name == "trace.overhead_ratio":
        return overhead
    if name == "check_fail_ratio":
        return fail_ratio
    target, _, stat = name.rpartition(".")
    if not traced or target not in traced[0]["stats"]:
        return 0
    row = traced[0]["stats"][target]
    if stat == "calls":
        return row[CALLS]
    if stat == "useful_ratio":
        return row[USEFUL] / row[CALLS] if row[CALLS] else 0.0
    i = TOTAL if stat == "total_s" else SELF
    return statistics.median(c["stats"][target][i] * c["scale"] for c in traced)


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def src_digest(root):
    """sha256 over the package sources, since a checkout need not be a git
    repository."""
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "operadkit")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, pkg).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(root, args):
    rev = None
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        rev = done.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "platform": platform.platform(),
        "git_rev": rev,
        "src_sha256": src_digest(root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "operadkit", "__init__.py")):
        print("no src/operadkit in %s: run from the root of a checkout" % root, file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print("unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)["workloads"]
    info = provenance(root, args)

    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    targets = layer_targets(bench["per_layer"])
    # The probe measures the CPU the children run on only if they share it.
    info["cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {info["cpu"]})
    plain, traced, rounds = [], [], []
    with SpeedProbe() as probe:
        setups = [] if args.trace else [
            spawn(root, "setup", args.seed, [], deadline) for _ in range(SETUP_PROBES)
        ]
        while True:
            t_round = perf_counter()
            plain.append(spawn(root, args.workload, args.seed, [], deadline))
            if args.trace:
                traced.append(spawn(root, args.workload, args.seed, targets, deadline))
            rounds.append(perf_counter() - t_round)
            now = perf_counter()
            typical = statistics.median(rounds)
            enough = len(rounds) >= (1 if args.trace else MIN_CHILDREN)
            if (enough and now - start + typical > args.seconds) or now - start + typical > START_LIMIT_S:
                break
    for child in plain + traced:
        child["scale"] = probe.scale(child["t_spawn"], child["t_spawn"] + child["elapsed_s"])
    # A set-up lasts a few probe periods, too few samples for its own scale.
    run_scale = probe.scale(start, perf_counter())

    attempted = failed = 0
    failures = set()
    for child in plain + traced:
        n, bad = gate(args.workload, args.seed, None if "error" in child else child, reference)
        attempted += n
        failed += len(bad)
        failures.update(bad)
    good = [c for c in plain if "error" not in c]
    good_traced = [t for t in traced if "error" not in t]
    # Tracing must change no verdict, and the calls it counts must repeat.
    calls = [{k: v[CALLS] for k, v in t["stats"].items()} for t in good_traced]
    correct = (
        failed == 0
        and all("error" not in c for c in setups)
        and len(good) == len(plain)
        and len(good_traced) == len(traced)
        and all(t["checks"] == good[0]["checks"] for t in good_traced)
        and all(c == calls[0] for c in calls)
    )

    def scaled(children, key):
        return [c[key] * c["scale"] for c in children]

    summary = {
        "wall_s": quartiles(scaled(good, "cpu_s")),
        "setup_s": quartiles([c["setup_s"] * run_scale for c in setups + plain]),
        "peak_rss_mb": quartiles([c["rss_mb"] for c in good]),
        "raw_wall_s": quartiles([c["wall_s"] for c in good]),
        "raw_cpu_s": quartiles([c["cpu_s"] for c in good]),
        "raw_setup_s": quartiles([c["setup_s"] for c in setups + plain]),
        "probe_s": quartiles([d for _, d in probe.samples]),
    }
    if args.trace:
        traced_wall = quartiles(scaled(good_traced, "cpu_s"))["median"]
        overhead = traced_wall / summary["wall_s"]["median"] if traced_wall and good else 0.0
        metrics = {
            m["name"]: {
                "value": layer_value(m["name"], good_traced, overhead, failed / attempted),
                "unit": m["unit"],
            }
            for m in bench["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": summary[m["name"]]["median"], "unit": m["unit"]}
            for m in bench["end_to_end"]
        }
    info["loadavg_end"] = loadavg()
    fields = ("wall_s", "cpu_s", "setup_s", "elapsed_s", "rss_mb", "scale", "thunk_sum_s", "error")
    record = {
        "provenance": info,
        "summary": summary,
        "samples": [dict({k: c.get(k) for k in fields}, traced=False) for c in plain]
        + [dict({k: c.get(k) for k in fields}, traced=True) for c in traced],
        "setup_probes": [{k: c.get(k) for k in ("setup_s", "error")} for c in setups],
        "run_scale": run_scale,
        "failures": sorted(failures)[:20],
        "absent": good_traced[0]["absent"] if good_traced else None,
    }
    if args.workload == "suite-fast" and good:
        record["thunks"] = [
            {"checks": ids, "seconds": [c["thunks"][i][1] for c in good]}
            for i, (ids, _) in enumerate(good[0]["thunks"])
        ]
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
