"""Tests of the benchmark's own machinery: the correctness gate with its
negative control, the alias-safe tracer, and the refusal to run outside a
checkout.  Run with ``PYTHONPATH=src python -m pytest perfbench``."""

import os
import shutil
import subprocess
import sys

from operadkit import bv, gravity
from run import gate
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))


def _tuples(reports):
    return [[r.check_id, "pass" if r.passed else "fail", r.total] for r in reports]


def test_corrupted_delta_fails_the_gate():
    reference = {"bv": {"seed": None, "checks": _tuples(bv.check_bv_relations(3))}}
    honest = {"checks": _tuples(bv.check_bv_relations(3))}
    corrupted = {"checks": _tuples(bv.check_bv_relations(3, _corrupt_delta=True))}
    assert gate("bv", 5, honest, reference) == (3, [])
    attempted, bad = gate("bv", 5, corrupted, reference)
    assert len(bad) / attempted > 0


def test_gate_away_from_the_pinned_seed_needs_passes_not_counts():
    reference = {"s": {"seed": 0, "checks": [["a", "pass", 5], ["b", "pass", 2]], "digest": "d"}}
    assert gate("s", 0, {"checks": [["a", "pass", 5], ["b", "pass", 2]], "digest": "d"}, reference)[1] == []
    assert gate("s", 0, {"checks": [["a", "pass", 5], ["b", "pass", 2]], "digest": "e"}, reference)[1] == ["report-digest"]
    assert gate("s", 7, {"checks": [["a", "pass", 9], ["b", "pass", 1]]}, reference)[1] == []
    assert gate("s", 7, {"checks": [["a", "fail", 9], ["b", "pass", 0]]}, reference)[1] == ["a", "b"]
    assert gate("s", 7, {"checks": [["a", "pass", 9], ["c", "pass", 1]]}, reference) == (3, ["b", "c"])
    assert gate("s", 7, None, reference) == (2, ["a", "b"])


def test_tracer_wraps_from_imports_and_records_absent_names():
    original = gravity.delta_apply
    targets = ["bv.delta_apply", "exact.SparseMatrix.rank", "poisson.gone", "gone.f"]
    counts = []
    for _ in range(2):
        tracer = Tracer(targets).install()
        assert gravity.delta_apply is not original
        rep = gravity.check_free_module(4)
        tracer.uninstall()
        assert rep.passed and gravity.delta_apply is original
        assert tracer.absent == ["poisson.gone", "gone.f"]
        calls, total, self_s, depth, _ = tracer.stats["bv.delta_apply"]
        assert calls == 24 and depth == 0 and 0 < self_s <= total
        counts.append({k: v[0] for k, v in tracer.stats.items()})
    assert counts[0] == counts[1] and counts[0]["exact.SparseMatrix.rank"] == 4


def test_refuses_to_run_without_a_checkout(tmp_path):
    shutil.copy(os.path.join(HERE, os.pardir, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
