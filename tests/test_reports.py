"""Report documents: canonical JSON, markdown rendering, determinism, the
fast suite end to end."""

import hashlib
import json
from pathlib import Path

from operadkit.groups import bundled_groups
from operadkit.operads import CheckReport
from operadkit.reports import (
    ReportDocument,
    check_bundled_string_data,
    check_e2_dims,
    check_tom_dieck_examples,
    default_suite,
)


# sha256 of the whole canonical JSON of the fast suite, params included;
# every change that keeps the suite's verdicts, cases, claims, witnesses and
# params keeps these bytes
FAST_SUITE_SHA256 = {
    0: "b3ae5896df8ced8726011d60676db72d0dc2be56cacf98e060ef0deb51cba45b",
    1: "0c7dd1d5a594b22eed7726bb3bd29b9968b89cba40e7f4da4e02d3b6c940c759",
}
# the same digest for the default suite at seed 0
DEFAULT_SUITE_SHA256 = "8c89e7d5fc7ca4856b1e02798a7fcd10121a623c2fb9f2f03a0ca90853d31aec"


def make_doc(fail=False):
    doc = ReportDocument("unit", seed=7)

    def good():
        rep = CheckReport("b-check", "claim b", {"n": 1})
        rep.count(True)
        return rep

    def second():
        rep = CheckReport("a-check", "claim a")
        rep.count(not fail, None if not fail else "witness text")
        return rep

    doc.run(good)
    doc.run(second)
    return doc


def test_json_is_canonical_and_sorted():
    doc = make_doc()
    blob = doc.to_json()
    parsed = json.loads(blob)
    assert parsed["suite"] == "unit"
    assert parsed["seed"] == 7
    assert parsed["verdict"] == "pass"
    ids = [c["check"] for c in parsed["checks"]]
    assert ids == sorted(ids) == ["a-check", "b-check"]
    # no wall times in the canonical rendering
    assert "wall" not in blob and "time" not in blob
    assert doc.to_json() == blob


def test_failures_render_with_witnesses():
    doc = make_doc(fail=True)
    assert not doc.passed
    parsed = json.loads(doc.to_json())
    assert parsed["verdict"] == "fail"
    bad = [c for c in parsed["checks"] if c["verdict"] == "fail"]
    assert bad and bad[0]["witnesses"] == ["witness text"]
    md = doc.to_markdown()
    assert "## failures" in md
    assert "witness text" in md


def test_markdown_contains_table_and_times():
    md = make_doc().to_markdown()
    assert "| check | cases | verdict | wall time | claim |" in md
    assert "| a-check | 1 | pass |" in md
    assert "verdict: **pass**" in md


def test_list_thunk_time_is_counted_once(monkeypatch):
    import operadkit.reports as reports

    ticks = iter([10.0, 14.0, 20.0, 21.0])
    monkeypatch.setattr(reports.time, "perf_counter", lambda: next(ticks))
    doc = ReportDocument("unit")

    def pair():
        out = [CheckReport("z-first", "claim z"), CheckReport("a-second", "claim a")]
        for rep in out:
            rep.count(True)
        return out

    def single():
        rep = CheckReport("m-single", "claim m")
        rep.count(True)
        return rep

    doc.run(pair)
    doc.run(single)
    assert doc.wall_times == {"z-first": 4.0, "m-single": 1.0}
    md = doc.to_markdown()
    assert "| z-first | 1 | pass | 4.00s | claim z |" in md
    assert "| a-second | 1 | pass | with z-first | claim a |" in md
    assert "| m-single | 1 | pass | 1.00s | claim m |" in md


def test_e2_dims_check():
    rep = check_e2_dims(5)
    assert rep.passed, rep.line()
    assert rep.total == 5
    rep = check_e2_dims(4, b=3)
    assert rep.passed, rep.line()


def test_tom_dieck_and_bundled_data_checks():
    rep = check_tom_dieck_examples(bundled_groups())
    assert rep.passed, rep.line()
    rep = check_bundled_string_data()
    assert rep.passed, rep.line()
    assert rep.total == 6


def test_bundled_blocks_row_names_its_findings(monkeypatch):
    # the blocks algebra accepted with a finding: the row's witness names it
    import operadkit.stringbr as stringbr

    blocks = json.loads((Path(stringbr.__file__).parent / "data/bv_free_blocks.json").read_text())
    real = stringbr.validate_bv

    def validate_bv(data):
        val = real(data)
        if data == blocks:
            val.findings.append(("leibniz", "(x1, x2, x3)"))
        return val

    monkeypatch.setattr(stringbr, "validate_bv", validate_bv)
    rep = check_bundled_string_data()
    assert (rep.total, rep.failures) == (6, ["blocks: [] [('leibniz', '(x1, x2, x3)')]"])


def test_fast_suite_passes_and_is_deterministic(monkeypatch):
    import operadkit.groups as groups

    builds = []
    real = groups.bundled_groups
    monkeypatch.setattr(groups, "bundled_groups", lambda: builds.append(1) or real())
    doc1 = default_suite(seed=0, fast=True)
    assert doc1.passed
    # the group library is built once per suite, not again for tom Dieck
    assert len(builds) == 1
    blob1 = doc1.to_json()
    doc2 = default_suite(seed=0, fast=True)
    assert doc2.to_json() == blob1
    assert hashlib.sha256(blob1.encode()).hexdigest() == FAST_SUITE_SHA256[0]
    ids = [c["check"] for c in json.loads(blob1)["checks"]]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    # every module family is represented
    for prefix in ("e2-", "gravity-", "bv-", "cacti-", "group-", "string-"):
        assert any(i.startswith(prefix) for i in ids), prefix
    # verdicts, case counts, claims and witnesses match the benchmark's
    # pinned digest, which drops every check's params
    doc = json.loads(blob1)
    doc["checks"] = [{k: v for k, v in c.items() if k != "params"} for c in doc["checks"]]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    pinned = json.loads(reference.read_text())["workloads"]["suite-fast"]
    assert pinned["seed"] == 0
    assert digest == pinned["digest"]


def test_fast_suite_bytes_at_another_seed():
    blob = default_suite(seed=1, fast=True).to_json()
    assert hashlib.sha256(blob.encode()).hexdigest() == FAST_SUITE_SHA256[1]


def test_default_suite_bytes():
    blob = default_suite(seed=0).to_json()
    assert hashlib.sha256(blob.encode()).hexdigest() == DEFAULT_SUITE_SHA256
