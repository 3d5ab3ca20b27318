"""Report documents: canonical check suites with two renderings.

A ReportDocument runs named checks, records their CheckReport outcomes and
wall times, and renders either canonical JSON (sorted by check id, wall
times omitted so equal seeds give byte-identical bytes) or markdown for
humans (wall times included).  Verdicts agree between renderings.
"""

from __future__ import annotations

import json
import os
import time
from math import factorial

from . import __version__, bv, cacti, gravity, groups, poisson, stringbr
from .exact import GradedDims, Q, poly_coeffs_product
from .operads import CheckReport


class ReportDocument:
    """Ordered collection of check outcomes with provenance."""

    def __init__(self, suite, seed=0):
        self.suite = suite
        self.seed = seed
        self.version = __version__
        self.entries = []
        self.wall_times = {}
        self.timed_with = {}

    def run(self, thunk):
        """Run one thunk returning a report or a list of them.  Its wall
        time is counted once: on its first report, the others naming that
        report in ``timed_with``."""
        t0 = time.perf_counter()
        rep = thunk()
        dt = time.perf_counter() - t0
        reps = rep if isinstance(rep, list) else [rep]
        self.entries.extend(reps)
        if reps:
            self.wall_times[reps[0].check_id] = dt
        for r in reps[1:]:
            self.timed_with[r.check_id] = reps[0].check_id
        return rep

    @property
    def passed(self):
        return all(r.passed for r in self.entries)

    def sorted_entries(self):
        return sorted(self.entries, key=lambda r: r.check_id)

    def to_json(self):
        doc = {
            "suite": self.suite,
            "version": self.version,
            "seed": self.seed,
            "verdict": "pass" if self.passed else "fail",
            "checks": [r.to_dict() for r in self.sorted_entries()],
        }
        return json.dumps(doc, indent=1, sort_keys=True) + "\n"

    def to_markdown(self):
        lines = [
            "# verification report",
            "",
            "- suite: %s" % self.suite,
            "- version: %s" % self.version,
            "- seed: %d" % self.seed,
            "- verdict: **%s**" % ("pass" if self.passed else "fail"),
            "",
            "| check | cases | verdict | wall time | claim |",
            "|---|---|---|---|---|",
        ]
        for r in self.sorted_entries():
            if r.check_id in self.timed_with:
                wall = "with %s" % self.timed_with[r.check_id]
            else:
                wall = "%.2fs" % self.wall_times.get(r.check_id, 0.0)
            lines.append(
                "| %s | %d | %s | %s | %s |"
                % (r.check_id, r.total, "pass" if r.passed else "FAIL", wall, r.claim)
            )
        fails = [r for r in self.sorted_entries() if not r.passed]
        if fails:
            lines.append("")
            lines.append("## failures")
            for r in fails:
                lines.append("- %s: %s" % (r.check_id, r.witnesses()[0]))
        return "\n".join(lines) + "\n"


def check_e2_dims(max_arity=7, b=1):
    """Basis enumeration counts match the generating function
    prod_{j<k} (1 + j t^b) and total k!."""
    poisson.check_bracket_degree(b)
    rep = CheckReport(
        "e2-dimension-table-%d-b%d" % (max_arity, b),
        "normal-form counts per degree match prod (1 + j t^b) and total k!",
        {"max_arity": max_arity, "b": b},
    )
    for k in range(1, max_arity + 1):
        got = {}
        for mono in poisson.enumerate_basis(k, b=b):
            d = poisson.mono_degree(mono, b)
            got[d] = got.get(d, 0) + 1
        want = poly_coeffs_product([1, j] for j in range(1, k)).scaled_degrees(b)
        ok = GradedDims(got) == want and sum(got.values()) == factorial(k)
        rep.count(ok, "arity %d: %r vs %r", k, got, dict(want))
    return rep


def default_suite(seed=0, fast=False):
    """The full verification battery.  fast=True trims the slowest sweeps
    (generation, large bases) for interactive runs."""
    doc = ReportDocument("default" if not fast else "fast", seed)
    doc.run(lambda: check_e2_dims(7 if not fast else 5))
    doc.run(lambda: check_e2_dims(4, b=3))

    # gravity layer
    for k in range(2, 7 if not fast else 6):
        doc.run(lambda k=k: gravity.check_free_module(k))
    for k in range(2, 7):
        for l in range(0, 7 - k):
            if k + l <= (6 if not fast else 5):
                doc.run(lambda k=k, l=l: gravity.verify_generalized_jacobi(k, l))
    doc.run(lambda: gravity.check_suboperad_closure(6 if not fast else 5))
    doc.run(lambda: gravity.check_lie_embedding(5 if not fast else 4))
    if not fast:
        doc.run(lambda: gravity.check_generation(5))
    doc.run(lambda: gravity.grav4_table(5 if not fast else 4))

    # bv layer
    for k in range(2, 7 if not fast else 5):
        for bdeg in (1, 3):
            doc.run(lambda k=k, b=bdeg: bv.check_bv_relations(k, b))

    # cacti layer
    samples = 1000 if not fast else 200
    doc.run(lambda: cacti.check_cocycle(5, samples, seed, 64))
    doc.run(lambda: cacti.check_rotation_equivariance(4, samples, seed, 64))
    doc.run(lambda: cacti.check_coend(4, samples, seed, 64))
    doc.run(lambda: cacti.check_rotation_action(5, samples // 2, seed, 64))
    doc.run(lambda: cacti.check_winding(5, samples // 5, seed, 64))
    doc.run(lambda: cacti.check_associativity_batch(5, samples, seed, 64))

    # group layer
    lib = groups.bundled_groups()
    for name in sorted(lib):
        G = lib[name]
        if G.order > 16:
            continue
        doc.run(lambda G=G: groups.check_fixed_points(G))
        doc.run(lambda G=G: groups.check_conjugation_equivariance(G, 60, seed))
        doc.run(lambda G=G: groups.check_group_harness(G, seed))
    doc.run(lambda: check_tom_dieck_examples(lib))

    # string layer
    doc.run(lambda: check_bundled_string_data())
    pair3 = stringbr.pair_from_presentation(stringbr.free_bv_presentation(3))
    pairR = stringbr.pair_from_presentation(
        stringbr.free_bv_presentation(4, supports=[(1, 2), (3, 4), (1, 2, 3, 4)])
    )
    doc.run(lambda: stringbr.check_transfer_lie(pair3, "string-transfer-lie-free3"))
    doc.run(lambda: stringbr.check_transfer_lie(pairR, "string-transfer-lie-blocks"))
    doc.run(lambda: stringbr.check_m_bar_symmetry(pair3, 2, "string-mbar-symmetry-free3-2"))
    doc.run(lambda: stringbr.check_m_bar_symmetry(pairR, 2, "string-mbar-symmetry-blocks-2"))
    for (k, l) in [(2, 0), (3, 0), (2, 1), (4, 0), (3, 1), (2, 2)]:
        doc.run(
            lambda k=k, l=l: stringbr.verify_gravity_algebra(
                pair3, k, l, "string-gravity-free3-%d-%d" % (k, l)
            )
        )
    for (k, l) in [(2, 1), (3, 0)]:
        doc.run(
            lambda k=k, l=l: stringbr.verify_gravity_algebra(
                pairR, k, l, "string-gravity-blocks-%d-%d" % (k, l)
            )
        )
    for (k, l) in [(3, 0), (4, 0), (3, 1), (3, 2), (4, 1), (5, 0)]:
        doc.run(lambda k=k, l=l: stringbr.check_nested_gravity(k, l))
    return doc


def check_tom_dieck_examples(lib):
    """The index tables for the order-2 group and the size-6 symmetric
    group match their hand derivations; ``lib`` is ``bundled_groups()``."""
    rep = CheckReport(
        "group-tom-dieck-examples",
        "subgroup class records carry the derived centralizers and Weyl orders",
        {},
    )
    recs = groups.tom_dieck_summands(lib["C2"])
    got = [(r.elements, r.centralizer, r.weyl_order) for r in recs]
    want = [((0,), (0, 1), 2), ((0, 1), (0, 1), 1)]
    rep.count(got == want, "C2: %r", got)
    recs = [r for r in groups.tom_dieck_summands(lib["S3"]) if r.is_representative]
    got = [(len(r.elements), len(r.centralizer), r.weyl_order) for r in recs]
    want = [(1, 6, 6), (2, 2, 1), (3, 3, 2), (6, 1, 1)]
    rep.count(got == want, "S3: %r", got)
    return rep


def check_bundled_string_data():
    """Bundled presentations load with the expected verdicts: the 2-dim
    example derives [e,e] = -u with exactly the known Leibniz finding, the
    zero-operator family is clean, and the block pair validates."""
    rep = CheckReport(
        "string-bundled-data",
        "bundled presentations validate with their derived verdicts",
        {},
    )
    base = os.path.join(os.path.dirname(__file__), "data")

    def load(name):
        with open(os.path.join(base, name)) as fh:
            return json.load(fh)

    two = load("bv_two_dim.json")
    val = stringbr.validate_bv(two)
    ok = (
        val.accepted
        and val.bracket_table[(0, 0)] == {1: Q(-1)}
        and val.findings == [("leibniz", "(e, e, e)")]
    )
    rep.count(ok, "two-dim: %r %r", val.errors, val.findings)
    pair = stringbr.pair_from_dict(two)
    ok = stringbr.m_bar(pair, 2, [0, 0]) == {} and stringbr.transfer_lie_check(pair, 0, 0)
    rep.count(ok, "two-dim pair operations")

    val = stringbr.validate_bv(load("bv_delta_zero.json"))
    ok = val.accepted and not val.findings and all(
        not v for v in val.bracket_table.values()
    )
    rep.count(ok, "delta-zero: %r", val.findings)

    blocks = load("bv_free_blocks.json")
    val = stringbr.validate_bv(blocks)
    rep.count(val.accepted and not val.findings, "blocks: %r %r", val.errors[:2], val.findings)
    pair = stringbr.pair_from_dict(blocks)
    rep.count(len(stringbr.m_bar_table(pair, 2)) > 0, "block pair has no nonzero m_bar_2")

    corrupted = json.loads(json.dumps(two))
    corrupted["product"][3] = [1, 1, ["1", "0"]]  # u*u = e breaks grading
    val = stringbr.validate_bv(corrupted)
    rep.count(not val.accepted, "corrupted data was accepted")
    return rep
