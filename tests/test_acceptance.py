"""Acceptance battery.

One test per headline claim, each printing its own PASS line; run with -v
to get one pass/fail line per criterion.  Time budgets are asserted where a
claim carries one.  Everything here is exact rational arithmetic; there is
no numerical tolerance anywhere.
"""

import itertools
import json
import math
import os
import time
from fractions import Fraction as Q

from operadkit import bv, cacti, gravity, groups, poisson, reports, stringbr
from operadkit.exact import GradedDims, poly_coeffs_product

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "operadkit", "data")

_GRAV = {}


def grav(k, b=1):
    """Dimensions of the gravity basis in arity k, computed once."""
    key = (k, b)
    if key not in _GRAV:
        basis = gravity.gravity_basis(k, b)
        _GRAV[key] = GradedDims({d: len(xs) for d, xs in basis.items()})
    return _GRAV[key]


def done(n, text):
    print("PASS criterion %d: %s" % (n, text))


def test_criterion_01_e2_dimension_tables():
    """Basis count k! and per-degree dimensions = coefficients of
    prod_{j=1}^{k-1} (1 + j t) for 2 <= k <= 7, under one minute."""
    t0 = time.perf_counter()
    for k in range(2, 8):
        basis = poisson.enumerate_basis(k)
        assert len(basis) == math.factorial(k)
        counts = {}
        for mono in basis:
            d = poisson.mono_degree(mono)
            counts[d] = counts.get(d, 0) + 1
        assert GradedDims(counts) == poly_coeffs_product(
            [[1, j] for j in range(1, k)]
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, "dimension tables took %.1fs" % elapsed
    done(1, "e2 dimension tables for k <= 7 in %.1fs" % elapsed)


def test_criterion_02_arity_two_kernel():
    """Arity 2 has exactly one kernel class, in degree 1, and it is the
    bracket [x1, x2]."""
    assert grav(2) == GradedDims({1: 1})
    ((d, (x,)),) = gravity.gravity_basis(2).items()
    assert d == 1
    assert x == poisson.gen(1).bracket(poisson.gen(2))
    done(2, "arity-2 kernel is one degree-1 class, the bracket")


def test_criterion_03_kernel_equals_image():
    """ker Delta = im Delta per degree with total dimension k!/2 for
    2 <= k <= 6, under two minutes at k = 6."""
    t0 = time.perf_counter()
    for k in range(2, 7):
        rep = gravity.check_free_module(k)
        assert rep.passed, rep.line()
        assert sum(grav(k).values()) == math.factorial(k) // 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, "kernel/image comparison took %.1fs" % elapsed
    done(3, "ker = im per degree, dim k!/2, for k <= 6 in %.1fs" % elapsed)


def test_criterion_04_kernel_dimension_formula():
    """Kernel dimensions match t prod_{j=2}^{k-1} (1 + j t) for
    2 <= k <= 6."""
    for k in range(2, 7):
        assert grav(k) == gravity.moduli_dimension_oracle(k)
    done(4, "kernel dimensions match the moduli generating function, k <= 6")


def test_criterion_05_generalized_jacobi():
    """The bracket family's quadratic relation holds for every k >= 2,
    l >= 0 with k + l <= 6 under the documented l = 0 convention, and the
    global sign is consistent across all of them."""
    signs = {}
    for k in range(2, 7):
        for l in range(0, 7 - k):
            rep = gravity.verify_generalized_jacobi(k, l)
            assert rep.passed, rep.line()
            signs[(k, l)] = rep.params["relation_sign"]
    assert {s for (k, l), s in signs.items() if l == 0} == {0}
    assert {s for (k, l), s in signs.items() if l >= 1} == {1}
    done(5, "generalized Jacobi for all k+l <= 6 with one global sign")


def test_criterion_06_closure_under_composition():
    """Every partial composite of kernel basis elements is again in the
    kernel, on the full bases up to total arity 6."""
    rep = gravity.check_suboperad_closure(6)
    assert rep.passed, rep.line()
    assert rep.total > 0
    done(6, "partial composites of kernel classes stay closed, arity <= 6")


def test_criterion_07_generation():
    """The binary bracket alone spans (k-1)! classes in top degree for
    k <= 5, and the whole bracket family generates the kernel
    dimension-for-dimension for k <= 5."""
    rep = gravity.check_lie_embedding(5)
    assert rep.passed, rep.line()
    rep = gravity.check_generation(5)
    assert rep.passed, rep.line()
    done(7, "bracket family generates the kernel, binary part is (k-1)!-dim")


def test_criterion_08_degree_tripling():
    """The bracket-degree-3 tables agree with the degree-1 tables under
    degree tripling for k <= 5."""
    rep = gravity.grav4_table(5)
    assert rep.passed, rep.line()
    for k in range(2, 6):
        assert grav(k, b=3) == grav(k).scaled_degrees(3)
    done(8, "b=3 tables are the b=1 tables with degrees tripled, k <= 5")


def test_criterion_09_bv_relation_suite():
    """Delta^2 = 0 and the deviation and derivation identities hold on the
    full basis for k <= 6 at bracket degrees 1 and 3."""
    for b in (1, 3):
        for k in range(2, 7):
            for rep in bv.check_bv_relations(k, b=b):
                assert rep.passed, rep.line()
    done(9, "circle-operator relation suite on full bases, k <= 6, b in {1,3}")


def test_criterion_10_cacti_identities():
    """Cocycle, coEnd, rotation equivariance and composition associativity
    each hold on at least 1000 seeded rational instances (arity <= 5,
    denominators <= 64) plus all arc-boundary parameters, under a minute."""
    t0 = time.perf_counter()
    batches = [
        cacti.check_cocycle(5, 1000, seed=0, max_denominator=64),
        cacti.check_coend(5, 1000, seed=0, max_denominator=64),
        cacti.check_rotation_equivariance(5, 1000, seed=0, max_denominator=64),
        cacti.check_associativity_batch(5, 1000, seed=0, max_denominator=64),
    ]
    for rep in batches:
        assert rep.passed, rep.line()
        assert rep.total >= 1000, rep.line()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, "cacti batches took %.1fs" % elapsed
    done(10, "four cacti identities on 1000+ exact instances each in %.1fs" % elapsed)


def test_criterion_11_group_operads():
    """For every bundled group of order <= 16: conjugation-fixed tuples are
    exactly Z(G)^k, substitution associativity and equivariance hold
    exactly, and the subgroup records for Z/2 and S3 match the tables
    derived by hand."""
    lib = groups.bundled_groups()
    small = {name: g for name, g in lib.items() if g.order <= 16}
    assert len(small) == 42
    for name, G in sorted(small.items()):
        rep = groups.check_fixed_points(G, max_arity=3)
        assert rep.passed, rep.line()
        for rep in groups.check_group_harness(G, seed=0):
            assert rep.passed, rep.line()
        rep = groups.check_conjugation_equivariance(G, samples=60, seed=0)
        assert rep.passed, rep.line()
    recs = groups.tom_dieck_summands(lib["C2"])
    assert [(r.elements, r.centralizer, r.weyl_order) for r in recs] == [
        ((0,), (0, 1), 2),
        ((0, 1), (0, 1), 1),
    ]
    reps = [r for r in groups.tom_dieck_summands(lib["S3"]) if r.is_representative]
    assert sorted(
        (len(r.elements), len(r.centralizer), r.weyl_order) for r in reps
    ) == [(1, 6, 6), (2, 2, 1), (3, 3, 2), (6, 1, 1)]
    done(11, "all 42 bundled groups of order <= 16 pass, summand tables exact")


def test_criterion_12_string_bracket_data():
    """The validator accepts the 2-dimensional worked example and the
    Delta = 0 family; the string operations satisfy the gravity relations
    and the transfer check on every loadable constraint-satisfying
    presentation; corrupted data is rejected with witnesses."""

    def load(name):
        with open(os.path.join(DATA, name)) as fh:
            return json.load(fh)

    two = load("bv_two_dim.json")
    val = stringbr.validate_bv(two)
    assert val.accepted
    assert val.bracket_table[(0, 0)] == {1: Q(-1)}
    assert val.findings == [("leibniz", "(e, e, e)")]

    val = stringbr.validate_bv(load("bv_delta_zero.json"))
    assert val.accepted and not val.findings

    pairs = {
        "two-dim": stringbr.pair_from_dict(two),
        "blocks-file": stringbr.pair_from_dict(load("bv_free_blocks.json")),
        "free-3": stringbr.pair_from_presentation(stringbr.free_bv_presentation(3)),
        "blocks-4": stringbr.pair_from_presentation(
            stringbr.free_bv_presentation(4, supports=[(1, 2), (3, 4), (1, 2, 3, 4)])
        ),
    }
    shapes = {
        "two-dim": [(2, 0), (2, 1), (3, 0)],
        "blocks-file": [(2, 1), (3, 0)],
        "free-3": [(2, 0), (3, 0), (2, 1), (2, 2)],
        "blocks-4": [(2, 1), (3, 0)],
    }
    for name, pair in pairs.items():
        rep = stringbr.check_transfer_lie(pair)
        assert rep.passed, "%s: %s" % (name, rep.line())
        for k, l in shapes[name]:
            rep = stringbr.verify_gravity_algebra(pair, k, l)
            assert rep.passed, "%s: %s" % (name, rep.line())
    # nonvacuous certification of the relation through the transfer
    for k, l in [(3, 0), (4, 0), (3, 1), (3, 2)]:
        rep = stringbr.check_nested_gravity(k, l)
        assert rep.passed, rep.line()
        assert rep.params["nonzero_terms"] > 0

    corrupted = json.loads(json.dumps(two))
    corrupted["product"][3] = [1, 1, ["1", "0"]]
    val = stringbr.validate_bv(corrupted)
    assert not val.accepted
    assert val.errors and all(isinstance(e, str) and e for e in val.errors)
    done(12, "string-bracket data layer: accepts, verifies, rejects with witnesses")
