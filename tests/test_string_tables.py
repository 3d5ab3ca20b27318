"""The string battery reads basis tables built once per check, and sweeps
its laws only where a structure constant can be nonzero.  These tests
compare it with the earlier forms, kept here as oracles: the sweeps over
every basis pair and triple (structure_errors and validate_bv), validate_bv's
law loop that rebuilt every bracket from the deviation table, and
verify_gravity_algebra calling m_bar on vector arguments for every tuple.
The oracles call ``stringbr.m_bar`` and the loaders through the module, so
a patched m_bar reaches them as it reaches the code under test."""

import copy
import itertools
import json
import os
import random

import pytest

import operadkit.stringbr as stringbr
from operadkit.exact import add_into, koszul_sign, perm_inverse
from operadkit.operads import CheckReport
from stringbr_wire import bv_data_to_dict

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "operadkit", "data")
BLOCKS = [(1, 2), (3, 4), (1, 2, 3, 4)]
# the (k, l) the report suites run on each generated pair
SUITE_FREE3 = [(2, 0), (3, 0), (2, 1), (4, 0), (3, 1), (2, 2)]
SUITE_BLOCKS = [(2, 1), (3, 0)]


def load(name):
    with open(os.path.join(DATA, name)) as fh:
        return json.load(fh)


def oracle_findings(raw):
    """Law findings as the loop over the rebuilt normalized bracket gives
    them: every bracket of two vectors is expanded from the deviation
    table afresh."""
    data = stringbr.bv_data_from_dict(raw)
    names, deg, n = data.names, data.degrees, data.dim
    table = {(i, j): data.bracket(i, j) for i in range(n) for j in range(n)}

    def nb(u, v):
        out = {}
        for i, ci in u.items():
            for j, cj in v.items():
                c = ci * cj
                if deg[i] % 2:
                    c = -c
                add_into(out, table[(i, j)], c)
        return out

    def shift_sign(d1, d2):
        return -1 if (d1 % 2) and (d2 % 2) else 1

    def vec_eq(u, v, c=1):
        return not any(add_into(dict(u), v, -c).values())

    findings = []
    for i in range(n):
        for j in range(n):
            sign = shift_sign(deg[i] + 1, deg[j] + 1)
            if not vec_eq(nb({i: 1}, {j: 1}), nb({j: 1}, {i: 1}), -sign):
                findings.append(("antisymmetry", "(%s, %s)" % (names[i], names[j])))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                ei, ej, ek = {i: 1}, {j: 1}, {k: 1}
                lhs = nb(ei, nb(ej, ek))
                rhs = nb(nb(ei, ej), ek)
                add_into(rhs, nb(ej, nb(ei, ek)), shift_sign(deg[i] + 1, deg[j] + 1))
                if not vec_eq(lhs, rhs):
                    findings.append(
                        ("jacobi", "(%s, %s, %s)" % (names[i], names[j], names[k]))
                    )
                lhs = nb(ei, data.product.get((j, k), {}))
                rhs = data.mul(nb(ei, ej), ek)
                add_into(rhs, data.mul(ej, nb(ei, ek)), shift_sign(deg[i] + 1, deg[j]))
                if not vec_eq(lhs, rhs):
                    findings.append(
                        ("leibniz", "(%s, %s, %s)" % (names[i], names[j], names[k]))
                    )
    return findings


def dense_structure_errors(data):
    """structure_errors as a sweep over every basis pair and triple."""
    _apply, _vec_eq = stringbr._apply, stringbr._vec_eq
    errors = []
    n = data.dim
    names, deg = data.names, data.degrees
    for (i, j), entry in sorted(data.product.items()):
        for m, c in sorted(entry.items()):
            if c and deg[m] != deg[i] + deg[j]:
                errors.append(
                    "product %s*%s hits %s of wrong degree"
                    % (names[i], names[j], names[m])
                )
    for i in range(n):
        for j in range(n):
            lhs = data.product.get((i, j), {})
            sign = -1 if (deg[i] % 2) and (deg[j] % 2) else 1
            if not _vec_eq(lhs, data.product.get((j, i), {}), sign):
                errors.append(
                    "graded commutativity fails at (%s, %s)" % (names[i], names[j])
                )
    prow, pcol = stringbr._product_tables(data)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = _apply(pcol[k], prow[i].get(j, {}))
                rhs = _apply(prow[i], prow[j].get(k, {}))
                if not _vec_eq(lhs, rhs):
                    errors.append(
                        "associativity fails at (%s, %s, %s)"
                        % (names[i], names[j], names[k])
                    )
    for j, col in sorted(data.delta.items()):
        for r, c in sorted(col.items()):
            if c and deg[r] != deg[j] + 1:
                errors.append("delta(%s) has a degree %d term" % (names[j], deg[r]))
    for j in range(n):
        if not _vec_eq(_apply(data.delta, data.delta.get(j, {})), {}):
            errors.append("delta^2(%s) is nonzero" % names[j])
    return errors


def dense_validate(raw):
    """(errors, findings, bracket_table) of validate_bv as a sweep over
    every basis pair and triple, with the bracket of every pair computed."""
    _apply, _vec_eq = stringbr._apply, stringbr._vec_eq
    try:
        data = stringbr.bv_data_from_dict(raw)
    except (ValueError, KeyError, TypeError) as err:
        return ["unreadable data: %s" % err], [], {}
    errors = dense_structure_errors(data)
    if errors:
        return errors, [], {}
    names, deg, n = data.names, data.degrees, data.dim
    table = {(i, j): data.bracket(i, j) for i in range(n) for j in range(n)}
    brow = [
        {j: add_into({}, table[(i, j)], -1 if deg[i] % 2 else 1) for j in range(n)}
        for i in range(n)
    ]
    bcol = [{i: brow[i][j] for i in range(n)} for j in range(n)]
    prow, pcol = stringbr._product_tables(data)

    def shift_sign(d1, d2):
        return -1 if (d1 % 2) and (d2 % 2) else 1

    findings = []
    for i in range(n):
        for j in range(n):
            sign = shift_sign(deg[i] + 1, deg[j] + 1)
            if not _vec_eq(brow[i][j], brow[j][i], -sign):
                findings.append(("antisymmetry", "(%s, %s)" % (names[i], names[j])))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = _apply(brow[i], brow[j][k])
                rhs = _apply(bcol[k], brow[i][j])
                add_into(rhs, _apply(brow[j], brow[i][k]), shift_sign(deg[i] + 1, deg[j] + 1))
                if not _vec_eq(lhs, rhs):
                    findings.append(
                        ("jacobi", "(%s, %s, %s)" % (names[i], names[j], names[k]))
                    )
                lhs = _apply(brow[i], prow[j].get(k, {}))
                rhs = _apply(pcol[k], brow[i][j])
                add_into(rhs, _apply(prow[j], brow[i][k]), shift_sign(deg[i] + 1, deg[j]))
                if not _vec_eq(lhs, rhs):
                    findings.append(
                        ("leibniz", "(%s, %s, %s)" % (names[i], names[j], names[k]))
                    )
    return [], findings, table


def oracle_gravity(pair, k, l):
    """Generalized Jacobi with m_bar called on the vector head for every
    tuple and every pair i < j."""
    rep = CheckReport("oracle", "", {})
    for tup in itertools.product(range(pair.b_dim), repeat=k + l):
        avec, bvec = tup[:k], tup[k:]
        shifted = [pair.b_degrees[a] + 1 for a in avec]
        lhs = {}
        for i in range(k):
            for j in range(i + 1, k):
                order = [i, j] + [m for m in range(k) if m not in (i, j)]
                sign = koszul_sign(perm_inverse([m + 1 for m in order]), shifted)
                head = stringbr.m_bar(pair, 2, [avec[i], avec[j]])
                rest = [avec[m] for m in order[2:]]
                if k + l - 1 < 2:
                    continue
                term = stringbr.m_bar(pair, k + l - 1, [head] + rest + list(bvec))
                add_into(lhs, term, sign)
        if l == 0:
            rhs = {}
        else:
            rhs = stringbr.m_bar(
                pair, l + 1, [stringbr.m_bar(pair, k, list(avec))] + list(bvec)
            )
        ok = not any(add_into(dict(lhs), rhs, -1).values())
        names = tuple(pair.b_names[a] for a in tup)
        rep.count(ok, None if ok else "args=%r" % (names,))
    return rep


def corrupted_free3():
    """Free presentation on three letters with one operator entry doubled:
    the loader invariants still hold, the Jacobi and Leibniz laws do not."""
    raw = bv_data_to_dict(stringbr.free_bv_presentation(3))
    raw["delta"][4][3] = "2"
    return raw


def presentations():
    out = {name: load(name) for name in sorted(os.listdir(DATA))}
    for k in (1, 2, 3):
        out["free%d" % k] = bv_data_to_dict(stringbr.free_bv_presentation(k))
    out["blocks"] = bv_data_to_dict(stringbr.free_bv_presentation(4, supports=BLOCKS))
    out["free3-corrupted"] = corrupted_free3()
    return out


PRESENTATIONS = presentations()
VALUES = ["1", "-1", "2", "1/2", "-3"]


def corruptions(raw, rng, per_kind=2):
    """Seeded single-entry corruptions of a presentation: a product
    coefficient changed, a delta entry changed, and one extra product
    entry, per_kind of each.  The changed entry is put where its degree is
    right whenever some index allows it, so that many corrupted inputs pass
    the grading checks and reach the law sweeps."""
    deg = [b["degree"] for b in raw["basis"]]
    n = len(deg)

    def pick(target):
        return rng.choice([m for m in range(n) if deg[m] == target] or range(n))

    out = []
    for _ in range(per_kind):
        if raw["product"]:
            r = copy.deepcopy(raw)
            i, j, coeffs = rng.choice(r["product"])
            m = pick(deg[i] + deg[j])
            coeffs[m] = rng.choice([v for v in VALUES if v != coeffs[m]])
            out.append(("product", r))
        r = copy.deepcopy(raw)
        c = rng.randrange(n)
        row = r["delta"][pick(deg[c] + 1)]
        row[c] = rng.choice([v for v in VALUES if v != row[c]])
        out.append(("delta", r))
        r = copy.deepcopy(raw)
        i, j = rng.randrange(n), rng.randrange(n)
        coeffs = ["0"] * n
        coeffs[pick(deg[i] + deg[j])] = rng.choice(VALUES)
        r["product"].append([i, j, coeffs])
        out.append(("extra", r))
    return out


def cases():
    rng = random.Random(12)
    out = dict(PRESENTATIONS)
    for name, raw in sorted(PRESENTATIONS.items()):
        for n, (kind, bad) in enumerate(corruptions(raw, rng)):
            out["%s-%s-%d" % (name, kind, n)] = bad
    return out


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_support_driven_sweeps_match_the_dense_sweeps(name):
    raw = CASES[name]
    val = stringbr.validate_bv(raw)
    assert (val.errors, val.findings, val.bracket_table) == dense_validate(raw)
    if val.accepted:
        assert len(val.bracket_table) == val.data.dim ** 2


def test_the_corruptions_reach_every_outcome():
    outcomes = [dense_validate(raw) for raw in CASES.values()]
    assert any(any("associativity" in e for e in errors) for errors, _, _ in outcomes)
    assert any(not errors and not findings for errors, findings, _ in outcomes)
    # the deviation of graded-commutative data is always antisymmetric, so
    # no accepted input has an antisymmetry finding
    for law in ("jacobi", "leibniz"):
        assert any(law == f[0] for _, findings, _ in outcomes for f in findings), law


def test_associativity_failing_only_on_the_right_is_found():
    # b.b = c and a.c = x, all of degree 0, and a.b = 0: at (a, b, b) the
    # left side (a.b).b is zero and the right side a.(b.b) = x is not
    names, degrees = ("a", "b", "c", "x"), (0, 0, 0, 0)
    product = {(1, 1): {2: 1}, (0, 2): {3: 1}, (2, 0): {3: 1}}
    data = stringbr.BVAlgebraData(names, degrees, product, {})
    want = ["associativity fails at (a, b, b)", "associativity fails at (b, b, a)"]
    assert stringbr.structure_errors(data) == dense_structure_errors(data) == want


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_validate_bv_findings_match_the_oracle(name):
    raw = PRESENTATIONS[name]
    val = stringbr.validate_bv(raw)
    assert val.accepted
    assert val.findings == oracle_findings(raw)


def test_some_input_has_jacobi_and_leibniz_findings():
    # as the earlier validate_bv found them: both laws fail at every
    # ordering of the first three basis elements, and nowhere else
    want = []
    for triple in itertools.permutations(("m0", "m1", "m2")):
        witness = "(%s)" % ", ".join(triple)
        want += [("jacobi", witness), ("leibniz", witness)]
    assert stringbr.validate_bv(corrupted_free3()).findings == want
    assert stringbr.validate_bv(load("bv_two_dim.json")).findings == [("leibniz", "(e, e, e)")]


def suite_pairs():
    free3 = stringbr.pair_from_presentation(stringbr.free_bv_presentation(3))
    blocks = stringbr.pair_from_presentation(stringbr.free_bv_presentation(4, supports=BLOCKS))
    two = stringbr.pair_from_dict(load("bv_two_dim.json"))
    cases = [("free3", free3, kl) for kl in SUITE_FREE3]
    cases += [("blocks", blocks, kl) for kl in SUITE_BLOCKS]
    cases += [("two-dim", two, kl) for kl in [(2, 0), (3, 0), (2, 1), (2, 2), (3, 1)]]
    return cases


SUITE_PAIRS = suite_pairs()


@pytest.mark.parametrize(
    "pair, k, l",
    [(pair, k, l) for _, pair, (k, l) in SUITE_PAIRS],
    ids=["%s-%d-%d" % (name, k, l) for name, _, (k, l) in SUITE_PAIRS],
)
def test_gravity_reports_match_the_oracle(pair, k, l):
    rep = stringbr.verify_gravity_algebra(pair, k, l)
    want = oracle_gravity(pair, k, l)
    assert (rep.total, rep.failures) == (want.total, want.failures)


def augmented_m_bar(real):
    """m_bar_k for k = 2, 3 plus k eps(a_1)...eps(a_k) times the first basis
    element, where eps sums a vector's coordinates.  The extra term is
    multilinear, so a linear expansion over basis tuples must see what the
    oracle's vector arguments see, and it breaks the relation.  Its
    coefficient k makes head coefficients other than +-1, unequal across
    arities."""

    def m_bar(pair, k, args):
        out = real(pair, k, args)
        if k in (2, 3):
            c = 1
            for a in args:
                c *= sum(a.values()) if isinstance(a, dict) else 1
            if c:
                add_into(out, {0: k}, c)
        return out

    return m_bar


# verify_gravity_algebra under augmented_m_bar, counted with the oracle:
# (pair, k, l) -> (total, failures, first witness, last witness)
CORRUPT_COUNTS = {
    ("free3", 3, 0): (216, 216, ("t_m3",) * 3, ("t_m11",) * 3),
    ("free3", 3, 1): (1296, 336, ("t_m3", "t_m10", "t_m10", "t_m3"), ("t_m11",) * 4),
    ("free3", 4, 0): (1296, 1296, ("t_m3",) * 4, ("t_m11",) * 4),
    ("free3", 2, 2): (1296, 0, None, None),
    ("blocks", 3, 0): (2744, 2744, ("t_m0",) * 3, ("t_m15",) * 3),
    ("blocks", 2, 1): (2744, 0, None, None),
}


@pytest.mark.parametrize("name, k, l", sorted(CORRUPT_COUNTS))
def test_gravity_sees_a_corrupt_m_bar_like_the_oracle(monkeypatch, name, k, l):
    pair = {case: pair for case, pair, _ in SUITE_PAIRS}[name]
    monkeypatch.setattr(stringbr, "m_bar", augmented_m_bar(stringbr.m_bar))
    total, nfail, first, last = CORRUPT_COUNTS[(name, k, l)]
    rep = stringbr.verify_gravity_algebra(pair, k, l)
    assert (rep.total, len(rep.failures)) == (total, nfail)
    if nfail:
        assert rep.failures[0] == "args=%r" % (first,)
        assert rep.failures[-1] == "args=%r" % (last,)
    want = oracle_gravity(pair, k, l)
    assert (rep.total, rep.failures) == (want.total, want.failures)


def test_leibniz_failing_only_through_the_product_terms_is_found():
    # Q[x]/(x^3) tensor the exterior algebra on y, |y| = 1, with an operator
    # of degree +1 that is not of second order.  At (x, x, x) the bracket
    # term [x, x.x] is zero, and the product terms [x, x].x and x.[x, x]
    # are not: [x, x] = 3 xy - 3 xxy
    names, degrees = ("1", "x", "xx", "y", "xy", "xxy"), (0, 0, 0, 1, 1, 1)
    table = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (0, 3): 3, (0, 4): 4, (0, 5): 5,
             (1, 1): 2, (1, 3): 4, (1, 4): 5, (2, 3): 5}
    product = {}
    for (i, j), m in table.items():
        product[(i, j)] = product[(j, i)] = {m: 1}
    delta = {0: {4: 1, 5: 2}, 1: {3: -1, 4: 2}, 2: {4: 1, 5: 1}}
    raw = bv_data_to_dict(stringbr.BVAlgebraData(names, degrees, product, delta))
    val = stringbr.validate_bv(raw)
    assert ("leibniz", "(x, x, x)") in val.findings
    assert (val.errors, val.findings, val.bracket_table) == dense_validate(raw)
