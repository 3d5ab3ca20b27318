"""Finite presentations with a circle operator: the data validator, the
derived bracket, transfer pairs, and the family of string operations."""

import json
import os
from fractions import Fraction as Q

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from operadkit.exact import Echelon
from operadkit.stringbr import (
    BVAlgebraData,
    _apply,
    bv_data_from_dict,
    check_m_bar_symmetry,
    check_nested_gravity,
    check_transfer_lie,
    free_bv_presentation,
    m_bar,
    m_bar_table,
    pair_errors,
    pair_from_dict,
    pair_from_presentation,
    structure_errors,
    transfer_lie_check,
    validate_bv,
    verify_gravity_algebra,
)
from samplers import scalars
from stringbr_wire import bv_data_to_dict, pair_to_dict

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "operadkit", "data")


def load(name):
    with open(os.path.join(DATA, name)) as fh:
        return json.load(fh)


def two_dim_raw():
    return load("bv_two_dim.json")


def test_two_dim_example_accepted_with_leibniz_finding():
    val = validate_bv(two_dim_raw())
    assert val.accepted
    assert val.data.dim == 2
    # the derived bracket squares the even generator onto -u
    assert val.bracket_table[(0, 0)] == {1: Q(-1)}
    assert val.findings == [("leibniz", "(e, e, e)")]
    text = val.lines()
    assert text[0] == "ACCEPT dim 2 presentation"
    assert any("[e, e]" in line for line in text)
    assert any("FINDING leibniz" in line for line in text)


def test_two_dim_pair_round_trips():
    pair = pair_from_dict(two_dim_raw())
    again = pair_from_dict(pair_to_dict(pair))
    assert again.b_names == pair.b_names
    assert again.tau == pair.tau
    assert again.p == pair.p
    # m2 of the generator with itself vanishes: p kills the image of tau
    beta = {0: Q(1)}
    assert m_bar(pair, 2, [beta, beta]) == {}
    assert m_bar(pair, 2, [0, 0]) == {}
    assert transfer_lie_check(pair, 0, 0)


def test_delta_zero_family_has_zero_bracket():
    val = validate_bv(load("bv_delta_zero.json"))
    assert val.accepted
    assert not val.findings
    assert all(not v for v in val.bracket_table.values())


def test_validator_rejects_wrong_grading():
    raw = two_dim_raw()
    raw["product"][3] = [1, 1, ["1", "0"]]  # u*u = e breaks the grading
    val = validate_bv(raw)
    assert not val.accepted
    assert any("wrong degree" in e for e in val.errors)
    assert val.lines()[0].startswith("REJECT")


def test_validator_rejects_broken_commutativity():
    raw = {
        "basis": [{"name": "e", "degree": 0}, {"name": "u", "degree": 0}],
        "product": [
            [0, 0, ["1", "0"]],
            [0, 1, ["1", "0"]],  # e*u = e ...
            [1, 0, ["0", "1"]],  # ... while u*e = u
            [1, 1, ["1", "0"]],
        ],
        "delta": [["0", "0"], ["0", "0"]],
    }
    val = validate_bv(raw)
    assert not val.accepted
    assert any("commutativity" in e for e in val.errors)


def test_validator_rejects_broken_associativity():
    # commutative but not associative: e*e = u, mixed products u, u*u = e
    raw = {
        "basis": [{"name": "e", "degree": 0}, {"name": "u", "degree": 0}],
        "product": [
            [0, 0, ["0", "1"]],
            [0, 1, ["0", "1"]],
            [1, 0, ["0", "1"]],
            [1, 1, ["1", "0"]],
        ],
        "delta": [["0", "0"], ["0", "0"]],
    }
    val = validate_bv(raw)
    assert not val.accepted
    assert any("associativity" in e for e in val.errors)


def test_validator_rejects_bad_delta():
    raw = two_dim_raw()
    raw["delta"] = [["0", "1"], ["0", "0"]]  # delta(u) = e drops degree
    val = validate_bv(raw)
    assert not val.accepted
    assert any("degree" in e for e in val.errors)
    square = {
        "basis": [
            {"name": "a", "degree": 0},
            {"name": "b", "degree": 1},
            {"name": "c", "degree": 2},
        ],
        "product": [],
        # delta(a) = b, delta(b) = c: each step degree +1 but delta^2 != 0
        "delta": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]],
    }
    val = validate_bv(square)
    assert not val.accepted
    assert any("delta^2" in e for e in val.errors)


def test_validator_rejects_unreadable_data():
    val = validate_bv({})
    assert not val.accepted
    assert any("unreadable" in e for e in val.errors)
    val = validate_bv({"basis": [["e", 0]], "product": [], "delta": [["0"]]})
    assert not val.accepted
    assert any("unreadable" in e for e in val.errors)
    dup = {
        "basis": [{"name": "e", "degree": 0}, {"name": "e", "degree": 1}],
        "product": [],
        "delta": [["0", "0"], ["0", "0"]],
    }
    val = validate_bv(dup)
    assert not val.accepted


def test_free_presentations_are_clean():
    for k in (2, 3):
        data = free_bv_presentation(k)
        assert structure_errors(data) == []
        # reload through the wire format
        again = bv_data_from_dict(bv_data_to_dict(data))
        assert again.names == data.names
        assert again.product == data.product
        assert again.delta == data.delta


def test_free_presentation_dimensions():
    # one summand per nonempty subset S, each of size |S|!
    import math

    data = free_bv_presentation(3)
    expected = sum(
        math.factorial(r) * math.comb(3, r) for r in (1, 2, 3)
    )
    assert data.dim == expected


def test_supports_family_must_close_under_unions():
    with pytest.raises(ValueError):
        free_bv_presentation(4, supports=[(1, 2), (3, 4)])
    data = free_bv_presentation(4, supports=[(1, 2), (3, 4), (1, 2, 3, 4)])
    assert structure_errors(data) == []


def test_pair_from_presentation_invariants():
    for k in (2, 3):
        pair = pair_from_presentation(free_bv_presentation(k))
        assert pair_errors(pair) == []
        assert structure_errors(pair.A) == []
        for j, col in pair.tau.items():
            for r, c in col.items():
                assert pair.A.degrees[r] == pair.b_degrees[j] + 1


@st.composite
def delta_columns(draw):
    """(n, delta): sparse columns over 0..n-1 of small rationals, so they
    meet non-unit int and Fraction pivots; some are absent, and some are a
    combination of two earlier columns."""
    n = draw(st.integers(1, 5))
    delta = {}
    for j in range(n):
        earlier = list(delta.values())
        if len(earlier) >= 2 and draw(st.booleans()):
            a, b = draw(scalars), draw(scalars)
            col = {r: a * earlier[-1].get(r, 0) + b * earlier[0].get(r, 0) for r in range(n)}
        else:
            col = {r: draw(scalars) for r in range(n)}
        col = {r: v for r, v in col.items() if v}
        if col:
            delta[j] = col
    return n, delta


# a non-unit int pivot; a Fraction pivot whose coefficient is integral only
# after normalising; a dependent image that combines two tags
@example((2, {0: {0: 2, 1: 1}, 1: {0: 4, 1: 2}}))
@example((2, {0: {0: Q(2, 3)}, 1: {0: Q(4, 3)}}))
@example((3, {0: {0: 1}, 1: {1: Q(1, 2)}, 2: {0: -1, 1: 3}}))
@given(delta_columns())
def test_pair_from_presentation_projects_through_tau(case):
    n, delta = case
    names = tuple("e%d" % j for j in range(n))
    pair = pair_from_presentation(BVAlgebraData(names, (0,) * n, {}, delta))
    # B is spanned by the columns whose image leaves the span of the earlier ones
    grows, ech = [], Echelon()
    for j in sorted(delta):
        if ech.add(delta[j]):
            grows.append(j)
    assert pair.b_names == tuple("t_e%d" % j for j in grows)
    assert pair.tau == {m: delta[j] for m, j in enumerate(grows)}
    assert list(pair.p) == sorted(delta)
    for m, j in enumerate(grows):
        assert pair.p[j] == {m: 1}
    for j, coeffs in pair.p.items():
        assert _apply(pair.tau, coeffs) == delta[j]
        assert list(coeffs) == sorted(coeffs) and all(coeffs.values())
        assert all(type(v) is int or v.denominator != 1 for v in coeffs.values())


def test_pair_constructor_rejects_broken_invariants():
    pair = pair_from_presentation(free_bv_presentation(2))
    blob = pair_to_dict(pair)
    bad = json.loads(json.dumps(blob))
    # zero out tau so delta != tau o p
    bad["tau"] = [["0"] * len(row) for row in bad["tau"]]
    with pytest.raises(ValueError):
        pair_from_dict(bad)


def test_m_bar_arity_bound_and_symmetry():
    pair = pair_from_presentation(free_bv_presentation(3))
    with pytest.raises(ValueError, match=r"^k must be at least 2, got 1$"):
        m_bar(pair, 1, [{0: Q(1)}])
    rep = check_m_bar_symmetry(pair, 2)
    assert rep.passed, rep.line()
    rep = check_m_bar_symmetry(pair, 3)
    assert rep.passed, rep.line()


def test_full_subset_family_gives_vanishing_m_bar():
    pair = pair_from_presentation(free_bv_presentation(3))
    assert m_bar_table(pair, 2) == {}


def test_block_family_gives_nonzero_m_bar():
    data = free_bv_presentation(4, supports=[(1, 2), (3, 4), (1, 2, 3, 4)])
    pair = pair_from_presentation(data)
    table = m_bar_table(pair, 2)
    assert table
    rep = check_transfer_lie(pair)
    assert rep.passed, rep.line()


def test_gravity_relations_on_generated_pairs():
    pair3 = pair_from_presentation(free_bv_presentation(3))
    with pytest.raises(ValueError, match=r"^l must be at least 0, got -1$"):
        verify_gravity_algebra(pair3, 2, -1)
    with pytest.raises(ValueError, match=r"^k must be at least 2, got 1$"):
        verify_gravity_algebra(pair3, 1, 0)
    for k, l in [(2, 0), (3, 0), (2, 1)]:
        rep = verify_gravity_algebra(pair3, k, l)
        assert rep.passed, rep.line()
    blocks = pair_from_presentation(
        free_bv_presentation(4, supports=[(1, 2), (3, 4), (1, 2, 3, 4)])
    )
    for k, l in [(2, 1), (3, 0)]:
        rep = verify_gravity_algebra(blocks, k, l)
        assert rep.passed, rep.line()


def test_nested_gravity_is_nonvacuous():
    rep = check_nested_gravity(3, 0)
    assert rep.passed, rep.line()
    assert rep.params["nonzero_terms"] > 0
    rep = check_nested_gravity(3, 1)
    assert rep.passed, rep.line()
    assert rep.params["nonzero_terms"] > 0
    with pytest.raises(ValueError):
        check_nested_gravity(2, 0)


@pytest.mark.parametrize("l", [0, 1])
def test_nested_gravity_with_a_vanishing_delta_fails_as_vacuous(monkeypatch, l):
    # every nested term vanishes, so the relation holds trivially: one
    # failing case that says why, not a pass or an unnamed failure
    from operadkit import bv

    monkeypatch.setattr(bv, "delta_apply", lambda x: x.scale(0))
    rep = check_nested_gravity(3, l)
    assert rep.params["nonzero_terms"] == 0
    assert (rep.total, rep.failures) == (1, ["all nested terms vanished; check is vacuous"])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: check_nested_gravity(3, -1), "l must be at least 0, got -1"),
        (lambda: check_nested_gravity(2, 0), "k must be at least 3, got 2"),
        (lambda: check_nested_gravity(1, 0), "k must be at least 3, got 1"),
        (lambda: free_bv_presentation(0), "k must be at least 1, got 0"),
    ],
    ids=["nested-l-1", "nested-k2", "nested-k1", "free-k0"],
)
def test_refusals_name_the_value(call, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        call()


def test_transfer_lie_on_two_dim_pair():
    pair = pair_from_dict(two_dim_raw())
    rep = check_transfer_lie(pair)
    assert rep.passed, rep.line()


def test_bundled_blocks_file_matches_generator():
    blob = load("bv_free_blocks.json")
    pair = pair_from_dict(blob)
    fresh = pair_from_presentation(
        free_bv_presentation(4, supports=[(1, 2), (3, 4), (1, 2, 3, 4)])
    )
    assert pair.A.names == fresh.A.names
    assert pair.A.product == fresh.A.product
    assert pair.tau == fresh.tau
    assert pair.p == fresh.p
