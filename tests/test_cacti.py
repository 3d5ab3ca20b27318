"""Arc-word cacti: validation, rotation, composition, the pinching-loop
diagonal and its cocycle, coEnd, and equivariance certificates."""

import itertools
import re
import time
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cacti_oracle
from operadkit import cacti
from operadkit.cacti import (
    PLDiagonal,
    SpinelessCactus,
    cacti_operad_instance,
    cactus_from_dict,
    cactus_relabel,
    cactus_to_dict,
    check_associativity_batch,
    check_cocycle,
    check_coend,
    check_rotation_action,
    check_rotation_equivariance,
    check_winding,
    circle_point,
    coend_composite,
    compose_i,
    homotopy_diagonal,
    random_cactus,
    rotate,
    validate,
    verify_cocycle,
    verify_coend,
    verify_equivariance,
)


def lobe_lengths(c):
    return {lab: Q(n, c.den) for lab, n in cacti._lobe_units(c).items()}


def two_lobes():
    return SpinelessCactus(2, [(1, Q(1, 2)), (2, 1), (1, Q(1, 2))])


small_rationals = st.fractions(min_value=0, max_value=1, max_denominator=32)


def test_constructor_merges_adjacent_arcs():
    c = SpinelessCactus(2, [(1, Q(1, 4)), (1, Q(1, 4)), (2, 1), (1, Q(1, 2))])
    assert c.arcs == ((1, Q(1, 2)), (2, 1), (1, Q(1, 2)))
    assert c.perimeter == 2
    assert lobe_lengths(c) == {1: 1, 2: 1}
    assert c.lobe_length(2) == 1


def test_validate_flags_each_defect():
    # the constructor refuses what validate finds
    assert validate(two_lobes()) == []
    with pytest.raises(ValueError, match="^label 2 missing$"):
        SpinelessCactus(2, [(1, 1)])
    with pytest.raises(ValueError, match="nonpositive"):
        SpinelessCactus(1, [(1, 0)])
    with pytest.raises(ValueError, match="outside"):
        SpinelessCactus(1, [(2, 1)])
    with pytest.raises(ValueError, match="^labels 1 and 2 interleave$"):
        SpinelessCactus(2, [(1, 1), (2, 1), (1, 1), (2, 1)])
    for k in (0, -1):
        with pytest.raises(ValueError, match="^arity must be at least 1, got %d$" % k):
            SpinelessCactus(k, [(1, 1)])
        with pytest.raises(ValueError, match="^arity must be at least 1, got %d$" % k):
            random_cactus(k, 5)


def test_validate_names_three_missing_labels_and_counts_the_rest():
    with pytest.raises(ValueError, match="^label 2 missing; label 3 missing$"):
        SpinelessCactus(3, [(1, 1)])
    with pytest.raises(ValueError) as err:
        SpinelessCactus(6, [(5, 1), (2, 1)])
    assert str(err.value) == (
        "label 1 missing; label 3 missing; label 4 missing; and 1 more labels missing"
    )
    # found without a pass over 1..arity, so a huge arity is refused at once
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        SpinelessCactus(10**9, [(1, 1)])
    assert time.perf_counter() - start < 1
    assert str(err.value) == (
        "label 2 missing; label 3 missing; label 4 missing; and 999999996 more labels missing"
    )
    assert len(str(err.value)) < 200


def _reads_abab(word, pair):
    # the pair interleaves: a, b, a, b is a subsequence of some rotation
    a, b = pair

    def has(w):
        it = iter(w)
        return all(x in it for x in (a, b, a, b))

    return a != b and any(has(word[r:] + word[:r]) for r in range(len(word)))


def _pre_check_agrees(word):
    # the stack scan's verdict is the recursive search's, and any pair it
    # names really interleaves (it may name a different pair)
    pair = cacti._crossing_pair(word)
    if (pair is None) != (cacti_oracle._interleaving_witness(list(word)) is None):
        return False
    return pair is None or _reads_abab(word, pair)


def test_noncrossing_pre_check_agrees_with_the_witness_search():
    # every label word of length at most 8 over 4 labels, valid or not
    verdicts = {True: 0, False: 0}
    for n in range(9):
        for word in itertools.product(range(1, 5), repeat=n):
            assert _pre_check_agrees(word), word
            verdicts[cacti._crossing_pair(word) is None] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


@given(st.lists(st.integers(1, 6), max_size=30))
def test_noncrossing_pre_check_agrees_on_drawn_words(word):
    assert _pre_check_agrees(word)


def test_rotation_values_and_group_law():
    c = two_lobes()
    assert rotate(c, 0) == c
    assert rotate(c, 1) == c
    assert rotate(c, Q(1, 4)) == SpinelessCactus(2, [(2, 1), (1, 1)])
    assert rotate(c, Q(1, 2)) == SpinelessCactus(2, [(2, Q(1, 2)), (1, 1), (2, Q(1, 2))])


@given(small_rationals, small_rationals, st.integers(0, 10**6))
def test_rotation_is_a_circle_action(a, b, seed):
    c = random_cactus(3, seed)
    assert rotate(rotate(c, a), b) == rotate(c, circle_point(a + b))


def test_compose_scales_inner_perimeter():
    c2 = SpinelessCactus(2, [(1, 1), (2, 1)])
    got = compose_i(c2, c2, 1)
    assert got == SpinelessCactus(3, [(1, Q(1, 2)), (2, Q(1, 2)), (3, 1)])
    unit = SpinelessCactus(1, [(1, 1)])
    # the right unit law is exact; the left one rescales to perimeter 1
    assert compose_i(two_lobes(), unit, 2) == two_lobes()
    half = SpinelessCactus(2, [(1, Q(1, 4)), (2, Q(1, 2)), (1, Q(1, 4))])
    assert compose_i(unit, two_lobes(), 1) == half
    norm = SpinelessCactus(2, [(1, Q(1, 4)), (2, Q(1, 2)), (1, Q(1, 4))])
    assert compose_i(unit, norm, 1) == norm


def test_compose_rejects_bad_slot():
    with pytest.raises((ValueError, IndexError, KeyError)):
        compose_i(two_lobes(), two_lobes(), 3)


def test_relabel_is_an_action():
    c = compose_i(SpinelessCactus(2, [(1, 1), (2, 1)]), two_lobes(), 2)
    p, q = (2, 3, 1), (3, 1, 2)
    from perm_helpers import perm_compose

    assert cactus_relabel(p, cactus_relabel(q, c)) == cactus_relabel(perm_compose(p, q), c)
    assert cactus_relabel((1, 2, 3), c) == c


@pytest.mark.parametrize("perm", [(1, 1), (2, 3)])
def test_relabel_rejects_a_non_permutation(perm):
    with pytest.raises(ValueError, match=re.escape("%r is not a permutation of 1..2" % (perm,))):
        cactus_relabel(perm, random_cactus(2, 0))


@settings(derandomize=True, max_examples=60)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6), small_rationals, st.data())
def test_operations_keep_cacti_valid(k, l, seed, theta, data):
    # the operations build their results unchecked; this certifies them
    c, d = random_cactus(k, seed), random_cactus(l, seed + 1)
    perm = tuple(data.draw(st.permutations(range(1, k + 1))))
    assert validate(rotate(c, theta)) == []
    assert validate(cactus_relabel(perm, c)) == []
    for i in range(1, k + 1):
        assert validate(compose_i(c, d, i)) == []


def test_diagonal_hand_values():
    d = homotopy_diagonal(two_lobes())
    assert d.times == (Q(0), Q(1, 4), Q(3, 4))
    assert d.values == ((Q(0), Q(0)), (Q(1, 2), Q(0)), (Q(1, 2), Q(0)))
    assert d.slopes == ((Q(2), Q(0)), (Q(0), Q(2)), (Q(2), Q(0)))
    # the loop starts and ends at the basepoint and hits the half-way point
    assert d.eval(0) == (Q(0), Q(0))
    assert d.eval(Q(1, 2)) == (Q(1, 2), Q(1, 2))
    assert d.eval(Q(7, 8)) == (Q(3, 4), Q(0))


def test_diagonal_equality_is_canonical():
    d = homotopy_diagonal(two_lobes())
    # re-cutting a segment at a non-slope-change time gives the same map
    split = PLDiagonal(
        2,
        (Q(0), Q(1, 8), Q(1, 4), Q(3, 4)),
        (d.eval(0), d.eval(Q(1, 8)), d.eval(Q(1, 4)), d.eval(Q(3, 4))),
        (d.slopes[0], d.slopes[0], d.slopes[1], d.slopes[2]),
    )
    assert split == d
    assert hash(split) == hash(d)


def test_diagonal_rejects_wrong_winding():
    with pytest.raises(ValueError):
        PLDiagonal(1, (Q(0),), ((Q(0),),), ((Q(2),),))


def test_cocycle_coend_equivariance_spot_cases():
    c = two_lobes()
    d = SpinelessCactus(2, [(1, Q(1, 3)), (2, Q(1, 2)), (1, Q(2, 3))])
    for theta in (Q(0), Q(1, 8), Q(3, 7), Q(5, 6)):
        assert verify_cocycle(c, theta, Q(1, 5))
        assert verify_equivariance(c, d, 1, theta)
        assert verify_equivariance(c, d, 2, theta)
        assert verify_coend(c, d, 1, theta)
        assert verify_coend(c, d, 2, theta)
    comp = coend_composite(homotopy_diagonal(c), homotopy_diagonal(d), 1)
    assert comp == homotopy_diagonal(compose_i(c, d, 1))


def test_random_cactus_is_valid_and_deterministic():
    for k in (1, 2, 3, 4, 5):
        for seed in range(12):
            c = random_cactus(k, seed)
            assert c.arity == k
            assert validate(c) == []
            assert c == random_cactus(k, seed)
            assert c.perimeter == 1
    # lengths live on the 1/D grid
    c = random_cactus(4, 7, max_denominator=8)
    assert all(8 % ln.denominator == 0 for _, ln in c.arcs)


def test_random_cactus_refuses_a_grid_coarser_than_its_arity(monkeypatch):
    # the batteries' text, and no generator is seeded before the refusal
    message = "^max denominator must be at least 3, got 2$"
    with pytest.raises(ValueError, match=message):
        check_cocycle(3, 1, 0, 2)
    monkeypatch.setattr(cacti.random, "Random", None)
    with pytest.raises(ValueError, match=message):
        random_cactus(3, 5, 2)


def test_batched_checks_pass():
    for check in (
        check_cocycle,
        check_rotation_equivariance,
        check_coend,
        check_rotation_action,
        check_winding,
        check_associativity_batch,
    ):
        rep = check(4, 60, seed=3)
        assert rep.passed, rep.line()
        assert rep.total >= 60


def test_operad_instance_units():
    op = cacti_operad_instance()
    assert op.unit == SpinelessCactus(1, [(1, 1)])
    assert op.degree is None


def test_json_round_trip():
    for k in (1, 3, 5):
        c = random_cactus(k, 11)
        d = cactus_from_dict(cactus_to_dict(c))
        assert d == c
    blob = cactus_to_dict(two_lobes())
    assert blob["arity"] == 2
    assert all(isinstance(ln, str) for _, ln in blob["arcs"])
