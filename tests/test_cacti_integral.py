"""Integer cacti against the Fraction oracle, the integrality of their inner
data, and negative controls that pin the witness text of the batches."""

from fractions import Fraction as Q

from hypothesis import example, given
from hypothesis import strategies as st

import cacti_oracle as oracle
from operadkit import cacti
from operadkit.cacti import (
    PLDiagonal,
    SpinelessCactus,
    cactus_relabel,
    coend_composite,
    compose_i,
    homotopy_diagonal,
    random_cactus,
    rotate,
)

arities = st.integers(1, 5)
seeds = st.integers(0, 10**6)
denominators = st.integers(5, 64)
thetas = st.fractions(min_value=-2, max_value=2, max_denominator=64)


def as_oracle(c):
    return oracle.SpinelessCactus(c.arity, c.arcs)


def pairs(canonical):
    """An oracle canonical form with every Fraction as (num, den)."""
    arity, points = canonical
    return arity, tuple(
        ((t.numerator, t.denominator),
         tuple((v.numerator, v.denominator) for v in vals),
         tuple((s.numerator, s.denominator) for s in slopes))
        for t, vals, slopes in points
    )


def same_diagonal(got, want, theta):
    assert got.arity == want.arity
    assert got.times == want.times
    assert got.values == want.values
    assert got.slopes == want.slopes
    assert got.canonical() == pairs(want.canonical())
    assert got.eval(theta) == want.eval(theta)


# (3, 3, 16) cuts its drawn word (3,3)(1,2)(2,4)(3,7) at 0, so the word stays
# as drawn, first and last arcs of lobe 3 unmerged; (4, 2, 16) cuts
# (3,3)(2,1)(1,1)(2,2)(3,5)(4,2)(3,2) at 7, the boundary before (3,5), so no
# arc is split and the two arcs of lobe 3 across the old basepoint merge.
@given(arities, seeds, denominators)
@example(3, 3, 16)
@example(4, 2, 16)
def test_random_cactus_matches_the_oracle(k, seed, D):
    c = random_cactus(k, seed, D)
    want = oracle.random_cactus(k, seed, D)
    assert c.arity == want.arity
    assert c.arcs == want.arcs


def test_random_cactus_draws_without_rotate(monkeypatch):
    def refuse(c, theta):
        raise AssertionError("random_cactus called rotate")

    monkeypatch.setattr(cacti, "rotate", refuse)
    for k, seed, D in [(1, 0, 5), (2, 7, 8), (3, 3, 16), (4, 2, 16), (5, 11, 64), (8, 4, 97)]:
        assert random_cactus(k, seed, D).arcs == oracle.random_cactus(k, seed, D).arcs


@given(arities, seeds, denominators, thetas)
def test_rotate_matches_the_oracle(k, seed, D, theta):
    c = random_cactus(k, seed, D)
    assert rotate(c, theta).arcs == oracle.rotate(as_oracle(c), theta).arcs


@given(arities, arities, seeds, seeds, denominators, st.data())
def test_compose_matches_the_oracle(k, l, s1, s2, D, data):
    c, d = random_cactus(k, s1, D), random_cactus(l, s2, D)
    c = rotate(c, data.draw(thetas))
    i = data.draw(st.integers(1, k))
    got = compose_i(c, d, i)
    want = oracle.compose_i(as_oracle(c), as_oracle(d), i)
    assert got.arity == want.arity
    assert got.arcs == want.arcs


@given(arities, seeds, denominators, thetas, thetas)
def test_diagonal_matches_the_oracle(k, seed, D, phi, theta):
    c = rotate(random_cactus(k, seed, D), phi)
    same_diagonal(homotopy_diagonal(c), oracle.homotopy_diagonal(as_oracle(c)), theta)


@given(arities, arities, seeds, seeds, denominators, thetas, st.data())
def test_coend_composite_matches_the_oracle(k, l, s1, s2, D, theta, data):
    c, d = random_cactus(k, s1, D), random_cactus(l, s2, D)
    d = rotate(d, data.draw(thetas))
    i = data.draw(st.integers(1, k))
    got = coend_composite(homotopy_diagonal(c), homotopy_diagonal(d), i)
    want = oracle.coend_composite(
        oracle.homotopy_diagonal(as_oracle(c)), oracle.homotopy_diagonal(as_oracle(d)), i
    )
    same_diagonal(got, want, theta)
    # the composite is refined past diag(c o_i d), and equal to it as a map
    assert got == homotopy_diagonal(compose_i(c, d, i))


@st.composite
def pl_loops(draw, arity):
    """Rational time, value and slope data of a PL loop from 0 that winds
    each coordinate once, with slopes of any ratio (so rates above 1)."""
    inner = draw(st.lists(st.fractions(0, 1, max_denominator=12), max_size=3, unique=True))
    times = [Q(0)] + sorted(t for t in inner if 0 < t < 1)
    widths = [b - a for a, b in zip(times, times[1:] + [Q(1)])]
    slopes = []
    for _ in range(arity):
        weights = draw(
            st.lists(st.integers(0, 3), min_size=len(times), max_size=len(times))
            .filter(any)
        )
        total = sum(w * dt for w, dt in zip(weights, widths))
        slopes.append([w / total for w in weights])
    slopes = list(zip(*slopes))
    values, at = [], [Q(0)] * arity
    for row, dt in zip(slopes, widths):
        values.append(tuple(at))
        at = [(a + s * dt) % 1 for a, s in zip(at, row)]
    return times, values, slopes


@given(st.data(), thetas)
def test_coend_composite_of_general_loops_matches_the_oracle(data, theta):
    k, l = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    outer, inner = data.draw(pl_loops(k)), data.draw(pl_loops(l))
    i = data.draw(st.integers(1, k))
    dc, dd = PLDiagonal(k, *outer), PLDiagonal(l, *inner)
    oc, od = oracle.PLDiagonal(k, *outer), oracle.PLDiagonal(l, *inner)
    same_diagonal(dc, oc, theta)
    same_diagonal(coend_composite(dc, dd, i), oracle.coend_composite(oc, od, i), theta)


def test_rational_constructors_round_trip_the_views():
    c = random_cactus(4, 2)
    assert SpinelessCactus(c.arity, c.arcs) == c
    for dg in (
        homotopy_diagonal(c),
        coend_composite(homotopy_diagonal(c), homotopy_diagonal(random_cactus(3, 5)), 2),
    ):
        again = PLDiagonal(dg.arity, dg.times, dg.values, dg.slopes)
        assert again == dg
        assert hash(again) == hash(dg)
        assert (again.times, again.values, again.slopes) == (dg.times, dg.values, dg.slopes)


def assert_integral_cactus(c):
    assert type(c.den) is int and c.den > 0
    assert all(type(lab) is int and type(n) is int for lab, n in c.word)


def assert_integral_diagonal(dg):
    assert type(dg.period) is int
    assert all(type(M) is int for M in dg.moduli)
    assert all(type(t) is int for t in dg.breaks)
    for row in dg.levels + dg.rates:
        assert all(type(x) is int for x in row)


def test_cacti_and_diagonals_stay_integral_inside():
    for n in range(40):
        k, l = 1 + n % 4, 1 + (n // 4) % 3
        c, d = random_cactus(k, n), random_cactus(l, 1000 + n, 48)
        theta = Q(n % 7, 7 + n % 5)
        i = 1 + n % k
        made = [
            c,
            rotate(c, theta),
            compose_i(c, d, i),
            compose_i(rotate(c, theta), d, i),
            cactus_relabel(tuple(range(k, 0, -1)), c),
        ]
        for e in made:
            assert_integral_cactus(e)
        dc, dd = homotopy_diagonal(made[1]), homotopy_diagonal(d)
        for dg in (dc, dd, homotopy_diagonal(made[2]), coend_composite(dc, dd, i)):
            assert_integral_diagonal(dg)


def reversed_inner(orig):
    """compose_i that inserts d with its labels reversed."""

    def compose(c, d, i):
        return orig(c, cactus_relabel(tuple(range(d.arity, 0, -1)), d), i)

    return compose


def rotated_twice(orig):
    """rotate that turns the outer marked point by twice the angle."""

    def turn(c, theta):
        return orig(orig(c, theta), theta)

    return turn


def test_batches_catch_a_composition_that_reverses_labels(monkeypatch):
    monkeypatch.setattr(cacti, "compose_i", reversed_inner(cacti.compose_i))
    rep = cacti.check_associativity_batch(4, 60, seed=3)
    assert (len(rep.failures), rep.total) == (33, 120)
    assert rep.failures[0] == (
        "nested n=0 <cactus 1: (1,1)> "
        "<cactus 3: (2,5/32)(1,1/64)(3,21/64)(1,1/8)(2,3/8)> "
        "<cactus 2: (2,19/64)(1,1/64)(2,11/16)> i=1 j=3"
    )
    rep = cacti.check_coend(4, 60, seed=3)
    assert (len(rep.failures), rep.total) == (44, 61)
    assert rep.failures[0] == (
        "c=<cactus 2: (2,1/32)(1,1/4)(2,23/32)> "
        "d=<cactus 2: (1,27/64)(2,5/16)(1,17/64)> i=1 theta=1/2"
    )


def test_check_coend_builds_each_boundary_composite_once(monkeypatch):
    # every 100th sample also sweeps the breakpoints, from the composite and
    # diagonals its own verdict built: one build per sample, not two
    calls = {"compose_i": 0, "homotopy_diagonal": 0, "coend_composite": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cacti, name, counted(name, getattr(cacti, name)))
    rep = cacti.check_coend(4, 200, 0, 64)
    assert (rep.passed, rep.total) == (True, 202)
    assert calls == {"compose_i": 200, "homotopy_diagonal": 600, "coend_composite": 200}


def test_batches_catch_a_rotation_by_twice_the_angle(monkeypatch):
    # random_cactus does not rotate, so the mutant corrupts only the law
    # under test, and the batteries draw the same cacti as unpatched
    monkeypatch.setattr(cacti, "rotate", rotated_twice(cacti.rotate))
    rep = cacti.check_cocycle(4, 60, seed=3)
    assert (len(rep.failures), rep.total) == (51, 96)
    assert rep.failures[0] == (
        "c=<cactus 2: (1,13/64)(2,3/32)(1,45/64)> theta=19/24 phi=40/61"
    )
    rep = cacti.check_rotation_equivariance(4, 60, seed=3)
    assert (len(rep.failures), rep.total) == (16, 60)
    assert rep.failures[0] == (
        "c=<cactus 2: (2,9/32)(1,43/64)(2,3/64)> "
        "d=<cactus 2: (1,7/32)(2,1/2)(1,9/32)> i=1 theta=2/9"
    )


def test_rotation_action_catches_a_recut_that_mishandles_cut_zero(monkeypatch):
    # rotate(c, 0) is c itself, so only the re-cut at 0 can see this mutant,
    # which re-reads the word from its second arc; rotate never cuts at 0
    real = cacti._recut

    def recut(word, cut):
        return real(word, cut) if cut else [*word[1:], word[0]]

    monkeypatch.setattr(cacti, "_recut", recut)
    rep = cacti.check_rotation_action(4, 60, seed=3)
    assert (len(rep.failures), rep.total) == (41, 62)
    assert rep.failures[0] == "c=<cactus 2: (1,13/64)(2,3/32)(1,45/64)> a=19/24 b=40/61"


def same_map(a, b):
    """a == b, which must agree with the canonical forms both ways round and
    give equal hashes when it holds."""
    equal = a == b
    assert equal == (b == a) == (a.canonical() == b.canonical())
    if equal:
        assert hash(a) == hash(b)
    return equal


def cut_at_midpoints(dg):
    """The same map with every segment cut at its midpoint: other breakpoints
    and moduli, no other slope changes."""
    ends = dg.times[1:] + (Q(1),)
    mids = [(t + e) / 2 for t, e in zip(dg.times, ends)]
    times = [t for pair in zip(dg.times, mids) for t in pair]
    values = [v for row, m in zip(dg.values, mids) for v in (row, dg.eval(m))]
    slopes = [s for s in dg.slopes for _ in range(2)]
    return PLDiagonal(dg.arity, times, values, slopes)


@given(arities, arities, seeds, seeds, st.integers(5, 8), thetas, st.data())
def test_diagonal_equality_agrees_with_the_canonical_form(k, l, s1, s2, D, theta, data):
    c, d = random_cactus(k, s1, D), rotate(random_cactus(l, s2, D), theta)
    i = data.draw(st.integers(1, k))
    dc, dd = homotopy_diagonal(c), homotopy_diagonal(d)
    # equal maps on other moduli and breakpoints
    assert same_map(homotopy_diagonal(compose_i(c, d, i)), coend_composite(dc, dd, i))
    assert same_map(dc, cut_at_midpoints(dc))
    # diagonals of random cacti, equal or not
    same_map(dc, dd)
    same_map(dc, homotopy_diagonal(rotate(c, theta)))
    same_map(cut_at_midpoints(dd), homotopy_diagonal(random_cactus(l, s1, D)))


def canonical_fields(dg):
    """The kept breakpoint times, values and slopes of a canonical form."""
    return tuple(zip(*dg.canonical()[1]))


def test_diagonal_equality_sees_a_single_field_off():
    # near misses of equal maps, each off in one field of the canonical form
    # only, so a comparison that skipped that field would call them equal
    c = SpinelessCactus(4, [(1, Q(1, 4)), (2, Q(1, 8)), (3, Q(1, 4)), (2, Q(1, 8)), (4, Q(1, 4))])
    d = homotopy_diagonal(c)
    # one value at one kept breakpoint off
    values = [list(row) for row in d.values]
    values[2][1] += Q(1, 64)
    value_off = PLDiagonal(4, d.times, values, d.slopes)
    # coordinate 4 makes its turn on the first arc, not the last one: the
    # values at every breakpoint agree, the slopes of two arcs do not
    slopes = [list(row) for row in d.slopes]
    slopes[0][3], slopes[4][3] = slopes[4][3], 0
    slope_off = PLDiagonal(4, d.times, d.values, slopes)
    # two breakpoints moved so that the one coordinate still winds once
    loop_values, loop_slopes = ((0,), (Q(1, 4),), (Q(3, 4),)), ((1,), (2,), (Q(1, 2),))
    loop = PLDiagonal(1, (0, Q(1, 4), Q(1, 2)), loop_values, loop_slopes)
    time_off = PLDiagonal(1, (0, Q(11, 32), Q(9, 16)), loop_values, loop_slopes)
    for a, b, field in [(d, value_off, 1), (d, slope_off, 2), (loop, time_off, 0)]:
        assert not same_map(a, b)
        fa, fb = canonical_fields(a), canonical_fields(b)
        assert [fa[n] == fb[n] for n in range(3)] == [n != field for n in range(3)]
    assert same_map(d, PLDiagonal(4, d.times, d.values, d.slopes))
    assert same_map(loop, cut_at_midpoints(loop))
