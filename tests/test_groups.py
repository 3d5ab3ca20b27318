"""Finite group tables and the associated set operads: substitution,
conjugation, fixed points, subgroup and Weyl data, the bundled census."""

import itertools
import math
import random

import pytest

import operadkit.groups as groups
from operadkit.groups import (
    FiniteGroupTable,
    _permutation_group,
    bundled_groups,
    check_conjugation_equivariance,
    check_fixed_points,
    check_group_harness,
    conjugation_act,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    fixed_point_operad,
    group_compose,
    group_from_dict,
    group_operad_instance,
    random_tuple,
    subgroups,
    substitute,
    tom_dieck_summands,
    tuple_relabel,
)


def symmetric(n):
    return _permutation_group("S%d" % n, itertools.permutations(range(n)))


def test_table_constructor_rejects_malformed_input():
    with pytest.raises(ValueError):
        FiniteGroupTable("ragged", [[0, 1], [1]])
    # identity fails
    with pytest.raises(ValueError):
        FiniteGroupTable("bad-id", [[1, 0], [0, 1]])
    # no inverse for element 1
    with pytest.raises(ValueError):
        FiniteGroupTable("no-inv", [[0, 1], [1, 1]])
    # binary operation that is not associative: subtraction mod 3 has a
    # two-sided identity at 0 only on the right, so fails earlier; build an
    # explicit associativity break instead
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    table[1][2], table[1][1] = table[1][1], table[1][2]
    with pytest.raises(ValueError):
        FiniteGroupTable("twisted", table)
    # identity and two-sided inverses hold, but (1 1) 2 = 2 and 1 (1 2) = 0
    with pytest.raises(ValueError, match="associativity fails at"):
        FiniteGroupTable("non-associative", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def test_cyclic_and_dihedral_basics():
    c6 = cyclic(6)
    assert c6.order == 6
    assert c6.is_abelian()
    assert c6.element_order(1) == 6
    assert c6.element_order(2) == 3
    d4 = dihedral(4)
    assert d4.order == 8
    assert not d4.is_abelian()
    assert d4.center() == (0, 2)
    q8 = dicyclic(2)
    assert q8.order == 8
    assert len(q8.center()) == 2
    # every non-central element of Q8 has order 4
    assert all(q8.element_order(g) == 4 for g in range(8) if g not in q8.center())


def test_symmetric_group_composition():
    s3 = symmetric(3)
    assert s3.order == 6
    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    # composition matches function composition p after q
    for p in perms:
        for q in perms:
            pq = tuple(p[q[i]] for i in range(3))
            assert s3.mul(idx[p], idx[q]) == idx[pq]
    assert s3.center() == (0,)


def test_conjugation_spot_example():
    s3 = symmetric(3)
    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    t12, t13, t23 = idx[(1, 0, 2)], idx[(2, 1, 0)], idx[(0, 2, 1)]
    t123 = idx[(1, 2, 0)]
    assert conjugation_act(s3, t123, (t12, t13)) == (t23, t12)


def test_substitution_shapes_and_units():
    g = dihedral(3)
    rng = random.Random(2)
    a = random_tuple(g, 3, rng)
    parts = [random_tuple(g, k, rng) for k in (2, 1, 3)]
    out = substitute(g, a, parts)
    assert len(out) == 6
    # blockwise: block j is a[j] * parts[j]
    assert out[:2] == tuple(g.mul(a[0], x) for x in parts[0])
    ident = (g.identity,) * 3
    assert substitute(g, ident, [(x,) for x in a]) == a
    assert group_compose(g, a, (g.identity,), 2) == a
    with pytest.raises(ValueError):
        group_compose(g, a, (0,), 5)


def test_tuple_relabel_is_an_action():
    from perm_helpers import perm_compose

    t = (3, 1, 4, 1)
    for p in itertools.permutations(range(1, 5)):
        for q in itertools.permutations(range(1, 5)):
            assert tuple_relabel(p, tuple_relabel(q, t)) == tuple_relabel(
                perm_compose(p, q), t
            )


def test_fixed_points_are_center_powers():
    for G, zn in [(cyclic(4), 4), (symmetric(3), 1), (dicyclic(2), 2)]:
        for k in (1, 2, 3):
            assert len(fixed_point_operad(G, k)) == zn**k
    rep = check_fixed_points(dihedral(4), max_arity=3)
    assert rep.passed, rep.line()


def _misplace_first(G, out):
    # entry 0 becomes the first non-central element of G
    out = list(out)
    out[0] = next(x for x in range(G.order) if x not in G.center())
    return tuple(out)


def _misplacing_compose(G, g, h, i, real=groups.group_compose):
    out = real(G, g, h, i)
    return _misplace_first(G, out) if len(h) >= 2 else out


def _misplacing_substitute(G, g, hs, real=groups.substitute):
    out = real(G, g, hs)
    return _misplace_first(G, out) if any(len(h) >= 2 for h in hs) else out


def test_fixed_point_closure_sees_a_broken_substitution(monkeypatch):
    # a composition that misplaces a non-central entry whenever the inserted
    # tuple has two or more entries must fail the closure check; the closure
    # reads group_compose, which maps through the table without substitute
    s3 = symmetric(3)
    assert check_fixed_points(s3).passed
    monkeypatch.setattr(groups, "group_compose", _misplacing_compose)
    rep = check_fixed_points(s3)
    assert not rep.passed
    assert rep.total == 3
    assert "not closed under substitution" in rep.failures[0]


def test_conjugation_equivariance_sees_a_broken_substitution(monkeypatch):
    s3 = symmetric(3)
    monkeypatch.setattr(groups, "substitute", _misplacing_substitute)
    rep = check_conjugation_equivariance(s3, 60, 0)
    assert (rep.total, len(rep.failures)) == (60, 28)


def test_group_harness_sees_a_broken_composition(monkeypatch):
    # the harness binds groups.group_compose when it runs, so a patch
    # reaches every composite it makes
    s3 = symmetric(3)
    assert all(rep.passed for rep in check_group_harness(s3, 0))
    monkeypatch.setattr(groups, "group_compose", _misplacing_compose)
    reps = check_group_harness(s3, 0)
    assert [len(rep.failures) for rep in reps] == [0, 70, 34, 128, 115, 170, 33]
    assert [rep.total for rep in reps] == [20, 100, 60, 180, 180, 360, 180]


def _random_tuple_by_genexpr(G, k, rng):
    # oracle: one randrange call per entry, in a generator expression
    return tuple(rng.randrange(G.order) for _ in range(k))


def test_random_tuple_makes_the_draws_of_the_genexpr_oracle():
    # one bundled group of each order: the draws read only G.order
    for G in {G.order: G for G in bundled_groups().values()}.values():
        for seed in (0, 1, 2):
            new, old = random.Random(seed), random.Random(seed)
            for k in range(6):
                assert random_tuple(G, k, new) == _random_tuple_by_genexpr(G, k, old)
                assert new.getstate() == old.getstate(), (G.name, seed, k)


def _center_by_mul(G):
    # oracle: z is central when z g = g z through mul for every g
    return tuple(
        z for z in range(G.order) if all(G.mul(z, g) == G.mul(g, z) for g in range(G.order))
    )


def test_center_matches_the_mul_oracle():
    lib = bundled_groups()
    assert len(lib) == 43
    for G in lib.values():
        assert G.center() == _center_by_mul(G), G.name


def identity_block_compose(G, g, h, i):
    """Partial composition as blockwise substitution with the one-entry
    identity block in every slot but i, multiplying through ``G.mul``."""
    hs = [(G.identity,)] * len(g)
    hs[i - 1] = h
    out = []
    for gj, block in zip(g, hs):
        out.extend(G.mul(gj, x) for x in block)
    return tuple(out)


@pytest.mark.parametrize(
    "name", sorted(n for n, G in bundled_groups().items() if G.order <= 8)
)
def test_group_compose_matches_identity_block_substitution(name):
    # every composite of arity at most 3: g of arity k, h of arity at most 4 - k
    G = bundled_groups()[name]
    els = range(G.order)
    for k in (1, 2, 3):
        for g in itertools.product(els, repeat=k):
            for r in range(1, 5 - k):
                for h in itertools.product(els, repeat=r):
                    for i in range(1, k + 1):
                        assert group_compose(G, g, h, i) == identity_block_compose(G, g, h, i)


def test_tom_dieck_small_tables():
    c2 = cyclic(2)
    recs = tom_dieck_summands(c2)
    assert [(r.elements, r.centralizer, r.weyl_order) for r in recs] == [
        ((0,), (0, 1), 2),
        ((0, 1), (0, 1), 1),
    ]
    assert all(r.is_representative for r in recs)
    s3 = symmetric(3)
    recs = tom_dieck_summands(s3)
    assert len(recs) == 6
    reps = [r for r in recs if r.is_representative]
    table = sorted((len(r.elements), len(r.centralizer), r.weyl_order) for r in reps)
    assert table == [(1, 6, 6), (2, 2, 1), (3, 3, 2), (6, 1, 1)]


def test_tom_dieck_respects_order_bound():
    assert groups.TOM_DIECK_MAX_ORDER == 64
    with pytest.raises(ValueError, match="^group order 65 exceeds bound 64$"):
        tom_dieck_summands(cyclic(65))
    assert len(tom_dieck_summands(cyclic(64))) == 7


def test_subgroup_counts_match_references():
    assert len(subgroups(cyclic(16))) == 5
    assert len(subgroups(direct_product(cyclic(2), direct_product(cyclic(2), direct_product(cyclic(2), cyclic(2)))))) == 67
    assert len(subgroups(dihedral(8))) == 19
    assert len(subgroups(symmetric(4))) == 30
    recs = tom_dieck_summands(symmetric(4))
    assert sum(1 for r in recs if r.is_representative) == 11


def test_bundled_census_loads_and_is_separated():
    groups = bundled_groups()
    by_order = {}
    for g in groups.values():
        by_order[g.order] = by_order.get(g.order, 0) + 1
    assert by_order[16] == 14
    assert by_order[8] == 5
    assert by_order[12] == 5
    assert sum(1 for g in groups.values() if g.order <= 16) == 42
    assert "S4" in groups and groups["S4"].order == 24
    # names match tables
    for name, g in groups.items():
        assert g.name == name


def test_weyl_orders_count_conjugates():
    # |N(H)| = |W(H)| |H| divides |G|, and the class of H has |G|/|N(H)|
    # members, so summing over representatives recovers the subgroup count
    for G in (symmetric(3), dihedral(4), symmetric(4)):
        recs = tom_dieck_summands(G)
        total = 0
        for r in recs:
            normalizer = r.weyl_order * len(r.elements)
            assert G.order % normalizer == 0
            if r.is_representative:
                total += G.order // normalizer
        assert total == len(recs)


def test_harness_and_equivariance_checks():
    for name in ("C6", "S3", "Q8"):
        G = bundled_groups()[name]
        for rep in check_group_harness(G, seed=1):
            assert rep.passed, rep.line()
        rep = check_conjugation_equivariance(G, samples=60, seed=1)
        assert rep.passed, rep.line()
        assert rep.total >= 60


def test_operad_instance_unit():
    G = cyclic(3)
    op = group_operad_instance(G)
    assert op.unit == (G.identity,)
    assert op.arity((0, 1, 2)) == 3


def group_to_dict(G):
    return {"order": G.order, "table": [list(r) for r in G.table],
            "identity": G.identity}


def test_json_round_trip():
    g = dihedral(4)
    blob = group_to_dict(g)
    h = group_from_dict(blob, name="D4-again")
    assert h.order == g.order
    assert h.table == g.table
    assert h.center() == g.center()


def _conjugation_fixed_by_all_elements(G, k):
    # oracle: conjugate by every element through plain mul and inv, with no
    # conjugation table and no generators
    def conj(g, x):
        return G.mul(G.mul(g, x), G.inv(g))

    return [
        t
        for t in itertools.product(range(G.order), repeat=k)
        if all(tuple(conj(g, x) for x in t) == t for g in range(G.order))
    ]


def test_generators_generate_every_bundled_group():
    for G in bundled_groups().values():
        assert groups._closure(G, G.generators) == frozenset(range(G.order)), G.name


def _c4_rtimes_c4_by_hand():
    # oracle: the hand-written C4:C4 the census bundled before it was built
    # as cyclic_semidirect(4, 4, 3); (i, j) -> 4*i + j stands for a^i b^j
    def mul(x, y):
        i, j = divmod(x, 4)
        i2, j2 = divmod(y, 4)
        return 4 * ((i + (i2 if j % 2 == 0 else -i2)) % 4) + (j + j2) % 4

    return FiniteGroupTable("C4:C4", [[mul(a, b) for b in range(16)] for a in range(16)])


def test_c4_rtimes_c4_is_its_presentation():
    # <a, b | a^4 = b^4 = 1, b a b^-1 = a^-1> has order 16, so relations
    # that hold in a 16-element group the two elements generate pin it
    G = bundled_groups()["C4:C4"]
    old = _c4_rtimes_c4_by_hand()
    assert (G.table, G.identity, G.generators) == (old.table, old.identity, old.generators)
    a, b = 4, 1
    assert G.order == 16 and G.element_order(a) == 4 and G.element_order(b) == 4
    assert G.mul(G.mul(b, a), G.inv(b)) == G.inv(a)
    assert groups._closure(G, (a, b)) == frozenset(range(16))
    assert not G.is_abelian()


def test_conjugation_table_matches_mul_and_inv():
    for G in bundled_groups().values():
        for g in range(G.order):
            for x in range(G.order):
                assert G._conj[g][x] == G.mul(G.mul(g, x), G.inv(g))


def test_generator_fixed_tuples_match_the_all_elements_oracle():
    for G in bundled_groups().values():
        arities = (1, 2, 3) if G.order <= 16 else (1, 2)
        for k in arities:
            assert groups._conjugation_fixed(G, k) == _conjugation_fixed_by_all_elements(
                G, k
            ), (G.name, k)


def test_fixed_points_fail_with_too_few_generators():
    # S3 is not generated by one element, and one transposition or 3-cycle
    # fixes more than the center
    s3 = symmetric(3)
    s3.generators = s3.generators[:1]
    rep = check_fixed_points(s3)
    assert rep.total == 3
    assert len(rep.failures) == 3, rep.line()
    assert all("differ from the center" in w for w in rep.failures)


def _conjugation_fixed_per_tuple(G, k):
    # oracle: the per-tuple filter the row-product scan replaced, one
    # conjugation_act call per tuple and generator
    return [
        t
        for t in itertools.product(range(G.order), repeat=k)
        if all(conjugation_act(G, g, t) == t for g in G.generators)
    ]


@pytest.mark.parametrize("name", sorted(bundled_groups()))
def test_row_product_scan_matches_the_per_tuple_filter(name):
    G = bundled_groups()[name]
    for k in (1, 2, 3) if G.order <= 16 else (1, 2):
        assert groups._conjugation_fixed(G, k) == _conjugation_fixed_per_tuple(G, k), k


@pytest.mark.parametrize("name", ["C4", "C2xC2", "S3", "D4", "Q8", "A4"])
def test_fixed_points_fail_with_a_corrupted_conjugation_row(name):
    # negative control: the scan must read the conjugation table, so a
    # corrupted row of one generator moves the fixed set off Z(G)^k
    G = bundled_groups()[name]
    s = G.generators[-1]
    ident = tuple(range(G.order))
    # a non-central s gets the identity map, which fixes more tuples; a
    # central s gets a cyclic shift, which fixes none
    row = ident if G._conj[s] != ident else ident[1:] + ident[:1]
    G._conj = G._conj[:s] + (row,) + G._conj[s + 1 :]
    rep = check_fixed_points(G)
    assert rep.total == 3
    assert len(rep.failures) == 3, rep.line()
    assert all("differ from the center" in w for w in rep.failures)
