"""Finite group operads: tuples with blockwise left translation.

For a finite group G the arity-k component is the set G^k.  Substitution
multiplies each entry of the inserted tuple on the left by the entry it
replaces, G acts by diagonal conjugation, and the conjugation-fixed tuples
are exactly Z(G)^k, which is again closed under substitution (the center
operad).  The tom Dieck index data attached to G is the list of subgroups
grouped into conjugacy classes, each carrying its centralizer C(H) and the
Weyl group order |N(H)/H|.

Group tables are verified against the group axioms at construction; only
then are a conjugation table g x g^-1 (read by ``conj``) and a greedy
generating set built from the verified multiplication table.  The fixed
tuples are found by testing each tuple against the generators alone.  A
bundled library provides every group of order at most 16 (42 tables built
from cyclic, dihedral, dicyclic and symmetric blocks, direct and semidirect
products, and the central product C4 o D4) plus S4; the order-16 census is
sanity-checked by pairwise separation of elementary invariants.
"""

from __future__ import annotations

import itertools
import random

from .exact import koszul_sign
from .operads import CheckReport, OperadInstance, require_at_least


class FiniteGroupTable:
    """Multiplication table with verified group axioms.

    Once the axioms hold, two derived tables are built: ``_conj[g][x]`` is
    g x g^-1, read by ``conj`` and ``conjugation_act``, and ``generators``
    is a greedy generating set (each element not yet in the subgroup
    generated by the earlier ones is added)."""

    __slots__ = ("name", "order", "table", "identity", "_inv", "_conj", "generators")

    def __init__(self, name, table, identity=0):
        if not isinstance(table, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in table
        ):
            raise ValueError("table must be a list of rows")
        self.name = name
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.identity = identity
        n = self.order
        if n < 1:
            raise ValueError("group order must be at least 1, got %d" % n)
        if any(len(row) != n for row in self.table):
            raise ValueError("table is not square")
        for what, x in [("identity", identity)] + [
            ("table entry", x) for row in self.table for x in row
        ]:
            if not (isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n):
                raise ValueError("%s must be an int in 0..%d, got %r" % (what, n - 1, x))
        e = identity
        if any(self.table[e][a] != a or self.table[a][e] != a for a in range(n)):
            raise ValueError("identity row or column fails")
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == e:
                    inv[a] = b
            if inv[a] is None or self.table[inv[a]][a] != e:
                raise ValueError("element %d has no two-sided inverse" % a)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if (
                        self.table[self.table[a][b]][c]
                        != self.table[a][self.table[b][c]]
                    ):
                        raise ValueError(
                            "associativity fails at (%d, %d, %d)" % (a, b, c)
                        )
        self._inv = tuple(inv)
        t = self.table
        self._conj = tuple(
            tuple(t[t[g][x]][inv[g]] for x in range(n)) for g in range(n)
        )
        gens, span = [], _closure(self, ())
        for a in range(n):
            if a not in span:
                gens.append(a)
                span = _closure(self, gens)
        self.generators = tuple(gens)

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def conj(self, g, x):
        return self._conj[g][x]

    def element_order(self, a):
        n, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            n += 1
        return n

    def center(self):
        return tuple(
            z
            for z in range(self.order)
            if all(self.mul(z, g) == self.mul(g, z) for g in range(self.order))
        )

    def is_abelian(self):
        return len(self.center()) == self.order

    def __repr__(self):
        return "<group %s order %d>" % (self.name, self.order)


# ---------------------------------------------------------------------------
# the operad structure


def substitute(G, g, hs):
    """Blockwise left translation: block j of the output is g_j times the
    entries of hs[j]."""
    if len(hs) != len(g):
        raise ValueError("need one inserted tuple per slot")
    out = []
    for gj, h in zip(g, hs):
        out.extend(G.mul(gj, x) for x in h)
    return tuple(out)


def group_compose(G, g, h, i):
    """Partial composition: insert h at slot i, identity elsewhere."""
    k = len(g)
    if not 1 <= i <= k:
        raise ValueError("slot %d out of range 1..%d" % (i, k))
    hs = [(G.identity,)] * k
    hs[i - 1] = h
    return substitute(G, g, hs)


def conjugation_act(G, g, t):
    """Diagonal conjugation on every entry, read from row g of the
    conjugation table."""
    row = G._conj[g]
    return tuple(row[x] for x in t)


def tuple_relabel(perm, t):
    """Symmetric action: slot j becomes perm(j)."""
    out = [None] * len(t)
    for j, x in enumerate(t):
        out[perm[j] - 1] = x
    return tuple(out)


def _conjugation_fixed(G, k):
    return [
        t
        for t in itertools.product(range(G.order), repeat=k)
        if all(conjugation_act(G, g, t) == t for g in G.generators)
    ]


def fixed_point_operad(G, k):
    """Conjugation-fixed tuples; verified to be Z(G)^k, and closed under
    composition with the fixed pairs at every slot (first 8 of each).

    A tuple is tested against ``G.generators`` only: conjugation by a
    product is the composite of the conjugations, so the tuples fixed by a
    generating set are those fixed by G.  The comparison set Z(G)^k comes
    from ``G.center()``, which reads ``mul`` and not the conjugation table."""
    require_at_least("arity", k, 1)
    fixed = _conjugation_fixed(G, k)
    center = G.center()
    expected = sorted(itertools.product(center, repeat=k))
    if sorted(fixed) != expected:
        raise AssertionError("fixed tuples differ from the center tuples")
    pairs = fixed if k == 2 else _conjugation_fixed(G, 2)
    for g in fixed[:8]:
        for h in pairs[:8]:
            for i in range(1, k + 1):
                if any(x not in center for x in group_compose(G, g, h, i)):
                    raise AssertionError("fixed tuples are not closed under substitution")
    return fixed


def group_operad_instance(G):
    return OperadInstance(
        name="group-%s" % G.name,
        arity=lambda t: len(t),
        compose=lambda x, y, i: group_compose(G, x, y, i),
        act=tuple_relabel,
        unit=(G.identity,),
    )


def random_tuple(G, k, rng):
    return tuple(rng.randrange(G.order) for _ in range(k))


# ---------------------------------------------------------------------------
# subgroup lattice and tom Dieck index data


def _closure(G, seed):
    elems = {G.identity} | set(seed)
    frontier = list(elems)
    while frontier:
        nxt = []
        for a in list(elems):
            for b in frontier:
                for c in (G.mul(a, b), G.mul(b, a)):
                    if c not in elems:
                        elems.add(c)
                        nxt.append(c)
        frontier = nxt
    return frozenset(elems)


def subgroups(G):
    """All subgroups, by closure of generated subsets with pruning;
    deterministic order by (size, sorted elements)."""
    found = {_closure(G, ())}
    frontier = list(found)
    while frontier:
        fresh = []
        for H in frontier:
            for g in range(G.order):
                if g in H:
                    continue
                K = _closure(G, tuple(H) + (g,))
                if K not in found:
                    found.add(K)
                    fresh.append(K)
        frontier = fresh
    return sorted(found, key=lambda H: (len(H), sorted(H)))


class SubgroupRecord:
    """One subgroup with its conjugacy-class flag, centralizer and Weyl
    group order."""

    __slots__ = ("elements", "is_representative", "centralizer", "weyl_order")

    def __init__(self, elements, is_representative, centralizer, weyl_order):
        self.elements = tuple(sorted(elements))
        self.is_representative = is_representative
        self.centralizer = tuple(sorted(centralizer))
        self.weyl_order = weyl_order

    def __repr__(self):
        return "<H=%s rep=%s C=%s |W|=%d>" % (
            list(self.elements),
            self.is_representative,
            list(self.centralizer),
            self.weyl_order,
        )


def tom_dieck_summands(G, max_order=64):
    """Subgroups grouped into conjugacy classes with centralizer and Weyl
    data; index data only."""
    if G.order > max_order:
        raise ValueError("group order %d exceeds bound %d" % (G.order, max_order))
    subs = subgroups(G)
    seen = set()
    records = []
    for H in subs:
        orbit = {frozenset(G.conj(g, x) for x in H) for g in range(G.order)}
        rep = H not in seen
        seen.update(orbit)
        cent = [
            g
            for g in range(G.order)
            if all(G.mul(g, h) == G.mul(h, g) for h in H)
        ]
        norm = sum(1 for g in range(G.order) if frozenset(G.conj(g, x) for x in H) == H)
        records.append(SubgroupRecord(H, rep, cent, norm // len(H)))
    return records


# ---------------------------------------------------------------------------
# table constructors


def cyclic(n, name=None):
    return FiniteGroupTable(
        name or "C%d" % n, [[(a + b) % n for b in range(n)] for a in range(n)]
    )


def dihedral(n, name=None):
    """Order 2n: (i, 0) rotations, (i, 1) reflections; index i + n*f."""
    def mul(a, b):
        i, f = a % n, a // n
        j, g = b % n, b // n
        return ((i + j) % n if not f else (i - j) % n) + n * (f ^ g)

    order = 2 * n
    return FiniteGroupTable(
        name or "D%d" % n, [[mul(a, b) for b in range(order)] for a in range(order)]
    )


def dicyclic(n, name=None):
    """Order 4n: <a, b | a^(2n) = 1, b^2 = a^n, b a b^-1 = a^-1>; element
    a^i b^f has index i + 2n*f."""
    m = 2 * n

    def mul(x, y):
        i, f = x % m, x // m
        j, g = y % m, y // m
        # (a^i b^f)(a^j b^g): move b^f past a^j, then b^2 = a^n if f = g = 1
        jj = j if not f else (-j) % m
        i2 = (i + jj + (n if f and g else 0)) % m
        return i2 + m * (f ^ g)

    order = 4 * n
    return FiniteGroupTable(
        name or "Dic%d" % n, [[mul(a, b) for b in range(order)] for a in range(order)]
    )


def symmetric(n, name=None):
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms
    ]
    return FiniteGroupTable(name or "S%d" % n, table, identity=index[tuple(range(n))])


def direct_product(G, H, name=None):
    n, m = G.order, H.order

    def mul(a, b):
        return (G.mul(a // m, b // m)) * m + H.mul(a % m, b % m)

    return FiniteGroupTable(
        name or "%sx%s" % (G.name, H.name),
        [[mul(a, b) for b in range(n * m)] for a in range(n * m)],
        identity=G.identity * m + H.identity,
    )


def cyclic_semidirect(n, m, s, name):
    """C_n x| C_m with the generator of C_m acting by r -> r^s; element
    (i, j) has index i*m + j.  Requires s^m = 1 mod n."""
    if pow(s, m, n) != 1 % n:
        raise ValueError("s does not define an order-m action")

    def mul(a, b):
        i, j = divmod(a, m)
        i2, j2 = divmod(b, m)
        return ((i + i2 * pow(s, j, n)) % n) * m + (j + j2) % m

    return FiniteGroupTable(name, [[mul(a, b) for b in range(n * m)] for a in range(n * m)])


def c4_rtimes_c4(name="C4:C4"):
    """<a, b | a^4 = b^4 = 1, b a b^-1 = a^-1>; (i, j) -> 4*i + j."""
    def mul(x, y):
        i, j = divmod(x, 4)
        i2, j2 = divmod(y, 4)
        return 4 * ((i + (i2 if j % 2 == 0 else -i2)) % 4) + (j + j2) % 4

    return FiniteGroupTable(name, [[mul(a, b) for b in range(16)] for a in range(16)])


def c4xc2_rtimes_c2(name="(C4xC2):C2"):
    """<a, b, c | a^4 = b^2 = c^2 = 1, all of a,b commute, c a c = a b,
    c b c = b>; (i, j, f) -> 4*(2*f + j) + i style index i + 4*j + 8*f."""
    def mul(x, y):
        i, j, f = x % 4, (x // 4) % 2, x // 8
        i2, j2, f2 = y % 4, (y // 4) % 2, y // 8
        if f:  # conjugating a^i2 b^j2 by c: a -> a b, b -> b
            j2 = (j2 + i2) % 2
        return (i + i2) % 4 + 4 * ((j + j2) % 2) + 8 * (f ^ f2)

    return FiniteGroupTable(name, [[mul(a, b) for b in range(16)] for a in range(16)])


def central_product_c4_d4(name="C4oD4"):
    """Central product identifying the square of the C4 generator with the
    rotation square of D4: (C4 x D4)/<(z^2, r^2)>.  Coset representatives
    are the pairs with first coordinate in {0, 1}."""
    D = dihedral(4)
    z2, r2 = 2, 2  # index of z^2 in C4 and of r^2 in D4

    def canon(i, d):
        return (i, d) if i < 2 else ((i + z2) % 4, D.mul(d, r2))

    reps = [(i, d) for i in range(2) for d in range(8)]
    index = {p: n for n, p in enumerate(reps)}

    def mul(a, b):
        (i, d), (i2, d2) = reps[a], reps[b]
        return index[canon((i + i2) % 4, D.mul(d, d2))]

    return FiniteGroupTable(name, [[mul(a, b) for b in range(16)] for a in range(16)])


def _group_invariants(G):
    orders = sorted(G.element_order(a) for a in range(G.order))
    squares = len({G.mul(a, a) for a in range(G.order)})
    comm = _closure(
        G,
        tuple(
            G.mul(G.mul(a, b), G.inv(G.mul(b, a)))
            for a in range(G.order)
            for b in range(G.order)
        ),
    )
    return (G.is_abelian(), len(G.center()), tuple(orders), squares, len(comm))


def bundled_groups():
    """All groups of order <= 16 plus S4, keyed by name; the order-16
    census is checked by pairwise invariant separation."""
    lib = {}

    def add(G):
        lib[G.name] = G

    for n in range(1, 17):
        add(cyclic(n))
    add(direct_product(cyclic(2), cyclic(2), "C2xC2"))
    add(symmetric(3))
    add(dihedral(4))
    add(dicyclic(2, "Q8"))
    add(direct_product(cyclic(4), cyclic(2), "C4xC2"))
    add(direct_product(cyclic(2), direct_product(cyclic(2), cyclic(2), "C2xC2"), "C2xC2xC2"))
    add(direct_product(cyclic(3), cyclic(3), "C3xC3"))
    add(dihedral(5))
    add(direct_product(cyclic(6), cyclic(2), "C6xC2"))
    add(dihedral(6))
    add(cyclic_semidirect(3, 4, 2, "C3:C4"))  # dicyclic of order 12
    add(_alternating4())
    add(dihedral(7))
    # order 16
    add(direct_product(cyclic(4), cyclic(4), "C4xC4"))
    add(direct_product(cyclic(8), cyclic(2), "C8xC2"))
    add(direct_product(direct_product(cyclic(4), cyclic(2), "C4xC2"), cyclic(2), "C4xC2xC2"))
    add(direct_product(
        direct_product(cyclic(2), cyclic(2), "C2xC2"),
        direct_product(cyclic(2), cyclic(2), "C2xC2"),
        "C2xC2xC2xC2",
    ))
    add(dihedral(8))
    add(cyclic_semidirect(8, 2, 3, "SD16"))
    add(cyclic_semidirect(8, 2, 5, "M4(2)"))
    add(dicyclic(4, "Q16"))
    add(direct_product(dihedral(4), cyclic(2), "D4xC2"))
    add(direct_product(dicyclic(2, "Q8"), cyclic(2), "Q8xC2"))
    add(c4_rtimes_c4())
    add(c4xc2_rtimes_c2())
    add(central_product_c4_d4())
    add(symmetric(4))
    counts = {}
    for G in lib.values():
        counts[G.order] = counts.get(G.order, 0) + 1
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2,
                11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14, 24: 1}
    if counts != expected:
        raise AssertionError("group census mismatch: %r" % counts)
    by16 = [G for G in lib.values() if G.order == 16]
    invs = [_group_invariants(G) for G in by16]
    if len(set(invs)) != len(invs):
        raise AssertionError("order-16 tables are not pairwise distinct")
    return lib


def _alternating4():
    perms = sorted(
        p for p in itertools.permutations(range(4)) if koszul_sign(p, (1,) * 4) > 0
    )
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(4))] for q in perms] for p in perms
    ]
    return FiniteGroupTable("A4", table, identity=index[tuple(range(4))])


# ---------------------------------------------------------------------------
# verification batches


def check_fixed_points(G, max_arity=3):
    require_at_least("arity", max_arity, 1)
    rep = CheckReport(
        "group-fixed-points-%s" % G.name,
        "conjugation-fixed tuples equal the center tuples and stay closed",
        {"group": G.name, "order": G.order, "max_arity": max_arity},
    )
    for k in range(1, max_arity + 1):
        try:
            fixed = fixed_point_operad(G, k)
            ok = len(fixed) == len(G.center()) ** k
            rep.count(ok, None if ok else "k=%d count %d" % (k, len(fixed)))
        except AssertionError as err:
            rep.count(False, "k=%d: %s" % (k, err))
    return rep


def check_conjugation_equivariance(G, samples=200, seed=0):
    require_at_least("sample count", samples, 0)
    rep = CheckReport(
        "group-conjugation-equivariance-%s" % G.name,
        "conjugation commutes with blockwise substitution",
        {"group": G.name, "samples": samples, "seed": seed},
    )
    rng = random.Random(seed)
    for _ in range(samples):
        k = rng.randint(1, 3)
        g = rng.randrange(G.order)
        t = random_tuple(G, k, rng)
        hs = [random_tuple(G, rng.randint(1, 3), rng) for _ in range(k)]
        lhs = conjugation_act(G, g, substitute(G, t, hs))
        rhs = substitute(
            G, conjugation_act(G, g, t), [conjugation_act(G, g, h) for h in hs]
        )
        ok = lhs == rhs
        rep.count(ok, None if ok else "g=%d t=%r hs=%r" % (g, t, hs))
    return rep


def check_group_harness(G, seed=0):
    """Associativity, equivariance and units of the tuple operad."""
    from .operads import check_associativity, check_equivariance, check_units

    op = group_operad_instance(G)

    def sampler(k, rng):
        return random_tuple(G, k, rng)

    reports = []
    for trip in [(1, 1, 1), (2, 2, 2), (2, 1, 2), (3, 2, 2)]:
        reports.append(
            check_associativity(op, trip, sampler, sample_count=20, seed=seed)
        )
    for pair in [(2, 2), (3, 2)]:
        reports.append(
            check_equivariance(op, pair, sampler, sample_count=10, seed=seed)
        )
    reports.append(check_units(op, 3, sampler, sample_count=20, seed=seed))
    return reports


# ---------------------------------------------------------------------------
# file format


def group_from_dict(data, name="loaded"):
    if not isinstance(data, dict):
        raise ValueError("group data must be an object, got %s" % type(data).__name__)
    return FiniteGroupTable(name, data["table"], data.get("identity", 0))
