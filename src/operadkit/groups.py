"""Finite group operads: tuples with blockwise left translation.

For a finite group G the arity-k component is the set G^k.  Substitution
multiplies each entry of the inserted tuple on the left by the entry it
replaces, G acts by diagonal conjugation, and the conjugation-fixed tuples
are exactly Z(G)^k, which is again closed under substitution (the center
operad).  The tom Dieck index data attached to G is the list of subgroups
grouped into conjugacy classes, each carrying its centralizer C(H) and the
Weyl group order |N(H)/H|.

Group tables are verified against the group axioms at construction; only
then are a conjugation table g x g^-1 (read by ``conjugation_act``) and a
greedy generating set built from the verified multiplication table.
Composition, conjugation and the center read those tables directly: a
composite maps the inserted tuple through one row of the multiplication
table, and z is central exactly when its row of the table equals its
column.  The fixed tuples are found by a scan over the rows of that table:
for each generator s the product stream of row s is the diagonal conjugate
by s of the product stream of G, so the whole of G^k is compared tuple by
tuple with its images inside itertools.  A bundled library provides every
group of order at most 16 (42 tables built from cyclic, dihedral, dicyclic
and symmetric blocks, direct and semidirect products, and the central
product C4 o D4) plus S4; the order-16 census is sanity-checked by pairwise
separation of elementary invariants.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .exact import koszul_sign
from .operads import (
    CheckReport, OperadInstance, check_associativity, check_equivariance, check_units,
    randbelow, require_at_least, sampled_report,
)

TOM_DIECK_MAX_ORDER = 64  # the largest group order tom_dieck_summands accepts


class FiniteGroupTable:
    """Multiplication table with verified group axioms.

    ``generators`` is a greedy generating set (each element not yet in the
    closure of the earlier ones under the table's product is added).
    Associativity is checked by Light's test against it, (x s) y = x (s y)
    for s in ``generators`` only: n^2 |S| products instead of n^3.  Once the
    axioms hold, ``_conj[g][x]`` = g x g^-1 is built, read by
    ``conjugation_act``.  ``center`` compares rows of the table with its
    columns (z g = g z for all g), not ``mul`` products."""

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
        gens, span = [], _closure(self, ())
        for a in range(n):
            if a not in span:
                gens.append(a)
                span = _closure(self, gens)
        # Light's test: the s with (x s) y = x (s y) for all x, y are closed
        # under the product, so testing the generators suffices.
        t = self.table
        for s in gens:
            ts = [row[s] for row in t]
            row_s = t[s]
            for a in range(n):
                ra, sa = t[ts[a]], t[a]
                for c in range(n):
                    if ra[c] != sa[row_s[c]]:
                        raise ValueError(
                            "associativity fails at (%d, %d, %d)" % (a, s, c)
                        )
        self._inv = tuple(inv)
        self._conj = tuple(
            tuple(t[t[g][x]][inv[g]] for x in range(n)) for g in range(n)
        )
        self.generators = tuple(gens)

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def element_order(self, a):
        n, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            n += 1
        return n

    def center(self):
        cols = tuple(zip(*self.table))
        return tuple(z for z, row in enumerate(self.table) if row == cols[z])

    def is_abelian(self):
        return len(self.center()) == self.order

    def __repr__(self):
        return "<group %s order %d>" % (self.name, self.order)


# ---------------------------------------------------------------------------
# the operad structure


def substitute(G, g, hs):
    """Blockwise left translation: block j of the output is g_j times the
    entries of hs[j], read from row g_j of the multiplication table."""
    if len(hs) != len(g):
        raise ValueError("need one inserted tuple per slot")
    table = G.table
    out = []
    for gj, h in zip(g, hs):
        out += map(table[gj].__getitem__, h)
    return tuple(out)


def group_compose(G, g, h, i):
    """Partial composition of tuples: insert h at slot i, identity elsewhere.

    Slot i becomes g_i h, read from row g_i of the multiplication table.
    Every other slot receives the one-entry block (e,), and g_j e = g_j
    because the constructor verified that e is a two-sided identity, so
    those entries of g are spliced in as they are."""
    if not 1 <= i <= len(g):
        raise ValueError("slot %d out of range 1..%d" % (i, len(g)))
    row = G.table[g[i - 1]]
    return (*g[: i - 1], *[row[x] for x in h], *g[i:])


def conjugation_act(G, g, t):
    """Diagonal conjugation on every entry, read from row g of the
    conjugation table."""
    return tuple(map(G._conj[g].__getitem__, t))


def tuple_relabel(perm, t):
    """Symmetric action: slot j becomes perm(j)."""
    out = [None] * len(t)
    for p, x in zip(perm, t):
        out[p - 1] = x
    return tuple(out)


def _conjugation_fixed(G, k):
    """The tuples of G^k fixed by every generator, in lexicographic order.
    The i-th tuple of ``product(G._conj[s], repeat=k)`` is the conjugate by
    s of the i-th tuple of ``product(range(n), repeat=k)``; the masks of the
    generators are ANDed from all True, so C1 keeps its one tuple."""
    n = G.order
    keep = itertools.repeat(True)
    for s in G.generators:
        same = map(
            operator.eq,
            itertools.product(range(n), repeat=k),
            itertools.product(G._conj[s], repeat=k),
        )
        keep = map(operator.and_, keep, same)
    return list(itertools.compress(itertools.product(range(n), repeat=k), keep))


def fixed_point_operad(G, k):
    """Conjugation-fixed tuples; verified to be Z(G)^k, and closed under
    composition with the fixed pairs at every slot (first 8 of each).

    A tuple is tested against ``G.generators`` only: conjugation by a
    product is the composite of the conjugations, so the tuples fixed by a
    generating set are those fixed by G.  Each of the |G|^k tuples is
    compared whole with its conjugate by each generator, read off the
    product of that generator's conjugation row; the fixed set is not
    factored into per-entry fixed sets, so arity k is checked on its own.
    The fixed list is lexicographic, and so is Z(G)^k as the product of
    ``G.center()``, which is ascending, so the two lists are compared as
    they are, without sorting.  ``G.center()`` compares rows and columns of
    the multiplication table and does not read the conjugation table.
    Closure reads each composite from ``group_compose``."""
    require_at_least("arity", k, 1)
    return _verified_fixed(G, k, G.center(), _conjugation_fixed(G, 2))


def _verified_fixed(G, k, center, pairs):
    """``fixed_point_operad(G, k)`` with the center and the fixed pairs
    given, so a sweep over k reads them once; at k = 2 the pairs are the
    fixed list itself."""
    fixed = pairs if k == 2 else _conjugation_fixed(G, k)
    if fixed != list(itertools.product(center, repeat=k)):
        raise AssertionError("fixed tuples differ from the center tuples")
    central = frozenset(center)
    for g in fixed[:8]:
        for h in pairs[:8]:
            for i in range(1, k + 1):
                if not central.issuperset(group_compose(G, g, h, i)):
                    raise AssertionError("fixed tuples are not closed under substitution")
    return fixed


def group_operad_instance(G):
    return OperadInstance(
        name="group-%s" % G.name,
        arity=lambda t: len(t),
        compose=functools.partial(group_compose, G),
        act=tuple_relabel,
        unit=(G.identity,),
    )


def random_tuple(G, k, rng):
    """k entries of G, the draws of ``rng.randrange(G.order)`` through ``randbelow``."""
    n = G.order
    return tuple([randbelow(rng, n) for _ in range(k)])


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


def tom_dieck_summands(G):
    """Subgroups grouped into conjugacy classes with centralizer and Weyl
    data; index data only.  Refuses orders above ``TOM_DIECK_MAX_ORDER``."""
    if G.order > TOM_DIECK_MAX_ORDER:
        raise ValueError("group order %d exceeds bound %d" % (G.order, TOM_DIECK_MAX_ORDER))
    subs = subgroups(G)
    seen = set()
    records = []
    for H in subs:
        orbit = {frozenset(conjugation_act(G, g, H)) for g in range(G.order)}
        rep = H not in seen
        seen.update(orbit)
        cent = [
            g
            for g in range(G.order)
            if all(G.mul(g, h) == G.mul(h, g) for h in H)
        ]
        norm = sum(1 for g in range(G.order) if frozenset(conjugation_act(G, g, H)) == H)
        records.append(SubgroupRecord(H, rep, cent, norm // len(H)))
    return records


# ---------------------------------------------------------------------------
# table constructors


def cyclic(n):
    return FiniteGroupTable("C%d" % n, [[(a + b) % n for b in range(n)] for a in range(n)])


def dihedral(n):
    """Order 2n: (i, 0) rotations, (i, 1) reflections; index i + n*f."""
    def mul(a, b):
        i, f = a % n, a // n
        j, g = b % n, b // n
        return ((i + j) % n if not f else (i - j) % n) + n * (f ^ g)

    order = 2 * n
    return FiniteGroupTable("D%d" % n, [[mul(a, b) for b in range(order)] for a in range(order)])


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


def _permutation_group(name, perms):
    """The permutations ``perms`` of range(n), closed under composition, in
    sorted order; the product p.q maps j to p[q[j]]."""
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[j] for j in q)] for q in perms] for p in perms]
    return FiniteGroupTable(name, table, identity=index[tuple(range(len(perms[0])))])


def direct_product(G, H):
    n, m = G.order, H.order

    def mul(a, b):
        return (G.mul(a // m, b // m)) * m + H.mul(a % m, b % m)

    return FiniteGroupTable(
        "%sx%s" % (G.name, H.name),
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


def c4xc2_rtimes_c2():
    """<a, b, c | a^4 = b^2 = c^2 = 1, all of a,b commute, c a c = a b,
    c b c = b>; (i, j, f) -> 4*(2*f + j) + i style index i + 4*j + 8*f."""
    def mul(x, y):
        i, j, f = x % 4, (x // 4) % 2, x // 8
        i2, j2, f2 = y % 4, (y // 4) % 2, y // 8
        if f:  # conjugating a^i2 b^j2 by c: a -> a b, b -> b
            j2 = (j2 + i2) % 2
        return (i + i2) % 4 + 4 * ((j + j2) % 2) + 8 * (f ^ f2)

    return FiniteGroupTable("(C4xC2):C2", [[mul(a, b) for b in range(16)] for a in range(16)])


def central_product_c4_d4():
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

    return FiniteGroupTable("C4oD4", [[mul(a, b) for b in range(16)] for a in range(16)])


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
    add(direct_product(cyclic(2), cyclic(2)))
    add(_permutation_group("S3", itertools.permutations(range(3))))
    add(dihedral(4))
    add(dicyclic(2, "Q8"))
    add(direct_product(cyclic(4), cyclic(2)))
    add(direct_product(cyclic(2), direct_product(cyclic(2), cyclic(2))))
    add(direct_product(cyclic(3), cyclic(3)))
    add(dihedral(5))
    add(direct_product(cyclic(6), cyclic(2)))
    add(dihedral(6))
    add(cyclic_semidirect(3, 4, 2, "C3:C4"))  # dicyclic of order 12
    s4 = list(itertools.permutations(range(4)))
    add(_permutation_group("A4", [p for p in s4 if koszul_sign(p, (1,) * 4) > 0]))
    add(dihedral(7))
    # order 16
    add(direct_product(cyclic(4), cyclic(4)))
    add(direct_product(cyclic(8), cyclic(2)))
    add(direct_product(direct_product(cyclic(4), cyclic(2)), cyclic(2)))
    add(direct_product(direct_product(cyclic(2), cyclic(2)),
                       direct_product(cyclic(2), cyclic(2))))
    add(dihedral(8))
    add(cyclic_semidirect(8, 2, 3, "SD16"))
    add(cyclic_semidirect(8, 2, 5, "M4(2)"))
    add(dicyclic(4, "Q16"))
    add(direct_product(dihedral(4), cyclic(2)))
    add(direct_product(dicyclic(2, "Q8"), cyclic(2)))
    add(cyclic_semidirect(4, 4, 3, "C4:C4"))  # b a b^-1 = a^-1
    add(c4xc2_rtimes_c2())
    add(central_product_c4_d4())
    add(_permutation_group("S4", s4))
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


# ---------------------------------------------------------------------------
# verification batches


def check_fixed_points(G, max_arity=3):
    require_at_least("arity", max_arity, 1)
    rep = CheckReport(
        "group-fixed-points-%s" % G.name,
        "conjugation-fixed tuples equal the center tuples and stay closed",
        {"group": G.name, "order": G.order, "max_arity": max_arity},
    )
    center = G.center()
    pairs = _conjugation_fixed(G, 2)
    zn = len(center)
    for k in range(1, max_arity + 1):
        try:
            fixed = _verified_fixed(G, k, center, pairs)
            rep.count(len(fixed) == zn**k, "k=%d count %d", k, len(fixed))
        except AssertionError as err:
            rep.count(False, "k=%d: %s", k, err)
    return rep


def check_conjugation_equivariance(G, samples=200, seed=0):
    rep, rng = sampled_report(
        "group-conjugation-equivariance-%s" % G.name,
        "conjugation commutes with blockwise substitution",
        {"group": G.name}, samples, seed,
    )
    for _ in range(samples):
        k = 1 + randbelow(rng, 3)
        g = randbelow(rng, G.order)
        t = random_tuple(G, k, rng)
        hs = [random_tuple(G, 1 + randbelow(rng, 3), rng) for _ in range(k)]
        lhs = conjugation_act(G, g, substitute(G, t, hs))
        rhs = substitute(
            G, conjugation_act(G, g, t), [conjugation_act(G, g, h) for h in hs]
        )
        rep.count(lhs == rhs, "g=%d t=%r hs=%r", g, t, hs)
    return rep


def check_group_harness(G, seed=0):
    """Associativity, equivariance and units of the tuple operad."""
    op = group_operad_instance(G)
    sampler = functools.partial(random_tuple, G)
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
    if "table" not in data:
        raise ValueError('group data needs a "table" field')
    return FiniteGroupTable(name, data["table"], data.get("identity", 0))
