"""Multilinear Poisson algebra model: arity-k component of the operad e_b.

The arity-k part of the operad with a graded-commutative product and a Lie
bracket of odd degree b is modeled as the multilinear span (each generator
x1..xk exactly once) of the free Poisson algebra on k degree-0 generators.

Normal form.  A monomial is an ordered product of blocks; each block is a
binary bracket tree on its letters, reduced to a left-combed tree
[[[m,a],b],...,c] whose head m is the minimal letter of the block, with the
tail (a, b, ..., c) in any order.  Blocks are sorted by minimal letter.
A block of s letters contributes (s-1)! normal trees, so the monomial count
is the sum over set partitions of prod (|block|-1)! = k!.

Signs.  All Koszul signs are computed at shifted parities ||x|| = |x| + b;
since b is odd and the generators sit in degree 0, a block on s letters has
degree parity (s-1) mod 2 and shifted parity s mod 2, independent of b.  The
engine therefore never needs b; only degree bookkeeping does.  The bracket
satisfies, at shifted parities,

    [u, v] = -(-1)^{||u|| ||v||} [v, u]
    [u, [v, w]] = [[u, v], w] + (-1)^{||u|| ||v||} [v, [u, w]]
    [u, v.w] = [u, v].w + (-1)^{|v| (|u| + b)} v.[u, w]

Rewriting orientation and termination.  Brackets of two normal trees are
normalized by (1) an antisymmetry flip when the right head is smaller than
the left head, after which every letter of the right argument exceeds the
left head; (2) the derived Jacobi rule
[u,[v,w]] = [[u,v],w] - (-1)^{||v|| ||w||}[[u,w],v] peeling the right comb
until the right argument is a single leaf, which then appends onto the left
comb.  The flip happens at most once per call chain and every other
recursive call strictly decreases the leaf count of the right argument,
which is the termination measure.  On products the bracket is a
biderivation, so the bracket of two monomials is one closed sum over pairs
of blocks, [B1...Bp, C1...Cq] = sum_{i,j} +-sort(... [Bi, Cj] ...), each
tree bracket taken from the cached tree_bracket (see _bracket_terms).

Sharing.  Each normal tree that enumerate_basis puts in a block or that
tree_bracket builds is interned in one table, which lives as long as the
tree_bracket cache: equal trees are one object, stored once, so equal
monomials compare block by block by identity, not leaf by leaf (the row
index of a Delta slice, the bracket cache).  Relabelled, composed and
transposed trees are not interned.  The monomial kernels _bracket_terms and
merge_monos each keep their last 1024 results (an arity-5 check_bv_relations
meets 480 pairs), so a pair met again, at another b or by another caller, is
read back.  Neither reads b, so a kept result is exact for every caller, and
no caller mutates one: merge_monos returns a tuple, and a _bracket_terms dict
is only read (add_into's rule).

Composition.  One kernel, _graft, makes every composite x o_S y, with y's
letters on the ascending S and x's, in order, on {min S} + ([n] - S), so
compose_i(x, y, i) is its case S = (i, ..., i+l-1).  x is relabelled once
per letter set, beside a letter index (letter -> block, place, spine word),
and y once per S, with a table of the host blocks rebuilt on it.  On each
host monomial the kernel rebuilds the block holding the slot from y's terms
with _bracket_sum, unless the table holds it, and joins the other blocks
with merge_monos.  Substituting an element of odd degree for a degree-0
letter transports it past the odd bracket edges of the host monomial, so
y's terms of odd edge count are negated when the tail letters after the
slot and the edges of the later blocks number an odd total: the unique
convention under which both associativity shapes and equivariance hold,
certified with the downstream identities over exact rationals by the test
suite rather than asserted termwise.

Action.  sigma_act applies a reduced word in the adjacent transpositions
(a a+1), letter by letter, through the one monomial kernel _transposed.

Printing.  element_to_text writes an element as a signed sum of monomials
in mono_key order, with x{n} for letters above 9; PoissonElement.__repr__
wraps that text in angle brackets.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial, prod

from .exact import GradedDims, LinComb, add_into, format_rational, scalar
from .operads import OperadInstance, require_at_least, require_permutation

# ---------------------------------------------------------------------------
# bracket trees: a leaf is an int letter, a node is a pair (left, right)


def is_leaf(t):
    return isinstance(t, int)


def tree_leaves(t):
    if is_leaf(t):
        return (t,)
    return tree_leaves(t[0]) + tree_leaves(t[1])


@lru_cache(maxsize=None)
def tree_nleaves(t):
    if is_leaf(t):
        return 1
    return tree_nleaves(t[0]) + tree_nleaves(t[1])


@lru_cache(maxsize=None)
def tree_min(t):
    if is_leaf(t):
        return t
    return min(tree_min(t[0]), tree_min(t[1]))


def comb(head, tail):
    """Left-combed tree [[[head, t1], t2], ..., tn]."""
    t = head
    for x in tail:
        t = (t, x)
    return t


def tree_key(t):
    if is_leaf(t):
        return (0, t)
    return (1, tree_key(t[0]), tree_key(t[1]))


def relabel_tree(t, mapping):
    if is_leaf(t):
        return mapping[t]
    return (relabel_tree(t[0], mapping), relabel_tree(t[1], mapping))


_INTERN = {}  # normal tree -> its one shared object; see Sharing


def _intern(t):
    return _INTERN.setdefault(t, t)


# ---------------------------------------------------------------------------
# normal-form bracket of trees


@lru_cache(maxsize=None)
def tree_bracket(s, t):
    """Normal form of [s, t] for normal trees s, t with disjoint letters.

    Returns a dict {normal tree: integer coefficient}, its trees interned
    (see Sharing).  Termination: at most one antisymmetry flip, then the
    right argument's leaf count strictly decreases in every recursive call.
    """
    hs, ht = tree_min(s), tree_min(t)
    if ht < hs:
        # [s,t] = -(-1)^{||s|| ||t||} [t,s]
        sign = 1 if (tree_nleaves(s) * tree_nleaves(t)) % 2 else -1
        return {u: sign * c for u, c in tree_bracket(t, s).items()}
    if is_leaf(t):
        return {_intern((s, t)): 1}
    t2, last = t  # t = [t2, last], last a leaf since t is a comb
    # last exceeds the head of every u, so (u, last) is normal
    out = {_intern((u, last)): c for u, c in tree_bracket(s, t2).items()}
    # - (-1)^{||t2|| ||last||} [[s,last], t2], with ||last|| odd
    sgn = 1 if tree_nleaves(t2) % 2 else -1
    return add_into(out, tree_bracket((s, last), t2), sgn)


def lie_normal_form(t):
    """Normal form of an arbitrary bracket tree with distinct letters.

    Every tree of a normal form has the same head, its least letter, so a
    right leaf above that head appends onto each of them as it is."""
    if is_leaf(t):
        return {t: 1}
    left = lie_normal_form(t[0])
    head = next(iter(left))
    while not is_leaf(head):
        head = head[0]
    if is_leaf(t[1]) and t[1] > head:
        return {(u, t[1]): c for u, c in left.items()}
    out = {}
    for u, cu in left.items():
        for v, cv in lie_normal_form(t[1]).items():
            add_into(out, tree_bracket(u, v), cu * cv)
    return out


# ---------------------------------------------------------------------------
# monomials: tuples of normal trees with disjoint letters, sorted by min leaf


def mono_support(mono):
    out = []
    for t in mono:
        out.extend(tree_leaves(t))
    return frozenset(out)


def mono_degree(mono, b=1):
    return b * sum(tree_nleaves(t) - 1 for t in mono)


def mono_key(mono):
    return tuple(tree_key(t) for t in mono)


def _block_odd(t):
    return (tree_nleaves(t) - 1) % 2


@lru_cache(maxsize=1024)
def merge_monos(m1, m2):
    """Merge two sorted block tuples; Koszul sign from odd-degree swaps.

    Returns (sign, merged tuple).  Letters must be disjoint.
    """
    sign = 1
    odd_left = sum(_block_odd(t) for t in m1)
    out = []
    i = j = 0
    oi = odd_left
    while i < len(m1) and j < len(m2):
        if tree_min(m1[i]) < tree_min(m2[j]):
            oi -= _block_odd(m1[i])
            out.append(m1[i])
            i += 1
        else:
            # block from m2 jumps over the remaining odd blocks of m1
            if _block_odd(m2[j]) and oi % 2:
                sign = -sign
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return sign, tuple(out)


# ---------------------------------------------------------------------------
# elements


class PoissonElement(LinComb):
    """Finitely supported exact combination of normal monomials; the
    coefficients are ints when integral, else Fractions.

    ``support`` is the frozenset of letters (for operad elements of arity k
    this is {1..k}); all monomials use exactly these letters, once each.
    """

    __slots__ = ()

    def __init__(self, support, terms=None):
        self.support = frozenset(support)
        self.terms = {}
        for mono, c in (terms or {}).items():
            c = scalar(c)
            if c:
                self.terms[mono] = c

    def degrees(self, b=1):
        return sorted({mono_degree(m, b) for m in self.terms})

    def degree(self, b=1):
        ds = self.degrees(b)
        if not ds:
            raise ValueError("zero element has no degree")
        if len(ds) > 1:
            raise ValueError("element is not homogeneous: degrees %s" % ds)
        return ds[0]

    def mul(self, other):
        """Graded-commutative product; letters must be disjoint."""
        if self.support & other.support:
            raise ValueError(
                "not multilinear: letters %s repeat" % sorted(self.support & other.support)
            )
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                sign, m = merge_monos(m1, m2)
                out[m] = sign * c1 * c2  # distinct pairs merge to distinct monomials
        return PoissonElement._of(self.support | other.support, out)

    def bracket(self, other):
        """The Lie bracket, extended to products as a biderivation."""
        if self.support & other.support:
            raise ValueError(
                "not multilinear: letters %s repeat" % sorted(self.support & other.support)
            )
        return PoissonElement._of(
            self.support | other.support, _bracket_sum(self.terms, other.terms)
        )

    def __repr__(self):
        return "<%s>" % element_to_text(self)


def tree_to_text(t):
    if is_leaf(t):
        return "x%d" % t if t <= 9 else "x{%d}" % t
    return "[%s, %s]" % (tree_to_text(t[0]), tree_to_text(t[1]))


def mono_to_text(mono):
    return "*".join(tree_to_text(t) for t in mono)


def element_to_text(x):
    if not isinstance(x, PoissonElement):
        raise TypeError("expected a PoissonElement")
    if x.is_zero():
        return "0"
    parts = []
    for mono in sorted(x.terms, key=mono_key):
        c = x.terms[mono]
        body = mono_to_text(mono)
        if abs(c) != 1:
            body = "%s*%s" % (format_rational(abs(c)), body)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def gen(i):
    if i < 1:
        raise ValueError("letters are positive integers")
    return PoissonElement((i,), {(i,): 1})


def unit():
    """Operad unit: the single letter x1 in arity 1."""
    return gen(1)


def from_mono(mono):
    return PoissonElement(mono_support(mono), {tuple(mono): 1})


def _bracket_sum(u, v):
    """[u, v] for terms dicts u, v on disjoint letters, bilinearly."""
    out = {}
    for m1, c1 in u.items():
        for m2, c2 in v.items():
            add_into(out, _bracket_terms(m1, m2), c1 * c2)
    return out


@lru_cache(maxsize=1024)
def _bracket_terms(m1, m2):
    """[M, N] for monomials M = B1...Bp, N = C1...Cq with disjoint letters,
    as a terms dict.  The bracket is a biderivation, so

        [M, N] = sum_{i,j} e_i d_j sort(B<i C<j [Bi, Cj] C>j B>i)

    with e_i = (-1)^{|B>i| (|N| + b)} moving Bi out of M to the right,
    d_j = (-1)^{|C<j| (|Bi| + b)} moving Bi into N past C<j, and the Koszul
    sign of sorting the blocks by minimum letter.  Distinct pairs (i, j) or
    trees give distinct monomials.  The blocks of M and N are merged by
    least letter once; the (i, j) term is the merged list with the lower L
    of Bi and Cj replaced by the tree and the higher H dropped.  Counting
    the odd-odd inversions of the word against the merged list, the sign is
    (-1)^E, E = inv(M.N) + (odd C-blocks before L) + (odd B-blocks after L)
    + |H| (odd blocks between L and H + [L is Cj] (1 + |L|)), where inv(M.N)
    counts the odd-odd pairs (Bk, Cl) with min Bk > min Cl."""
    p = len(m1)
    blocks = m1 + m2
    order = sorted(range(len(blocks)), key=lambda n: tree_min(blocks[n]))
    merged = tuple(blocks[n] for n in order)
    odd = [_block_odd(blocks[n]) for n in order]
    at = {n: s for s, n in enumerate(order)}  # block -> its place in merged
    outer, inv, before_n, after_m = [], 0, 0, sum(_block_odd(t) for t in m1)
    for n, o in zip(order, odd):
        if n < p:
            after_m -= o
        outer.append(before_n + after_m)
        if n >= p and o:
            before_n += 1
            inv += after_m
    out = {}
    for i, bi in enumerate(m1):
        u = at[i]
        for j, cj in enumerate(m2):
            v = at[p + j]
            lo, hi = (u, v) if u < v else (v, u)
            e = inv + outer[lo]
            if odd[hi]:
                e += sum(odd[lo + 1:hi]) + (order[lo] >= p and not odd[lo])
            sign = -1 if e % 2 else 1
            head, rest = merged[:lo], merged[lo + 1:hi] + merged[hi + 1:]
            for tree, c in tree_bracket(bi, cj).items():
                out[head + (tree,) + rest] = sign * c
    return out


# ---------------------------------------------------------------------------
# operad structure


def relabel(x, mapping):
    """Apply an order-preserving injective letter mapping, which keeps every
    tree normal and the blocks in order."""
    support = frozenset(map(mapping.__getitem__, x.support))
    terms = {tuple(relabel_tree(t, mapping) for t in m): c for m, c in x.terms.items()}
    return PoissonElement._of(support, terms)


def _spine(t):
    """The word [head, t1, ..., tq] of the left comb [[[head, t1], ...], tq]."""
    word = []
    while not isinstance(t, int):
        t, x = t
        word.append(x)
    return [t] + word[::-1]


def _transposed(mono, a):
    """The terms dict of (a a+1).mono.  With a in block P and a+1 in block Q:
    1. P != Q: the letters swap.  If both are heads, P and Q are adjacent
       and trade places, with sign -1 when both have odd degree; otherwise
       no head lies between a and a+1, so the block order holds.
    2. P = Q, a not its head: the tail entries swap; the comb stays normal.
    3. P = Q with head a: P becomes lie_normal_form(comb(a+1, tail with
       a+1 -> a)) in place, since its least letter is still a."""
    where = {}  # letter -> (block, place in its word, word), for a and a+1
    for n, t in enumerate(mono):
        word = _spine(t)
        for x in (a, a + 1):
            if x in word:
                where[x] = n, word.index(x), word
        if len(where) == 2:
            break
    (r, p, w), (s, q, v) = where[a], where[a + 1]
    w[p], v[q] = a + 1, a
    if r == s:
        trees = lie_normal_form(comb(w[0], w[1:])) if p == 0 else {comb(w[0], w[1:]): 1}
        return {mono[:r] + (u,) + mono[r + 1:]: c for u, c in trees.items()}
    heads = p == q == 0
    blocks = list(mono)
    blocks[r], blocks[s] = comb(w[0], w[1:]), comb(v[0], v[1:])
    if heads:
        blocks[r], blocks[s] = blocks[s], blocks[r]
    return {tuple(blocks): -1 if heads and len(w) % 2 == len(v) % 2 == 0 else 1}


def sigma_act(perm, x):
    """Symmetric group action: letter j becomes perm(j); left action.

    Sorting the values of perm by swaps of adjacent values a, a+1 writes
    perm = s_a1 ... s_am as a reduced word in the adjacent transpositions
    s_a = (a a+1).  The word acts right to left, each letter through the
    monomial kernel _transposed; the identity is the empty word."""
    k = x.arity
    require_permutation(perm, k)
    at = sorted(range(k), key=perm.__getitem__)  # at[v - 1]: place of value v
    word = []
    for n in range(k - 1, 0, -1):
        for a in range(n):
            if at[a] > at[a + 1]:
                at[a], at[a + 1] = at[a + 1], at[a]
                word.append(a + 1)
    terms = dict(x.terms)
    for a in reversed(word):
        out = {}
        for m, c in terms.items():
            add_into(out, _transposed(m, a), c)
        terms = out
    return PoissonElement._of(x.support, terms)


def _host(x, letters):
    """x's monomials, letter j moved to ``letters[j - 1]``, as (monomial,
    coefficient, index), the index mapping each letter to (block, place,
    spine word); a moved word is combed again (see Composition)."""
    out = []
    for mono, c in x.terms.items():
        index, blocks = {}, []
        for r, t in enumerate(mono):
            word = _spine(t)
            if letters[-1] != len(letters):
                word = [letters[a - 1] for a in word]
                t = comb(word[0], word[1:])
            blocks.append(t)
            index.update((a, (r, p, word)) for p, a in enumerate(word))
        out.append((tuple(blocks), c, index))
    return out


def _inserted(y, letters):
    """y on the ascending ``letters``, to graft at the host letter min S =
    ``letters[0]``: (that slot, y's terms, the same with the terms of odd
    edge count negated, an empty table of host blocks rebuilt on them)."""
    ys = y.terms if letters[-1] == len(letters) else relabel(y, dict(enumerate(letters, 1))).terms
    return letters[0], ys, {m: -c if mono_degree(m) % 2 else c for m, c in ys.items()}, {}


def _graft(hosted, ins):
    """The terms dict of ``ins`` (from ``_inserted``) substituted for its
    slot in ``hosted`` (from ``_host``), which holds none of its other
    letters.  The slot's block [[h, t1], ..., tq], slot at place p, is
    rebuilt from y when p = 0, else from [comb(h, t1..tp-1), y], then
    bracketed with each later tail letter; blocks before it sort first."""
    slot, ys, twisted, rebuilt = ins
    out = {}
    for mono, c, index in hosted:
        r, p, word = index[slot]
        before, after = mono[:r], mono[r + 1:]
        odd = (len(word) - 1 - p + sum(tree_nleaves(t) - 1 for t in after)) % 2
        terms = rebuilt.get((mono[r], odd))
        if terms is None:
            terms = twisted if odd else ys
            if p:
                terms = _bracket_sum({(comb(word[0], word[1:p]),): 1}, terms)
            for t in word[p + 1:]:
                terms = _bracket_sum(terms, {(t,): 1})
            rebuilt[mono[r], odd] = terms
        joined = {}
        for m, v in terms.items():
            sign, merged = merge_monos(m, after)
            joined[before + merged] = sign * v
        add_into(out, joined, c)
    return out


def compose_i(x, y, i):
    """Partial composition: substitute y for letter i of x.  y's letters
    become i..i+l-1 and x's above i shift up by l-1: the contiguous graft."""
    k, l = x.arity, y.arity
    if not 1 <= i <= k:
        raise ValueError("slot %d out of range 1..%d" % (i, k))
    letters = tuple(j if j <= i else j + l - 1 for j in range(1, k + 1))
    terms = _graft(_host(x, letters), _inserted(y, tuple(range(i, i + l))))
    return PoissonElement._of(frozenset(range(1, k + l)), terms)


# ---------------------------------------------------------------------------
# basis enumeration and dimension counts


def set_partitions(items):
    """All partitions of ``items`` (a sorted tuple) into blocks, each block a
    sorted tuple, blocks ordered by minimum; deterministic order.  The block
    that the least item ``first`` joins or opens has the least head, so it
    goes in front of the others, which stay sorted: no sort is needed."""
    items = tuple(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        # first joins an existing block or opens its own
        yield ((first,),) + sub
        for j in range(len(sub)):
            yield ((first,) + sub[j],) + sub[:j] + sub[j + 1:]


def enumerate_basis(k, degree=None, b=1):
    """All normal-form monomials of arity k, optionally degree-filtered.

    Deterministic order: partitions in generator order, then tail
    permutations lexicographically block by block.  Each block's trees are
    built once a call and shared by every partition holding it (see Sharing).
    """
    combs = {}  # block letters -> its interned normal trees
    out = []
    for blocks in set_partitions(tuple(range(1, k + 1))):
        if degree is not None and b * (k - len(blocks)) != degree:
            continue
        for bl in blocks:
            if bl not in combs:
                combs[bl] = [_intern(comb(bl[0], tail))
                             for tail in itertools.permutations(bl[1:])]
        out.extend(itertools.product(*map(combs.__getitem__, blocks)))
    return out


def poincare_polynomial(k, b=1):
    """Degree -> dimension table of e_b(k) by direct normal-form enumeration."""
    require_at_least("arity", k, 1)
    check_bracket_degree(b)
    counts = {}
    for blocks in set_partitions(tuple(range(1, k + 1))):
        d = b * (k - len(blocks))
        counts[d] = counts.get(d, 0) + prod(factorial(len(bl) - 1) for bl in blocks)
    return GradedDims(counts)


def operad_instance():
    """Harness adapter for this operad."""
    return OperadInstance(
        name="bracket-product",
        compose=compose_i,
        act=sigma_act,
        arity=lambda x: x.arity,
        degree=lambda x: x.degree() if not x.is_zero() else 0,
        unit=unit(),
    )


def check_bracket_degree(b):
    """Reject a bracket degree outside the model, which needs odd b >= 1."""
    if b < 1 or b % 2 == 0:
        raise ValueError("bracket degree must be odd and positive, got %r" % b)
