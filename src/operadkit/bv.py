"""Homology-level BV structure on the bracket-product model.

The circle operator Delta is a second-order operator that kills every
single block; on a monomial of blocks B1...Bn it is the closed sum over
pairs of blocks

    Delta(B1...Bn) = sum_{i<j} (prod_{k<=i} (-1)^{|Bk|}) (-1)^{|B(i,j)| |Bj|}
                     B<i . [Bi, Bj] . B(i,j) . B>j,

extended linearly, where B(i,j) is the run of blocks strictly between i and
j and |X| the degree parity of X.  It is the recursion

    Delta(B . M') = (-1)^{|B|} ([B, M'] + B . Delta(M')),
    Delta(single block) = 0,

unrolled: the bracket of the single block B with M' is a derivation in M',
a sum over its blocks, and the recursion stacks one prefactor per leading
block.  The Koszul prefactor multiplies both terms: placing it on the
product term alone is inconsistent with Delta^2 = 0 once the cyclic
three-block relation of the bracket is in force.  The deviation identity

    (-1)^{|a|} [a, c] = Delta(a.c) - Delta(a).c - (-1)^{|a|} a.Delta(c)

is then a theorem checked by check_bv_relations, not an input, which pins
the sign conventions of the underlying bracket engine.  Delta raises degree
by the bracket degree b, squares to zero, and is a derivation of compose_i.
check_bv_relations works on monomials, not elements, and reads two tables
that live for one call, the Delta terms of each arity-k monomial and the
basis embedded into each letter set with its Delta, both from _delta_mono;
its brackets and products come from the kept results of
poisson._bracket_terms and poisson.merge_monos, shared across calls and b.
It enumerates the basis of each letter count once.

BV elements decorate each input slot with an exterior generator of degree b
(the homology of the framing circle); a decoration is the subset of marked
slots, and the coefficient is read against the canonical word

    (poisson part) . D_{t1} ^ D_{t2} ^ ... (marked slots ascending).

Composition is the semidirect-product rule: a marking on the substitution
slot is split by the exterior coproduct, either acting as Delta on the
inserted poisson part or transferring to one of the inserted slots, and
doubled markings vanish.  All decoration signs are Koszul reorder signs of
the underlying graded words, so no extra convention enters; the rule is
certified by the associativity/equivariance harness and the identity suite
over exact rationals.
"""

from __future__ import annotations

import itertools

from . import poisson
from .exact import LinComb, add_into, koszul_sign, scalar
from .operads import CheckReport, OperadInstance, require_at_least, require_permutation
from .poisson import (
    PoissonElement,
    check_bracket_degree,
    compose_i,
    enumerate_basis,
    gen,
    mono_degree,
    relabel_tree,
    sigma_act,
    tree_bracket,
    tree_nleaves,
)

# ---------------------------------------------------------------------------
# Delta on poisson elements


def delta_apply(x):
    """Circle operator on a poisson element; degree rises by b."""
    out = {}
    for mono, c in x.terms.items():
        terms = _delta_mono(mono, True)
        if not out and c == 1:
            out = terms  # a fresh dict: taken over, not copied
        else:
            add_into(out, terms, c)
    return PoissonElement._of(x.support, out)


def _delta_mono(mono, signed):
    # The pairwise sum of the module docstring, as a terms dict.  Bj moves
    # left past B(i,j) to meet Bi, and [Bi, Bj] has head min(Bi), so the
    # blocks stay sorted.  Unrolling the recursion, level i leaves the prefix
    # product on its pairs, and the term of [Bi, B>i] from Bj, sorted back,
    # carries the biderivation sign of poisson._bracket_terms times the swap
    # of [Bi, Bj] to the front: (-1)^{|B(i,j)| |Bj|}.  signed=False drops the
    # prefix, the negative control of check_bv_relations.  Distinct (i, j) or
    # trees give distinct monomials.
    odd = [(tree_nleaves(t) - 1) % 2 for t in mono]
    out = {}
    lead = 1
    for i in range(len(mono) - 1):
        if signed and odd[i]:
            lead = -lead
        head = mono[:i]
        between = 0
        for j in range(i + 1, len(mono)):
            sign = -lead if between and odd[j] else lead
            rest = mono[i + 1:j] + mono[j + 1:]
            for tree, c in tree_bracket(mono[i], mono[j]).items():
                out[head + (tree,) + rest] = sign * c
            between ^= odd[j]
    return out


# ---------------------------------------------------------------------------
# decorated elements


class BVElement(LinComb):
    """Finitely supported map (normal monomial, marked-slot subset) ->
    scalar, an int when integral, else a Fraction."""

    __slots__ = ()

    def __init__(self, support, terms=None):
        self.support = frozenset(support)
        self.terms = {}
        for (mono, marking), c in (terms or {}).items():
            marking = frozenset(int(i) for i in marking)
            if not marking <= self.support:
                raise ValueError(
                    "marked slots %s outside the arity range" % sorted(marking)
                )
            add_into(self.terms, {(mono, marking): scalar(c)})

    def degree(self, b=1):
        degs = {mono_degree(m, b) + b * len(s) for (m, s) in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous: degrees %s" % sorted(degs))
        return degs.pop()

    def __repr__(self):
        if not self.terms:
            return "<BV 0>"
        bits = []
        for (mono, marking), c in sorted(
            self.terms.items(), key=lambda kv: (sorted(kv[0][1]), repr(kv[0][0]))
        ):
            tag = "@{%s}" % ",".join(map(str, sorted(marking))) if marking else ""
            bits.append("%s*%r%s" % (c, mono, tag))
        return "<BV " + " + ".join(bits) + ">"


def bv_from_poisson(x):
    return BVElement(x.support, {(m, frozenset()): c for m, c in x.terms.items()})


def bv_unit():
    return bv_from_poisson(gen(1))


# ---------------------------------------------------------------------------
# symmetric action and composition


def bv_sigma_act(perm, x):
    """Left action: slot j becomes perm(j); markings relabel with the
    exterior resort sign of the marked-slot word."""
    require_permutation(perm, x.arity)
    out = BVElement(x.support)
    for (mono, marking), c in x.terms.items():
        px = sigma_act(perm, PoissonElement(x.support, {mono: c}))
        sign = koszul_sign([perm[s - 1] for s in sorted(marking)], [1] * len(marking))
        new_marking = frozenset(perm[s - 1] for s in marking)
        _attach(out, px, new_marking, sign)
    return out


def _attach(out, core, marking, coef):
    """out += coef * core, with every term of core marked by ``marking``."""
    add_into(out.terms, {(m, marking): c for m, c in core.terms.items()}, coef)


def bv_compose(x, y, i):
    """Semidirect-product partial composition of decorated elements.

    Each term is read as the graded word  Q . D_{s1} ^ D_{s2} ^ ...  and the
    composite of a term pair is assembled from its poisson core
    compose_i(Q, R), computed once: a marking on the substitution slot is
    split by the exterior coproduct, either acting on the inserted poisson
    part as Delta or landing on one of the inserted slots as a transferred
    marking (a doubled marking vanishes).  Every outcome goes through one
    step: its target word, the Koszul reorder sign of the source word onto
    it, its marking, and _attach; the poisson composition contributes its
    own certified suspension signs.  With Delta a derivation of compose_i
    (checked by the identity suite), this rule passes the
    associativity/equivariance harness."""
    k, l = x.arity, y.arity
    if not 1 <= i <= k:
        raise ValueError("slot %d out of range 1..%d" % (i, k))
    support = frozenset(range(1, k + l))
    xs = frozenset(range(1, k + 1))
    ys = frozenset(range(1, l + 1))
    out = BVElement(support)
    for (mono_q, s_set), cq in x.terms.items():
        q_el = PoissonElement(xs, {mono_q: 1})
        for (mono_r, t_set), cr in y.terms.items():
            r_el = PoissonElement(ys, {mono_r: 1})
            source = (
                [("Q",)]
                + [("g", s) for s in sorted(s_set)]
                + [("R",)]
                + [("h", t) for t in sorted(t_set)]
            )
            degrees = [1] * len(source)
            degrees[0] = mono_degree(mono_q)
            degrees[1 + len(s_set)] = mono_degree(mono_r)
            kept = [(s if s < i else s + l - 1, ("g", s)) for s in s_set if s != i]
            kept += [(t + i - 1, ("h", t)) for t in t_set]

            def attach(core, lead, placed):
                target = lead + [lab for _, lab in sorted(placed)]
                pos = {lab: n for n, lab in enumerate(target)}
                sign = koszul_sign([pos[lab] for lab in source], degrees)
                _attach(out, core, frozenset(f for f, _ in placed), cq * cr * sign)

            core = compose_i(q_el, r_el, i)
            if i not in s_set:
                attach(core, [("Q",), ("R",)], kept)
                continue
            # the slot marking acts on the inserted poisson part as Delta
            attach(compose_i(q_el, delta_apply(r_el), i), [("Q",), ("g", i), ("R",)], kept)
            # ... or transfers to one of the unmarked inserted slots
            for j in range(1, l + 1):
                if j not in t_set:
                    attach(core, [("Q",), ("R",)], kept + [(j + i - 1, ("g", i))])
    return out


def bv_operad_instance():
    return OperadInstance(
        name="bv",
        arity=lambda x: x.arity,
        compose=bv_compose,
        act=bv_sigma_act,
        degree=lambda x: (x.degree() or 0) if not x.is_zero() else 0,
        unit=bv_unit(),
    )


# ---------------------------------------------------------------------------
# identity suite


def check_bv_relations(k, b=1, _corrupt_delta=False):
    """Verify on the full basis of arity k: Delta squared vanishes, the
    deviation of Delta from a product derivation is the bracket, and Delta
    is a graded derivation of the bracket.  Returns three reports.

    The sweep runs on monomials and terms dicts, not elements: every Delta
    is ``_delta_mono(m, signed)``, and ``_corrupt_delta`` sets signed=False.
    Two tables live for one call, beside the bases of 1..k letters, each
    enumerated once.  The Delta table maps each arity-k monomial, when
    first met, to its ``_delta_mono`` terms; Delta is linear, so
    Delta(Delta x), Delta(a.c) and Delta([a, c]) are sums of its rows.  The
    letter table maps a letter set to [(mono, x, Delta x)] over its basis,
    with x = ``_embed(mono, letters)``.  Each set is aset in one split of
    the letters into (aset, cset) and cset in its complement's, so it is
    embedded once and let go at its second use.  The terms of [a, c],
    [Delta a, c] and [a, Delta c] are poisson._bracket_terms of monomial
    pairs, and those of a.c, Delta(a).c and a.Delta(c) are {monomial: sign}
    from poisson.merge_monos, both read through the module, so a patched
    kernel runs; the kernels keep their results across calls.  b enters
    only through the parity of |a|, which for odd b is that of b = 1, so
    the b = 3 battery reads back the b = 1 brackets and products but
    repeats the law arithmetic."""
    require_at_least("arity", k, 2)  # arity 1 has no products and no pairs
    check_bracket_degree(b)
    signed = not _corrupt_delta
    bases = {s: enumerate_basis(s) for s in range(1, k + 1)}
    images = {}  # the Delta table
    embedded = {}  # the letter table

    def delta_of(terms):
        out = {}
        for m, c in terms.items():
            row = images.get(m)
            if row is None:
                row = images[m] = _delta_mono(m, signed)
            add_into(out, row, c)
        return out

    def embedded_basis(letters):
        rows = embedded.pop(letters, None)  # the second use lets it go
        if rows is None:
            rows = embedded[letters] = []
            for mono in bases[len(letters)]:
                x = _embed(mono, letters)
                rows.append((mono, x, _delta_mono(x, signed)))
        return rows

    def product_of(m1, m2):
        sign, m = poisson.merge_monos(m1, m2)
        return {m: sign}

    rep_sq = CheckReport(
        "bv-delta-squared-%d-b%d" % (k, b),
        "Delta composed with itself vanishes on the whole basis",
        {"arity": k, "bracket_degree": b},
    )
    for mono in bases[k]:
        rep_sq.count(not delta_of(delta_of({mono: 1})), "%r", mono)

    rep_dev = CheckReport(
        "bv-deviation-%d-b%d" % (k, b),
        "Delta(a.c) - Delta(a).c - (-1)^{|a|} a.Delta(c) equals "
        "(-1)^{|a|} [a, c]",
        {"arity": k, "bracket_degree": b},
    )
    rep_der = CheckReport(
        "bv-bracket-derivation-%d-b%d" % (k, b),
        "Delta[a, c] = [Delta a, c] + (-1)^{|a|+b} [a, Delta c]",
        {"arity": k, "bracket_degree": b},
    )
    for asize in range(1, k):
        for aset in itertools.combinations(range(1, k + 1), asize):
            cset = tuple(sorted(set(range(1, k + 1)) - set(aset)))
            cs = embedded_basis(cset)
            for amono, ma, da in embedded_basis(aset):
                # (-1)^{|a|}; the derivation law's (-1)^{|a|+b} is -sign, b odd
                sign = -1 if mono_degree(amono, b) % 2 else 1
                for cmono, mc, dc in cs:
                    ac = poisson._bracket_terms(ma, mc)
                    # each law as lhs - rhs, which vanishes exactly when it holds
                    dev = delta_of(product_of(ma, mc))
                    for m, v in da.items():
                        add_into(dev, product_of(m, mc), -v)
                    for m, v in dc.items():
                        add_into(dev, product_of(ma, m), -sign * v)
                    add_into(dev, ac, -sign)
                    rep_dev.count(not dev, "a=%r c=%r", amono, cmono)
                    der = delta_of(ac)
                    for m, v in da.items():
                        add_into(der, poisson._bracket_terms(m, mc), -v)
                    for m, v in dc.items():
                        add_into(der, poisson._bracket_terms(ma, m), sign * v)
                    rep_der.count(not der, "a=%r c=%r", amono, cmono)

    return [rep_sq, rep_dev, rep_der]


def _embed(mono, letters):
    """The basis monomial ``mono`` on 1..s relabeled into the letter set
    ``letters`` (ascending): order-preserving, so the result is normal."""
    mapping = {j + 1: letters[j] for j in range(len(letters))}
    return tuple(relabel_tree(t, mapping) for t in mono)
