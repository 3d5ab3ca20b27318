"""Test-only oracle: the BV relation battery evaluated element by element.

This is the ``check_bv_relations`` that ``operadkit.bv`` ran before the
battery read its Delta images and brackets from per-call tables.  It forms
every a, c, Delta a, Delta c, product and bracket afresh as a
``PoissonElement`` for each pair, so ``test_bv.py`` can compare the two
verdicts, case counts and witness lists.  It embeds a and c with its own
element-level ``relabel``, not the battery's monomial ``_embed``, and its
negative control applies the unsigned Delta element by element.
"""

from __future__ import annotations

import itertools

from operadkit.bv import _delta_mono, delta_apply
from operadkit.exact import add_into
from operadkit.operads import CheckReport, require_at_least
from operadkit.poisson import (
    PoissonElement,
    check_bracket_degree,
    enumerate_basis,
    mono_degree,
    relabel,
)


def check_bv_relations(k, b=1, _corrupt_delta=False):
    require_at_least("arity", k, 2)
    check_bracket_degree(b)
    delta = _unsigned_delta if _corrupt_delta else delta_apply
    basis = enumerate_basis(k)
    support = frozenset(range(1, k + 1))

    rep_sq = CheckReport(
        "bv-delta-squared-%d-b%d" % (k, b),
        "Delta composed with itself vanishes on the whole basis",
        {"arity": k, "bracket_degree": b},
    )
    for mono in basis:
        x = PoissonElement(support, {mono: 1})
        val = delta(delta(x))
        rep_sq.count(val.is_zero(), None if val.is_zero() else repr(mono))

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
            for amono in enumerate_basis(len(aset)):
                a = _embed(amono, aset)
                da = delta(a)
                sign = -1 if mono_degree(amono, b) % 2 else 1
                for cmono in enumerate_basis(len(cset)):
                    c = _embed(cmono, cset)
                    dc = delta(c)
                    witness = "a=%r c=%r" % (amono, cmono)
                    lhs = delta(a.mul(c)) - da.mul(c) - a.mul(dc).scale(sign)
                    ok = lhs == a.bracket(c).scale(sign)
                    rep_dev.count(ok, None if ok else witness)
                    lhs = delta(a.bracket(c))
                    ok = lhs == da.bracket(c) - a.bracket(dc).scale(sign)
                    rep_der.count(ok, None if ok else witness)

    return [rep_sq, rep_dev, rep_der]


def _unsigned_delta(x):
    """Delta with its prefix signs dropped, the battery's negative control."""
    out = {}
    for mono, c in x.terms.items():
        add_into(out, _delta_mono(mono, False), c)
    return PoissonElement(x.support, out)


def _embed(mono, letters):
    """Poisson element for a basis monomial on 1..s relabeled into the
    letter set ``letters`` (ascending)."""
    mapping = {j + 1: letters[j] for j in range(len(letters))}
    base = PoissonElement(range(1, len(letters) + 1), {mono: 1})
    return relabel(base, mapping)
