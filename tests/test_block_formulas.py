"""The closed pairwise-block formulas of Delta and of the monomial bracket
against the Leibniz recursions they replaced, kept here as test oracles, and
the merged monomial bracket against the sorted-word one it replaced."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from operadkit.bv import _delta_mono
from operadkit.poisson import (
    PoissonElement,
    _bracket_terms,
    _block_odd,
    comb,
    enumerate_basis,
    from_mono,
    mono_support,
    relabel,
    tree_bracket,
    tree_min,
    tree_nleaves,
)

import bracket_oracle

MAX_ARITY = 6


def _single(tree_terms, support):
    return PoissonElement(support, {(t,): c for t, c in tree_terms.items()})


def oracle_bracket_monos(m1, m2):
    """Bracket of two monomials by the Leibniz recursion on block counts."""
    if len(m1) == 1 and len(m2) == 1:
        return _single(tree_bracket(m1[0], m2[0]), mono_support(m1) | mono_support(m2))
    if len(m1) > 1:
        # [B.M', N] = (-1)^{|M'|(|N|+b)} [B,N].M' + B.[M',N]
        b0, rest = m1[0], m1[1:]
        p_rest = sum(_block_odd(t) for t in rest) % 2
        p_nsh = (sum(tree_nleaves(t) - 1 for t in m2) + 1) % 2
        sign = -1 if p_rest and p_nsh else 1
        term1 = oracle_bracket_monos((b0,), m2).mul(from_mono(rest))
        term2 = from_mono((b0,)).mul(oracle_bracket_monos(rest, m2))
        return term2.add_scaled(term1, sign)
    # len(m2) > 1: [B, C.N'] = [B,C].N' + (-1)^{|C|(|B|+b)} C.[B,N']
    c0, rest = m2[0], m2[1:]
    p_c = _block_odd(c0)
    p_bsh = tree_nleaves(m1[0]) % 2
    sign = -1 if p_c and p_bsh else 1
    term1 = oracle_bracket_monos(m1, (c0,)).mul(from_mono(rest))
    term2 = from_mono((c0,)).mul(oracle_bracket_monos(m1, rest))
    return term1.add_scaled(term2, sign)


def oracle_delta_mono(mono, support, signed):
    """Delta(B.M') = (-1)^{|B|}([B, M'] + B.Delta(M')), Delta(block) = 0;
    signed=False drops the prefactor.  The bracket is the oracle's too, so
    neither oracle calls the code under test."""
    out = PoissonElement(support)
    if len(mono) <= 1:
        return out
    head = from_mono(mono[:1])
    rest = from_mono(mono[1:])
    sign = -1 if signed and (tree_nleaves(mono[0]) - 1) % 2 else 1
    out.add_scaled(oracle_bracket_monos(mono[:1], mono[1:]), sign)
    tail = oracle_delta_mono(mono[1:], rest.support, signed)
    out.add_scaled(head.mul(tail), sign)
    return out


def disjoint_pairs(max_arity):
    """Every pair of basis monomials whose letters split {1..n}, n <= max_arity."""
    for n in range(2, max_arity + 1):
        letters = range(1, n + 1)
        for asize in range(1, n):
            for aset in itertools.combinations(letters, asize):
                cset = tuple(x for x in letters if x not in aset)
                for amono in enumerate_basis(len(aset)):
                    for cmono in enumerate_basis(len(cset)):
                        yield _embed(amono, aset), _embed(cmono, cset)


def _embed(mono, letters):
    mapping = {j + 1: letters[j] for j in range(len(letters))}
    base = PoissonElement(range(1, len(letters) + 1), {mono: 1})
    (out,) = relabel(base, mapping).terms
    return out


@pytest.mark.parametrize("signed", [True, False])
def test_pairwise_delta_equals_the_recursion_on_every_basis_monomial(signed):
    seen = 0
    for k in range(1, MAX_ARITY + 1):
        support = frozenset(range(1, k + 1))
        for mono in enumerate_basis(k):
            expected = oracle_delta_mono(mono, support, signed).terms
            assert _delta_mono(mono, signed) == expected, mono
            seen += 1
    assert seen == 873  # 1! + 2! + ... + 6!


def test_pairwise_bracket_equals_the_recursion_on_disjoint_basis_pairs():
    seen = 0
    for m1, m2 in disjoint_pairs(MAX_ARITY):
        got = _bracket_terms(m1, m2)
        assert got == oracle_bracket_monos(m1, m2).terms, (m1, m2)
        assert list(got.items()) == list(bracket_oracle.bracket_terms(m1, m2).items())
        seen += 1
    assert seen == 4166  # sum over n <= 6 of (n - 1) n!


def _monomial(draw, letters):
    """A normal monomial on ``letters``, cut into blocks at drawn places;
    each block is the comb headed by its least letter, the rest in the
    drawn order.  A block of s letters has degree parity s - 1."""
    n = len(letters)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    blocks = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        part = letters[lo:hi]
        blocks.append(comb(min(part), [x for x in part if x != min(part)]))
    return tuple(sorted(blocks, key=tree_min))


@st.composite
def disjoint_monomial_pairs(draw):
    n = draw(st.integers(2, 8))
    letters = draw(st.permutations(range(1, n + 1)))
    split = draw(st.integers(1, n - 1))
    return _monomial(draw, letters[:split]), _monomial(draw, letters[split:])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(disjoint_monomial_pairs())
# odd and even blocks on both sides, interleaved by least letter
@example((((1, 5), 3, (6, 7)), (2, (4, 8))))
@example(((2, (4, 8)), ((1, 5), 3, (6, 7))))
def test_merged_bracket_equals_the_sorted_word_reference(pair):
    m1, m2 = pair
    want = bracket_oracle.bracket_terms(m1, m2)
    assert list(_bracket_terms(m1, m2).items()) == list(want.items())
