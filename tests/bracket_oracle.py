"""Test-only oracle: the monomial bracket as ``poisson._bracket_terms``
computed it before it merged the two monomials once per pair.  Each (i, j)
term builds its word of blocks, sorts it by least letter and takes the
Koszul sign of that sort from ``exact.koszul_sign``.  Kept so the tests can
compare the two term by term, insertion order included."""

from operadkit.exact import koszul_sign
from operadkit.poisson import _block_odd, tree_bracket, tree_min


def bracket_terms(m1, m2):
    """[M, N] for monomials M = B1...Bp, N = C1...Cq with disjoint letters,
    as a terms dict.  The bracket is a biderivation, so

        [M, N] = sum_{i,j} e_i d_j sort(B<i C<j [Bi, Cj] C>j B>i)

    with e_i = (-1)^{|B>i| (|N| + b)} moving Bi out of M to the right,
    d_j = (-1)^{|C<j| (|Bi| + b)} moving Bi into N past C<j, and the Koszul
    sign of sorting the blocks by minimum letter.  Distinct pairs (i, j) or
    trees give distinct monomials."""
    odd1 = [_block_odd(t) for t in m1]
    odd2 = [_block_odd(t) for t in m2]
    min1 = [tree_min(t) for t in m1]
    min2 = [tree_min(t) for t in m2]
    n_sh = not sum(odd2) % 2  # |N| + b, b odd
    out = {}
    after = sum(odd1)
    for i, bi in enumerate(m1):
        after -= odd1[i]
        e = -1 if after % 2 and n_sh else 1
        bi_sh = not odd1[i]
        before = 0
        for j, cj in enumerate(m2):
            d = -1 if before % 2 and bi_sh else 1
            before += odd2[j]
            # the bracket block sits at position i + j until the sort
            word = list(m1[:i] + m2[:j] + (None,) + m2[j + 1:] + m1[i + 1:])
            t_min, t_odd = min(min1[i], min2[j]), (odd1[i] + odd2[j] + 1) % 2
            mins = min1[:i] + min2[:j] + [t_min] + min2[j + 1:] + min1[i + 1:]
            odds = odd1[:i] + odd2[:j] + [t_odd] + odd2[j + 1:] + odd1[i + 1:]
            sign = e * d * koszul_sign(mins, odds)
            order = sorted(range(len(word)), key=mins.__getitem__)
            for tree, c in tree_bracket(bi, cj).items():
                word[i + j] = tree
                out[tuple(word[o] for o in order)] = sign * c
    return out
