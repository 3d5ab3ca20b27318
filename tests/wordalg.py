"""Independent tensor-word oracle for the Lie layer.

A bracket tree on distinct letters expands into the free associative algebra
by [u, v] = uv - (-1)^{||u|| ||v||} vu, where ||.|| is the shifted parity
(leaf count mod 2, the bracket having odd degree).  Words are tuples of
letters; an expansion is a dict word -> integer.

Left-combed trees with minimal head are triangular in this model: the comb
(m, t1, ..., tn) contains the word (m, t1, ..., tn) with coefficient +1 and
no other word starting with the minimal letter m, so the m-leading words of
an expansion determine the normal form.  This path shares no code with the
rewriting engine.
"""

from __future__ import annotations

from operadkit.exact import add_into
from operadkit.poisson import is_leaf, tree_nleaves


def tree_to_words(t):
    """Expansion of a bracket tree; dict word tuple -> int coefficient."""
    if is_leaf(t):
        return {(t,): 1}
    wl = tree_to_words(t[0])
    wr = tree_to_words(t[1])
    # -(-1)^{||left|| ||right||}
    sign = 1 if (tree_nleaves(t[0]) * tree_nleaves(t[1])) % 2 else -1
    out = {}
    for u, cu in wl.items():
        for v, cv in wr.items():
            add_into(out, {u + v: 1, v + u: sign}, cu * cv)
    return out


def combination_to_words(trees):
    """Expansion of a dict {tree: coefficient}."""
    out = {}
    for t, c in trees.items():
        add_into(out, tree_to_words(t), c)
    return out
