"""Test-only oracle: partial composition of e_b as ``poisson.compose_i``
computed it before it composed monomials directly.  Every term is rebuilt
through ``PoissonElement`` objects: the host block that holds the slot is
re-bracketed letter by letter with the inserted element substituted for the
slot (``_subst_tree``), the other blocks are multiplied back on, and y is
split by edge parity so that its odd part carries the suspension sign
``(-1)^{_slot_twist}``.  Kept so the tests can compare the two term by
term."""

from operadkit.exact import add_into
from operadkit.poisson import (
    PoissonElement,
    from_mono,
    gen,
    is_leaf,
    mono_degree,
    relabel,
    tree_leaves,
    tree_nleaves,
)


def _slot_twist(mono, i):
    """Number of bracket edges enclosing-or-after letter i in the canonical
    edge order (per block innermost first, blocks in order): q - j when i is
    tail letter number j of its block with q edges, q when i is the head,
    plus all edges of later blocks."""
    r = next(idx for idx, t in enumerate(mono) if i in tree_leaves(t))
    block, a = mono[r], 0
    while not is_leaf(block) and block[1] != i:  # down the spine to i's edge
        block, a = block[0], a + 1
    return a + sum(tree_nleaves(t) - 1 for t in mono[r + 1:])


def compose_i(x, y, i):
    """Partial composition: substitute y for letter i of x, each rebuilt
    term carrying the suspension sign (-1)^{A(m,i) e(y)}, where e(y) is the
    edge count of the inserted component and A(m,i) is ``_slot_twist``."""
    k, l = x.arity, y.arity
    if not 1 <= i <= k:
        raise ValueError("slot %d out of range 1..%d" % (i, k))
    xmap = {j: (j if j <= i else j + l - 1) for j in range(1, k + 1)}
    ymap = {j: j + i - 1 for j in range(1, l + 1)}
    xr = relabel(x, xmap)  # order-preserving
    yr = relabel(y, ymap)
    support = frozenset(range(1, k + l))
    out = PoissonElement(support)
    for parity in (0, 1):
        yd = PoissonElement._of(
            yr.support,
            {m: c for m, c in yr.terms.items() if mono_degree(m) % 2 == parity},
        )
        if yd.is_zero():
            continue
        for mono, c in xr.terms.items():
            if parity and _slot_twist(mono, i) % 2:
                c = -c
            pieces = []
            for t in mono:
                if i in tree_leaves(t):
                    pieces.append(_subst_tree(t, i, yd))
                else:
                    pieces.append(from_mono((t,)))
            acc = pieces[0]
            for p in pieces[1:]:
                acc = acc.mul(p)
            add_into(out.terms, acc.terms, c)
    return out


def _subst_tree(t, i, repl):
    if is_leaf(t):
        return repl if t == i else gen(t)
    return _subst_tree(t[0], i, repl).bracket(_subst_tree(t[1], i, repl))
