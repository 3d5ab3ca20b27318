"""Text evaluator for decorated BV elements, used by the tests to write
BVElements as expressions: the plain grammar of ``operadkit.grammar`` with
D(e) through its delta hook, plus the slot-marking postfix e @ {i,...}."""

from operadkit.bv import BVElement, bv_from_poisson, delta_apply
from operadkit.exact import Q, add_into, koszul_sign
from operadkit.grammar import eval_ast, parse_expr


def eval_bv_ast(node):
    """Evaluate a parsed expression tree into a BVElement; supports the
    plain grammar plus D(e) and the slot-marking postfix e @ {i,...}."""
    kind = node[0]
    if kind == "mark":
        inner = eval_bv_ast(node[1])
        added = sorted(set(node[2]))
        terms = {}
        for (mono, marking), c in inner.terms.items():
            new = marking | frozenset(added)
            if len(new) != len(marking) + len(added):
                continue  # doubled marking: exterior square is zero
            # appended letters resort into the ascending marking word
            word = sorted(marking) + added
            add_into(terms, {(mono, new): c}, koszul_sign(word, [1] * len(word)))
        return BVElement(inner.support, terms)
    if kind in ("add", "sub"):
        a, c = eval_bv_ast(node[1]), eval_bv_ast(node[2])
        return a + c if kind == "add" else a - c
    if kind == "neg":
        return -eval_bv_ast(node[1])
    if kind == "mul":
        # scalar coefficients may multiply decorated elements
        left, right = node[1], node[2]
        if left[0] == "num":
            return eval_bv_ast(right).scale(left[1])
        if right[0] == "num":
            return eval_bv_ast(left).scale(right[1])
    value = eval_ast(node, delta_apply)
    if isinstance(value, Q):
        raise ValueError("expression is a bare scalar, not an element")
    return bv_from_poisson(value)


def normalize_bv(source):
    """Parse and evaluate decorated-element text into a BVElement."""
    node = source if isinstance(source, tuple) else parse_expr(source)
    out = eval_bv_ast(node)
    out.arity  # validates contiguous support
    return out
