"""Text grammar for bracket-product expressions, a test helper: the tests
write PoissonElements and BVElements as text and read them back through
this module.  No part of the library reads an expression.

    expr   := term (('+' | '-') term)*
    term   := ('-')* item ('*' item)*
    item   := rational | atom ('@' '{' nums '}')*
    atom   := generator | '[' expr ',' expr ']' | '(' expr ')' | 'D' '(' expr ')'
    gen    := x<digits> | x{<digits>}

'D' and the '@' marking postfix belong to the operator extension.  The one
evaluator, ``eval_ast(node, delta)``, evaluates D through the hook ``delta``
(the BV layer passes its circle operator) and rejects D when no hook is
given; it always rejects markings, which only ``eval_bv_ast`` reads.
Parsing yields a small tuple AST:

    ("gen", i) ("num", q) ("add", a, b) ("sub", a, b) ("neg", a)
    ("mul", a, b) ("br", a, b) ("delta", a) ("mark", a, (i, ...))

The printers, ``element_to_text`` and its tree and monomial parts, live in
``operadkit.poisson`` beside ``PoissonElement.__repr__``.
"""

from __future__ import annotations

import re

from operadkit.bv import BVElement, bv_from_poisson, delta_apply
from operadkit.exact import Q, add_into, koszul_sign
from operadkit.poisson import gen

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+\d*)|([\[\](){}*+,/@-]))")


def tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            tail = text[pos:].strip()
            if not tail:
                break
            raise ValueError("cannot tokenize %r" % tail[:12])
        num, name, sym = m.groups()
        if num is not None:
            out.append(("num", int(num)))
        elif name is not None:
            out.append(("name", name))
        else:
            out.append(("sym", sym))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.take()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ValueError("expected %s, got %r" % (value or kind, tok[1]))
        return tok

    def parse_expr(self):
        node = self.parse_term()
        while self.peek() == ("sym", "+") or self.peek() == ("sym", "-"):
            op = self.take()[1]
            rhs = self.parse_term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self):
        negate = False
        while self.peek() == ("sym", "-"):
            self.take()
            negate = not negate
        node = self.parse_item()
        while self.peek() == ("sym", "*"):
            self.take()
            node = ("mul", node, self.parse_item())
        return ("neg", node) if negate else node

    def parse_item(self):
        kind, value = self.peek()
        if kind == "num":
            self.take()
            q = Q(value)
            if self.peek() == ("sym", "/"):
                self.take()
                q = q / self.expect("num")[1]
            return ("num", q)
        node = self.parse_atom()
        while self.peek() == ("sym", "@"):
            self.take()
            self.expect("sym", "{")
            marks = [self.expect("num")[1]]
            while self.peek() == ("sym", ","):
                self.take()
                marks.append(self.expect("num")[1])
            self.expect("sym", "}")
            node = ("mark", node, tuple(sorted(marks)))
        return node

    def parse_atom(self):
        kind, value = self.take()
        if kind == "name":
            if value == "D":
                self.expect("sym", "(")
                inner = self.parse_expr()
                self.expect("sym", ")")
                return ("delta", inner)
            if value.startswith("x") and value[1:].isdigit():
                return ("gen", int(value[1:]))
            if value == "x" and self.peek() == ("sym", "{"):
                self.take()
                i = self.expect("num")[1]
                self.expect("sym", "}")
                return ("gen", i)
            raise ValueError("unknown name %r" % value)
        if (kind, value) == ("sym", "["):
            left = self.parse_expr()
            self.expect("sym", ",")
            right = self.parse_expr()
            self.expect("sym", "]")
            return ("br", left, right)
        if (kind, value) == ("sym", "("):
            inner = self.parse_expr()
            self.expect("sym", ")")
            return inner
        raise ValueError("unexpected token %r" % (value,))


def parse_expr(text):
    parser = _Parser(tokenize(text))
    node = parser.parse_expr()
    if parser.pos != len(parser.tokens):
        raise ValueError("trailing input at %r" % (parser.peek()[1],))
    return node


def eval_ast(node, delta=None):
    """Evaluate an AST to a PoissonElement or a plain rational scalar; a
    D(e) node applies the hook ``delta`` to the element e."""
    op = node[0]
    if op == "gen":
        return gen(node[1])
    if op == "num":
        return node[1]
    if op == "neg":
        v = eval_ast(node[1], delta)
        return -v if isinstance(v, Q) else v.scale(-1)
    if op == "delta" and delta is not None:
        v = eval_ast(node[1], delta)
        if isinstance(v, Q):
            raise ValueError("D() applies to elements, not scalars")
        return delta(v)
    if op in ("add", "sub"):
        a, b = eval_ast(node[1], delta), eval_ast(node[2], delta)
        if isinstance(a, Q) and isinstance(b, Q):
            return a + b if op == "add" else a - b
        if isinstance(a, Q) or isinstance(b, Q):
            raise ValueError("cannot add a scalar to an element")
        return a + b if op == "add" else a - b
    if op == "mul":
        a, b = eval_ast(node[1], delta), eval_ast(node[2], delta)
        if isinstance(a, Q) and isinstance(b, Q):
            return a * b
        if isinstance(a, Q):
            return b.scale(a)
        if isinstance(b, Q):
            return a.scale(b)
        return a.mul(b)
    if op == "br":
        a, b = eval_ast(node[1], delta), eval_ast(node[2], delta)
        if isinstance(a, Q) or isinstance(b, Q):
            raise ValueError("bracket arguments must be elements")
        return a.bracket(b)
    raise ValueError("operator %r is not part of the plain bracket-product grammar" % op)


def normalize(source):
    """Parse and evaluate to a normal-form element of definite arity.

    Accepts a text expression or an AST node.  Rejects expressions that are
    not multilinear over a contiguous letter range {1..k}.
    """
    node = parse_expr(source) if isinstance(source, str) else source
    value = eval_ast(node)
    if isinstance(value, Q):
        raise ValueError("expression is a bare scalar, not an element")
    value.arity  # raises unless support is {1..k}
    return value


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
