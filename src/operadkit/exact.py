"""Exact scalars, graded bookkeeping, Koszul signs, and exact linear algebra.

Everything downstream computes over the rationals with no rounding anywhere:
scalars are ``int`` when integral, else ``fractions.Fraction`` (``scalar``
normalises), dimensions live in ``GradedDims`` (a thin degree -> dimension
mapping), and permutations are index tuples.

``koszul_sign(perm, degrees)`` is the one sign rule for reordering graded
letters: the BV marking words, the finite-group parity, the Koszul correction
of total composition and the string-operation Jacobi sums all call it.

A finite linear combination is a sparse dict key -> nonzero scalar, and the
one sparse axpy, ``add_into(acc, terms, c)``, adds ``c * terms`` into ``acc``
in place, dropping keys that cancel.  ``LinComb`` holds such a dict over a
letter set and carries the vector-space operations shared by poisson and BV
elements; the same ``add_into`` serves the plain dict vectors of the string
bracket presentations.

All exact linear algebra goes through one incremental kernel, ``Echelon``,
which keeps only a fully reduced row echelon form, in primitive int rows:
vectors are admitted one at a time, so a span is grown and tested without
eliminating anything twice (the rank of a list of vectors is ``rank`` after
admitting them), and null spaces come out of the unique reduced form,
identical for identical inputs, as sparse dicts.  The elimination subtracts
rows in its own loops, not through ``add_into``.  ``SparseMatrix`` stores a
matrix as its row dicts and admits them last row first: the order changes
the work, not the reduced form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Q = Fraction

# ---------------------------------------------------------------------------
# graded dimension tables


class GradedDims(dict):
    """Finitely supported mapping degree -> nonnegative dimension.

    Zero values are dropped so equality is support equality.
    """

    def __init__(self, items=()):
        super().__init__()
        data = dict(items)
        for d, n in data.items():
            if n < 0:
                raise ValueError("negative dimension at degree %s" % d)
            if n:
                self[int(d)] = int(n)

    def shifted(self, by):
        """Same table with every degree translated by ``by``."""
        return GradedDims({d + by: n for d, n in self.items()})

    def scaled_degrees(self, factor):
        """Same table with every degree multiplied by ``factor``."""
        return GradedDims({d * factor: n for d, n in self.items()})

    def __str__(self):
        return "{%s}" % ", ".join("%d: %d" % (d, self[d]) for d in sorted(self))

    def __repr__(self):
        return "GradedDims(%s)" % self


def poly_coeffs_product(factors):
    """Coefficient table of a product of integer polynomials in t.

    ``factors`` is an iterable of coefficient lists (index = exponent).
    Returns a GradedDims keyed by exponent.  Pure integer arithmetic,
    independent of any basis enumeration; used as a dimension oracle.
    """
    coeffs = [1]
    for f in factors:
        out = [0] * (len(coeffs) + len(f) - 1)
        for i, a in enumerate(coeffs):
            if not a:
                continue
            for j, b in enumerate(f):
                out[i + j] += a * b
        coeffs = out
    return GradedDims({i: c for i, c in enumerate(coeffs) if c})


# ---------------------------------------------------------------------------
# permutations
#
# A permutation of {1..k} is a tuple p of length k with p[i-1] = image of i.


def perm_identity(k):
    return tuple(range(1, k + 1))


def perm_inverse(perm):
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[v - 1] = i + 1
    return tuple(out)


def perm_transposition(k, a, b):
    out = list(range(1, k + 1))
    out[a - 1], out[b - 1] = b, a
    return tuple(out)


def perm_block_insert(sigma, i, tau):
    """The permutation of {1..k+l-1} obtained by inserting the block ``tau``
    (of size l) at slot ``i`` of ``sigma`` (of size k).

    This is the index bookkeeping of partial composition: slots of the
    composite are x's slots below i, then y's l slots, then x's slots above
    i; the image positions expand sigma(i) into an l-wide block ordered by
    tau and shift everything above sigma(i) up by l-1.
    """
    k, l = len(sigma), len(tau)
    si = sigma[i - 1]

    def out_of(v):
        return v if v < si else v + l - 1

    images = []
    for pos in range(1, k + l):
        if pos < i:
            images.append(out_of(sigma[pos - 1]))
        elif pos < i + l:
            images.append(si - 1 + tau[pos - i])
        else:
            images.append(out_of(sigma[pos - l]))
    return tuple(images)


def koszul_sign(perm, degrees):
    """Sign of permuting graded symbols: symbol at position i (degree
    degrees[i-1]) moves to position perm(i); each transposed odd-odd pair
    contributes -1.  Only the order of the targets matters, so perm may be
    any sequence of distinct comparable values.
    """
    if len(perm) != len(degrees):
        raise ValueError("size mismatch: %d vs %d" % (len(perm), len(degrees)))
    sign = 1
    k = len(perm)
    for i in range(k):
        if degrees[i] % 2 == 0:
            continue
        for j in range(i + 1, k):
            if degrees[j] % 2 and perm[i] > perm[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# sparse exact linear algebra


def scalar(v):
    """v as an int when it is integral, else as a Fraction."""
    if type(v) is int:
        return v
    v = Q(v)
    return v.numerator if v.denominator == 1 else v


def add_into(acc, terms, c=1):
    """acc += c * terms, in place over sparse dicts; keys whose coefficient
    cancels are dropped.  Returns acc.  Only ever pass an ``acc`` the caller
    owns: never a cached or stored dict."""
    get = acc.get
    for k, v in terms.items():
        nv = get(k, 0) + c * v
        if nv:
            acc[k] = nv
        else:
            acc.pop(k, None)
    return acc


class LinComb:
    """Finitely supported exact combination ``terms`` (key -> nonzero
    scalar, int when integral, else Fraction) over the letters ``support``.

    Subclasses supply the validating constructor; the operations here build
    results through ``_of``, which trusts its already clean terms.  Every
    operation returns a new element except ``add_scaled``, which adds into
    ``self`` and is meant for accumulators the caller created.
    """

    __slots__ = ("support", "terms")

    @classmethod
    def _of(cls, support, terms):
        out = object.__new__(cls)
        out.support = support
        out.terms = terms
        return out

    @property
    def arity(self):
        k = len(self.support)
        if self.support != frozenset(range(1, k + 1)):
            raise ValueError("support %s is not {1..%d}" % (sorted(self.support), k))
        return k

    def is_zero(self):
        return not self.terms

    def scale(self, q):
        q = scalar(q)
        if not q:
            return self._of(self.support, {})
        return self._of(self.support, {m: c * q for m, c in self.terms.items()})

    def add_scaled(self, other, c=1):
        """self += c * other, in place; returns self."""
        if self.support != other.support:
            raise ValueError("support mismatch in sum")
        add_into(self.terms, other.terms, c)
        return self

    def __add__(self, other):
        return self._of(self.support, dict(self.terms)).add_scaled(other)

    def __sub__(self, other):
        return self._of(self.support, dict(self.terms)).add_scaled(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.support == other.support
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.support, frozenset(self.terms.items())))


def _clear_denominators(vec):
    """Scale vec in place by the lcm of its entries' denominators, to ints;
    returns the lcm."""
    den = lcm(*(v.denominator for v in vec.values()))
    for c, v in vec.items():
        vec[c] = v.numerator * (den // v.denominator)
    return den


def _primitive(row, p):
    """Divide the int row in place by its content (the gcd of its entries),
    signed to make its entry at p positive; returns that entry."""
    g = gcd(*row.values())
    if row[p] < 0:
        g = -g
    if g != 1:
        for c in row:
            row[c] //= g
    return row[p]


def _eliminate(vec, row, p, a):
    """vec <- (a/g).vec - (f/g).row in place, where row has the entry a at
    its pivot p, the int vec holds f there, and g = gcd(a, f); returns a/g."""
    f = vec[p]
    g = gcd(a, f)
    m, f = a // g, f // g
    if m != 1:
        for c in vec:
            vec[c] *= m
    get = vec.get
    for c, v in row.items():
        nv = get(c, 0) - f * v
        if nv:
            vec[c] = nv
        else:
            del vec[c]
    return m


class SparseMatrix:
    """Sparse matrix over the rationals, stored as ``rows``: a list of dicts
    col -> nonzero scalar, 0-indexed, which the matrix keeps as given.

    ``rank`` and ``kernel_basis`` admit the rows into an ``Echelon`` last
    row first.  The reduced echelon form is unique, so the order changes the
    work, never the rows.  On the seven arity-7 Delta slices, last-first
    admission makes 50 back-substitution row updates, against 30,465 in
    natural order, for a third more work in the reduction itself.
    """

    def __init__(self, cols, rows):
        self.cols = int(cols)
        self.rows = list(rows)
        for row in self.rows:
            if row and not (0 <= min(row) and max(row) < self.cols):
                raise ValueError("row %r has a column outside 0..%d" % (row, self.cols - 1))

    def _echelon(self):
        ech = Echelon()
        for row in reversed(self.rows):
            ech.add(row)
        return ech

    def rank(self):
        return self._echelon().rank

    def kernel_basis(self):
        """Basis of the null space as sparse dicts, deterministic: one vector
        per free column, in ascending order (see ``Echelon.kernel_basis``)."""
        return self._echelon().kernel_basis(self.cols)


class Echelon:
    """Incremental fully reduced row echelon form over the rationals, in int
    rows: Bareiss's integer-preserving elimination ("Sylvester's identity
    and multistep integer-preserving Gaussian elimination", Math. Comp.
    1968), without the determinant bookkeeping.

    Vectors are sparse dicts col -> scalar (int when integral, else
    Fraction).  ``rows`` maps each pivot column to its row: a primitive int
    dict with a positive entry at the pivot, its smallest column, and 0 at
    every other pivot column, so ``reduce`` visits only the pivot columns
    present in the vector.  A row with pivot entry 1 is subtracted in one
    loop.  At a pivot entry a != 1, listed in ``scaled`` (empty while the
    pivots met are +-1), a vector holding f there, its Fractions cleared,
    becomes (a/g).vec - (f/g).row with g = gcd(a, f).  A new pivot p is
    back-substituted the same way, only when some row has ever held column
    p, and each changed row is divided by its content, which is 1 when both
    pivot entries are 1.  Each row divided by its pivot entry is the unique
    reduced echelon form of the span, whatever the order of ``add``, and
    the rows are all that is kept.
    """

    def __init__(self):
        self.rows = {}
        self.scaled = {}  # pivot -> its entry, where that is not 1
        self.touched = set()  # every column any row has held

    @property
    def rank(self):
        return len(self.rows)

    def _scaled_remainder(self, vec):
        """(out, s): a new dict out = s times the remainder of vec against
        the rows, for an int s >= 1."""
        out = dict(vec) if all(vec.values()) else {c: v for c, v in vec.items() if v}
        rows, scaled = self.rows, self.scaled
        s = 1
        # a Fraction entry makes the sum a Fraction; the Bareiss step takes ints
        if scaled and type(sum(out.values())) is not int:
            s = _clear_denominators(out)
        get = out.get
        for p in [p for p in out if p in rows]:
            if p in scaled:
                s *= _eliminate(out, rows[p], p, scaled[p])
                continue
            f = out[p]
            for c, v in rows[p].items():
                nv = get(c, 0) - f * v
                if nv:
                    out[c] = nv
                else:
                    del out[c]
        return out, s

    def reduce(self, vec):
        """The remainder of vec against the rows, exact: a new dict, empty
        exactly when vec lies in the span, with ints where integral."""
        out, s = self._scaled_remainder(vec)
        if s == 1 and type(sum(out.values())) is int:
            return out
        return {c: scalar(Q(v, s)) for c, v in out.items()}

    def add(self, vec):
        """Admit vec unless it lies in the span; True when it was admitted."""
        row = self._scaled_remainder(vec)[0]
        if not row:
            return False
        p = min(row)
        if type(sum(row.values())) is not int:
            _clear_denominators(row)
        a = row[p]
        if a == -1:
            for c in row:
                row[c] = -row[c]
            a = 1
        elif a != 1:
            a = _primitive(row, p)
            if a != 1:
                self.scaled[p] = a
        if p in self.touched:
            scaled = self.scaled
            for q, other in self.rows.items():
                if p not in other:
                    continue
                _eliminate(other, row, p, a)
                if a != 1 or q in scaled:
                    b = _primitive(other, q)
                    if b == 1:
                        scaled.pop(q, None)
                    else:
                        scaled[q] = b
        self.touched.update(row)
        self.rows[p] = row
        return True

    def kernel_basis(self, cols):
        """Basis of the vectors of length ``cols`` orthogonal to every row,
        as sparse dicts col -> scalar with ascending keys: one per free
        column c, with 1 at c and -row[c]/row[p] at each pivot p whose row
        meets c.  Entries are ints when integral."""
        basis = {c: {c: 1} for c in range(cols) if c not in self.rows}
        for p, row in self.rows.items():
            a = row[p]
            for c, v in row.items():
                if c != p:
                    basis[c][p] = -v if a == 1 else scalar(Q(-v, a))
        return [{c: vec[c] for c in sorted(vec)} for vec in basis.values()]


def parse_rational(text):
    """Parse 'p/q' or 'p', or an int, into a Fraction (exact).  Anything
    else raises ValueError: a bool is not read as 0 or 1."""
    if type(text) is int:
        return Q(text)
    if type(text) is not str:
        raise ValueError("expected an int or a 'p/q' string, got %r" % (text,))
    s = text.strip()
    if "/" in s:
        p, q = s.split("/")
        return Q(int(p), int(q))
    return Q(int(s))


def format_rational(q):
    q = Q(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)
