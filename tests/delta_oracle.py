"""The Delta-matrix path as it was before each slice was built once: every
degree enumerates its own two slices, the matrix is a dict keyed by
(row, col), rows are eliminated in natural order with a back-substitution
scan over every earlier row, kernel vectors are dense tuples, and each
kernel vector is certified by its own ``delta_apply``.  Kept as an oracle
for ``operadkit.gravity``, which must give the same elements, term for
term, and the same reports.

``borel_homology`` has no caller in ``src/`` and lives here with the tests
that use it; it runs on the current slice builder."""

from fractions import Fraction as Q

from operadkit.bv import delta_apply
from operadkit.exact import GradedDims, add_into, scalar
from operadkit.gravity import _degree_slices, _delta_slice
from operadkit.operads import CheckReport
from operadkit.poisson import PoissonElement, check_bracket_degree, enumerate_basis


class EntryMatrix:
    """Entries in a dict (row, col) -> scalar, no stored zeros."""

    def __init__(self, rows, cols, entries=None):
        self.rows = int(rows)
        self.cols = int(cols)
        self.entries = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError("entry (%d,%d) out of range" % (r, c))
            v = scalar(v)
            if v:
                self.entries[(r, c)] = v

    def mat_vec(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [0] * self.rows
        for (r, c), v in self.entries.items():
            if vec[c]:
                out[r] += v * vec[c]
        return out

    def echelon(self):
        """Fully reduced rows, pivot -> row, admitted in natural order."""
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        echelon = {}
        for vec in rows:
            row = {c: v for c, v in vec.items() if v}
            for p, f in [(p, f) for p, f in row.items() if p in echelon]:
                add_into(row, echelon[p], -f)
            if not row:
                continue
            p = min(row)
            inv = scalar(Q(1) / row[p])
            if inv != 1:
                for c in row:
                    row[c] = scalar(row[c] * inv)
            for other in echelon.values():
                f = other.get(p)
                if f:
                    add_into(other, row, -f)
            echelon[p] = row
        return echelon

    def rank(self):
        return len(self.echelon())

    def kernel_basis(self):
        """Dense tuples, one per free column in ascending order."""
        echelon = self.echelon()
        basis = {c: [0] * self.cols for c in range(self.cols) if c not in echelon}
        for c, vec in basis.items():
            vec[c] = 1
        for p, row in echelon.items():
            for c, v in row.items():
                if c != p:
                    basis[c][p] = -v
        return [tuple(vec) for vec in basis.values()]


def delta_matrix(k, degree, b=1):
    """Matrix of Delta from the degree slice to the degree+b slice, columns
    and rows in enumeration order."""
    cols = enumerate_basis(k, degree=degree, b=b)
    rows = enumerate_basis(k, degree=degree + b, b=b)
    row_index = {mono: r for r, mono in enumerate(rows)}
    support = frozenset(range(1, k + 1))
    entries = {}
    for c, mono in enumerate(cols):
        image = delta_apply(PoissonElement(support, {mono: 1}))
        for m, v in image.terms.items():
            entries[(row_index[m], c)] = v
    return EntryMatrix(len(rows), len(cols), entries), cols, rows


def gravity_basis(k, b=1):
    if k < 2:
        raise ValueError("gravity model starts at arity 2")
    check_bracket_degree(b)
    support = frozenset(range(1, k + 1))
    elements = {}
    for j in range(k):
        degree = b * j
        matrix, cols, _ = delta_matrix(k, degree, b)
        kernel = matrix.kernel_basis()
        if not kernel:
            continue
        span = []
        for vec in kernel:
            x = PoissonElement(
                support, {cols[c]: vec[c] for c in range(len(cols)) if vec[c]}
            )
            if not delta_apply(x).is_zero():
                raise AssertionError("kernel vector fails its certificate")
            span.append(x)
        elements[degree] = span
    return elements


def check_free_module(k, b=1):
    if k < 2:
        raise ValueError(
            "arity 1 rejected: Delta = 0 there, so the kernel is not the image"
        )
    rep = CheckReport(
        "gravity-free-module-%d-b%d" % (k, b),
        "ker Delta equals im Delta in every degree and has total dimension k!/2",
        {"arity": k, "bracket_degree": b},
    )
    total = 0
    dims = {}
    ranks = {}
    for j in range(k):
        degree = b * j
        matrix, cols, _ = delta_matrix(k, degree, b)
        ranks[degree] = matrix.rank()
        dims[degree] = len(cols)
    for j in range(k):
        degree = b * j
        ker_dim = dims[degree] - ranks[degree]
        im_dim = ranks.get(degree - b, 0)
        total += ker_dim
        ok = ker_dim == im_dim
        rep.count(
            ok,
            None
            if ok
            else "degree %d: dim ker = %d, dim im = %d" % (degree, ker_dim, im_dim),
        )
    expected = 1
    for j in range(2, k + 1):
        expected *= j
    expected //= 2
    rep.count(
        total == expected,
        None if total == expected else "total %d != %d" % (total, expected),
    )
    return rep


def borel_homology(k, b=1):
    """Cokernel dimensions of Delta per degree; for k >= 2 they reproduce
    the kernel table shifted down by b."""
    if k < 1:
        raise ValueError("arity must be positive")
    out = {}
    prev_rank = 0
    slices = _degree_slices(k, b)
    for degree, cols in slices.items():
        out[degree] = len(cols) - prev_rank
        prev_rank = _delta_slice(k, slices, degree, b).rank()
    return GradedDims(out)
