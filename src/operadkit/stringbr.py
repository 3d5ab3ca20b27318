"""Data-driven string brackets on finite BV presentations.

A presentation is a graded basis with product structure constants and a
degree +1 square-zero operator D.  The loop bracket is the deviation of D
from being a derivation,

    [a, c] = D(a.c) - D(a).c - (-1)^{|a|} a.D(c),

and its graded antisymmetry, Jacobi and Leibniz laws are checked at the
shifted degrees |a| + 1, reported as findings with witness triples rather
than raised: the laws hold for honest BV data but can fail for data that
merely satisfies the loader invariants.

A transfer pair adds a graded module B with maps tau: B -> A of degree +1
and p: A -> B of degree 0 subject to D = tau o p and p o tau = 0.  The
string operations are

    m_bar_k(a_1, ..., a_k) = p(tau(a_1) ... tau(a_k)),  k >= 2,

graded symmetric at the shifted degrees, and they satisfy the generalized
Jacobi relation of a gravity algebra, which verify_gravity_algebra sweeps
over all basis argument tuples.  transfer_lie_check confirms the forced
identity tau(m_bar_2(a, b)) = D(tau(a).tau(b)).

The law sweeps read basis tables built once per check and dropped when it
returns: the product rows and columns and the normalized bracket on basis
pairs in structure_errors and validate_bv, and m_bar on basis tuples in
verify_gravity_algebra.  A law with one vector argument is expanded
linearly in it over the table, so every value stays exact.  The sweeps are
driven by the support of the tables, which are almost all zero: a term
nesting two bilinear maps at a basis triple is a sum of products of their
structure constants, so it is exactly zero unless both factors are stored
(_nested_triples), and a law whose terms are all zero holds.  Only the
triples where some term can be nonzero are checked, in lexicographic order,
so the witnesses are those of the sweep over every triple.

Matrix convention for data files: column j of "delta" is D applied to the
j-th basis element, column j of "tau" is the tau-image of the j-th
B-element, column j of "p" is the p-image of the j-th A-element.  Missing
product entries default to zero; a missing (j, i) entry is filled from
(i, j) by graded commutativity.  Rationals are "p/q" strings or integers.

BVAlgebraData and EquivariantPair are plain records: pair_from_dict and
validate_bv check the laws of the data they read, and the tests certify
the honest data free_bv_presentation and pair_from_presentation build.
"""

from __future__ import annotations

import itertools

from . import bv
from .exact import (
    Echelon, add_into, format_rational, koszul_sign, parse_rational, perm_inverse, scalar
)
from .operads import CheckReport, require_at_least
from .poisson import PoissonElement, enumerate_basis, gen, mono_degree


def _vec_eq(u, v, c=1):
    """u == c * v for sparse vectors, stored zeros ignored."""
    return not any(add_into(dict(u), v, -c).values())


def _apply(cols, u):
    """Image of the sparse vector u under the matrix with sparse columns
    cols (column j is the image of basis vector j)."""
    out = {}
    for j, c in u.items():
        add_into(out, cols.get(j, {}), c)
    return out


def format_vec(vec, names):
    if not vec:
        return "0"
    parts = []
    for i in sorted(vec):
        c = vec[i]
        parts.append("%s*%s" % (format_rational(c), names[i]))
    return " + ".join(parts)


class BVAlgebraData:
    """Finite graded-commutative associative algebra with a square-zero
    degree +1 operator; structure_errors lists the laws it breaks."""

    __slots__ = ("names", "degrees", "product", "delta")

    def __init__(self, names, degrees, product, delta):
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self.product = product
        self.delta = delta

    @property
    def dim(self):
        return len(self.names)

    def mul(self, u, v):
        out = {}
        for i, ci in u.items():
            for j, cj in v.items():
                entry = self.product.get((i, j))
                if entry:
                    add_into(out, entry, ci * cj)
        return out

    def bracket(self, i, j):
        """Deviation bracket of two basis elements."""
        a, c = {i: 1}, {j: 1}
        out = _apply(self.delta, self.mul(a, c))
        add_into(out, self.mul(_apply(self.delta, a), c), -1)
        sign = -1 if self.degrees[i] % 2 else 1
        return add_into(out, self.mul(a, _apply(self.delta, c)), -sign)


def _product_tables(data):
    """Rows and columns of the product table, built once per check:
    prow[j][m] = pcol[m][j] = e_j.e_m, so u.e_m = _apply(pcol[m], u) and
    e_j.v = _apply(prow[j], v)."""
    prow = [{} for _ in range(data.dim)]
    pcol = [{} for _ in range(data.dim)]
    for (j, m), entry in data.product.items():
        prow[j][m] = pcol[m][j] = entry
    return prow, pcol


def _nested_triples(inner, outer_rows, outer_cols):
    """Basis triples (i, j, k) where outer(inner(e_i, e_j), e_k) or
    outer(e_i, inner(e_j, e_k)) can be nonzero.  The bilinear maps are row
    tables, inner[a][b] = inner(e_a, e_b) stored only when nonzero, and outer
    also as columns, outer_cols[b][a] = outer_rows[a][b].

    outer(inner(e_i, e_j), e_k) is the sum over m of inner(e_i, e_j)_m times
    outer(e_m, e_k), so it is exactly {} unless some m stored in inner[i][j]
    has outer_rows[m][k] stored.  Likewise outer(e_i, inner(e_j, e_k)) is {}
    unless some m stored in inner[j][k] has outer_cols[m][i] stored.  A law
    whose terms all have this shape therefore compares {} with {}, and
    holds, at every triple outside the returned set."""
    out = set()
    for a, row in enumerate(inner):
        for b, vec in row.items():
            for m in vec:
                out.update((a, b, k) for k in outer_rows[m])
                out.update((i, a, b) for i in outer_cols[m])
    return out


def structure_errors(data):
    """Witness strings for every violated loader invariant.

    Graded commutativity is checked at the pairs where e_i e_j or e_j e_i
    is stored, and associativity only at the triples _nested_triples gives
    for the product: at every other triple both (e_i e_j) e_k and
    e_i (e_j e_k) are exactly {}.  Pairs and triples are visited in sorted
    order, so the errors are those of the sweep over all n^2 pairs and n^3
    triples, in the same order."""
    errors = []
    n = data.dim
    names, deg = data.names, data.degrees
    for (i, j), entry in sorted(data.product.items()):
        for m, c in sorted(entry.items()):
            if c and deg[m] != deg[i] + deg[j]:
                errors.append(
                    "product %s*%s hits %s of wrong degree"
                    % (names[i], names[j], names[m])
                )
    for i, j in sorted(set(data.product) | {(j, i) for i, j in data.product}):
        lhs = data.product.get((i, j), {})
        sign = koszul_sign((2, 1), (deg[i], deg[j]))
        if not _vec_eq(lhs, data.product.get((j, i), {}), sign):
            errors.append("graded commutativity fails at (%s, %s)" % (names[i], names[j]))
    prow, pcol = _product_tables(data)
    for i, j, k in sorted(_nested_triples(prow, prow, pcol)):
        lhs = _apply(pcol[k], prow[i].get(j, {}))
        rhs = _apply(prow[i], prow[j].get(k, {}))
        if not _vec_eq(lhs, rhs):
            errors.append(
                "associativity fails at (%s, %s, %s)" % (names[i], names[j], names[k])
            )
    for j, col in sorted(data.delta.items()):
        for r, c in sorted(col.items()):
            if c and deg[r] != deg[j] + 1:
                errors.append("delta(%s) has a degree %d term" % (names[j], deg[r]))
    for j in range(n):
        if not _vec_eq(_apply(data.delta, data.delta.get(j, {})), {}):
            errors.append("delta^2(%s) is nonzero" % names[j])
    return errors


# ---------------------------------------------------------------------------
# loading from plain dictionaries


class PairDataError(ValueError):
    """Pair data that is not a JSON object, lacks a field it needs or has a
    field of the wrong shape, as opposed to loaded data that breaks an
    algebra or pair law."""


def _parse_basis(raw, field):
    if not isinstance(raw, (list, tuple)):
        raise PairDataError("%s must be a list, got %s" % (field, type(raw).__name__))
    names, degrees = [], []
    for n, entry in enumerate(raw):
        if not isinstance(entry, dict) or "name" not in entry or "degree" not in entry:
            raise PairDataError(
                "%s entry %d must be an object with a name and a degree, got %r"
                % (field, n, entry)
            )
        if type(entry["degree"]) is not int:
            raise PairDataError(
                "%s entry %d degree must be an int, got %r" % (field, n, entry["degree"])
            )
        names.append(str(entry["name"]))
        degrees.append(entry["degree"])
    if len(set(names)) != len(names):
        repeated = sorted({n for n in names if names.count(n) > 1})
        raise PairDataError("%s names must be distinct, got %s" % (field, repeated))
    return tuple(names), tuple(degrees)


def _rational(val, where, *args):
    """A coefficient of the wire format: an int or a "p/q" string.  Raises
    PairDataError naming the entry (where % args) for anything else, where
    parse_rational would raise a bare ValueError that names no entry."""
    if type(val) in (int, str):
        try:
            return parse_rational(val)
        except (ValueError, ZeroDivisionError):
            pass
    raise PairDataError(
        (where + " must be an int or a 'p/q' string, got %r") % (args + (val,))
    )


def _parse_matrix_cols(rows, nrows, ncols, what):
    if not isinstance(rows, (list, tuple)) or not all(
        isinstance(r, (list, tuple)) for r in rows
    ):
        raise PairDataError("%s must be a list of rows" % what)
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise PairDataError("%s matrix must be %d x %d" % (what, nrows, ncols))
    cols = {}
    for r, row in enumerate(rows):
        for c, val in enumerate(row):
            q = _rational(val, "%s row %d column %d", what, r, c)
            if q:
                cols.setdefault(c, {})[r] = q
    return cols


def bv_data_from_dict(raw):
    names, degrees = _parse_basis(raw["basis"], "basis")
    n = len(names)
    product, items = {}, raw.get("product", [])
    if not isinstance(items, (list, tuple)):
        raise PairDataError("product must be a list, got %s" % type(items).__name__)
    for e, item in enumerate(items):
        if not (isinstance(item, (list, tuple)) and len(item) == 3
                and all(type(x) is int for x in item[:2])
                and isinstance(item[2], (list, tuple))):
            raise PairDataError(
                "product entry %d must be a list [i, j, coeffs], got %r" % (e, item)
            )
        i, j, coeffs = item
        if not (0 <= i < n and 0 <= j < n) or len(coeffs) != n:
            raise PairDataError(
                "product entry %d needs indices in 0..%d and %d coefficients, got %r"
                % (e, n - 1, n, item)
            )
        entry = {
            m: _rational(c, "product entry %d coefficient %d", e, m)
            for m, c in enumerate(coeffs)
        }
        product[(i, j)] = {m: c for m, c in entry.items() if c}
    for (i, j) in list(product):
        if (j, i) not in product:
            sign = koszul_sign((2, 1), (degrees[i], degrees[j]))
            product[(j, i)] = add_into({}, product[(i, j)], sign)
    delta = _parse_matrix_cols(raw.get("delta", [[0] * n for _ in range(n)]), n, n, "delta")
    return BVAlgebraData(names, degrees, product, delta)


# ---------------------------------------------------------------------------
# validation with findings


class BVValidation:
    """Outcome of validating raw presentation data: hard loader errors, or
    a loaded algebra plus law findings for the derived bracket."""

    __slots__ = ("errors", "findings", "data", "bracket_table")

    def __init__(self, errors, findings, data, bracket_table):
        self.errors = errors
        self.findings = findings
        self.data = data
        self.bracket_table = bracket_table

    @property
    def accepted(self):
        return not self.errors

    def lines(self):
        out = []
        if self.errors:
            out.append("REJECT %d structural errors" % len(self.errors))
            out.extend("  " + e for e in self.errors)
            return out
        out.append("ACCEPT dim %d presentation" % self.data.dim)
        for (i, j), vec in sorted(self.bracket_table.items()):
            if vec:
                out.append(
                    "  [%s, %s] = %s"
                    % (
                        self.data.names[i],
                        self.data.names[j],
                        format_vec(vec, self.data.names),
                    )
                )
        for law, witness in self.findings:
            out.append("  FINDING %s fails at %s" % (law, witness))
        return out


def validate_bv(raw):
    """Load raw data and derive the deviation bracket; bracket-law failures
    are findings with witness triples, not errors.

    The reported bracket is the deviation itself.  The odd Lie laws are
    stated for its normalization (-1)^{|a|} [a, c], which removes the
    left-degree twist the deviation formula carries; at that normalization
    antisymmetry, Jacobi and Leibniz take the usual shifted-degree form.

    The bracket table has every basis pair as a key, but [e_i, e_j] is
    computed only where e_i e_j, D(e_i) e_j or e_i D(e_j) is stored; each
    term of the deviation is {} otherwise.  Each law at a basis triple has
    at most one vector argument (a bracket or a product of two basis
    elements), and is expanded linearly in it over the bracket and product
    tables.  Antisymmetry is checked where the bracket of the pair or of its
    transpose is nonzero.  Every term of Jacobi and Leibniz nests two of
    the tables, with the first two arguments in either order, so both laws
    are checked only at the triples _nested_triples allows, and their
    transposes; both sides are {} at every other triple.  The findings come
    in the order of the sweep over all pairs, then all triples.
    """
    try:
        data = bv_data_from_dict(raw)
    except (ValueError, KeyError, TypeError) as err:
        return BVValidation(["unreadable data: %s" % err], [], None, {})
    errors = structure_errors(data)
    if errors:
        return BVValidation(errors, [], None, {})
    names, deg, n = data.names, data.degrees, data.dim
    prow, pcol = _product_tables(data)
    pairs = set(data.product)
    for j, col in data.delta.items():
        for m in col:
            pairs.update((j, k) for k in prow[m])  # D(e_j) e_k
            pairs.update((i, j) for i in pcol[m])  # e_i D(e_j)
    table = {
        (i, j): data.bracket(i, j) if (i, j) in pairs else {}
        for i in range(n)
        for j in range(n)
    }
    # Basis tables of the nonzero brackets: brow[i][j] = bcol[j][i] is the
    # normalized bracket (-1)^{|i|} [e_i, e_j], so [e_i, v] = _apply(brow[i], v)
    # and [u, e_k] = _apply(bcol[k], u); the product is read the same way.
    brow = [{} for _ in range(n)]
    bcol = [{} for _ in range(n)]
    for (i, j), vec in table.items():
        if vec:
            brow[i][j] = bcol[j][i] = add_into({}, vec, -1 if deg[i] % 2 else 1)

    findings = []
    nonzero = {(i, j) for i in range(n) for j in brow[i]}
    for i, j in sorted(nonzero | {(j, i) for i, j in nonzero}):
        sign = koszul_sign((2, 1), (deg[i] + 1, deg[j] + 1))
        if not _vec_eq(brow[i].get(j, {}), brow[j].get(i, {}), -sign):
            findings.append(("antisymmetry", "(%s, %s)" % (names[i], names[j])))
    triples = (
        _nested_triples(brow, brow, bcol)
        | _nested_triples(prow, brow, bcol)
        | _nested_triples(brow, prow, pcol)
    )
    for i, j, k in sorted(triples | {(j, i, k) for i, j, k in triples}):
        lhs = _apply(brow[i], brow[j].get(k, {}))
        rhs = _apply(bcol[k], brow[i].get(j, {}))
        sign = koszul_sign((2, 1), (deg[i] + 1, deg[j] + 1))
        add_into(rhs, _apply(brow[j], brow[i].get(k, {})), sign)
        if not _vec_eq(lhs, rhs):
            findings.append(("jacobi", "(%s, %s, %s)" % (names[i], names[j], names[k])))
        lhs = _apply(brow[i], prow[j].get(k, {}))
        rhs = _apply(pcol[k], brow[i].get(j, {}))
        sign = koszul_sign((2, 1), (deg[i] + 1, deg[j]))
        add_into(rhs, _apply(prow[j], brow[i].get(k, {})), sign)
        if not _vec_eq(lhs, rhs):
            findings.append(("leibniz", "(%s, %s, %s)" % (names[i], names[j], names[k])))
    return BVValidation([], findings, data, table)


# ---------------------------------------------------------------------------
# transfer pairs


class EquivariantPair:
    """Algebra A with module B, transfer tau (degree +1) and projection p
    (degree 0) satisfying D = tau o p and p o tau = 0 (see pair_errors)."""

    __slots__ = ("A", "b_names", "b_degrees", "tau", "p")

    def __init__(self, A, b_names, b_degrees, tau, p):
        self.A = A
        self.b_names = tuple(b_names)
        self.b_degrees = tuple(b_degrees)
        self.tau = tau
        self.p = p

    @property
    def b_dim(self):
        return len(self.b_names)


def pair_errors(pair):
    errors = []
    A = pair.A
    for j, col in sorted(pair.tau.items()):
        for r, c in sorted(col.items()):
            if c and A.degrees[r] != pair.b_degrees[j] + 1:
                errors.append("tau(%s) is not of degree +1" % pair.b_names[j])
    for j, col in sorted(pair.p.items()):
        for r, c in sorted(col.items()):
            if c and pair.b_degrees[r] != A.degrees[j]:
                errors.append("p(%s) is not of degree 0" % A.names[j])
    for j in range(A.dim):
        lhs = A.delta.get(j, {})
        rhs = _apply(pair.tau, pair.p.get(j, {}))
        if not _vec_eq(lhs, rhs):
            errors.append("delta != tau o p at %s" % A.names[j])
    for j in range(pair.b_dim):
        if not _vec_eq(_apply(pair.p, pair.tau.get(j, {})), {}):
            errors.append("p o tau != 0 at %s" % pair.b_names[j])
    return errors


def pair_from_dict(raw):
    """Load a transfer pair.  Raises PairDataError naming the field when raw
    is not an object or lacks ``basis``, ``B`` (with its own ``basis``),
    ``tau`` or ``p``, when a basis entry is not an object with a name and an
    int degree, when a product entry is not a list of two in-range int
    indices and a coefficient list of the basis length, when a matrix is not
    a list of rows of its shape, or when a coefficient is not an int or a
    "p/q" string; and ValueError when the loaded data breaks a law."""
    if not isinstance(raw, dict):
        raise PairDataError("pair data must be a JSON object, got %s" % type(raw).__name__)
    for field in ("basis", "B", "tau", "p"):
        if field not in raw:
            raise PairDataError("pair data lacks the field %r" % field)
    if not isinstance(raw["B"], dict) or "basis" not in raw["B"]:
        raise PairDataError("pair data lacks the field 'B.basis'")
    A = bv_data_from_dict(raw)
    errors = structure_errors(A)
    if errors:
        raise ValueError("; ".join(errors[:4]))
    b_names, b_degrees = _parse_basis(raw["B"]["basis"], "B.basis")
    tau = _parse_matrix_cols(raw["tau"], A.dim, len(b_names), "tau")
    p = _parse_matrix_cols(raw["p"], len(b_names), A.dim, "p")
    pair = EquivariantPair(A, b_names, b_degrees, tau, p)
    errors = pair_errors(pair)
    if errors:
        raise ValueError("; ".join(errors[:4]))
    return pair


def m_bar(pair, k, args):
    """p applied to the ordered product of tau-images; args are B-indices
    or sparse B-vectors, extended multilinearly."""
    require_at_least("k", k, 2)
    if len(args) != k:
        raise ValueError("need %d arguments" % k)
    vecs = [a if isinstance(a, dict) else {a: 1} for a in args]
    prod = None
    for v in vecs:
        tv = _apply(pair.tau, v)
        prod = tv if prod is None else pair.A.mul(prod, tv)
    return _apply(pair.p, prod)


def verify_gravity_algebra(pair, k, l, check_id=None):
    """Generalized Jacobi for the string operations over every tuple of
    basis arguments: the bracket-first sum equals m_bar(m_bar_k, ...) when
    l >= 1 and vanishes when l = 0.

    m_bar is computed through ``m_bar`` once per tuple of basis indices and
    kept in a table for this call.  The one vector argument, the head
    m_bar_2(a_i, a_j) or m_bar_k(a_1, ..., a_k), always sits in the first
    slot, where the outer m_bar is expanded linearly over that table.  A
    bracket-first term with a zero head is a sum over no head terms, so it
    is {}: its tail and Koszul sign are not built.  The head is still looked
    up for every pair i < j, so the m_bar calls do not depend on which
    heads vanish."""
    require_at_least("k", k, 2)
    require_at_least("l", l, 0)
    rep = CheckReport(
        check_id or "string-gravity-%d-%d" % (k, l),
        "generalized Jacobi for m_bar over all basis tuples",
        {"k": k, "l": l, "b_dim": pair.b_dim},
    )
    memo = {}

    def at(key):
        """m_bar on a tuple of basis indices, computed once per call."""
        vec = memo.get(key)
        if vec is None:
            vec = memo[key] = m_bar(pair, len(key), list(key))
        return vec

    def expand_into(acc, head, tail, c=1):
        """acc += c * m_bar(head, *tail), expanded linearly in the head."""
        for h, ch in head.items():
            add_into(acc, at((h,) + tail), c * ch)
        return acc

    # the pairs i < j, each with the permutation pulling i, j to the front
    # of the shifted word; none contributes when m_bar_{k+l-1} does not exist
    fronts = []
    if k + l - 1 >= 2:
        for i in range(k):
            for j in range(i + 1, k):
                order = [i, j] + [m for m in range(k) if m not in (i, j)]
                fronts.append((i, j, order[2:], perm_inverse([m + 1 for m in order])))
    for tup in itertools.product(range(pair.b_dim), repeat=k + l):
        avec, bvec = tup[:k], tup[k:]
        shifted = [pair.b_degrees[a] + 1 for a in avec]
        lhs = {}
        for i, j, rest, inv in fronts:
            head = at((avec[i], avec[j]))
            if head:
                tail = tuple(avec[m] for m in rest) + bvec
                expand_into(lhs, head, tail, koszul_sign(inv, shifted))
        if l == 0:
            rhs = {}
        else:
            rhs = expand_into({}, at(avec), bvec)
        if _vec_eq(lhs, rhs):
            rep.count(True)
        else:
            rep.count(False, "args=%r", tuple(pair.b_names[a] for a in tup))
    return rep


def transfer_lie_check(pair, a, b):
    """tau(m_bar_2(a, b)) = delta(tau(a).tau(b)); forced by the pair
    invariants."""
    ta = pair.tau.get(a, {})
    tb = pair.tau.get(b, {})
    lhs = _apply(pair.tau, m_bar(pair, 2, [a, b]))
    rhs = _apply(pair.A.delta, pair.A.mul(ta, tb))
    return _vec_eq(lhs, rhs)


def check_transfer_lie(pair, check_id="string-transfer-lie"):
    rep = CheckReport(
        check_id,
        "tau sends the string bracket to the loop bracket on all basis pairs",
        {"b_dim": pair.b_dim},
    )
    for a in range(pair.b_dim):
        for b in range(pair.b_dim):
            ok = transfer_lie_check(pair, a, b)
            rep.count(ok, "(%s, %s)", pair.b_names[a], pair.b_names[b])
    return rep


def check_m_bar_symmetry(pair, k=2, check_id=None):
    rep = CheckReport(
        check_id or "string-mbar-symmetry-%d" % k,
        "m_bar is graded symmetric at the shifted degrees",
        {"k": k, "b_dim": pair.b_dim},
    )
    nb = pair.b_dim
    for tup in itertools.product(range(nb), repeat=k):
        base = m_bar(pair, k, list(tup))
        for i in range(k - 1):
            swapped = list(tup)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            sign = koszul_sign((2, 1), [pair.b_degrees[a] + 1 for a in tup[i : i + 2]])
            ok = _vec_eq(base, m_bar(pair, k, swapped), sign)
            rep.count(ok, "swap %d in %r", i, tup)
    return rep


def m_bar_table(pair, k):
    """Structure constants of m_bar_k: nonzero outputs per basis tuple."""
    out = {}
    for tup in itertools.product(range(pair.b_dim), repeat=k):
        vec = m_bar(pair, k, list(tup))
        if vec:
            out[tup] = vec
    return out


# ---------------------------------------------------------------------------
# constraint-satisfying generator


def free_bv_presentation(k, supports=None):
    """Multilinear algebra on k letters: basis elements are bracket
    monomials on a family of letter subsets, the product concatenates
    blocks when the letter sets are disjoint and stay in the family, and
    the operator acts blockwise.  Honest BV data for every k.

    The default family is every nonempty subset.  A restricted family must
    be closed under disjoint unions so that it spans a subalgebra.  The
    wire format pins the operator degree at +1, so only the degree-1
    bracket model is generated here."""
    require_at_least("k", k, 1)
    if supports is None:
        family = [
            frozenset(sub)
            for r in range(1, k + 1)
            for sub in itertools.combinations(range(1, k + 1), r)
        ]
    else:
        family = sorted({frozenset(s) for s in supports}, key=lambda s: (len(s), sorted(s)))
        for s in family:
            if not s or not s <= frozenset(range(1, k + 1)):
                raise ValueError("support %r out of range" % sorted(s))
        for s in family:
            for t in family:
                if not (s & t) and (s | t) not in family:
                    raise ValueError(
                        "family not closed under the disjoint union %r"
                        % sorted(s | t)
                    )
    basis = []
    for support in family:
        sub = tuple(sorted(support))
        for x in enumerate_basis(len(sub)):
            basis.append((support, bv._embed(x, sub)))
    index = {key: n for n, key in enumerate(basis)}
    names = tuple("m%d" % n for n in range(len(basis)))
    degrees = tuple(mono_degree(mono) for _, mono in basis)

    def as_element(n):
        support, mono = basis[n]
        return PoissonElement(support, {mono: 1})

    def to_vec(el):
        return {
            index[(el.support, mono)]: c for mono, c in el.terms.items() if c
        }

    product = {}
    for i, (si, mi) in enumerate(basis):
        for j, (sj, mj) in enumerate(basis):
            if si & sj:
                continue
            entry = to_vec(as_element(i).mul(as_element(j)))
            if entry:
                product[(i, j)] = entry
    delta = {}
    for j in range(len(basis)):
        col = to_vec(bv.delta_apply(as_element(j)))
        if col:
            delta[j] = col
    return BVAlgebraData(names, degrees, product, delta)


def pair_from_presentation(data):
    """Split off a complement of the kernel: B is spanned by basis columns
    whose images under the operator are independent, tau restricts the
    operator to them, and p solves delta(x) = tau(p(x)).  The pair laws
    hold by construction.  The m-th independent image is admitted with a 1
    in the tag column n + m, past every basis column, so a tag is never a
    pivot; a dependent image reduces to tags alone, and p of it is minus
    that remainder."""
    n = data.dim
    images = Echelon()
    pivots, p = [], {}
    for j in filter(data.delta.get, range(n)):
        rest = images.reduce(data.delta[j])
        if min(rest) < n:
            rest[n + len(pivots)] = 1
            images.add(rest)
            p[j] = {len(pivots): 1}
            pivots.append(j)
        else:
            p[j] = {c - n: scalar(-v) for c, v in sorted(rest.items())}
    b_names = tuple("t_" + data.names[j] for j in pivots)
    b_degrees = tuple(data.degrees[j] for j in pivots)
    tau = {m: dict(data.delta[j]) for m, j in enumerate(pivots)}
    return EquivariantPair(data, b_names, b_degrees, tau, p)


def check_nested_gravity(k, l):
    """Nonvacuous instance of the generalized Jacobi: the arguments are
    bracket classes on disjoint letter blocks, so the nested operations do
    not collapse.  Since tau is injective and tau o p is the operator, the
    relation is checked after applying tau, where every m_bar composite
    becomes an exact bracket-calculus expression.  It needs k >= 3, since
    for k = 2 the relation is a tautology, and l >= 0."""
    require_at_least("k", k, 3)
    require_at_least("l", l, 0)
    rep = CheckReport(
        "string-gravity-nested-%d-%d" % (k, l),
        "generalized Jacobi on disjoint bracket blocks, via the transfer",
        {"k": k, "l": l, "letters": 2 * (k + l)},
    )
    n = k + l
    taus = [gen(2 * r + 1).bracket(gen(2 * r + 2)) for r in range(n)]
    a_s, b_s = taus[:k], taus[k:]
    shifted = [1] * k  # each tau-image has degree 1, so B-degree 0

    def ordered_product(factors):
        out = factors[0]
        for f in factors[1:]:
            out = out.mul(f)
        return out

    lhs = PoissonElement(range(1, 2 * n + 1))
    nonzero_terms = 0
    for i in range(k):
        for j in range(i + 1, k):
            order = [i, j] + [m for m in range(k) if m not in (i, j)]
            sign = koszul_sign(perm_inverse([m + 1 for m in order]), shifted)
            head = bv.delta_apply(a_s[i].mul(a_s[j]))
            rest = [a_s[m] for m in order[2:]]
            term = bv.delta_apply(ordered_product([head] + rest + b_s))
            if not term.is_zero():
                nonzero_terms += 1
            lhs.add_scaled(term, sign)
    if l == 0:
        ok = lhs.is_zero()
    else:
        ok = lhs == bv.delta_apply(bv.delta_apply(ordered_product(a_s)).mul(ordered_product(b_s)))
    rep.params["nonzero_terms"] = nonzero_terms
    if nonzero_terms:
        rep.count(ok, "relation fails")
    else:
        rep.count(False, "all nested terms vanished; check is vacuous")
    return rep
