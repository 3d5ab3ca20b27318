"""Gravity structure: the kernel of the circle operator.

Grav(k) is computed literally as ker Delta inside the arity-k component of
the bracket-product model, degree by degree, over exact rationals.  The
module verifies, rather than assumes: ker Delta = im Delta in every degree
(the rational shadow of freeness over the exterior algebra on Delta), the
k!/2 total dimension with per-degree counts matching the independent
polynomial oracle t^b prod_{j=2}^{k-1}(1 + j t^b), closure of the kernel
under partial composition, the generalized Jacobi relations for the
bracket family iota_k = Delta(x1...xk), generation of the kernel by that
family, the embedded bracket suboperad of dimension (k-1)!, and the
agreement of the b=3 and b=1 dimension tables under degree tripling.

One basis pass buckets the basis by degree, and each Delta matrix is built
once per degree, a single ``delta_apply`` per basis monomial whose terms
are written once, into the rows, through the next slice's row index.  Most
questions need only dimensions, and ``_slice_ranks`` gives each slice's
column count and rank: ``check_free_module`` compares kernels with images,
and ``gravity_dims`` is ker Delta's table, columns minus rank.  Only
``gravity_basis`` builds the vectors, as {degree: [PoissonElement]}, and it
alone keeps each column's image beside the rows, for the certificate: the
sum of the images weighted by a vector's coefficients, Delta of the vector
by linearity, must be exactly zero.

Generated sub-sequences are grown by grafting.  The graft lemma: if each
generator g_l is invariant under S_l, as iota_l is, and B(m) is a basis of
the generated span in arity m, the arity-n span is spanned by g_n and the
grafts x o_S g_l (2 <= l < n, x in B(n-l+1), S an l-subset of [n]) that put
g_l's letters on S and x's, in order, on {min S} + ([n] - S).  Cut from a
tree of generators a vertex whose inputs are all leaves: equivariance makes
the cut graft a shuffle composition (Dotsenko and Khoroshkin, "Groebner
bases for operads", Duke Math. J., 2010), and g_l's invariance absorbs S_l.
``_generated`` offers that stream to one ``Echelon`` per (arity, degree) and
certifies each admitted vector below the top degree b(n-1), where Delta
vanishes: Delta of it must be exactly zero.  A rejected candidate lies in
the span of admitted ones, so equal dimensions prove that the bracket family
generates ker Delta (Getzler, "Operads and moduli spaces of genus 0 Riemann
surfaces", 1995).

Only odd b >= 1 is in the model's domain; the kernel and the oracle reject
any other bracket degree.

Arity 1 is rejected throughout: Delta vanishes on the one-dimensional
unary component, so its kernel is not the image and the unary gravity
term lies outside this finite model.
"""

from __future__ import annotations

import itertools
from math import factorial

from .bv import delta_apply
from .exact import (
    Echelon,
    GradedDims,
    SparseMatrix,
    add_into,
    poly_coeffs_product,
)
from .operads import CheckReport, require_at_least
from .poisson import (
    PoissonElement,
    _graft,
    _host,
    _inserted,
    check_bracket_degree,
    compose_i,
    enumerate_basis,
    from_mono,
    sigma_act,
)


def _degree_slices(k, b=1):
    """The arity-k basis bucketed by degree: {b*j: its monomials in
    enumeration order} for j < k, in degree order, from one basis pass."""
    slices = {b * j: [] for j in range(k)}
    for mono in enumerate_basis(k):
        slices[b * (k - len(mono))].append(mono)
    return slices


def _delta_slice(k, slices, degree, b=1, images=None):
    """Matrix of Delta from ``slices[degree]`` into the next slice: one
    column per monomial of the slice and one row per target monomial, both
    in enumeration order.  Each column's ``delta_apply`` terms are written
    into the rows and nowhere else, unless ``images`` is a list: then each
    column's image, a dict row -> coefficient, is appended to it too.  The
    images are dicts apart from the rows, so eliminating the rows leaves
    them as they are."""
    cols = slices[degree]
    index = {mono: r for r, mono in enumerate(slices.get(degree + b, []))}
    rows = [{} for _ in index]
    support = frozenset(range(1, k + 1))
    for c, mono in enumerate(cols):
        terms = delta_apply(PoissonElement._of(support, {mono: 1})).terms
        if images is None:
            for m, v in terms.items():
                rows[index[m]][c] = v
        else:
            image = {}
            for m, v in terms.items():
                r = index[m]
                image[r] = rows[r][c] = v
            images.append(image)
    return SparseMatrix(len(cols), rows)


def _slice_ranks(k, b=1):
    """{degree: (columns, rank)} of Delta on each degree slice of arity k,
    in degree order.  Each slice's matrix is let go once its rank is
    known."""
    slices = _degree_slices(k, b)
    return {d: (len(cols), _delta_slice(k, slices, d, b).rank()) for d, cols in slices.items()}


def _require_arity(k, b):
    """Refuse an arity below 2, naming it (see the module docstring), then
    a bracket degree outside the model's domain."""
    why = ": Delta = 0 there, so the kernel is not the image" if k == 1 else ""
    if k < 2:
        raise ValueError("arity must be at least 2, got %r%s" % (k, why))
    check_bracket_degree(b)


def gravity_basis(k, b=1):
    """Exact kernel of Delta in arity k as {degree: [PoissonElement]}, in
    degree order, over the degrees where it is nonzero; rejects the unary
    arity.  Each element is certified when it is built: its coefficients,
    applied to the Delta images of the basis monomials, which
    ``_delta_slice`` hands over beside the rows, sum to exactly zero, or an
    AssertionError is raised.  For dimensions alone, ``gravity_dims``."""
    _require_arity(k, b)
    support = frozenset(range(1, k + 1))
    slices = _degree_slices(k, b)
    elements = {}
    for degree, cols in slices.items():
        images = []
        matrix = _delta_slice(k, slices, degree, b, images)
        span = []
        for vec in matrix.kernel_basis():
            image = {}
            for c, v in vec.items():
                add_into(image, images[c], v)
            if image:
                raise AssertionError("kernel vector fails its certificate")
            span.append(PoissonElement(support, {cols[c]: v for c, v in vec.items()}))
        if span:
            elements[degree] = span
    return elements


def gravity_dims(k, b=1):
    """Dimensions of ker Delta in arity k, from ranks alone: each degree's
    columns minus its rank, with the zero degrees dropped.  The same table
    as counting ``gravity_basis``'s vectors."""
    _require_arity(k, b)
    return GradedDims({d: n - rank for d, (n, rank) in _slice_ranks(k, b).items()})


def moduli_dimension_oracle(k, b=1):
    """Independent per-degree dimension table: coefficients of
    t^b prod_{j=2}^{k-1}(1 + j t^b), multiplied out in u = t^b so that no
    list is as long as b."""
    _require_arity(k, b)
    return poly_coeffs_product([1, j] for j in range(2, k)).scaled_degrees(b).shifted(b)


def check_free_module(k, b=1):
    """ker Delta = im Delta per degree, and total kernel dimension k!/2,
    from each slice's column count and rank (``_slice_ranks``)."""
    _require_arity(k, b)
    rep = CheckReport(
        "gravity-free-module-%d-b%d" % (k, b),
        "ker Delta equals im Delta in every degree and has total dimension k!/2",
        {"arity": k, "bracket_degree": b},
    )
    total = im_dim = 0
    for degree, (cols, rank) in _slice_ranks(k, b).items():
        ker_dim = cols - rank
        total += ker_dim
        ok = ker_dim == im_dim
        rep.count(ok, "degree %d: dim ker = %d, dim im = %d", degree, ker_dim, im_dim)
        im_dim = rank  # Delta of this slice lands in the next
    expected = factorial(k) // 2
    rep.count(total == expected, "total %d != %d", total, expected)
    return rep


def bracket_generator(k, b=1):
    """The degree-b class Delta(x1...xk) generating the bracket family."""
    require_at_least("arity", k, 2)
    check_bracket_degree(b)
    mono = tuple(range(1, k + 1))
    iota = delta_apply(from_mono(mono))
    if not delta_apply(iota).is_zero():
        raise AssertionError("generator is not Delta-closed")
    return iota


def verify_generalized_jacobi(k, l, b=1):
    """The bracket family's quadratic relation in arity n = k+l.

    LHS = iota_{l+1} o_1 iota_k (zero when l = 0 by convention); RHS is the
    sum over pairs i < j <= k of the composite iota_{n-1} o_1 iota_2, built
    once and sigma-routed so that its bracket pair is (i, j) and its
    remaining slots stay ascending.  At n = 2 that composite would hold the
    unary circle class, which is outside this finite model and is taken to
    act as zero, the same convention that sets the l = 0 left side to zero.
    Dummy slots are degree 0, so the Koszul prefactors reduce to the
    engine's own routing signs.  The report records the single global sign
    at which the identity holds; acceptance asserts that sign is consistent
    across all checked (k, l), not any termwise convention.
    """
    require_at_least("k", k, 2)
    require_at_least("l", l, 0)
    check_bracket_degree(b)
    rep = CheckReport(
        "gravity-generalized-jacobi-%d-%d-b%d" % (k, l, b),
        "the bracket family satisfies the quadratic relation in arity k+l",
        {"k": k, "l": l, "bracket_degree": b},
    )
    n = k + l
    rhs = PoissonElement(range(1, n + 1))
    if n > 2:
        base = compose_i(bracket_generator(n - 1, b), bracket_generator(2, b), 1)
        for i, j in itertools.combinations(range(1, k + 1), 2):
            rest = [m for m in range(1, n + 1) if m not in (i, j)]
            rhs.add_scaled(sigma_act(tuple([i, j] + rest), base))
    if l == 0:
        sign = 0 if rhs.is_zero() else None
        rep.params["relation_sign"] = sign
        rep.count(sign == 0, "l=0: sum of pair terms is nonzero")
        return rep
    lhs = compose_i(bracket_generator(l + 1, b), bracket_generator(k, b), 1)
    if lhs == rhs:
        sign = 1
    elif lhs == rhs.scale(-1):
        sign = -1
    else:
        sign = None
    rep.params["relation_sign"] = sign
    rep.count(sign is not None, "no global sign matches")
    return rep


def check_suboperad_closure(max_arity, b=1):
    """Partial composition of Delta-closed elements stays Delta-closed; below
    max arity 3 there is no composite of two arities >= 2 to check."""
    require_at_least("max arity", max_arity, 3)
    check_bracket_degree(b)
    rep = CheckReport(
        "gravity-closure-%d-b%d" % (max_arity, b),
        "compose_i of kernel basis elements lands in ker Delta",
        {"max_arity": max_arity, "bracket_degree": b},
    )
    bases = {
        k: [x for span in gravity_basis(k, b).values() for x in span]
        for k in range(2, max_arity)
    }
    for k in range(2, max_arity):
        for l in range(2, max_arity + 2 - k):
            for x in bases[k]:
                for y in bases[l]:
                    for i in range(1, k + 1):
                        z = compose_i(x, y, i)
                        ok = delta_apply(z).is_zero()
                        rep.count(ok, "k=%d l=%d i=%d x=%r y=%r", k, l, i, x, y)
    return rep


def _generated(generators, max_arity, b=1, anchored=False):
    """The graft stream of the module docstring on ``generators`` ({arity:
    element}), or its sites S holding n when ``anchored``: per arity, the
    dimensions by degree and the admitted vectors with Delta != 0.  S runs by
    C = S - {min S}: x is hosted once per letter set [n] - C, then grafted at
    each slot min S < min C.  A wrong degree is a KeyError in a basis index."""
    echelons = {}
    kept = {n: [] for n in range(1, max_arity + 1)}  # arity -> [(degree, element)]
    leaks = {n: [] for n in range(1, max_arity + 1)}

    def admit(n, d, terms):
        if (n, d) not in echelons:
            basis = enumerate_basis(n, degree=d, b=b)
            echelons[n, d] = Echelon(), {m: c for c, m in enumerate(basis)}
        ech, index = echelons[n, d]
        if terms and ech.add({index[m]: c for m, c in terms.items()}):
            x = PoissonElement._of(frozenset(range(1, n + 1)), terms)
            if n < max_arity:  # only hosts are kept
                kept[n].append((d, x))
            if d < b * (n - 1) and not delta_apply(x).is_zero():
                leaks[n].append(x)

    for n in range(2, max_arity + 1):
        if n in generators:
            admit(n, generators[n].degree(b), generators[n].terms)
        for l, g in [(l, g) for l, g in sorted(generators.items()) if l < n]:
            e = g.degree(b)
            sites = [
                (C, [_inserted(g, (i,) + C) for i in range(1, C[0])])
                for C in itertools.combinations(range(2, n + 1), l - 1)
                if not anchored or C[-1] == n
            ]
            for d, x in kept[n - l + 1]:
                for C, slots in sites:
                    hosted = _host(x, tuple(j for j in range(1, n + 1) if j not in C))
                    for ins in slots:
                        admit(n, d + e, _graft(hosted, ins))
    dims = {n: GradedDims({d: ech.rank for (m, d), (ech, _) in echelons.items() if m == n})
            for n in kept}
    return dims, leaks


def check_lie_embedding(max_arity, b=1):
    """The sub-sequence generated by iota_2 alone has dimension (k-1)! in
    arity k, concentrated in the top kernel degree b(k-1).  Every generated
    element has that degree, of dimension (k-1)!, so the stream grafts
    iota_2 only at the sites S holding k, exactly (k-1)! candidates, and
    the check fails unless all are independent."""
    require_at_least("max arity", max_arity, 2)
    check_bracket_degree(b)
    rep = CheckReport(
        "gravity-lie-embedding-%d-b%d" % (max_arity, b),
        "the binary bracket generates a (k-1)!-dimensional top-degree suboperad",
        {"max_arity": max_arity, "bracket_degree": b},
    )
    dims, _ = _generated({2: bracket_generator(2, b)}, max_arity, b, anchored=True)
    for k in range(2, max_arity + 1):
        expected = factorial(k - 1)
        got = dims[k]
        ok = got == GradedDims({b * (k - 1): expected})
        rep.count(ok, "arity %d: got %r, expected {%d: %d}", k, got, b * (k - 1), expected)
    return rep


def check_generation(max_arity, b=1):
    """The bracket family iota_m (m >= 2) generates the whole kernel: the full
    graft stream, with no early stop, certifies every generated vector in ker
    Delta, so equal dimensions prove generated = ker Delta in every degree."""
    require_at_least("max arity", max_arity, 2)
    check_bracket_degree(b)
    rep = CheckReport(
        "gravity-generation-%d-b%d" % (max_arity, b),
        "the bracket family generates ker Delta dimension-for-dimension",
        {"max_arity": max_arity, "bracket_degree": b},
    )
    gens = {m: bracket_generator(m, b) for m in range(2, max_arity + 1)}
    dims, leaks = _generated(gens, max_arity, b)
    for k in range(2, max_arity + 1):
        target, bad = gravity_dims(k, b), leaks[k]
        rep.count(dims[k] == target and not bad, "arity %d: generated %r, kernel %r, "
                  "%d admitted vectors with Delta != 0 %r", k, dims[k], target, len(bad), bad[:1])
    return rep


def grav4_table(max_arity):
    """The b=3 dimension tables are the b=1 tables with degrees tripled."""
    require_at_least("max arity", max_arity, 2)
    rep = CheckReport(
        "gravity-degree-tripling-%d" % max_arity,
        "b=3 kernel dimensions equal the b=1 dimensions under degree tripling",
        {"max_arity": max_arity},
    )
    for k in range(2, max_arity + 1):
        d1 = gravity_dims(k, 1)
        d3 = gravity_dims(k, 3)
        rep.count(d3 == d1.scaled_degrees(3), "arity %d: %r vs scaled %r", k, d3, d1)
    return rep
