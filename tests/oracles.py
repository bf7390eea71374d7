"""Slow definitional references that the tests compare lndkit against.

Nothing in lndkit calls these. Each one restates a definition directly,
by a route independent of the fast criterion it checks, so a test can ask
both and compare.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import factorial, gcd, lcm, prod

from lndkit.algebra import ParamPoly, Polynomial, TrinomialRing, exponential
from lndkit.cone import (
    Cone,
    DualCone,
    dual_as_cone,
    dual_cone,
    hilbert_basis,
    lattice_points,
    two_face_functional,
)
from lndkit.errors import RefusalError, SearchBoundExceeded
from lndkit.lattice import (
    LatticeMatrix,
    LatticeVector,
    SmithDecomposition,
    determinant,
    is_zero_vector,
    mat_mul,
    mat_vec,
    matrix_rank,
    pairing,
    primitive_part,
    row_reduce,
    solve_dual_pair,
    transpose,
    vec_add,
    vec_scale,
    vec_sub,
)
from lndkit.toric import (
    DemazureRoot,
    SemigroupSymmetries,
    find_local_slice,
    is_demazure_root,
)
from lndkit.trinomial import (
    TrinomialDerivation,
    TrinomialShape,
    derivation_for,
    elementary_derivations,
    kernel_monomials,
    pair_commutes,
)


# ---------------------------------------------------------------------------
# cones


def _normalize_ineq(coeffs, rhs):
    # scale rows by the positive content so duplicates collapse
    g = 0
    for c in coeffs:
        g = gcd(g, c.numerator)
    g = gcd(g, rhs.numerator)
    denom = lcm(*(c.denominator for c in coeffs), rhs.denominator) if coeffs else rhs.denominator
    if g == 0 and rhs == 0:
        return None
    scale = Fraction(denom, g) if g else Fraction(denom)
    return tuple(c * scale for c in coeffs), rhs * scale


def feasible_point(nvars: int, eqs, ineqs):
    """A rational point satisfying all constraints, or None.

    ``eqs`` rows mean coeffs . x == rhs, ``ineqs`` rows mean coeffs . x >= rhs.
    Equalities are removed by Gaussian elimination, the rest by
    Fourier-Motzkin with back substitution, so the returned point is exact.
    """
    # reduced row echelon form of [A | b], each equality first cleared of
    # denominators: a pivot in the b column means some combination of the
    # equalities reads 0 == nonzero
    scaled = []
    for co, r in eqs:
        row = [*co, r]
        s = lcm(*(x.denominator for x in row))
        scaled.append([int(x * s) for x in row])
    work, pivot_cols, d = row_reduce(scaled)
    if nvars in pivot_cols:
        return None
    pivots = list(enumerate(pivot_cols))  # (row, col), pivot d, column cleared
    free = [c for c in range(nvars) if c not in pivot_cols]
    inv_d = Fraction(1, d)

    # substitute x_c = (rhs_r - sum_{j free} work[r][j] x_j) / d into the
    # inequalities
    ineqs2 = []
    for co, rhs in ineqs:
        co = [Fraction(c) for c in co]
        rhs = Fraction(rhs)
        for pr, pc in pivots:
            f = co[pc]
            if f:
                f *= inv_d
                co[pc] = Fraction(0)
                rhs -= f * work[pr][nvars]
                for j in free:
                    co[j] -= f * work[pr][j]
        ineqs2.append((co, rhs))
    ineqs = ineqs2

    # Fourier-Motzkin over the free variables, last one first
    stages = []
    rows = []
    seen = set()
    for co, rhs in ineqs:
        key = _normalize_ineq([co[j] for j in free], rhs)
        if key is None:
            continue
        if any(c != 0 for c in key[0]):
            if key not in seen:
                seen.add(key)
                rows.append((list(co), rhs))
        else:
            if rhs > 0:
                return None
    for idx in range(len(free) - 1, -1, -1):
        var = free[idx]
        lowers, uppers, rest = [], [], []
        for co, rhs in rows:
            a = co[var]
            if a > 0:
                lowers.append((co, rhs))
            elif a < 0:
                uppers.append((co, rhs))
            else:
                rest.append((co, rhs))
        stages.append((var, lowers, uppers))
        new_rows = rest
        seen = set()
        for lco, lrhs in lowers:
            for uco, urhs in uppers:
                a, b = lco[var], -uco[var]
                co = [b * x + a * y for x, y in zip(lco, uco)]
                rhs = b * lrhs + a * urhs
                co[var] = Fraction(0)
                key = _normalize_ineq([co[j] for j in free[:idx]], rhs)
                if key is None:
                    continue
                if all(c == 0 for c in key[0]):
                    if rhs > 0:
                        return None
                    continue
                if key not in seen:
                    seen.add(key)
                    new_rows.append((co, rhs))
        rows = new_rows

    point = [Fraction(0)] * nvars
    for var, lowers, uppers in reversed(stages):
        lo = None
        for co, rhs in lowers:
            val = (rhs - sum(co[j] * point[j] for j in range(nvars) if j != var)) / co[var]
            lo = val if lo is None else max(lo, val)
        hi = None
        for co, rhs in uppers:
            val = (rhs - sum(co[j] * point[j] for j in range(nvars) if j != var)) / co[var]
            hi = val if hi is None else min(hi, val)
        if lo is not None:
            point[var] = lo
        elif hi is not None:
            point[var] = hi
        if lo is not None and hi is not None and lo > hi:
            raise AssertionError("back substitution left an empty interval")
    for pr, pc in pivots:
        point[pc] = (work[pr][nvars] - sum(work[pr][j] * point[j] for j in free)) * inv_d
    return tuple(point)


def level_points_by_two_rows(rays, v: LatticeVector, level: int, bound: int) -> list:
    """Points x of [-bound, bound]^n with <v, x> = level and <r, x> >= 0 for
    every other ray r, in lex order, by a scan of all n coordinates with the
    equality as two opposite rows."""
    rows = [(v, level), (tuple(-x for x in v), -level)]
    return lattice_points(rows + [(r, 0) for r in rays if r != v], bound)


def member_of_generators(generators, x: LatticeVector) -> bool:
    """Is x a nonnegative rational combination of the generators."""
    gens = [tuple(g) for g in generators]
    n = len(x)
    if not gens:
        return is_zero_vector(x)
    k = len(gens)
    eqs = [([gens[i][j] for i in range(k)], x[j]) for j in range(n)]
    ineqs = [([int(i == t) for i in range(k)], 0) for t in range(k)]
    return feasible_point(k, eqs, ineqs) is not None


def extremal_rays(generators) -> LatticeMatrix:
    """Irredundant subset of the generators, canonically ordered, by a
    greedy Fourier-Motzkin pass: each generator in turn is dropped when the
    ones still kept generate it.

    For a pointed cone this is exactly the set of extremal rays. For a cone
    with lines it is still a generating set, just without a canonicity claim
    beyond determinism.
    """
    gens = sorted({primitive_part(tuple(g)) for g in generators
                   if not is_zero_vector(tuple(g))})
    kept = list(gens)
    for g in list(gens):
        others = [h for h in kept if h != g]
        if member_of_generators(others, g):
            kept = others
    return tuple(kept)


def extremal_by_rank(rank: int, rays, dual_generators) -> LatticeMatrix:
    """The rays of a pointed cone that span extremal rays, by the rank test
    ray by ray: the dual generators vanishing on an extremal ray cut out a
    facet of the dual, so they have rank ``rank - 1``. A cone with lines,
    whose dual is not full-dimensional, keeps every ray."""
    if matrix_rank(dual_generators) < rank:
        return tuple(rays)
    return tuple(g for g in rays if matrix_rank(
        [d for d in dual_generators if pairing(d, g) == 0]) == rank - 1)


def dual_cone_without_lines(cone: Cone) -> DualCone:
    """The double description seeded with both directions of every unit
    vector, each candidate pruned by the rank test and none reduced modulo
    the dual's lines.

    Its output generates the dual; on a full-dimensional input it is the
    extremal ray set of the dual. On a lower-dimensional input many vectors
    on one minimal face of the dual can pass the rank test, so it keeps
    far more generators than the dual needs.
    """
    n = cone.rank
    gens = set()
    for i in range(n):
        e = tuple(int(i == j) for j in range(n))
        gens.add(e)
        gens.add(tuple(-x for x in e))
    processed = []
    for r in sorted(cone.rays):
        pos = [g for g in gens if pairing(g, r) > 0]
        neg = [g for g in gens if pairing(g, r) < 0]
        zero = [g for g in gens if pairing(g, r) == 0]
        new = set(pos) | set(zero)
        for p in pos:
            a = pairing(p, r)
            for m in neg:
                b = pairing(m, r)
                comb = tuple(a * mi - b * pi for pi, mi in zip(p, m))
                if not is_zero_vector(comb):
                    new.add(primitive_part(comb))
        processed.append(r)
        full_rank = matrix_rank(processed)
        kept = set()
        for g in new:
            active = [q for q in processed if pairing(g, q) == 0]
            if matrix_rank(active) >= full_rank - 1:
                kept.add(g)
        gens = kept
    gens = tuple(sorted(gens))
    return DualCone(generators=gens, dimension=matrix_rank(gens),
                    lines=n - matrix_rank(cone.rays),
                    extremal_rays=extremal_by_rank(n, cone.rays, gens))


def cone_member(cone: Cone, x: LatticeVector) -> bool:
    """Lattice point membership through the dual description."""
    if len(x) != cone.rank:
        raise ValueError("vector length does not match rank")
    return all(pairing(x, d) >= 0 for d in dual_cone(cone).generators)


def _integer_point(nvars, eqs, ineqs):
    """A Fourier-Motzkin solution cleared of denominators, or None."""
    point = feasible_point(nvars, eqs, ineqs)
    if point is None:
        return None
    scale = lcm(*(p.denominator for p in point))
    return tuple(int(p * scale) for p in point)


def positive_functional(cone: Cone):
    """Integer m with <m, ray> >= 1 for every ray, or None if not pointed.

    Solved by Fourier-Motzkin, apart from the double description that
    ``is_pointed`` reads.
    """
    if not cone.rays:
        return (0,) * cone.rank
    return _integer_point(cone.rank, [], [(list(r), 1) for r in cone.rays])


def fm_two_face_functional(cone: Cone, v: LatticeVector, vp: LatticeVector):
    """Integer m with <m, v> = <m, vp> = 0 and <m, ray> >= 1 for every other
    ray, or None; solved by Fourier-Motzkin, with no double description."""
    eqs = [(list(v), 0), (list(vp), 0)]
    ineqs = [(list(r), 1) for r in cone.rays if r not in (v, vp)]
    return _integer_point(cone.rank, eqs, ineqs)


# ---------------------------------------------------------------------------
# polynomials and derivations


def poly_add(p: Polynomial, q: Polynomial, sign: int = 1) -> Polynomial:
    """p + sign q, term by term: p - q with sign -1."""
    out = dict(p.terms)
    for exp, c in q.terms.items():
        cur = out.get(exp)
        out[exp] = c * sign if cur is None else cur + c * sign
    return Polynomial(out)


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """The product p q, term by term. Terms of unequal length raise
    ValueError, where adding their exponents would truncate to the shorter."""
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            if len(ea) != len(eb):
                raise ValueError("a product needs terms of equal length, "
                                 f"got {len(ea)} and {len(eb)}")
            key = vec_add(ea, eb)
            cur = out.get(key)
            out[key] = ca * cb if cur is None else cur + ca * cb
    return Polynomial(out)


def evaluate_series(series: Polynomial, value) -> Polynomial:
    """The series with its parameter set to value: every ParamPoly
    coefficient sum_k c_k param^k evaluated exactly."""
    return Polynomial({e: sum(c * value ** k for (k,), c in p.terms.items())
                       for e, p in series.terms.items()})


def series_degree(series: Polynomial) -> int:
    """The highest power of the parameter in the series' coefficients."""
    return max((k for p in series.terms.values() for (k,) in p.terms), default=0)


def distinct_values(n: int) -> list:
    """n distinct rationals. A polynomial in one parameter of degree below n
    that vanishes at all of them is zero, and so is one in two parameters,
    of degree below n in each, that vanishes on their n x n grid."""
    return [Fraction(2 * i - n, 3) for i in range(n)]


def group_law_holds(derivation, p: Polynomial, reducer=None, cap: int = 64) -> bool:
    """exp(s delta) exp(t delta) p == exp((s + t) delta) p, exactly.

    With D the degree of exp(t delta) p, delta^(D+1) p = 0, so both sides
    have degree at most D in s and at most D in t; they agree on a
    (D+1) x (D+1) grid of (s, t) iff they are equal. Each side is compared
    after the reducer, when there is one.
    """
    normal = reducer or (lambda poly: poly)
    series = exponential(derivation, p, cap=cap)
    values = distinct_values(series_degree(series) + 1)
    for t in values:
        inner = exponential(derivation, evaluate_series(series, t), cap=cap)
        for s in values:
            if normal(evaluate_series(inner, s)) != normal(evaluate_series(series, s + t)):
                return False
    return True


def homomorphism_holds(derivation, p: Polynomial, q: Polynomial, reducer=None,
                       cap: int = 64) -> bool:
    """exp(t delta)(p q) == exp(t delta) p * exp(t delta) q, exactly: the
    t-degree of either side is at most the larger of D_pq and D_p + D_q, so
    one more value of t than that decides the law."""
    normal = reducer or (lambda poly: poly)
    left = exponential(derivation, poly_mul(p, q), cap=cap)
    fp, fq = exponential(derivation, p, cap=cap), exponential(derivation, q, cap=cap)
    degree = max(series_degree(left), series_degree(fp) + series_degree(fq))
    return all(normal(evaluate_series(left, t))
               == normal(poly_mul(evaluate_series(fp, t), evaluate_series(fq, t)))
               for t in distinct_values(degree + 1))


def exponential_by_parampoly(derivation, poly: Polynomial, cap: int = 64) -> Polynomial:
    """exp(t * derivation) applied to poly, one ParamPoly per term.

    Each step k builds t^k/k! as a ParamPoly, multiplies it into every
    term of delta^k(poly) and adds the product to that exponent's running
    ParamPoly. Refused once delta^(cap+1)(poly) is nonzero.
    """
    out = {}
    current = poly
    k = 0
    factorial = 1
    while not current.is_zero():
        if k > cap:
            raise SearchBoundExceeded(
                f"exponential did not terminate within {cap} steps", cap=cap)
        coeff = ParamPoly(("t",), {(k,): Fraction(1, factorial)})
        for exp, c in current.terms.items():
            cur = out.get(exp)
            out[exp] = coeff * c if cur is None else cur + coeff * c
        current = derivation.apply(current)
        k += 1
        factorial *= k
    return Polynomial(out)


def reduce_by_rewriting(ring: TrinomialRing, poly: Polynomial) -> Polynomial:
    """Normal form modulo T1^l1 - T2^l2 - T0^l0 by the rewrite system: while
    some term is divisible by T1^l1, rewrite the largest such term X^(e + l1)
    to X^e T2^l2 + X^e T0^l0, one step at a time, merging each new term
    into the polynomial and dropping it when the sum cancels."""
    lo, hi = ring.n0, ring.n0 + ring.n1
    lead = (0,) * ring.n0 + ring.l1 + (0,) * ring.n2
    substitutes = ((0,) * (ring.n0 + ring.n1) + ring.l2,
                   ring.l0 + (0,) * (ring.n1 + ring.n2))
    work = dict(poly.terms)
    while True:
        targets = [exp for exp in work
                   if all(a >= b for a, b in zip(exp[lo:hi], ring.l1))]
        if not targets:
            return Polynomial(work)
        exp = max(targets)
        c = work.pop(exp)
        rest = vec_sub(exp, lead)
        for sub in substitutes:
            key = vec_add(rest, sub)
            cur = work.get(key)
            total = c if cur is None else cur + c
            if (total.is_zero() if isinstance(total, ParamPoly) else total == 0):
                work.pop(key, None)
            else:
                work[key] = total


def homogeneous_components(poly: Polynomial, degree_fn):
    """Split a polynomial along a grading.

    ``degree_fn`` maps an exponent tuple to any hashable label; the result
    maps labels to the homogeneous parts, and the parts sum back to the
    input.
    """
    buckets = {}
    for exp, c in poly.terms.items():
        buckets.setdefault(degree_fn(exp), {})[exp] = c
    return {label: Polynomial(terms) for label, terms in sorted(
        buckets.items(), key=lambda kv: repr(kv[0]))}


@dataclass(frozen=True)
class NilpotencyVerdict:
    status: str  # "nilpotent" | "not_nilpotent" | "inconclusive"
    orders: tuple[int, ...]
    witness: object = None

    @property
    def nilpotent(self):
        if self.status == "nilpotent":
            return True
        if self.status == "not_nilpotent":
            return False
        return None


def is_locally_nilpotent(derivation, generators, cap: int = 64) -> NilpotencyVerdict:
    """Iterate the derivation on each generator until it dies or the cap hits.

    An eigenvector along the way (image = scalar * current, nonzero scalar)
    proves the derivation is not locally nilpotent; running past the cap is
    reported as inconclusive, never as a verdict.
    """
    orders = []
    for g in generators:
        current = g
        k = 0
        while not current.is_zero():
            if k >= cap:
                return NilpotencyVerdict(
                    status="inconclusive", orders=tuple(orders),
                    witness={"cap": cap, "generator": tuple(sorted(current.terms))})
            nxt = derivation.apply(current)
            if not nxt.is_zero() and sorted(nxt.terms) == sorted(current.terms):
                pairs = [(current.terms[e], nxt.terms[e]) for e in nxt.terms]
                if not any(isinstance(c, ParamPoly) for pair in pairs for c in pair):
                    scalars = {Fraction(b) / Fraction(a) for a, b in pairs}
                    if len(scalars) == 1:
                        return NilpotencyVerdict(
                            status="not_nilpotent", orders=tuple(orders),
                            witness={"eigenvector": tuple(sorted(current.terms)),
                                     "eigenvalue": str(scalars.pop())})
            current = nxt
            k += 1
        orders.append(k)
    return NilpotencyVerdict(status="nilpotent", orders=tuple(orders))


# ---------------------------------------------------------------------------
# toric slices


@dataclass(frozen=True)
class SliceExpression:
    """chi^m * (chi^(slice+root))^twist == chi^kernel_weight * (chi^slice)^level."""

    weight: LatticeVector
    slice: LatticeVector
    level: int
    twist: int
    kernel_weight: LatticeVector


def express_in_slice(cone: Cone, root: DemazureRoot, m,
                     slice_weight: LatticeVector | None = None,
                     cap: int = 64) -> SliceExpression:
    """Rewrite a character over the kernel after inverting the slice image.

    Searches the minimal twist by the kernel character slice+root that
    lands the level-zero part back in the semigroup, then re-verifies the
    monomial identity by actual polynomial multiplication.
    """
    m = tuple(m)
    if any(pairing(m, r) < 0 for r in cone.rays):
        raise RefusalError("character lies outside the semigroup",
                           witness={"character": list(m)})
    s = find_local_slice(cone, root, cap=cap) if slice_weight is None else tuple(slice_weight)
    level = pairing(m, root.ray)
    ker_dir = vec_add(s, root.vector)
    for twist in range(cap + 1):
        k = vec_sub(vec_add(m, vec_scale(twist, ker_dir)), vec_scale(level, s))
        if all(pairing(k, r) >= 0 for r in cone.rays):
            assert pairing(k, root.ray) == 0
            lhs = Polynomial.monomial(m)
            rhs = Polynomial.monomial(k)
            for _ in range(twist):
                lhs = poly_mul(lhs, Polynomial.monomial(ker_dir))
            for _ in range(level):
                rhs = poly_mul(rhs, Polynomial.monomial(s))
            assert lhs == rhs
            return SliceExpression(weight=m, slice=s, level=level,
                                   twist=twist, kernel_weight=k)
    raise SearchBoundExceeded("no kernel twist rewrites the character "
                              "inside the cap", cap=cap)


# ---------------------------------------------------------------------------
# toric partner roots


def partner_root_by_walk(cone: Cone, vp: LatticeVector, v: LatticeVector,
                         cap: int = 1000):
    """(root, k): a root on the ray vp that annihilates v, by a walk.

    For a neighbour pair (two-face adjacent, basis extending), the walk
    starts at the dual pair's character base, pairing -1 with vp and 0
    with v, and tries base + k omega along the two-face functional omega
    for k = 0, 1, ... until one is a root; the first hit is the minimal
    shift. Refused past ``cap`` steps.
    """
    base = solve_dual_pair(vp, v)
    omega = two_face_functional(cone, vp, v)
    assert base is not None and omega is not None, "not a neighbour pair"
    for k in range(cap + 1):
        root = is_demazure_root(cone, vec_add(base, vec_scale(k, omega)))
        if root is not None:
            assert root.ray == vp and pairing(root.vector, v) == 0
            return root, k
    raise SearchBoundExceeded("no admissible shift found along the two-face",
                              cap=cap)


# ---------------------------------------------------------------------------
# toric symmetries


def rational_inverse(a: LatticeMatrix):
    """Inverse of a over Q as Fraction rows, or None when singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("rational_inverse needs a square matrix")
    # [a | I] reduces to d [I | a^-1] exactly when a is invertible
    rows, pivots, d = row_reduce([tuple(row) + tuple(int(i == j) for j in range(n))
                                  for i, row in enumerate(a)])
    if pivots != list(range(n)):
        return None
    return tuple(tuple(Fraction(x, d) for x in row[n:]) for row in rows)


def level_class_symmetries(cone: Cone, root: DemazureRoot,
                           perm_cap: int = 40320) -> SemigroupSymmetries:
    """The finite symmetry factor by permuting the dual Hilbert basis.

    Candidates are permutations of the basis within its level classes
    against the root's ray, Π (class size)! of them, refused over
    ``perm_cap``. Each is solved to a linear map over Q on a spanning
    subset and kept when it is integral, unimodular, fixes the root and
    the ray, and maps the basis onto itself.
    """
    elems = hilbert_basis(dual_as_cone(cone)).elements
    levels = {}
    for idx, h in enumerate(elems):
        levels.setdefault(pairing(h, root.ray), []).append(idx)
    classes = [tuple(ix) for _, ix in sorted(levels.items())]
    if prod(factorial(len(c)) for c in classes) > perm_cap:
        raise SearchBoundExceeded(
            "too many level-preserving permutation candidates", cap=perm_cap)
    span = row_reduce(transpose(elems))[1]
    inv = rational_inverse(tuple(elems[i] for i in span))
    found = []
    for parts in product(*(permutations(c) for c in classes)):
        mapping = {a: b for orig, permuted in zip(classes, parts)
                   for a, b in zip(orig, permuted)}
        g = mat_mul(inv, tuple(elems[mapping[i]] for i in span))
        if any(x.denominator != 1 for row in g for x in row):
            continue
        g = tuple(tuple(int(x) for x in row) for row in g)
        if abs(determinant(g)) == 1 and vec_mat(root.vector, g) == root.vector \
                and mat_vec(g, root.ray) == root.ray \
                and all(vec_mat(elems[a], g) == elems[mapping[a]]
                        for a in range(len(elems))):
            found.append(g)
    found.sort()
    return SemigroupSymmetries(order=len(found), matrices=tuple(found),
                               basis=elems)


def vec_mat(x: LatticeVector, a: LatticeMatrix) -> LatticeVector:
    """Row vector x times a."""
    if not a:
        return ()
    return tuple(sum(x[i] * a[i][j] for i in range(len(a))) for j in range(len(a[0])))


# ---------------------------------------------------------------------------
# Smith normal form and quotient labels


def _min_abs_pivot(d, rows, cols, t):
    # smallest nonzero |entry| in the trailing block; ties resolved row-major
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_by_mirrored_updates(a: LatticeMatrix) -> SmithDecomposition:
    """Smith normal form with both transforms, by the loop that updates D,
    U and V side by side: every row operation on D is repeated on U and
    every column operation on V.

    The pivot rule (smallest nonzero |entry| of the remaining block,
    row-major on ties), the stage clearing, the divisibility fix-up and the
    sign step are those of ``lattice.smith_normal_form``, in the same
    order, so the two agree entry for entry.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(r) != cols for r in a):
        raise ValueError("ragged matrix")
    d = [list(r) for r in a]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_sub(i, k, q):
        # row i -= q * row k
        for j in range(cols):
            d[i][j] -= q * d[k][j]
        for j in range(rows):
            u[i][j] -= q * u[k][j]

    def col_sub(j, k, q):
        # col j -= q * col k
        for i in range(rows):
            d[i][j] -= q * d[i][k]
        for i in range(cols):
            v[i][j] -= q * v[i][k]

    def col_add(j, k):
        for i in range(rows):
            d[i][j] += d[i][k]
        for i in range(cols):
            v[i][j] += v[i][k]

    def clear_stage(t):
        while True:
            piv = _min_abs_pivot(d, rows, cols, t)
            if piv is None:
                return False
            pi, pj = piv
            if pi != t:
                d[pi], d[t] = d[t], d[pi]
                u[pi], u[t] = u[t], u[pi]
            if pj != t:
                for row in d:
                    row[pj], row[t] = row[t], row[pj]
                for row in v:
                    row[pj], row[t] = row[t], row[pj]
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    row_sub(i, t, d[i][t] // d[t][t])
                    if d[i][t] != 0:
                        dirty = True
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    col_sub(j, t, d[t][j] // d[t][t])
                    if d[t][j] != 0:
                        dirty = True
            if not dirty:
                return True

    limit = min(rows, cols)
    t = 0
    while t < limit:
        if not clear_stage(t):
            break
        t += 1
    r = t

    # enforce the divisibility chain; a failed pair pulls the next column in
    # and the stage is cleared again
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            if d[i + 1][i + 1] % d[i][i] != 0:
                col_add(i, i + 1)
                t = i
                while t < r:
                    clear_stage(t)
                    t += 1
                changed = True
                break

    for i in range(r):
        if d[i][i] < 0:
            for j in range(cols):
                d[i][j] = -d[i][j]
            for j in range(rows):
                u[i][j] = -u[i][j]

    dd = tuple(tuple(row) for row in d)
    return SmithDecomposition(
        u=tuple(tuple(row) for row in u),
        d=dd,
        v=tuple(tuple(row) for row in v),
        invariant_factors=tuple(dd[i][i] for i in range(r)),
    )


def quotient_label(rank: int, relations, x: LatticeVector) -> tuple:
    """Canonical label of the class of x in Z^rank / <relations>.

    With U R V = D the Smith form of the relation rows, x V has, in the
    basis of the columns of V, the coordinates y_i modulo the invariant
    factors d_i and free coordinates past them. The label lists y_i mod d_i
    for each d_i above 1, then the free coordinates, so two vectors share a
    label exactly when their difference lies in the row span.
    """
    if len(x) != rank:
        raise ValueError("vector length does not match rank")
    rels = tuple(tuple(r) for r in relations)
    if rels:
        dec = smith_by_mirrored_updates(rels)
        v, invf = dec.v, dec.invariant_factors
    else:
        v, invf = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank)), ()
    y = vec_mat(x, v)
    label = [y[i] % f for i, f in enumerate(invf) if f != 1]
    return tuple(label) + y[len(invf):]


# ---------------------------------------------------------------------------
# trinomial derivations


def maximal_replicas_by_filter(shape: TrinomialShape, deriv: TrinomialDerivation,
                               max_degree: int) -> tuple:
    """The nonzero kernel monomials of degree at most max_degree that contain
    every power variable the derivation does not move, by listing every
    kernel monomial and keeping those."""
    return tuple(h for h in kernel_monomials(shape, deriv, max_degree)
                 if any(h) and all(h[zi] for zi in shape.z_indices
                                   if zi != deriv.z_index))


def _permute_polynomial(poly: Polynomial, sigma) -> Polynomial:
    """The image of poly under T_i -> T_sigma(i)."""
    out = {}
    for exp, c in poly.terms.items():
        moved = [0] * len(exp)
        for i, e in enumerate(exp):
            moved[sigma[i]] = e
        out[tuple(moved)] = c
    return Polynomial(out)


def trinomial_symmetries_by_permutation(shape: TrinomialShape,
                                        deriv: TrinomialDerivation):
    """(order, classes) of the variable permutations that commute with the
    derivation, by trying each one.

    A candidate sigma maps each block to itself and each variable to one of
    equal exponent, so T_i -> T_sigma(i) fixes the relation. It is kept when
    sigma delta sigma^-1 has exactly delta's variable images. The classes
    are the orbits of the kept permutations on the variables the derivation
    does not move, each sorted, in order of their first variable.

    This assumes that a symmetry is a plain variable permutation, not a
    permutation composed with an element of the quasitorus; whether the
    finite factor of the isotropy group needs the composed kind is not
    decided here.
    """
    ring = shape.ring
    n = ring.nvars
    rel = ring.l0 + ring.l1 + ring.l2
    block = [0] * ring.n0 + [1] * ring.n1 + [2] * ring.n2
    groups = {}
    for v in range(n):
        groups.setdefault((block[v], rel[v]), []).append(v)
    groups = list(groups.values())
    images = deriv.derivation.images
    zero = Polynomial()

    def image(v):
        return ring.reduce(images.get(v, zero))

    kept = []
    for parts in product(*(permutations(g) for g in groups)):
        sigma = [0] * n
        for g, part in zip(groups, parts):
            for a, b in zip(g, part):
                sigma[a] = b
        inverse = [0] * n
        for a, b in enumerate(sigma):
            inverse[b] = a
        # (sigma delta sigma^-1)(T_v) = sigma(delta(T_inverse(v)))
        if all(ring.reduce(_permute_polynomial(image(inverse[v]), sigma)) == image(v)
               for v in range(n)):
            kept.append(sigma)
    others = [v for v in range(n) if v not in (deriv.x_index, deriv.z_index)]
    orbits = {v: frozenset(sigma[v] for sigma in kept) for v in others}
    classes = sorted({tuple(sorted(o)) for o in orbits.values()})
    return len(kept), tuple(classes)


def trinomial_commutant_by_search(shape: TrinomialShape, deriv: TrinomialDerivation,
                                  degree: int):
    """The first replica h' d[x', z'] with (x', z') != (x, z) and h' a kernel
    monomial of d[x', z'] of degree at most degree that commutes with the
    derivation, decided by ``pair_commutes``; None if there is none."""
    ring = shape.ring
    for base in elementary_derivations(shape):
        if (base.x_index, base.z_index) == (deriv.x_index, deriv.z_index):
            continue
        for h in kernel_monomials(shape, base, degree):
            partner = derivation_for(shape, base.x_index, base.z_index,
                                     h if any(h) else None)
            if pair_commutes(ring, deriv, partner):
                return partner
    return None
