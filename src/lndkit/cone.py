"""Rational polyhedral cones, exactly.

A cone is stored by its generators: primitive, lex-sorted, and irredundant,
i.e. its canonical ray list, when the cone is pointed. One polyhedral
algorithm serves every question: a double description pass that carries
the lineality space of the dual explicitly (Fukuda-Prodon, *Double
description method revisited*, 1996). Its cached output carries the rays
that ``make_cone`` keeps and the lines the pass leaves, and it decides
pointedness, the dual and its faces as cones, and the two-face functional,
a sum of the dual generators on a face, which decides adjacency and shifts
the partner roots of ``toric``.
The box scan ``lattice_points``, behind root enumeration, local slices and
Hilbert bases, pairs rows the same way, over the integers, to eliminate
its last coordinate exactly. Roots and local slices are level scans, an
equality <v, x> = level on a ray v plus the other rays' rows; the equality
is substituted out first, so they scan n - 1 coordinates. An equality
reaches ``lattice_points`` only from a ray with no +-1 entry or of rank 1,
which keeps the two-row scan, and from the Hilbert scan of a kernel face,
whose dual has lines. There is no floating point anywhere and no
tolerance to tune.

Two per-process caches hold what depends on a cone alone: ``dual_cone``
and ``hilbert_basis`` are unbounded ``lru_cache``s, keyed by the cone (and
the box bound), so a process asking about many distinct cones keeps every
answer until it exits or calls their ``cache_clear``.

Intended scale is the desk scale of the surrounding theory (ambient rank up
to about 6); the algorithms are chosen for exactness and auditability, not
for large instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul, sub

from .errors import RefusalError
from .lattice import (
    LatticeMatrix,
    LatticeVector,
    is_zero_vector,
    matrix_rank,
    pairing,
    primitive_part,
    row_reduce,
)


# ---------------------------------------------------------------------------
# cones


@dataclass(frozen=True)
class Cone:
    """Pointed or not; rays are primitive, lex-sorted, and irredundant
    when the cone is pointed."""

    rank: int
    rays: LatticeMatrix


@dataclass(frozen=True)
class DualCone:
    """Generators of the dual, the dimension of the cone they span, the
    number of lines the double description leaves (the codimension of the
    input), and the input rays that span extremal rays, or all of them
    when the input has lines."""

    generators: LatticeMatrix
    dimension: int
    lines: int
    extremal_rays: LatticeMatrix


@dataclass(frozen=True)
class HilbertBasis:
    elements: LatticeMatrix
    complete: bool


def make_cone(rank: int, generators) -> Cone:
    """The cone spanned by the generators, with its canonical ray list.

    The nonzero generators are made primitive, deduplicated and sorted, and
    the cached double description of that cone keeps its extremal rays. A
    cone with lines keeps every generator: every toric question refuses it,
    naming a line read off its dual.
    """
    for g in generators:
        if len(g) != rank:
            raise ValueError("generator length does not match rank")
    gens = tuple(sorted({primitive_part(tuple(g)) for g in generators
                         if not is_zero_vector(tuple(g))}))
    # on a canonical input this is the cache key of the result, so the
    # later questions on that cone find its dual computed
    return Cone(rank, dual_cone(Cone(rank, gens)).extremal_rays)


def is_pointed(cone: Cone) -> bool:
    """A cone is pointed iff its dual is full-dimensional."""
    return dual_cone(cone).dimension == cone.rank


def _orthogonal_vector(rows, rank: int):
    """A primitive integer vector orthogonal to every row, or None when the
    rows have full rank."""
    # read a kernel vector off the first non-pivot column, scaled by |d| > 0
    # so that its direction does not depend on the sign of d
    work, pivots, d = row_reduce(rows)
    c = next((c for c in range(rank) if c not in pivots), None)
    if c is None:
        return None
    vec = [0] * rank
    vec[c] = abs(d)
    for row, pc in zip(work, pivots):
        vec[pc] = -row[c] if d > 0 else row[c]
    return primitive_part(tuple(vec))


def lineality_witness(cone: Cone):
    """A nonzero integer vector w with both w and -w in the cone, or None."""
    # the lineality space is the kernel of the dual generators
    return _orthogonal_vector(dual_cone(cone).generators, cone.rank)


@lru_cache(maxsize=None)
def dual_cone(cone: Cone) -> DualCone:
    """Generators of the dual cone by double description with explicit lines.

    The dual in progress is kept as a lineality basis plus rays, starting
    from the unit vectors as lines and no rays (Fukuda-Prodon, *Double
    description method revisited*, 1996), and the halfspaces of the rays
    are added one at a time:
    - when a line l pairs nonzero with the ray r, that line is cut: l,
      oriented so that a = <l, r> > 0, becomes a ray, and every other line
      and ray g moves along it onto r's hyperplane as a g - <g, r> l. The
      result is the old cone cut by the halfspace, and no ray is redundant;
    - otherwise every line lies on r's hyperplane, the rays pairing
      nonnegatively with r stay, and each positive and negative pair is
      combined on the hyperplane, a candidate kept by the standard rank
      test: the rays processed so far that vanish on it have rank one less
      than all of them (one ``matrix_rank``, a ``row_reduce``, per
      candidate).
    So the lines always span the lineality space of the dual, and the rays
    are one per extremal ray of the dual modulo it. The output is the rays
    and both directions of every line, primitive and sorted. A
    full-dimensional input leaves no line, so the output is exactly the
    extremal ray set of the (then pointed) dual: ``dual_as_cone`` and the
    kernel face of ``toric.kernel_of_root`` take it as that ray list
    unchecked. A lower-dimensional input of dimension k gets n - k lines,
    so 2 (n - k) generators, plus one ray per facet of the input. The rank
    of the generators is stored with them as ``dimension``, so
    ``is_pointed`` costs a cache hit and a comparison, and the number of
    lines as ``lines``, so ``dual_as_cone`` does too.

    On a pointed input (a full-dimensional dual) the pass also keeps the
    input rays that span extremal rays, for ``make_cone``. The dual
    generators vanishing on a ray r cut out the smallest face of the input
    containing it. r is extremal iff that face is its own ray; otherwise the
    face is spanned by at least two other extremal rays, and each of them
    vanishes on every generator r vanishes on. So on a primitive,
    duplicate-free input, r is kept iff no other input ray's zero set
    contains r's. That set is the same as the rank test's, rank n - 1 for
    the generators vanishing on r, and costs no elimination.
    """
    n = cone.rank
    lines = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays: list[LatticeVector] = []
    processed: list[LatticeVector] = []
    for r in sorted(cone.rays):
        processed.append(r)
        cut = next((i for i, l in enumerate(lines) if pairing(l, r)), None)
        if cut is not None:
            l = lines.pop(cut)
            a = pairing(l, r)
            if a < 0:
                l, a = tuple(-x for x in l), -a

            def onto_hyperplane(g):
                b = pairing(g, r)
                return primitive_part(tuple(a * x - b * y for x, y in zip(g, l)))

            lines = [onto_hyperplane(g) for g in lines]
            rays = [l] + [onto_hyperplane(g) for g in rays]
            continue
        # the processed rays have rank n - len(lines), the codimension of
        # the lineality space, and r is in their span
        full_rank = n - len(lines)
        pos = [g for g in rays if pairing(g, r) > 0]
        neg = [g for g in rays if pairing(g, r) < 0]
        rays = [g for g in rays if pairing(g, r) >= 0]
        for p in pos:
            a = pairing(p, r)
            for m in neg:
                b = pairing(m, r)
                comb = primitive_part(tuple(a * mi - b * pi for pi, mi in zip(p, m)))
                active = [q for q in processed if pairing(comb, q) == 0]
                if matrix_rank(active) >= full_rank - 1:
                    rays.append(comb)
    gens = tuple(sorted({*rays, *lines, *(tuple(-x for x in l) for l in lines)}))
    dimension = matrix_rank(gens)
    extremal = cone.rays
    if dimension == n:
        # each input ray's zero set among the dual generators, as a bit mask
        zeros = [sum(1 << i for i, d in enumerate(gens) if pairing(d, r) == 0)
                 for r in cone.rays]
        extremal = tuple(r for r, z in zip(cone.rays, zeros)
                         if not any(y & z == z for s, y in zip(cone.rays, zeros)
                                    if s != r))
    return DualCone(generators=gens, dimension=dimension, lines=len(lines),
                    extremal_rays=extremal)


def dual_as_cone(cone: Cone) -> Cone:
    """The dual of a full-dimensional cone as a Cone.

    The dual generators are already its canonical ray list, so no
    redundancy pass is needed. Every caller wants the dual for its Hilbert
    basis, and the dual of a lower-dimensional cone contains a line, so it
    has none: that is refused at once, with the line as the witness. The
    cached double description leaves a line exactly then, so the check
    costs a cache hit, and the line is solved for only when the cone is
    refused.
    """
    dual = dual_cone(cone)
    if dual.lines:
        # the dual's lineality space is the kernel of the rays
        raise RefusalError(
            "cone is not full-dimensional, so its dual contains a line and "
            "the dual semigroup has no Hilbert basis",
            witness={"dual_lineality": list(_orthogonal_vector(cone.rays, cone.rank))})
    return Cone(cone.rank, dual.generators)


def _ray_pair(cone: Cone, v, vp):
    v, vp = tuple(v), tuple(vp)
    if v not in cone.rays or vp not in cone.rays:
        raise ValueError("both arguments must be rays of the cone")
    if v == vp:
        raise ValueError("need two distinct rays")
    return v, vp


def two_face_functional(cone: Cone, v: LatticeVector, vp: LatticeVector):
    """Integer functional zero on v and vp and at least 1 on every other
    ray, or None; it exists iff the two rays span a common two-face.

    The dual generators that vanish on both rays generate the face of the
    dual orthogonal to them, and their plain sum lies in its relative
    interior (Fukuda-Prodon, *Double description method revisited*, 1996).
    So some functional of the dual is positive on every other ray iff this
    sum is, and the sum is returned. Both directions of every line of the
    dual vanish on both rays, so the lines cancel in the sum, and what is
    left is one representative per dual ray on the face. The dual
    generators depend on the cone alone, so the cone defines the functional.
    """
    v, vp = _ray_pair(cone, v, vp)
    shared = [d for d in dual_cone(cone).generators
              if pairing(d, v) == 0 and pairing(d, vp) == 0]
    omega = tuple(sum(d[i] for d in shared) for i in range(cone.rank))
    if all(pairing(omega, r) > 0 for r in cone.rays if r not in (v, vp)):
        return omega
    return None


# ---------------------------------------------------------------------------
# Hilbert bases


def completeness_bound(cone: Cone) -> int:
    """Box radius guaranteed to contain the whole Hilbert basis.

    Every irreducible element lies in the zonotope spanned by the primitive
    rays, so the sum of their infinity norms bounds each coordinate.
    """
    return sum(max(abs(x) for x in r) for r in cone.rays) if cone.rays else 0


def lattice_points(rows, bound: int) -> list:
    """Integer points x of [-bound, bound]^n with <a, x> >= c for every row
    (a, c), in lexicographic order. ``rows`` must not be empty; an equality
    is written as two opposite rows. The level scans of ``_level_points``
    substitute their equality out instead, except on a ray with no +-1
    entry or of rank 1, so equalities come here from those rays and from
    the lines of a kernel face's dual.

    Depth-first over the coordinates. At each depth the coordinate's
    feasible interval is cut from rows in that coordinate alone, given the
    prefix fixed so far:
    - at coordinates 0 .. n-3 the rows are relaxed: the slack a row still
      needs, less the most the later coordinates can give inside the box,
      is what this coordinate has to supply;
    - at coordinate n-2 they are exact: x_{n-1} is eliminated by
      Fourier-Motzkin, pairing every row with a positive last entry with
      every row with a negative one, the box rows of x_{n-1} included, and
      rows with a zero last entry are taken as they are. So every value
      kept there leaves a nonempty real interval for x_{n-1};
    - at coordinate n-1 nothing is left to relax, and the integers of its
      interval are emitted behind the prefix.
    The multipliers of the elimination depend on the rows only, so they are
    computed once; a node computes just the right-hand sides.
    """
    n = len(rows[0][0])
    # reach[k][i]: the most coordinates k.. can add to row i inside the box
    reach = [[bound * sum(abs(x) for x in a[k:]) for a, _ in rows]
             for k in range(n + 1)]
    columns = [[a[k] for a, _ in rows] for k in range(n)]
    # exact rows of x_{n-2}: (a, i, p, j, q, c) reads
    # a * x_{n-2} >= p * needs[i] + q * needs[j] + c. Before elimination a
    # row of (x_{n-2}, x_{n-1}) is (a, z, i, w, c), needing w * needs[i] + c;
    # the box rows of x_{n-1} have w = 0 and c = -bound
    exact = []
    if n >= 2:
        before, last = columns[n - 2], columns[n - 1]
        lowers = [(before[i], z, i, 1, 0) for i, z in enumerate(last) if z > 0]
        uppers = [(before[i], z, i, 1, 0) for i, z in enumerate(last) if z < 0]
        exact = [(before[i], i, 1, 0, 0, 0) for i, z in enumerate(last) if z == 0]
        for a, z, i, w, c in lowers + [(0, 1, 0, 0, -bound)]:
            for a2, z2, j, w2, c2 in uppers + [(0, -1, 0, 0, -bound)]:
                if w or w2:  # the two box rows alone say nothing of x_{n-2}
                    p, q = -z2, z
                    exact.append((p * a + q * a2, i, p * w, j, q * w2,
                                  p * c + q * c2))
    points = []
    coords = [0] * n

    def walk(k, needs):
        # needs[i]: what coordinates k.. must still add to row i
        lo, hi = -bound, bound
        if k == n - 2:
            cuts = [(a, p * needs[i] + q * needs[j] + c)
                    for a, i, p, j, q, c in exact]
        else:
            cuts = zip(columns[k], map(sub, needs, reach[k + 1]))
        for a, need in cuts:
            if a > 0:
                lo = max(lo, -(-need // a))
            elif a < 0:
                hi = min(hi, need // a)
            elif need > 0:
                return
        if k == n - 1:
            prefix = tuple(coords[:k])
            points.extend(prefix + (val,) for val in range(lo, hi + 1))
            return
        for val in range(lo, hi + 1):
            coords[k] = val
            walk(k + 1, [need - a * val for a, need in zip(columns[k], needs)])

    walk(0, [c for _, c in rows])
    return points


def _level_points(rays, v: LatticeVector, level: int, bound: int) -> list:
    """Points x of [-bound, bound]^n with <v, x> = level and <r, x> >= 0 for
    every other ray r, in lexicographic order: the roots on v at level -1,
    the slice candidates at level +1.

    The equality is substituted out before the box scan. v is primitive, and
    when some entry v_j is s = +-1 (the last such j), x_j = s (level -
    sum_{i != j} v_i x_i). So every other row becomes a row in the remaining
    n - 1 coordinates, x_j's two box rows become rows in them too, and
    ``lattice_points`` scans those n - 1 coordinates; x_j is put back into
    each point. The scan is in lex order of the remaining coordinates, which
    is the lex order of the points when j is the last coordinate; otherwise
    they are sorted once. A ray with no +-1 entry, such as (2, 3, 5), and a
    rank-1 cone keep the scan of all n coordinates, with the equality as two
    opposite rows.
    """
    others = [(r, 0) for r in rays if r != v]
    n = len(v)
    j = next((i for i in reversed(range(n)) if v[i] in (1, -1)), None)
    if j is None or n == 1:
        return lattice_points([(v, level), (tuple(-x for x in v), -level)]
                              + others, bound)
    # x_j = fixed - <w, y> for y the other coordinates
    s = v[j]
    fixed = s * level
    w = tuple(s * x for x in v[:j] + v[j + 1:])
    rows = [(tuple(x - a[j] * y for x, y in zip(a[:j] + a[j + 1:], w)),
             c - a[j] * fixed) for a, c in others]
    rows += [(tuple(-x for x in w), -bound - fixed), (w, fixed - bound)]
    points = [y[:j] + (fixed - sum(map(mul, w, y)),) + y[j:]
              for y in lattice_points(rows, bound)]
    if j < n - 1:
        points.sort()
    return points


@lru_cache(maxsize=None)
def hilbert_basis(cone: Cone, bound: int | None = None) -> HilbertBasis:
    """Irreducible lattice points of the cone inside a box.

    With no explicit bound the box is taken large enough to be provably
    complete and the irreducibility filter is then exact. With a smaller
    caller-supplied bound the result is marked complete=False: it lists the
    irreducible elements found inside the box only.

    The box points of the cone come from ``lattice_points`` against the
    dual generators. A point is reducible when it lies above another box
    point in every pairing with them, i.e. their difference is a nonzero
    cone point. Reduction is graded, as in Normaliz (Bruns-Ichim 2010): the
    degree, the sum of those pairings, is positive off the origin of the
    pointed cone, so whatever lies below a point has lower degree and lies
    above an irreducible point of lower degree still. Scanning by degree, a
    point is kept iff it lies above no point kept before it.
    """
    if not is_pointed(cone):
        raise RefusalError(
            "cone contains a line, so its semigroup has no Hilbert basis",
            witness={"lineality": list(lineality_witness(cone))},
        )
    needed = completeness_bound(cone)
    b = needed if bound is None else bound
    if not cone.rays:
        return HilbertBasis(elements=(), complete=True)
    dual = dual_cone(cone).generators
    points = [p for p in lattice_points([(d, 0) for d in dual], b) if any(p)]
    pairings = [tuple(sum(map(mul, p, d)) for d in dual) for p in points]
    kept = []
    for i in sorted(range(len(points)), key=lambda i: sum(pairings[i])):
        px = pairings[i]
        if not any(all(a >= c for a, c in zip(px, pairings[j])) for j in kept):
            kept.append(i)
    elems = tuple(sorted(points[i] for i in kept))
    return HilbertBasis(elements=elems, complete=b >= needed)
