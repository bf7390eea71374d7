"""Exact integer cone geometry, written apart from lndkit.

The input generator and the answer checks use these routines so that
neither one calls into the library under test: generating inputs must not
warm lndkit's caches, and a check that reused lndkit code would share its
defects. The ranks here are at most 4 and the cones have at most 6 rays,
so facets are found by brute force over (rank - 1)-subsets of the rays.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd


def pairing(a, b):
    return sum(x * y for x, y in zip(a, b))


def primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v) if g else tuple(v)


def determinant(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    total = 0
    for j, a in enumerate(rows[0]):
        if a:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * a * determinant(minor)
    return total


def rank(rows):
    """Rank over Q by fraction-free elimination on integer rows."""
    work = [list(r) for r in rows if any(r)]
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        p = work[r]
        for i in range(r + 1, len(work)):
            f = work[i][c]
            if f:
                work[i] = [p[c] * x - f * y for x, y in zip(work[i], p)]
        r += 1
    return r


def normal_vector(rows, n):
    """Generalized cross product of n - 1 vectors in Z^n."""
    return tuple((-1) ** i * determinant([r[:i] + r[i + 1:] for r in rows])
                 for i in range(n))


def facet_normals(rays, n, max_radius=None):
    """Primitive inner facet normals of the full-dimensional cone, or None
    as soon as their box radius is seen to exceed ``max_radius``."""
    out = set()
    radius = 0
    for sub in combinations(rays, n - 1):
        u = normal_vector(sub, n)
        if not any(u):
            continue
        pos = neg = False
        for r in rays:
            p = pairing(u, r)
            pos = pos or p > 0
            neg = neg or p < 0
        if pos and neg:
            continue
        u = primitive(tuple(-x for x in u) if neg else u)
        if u not in out:
            out.add(u)
            radius += max(abs(x) for x in u)
            if max_radius is not None and radius > max_radius:
                return None
    return tuple(sorted(out))


def pointed_cone(rays, n, max_radius=None):
    """(extremal rays, dual rays) of a full-dimensional pointed cone.

    Returns None when the generators do not span Z^n or the cone contains
    a line, and also when the dual completeness radius exceeds
    ``max_radius``. Both lists are primitive and sorted, which is lndkit's
    canonical order for cone rays and dual generators.
    """
    gens = sorted({primitive(tuple(r)) for r in rays if any(r)})
    if len(gens) < n or rank(gens) != n:
        return None
    normals = facet_normals(gens, n, max_radius)
    if normals is None or rank(normals) != n:
        return None
    extremal = tuple(g for g in gens
                     if rank([u for u in normals if pairing(u, g) == 0]) == n - 1)
    return extremal, normals


def box_radius(vectors):
    """lndkit's completeness bound: the sum of the infinity norms."""
    return sum(max(abs(x) for x in v) for v in vectors)


def roots(rays, bound):
    """(ray index, character) of every Demazure root in [-bound, bound]^n,
    sorted by ray index and then lexicographically."""
    found = []
    for e in product(range(-bound, bound + 1), repeat=len(rays[0])):
        i = is_root(e, rays)
        if i is not None:
            found.append((i, e))
    found.sort()
    return found


def roots_on_ray(rays, i, bound):
    """The roots pairing -1 with rays[i], in lexicographic order."""
    for e in product(range(-bound, bound + 1), repeat=len(rays[0])):
        if is_root(e, rays) == i:
            yield e


def _last_coordinate(rays, head, bound, equal=None):
    """How many x in [-bound, bound] make (head, x) pair >= 0 with every
    ray, and exactly -1 with rays[equal] when ``equal`` is given."""
    lo, hi = -bound, bound
    for i, r in enumerate(rays):
        s = sum(a * b for a, b in zip(head, r))
        c = r[-1]
        if i == equal:
            # s + c x == -1
            if c == 0:
                if s != -1:
                    return 0
                continue
            if (-1 - s) % c:
                return 0
            x = (-1 - s) // c
            lo, hi = max(lo, x), min(hi, x)
        elif c > 0:
            lo = max(lo, -(s // c))  # ceil(-s / c)
        elif c < 0:
            hi = min(hi, s // -c)
        elif s < 0:
            return 0
    return max(0, hi - lo + 1)


def count_roots(rays, bound):
    """Number of Demazure roots in [-bound, bound]^n, without listing them."""
    n = len(rays[0])
    total = 0
    for head in product(range(-bound, bound + 1), repeat=n - 1):
        for i in range(len(rays)):
            total += _last_coordinate(rays, head, bound, equal=i)
    return total


def count_semigroup_points(rays, bound):
    """Nonzero points of [-bound, bound]^n pairing >= 0 with every ray: the
    points lndkit's Hilbert-basis scan keeps, whose count N sets the cost
    of its O(N^2) reduction."""
    n = len(rays[0])
    return sum(_last_coordinate(rays, head, bound)
               for head in product(range(-bound, bound + 1), repeat=n - 1)) - 1


def semigroup_points(rays, bound):
    """Nonzero points of [-bound, bound]^n pairing >= 0 with every ray."""
    return [m for m in product(range(-bound, bound + 1), repeat=len(rays[0]))
            if any(m) and in_semigroup(m, rays)]


def hilbert_basis(rays, dual):
    """Hilbert basis of the semigroup {m : <m, ray> >= 0}, sorted: the
    points of the completeness box that are not another point plus a
    semigroup element. Brute force; meant for small boxes."""
    points = semigroup_points(rays, box_radius(dual))
    return [x for x in points
            if not any(y != x and in_semigroup([a - b for a, b in zip(x, y)], rays)
                       for y in points)]


def slice_norm(rays, ray, limit):
    """Smallest coordinate absolute sum of a semigroup point at level one
    against ``ray``, or None when it exceeds ``limit``."""
    n = len(ray)
    for radius in range(1, limit + 1):
        for s in product(range(-radius, radius + 1), repeat=n):
            if sum(map(abs, s)) == radius and pairing(s, ray) == 1 \
                    and in_semigroup(s, rays):
                return radius
    return None


def in_semigroup(m, rays):
    return all(pairing(m, r) >= 0 for r in rays)


def is_root(e, rays):
    """Index of the ray e pairs to -1 with, when e is a Demazure root."""
    hit = None
    for i, v in enumerate(rays):
        p = pairing(e, v)
        if p == -1 and hit is None:
            hit = i
        elif p < 0:
            return None
    return hit


def minors_gcd(rows, k):
    """gcd of all k x k minors of an integer matrix."""
    g = 0
    ncols = len(rows[0])
    for rsub in combinations(range(len(rows)), k):
        for csub in combinations(range(ncols), k):
            g = gcd(g, determinant([[rows[i][j] for j in csub] for i in rsub]))
            if g == 1:
                return 1
    return g


def invariant_factors(rows):
    """Smith invariant factors from the determinantal divisors."""
    out = []
    prev = 1
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        d = minors_gcd(rows, k)
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return tuple(out)


def extends_to_basis(v, w):
    return minors_gcd([list(v), list(w)], 2) == 1


def adjacent(v, w, normals, n):
    """Do the rays v and w span a common two-dimensional face."""
    return rank([u for u in normals
                 if pairing(u, v) == 0 and pairing(u, w) == 0]) == n - 2


def neighbours(v, rays, normals, n):
    """Rays that are two-face adjacent to v and extend {v, ray} to a basis."""
    return [w for w in rays
            if w != v and adjacent(v, w, normals, n) and extends_to_basis(v, w)]


def commute(e, v, f, w):
    """Closed form for two root derivations chi^m -> <m,v> chi^(m+e).

    [d_e, d_f] sends chi^m to (<m,w><f,v> - <m,v><e,w>) chi^(m+e+f), and the
    semigroup spans the lattice, so the bracket vanishes iff
    <f,v> w = <e,w> v, which for distinct primitive rays means both
    pairings are zero.
    """
    return v == w or (pairing(f, v) == 0 and pairing(e, w) == 0)
