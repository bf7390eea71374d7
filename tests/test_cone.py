import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import ceil

import pytest

from lndkit import cone as C
from lndkit import lattice
from lndkit.errors import RefusalError
from lndkit.toric import is_maximal, require_root
from oracles import (
    cone_member,
    dual_cone_without_lines,
    extremal_by_rank,
    extremal_rays,
    feasible_point,
    fm_two_face_functional,
    level_points_by_two_rows,
    member_of_generators,
    positive_functional,
)

SQUARE = C.make_cone(3, [(0, 0, 1), (2, 0, 1), (0, 1, 1), (1, 1, 1)])
SQUARE_DUAL_GENS = ((-1, -1, 2), (0, -1, 1), (0, 1, 0), (1, 0, 0))


# ---------------------------------------------------------------------------
# oracles


def adjacency_by_incidence(c, v, vp):
    """Face lattice route: collect the dual generators vanishing on both
    rays, then the face they cut out; adjacency means that face has exactly
    these two rays on it."""
    dual = C.dual_cone(c).generators
    shared = [d for d in dual if lattice.pairing(v, d) == 0
              and lattice.pairing(vp, d) == 0]
    face = [r for r in c.rays
            if all(lattice.pairing(r, d) == 0 for d in shared)]
    return sorted(face) == sorted({v, vp})


def box_points(c, b):
    """Nonzero lattice points of the cone in the box, by brute enumeration."""
    return [p for p in product(range(-b, b + 1), repeat=c.rank)
            if any(p) and cone_member(c, p)]


def decomposes(c, elems, target):
    """Is target a nonnegative integer combination of elems (DFS + memo)."""
    elems = tuple(elems)
    seen = {}

    def go(t):
        if all(x == 0 for x in t):
            return True
        if t in seen:
            return seen[t]
        seen[t] = False
        for e in elems:
            t2 = tuple(a - b for a, b in zip(t, e))
            if cone_member(c, t2) and go(t2):
                seen[t] = True
                break
        return seen[t]

    return go(tuple(target))


def relaxed_walk(rows, bound):
    """The box scan before the exact last stage: depth-first over the
    coordinates, each one's interval cut from every row relaxed by the most
    the later coordinates can give inside the box, so a prefix is only
    found dead once its last coordinate is reached."""
    n = len(rows[0][0])
    reach = [[bound * sum(abs(x) for x in a[k:]) for a, _ in rows]
             for k in range(n + 1)]
    columns = [[a[k] for a, _ in rows] for k in range(n)]
    points = []
    coords = [0] * n

    def walk(k, needs):
        if k == n:
            points.append(tuple(coords))
            return
        lo, hi = -bound, bound
        for a, need, most in zip(columns[k], needs, reach[k + 1]):
            need -= most
            if a > 0:
                lo = max(lo, -(-need // a))
            elif a < 0:
                hi = min(hi, need // a)
            elif need > 0:
                return
        for val in range(lo, hi + 1):
            coords[k] = val
            walk(k + 1, [need - a * val for a, need in zip(columns[k], needs)])

    walk(0, [c for _, c in rows])
    return points


def random_pointed_cone(rng, rank, lo=-2, hi=3, max_bound=8):
    for _ in range(200):
        k = rng.randint(rank, rank + 2)
        gens = [tuple(rng.randint(lo, hi) for _ in range(rank)) for _ in range(k)]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        c = C.make_cone(rank, gens)
        if not c.rays or not C.is_pointed(c):
            continue
        if C.completeness_bound(c) > max_bound:
            continue
        return c
    raise AssertionError("sampling failed to find a pointed cone")


def random_generators(rng, rank):
    """Small nonzero generators, spanning a cone that is pointed or not
    and often lower-dimensional."""
    k = rng.randint(1, rank + 2)
    gens = [tuple(rng.randint(-2, 3) for _ in range(rank)) for _ in range(k)]
    if rank > 1 and rng.random() < 0.4:
        # inside the hyperplane x_0 = x_1
        gens = [(g[1],) + g[1:] for g in gens]
    return [g for g in gens if any(g)]


def random_cone(rng, rank):
    return C.make_cone(rank, random_generators(rng, rank))


def sweep_cones(seed, count):
    rng = random.Random(seed)
    return [random_cone(rng, rng.randint(1, 4)) for _ in range(count)]


# ---------------------------------------------------------------------------
# feasibility core


def test_feasible_point_basic():
    # x >= 1, -x >= -3 has solutions; the reconstruction must pick one
    pt = feasible_point(1, [], [((1,), 1), ((-1,), -3)])
    assert pt is not None and 1 <= pt[0] <= 3
    assert feasible_point(1, [], [((1,), 1), ((-1,), -2)]) is not None
    assert feasible_point(1, [], [((1,), 1), ((-1,), 0)]) is None


def test_feasible_point_equalities():
    # x + y = 2 with x, y >= 0
    pt = feasible_point(2, [((1, 1), 2)], [((1, 0), 0), ((0, 1), 0)])
    assert pt is not None and pt[0] + pt[1] == 2 and pt[0] >= 0 and pt[1] >= 0
    # inconsistent pair of equalities
    assert feasible_point(2, [((1, 1), 2), ((2, 2), 5)], []) is None
    # equality chain where substitution order used to matter
    pt = feasible_point(3, [((1, 1, 0), 0), ((0, 1, 1), 0), ((1, 0, -1), 0)],
                          [((1, 0, 0), 1)])
    assert pt is not None
    x, y, z = pt
    assert x + y == 0 and y + z == 0 and x == z and x >= 1


def test_feasible_point_mixed_random():
    rng = random.Random(42)
    for _ in range(150):
        n = rng.randint(1, 4)
        target = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                       for _ in range(n))
        eqs, ineqs = [], []
        for _ in range(rng.randint(0, 3)):
            co = [rng.randint(-4, 4) for _ in range(n)]
            rhs = sum(c * t for c, t in zip(co, target))
            eqs.append((co, rhs))
        for _ in range(rng.randint(0, 5)):
            co = [rng.randint(-4, 4) for _ in range(n)]
            val = sum(c * t for c, t in zip(co, target))
            ineqs.append((co, val - rng.randint(0, 3)))
        # built around a known point, so always feasible
        pt = feasible_point(n, eqs, ineqs)
        assert pt is not None
        for co, rhs in eqs:
            assert sum(c * p for c, p in zip(co, pt)) == rhs
        for co, rhs in ineqs:
            assert sum(c * p for c, p in zip(co, pt)) >= rhs


def test_feasible_point_detects_infeasible_combination():
    # x >= 1, y >= 1, -x - y >= -1
    assert feasible_point(
        2, [], [((1, 0), 1), ((0, 1), 1), ((-1, -1), -1)]) is None


def test_lattice_points_against_brute_force():
    rng = random.Random(404)
    # zero rows hold on the whole box or on none of it
    cases = [([((0, 0), 0)], 1), ([((0, 0), 1)], 1),
             ([((1, 0), 0), ((-1, 0), 0)], 0)]
    for _ in range(150):
        n = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 4)):
            a = tuple(rng.choice((-2, -1, 0, 0, 1, 2, 3)) for _ in range(n))
            c = rng.randint(-4, 4)
            rows.append((a, c))
            if rng.random() < 0.3:
                # with its opposite row this is the equality <a, x> == c
                rows.append((tuple(-x for x in a), -c))
        cases.append((rows, rng.randint(0, 3)))
    # the shapes the exact elimination of the last coordinate must get
    # right: two coordinates, where it starts at once; a zero last column,
    # where no row pairs; and equalities whose last entry is 2 or 3, where
    # a prefix can leave a real interval holding no integer
    cases += [
        ([((1, 1), 0), ((-1, 2), -3)], 5),
        ([((0, 2), 1), ((0, -2), -1)], 4),
        ([((1, 2), 1), ((-1, -2), -1)], 5),
        ([((1, -1, 0), 0), ((0, 2, 0), 1)], 2),
        ([((1, 0, 2), 1), ((-1, 0, -2), -1), ((0, 1, 1), 0)], 5),
        ([((2, -1, 3), 1), ((-2, 1, -3), -1)], 5),
    ]
    for _ in range(90):
        n = rng.randint(2, 4)
        flat = rng.random() < 0.25
        rows = []
        for _ in range(rng.randint(1, 4)):
            a = [rng.choice((-2, -1, 0, 0, 1, 2, 3)) for _ in range(n)]
            c = rng.randint(-5, 5)
            if flat:
                a[-1] = 0
            elif rng.random() < 0.4:
                a[-1] = rng.choice((-3, -2, 2, 3))
                rows.append((tuple(-x for x in a), -c))
            rows.append((tuple(a), c))
        cases.append((rows, rng.randint(0, 5)))
    nonempty = gaps = 0
    for rows, bound in cases:
        n = len(rows[0][0])
        box = range(-bound, bound + 1)
        want = [x for x in product(box, repeat=n)
                if all(sum(p * q for p, q in zip(a, x)) >= c for a, c in rows)]
        assert C.lattice_points(rows, bound) == want
        nonempty += bool(want)
        # prefixes whose real interval for the last coordinate is nonempty
        # but holds no integer
        for prefix in product(box, repeat=n - 1):
            lo, hi, ok = Fraction(-bound), Fraction(bound), True
            for a, c in rows:
                need = c - sum(p * q for p, q in zip(a, prefix))
                if a[-1] > 0:
                    lo = max(lo, Fraction(need, a[-1]))
                elif a[-1] < 0:
                    hi = min(hi, Fraction(need, a[-1]))
                else:
                    ok = ok and need <= 0
            gaps += ok and lo <= hi and ceil(lo) > hi
    assert 90 < nonempty < 210
    assert gaps > 200


def root_scans(seed, count):
    """Each ray's Demazure-root rows of random pointed cones of ranks 3-4."""
    rng = random.Random(seed)
    for _ in range(count):
        cone = random_pointed_cone(rng, rng.choice((3, 4)), max_bound=40)
        for v in cone.rays:
            rows = [(v, -1), (tuple(-x for x in v), 1)]
            yield rows + [(r, 0) for r in cone.rays if r != v]


def test_lattice_points_equals_relaxed_walk_on_root_scans():
    total = 0
    for rows in root_scans(406, 16):
        want = relaxed_walk(rows, 10)
        assert C.lattice_points(rows, 10) == want
        total += len(want)
    assert total > 1000


def test_lattice_points_equals_relaxed_walk_on_hilbert_boxes():
    # the toric-sweep benchmark's cones: the gates' random cones whose dual
    # Hilbert box has at most 3375 points at rank 3 and 28561 at rank 4
    rng = random.Random(407)
    limit = {3: 3375, 4: 28561}
    scanned = 0
    while scanned < 12:
        rank = rng.choice((3, 4))
        rays = [tuple(rng.randrange(-2, 3) for _ in range(rank))
                for _ in range(rng.randrange(rank, rank + 3))]
        cone = C.make_cone(rank, [r for r in rays if any(r)])
        if lattice.matrix_rank(cone.rays) < rank or not C.is_pointed(cone):
            continue
        dual = C.dual_as_cone(cone)
        bound = C.completeness_bound(dual)
        if (2 * bound + 1) ** rank > limit[rank]:
            continue
        rows = [(d, 0) for d in C.dual_cone(dual).generators]
        assert C.lattice_points(rows, bound) == relaxed_walk(rows, bound)
        scanned += 1


def unit_entry_position(v):
    """Where the last +-1 entry of v sits, the one a level scan substitutes
    out, or None when there is none."""
    j = max((i for i, x in enumerate(v) if x in (1, -1)), default=None)
    if j is None:
        return None
    return "last" if j == len(v) - 1 else "first" if j == 0 else "middle"


def test_level_points_equal_the_two_row_scan_sweep():
    start = time.monotonic()
    rng = random.Random(408)
    # rays with no +-1 entry keep the two-row scan; the rest substitute out
    # their last +-1 entry, first, in the middle or last
    cones = [C.make_cone(3, [(1, 0, 0), (0, 1, 0), (2, 3, 5)]),
             C.make_cone(3, [(2, 1, 3), (1, 2, 3), (0, 0, 1), (3, 2, 1)]),
             C.make_cone(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                             (0, 0, 0, 1), (1, 1, 1, -1)])]
    cones += [random_pointed_cone(rng, rank, lo=-3, hi=5, max_bound=40)
              for rank in (1, 2, 2, 3, 3, 3, 4, 4, 5) for _ in range(4)]
    seen, total = set(), 0
    for cone in cones:
        for v in cone.rays:
            for level in (-1, 1):
                bound = rng.randint(0, 10 if cone.rank <= 3 else 6)
                want = level_points_by_two_rows(cone.rays, v, level, bound)
                assert C._level_points(cone.rays, v, level, bound) == want
                seen.add((cone.rank, unit_entry_position(v), level))
                total += len(want)
    assert {rank for rank, _, _ in seen} == {1, 2, 3, 4, 5}
    assert {position for _, position, _ in seen} == {None, "first", "middle", "last"}
    assert {(position, level) for rank, position, level in seen if rank > 1} \
        >= {(p, lv) for p in (None, "first", "middle", "last") for lv in (-1, 1)}
    assert total > 10000
    assert time.monotonic() - start < 2.0


# ---------------------------------------------------------------------------
# construction and membership


def test_make_cone_canonical():
    c = C.make_cone(2, [(2, 0), (0, 3), (1, 1), (4, 0)])
    assert c.rays == ((0, 1), (1, 0))
    c2 = C.make_cone(2, [(0, 1), (1, 0)])
    assert c == c2


def test_make_cone_matches_the_greedy_fourier_motzkin_pass_sweep():
    # on a pointed cone the rays read off the dual are the extremal rays the
    # greedy pass keeps, and the ones the rank test keeps generator by
    # generator; a cone with lines keeps its generators, and its
    # pointedness and line are questions of the cone alone
    rng = random.Random(43)
    kinds = {}
    for _ in range(400):
        rank = rng.randint(1, 4)
        gens = random_generators(rng, rank)
        made = C.make_cone(rank, gens)
        canonical = tuple(sorted({lattice.primitive_part(g) for g in gens}))
        dual = C.dual_cone(C.Cone(rank, canonical))
        assert made.rays == dual.extremal_rays \
            == extremal_by_rank(rank, canonical, dual.generators)
        greedy = C.Cone(rank, extremal_rays(gens))
        pointed = C.is_pointed(made)
        assert pointed == C.is_pointed(greedy)
        assert C.lineality_witness(made) == C.lineality_witness(greedy)
        if pointed:
            assert made == greedy
        else:
            assert made.rays == tuple(sorted({lattice.primitive_part(g) for g in gens}))
        kind = (pointed, made == greedy)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds[(True, True)] > 200
    assert kinds.get((False, False), 0) > 20


def test_membership_cross_paths():
    rng = random.Random(17)
    for _ in range(40):
        rank = rng.randint(2, 4)
        k = rng.randint(1, rank + 2)
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(k)]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        c = C.make_cone(rank, gens)
        for _ in range(15):
            x = tuple(rng.randint(-5, 5) for _ in range(rank))
            # dual-pairing route and direct feasibility route must agree
            assert cone_member(c, x) == member_of_generators(c.rays, x)


def test_is_pointed_cases():
    assert C.is_pointed(SQUARE)
    assert C.is_pointed(C.make_cone(2, [(1, 0), (0, 1)]))
    assert not C.is_pointed(C.make_cone(2, [(1, 0), (-1, 0)]))
    assert not C.is_pointed(C.make_cone(2, [(1, 0), (-1, 1), (0, -1)]))
    assert C.is_pointed(C.make_cone(2, []))
    m = positive_functional(SQUARE)
    assert all(lattice.pairing(m, r) >= 1 for r in SQUARE.rays)


def test_is_pointed_matches_positive_functional_sweep():
    kinds = set()
    for c in sweep_cones(31, 150):
        pointed = C.is_pointed(c)
        assert pointed == (positive_functional(c) is not None)
        kinds.add((pointed, lattice.matrix_rank(c.rays) == c.rank))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_lineality_witness():
    c = C.make_cone(2, [(1, 0), (-1, 0), (0, 1)])
    w = C.lineality_witness(c)
    assert w is not None
    assert cone_member(c, w) and cone_member(c, tuple(-x for x in w))
    assert C.lineality_witness(SQUARE) is None
    # the direction is pinned: the reduction of this dual has pivot -1
    assert C.lineality_witness(C.make_cone(2, [(1, 0), (-1, 0)])) == (1, 0)


# ---------------------------------------------------------------------------
# duality


def test_dual_square_golden():
    assert C.dual_cone(SQUARE).generators == tuple(sorted(SQUARE_DUAL_GENS))


def test_dual_orthant_self():
    c = C.make_cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert sorted(C.dual_cone(c).generators) == sorted(c.rays)


def test_dual_pairings_nonnegative():
    rng = random.Random(7)
    for _ in range(30):
        rank = rng.randint(2, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank))
                for _ in range(rng.randint(1, rank + 2))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        c = C.make_cone(rank, gens)
        dual = C.dual_cone(c).generators
        for d in dual:
            for r in c.rays:
                assert lattice.pairing(d, r) >= 0


def test_double_dual_round_trip():
    rng = random.Random(23)
    for _ in range(25):
        rank = rng.randint(2, 4)
        c = random_pointed_cone(rng, rank, max_bound=10**9)
        dd = C.make_cone(rank, C.dual_cone(
            C.make_cone(rank, C.dual_cone(c).generators)).generators)
        assert dd.rays == c.rays


def facet_count(c):
    """Facets of the cone, as distinct ray sets of rank one below the
    cone's own, each the zero set of a generator of the dual found by the
    loop without lines."""
    dim = lattice.matrix_rank(c.rays)
    zero_sets = set()
    for d in dual_cone_without_lines(c).generators:
        face = frozenset(r for r in c.rays if lattice.pairing(d, r) == 0)
        if lattice.matrix_rank(list(face)) == dim - 1:
            zero_sets.add(face)
    return len(zero_sets)


def test_dual_cone_matches_the_loop_without_lines_sweep():
    # a full-dimensional input leaves no line: the output is the dual's
    # extremal ray set, byte for byte. A lower-dimensional one generates the
    # same dual from both directions of each line and one ray per facet
    rng = random.Random(47)
    full = lower = 0
    for _ in range(300):
        rank = rng.randint(1, 4)
        c = random_cone(rng, rank)
        got, want = C.dual_cone(c), dual_cone_without_lines(c)
        dim = lattice.matrix_rank(c.rays)
        if dim == rank:
            assert got == want
            full += 1
            continue
        lower += 1
        assert got.dimension == want.dimension
        assert len(got.generators) == 2 * (rank - dim) + facet_count(c)
        for d in got.generators:
            assert all(lattice.pairing(d, r) >= 0 for r in c.rays)
        for x in product(range(-2, 3), repeat=rank):
            assert (all(lattice.pairing(x, d) >= 0 for d in got.generators)
                    == all(lattice.pairing(x, d) >= 0 for d in want.generators))
    assert full > 100 and lower > 100


def test_dual_of_a_lower_dimensional_cone_is_its_line_and_facets():
    # a pointed cone of dimension 3 in Z^4: its dual is the line through
    # (-3, 0, 2, 1) and one ray per facet, where the loop without lines
    # keeps hundreds of generators
    c = C.make_cone(4, [(-1, -1, -2, 1), (-1, 0, -1, -1), (1, -2, 1, 1), (1, -2, 2, -1)])
    gens = C.dual_cone(c).generators
    assert len(gens) == 6 and facet_count(c) == 4
    assert (-3, 0, 2, 1) in gens and (3, 0, -2, -1) in gens
    assert len(dual_cone_without_lines(c).generators) == 276


def test_dual_as_cone_matches_make_cone_sweep():
    # a lower-dimensional cone is refused, see the test below
    full = [c for c in sweep_cones(37, 150) if lattice.matrix_rank(c.rays) == c.rank]
    for c in full:
        gens = C.dual_cone(c).generators
        assert C.dual_as_cone(c) == C.make_cone(c.rank, gens) == C.Cone(c.rank, gens)
    assert len(full) > 40


def test_dual_as_cone_refuses_a_lower_dimensional_cone():
    lower = [c for c in sweep_cones(37, 150) if lattice.matrix_rank(c.rays) < c.rank]
    for c in lower:
        with pytest.raises(RefusalError) as info:
            C.dual_as_cone(c)
        w = info.value.witness["dual_lineality"]
        assert lattice.content(w) == 1
        assert all(lattice.pairing(w, r) == 0 for r in c.rays)
    assert len(lower) > 20
    # a pointed cone whose dual has the line through e3
    with pytest.raises(RefusalError) as info:
        C.dual_as_cone(C.make_cone(3, [(1, 0, 0), (0, 1, 0)]))
    assert info.value.witness == {"dual_lineality": [0, 0, 1]}


def test_dual_of_ray_is_halfplane():
    c = C.make_cone(2, [(1, 1)])
    dual = C.dual_cone(c).generators
    # membership-level equality with the halfplane x + y >= 0
    for x in range(-4, 5):
        for y in range(-4, 5):
            inside = x + y >= 0
            assert member_of_generators(dual, (x, y)) == inside


# ---------------------------------------------------------------------------
# two-face adjacency


def test_square_adjacency_golden():
    a, b, c, d = (0, 0, 1), (2, 0, 1), (0, 1, 1), (1, 1, 1)
    adjacent = {(a, b), (b, d), (c, d), (a, c)}
    for v, vp in combinations([a, b, c, d], 2):
        expected = (v, vp) in adjacent or (vp, v) in adjacent
        assert (C.two_face_functional(SQUARE, v, vp) is not None) == expected
        assert adjacency_by_incidence(SQUARE, v, vp) == expected


def test_square_adjacency_set_golden():
    a, b, c, d = (0, 0, 1), (2, 0, 1), (0, 1, 1), (1, 1, 1)

    def neighbours(e):
        # the rays a maximality verdict quantifies over: those spanning a
        # two-face with the root's ray and extending it to a basis
        return is_maximal(SQUARE, require_root(SQUARE, e)).neighbours

    # (a, b) span a two-face but do not extend to a basis, so b is excluded
    assert neighbours((1, 1, -1)) == (c,)
    assert neighbours((-1, 0, 1)) == neighbours((-1, 1, 1)) == (d,)
    assert neighbours((1, -1, 0)) == (a, d)
    assert neighbours((-1, -2, 2)) == (c, b)


def assert_two_face_contract(c, v, vp, omega):
    assert lattice.pairing(omega, v) == 0
    assert lattice.pairing(omega, vp) == 0
    for r in c.rays:
        if r not in (v, vp):
            assert lattice.pairing(omega, r) >= 1


def test_two_face_functional_contract():
    rng = random.Random(11)
    seen_adjacent = 0
    for _ in range(25):
        rank = rng.randint(2, 4)
        c = random_pointed_cone(rng, rank, max_bound=10**9)
        for v, vp in combinations(c.rays, 2):
            omega = C.two_face_functional(c, v, vp)
            assert (omega is not None) == adjacency_by_incidence(c, v, vp)
            if omega is not None:
                seen_adjacent += 1
                assert_two_face_contract(c, v, vp, omega)
    assert seen_adjacent > 20
    # cones with lines: the same contract wherever the functional exists
    seen_lines = 0
    for c in sweep_cones(41, 200):
        if C.is_pointed(c):
            continue
        for v, vp in combinations(c.rays, 2):
            omega = C.two_face_functional(c, v, vp)
            if omega is not None:
                seen_lines += 1
                assert_two_face_contract(c, v, vp, omega)
    assert seen_lines > 10


def test_two_face_adjacent_matches_fourier_motzkin_sweep():
    seen = {}
    for c in sweep_cones(41, 200):
        pointed = C.is_pointed(c)
        for v, vp in combinations(c.rays, 2):
            adjacent = C.two_face_functional(c, v, vp) is not None
            assert adjacent == (C.two_face_functional(c, vp, v) is not None)
            assert adjacent == (fm_two_face_functional(c, v, vp) is not None)
            if pointed:
                assert adjacent == adjacency_by_incidence(c, v, vp)
            key = (adjacent, pointed, lattice.matrix_rank(c.rays) == c.rank)
            seen[key] = seen.get(key, 0) + 1
    # adjacent and non-adjacent pairs on full-dimensional pointed cones,
    # adjacent pairs on lower-dimensional pointed ones, and cones with lines
    assert seen.get((True, True, True), 0) > 50
    assert seen.get((False, True, True), 0) > 10
    assert seen.get((True, True, False), 0) > 10
    assert seen.get((True, False, True), 0) + seen.get((False, False, True), 0) > 10


def test_two_face_adjacent_on_a_line_keeps_the_functional_answer():
    # on a cone with lines the face-dimension count says no, but a
    # functional vanishing on both rays (zero, as there is no other ray)
    # exists, and that has always been the answer
    line = C.make_cone(2, [(0, 1), (0, -1)])
    assert C.two_face_functional(line, (0, -1), (0, 1)) == (0, 0)
    assert fm_two_face_functional(line, (0, -1), (0, 1)) == (0, 0)


def test_two_rays_span_their_own_face():
    c = C.make_cone(3, [(1, 0, 0), (0, 1, 0)])
    assert C.two_face_functional(c, (1, 0, 0), (0, 1, 0)) is not None


def test_adjacency_rejects_non_rays():
    with pytest.raises(ValueError):
        C.two_face_functional(SQUARE, (0, 0, 1), (5, 5, 5))
    with pytest.raises(ValueError):
        C.two_face_functional(SQUARE, (0, 0, 1), (0, 0, 1))


# ---------------------------------------------------------------------------
# Hilbert bases


def test_hilbert_square_dual_golden():
    # the coordinate semigroup of the running example: exactly four
    # irreducible monomial weights, box 5 provably complete
    c = C.make_cone(3, SQUARE_DUAL_GENS)
    hb = C.hilbert_basis(c)
    assert hb.complete
    assert C.completeness_bound(c) == 5
    assert hb.elements == tuple(sorted(SQUARE_DUAL_GENS))


def test_hilbert_orthant():
    c = C.make_cone(2, [(1, 0), (0, 1)])
    hb = C.hilbert_basis(c)
    assert hb.elements == ((0, 1), (1, 0))
    assert hb.complete


def test_hilbert_quadratic_cone():
    # cone over (1,0) and (1,2) needs the interior point (1,1)
    c = C.make_cone(2, [(1, 0), (1, 2)])
    hb = C.hilbert_basis(c)
    assert hb.elements == ((1, 0), (1, 1), (1, 2))
    assert hb.complete


def test_hilbert_refuses_lines():
    c = C.make_cone(2, [(1, 0), (-1, 0), (0, 1)])
    with pytest.raises(RefusalError) as err:
        C.hilbert_basis(c)
    w = tuple(err.value.witness["lineality"])
    assert cone_member(c, w) and cone_member(c, tuple(-x for x in w))


def test_hilbert_incomplete_flag():
    c = C.make_cone(2, [(1, 0), (1, 3)])
    full = C.hilbert_basis(c)
    assert full.complete
    partial = C.hilbert_basis(c, bound=1)
    assert not partial.complete
    assert not C.hilbert_basis(c, bound=0).complete
    assert set(partial.elements) <= set(full.elements) | {
        p for p in product(range(-1, 2), repeat=2)}


def test_hilbert_random_against_oracle():
    rng = random.Random(5150)
    for _ in range(12):
        rank = rng.randint(2, 3)
        c = random_pointed_cone(rng, rank, max_bound=7)
        # a box cut to half the completeness radius, then the complete basis
        for bound in (C.completeness_bound(c) // 2, None):
            hb = C.hilbert_basis(c, bound)
            assert hb.complete == (bound is None)
            pts = box_points(c, C.completeness_bound(c) if bound is None else bound)
            assert set(hb.elements) <= set(pts)
            # independent irreducibility scan
            irred = [p for p in pts
                     if not any(q != p and cone_member(c, tuple(a - b for a, b in zip(p, q)))
                                for q in pts)]
            assert sorted(irred) == list(hb.elements)
        # every point of the semigroup in the complete box decomposes over
        # the complete basis
        for p in pts:
            assert decomposes(c, hb.elements, p)


def test_completeness_bound_value():
    assert C.completeness_bound(C.make_cone(3, SQUARE_DUAL_GENS)) == 5
    assert C.completeness_bound(C.make_cone(2, [])) == 0
