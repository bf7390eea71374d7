import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from lndkit import lattice
from oracles import quotient_label, rational_inverse, smith_by_mirrored_updates


# ---------------------------------------------------------------------------
# oracles, written before the functions they check


def leibniz_det(a):
    """Determinant straight from the permutation-sum definition."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        prod = 1
        for i in range(n):
            prod *= a[i][perm[i]]
        total += (-1) ** inversions * prod
    return total


def minor_gcd_invariant_factors(a):
    """Invariant factors through determinantal divisors: d_k = D_k / D_{k-1},
    D_k the gcd of all k x k minors. Completely independent of the
    elimination code under test."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rset in combinations(range(rows), k):
            for cset in combinations(range(cols), k):
                sub = tuple(tuple(a[i][j] for j in cset) for i in rset)
                g = gcd(g, abs(leibniz_det(sub)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def minor_gcd_extends(vectors):
    """Basis extension oracle: gcd of all maximal minors equals 1."""
    k = len(vectors)
    n = len(vectors[0])
    if k > n:
        return False
    g = 0
    for cset in combinations(range(n), k):
        sub = tuple(tuple(v[j] for j in cset) for v in vectors)
        g = gcd(g, abs(leibniz_det(sub)))
    return g == 1


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(cols))
                 for _ in range(rows))


# ---------------------------------------------------------------------------
# vectors and determinants


def test_pairing_basics():
    assert lattice.pairing((1, 2, -1), (0, 0, 1)) == -1
    assert lattice.pairing((1, 2, -1), (2, 0, 1)) == 1
    with pytest.raises(ValueError):
        lattice.pairing((1, 2), (1, 2, 3))


def test_primitivity():
    assert lattice.content((2, 3)) == 1
    assert lattice.content((2, -4)) == 2
    assert lattice.content((0, 0)) == 0
    assert lattice.primitive_part((4, -6)) == (2, -3)
    with pytest.raises(ValueError):
        lattice.primitive_part((0, 0, 0))


def test_determinant_against_leibniz():
    rng = random.Random(20240401)
    for _ in range(300):
        n = rng.randint(0, 4)
        a = random_matrix(rng, n, n)
        assert lattice.determinant(a) == leibniz_det(a)


def test_rational_inverse_round_trip():
    rng = random.Random(7)
    seen_invertible = 0
    for _ in range(100):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, -5, 5)
        inv = rational_inverse(a)
        if lattice.determinant(a) == 0:
            assert inv is None
            continue
        seen_invertible += 1
        prod = [[sum(Fraction(a[i][k]) * inv[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]
        assert prod == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    assert seen_invertible > 50


def rank_by_minors(a):
    """Largest k with a nonzero k x k minor, from the Leibniz formula."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    for k in range(min(rows, cols), 0, -1):
        for rset in combinations(range(rows), k):
            for cset in combinations(range(cols), k):
                if leibniz_det(tuple(tuple(a[i][j] for j in cset) for i in rset)):
                    return k
    return 0


def fraction_row_reduce(a):
    """Reduced row echelon form over Q by plain Gauss-Jordan on Fractions:
    (rows, pivots), each row normalized to pivot 1."""
    rows = [list(map(Fraction, r)) for r in a]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def test_row_reduce_pivots_are_greedy_rank_choice():
    rng = random.Random(31)
    for _ in range(150):
        rows, cols = rng.randint(0, 4), rng.randint(1, 5)
        a = random_matrix(rng, rows, cols, -3, 3)
        if rng.random() < 0.3 and rows > 1:
            # a dependent row, so that rank drops below the row count
            a = a[:-1] + (tuple(x + y for x, y in zip(a[0], a[1])),)
        red, pivots, d = lattice.row_reduce(a)
        # greedy left-to-right choice of columns that raise the rank
        greedy = []
        for j in range(cols):
            cand = greedy + [j]
            if rank_by_minors([[row[k] for k in cand] for row in a]) > len(greedy):
                greedy = cand
        assert pivots == greedy
        assert len(red) == len(pivots) == lattice.matrix_rank(a)
        # integer rows, reduced echelon shape scaled by d, and every input
        # row is recovered from them
        assert d != 0
        for i, (row, pc) in enumerate(zip(red, pivots)):
            assert all(type(x) is int for x in row)
            assert row[pc] == d and all(x == 0 for x in row[:pc])
            assert all(red[k][pc] == 0 for k in range(len(red)) if k != i)
        for row in a:
            combo = [sum(row[pc] * r[j] for r, pc in zip(red, pivots))
                     for j in range(cols)]
            assert combo == [d * x for x in row]


def test_row_reduce_matches_fraction_gauss_jordan():
    rng = random.Random(1968)
    full_rank_squares = 0
    for _ in range(400):
        rows, cols = rng.randint(0, 5), rng.randint(1, 5)
        a = random_matrix(rng, rows, cols, -6, 6)
        if rng.random() < 0.3 and rows > 2:
            a = a[:-1] + (tuple(2 * x - y for x, y in zip(a[0], a[1])),)
        red, pivots, d = lattice.row_reduce(a)
        want, want_pivots = fraction_row_reduce(a)
        assert pivots == want_pivots
        assert red == [[d * x for x in row] for row in want]
        if rows == cols and len(pivots) == rows:
            full_rank_squares += 1
            assert d == leibniz_det(a)
    assert full_rank_squares > 50
    assert lattice.row_reduce(()) == ([], [], 1)


# ---------------------------------------------------------------------------
# Smith normal form


def assert_smith_contract(a, dec):
    rows, cols = len(a), len(a[0]) if a else 0
    assert lattice.mat_mul(lattice.mat_mul(dec.u, a), dec.v) == dec.d
    assert abs(lattice.determinant(dec.u)) == 1
    assert abs(lattice.determinant(dec.v)) == 1
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert dec.d[i][j] == 0
    invf = dec.invariant_factors
    assert all(f > 0 for f in invf)
    for x, y in zip(invf, invf[1:]):
        assert y % x == 0
    # the diagonal past the rank is zero
    for i in range(len(invf), min(rows, cols)):
        assert dec.d[i][i] == 0


def test_smith_random_sweep():
    rng = random.Random(1234)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        a = random_matrix(rng, rows, cols)
        dec = lattice.smith_normal_form(a)
        assert_smith_contract(a, dec)
        assert dec.invariant_factors == minor_gcd_invariant_factors(a)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(-30, 30), min_size=1, max_size=4),
                min_size=1, max_size=4).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_smith_hypothesis(rows):
    a = tuple(tuple(r) for r in rows)
    dec = lattice.smith_normal_form(a)
    assert_smith_contract(a, dec)
    assert dec.invariant_factors == minor_gcd_invariant_factors(a)


def test_smith_deterministic():
    a = ((6, 4, 2), (2, 8, 10), (0, 2, 4))
    assert lattice.smith_normal_form(a) == lattice.smith_normal_form(a)


def test_smith_matches_the_mirrored_update_loop():
    # the same pivots in the same order give the same transforms, which fix
    # the dual pairs and with them the partner roots `cone maximal` prints
    rng = random.Random(2026)
    for _ in range(20000):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), -9, 9)
        assert lattice.smith_normal_form(a) == smith_by_mirrored_updates(a)
    for _ in range(500):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = tuple(tuple(rng.choice((0, 0, rng.randint(-1000, 1000)))
                        for _ in range(cols)) for _ in range(rows))
        assert lattice.smith_normal_form(a) == smith_by_mirrored_updates(a)


@pytest.mark.parametrize("a", [
    (), ((),), ((), ()), ((0,),), ((7,),), ((-7,),), ((0, 0, 0),), ((0,), (0,)),
    ((0, 0), (0, 0)), ((0, 4, 6), (0, 0, 0)), ((0, 0), (3, 0), (0, -5)),
    ((2, 0), (0, 3)), ((-4, 6),), ((-4,), (6,)),
])
def test_smith_edge_cases_match_the_mirrored_update_loop(a):
    dec = lattice.smith_normal_form(a)
    assert dec == smith_by_mirrored_updates(a)
    assert_smith_contract(a, dec)


@pytest.mark.parametrize("a", [((1, 2), (3,)), ((), (1,)), ((1,), ())])
def test_smith_rejects_ragged_input(a):
    for smith in (lattice.smith_normal_form, smith_by_mirrored_updates):
        with pytest.raises(ValueError, match="^ragged matrix$"):
            smith(a)


# ---------------------------------------------------------------------------
# membership in the relation span


def minor_gcd(a, k):
    """gcd of all k x k minors of a; 1 for k = 0."""
    if k == 0:
        return 1
    rows, cols = len(a), len(a[0])
    g = 0
    for rset in combinations(range(rows), k):
        for cset in combinations(range(cols), k):
            g = gcd(g, leibniz_det(tuple(tuple(a[i][j] for j in cset)
                                         for i in rset)))
    return g


def in_span_by_minors(a, x):
    """x lies in the Z-span of the rows of a exactly when stacking x onto a
    keeps both the rank r and the gcd of the r x r minors: the lattice can
    only grow, and when the rank holds that gcd drops by the index of the
    growth."""
    stacked = tuple(a) + (tuple(x),)
    r = rank_by_minors(a)
    return rank_by_minors(stacked) == r and \
        minor_gcd(stacked, r) == minor_gcd(a, r)


def test_row_span_membership():
    rng = random.Random(555)
    members = outsiders = 0
    for _ in range(200):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        a = random_matrix(rng, rows, cols, -4, 4)
        coeffs = [rng.randint(-3, 3) for _ in range(rows)]
        x = tuple(sum(coeffs[i] * a[i][j] for i in range(rows))
                  for j in range(cols))
        assert in_span_by_minors(a, x) and not any(quotient_label(cols, a, x))
        # a random nudge of a member, usually outside the span
        y = tuple(v + rng.randint(-1, 1) for v in x)
        inside = in_span_by_minors(a, y)
        assert (not any(quotient_label(cols, a, y))) == inside
        members += inside
        outsiders += not inside
    assert members > 10 and outsiders > 100
    # pinned negatives
    for a, x, inside in ((((2, 0), (0, 2)), (1, 0), False),
                         (((2, 0), (0, 2)), (2, 4), True),
                         (((1, 2),), (1, 1), False),
                         ((), (0, 0), True),
                         ((), (1, 0), False)):
        assert in_span_by_minors(a, x) == inside
        assert (not any(quotient_label(2, a, x))) == inside


def test_row_span_agrees_with_quotient_labels():
    rng = random.Random(777)
    same = 0
    for _ in range(200):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        a = random_matrix(rng, rows, cols, -4, 4)
        x = tuple(rng.randint(-6, 6) for _ in range(cols))
        if rng.random() < 0.5:
            # y = x plus a relation combination, so the classes agree
            coeffs = [rng.randint(-2, 2) for _ in range(rows)]
            y = tuple(x[j] + sum(coeffs[i] * a[i][j] for i in range(rows))
                      for j in range(cols))
        else:
            y = tuple(rng.randint(-6, 6) for _ in range(cols))
        inside = in_span_by_minors(a, lattice.vec_sub(x, y))
        assert (quotient_label(cols, a, x) == quotient_label(cols, a, y)) == inside
        assert (not any(quotient_label(cols, a, x))) == in_span_by_minors(a, x)
        same += inside
    assert 50 < same < 190


# ---------------------------------------------------------------------------
# basis extension and dual pairs


def test_extends_to_basis_pinned():
    assert lattice.solve_dual_pair((1, 0, 0), (0, 1, 0)) is not None
    # both rays are primitive yet the pair spans an index-2 sublattice:
    # the full minor set is {0, -2, 0}
    pair = [(0, 0, 1), (2, 0, 1)]
    assert not minor_gcd_extends(pair)
    assert lattice.solve_dual_pair(*pair) is None
    assert lattice.solve_dual_pair((0, 0, 1), (1, 0, 0)) is not None
    # two vectors in a rank-one lattice are never part of a basis
    assert lattice.solve_dual_pair((1,), (0,)) is None


def test_extends_to_basis_matches_minor_oracle():
    rng = random.Random(2024)
    checked = 0
    for _ in range(400):
        n = rng.randint(2, 5)
        v = tuple(rng.randint(-5, 5) for _ in range(n))
        vp = tuple(rng.randint(-5, 5) for _ in range(n))
        if all(x == 0 for x in v) or all(x == 0 for x in vp):
            continue
        extends = lattice.solve_dual_pair(v, vp) is not None
        assert extends == minor_gcd_extends([v, vp])
        checked += 1
    assert checked >= 300


def test_solve_dual_pair_contract():
    rng = random.Random(31337)
    successes = 0
    for _ in range(400):
        n = rng.randint(2, 5)
        v = tuple(rng.randint(-5, 5) for _ in range(n))
        vp = tuple(rng.randint(-5, 5) for _ in range(n))
        e = lattice.solve_dual_pair(v, vp)
        if minor_gcd_extends([v, vp]):
            assert lattice.pairing(e, v) == -1
            assert lattice.pairing(e, vp) == 0
            successes += 1
        else:
            assert e is None
    assert successes > 100


def test_solve_dual_pair_standard_basis():
    assert lattice.solve_dual_pair((1, 0), (0, 1)) == (-1, 0)
    assert lattice.solve_dual_pair((0, 1), (1, 0)) == (0, -1)


# ---------------------------------------------------------------------------
# quotients and quasitori


def test_quotient_trinomial_grading_golden():
    # exponent rows of x1 x2 y1^2 y2^2 y3^7 on one side, z^3 on the other
    rels = ((1, 1, 2, 2, 7, 0), (0, 0, 0, 0, 0, 3))
    q = lattice.LatticeQuotient(6, rels)
    assert q.invariant_factors == (1, 3)
    assert q.free_rank == 4
    assert q.torsion == (3,)


def test_quotient_trivial_when_relations_span():
    # two unit monomials on either side force a trivial class group
    q = lattice.LatticeQuotient(2, ((1, 0), (0, 1)))
    assert q.free_rank == 0
    assert q.torsion == ()
    assert q.invariant_factors == (1, 1)


def test_quotient_no_relations():
    q = lattice.LatticeQuotient(3)
    assert q.free_rank == 3
    assert q.invariant_factors == () and q.torsion == ()


def test_quasitorus_kernel_golden():
    rels = ((1, 1, 2, 2, 7, 0), (0, 0, 0, 0, 0, 3))
    q = lattice.LatticeQuotient(6, rels)
    # the derivation degree has two natural exponent lifts; both must give
    # the same kernel since they differ by a relation: the z-lift minus the
    # x-lift is the first relation row minus the second
    lift_a = (0, 1, 2, 2, 7, -1)
    lift_b = (-1, 0, 0, 0, 0, 2)
    assert lattice.vec_sub(lift_a, lift_b) == lattice.vec_sub(*rels)
    for lift in (lift_a, lift_b):
        pres = lattice.quasitorus_kernel(q, lift)
        assert pres.free_rank == 3
        assert pres.torsion == (3,)


def test_quasitorus_order():
    # Z/2 + Z/3 collapses to the single invariant factor 6
    q = lattice.LatticeQuotient(2, ((2, 0), (0, 3)))
    assert q.free_rank == 0
    assert q.torsion == (6,)
    assert lattice.LatticeQuotient(1, ()).free_rank == 1
