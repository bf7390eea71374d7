"""Toric layer: every combinatorial verdict is replayed symbolically.

The oracles here avoid the library's root predicate on purpose: a
character is accepted as a root only when the induced monomial derivation
provably maps the semigroup algebra to itself and the closed-form factor
product witnesses nilpotency.
"""

import random
from functools import lru_cache
from itertools import count

import pytest

from lndkit import toric
from lndkit.algebra import MonomialShiftDerivation, Polynomial, commutator_vanishes_on
from lndkit.cone import Cone, dual_cone, hilbert_basis, is_pointed, make_cone
from lndkit.errors import RefusalError, SearchBoundExceeded
from lndkit.lattice import (
    LatticeQuotient,
    determinant,
    matrix_rank,
    pairing,
    quasitorus_kernel,
    vec_add,
    vec_scale,
)
from lndkit.toric import (
    DemazureRoot,
    construct_commuting_pair,
    enumerate_roots,
    find_local_slice,
    is_demazure_root,
    is_maximal,
    isotropy_torus,
    kernel_of_root,
    lnds_commute,
    require_root,
    roots_equivalent,
    s_delta,
    symbolic_commute_check,
    toric_isotropy_report,
)
from oracles import (
    express_in_slice,
    level_class_symmetries,
    partner_root_by_walk,
    rational_inverse,
    vec_mat,
)

# rays in canonical (lex) order: index 0 is the distinguished ray of the
# worked example root below
SQUARE = make_cone(3, [(0, 0, 1), (2, 0, 1), (0, 1, 1), (1, 1, 1)])
SQUARE_ROOT = (1, 2, -1)

ORTHANT2 = make_cone(2, [(1, 0), (0, 1)])
ORTHANT3 = make_cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


# ---------------------------------------------------------------------------
# oracles


def semigroup_member(cone, m):
    return all(pairing(m, r) >= 0 for r in cone.rays)


@lru_cache(maxsize=None)
def dual_hilbert_basis(cone):
    hb = hilbert_basis(make_cone(cone.rank, dual_cone(cone).generators))
    assert hb.complete
    return hb.elements


def oracle_is_root(cone, e):
    """Accept e iff some ray weight makes chi^m -> <m,w> chi^(m+e) a
    well-defined locally nilpotent self-map of the semigroup algebra.

    Well-defined: every Hilbert basis element at nonzero level lands back
    in the semigroup. Nilpotent: the k-fold coefficient is the factor
    product prod_j <h + j e, w>, which vanishes for some k iff <e,w> is
    negative and divides every level.
    """
    for w in cone.rays:
        c = pairing(e, w)
        if c >= 0:
            continue
        ok = True
        for h in dual_hilbert_basis(cone):
            lvl = pairing(h, w)
            if lvl == 0:
                continue
            if not semigroup_member(cone, vec_add(h, e)):
                ok = False
                break
            if lvl % c != 0:
                ok = False
                break
        if ok:
            return w
    return None


def commuting_pair_exists(cone):
    """Some ray pair spans a two-face and extends to a basis: the
    maximality verdict of a root on some ray has a neighbour. The
    neighbours depend on the root's ray alone, so each ray asks about the
    first root found on it in growing boxes (a pointed cone has roots on
    every ray)."""
    for v in cone.rays:
        root = next(r for b in count(1) for r in enumerate_roots(cone, b) if r.ray == v)
        if is_maximal(cone, root).neighbours:
            return True
    return False


def brute_commuting_partner(cone, root, bound):
    """Bounded exhaustive search for an inequivalent commuting root."""
    for other in enumerate_roots(cone, bound):
        if other.ray == root.ray:
            continue
        if lnds_commute(root, other):
            return other
    return None


def brute_symmetries(cone, root):
    """All-permutations route to the finite symmetry factor, with no
    level-class pruning: solve a linear map from every permutation of the
    full dual Hilbert basis and keep the ones passing every check."""
    from fractions import Fraction
    from itertools import permutations

    from lndkit.lattice import determinant

    hb = hilbert_basis(make_cone(cone.rank, dual_cone(cone).generators))
    elems = hb.elements
    n = cone.rank
    span = []
    for i, h in enumerate(elems):
        if matrix_rank([elems[j] for j in span] + [h]) > len(span):
            span.append(i)
    inv = rational_inverse(tuple(elems[i] for i in span))
    out = set()
    for perm in permutations(range(len(elems))):
        target = tuple(elems[perm[i]] for i in span)
        rows = []
        good = True
        for r in inv:
            row = []
            for j in range(n):
                val = sum(r[k] * Fraction(target[k][j]) for k in range(n))
                if val.denominator != 1:
                    good = False
                    break
                row.append(int(val))
            if not good:
                break
            rows.append(tuple(row))
        if not good:
            continue
        g = tuple(rows)
        if abs(determinant(g)) != 1:
            continue
        if any(tuple(sum(h[i] * g[i][j] for i in range(n)) for j in range(n))
               != elems[perm[k]] for k, h in enumerate(elems)):
            continue
        if tuple(sum(root.vector[i] * g[i][j] for i in range(n))
                 for j in range(n)) != root.vector:
            continue
        if tuple(sum(g[i][j] * root.ray[j] for j in range(n))
                 for i in range(n)) != root.ray:
            continue
        out.add(g)
    return out


def random_cone(rng, rank, tries=200, entry=2):
    """Full-dimensional pointed cone with ray entries in [-entry, entry]."""
    for _ in range(tries):
        k = rng.randrange(rank, rank + 3)
        rays = [tuple(rng.randrange(-entry, entry + 1) for _ in range(rank))
                for _ in range(k)]
        rays = [r for r in rays if any(r)]
        if len(rays) < rank:
            continue
        cone = make_cone(rank, rays)
        if len(cone.rays) >= rank and matrix_rank(cone.rays) == rank and is_pointed(cone):
            return cone
    raise AssertionError("random cone generation failed")


# ---------------------------------------------------------------------------
# root recognition


def test_worked_example_root_recognised():
    root = is_demazure_root(SQUARE, SQUARE_ROOT)
    assert root is not None
    assert root.ray == (0, 0, 1) and root.ray_index == 0
    assert [pairing(SQUARE_ROOT, v) for v in SQUARE.rays] == [-1, 1, 2, 1]


def test_non_roots_rejected():
    assert is_demazure_root(SQUARE, (0, 0, 0)) is None
    assert is_demazure_root(SQUARE, (0, 0, -1)) is None  # two rays at -1
    assert is_demazure_root(SQUARE, (0, 0, 1)) is None   # no ray at -1
    with pytest.raises(RefusalError):
        require_root(SQUARE, (0, 0, 0))


def test_require_root_refusal_carries_pairings():
    try:
        require_root(SQUARE, (5, 5, 5))
    except RefusalError as err:
        assert err.witness["pairings"] == [pairing((5, 5, 5), v) for v in SQUARE.rays]
    else:
        raise AssertionError("expected a refusal")


def test_root_vector_length_checked():
    with pytest.raises(ValueError):
        is_demazure_root(SQUARE, (1, 2))


def test_non_pointed_cone_refused():
    line = make_cone(2, [(1, 0), (-1, 0)])
    with pytest.raises(RefusalError) as info:
        enumerate_roots(line, 1)
    assert "lineality" in info.value.witness


def test_enumerate_roots_matches_symbolic_oracle():
    from itertools import product as iproduct
    rng = random.Random(20260822)
    cases = [(random_cone(rng, rng.choice([2, 2, 3])), 2) for _ in range(12)]
    # rank 4, and the wider box 3
    cases += [(random_cone(rng, rank), 3) for rank in (2, 3, 4, 4)]
    for cone, bound in cases:
        got = {r.vector for r in enumerate_roots(cone, bound)}
        want = {e for e in iproduct(range(-bound, bound + 1), repeat=cone.rank)
                if oracle_is_root(cone, e) is not None}
        assert got == want


def test_enumerate_roots_sorted_and_rays_agree_with_oracle():
    roots = enumerate_roots(SQUARE, 2)
    assert list(roots) == sorted(roots, key=lambda r: (r.ray_index, r.vector))
    for r in roots:
        assert oracle_is_root(SQUARE, r.vector) == r.ray


# ---------------------------------------------------------------------------
# commuting


def test_commute_criterion_against_symbolic_commutator():
    rng = random.Random(7)
    seen_both = [0, 0]
    for _ in range(10):
        cone = random_cone(rng, 2 if rng.random() < 0.7 else 3)
        roots = enumerate_roots(cone, 2)[:6]
        gens = [Polynomial.monomial(m) for m in dual_hilbert_basis(cone)]
        for i in range(len(roots)):
            for j in range(i, len(roots)):
                verdict = lnds_commute(roots[i], roots[j])
                assert verdict == symbolic_commute_check(cone, roots[i], roots[j])
                # the definition, composed on the same generators
                a, b = roots[i].derivation(), roots[j].derivation()
                assert verdict == all(a.apply(b.apply(g)) == b.apply(a.apply(g))
                                      for g in gens)
                seen_both[verdict] += 1
    assert seen_both[0] > 0 and seen_both[1] > 0


def test_symbolic_check_on_dual_generators_matches_hilbert_basis():
    # [a, b](chi^m) is linear in m, so the dual's generators, which span,
    # decide what the whole dual Hilbert basis decides
    rng = random.Random(409)
    verdicts = [0, 0]
    wider = 0
    for _ in range(20):
        cone = random_cone(rng, 3)
        basis = dual_hilbert_basis(cone)
        wider += len(basis) > len(dual_cone(cone).generators)
        gens = [Polynomial.monomial(m) for m in basis]
        roots = enumerate_roots(cone, 2)
        for i, a in enumerate(roots):
            for b in roots[i + 1:]:
                if a.ray != b.ray:
                    verdict = symbolic_commute_check(cone, a, b)
                    assert verdict == commutator_vanishes_on(
                        a.derivation(), b.derivation(), gens)
                    verdicts[verdict] += 1
    assert verdicts[False] > 500 and verdicts[True] > 50 and wider > 10


def test_symbolic_check_applies_no_derivation(monkeypatch):
    # root derivations are bracketed in closed form; going back to
    # composing them would call apply
    def refuse(self, poly):
        raise AssertionError("monomial shift applied")

    monkeypatch.setattr(MonomialShiftDerivation, "apply", refuse)
    roots = enumerate_roots(SQUARE, 2)
    seen = set()
    for a in roots:
        for b in roots:
            verdict = symbolic_commute_check(SQUARE, a, b)
            assert verdict == lnds_commute(a, b)
            seen.add(verdict)
    assert seen == {True, False}


# a pointed cone of dimension 3 in Z^4 with 50 roots in box 2; its dual
# contains the line through (-3, 0, 2, 1)
FLAT4 = make_cone(4, [(-1, -1, -2, 1), (-1, 0, -1, -1), (1, -2, 1, 1), (1, -2, 2, -1)])


def test_lower_dimensional_cone_refused_by_symbolic_checks():
    roots = enumerate_roots(FLAT4, 2)
    assert len(roots) == 50
    for call in (lambda: symbolic_commute_check(FLAT4, roots[0], roots[-1]),
                 lambda: s_delta(FLAT4, roots[0])):
        with pytest.raises(RefusalError) as info:
            call()
        assert "dual" in str(info.value)
        assert info.value.witness == {"dual_lineality": [-3, 0, 2, 1]}


def test_same_ray_roots_always_commute():
    roots = [r for r in enumerate_roots(ORTHANT2, 3) if r.ray == (1, 0)]
    assert len(roots) >= 3
    for a in roots:
        for b in roots:
            assert lnds_commute(a, b)
            assert roots_equivalent(a, b)


def test_plane_translations_commute():
    dx = require_root(ORTHANT2, (-1, 0))
    dy = require_root(ORTHANT2, (0, -1))
    assert not roots_equivalent(dx, dy)
    assert lnds_commute(dx, dy)
    assert symbolic_commute_check(ORTHANT2, dx, dy)


def test_commuting_pair_exists_goldens():
    assert commuting_pair_exists(SQUARE)
    assert commuting_pair_exists(ORTHANT2)
    assert not commuting_pair_exists(make_cone(2, [(1, 0), (1, 2)]))
    assert not commuting_pair_exists(make_cone(2, [(1, 0)]))


def test_construct_commuting_pair_postconditions():
    first, second = construct_commuting_pair(SQUARE)
    assert is_demazure_root(SQUARE, first.vector) == first
    assert is_demazure_root(SQUARE, second.vector) == second
    assert not roots_equivalent(first, second)
    assert lnds_commute(first, second)
    assert symbolic_commute_check(SQUARE, first, second)
    # first qualifying ray pair in canonical order
    assert first.ray == (0, 0, 1) and second.ray == (0, 1, 1)


def test_construct_commuting_pair_refusal():
    with pytest.raises(RefusalError) as info:
        construct_commuting_pair(make_cone(2, [(1, 0), (1, 2)]))
    pairs = info.value.witness["pairs"]
    assert pairs and not any(p["two_face_adjacent"] and p["extends_to_basis"]
                             for p in pairs)


def test_construct_commuting_pair_random_sweep():
    rng = random.Random(99)
    built = 0
    for _ in range(15):
        cone = random_cone(rng, rng.choice([2, 3]))
        if not commuting_pair_exists(cone):
            with pytest.raises(RefusalError):
                construct_commuting_pair(cone)
            continue
        a, b = construct_commuting_pair(cone)
        assert lnds_commute(a, b) and not roots_equivalent(a, b)
        assert symbolic_commute_check(cone, a, b)
        built += 1
    assert built >= 5


# ---------------------------------------------------------------------------
# maximality


def test_worked_example_root_is_maximal():
    root = require_root(SQUARE, SQUARE_ROOT)
    verdict = is_maximal(SQUARE, root)
    assert verdict.maximal and verdict.witness is None
    assert verdict.neighbours == ((0, 1, 1),)


def test_plane_translation_not_maximal():
    root = require_root(ORTHANT2, (-1, 0))
    verdict = is_maximal(ORTHANT2, root)
    assert not verdict.maximal
    partner = verdict.witness
    assert partner.ray != root.ray
    assert lnds_commute(root, partner)
    assert symbolic_commute_check(ORTHANT2, root, partner)


def test_shifted_plane_root_is_maximal():
    root = require_root(ORTHANT2, (-1, 3))
    assert is_maximal(ORTHANT2, root).maximal


def test_orthant3_coordinate_root_not_maximal():
    root = require_root(ORTHANT3, (-1, 0, 0))
    verdict = is_maximal(ORTHANT3, root)
    assert not verdict.maximal
    assert verdict.witness.vector == (0, 0, -1)


def test_maximality_against_bounded_search():
    rng = random.Random(41)
    checked = 0
    for _ in range(10):
        cone = random_cone(rng, 2 if rng.random() < 0.7 else 3)
        for root in enumerate_roots(cone, 2)[:4]:
            verdict = is_maximal(cone, root)
            partner = brute_commuting_partner(cone, root, 2)
            if verdict.maximal:
                assert partner is None
            else:
                w = verdict.witness
                assert not roots_equivalent(root, w) and lnds_commute(root, w)
            checked += 1
    assert checked >= 10


def test_maximality_and_commuting_pairs_run_no_fourier_motzkin():
    # adjacency and the partner walk read the cached double description,
    # the one polyhedral algorithm of the cone layer
    rng = random.Random(23)
    cones = [SQUARE, ORTHANT2, ORTHANT3]
    cones += [random_cone(rng, rng.choice([2, 3, 4])) for _ in range(15)]
    non_maximal = built = 0
    for cone in cones:
        for root in enumerate_roots(cone, 2):
            verdict = is_maximal(cone, root)
            if not verdict.maximal:
                non_maximal += 1
                assert lnds_commute(root, verdict.witness)
        try:
            a, b = construct_commuting_pair(cone)
        except RefusalError:
            continue
        assert lnds_commute(a, b) and not roots_equivalent(a, b)
        built += 1
    assert non_maximal > 10 and built > 5


def test_partner_roots_match_the_two_face_walk_sweep():
    # the witnesses of is_maximal and both roots of construct_commuting_pair
    # are the first hit of the walk base + k omega, including long walks
    rng = random.Random(3)
    steps = {}
    for i in range(60):
        cone = random_cone(rng, 2 + i % 3)
        for root in enumerate_roots(cone, 2):
            verdict = is_maximal(cone, root)
            if verdict.maximal:
                continue
            vp = next(r for r in verdict.neighbours
                      if pairing(root.vector, r) == 0)
            partner, k = partner_root_by_walk(cone, vp, root.ray)
            assert verdict.witness == partner
            steps[k] = steps.get(k, 0) + 1
        try:
            a, b = construct_commuting_pair(cone)
        except RefusalError:
            continue
        (first, j), (second, k) = (partner_root_by_walk(cone, a.ray, b.ray),
                                   partner_root_by_walk(cone, b.ray, a.ray))
        assert (a, b) == (first, second)
        steps[j] = steps.get(j, 0) + 1
        steps[k] = steps.get(k, 0) + 1
    assert sum(steps.values()) > 500
    assert sum(n for k, n in steps.items() if k >= 2) > 30
    assert max(steps) >= 4


# ---------------------------------------------------------------------------
# kernel, slice, torus


def test_worked_example_kernel_generators():
    root = require_root(SQUARE, SQUARE_ROOT)
    ker = kernel_of_root(SQUARE, root)
    assert ker.complete
    assert ker.generators == ((0, 1, 0), (1, 0, 0))
    delta = root.derivation()
    for m in ker.generators:
        assert delta.apply(Polynomial.monomial(m)).is_zero()


def test_kernel_equals_level_zero_hilbert_elements():
    rng = random.Random(5)
    for _ in range(8):
        cone = random_cone(rng, rng.choice([2, 3]))
        roots = enumerate_roots(cone, 2)
        if not roots:
            continue
        root = roots[0]
        hb = hilbert_basis(make_cone(cone.rank, dual_cone(cone).generators))
        expected = tuple(h for h in hb.elements if pairing(h, root.ray) == 0)
        assert kernel_of_root(cone, root).generators == tuple(sorted(expected))


def test_kernel_face_matches_dual_of_the_extended_cone():
    # the kernel face used to be built as the dual of the cone with -ray
    # added; on a full-dimensional cone it must stay the same cone. On a
    # lower-dimensional one the dual, and so the face, contains a line:
    # that is refused, naming the dual's line, not a line of the cone
    rng = random.Random(13)
    lower = 0
    for _ in range(40):
        rank = rng.choice([2, 3, 3])
        rays = [tuple(rng.randrange(0, 3) for _ in range(rank))
                for _ in range(rng.randrange(1, rank + 2))]
        if rng.random() < 0.3:
            rays = [r[:-1] + (0,) for r in rays]
        cone = make_cone(rank, [r for r in rays if any(r)])
        if not cone.rays or not is_pointed(cone):
            continue
        flat = matrix_rank(cone.rays) < rank
        lower += flat
        for root in enumerate_roots(cone, 1)[:4]:
            for bound in (None, 1):
                if flat:
                    with pytest.raises(RefusalError) as info:
                        kernel_of_root(cone, root, bound)
                    assert "not full-dimensional" in str(info.value)
                    line = info.value.witness["dual_lineality"]
                    assert any(line)
                    assert all(pairing(line, r) == 0 for r in cone.rays)
                    continue
                face = make_cone(rank, dual_cone(make_cone(
                    rank, cone.rays + (vec_scale(-1, root.ray),))).generators)
                want = hilbert_basis(face, bound)
                ker = kernel_of_root(cone, root, bound)
                assert (ker.generators, ker.complete) == (want.elements, want.complete)
    assert lower > 3


def test_worked_example_slice_and_expression():
    root = require_root(SQUARE, SQUARE_ROOT)
    s = find_local_slice(SQUARE, root)
    assert s == (0, 0, 1)
    assert pairing(s, root.ray) == 1
    expr = express_in_slice(SQUARE, root, (-1, -1, 2))
    assert expr.level == 2 and expr.twist == 1
    assert expr.kernel_weight == (0, 1, 0)
    # exponent identity, recomputed by hand
    lhs = vec_add(expr.weight, vec_scale(expr.twist, vec_add(s, root.vector)))
    rhs = vec_add(expr.kernel_weight, vec_scale(expr.level, s))
    assert lhs == rhs


def test_slice_minimality_against_box_scan():
    from itertools import product as iproduct
    rng = random.Random(13)
    for _ in range(8):
        cone = random_cone(rng, 2)
        roots = enumerate_roots(cone, 2)
        if not roots:
            continue
        root = roots[-1]
        s = find_local_slice(cone, root)
        key = (sum(abs(x) for x in s), s)
        b = key[0]
        for cand in iproduct(range(-b, b + 1), repeat=cone.rank):
            if pairing(cand, root.ray) != 1:
                continue
            if not semigroup_member(cone, cand):
                continue
            assert (sum(abs(x) for x in cand), cand) >= key


def test_express_in_slice_rejects_outside_characters():
    root = require_root(ORTHANT2, (-1, 0))
    with pytest.raises(RefusalError):
        express_in_slice(ORTHANT2, root, (-1, 0))


def test_express_in_slice_sweep():
    from itertools import product as iproduct
    rng = random.Random(17)
    for _ in range(6):
        cone = random_cone(rng, 2)
        roots = enumerate_roots(cone, 2)
        if not roots:
            continue
        root = roots[0]
        s = find_local_slice(cone, root)
        for m in iproduct(range(0, 3), repeat=cone.rank):
            if not semigroup_member(cone, m):
                continue
            try:
                expr = express_in_slice(cone, root, m, slice_weight=s)
            except SearchBoundExceeded:
                continue
            assert semigroup_member(cone, expr.kernel_weight)
            assert pairing(expr.kernel_weight, root.ray) == 0


def test_isotropy_torus_presentation():
    root = require_root(SQUARE, SQUARE_ROOT)
    pres = isotropy_torus(SQUARE, root)
    assert pres.free_rank == 2 and pres.torsion == ()
    # the closed form is the kernel of the root character in the big torus,
    # on every root of the symmetry sweep's cones
    rng = random.Random(4)
    checked = 0
    for i in range(12):
        cone = random_cone(rng, 2 + i % 3, entry=1)
        for root in enumerate_roots(cone, 2):
            kernel = quasitorus_kernel(LatticeQuotient(cone.rank, ()), root.vector)
            assert isotropy_torus(cone, root) == kernel
            checked += 1
    assert checked > 200


# ---------------------------------------------------------------------------
# finite symmetries


def test_worked_example_symmetries_trivial():
    root = require_root(SQUARE, SQUARE_ROOT)
    sym = s_delta(SQUARE, root)
    assert sym.order == 1
    n = SQUARE.rank
    assert sym.matrices == (tuple(tuple(1 if i == j else 0 for j in range(n))
                                  for i in range(n)),)


def test_orthant3_symmetries_swap():
    root = require_root(ORTHANT3, (-1, 0, 0))
    sym = s_delta(ORTHANT3, root)
    assert sym.order == 2


def test_symmetries_match_brute_permutation_route():
    cases = [
        (SQUARE, SQUARE_ROOT),
        (ORTHANT3, (-1, 0, 0)),
        (ORTHANT2, (-1, 0)),
        (ORTHANT2, (-1, 1)),
    ]
    for cone, e in cases:
        root = require_root(cone, e)
        sym = s_delta(cone, root)
        assert set(sym.matrices) == brute_symmetries(cone, root)


def test_symmetries_permutation_cap_counts_candidates(monkeypatch):
    # the rays pair with the root -1 (e1) and 0 (e2, e3, e4), so the classes
    # {e1} and {e2, e3, e4} allow 1! * 3! = 6 ray permutations, and every
    # one of them is a symmetry
    orthant4 = make_cone(4, [tuple(int(i == j) for j in range(4))
                             for i in range(4)])
    root = require_root(orthant4, (-1, 0, 0, 0))
    assert s_delta(orthant4, root, perm_cap=6).order == 6
    # the cap needs only the rays and the root, so it refuses before the
    # dual Hilbert basis is built
    monkeypatch.setattr(toric, "hilbert_basis", None)
    with pytest.raises(SearchBoundExceeded) as exc:
        s_delta(orthant4, root, perm_cap=5)
    assert exc.value.cap == 5


def test_symmetries_match_level_class_search_sweep():
    # entries in [-1, 1] give cones with many symmetries; roots where the
    # basis search would try more than 720 permutations are skipped
    rng = random.Random(4)
    orders = {}
    compared = 0
    for i in range(12):
        cone = random_cone(rng, 2 + i % 3, entry=1)
        for root in enumerate_roots(cone, 2):
            try:
                ref = level_class_symmetries(cone, root, perm_cap=720)
            except SearchBoundExceeded:
                continue
            sym = s_delta(cone, root)
            assert (sym.order, sym.matrices, sym.basis) == \
                (ref.order, ref.matrices, ref.basis)
            # what the ray permutation implies, and s_delta does not check
            basis = set(sym.basis)
            for g in sym.matrices:
                assert abs(determinant(g)) == 1
                assert vec_mat(root.vector, g) == root.vector
                assert {vec_mat(h, g) for h in sym.basis} == basis
            orders[sym.order] = orders.get(sym.order, 0) + 1
            compared += 1
    assert compared > 200
    assert {1, 2, 6} <= set(orders)


def test_symmetries_form_a_group():
    root = require_root(ORTHANT3, (-1, 0, 0))
    sym = s_delta(ORTHANT3, root)
    mats = set(sym.matrices)
    n = ORTHANT3.rank
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    assert ident in mats
    for a in mats:
        for b in mats:
            prod = tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                               for j in range(n)) for i in range(n))
            assert prod in mats


# ---------------------------------------------------------------------------
# reports and semigroup preservation


def test_worked_example_report():
    report = toric_isotropy_report(SQUARE, SQUARE_ROOT)
    assert report.root.ray_index == 0
    assert report.maximality.maximal
    assert report.torus.free_rank == 2
    assert report.symmetries.order == 1
    assert report.kernel.generators == ((0, 1, 0), (1, 0, 0))
    assert report.slice_weight == (0, 0, 1)


def test_saturated_semigroup_matches_root_verdict():
    # on the saturated semigroup of the orthant, the shifted derivation
    # preserves the algebra exactly when the shift is a root
    assert oracle_is_root(ORTHANT2, (-1, 2)) == (1, 0)
    assert require_root(ORTHANT2, (-1, 2)).ray == (1, 0)
    assert oracle_is_root(ORTHANT2, (-1, -1)) is None
    assert is_demazure_root(ORTHANT2, (-1, -1)) is None
