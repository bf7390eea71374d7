"""Trinomial layer: formulas are cross-checked by symbolic Leibniz
computation in the quotient ring, nilpotency by iterated application, and
the combinatorial commuting/maximality rules against the actual
commutator evaluated on every generator."""

import random
import time
from math import comb

import pytest

from lndkit.algebra import Polynomial, TrinomialRing, exponential
from lndkit.errors import RefusalError
from lndkit.lattice import quasitorus_kernel
from lndkit.trinomial import (
    EXTERNAL_REFERENCE_VALUES,
    classify,
    derivation_degree,
    derivation_for,
    elementary_derivations,
    grading_group,
    is_rigid,
    kernel_monomials,
    kernel_variable_indices,
    maximal_replicas,
    maximality_verdict,
    pair_commutes,
    symmetry_factors,
    trinomial_isotropy_report,
)
from oracles import (
    is_locally_nilpotent,
    maximal_replicas_by_filter,
    poly_mul,
    trinomial_commutant_by_search,
    trinomial_symmetries_by_permutation,
)

# x y^2 = z1^2 z2^3 + 1, two power variables
RING_SPLIT = TrinomialRing((), (1, 2), (2, 3))
# x1 x2 y1^2 y2^2 y3^7 = z^3 + 1, one power variable
RING_SINGLE = TrinomialRing((), (1, 1, 2, 2, 7), (3,))


def unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def variables(ring):
    return [Polynomial.monomial(unit(ring.nvars, i)) for i in range(ring.nvars)]


def random_supported_ring(rng, max_vars=7):
    """A classifiable ring of at most max_vars variables with small, often
    repeated exponents, so blocks share exponents and classes have size
    above one. About a third of them have a single power variable."""
    n2 = rng.choice((1, 2, 3))
    n1 = rng.randint(1, max_vars - n2)
    l1 = [rng.choice((1, 1, 2, 3)) for _ in range(n1)]
    l1[rng.randrange(n1)] = 1
    return TrinomialRing((), tuple(l1), tuple(rng.choice((2, 3)) for _ in range(n2)))


def random_derivations(rng, count):
    """(shape, derivation) pairs on random rings: an elementary derivation,
    or a replica by a random kernel monomial of small exponents."""
    out = []
    while len(out) < count:
        shape = classify(random_supported_ring(rng))
        base = rng.choice(elementary_derivations(shape))
        replica = None
        if rng.random() < 0.7:
            replica = [0] * shape.ring.nvars
            for v in kernel_variable_indices(shape, base):
                replica[v] = rng.choice((0, 0, 1, 1, 2))
        out.append((shape, derivation_for(shape, base.x_index, base.z_index,
                                          replica)))
    return out


# ---------------------------------------------------------------------------
# classification and rigidity


def test_classify_split_ring():
    shape = classify(RING_SPLIT)
    assert shape.kind == "multi_z"
    assert shape.x_indices == (0,) and shape.y_indices == (1,)
    assert shape.z_indices == (2, 3)
    assert shape.y_exponents == (2,) and shape.z_exponents == (2, 3)


def test_classify_single_ring():
    shape = classify(RING_SINGLE)
    assert shape.kind == "single_z"
    assert shape.x_indices == (0, 1) and shape.y_indices == (2, 3, 4)
    assert shape.z_indices == (5,)


def test_classify_refusals():
    with pytest.raises(RefusalError):
        classify(TrinomialRing((2,), (1, 2), (2,)))   # constant block
    with pytest.raises(RefusalError):
        classify(TrinomialRing((), (2, 3), (2,)))     # no plain variable
    with pytest.raises(RefusalError):
        classify(TrinomialRing((), (1, 2), (1,)))     # linear power block
    with pytest.raises(RefusalError):
        classify(TrinomialRing((), (1, 2), (2, 1)))   # mixed power block


def test_rigidity_unit_exponent_all_blocks():
    for ring, block in [
        (TrinomialRing((1,), (2,), (3,)), 0),
        (TrinomialRing((2,), (1, 2), (3,)), 1),
        (TrinomialRing((2,), (3,), (5, 1)), 2),
    ]:
        verdict = is_rigid(ring)
        assert not verdict.rigid and verdict.reason == "unit_exponent"
        assert verdict.witness["block"] == block


def test_rigidity_even_pair():
    verdict = is_rigid(TrinomialRing((2,), (2,), (3,)))
    assert not verdict.rigid and verdict.reason == "even_pair"
    assert verdict.witness["blocks"] == (0, 1)
    assert not is_rigid(TrinomialRing((2, 4), (2, 6), (3,))).rigid
    assert not is_rigid(TrinomialRing((3,), (2, 2), (2, 2))).rigid


def test_rigidity_rigid_cases():
    assert is_rigid(TrinomialRing((2,), (3,), (5,))).rigid
    # without a constant block the even-pair escape is unavailable
    assert is_rigid(TrinomialRing((), (2,), (2,))).rigid
    assert is_rigid(TrinomialRing((), (3, 2), (5,))).rigid
    # blocks share evenness but neither contains an exact two
    assert is_rigid(TrinomialRing((2, 2), (4, 6), (3, 3))).rigid
    assert is_rigid(TrinomialRing((4,), (2, 3), (6,))).rigid


def test_rigidity_consistent_with_derivation_existence():
    # every classifiable ring carries the elementary derivations, so it
    # must not be rigid
    for ring in [RING_SPLIT, RING_SINGLE, TrinomialRing((), (1, 1), (2,))]:
        assert not is_rigid(ring).rigid
        assert elementary_derivations(classify(ring))


# ---------------------------------------------------------------------------
# the derivations themselves


def test_split_ring_derivation_images():
    shape = classify(RING_SPLIT)
    d1, d2 = elementary_derivations(shape)
    x, y, z1, z2 = variables(RING_SPLIT)
    assert d1.x_index == 0 and d1.z_index == 2
    assert d1.derivation.apply(x) == Polynomial.monomial((0, 0, 1, 3), 2)
    assert d1.derivation.apply(z1) == Polynomial.monomial((0, 2, 0, 0))
    assert d1.derivation.apply(y).is_zero()
    assert d1.derivation.apply(z2).is_zero()
    assert d2.x_index == 0 and d2.z_index == 3
    assert d2.derivation.apply(x) == Polynomial.monomial((0, 0, 2, 2), 3)
    assert d2.derivation.apply(z2) == Polynomial.monomial((0, 2, 0, 0))


def test_single_ring_derivation_images():
    shape = classify(RING_SINGLE)
    derivs = elementary_derivations(shape)
    assert len(derivs) == 2
    d1 = derivs[0]
    n = RING_SINGLE.nvars
    assert d1.derivation.apply(Polynomial.monomial(unit(n, 0))) \
        == Polynomial.monomial((0, 0, 0, 0, 0, 2), 3)
    assert d1.derivation.apply(Polynomial.monomial(unit(n, 5))) \
        == Polynomial.monomial((0, 1, 2, 2, 7, 0))


def test_derivations_kill_the_relation():
    for ring in [RING_SPLIT, RING_SINGLE, TrinomialRing((), (1, 1, 2, 2), (2, 2))]:
        shape = classify(ring)
        rel = ring.relation_polynomial()
        for d in elementary_derivations(shape):
            assert ring.reduce(d.derivation.apply(rel)).is_zero()


def test_derivations_locally_nilpotent():
    for ring in [RING_SPLIT, RING_SINGLE]:
        shape = classify(ring)
        for d in elementary_derivations(shape):
            verdict = is_locally_nilpotent(d.derivation, variables(ring))
            assert verdict.nilpotent is True


def test_replica_locally_nilpotent():
    shape = classify(RING_SPLIT)
    rep = derivation_for(shape, 0, 2, (0, 0, 0, 1))
    assert rep.label() == "T3*d[0,2]"
    verdict = is_locally_nilpotent(rep.derivation, variables(RING_SPLIT))
    assert verdict.nilpotent is True


@pytest.mark.parametrize("ring", [RING_SPLIT,
                                  TrinomialRing((), (1, 1, 2), (2, 2))])
def test_replica_is_kernel_monomial_times_base(ring):
    # oracle: apply the base derivation, multiply by h, reduce again
    rng = random.Random(11)
    shape = classify(ring)
    for base in elementary_derivations(shape):
        for h in kernel_monomials(shape, base, 2):
            rep = derivation_for(shape, base.x_index, base.z_index, h)
            for _ in range(5):
                p = Polynomial({
                    tuple(rng.randrange(4) for _ in range(ring.nvars)):
                    rng.randrange(-3, 4) for _ in range(4)})
                assert rep.derivation.apply(p) == ring.reduce(
                    poly_mul(Polynomial.monomial(h), base.derivation.apply(p)))


def test_derivation_for_validation():
    shape = classify(RING_SPLIT)
    with pytest.raises(ValueError):
        derivation_for(shape, 1)                      # y is not plain
    with pytest.raises(ValueError):
        derivation_for(shape, 0)                      # power index required
    with pytest.raises(ValueError):
        derivation_for(shape, 0, 1)                   # not a power variable
    with pytest.raises(ValueError):
        derivation_for(shape, 0, 2, (1, 0, 0, 0))     # multiplier moves x
    with pytest.raises(ValueError):
        derivation_for(shape, 0, 2, (0, 0, 1, 0))     # multiplier moves z1


def test_kernel_variables():
    shape = classify(RING_SPLIT)
    _, d2 = elementary_derivations(shape)
    assert kernel_variable_indices(shape, d2) == (1, 2)
    for m in kernel_monomials(shape, d2, 3):
        assert m[0] == 0 and m[3] == 0
        assert d2.derivation.apply(Polynomial.monomial(m)).is_zero()


def test_exponential_preserves_the_relation():
    shape = classify(RING_SPLIT)
    d1, _ = elementary_derivations(shape)
    rel = RING_SPLIT.relation_polynomial()
    image = exponential(d1.derivation, rel)
    assert RING_SPLIT.reduce(image).is_zero()


# ---------------------------------------------------------------------------
# commuting


def test_split_ring_commuting_pattern():
    shape = classify(TrinomialRing((), (1, 1, 2, 2), (2, 2)))
    derivs = elementary_derivations(shape)
    assert len(derivs) == 4
    ring = shape.ring
    for a in derivs:
        for b in derivs:
            expected = a.x_index == b.x_index
            assert pair_commutes(ring, a, b) == expected


def test_same_pair_replicas_commute():
    shape = classify(RING_SPLIT)
    a = derivation_for(shape, 0, 2, (0, 0, 0, 1))
    b = derivation_for(shape, 0, 2, (0, 2, 0, 2))
    assert pair_commutes(RING_SPLIT, a, b)


def test_single_ring_nothing_commutes_across_plain_variables():
    shape = classify(RING_SINGLE)
    d1, d2 = elementary_derivations(shape)
    assert not pair_commutes(RING_SINGLE, d1, d2)
    # replicas do not help
    h1 = derivation_for(shape, 0, None, (0, 1, 0, 0, 0, 0))
    h2 = derivation_for(shape, 1, None, (1, 0, 0, 0, 0, 0))
    assert not pair_commutes(RING_SINGLE, h1, d2)
    assert not pair_commutes(RING_SINGLE, h1, h2)


def test_split_example_commutes_and_replica_blocks_it():
    shape = classify(RING_SPLIT)
    d1, d2 = elementary_derivations(shape)
    assert pair_commutes(RING_SPLIT, d1, d2)
    rep = derivation_for(shape, 0, 2, (0, 0, 0, 1))
    for g in kernel_monomials(shape, d2, 3):
        partner = derivation_for(shape, 0, 3, g) if any(g) else d2
        assert not pair_commutes(RING_SPLIT, rep, partner)


# ---------------------------------------------------------------------------
# maximality


def test_single_ring_always_maximal():
    shape = classify(RING_SINGLE)
    for d in elementary_derivations(shape):
        verdict = maximality_verdict(shape, d)
        assert verdict.maximal and verdict.witness is None


def test_split_ring_irreducible_never_maximal():
    shape = classify(RING_SPLIT)
    d1, d2 = elementary_derivations(shape)
    verdict = maximality_verdict(shape, d1)
    assert not verdict.maximal
    assert verdict.witness.z_index == d2.z_index
    assert pair_commutes(RING_SPLIT, d1, verdict.witness)


def test_split_ring_replica_maximality_rule():
    shape = classify(RING_SPLIT)
    maximal = derivation_for(shape, 0, 2, (0, 0, 0, 1))
    assert maximality_verdict(shape, maximal).maximal
    still_missing = derivation_for(shape, 0, 2, (0, 3, 0, 0))
    assert not maximality_verdict(shape, still_missing).maximal


def test_maximality_matches_symbolic_commutant_search():
    rng = random.Random(3)
    shape = classify(TrinomialRing((), (1, 1, 2), (2, 2, 3)))
    ring = shape.ring
    ker_pool = [i for i in range(ring.nvars)]
    for _ in range(10):
        xi = rng.choice(shape.x_indices)
        zi = rng.choice(shape.z_indices)
        h = [0] * ring.nvars
        for v in ker_pool:
            if v in (xi, zi):
                continue
            h[v] = rng.randrange(0, 2)
        deriv = derivation_for(shape, xi, zi, tuple(h))
        verdict = maximality_verdict(shape, deriv)
        partners = [derivation_for(shape, xi, z)
                    for z in shape.z_indices if z != zi]
        commuting = [p for p in partners if pair_commutes(ring, deriv, p)]
        assert verdict.maximal == (not commuting)
        if not verdict.maximal:
            assert pair_commutes(ring, deriv, verdict.witness)


def test_maximality_matches_commutant_search_on_random_rings():
    # a maximal verdict: no inequivalent replica of degree <= 2 commutes; a
    # non-maximal one: its witness is inequivalent and commutes
    start = time.monotonic()
    rng = random.Random(17)
    kinds = set()
    for shape, d in random_derivations(rng, 300):
        verdict = maximality_verdict(shape, d)
        found = trinomial_commutant_by_search(shape, d, 2)
        assert verdict.maximal == (found is None), d.label()
        if verdict.maximal:
            assert verdict.witness is None
        else:
            w = verdict.witness
            assert (w.x_index, w.z_index) != (d.x_index, d.z_index)
            assert w.replica is None
            assert pair_commutes(shape.ring, d, w)
        kinds.add((shape.kind, verdict.maximal))
    assert kinds == {("single_z", True), ("multi_z", True), ("multi_z", False)}
    assert time.monotonic() - start < 2.0


def test_maximal_replicas_match_the_filter():
    start = time.monotonic()
    rng = random.Random(29)
    rings = [random_supported_ring(rng) for _ in range(30)] + [
        RING_SPLIT, RING_SINGLE,
        TrinomialRing((), (1,), (3,)),      # kernel without variables
        TrinomialRing((), (1,), (2, 3)),    # kernel of one power variable
        TrinomialRing((), (1, 2), (2, 2, 3))]
    seen = set()
    for ring in rings:
        shape = classify(ring)
        for d in elementary_derivations(shape):
            k = len(kernel_variable_indices(shape, d))
            s = len(shape.z_indices) - 1
            for degree in range(7):
                got = maximal_replicas(shape, d, degree)
                assert got == maximal_replicas_by_filter(shape, d, degree)
                # the zero multiplier is dropped when s = 0
                assert len(got) == (comb(degree - s + k, k) - (s == 0)
                                    if degree >= s else 0)
                seen.add((shape.kind, k == 0, degree < s))
    assert seen == {("single_z", False, False), ("single_z", True, False),
                    ("multi_z", False, False), ("multi_z", False, True)}
    shape = classify(TrinomialRing((), (1, 1, 1, 2, 2), (2, 2, 3)))
    lists = [maximal_replicas(shape, d, 12) for d in elementary_derivations(shape)]
    assert sum(map(len, lists)) == 9 * comb(16, 6) == 72072
    assert lists == [maximal_replicas_by_filter(shape, d, 12)
                     for d in elementary_derivations(shape)]
    assert time.monotonic() - start < 2.0


def test_kernel_monomials_below_degree_zero_are_none():
    # a kernel without variables has the constant 1 at degree 0 only, as a
    # kernel with variables does
    for ring in (TrinomialRing((), (1,), (3,)), TrinomialRing((), (1, 2), (3,))):
        shape = classify(ring)
        for d in elementary_derivations(shape):
            assert kernel_monomials(shape, d, -1) == ()
            assert kernel_monomials(shape, d, 0) == ((0,) * ring.nvars,)


# ---------------------------------------------------------------------------
# grading and isotropy


def test_grading_group_split_ring():
    q = grading_group(RING_SPLIT)
    assert q.free_rank == 2 and q.torsion == ()


def test_grading_group_single_ring():
    q = grading_group(RING_SINGLE)
    assert q.invariant_factors == (1, 3)
    assert q.free_rank == 4 and q.torsion == (3,)


def test_grading_group_with_constant_block():
    q = grading_group(TrinomialRing((2,), (1, 3), (2,)))
    assert q.free_rank == 2 and q.torsion == (2,)


def test_degree_lifts_single_ring():
    shape = classify(RING_SINGLE)
    d1 = elementary_derivations(shape)[0]
    lifts = derivation_degree(shape, d1)
    assert lifts == ((-1, 0, 0, 0, 0, 2), (0, 1, 2, 2, 7, -1))


def test_isotropy_quasitorus_single_ring():
    pres = trinomial_isotropy_report(RING_SINGLE).quasitorus
    assert pres.free_rank == 3 and pres.torsion == (3,)
    shape = classify(RING_SINGLE)
    lift = derivation_degree(shape, elementary_derivations(shape)[0])[0]
    assert quasitorus_kernel(grading_group(RING_SINGLE), lift) == pres


def test_isotropy_quasitorus_rank_formula_plain_times_power():
    # for a single power variable the diagonal stabilizer torus has
    # dimension (plain count - 1) + (higher count) - 1
    ring = TrinomialRing((), (1, 1), (2,))
    assert trinomial_isotropy_report(ring).quasitorus.free_rank == 0
    assert trinomial_isotropy_report(RING_SINGLE).quasitorus.free_rank == 2 + 3 - 2


def test_symmetry_factors_single_ring():
    shape = classify(RING_SINGLE)
    d1 = elementary_derivations(shape)[0]
    sym = symmetry_factors(shape, d1)
    assert sym.order == 2
    assert sorted(v for f in sym.factors for v in f.variables) == [1, 2, 3, 4]
    sizes = sorted((f.variables, f.size) for f in sym.factors)
    assert ((2, 3), 2) in [(f.variables, f.size) for f in sym.factors]
    assert [s for _, s in sizes] == [1, 2, 1]


def test_symmetry_factors_single_ring_reads_the_multiplier():
    # T2 is in the multiplier and T3 is not, so the two exponent-2
    # variables do not swap
    shape = classify(RING_SINGLE)
    sym = symmetry_factors(shape, derivation_for(shape, 0, None,
                                                 (0, 0, 1, 0, 0, 0)))
    assert sym.order == 1
    assert sorted(v for f in sym.factors for v in f.variables) == [1, 2, 3, 4]
    assert all(f.size == 1 for f in sym.factors)


def test_symmetry_factors_split_with_replica():
    ring = TrinomialRing((), (1, 1, 2, 2), (2, 2))
    shape = classify(ring)
    full = derivation_for(shape, 0, 4, (0, 0, 0, 0, 0, 1))
    sym = symmetry_factors(shape, full)
    assert sym.order == 2  # the two equal-exponent higher variables swap
    skewed = derivation_for(shape, 0, 4, (0, 0, 2, 0, 0, 1))
    assert symmetry_factors(shape, skewed).order == 1


def test_symmetry_factors_match_permutation_search():
    start = time.monotonic()
    rng = random.Random(23)
    orders = set()
    for shape, d in random_derivations(rng, 400):
        sym = symmetry_factors(shape, d)
        order, classes = trinomial_symmetries_by_permutation(shape, d)
        assert sym.order == order, d.label()
        assert tuple(f.variables for f in sym.factors) == classes, d.label()
        orders.add(order)
    assert {1, 2} < orders and max(orders) >= 6
    assert time.monotonic() - start < 2.0


# ---------------------------------------------------------------------------
# reports


def test_single_ring_report_with_discrepancies():
    report = trinomial_isotropy_report(RING_SINGLE)
    assert report.maximality.maximal
    assert report.symmetries.order == 2
    assert report.quasitorus.free_rank == 3
    assert report.quasitorus.torsion == (3,)
    assert report.grading.invariant_factors == (1, 3)
    fields = [d["field"] for d in report.discrepancies]
    assert fields == ["power_image_exponents", "stabilized_monomial_exponents",
                      "symmetry_order"]
    by_field = {d["field"]: d for d in report.discrepancies}
    assert by_field["symmetry_order"]["computed"] == 2
    assert by_field["symmetry_order"]["reference"] == 4
    assert by_field["power_image_exponents"]["computed"] == (0, 1, 2, 2, 7, 0)
    assert by_field["power_image_exponents"]["reference"] == (0, 1, 2, 7, 2, 0)


def test_tabulated_ring_symmetry_order_from_permutation_search():
    # the reference tabulates order 4, two independent transpositions; the
    # only variable permutation that fixes the relation and the derivation,
    # apart from the identity, swaps the two exponent-2 variables
    report = trinomial_isotropy_report(RING_SINGLE)
    shape = classify(RING_SINGLE)
    order, classes = trinomial_symmetries_by_permutation(
        shape, report.derivation)
    assert order == 2 and classes == ((1,), (2, 3), (4,))
    by_field = {d["field"]: d for d in report.discrepancies}
    assert by_field["symmetry_order"]["computed"] == order


def test_report_second_plain_variable_no_reference_entry():
    report = trinomial_isotropy_report(RING_SINGLE, x_index=1)
    assert report.discrepancies == ()
    assert report.symmetries.order == 2


def test_report_refuses_single_plain_variable():
    with pytest.raises(RefusalError) as info:
        trinomial_isotropy_report(RING_SPLIT)
    assert "Danielewski" in str(info.value)


def test_report_refuses_non_maximal():
    ring = TrinomialRing((), (1, 1, 2), (2, 2))
    with pytest.raises(RefusalError) as info:
        trinomial_isotropy_report(ring, x_index=0, z_index=3)
    assert "commuting_partner" in info.value.witness


def test_report_accepts_maximal_replica():
    ring = TrinomialRing((), (1, 1, 2), (2, 2))
    report = trinomial_isotropy_report(ring, x_index=0, z_index=3,
                                       replica=(0, 0, 0, 0, 1))
    assert report.maximality.maximal
    assert report.derivation.replica == (0, 0, 0, 0, 1)


def test_reference_table_has_expected_key():
    assert ((), (1, 1, 2, 2, 7), (3,), 0) in EXTERNAL_REFERENCE_VALUES
