"""Acceptance gates.

Each test pins one externally agreed requirement, with a wall-clock
budget asserted at the end. Budgets are generous on purpose: the point
is catching an accidental complexity blowup, not micro-benchmarks.
"""

import json
import random
import time
from pathlib import Path

from lndkit.algebra import (
    Polynomial,
    TrinomialRing,
    commutator_vanishes_on,
    exponential,
)
from lndkit.cone import (
    completeness_bound,
    dual_cone,
    hilbert_basis,
    is_pointed,
    make_cone,
)
from lndkit.lattice import (
    matrix_rank,
    pairing,
    solve_dual_pair,
)
from lndkit.toric import (
    construct_commuting_pair,
    enumerate_roots,
    is_demazure_root,
    is_maximal,
    isotropy_torus,
    kernel_of_root,
    lnds_commute,
    require_root,
    s_delta,
    symbolic_commute_check,
)
from lndkit.trinomial import (
    classify,
    derivation_for,
    elementary_derivations,
    is_rigid,
    kernel_monomials,
    maximality_verdict,
    pair_commutes,
    trinomial_isotropy_report,
)
from oracles import group_law_holds, homomorphism_holds

DATA_DIR = Path(__file__).parent / "data"


def random_cone(rng, rank, tries=200):
    for _ in range(tries):
        k = rng.randrange(rank, rank + 3)
        rays = [tuple(rng.randrange(-2, 3) for _ in range(rank))
                for _ in range(k)]
        rays = [r for r in rays if any(r)]
        if len(rays) < rank:
            continue
        cone = make_cone(rank, rays)
        if len(cone.rays) >= rank and matrix_rank(cone.rays) == rank \
                and is_pointed(cone):
            return cone
    raise AssertionError("random cone generation failed")


def dual_basis_is_tame(cone, max_box=200_000):
    # skinny cones have dual generators with huge entries, and the Hilbert
    # basis scan visits a box whose volume is exponential in that radius
    dual = make_cone(cone.rank, dual_cone(cone).generators)
    radius = completeness_bound(dual)
    return (2 * radius + 1) ** cone.rank <= max_box


def test_square_cone_worked_example():
    start = time.monotonic()
    input_rays = [(0, 0, 1), (2, 0, 1), (0, 1, 1), (1, 1, 1)]
    cone = make_cone(3, input_rays)
    root = require_root(cone, (1, 2, -1))

    assert [pairing(root.vector, v) for v in input_rays] == [-1, 1, 1, 2]
    assert is_maximal(cone, root).maximal

    kernel = kernel_of_root(cone, root)
    assert kernel.complete
    assert set(kernel.generators) == {(1, 0, 0), (0, 1, 0)}

    torus = isotropy_torus(cone, root)
    assert torus.free_rank == 2 and torus.torsion == ()

    assert s_delta(cone, root).order == 1
    assert time.monotonic() - start < 1.0


def test_split_power_block_worked_example():
    start = time.monotonic()
    ring = TrinomialRing((), (1, 2), (2, 3))
    shape = classify(ring)
    d1 = derivation_for(shape, 0, 2)
    d2 = derivation_for(shape, 0, 3)
    assert pair_commutes(ring, d1, d2)

    replica = derivation_for(shape, 0, 2, (0, 0, 0, 1))
    for g in kernel_monomials(shape, d2, 4):
        partner = d2 if not any(g) else derivation_for(shape, 0, 3, g)
        assert not pair_commutes(ring, replica, partner)

    assert maximality_verdict(shape, replica).maximal
    verdict = maximality_verdict(shape, d1)
    assert not verdict.maximal and verdict.witness.label() == "d[0,3]"
    assert time.monotonic() - start < 5.0


def test_single_power_variable_worked_example():
    start = time.monotonic()
    ring = TrinomialRing((), (1, 1, 2, 2, 7), (3,))
    report = trinomial_isotropy_report(ring)

    assert report.grading.invariant_factors == (1, 3)
    assert report.quasitorus.free_rank == 3
    assert report.quasitorus.torsion == (3,)
    assert report.symmetries.order == 2
    recorded = {d["field"]: d for d in report.discrepancies}
    assert recorded["symmetry_order"]["computed"] == 2
    assert recorded["symmetry_order"]["reference"] == 4
    assert time.monotonic() - start < 1.0


def test_commute_criterion_matches_symbolic_oracle():
    start = time.monotonic()
    rng = random.Random(41)
    cones = 0
    pairs = 0
    verdicts = set()
    while cones < 50:
        cone = random_cone(rng, 2 + cones % 3)
        if not dual_basis_is_tame(cone):
            continue
        roots = enumerate_roots(cone, 3)
        cones += 1
        basis = hilbert_basis(
            make_cone(cone.rank, dual_cone(cone).generators))
        gens = [Polynomial.monomial(h) for h in basis.elements]
        derivs = [r.derivation() for r in roots]
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                claimed = lnds_commute(roots[i], roots[j])
                assert claimed == commutator_vanishes_on(
                    derivs[i], derivs[j], gens)
                verdicts.add(claimed)
                pairs += 1
    assert cones >= 50 and pairs >= 50
    assert verdicts == {True, False}
    assert time.monotonic() - start < 60.0


def _minor_gcd(v, w):
    from math import gcd
    g = 0
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            g = gcd(g, abs(v[i] * w[j] - v[j] * w[i]))
    return g


def test_basis_extension_triple_equivalence():
    start = time.monotonic()
    rng = random.Random(42)

    def primitive(rank):
        from math import gcd
        while True:
            vec = tuple(rng.randrange(-5, 6) for _ in range(rank))
            g = 0
            for x in vec:
                g = gcd(g, abs(x))
            if g:
                return tuple(x // g for x in vec)

    seen = set()
    for case in range(200):
        rank = 2 + case % 4
        v, w = primitive(rank), primitive(rank)
        by_minors = _minor_gcd(v, w) == 1
        by_solver = solve_dual_pair(v, w) is not None
        assert by_minors == by_solver
        seen.add(by_solver)
    assert seen == {True, False}
    assert time.monotonic() - start < 10.0


def test_maximality_verdicts_backed_by_search():
    start = time.monotonic()
    rng = random.Random(43)
    verdicts = set()
    case = 0
    while case < 20:
        cone = random_cone(rng, 2 + case % 2)
        if not dual_basis_is_tame(cone):
            continue
        case += 1
        roots = enumerate_roots(cone, 4)
        saw_non_maximal = False
        for root in roots:
            verdict = is_maximal(cone, root)
            verdicts.add(verdict.maximal)
            if verdict.maximal:
                for other in roots:
                    if other.ray != root.ray:
                        assert not lnds_commute(root, other)
            else:
                saw_non_maximal = True
                witness = verdict.witness
                assert witness is not None
                assert is_demazure_root(cone, witness.vector) is not None
                assert witness.ray != root.ray
                assert lnds_commute(root, witness)
                assert symbolic_commute_check(cone, root, witness)
        if saw_non_maximal:
            first, second = construct_commuting_pair(cone)
            assert first.ray != second.ray
            assert lnds_commute(first, second)
    assert verdicts == {True, False}
    assert time.monotonic() - start < 120.0


def test_exponential_laws():
    start = time.monotonic()
    rng = random.Random(44)
    instances = 0

    while instances < 52:
        cone = random_cone(rng, 2 + instances % 2)
        if not dual_basis_is_tame(cone):
            continue
        roots = enumerate_roots(cone, 2)
        if not roots:
            continue
        root = roots[rng.randrange(len(roots))]
        deriv = root.derivation()
        basis = hilbert_basis(
            make_cone(cone.rank, dual_cone(cone).generators)).elements

        def monomial():
            weight = (0,) * cone.rank
            for _ in range(rng.randrange(1, 4)):
                h = basis[rng.randrange(len(basis))]
                weight = tuple(a + b for a, b in zip(weight, h))
            return Polynomial.monomial(weight)

        p, q = monomial(), monomial()
        assert homomorphism_holds(deriv, p, q, cap=256)
        assert group_law_holds(deriv, p, cap=256)
        instances += 1

    rings = [TrinomialRing((), (1, 2), (2, 3)),
             TrinomialRing((), (1, 1, 2), (2, 2)),
             TrinomialRing((), (1, 1, 2, 2, 7), (3,))]
    for ring in rings:
        shape = classify(ring)
        for d in elementary_derivations(shape):
            relation_flow = ring.reduce(
                exponential(d.derivation, ring.relation_polynomial()))
            assert not relation_flow.terms

            kernels = [h for h in kernel_monomials(shape, d, 2) if any(h)]
            variants = [d, derivation_for(
                shape, d.x_index, d.z_index,
                kernels[rng.randrange(len(kernels))])]
            for variant in variants:
                for _ in range(3):
                    p = Polynomial.monomial(tuple(
                        rng.randrange(0, 3) for _ in range(ring.nvars)))
                    q = Polynomial.monomial(tuple(
                        rng.randrange(0, 3) for _ in range(ring.nvars)))
                    assert homomorphism_holds(variant.derivation, p, q,
                                              reducer=ring.reduce, cap=256)
                    assert group_law_holds(variant.derivation, p,
                                           reducer=ring.reduce, cap=256)
                    instances += 1

    assert instances >= 100
    assert time.monotonic() - start < 30.0


def test_rigidity_golden_table():
    start = time.monotonic()
    rows = json.loads((DATA_DIR / "rigidity_golden.json").read_text())
    assert len(rows) == 12
    reasons = set()
    for row in rows:
        ring = TrinomialRing(row["l0"], row["l1"], row["l2"])
        verdict = is_rigid(ring)
        assert verdict.rigid == row["rigid"], row
        assert verdict.reason == row["reason"], row
        reasons.add(verdict.reason)
    assert reasons == {None, "unit_exponent", "even_pair"}
    assert time.monotonic() - start < 1.0
