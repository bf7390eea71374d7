import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from lndkit import algebra as A
from lndkit import lattice
from lndkit import trinomial as T
from lndkit.cone import make_cone
from lndkit.errors import RefusalError, SearchBoundExceeded
from lndkit.toric import enumerate_roots
from oracles import (
    distinct_values,
    evaluate_series,
    exponential_by_parampoly,
    group_law_holds,
    homogeneous_components,
    homomorphism_holds,
    is_locally_nilpotent,
    poly_add,
    poly_mul,
    quotient_label,
    reduce_by_rewriting,
    series_degree,
)

# the running toric example: ambient weight lattice Z^3, semigroup algebra
# K[x, y, z, w] with weights below, derivation attached to the ray (0,0,1)
# and the character (1,2,-1)
WX, WY, WZ, WW = (0, 1, 0), (0, -1, 1), (-1, -1, 2), (1, 0, 0)
RAY = (0, 0, 1)
ROOT = (1, 2, -1)


def poly_strategy(dim=2, max_terms=4, exp_range=3):
    exp = st.tuples(*[st.integers(-exp_range, exp_range)] * dim)
    coeff = st.one_of(
        st.integers(-4, 4),
        st.fractions(min_value=-4, max_value=4, max_denominator=3))
    return st.dictionaries(exp, coeff, max_size=max_terms).map(A.Polynomial)


def eval_param(p, value):
    """Numeric oracle for ParamPoly: direct substitution into each term."""
    return sum((c * value ** k for (k,), c in p.terms.items()), Fraction(0))


def series(*coeffs):
    """The ParamPoly in t with coefficient coeffs[k] of t^k."""
    return A.ParamPoly(("t",), {(k,): c for k, c in enumerate(coeffs)})


# ---------------------------------------------------------------------------
# ParamPoly


def test_parampoly_str():
    assert str(series(0, 1)) == "t"
    assert str(series(0, 0, Fraction(1, 2))) == "1/2*t^2"
    assert str(series()) == "0"
    assert str(series(1, -1)) == "1 - t"


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_parampoly_arithmetic_against_evaluation(data):
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    terms = data.draw(st.dictionaries(st.tuples(st.integers(0, 3)), coeffs, max_size=4))
    terms2 = data.draw(st.dictionaries(st.tuples(st.integers(0, 3)), coeffs, max_size=4))
    p = A.ParamPoly(("t",), terms)
    q = A.ParamPoly(("t",), terms2)
    value = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
    scale = data.draw(st.one_of(st.integers(-4, 4), coeffs))
    assert eval_param(p + q, value) == eval_param(p, value) + eval_param(q, value)
    assert eval_param(p * scale, value) == eval_param(p, value) * scale


def test_parampoly_refuses_other_parameters_and_factors():
    t = series(0, 1)
    s = A.ParamPoly(("s",), {(1,): 1})
    with pytest.raises(TypeError):
        s + t
    with pytest.raises(TypeError):
        t * t
    with pytest.raises(TypeError):
        2 * t
    with pytest.raises(TypeError):
        t * A.Polynomial.monomial((1,))
    with pytest.raises(ValueError):
        A.ParamPoly(("s", "t"), {(1, 2): 1})


def test_parampoly_alignment_and_equality():
    t, s = series(0, 1), A.ParamPoly(("s",), {(1,): 1})
    p, q = series(1, 2), series(0, -2, 3)
    # terms of a sum are aligned by their power of the one parameter
    assert p + q == q + p == series(1, 0, 3)
    assert (p + p * -1).is_zero() and p + p * -1 == series()
    assert t + t == t * 2
    assert series(0, 2) == A.ParamPoly(("t",), {(1,): Fraction(2), (0,): 0})
    assert not (t == 0)
    assert t != s


def test_parampoly_substitute():
    u = series(0, 1, Fraction(1, 2))
    e = (1, 0)
    assert evaluate_series(A.Polynomial({e: u}), Fraction(2)) == A.Polynomial({e: 4})
    # substituting s + t for the parameter, checked on a grid of (s, t)
    for s, t in product(distinct_values(3), repeat=2):
        assert eval_param(u, s + t) == (s + t) ** 2 / 2 + (s + t)


# ---------------------------------------------------------------------------
# polynomial ring laws


@settings(max_examples=100, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_laws(p, q, r):
    assert poly_mul(p, q) == poly_mul(q, p)
    assert poly_mul(poly_mul(p, q), r) == poly_mul(p, poly_mul(q, r))
    assert poly_mul(p, poly_add(q, r)) == poly_add(poly_mul(p, q), poly_mul(p, r))
    assert poly_add(p, poly_add(A.Polynomial(), p, -1)) == A.Polynomial()


def test_polynomial_basics():
    x = A.Polynomial.monomial((1, 0))
    y = A.Polynomial.monomial((0, 1))
    assert poly_mul(poly_add(x, y), poly_add(x, y, -1)) == \
        poly_add(poly_mul(x, x), poly_mul(y, y), -1)
    assert poly_mul(x, y) == A.Polynomial.monomial((1, 1))
    laurent = poly_mul(A.Polynomial.monomial((-1, 0)), x)
    assert laurent == A.Polynomial.monomial((0, 0))
    assert x.terms.get((1, 0), 0) == 1
    # integral inputs keep int coefficients through sums and differences
    for p in (poly_add(x, y), poly_add(x, y, -1),
              poly_add(poly_add(poly_add(x, x), x), y, -1)):
        assert all(type(c) is int for c in p.terms.values())
    t = series(0, 1)
    for c in (3, Fraction(1, 2)):
        scaled = series(0, c)
        assert t * c == scaled and str(t * c) == str(scaled)


# ---------------------------------------------------------------------------
# derivations


def test_monomial_shift_derivation_golden():
    d = A.MonomialShiftDerivation(RAY, ROOT)
    x = A.Polynomial.monomial(WX)
    y = A.Polynomial.monomial(WY)
    z = A.Polynomial.monomial(WZ)
    w = A.Polynomial.monomial(WW)
    assert d.apply(x).is_zero()
    assert d.apply(w).is_zero()
    # delta(y) = x w and delta(z) = 2 x^2 y, in weight coordinates
    assert d.apply(y) == A.Polynomial.monomial(lattice.vec_add(WY, ROOT))
    assert d.apply(y) == poly_mul(x, w)
    assert d.apply(z) == poly_mul(poly_mul(x, x), A.Polynomial.monomial(WY, 2))


def test_monomial_shift_rejects_unequal_lengths():
    # apply would add a shorter shift to a prefix of each exponent only:
    # (1,0) with shift (1,0,0) sent X^(1,0) to X^(2,0)
    for weight, shift in (((1, 0), (1, 0, 0)), ((1, 0, 0), (1, 0)), ((), (1,))):
        with pytest.raises(ValueError, match="equal length"):
            A.MonomialShiftDerivation(weight, shift)


def test_variable_images_reject_indices_and_lengths_outside_the_ring():
    # apply used to truncate: the image X^(0,) of T0 sent X^(2,1) to 2*X^[1],
    # and an index of -1 acted as the last variable
    x = A.Polynomial.monomial
    for images in ({0: x((0,))}, {1: poly_add(x((1, 0)), x((1, 0, 0)))}, {-1: x((0, 1))},
                   {2: x((0, 1))}, {"0": x((0, 1))}, {5: A.Polynomial()}):
        with pytest.raises(ValueError, match="range|length"):
            A.VariableImagesDerivation(2, images)
    d = A.VariableImagesDerivation(2, {0: x((0, 0)), 1: A.Polynomial()})
    assert d.apply(x((2, 1))) == x((1, 1), 2)
    # so did an input term of another length: X^(1,0,5) went to X^[0,0]
    for p in (x((1, 0, 5)), x((1,)), poly_add(x((2, 1)), x((1, 0, 5)))):
        with pytest.raises(ValueError, match="length"):
            d.apply(p)
    with pytest.raises(ValueError, match="length"):
        A.exponential(d, x((2,)))


def test_polynomial_product_rejects_unequal_lengths():
    # vec_add truncated to the shorter exponent: X^(1,0) * X^(1,) gave X^[2]
    x = A.Polynomial.monomial
    for p, q in ((x((1, 0)), x((1,))), (x((1,)), x((1, 0))),
                 (x((1, 0)), poly_add(x((0, 1)), x((1, 1, 1))))):
        with pytest.raises(ValueError, match="equal length"):
            poly_mul(p, q)
    assert poly_mul(x((1, 0)), A.Polynomial()).is_zero()
    assert poly_mul(x((1, 0)), x((0, 2), 3)) == x((1, 2), 3)


@settings(max_examples=80, deadline=None)
@given(poly_strategy(dim=3), poly_strategy(dim=3))
def test_leibniz_monomial_shift(p, q):
    d = A.MonomialShiftDerivation((1, -1, 2), (0, 1, -1))
    assert d.apply(poly_mul(p, q)) == poly_add(poly_mul(d.apply(p), q),
                                               poly_mul(p, d.apply(q)))


@settings(max_examples=80, deadline=None)
@given(poly_strategy(dim=2, exp_range=2), poly_strategy(dim=2, exp_range=2))
def test_leibniz_variable_images(p, q):
    # d/dx + x d/dy
    d = A.VariableImagesDerivation(2, {
        0: A.Polynomial.monomial((0, 0)),
        1: A.Polynomial.monomial((1, 0)),
    })
    assert d.apply(poly_mul(p, q)) == poly_add(poly_mul(d.apply(p), q),
                                               poly_mul(p, d.apply(q)))
    # multi-term images: (y + x^2) d/dx + (-x + 1/2 x y) d/dy, whose Leibniz
    # terms collide and cancel, e.g. the 2xy terms of d(x^2 + y^2)
    e = A.VariableImagesDerivation(2, {
        0: A.Polynomial({(0, 1): 1, (2, 0): 1}),
        1: A.Polynomial({(1, 0): -1, (1, 1): Fraction(1, 2)}),
    })
    assert e.apply(poly_mul(p, q)) == poly_add(poly_mul(e.apply(p), q),
                                               poly_mul(p, e.apply(q)))
    assert e.apply(A.Polynomial({(2, 0): 1, (0, 2): 1})) == A.Polynomial(
        {(3, 0): 2, (1, 2): 1})


@settings(max_examples=50, deadline=None)
@given(poly_strategy(dim=2, exp_range=2), poly_strategy(dim=2, exp_range=2))
def test_commutator_is_derivation(p, q):
    a = A.VariableImagesDerivation(2, {0: A.Polynomial.monomial((0, 1))})
    b = A.VariableImagesDerivation(2, {1: A.Polynomial.monomial((1, 0))})

    def bracket(f):
        return poly_add(a.apply(b.apply(f)), b.apply(a.apply(f)), -1)

    assert bracket(poly_mul(p, q)) == poly_add(poly_mul(bracket(p), q),
                                               poly_mul(p, bracket(q)))


def test_commutator_vanishes_on():
    d1 = A.MonomialShiftDerivation(RAY, ROOT)
    gens = [A.Polynomial.monomial(m) for m in (WX, WY, WZ, WW)]
    assert A.commutator_vanishes_on(d1, d1, gens)


def test_commutator_with_one_inner_image_zero():
    # orthant roots: b(x) = 0 but a(x) = y and b(y) = x, so [a, b](x) = -x;
    # only a generator both derivations kill may be skipped
    a = A.MonomialShiftDerivation((1, 0), (-1, 1))
    b = A.MonomialShiftDerivation((0, 1), (1, -1))
    x = A.Polynomial.monomial((1, 0))
    assert b.apply(x).is_zero() and not a.apply(x).is_zero()
    assert not A.commutator_vanishes_on(a, b, [x])
    assert not A.commutator_vanishes_on(b, a, [x])
    assert A.commutator_vanishes_on(a, a, [x])


def commutes_by_composition(a, b, gens):
    """The definition: a(b(g)) == b(a(g)) for every generator."""
    return all(a.apply(b.apply(g)) == b.apply(a.apply(g)) for g in gens)


def test_monomial_shift_bracket_against_composition():
    rng = random.Random(10)
    coefficients = (
        lambda: rng.choice([-2, -1, 1, 2, 3]),
        lambda: Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([2, 3])),
        lambda: A.ParamPoly(("t",), {(1,): rng.choice([-1, 1, 2]),
                                     (0,): rng.randrange(-2, 3)}),
    )
    seen = {True: 0, False: 0}
    for trial in range(600):
        dim = rng.randint(1, 4)

        def vec():
            return tuple(rng.randint(-3, 3) for _ in range(dim))

        wa, sa, wb, sb = vec(), vec(), vec(), vec()
        if trial % 5 == 0:
            wb, sb = wa, sa
        elif trial % 5 == 1:
            wa = (0,) * dim
        elif trial % 5 == 2:
            sb = (0,) * dim
        a = A.MonomialShiftDerivation(wa, sa)
        b = A.MonomialShiftDerivation(wb, sb)
        # exponents on which the bracket vanishes by the definition, so that
        # a verdict of True also occurs for pairs that do not commute
        exps = {vec() for _ in range(10)}
        killed = [m for m in exps
                  if commutes_by_composition(a, b, [A.Polynomial.monomial(m)])]
        pool = killed + [vec()] if rng.random() < 0.5 or not killed else killed
        gens = [A.Polynomial({rng.choice(pool): rng.choice(coefficients)()
                              for _ in range(rng.randint(1, 3))})
                for _ in range(rng.randint(1, 3))]
        got = A.commutator_vanishes_on(a, b, gens)
        assert got == commutes_by_composition(a, b, gens)
        seen[got] += 1
    assert seen[True] > 100 and seen[False] > 100


def test_monomial_shift_bracket_shortcuts_against_composition():
    # pairs on either side of the w = 0 shortcuts on k_a = <s_b, w_a> and
    # k_b = <s_a, w_b>, each checked against the definition
    rng = random.Random(11)

    def vec(dim):
        return tuple(rng.randint(-3, 3) for _ in range(dim))

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def nonzero(dim):
        while True:
            v = vec(dim)
            if any(v):
                return v

    def equal_weights(dim):
        # w = (k_a - k_b) w_a, nonzero
        u = nonzero(dim)
        while True:
            sa, sb = vec(dim), vec(dim)
            if dot(sb, u) != dot(sa, u):
                return u, sa, u, sb

    def parallel_weights(dim):
        # w = (c k_a - k_b) w_a; a common shift makes it 0 with k_a, k_b != 0
        wa, c = nonzero(dim), rng.choice([-3, -2, -1, 2, 3])
        wb = tuple(c * x for x in wa)
        while True:
            sb = vec(dim)
            sa = sb if rng.random() < 0.5 else vec(dim)
            if dot(sb, wa) and dot(sa, wb):
                return wa, sa, wb, sb

    def first_kernel_zero(dim):
        # k_a = 0 with different weights, and in half the draws k_b = 0 too
        both = rng.random() < 0.5
        while True:
            wa, sa, wb, sb = nonzero(dim), vec(dim), nonzero(dim), vec(dim)
            if wa != wb and not dot(sb, wa) and both == (not dot(sa, wb)):
                return wa, sa, wb, sb

    groups = {"equal weights": equal_weights, "parallel weights": parallel_weights,
              "k_a = 0": first_kernel_zero}
    for name, draw in groups.items():
        seen = {True: 0, False: 0}
        w_zero = empty = 0
        for _ in range(300):
            wa, sa, wb, sb = draw(rng.randint(2, 4))
            ka, kb = dot(sb, wa), dot(sa, wb)
            w_zero += not any(ka * y - kb * x for x, y in zip(wa, wb))
            a = A.MonomialShiftDerivation(wa, sa)
            b = A.MonomialShiftDerivation(wb, sb)
            exps = {vec(len(wa)) for _ in range(10)}
            killed = [m for m in exps
                      if commutes_by_composition(a, b, [A.Polynomial.monomial(m)])]
            pool = killed + [vec(len(wa))] if rng.random() < 0.5 or not killed else killed
            gens = [A.Polynomial({rng.choice(pool): rng.choice([-2, -1, 1, 3])
                                  for _ in range(rng.randint(1, 3))})
                    for _ in range(rng.choice([0, 1, 1, 2, 3]))]
            empty += not gens
            want = commutes_by_composition(a, b, gens)
            assert A.commutator_vanishes_on(a, b, gens) is want, name
            assert A.commutator_vanishes_on(b, a, gens) is want, name
            seen[want] += 1
        assert seen[True] > 30 and seen[False] > 30, (name, seen)
        assert empty > 20, name
        if name == "equal weights":
            assert w_zero == 0
        else:
            assert w_zero > 50, (name, w_zero)


def test_monomial_shift_bracket_length_errors():
    x3 = A.Polynomial.monomial((1, 0, 0))
    two = A.MonomialShiftDerivation((1, 0), (0, 1))
    three = A.MonomialShiftDerivation((1, 0, 0), (0, 0, 1))
    for gens in ([], [x3]):
        with pytest.raises(ValueError, match="equal lengths"):
            A.commutator_vanishes_on(two, three, gens)
        with pytest.raises(ValueError, match="equal lengths"):
            A.commutator_vanishes_on(three, two, gens)
    # k_a = k_b = 1 and w = (-1, 1) != 0, so the rank-3 term is read
    a = A.MonomialShiftDerivation((1, 0), (-1, 1))
    b = A.MonomialShiftDerivation((0, 1), (1, -1))
    with pytest.raises(ValueError, match="equal lengths"):
        A.commutator_vanishes_on(a, b, [x3])
    with pytest.raises(ValueError, match="equal lengths"):
        A.commutator_vanishes_on(a, b, [A.Polynomial.monomial((1, 1)), x3])
    # parallel weights: k_a = 1, k_b = 2 and w = 0, but no shortcut shows it,
    # so the terms are read
    a = A.MonomialShiftDerivation((1, 0), (1, 1))
    b = A.MonomialShiftDerivation((2, 0), (1, 1))
    assert A.commutator_vanishes_on(a, b, [A.Polynomial.monomial((1, 1))])
    with pytest.raises(ValueError, match="equal lengths"):
        A.commutator_vanishes_on(a, b, [x3])


def test_mixed_pair_takes_the_composition_path():
    # d/dx as a monomial shift against x d/dy: [d/dx, x d/dy] = d/dy
    a = A.MonomialShiftDerivation((1, 0), (-1, 0))
    b = A.VariableImagesDerivation(2, {1: A.Polynomial.monomial((1, 0))})
    x, y = A.Polynomial.monomial((1, 0)), A.Polynomial.monomial((0, 1))
    half_y = A.Polynomial.monomial((0, 1), Fraction(1, 2))
    for gens, want in (([x], True), ([y], False), ([poly_add(x, half_y)], False)):
        assert commutes_by_composition(a, b, gens) is want
        assert A.commutator_vanishes_on(a, b, gens) is want
        assert A.commutator_vanishes_on(b, a, gens) is want


# ---------------------------------------------------------------------------
# nilpotency


def test_nilpotent_orders_ddx():
    d = A.VariableImagesDerivation(1, {0: A.Polynomial.monomial((0,))})
    gens = [A.Polynomial.monomial((n,)) for n in range(4)]
    verdict = is_locally_nilpotent(d, gens)
    assert verdict.status == "nilpotent"
    assert verdict.nilpotent is True
    assert verdict.orders == (1, 2, 3, 4)


def test_nilpotent_orders_match_levels():
    d = A.MonomialShiftDerivation(RAY, ROOT)
    gens = [A.Polynomial.monomial(m) for m in (WX, WY, WZ, WW)]
    verdict = is_locally_nilpotent(d, gens)
    assert verdict.status == "nilpotent"
    # order is the pairing level plus one
    assert verdict.orders == tuple(lattice.pairing(m, RAY) + 1
                                   for m in (WX, WY, WZ, WW))


def test_euler_detected_not_nilpotent():
    # x d/dx has every monomial as an eigenvector
    d = A.VariableImagesDerivation(1, {0: A.Polynomial.monomial((1,))})
    verdict = is_locally_nilpotent(d, [A.Polynomial.monomial((2,))])
    assert verdict.status == "not_nilpotent"
    assert verdict.nilpotent is False
    assert verdict.witness["eigenvalue"] == "2"


def test_growing_derivation_inconclusive():
    # delta(x) = x^2 grows forever without ever being an eigenvector
    d = A.VariableImagesDerivation(1, {0: A.Polynomial.monomial((2,))})
    verdict = is_locally_nilpotent(d, [A.Polynomial.monomial((1,))], cap=12)
    assert verdict.status == "inconclusive"
    assert verdict.nilpotent is None
    assert verdict.witness["cap"] == 12


# ---------------------------------------------------------------------------
# exponentials


def test_exponential_translation_oracle():
    # exp(t d/dx) x^n must be (x + t)^n, straight from the binomial theorem
    d = A.VariableImagesDerivation(1, {0: A.Polynomial.monomial((0,))})
    for n in range(6):
        got = A.exponential(d, A.Polynomial.monomial((n,)))
        expect = A.Polynomial({
            (k,): A.ParamPoly(("t",), {(n - k,): comb(n, k)}) for k in range(n + 1)})
        assert got == expect


def test_exponential_homomorphism_small():
    d = A.MonomialShiftDerivation(RAY, ROOT)
    p = poly_add(A.Polynomial.monomial(WY), A.Polynomial.monomial(WX, 2))
    q = A.Polynomial.monomial(WZ)
    assert homomorphism_holds(d, p, q)


def test_exponential_group_law_small():
    d = A.MonomialShiftDerivation(RAY, ROOT)
    assert group_law_holds(d, A.Polynomial.monomial(WZ))


def test_exponential_refuses_series_coefficients():
    # exp(s d) of exp(t d) p would need coefficients in Q[s, t]
    d = A.VariableImagesDerivation(1, {0: A.Polynomial.monomial((0,))})
    once = A.exponential(d, A.Polynomial.monomial((2,)))
    with pytest.raises(TypeError):
        A.exponential(d, once)
    kernel = A.Polynomial.monomial((0,), series(0, 1))
    with pytest.raises(TypeError):
        A.exponential(d, kernel)


def test_exponential_cap():
    d = A.VariableImagesDerivation(1, {0: A.Polynomial.monomial((2,))})
    with pytest.raises(SearchBoundExceeded):
        A.exponential(d, A.Polynomial.monomial((1,)), cap=10)


def _same_series(derivation, poly, cap=64):
    """exponential against the ParamPoly-per-term oracle: the same
    Polynomial and the same printed coefficients, or the same refusal."""
    try:
        want = exponential_by_parampoly(derivation, poly, cap=cap)
    except SearchBoundExceeded as err:
        with pytest.raises(SearchBoundExceeded) as got:
            A.exponential(derivation, poly, cap=cap)
        assert (got.value.cap, str(got.value)) == (err.cap, str(err))
        return None
    got = A.exponential(derivation, poly, cap=cap)
    assert got == want
    assert {e: str(c) for e, c in got.terms.items()} == \
        {e: str(c) for e, c in want.terms.items()}
    return got


def test_exponential_matches_parampoly_oracle_sweep():
    rng = random.Random(23)
    counts = {"toric": 0, "trinomial": 0, "replica": 0, "refused": 0}

    def check(derivation, poly, kind):
        cap = rng.choice((0, 1, 2, 3, 64, 64, 64))
        counts["refused" if _same_series(derivation, poly, cap=cap) is None else kind] += 1

    def coeff():
        return rng.choice((1, -2, 3, Fraction(1, 2), Fraction(-5, 3)))

    # toric root derivations on semigroup monomials and their sums
    cones = 0
    while cones < 12:
        rank = rng.choice((2, 3))
        rays = [tuple(rng.randint(-2, 2) for _ in range(rank))
                for _ in range(rng.randint(rank, rank + 1))]
        try:
            roots = enumerate_roots(make_cone(rank, [r for r in rays if any(r)]), 2)
        except (RefusalError, ValueError):
            continue
        if not roots:
            continue
        cones += 1
        box = [m for m in product(range(-3, 4), repeat=rank)
               if all(lattice.pairing(m, r) >= 0 for r in rays)]
        for root in rng.sample(roots, min(4, len(roots))):
            d = root.derivation()
            for _ in range(3):
                ms = rng.sample(box, min(len(box), rng.randint(1, 3)))
                check(d, A.Polynomial({m: coeff() for m in ms}), "toric")
    # trinomial elementary and replica derivations, reduced modulo the relation
    for l1, l2 in (((1, 2), (2, 3)), ((1, 1, 2), (2, 2)), ((1, 1), (2, 3)),
                   ((1, 1, 2, 2, 7), (3,)), ((1, 3), (2,))):
        ring = A.TrinomialRing((), l1, l2)
        shape = T.classify(ring)
        n = ring.nvars
        for deriv in T.elementary_derivations(shape):
            replica = tuple(0 if i in (deriv.x_index, deriv.z_index) else rng.randint(0, 1)
                            for i in range(n))
            replicated = T.derivation_for(shape, deriv.x_index, deriv.z_index, replica)
            for d, kind in ((deriv, "trinomial"), (replicated, "replica")):
                for _ in range(6):
                    weight = [0] * n
                    for _ in range(rng.randint(0, 8)):
                        weight[rng.randrange(n)] += 1
                    check(d.derivation, A.Polynomial.monomial(tuple(weight), coeff()), kind)
    assert counts["toric"] > 60 and counts["trinomial"] > 30 and counts["replica"] > 30
    assert counts["refused"] > 20
    # a derivation that is not locally nilpotent trips every cap
    d = A.VariableImagesDerivation(1, {0: A.Polynomial.monomial((2,))})
    for cap in (0, 1, 5):
        assert _same_series(d, A.Polynomial.monomial((1,), Fraction(1, 3)), cap=cap) is None


def test_exponential_inverse():
    d = A.MonomialShiftDerivation(RAY, ROOT)
    p = poly_add(A.Polynomial.monomial(WZ), A.Polynomial.monomial(WY))
    forward = A.exponential(d, p)
    # exp(-t d) exp(t d) p is the sum over j + k <= D of
    # (-t)^j t^k / (j! k!) d^(j+k) p, of t-degree at most D, so D + 1
    # values of t decide whether it is p
    for t in distinct_values(series_degree(forward) + 1):
        undone = A.exponential(d, evaluate_series(forward, t))
        assert evaluate_series(undone, -t) == p


# ---------------------------------------------------------------------------
# gradings


GRADING = ((1, 2, 0, 0), (0, 0, 2, 3))


def grading_label(exp):
    return quotient_label(4, GRADING, exp)


def test_homogeneous_components_split_and_sum():
    rng = random.Random(8)
    for _ in range(30):
        terms = {tuple(rng.randint(0, 3) for _ in range(4)):
                 Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, 5))}
        p = A.Polynomial(terms)
        comps = homogeneous_components(p, grading_label)
        total = A.Polynomial()
        for label, part in comps.items():
            assert not part.is_zero()
            for exp in part.terms:
                assert grading_label(exp) == label
            total = poly_add(total, part)
        assert total == p


def test_trinomial_relation_is_homogeneous():
    ring = A.TrinomialRing((), (1, 2), (2, 3))
    comps = homogeneous_components(ring.relation_polynomial(), grading_label)
    assert list(comps) == [grading_label((0, 0, 0, 0))]


# ---------------------------------------------------------------------------
# trinomial rings


def test_reduce_golden():
    # x y^2 = z1^2 z2^3 + 1
    ring = A.TrinomialRing((), (1, 2), (2, 3))
    lead = A.Polynomial.monomial((1, 2, 0, 0))
    got = ring.reduce(lead)
    assert got == A.Polynomial({(0, 0, 2, 3): 1, (0, 0, 0, 0): 1})
    sq = ring.reduce(poly_mul(lead, lead))
    expect = A.Polynomial({(0, 0, 4, 6): 1, (0, 0, 2, 3): 2, (0, 0, 0, 0): 1})
    assert sq == expect
    assert ring.reduce(ring.relation_polynomial()).is_zero()


def test_reduce_type_two():
    # with a free block: w1 x1 x2 relation, say w^2 + x1 x2 y... keep it
    # concrete: T0 = (2,), T1 = (1, 1), T2 = (3,)
    ring = A.TrinomialRing((2,), (1, 1), (3,))
    lead = A.Polynomial.monomial((0, 1, 1, 0))
    got = ring.reduce(lead)
    assert got == A.Polynomial({(0, 0, 0, 3): 1, (2, 0, 0, 0): 1})


def test_reduce_idempotent_and_multiplicative():
    ring = A.TrinomialRing((), (1, 2), (2, 3))
    rng = random.Random(12)
    for _ in range(40):
        terms = {tuple(rng.randint(0, 3) for _ in range(4)):
                 Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))}
        p = A.Polynomial(terms)
        terms2 = {tuple(rng.randint(0, 2) for _ in range(4)):
                  Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))}
        q2 = A.Polynomial(terms2)
        rp = ring.reduce(p)
        assert ring.reduce(rp) == rp
        # well defined on the quotient
        assert ring.reduce(poly_mul(p, q2)) == ring.reduce(
            poly_mul(ring.reduce(p), ring.reduce(q2)))
        # normal: no term is divisible by the T1 leading monomial x y^2
        for exp in rp.terms:
            assert not all(e >= b for e, b in zip(exp[ring.n0:ring.n0 + ring.n1], ring.l1))


def test_reduce_merges_with_existing_normal_terms():
    ring = A.TrinomialRing((), (1, 2), (2, 3))
    # the rewrite of x y^2 produces exactly the two terms being subtracted
    p = A.Polynomial({(1, 2, 0, 0): 1, (0, 0, 2, 3): -1, (0, 0, 0, 0): -1})
    assert ring.reduce(p).is_zero()


# (l0, l1, l2): rings with an empty, a one- and a two-variable T0 block
SWEEP_RINGS = (((), (1, 2), (2, 3)), ((), (1,), (2,)), ((2,), (1, 1), (3,)),
               ((2,), (2, 3), (1, 2)), ((2, 4), (1, 2, 1), (3,)),
               ((1, 3), (2,), (2, 1)))


def _sweep_coefficient(rng, kind):
    # zero with probability 1/5, in every kind
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    if kind == "int":
        return a
    if kind == "Fraction":
        return Fraction(a, rng.randint(1, 3))
    return A.ParamPoly(("t",), {(0,): Fraction(a, 2), (1,): b} if a else {})


def _is_zero(c):
    return c.is_zero() if isinstance(c, A.ParamPoly) else c == 0


def _sweep_exponent(rng, ring, q):
    """A random exponent with min_i e_{T1,i} // l1_i = q: the first T1
    quotient is q, the others q or q + 1."""
    exp = [rng.randint(0, 3) for _ in range(ring.nvars)]
    for i, b in enumerate(ring.l1):
        exp[ring.n0 + i] = (q + (i > 0 and rng.randint(0, 1))) * b + rng.randint(0, b - 1)
    return tuple(exp)


def test_reduce_matches_rewriting_oracle_sweep():
    rng = random.Random(22)
    qs, zero_inputs, cancelled = set(), 0, 0
    for l0, l1, l2 in SWEEP_RINGS:
        ring = A.TrinomialRing(l0, l1, l2)
        for trial in range(90):
            kind = ("int", "Fraction", "ParamPoly")[trial % 3]
            # zero coefficients stay in, as in a raw Leibniz sum
            terms = {}
            for _ in range(rng.randint(1, 5)):
                q = rng.randint(0, 5)
                qs.add(q)
                terms[_sweep_exponent(rng, ring, q)] = _sweep_coefficient(rng, kind)
            zero_inputs += any(map(_is_zero, terms.values()))
            if trial % 2:
                # a reducible term next to its normal form, negated: the
                # term's rewrite cancels them
                exp, c = _sweep_exponent(rng, ring, rng.randint(1, 4)), 1
                if kind == "ParamPoly":
                    c = A.ParamPoly(("t",), {(2,): Fraction(1, 3)})
                planted = {exp: c}
                for e, d in reduce_by_rewriting(ring, A.Polynomial(planted)).terms.items():
                    planted[e] = d * -1
                assert ring.reduce(A.Polynomial(planted)).is_zero()
                cancelled += 1
                terms.update(planted)
            p = A.Polynomial._of_clean(terms)
            got = ring.reduce(p)
            assert got == reduce_by_rewriting(ring, p), (l0, l1, l2, p)
            assert not any(map(_is_zero, got.terms.values()))
    assert qs == set(range(6)) and zero_inputs >= 100 and cancelled == 270


def test_ring_validation():
    with pytest.raises(ValueError):
        A.TrinomialRing((), (), (2,))
    with pytest.raises(ValueError):
        A.TrinomialRing((), (1,), (0,))
