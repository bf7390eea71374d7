"""Sparse exact polynomial algebra and symbolic derivations.

Monomials are exponent tuples (negative entries allowed, so localized
monomials work too) and coefficients are ints until a division happens,
then Fractions. The exponential's coefficients are ParamPoly values in
Q[t], one formal parameter, so the one-parameter subgroup exp(t delta) is
manipulated exactly instead of being sampled at numeric times.

A derivation is given by what it does to monomials: a monomial shift, or
the images of the variables. Commutators are never built as objects; a
cross-check asks whether [a, b] kills every element of whatever generating
set the caller trusts. For monomial shifts a(chi^m) = <m, w_a> chi^(m + s_a)
and b(chi^m) = <m, w_b> chi^(m + s_b) the bracket is
[a, b](chi^m) = <m, w> chi^(m + s_a + s_b) with
w = <s_b, w_a> w_b - <s_a, w_b> w_a; since m -> m + s_a + s_b is injective,
no two terms cancel, so [a, b] kills g iff <m, w> = 0 for every exponent m
of g. Any other pair compares a(b(g)) with b(a(g)).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import add, floordiv, ge, mul

from .errors import SearchBoundExceeded
from .lattice import pairing, vec_add


# ---------------------------------------------------------------------------
# coefficients carrying formal parameters


class ParamPoly:
    """Polynomial in one formal parameter with Fraction coefficients: an
    element of Q[t], the coefficient ring of exp(t * derivation).

    ``vars`` is the 1-tuple naming the parameter, ``terms`` maps (k,) to the
    nonzero coefficient of param^k: ParamPoly(("t",), {(2,): Fraction(1, 2)})
    prints as "1/2*t^2". Sums need the same parameter and products an int
    or a Fraction: other operands raise rather than merge or nest series.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        self.vars = tuple(vars)
        if len(self.vars) != 1:
            raise ValueError(f"a ParamPoly has one parameter, got {len(self.vars)}")
        clean = {}
        for pw, c in terms.items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c != 0:
                clean[tuple(pw)] = c
        self.terms = clean

    @classmethod
    def _of_clean(cls, vars: tuple, terms: dict) -> "ParamPoly":
        # terms already keyed by tuples with nonzero Fraction coefficients
        poly = cls.__new__(cls)
        poly.vars, poly.terms = vars, terms
        return poly

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, ParamPoly) or other.vars != self.vars:
            raise TypeError(f"a series in {self.vars[0]} adds only to a series "
                            f"in {self.vars[0]}, not to {other!r}")
        out = dict(self.terms)
        for pw, c in other.terms.items():
            out[pw] = out.get(pw, 0) + c
        return ParamPoly(self.vars, out)

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction)):
            raise TypeError("a ParamPoly is scaled by an int or a Fraction, "
                            f"not {type(other).__name__}")
        return ParamPoly(self.vars, {pw: c * other for pw, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __str__(self):
        (var,) = self.vars
        out = ""
        for (k,), c in sorted(self.terms.items()):
            if out:
                out += " - " if c < 0 else " + "
            elif c < 0:
                out = "-"
            a, power = abs(c), (var if k == 1 else f"{var}^{k}")
            out += str(a) if k == 0 else power if a == 1 else f"{a}*{power}"
        return out or "0"

    def __repr__(self):
        return f"ParamPoly({self})"


def _coeff_zero(c) -> bool:
    if isinstance(c, ParamPoly):
        return c.is_zero()
    return c == 0


def coeff_to_string(c) -> str:
    """Render a coefficient the way reports expect: "p/q" or a Q[t] string."""
    if isinstance(c, ParamPoly):
        return str(c)
    return str(Fraction(c))


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Sparse polynomial keyed by exponent tuple.

    The exponent lattice is whatever the caller says it is; nothing here
    assumes nonnegativity, so localized monomials pass through unharmed.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exp, c in terms.items():
                if not _coeff_zero(c):
                    clean[tuple(exp)] = c
        self.terms = clean

    @classmethod
    def _of_clean(cls, terms: dict) -> "Polynomial":
        # terms already keyed by tuples with nonzero coefficients
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def monomial(cls, exp, coeff=1) -> "Polynomial":
        return cls({tuple(exp): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({coeff_to_string(c)})*X^{list(exp)}"
            for exp, c in sorted(self.terms.items()))

    def __repr__(self):
        return f"Polynomial({self})"


# ---------------------------------------------------------------------------
# derivations


class MonomialShiftDerivation:
    """chi^m maps to <m, weight> chi^(m + shift), extended linearly.

    This is the shape every homogeneous derivation of a semigroup algebra
    attached to a ray and its root takes.
    """

    def __init__(self, weight, shift):
        self.weight = tuple(weight)
        self.shift = tuple(shift)
        if len(self.weight) != len(self.shift):
            raise ValueError("a monomial shift needs a weight and a shift of equal "
                             f"length, got {len(self.weight)} and {len(self.shift)}")

    def apply(self, poly: Polynomial) -> Polynomial:
        out = {}
        for exp, c in poly.terms.items():
            k = pairing(exp, self.weight)
            if k:
                # m -> m + shift is injective, so no two terms collide, and
                # c * k is nonzero
                out[vec_add(exp, self.shift)] = c * k
        return Polynomial._of_clean(out)


class VariableImagesDerivation:
    """Derivation of a polynomial ring given by its values on variables.

    ``images`` maps variable index to a Polynomial. An optional reducer is
    applied after every Leibniz expansion, which is how quotient rings stay
    in normal form. It receives the raw sum, whose terms may have zero
    coefficients, and returns a clean Polynomial, as TrinomialRing.reduce
    does. Construction checks that every index lies in range(nvars) and
    every image term has length nvars; apply checks each input term's
    length once, so a term of another length raises instead of being
    truncated by the vector sum.
    """

    def __init__(self, nvars: int, images: dict, reducer=None):
        # each image term c2 X^e2 becomes its shift e2 - e_i, so apply sends
        # X^exp to a_i c c2 X^(exp + e2 - e_i) with one vector sum
        self.nvars = nvars
        self.images, self._shifts = {}, []
        for i, image in images.items():
            if i not in range(nvars):
                raise ValueError(f"variable index {i} lies outside range({nvars})")
            shifts = []
            for exp, c in image.terms.items():
                if len(exp) != nvars:
                    raise ValueError(f"the image of variable {i} has a term of length "
                                     f"{len(exp)} in a ring of {nvars} variables")
                d = list(exp)
                d[i] -= 1
                shifts.append((tuple(d), c))
            if shifts:
                self.images[i] = image
                self._shifts.append((i, shifts))
        self.reducer = reducer

    def apply(self, poly: Polynomial) -> Polynomial:
        out = {}
        for exp, c in poly.terms.items():
            if len(exp) != self.nvars:
                raise ValueError(f"a term of length {len(exp)} in a ring of "
                                 f"{self.nvars} variables")
            for i, shifts in self._shifts:
                a = exp[i]
                if a == 0:
                    continue
                ca = c * a
                for d, c2 in shifts:
                    key = tuple(map(add, exp, d))
                    cur = out.get(key)
                    out[key] = ca * c2 if cur is None else cur + ca * c2
        if self.reducer is not None:
            # the reducer cleans the raw Leibniz sum once: a zero entry only
            # ever adds 0 to the terms it rewrites into
            return self.reducer(Polynomial._of_clean(out))
        return Polynomial(out)


def commutator_vanishes_on(a, b, generators) -> bool:
    """Whether [a, b] kills every given generator, for two derivations of
    this module.

    A derivation vanishing on algebra generators vanishes everywhere, so
    this is an exact zero test as long as the generators generate.

    Two monomial shifts are bracketed in closed form: expanding both
    compositions gives [a, b](chi^m) = <m, w> chi^(m + s_a + s_b) with
    w = k_a w_b - k_b w_a, k_a = <s_b, w_a>, k_b = <s_a, w_b>. As
    m -> m + s_a + s_b is injective, the terms of [a, b](g) cannot cancel,
    so [a, b] kills g iff <m, w> = 0 for every exponent m of g: one weight
    per pair, one integer dot product per term, no polynomial built. Two
    cases show w = 0 from k_a and k_b alone, so the pair commutes and no
    term is read: k_a = k_b = 0, and equal weights with k_a = k_b, where
    w = (k_a - k_b) w_a (every pair of roots on one ray). A shift has its
    weight's length, so one check that the two weights have equal length
    covers k_a and k_b; a term of another length than w raises when it is
    read. Any other pair compares a(b(g)) with b(a(g)), skipping a
    generator that both inner images kill, since both sides then vanish.
    """
    if isinstance(a, MonomialShiftDerivation) and isinstance(b, MonomialShiftDerivation):
        wa, wb = a.weight, b.weight
        n = len(wa)
        if len(wb) != n:
            raise ValueError(f"pairing needs equal lengths, got {len(wb)} and {n}")
        ka = sum(map(mul, b.shift, wa))
        kb = sum(map(mul, a.shift, wb))
        if ka == kb and (not ka or wa == wb):
            return True
        w = [ka * y - kb * x for x, y in zip(wa, wb)]
        for g in generators:
            for m in g.terms:
                if len(m) != n:
                    raise ValueError(f"pairing needs equal lengths, got {len(m)} and {n}")
                if sum(map(mul, m, w)):
                    return False
        return True
    for g in generators:
        ag, bg = a.apply(g), b.apply(g)
        if (ag.terms or bg.terms) and a.apply(bg) != b.apply(ag):
            return False
    return True


def exponential(derivation, poly: Polynomial, cap: int = 64) -> Polynomial:
    """exp(t * derivation) applied to poly, exactly: the finite sum
    sum_k t^k/k! delta^k(poly), with ParamPoly coefficients in Q[t].

    The coefficients of poly must be ints or Fractions; a ParamPoly
    coefficient (a series fed back in) raises TypeError. ``cap`` bounds the
    derivation applications: delta^(cap+1)(poly) must vanish, else
    SearchBoundExceeded is raised after cap + 1 of them, so cap 0 accepts
    only kernel elements. The coefficient of each exponent in each
    delta^k(poly) is recorded as it comes, ints staying ints, and each
    exponent's ParamPoly is built once at the end, from the terms c/k! of
    t^k.
    """
    series = {}  # exponent -> {k: its coefficient in delta^k(poly)}, then its ParamPoly
    current, k = poly, 0
    while current.terms:
        if k > cap:
            raise SearchBoundExceeded(
                f"exponential did not terminate within {cap} steps", cap=cap)
        for exp, c in current.terms.items():
            series.setdefault(exp, {})[k] = c
        current, k = derivation.apply(current), k + 1
    for exp, cs in series.items():
        series[exp] = ParamPoly._of_clean(("t",), {(j,): Fraction(c, factorial(j))
                                                   for j, c in cs.items()})
    # every exponent recorded a nonzero coefficient, so its series is nonzero
    return Polynomial._of_clean(series)


# ---------------------------------------------------------------------------
# trinomial quotient rings


class TrinomialRing:
    """K[T0, T1, T2] / (T1^l1 - T2^l2 - T0^l0).

    Variables are indexed T0-block first, then T1, then T2. The rewrite
    sends the T1 leading monomial to T2^l2 + T0^l0; substitutes contain no
    T1 variables, so reduction terminates and normal forms are unique.
    An empty T0 block contributes the constant 1.
    """

    def __init__(self, l0, l1, l2):
        self.l0 = tuple(int(x) for x in l0)
        self.l1 = tuple(int(x) for x in l1)
        self.l2 = tuple(int(x) for x in l2)
        if not self.l1 or not self.l2:
            raise ValueError("both the product block and the power block must be nonempty")
        if any(x <= 0 for x in self.l0 + self.l1 + self.l2):
            raise ValueError("exponents must be positive")
        self.n0 = len(self.l0)
        self.n1 = len(self.l1)
        self.n2 = len(self.l2)
        self.nvars = self.n0 + self.n1 + self.n2

    def relation_polynomial(self) -> Polynomial:
        """T1^l1 - T2^l2 - T0^l0, its three exponents written block by block."""
        z0, z1, z2 = (0,) * self.n0, (0,) * self.n1, (0,) * self.n2
        return Polynomial({z0 + self.l1 + z2: 1, z0 + z1 + self.l2: -1,
                           self.l0 + z1 + z2: -1})

    def reduce(self, poly: Polynomial) -> Polynomial:
        """Normal form: no term divisible by the T1 leading monomial T1^l1.

        Closed form. A term c X^e with q = min_i e_{T1,i} // l1_i >= 1 is
        c X^(e - q l1) (T1^l1)^q, so modulo the relation it equals
        c X^(e - q l1) (T2^l2 + T0^l0)^q, the sum over j = 0..q of
        C(q, j) c X^(e - q l1 + j l2 + (q - j) l0). Each of those terms is
        irreducible: its T1 part e - q l1 falls below l1 where the minimum
        is taken, and the substitutes hold no T1 variable. So the result is
        congruent to poly and has no reducible term, which is what a normal
        form of the rewrite system X^(e + l1) -> X^e (T2^l2 + T0^l0) is. That
        system lowers the T1 degree at each step, so it terminates. Under a
        T1-first lex order T1^l1 leads the relation, and one polynomial is
        a Groebner basis of the ideal it generates, so the normal form is
        unique and the closed form is it.

        The raw Leibniz sum of VariableImagesDerivation.apply may carry zero
        coefficients, so poly comes back as it is only when no term is
        reducible and none is zero; otherwise every term is written once and
        the sum cleaned once.
        """
        lo, hi, l1 = self.n0, self.n0 + self.n1, self.l1
        first, terms = l1[0], poly.terms
        for exp, c in terms.items():
            # the first T1 entry alone rules out most terms
            if (exp[lo] >= first and all(map(ge, exp[lo:hi], l1))) or _coeff_zero(c):
                break
        else:
            return poly
        # the j = 0 term of a term with q = 1 lies `down` from it: T1^l1
        # becomes T0^l0; each further j takes a `step` from T0^l0 to T2^l2
        down = self.l0 + tuple(-b for b in l1) + (0,) * self.n2
        step = tuple(-b for b in self.l0) + (0,) * self.n1 + self.l2
        out = {}
        for exp, c in terms.items():
            q = min(map(floordiv, exp[lo:hi], l1))
            if q <= 0:
                cur = out.get(exp)
                out[exp] = c if cur is None else cur + c
                continue
            key = tuple(map(add, exp, down if q == 1 else [q * x for x in down]))
            for j in range(q + 1):
                cj = c * comb(q, j) if 0 < j < q else c
                cur = out.get(key)
                out[key] = cj if cur is None else cur + cj
                key = tuple(map(add, key, step))
        return Polynomial(out)

    def variable(self, index: int) -> Polynomial:
        exp = [0] * self.nvars
        exp[index] = 1
        return Polynomial.monomial(tuple(exp))
