"""Locally nilpotent derivations on trinomial hypersurfaces.

The hypersurfaces handled here have relation T1^l1 = T2^l2 + 1: a product
block with at least one plain (exponent one) variable on the left, a
power block on the right, and an empty constant block. Writing the plain
variables as x, the higher-power product variables as y, and the power
block as z, every irreducible homogeneous LND annihilates all variables
except one x and one z, and everything about commuting, maximality and
isotropy reduces to bookkeeping on the exponent data.

Rigidity of the general three-block hypersurface is decided separately
and needs no such normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .algebra import (
    Polynomial,
    TrinomialRing,
    VariableImagesDerivation,
    commutator_vanishes_on,
)
from .errors import RefusalError
from .lattice import (
    LatticeQuotient,
    QuasitorusPresentation,
    quasitorus_kernel,
    vec_add,
    vec_sub,
)


# ---------------------------------------------------------------------------
# rigidity


@dataclass(frozen=True)
class RigidityVerdict:
    rigid: bool
    reason: str | None
    witness: dict | None


def is_rigid(ring: TrinomialRing) -> RigidityVerdict:
    """Whether the hypersurface admits no nonzero LND at all.

    Exactly two escapes exist: a variable of exponent one somewhere, or a
    nonempty constant block together with two blocks that both contain an
    exponent two and consist of even exponents only.
    """
    blocks = (ring.l0, ring.l1, ring.l2)
    for b, exps in enumerate(blocks):
        for pos, l in enumerate(exps):
            if l == 1:
                return RigidityVerdict(rigid=False, reason="unit_exponent",
                                       witness={"block": b, "position": pos})
    if ring.n0 != 0:
        for i in range(3):
            for j in range(i + 1, 3):
                bi, bj = blocks[i], blocks[j]
                if not bi or not bj:
                    continue
                if 2 in bi and 2 in bj and all(l % 2 == 0 for l in bi + bj):
                    return RigidityVerdict(
                        rigid=False, reason="even_pair",
                        witness={"blocks": (i, j),
                                 "positions": (bi.index(2), bj.index(2))})
    return RigidityVerdict(rigid=True, reason=None, witness=None)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class TrinomialShape:
    """Index bookkeeping for a supported hypersurface.

    kind is "single_z" when the power block is one variable z^n, n > 1,
    and "multi_z" when it is a product of several variables, all with
    exponent above one.
    """

    ring: TrinomialRing
    kind: str
    x_indices: tuple
    y_indices: tuple
    z_indices: tuple
    y_exponents: tuple
    z_exponents: tuple


def classify(ring: TrinomialRing) -> TrinomialShape:
    if ring.n0 != 0:
        raise RefusalError(
            "nonempty constant block: the derivation analysis here covers "
            "hypersurfaces with relation T1^l1 = T2^l2 + 1 only",
            witness={"constant_block": list(ring.l0)})
    xs = tuple(i for i, l in enumerate(ring.l1) if l == 1)
    ys = tuple(i for i, l in enumerate(ring.l1) if l > 1)
    if not xs:
        raise RefusalError(
            "no exponent-one variable in the product block, so the "
            "hypersurface carries no derivation of the supported shape",
            witness={"product_block": list(ring.l1)})
    zs = tuple(range(ring.n1, ring.n1 + ring.n2))
    if ring.n2 == 1:
        if ring.l2[0] == 1:
            raise RefusalError(
                "power block is a single linear variable, the hypersurface "
                "is an affine space and every LND story is classical",
                witness={"power_block": list(ring.l2)})
        kind = "single_z"
    else:
        if any(l == 1 for l in ring.l2):
            raise RefusalError(
                "power block mixes exponent-one variables into a product, "
                "which is outside the supported normal form",
                witness={"power_block": list(ring.l2)})
        kind = "multi_z"
    return TrinomialShape(ring=ring, kind=kind,
                          x_indices=xs, y_indices=ys, z_indices=zs,
                          y_exponents=tuple(ring.l1[i] for i in ys),
                          z_exponents=tuple(ring.l2))


# ---------------------------------------------------------------------------
# the derivations


@dataclass(frozen=True)
class TrinomialDerivation:
    """One of the elementary derivations, or a monomial multiple of one.

    x_index and z_index are absolute variable indices; replica is the
    exponent vector of the kernel monomial multiplier, or None.
    """

    x_index: int
    z_index: int
    replica: tuple | None
    derivation: VariableImagesDerivation

    def label(self) -> str:
        core = "d[{},{}]".format(self.x_index, self.z_index)
        if self.replica is None:
            return core
        mono = "*".join("T{}^{}".format(i, e) if e > 1 else "T{}".format(i)
                        for i, e in enumerate(self.replica) if e)
        return "{}*{}".format(mono or "1", core)


def _stabilized_monomial(shape: TrinomialShape, x_index: int) -> tuple:
    """The product of the plain variables other than x_index and all
    higher-power product variables: the image of the power variable."""
    m = [0] * shape.ring.nvars
    for xi in shape.x_indices:
        if xi != x_index:
            m[xi] = 1
    for yi, a in zip(shape.y_indices, shape.y_exponents):
        m[yi] = a
    return tuple(m)


def derivation_for(shape: TrinomialShape, x_index: int,
                   z_index: int | None = None,
                   replica=None) -> TrinomialDerivation:
    """Build the elementary derivation for a plain variable and a power
    variable, optionally multiplied by a kernel monomial."""
    ring = shape.ring
    if x_index not in shape.x_indices:
        raise ValueError("x_index must be an exponent-one product variable")
    if shape.kind == "single_z":
        if z_index is not None and z_index != shape.z_indices[0]:
            raise ValueError("single power variable has a fixed index")
        z_index = shape.z_indices[0]
    else:
        if z_index is None:
            raise ValueError("a power-block variable index is required")
        if z_index not in shape.z_indices:
            raise ValueError("z_index must be a power-block variable")
    n = ring.nvars
    if replica is not None:
        replica = tuple(int(e) for e in replica)
        if len(replica) != n or any(e < 0 for e in replica):
            raise ValueError("replica exponent vector is malformed")
        if replica[x_index] or replica[z_index]:
            raise ValueError("replica multiplier must be a kernel monomial: "
                             "it cannot involve the two moved variables")

    # both images are monomials times the multiplier h, so their exponents
    # are sums: x -> l_z z^(l - e_z) h and z -> (stabilized monomial) h
    h = (0,) * n if replica is None else replica
    z_exp = list(h)
    for zi, l in zip(shape.z_indices, shape.z_exponents):
        z_exp[zi] += l
    z_exp[z_index] -= 1
    lead_coeff = dict(zip(shape.z_indices, shape.z_exponents))[z_index]
    x_image = Polynomial.monomial(z_exp, lead_coeff)
    z_image = Polynomial.monomial(vec_add(_stabilized_monomial(shape, x_index), h))
    derivation = VariableImagesDerivation(
        n, {x_index: x_image, z_index: z_image}, reducer=ring.reduce)
    return TrinomialDerivation(x_index=x_index, z_index=z_index,
                               replica=replica, derivation=derivation)


def elementary_derivations(shape: TrinomialShape) -> tuple:
    """All irreducible homogeneous LNDs, ordered by variable pair."""
    out = []
    for xi in shape.x_indices:
        if shape.kind == "single_z":
            out.append(derivation_for(shape, xi))
        else:
            for zi in shape.z_indices:
                out.append(derivation_for(shape, xi, zi))
    return tuple(out)


def kernel_variable_indices(shape: TrinomialShape,
                            deriv: TrinomialDerivation) -> tuple:
    """The kernel is the polynomial ring on every variable except the two
    the derivation moves."""
    return tuple(i for i in range(shape.ring.nvars)
                 if i not in (deriv.x_index, deriv.z_index))


def kernel_monomials(shape: TrinomialShape, deriv: TrinomialDerivation,
                     max_degree: int) -> tuple:
    """Exponent vectors of all kernel monomials up to total degree, in lex
    order; none below degree 0."""
    if max_degree < 0:
        return ()
    ker = kernel_variable_indices(shape, deriv)
    n = shape.ring.nvars
    out = []

    def walk(pos, left, acc):
        if pos == len(ker):
            out.append(tuple(acc))
            return
        for e in range(left + 1):
            acc[ker[pos]] = e
            walk(pos + 1, left - e, acc)
        acc[ker[pos]] = 0

    walk(0, max_degree, [0] * n)
    return tuple(sorted(out))


def maximal_replicas(shape: TrinomialShape, deriv: TrinomialDerivation,
                     max_degree: int) -> tuple:
    """Exponent vectors of the nonzero multipliers h of total degree at most
    max_degree for which h times the derivation is maximal, in lex order.

    h is maximal iff it contains every power variable other than the moved
    one (see ``maximality_verdict``). So the maximal multipliers are exactly
    s + g, where s has a 1 at each of those power variables and g runs over
    the kernel monomials of degree at most max_degree - |s|; a translation
    keeps lex order. With k kernel variables there are
    C(max_degree - |s| + k, k) of them, none when max_degree < |s|. A single
    power variable is the moved one, so s = 0 and only the zero multiplier,
    the first in lex order, is dropped.
    """
    s = tuple(int(i in shape.z_indices and i != deriv.z_index)
              for i in range(shape.ring.nvars))
    shifted = tuple(vec_add(s, g) for g in
                    kernel_monomials(shape, deriv, max_degree - sum(s)))
    return shifted if any(s) else shifted[1:]


def pair_commutes(ring: TrinomialRing, a: TrinomialDerivation,
                  b: TrinomialDerivation) -> bool:
    """Exact symbolic test: the commutator is a derivation, so vanishing
    on every generator decides it."""
    gens = [ring.variable(i) for i in range(ring.nvars)]
    return commutator_vanishes_on(a.derivation, b.derivation, gens)


# ---------------------------------------------------------------------------
# maximality


@dataclass(frozen=True)
class TrinomialMaximality:
    maximal: bool
    witness: TrinomialDerivation | None


def maximality_verdict(shape: TrinomialShape,
                       deriv: TrinomialDerivation) -> TrinomialMaximality:
    """The maximality criterion: a derivation is maximal iff its multiplier
    contains every power variable it does not move. Otherwise the
    elementary derivation moving the first missing one commutes with it and
    is inequivalent, and is the witness. A single power variable is the
    moved one, so there every homogeneous LND is maximal."""
    h = deriv.replica
    for zi in shape.z_indices:
        if zi != deriv.z_index and (h is None or not h[zi]):
            return TrinomialMaximality(
                maximal=False, witness=derivation_for(shape, deriv.x_index, zi))
    return TrinomialMaximality(maximal=True, witness=None)


# ---------------------------------------------------------------------------
# grading and isotropy


def grading_group(ring: TrinomialRing) -> LatticeQuotient:
    """Character lattice of the finest quasitorus action: variables modulo
    the two rows forcing all three blocks into the same degree."""
    row1 = [0] * ring.nvars
    row2 = [0] * ring.nvars
    for i, l in enumerate(ring.l0):
        row1[i] = -l
        row2[i] = -l
    for i, l in enumerate(ring.l1):
        row1[ring.n0 + i] = l
    for i, l in enumerate(ring.l2):
        row2[ring.n0 + ring.n1 + i] = l
    return LatticeQuotient(ring.nvars, (tuple(row1), tuple(row2)))


def derivation_degree(shape: TrinomialShape,
                      deriv: TrinomialDerivation):
    """Integer lifts of the derivation's degree, one per moved variable.

    The lifts agree in the grading group; the sorted tuple makes the
    choice of representative deterministic.
    """
    ring = shape.ring
    lifts = []
    for v in (deriv.x_index, deriv.z_index):
        # neither image involves x_index, so both are already normal forms
        (exp,) = deriv.derivation.images[v].terms
        (unit,) = ring.variable(v).terms
        lifts.append(vec_sub(exp, unit))
    return tuple(sorted(lifts))


@dataclass(frozen=True)
class SymmetryFactor:
    variables: tuple
    size: int


@dataclass(frozen=True)
class TrinomialSymmetries:
    order: int
    factors: tuple


def symmetry_factors(shape: TrinomialShape,
                     deriv: TrinomialDerivation) -> TrinomialSymmetries:
    """Finite permutation factor of the isotropy group.

    Variables other than the two moved ones may be permuted when they lie
    in the same block, carry the same relation exponent, and appear with
    the same exponent in the multiplier. Block and relation exponent fix
    the rest: a product variable is plain iff its exponent is one, the
    power variable's image (the product of the other plain and the
    higher-power variables) has exponent 1 on a plain variable and the
    relation exponent on a higher-power one, and the product of the
    untouched power variables has the relation exponent on each of them.
    The group is the direct product of symmetric groups on the resulting
    classes.
    """
    ring = shape.ring
    n = ring.nvars
    h = deriv.replica or (0,) * n
    others = [v for v in range(n) if v not in (deriv.x_index, deriv.z_index)]
    rel = ring.l1 + ring.l2
    classes = {}
    for v in others:
        classes.setdefault((v in shape.z_indices, rel[v], h[v]), []).append(v)
    factors = tuple(SymmetryFactor(variables=tuple(vs), size=len(vs))
                    for _, vs in sorted(classes.items(),
                                        key=lambda kv: kv[1][0]))
    order = 1
    for f in factors:
        order *= factorial(f.size)
    return TrinomialSymmetries(order=order, factors=factors)


# ---------------------------------------------------------------------------
# reports

# Externally tabulated values for specific rings, kept for comparison.
# Where a recomputation disagrees, the report carries both; the computed
# value is authoritative for downstream decisions.
EXTERNAL_REFERENCE_VALUES = {
    ((), (1, 1, 2, 2, 7), (3,), 0): {
        "power_image_exponents": (0, 1, 2, 7, 2, 0),
        "stabilized_monomial_exponents": (1, 1, 2, 7, 2, 0),
        "symmetry_order": 4,
        "symmetry_description": "two independent transpositions",
    },
}


@dataclass(frozen=True)
class TrinomialIsotropyReport:
    derivation: TrinomialDerivation
    maximality: TrinomialMaximality
    symmetries: TrinomialSymmetries
    quasitorus: QuasitorusPresentation
    grading: LatticeQuotient
    degree_lifts: tuple
    discrepancies: tuple


def trinomial_isotropy_report(ring: TrinomialRing, x_index: int | None = None,
                              z_index: int | None = None,
                              replica=None) -> TrinomialIsotropyReport:
    """Full isotropy decomposition data for one homogeneous LND.

    Refuses hypersurfaces with a single plain variable (a Danielewski
    surface, whose isotropy groups behave differently) and derivations
    that are not maximal, since the semidirect decomposition is stated for
    maximal ones.
    """
    shape = classify(ring)
    if len(shape.x_indices) == 1:
        raise RefusalError(
            "exactly one exponent-one product variable gives a Danielewski "
            "surface; its isotropy groups are out of scope here",
            witness={"product_block": list(ring.l1)})
    if x_index is None:
        x_index = shape.x_indices[0]
    deriv = derivation_for(shape, x_index, z_index, replica)
    if shape.kind == "single_z" and replica is not None:
        raise RefusalError(
            "the decomposition is stated for irreducible derivations on "
            "single-power-variable hypersurfaces",
            witness={"replica": list(replica)})
    verdict = maximality_verdict(shape, deriv)
    if not verdict.maximal:
        raise RefusalError(
            "derivation is not maximal; an inequivalent commuting one "
            "exists, so the isotropy decomposition does not apply",
            witness={"commuting_partner": verdict.witness.label()})

    symmetries = symmetry_factors(shape, deriv)
    grading = grading_group(ring)
    lifts = derivation_degree(shape, deriv)
    # the x-lift, at -1 on x_index, sorts first; the lifts agree in the
    # grading group, since the z-lift minus the x-lift is the l1 row minus
    # the l2 row
    assert vec_sub(lifts[1], lifts[0]) == vec_sub(*grading.relations)
    quasitorus = quasitorus_kernel(grading, lifts[0])

    discrepancies = []
    ref = EXTERNAL_REFERENCE_VALUES.get(
        (ring.l0, ring.l1, ring.l2, x_index) if replica is None and
        shape.kind == "single_z" else None)
    if ref is not None:
        (power_image,) = deriv.derivation.images[deriv.z_index].terms
        computed = {
            "power_image_exponents": power_image,
            "stabilized_monomial_exponents":
                _stabilized_monomial(shape, deriv.x_index),
            "symmetry_order": symmetries.order,
        }
        for field, got in sorted(computed.items()):
            if field in ref and ref[field] != got:
                discrepancies.append({"field": field, "computed": got,
                                      "reference": ref[field]})

    return TrinomialIsotropyReport(
        derivation=deriv, maximality=verdict,
        symmetries=symmetries, quasitorus=quasitorus,
        grading=grading, degree_lifts=lifts,
        discrepancies=tuple(discrepancies))
