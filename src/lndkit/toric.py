"""Homogeneous locally nilpotent derivations on affine toric varieties.

Everything is decided combinatorially from the ray data of a pointed cone
and cross-checkable symbolically: a root character e with pairing -1
against one ray and nonnegative pairings against the rest gives the
derivation chi^m -> <m, ray> chi^(m + e), and questions about commuting,
equivalence and maximality reduce to exact pairing conditions between
roots and neighbour rays, which span a two-face with the root's ray and
extend it to a lattice basis.

Refusals are always explicit: a non-pointed cone, a character that is not
a root, or a search that would need to run past its cap raise typed
errors carrying a witness instead of returning a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import factorial, prod

from .algebra import (
    MonomialShiftDerivation,
    Polynomial,
    commutator_vanishes_on,
)
from .cone import (
    Cone,
    dual_as_cone,
    hilbert_basis,
    is_pointed,
    lattice_points,
    lineality_witness,
    two_face_functional,
)
from .errors import RefusalError, SearchBoundExceeded
from .lattice import (
    LatticeVector,
    QuasitorusPresentation,
    mat_mul,
    mat_vec,
    pairing,
    row_reduce,
    solve_dual_pair,
    transpose,
    vec_add,
    vec_scale,
)


# The pairing that root recognition and the commuting criterion read.
# `lndkit selftest --fault pairing-sign` swaps it to check that the checks
# catch a wrong pairing; nothing else may rebind it.
_pairing = pairing


def _require_pointed(cone: Cone) -> None:
    if not is_pointed(cone):
        raise RefusalError(
            "cone is not pointed, so the toric theory here does not apply",
            witness={"lineality": list(lineality_witness(cone))})


@dataclass(frozen=True)
class DemazureRoot:
    """A root character together with its distinguished ray."""

    vector: LatticeVector
    ray: LatticeVector
    ray_index: int

    def derivation(self) -> MonomialShiftDerivation:
        return MonomialShiftDerivation(self.ray, self.vector)


def is_demazure_root(cone: Cone, e) -> DemazureRoot | None:
    """The root structure of e, or None when e is not a root.

    A root pairs to -1 with exactly one ray and nonnegatively with all
    others; the -1 ray is the one whose one-parameter subgroup the
    derivation destroys.
    """
    _require_pointed(cone)
    e = tuple(e)
    if len(e) != cone.rank:
        raise ValueError("character length does not match the cone rank")
    distinguished = None
    for i, v in enumerate(cone.rays):
        p = _pairing(e, v)
        if p == -1:
            if distinguished is not None:
                return None
            distinguished = i
        elif p < 0:
            return None
    if distinguished is None:
        return None
    return DemazureRoot(vector=e, ray=cone.rays[distinguished],
                        ray_index=distinguished)


def require_root(cone: Cone, e) -> DemazureRoot:
    root = is_demazure_root(cone, e)
    if root is None:
        raise RefusalError(
            "character is not a root of the cone",
            witness={"character": list(e),
                     "pairings": [pairing(tuple(e), v) for v in cone.rays]})
    return root


def enumerate_roots(cone: Cone, bound: int = 10):
    """All roots with coordinates in [-bound, bound], sorted by ray then
    lexicographically. The set of roots need not be finite, hence the box.

    The roots on a ray are the box points pairing to -1 with it and
    nonnegatively with every other ray, so each ray is one pruned
    ``lattice_points`` scan.
    """
    _require_pointed(cone)
    found = []
    for i, v in enumerate(cone.rays):
        rows = [(v, -1), (tuple(-x for x in v), 1)]
        rows += [(r, 0) for r in cone.rays if r != v]
        found.extend(DemazureRoot(vector=e, ray=v, ray_index=i)
                     for e in lattice_points(rows, bound))
    return tuple(found)


def lnds_commute(a: DemazureRoot, b: DemazureRoot) -> bool:
    """Exact commuting criterion for two root derivations.

    Same ray always commutes (the commutator coefficient collapses), and
    across rays the bracket vanishes iff each root annihilates the other's
    ray.
    """
    if a.ray == b.ray:
        return True
    return _pairing(a.vector, b.ray) == 0 and _pairing(b.vector, a.ray) == 0


def roots_equivalent(a: DemazureRoot, b: DemazureRoot) -> bool:
    """Equivalence means equal kernels, and the kernel only sees the ray."""
    return a.ray == b.ray


def _neighbour(cone: Cone, vp: LatticeVector, v: LatticeVector):
    """(base, omega) when the rays vp and v are neighbours, else None.

    Neighbours span a two-face, so the two-face functional omega exists,
    and extend to a basis, so the dual pair gives base, pairing -1 with vp
    and 0 with v. The functional is read off the cached double description,
    so it is asked first and the Smith elimination only for adjacent rays.
    """
    omega = two_face_functional(cone, vp, v)
    if omega is None:
        return None
    base = solve_dual_pair(vp, v)
    return None if base is None else (base, omega)


def _partner_root(cone: Cone, vp: LatticeVector, v: LatticeVector,
                  base: LatticeVector, omega: LatticeVector) -> DemazureRoot:
    """A root on the ray vp that annihilates v, for a neighbour pair.

    base pairs -1 with vp and 0 with v; omega pairs 0 with both and at
    least 1 with every other ray r. So base + k omega is a root exactly
    when k >= -(<base, r> // <omega, r>) for every such r, and the least
    such k >= 0 gives the minimal shift along the two-face.
    """
    k = max([0, *(-(pairing(base, r) // pairing(omega, r))
                  for r in cone.rays if r != vp and r != v)])
    root = is_demazure_root(cone, vec_add(base, vec_scale(k, omega)))
    assert root is not None and root.ray == vp and pairing(root.vector, v) == 0
    return root


def construct_commuting_pair(cone: Cone):
    """A commuting inequivalent pair of root derivations, or a refusal.

    The first ray pair (in canonical order) that is two-face adjacent and
    extends to a basis carries the construction. The pair shares its
    two-face functional, but each root needs its own dual character.
    """
    _require_pointed(cone)
    failures = []
    for i, v in enumerate(cone.rays):
        for vp in cone.rays[i + 1:]:
            omega = two_face_functional(cone, v, vp)
            base = solve_dual_pair(v, vp)
            if omega is not None and base is not None:
                first = _partner_root(cone, v, vp, base, omega)
                second = _partner_root(cone, vp, v, solve_dual_pair(vp, v), omega)
                assert lnds_commute(first, second)
                assert not roots_equivalent(first, second)
                return first, second
            failures.append({"rays": [list(v), list(vp)],
                             "two_face_adjacent": omega is not None,
                             "extends_to_basis": base is not None})
    raise RefusalError(
        "no ray pair is both two-face adjacent and basis extending, "
        "so commuting inequivalent derivations do not exist",
        witness={"pairs": failures})


@dataclass(frozen=True)
class MaximalityVerdict:
    maximal: bool
    witness: DemazureRoot | None
    neighbours: tuple  # the rays the verdict quantified over


def is_maximal(cone: Cone, root: DemazureRoot) -> MaximalityVerdict:
    """Whether every LND commuting with the given one is equivalent to it.

    The only candidate partners live on neighbour rays (two-face adjacent,
    basis extending); the root is maximal iff it pairs nonzero with every
    one of them.
    """
    _require_pointed(cone)
    v = root.ray
    pairs = {vp: pair for vp in cone.rays
             if vp != v and (pair := _neighbour(cone, vp, v)) is not None}
    neighbours = tuple(pairs)
    for vp, (base, omega) in pairs.items():
        if pairing(root.vector, vp) == 0:
            partner = _partner_root(cone, vp, v, base, omega)
            assert lnds_commute(root, partner)
            return MaximalityVerdict(maximal=False, witness=partner,
                                     neighbours=neighbours)
    return MaximalityVerdict(maximal=True, witness=None, neighbours=neighbours)


# ---------------------------------------------------------------------------
# kernels and slices


@dataclass(frozen=True)
class KernelDescription:
    generators: tuple
    complete: bool


def kernel_of_root(cone: Cone, root: DemazureRoot,
                   bound: int | None = None) -> KernelDescription:
    """Monomial generators of the kernel subalgebra.

    The kernel is spanned by the characters at level zero against the
    distinguished ray, so its generators are the Hilbert basis of the dual
    cone's facet orthogonal to that ray. A cone that is not
    full-dimensional is refused as ``dual_as_cone`` refuses it: the line of
    its dual lies in that face too, so the kernel has no Hilbert basis.
    """
    _require_pointed(cone)
    # the facet of the pointed dual orthogonal to the ray: its rays are the
    # dual's rays on that hyperplane
    face = Cone(cone.rank, tuple(d for d in dual_as_cone(cone).rays
                                 if pairing(d, root.ray) == 0))
    hb = hilbert_basis(face, bound)
    assert all(pairing(m, root.ray) == 0 for m in hb.elements)
    return KernelDescription(generators=hb.elements, complete=hb.complete)


def find_local_slice(cone: Cone, root: DemazureRoot, cap: int = 64) -> LatticeVector:
    """The minimal semigroup character at level one against the root's ray.

    Minimal means smallest coordinate absolute sum, ties broken
    lexicographically; the growing box stops once the best candidate is
    provably global.
    """
    _require_pointed(cone)
    v = root.ray
    rows = [(v, 1), (tuple(-x for x in v), -1)]
    rows += [(r, 0) for r in cone.rays if r != v]
    b = 1
    while b <= cap:
        points = lattice_points(rows, b)
        # min keeps the first of equal norms, and points are in lex order
        best = min(points, key=lambda s: sum(abs(x) for x in s), default=None)
        if best is not None and sum(abs(x) for x in best) <= b:
            assert all(pairing(vec_add(best, root.vector), r) >= 0 for r in cone.rays)
            return best
        b *= 2
    raise SearchBoundExceeded("no level-one slice found inside the search box",
                              cap=cap)


# ---------------------------------------------------------------------------
# isotropy pieces


def isotropy_torus(cone: Cone, root: DemazureRoot) -> QuasitorusPresentation:
    """The subtorus acting trivially on the derivation: the kernel of the
    root character inside the big torus. A root pairs to -1 with its ray,
    so it is primitive, and the kernel of a primitive character is a
    connected torus of corank one."""
    return QuasitorusPresentation(cone.rank - 1, ())


@dataclass(frozen=True)
class SemigroupSymmetries:
    """Lattice automorphisms preserving the semigroup, the root, and the
    level function. ``matrices`` act on row vectors: m -> m G. ``basis``
    is the dual Hilbert basis, which every symmetry permutes; it is
    reported, not searched."""

    order: int
    matrices: tuple
    basis: tuple


def s_delta(cone: Cone, root: DemazureRoot, perm_cap: int = 40320) -> SemigroupSymmetries:
    """Finite symmetry factor of the isotropy group.

    A lattice automorphism m -> m G preserves the semigroup of the dual
    cone iff v -> G v preserves the cone, and then it permutes the
    primitive rays; automorphisms act through the fan this way (Cox, *The
    homogeneous coordinate ring of a toric variety*, 1995). Fixing the
    root e gives <e, G v> = <e G, v> = <e, v>, so a ray moves only within
    its class of equal pairing with e, and the root's ray, alone at -1,
    stays fixed. Those permutations are the candidates, prod (class size)!
    of them, refused over ``perm_cap``.

    Each candidate is solved over the integers on a spanning set S of
    rays: with R_S the rays of S as rows and d R_S^-1 the integer adjugate
    block of one elimination, d G^T = (d R_S^-1)(images of S) must be
    divisible by d. A solution is kept when it maps every ray to its
    image. Nothing more needs checking:

    - it fixes the root: <e G, v_i> = <e, v_pi(i)> = <e, v_i> for every
      ray, since pi keeps the level classes, and the rays span N over Q;
    - it is unimodular: G permutes a finite spanning set, so G^k = I for
      some k, and det G = +-1;
    - it permutes the dual Hilbert basis: G maps the cone onto itself, so
      m -> m G is a unimodular automorphism of the dual semigroup, and it
      permutes that semigroup's unique Hilbert basis.
    """
    _require_pointed(cone)
    # refuses a lower-dimensional cone before the cap is checked
    dual = dual_as_cone(cone)
    rays = cone.rays
    n = cone.rank
    levels = {}
    for idx, v in enumerate(rays):
        levels.setdefault(pairing(root.vector, v), []).append(idx)
    classes = [tuple(ix) for _, ix in sorted(levels.items())]
    if prod(factorial(len(c)) for c in classes) > perm_cap:
        raise SearchBoundExceeded(
            "too many level-preserving ray permutations", cap=perm_cap)
    # the basis is only reported, so a refusal above never pays for it
    hb = hilbert_basis(dual)
    assert hb.complete

    # the pivot columns of the rays written as columns span N, since a
    # cone whose dual has a Hilbert basis is full-dimensional; [R_S | I]
    # reduces to d [I | R_S^-1]
    span = row_reduce(transpose(rays))[1]
    assert len(span) == n
    reduced, pivots, d = row_reduce([rays[i] + tuple(int(i == j) for j in span)
                                     for i in span])
    assert pivots == list(range(n))
    adjugate = [row[n:] for row in reduced]

    found = []
    for parts in product(*(permutations(c) for c in classes)):
        image = {}
        for orig, permuted in zip(classes, parts):
            image.update(zip(orig, permuted))
        scaled = mat_mul(adjugate, tuple(rays[image[i]] for i in span))
        if any(x % d for row in scaled for x in row):
            continue
        g = transpose(tuple(tuple(x // d for x in row) for row in scaled))
        if all(mat_vec(g, v) == rays[image[i]] for i, v in enumerate(rays)):
            found.append(g)
    found.sort()
    return SemigroupSymmetries(order=len(found), matrices=tuple(found),
                               basis=hb.elements)


@dataclass(frozen=True)
class ToricIsotropyReport:
    root: DemazureRoot
    maximality: MaximalityVerdict
    torus: QuasitorusPresentation
    symmetries: SemigroupSymmetries
    kernel: KernelDescription
    slice_weight: LatticeVector


def toric_isotropy_report(cone: Cone, e, hilbert_bound: int | None = None,
                          cap: int = 64) -> ToricIsotropyReport:
    """Everything the isotropy decomposition needs, in one pass.

    The unipotent part is the one-parameter group of the derivation itself
    and needs no further data beyond the root.
    """
    root = require_root(cone, e)
    return ToricIsotropyReport(
        root=root,
        maximality=is_maximal(cone, root),
        torus=isotropy_torus(cone, root),
        symmetries=s_delta(cone, root),
        kernel=kernel_of_root(cone, root, hilbert_bound),
        slice_weight=find_local_slice(cone, root, cap=cap),
    )


def symbolic_commute_check(cone: Cone, a: DemazureRoot, b: DemazureRoot) -> bool:
    """Cross-validation path: evaluate the commutator on the monomials of
    the dual cone's generators.

    By the closed form in ``algebra``, [a, b](chi^m) = <m, w> chi^(m + s_a + s_b)
    is linear in m, so [a, b] kills every chi^m with m in the semigroup iff
    <m, w> = 0 on a set of semigroup characters that spans M over Q. The
    dual generators are such a set: they are lattice points of the dual,
    which is full-dimensional because a cone with roots is pointed. A cone
    that is not full-dimensional is refused as ``dual_as_cone`` refuses it.
    """
    gens = [Polynomial.monomial(d) for d in dual_as_cone(cone).rays]
    return commutator_vanishes_on(a.derivation(), b.derivation(), gens)
