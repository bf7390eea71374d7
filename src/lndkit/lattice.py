"""Exact integer lattice arithmetic: echelon and Smith forms, dual pairs,
quotient presentations.

Everything runs over Z with Python ints, so results are exact at any size.
Matrices are tuples of row tuples and vectors are plain int tuples; both are
treated as immutable. Row vectors live in the character lattice M, columns
in the cocharacter lattice N, and ``pairing`` is the evaluation between them.

There are two eliminations. ``row_reduce`` is a fraction-free echelon form,
read for rank, determinant, integer adjugates and kernel vectors;
``smith_normal_form`` gives invariant factors, which present
``LatticeQuotient``, and the transforms that ``solve_dual_pair`` reads.

All transformation matrices returned here are unimodular (det = +-1), and
every function is deterministic: identical input gives identical output,
including the choice of pivots.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

LatticeVector = tuple[int, ...]
LatticeMatrix = tuple[tuple[int, ...], ...]


def pairing(m: LatticeVector, v: LatticeVector) -> int:
    """Evaluation <m, v> of a character on a one-parameter subgroup."""
    if len(m) != len(v):
        raise ValueError(f"pairing needs equal lengths, got {len(m)} and {len(v)}")
    return sum(map(operator.mul, m, v))


def vec_add(a: LatticeVector, b: LatticeVector) -> LatticeVector:
    return tuple(map(operator.add, a, b))


def vec_sub(a: LatticeVector, b: LatticeVector) -> LatticeVector:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c: int, a: LatticeVector) -> LatticeVector:
    return tuple(c * x for x in a)


def is_zero_vector(a: LatticeVector) -> bool:
    return all(x == 0 for x in a)


def content(v: LatticeVector) -> int:
    """gcd of the entries, 0 for the zero vector."""
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def primitive_part(v: LatticeVector) -> LatticeVector:
    """v divided by its content, keeping direction. Zero vector is refused."""
    g = content(v)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(x // g for x in v)


def transpose(a: LatticeMatrix) -> LatticeMatrix:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: LatticeMatrix, b: LatticeMatrix) -> LatticeMatrix:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: LatticeMatrix, x: LatticeVector) -> LatticeVector:
    """a applied to the column vector x."""
    return tuple(sum(r * c for r, c in zip(row, x)) for row in a)


def row_reduce(a):
    """Reduced row echelon form of a, by fraction-free Gauss-Jordan elimination.

    Every row update is divided by the previous pivot, and Bareiss (1968)
    shows the division is exact, so no entry leaves Z. Returns
    (rows, pivots, d): the nonzero rows of the form as integer lists whose
    pivot entries all equal d, and the pivot column of each row; rows / d
    is the reduced form over Q. That form is unique for a given row space,
    so everything read off it is independent of the order of the input
    rows. The pivot columns are the columns that a greedy scan left to
    right keeps whenever they raise the rank. A swap negates the row it
    moves down, so d is the determinant of a square nonsingular a, and d is
    1 when there is no pivot.
    """
    rows = [list(r) for r in a]
    pivots = []
    d = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], [-x for x in rows[r]]
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * x - f * y) // d for x, y in zip(row, top)]
        pivots.append(c)
        d = p
    return rows[:len(pivots)], pivots, d


def determinant(a: LatticeMatrix) -> int:
    """Exact determinant, the last pivot of the fraction-free reduction."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    _, pivots, d = row_reduce(a)
    return d if len(pivots) == n else 0


def matrix_rank(a) -> int:
    """Rank over Q."""
    return len(row_reduce(a)[1])


@dataclass(frozen=True)
class SmithDecomposition:
    """U A V = D with U, V unimodular and D diagonal, d1 | d2 | ... | dr."""

    u: LatticeMatrix
    d: LatticeMatrix
    v: LatticeMatrix
    invariant_factors: tuple[int, ...]


def smith_normal_form(a: LatticeMatrix) -> SmithDecomposition:
    """Smith normal form with both transforms, by one elimination on the
    augmented matrix [[A, I_m], [I_n, 0]]: row operations on its first m
    rows carry U in the block right of A, and column operations on its
    first n columns carry V in the block below A. The pivot is the smallest
    nonzero |entry| of the remaining block, row-major on ties."""
    m, n = len(a), len(a[0]) if a else 0
    if any(len(r) != n for r in a):
        raise ValueError("ragged matrix")
    # A, then the identity blocks: row i has its 1 in column i + n, cyclically
    w = [list(r) + [0] * m for r in a] + [[0] * (n + m) for _ in range(n)]
    for i in range(m + n):
        w[i][(i + n) % (m + n)] = 1

    def col_sub(j, k, q):
        # col j -= q * col k, through A and the V block
        for row in w:
            row[j] -= q * row[k]

    def clear_stage(t):
        # move the pivot to (t, t) and reduce its column and row by it until
        # both are clear; False when the remaining block is zero
        while True:
            piv = 0
            for i in range(t, m):
                for j in range(t, n):
                    x = abs(w[i][j])
                    if x and (x < piv or not piv):
                        piv, pi, pj = x, i, j
            if not piv:
                return False
            w[pi], w[t] = w[t], w[pi]
            if pj != t:
                for row in w:
                    row[pj], row[t] = row[t], row[pj]
            top, clear = w[t], True
            for i in range(t + 1, m):
                if w[i][t]:
                    q = w[i][t] // top[t]
                    w[i] = row = [x - q * y for x, y in zip(w[i], top)]
                    clear = clear and not row[t]
            for j in range(t + 1, n):
                if top[j]:
                    col_sub(j, t, top[j] // top[t])
                    clear = clear and not top[j]
            if clear:
                return True

    r = 0
    while r < min(m, n) and clear_stage(r):
        r += 1
    # enforce the divisibility chain: the first pair that fails pulls the
    # next column in, and the stages from there on are cleared again
    while (i := next((i for i in range(r - 1) if w[i + 1][i + 1] % w[i][i]),
                     None)) is not None:
        col_sub(i, i + 1, -1)
        for t in range(i, r):
            clear_stage(t)
    for i in range(r):
        if w[i][i] < 0:
            w[i] = [-x for x in w[i]]
    return SmithDecomposition(u=tuple(tuple(row[n:]) for row in w[:m]),
                              d=tuple(tuple(row[:n]) for row in w[:m]),
                              v=tuple(tuple(row[:n]) for row in w[m:]),
                              invariant_factors=tuple(w[i][i] for i in range(r)))


def solve_dual_pair(v: LatticeVector, vp: LatticeVector):
    """A character e with <e, v> = -1 and <e, vp> = 0, or None.

    It exists iff the pair {v, vp} extends to a basis of N, i.e. iff both
    invariant factors of the stacked pair are 1: then U (v; vp) V = (I | 0)
    and e = V (U (-1, 0), 0, ..., 0) solves (v; vp) e = (-1, 0).
    """
    n = len(v)
    if len(vp) != n:
        raise ValueError("mismatched lengths")
    dec = smith_normal_form((tuple(v), tuple(vp)))
    if dec.invariant_factors != (1, 1):
        return None
    ub = mat_vec(dec.u, (-1, 0))
    e = mat_vec(dec.v, (ub[0], ub[1]) + (0,) * (n - 2))
    assert pairing(e, v) == -1 and pairing(e, vp) == 0
    return e


@dataclass(frozen=True)
class QuasitorusPresentation:
    """Diagonalizable group presented as (K*)^free_rank x prod mu_d."""

    free_rank: int
    torsion: tuple[int, ...]


class LatticeQuotient:
    """Finitely generated abelian group Z^rank / <rows of relations>,
    presented by the invariant factors of the relation rows."""

    def __init__(self, rank: int, relations=()):
        rels = tuple(tuple(r) for r in relations)
        for r in rels:
            if len(r) != rank:
                raise ValueError("relation length does not match rank")
        self.rank = rank
        self.relations = rels
        invf = smith_normal_form(rels).invariant_factors
        self.invariant_factors = invf
        self.free_rank = rank - len(invf)
        self.torsion = tuple(f for f in invf if f != 1)


def quasitorus_kernel(quotient: LatticeQuotient, d: LatticeVector) -> QuasitorusPresentation:
    """Kernel of the character d inside the quasitorus dual to the quotient.

    Characters of K that kill the class of d form the character group of
    K / <class(d)>, so the kernel is presented by the augmented relations.
    """
    if len(d) != quotient.rank:
        raise ValueError("vector length does not match rank")
    finer = LatticeQuotient(quotient.rank, quotient.relations + (tuple(d),))
    return QuasitorusPresentation(
        free_rank=finer.free_rank,
        torsion=finer.torsion,
    )
