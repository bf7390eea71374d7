"""Trinomial hypersurfaces and their derivations, written apart from lndkit.

Only the case the library supports is modelled: relation
T1^l1 = T2^l2 + 1 (empty constant block), variables numbered product
block first. Polynomials are dicts from (exponent tuple, power of t) to
Fraction, so one dict holds a series in Q[t] with polynomial
coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def rigidity(l0, l1, l2):
    """(rigid, reason): a unit exponent anywhere, or a nonempty constant
    block with two blocks that hold a 2 and only even exponents."""
    if 1 in l0 + l1 + l2:
        return False, "unit_exponent"
    if l0:
        blocks = [b for b in (l0, l1, l2) if b]
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                pair = blocks[i] + blocks[j]
                if 2 in blocks[i] and 2 in blocks[j] and all(x % 2 == 0 for x in pair):
                    return False, "even_pair"
    return True, None


def shape(l0, l1, l2):
    """(kind, plain, higher, power indices) or (None, refusal tag)."""
    if l0:
        return None, "constant_block"
    xs = tuple(i for i, l in enumerate(l1) if l == 1)
    if not xs:
        return None, "product_block"
    if len(l2) == 1 and l2[0] == 1:
        return None, "power_block"
    if len(l2) > 1 and 1 in l2:
        return None, "power_block"
    ys = tuple(i for i, l in enumerate(l1) if l > 1)
    zs = tuple(range(len(l1), len(l1) + len(l2)))
    return ("single_z" if len(l2) == 1 else "multi_z", xs, ys, zs), None


class Ring:
    def __init__(self, l1, l2):
        self.l1 = tuple(l1)
        self.l2 = tuple(l2)
        self.n1 = len(l1)
        self.n = len(l1) + len(l2)
        self.kind, self.xs, self.ys, self.zs = shape((), self.l1, self.l2)[0]
        self.power = dict(zip(self.zs, self.l2))

    def unit(self, i):
        return tuple(int(j == i) for j in range(self.n))

    def images(self, x, z, replica=None):
        """Variable images of the elementary derivation d[x,z], optionally
        multiplied by the kernel monomial with exponents ``replica``."""
        xe = [0] * self.n
        for zi, l in self.power.items():
            xe[zi] = l
        xe[z] -= 1
        ze = [0] * self.n
        for i, l in enumerate(self.l1):
            if i != x:
                ze[i] = l
        h = replica or (0,) * self.n
        shift = lambda e: tuple(a + b for a, b in zip(e, h))
        return {x: {(shift(xe), 0): Fraction(self.power[z])},
                z: {(shift(ze), 0): Fraction(1)}}

    def reduce(self, poly):
        """Normal form: no term divisible by T1^l1."""
        work = dict(poly)
        while True:
            hits = [k for k in work if all(a >= b for a, b in zip(k[0], self.l1))]
            if not hits:
                return {k: c for k, c in work.items() if c}
            (e, t) = max(hits)
            c = work.pop((e, t))
            rest = list(e)
            for i, b in enumerate(self.l1):
                rest[i] -= b
            one = tuple(rest)
            power = list(rest)
            for zi, l in self.power.items():
                power[zi] += l
            for key in ((one, t), (tuple(power), t)):
                work[key] = work.get(key, 0) + c


def add(p, q, scale=1):
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) + scale * c
    return {k: c for k, c in out.items() if c}


def mul(p, q):
    out = {}
    for (ea, ta), ca in p.items():
        for (eb, tb), cb in q.items():
            key = (tuple(a + b for a, b in zip(ea, eb)), ta + tb)
            out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def derive(images, poly):
    out = {}
    for (e, t), c in poly.items():
        for i, image in images.items():
            a = e[i]
            if a:
                low = list(e)
                low[i] -= 1
                out = add(out, mul({(tuple(low), t): c * a}, image))
    return out


def commutes(ring, a, b):
    """[a, b] vanishes on every variable, modulo the relation."""
    for i in range(ring.n):
        v = {(ring.unit(i), 0): Fraction(1)}
        bracket = add(derive(a, derive(b, v)), derive(b, derive(a, v)), -1)
        if ring.reduce(bracket):
            return False
    return True


def exponential(ring, images, exps):
    """exp(t*D) of the monomial T^exps, in normal form.

    exp(tD) is an algebra automorphism, so it is the product of the images
    of the variables, each the terminating series sum t^k D^k(v) / k!.
    """
    out = {((0,) * ring.n, 0): Fraction(1)}
    for i, a in enumerate(exps):
        if not a:
            continue
        v = {(ring.unit(i), 0): Fraction(1)}
        series = {}
        cur, k = v, 0
        while cur:
            series = add(series, {(e, t + k): c / factorial(k)
                                  for (e, t), c in cur.items()})
            cur = derive(images, cur)
            k += 1
        for _ in range(a):
            out = mul(out, series)
    return ring.reduce(out)


def grading_rows(ring):
    return [list(ring.l1) + [0] * len(ring.l2), [0] * ring.n1 + list(ring.l2)]
