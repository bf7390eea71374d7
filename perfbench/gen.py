"""Seeded input generation for the three workloads.

Inputs are data: this module never imports lndkit, so generating them
cannot warm the library's caches, and the worker only ever sees the JSON
this module writes. The same (workload, seed) always gives the same file.
"""

from __future__ import annotations

import random
from math import factorial

import geometry as G

# The README's square cone and its worked-example root.
README_CONE = [[0, 0, 1], [2, 0, 1], [0, 1, 1], [1, 1, 1]]
README_ROOT = [1, 2, -1]

# toric-sweep draws rounds of this rank mix; every round has the same mix,
# so any prefix of a run sees the same cost strata in the same proportions.
# With one refusal per round, p50 falls inside the rank-3 stratum and p90
# at the middle of the rank-4 one.
SWEEP_ROUND = {2: 2, 3: 5, 4: 2}
SWEEP_REFUSALS_PER_ROUND = 1
SWEEP_ROUNDS = 40
# Limits on the cones drawn, all computed by this package's own geometry.
# They bound run length and narrow each rank's cost stratum; larger cones
# are not claimed to be fine, they wait for a budgeted refusal in lndkit.
# SWEEP_BOX limits the box volume (2r+1)^rank, r the dual completeness
# radius (the gates allow 200000); SWEEP_MAX_POINTS the semigroup points N
# in that box, whose O(N^2) reduction has a heavy tail; SWEEP_ROOTS the
# roots in box 3, whose pairs the commutator oracle checks.
SWEEP_BOX = {2: 200_000, 3: 3375, 4: 28561}
SWEEP_MAX_POINTS = {2: 200_000, 3: 150, 4: 400}
SWEEP_ROOTS = {3: (28, 36), 4: (60, 100)}


def gate_cone(rng, rank, max_box=None):
    """The acceptance gates' random_cone followed by their tameness filter
    (box volume at most ``max_box``), decided with this package's own
    geometry: (drawn rays, extremal rays, dual rays). It draws the same
    random numbers as the gates do."""
    max_radius = None
    if max_box is not None:
        max_radius = 0
        while (2 * max_radius + 3) ** rank <= max_box:
            max_radius += 1
    while True:
        k = rng.randrange(rank, rank + 3)
        rays = [tuple(rng.randrange(-2, 3) for _ in range(rank))
                for _ in range(k)]
        rays = [r for r in rays if any(r)]
        if len(rays) < rank:
            continue
        cone = G.pointed_cone(rays, rank, max_radius)
        if cone is not None:
            return rays, cone[0], cone[1]


def sweep_cone(rng, rank):
    low, high = SWEEP_ROOTS.get(rank, (0, None))
    while True:
        rays, extremal, dual = gate_cone(rng, rank, SWEEP_BOX[rank])
        if high is not None and not low <= G.count_roots(extremal, 3) <= high:
            continue
        if G.count_semigroup_points(extremal, G.box_radius(dual)) <= SWEEP_MAX_POINTS[rank]:
            return {"rank": rank, "rays": [list(r) for r in rays]}


def non_root(rng, rays):
    while True:
        e = tuple(rng.randrange(-2, 3) for _ in rays[0])
        if G.is_root(e, rays) is None:
            return list(e)


def sweep_refusal(rng):
    """`lndkit cone commute` asked about a character that is not a root."""
    rays, extremal, _ = gate_cone(rng, 3)
    return {"rank": 3, "rays": [list(r) for r in rays],
            "non_root": non_root(rng, extremal)}


def toric_sweep(rng):
    cones = []
    for _ in range(SWEEP_ROUNDS):
        batch = [sweep_cone(rng, rank)
                 for rank, count in sorted(SWEEP_ROUND.items())
                 for _ in range(count)]
        batch += [sweep_refusal(rng) for _ in range(SWEEP_REFUSALS_PER_ROUND)]
        rng.shuffle(batch)
        cones.extend(batch)
    return {"cycle": sum(SWEEP_ROUND.values()) + SWEEP_REFUSALS_PER_ROUND,
            "cones": cones}


# ---------------------------------------------------------------------------
# toric-queries: a fixed small cone set, many per-root questions

# (rank, box-volume limit, ray count). Most per-root questions cost in
# proportion to the number of rays (Fourier-Motzkin rows, adjacency pairs,
# the (2*10+1)^rank * rays root scan), so every seed gets the same ray
# counts.
QUERY_CONES = ((3, 3375, 3),) * 8 + ((3, 3375, 4),) * 8 + ((4, 14641, 4),) * 4
# Semigroup points in the Hilbert box (see SWEEP_MAX_POINTS): fewer points,
# a smaller Hilbert basis, and fewer level-preserving permutations for
# s_delta to try.
QUERY_MAX_POINTS = {3: 150, 4: 300}
ROOTS_PER_CONE = 4
NON_ROOTS_PER_CONE = 4
# Per cone: (kind, which of its roots). The counts place p50 inside the
# is_maximal / kernel_of_root stratum (about 1 ms) and p90 inside the
# in-process `lndkit cone maximal` stratum (about 5 ms), whose costs vary
# little from cone to cone; the isotropy reports and root enumerations lie
# above p90.
PER_CONE = (("require_root", (0, 1, 2, 3)), ("is_maximal", (0, 1, 2, 3)),
            ("kernel_of_root", (0, 1, 2, 3)), ("find_local_slice", (0, 1)),
            ("s_delta", (2, 3)), ("cli_maximal", (0, 1, 2, 3, 0, 1, 2, 3)),
            ("isotropy_report", (0,)))


def has_commuting_pair(rays, dual, n):
    return any(G.neighbours(v, rays, dual, n) for v in rays)


def query_cone(rng, rank, box, nrays):
    """A gate cone with a small box and a commuting pair, so that
    construct_commuting_pair is always a verdict and the refusal share of
    the workload stays fixed, and with enough roots that s_delta and
    find_local_slice answer quickly: (rays, those roots)."""
    while True:
        _, rays, dual = gate_cone(rng, rank, box)
        if len(rays) == nrays and has_commuting_pair(rays, dual, rank) and \
                G.count_semigroup_points(rays, G.box_radius(dual)) <= QUERY_MAX_POINTS[rank]:
            found = quick_roots(rays, dual)
            if len(found) >= ROOTS_PER_CONE:
                return rays, found


# Roots whose s_delta must try more level-preserving permutations of the
# dual Hilbert basis, or whose minimal local slice lies further out (the
# slice search box doubles, so its cost grows as (2b+1)^rank), are left
# out: one such root took 1.9 s where the others take milliseconds.
QUERY_MAX_PERMUTATIONS = 24
QUERY_MAX_SLICE_NORM = 4


def permutations_to_try(basis, ray):
    levels = {}
    for h in basis:
        level = G.pairing(h, ray)
        levels[level] = levels.get(level, 0) + 1
    total = 1
    for size in levels.values():
        total *= factorial(size)
    return total


def quick_roots(rays, dual):
    basis = G.hilbert_basis(rays, dual)
    return [(i, e) for i, e in G.roots(rays, 2)
            if permutations_to_try(basis, rays[i]) <= QUERY_MAX_PERMUTATIONS
            and G.slice_norm(rays, rays[i], QUERY_MAX_SLICE_NORM) is not None]


def pick_roots(rng, rays, found):
    """Roots on distinct rays where possible, and non-roots."""
    by_ray = {}
    for idx, e in found:
        by_ray.setdefault(idx, []).append(e)
    picks = [rng.choice(by_ray[i]) for i in rng.sample(sorted(by_ray), k=min(
        ROOTS_PER_CONE, len(by_ray)))]
    while len(picks) < ROOTS_PER_CONE:
        picks.append(rng.choice(found)[1])
    non = [non_root(rng, rays) for _ in range(NON_ROOTS_PER_CONE)]
    return [list(e) for e in picks], non


def toric_queries(rng):
    readme_rays, readme_dual = G.pointed_cone([tuple(r) for r in README_CONE], 3)
    cones = [{"rank": 3, "rays": README_CONE, "readme": True}]
    found = [quick_roots(readme_rays, readme_dual)]
    for rank, box, nrays in QUERY_CONES:
        rays, roots = query_cone(rng, rank, box, nrays)
        cones.append({"rank": rank, "rays": [list(r) for r in rays]})
        found.append(roots)
    queries = []
    for ci, cone in enumerate(cones):
        rays = G.pointed_cone([tuple(r) for r in cone["rays"]], cone["rank"])[0]
        roots, non_roots = pick_roots(rng, rays, found[ci])
        if cone.get("readme"):
            roots[0] = README_ROOT
            queries.append({"kind": "cli_isotropy_text", "cone": ci,
                            "root": README_ROOT})
        for kind, which in PER_CONE:
            for k in which:
                queries.append({"kind": kind, "cone": ci, "root": roots[k]})
        for e in non_roots:
            queries.append({"kind": "require_root", "cone": ci, "root": e,
                            "refusal": True})
        queries.append({"kind": "commuting_pair", "cone": ci})
        queries.append({"kind": "enumerate_roots", "cone": ci})
    rng.shuffle(queries)
    return {"cycle": len(queries), "cones": cones, "queries": queries}


# ---------------------------------------------------------------------------
# exp-trinomial: trinomial rings and exponentials in Q[t]

# tests/data/rigidity_golden.json, as (l0, l1, l2, rigid, reason).
RIGIDITY_GOLDEN = (
    ((), (1, 2), (2, 3), False, "unit_exponent"),
    ((), (1, 1, 2, 2, 7), (3,), False, "unit_exponent"),
    ((2,), (3,), (5,), True, None),
    ((2,), (2,), (3,), False, "even_pair"),
    ((2, 4), (2, 6), (3,), False, "even_pair"),
    ((), (2,), (2,), True, None),
    ((3,), (2, 2), (2, 2), False, "even_pair"),
    ((2, 2), (4, 6), (3, 3), True, None),
    ((2,), (2, 4), (2,), False, "even_pair"),
    ((), (3, 2), (5,), True, None),
    ((4,), (2, 3), (6,), True, None),
    ((1,), (2,), (3,), False, "unit_exponent"),
)
# The README's split example and the tabulated single-power ring.
FIXED_RINGS = (((1, 2), (2, 3)), ((1, 1, 2, 2, 7), (3,)))
# Every seed gets one ring of each shape (plain variables, higher-power
# variables, power-block size); only exponents and order are drawn.
RING_SHAPES = tuple((p, y, z) for p in (2, 3, 4) for y in (0, 1, 2) for z in (1, 2, 3))
# Per-cycle quotas. Trinomial exponentials are nine tenths of the queries,
# so both p50 and p90 fall inside their cost stratum rather than between
# the sub-millisecond decisions and the exponentials.
EXP_PER_CYCLE = 1600
TORIC_EXP_PER_CYCLE = 24
PAIRS_PER_CYCLE = 16
REPLICAS_PER_CYCLE = 12
FLOWS_PER_CYCLE = 12


def product_block(rng, plain, higher=None):
    if higher is None:
        higher = rng.randrange(0, 3)
    block = [1] * plain + [rng.randrange(2, 4) for _ in range(higher)]
    rng.shuffle(block)
    return block


def supported_ring(rng, plain, higher, power):
    return product_block(rng, plain, higher), [rng.randrange(2, 4) for _ in range(power)]


def elementary(ring_l1, ring_l2):
    n1 = len(ring_l1)
    xs = [i for i, l in enumerate(ring_l1) if l == 1]
    zs = list(range(n1, n1 + len(ring_l2)))
    return [(x, z) for x in xs for z in zs]


def kernel_replica(rng, l1, l2, x, z, full):
    """A kernel monomial for d[x,z]; with ``full`` it holds every other
    power variable, which makes a multi-power derivation maximal."""
    n = len(l1) + len(l2)
    h = [0] * n
    free = [i for i in range(n) if i not in (x, z)]
    if full:
        for i in range(len(l1), n):
            if i != z:
                h[i] = 1
    if not any(h):
        h[rng.choice(free)] = 1
    return h


def exp_trinomial(rng):
    rings = [list(r) for r in FIXED_RINGS]
    rings += [list(supported_ring(rng, *shape)) for shape in RING_SHAPES]
    queries = []
    for l0, l1, l2, rigid, reason in RIGIDITY_GOLDEN:
        queries.append({"kind": "rigid", "l0": list(l0), "l1": list(l1),
                        "l2": list(l2), "golden": [rigid, reason]})
    # unsupported shapes: each is an expected refusal of classify
    refusals = [([rng.randrange(2, 4)], product_block(rng, 2), [rng.randrange(2, 4)]),
                ([], [rng.randrange(2, 5) for _ in range(2)], [rng.randrange(2, 5)]),
                ([], product_block(rng, 2), [1])]
    for l0, l1, l2 in refusals:
        queries.append({"kind": "classify", "l0": l0, "l1": l1, "l2": l2,
                        "refusal": True})
    for l1, l2 in rings:
        queries.append({"kind": "rigid", "l0": [], "l1": l1, "l2": l2})
        queries.append({"kind": "classify", "l0": [], "l1": l1, "l2": l2})
    # isotropy: one maximal request per ring, plus a Danielewski ring and a
    # non-maximal request as expected refusals
    for l1, l2 in rings:
        x, z = rng.choice(elementary(l1, l2))
        replica = None if len(l2) == 1 else kernel_replica(rng, l1, l2, x, z, True)
        plain = sum(1 for l in l1 if l == 1)
        queries.append({"kind": "isotropy", "l1": l1, "l2": l2, "x": x, "z": z,
                        "replica": replica, "refusal": plain == 1})
    dl1, dl2 = product_block(rng, 1), [rng.randrange(2, 5)]
    queries.append({"kind": "isotropy", "l1": dl1, "l2": dl2,
                    "x": dl1.index(1), "z": len(dl1), "replica": None,
                    "refusal": True})
    ml1, ml2 = supported_ring(rng, rng.randrange(2, 5), rng.randrange(0, 3), 2)
    mx, mz = rng.choice(elementary(ml1, ml2))
    queries.append({"kind": "isotropy", "l1": ml1, "l2": ml2, "x": mx, "z": mz,
                    "replica": None, "refusal": True})
    derivations = [(l1, l2, x, z) for l1, l2 in rings for x, z in elementary(l1, l2)]
    for kind, count in (("replicas", REPLICAS_PER_CYCLE),
                        ("relation_flow", FLOWS_PER_CYCLE)):
        for l1, l2, x, z in rng.sample(derivations, count):
            queries.append({"kind": kind, "l1": l1, "l2": l2, "x": x, "z": z})
    all_pairs = [(l1, l2, a, b) for l1, l2 in rings
                 for i, a in enumerate(elementary(l1, l2))
                 for b in elementary(l1, l2)[i + 1:]]
    for l1, l2, a, b in rng.sample(all_pairs, min(PAIRS_PER_CYCLE, len(all_pairs))):
        queries.append({"kind": "pair", "l1": l1, "l2": l2, "a": list(a), "b": list(b)})
    for i in range(EXP_PER_CYCLE):
        l1, l2 = rings[i % len(rings)]
        x, z = rng.choice(elementary(l1, l2))
        replica = kernel_replica(rng, l1, l2, x, z, rng.random() < 0.5) \
            if rng.random() < 0.5 else None
        n = len(l1) + len(l2)
        exps = [0] * n
        for _ in range(2 + i % 7):  # degrees 2..8 in equal numbers
            exps[rng.randrange(n)] += 1
        queries.append({"kind": "exp", "l1": l1, "l2": l2, "x": x, "z": z,
                        "replica": replica, "weight": exps})
    queries.extend(toric_exps(rng))
    rng.shuffle(queries)
    return {"cycle": len(queries), "queries": queries}


def toric_exps(rng):
    """Root derivations of small gate cones and semigroup weights m with
    <m, ray> between 2 and 8, so exp(t*delta) has 3 to 9 terms."""
    out = []
    while len(out) < TORIC_EXP_PER_CYCLE:
        rank = rng.choice((2, 3))
        _, rays, _ = gate_cone(rng, rank)
        found = G.roots(rays, 2)
        idx, e = rng.choice(found)
        for _ in range(200):
            m = tuple(rng.randrange(-6, 7) for _ in range(rank))
            if G.in_semigroup(m, rays) and 2 <= G.pairing(m, rays[idx]) <= 8:
                out.append({"kind": "toric_exp", "ray": list(rays[idx]),
                            "ray_index": idx, "root": list(e), "weight": list(m)})
                break
    return out


WORKLOADS = {
    "toric-sweep": toric_sweep,
    "toric-queries": toric_queries,
    "exp-trinomial": exp_trinomial,
}


def generate(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    data = WORKLOADS[workload](rng)
    data.update(workload=workload, seed=seed)
    return data
