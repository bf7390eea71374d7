"""Queries of the three workloads and the independent checks of their answers.

A query is one question a user asks lndkit. ``run`` is the only part that
is timed; ``answer`` turns what lndkit returned into plain JSON data, and
``check`` compares that data with what this package's own geometry and
ring code say it must be. Checks never call lndkit, so they neither warm
its caches nor share its defects.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from fractions import Fraction
from math import comb, factorial

import geometry as G
import rings as R

# `lndkit cone isotropy --format text` on the README's square cone, as the
# README prints it.
README_ISOTROPY_TEXT = """\
kernel_generators:
  - [0, 1, 0]
  - [1, 0, 0]
maximal: true
root:
  ray: [0, 0, 1]
  ray_index: 0
  vector: [1, 2, -1]
slice: [0, 0, 1]
symmetry_matrices:
  -
    - [1, 0, 0]
    - [0, 1, 0]
    - [0, 0, 1]
symmetry_order: 1
torus:
  rank: 2
  torsion: []
witness: null
"""


class Query:
    """``run`` returns lndkit's result or raises; ``answer`` maps a result
    to JSON data; ``check`` returns None or the reason the answer is wrong;
    ``refusal`` says whether an honest refusal is the expected outcome."""

    def __init__(self, kind, run, answer, check, refusal=False, before=None):
        self.kind = kind
        self.run = run
        self.answer = answer
        self.check = check
        self.refusal = refusal
        self.before = before


def _rows(vectors):
    return [list(v) for v in vectors]


def _fail(cond, message):
    return None if cond else message


def _poly_terms(poly):
    """lndkit Polynomial with Q[t] coefficients -> {(exp, k): Fraction}."""
    out = {}
    for exp, coeff in poly.terms.items():
        if hasattr(coeff, "vars"):
            for power, c in coeff.terms.items():
                out[(tuple(exp), power[0] if coeff.vars else 0)] = Fraction(c)
        else:
            out[(tuple(exp), 0)] = Fraction(coeff)
    return out


def _terms_json(terms):
    return [[list(e), k, str(c)] for (e, k), c in sorted(terms.items())]


def refusal_json(err):
    return {"refused": type(err).__name__, "witness": getattr(err, "witness", None),
            "cap": getattr(err, "cap", None)}


def _basis_problem(basis, rays):
    """A Hilbert basis of the semigroup {m : <m, ray> >= 0}: sorted, in the
    semigroup, pairwise irreducible."""
    if list(basis) != sorted(set(map(tuple, basis))):
        return "basis not sorted and unique"
    for m in basis:
        if not any(m) or not G.in_semigroup(m, rays):
            return f"basis element {m} outside the semigroup"
    for a in basis:
        for b in basis:
            if a != b and G.in_semigroup([x - y for x, y in zip(a, b)], rays):
                return f"basis element {a} reducible by {b}"
    return None


class ConeFacts:
    """What the checks need to know about one cone, from this package."""

    def __init__(self, rank, drawn):
        self.rank = rank
        self.rays, self.dual = G.pointed_cone([tuple(r) for r in drawn], rank)

    def hilbert_basis(self):
        if not hasattr(self, "_basis"):
            self._basis = G.hilbert_basis(self.rays, self.dual)
        return self._basis

    def neighbours(self, ray):
        return G.neighbours(tuple(ray), self.rays, self.dual, self.rank)

    def root_problem(self, vector, ray, ray_index):
        idx = G.is_root(tuple(vector), self.rays)
        if idx is None or idx != ray_index or tuple(ray) != self.rays[idx]:
            return f"{vector} on ray {ray} is not a root"
        return None

    def maximal(self, vector, ray):
        return all(G.pairing(vector, w) != 0 for w in self.neighbours(ray))


# ---------------------------------------------------------------------------
# toric-sweep: the cold path, one distinct cone per query


def sweep_queries(lnd, data):
    cone_mod, toric, algebra = lnd.cone, lnd.toric, lnd.algebra
    caches = [f for f in (cone_mod.dual_cone, cone_mod.hilbert_basis)
              if hasattr(f, "cache_clear")]

    def clear_caches():
        # every query starts as a fresh `lndkit cone commute` process would
        for f in caches:
            f.cache_clear()

    def refusal(spec):
        rank, drawn, e = spec["rank"], [tuple(r) for r in spec["rays"]], spec["non_root"]
        run = lambda: toric.require_root(cone_mod.make_cone(rank, drawn), e)

        def check(ans):
            rays = ConeFacts(rank, drawn).rays
            return _fail(ans["witness"] == {"character": e, "pairings": [
                G.pairing(e, v) for v in rays]}, "refusal witness does not replay")

        return Query("sweep_non_root", run, None, check, refusal=True, before=clear_caches)

    def make(spec):
        if "non_root" in spec:
            return refusal(spec)
        rank, drawn = spec["rank"], [tuple(r) for r in spec["rays"]]

        def run():
            cone = cone_mod.make_cone(rank, drawn)
            roots = toric.enumerate_roots(cone, 3)
            basis = cone_mod.hilbert_basis(
                cone_mod.make_cone(rank, cone_mod.dual_cone(cone).generators))
            gens = [algebra.Polynomial.monomial(h) for h in basis.elements]
            derivs = [r.derivation() for r in roots]
            verdicts = []
            for i in range(len(roots)):
                for j in range(i + 1, len(roots)):
                    verdicts.append((
                        toric.lnds_commute(roots[i], roots[j]),
                        algebra.commutator_vanishes_on(derivs[i], derivs[j], gens)))
            return cone, roots, basis, verdicts

        def answer(result):
            cone, roots, basis, verdicts = result
            return {"rays": _rows(cone.rays),
                    "roots": [[r.ray_index, list(r.vector), list(r.ray)] for r in roots],
                    "basis": _rows(basis.elements), "complete": basis.complete,
                    "criterion": "".join("01"[c] for c, _ in verdicts),
                    "symbolic": "".join("01"[s] for _, s in verdicts)}

        def check(ans):
            facts = ConeFacts(rank, drawn)
            if ans["rays"] != _rows(facts.rays):
                return "extremal rays differ"
            want = [[i, list(e), list(facts.rays[i])] for i, e in G.roots(facts.rays, 3)]
            if ans["roots"] != want:
                return "root list differs"
            basis = [tuple(m) for m in ans["basis"]]
            problem = _basis_problem(basis, facts.rays)
            if problem or not ans["complete"]:
                return problem or "basis marked incomplete"
            if not set(facts.dual) <= set(basis):
                return "basis misses a dual ray"
            roots = ans["roots"]
            expect = "".join(
                "01"[G.commute(roots[i][1], roots[i][2], roots[j][1], roots[j][2])]
                for i in range(len(roots)) for j in range(i + 1, len(roots)))
            if ans["criterion"] != expect:
                return "commute criterion verdict wrong"
            return _fail(ans["symbolic"] == expect, "symbolic commutator verdict wrong")

        return Query("sweep_cone", run, answer, check, before=clear_caches)

    return [make(spec) for spec in data["cones"]]


# ---------------------------------------------------------------------------
# toric-queries: the warm path, many questions about a few cones


def toric_query_set(lnd, data, workdir):
    cone_mod, toric, cli = lnd.cone, lnd.toric, lnd.cli
    facts = [ConeFacts(c["rank"], c["rays"]) for c in data["cones"]]
    cones = {}
    paths = []
    for i, c in enumerate(data["cones"]):
        path = os.path.join(workdir, f"cone-{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"rank": c["rank"], "rays": c["rays"]}, fh)
        paths.append(path)

    def cone(ci):
        # built once, on first use in warm-up, and then held like a caller would
        if ci not in cones:
            spec = data["cones"][ci]
            cones[ci] = cone_mod.make_cone(spec["rank"], [tuple(r) for r in spec["rays"]])
        return cones[ci]

    def root_of(f, e):
        idx = G.is_root(tuple(e), f.rays)
        return toric.DemazureRoot(vector=tuple(e), ray=f.rays[idx], ray_index=idx)

    def root_json(r):
        return [list(r.vector), list(r.ray), r.ray_index]

    def slice_problem(f, ray, s):
        s = tuple(s)
        if G.pairing(s, ray) != 1 or not G.in_semigroup(s, f.rays):
            return "slice not at level one in the semigroup"
        norm = sum(abs(x) for x in s)
        for t in _l1_ball(f.rank, norm):
            if G.pairing(t, ray) == 1 and G.in_semigroup(t, f.rays) \
                    and (sum(map(abs, t)), t) < (norm, s):
                return f"slice {s} not minimal, {t} is smaller"
        return None

    def sdelta_problem(f, e, ray, ans):
        if ans["order"] != len(ans["matrices"]):
            return "symmetry order differs from the matrix count"
        if [tuple(m) for m in ans["basis"]] != f.hilbert_basis():
            return "dual Hilbert basis differs"
        basis = {tuple(m) for m in ans["basis"]}
        n = f.rank
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        if ident not in ans["matrices"]:
            return "identity missing from the symmetries"
        for g in ans["matrices"]:
            if abs(G.determinant(g)) != 1:
                return "symmetry not unimodular"
            if [G.pairing(e, [g[i][j] for i in range(n)]) for j in range(n)] != list(e):
                return "symmetry moves the root"
            if [G.pairing(row, ray) for row in g] != list(ray):
                return "symmetry moves the ray"
            image = {tuple(G.pairing(m, [g[i][j] for i in range(n)]) for j in range(n))
                     for m in basis}
            if image != basis:
                return "symmetry does not permute the basis"
        return None

    def kernel_problem(f, ray, gens):
        face = list(f.rays) + [tuple(-x for x in ray)]
        if any(G.pairing(g, ray) != 0 for g in gens):
            return "kernel generator off the face"
        return _basis_problem([tuple(g) for g in gens], face)

    def maximal_problem(f, e, ray, ans):
        if ans["neighbours"] != _rows(f.neighbours(ray)):
            return "neighbour rays differ"
        if ans["maximal"] != f.maximal(e, ray):
            return "maximality verdict wrong"
        if ans["maximal"]:
            return _fail(ans["witness"] is None, "maximal verdict carries a witness")
        w, wray, widx = ans["witness"]
        problem = f.root_problem(w, wray, widx)
        if problem:
            return "witness: " + problem
        if tuple(wray) == tuple(ray) or tuple(wray) not in f.neighbours(ray) \
                or not G.commute(e, ray, w, wray):
            return "witness does not commute inequivalently"
        return None

    def make(q):
        kind, ci = q["kind"], q["cone"]
        f = facts[ci]
        e = tuple(q.get("root") or ())
        root = root_of(f, e) if e and not q.get("refusal") else None

        if kind == "require_root":
            run = lambda: toric.require_root(cone(ci), e)
            answer = root_json

            def check(ans):
                if q.get("refusal"):
                    w = ans["witness"]
                    pairings = [G.pairing(e, v) for v in f.rays]
                    if w != {"character": list(e), "pairings": pairings}:
                        return "refusal witness does not replay"
                    return _fail(G.is_root(e, f.rays) is None, "refused a root")
                return f.root_problem(*ans)
        elif kind == "is_maximal":
            run = lambda: toric.is_maximal(cone(ci), root)

            def answer(v):
                return {"maximal": v.maximal, "neighbours": _rows(v.neighbours),
                        "witness": None if v.witness is None else root_json(v.witness)}

            check = lambda ans: maximal_problem(f, e, root.ray, ans)
        elif kind == "kernel_of_root":
            run = lambda: toric.kernel_of_root(cone(ci), root)
            answer = lambda k: {"complete": k.complete, "generators": _rows(k.generators)}
            check = lambda ans: kernel_problem(f, root.ray, ans["generators"]) \
                or _fail(ans["complete"], "kernel incomplete")
        elif kind == "find_local_slice":
            run = lambda: toric.find_local_slice(cone(ci), root)
            answer = list
            check = lambda s: slice_problem(f, root.ray, s)
        elif kind == "s_delta":
            run = lambda: toric.s_delta(cone(ci), root)
            answer = lambda s: {"order": s.order, "basis": _rows(s.basis),
                                "matrices": [_rows(m) for m in s.matrices]}
            check = lambda ans: sdelta_problem(f, e, root.ray, ans)
        elif kind == "isotropy_report":
            run = lambda: toric.toric_isotropy_report(cone(ci), e)

            def answer(r):
                return {"root": root_json(r.root),
                        "maximal": r.maximality.maximal,
                        "neighbours": _rows(r.maximality.neighbours),
                        "witness": None if r.maximality.witness is None
                        else root_json(r.maximality.witness),
                        "torus": [r.torus.free_rank, list(r.torus.torsion)],
                        "kernel": _rows(r.kernel.generators),
                        "complete": r.kernel.complete,
                        "slice": list(r.slice_weight),
                        "order": r.symmetries.order, "basis": _rows(r.symmetries.basis),
                        "matrices": [_rows(m) for m in r.symmetries.matrices]}

            def check(ans):
                return (f.root_problem(*ans["root"])
                        or maximal_problem(f, e, root.ray, ans)
                        or _fail(ans["torus"] == [f.rank - 1, []], "isotropy torus wrong")
                        or kernel_problem(f, root.ray, ans["kernel"])
                        or slice_problem(f, root.ray, ans["slice"])
                        or sdelta_problem(f, e, root.ray, ans))
        elif kind == "commuting_pair":
            run = lambda: toric.construct_commuting_pair(cone(ci))
            answer = lambda pair: [root_json(r) for r in pair]

            def check(ans):
                (a, ar, ai), (b, br, bi) = ans
                return (f.root_problem(a, ar, ai) or f.root_problem(b, br, bi)
                        or _fail(ar != br and tuple(br) in f.neighbours(ar)
                                 and G.commute(a, ar, b, br),
                                 "pair is not commuting and inequivalent"))
        elif kind == "enumerate_roots":
            # digested as a stream, so that checking adds little to peak RSS
            run = lambda: toric.enumerate_roots(cone(ci), 10)
            answer = lambda roots: _stream_digest((r.ray_index, r.vector) for r in roots)
            check = lambda ans: _fail(ans == _stream_digest(
                (i, e) for i in range(len(f.rays)) for e in G.roots_on_ray(f.rays, i, 10)),
                "roots in box 10 differ")
        elif kind == "cli_maximal":
            argv = ["cone", "maximal", "--in", paths[ci], "--root", ",".join(map(str, e))]
            run = lambda: _cli(cli, argv)

            def answer(out):
                rc, text = out
                p = json.loads(text)
                r = p["root"]
                return {"rc": rc, "maximal": p["maximal"], "neighbours": p["neighbours"],
                        "root": [r["vector"], r["ray"], r["ray_index"]],
                        "witness": None if p["witness"] is None else
                        [p["witness"]["vector"], p["witness"]["ray"],
                         p["witness"]["ray_index"]]}

            check = lambda ans: _fail(ans["rc"] == 0, "cli exit status") \
                or f.root_problem(*ans["root"]) or maximal_problem(f, e, root.ray, ans)
        elif kind == "cli_isotropy_text":
            argv = ["cone", "isotropy", "--in", paths[ci], "--root",
                    ",".join(map(str, e)), "--format", "text"]
            run = lambda: _cli(cli, argv)
            answer = list
            check = lambda ans: _fail(ans == [0, README_ISOTROPY_TEXT],
                                      "README isotropy text differs")
        else:
            raise ValueError(f"unknown query kind {kind}")
        return Query(kind, run, answer, check, refusal=bool(q.get("refusal")))

    return [make(q) for q in data["queries"]]


def _cli(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _stream_digest(items):
    h = hashlib.sha256()
    count = 0
    for item in items:
        h.update(repr(item).encode())
        count += 1
    return [count, h.hexdigest()]


def _l1_ball(n, radius):
    """Integer points of Z^n with coordinate absolute sum at most radius."""
    if n == 0:
        yield ()
        return
    for x in range(-radius, radius + 1):
        for rest in _l1_ball(n - 1, radius - abs(x)):
            yield (x,) + rest


# ---------------------------------------------------------------------------
# exp-trinomial: rings, their derivations, and exponentials in Q[t]


def trinomial_query_set(lnd, data):
    algebra, tri, toric = lnd.algebra, lnd.trinomial, lnd.toric

    def ring_of(q):
        return algebra.TrinomialRing(q.get("l0", ()), q["l1"], q["l2"])

    def deriv(ring, x, z, replica=None):
        shape = tri.classify(ring)
        return shape, tri.derivation_for(
            shape, x, z if shape.kind == "multi_z" else None,
            None if replica is None else tuple(replica))

    def make(q):
        kind = q["kind"]
        refusal = bool(q.get("refusal"))
        if kind in ("rigid", "classify"):
            l0, l1, l2 = tuple(q["l0"]), tuple(q["l1"]), tuple(q["l2"])
        elif kind != "toric_exp":
            mine = R.Ring(q["l1"], q["l2"])

        if kind == "rigid":
            def run():
                return tri.is_rigid(ring_of(q))

            answer = lambda v: [v.rigid, v.reason]

            def check(ans):
                want = list(R.rigidity(l0, l1, l2))
                if "golden" in q and q["golden"] != want:
                    return "golden row disagrees with the rigidity rule"
                return _fail(ans == want, "rigidity verdict wrong")
        elif kind == "classify":
            run = lambda: tri.classify(ring_of(q))
            answer = lambda s: [s.kind, list(s.x_indices), list(s.y_indices),
                                list(s.z_indices)]

            def check(ans):
                got, tag = R.shape(l0, l1, l2)
                if refusal:
                    block = {"constant_block": list(l0), "product_block": list(l1),
                             "power_block": list(l2)}
                    return _fail(tag is not None and ans["witness"] == {tag: block[tag]},
                                 "refusal witness does not replay")
                return _fail(got is not None and ans == [got[0]] + [list(i) for i in got[1:]],
                             "classification wrong")
        elif kind == "pair":
            (ax, az), (bx, bz) = q["a"], q["b"]

            def run():
                ring = ring_of(q)
                _, da = deriv(ring, ax, az)
                _, db = deriv(ring, bx, bz)
                return tri.pair_commutes(ring, da, db)

            answer = bool
            check = lambda ans: _fail(
                ans == R.commutes(mine, mine.images(ax, az), mine.images(bx, bz)),
                "commute verdict wrong")
        elif kind == "replicas":
            x, z = q["x"], q["z"]

            def run():
                ring = ring_of(q)
                shape, d = deriv(ring, x, z)
                out = []
                for h in tri.kernel_monomials(shape, d, 2):
                    if any(h):
                        cand = tri.derivation_for(shape, x, d.z_index, h)
                        out.append((h, tri.maximality_verdict(shape, cand)))
                return out

            def answer(out):
                return [[list(h), v.maximal, None if v.witness is None else
                         [v.witness.x_index, v.witness.z_index]] for h, v in out]

            def check(ans):
                want = sorted(h for h in _l1_ball(mine.n, 2)
                              if any(h) and min(h) >= 0 and not (h[x] or h[z]))
                if [tuple(h) for h, _, _ in ans] != want:
                    return "kernel monomials differ"
                for h, maximal, witness in ans:
                    missing = [zi for zi in mine.zs if zi != z and not h[zi]]
                    if maximal != (mine.kind == "single_z" or not missing):
                        return f"replica {h} maximality wrong"
                    if not maximal:
                        wx, wz = witness
                        if wx != x or wz != missing[0] or not R.commutes(
                                mine, mine.images(x, z, h), mine.images(wx, wz)):
                            return f"replica {h} witness does not replay"
                return None
        elif kind == "relation_flow":
            x, z = q["x"], q["z"]

            def run():
                ring = ring_of(q)
                _, d = deriv(ring, x, z)
                return ring.reduce(algebra.exponential(d.derivation,
                                                       ring.relation_polynomial()))

            answer = lambda p: _terms_json(_poly_terms(p))
            check = lambda ans: _fail(ans == [], "flow of the relation is not zero")
        elif kind == "exp":
            x, z, replica, weight = q["x"], q["z"], q["replica"], tuple(q["weight"])

            def run():
                ring = ring_of(q)
                _, d = deriv(ring, x, z, replica)
                return ring.reduce(algebra.exponential(
                    d.derivation, algebra.Polynomial.monomial(weight)))

            answer = lambda p: _terms_json(_poly_terms(p))
            check = lambda ans: _fail(ans == _terms_json(R.exponential(
                mine, mine.images(x, z, replica), weight)), "exponential differs")
        elif kind == "isotropy":
            x, z, replica = q["x"], q["z"], q["replica"]

            def run():
                ring = ring_of(q)
                return tri.trinomial_isotropy_report(
                    ring, x_index=x, z_index=z,
                    replica=None if replica is None else tuple(replica))

            def answer(r):
                return {"grading": list(r.grading.invariant_factors),
                        "quasitorus": [r.quasitorus.free_rank, list(r.quasitorus.torsion)],
                        "lifts": _rows(r.degree_lifts), "order": r.symmetries.order,
                        "factors": [[list(f.variables), f.size] for f in r.symmetries.factors],
                        "discrepancies": [d["field"] for d in r.discrepancies]}

            def check(ans):
                if refusal:
                    return isotropy_refusal_problem(mine, x, z, replica, ans["witness"])
                rows = R.grading_rows(mine)
                if ans["grading"] != list(G.invariant_factors(rows)):
                    return "grading group wrong"
                (xe, _), = mine.images(x, z, replica)[x]
                lift = [a - int(i == x) for i, a in enumerate(xe)]
                if lift not in ans["lifts"]:
                    return "derivation degree lift missing"
                factors = G.invariant_factors(rows + [lift])
                torsion = [f for f in factors if f != 1]
                if ans["quasitorus"] != [mine.n - len(factors), torsion]:
                    return "isotropy quasitorus wrong"
                order = 1
                for _, size in ans["factors"]:
                    order *= factorial(size)
                moved = sorted(v for vs, _ in ans["factors"] for v in vs)
                if order != ans["order"] or moved != [i for i in range(mine.n)
                                                     if i not in (x, z)]:
                    return "symmetry factors inconsistent"
                tabulated = (q["l1"], q["l2"], x, replica) == ([1, 1, 2, 2, 7], [3], 0, None)
                return _fail(bool(ans["discrepancies"]) == tabulated,
                             "reference discrepancies wrong")
        elif kind == "toric_exp":
            ray, idx, e, m = (tuple(q["ray"]), q["ray_index"], tuple(q["root"]),
                              tuple(q["weight"]))
            root = toric.DemazureRoot(vector=e, ray=ray, ray_index=idx)
            run = lambda: algebra.exponential(root.derivation(),
                                              algebra.Polynomial.monomial(m))
            answer = lambda p: _terms_json(_poly_terms(p))

            def check(ans):
                # coefficient of chi^(m+ke) is C(<m, ray>, k) t^k
                level = G.pairing(m, ray)
                want = {(tuple(a + k * b for a, b in zip(m, e)), k): Fraction(comb(level, k))
                        for k in range(level + 1)}
                return _fail(ans == _terms_json(want), "toric exponential differs "
                             "from the closed form")
        else:
            raise ValueError(f"unknown query kind {kind}")
        return Query(kind, run, answer, check, refusal=refusal)

    return [make(q) for q in data["queries"]]


def isotropy_refusal_problem(mine, x, z, replica, witness):
    if sum(1 for l in mine.l1 if l == 1) == 1:
        return _fail(witness == {"product_block": list(mine.l1)},
                     "Danielewski refusal witness wrong")
    label = witness.get("commuting_partner", "")
    if not label.startswith("d["):
        return "refusal without a commuting partner"
    wx, wz = (int(t) for t in label[2:-1].split(","))
    if (wx, wz) == (x, z) or not R.commutes(mine, mine.images(x, z, replica),
                                            mine.images(wx, wz)):
        return "commuting partner does not replay"
    return None


def build(workload, lnd, data, workdir):
    if workload == "toric-sweep":
        return sweep_queries(lnd, data)
    if workload == "toric-queries":
        return toric_query_set(lnd, data, workdir)
    return trinomial_query_set(lnd, data)
