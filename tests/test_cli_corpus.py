"""Byte corpus of the `lndkit` CLI.

`tests/data/cli_corpus.json` holds the exit code, stdout and stderr of
every call that `cli_corpus_cases()` draws. The test replays each call and
asserts the same bytes, so a change that means to keep the CLI's output
proves it by passing, and a change that means to alter it records the file
again and lists the calls that changed. To record the file again:

    PYTHONPATH=src python tests/test_cli_corpus.py

The cases come in groups, one function per group in `CASE_GROUPS`:
`trinomial_cases`, `cone_cases` and `selftest_cases`. They cover every
subcommand of `cone` and `trinomial` in both output forms, `selftest` with
and without its injected fault, each refusal and malformed input. The cap
on level-preserving ray permutations is reached on a hexagonal prism with
an apex, whose rays at one level are too many to permute. One call is left
out because it does not answer within 0.5 s: `cone isotropy` on the
six-ray cone of `test_cli.py`, whose dual Hilbert basis takes seconds.
"""

import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from lndkit.cli import main
from lndkit.cone import completeness_bound, dual_as_cone, is_pointed, make_cone
from lndkit.lattice import matrix_rank
from lndkit.toric import enumerate_roots
from test_caches import clear_caches

CORPUS = Path(__file__).parent / "data" / "cli_corpus.json"

# (l0, l1, l2): every ring of test_trinomial.py, the README's ring first,
# then a five-plain, three-power ring whose replica lists grow fast
RINGS = (
    ((), (1, 2), (2, 3)),
    ((), (1, 1, 2, 2, 7), (3,)),
    ((2,), (1, 2), (2,)),
    ((), (2, 3), (2,)),
    ((), (1, 2), (1,)),
    ((), (1, 2), (2, 1)),
    ((1,), (2,), (3,)),
    ((2,), (1, 2), (3,)),
    ((2,), (3,), (5, 1)),
    ((2,), (2,), (3,)),
    ((2, 4), (2, 6), (3,)),
    ((3,), (2, 2), (2, 2)),
    ((2,), (3,), (5,)),
    ((), (2,), (2,)),
    ((), (3, 2), (5,)),
    ((2, 2), (4, 6), (3, 3)),
    ((4,), (2, 3), (6,)),
    ((), (1, 1), (2,)),
    ((), (1, 1, 2, 2), (2, 2)),
    ((), (1, 1, 2), (2, 2)),
    ((), (1, 1, 2), (2, 2, 3)),
    ((2,), (1, 3), (2,)),
    ((), (1, 1, 1, 2, 2), (2, 2, 3)),
)

FORMATS = ([], ["--format", "text"])

# malformed input, exit 2: (argv, stdin)
MALFORMED = (
    (["trinomial", "classify"], "not json"),
    (["trinomial", "classify"], '{"l1": [1, 2], "l2": [2, 3]'),
    (["trinomial", "rigid"], "[1, 2]"),
    (["trinomial", "rigid"], '{"l1": [1, 2]}'),
    (["trinomial", "lnds"], '{"l1": [1, "2"], "l2": [2]}'),
    (["trinomial", "lnds"], '{"l1": [true], "l2": [2]}'),
    (["trinomial", "classify"], '{"l1": [1, 2], "l2": [2.5]}'),
    (["trinomial", "classify"], '{"l0": 2, "l1": [1, 2], "l2": [2]}'),
    (["trinomial", "rigid"], '{"l1": [], "l2": [2]}'),
    (["trinomial", "rigid"], '{"l1": [1, 0], "l2": [2]}'),
    (["trinomial", "rigid"], '{"l1": [1, 2], "l2": [-2]}'),
    (["trinomial", "lnds", "--replica-degree", "-1"], '{"l1": [1, 2], "l2": [2, 3]}'),
    (["trinomial", "lnds", "--replica-degree", "x"], '{"l1": [1, 2], "l2": [2, 3]}'),
    (["trinomial", "lnds", "--replica", "1"], '{"l1": [1, 2], "l2": [2, 3]}'),
    (["trinomial", "classify", "--bound", "3"], '{"l1": [1, 2], "l2": [2, 3]}'),
    (["trinomial", "isotropy", "--replica-degree", "2"], '{"l1": [1, 1], "l2": [2]}'),
    (["trinomial", "isotropy", "--lnd", "1,2,3"], '{"l1": [1, 1, 2], "l2": [2, 2]}'),
    (["trinomial", "isotropy", "--lnd", "a"], '{"l1": [1, 1, 2], "l2": [2, 2]}'),
    (["trinomial", "isotropy", "--lnd", "3"], '{"l1": [1, 1, 2], "l2": [2, 2]}'),
    (["trinomial", "isotropy", "--lnd", "0,1"], '{"l1": [1, 1, 2], "l2": [2, 2]}'),
    (["trinomial", "isotropy", "--lnd", "1,3"], '{"l1": [1, 1, 2], "l2": [2, 2]}'),
    (["trinomial", "isotropy", "--replica", "0,0,1"], '{"l1": [1, 1, 2], "l2": [2, 2]}'),
    (["trinomial", "isotropy", "--replica", "0,0,a,1,0"], '{"l1": [1, 1, 2], "l2": [2, 2]}'),
    # derivation_for's ValueErrors: a moved variable, a negative exponent
    (["trinomial", "isotropy", "--replica", "1,0,0,0,1"], '{"l1": [1, 1, 2], "l2": [2, 2]}'),
    (["trinomial", "isotropy", "--replica", "0,0,0,1,0"], '{"l1": [1, 1, 2], "l2": [2, 2]}'),
    (["trinomial", "isotropy", "--replica", "0,1,-1,0,1"], '{"l1": [1, 1, 2], "l2": [2, 2]}'),
    (["trinomial", "isotropy", "--lnd", "2", "--replica", "0,1,0,0"],
     '{"l1": [1, 1, 2], "l2": [3]}'),
    (["trinomial"], '{"l1": [1, 2], "l2": [2, 3]}'),
    (["trinomial", "lnds", "--format", "yaml"], '{"l1": [1, 2], "l2": [2, 3]}'),
)


def _vec(v):
    return ",".join(map(str, v))


def _ring_json(l0, l1, l2):
    obj = {"l0": list(l0)} if l0 else {}
    obj.update(l1=list(l1), l2=list(l2))
    return json.dumps(obj)


def _lnd_choices(l0, l1, l2):
    """(--lnd value, moved x index, moved z index) of every elementary
    derivation, for a ring of the supported shape; [] for the others."""
    if l0 or 1 not in l1 or (len(l2) == 1 and l2[0] == 1) \
            or (len(l2) > 1 and 1 in l2):
        return []
    xs = [i for i, l in enumerate(l1) if l == 1]
    zs = list(range(len(l1), len(l1) + len(l2)))
    if len(zs) == 1:
        return [(str(a + 1), x, zs[0]) for a, x in enumerate(xs)]
    return [(f"{a + 1},{b + 1}", x, z)
            for a, x in enumerate(xs) for b, z in enumerate(zs)]


# (rank, rays) of cones with known answers: the README's and the CLI
# goldens', pointed full-dimensional ones first, then lower-dimensional ones
NAMED_CONES = (
    (3, ((0, 0, 1), (2, 0, 1), (0, 1, 1), (1, 1, 1))),
    (2, ((1, 0), (0, 1))),
    (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    (4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    (4, ((-1, 0, 1, 1), (0, -1, 1, 0), (0, 1, -1, -1), (1, 2, -1, -1))),
    (3, ((1, 0, -2), (2, -1, -2), (2, 1, 1))),
    (2, ((1, 0), (1, 3))),
    (4, ((1, 0, -1, 1), (2, -1, -2, 0), (0, -2, 0, 1))),
    (4, ((-1, -1, -2, 1), (-1, 0, -1, -1), (1, -2, 1, 1), (1, -2, 2, -1))),
    (3, ((1, 0, 0), (0, 1, 0))),
    (3, ((1, 1, 0),)),
)

NON_POINTED = (
    (2, ((1, 0), (-1, 0))),
    (3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0))),
    (3, ((1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1))),
)

# the calls README prints or names, each in its own form: (argv, cone)
README_CONE_CALLS = (
    (["cone", "isotropy", "--root", "1,2,-1", "--format", "text"], NAMED_CONES[0]),
    (["cone", "maximal", "--root", "2,1,2,-1", "--format", "text"], NAMED_CONES[4]),
    (["cone", "isotropy", "--root", "1,-2,1"], NAMED_CONES[5]),
    (["cone", "maximal", "--root", "-1,0,-2,-1", "--format", "text"], NAMED_CONES[7]),
    (["cone", "kernel", "--root", "-1,0,0"], NAMED_CONES[9]),
    (["cone", "maximal", "--root", "-1,0,0"], NAMED_CONES[9]),
)

# a hexagonal prism with an apex: the root's level classes hold 6, 6 and 1
# rays, so 6! 6! level-preserving permutations exceed the cap
_HEXAGON = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
PRISM = (4, tuple((a, b, h, 1) for h in (0, 1) for a, b in _HEXAGON) + ((0, 0, -1, 1),))


def _cone_json(rank, rays):
    return json.dumps({"rank": rank, "rays": [list(r) for r in rays]})


# malformed cone input and command lines, exit 2: (argv, stdin)
_SQUARE = '{"rank": 3, "rays": [[0,0,1],[2,0,1],[0,1,1],[1,1,1]]}'
MALFORMED_CONE = (
    (["cone", "roots"], "not json"),
    (["cone", "roots"], '{"rank": 3,\n  "rays": ['),
    (["cone", "roots"], "[" * 20000 + "]" * 20000),
    (["cone", "roots"], "[[0, 1]]"),
    (["cone", "roots"], '{"rays": [[1, 0]]}'),
    (["cone", "roots"], '{"rank": 0, "rays": []}'),
    (["cone", "roots"], '{"rank": true, "rays": [[1]]}'),
    (["cone", "roots"], '{"rank": 2, "rays": {"0": [1, 0]}}'),
    (["cone", "roots"], '{"rank": 2, "rays": [1, 2]}'),
    (["cone", "roots"], '{"rank": 2, "rays": [[1, 0.5]]}'),
    (["cone", "roots"], '{"rank": 2, "rays": [[1, false]]}'),
    (["cone", "roots"], '{"rank": 2, "rays": [[1, 0, 0]]}'),
    (["cone", "roots", "--in", "/no/such/cone.json"], ""),
    (["cone", "roots", "--bound", "x"], _SQUARE),
    (["cone", "roots", "--bound", "-1"], _SQUARE),
    (["cone", "roots", "--root", "1,2,-1"], _SQUARE),
    (["cone", "maximal"], _SQUARE),
    (["cone", "maximal", "--root", "1,2"], _SQUARE),
    (["cone", "maximal", "--root", "1,a,-1"], _SQUARE),
    (["cone", "maximal", "--root", "1,2,-1", "--root", "-1,0,1"], _SQUARE),
    (["cone", "commute", "--root", "1,2,-1"], _SQUARE),
    (["cone", "kernel", "--root", "1,2,-1", "--hilbert-bound", "-2"], _SQUARE),
    (["cone", "isotropy", "--root", "1,2,-1", "--cap", "-5"], _SQUARE),
    (["cone", "isotropy", "--root", "1,2,-1", "--lnd", "1"], _SQUARE),
    (["cone", "frobnicate"], _SQUARE),
    (["cone"], _SQUARE),
    (["cone", "roots", "--format", "yaml"], _SQUARE),
)

# odd but well-formed cones: an empty one, a zero ray, a huge entry and
# redundant, non-primitive generators
ODD_CONES = (
    (2, ()),
    (2, ((0, 0),)),
    (2, ((0, 0), (1, 0), (0, 1))),
    (2, ((10 ** 30, 1), (0, 1))),
    (3, ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1), (0, 0, 1))),
)


def _random_cones(rng, per_rank):
    """Pointed full-dimensional cones, per_rank each of rank 2, 3 and 4,
    with entries in [-2, 2], simplicial only in rank 2, whose roots in the
    box of radius 2 are few and whose dual Hilbert basis is cheap: its
    completeness radius is at most 14."""
    cones = []
    for rank in (2, 3, 4):
        drawn = 0
        while drawn < per_rank:
            rays = [tuple(rng.randint(-2, 2) for _ in range(rank))
                    for _ in range(rng.randint(rank, rank + 3))]
            if any(not any(r) for r in rays):
                continue
            cone = make_cone(rank, rays)
            if not is_pointed(cone) or matrix_rank(cone.rays) < rank \
                    or len(cone.rays) == rank > 2 \
                    or completeness_bound(dual_as_cone(cone)) > 14 \
                    or not 1 <= len(enumerate_roots(cone, 2)) <= 40:
                continue
            cones.append((rank, cone.rays))
            drawn += 1
    return cones


def cone_cases(seed=23):
    """[argv, stdin] pairs for every `cone` subcommand in both output forms:
    on each pointed cone, roots in the box of radius 2, then maximal,
    kernel and isotropy on a few of those roots, and commute on a few
    pairs; on each non-pointed cone, every subcommand's refusal; then the
    README calls, the odd cones, the malformed calls and the prism's
    permutation cap."""
    rng = random.Random(seed)
    cases = []
    for rank, rays in NAMED_CONES + tuple(_random_cones(rng, 8)):
        stdin = _cone_json(rank, rays)
        roots = [r.vector for r in enumerate_roots(make_cone(rank, rays), 2)]
        calls = [["cone", "roots", "--bound", "2"]]
        picked = rng.sample(roots, min(3, len(roots)))
        for e in picked:
            calls += [["cone", sub, "--root", _vec(e)]
                      for sub in ("maximal", "kernel", "isotropy")]
        for _ in range(min(2, len(roots) - 1)):
            a, b = rng.sample(roots, 2)
            calls.append(["cone", "commute", "--root", _vec(a), "--root", _vec(b)])
        zero = _vec((0,) * rank)
        calls += [["cone", "maximal", "--root", zero]]
        if picked:
            e = _vec(picked[0])
            calls += [["cone", "kernel", "--root", e, "--hilbert-bound", "1"],
                      ["cone", "isotropy", "--root", e, "--hilbert-bound", "0"],
                      ["cone", "isotropy", "--root", e, "--cap", "0"]]
        cases += [[argv + fmt, stdin] for argv in calls for fmt in FORMATS]
    for rank, rays in NON_POINTED:
        stdin = _cone_json(rank, rays)
        e = _vec((0,) * (rank - 1) + (-1,))
        calls = [["cone", "roots"], ["cone", "maximal", "--root", e],
                 ["cone", "commute", "--root", e, "--root", e],
                 ["cone", "kernel", "--root", e], ["cone", "isotropy", "--root", e]]
        cases += [[argv + fmt, stdin] for argv in calls for fmt in FORMATS]
    cases += [[argv, _cone_json(*cone)] for argv, cone in README_CONE_CALLS]
    for rank, rays in ODD_CONES:
        stdin = _cone_json(rank, rays)
        cases += [[["cone", "roots", "--bound", "1"], stdin],
                  [["cone", "maximal", "--root", _vec((-1,) + (0,) * (rank - 1))], stdin]]
    cases += [[argv, stdin] for argv, stdin in MALFORMED_CONE]
    cases += [[["cone", "isotropy", "--root", "0,0,1,0"] + fmt, _cone_json(*PRISM)]
              for fmt in FORMATS]
    return cases


def selftest_cases():
    """selftest with and without the injected fault, in both forms, and
    its malformed command lines."""
    cases = [[["selftest"] + fault + fmt, ""]
             for fault in ([], ["--fault", "pairing-sign"]) for fmt in FORMATS]
    cases += [[["selftest", "--fault", "pairing"], ""],
              [["selftest", "--in", "x.json"], ""]]
    return cases


def trinomial_cases(seed=11):
    """[argv, stdin] pairs: classify, rigid, lnds without and with
    --replica-degree 0-4, and isotropy (default, each --lnd, and random
    kernel-monomial --replica values) on every ring, in both output forms;
    then the malformed calls."""
    rng = random.Random(seed)
    cases = []
    for l0, l1, l2 in RINGS:
        ring = _ring_json(l0, l1, l2)
        n = len(l1) + len(l2)
        calls = [["trinomial", "classify"], ["trinomial", "rigid"],
                 ["trinomial", "lnds"], ["trinomial", "isotropy"]]
        calls += [["trinomial", "lnds", "--replica-degree", str(d)] for d in range(5)]
        for lnd, x, z in _lnd_choices(l0, l1, l2):
            calls.append(["trinomial", "isotropy", "--lnd", lnd])
            for _ in range(2):
                replica = [0 if i in (x, z) else rng.randint(0, 2) for i in range(n)]
                calls.append(["trinomial", "isotropy", "--lnd", lnd,
                              "--replica", _vec(replica)])
        cases += [[argv + fmt, ring] for argv in calls for fmt in FORMATS]
    cases += [[argv, stdin] for argv, stdin in MALFORMED]
    return cases


CASE_GROUPS = (trinomial_cases, cone_cases, selftest_cases)


def cli_corpus_cases():
    return [case for group in CASE_GROUPS for case in group()]


def run_case(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    # selftest seeds its generator from LNDKIT_SEED; the corpus holds the
    # bytes of the default seed, whatever the caller's environment says
    seed = os.environ.pop("LNDKIT_SEED", None)
    sys.stdin = io.StringIO(stdin_text)
    try:
        # a rejected command line is reported as JSON too, whatever the
        # terminal's width: no call may leave through SystemExit
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
        if seed is not None:
            os.environ["LNDKIT_SEED"] = seed
    return {"argv": argv, "stdin": stdin_text, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _answered(recorded, command):
    return {(r["argv"][1], r["code"]) for r in recorded
            if r["code"] != 2 and r["argv"][0] == command}


def _refusals(recorded, command):
    return {json.loads(r["stdout"])["message"] for r in recorded
            if r["code"] == 1 and r["argv"][0] == command}


def test_cli_corpus_draws_the_recorded_calls():
    recorded = json.loads(CORPUS.read_text())
    assert [[r["argv"], r["stdin"]] for r in recorded] == cli_corpus_cases()
    codes = [r["code"] for r in recorded]
    # the corpus covers verdicts, refusals and malformed input
    assert codes.count(0) > 1000 and codes.count(1) > 300 \
        and codes.count(2) >= len(MALFORMED) + len(MALFORMED_CONE)
    assert _answered(recorded, "trinomial") == {
        ("classify", 0), ("classify", 1), ("rigid", 0), ("lnds", 0), ("lnds", 1),
        ("isotropy", 0), ("isotropy", 1)}
    assert len(_refusals(recorded, "trinomial")) == 7
    assert any("--replica-degree" in r["argv"] and "text" in r["argv"] and r["code"] == 0
               for r in recorded)
    # every cone subcommand answers and refuses, in both forms
    assert _answered(recorded, "cone") == {
        (sub, code) for sub in ("roots", "maximal", "commute", "kernel", "isotropy")
        for code in (0, 1)}
    assert {(r["argv"][1], "text" in r["argv"]) for r in recorded
            if r["argv"][0] == "cone" and r["code"] == 0} == {
        (sub, text) for sub in ("roots", "maximal", "commute", "kernel", "isotropy")
        for text in (False, True)}
    assert len(_refusals(recorded, "cone")) == 6
    # non-maximal roots, whose witnesses come from a dual pair
    assert sum(r["argv"][:2] == ["cone", "maximal"] and r["code"] == 0
               and json.loads(r["stdout"])["witness"] is not None
               for r in recorded if "text" not in r["argv"]) > 30
    selftest = {tuple(r["argv"]): r for r in recorded if r["argv"][0] == "selftest"}
    assert selftest[("selftest",)]["code"] == 0
    faulty = json.loads(selftest[("selftest", "--fault", "pairing-sign")]["stdout"])
    assert {c["name"] for c in faulty["checks"] if not c["ok"]} == {
        "root_enumeration_golden", "commute_criterion_vs_symbolic"}


def test_cli_corpus_bytes():
    differ = [want["argv"] for want in json.loads(CORPUS.read_text())
              if run_case(want["argv"], want["stdin"]) != want]
    assert differ == []


def test_cone_answers_do_not_depend_on_the_cache_fill_order():
    # the cone calls fill the per-process caches in corpus order, from cold;
    # a second pass in reverse order reads them warm and prints the same bytes
    clear_caches()
    recorded = [r for r in json.loads(CORPUS.read_text()) if r["argv"][:2] in (
        ["cone", "maximal"], ["cone", "commute"], ["cone", "isotropy"])]
    assert len(recorded) > 300
    for order in (recorded, recorded[::-1]):
        differ = [want["argv"] for want in order
                  if run_case(want["argv"], want["stdin"]) != want]
        assert differ == []


if __name__ == "__main__":
    CORPUS.write_text(json.dumps([run_case(argv, stdin)
                                  for argv, stdin in cli_corpus_cases()], indent=1) + "\n")
