"""Byte corpus of `lndkit exp`.

`tests/data/exp_corpus.json` holds the exit code, stdout and stderr of
every call that `exp_corpus_cases()` draws, as printed by the code before
`exponential` read its coefficients off plain per-power sums. The test
replays each call and asserts the same bytes. To record the file again:

    PYTHONPATH=src python tests/test_exp_corpus.py
"""

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from lndkit.cli import main

CORPUS = Path(__file__).parent / "data" / "exp_corpus.json"

# (input JSON, [(--lnd value, moved x index, moved z index)])
RINGS = (
    ('{"l1": [1, 2], "l2": [2, 3]}',                       # multi_z
     [("1,1", 0, 2), ("1,2", 0, 3)]),
    ('{"l1": [1, 1, 2], "l2": [2, 2]}',                    # multi_z
     [("1,1", 0, 3), ("2,2", 1, 4), ("1,2", 0, 4)]),
    ('{"l1": [1, 1], "l2": [2, 3]}',                       # multi_z, no y
     [("1,1", 0, 2), ("2,2", 1, 3)]),
    ('{"l1": [1, 1, 2, 2, 7], "l2": [3]}',                 # single_z
     [("1", 0, 5), ("2", 1, 5)]),
    ('{"l1": [1, 3], "l2": [2]}',                          # single_z
     [("1", 0, 2)]),
)
SQUARE = '{"rank": 3, "rays": [[0,0,1],[2,0,1],[0,1,1],[1,1,1]]}'
SQUARE_ROOTS = ("1,1,-1", "2,2,-1", "1,-2,1", "2,-1,0", "-1,-2,2",
                "-1,0,1", "-1,2,1")


def _vec(v):
    return ",".join(map(str, v))


def _format(rng):
    return ["--format", "text"] if rng.random() < 0.4 else []


def _cap(rng):
    return ["--cap", str(rng.choice((0, 1, 2, 3)))] if rng.random() < 0.25 else []


def exp_corpus_cases(seed=7, per_ring=24, cone_cases=30):
    """[argv, stdin] pairs: trinomial monomials of degree at most 8, with and
    without --replica, and monomials of the square cone's semigroup under
    its roots; about a quarter carry a small --cap, and some of those trip."""
    rng = random.Random(seed)
    cases = []
    for ring, lnds in RINGS:
        n = len(json.loads(ring)["l1"]) + len(json.loads(ring)["l2"])
        for _ in range(per_ring):
            lnd, x, z = rng.choice(lnds)
            weight = [0] * n
            for _ in range(rng.randint(1, 8)):
                weight[rng.randrange(n)] += 1
            argv = ["exp", "--lnd", lnd, "--weight", _vec(weight)]
            if rng.random() < 0.4:
                replica = [0 if i in (x, z) else rng.randint(0, 1) for i in range(n)]
                argv += ["--replica", _vec(replica)]
            cases.append([argv + _format(rng) + _cap(rng), ring])
    rays = json.loads(SQUARE)["rays"]
    while len(cases) < len(RINGS) * per_ring + cone_cases:
        weight = [rng.randint(-2, 3) for _ in range(3)]
        if any(sum(a * b for a, b in zip(weight, r)) < 0 for r in rays):
            continue
        argv = ["exp", "--root", rng.choice(SQUARE_ROOTS), "--weight", _vec(weight)]
        cases.append([argv + _format(rng) + _cap(rng), SQUARE])
    return cases


def run_case(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return {"argv": argv, "stdin": stdin_text, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_exp_corpus_draws_the_recorded_calls():
    recorded = json.loads(CORPUS.read_text())
    assert [[r["argv"], r["stdin"]] for r in recorded] == exp_corpus_cases()
    codes = [r["code"] for r in recorded]
    # the corpus covers answers, tripped caps and both output forms
    assert codes.count(0) > 100 and codes.count(1) >= 10
    assert any("--replica" in r["argv"] and r["code"] == 0 for r in recorded)
    assert any("text" in r["argv"] and r["code"] == 0 for r in recorded)
    assert any("--root" in r["argv"] and r["code"] == 1 and '"cap"' in r["stdout"]
               for r in recorded)


def test_exp_corpus_bytes():
    differ = [want["argv"] for want in json.loads(CORPUS.read_text())
              if run_case(want["argv"], want["stdin"]) != want]
    assert differ == []


if __name__ == "__main__":
    CORPUS.write_text(json.dumps([run_case(argv, stdin)
                                  for argv, stdin in exp_corpus_cases()], indent=1) + "\n")
