"""Byte corpus of the `lndkit` CLI.

`tests/data/cli_corpus.json` holds the exit code, stdout and stderr of
every call that `cli_corpus_cases()` draws. The test replays each call and
asserts the same bytes, so a change that means to keep the CLI's output
proves it by passing, and a change that means to alter it records the file
again and lists the calls that changed. To record the file again:

    PYTHONPATH=src python tests/test_cli_corpus.py

The cases come in groups, one function per group in `CASE_GROUPS`. Only the
`trinomial` subcommands are covered so far; `cone` and `selftest` calls
belong in groups of their own, appended to `CASE_GROUPS`.
"""

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from lndkit.cli import main

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


CASE_GROUPS = (trinomial_cases,)


def cli_corpus_cases():
    return [case for group in CASE_GROUPS for case in group()]


def run_case(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        # a rejected command line is reported as JSON too, whatever the
        # terminal's width: no call may leave through SystemExit
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return {"argv": argv, "stdin": stdin_text, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_corpus_draws_the_recorded_calls():
    recorded = json.loads(CORPUS.read_text())
    assert [[r["argv"], r["stdin"]] for r in recorded] == cli_corpus_cases()
    codes = [r["code"] for r in recorded]
    # the corpus covers verdicts, refusals and malformed input
    assert codes.count(0) > 150 and codes.count(1) > 50 and codes.count(2) >= len(MALFORMED)
    answered = {(r["argv"][1], r["code"]) for r in recorded
                if r["code"] != 2 and r["argv"][0] == "trinomial"}
    assert answered == {("classify", 0), ("classify", 1), ("rigid", 0),
                        ("lnds", 0), ("lnds", 1), ("isotropy", 0), ("isotropy", 1)}
    refusals = {json.loads(r["stdout"])["message"] for r in recorded if r["code"] == 1}
    assert len(refusals) == 7
    assert any("--replica-degree" in r["argv"] and "text" in r["argv"] and r["code"] == 0
               for r in recorded)


def test_cli_corpus_bytes():
    differ = [want["argv"] for want in json.loads(CORPUS.read_text())
              if run_case(want["argv"], want["stdin"]) != want]
    assert differ == []


if __name__ == "__main__":
    CORPUS.write_text(json.dumps([run_case(argv, stdin)
                                  for argv, stdin in cli_corpus_cases()], indent=1) + "\n")
