"""The per-process caches: which functions keep one, and what a warm call
still computes.

Whatever depends on a cone alone is cached: its double description, its
Hilbert bases and each ray's neighbour table. A second question on the
same cone reads them and runs no Smith elimination, no rank test and no
row reduction for the dual's lines. Each work-count test clears the caches
first, so that its first call is cold whatever ran before it.
"""

import ast
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from lndkit import cli, cone as C, toric
from lndkit.cli import main
from lndkit.cone import make_cone
from lndkit.errors import RefusalError
from lndkit.toric import (
    construct_commuting_pair,
    is_maximal,
    kernel_of_root,
    require_root,
    symbolic_commute_check,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "lndkit"

# Every cache must be cleared by toric-sweep's `clear_caches` when it lies
# on that workload's cold query path. A new cache fails this pin until it
# has been checked against that premise.
CACHED = {"cone.dual_cone", "cone.hilbert_basis", "toric._neighbour_pairs",
          "cli._build_parser"}
CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}
MODULES = {"cone": C, "toric": toric, "cli": cli}


def cached_function(qualified):
    module, name = qualified.split(".")
    return getattr(MODULES[module], name)


def cached_definitions():
    """module.name of every function in src/lndkit under a caching
    decorator, at any depth."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    dec = dec.func if isinstance(dec, ast.Call) else dec
                    name = dec.attr if isinstance(dec, ast.Attribute) else dec.id
                    if name in CACHE_DECORATORS:
                        found.add(f"{path.stem}.{node.name}")
    return found


def test_the_cached_functions_are_pinned():
    assert cached_definitions() == CACHED
    for qualified in CACHED:
        assert hasattr(cached_function(qualified), "cache_clear"), qualified


def test_a_new_cache_is_seen_at_any_depth(tmp_path, monkeypatch):
    (tmp_path / "extra.py").write_text(
        "import functools\nfrom functools import lru_cache\n"
        "class A:\n    @functools.cached_property\n    def x(self): return 1\n"
        "def f():\n    @lru_cache(maxsize=8)\n    def g(): return 2\n")
    monkeypatch.setattr(f"{__name__}.SRC", tmp_path)
    assert cached_definitions() == {"extra.x", "extra.g"}


def clear_caches():
    for qualified in CACHED:
        cached_function(qualified).cache_clear()


@pytest.fixture
def counts(monkeypatch):
    """Calls of the Smith elimination behind the dual pairs, of the rank
    test, and of the row reduction behind a cone's orthogonal vector."""
    tally = {"smith": 0, "rank": 0, "row_reduce": 0}

    def counting(key, fn):
        def wrapped(*args):
            tally[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(toric, "solve_dual_pair",
                        counting("smith", toric.solve_dual_pair))
    monkeypatch.setattr(C, "matrix_rank", counting("rank", C.matrix_rank))
    monkeypatch.setattr(C, "row_reduce", counting("row_reduce", C.row_reduce))
    clear_caches()

    def take():
        got = dict(tally)
        for key in tally:
            tally[key] = 0
        return got

    return take


# a pointed cone with a non-maximal root on its first ray, and a redundant
# generator, so make_cone's cache key differs from the cone it returns
CONE = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1))
ROOT = (-1, 0, 0)


def test_a_warm_is_maximal_runs_no_elimination(counts):
    cone = make_cone(3, CONE)
    root = require_root(cone, ROOT)
    first = is_maximal(cone, root)
    cold = counts()
    assert cold["smith"] == len(first.neighbours) > 0 and cold["rank"] > 0
    assert not first.maximal
    for _ in range(2):
        assert is_maximal(cone, root) == first
        assert counts() == {"smith": 0, "rank": 0, "row_reduce": 0}


def test_a_warm_cone_maximal_call_runs_no_elimination(counts, tmp_path):
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"rank": 3, "rays": [list(r) for r in CONE]}))
    argv = ["cone", "maximal", "--in", str(path), "--root", "-1,0,0"]

    def call():
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0
        return out.getvalue()

    first = call()
    cold = counts()
    assert cold["smith"] > 0 and cold["rank"] > 0
    assert json.loads(first)["witness"] is not None
    assert call() == first
    assert counts() == {"smith": 0, "rank": 0, "row_reduce": 0}


def test_a_warm_commuting_pair_runs_no_elimination(counts):
    cone = make_cone(3, CONE)
    pair = construct_commuting_pair(cone)
    assert counts()["smith"] > 0
    assert construct_commuting_pair(cone) == pair
    assert counts() == {"smith": 0, "rank": 0, "row_reduce": 0}


def test_lines_are_read_off_the_cache(counts):
    # the double description counts the dual's lines and its dimension, so
    # neither the dual of a full-dimensional cone nor the Hilbert basis of
    # a pointed one pays a row reduction to look for a line, even cold
    cone = make_cone(3, CONE)
    a, b = require_root(cone, ROOT), require_root(cone, (0, -1, 0))
    kernel_of_root(cone, a)
    symbolic_commute_check(cone, a, b)
    assert counts()["row_reduce"] == 0
    # a refusal still solves for its line
    with pytest.raises(RefusalError) as info:
        C.dual_as_cone(make_cone(3, [(1, 0, 0), (0, 1, 0)]))
    assert info.value.witness == {"dual_lineality": [0, 0, 1]}
    assert counts()["row_reduce"] == 1
