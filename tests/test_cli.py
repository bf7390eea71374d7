"""End-to-end checks of the command line front end.

Each test drives main() directly and inspects exit status, stdout and
stderr. Output must be byte-deterministic, so several tests run a command
twice and compare raw bytes.
"""

import io
import json
from time import perf_counter

import pytest

from lndkit.cli import main
from lndkit.cone import dual_cone, hilbert_basis, make_cone
from lndkit.lattice import pairing
from lndkit.toric import lnds_commute, require_root, roots_equivalent

SQUARE_JSON = '{"rank": 3, "rays": [[0,0,1],[2,0,1],[0,1,1],[1,1,1]]}'
ORTHANT2_JSON = '{"rank": 2, "rays": [[1,0],[0,1]]}'
SPLIT_JSON = '{"l1": [1, 2], "l2": [2, 3]}'
WIDE_SPLIT_JSON = '{"l1": [1, 1, 2], "l2": [2, 2]}'
SINGLE_JSON = '{"l1": [1, 1, 2, 2, 7], "l2": [3]}'

GOLDEN_ROOTS = [
    (0, (1, 1, -1)), (0, (1, 2, -1)), (0, (2, 1, -1)), (0, (2, 2, -1)),
    (1, (1, -2, 1)), (1, (1, -1, 0)), (1, (2, -2, 1)), (1, (2, -1, 0)),
    (2, (-1, -2, 2)),
    (3, (-1, 0, 1)), (3, (-1, 1, 1)), (3, (-1, 2, 1)),
]


@pytest.fixture
def invoke(monkeypatch, capsys):
    def run(argv, stdin_text=None):
        if stdin_text is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return run


def test_cone_roots_golden(invoke):
    code, out, err = invoke(["cone", "roots", "--bound", "2"], SQUARE_JSON)
    assert code == 0 and err == ""
    data = json.loads(out)
    got = [(r["ray_index"], tuple(r["vector"])) for r in data["roots"]]
    assert got == GOLDEN_ROOTS
    assert data["bound"] == 2


def test_cone_roots_byte_deterministic(invoke):
    first = invoke(["cone", "roots", "--bound", "2"], SQUARE_JSON)
    second = invoke(["cone", "roots", "--bound", "2"], SQUARE_JSON)
    assert first == second


def test_cone_maximal_positive(invoke):
    code, out, _ = invoke(["cone", "maximal", "--root", "1,2,-1"], SQUARE_JSON)
    assert code == 0
    data = json.loads(out)
    assert data["maximal"] is True
    assert data["neighbours"] == [[0, 1, 1]]
    assert data["witness"] is None


def test_cone_maximal_negative_carries_witness(invoke):
    code, out, _ = invoke(["cone", "maximal", "--root", "-1,0"],
                          ORTHANT2_JSON)
    assert code == 0
    data = json.loads(out)
    assert data["maximal"] is False
    witness = data["witness"]
    assert witness is not None and witness["ray"] == [0, 1]


def test_cone_commute_negative_vector_flag(invoke):
    code, out, _ = invoke(
        ["cone", "commute", "--root", "1,2,-1", "--root", "-1,0,1"],
        SQUARE_JSON)
    assert code == 0
    data = json.loads(out)
    assert data["commute"] is False
    assert data["criterion"] == data["symbolic"] is False
    assert data["equivalent"] is False


def test_cone_commute_same_ray(invoke):
    code, out, _ = invoke(
        ["cone", "commute", "--root", "1,2,-1", "--root", "2,1,-1"],
        SQUARE_JSON)
    assert code == 0
    data = json.loads(out)
    assert data["commute"] is True and data["equivalent"] is True


def test_cone_commute_on_a_cone_with_a_huge_dual_box(invoke):
    # the dual of this cone has a Hilbert box of 68.6 M points; the symbolic
    # check reads only the dual's generators, so it answers at once
    cone = ('{"rank": 4, "rays": [[-2,2,2,1],[-1,-1,-1,2],[1,1,-1,1],'
            '[2,-1,0,1],[2,0,-2,1]]}')
    start = perf_counter()
    code, out, err = invoke(
        ["cone", "commute", "--root", "-1,-1,-1,1", "--root", "0,-1,0,1"], cone)
    assert perf_counter() - start < 5
    assert code == 0 and err == ""
    ray = {"ray": [-2, 2, 2, 1], "ray_index": 0}
    assert out == json.dumps({
        "commute": True,
        "criterion": True,
        "equivalent": True,
        "roots": [dict(ray, vector=[-1, -1, -1, 1]), dict(ray, vector=[0, -1, 0, 1])],
        "symbolic": True,
    }, sort_keys=True, indent=2) + "\n"


def test_cone_commute_needs_two_roots(invoke):
    code, out, err = invoke(["cone", "commute", "--root", "1,2,-1"],
                            SQUARE_JSON)
    assert code == 2 and out == ""
    assert "two" in json.loads(err)["error"]


def test_cone_kernel_golden(invoke):
    code, out, _ = invoke(["cone", "kernel", "--root", "1,2,-1"], SQUARE_JSON)
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == [[0, 1, 0], [1, 0, 0]]
    assert data["complete"] is True


def test_cone_isotropy_golden(invoke):
    code, out, _ = invoke(["cone", "isotropy", "--root", "1,2,-1"],
                          SQUARE_JSON)
    assert code == 0
    data = json.loads(out)
    assert data["maximal"] is True
    assert data["torus"] == {"rank": 2, "torsion": []}
    assert data["symmetry_order"] == 1
    assert data["symmetry_matrices"] == [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    assert data["slice"] == [0, 0, 1]
    assert data["kernel_generators"] == [[0, 1, 0], [1, 0, 0]]


def test_cone_isotropy_partial_kernel_refused(invoke):
    # the kernel of -1,0 is generated by [0, 1]; a Hilbert bound of 0 finds
    # none of it, so the report must refuse rather than print []
    code, out, _ = invoke(["cone", "isotropy", "--root", "-1,0",
                           "--hilbert-bound", "0"], ORTHANT2_JSON)
    assert code == 1
    data = json.loads(out)
    assert data["refused"] is True and data["cap"] == 0


ORTHANT3_JSON = '{"rank": 3, "rays": [[1,0,0],[0,1,0],[0,0,1]]}'
ORTHANT4_JSON = ('{"rank": 4, "rays": [[1,0,0,0],[0,1,0,0],[0,0,1,0],'
                 '[0,0,0,1]]}')


def test_cone_isotropy_orthant3_text_golden(invoke):
    # the symmetries fixing e1 swap e2 and e3
    code, out, err = invoke(["cone", "isotropy", "--root", "-1,0,0",
                             "--format", "text"], ORTHANT3_JSON)
    assert code == 0 and err == ""
    assert out == ("kernel_generators:\n"
                   "  - [0, 0, 1]\n"
                   "  - [0, 1, 0]\n"
                   "maximal: false\n"
                   "root:\n"
                   "  ray: [1, 0, 0]\n"
                   "  ray_index: 2\n"
                   "  vector: [-1, 0, 0]\n"
                   "slice: [1, 0, 0]\n"
                   "symmetry_matrices:\n"
                   "  -\n"
                   "    - [1, 0, 0]\n"
                   "    - [0, 0, 1]\n"
                   "    - [0, 1, 0]\n"
                   "  -\n"
                   "    - [1, 0, 0]\n"
                   "    - [0, 1, 0]\n"
                   "    - [0, 0, 1]\n"
                   "symmetry_order: 2\n"
                   "torus:\n"
                   "  rank: 2\n"
                   "  torsion: []\n"
                   "witness:\n"
                   "  ray: [0, 0, 1]\n"
                   "  ray_index: 0\n"
                   "  vector: [0, 0, -1]\n")


def test_cone_isotropy_orthant4_text_golden(invoke):
    # the symmetries fixing e1 permute e2, e3 and e4: all 3! of them
    code, out, err = invoke(["cone", "isotropy", "--root", "-1,0,0,0",
                             "--format", "text"], ORTHANT4_JSON)
    assert code == 0 and err == ""
    assert out == ("kernel_generators:\n"
                   "  - [0, 0, 0, 1]\n"
                   "  - [0, 0, 1, 0]\n"
                   "  - [0, 1, 0, 0]\n"
                   "maximal: false\n"
                   "root:\n"
                   "  ray: [1, 0, 0, 0]\n"
                   "  ray_index: 3\n"
                   "  vector: [-1, 0, 0, 0]\n"
                   "slice: [1, 0, 0, 0]\n"
                   "symmetry_matrices:\n"
                   "  -\n"
                   "    - [1, 0, 0, 0]\n"
                   "    - [0, 0, 0, 1]\n"
                   "    - [0, 0, 1, 0]\n"
                   "    - [0, 1, 0, 0]\n"
                   "  -\n"
                   "    - [1, 0, 0, 0]\n"
                   "    - [0, 0, 0, 1]\n"
                   "    - [0, 1, 0, 0]\n"
                   "    - [0, 0, 1, 0]\n"
                   "  -\n"
                   "    - [1, 0, 0, 0]\n"
                   "    - [0, 0, 1, 0]\n"
                   "    - [0, 0, 0, 1]\n"
                   "    - [0, 1, 0, 0]\n"
                   "  -\n"
                   "    - [1, 0, 0, 0]\n"
                   "    - [0, 0, 1, 0]\n"
                   "    - [0, 1, 0, 0]\n"
                   "    - [0, 0, 0, 1]\n"
                   "  -\n"
                   "    - [1, 0, 0, 0]\n"
                   "    - [0, 1, 0, 0]\n"
                   "    - [0, 0, 0, 1]\n"
                   "    - [0, 0, 1, 0]\n"
                   "  -\n"
                   "    - [1, 0, 0, 0]\n"
                   "    - [0, 1, 0, 0]\n"
                   "    - [0, 0, 1, 0]\n"
                   "    - [0, 0, 0, 1]\n"
                   "symmetry_order: 6\n"
                   "torus:\n"
                   "  rank: 3\n"
                   "  torsion: []\n"
                   "witness:\n"
                   "  ray: [0, 0, 0, 1]\n"
                   "  ray_index: 0\n"
                   "  vector: [0, 0, 0, -1]\n")


def test_cone_isotropy_answers_where_the_basis_search_hit_its_cap(invoke):
    # the 16 dual Hilbert basis elements fall into level classes of sizes
    # 8, 5, 2 and 1 against the ray (1, 0, -2): 8! 5! 2! basis permutations,
    # far over the cap of 40320. The three rays pair -1, 2 and 1 with the
    # root, so the one ray permutation to try is the identity.
    cone = '{"rank": 3, "rays": [[1,0,-2],[2,-1,-2],[2,1,1]]}'
    code, out, err = invoke(["cone", "isotropy", "--root", "1,-2,1"], cone)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["symmetry_order"] == 1
    assert data["symmetry_matrices"] == [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    assert data["root"] == {"ray": [1, 0, -2], "ray_index": 0,
                            "vector": [1, -2, 1]}


def test_cone_lineality_refusal_pinned(invoke):
    code, out, err = invoke(["cone", "maximal", "--root", "0,1"],
                            '{"rank": 2, "rays": [[1, 0], [-1, 0]]}')
    assert code == 1 and err == ""
    assert out == (
        '{\n'
        '  "message": "cone is not pointed, so the toric theory here does '
        'not apply",\n'
        '  "refused": true,\n'
        '  "witness": {\n'
        '    "lineality": [\n'
        '      1,\n'
        '      0\n'
        '    ]\n'
        '  }\n'
        '}\n')


SUM_WALK4_JSON = ('{"rank": 4, "rays": [[-1,0,1,1],[0,-1,1,0],'
                  '[0,1,-1,-1],[1,2,-1,-1]]}')


def test_cone_maximal_witness_golden(invoke):
    # the partner walks along the sum of the dual generators vanishing on
    # both rays, which pins this witness, one step (k = 1) from the dual
    # pair's character; a walk along the Fourier-Motzkin functional ends
    # at (1, 0, 3, -2) instead
    code, out, err = invoke(["cone", "maximal", "--root", "2,1,2,-1",
                             "--format", "text"], SUM_WALK4_JSON)
    assert code == 0 and err == ""
    assert out == ("maximal: false\n"
                   "neighbours:\n"
                   "  - [0, -1, 1, 0]\n"
                   "  - [0, 1, -1, -1]\n"
                   "root:\n"
                   "  ray: [-1, 0, 1, 1]\n"
                   "  ray_index: 0\n"
                   "  vector: [2, 1, 2, -1]\n"
                   "witness:\n"
                   "  ray: [0, 1, -1, -1]\n"
                   "  ray_index: 2\n"
                   "  vector: [1, 0, 2, -1]\n")
    # replayed: a root on a neighbour ray, commuting and inequivalent
    code, out, err = invoke(["cone", "commute", "--root", "2,1,2,-1",
                             "--root", "1,0,2,-1"], SUM_WALK4_JSON)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["commute"] and data["criterion"] and data["symbolic"]
    assert data["equivalent"] is False
    assert data["roots"][1]["ray"] == [0, 1, -1, -1]


def test_cone_maximal_witness_on_a_lower_dimensional_cone_golden(invoke):
    # the dual of this 3-dimensional cone in Z^4 holds a line; both its
    # directions vanish on the two rays and cancel in the functional the
    # partner walks along, which pins this witness. The double description
    # without lines gave the same ray a larger one, (1, -2, -2, -4)
    cone = '{"rank": 4, "rays": [[1,0,-1,1],[2,-1,-2,0],[0,-2,0,1]]}'
    code, out, err = invoke(["cone", "maximal", "--root", "-1,0,-2,-1",
                             "--format", "text"], cone)
    assert code == 0 and err == ""
    assert out == ("maximal: false\n"
                   "neighbours:\n"
                   "  - [1, 0, -1, 1]\n"
                   "  - [2, -1, -2, 0]\n"
                   "root:\n"
                   "  ray: [0, -2, 0, 1]\n"
                   "  ray_index: 0\n"
                   "  vector: [-1, 0, -2, -1]\n"
                   "witness:\n"
                   "  ray: [1, 0, -1, 1]\n"
                   "  ray_index: 1\n"
                   "  vector: [1, -1, 0, -2]\n")
    # replayed: `cone commute` refuses a lower-dimensional cone, so the
    # criterion is asked directly
    rays = [(1, 0, -1, 1), (2, -1, -2, 0), (0, -2, 0, 1)]
    c = make_cone(4, rays)
    root = require_root(c, (-1, 0, -2, -1))
    partner = require_root(c, (1, -1, 0, -2))
    assert partner.ray == (1, 0, -1, 1)
    assert lnds_commute(root, partner) and not roots_equivalent(root, partner)


def test_cone_kernel_of_a_six_ray_cone_golden(invoke):
    # the kernel face is a facet of the dual; its own dual is the face's
    # line and one ray per facet, so the box scan has six rows
    rays = [(0, -1, -2, 2), (-2, 1, -1, -1), (2, -2, -2, 2), (1, 1, -2, -1),
            (-2, 0, 2, -1), (-2, 0, 1, -1)]
    cone = json.dumps({"rank": 4, "rays": [list(r) for r in rays]})
    start = perf_counter()
    code, out, err = invoke(["cone", "kernel", "--root", "-2,-1,-2,1"], cone)
    assert perf_counter() - start < 5
    assert code == 0 and err == ""
    generators = [[-3, 1, -2, 2], [-1, -9, -3, -4], [-1, -5, -2, -2],
                  [-1, -2, -3, -4], [-1, -1, -2, -2], [-1, -1, -1, 0],
                  [-1, 0, -1, 0], [0, -3, -1, -2], [0, -2, -1, -2],
                  [1, -12, -4, -10]]
    assert out == json.dumps({
        "complete": True,
        "generators": generators,
        "root": {"ray": [-2, 0, 2, -1], "ray_index": 0, "vector": [-2, -1, -2, 1]},
    }, sort_keys=True, indent=2) + "\n"
    # the kernel is the level-zero part of the dual's Hilbert basis
    c = make_cone(4, rays)
    basis = hilbert_basis(make_cone(4, dual_cone(c).generators)).elements
    assert [list(h) for h in basis if pairing(h, (-2, 0, 2, -1)) == 0] == generators


FLAT4_JSON = ('{"rank": 4, "rays": [[-1,-1,-2,1],[-1,0,-1,-1],'
              '[1,-2,1,1],[1,-2,2,-1]]}')


@pytest.mark.parametrize("argv", [
    ["cone", "commute", "--root", "-2,-2,2,-1", "--root", "1,0,-1,0"],
    ["cone", "isotropy", "--root", "-2,-2,2,-1"],
    ["cone", "kernel", "--root", "-2,-2,2,-1"],
])
def test_cone_lower_dimensional_refusal_pinned(invoke, argv):
    code, out, err = invoke(argv, FLAT4_JSON)
    assert code == 1 and err == ""
    assert out == (
        '{\n'
        '  "message": "cone is not full-dimensional, so its dual contains a '
        'line and the dual semigroup has no Hilbert basis",\n'
        '  "refused": true,\n'
        '  "witness": {\n'
        '    "dual_lineality": [\n'
        '      -3,\n'
        '      0,\n'
        '      2,\n'
        '      1\n'
        '    ]\n'
        '  }\n'
        '}\n')


def test_cone_nonroot_refused(invoke):
    code, out, err = invoke(["cone", "maximal", "--root", "0,0,1"],
                            SQUARE_JSON)
    assert code == 1 and err == ""
    data = json.loads(out)
    assert data["refused"] is True
    assert data["witness"]["pairings"] == [1, 1, 1, 1]


def test_text_format_kernel(invoke):
    code, out, _ = invoke(
        ["cone", "kernel", "--root", "1,2,-1", "--format", "text"],
        SQUARE_JSON)
    assert code == 0
    assert out == ("complete: true\n"
                   "generators:\n"
                   "  - [0, 1, 0]\n"
                   "  - [1, 0, 0]\n"
                   "root:\n"
                   "  ray: [0, 0, 1]\n"
                   "  ray_index: 0\n"
                   "  vector: [1, 2, -1]\n")


def test_input_file_flag(invoke, tmp_path):
    path = tmp_path / "cone.json"
    path.write_text(SQUARE_JSON)
    code, out, _ = invoke(["cone", "kernel", "--in", str(path),
                           "--root", "1,2,-1"])
    assert code == 0
    assert json.loads(out)["complete"] is True


def test_missing_input_file(invoke):
    code, out, err = invoke(["cone", "roots", "--in", "/no/such/file.json"])
    assert code == 2 and out == ""
    assert "cannot read" in json.loads(err)["error"]


def test_malformed_json_reports_position(invoke):
    code, out, err = invoke(["cone", "roots"], '{"rank": 3,\n  "rays": [')
    assert code == 2 and out == ""
    data = json.loads(err)
    assert data["position"]["line"] == 2


def test_deeply_nested_json_is_an_input_error(invoke):
    code, out, err = invoke(["cone", "roots"], "[" * 200000 + "]" * 200000)
    assert code == 2 and out == ""
    data = json.loads(err)
    assert data == {"error": "JSON in <stdin> is nested too deeply",
                    "position": None}


def test_bad_vector_length(invoke):
    code, _, err = invoke(["cone", "maximal", "--root", "1,2"], SQUARE_JSON)
    assert code == 2
    assert json.loads(err)["position"] == "--root"


@pytest.mark.parametrize("argv,stdin_text,flag", [
    (["cone", "roots", "--bound", "-1"], SQUARE_JSON, "--bound"),
    (["cone", "kernel", "--root", "1,2,-1", "--hilbert-bound", "-2"],
     SQUARE_JSON, "--hilbert-bound"),
    (["cone", "isotropy", "--root", "1,2,-1", "--cap", "-5"], SQUARE_JSON,
     "--cap"),
    (["exp", "--root", "1,2,-1", "--weight", "0,0,2", "--cap", "-1"],
     SQUARE_JSON, "--cap"),
    (["trinomial", "lnds", "--replica-degree", "-1"], SPLIT_JSON,
     "--replica-degree"),
])
def test_negative_search_size_rejected(invoke, argv, stdin_text, flag):
    code, out, err = invoke(argv, stdin_text)
    assert code == 2 and out == ""
    assert json.loads(err)["position"] == flag


@pytest.mark.parametrize("argv,stdin_text", [
    (["cone", "roots", "--root", "1,2,-1"], SQUARE_JSON),
    (["cone", "roots", "--cap", "3"], SQUARE_JSON),
    (["cone", "maximal", "--root", "1,2,-1", "--bound", "2"], SQUARE_JSON),
    (["cone", "maximal", "--root", "1,2,-1", "--hilbert-bound", "2"],
     SQUARE_JSON),
    (["cone", "commute", "--root", "1,2,-1", "--root", "-1,0,1", "--cap",
      "3"], SQUARE_JSON),
    (["cone", "kernel", "--root", "1,2,-1", "--cap", "3"], SQUARE_JSON),
    (["cone", "kernel", "--root", "1,2,-1", "--bound", "2"], SQUARE_JSON),
    (["cone", "isotropy", "--root", "1,2,-1", "--bound", "2"], SQUARE_JSON),
    (["trinomial", "classify", "--lnd", "1"], SPLIT_JSON),
    (["trinomial", "rigid", "--replica-degree", "1"], SPLIT_JSON),
    (["trinomial", "lnds", "--replica", "9,9,9,9"], SPLIT_JSON),
    (["trinomial", "lnds", "--lnd", "7"], SPLIT_JSON),
    (["trinomial", "lnds", "--replica", "2"], SPLIT_JSON),
    (["exp", "--root", "1,2,-1", "--weight", "0,0,2", "--form", "text"],
     SQUARE_JSON),
    (["trinomial", "isotropy", "--replica-degree", "1"], SINGLE_JSON),
])
def test_unread_flag_rejected(invoke, argv, stdin_text):
    code, out, err = invoke(argv, stdin_text)
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["position"] is None
    assert report["error"].startswith("unrecognized arguments: ")


@pytest.mark.parametrize("argv,stdin_text,flag", [
    (["exp", "--root", "1,2,-1", "--weight", "0,0,2", "--lnd", "1"],
     SQUARE_JSON, "--lnd"),
    (["exp", "--root", "1,2,-1", "--weight", "0,0,2", "--replica", "0,0,0"],
     SQUARE_JSON, "--replica"),
    (["exp", "--lnd", "1,1", "--weight", "1,0,0,0", "--root", "7"],
     SPLIT_JSON, "--root"),
])
def test_exp_other_setting_flag_rejected(invoke, argv, stdin_text, flag):
    code, out, err = invoke(argv, stdin_text)
    assert code == 2 and out == ""
    assert json.loads(err)["position"] == flag


def test_trinomial_classify_golden(invoke):
    code, out, _ = invoke(["trinomial", "classify"], SPLIT_JSON)
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "multi_z"
    assert data["plain_indices"] == [0]
    assert data["power_indices"] == [2, 3]
    assert data["power_exponents"] == [2, 3]


def test_trinomial_classify_refusal(invoke):
    code, out, _ = invoke(["trinomial", "classify"],
                          '{"l1": [2, 2], "l2": [3]}')
    assert code == 1
    assert json.loads(out)["refused"] is True


def test_trinomial_rigid_both_ways(invoke):
    code, out, _ = invoke(["trinomial", "rigid"], SPLIT_JSON)
    assert code == 0
    data = json.loads(out)
    assert data["rigid"] is False and data["reason"] == "unit_exponent"

    code, out, _ = invoke(["trinomial", "rigid"],
                          '{"l0": [2], "l1": [3], "l2": [5]}')
    assert code == 0
    assert json.loads(out)["rigid"] is True


def test_trinomial_lnds_with_replicas(invoke):
    code, out, _ = invoke(["trinomial", "lnds", "--replica-degree", "2"],
                          SPLIT_JSON)
    assert code == 0
    data = json.loads(out)
    assert [d["label"] for d in data["derivations"]] == ["d[0,2]", "d[0,3]"]
    assert data["commuting_pairs"] == [[0, 1]]
    assert data["maximal_replicas"][0] == [[0, 0, 0, 1], [0, 0, 0, 2],
                                          [0, 1, 0, 1]]
    assert data["maximal_replicas"][1] == [[0, 0, 1, 0], [0, 0, 2, 0],
                                          [0, 1, 1, 0]]


def test_trinomial_isotropy_single_golden(invoke):
    code, out, _ = invoke(["trinomial", "isotropy"], SINGLE_JSON)
    assert code == 0
    data = json.loads(out)
    assert data["label"] == "d[0,5]"
    assert data["maximal"] is True
    assert data["grading"] == {"invariant_factors": [1, 3], "rank": 4,
                               "torsion": [3]}
    assert data["quasitorus"] == {"rank": 3, "torsion": [3]}
    assert data["symmetry_order"] == 2
    assert [d["field"] for d in data["discrepancies"]] == [
        "power_image_exponents", "stabilized_monomial_exponents",
        "symmetry_order"]
    assert data["discrepancies"][2] == {"computed": 2, "field":
                                        "symmetry_order", "reference": 4}


def test_trinomial_isotropy_danielewski_refused(invoke):
    code, out, _ = invoke(["trinomial", "isotropy"], SPLIT_JSON)
    assert code == 1
    data = json.loads(out)
    assert data["refused"] is True
    assert "Danielewski" in data["message"]


def test_trinomial_isotropy_nonmaximal_refused(invoke):
    code, out, _ = invoke(["trinomial", "isotropy", "--lnd", "1,1"],
                          WIDE_SPLIT_JSON)
    assert code == 1
    data = json.loads(out)
    assert data["refused"] is True
    assert data["witness"]["commuting_partner"] == "d[0,4]"


def test_trinomial_isotropy_maximal_replica(invoke):
    code, out, _ = invoke(
        ["trinomial", "isotropy", "--lnd", "1,1", "--replica", "0,0,0,0,1"],
        WIDE_SPLIT_JSON)
    assert code == 0
    data = json.loads(out)
    assert data["maximal"] is True
    assert data["label"] == "T4*d[0,3]"


def test_exp_cone_series(invoke):
    code, out, _ = invoke(["exp", "--root", "1,2,-1", "--weight", "0,0,2"],
                          SQUARE_JSON)
    assert code == 0
    data = json.loads(out)
    assert data["param"] == "t"
    assert data["series"] == [
        {"coeff": "1", "exp": [0, 0, 2]},
        {"coeff": "2*t", "exp": [1, 2, 1]},
        {"coeff": "t^2", "exp": [2, 4, 0]},
    ]


def test_exp_cone_outside_semigroup_refused(invoke):
    code, out, _ = invoke(["exp", "--root", "1,2,-1", "--weight", "0,0,-1"],
                          SQUARE_JSON)
    assert code == 1
    assert json.loads(out)["refused"] is True


def test_exp_trinomial_series(invoke):
    code, out, _ = invoke(["exp", "--lnd", "1,1", "--weight", "1,0,0,0"],
                          SPLIT_JSON)
    assert code == 0
    data = json.loads(out)
    assert data["label"] == "d[0,2]"
    assert data["series"] == [
        {"coeff": "2*t", "exp": [0, 0, 1, 3]},
        {"coeff": "t^2", "exp": [0, 2, 0, 3]},
        {"coeff": "1", "exp": [1, 0, 0, 0]},
    ]


def test_exp_trinomial_replica_series(invoke):
    code, out, _ = invoke(["exp", "--lnd", "1,1", "--replica", "0,0,0,1",
                           "--weight", "1,0,0,0"], SPLIT_JSON)
    assert code == 0
    data = json.loads(out)
    assert data["label"] == "T3*d[0,2]"
    assert data["series"] == [
        {"coeff": "2*t", "exp": [0, 0, 1, 4]},
        {"coeff": "t^2", "exp": [0, 2, 0, 5]},
        {"coeff": "1", "exp": [1, 0, 0, 0]},
    ]


def test_exp_requires_weight(invoke):
    code, _, err = invoke(["exp", "--root", "1,2,-1"], SQUARE_JSON)
    assert code == 2
    assert json.loads(err)["position"] == "--weight"


def test_selftest_passes_and_is_deterministic(invoke):
    first = invoke(["selftest"])
    second = invoke(["selftest"])
    assert first == second
    code, out, _ = first
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert len(data["checks"]) == 7
    assert all(c["ok"] for c in data["checks"])


def test_selftest_seed_env(invoke, monkeypatch):
    monkeypatch.setenv("LNDKIT_SEED", "7")
    code, out, _ = invoke(["selftest"])
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 7 and data["ok"] is True


def test_selftest_fault_localized(invoke):
    code, out, _ = invoke(["selftest", "--fault", "pairing-sign"])
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    failed = {c["name"] for c in data["checks"] if not c["ok"]}
    assert failed == {"root_enumeration_golden",
                      "commute_criterion_vs_symbolic"}


def test_unknown_subcommand_exits_nonzero(invoke):
    code, out, err = invoke(["cone", "frobnicate"])
    assert code == 2 and out == ""
    assert "invalid choice: 'frobnicate'" in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    ["trinomial", "lnds", "--format", "yaml"],
    ["trinomial", "lnds", "--replica-degree", "x"],
    ["trinomial", "lnds", "--bogus"],
    ["trinomial"],
    [],
])
def test_argparse_rejection_is_a_json_report_whatever_the_width(invoke, monkeypatch,
                                                                 argv):
    # argparse's own report is a usage text wrapped to COLUMNS
    results = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        results.append(invoke(argv, SPLIT_JSON))
    assert results[0] == results[1]
    code, out, err = results[0]
    assert code == 2 and out == ""
    assert set(json.loads(err)) == {"error", "position"}
