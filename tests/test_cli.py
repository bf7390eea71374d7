"""End-to-end checks of the command line front end.

Each test drives main() directly and inspects exit status, stdout and
stderr. Output must be byte-deterministic, so several tests run a command
twice and compare raw bytes.
"""

import io
import json

import pytest

from lndkit.cli import main

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
    with pytest.raises(SystemExit):
        invoke(["cone", "frobnicate"])
