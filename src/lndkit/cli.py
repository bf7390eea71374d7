"""Command line front end.

Input is JSON (a file via --in, or stdin), output is JSON or plain text
on stdout. Exit status 0 means a verdict was produced, 1 means the
computation refused honestly (the refusal carries a witness), 2 means the
input was malformed. All output is byte-deterministic for a given input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .algebra import (
    Polynomial,
    TrinomialRing,
    coeff_to_string,
    exponential,
)
from .cone import Cone, dual_as_cone, dual_cone, hilbert_basis, make_cone
from .errors import InputError, RefusalError, SearchBoundExceeded
from .lattice import determinant, mat_mul, pairing, smith_normal_form
from . import toric
from .toric import (
    enumerate_roots,
    is_demazure_root,
    is_maximal,
    kernel_of_root,
    lnds_commute,
    require_root,
    symbolic_commute_check,
    toric_isotropy_report,
)
from .trinomial import (
    classify,
    derivation_for,
    elementary_derivations,
    is_rigid,
    maximal_replicas,
    maximality_verdict,
    pair_commutes,
    trinomial_isotropy_report,
)

DEFAULT_ROOT_BOUND = 10
DEFAULT_CAP = 64


# ---------------------------------------------------------------------------
# input handling


def _load_json(path):
    if path in (None, "-"):
        text = sys.stdin.read()
        name = "<stdin>"
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise InputError("cannot read input file: {}".format(err))
        name = path
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(
            "invalid JSON in {}: {}".format(name, err.msg),
            position={"line": err.lineno, "column": err.colno})
    except RecursionError:
        raise InputError("JSON in {} is nested too deeply".format(name))


def _int_list(value, where):
    if not isinstance(value, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in value):
        raise InputError("expected a list of integers", position=where)
    return [int(x) for x in value]


def _cone_from(obj) -> Cone:
    if not isinstance(obj, dict):
        raise InputError("top level must be an object", position="$")
    if "rank" not in obj or "rays" not in obj:
        raise InputError('cone input needs "rank" and "rays"', position="$")
    rank = obj["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise InputError("rank must be a positive integer", position="rank")
    rays = obj["rays"]
    if not isinstance(rays, list):
        raise InputError("rays must be a list", position="rays")
    parsed = []
    for i, ray in enumerate(rays):
        row = _int_list(ray, "rays[{}]".format(i))
        if len(row) != rank:
            raise InputError("ray length differs from rank",
                             position="rays[{}]".format(i))
        parsed.append(tuple(row))
    return make_cone(rank, parsed)


def _ring_from(obj) -> TrinomialRing:
    if not isinstance(obj, dict):
        raise InputError("top level must be an object", position="$")
    for key in ("l1", "l2"):
        if key not in obj:
            raise InputError('trinomial input needs "l1" and "l2"',
                             position="$")
    l0 = _int_list(obj.get("l0", []), "l0")
    l1 = _int_list(obj["l1"], "l1")
    l2 = _int_list(obj["l2"], "l2")
    try:
        return TrinomialRing(l0, l1, l2)
    except ValueError as err:
        raise InputError(str(err), position="l1")


def _parse_vector(text, flag, length=None):
    try:
        vec = tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise InputError("{} expects comma-separated integers".format(flag),
                         position=flag)
    if length is not None and len(vec) != length:
        raise InputError("{} expects {} entries".format(flag, length),
                         position=flag)
    return vec


def _check_search_sizes(args):
    for dest in ("bound", "hilbert_bound", "cap", "replica_degree"):
        value = getattr(args, dest, None)
        if value is not None and value < 0:
            flag = "--" + dest.replace("_", "-")
            raise InputError("{} must be nonnegative".format(flag),
                             position=flag)


def _single_root(args, cone):
    if not args.root or len(args.root) != 1:
        raise InputError("exactly one --root is required", position="--root")
    e = _parse_vector(args.root[0], "--root", length=cone.rank)
    return require_root(cone, e)


# ---------------------------------------------------------------------------
# serialization


def _poly_json(poly: Polynomial):
    return [{"coeff": coeff_to_string(c), "exp": list(e)}
            for e, c in sorted(poly.terms.items())]


def _pres_json(pres):
    return {"rank": pres.free_rank, "torsion": list(pres.torsion)}


def _root_json(root):
    return {"ray": list(root.ray), "ray_index": root.ray_index,
            "vector": list(root.vector)}


def _text_lines(value, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        out = []
        for k in sorted(value):
            v = value[k]
            if isinstance(v, (dict, list, tuple)) and v and not _flat(v):
                out.append("{}{}:".format(pad, k))
                out.extend(_text_lines(v, indent + 1))
            else:
                out.append("{}{}: {}".format(pad, k, _scalar(v)))
        return out
    if isinstance(value, (list, tuple)):
        out = []
        for v in value:
            if isinstance(v, (dict, list, tuple)) and v and not _flat(v):
                out.append("{}-".format(pad))
                out.extend(_text_lines(v, indent + 1))
            else:
                out.append("{}- {}".format(pad, _scalar(v)))
        return out
    return [pad + _scalar(value)]


def _flat(v):
    if isinstance(v, (list, tuple)):
        return all(not isinstance(x, (dict, list, tuple)) for x in v)
    return False


def _scalar(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (list, tuple)):
        return "[{}]".format(", ".join(_scalar(x) for x in v))
    return str(v)


def _emit(args, payload) -> int:
    if args.format == "text":
        sys.stdout.write("\n".join(_text_lines(payload)) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# cone commands


def cmd_cone_roots(args) -> int:
    cone = _cone_from(_load_json(args.infile))
    roots = enumerate_roots(cone, args.bound)
    return _emit(args, {
        "bound": args.bound,
        "rank": cone.rank,
        "rays": [list(r) for r in cone.rays],
        "roots": [_root_json(r) for r in roots],
    })


def cmd_cone_maximal(args) -> int:
    cone = _cone_from(_load_json(args.infile))
    root = _single_root(args, cone)
    verdict = is_maximal(cone, root)
    return _emit(args, {
        "maximal": verdict.maximal,
        "neighbours": [list(v) for v in verdict.neighbours],
        "root": _root_json(root),
        "witness": None if verdict.witness is None else _root_json(verdict.witness),
    })


def cmd_cone_commute(args) -> int:
    cone = _cone_from(_load_json(args.infile))
    if not args.root or len(args.root) != 2:
        raise InputError("exactly two --root flags are required",
                         position="--root")
    first = require_root(cone, _parse_vector(args.root[0], "--root",
                                            length=cone.rank))
    second = require_root(cone, _parse_vector(args.root[1], "--root",
                                             length=cone.rank))
    criterion = lnds_commute(first, second)
    symbolic = symbolic_commute_check(cone, first, second)
    assert criterion == symbolic
    return _emit(args, {
        "commute": criterion,
        "criterion": criterion,
        "equivalent": first.ray == second.ray,
        "roots": [_root_json(first), _root_json(second)],
        "symbolic": symbolic,
    })


def cmd_cone_kernel(args) -> int:
    cone = _cone_from(_load_json(args.infile))
    root = _single_root(args, cone)
    ker = kernel_of_root(cone, root, args.hilbert_bound)
    return _emit(args, {
        "complete": ker.complete,
        "generators": [list(g) for g in ker.generators],
        "root": _root_json(root),
    })


def cmd_cone_isotropy(args) -> int:
    cone = _cone_from(_load_json(args.infile))
    root = _single_root(args, cone)
    report = toric_isotropy_report(cone, root.vector,
                                   hilbert_bound=args.hilbert_bound,
                                   cap=args.cap)
    if not report.kernel.complete:
        raise SearchBoundExceeded(
            "the Hilbert bound is below the completeness radius, so the "
            "kernel generators would be partial", cap=args.hilbert_bound)
    return _emit(args, {
        "kernel_generators": [list(g) for g in report.kernel.generators],
        "maximal": report.maximality.maximal,
        "root": _root_json(report.root),
        "slice": list(report.slice_weight),
        "symmetry_matrices": [[list(row) for row in m]
                              for m in report.symmetries.matrices],
        "symmetry_order": report.symmetries.order,
        "torus": _pres_json(report.torus),
        "witness": None if report.maximality.witness is None
                   else _root_json(report.maximality.witness),
    })


# ---------------------------------------------------------------------------
# trinomial commands


def cmd_trinomial_classify(args) -> int:
    ring = _ring_from(_load_json(args.infile))
    shape = classify(ring)
    return _emit(args, {
        "higher_exponents": list(shape.y_exponents),
        "higher_indices": list(shape.y_indices),
        "kind": shape.kind,
        "plain_indices": list(shape.x_indices),
        "power_exponents": list(shape.z_exponents),
        "power_indices": list(shape.z_indices),
        "variables": ring.nvars,
    })


def cmd_trinomial_rigid(args) -> int:
    ring = _ring_from(_load_json(args.infile))
    verdict = is_rigid(ring)
    return _emit(args, {
        "reason": verdict.reason,
        "rigid": verdict.rigid,
        "witness": verdict.witness,
    })


def _derivation_json(deriv):
    images = {}
    for v in (deriv.x_index, deriv.z_index):
        images[str(v)] = _poly_json(deriv.derivation.images[v])
    return {
        "images": images,
        "label": deriv.label(),
        "replica": None if deriv.replica is None else list(deriv.replica),
        "x_index": deriv.x_index,
        "z_index": deriv.z_index,
    }


def cmd_trinomial_lnds(args) -> int:
    ring = _ring_from(_load_json(args.infile))
    shape = classify(ring)
    derivs = elementary_derivations(shape)
    commuting = []
    for i in range(len(derivs)):
        for j in range(i + 1, len(derivs)):
            if pair_commutes(ring, derivs[i], derivs[j]):
                commuting.append([i, j])
    payload = {
        "commuting_pairs": commuting,
        "derivations": [_derivation_json(d) for d in derivs],
        "kind": shape.kind,
    }
    if args.replica_degree is not None:
        payload["maximal_replicas"] = [
            [list(h) for h in maximal_replicas(shape, d, args.replica_degree)]
            for d in derivs]
    return _emit(args, payload)


def _trinomial_derivation_from_args(args, shape):
    x_index = None
    z_index = None
    if args.lnd is not None:
        parts = args.lnd.split(",")
        if len(parts) not in (1, 2):
            raise InputError("--lnd expects i or i,j", position="--lnd")
        try:
            xi = int(parts[0])
            zi = int(parts[1]) if len(parts) == 2 else None
        except ValueError:
            raise InputError("--lnd expects integers", position="--lnd")
        if not 1 <= xi <= len(shape.x_indices):
            raise InputError("--lnd plain index out of range", position="--lnd")
        x_index = shape.x_indices[xi - 1]
        if zi is not None:
            if not 1 <= zi <= len(shape.z_indices):
                raise InputError("--lnd power index out of range",
                                 position="--lnd")
            z_index = shape.z_indices[zi - 1]
    if x_index is None:
        x_index = shape.x_indices[0]
    if z_index is None and shape.kind == "multi_z":
        z_index = shape.z_indices[0]
    replica = None
    if args.replica is not None:
        replica = _parse_vector(args.replica, "--replica",
                                length=shape.ring.nvars)
    return x_index, z_index, replica


def cmd_trinomial_isotropy(args) -> int:
    ring = _ring_from(_load_json(args.infile))
    shape = classify(ring)
    x_index, z_index, replica = _trinomial_derivation_from_args(args, shape)
    report = trinomial_isotropy_report(ring, x_index=x_index,
                                       z_index=z_index, replica=replica)
    return _emit(args, {
        "degree_lifts": [list(l) for l in report.degree_lifts],
        "discrepancies": list(report.discrepancies),
        "grading": {"invariant_factors": list(report.grading.invariant_factors),
                    "rank": report.grading.free_rank,
                    "torsion": list(report.grading.torsion)},
        "l0": list(ring.l0), "l1": list(ring.l1), "l2": list(ring.l2),
        "label": report.derivation.label(),
        "maximal": report.maximality.maximal,
        "quasitorus": _pres_json(report.quasitorus),
        "symmetry_factors": [{"size": f.size,
                              "variables": list(f.variables)}
                             for f in report.symmetries.factors],
        "symmetry_order": report.symmetries.order,
    })


# ---------------------------------------------------------------------------
# exponentials


def cmd_exp(args) -> int:
    obj = _load_json(args.infile)
    if args.weight is None:
        raise InputError("--weight is required", position="--weight")
    if isinstance(obj, dict) and "rays" in obj:
        cone = _cone_from(obj)
        for flag, value in (("--lnd", args.lnd), ("--replica", args.replica)):
            if value is not None:
                raise InputError(flag + " applies to a trinomial input",
                                 position=flag)
        root = _single_root(args, cone)
        weight = _parse_vector(args.weight, "--weight", length=cone.rank)
        if any(pairing(weight, r) < 0 for r in cone.rays):
            raise RefusalError("weight lies outside the semigroup",
                               witness={"weight": list(weight)})
        series = exponential(root.derivation(),
                             Polynomial.monomial(weight), cap=args.cap)
        return _emit(args, {
            "param": "t",
            "root": _root_json(root),
            "series": _poly_json(series),
            "weight": list(weight),
        })
    ring = _ring_from(obj)
    if args.root is not None:
        raise InputError("--root applies to a cone input", position="--root")
    shape = classify(ring)
    x_index, z_index, replica = _trinomial_derivation_from_args(args, shape)
    deriv = derivation_for(shape, x_index, z_index, replica)
    weight = _parse_vector(args.weight, "--weight", length=ring.nvars)
    if any(w < 0 for w in weight):
        raise InputError("--weight entries must be nonnegative for a "
                         "polynomial argument", position="--weight")
    # every later term of the series is reduced as it is built, so
    # reducing the weight first leaves the whole series in normal form
    series = exponential(deriv.derivation,
                         ring.reduce(Polynomial.monomial(weight)), cap=args.cap)
    return _emit(args, {
        "label": deriv.label(),
        "param": "t",
        "series": _poly_json(series),
        "weight": list(weight),
    })


# ---------------------------------------------------------------------------
# selftest

_SELFTEST_CONE = ((0, 0, 1), (2, 0, 1), (0, 1, 1), (1, 1, 1))
_SELFTEST_DUAL = ((-1, -1, 2), (0, -1, 1), (0, 1, 0), (1, 0, 0))
_SELFTEST_ROOTS = (
    (0, (1, 1, -1)), (0, (1, 2, -1)), (0, (2, 1, -1)), (0, (2, 2, -1)),
    (1, (1, -2, 1)), (1, (1, -1, 0)), (1, (2, -2, 1)), (1, (2, -1, 0)),
    (2, (-1, -2, 2)),
    (3, (-1, 0, 1)), (3, (-1, 1, 1)), (3, (-1, 2, 1)),
)


def _selftest_checks(rng):
    cone = make_cone(3, _SELFTEST_CONE)

    def check_smith():
        for _ in range(20):
            rows = rng.randrange(1, 4)
            cols = rng.randrange(1, 4)
            a = tuple(tuple(rng.randrange(-6, 7) for _ in range(cols))
                      for _ in range(rows))
            dec = smith_normal_form(a)
            if mat_mul(mat_mul(dec.u, a), dec.v) != dec.d:
                return False, "sandwich identity failed"
            if abs(determinant(dec.u)) != 1 or abs(determinant(dec.v)) != 1:
                return False, "transforms not unimodular"
        return True, "20 random decompositions verified"

    def check_dual():
        got = dual_cone(cone).generators
        if got != _SELFTEST_DUAL:
            return False, "dual generators {}".format(got)
        return True, "dual cone generators match"

    def check_hilbert():
        hb = hilbert_basis(dual_as_cone(cone))
        if hb.elements != tuple(sorted(_SELFTEST_DUAL)) or not hb.complete:
            return False, "basis {}".format(hb.elements)
        return True, "dual Hilbert basis is the four generators, complete"

    def check_roots():
        # replayed through root recognition, which reads toric's pairing
        have = tuple((r.ray_index, r.vector) for r in enumerate_roots(cone, 2)
                     if is_demazure_root(cone, r.vector) == r)
        want = _SELFTEST_ROOTS
        if have != want:
            wrong = sorted(set(have) ^ set(want))
            return False, "root list differs, e.g. {}".format(wrong[0])
        return True, "12 roots inside the box, as expected"

    def check_criterion():
        roots = enumerate_roots(cone, 2)
        for root in roots:
            if is_demazure_root(cone, root.vector) != root:
                return False, "root {} not recognized".format(root.vector)
        disagreements = 0
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                a, b = roots[i], roots[j]
                if lnds_commute(a, b) != symbolic_commute_check(cone, a, b):
                    disagreements += 1
        if disagreements:
            return False, "{} criterion/symbolic disagreements".format(
                disagreements)
        return True, "criterion agrees with the symbolic commutator"

    def check_trinomial():
        ring = TrinomialRing((), (1, 2), (2, 3))
        shape = classify(ring)
        d1, d2 = elementary_derivations(shape)
        if not pair_commutes(ring, d1, d2):
            return False, "elementary pair should commute"
        rep = derivation_for(shape, 0, 2, (0, 0, 0, 1))
        if pair_commutes(ring, rep, d2):
            return False, "replica should break commuting"
        if maximality_verdict(shape, d1).maximal:
            return False, "irreducible should not be maximal"
        if not maximality_verdict(shape, rep).maximal:
            return False, "full replica should be maximal"
        return True, "split-power example verdicts hold"

    def check_isotropy():
        ring = TrinomialRing((), (1, 1, 2, 2, 7), (3,))
        report = trinomial_isotropy_report(ring)
        if report.quasitorus.free_rank != 3 or report.quasitorus.torsion != (3,):
            return False, "quasitorus {}".format(_pres_json(report.quasitorus))
        if report.symmetries.order != 2:
            return False, "symmetry order {}".format(report.symmetries.order)
        return True, "isotropy example verified"

    return [
        ("smith_decomposition", check_smith),
        ("dual_cone_golden", check_dual),
        ("hilbert_basis_golden", check_hilbert),
        ("root_enumeration_golden", check_roots),
        ("commute_criterion_vs_symbolic", check_criterion),
        ("trinomial_commuting_example", check_trinomial),
        ("trinomial_isotropy_example", check_isotropy),
    ]


def cmd_selftest(args) -> int:
    seed_text = os.environ.get("LNDKIT_SEED", "20260822")
    try:
        seed = int(seed_text)
    except ValueError:
        raise InputError("LNDKIT_SEED must be an integer",
                         position="LNDKIT_SEED")
    rng = random.Random(seed)
    results = []
    all_ok = True
    try:
        if args.fault == "pairing-sign":
            toric._pairing = lambda m, v: -pairing(m, v)
        for name, fn in _selftest_checks(rng):
            try:
                ok, detail = fn()
            except Exception as err:  # a crash is a failure, not an abort
                ok, detail = False, "raised {}: {}".format(type(err).__name__, err)
            results.append({"detail": detail, "name": name, "ok": ok})
            all_ok = all_ok and ok
    finally:
        toric._pairing = pairing
    _emit(args, {
        "checks": results,
        "fault": args.fault,
        "ok": all_ok,
        "seed": seed,
    })
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """A rejected command line is malformed input like any other: error()
    raises InputError, so stderr carries the JSON report and the exit is 2.
    argparse's own report is a usage text wrapped to the terminal's width,
    whose bytes would change with COLUMNS. Subparsers inherit the class."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def _build_parser():
    # built once per process: parse_args keeps no state between calls
    parser = _Parser(
        prog="lndkit",
        description="Exact decisions about homogeneous locally nilpotent "
                    "derivations on toric varieties and trinomial "
                    "hypersurfaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--in", dest="infile", default=None,
                       help="JSON input file, - or omitted for stdin")
        p.add_argument("--format", choices=("json", "text"), default="json")

    # each subcommand takes only the flags its handler reads, spelled in
    # full: an abbreviation would let --replica pass for --replica-degree
    flags = {
        "--root": dict(action="append",
                       help="root character a,b,c (repeatable)"),
        "--bound": dict(type=int, default=DEFAULT_ROOT_BOUND),
        "--hilbert-bound": dict(type=int),
        "--cap": dict(type=int, default=DEFAULT_CAP),
        "--lnd": dict(help="derivation choice i or i,j, one-based within "
                           "the plain and power blocks"),
        "--replica": dict(help="kernel monomial exponents e1,...,en"),
        "--replica-degree": dict(
            type=int, help="also list maximal multipliers up to this degree"),
    }

    def group(name, help_text, commands):
        group_sub = sub.add_parser(name, help=help_text).add_subparsers(
            dest="subcommand", required=True)
        for command, fn, takes in commands:
            p = group_sub.add_parser(command, allow_abbrev=False)
            common(p)
            for flag in takes:
                p.add_argument(flag, **flags[flag])
            p.set_defaults(handler=fn)

    group("cone", "pointed cone questions", (
        ("roots", cmd_cone_roots, ("--bound",)),
        ("maximal", cmd_cone_maximal, ("--root",)),
        ("commute", cmd_cone_commute, ("--root",)),
        ("kernel", cmd_cone_kernel, ("--root", "--hilbert-bound")),
        ("isotropy", cmd_cone_isotropy, ("--root", "--hilbert-bound", "--cap")),
    ))
    group("trinomial", "trinomial hypersurface questions", (
        ("classify", cmd_trinomial_classify, ()),
        ("rigid", cmd_trinomial_rigid, ()),
        ("lnds", cmd_trinomial_lnds, ("--replica-degree",)),
        ("isotropy", cmd_trinomial_isotropy, ("--lnd", "--replica")),
    ))

    exp = sub.add_parser("exp", allow_abbrev=False,
                         help="exponential automorphism of a monomial")
    common(exp)
    exp.add_argument("--root", action="append")
    exp.add_argument("--lnd", default=None)
    exp.add_argument("--replica", default=None)
    exp.add_argument("--weight", default=None,
                     help="monomial exponents m1,...,mn")
    exp.add_argument("--cap", type=int, default=DEFAULT_CAP)
    exp.set_defaults(handler=cmd_exp)

    selftest = sub.add_parser("selftest", allow_abbrev=False,
                              help="run the built-in checks")
    selftest.add_argument("--format", choices=("json", "text"), default="json")
    selftest.add_argument("--fault", choices=("pairing-sign",), default=None,
                          help="inject a deliberate defect to verify that "
                               "the checks can catch it")
    selftest.set_defaults(handler=cmd_selftest, infile=None)

    return parser


_VECTOR_FLAGS = ("--root", "--replica", "--weight", "--lnd")


def _normalize_argv(argv):
    # argparse mistakes a value like -1,0,1 for a flag, so glue vector
    # values onto their flag with '='
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VECTOR_FLAGS and i + 1 < len(argv) \
                and argv[i + 1].startswith("-") \
                and len(argv[i + 1]) > 1 and argv[i + 1][1].isdigit():
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_normalize_argv(list(argv)))
        _check_search_sizes(args)
        return args.handler(args)
    except InputError as err:
        payload = {"error": str(err), "position": err.position}
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return 2
    except SearchBoundExceeded as err:
        payload = {"cap": err.cap, "message": str(err), "refused": True}
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return 1
    except RefusalError as err:
        payload = {"message": str(err), "refused": True, "witness": err.witness}
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return 1
    except ValueError as err:
        payload = {"error": str(err), "position": None}
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
