"""Command line front end.

Exit codes: 0 on success, 1 for unusable input, 2 when a verification or
axiom check fails, 3 when a work budget is exceeded, 4 for internal
assertion failures and any other unexpected exception.  Output is
deterministic: JSON is emitted with sorted keys and every listed collection
is explicitly ordered.
"""

import argparse
import csv
import functools
import io
import json
import sys

from .core import (
    BudgetError,
    EdgeVector,
    InputError,
    InternalError,
    VerificationError,
    parse_instance,
)
from .choice import DEFAULT_AXIOM_BUDGET, check_axiom
from .bipartite import build_full_route, deferred_acceptance, find_rotations
from .brute import DEFAULT_ENUM_BUDGET, enumerate_stable, lattice_extremes
from .poset import DEFAULT_GRAPH_BUDGET, rotation_order
from .solver import HalfPartnership, solve, verify_half_partnership

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

AXIOMS = ("SUB", "MON", "CON", "GL")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError("cannot read {!r}: {}".format(path, exc)) from None


def _load_instance(args):
    return parse_instance(_read_text(args.instance))


def _load_json(path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError("invalid JSON in {!r}: {}".format(path, exc)) from None


def _emit(args, doc, rows=None):
    """Write ``doc`` as JSON, or ``rows`` as csv where the command has them."""
    if rows is not None and args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerows(rows)
        text = buffer.getvalue()
    else:
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError("cannot write {!r}: {}".format(args.out, exc)) from None
    else:
        sys.stdout.write(text)


def cmd_check_axioms(args):
    inst = _load_instance(args)
    axioms = AXIOMS if args.axiom == "all" else (args.axiom.upper(),)
    if args.vertex is not None:
        if args.vertex not in inst.choice:
            raise InputError("unknown vertex {!r}".format(args.vertex))
        vertices = (args.vertex,)
    else:
        vertices = inst.vertices
    budget = args.budget if args.budget is not None else DEFAULT_AXIOM_BUDGET
    doc = {"vertices": {}}
    all_hold = True
    for v in vertices:
        per = {}
        for axiom in axioms:
            report = check_axiom(inst.choice[v], axiom, budget)
            per[axiom] = report.to_dict()
            all_hold = all_hold and report.holds
        doc["vertices"][v] = per
    doc["holds"] = all_hold
    _emit(args, doc)
    return EXIT_OK if all_hold else EXIT_VERIFY


def cmd_bipartite_solve(args):
    inst = _load_instance(args)
    x = deferred_acceptance(inst, args.side)
    _emit(args, {"side": args.side, "x": x.to_mapping()})
    return EXIT_OK


def cmd_rotations(args):
    inst = _load_instance(args)
    if args.at:
        x = EdgeVector.from_mapping(inst.space, _load_json(args.at))
    else:
        x = deferred_acceptance(inst, "W")
    rots = find_rotations(inst, x)
    doc = {"at": x.to_mapping(), "rotations": [r.to_dict() for r in rots]}
    _emit(args, doc)
    return EXIT_OK


def cmd_route(args):
    inst = _load_instance(args)
    route = build_full_route(inst, args.seed)
    doc = {
        "start": route.start.to_mapping(),
        "end": route.end.to_mapping(),
        "steps": [
            {
                "rotation": step.rotation.to_dict(),
                "weight": step.weight,
                "target": step.target.to_mapping(),
            }
            for step in route.steps
        ],
    }
    _emit(args, doc)
    return EXIT_OK


def cmd_poset(args):
    inst = _load_instance(args)
    budget = args.budget if args.budget is not None else DEFAULT_GRAPH_BUDGET
    order = rotation_order(inst, budget)
    doc = order.to_dict()
    rows = [("from", "to")] + [tuple(pair) for pair in doc["hasse"]]
    _emit(args, doc, rows)
    return EXIT_OK


def cmd_solve(args):
    inst = _load_instance(args)
    result = solve(inst, args.seed)
    _emit(args, result.to_dict())
    return EXIT_OK


def cmd_verify(args):
    inst = _load_instance(args)
    hp = HalfPartnership.from_dict(inst, _load_json(args.solution))
    report = verify_half_partnership(inst, hp)
    _emit(args, report.to_dict())
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_brute(args):
    inst = _load_instance(args)
    budget = args.budget if args.budget is not None else DEFAULT_ENUM_BUDGET
    stable = enumerate_stable(inst, budget)
    doc = {"count": len(stable), "stable": [x.to_mapping() for x in stable]}
    if inst.is_bipartite_labeled and stable:
        lo, hi = lattice_extremes(inst, stable)
        doc["min"] = lo.to_mapping()
        doc["max"] = hi.to_mapping()
    rows = [tuple(inst.space.ids)] + [tuple(x.vals) for x in stable]
    _emit(args, doc, rows)
    return EXIT_OK


@functools.cache
def build_parser():
    parser = _Parser(prog="stablepartners", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, func, text in (
        ("check-axioms", cmd_check_axioms, "check choice function axioms"),
        ("bipartite-solve", cmd_bipartite_solve, "one-side-optimal stable vector"),
        ("rotations", cmd_rotations, "rotations applicable at a stable vector"),
        ("route", cmd_route, "a full route from minimum to maximum"),
        ("poset", cmd_poset, "the precedence order of rotation occurrences"),
        ("solve", cmd_solve, "solve a partnership instance"),
        ("verify", cmd_verify, "verify a solution document"),
        ("brute", cmd_brute, "enumerate all stable vectors"),
    ):
        p = commands[name] = sub.add_parser(name, help=text)
        p.add_argument("--instance", required=True, help="instance JSON file")
        p.add_argument("--out", help="write output here instead of stdout")
        p.set_defaults(func=func)

    # Each shared option goes only to the commands that read it.
    for name in ("route", "solve"):
        commands[name].add_argument(
            "--seed", type=int, default=0, help="seed for tie-breaking"
        )
    for name in ("check-axioms", "poset", "brute"):
        commands[name].add_argument("--budget", type=int, help="work budget override")
    for name in ("poset", "brute"):
        commands[name].add_argument(
            "--format", choices=("json", "csv"), default="json", help="output format"
        )

    p = commands["check-axioms"]
    p.add_argument(
        "--axiom",
        choices=("sub", "mon", "con", "gl", "all"),
        default="all",
        help="which axiom to check",
    )
    p.add_argument("--vertex", help="restrict the check to one vertex")
    commands["bipartite-solve"].add_argument("--side", choices=("W", "F"), default="W")
    commands["rotations"].add_argument(
        "--at", help="JSON file with the vector; default is the minimum"
    )
    commands["verify"].add_argument(
        "--solution", required=True, help="solution JSON file"
    )
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_INPUT
    except BudgetError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_BUDGET
    except VerificationError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_VERIFY
    except InternalError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # Anything else is a bug: report it in the same one-line form.
        print("error: {}: {}".format(type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
