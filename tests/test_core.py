"""Vector arithmetic, instance validation, and document round trips."""

import json

import numpy as np
import pytest

import stablepartners
from stablepartners import (
    EdgeSpace,
    EdgeVector,
    InputError,
    Instance,
    deferred_acceptance,
    enumerate_stable,
    instance_from_dict,
    instance_to_dict,
    parse_instance,
    serialize_instance,
    solve,
)
from stablepartners.choice import LinearOrderQuotaCF

from conftest import b4_doc, bad_table_doc, quota_doc


def space3():
    return EdgeSpace(["p", "q", "r"])


def test_space_lookup_and_membership():
    sp = space3()
    assert len(sp) == 3
    assert "q" in sp
    assert "zz" not in sp
    assert sp.ids == ("p", "q", "r")
    assert sp.index["r"] == 2


def test_vector_basic_arithmetic():
    sp = space3()
    x = EdgeVector(sp, (1, 0, 2))
    y = EdgeVector.from_mapping(sp, {"p": 0, "q": 3, "r": 1})
    assert x.join(y).vals == (1, 3, 2)
    assert x.meet(y).vals == (0, 0, 1)
    assert x.plus(y).vals == (1, 3, 3)
    assert y.minus(x).vals == (-1, 3, -1)
    assert x.scaled(3).vals == (3, 0, 6)
    assert x.total() == 3
    assert x.le(x.join(y))
    assert not y.minus(x).is_nonnegative()
    assert x["r"] == 2


def test_vector_arithmetic_rejects_mismatched_spaces():
    x = EdgeVector(space3(), (0, 0, 0))
    y = EdgeVector(EdgeSpace(["p", "q"]), (0, 0))
    for op in (x.join, x.meet, x.plus, x.minus, x.le):
        with pytest.raises(InputError):
            op(y)


def test_vector_mapping_round_trip_and_support():
    sp = space3()
    x = EdgeVector.from_mapping(sp, {"q": 2})
    assert x.to_mapping() == {"p": 0, "q": 2, "r": 0}
    assert repr(x) == "EdgeVector({'q': 2})"
    assert EdgeVector.from_mapping(sp, x.to_mapping()) == x


def test_vector_unit_and_value_edits_leave_original_alone():
    sp = space3()
    x = EdgeVector.zero(sp)
    y = x.add_unit("q")
    z = y.add_unit("r", 5)
    assert x.vals == (0, 0, 0)
    assert y.vals == (0, 1, 0)
    assert z.vals == (0, 1, 5)
    assert y.add_unit("q", -1) == x


def test_vectors_hash_by_content():
    sp = space3()
    seen = {EdgeVector(sp, (1, 2, 3)): "a"}
    assert seen[EdgeVector(sp, (1, 2, 3))] == "a"


def _build(kind, value):
    """Build one of the four integer-taking constructors around ``value``."""
    sp = EdgeSpace(["ab"])
    if kind == "EdgeVector":
        return EdgeVector(sp, [value])
    if kind == "ChoiceFunction caps":
        return LinearOrderQuotaCF("a", sp, [value], 1, ["ab"])
    if kind == "LinearOrderQuotaCF quota":
        return LinearOrderQuotaCF("a", sp, [1], value, ["ab"])
    choice = {v: LinearOrderQuotaCF(v, sp, [2], 1, ["ab"]) for v in ("a", "b")}
    return Instance(["a", "b"], {"ab": ("a", "b")}, {"ab": value}, choice)


KINDS = ["EdgeVector", "ChoiceFunction caps", "LinearOrderQuotaCF quota", "Instance caps"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("value", [1.5, 2.0, True, "2", "x", None])
def test_integer_arguments_are_never_truncated(kind, value):
    """A non-integer is an :class:`InputError`, never cast to an integer.

    ``int()`` used to turn a cap of ``1.5`` or ``True`` into 1 and ``"2"``
    into 2, and a quota of ``"x"`` raised ``ValueError``.
    """
    with pytest.raises(InputError, match="integer"):
        _build(kind, value)


@pytest.mark.parametrize("kind", KINDS)
def test_numpy_integers_are_integers(kind):
    """Box rows are numpy arrays, so their integers are accepted as ints."""
    built = _build(kind, np.int16(2))
    got = {
        "EdgeVector": lambda: built.vals,
        "ChoiceFunction caps": lambda: built.caps,
        "LinearOrderQuotaCF quota": lambda: (built.quota,),
        "Instance caps": lambda: built.caps.vals,
    }[kind]()
    assert got == (2,) and type(got[0]) is int


def test_instance_rejects_unknown_endpoint():
    with pytest.raises(InputError):
        instance_from_dict(
            {
                "vertices": ["a", "b"],
                "edges": [{"id": "ax", "ends": ["a", "x"], "cap": 1}],
                "choice": {
                    "a": {"type": "linear_order_quota", "quota": 1, "order": ["ax"]},
                    "b": {"type": "linear_order_quota", "quota": 0, "order": []},
                },
            }
        )


def test_instance_rejects_loops_and_parallel_edges():
    base = {
        "vertices": ["a", "b"],
        "edges": [{"id": "aa", "ends": ["a", "a"], "cap": 1}],
        "choice": {
            "a": {"type": "linear_order_quota", "quota": 1, "order": ["aa"]},
            "b": {"type": "linear_order_quota", "quota": 0, "order": []},
        },
    }
    with pytest.raises(InputError):
        instance_from_dict(base)
    with pytest.raises(InputError):
        instance_from_dict(
            {
                "vertices": ["a", "b"],
                "edges": [
                    {"id": "e1", "ends": ["a", "b"], "cap": 1},
                    {"id": "e2", "ends": ["b", "a"], "cap": 1},
                ],
                "choice": {
                    "a": {"type": "linear_order_quota", "quota": 1, "order": ["e1", "e2"]},
                    "b": {"type": "linear_order_quota", "quota": 1, "order": ["e1", "e2"]},
                },
            }
        )


def test_instance_rejects_bad_bipartitions():
    doc = b4_doc()
    doc["bipartition"] = {"W": ["w1", "w2", "f1"], "F": ["f1", "f2"]}
    with pytest.raises(InputError):
        instance_from_dict(doc)
    doc = b4_doc()
    doc["bipartition"] = {"W": ["w1"], "F": ["f1", "f2"]}
    with pytest.raises(InputError):
        instance_from_dict(doc)
    doc = b4_doc()
    doc["bipartition"] = {"W": ["w1", "f1"], "F": ["w2", "f2"]}
    with pytest.raises(InputError):
        instance_from_dict(doc)


def test_instance_rejects_choice_function_cap_mismatch():
    doc = quota_doc(
        edges=[("ab", "a", "b", 2)],
        quotas={"a": 1, "b": 1},
        orders={"a": ["ab"], "b": ["ab"]},
    )
    inst = instance_from_dict(doc)
    wrong = LinearOrderQuotaCF("a", inst.star_space["a"], (5,), 1, ["ab"])
    with pytest.raises(InputError):
        Instance(
            inst.vertices,
            inst.edge_ends,
            {"ab": 2},
            {"a": wrong, "b": inst.choice["b"]},
        )


def _with_star(inst, v, ids):
    """``inst`` with ``v``'s quota choice listing its star as ``ids``."""
    cf = inst.choice[v]
    caps = [inst.caps[e] for e in ids]
    choice = dict(inst.choice)
    choice[v] = LinearOrderQuotaCF(v, EdgeSpace(ids), caps, cf.quota, cf.order)
    caps_by_edge = inst.caps.to_mapping()
    return Instance(inst.vertices, inst.edge_ends, caps_by_edge, choice, inst.parts)


def test_a_star_takes_its_order_from_its_choice_function(cycle3, triangle):
    for inst, v in ((cycle3, "f1"), (triangle, "b")):
        ids = inst.star_ids[v][::-1]
        flipped = _with_star(inst, v, ids)
        assert flipped.star_ids[v] == ids != inst.star_ids[v]
        assert flipped.space == inst.space
        if inst.parts is not None:
            for side in "WF":
                same = deferred_acceptance(inst, side)
                assert deferred_acceptance(flipped, side) == same
        assert enumerate_stable(flipped) == enumerate_stable(inst)
        assert solve(flipped).to_dict() == solve(inst).to_dict()
        stranger = next(e for e in inst.space.ids if e not in ids)
        for wrong in (ids[1:], ids + (stranger,)):
            with pytest.raises(InputError):
                _with_star(inst, v, wrong)


PUBLIC_NAMES = [
    "AxiomReport", "BudgetError", "ChoiceFunction", "ClosedFunction", "EdgeSpace",
    "EdgeVector", "HalfPartnership", "InputError", "Instance", "InternalError",
    "LinearOrderQuotaCF", "Occurrence", "OddCycle", "QBOutcome", "Rotation",
    "RotationOrder", "Route", "RouteStep", "SolveResult", "StabilityReport",
    "SymmetricInstance", "TableCF", "VerificationError", "WeightedRotationFamily",
    "build_full_route", "check_axiom", "climb", "closed_from_vector",
    "deferred_acceptance", "enumerate_stable", "family_from_route", "find_rotations",
    "full_routes", "instance_from_dict", "instance_to_dict", "is_acceptable",
    "is_closed", "is_singular", "is_stable", "lattice_extremes", "lift_vector",
    "parse_instance", "precedes_F", "prefers", "project_cycle",
    "project_solution", "rotation_order", "run_qb", "serialize_instance", "solve",
    "symmetrize", "vector_from_closed", "verify_half_partnership",
]


def test_the_export_list_is_pinned():
    """A new export, or a dropped one, is a visible change to this list."""
    assert sorted(stablepartners.__all__) == PUBLIC_NAMES


def test_instance_rejects_unknown_document_keys():
    doc = b4_doc()
    doc["flavor"] = "crossed"
    with pytest.raises(InputError):
        instance_from_dict(doc)


def test_instance_side_and_ends_queries(b4):
    assert b4.side("w1") == "W"
    assert b4.side("f2") == "F"
    assert b4.is_bipartite_labeled
    assert b4.ends("w1f2") == ("f2", "w1")
    assert b4.other_end("w1f2", "w1") == "f2"
    with pytest.raises(InputError):
        b4.ends("nope")
    with pytest.raises(InputError):
        b4.other_end("w1f2", "f1")


def test_unlabeled_instance_has_no_sides(triangle):
    assert not triangle.is_bipartite_labeled
    with pytest.raises(InputError):
        triangle.side("a")


def test_in_box_and_check_vector(b4, path3):
    inside = EdgeVector.from_mapping(b4.space, {"w1f1": 1})
    outside = EdgeVector.from_mapping(b4.space, {"w1f1": 2})
    assert b4.in_box(inside)
    assert not b4.in_box(outside)
    with pytest.raises(InputError):
        b4.check_vector(EdgeVector.zero(path3.space))


def test_document_round_trip_preserves_structure(b4):
    doc = instance_to_dict(b4)
    again = instance_from_dict(doc)
    assert again.vertices == b4.vertices
    assert again.edge_ends == b4.edge_ends
    assert again.caps == b4.caps
    assert again.parts == b4.parts
    for v in b4.vertices:
        z = tuple(again.caps[e] for e in again.star_ids[v])
        assert again.choice[v].choose_vals(z) == b4.choice[v].choose_vals(z)


def test_parse_and_serialize_are_inverse(path3):
    text = serialize_instance(path3)
    again = parse_instance(text)
    assert instance_to_dict(again) == instance_to_dict(path3)
    assert json.loads(text)["edges"]


def test_parse_rejects_malformed_json():
    with pytest.raises(InputError):
        parse_instance("{not json")


# Each case: a function making a valid document, the path of one node in it,
# and an ill-typed value for that node.
MALFORMED = {
    "quota-string": (b4_doc, ("choice", "w1", "quota"), "x"),
    "quota-float": (b4_doc, ("choice", "w1", "quota"), 1.5),
    "quota-bool": (b4_doc, ("choice", "w1", "quota"), True),
    "order-int": (b4_doc, ("choice", "w1", "order"), 5),
    "ends-nested-list": (b4_doc, ("edges", 0, "ends"), ["w1", ["f1"]]),
    "bipartition-int": (b4_doc, ("bipartition", "W"), 3),
    "table-entries-int": (bad_table_doc, ("choice", "hub", "entries"), 7),
    "table-value-string": (
        bad_table_doc,
        ("choice", "hub", "entries", 0, "c", "e1"),
        "q",
    ),
    "choice-ghost-vertex": (b4_doc, ("choice", "ghost"), {"type": "nonsense"}),
}


@pytest.mark.parametrize("build, path, value", MALFORMED.values(), ids=list(MALFORMED))
def test_ill_typed_document_nodes_raise_input_error(build, path, value):
    doc = build()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(InputError):
        instance_from_dict(doc)
