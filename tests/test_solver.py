"""Odd cycles, half-partnerships, verification, and the end-to-end solver."""

import random

import pytest

from stablepartners import core
from stablepartners import (
    EdgeVector,
    HalfPartnership,
    InputError,
    LinearOrderQuotaCF,
    OddCycle,
    Rotation,
    enumerate_stable,
    instance_from_dict,
    is_singular,
    is_stable,
    lift_vector,
    project_cycle,
    run_qb,
    solve,
    symmetrize,
    verify_half_partnership,
)

from conftest import (
    count_choices,
    cycle_rotation,
    cycle_vertices,
    edgevec,
    oracle_project_cycle,
    oracle_verify_half_partnership,
    quota_doc,
    reversed_steps,
    ring_doc,
    sparse_graph_doc,
    suffix_named_instances,
    triangle_doc,
    undirected_key,
    vec_plus,
)

TRI_CYCLE = ["a", "ca", "c", "bc", "b", "ab"]
B4_SOLVE_X = {"w1f2": 1, "w2f1": 1}
PATH3_X = {"ab": 1, "bc": 1}


def test_odd_cycle_rejects_malformed_walks(b4, cycle3, triangle):
    with pytest.raises(InputError):
        OddCycle(triangle, [])
    with pytest.raises(InputError):
        OddCycle(b4, [("w1", "w1f1")])
    with pytest.raises(InputError):
        OddCycle(
            b4,
            [("w1", "w1f1"), ("f1", "w2f1"), ("w2", "w2f2"), ("f2", "w1f2")],
        )
    with pytest.raises(InputError):
        OddCycle(cycle3, [("m1", "e11"), ("f1", "e11"), ("m1", "e12")])
    with pytest.raises(InputError):
        OddCycle(cycle3, [("m1", "e11"), ("m2", "e22"), ("f1", "e21")])
    with pytest.raises(InputError):
        OddCycle(cycle3, [("m1", "e11"), ("f1", "e21"), ("m2", "e22")])
    with pytest.raises(InputError):
        OddCycle(cycle3, [("m1", "zz"), ("f1", "e21"), ("m2", "e22")])


def test_odd_cycle_canonical_form_and_direction(triangle):
    """Shifts of one walk compare equal; reversal is a different cycle."""
    forward = OddCycle(triangle, [("a", "ab"), ("b", "bc"), ("c", "ca")])
    shifted = OddCycle(triangle, [("c", "ca"), ("a", "ab"), ("b", "bc")])
    assert forward == shifted
    assert len(forward) == 3
    assert cycle_vertices(forward) == ("a", "b", "c")
    backward = OddCycle(triangle, reversed_steps(forward))
    assert backward != forward
    assert undirected_key(backward) == undirected_key(forward)


def test_odd_cycle_documents_round_trip(triangle):
    cyc = OddCycle.from_list(triangle, TRI_CYCLE)
    assert cyc.to_list() == TRI_CYCLE
    assert OddCycle.from_list(triangle, cyc.to_list()) == cyc
    with pytest.raises(InputError):
        OddCycle.from_list(triangle, ["a", "ab", "b"])
    with pytest.raises(InputError):
        OddCycle.from_list(triangle, "a ab b bc c ca")


def test_triangle_is_certified_unsolvable(triangle):
    result = solve(triangle)
    assert result.to_dict() == {
        "solvable": False,
        "x": {"ab": 0, "bc": 0, "ca": 0},
        "K": [TRI_CYCLE],
        "verified": True,
    }
    assert result.symmetric.base is triangle


def test_triangle_verdict_is_seed_independent(triangle):
    baseline = solve(triangle).to_dict()
    for seed in range(5):
        assert solve(triangle, seed=seed).to_dict() == baseline


def test_two_sided_instances_solve_without_cycles(b4, path3, cycle3, twin):
    for inst in (b4, path3, cycle3, twin):
        result = solve(inst)
        assert result.solvable
        assert result.hp.cycles == ()
        assert result.report.ok
        assert result.hp.x in enumerate_stable(inst)
    assert solve(b4).hp.x == edgevec(b4, B4_SOLVE_X)
    assert solve(path3).hp.x == edgevec(path3, PATH3_X)


def test_cycle_projection_round_trips(triangle):
    """Folding the doubled rotation and lifting it back are inverse."""
    si = symmetrize(triangle)
    outcome = run_qb(si)
    rot = outcome.odd_core[0]
    cyc = project_cycle(si, rot)
    assert cyc.to_list() == TRI_CYCLE
    assert cycle_rotation(si, cyc) == rot


def test_walks_of_two_kinds_never_compare_equal(triangle):
    si = symmetrize(triangle)
    cyc = OddCycle.from_list(triangle, TRI_CYCLE)
    rot = cycle_rotation(si, cyc)
    assert rot != cyc and cyc != rot
    # Even a rotation with the cycle's very steps differs from the cycle.
    shell = object.__new__(Rotation)
    shell.steps, shell._hash = cyc.steps, hash(cyc)
    assert shell != cyc and cyc != shell
    assert len({cyc, shell}) == 2
    assert repr(cyc) == "OddCycle(a-ca c-bc b-ab)"
    assert repr(rot).startswith("Rotation(a^0-ca^0 ")


def test_halved_projection_matches_the_mirror_chase(general_corpus, triangle):
    """Every singular rotation the sweep meets projects as the oracle does."""
    rings = [
        instance_from_dict(ring_doc(n, cap, cap))
        for n in (3, 5, 7)
        for cap in (1, 3, 11)
    ]
    projected = 0
    for inst in list(general_corpus) + rings + [triangle] + suffix_named_instances():
        si = symmetrize(inst)
        for seed in range(3):
            picks = run_qb(si, seed).picks
            for rot in [r for r, _, _ in picks if is_singular(si, r)]:
                cyc, expected = project_cycle(si, rot), oracle_project_cycle(si, rot)
                assert cyc == expected and cyc.to_list() == expected.to_list()
                assert cycle_rotation(si, cyc) == rot
                projected += 1
    assert projected >= 100


def test_projection_rejects_ordinary_rotations(b4):
    si = symmetrize(b4)
    outcome = run_qb(si)
    rot = outcome.picks[0][0]
    with pytest.raises(InputError):
        project_cycle(si, rot)


def test_lift_matches_the_balancing_sweep(triangle):
    si = symmetrize(triangle)
    outcome = run_qb(si)
    hp = solve(triangle).hp
    lift = lift_vector(si, hp)
    assert lift == outcome.vector
    assert is_stable(si.graph, lift).stable
    shift = EdgeVector.zero(si.graph.space)
    for cyc in hp.cycles:
        shift = vec_plus(shift, cycle_rotation(si, cyc).chi)
    assert si.reflect_vector(lift).minus(lift) == shift


def test_verifier_flags_a_missing_cycle_family(triangle):
    """The empty vector with no cycles leaves every edge mutually wanted."""
    report = verify_half_partnership(
        triangle, HalfPartnership(EdgeVector.zero(triangle.space), [])
    )
    assert not report.ok
    assert report.violations == (
        {"condition": "C3", "edge": "ab", "ends": ["a", "b"]},
        {"condition": "C3", "edge": "ab", "ends": ["b", "a"]},
        {"condition": "C3", "edge": "bc", "ends": ["b", "c"]},
        {"condition": "C3", "edge": "bc", "ends": ["c", "b"]},
        {"condition": "C3", "edge": "ca", "ends": ["a", "c"]},
        {"condition": "C3", "edge": "ca", "ends": ["c", "a"]},
    )


def test_verifier_flags_an_unacceptable_star_on_both_sides(triangle):
    """With no cycles C1 tests each star once as ``in`` and once as ``out``."""
    doc = {"x": {"ab": 1, "ca": 1}, "K": []}
    report = verify_half_partnership(triangle, HalfPartnership.from_dict(triangle, doc))
    assert not report.ok
    c1 = [v for v in report.violations if v["condition"] == "C1"]
    assert c1 == [
        {"condition": "C1", "vertex": "a", "part": "in"},
        {"condition": "C1", "vertex": "a", "part": "out"},
    ]


def test_verifier_flags_the_wrong_orientation(triangle):
    good = solve(triangle).hp.cycles[0]
    backward = OddCycle(triangle, reversed_steps(good))
    report = verify_half_partnership(
        triangle, HalfPartnership(EdgeVector.zero(triangle.space), [backward])
    )
    assert not report.ok
    walk = backward.to_list()
    assert walk == ["a", "ab", "b", "bc", "c", "ca"]
    expected = []
    for v, enter, leave in (("a", "ca", "ab"), ("b", "ab", "bc"), ("c", "bc", "ca")):
        expected.append(
            {"condition": "C1", "vertex": v, "part": "exchange", "cycle": walk}
        )
        expected.append(
            {
                "condition": "C2",
                "vertex": v,
                "cycle": walk,
                "enter": enter,
                "leave": leave,
            }
        )
    assert report.violations == tuple(expected)


def test_verifier_tests_the_box_at_a_raised_position():
    """x at cap on a cycle's edge into c puts c's ``in`` star over capacity.

    With quota 2 every vertex keeps a menu of two units, over-full ones
    included, so C1 flags ``in`` at c only if the raised unit is tested
    against the box.
    """
    doc = triangle_doc()
    for spec in doc["choice"].values():
        spec["quota"] = 2
    roomy = instance_from_dict(doc)
    cycle = OddCycle(roomy, [("a", "ca"), ("c", "bc"), ("b", "ab")])
    hp = HalfPartnership(edgevec(roomy, {"ca": 1}), [cycle])
    report = verify_half_partnership(roomy, hp)
    assert {"condition": "C1", "vertex": "c", "part": "in"} in report.violations
    want = oracle_verify_half_partnership(roomy, hp)
    assert (report.ok, report.violations) == (want.ok, want.violations)


def test_the_verifier_asks_questions_where_c1_holds(monkeypatch):
    """A clean solution is verified with no menu at all; at a vertex that
    fails C1, C3 takes the menu path, and the report is the oracle's.
    """
    inst = instance_from_dict(sparse_graph_doc(random.Random(1), 160, 470))
    hp = solve(inst).hp
    assert not hp.cycles
    calls = count_choices(monkeypatch, ("choose_vals",))
    assert verify_half_partnership(inst, hp).ok
    assert calls[0] == 0

    # One more unit of an edge with room, full at one end v and not at the
    # other: v alone fails C1.
    def room(v):
        return inst.choice[v].quota - sum(inst.star_get[v](hp.x.vals))

    v, p = next(
        (u, p)
        for p, (u, _, w, _) in enumerate(inst.edge_slots)
        if hp.x.vals[p] < inst.caps.vals[p] and room(u) == 0 and room(w) > 0
    )
    tampered = HalfPartnership(hp.x.add_unit(inst.space.ids[p]), [])
    asked = []

    def choose_vals(cf, z, _apply=LinearOrderQuotaCF._apply):
        asked.append(cf.vertex)
        return _apply(cf, z)

    monkeypatch.setattr(LinearOrderQuotaCF, "choose_vals", choose_vals)
    report = verify_half_partnership(inst, tampered)
    c1 = [r for r in report.violations if r["condition"] == "C1"]
    assert c1 == [
        {"condition": "C1", "vertex": v, "part": "in"},
        {"condition": "C1", "vertex": v, "part": "out"},
    ]
    assert asked and set(asked) == {v}
    want = oracle_verify_half_partnership(inst, tampered)
    assert (report.ok, report.violations) == (want.ok, want.violations)


def test_library_vectors_skip_the_constructor_checks(monkeypatch):
    """Deferred acceptance and the projection build their vectors from ints
    they computed, so a sparse n = 160 solve checks only the double's 940
    capacities with ``_is_int`` (it made 2,350 calls when both went through
    the validating constructor)."""
    inst = instance_from_dict(sparse_graph_doc(random.Random(1), 160, 470))
    calls = []
    is_int = core._is_int
    monkeypatch.setattr(core, "_is_int", lambda v: calls.append(v) or is_int(v))
    assert solve(inst).report.ok
    assert len(calls) <= 940


def test_c3_runs_the_menu_at_an_end_whose_out_star_alone_fails_c1():
    """x at cap on the cycle's edge out of c puts c's ``out`` star over
    capacity while its ``in`` star passes C1.  The unit d offers on cd is
    then probed on c's ``out`` star through the menu, which leaves the
    box: the edge is flagged, as the whole-menu oracle flags it.  Asking
    c's question on that star would answer that c keeps it.
    """
    doc = quota_doc(
        edges=[
            ("ab", "a", "b", 1),
            ("bc", "b", "c", 1),
            ("ca", "c", "a", 1),
            ("cd", "c", "d", 1),
        ],
        quotas={"a": 2, "b": 2, "c": 2, "d": 1},
        orders={
            "a": ["ab", "ca"],
            "b": ["bc", "ab"],
            "c": ["ca", "bc", "cd"],
            "d": ["cd"],
        },
    )
    inst = instance_from_dict(doc)
    cycle = OddCycle(inst, [("a", "ca"), ("c", "bc"), ("b", "ab")])
    hp = HalfPartnership(edgevec(inst, {"bc": 1}), [cycle])
    report = verify_half_partnership(inst, hp)
    c1 = [r for r in report.violations if r["condition"] == "C1"]
    assert {"condition": "C1", "vertex": "c", "part": "out"} in c1
    assert {"condition": "C1", "vertex": "c", "part": "in"} not in c1
    assert {"condition": "C3", "edge": "cd", "ends": ["d", "c"]} in report.violations
    want = oracle_verify_half_partnership(inst, hp)
    assert (report.ok, report.violations) == (want.ok, want.violations)


def test_verifier_flags_a_tampered_vector(path3):
    report = verify_half_partnership(
        path3, HalfPartnership(edgevec(path3, {"ab": 1}), [])
    )
    assert not report.ok
    assert report.violations == (
        {"condition": "C3", "edge": "bc", "ends": ["b", "c"]},
        {"condition": "C3", "edge": "bc", "ends": ["c", "b"]},
    )
    doc = report.to_dict()
    assert doc["ok"] is False
    assert doc["violations"] == list(report.violations)


def test_verifier_rejects_malformed_solutions(triangle):
    cyc = OddCycle.from_list(triangle, TRI_CYCLE)
    zero = EdgeVector.zero(triangle.space)
    with pytest.raises(InputError):
        verify_half_partnership(
            triangle,
            HalfPartnership(zero, [cyc, OddCycle(triangle, reversed_steps(cyc))]),
        )
    with pytest.raises(InputError):
        verify_half_partnership(
            triangle, HalfPartnership(edgevec(triangle, {"ab": 5}), [])
        )


def test_solution_documents_round_trip(triangle):
    hp = solve(triangle).hp
    doc = hp.to_dict()
    back = HalfPartnership.from_dict(triangle, doc)
    assert back.x == hp.x
    assert back.cycles == hp.cycles
    with pytest.raises(InputError):
        HalfPartnership.from_dict(triangle, {"x": doc["x"]})
    with pytest.raises(InputError):
        HalfPartnership.from_dict(triangle, {"x": doc["x"], "K": [["a", "ab"]]})


def test_solver_output_satisfies_the_independent_checker(
    b4, b4_scaled, triangle, path3, cycle3, twin
):
    for inst in (b4, b4_scaled, triangle, path3, cycle3, twin):
        hp = solve(inst).hp
        assert verify_half_partnership(inst, hp).ok


def test_solve_checks_no_stability_on_the_base_instance(
    monkeypatch, b4, b4_scaled, triangle, path3, cycle3, twin
):
    """The verifier alone certifies ``solve``: see its docstring for why.

    Deferred acceptance on the double still checks its own outcome, so
    only the calls on the base instance are counted.
    """
    from stablepartners import bipartite, solver

    assert not hasattr(solver, "is_stable")
    checked = []

    def counting(inst, x):
        checked.append(inst)
        return is_stable(inst, x)

    monkeypatch.setattr(bipartite, "is_stable", counting)
    for inst in (b4, b4_scaled, triangle, path3, cycle3, twin):
        checked.clear()
        result = solve(inst)
        assert result.report.ok
        assert any(seen is result.symmetric.graph for seen in checked)
        assert not any(seen is inst for seen in checked)
