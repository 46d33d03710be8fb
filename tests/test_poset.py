"""Occurrence order, closed weight functions, and full route families."""

import copy
import itertools
import random

import pytest

from stablepartners import (
    BudgetError,
    ClosedFunction,
    InputError,
    Occurrence,
    VerificationError,
    build_full_route,
    closed_from_vector,
    deferred_acceptance,
    enumerate_stable,
    family_from_route,
    find_rotations,
    full_routes,
    instance_from_dict,
    instance_to_dict,
    is_closed,
    precedes_F,
    rotation_order,
    run_qb,
    solve,
    symmetrize,
    vector_from_closed,
)
from stablepartners import bipartite, poset

from conftest import (
    blocks_doc,
    bridged_blocks_doc,
    count_choices,
    cycle3_doc,
    degenerate_doc,
    edgevec,
    high_cap_market,
    latin_doc,
    oracle_closed_from_vector,
    oracle_family,
    oracle_full_routes,
    oracle_graph_routes,
    oracle_principal_graph,
    oracle_rotation_order,
    oracle_stable_set,
    path3_doc,
    random_bipartite_doc,
    route_vectors,
    shared_firm_doc,
    table_market,
    tabled_doc,
    twin_doc,
    union_doc,
    wide_cap_doc,
)

CHAIN_FIRST = (
    ("m1", "e12"),
    ("f2", "e22"),
    ("m2", "e23"),
    ("f3", "e33"),
    ("m3", "e31"),
    ("f1", "e11"),
)
CHAIN_SECOND = (
    ("m1", "e13"),
    ("f3", "e23"),
    ("m2", "e21"),
    ("f1", "e31"),
    ("m3", "e32"),
    ("f2", "e12"),
)
CHAIN_BOTTOM = {"e11": 1, "e22": 1, "e33": 1}
CHAIN_TOP = {"e13": 1, "e21": 1, "e32": 1}


def _seeded_markets():
    """150 seeded table markets and 12 high-capacity markets, from one seed."""
    rng = random.Random(5)
    markets = [table_market(rng)[0] for _ in range(150)]
    return markets + [high_cap_market(rng) for _ in range(12)]


def block_beside_chain_doc():
    """A crossed block beside the cyclic 3x3 chain, the block's rotation found first.

    Where the full sweep applies the block's rotation, the chain's second
    rotation is not exposed, so only an avoidance sweep shows that the
    block precedes nothing.
    """
    parts = [blocks_doc(1), cycle3_doc()]
    doc = union_doc(parts)
    doc["bipartition"] = {
        side: [
            "u{}.{}".format(i, v)
            for i, part in enumerate(parts)
            for v in part["bipartition"][side]
        ]
        for side in "WF"
    }
    return doc


def _family_triples(inst, route):
    """Route family as raw (difference tuple, ordinal, weight) triples."""
    fam = family_from_route(route)
    return sorted(
        (tuple(occ.rotation.chi[e] for e in inst.space.ids), occ.ordinal, weight)
        for occ, weight in fam.items
    )


def test_scaled_block_graph_is_a_single_jump(b4_scaled):
    graph = oracle_principal_graph(b4_scaled)
    assert len(graph.states) == 2
    assert len(graph.edges) == 1
    assert list(graph.tau.values()) == [3]
    assert graph.bottom == deferred_acceptance(b4_scaled, "W")
    assert graph.top == deferred_acceptance(b4_scaled, "F")


def test_scaled_block_order_has_one_free_occurrence(b4_scaled):
    order = rotation_order(b4_scaled)
    assert len(order.occurrences) == 1
    occ = order.occurrences[0]
    assert occ.ordinal == 0
    assert order.tau[occ] == 3
    assert order.less == frozenset()
    assert order.covers() == ()


def test_chain_instance_orders_its_two_rotations(cycle3):
    """The cyclic 3x3 market climbs through two forced six-step rotations."""
    order = rotation_order(cycle3)
    assert len(order.occurrences) == 2
    by_steps = {occ.rotation.steps: occ for occ in order.occurrences}
    first = by_steps[CHAIN_FIRST]
    second = by_steps[CHAIN_SECOND]
    assert (first, second) in order.less
    assert (second, first) not in order.less
    assert order.covers() == ((first, second),)
    assert order.tau[first] == 1 and order.tau[second] == 1
    assert order.bottom == edgevec(cycle3, CHAIN_BOTTOM)
    assert order.top == edgevec(cycle3, CHAIN_TOP)


def test_chain_order_serializes_with_stable_ids(cycle3):
    doc = rotation_order(cycle3).to_dict()
    assert [entry["id"] for entry in doc["occurrences"]] == [0, 1]
    steps = [
        tuple((s["v"], s["e"]) for s in entry["rotation"]["steps"])
        for entry in doc["occurrences"]
    ]
    assert steps == [CHAIN_FIRST, CHAIN_SECOND]
    assert all(entry["ordinal"] == 0 and entry["tau"] == 1 for entry in doc["occurrences"])
    assert doc["less"] == [[0, 1]]
    assert doc["hasse"] == [[0, 1]]


def test_disjoint_blocks_commute(twin):
    """Two untouched blocks give a diamond graph and an empty order."""
    graph = oracle_principal_graph(twin)
    assert len(graph.states) == 4
    assert len(graph.edges) == 4
    order = rotation_order(twin)
    assert len(order.occurrences) == 2
    assert order.less == frozenset()
    routes = list(full_routes(twin))
    assert len(routes) == 2
    assert routes[0].steps[0].rotation != routes[1].steps[0].rotation


def test_every_full_route_carries_the_same_family(b4_scaled, twin, cycle3):
    for inst in (b4_scaled, twin, cycle3):
        families = [
            family_from_route(route).multiset() for route in full_routes(inst)
        ]
        assert families
        assert all(fam == families[0] for fam in families)


def test_closed_functions_round_trip_every_stable_vector(
    b4, b4_scaled, twin, cycle3
):
    for inst in (b4, b4_scaled, twin, cycle3):
        order = rotation_order(inst)
        for x in enumerate_stable(inst):
            fn = closed_from_vector(inst, order, x)
            assert is_closed(order, fn)
            assert vector_from_closed(inst, order, fn) == x


def test_closed_functions_match_the_sweep_oracle(bipartite_corpus, doubled_artifacts):
    """Reading a closed function off the order gives the sweep's weights.

    At every route vector (seeds 0 and 1) of the bipartite corpus, of 150
    seeded table markets, and of the doubles of the general corpus with
    their orders, :func:`closed_from_vector` must equal the sweep from the
    bottom with whole-instance walks under the target.
    """
    rng = random.Random(29)
    markets = list(bipartite_corpus) + [table_market(rng)[0] for _ in range(150)]
    cases = [(inst, rotation_order(inst)) for inst in markets]
    cases += [(si.graph, order) for _, si, order, _ in doubled_artifacts]
    checked = 0
    for inst, order in cases:
        for x in route_vectors(inst):
            fn = closed_from_vector(inst, order, x)
            assert fn.weights == oracle_closed_from_vector(inst, order, x)
            checked += 1
    assert checked >= 800


def test_closed_functions_climb_each_occurrence_once_without_discovery(
    monkeypatch, bipartite_corpus
):
    """A closed function makes no discovery step and climbs each occurrence once at most.

    Exactly the occurrences whose predecessors all have their full weight
    in the answer are climbed.  Sweeping up from the bottom under the
    target made one discovery step per rotation applied, on top of the
    climbs of the rotations that could not move.
    """
    refreshes = _count_discovery_steps(monkeypatch)
    climbs = [0]
    climb_ = poset._climb

    def counting(*args, **kwargs):
        climbs[0] += 1
        return climb_(*args, **kwargs)

    monkeypatch.setattr(poset, "_climb", counting)
    markets = bipartite_corpus[:60] + [
        instance_from_dict(doc) for doc in (blocks_doc(40), latin_doc(8))
    ]
    calls = 0
    for inst in markets:
        order = rotation_order(inst)
        vectors = route_vectors(inst)
        refreshes[0] = 0
        for x in vectors:
            climbs[0] = 0
            weights = closed_from_vector(inst, order, x).weights
            exposed = [
                b
                for b in order.occurrences
                if all(weights[a] == order.tau[a] for a, c in order.less if c == b)
            ]
            assert climbs[0] == len(exposed) <= len(order.occurrences)
            calls += 1
        assert refreshes[0] == 0
    assert calls >= 200


def test_scaled_block_weights_sweep_the_whole_interval(b4_scaled):
    order = rotation_order(b4_scaled)
    occ = order.occurrences[0]
    weights = sorted(
        closed_from_vector(b4_scaled, order, x).weights[occ]
        for x in enumerate_stable(b4_scaled)
    )
    assert weights == [0, 1, 2, 3]


def test_closed_census_matches_the_stable_count(b4_scaled, twin, cycle3):
    """Counting closed weight functions recovers the stable vector count."""
    for inst in (b4_scaled, twin, cycle3):
        order = rotation_order(inst)
        occs = order.occurrences
        ranges = [range(order.tau[occ] + 1) for occ in occs]
        census = sum(
            1
            for combo in itertools.product(*ranges)
            if is_closed(order, dict(zip(occs, combo)))
        )
        assert census == len(enumerate_stable(inst))


def test_weight_dominance_mirrors_firm_preference(b4_scaled, twin, cycle3):
    for inst in (b4_scaled, twin, cycle3):
        order = rotation_order(inst)
        stable = enumerate_stable(inst)
        fns = {x: closed_from_vector(inst, order, x) for x in stable}
        for x in stable:
            for y in stable:
                dominated = x != y and all(
                    fns[x].weights[occ] <= fns[y].weights[occ]
                    for occ in order.occurrences
                )
                assert precedes_F(inst, x, y) == dominated


def test_closed_function_rejects_bad_weights(cycle3):
    order = rotation_order(cycle3)
    occ = order.occurrences[0]
    with pytest.raises(InputError):
        ClosedFunction(order, {occ: 2})
    with pytest.raises(InputError):
        ClosedFunction(order, {occ: -1})
    stranger = Occurrence(occ.rotation, 7)
    with pytest.raises(InputError):
        ClosedFunction(order, {stranger: 1})


def test_mapping_weights_are_checked_as_a_closed_function(cycle3):
    """An unknown occurrence, a string and a fraction are all refused."""
    order = rotation_order(cycle3)
    occ = order.occurrences[0]
    with pytest.raises(InputError, match="unknown occurrences"):
        vector_from_closed(cycle3, order, {Occurrence(occ.rotation, 7): 1})
    with pytest.raises(InputError, match="is not in 0..1"):
        vector_from_closed(cycle3, order, {occ: "a"})
    with pytest.raises(InputError, match="is not in 0..1"):
        ClosedFunction(order, {occ: 1.5})


def test_closed_functions_refuse_an_order_of_another_instance(b4, cycle3):
    """Rotations carry edge positions, so the order must live on ``inst``'s edges."""
    order = rotation_order(b4)
    full = {occ: order.tau[occ] for occ in order.occurrences}
    with pytest.raises(InputError, match="this instance's edges"):
        vector_from_closed(cycle3, order, full)
    with pytest.raises(InputError, match="this instance's edges"):
        closed_from_vector(cycle3, order, deferred_acceptance(cycle3, "W"))


def test_second_rotation_needs_the_first(cycle3):
    order = rotation_order(cycle3)
    by_steps = {occ.rotation.steps: occ for occ in order.occurrences}
    first = by_steps[CHAIN_FIRST]
    second = by_steps[CHAIN_SECOND]
    assert is_closed(order, {first: 1})
    assert is_closed(order, {first: 1, second: 1})
    assert not is_closed(order, {second: 1})
    with pytest.raises(InputError):
        vector_from_closed(cycle3, order, {second: 1})


def test_decomposition_rejects_unstable_targets(b4):
    order = rotation_order(b4)
    zero = edgevec(b4, {})
    with pytest.raises(InputError):
        closed_from_vector(b4, order, zero)


def test_route_enumeration_respects_the_limit(twin):
    assert len(list(full_routes(twin, limit=1))) == 1
    assert len(list(full_routes(twin, limit=5))) == 2
    assert len(list(full_routes(twin))) == 2
    assert list(full_routes(twin, limit=0)) == []


@pytest.mark.parametrize("make", [path3_doc, degenerate_doc, wide_cap_doc])
def test_a_zero_limit_yields_no_route_where_one_vector_is_stable(make):
    """The walk's one route is its start, and a limit of 0 still holds it back."""
    inst = instance_from_dict(make())
    assert len(list(full_routes(inst))) == 1
    assert list(full_routes(inst, limit=0)) == []


@pytest.mark.parametrize("limit", [-1, True, 1.0, "1"])
def test_route_limits_must_be_non_negative_integers(twin, limit):
    with pytest.raises(InputError, match="limit"):
        list(full_routes(twin, limit=limit))


@pytest.mark.parametrize("kwargs", [{"limit": -1}, {"budget": "x"}])
def test_route_arguments_are_checked_at_the_call(twin, kwargs):
    """A bad limit or budget raises before any route is asked for."""
    name = next(iter(kwargs))
    with pytest.raises(InputError, match=name):
        full_routes(twin, **kwargs)


def test_family_labels_repeated_uses_of_one_rotation(gated):
    """A rotation acting twice gets ordinals 0 and 1 in the family."""
    route = build_full_route(gated, seed=1)
    fam = family_from_route(route)
    assert len(fam) == 3
    per_rotation = {}
    for occ, w in fam.items:
        steps = occ.rotation.steps
        per_rotation[steps] = per_rotation.get(steps, ()) + (w,)
    assert sorted(per_rotation.values()) == [(1,), (1, 1)]
    doubled = max(per_rotation, key=lambda steps: len(per_rotation[steps]))
    ordinals = sorted(
        occ.ordinal for occ, _ in fam.items if occ.rotation.steps == doubled
    )
    assert ordinals == [0, 1]


def _renamed(inst, names):
    """``inst`` read back from its document with the vertices in ``names`` renamed."""

    def swap(item):
        if isinstance(item, str):
            return names.get(item, item)
        if isinstance(item, list):
            return [swap(x) for x in item]
        if isinstance(item, dict):
            return {swap(k): swap(v) for k, v in item.items()}
        return item

    return instance_from_dict(swap(instance_to_dict(inst)))


def test_family_disagreement_is_detected(gated):
    """The detector does not hang on which rotation the full sweep takes first.

    In ``gated`` the big block's rotation R sorts first, and the full
    sweep climbs it at the bottom with weight 1.  Renaming the small
    block's workers to sort before ``w1`` makes the full sweep apply S
    there first, and R then climbs 2.  R is exposed where S applies, yet
    the sweep that avoids S runs, as ``w1`` is a table, and climbs R at
    the bottom with weight 1.
    """
    small = _renamed(gated, {"w3": "v3", "w4": "v4"})
    for inst, first in ((gated, "w1"), (small, "v3")):
        found = find_rotations(inst, deferred_acceptance(inst, "W"))
        assert len(found) == 2 and found[0].steps[0][0] == first
        with pytest.raises(VerificationError, match="disagree"):
            rotation_order(inst)
        with pytest.raises(VerificationError, match="disagree"):
            list(full_routes(inst))


def _record_sweeps(monkeypatch):
    """Record the steps of each sweep the order runs, in call order.

    The first sweep of each :func:`rotation_order` is its full sweep; the
    rest are avoidance sweeps.
    """
    sweeps = []

    def recording(*args, **kwargs):
        steps, end = bipartite._sweep(*args, **kwargs)
        sweeps.append(steps)
        return steps, end

    monkeypatch.setattr(poset, "_sweep", recording)
    return sweeps


def test_table_choices_keep_every_avoidance_sweep(monkeypatch):
    """Exposure settles precedence on linear-order quotas only.

    The same blocks with every choice written as its table give the same
    order, but each occurrence found beside another rotation runs its
    avoidance sweep: k - 1 of them on k blocks, where quotas run none.
    """
    sweeps = _record_sweeps(monkeypatch)
    expected = rotation_order(instance_from_dict(blocks_doc(4)))
    assert len(sweeps) == 1 and len(expected.occurrences) == 4 and not expected.less
    sweeps.clear()
    order = rotation_order(instance_from_dict(tabled_doc(blocks_doc(4))))
    assert len(sweeps) - 1 == 3
    assert (order.occurrences, order.tau, order.less) == (
        expected.occurrences,
        expected.tau,
        expected.less,
    )


def test_full_routes_check_the_order_against_discovery(monkeypatch):
    """A route step the order allows but the vector does not expose raises.

    Dropping the precedence of a chain exposes every occurrence at the
    bottom, where only the first rotation is found.
    """
    square = instance_from_dict(latin_doc(4))
    order = rotation_order(square)
    assert order.less
    loose = poset.RotationOrder(
        order.occurrences, order.tau, (), order.bottom, order.top
    )
    monkeypatch.setattr(poset, "rotation_order", lambda inst, budget: loose)
    with pytest.raises(VerificationError, match="disagree"):
        next(full_routes(square))


def test_tie_breaks_can_change_the_family(gated):
    """Seeded route walks expose the two genuinely different families."""
    early = build_full_route(gated, seed=0)
    late = build_full_route(gated, seed=1)
    assert early.start == late.start == deferred_acceptance(gated, "W")
    assert early.end == late.end == deferred_acceptance(gated, "F")
    assert (
        family_from_route(early).multiset() != family_from_route(late).multiset()
    )


def test_graph_budget_is_respected(b4):
    with pytest.raises(BudgetError):
        rotation_order(b4, budget=1)
    with pytest.raises(BudgetError):
        list(full_routes(b4, budget=1))


@pytest.mark.parametrize("budget", [None, "x", 2.5, True])
def test_graph_budgets_must_be_integers(b4, budget):
    with pytest.raises(InputError, match="budget"):
        rotation_order(b4, budget)
    with pytest.raises(InputError, match="budget"):
        list(full_routes(b4, budget=budget))


def test_routes_match_an_independent_walk(b4, b4_scaled, twin, cycle3):
    """Library routes agree with a from-scratch walk of the stable order.

    The reference enumerator only uses raw choice calls: it finds the
    stable set, walks covers of the firm preference, and extends each
    cover difference as far as stability allows.  Neither rotation
    discovery nor the weight logic is shared with the library.
    """
    rng = random.Random(40816)
    instances = [b4, b4_scaled, twin, cycle3]
    instances += [
        instance_from_dict(random_bipartite_doc(rng, max_side=3, max_cap=2, box_limit=4096))
        for _ in range(20)
    ]
    for inst in instances:
        reference = oracle_family(
            oracle_full_routes(inst, oracle_stable_set(inst))
        )
        ours = [_family_triples(inst, route) for route in full_routes(inst)]
        assert sorted(map(tuple, ours)) == sorted(map(tuple, reference))


def test_occurrences_are_keyed_by_rotation_and_ordinal(b4):
    rot = find_rotations(b4, deferred_acceptance(b4, "W"))[0]
    assert Occurrence(rot, 0) == Occurrence(rot, 0)
    assert Occurrence(rot, 0) != Occurrence(rot, 1)
    assert Occurrence(rot, 0) < Occurrence(rot, 1)
    assert len({Occurrence(rot, 0), Occurrence(rot, 0), Occurrence(rot, 1)}) == 2


def test_order_matches_the_principal_graph_oracle(
    bipartite_corpus, doubled_artifacts, b4, b4_scaled, path3, twin, cycle3
):
    """One route and its avoidance sweeps give the order the whole principal graph gives.

    On the bipartite corpus, the fixtures, the seeded table and
    high-capacity markets and the doubles of the general corpus.
    """
    markets = list(bipartite_corpus) + [b4, b4_scaled, path3, twin, cycle3]
    markets.append(instance_from_dict(block_beside_chain_doc()))
    pairs = [(inst, rotation_order(inst)) for inst in markets + _seeded_markets()]
    pairs += [(si.graph, order) for _, si, order, _ in doubled_artifacts]
    for inst, order in pairs:
        expected = oracle_rotation_order(inst)
        assert order.to_dict() == expected.to_dict()
        assert (order.bottom, order.top) == (expected.bottom, expected.top)


def test_full_routes_match_the_principal_graph_routes(bipartite_corpus):
    """Same routes, same order, every field of every step equal.

    Each step's rotation, ordinal, weight, ``tau``, source and target, and
    the rotations found at its source.
    """

    def rows(routes):
        return [list(route.steps) for route in routes]

    multi_route = 0
    for inst in bipartite_corpus:
        ours = rows(full_routes(inst, limit=64))
        expected = rows(oracle_graph_routes(oracle_principal_graph(inst), limit=64))
        assert ours == expected
        multi_route += len(ours) >= 2
    assert multi_route >= 30


def _count_calls(monkeypatch, name):
    """Count the calls of the ``bipartite`` function ``name``."""
    calls = [0]
    func = getattr(bipartite, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return func(*args, **kwargs)

    # Patched in each module that binds the name, so every caller counts.
    for module in (bipartite, poset):
        monkeypatch.setattr(module, name, counting, raising=False)
    return calls


def _count_discovery_steps(monkeypatch):
    """Count the sweeps' discovery steps: fresh states and refreshes alike."""
    calls = [0]
    refresh = bipartite._Discovery.refresh

    def counting(self, x, vertices):
        calls[0] += 1
        return refresh(self, x, vertices)

    monkeypatch.setattr(bipartite._Discovery, "refresh", counting)
    return calls


def test_order_of_many_blocks_costs_few_sweeps(monkeypatch):
    """k disjoint blocks make 2**k principal states but one sweep.

    Exploring the principal graph takes one discovery per state, 4,096 at
    k = 12.  Where the full sweep applies an occurrence, every later one
    is exposed, so none of them follows it and no avoidance sweep runs:
    the order costs the full sweep's k + 1 discovery steps.  One avoidance
    sweep per occurrence made 13 + (11 + 10 + ... + 1) = 79.
    """
    calls = _count_discovery_steps(monkeypatch)
    k = 12
    order = rotation_order(instance_from_dict(blocks_doc(k)))
    assert len(order.occurrences) == k and not order.less
    assert calls[0] == k + 1


def test_order_of_many_blocks_climbs_once_per_occurrence():
    """The budget counts the full sweep's k climbs, from 1, and no other.

    One avoidance sweep per occurrence needed a budget of 90 at k = 12.
    """
    inst = instance_from_dict(blocks_doc(12))
    assert len(rotation_order(inst, budget=13).occurrences) == 12
    with pytest.raises(BudgetError, match="budget of 12 climbs"):
        rotation_order(inst, budget=12)


def test_avoidance_sweeps_still_run_where_co_exposure_does_not_settle(
    monkeypatch, bipartite_corpus
):
    """Some occurrences need their avoidance sweep, and most are settled without.

    An occurrence's sweep runs only where two or more rotations are found
    and some later occurrence is not exposed.  Over the bipartite corpus
    and the seeded table and high-capacity markets, at least 20 sweeps run,
    and fewer than the full sweeps' steps with more than one rotation
    found, each of which ran one when every occurrence had its sweep.
    """
    sweeps = _record_sweeps(monkeypatch)
    avoiding, branching = 0, 0
    for inst in list(bipartite_corpus) + _seeded_markets():
        sweeps.clear()
        rotation_order(inst)
        full, *rest = sweeps
        branching += sum(len(s.found) > 1 for s in full)
        avoiding += len(rest)
    assert 20 <= avoiding < branching


def test_order_of_a_chain_costs_one_sweep(monkeypatch):
    """A cyclic Latin square exposes one rotation at each stable vector.

    Its order is a chain, and each avoidance sweep would stop where it
    starts, so the full sweep alone gives the order: one discovery step
    per stable vector, as in the principal graph.
    """
    calls = _count_discovery_steps(monkeypatch)
    n = 16
    order = rotation_order(instance_from_dict(latin_doc(n)))
    assert len(order.occurrences) == n - 1
    assert len(order.less) == (n - 1) * (n - 2) // 2
    assert calls[0] <= n


def test_sweeps_compare_and_check_locally(monkeypatch):
    """Disjoint blocks cost no whole-instance comparison or stability check.

    No two rotations share a firm, so the minimal-landing filter compares
    nothing; comparing every pair of landings with ``precedes_F`` made
    2,574 ``precedes`` calls at k = 12.  The sweeps hold verified vectors
    only, so ``is_stable`` runs in the two proposal rounds and not in the
    13 discovery steps.
    """
    compared = _count_calls(monkeypatch, "precedes")
    checked = _count_calls(monkeypatch, "is_stable")
    swept = _count_discovery_steps(monkeypatch)
    order = rotation_order(instance_from_dict(blocks_doc(12)))
    assert len(order.occurrences) == 12
    assert compared[0] == 0
    assert checked[0] <= 2 and swept[0] >= 13


def test_order_of_forty_blocks_costs_few_choice_calls(monkeypatch):
    """Discovery after a climb recomputes only what the climb touched.

    When every sweep step rebuilt the whole exposed-rotation graph and
    screened every candidate again, the order on 40 disjoint blocks made
    248,738 choice calls, and 3,472 with one avoidance sweep per
    occurrence; the full sweep alone makes 1,600.
    """
    calls = count_choices(monkeypatch)
    order = rotation_order(instance_from_dict(blocks_doc(40)))
    assert len(order.occurrences) == 40 and not order.less
    assert calls[0] <= 1_600


def bridged_chain_doc(k):
    """``k`` crossed blocks, each bridged to the next as in :func:`bridged_blocks_doc`.

    A climb of block ``i`` moves the far end of the bridge at block
    ``i - 1``'s walk, so that block's candidate is screened again.
    """
    doc = blocks_doc(k)
    for i in range(k - 1):
        e, w, f = "bridge{}".format(i), "b{}w1".format(i), "b{}f1".format(i + 1)
        doc["edges"].append({"id": e, "ends": [w, f], "cap": 1})
        doc["choice"][w]["order"].append(e)
        doc["choice"][f]["order"].append(e)
    return doc


@pytest.mark.parametrize("make", [blocks_doc, bridged_chain_doc])
def test_a_refresh_after_a_climb_costs_what_the_climb_moved(monkeypatch, make):
    """Screens and filter verdicts per climb do not grow with the number of blocks.

    A refresh after a climb screens again only the candidates that read a
    moved star, and recomputes the minimal-landing verdict only for those
    and the candidates sharing a firm with them.  On ``k`` disjoint blocks
    that is none at every step, and on a chain of bridged blocks at most
    the two neighbours; the discovery from scratch at the bottom screens
    all ``k``.  Counted along seeded full routes at ``k = 40`` and 160.
    """
    counts = {"screen": 0, "verdict": 0}
    for attr, key, owner in (
        ("_ray_point", "screen", bipartite),
        ("_minimal", "verdict", bipartite._Discovery),
    ):
        func = getattr(owner, attr)

        def counting(*args, _func=func, _key=key, **kwargs):
            counts[_key] += 1
            return _func(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
    refresh = bipartite._Discovery.refresh
    fresh, per_step = [], []

    def recording(self, x, vertices):
        before = dict(counts)
        refresh(self, x, vertices)
        spent = tuple(counts[key] - before[key] for key in ("screen", "verdict"))
        (fresh if len(vertices) == len(self.inst.vertices) else per_step).append(spent)

    monkeypatch.setattr(bipartite._Discovery, "refresh", recording)
    worst = {}
    for k in (40, 160):
        fresh.clear()
        per_step.clear()
        assert len(build_full_route(instance_from_dict(make(k)), 3)) == k
        assert fresh == [(k, k)] and len(per_step) == k
        worst[k] = tuple(map(max, zip(*per_step)))
        assert sum(map(sum, per_step)) <= 2 * len(per_step)
    assert worst[40] == worst[160] and max(worst[160]) <= 2


def test_every_sweep_step_finds_what_discovery_from_scratch_finds(
    monkeypatch, bipartite_corpus, general_corpus, gated
):
    """The state a sweep carries matches :func:`find_rotations` at each step.

    After every refresh, the state's rotations are those found from
    scratch at its vector, the same rotations in the same order.  The
    sweeps are the full and avoidance sweeps of the order, seeded routes
    (seeds 1 to 6, each vector round-tripped through its closed function),
    and the balancing sweeps of the doubles with their halved steps, on
    both corpora, the gated instance, seeded table markets, and two
    markets where a climb moves a star that a kept candidate reads.  Each
    order gets a budget of climbs, so a refresh that never lets a sweep
    stop fails fast.
    """
    refresh = bipartite._Discovery.refresh
    checked = {"fresh": 0, "moved": 0}
    busy = [False]

    def checking(self, x, vertices):
        refresh(self, x, vertices)
        if busy[0]:
            return
        busy[0] = True
        try:
            assert self.found == find_rotations(self.inst, x, verified=True)
        finally:
            busy[0] = False
        checked["fresh" if len(vertices) == len(self.inst.vertices) else "moved"] += 1

    monkeypatch.setattr(bipartite._Discovery, "refresh", checking)
    # The gated instance's routes disagree on a weight, which the order
    # detects; its sweeps are checked up to there and along its routes.
    with pytest.raises(VerificationError, match="disagree"):
        rotation_order(gated, budget=100)
    for seed in range(4):
        build_full_route(gated, seed)
    markets = list(bipartite_corpus) + _seeded_markets()
    markets += [instance_from_dict(make()) for make in (bridged_blocks_doc, shared_firm_doc)]
    for inst in markets:
        order = rotation_order(inst, budget=100)
        for seed in range(1, 7):
            for x in build_full_route(inst, seed).vectors():
                fn = closed_from_vector(inst, order, x)
                assert vector_from_closed(inst, order, fn) == x
    halved = 0
    for inst in general_corpus:
        si = symmetrize(inst)
        for seed in (0, 1):
            halved += sum(w != tau for _, w, tau in run_qb(si, seed).picks)
        rotation_order(si.graph, budget=100)
    assert checked["moved"] >= 1_200 and checked["fresh"] >= 1_500 and halved >= 50


def test_closed_functions_compare_only_the_climbing_firms(monkeypatch):
    """Every vector of a full route maps to its closed function locally.

    Each climb under the ceiling compares the ceiling with the rotation's
    firms at each probe, and with no other firm: the climbs start at the
    bottom, below every stable vector, and no other firm moves.  There is
    no ``precedes`` call; comparing all firms at a climb's first probe
    made one or more per climb, and comparing the firms off the rotation
    passed the other 22 firms before each climb.
    """
    inst = instance_from_dict(blocks_doc(12))
    order = rotation_order(inst)
    route = build_full_route(inst)
    compared = _count_calls(monkeypatch, "precedes")
    firm_lists = []
    weakly_below = bipartite._weakly_below

    def recording(inst, lo, hi, firms):
        firm_lists.append(list(firms))
        return weakly_below(inst, lo, hi, firms)

    monkeypatch.setattr(bipartite, "_weakly_below", recording)
    for x in route.vectors():
        fn = closed_from_vector(inst, order, x)
        assert vector_from_closed(inst, order, fn) == x
    assert len(route) == 12
    assert compared[0] == 0
    # A block's firms are its prefix plus f1 and f2.
    assert firm_lists
    for firms in firm_lists:
        assert len(firms) <= 2 and len({f[:-2] for f in firms}) == 1


def test_a_sweep_never_moves_the_state_it_starts_from(bipartite_corpus):
    """Closed functions read the order and move none of it.

    The order keeps no discovery state.  After a route and a closed
    function at each of its vectors, every field of the order is what it
    was, and its bottom is still the least stable vector.
    """
    for inst in bipartite_corpus[:30] + [instance_from_dict(blocks_doc(6))]:
        order = rotation_order(inst)
        fields = {n: copy.copy(getattr(order, n)) for n in poset.RotationOrder.__slots__}
        for x in build_full_route(inst, 1).vectors():
            closed_from_vector(inst, order, x)
        assert {n: getattr(order, n) for n in fields} == fields
        assert order.bottom == deferred_acceptance(inst, "W")


def test_each_sweep_makes_one_discovery_state(monkeypatch):
    """A sweep builds its own state at its start and keeps it to the end.

    The order on 12 disjoint blocks runs its full sweep alone, and a route
    and a solve run one sweep each, so each makes one state.  The order on
    4 tabled blocks makes one more for each of its 3 avoidance sweeps.
    """
    made = [0]
    init = bipartite._Discovery.__init__

    def counting(self, inst):
        made[0] += 1
        init(self, inst)

    monkeypatch.setattr(bipartite._Discovery, "__init__", counting)
    blocks = instance_from_dict(blocks_doc(12))
    tabled = instance_from_dict(tabled_doc(blocks_doc(4)))
    for run, inst, states in (
        (rotation_order, blocks, 1),
        (build_full_route, blocks, 1),
        (solve, blocks, 1),
        (rotation_order, tabled, 4),
    ):
        made[0] = 0
        run(inst)
        assert made[0] == states, run.__name__


def test_an_orders_bottom_is_checked_once_per_instance(monkeypatch, twin):
    """``closed_from_vector`` checks each target whole, a bottom only once.

    ``rotation_order``'s bottom is the verified outcome of the proposal
    rounds, so it is not checked again on that instance.  A hand-built
    order's bottom is checked on its first use with each instance.
    """
    order = rotation_order(twin)
    stable = enumerate_stable(twin)
    checked = _count_calls(monkeypatch, "is_stable")
    for x in stable:
        closed_from_vector(twin, order, x)
    assert checked[0] == len(stable)
    by_hand = poset.RotationOrder(
        order.occurrences, order.tau, order.less, order.bottom, order.top
    )
    for inst in (twin, instance_from_dict(twin_doc())):
        checked[0] = 0
        for x in stable:
            closed_from_vector(inst, by_hand, x)
        assert checked[0] == len(stable) + 1


def test_a_hand_built_order_whose_bottom_is_not_below_the_target_raises():
    """A stable bottom that is not below the target cannot sweep to it.

    Of two disjoint blocks, the bottom has the first block's rotation
    applied and the target the second's.  The first block cannot climb
    further, and the second climbs without passing the target at its
    firms, so the climbs end above the target.
    """
    inst = instance_from_dict(blocks_doc(2))
    order = rotation_order(inst)
    first, second = (
        vector_from_closed(inst, order, {occ: order.tau[occ]})
        for occ in order.occurrences
    )
    by_hand = poset.RotationOrder(
        order.occurrences, order.tau, order.less, first, order.top
    )
    with pytest.raises(VerificationError, match="toward the target"):
        closed_from_vector(inst, by_hand, second)


def test_a_hand_built_order_with_an_unstable_bottom_raises(b4):
    order = rotation_order(b4)
    unstable = poset.RotationOrder(
        order.occurrences, order.tau, order.less, edgevec(b4, {}), order.top
    )
    for _ in range(2):
        with pytest.raises(VerificationError, match="bottom is not stable"):
            closed_from_vector(b4, unstable, order.top)
