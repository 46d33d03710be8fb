"""Two-sided machinery: stability, proposal rounds, rotations, routes."""

import itertools
import random

import pytest

from stablepartners import (
    check_axiom,
    InputError,
    Rotation,
    build_full_route,
    climb,
    deferred_acceptance,
    enumerate_stable,
    find_rotations,
    instance_from_dict,
    is_stable,
    lattice_extremes,
    precedes_F,
    symmetrize,
)
from stablepartners import bipartite
from stablepartners.bipartite import (
    _Discovery,
    _candidate_walks,
    _ray_point,
    _walk_frame,
    _weakly_below,
)

from conftest import (
    _simple_cycles,
    blocks_doc,
    bridged_blocks_doc,
    count_choices,
    edgevec,
    high_cap_market,
    immediate_successors,
    latin_doc,
    oracle_candidate_walks,
    oracle_deferred_acceptance,
    oracle_find_rotations,
    oracle_precedes_F,
    random_bipartite_doc,
    raw_shift,
    route_vectors,
    shared_firm_doc,
    sparse_graph_doc,
    table_market,
)

B4_MIN = {"w1f1": 1, "w2f2": 1}
B4_MAX = {"w1f2": 1, "w2f1": 1}
B4_STEPS = (("w1", "w1f2"), ("f2", "w2f2"), ("w2", "w2f1"), ("f1", "w1f1"))


def test_crossed_block_has_the_two_known_stable_vectors(b4):
    found = {tuple(sorted(x.to_mapping().items())) for x in enumerate_stable(b4)}
    want = {
        tuple(sorted(edgevec(b4, B4_MIN).to_mapping().items())),
        tuple(sorted(edgevec(b4, B4_MAX).to_mapping().items())),
    }
    assert found == want


def test_proposal_rounds_reach_both_extremes(b4):
    lo, hi = lattice_extremes(b4)
    assert deferred_acceptance(b4, "W") == lo == edgevec(b4, B4_MIN)
    assert deferred_acceptance(b4, "F") == hi == edgevec(b4, B4_MAX)


def test_proposal_rounds_need_a_labeled_instance(triangle):
    with pytest.raises(InputError):
        deferred_acceptance(triangle, "W")


def test_proposal_rounds_validate_the_side(b4):
    with pytest.raises(InputError):
        deferred_acceptance(b4, "X")


def test_firm_order_is_strict_and_directed(b4):
    lo, hi = edgevec(b4, B4_MIN), edgevec(b4, B4_MAX)
    assert precedes_F(b4, lo, hi)
    assert not precedes_F(b4, hi, lo)
    assert not precedes_F(b4, lo, lo)
    assert bipartite.precedes(b4, hi, lo, "W")
    assert not bipartite.precedes(b4, lo, hi, "W")
    full = edgevec(b4, {e: 1 for e in b4.space.ids})
    with pytest.raises(InputError):
        precedes_F(b4, lo, full)


def test_one_sided_comparison_guards_name_what_is_wrong(b4, triangle):
    lo, hi = edgevec(b4, B4_MIN), edgevec(b4, B4_MAX)
    zero = edgevec(triangle, {})
    with pytest.raises(InputError, match="needs a bipartition"):
        bipartite.precedes(triangle, zero, zero, "F")
    with pytest.raises(InputError, match="side must be W or F"):
        bipartite.precedes(b4, lo, hi, "X")
    over = edgevec(b4, {"w1f1": 2})
    for x, y in ((over, hi), (lo, over)):
        with pytest.raises(InputError, match="vectors must lie in the capacity box"):
            precedes_F(b4, x, y)


def test_side_orders_match_the_oracle_and_oppose_on_stable_pairs(
    bipartite_artifacts,
):
    """On every ordered pair of stable vectors of the corpus the firm order
    equals the raw oracle, and the workers' order is its reverse."""
    pairs = 0
    for inst, stable, _ in bipartite_artifacts:
        for x, y in itertools.product(stable, repeat=2):
            above = precedes_F(inst, x, y)
            assert above == oracle_precedes_F(inst, x.vals, y.vals)
            assert bipartite.precedes(inst, y, x, "W") == above
            pairs += 1
    assert pairs >= 4000


def test_stability_report_structure(b4):
    report = is_stable(b4, edgevec(b4, B4_MIN))
    assert report.stable
    assert report.blocking == ()
    assert report.unacceptable == ()


def test_overfull_vertex_is_reported_unacceptable(b4):
    report = is_stable(b4, edgevec(b4, {"w1f1": 1, "w2f1": 1}))
    assert not report.stable
    assert report.unacceptable == ("f1",)


def test_empty_vector_is_blocked_everywhere(b4):
    report = is_stable(b4, edgevec(b4, {}))
    assert not report.stable
    assert report.blocking == ("w1f1", "w1f2", "w2f1", "w2f2")


def test_stability_rejects_vectors_outside_the_box(b4):
    with pytest.raises(InputError):
        is_stable(b4, edgevec(b4, {"w1f1": 2}))


def test_the_single_rotation_is_found_exactly(b4):
    lo = edgevec(b4, B4_MIN)
    rots = find_rotations(b4, lo)
    assert len(rots) == 1
    rot = rots[0]
    assert rot.steps == B4_STEPS
    assert rot.chi.to_mapping() == {
        "w1f1": -1,
        "w1f2": 1,
        "w2f1": 1,
        "w2f2": -1,
    }
    assert climb(b4, lo, rot) == (1, edgevec(b4, B4_MAX))
    assert climb(b4, lo, rot, limit=1) == (1, edgevec(b4, B4_MAX))


def test_no_rotations_at_the_top(b4):
    assert find_rotations(b4, edgevec(b4, B4_MAX)) == []


def test_rotation_discovery_requires_a_stable_vector(b4):
    from stablepartners import VerificationError

    zero = edgevec(b4, {})
    with pytest.raises(VerificationError, match="stable vectors"):
        find_rotations(b4, zero)
    with pytest.raises(VerificationError, match="stable vectors"):
        find_rotations(b4, zero, verified=False)


def test_rotation_canonical_form_ignores_even_shifts(b4):
    shifted = B4_STEPS[2:] + B4_STEPS[:2]
    assert Rotation(b4, shifted) == Rotation(b4, B4_STEPS)
    assert Rotation(b4, shifted).steps == B4_STEPS


def test_rotation_walks_are_validated(b4, triangle):
    with pytest.raises(InputError, match="bipartition"):
        Rotation(triangle, [("a", "ab"), ("b", "bc"), ("c", "ca")])
    with pytest.raises(InputError):
        Rotation(b4, B4_STEPS[:3])
    with pytest.raises(InputError):
        Rotation(b4, (("w1", "w1f2"), ("f2", "w2f2")))
    broken = (("w1", "w1f2"), ("f2", "w2f2"), ("w2", "w2f1"), ("f1", "w1f2"))
    with pytest.raises(InputError):
        Rotation(b4, broken)
    with pytest.raises(InputError):
        Rotation(b4, (B4_STEPS[1], B4_STEPS[2], B4_STEPS[3], B4_STEPS[0]))


@pytest.mark.parametrize(
    "steps, message",
    [
        ((), "even number"),
        (B4_STEPS[:3], "even number"),
        (
            (("w1", "w1f2"), ("f2", "w2f2"), ("w2", "w2f1"), ("f1", "w1f2")),
            "at most once",
        ),
        (
            (("w1", "w1f2"), ("f1", "w2f1"), ("w2", "w2f2"), ("f2", "w1f1")),
            "do not chain",
        ),
        ((("w1", "w1f2"), ("f2", "w2f2")), "does not close"),
        ((("w1", "w2f2"), ("f2", "w1f2")), "is not an end of edge"),
        ((("w1", "nope"), ("f1", "w1f1")), "unknown edge"),
        ((("w1", "w1f1"), ("f1", 1)), "unknown edge"),
        ((("w1", []), ("f1", "w1f1")), "unknown edge"),
        (B4_STEPS[1:] + B4_STEPS[:1], "alternate sides"),
    ],
    ids=[
        "too-short",
        "odd-length",
        "repeated-edge",
        "steps-do-not-chain",
        "walk-does-not-close",
        "vertex-not-an-end",
        "unknown-edge",
        "edge-id-a-number",
        "edge-id-a-list",
        "sides-do-not-alternate",
    ],
)
def test_ill_typed_rotation_steps_raise_input_error(b4, steps, message):
    with pytest.raises(InputError, match=message):
        Rotation(b4, steps)


def test_climb_validates_the_limit(b4):
    lo = edgevec(b4, B4_MIN)
    hi = edgevec(b4, B4_MAX)
    rot = find_rotations(b4, lo)[0]
    for bad in (True, -1, 1.5, "1"):
        with pytest.raises(InputError, match="limit"):
            climb(b4, lo, rot, limit=bad)
    assert climb(b4, lo, rot, limit=0) == (0, lo)
    assert climb(b4, lo, rot, limit=2) == (1, hi)
    assert climb(b4, hi, rot, limit=1) == (0, hi)


def test_an_inapplicable_rotation_climbs_nothing(b4):
    rot = Rotation(b4, B4_STEPS)
    hi = edgevec(b4, B4_MAX)
    assert climb(b4, hi, rot) == (0, hi)


def test_full_route_on_the_crossed_block(b4):
    route = build_full_route(b4)
    assert len(route.steps) == 1
    assert route.steps[0].weight == 1
    assert route.start == edgevec(b4, B4_MIN)
    assert route.end == edgevec(b4, B4_MAX)
    assert list(route.vectors()) == [route.start, route.end]


def test_scaled_block_climbs_in_one_heavy_step(b4_scaled):
    stable = enumerate_stable(b4_scaled)
    assert len(stable) == 4
    lo, hi = lattice_extremes(b4_scaled, stable)
    rots = find_rotations(b4_scaled, lo)
    assert len(rots) == 1
    assert climb(b4_scaled, lo, rots[0])[0] == 3
    route = build_full_route(b4_scaled)
    assert len(route.steps) == 1
    assert route.steps[0].weight == 3
    assert route.end == hi
    for k in (1, 2, 3):
        weight, y = climb(b4_scaled, lo, rots[0], limit=k)
        assert weight == k
        assert is_stable(b4_scaled, y).stable
        assert precedes_F(b4_scaled, lo, y)


def test_partial_weights_walk_the_whole_chain(b4_scaled):
    stable = set(enumerate_stable(b4_scaled))
    lo, _ = lattice_extremes(b4_scaled, stable)
    rot = find_rotations(b4_scaled, lo)[0]
    chain = [lo]
    for k in (1, 2, 3):
        weight, y = climb(b4_scaled, lo, rot, limit=k)
        assert weight == k
        chain.append(y)
    assert set(chain) == stable


def test_single_stable_path_instance(path3):
    stable = enumerate_stable(path3)
    assert len(stable) == 1
    assert stable[0] == edgevec(path3, {"ab": 1, "bc": 1})
    assert deferred_acceptance(path3, "W") == deferred_acceptance(path3, "F")
    assert find_rotations(path3, stable[0]) == []
    assert list(build_full_route(path3).steps) == []


def test_random_instances_agree_with_the_enumeration_oracle():
    rng = random.Random(314)
    for _ in range(30):
        inst = instance_from_dict(random_bipartite_doc(rng, max_side=3, max_cap=2))
        stable = enumerate_stable(inst)
        if not stable:
            continue
        lo, hi = lattice_extremes(inst, stable)
        assert deferred_acceptance(inst, "W") == lo
        assert deferred_acceptance(inst, "F") == hi
        succ = immediate_successors(inst, lo, stable)
        landed = {climb(inst, lo, rot, limit=1)[1] for rot in find_rotations(inst, lo)}
        assert landed == set(succ)


def brute_force_cycles(nodes, arcs):
    """Every elementary cycle, as a node tuple starting at its least node."""
    out = set()
    for k in range(1, len(nodes) + 1):
        for perm in itertools.permutations(nodes, k):
            if perm[0] != min(perm):
                continue
            if all((a, b) in arcs for a, b in zip(perm, perm[1:] + perm[:1])):
                out.add(perm)
    return out


def test_cycle_enumerator_matches_a_brute_force_oracle():
    rng = random.Random(2718)
    total = 0
    for _ in range(300):
        nodes = list(range(rng.randint(1, 6)))
        density = rng.random()
        arcs = {(a, b) for a in nodes for b in nodes if rng.random() < density}
        succ = {}
        for a, b in sorted(arcs):
            succ.setdefault(a, []).append(b)
        got = [tuple(c) for c in _simple_cycles(succ)]
        assert len(got) == len(set(got))
        assert set(got) == brute_force_cycles(nodes, arcs)
        total += len(got)
    assert total > 300


# -- discovery on the exposed-rotation graph ---------------------------------


def test_discovery_matches_the_all_pairs_oracle(
    bipartite_artifacts, doubled_artifacts, gated
):
    """The same rotations, in the same order, as every elementary cycle gives.

    At every stable vector of both corpora, of the gated instance and of
    300 seeded markets whose choices are mostly axiom-checked tables, and
    at the route vectors of seeded high-capacity markets with edge limits.
    Each walk of the exposed-rotation graph is also a walk of the oracle.
    """
    rng = random.Random(17)
    cases = [(inst, x) for inst, stable, _ in bipartite_artifacts for x in stable]
    cases += [(si.graph, x) for _, si, _, stable in doubled_artifacts for x in stable]
    cases += [(gated, x) for x in enumerate_stable(gated)]
    for _ in range(300):
        inst, _ = table_market(rng)
        cases += [(inst, x) for x in enumerate_stable(inst)]
    for _ in range(24):
        inst = high_cap_market(rng)
        cases += [(inst, x) for x in route_vectors(inst)]
    found = 0
    for inst, x in cases:
        state = _Discovery(inst)
        rots = find_rotations(inst, x, state=state)
        assert rots == oracle_find_rotations(inst, x)
        every = {Rotation(inst, w) for w in oracle_candidate_walks(inst, x)}
        assert set(state.walks) <= every
        found += len(rots)
    assert len(cases) >= 1_400 and found >= 950


def test_the_landing_filter_drops_a_walk_through_two_rotations(monkeypatch):
    """A candidate that lands above two others is dropped by the filter.

    Both blocks' rotations pass through ``F`` and are exposed at the
    bottom.  The walk that runs through one and then the other is a
    closed alternating walk whose landing, the top, is stable and above
    both of theirs.  The exposed-rotation graph never offers it, so it is
    added to the candidates here; it passes the screen, and only the
    minimal-landing filter can drop it.
    """
    inst = instance_from_dict(shared_firm_doc())
    assert all(check_axiom(inst.choice["F"], a).holds for a in ("SUB", "MON", "CON"))
    lo = deferred_acceptance(inst, "W")
    rots = find_rotations(inst, lo)
    assert [r.steps[0][0] for r in rots] == ["a1", "b1"]
    through_both = [
        ("a1", "a1g"),
        ("ag", "a2g"),
        ("a2", "a2F"),
        ("F", "b1F"),
        ("b1", "b1g"),
        ("bg", "b2g"),
        ("b2", "b2F"),
        ("F", "a1F"),
    ]
    frame = _walk_frame(inst, raw_shift(inst, through_both))
    assert _ray_point(inst, lo.vals, frame) == deferred_acceptance(inst, "F").vals
    positions = [inst.space.index[e] for _, e in through_both]

    def with_both(inst, succ, roots):
        return _candidate_walks(inst, succ, roots) + [positions]

    monkeypatch.setattr(bipartite, "_candidate_walks", with_both)
    state = _Discovery(inst)
    assert find_rotations(inst, lo, state=state) == rots
    assert Rotation(inst, through_both) in state.walks


@pytest.mark.parametrize(
    "make, climbed, again",
    [(bridged_blocks_doc, "b", "a"), (shared_firm_doc, "a", "b")],
    ids=["far-end-of-a-near-edge", "firm-on-both-walks"],
)
def test_a_refresh_screens_again_the_candidates_whose_stars_moved(
    monkeypatch, make, climbed, again
):
    """After a climb, a kept candidate is screened again iff it reads a moved star.

    With the bridge, climbing ``b``'s rotation moves ``bf1``, which is no
    vertex of ``a``'s walk but the far end of the bridge at it, so ``a``'s
    candidate is screened again and ``c``'s is not.  In the shared-firm
    market, climbing ``a``'s rotation moves ``F``, which is on ``b``'s
    walk.  Neither climb changes a link of the other walk's cycle, so the
    candidate is kept, not found again.
    """
    inst = instance_from_dict(make())
    lo = deferred_acceptance(inst, "W")
    state = _Discovery(inst)
    rots = find_rotations(inst, lo, state=state)
    (rot,) = [r for r in rots if r.steps[0][0].startswith(climbed)]
    (other,) = [r for r in rots if r.steps[0][0].startswith(again)]
    _, y = climb(inst, lo, rot, verified=True)
    screened = []
    ray_point = bipartite._ray_point

    def recording(inst, base, frame, k=1):
        screened.append(frame[1])
        return ray_point(inst, base, frame, k)

    monkeypatch.setattr(bipartite, "_ray_point", recording)
    kept = state.walks[other]
    found = find_rotations(inst, y, verified=True, state=state, moved=[v for v, _ in rot.steps])
    assert screened == [kept.frame[1]]
    assert state.walks[other].frame is kept.frame
    assert found == find_rotations(inst, y) == [r for r in rots if r != rot]


def test_worklist_proposals_match_the_round_robin_loop(
    monkeypatch, bipartite_corpus, doubled_artifacts, gated
):
    """Re-choosing only what moved gives the round-robin loop's vector.

    On the bipartite corpus, the gated instance, seeded table markets, the
    doubles of the general corpus and three doubles of sparse graphs of
    160 vertices and 470 edges, from both sides.  On the sparse doubles
    the worklist's rounds make at most a third of the loop's choice calls
    (922 against 3,498 on the first); the final stability check, which
    the loop does not run, is not counted.
    """
    rng = random.Random(41)
    markets = list(bipartite_corpus) + [gated]
    markets += [table_market(rng)[0] for _ in range(60)]
    markets += [si.graph for _, si, _, _ in doubled_artifacts]
    for inst in markets:
        for side in ("W", "F"):
            assert deferred_acceptance(inst, side) == oracle_deferred_acceptance(inst, side)

    calls = count_choices(monkeypatch)
    for _ in range(3):
        double = symmetrize(instance_from_dict(sparse_graph_doc(rng))).graph
        for side in ("W", "F"):
            calls[0] = 0
            expected = oracle_deferred_acceptance(double, side)
            looped = calls[0]
            calls[0] = 0
            got = deferred_acceptance(double, side)
            spent = calls[0]
            calls[0] = 0
            assert is_stable(double, got).stable
            assert got == expected and 3 * (spent - calls[0]) <= looped


def test_local_landing_order_matches_the_whole_instance_order(bipartite_artifacts):
    """The minimal-landing filter's comparison, on every triple of a corpus.

    For every base ``x`` and ordered pair ``y1 != y2`` of stable vectors,
    comparing only the firms where ``y1`` or ``y2`` moved away from ``x``
    gives ``precedes_F(y1, y2)``.  Where both lie strictly above ``x`` and
    no firm moved in both, the two are incomparable: that is why the
    filter compares only landings whose walks share a firm.
    """
    seen = {True: 0, False: 0}
    disjoint = 0
    for inst, stable, _ in bipartite_artifacts:
        firms, get = sorted(inst.parts[1]), inst.star_get
        moved = {
            (x, y): {f for f in firms if get[f](x.vals) != get[f](y.vals)}
            for x in stable
            for y in stable
        }
        for x in stable:
            for y1, y2 in itertools.permutations(stable, 2):
                near = moved[x, y1] | moved[x, y2]
                local = _weakly_below(inst, y1.vals, y2.vals, sorted(near))
                assert local == precedes_F(inst, y1, y2)
                seen[local] += 1
                if (
                    precedes_F(inst, x, y1)
                    and precedes_F(inst, x, y2)
                    and not moved[x, y1] & moved[x, y2]
                ):
                    assert not local
                    disjoint += 1
    assert min(seen.values()) >= 1_000 and disjoint >= 100


def test_latin_discovery_costs_few_choice_calls(monkeypatch):
    """Cyclic Latin squares expose one rotation at a time.

    Enumerating every elementary cycle of the all-pairs link graph made
    437,755 choice calls to find the one rotation at n=8.  Every rotation
    of the n=32 route moves every vertex, so each step pays a full
    discovery; its climbs start past the probe at k = 1, which discovery
    screened, and 150,048 calls are down to 101,440 (48,608 of them were
    those probes).
    """
    calls = count_choices(monkeypatch)
    square = instance_from_dict(latin_doc(8))
    lo = deferred_acceptance(square, "W")
    calls[0] = 0
    assert len(find_rotations(square, lo)) == 1
    assert calls[0] <= 1_000
    calls[0] = 0
    route = build_full_route(instance_from_dict(latin_doc(32)))
    assert len(route) == 31
    assert calls[0] <= 102_000
