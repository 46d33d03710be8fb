"""Doubling into a two-sided instance, mirrors, and the balancing sweep."""

import itertools
from collections import Counter

import pytest

from stablepartners import (
    EdgeVector,
    InputError,
    build_full_route,
    climb,
    deferred_acceptance,
    find_rotations,
    instance_from_dict,
    is_singular,
    parse_instance,
    project_cycle,
    rotation_order,
    run_qb,
    serialize_instance,
    symmetrize,
)

from conftest import (
    copy_vertex,
    double_vector,
    edgevec,
    gated_instance,
    halve_vector,
    mirror_occurrences,
    oracle_is_singular,
    ring_doc,
)

TRI_MIN = {"ab^0": 1, "bc^0": 1, "ca^1": 1}
TRI_MAX = {"ab^1": 1, "bc^1": 1, "ca^0": 1}
TRI_ROT_STEPS = (
    ("a^0", "ca^0"),
    ("c^1", "bc^0"),
    ("b^0", "ab^1"),
    ("a^1", "ca^1"),
    ("c^0", "bc^1"),
    ("b^1", "ab^0"),
)


@pytest.fixture(scope="module")
def tri_double(triangle):
    return symmetrize(triangle)


@pytest.fixture(scope="module")
def b4_double(b4):
    return symmetrize(b4)


def test_double_has_two_copies_of_everything(tri_double):
    g = tri_double.graph
    assert sorted(g.vertices) == ["a^0", "a^1", "b^0", "b^1", "c^0", "c^1"]
    assert sorted(g.space.ids) == ["ab^0", "ab^1", "bc^0", "bc^1", "ca^0", "ca^1"]
    assert g.is_bipartite_labeled
    assert {v for v in g.vertices if g.side(v) == "W"} == {"a^0", "b^0", "c^0"}
    for e in tri_double.base.space.ids:
        e0, e1 = tri_double.copies[e]
        assert g.caps[e0] == g.caps[e1] == tri_double.base.caps[e]


def test_copies_run_the_base_choice_on_its_memo(triangle, b4, general_corpus):
    """Both copies of ``v`` are ``C_v`` itself, on a star in ``v``'s order."""
    for inst in [triangle, b4] + list(general_corpus):
        si = symmetrize(inst)
        for v in inst.vertices:
            base = inst.choice[v]
            for i in (0, 1):
                copy = copy_vertex(v, i)
                cf = si.graph.choice[copy]
                assert type(cf) is type(base)
                assert cf._memo is base._memo
                star = tuple(si.base_edge[e] for e in si.graph.star_ids[copy])
                assert star == inst.star_ids[v]


def test_a_parsed_double_chooses_as_the_double(triangle):
    """Each copy's document names its own edges, for quota and table choices."""
    for inst in (triangle, gated_instance()):
        g = symmetrize(inst).graph
        again = parse_instance(serialize_instance(g))
        for v in g.vertices:
            cf, parsed = g.choice[v], again.choice[v]
            assert parsed.kind == cf.kind
            for vals in itertools.product(*(range(c + 1) for c in cf.caps)):
                z = EdgeVector(cf.space, vals)
                menu = EdgeVector.from_mapping(parsed.space, z.to_mapping())
                assert parsed.choose(menu).to_mapping() == cf.choose(z).to_mapping()


def test_mirror_maps_are_involutions(tri_double):
    for v in tri_double.graph.vertices:
        image = tri_double.sigma_vertex[v]
        assert image != v
        assert tri_double.sigma_vertex[image] == v
    for e in tri_double.graph.space.ids:
        image = tri_double.sigma_edge[e]
        assert image != e
        assert tri_double.sigma_edge[image] == e
        assert tri_double.base_edge[image] == tri_double.base_edge[e]


def test_copies_attach_to_the_requested_end(tri_double):
    """copy_at(e, v, i) is the copy of e incident to the copy v^i."""
    base = tri_double.base
    for e in base.space.ids:
        for v in base.ends(e):
            for i in (0, 1):
                copy = tri_double.copy_at(e, v, i)
                assert copy in tri_double.copies[e]
                assert copy_vertex(v, i) in tri_double.graph.ends(copy)


def test_double_extremes_are_mirror_images(tri_double):
    lo = deferred_acceptance(tri_double.graph, "W")
    hi = deferred_acceptance(tri_double.graph, "F")
    assert lo == edgevec(tri_double.graph, TRI_MIN)
    assert hi == edgevec(tri_double.graph, TRI_MAX)
    assert tri_double.reflect_vector(lo) == hi
    assert tri_double.reflect_vector(hi) == lo


def test_doubling_and_halving_round_trip(tri_double):
    base = tri_double.base
    for mapping in ({}, {"ab": 1}, {"ab": 1, "bc": 1, "ca": 1}):
        x = edgevec(base, mapping)
        doubled = double_vector(tri_double, x)
        assert tri_double.reflect_vector(doubled) == doubled
        assert halve_vector(tri_double, doubled) == x
    lopsided = deferred_acceptance(tri_double.graph, "W")
    with pytest.raises(InputError):
        halve_vector(tri_double, lopsided)


def test_triangle_rotation_is_self_mirrored(tri_double):
    """The odd cycle doubles into a single six-step self-mirrored rotation."""
    lo = deferred_acceptance(tri_double.graph, "W")
    rots = find_rotations(tri_double.graph, lo)
    assert len(rots) == 1
    rot = rots[0]
    assert rot.steps == TRI_ROT_STEPS
    assert is_singular(tri_double, rot)
    assert tri_double.reflect_rotation(rot) == rot
    assert climb(tri_double.graph, lo, rot)[0] == 1


def test_block_rotations_mirror_each_other(b4_double):
    lo = deferred_acceptance(b4_double.graph, "W")
    rots = find_rotations(b4_double.graph, lo)
    assert len(rots) == 2
    assert not any(is_singular(b4_double, r) for r in rots)
    assert b4_double.reflect_rotation(rots[0]) == rots[1]
    assert b4_double.reflect_rotation(rots[1]) == rots[0]
    assert b4_double.reflect_rotation(b4_double.reflect_rotation(rots[0])) == rots[0]


def test_half_turn_test_matches_the_two_way_oracle(general_corpus, triangle, b4):
    """Every rotation found along three full routes of each double."""
    rings = [
        instance_from_dict(ring_doc(n, cap, cap))
        for n in (3, 5, 7)
        for cap in (1, 3, 11)
    ]
    verdicts = Counter()
    for inst in list(general_corpus) + rings + [triangle, b4]:
        si = symmetrize(inst)
        for seed in range(3):
            for step in build_full_route(si.graph, seed).steps:
                for rot in step.found:
                    verdict = is_singular(si, rot)
                    assert verdict == oracle_is_singular(si, rot)
                    verdicts[verdict] += 1
    assert verdicts[True] >= 50 and verdicts[False] >= 50


@pytest.mark.parametrize(
    "call",
    [
        is_singular,
        project_cycle,
        lambda si, rot: si.reflect_rotation(rot),
    ],
    ids=["is_singular", "project_cycle", "reflect_rotation"],
)
def test_a_rotation_of_the_base_is_refused(b4, b4_double, call):
    rot = find_rotations(b4, deferred_acceptance(b4, "W"))[0]
    with pytest.raises(InputError, match="double's edges"):
        call(b4_double, rot)


def test_balancing_sweep_hits_the_triangle_odd_core(tri_double):
    """One singular rotation of odd weight: half of 1 rounds down to zero."""
    out = run_qb(tri_double)
    lo = deferred_acceptance(tri_double.graph, "W")
    assert out.vector == lo
    assert [(w, tau) for _, w, tau in out.picks] == [(0, 1)]
    assert len(out.odd_core) == 1
    assert not out.symmetric
    rot = out.odd_core[0]
    assert tri_double.reflect_vector(out.vector) == out.vector.plus(rot.chi)
    for seed in range(4):
        again = run_qb(tri_double, seed=seed)
        assert again.vector == out.vector
        assert len(again.odd_core) == 1


def test_balancing_sweep_balances_the_block(b4_double):
    out = run_qb(b4_double)
    assert out.symmetric
    assert out.odd_core == ()
    assert b4_double.reflect_vector(out.vector) == out.vector
    assert [(w, tau) for _, w, tau in out.picks] == [(1, 1)]


def test_mirror_occurrences_pair_without_fixed_points(b4_double):
    order = rotation_order(b4_double.graph)
    assert len(order.occurrences) == 2
    mapping = mirror_occurrences(b4_double, order)
    for occ, partner in mapping.items():
        assert partner != occ
        assert mapping[partner] == occ
        assert order.tau[occ] == order.tau[partner]
        assert partner.rotation == b4_double.reflect_rotation(occ.rotation)


def test_singular_occurrence_is_its_own_mirror(tri_double):
    order = rotation_order(tri_double.graph)
    assert len(order.occurrences) == 1
    mapping = mirror_occurrences(tri_double, order)
    occ = order.occurrences[0]
    assert mapping[occ] == occ


def test_reflection_checks_the_vector_space(tri_double):
    base_vector = EdgeVector.zero(tri_double.base.space)
    with pytest.raises(InputError):
        tri_double.reflect_vector(base_vector)
