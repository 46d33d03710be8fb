"""Doubling into a two-sided instance, mirrors, and the balancing sweep."""

import itertools
from collections import Counter

import pytest

from stablepartners import (
    EdgeVector,
    InputError,
    OddCycle,
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
    solve,
    symmetrize,
)
from stablepartners import symmetric
from stablepartners.choice import TableCF
from stablepartners.symmetric import SymmetricInstance

from conftest import (
    SUFFIX_NAMES,
    blocks_doc,
    copy_at,
    copy_vertex,
    double_vector,
    edgevec,
    gated_instance,
    halve_vector,
    mirror_occurrences,
    oracle_is_singular,
    oracle_mirror_maps,
    renamed_doc,
    ring_doc,
    suffix_named_instances,
    vec_plus,
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
    assert g.parts[0] == {"a^0", "b^0", "c^0"}
    for p, (q0, q1) in enumerate(tri_double.copy_positions):
        assert g.caps.vals[q0] == g.caps.vals[q1] == tri_double.base.caps.vals[p]


def test_copies_run_the_base_choice_on_its_memo(triangle, b4, general_corpus):
    """Both copies of ``v`` are ``C_v`` itself, on a star in ``v``'s order.

    A table's copies share its memo; quota choices keep none.
    """
    tables = 0
    for inst in [triangle, b4, gated_instance()] + list(general_corpus):
        si = symmetrize(inst)
        base_edge = oracle_mirror_maps(si).base_edge
        for v in inst.vertices:
            base = inst.choice[v]
            for i in (0, 1):
                copy = copy_vertex(v, i)
                cf = si.graph.choice[copy]
                assert cf is base
                assert type(cf) is type(base)
                if isinstance(base, TableCF):
                    assert cf._memo is base._memo
                    tables += 1
                else:
                    assert not hasattr(cf, "_memo")
                star = tuple(base_edge[e] for e in si.graph.star_ids[copy])
                assert star == inst.star_ids[v]
    assert tables == 2


def test_a_parsed_double_chooses_as_the_double(triangle):
    """Each copy's document names its own edges, for quota and table choices.

    The parsed double lists each star in the double's order, so its copies
    compare with the double's by position.
    """
    for inst in (triangle, gated_instance()):
        g = symmetrize(inst).graph
        again = parse_instance(serialize_instance(g))
        assert again.star_ids == g.star_ids
        for v in g.vertices:
            cf, parsed = g.choice[v], again.choice[v]
            assert parsed.kind == cf.kind
            for vals in itertools.product(*(range(c + 1) for c in cf.caps)):
                assert parsed.choose_vals(vals) == cf.choose_vals(vals)


def check_mirror_tables(si):
    """``mirror``, ``base_positions`` and ``copy_positions`` against the name maps.

    Each copy's image is the other copy of its base edge, with no fixed
    point; its base position names that base edge; and the mirror of an
    edge joins the mirrors of its ends, each on the other side.
    """
    maps = oracle_mirror_maps(si)
    g, base_ids = si.graph, si.base.space.ids
    ids, w_side = g.space.ids, si.graph.parts[0]
    for q, e in enumerate(ids):
        image = si.mirror[q]
        assert ids[image] == maps.sigma_edge[e]
        assert image != q and si.mirror[image] == q
        assert base_ids[si.base_positions[q]] == maps.base_edge[e]
        ends = [maps.sigma_vertex[v] for v in g.ends(e)]
        assert sorted(ends) == list(g.ends(ids[image]))
        assert all((u in w_side) != (v in w_side) for u, v in zip(ends, g.ends(e)))
    for e, (q0, q1) in zip(base_ids, si.copy_positions):
        assert (ids[q0], ids[q1]) == maps.copies[e]


def test_mirror_maps_are_involutions(triangle, bipartite_corpus, general_corpus):
    """The position tables are the maps built from the base."""
    for inst in [triangle] + list(bipartite_corpus) + list(general_corpus):
        check_mirror_tables(symmetrize(inst))


def test_copies_attach_to_the_requested_end(triangle, bipartite_corpus, general_corpus):
    """copy_at(si, e, v, i) is the copy of e incident to the copy v^i."""
    for inst in [triangle] + list(bipartite_corpus) + list(general_corpus):
        si = symmetrize(inst)
        copies = oracle_mirror_maps(si).copies
        for p, e in enumerate(inst.space.ids):
            for v in inst.ends(e):
                for i in (0, 1):
                    copy = copy_at(si, e, v, i)
                    assert copy in copies[e]
                    assert copy_vertex(v, i) in si.graph.ends(copy)
                    assert si.graph.space.index[copy] in si.copy_positions[p]


@pytest.mark.parametrize(
    "doc, names", SUFFIX_NAMES, ids=["triangle", "ring5", "triangle-copy-order"]
)
def test_ids_that_hold_the_suffix_keep_the_answer(doc, names):
    """Base ids with ``^`` and digits in them solve as the plain ids do."""
    plain = instance_from_dict(doc)
    inst = instance_from_dict(renamed_doc(doc, names))
    for seed in range(3):
        want, got = solve(plain, seed), solve(inst, seed)
        assert got.solvable == want.solvable
        assert got.hp.x.to_mapping() == {
            names[e]: val for e, val in want.hp.x.to_mapping().items()
        }
        renamed = [
            OddCycle(inst, [(names[v], names[e]) for v, e in cyc.steps])
            for cyc in want.hp.cycles
        ]
        assert list(got.hp.cycles) == sorted(renamed)
    assert not want.solvable

    si = symmetrize(inst)
    check_mirror_tables(si)
    ids = si.graph.space.ids
    for e, (q0, q1) in zip(inst.space.ids, si.copy_positions):
        assert (ids[q0], ids[q1]) == (e + "^0", e + "^1")


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
    suffixed = suffix_named_instances()
    for inst in list(general_corpus) + rings + [triangle, b4] + suffixed:
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
    assert out.odd_core
    rot = out.odd_core[0]
    assert tri_double.reflect_vector(out.vector) == vec_plus(out.vector, rot.chi)
    for seed in range(4):
        again = run_qb(tri_double, seed=seed)
        assert again.vector == out.vector
        assert len(again.odd_core) == 1


def test_balancing_sweep_balances_the_block(b4_double):
    out = run_qb(b4_double)
    assert not out.odd_core
    assert out.odd_core == ()
    assert b4_double.reflect_vector(out.vector) == out.vector
    assert [(w, tau) for _, w, tau in out.picks] == [(1, 1)]


def test_the_balancing_sweep_mirrors_each_rotation_once(
    monkeypatch, bipartite_corpus, general_corpus
):
    """A solve reflects no more rotations than its sweep finds, on 40
    general crossed blocks (every step exposes every unpicked block's
    rotations) and on both corpora."""
    reflected, found = [], set()
    reflect, sweep = SymmetricInstance.reflect_rotation, symmetric._sweep

    def counted(si, rot):
        reflected.append(rot)
        return reflect(si, rot)

    def recording(inst, pick, *args, **kwargs):
        def pick_seen(rots, used):
            found.update(rots)
            return pick(rots, used)

        return sweep(inst, pick_seen, *args, **kwargs)

    monkeypatch.setattr(SymmetricInstance, "reflect_rotation", counted)
    monkeypatch.setattr(symmetric, "_sweep", recording)
    doc = blocks_doc(40)
    del doc["bipartition"]
    solve(instance_from_dict(doc))
    assert len(reflected) == len(found) == 80
    for inst in bipartite_corpus + general_corpus:
        reflected.clear()
        found.clear()
        solve(inst)
        assert len(reflected) <= len(found), inst


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
