"""Property tests: fuzzed documents, round trips, and the solver's verdict.

All run a fixed, derandomized set of examples, so the suite stays
deterministic; raise ``max_examples`` locally for a deeper search.
"""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablepartners import (
    EdgeVector,
    HalfPartnership,
    InputError,
    InternalError,
    LinearOrderQuotaCF,
    TableCF,
    VerificationError,
    check_axiom,
    closed_from_vector,
    enumerate_stable,
    instance_from_dict,
    instance_to_dict,
    is_stable,
    parse_instance,
    rotation_order,
    serialize_instance,
    solve,
    symmetrize,
    vector_from_closed,
    verify_half_partnership,
)
from stablepartners.core import EdgeSpace

from conftest import (
    EdgeLimitQuotaCF,
    b4_doc,
    bad_table_doc,
    con_violating_table,
    degenerate_doc,
    edge_map,
    gl_violating_table,
    mon_violating_table,
    oracle_check_gl,
    oracle_check_pairwise,
    oracle_rotation_order,
    oracle_stable_set,
    oracle_verify_half_partnership,
    path3_doc,
    quota_doc,
    ring_doc,
    sub_violating_table,
    table_market,
    triangle_doc,
    wide_cap_doc,
    with_edge_limits,
)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

KEYS = ["z", "c", "W", "F", "e1", "w1f1"]
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.floats(allow_nan=False)
    | st.sampled_from(["", "x", "w1", "f1", "w1f1", "hub", "e1", "table"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=6,
)


def _nodes(doc, path=()):
    """Paths to every node of a decoded JSON document, the root included."""
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        return
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _mutate(draw, doc):
    """``doc`` with one node replaced by, or stripped of, a drawn value."""
    path = draw(st.sampled_from(list(_nodes(doc))))
    if not path:
        return draw(json_values)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return doc


@st.composite
def mutated_documents(draw):
    """A valid instance document with one node mutated."""
    doc = draw(st.sampled_from([b4_doc, bad_table_doc, path3_doc, triangle_doc]))()
    return _mutate(draw, doc)


@PROPERTY
@given(mutated_documents())
def test_the_parser_raises_input_error_or_nothing(doc):
    try:
        instance_from_dict(doc)
    except InputError:
        pass


TRIANGLE = instance_from_dict(triangle_doc())


@st.composite
def mutated_solutions(draw):
    """The triangle's solution document with one node mutated."""
    doc = {"x": {"ab": 0, "bc": 0, "ca": 0}, "K": [["a", "ca", "c", "bc", "b", "ab"]]}
    return _mutate(draw, doc)


def _solution(*cycles):
    return {"x": {"ab": 0, "bc": 0, "ca": 0}, "K": list(cycles)}


@PROPERTY
@given(mutated_solutions())
@example(_solution([]))
@example(_solution(["a", "ab"]))
@example(_solution(["a", "ab", "b", "bc"]))
@example(_solution(["a", "ab", "b", "ab", "a", "ca"]))
@example(_solution(["a", "ab", "c", "ca", "b", "bc"]))
@example(_solution(["a", [], "c", "bc", "b", "ab"]))
def test_solution_documents_verify_or_raise_input_error(doc):
    try:
        verify_half_partnership(TRIANGLE, HalfPartnership.from_dict(TRIANGLE, doc))
    except InputError:
        pass


@st.composite
def instance_documents(draw):
    """Small valid documents: quota or table choices, optional bipartition."""
    n = draw(st.integers(1, 4))
    names = ["v{}".format(i) for i in range(n)]
    sides = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    bipartite = draw(st.booleans())
    edges = []
    for i, j in itertools.combinations(range(n), 2):
        if bipartite and sides[i] == sides[j]:
            continue
        if draw(st.booleans()):
            ends = [names[i], names[j]]
            cap = draw(st.integers(0, 2))
            edges.append({"id": "".join(ends), "ends": ends, "cap": cap})
    caps = {e["id"]: e["cap"] for e in edges}
    choice = {}
    for v in names:
        star = [e["id"] for e in edges if v in e["ends"]]
        if draw(st.booleans()):
            choice[v] = {
                "type": "linear_order_quota",
                "quota": draw(st.integers(0, 4)),
                "order": draw(st.permutations(star)),
            }
            continue
        entries = []
        for z in itertools.product(*[range(caps[e] + 1) for e in star]):
            c = [draw(st.integers(0, zj)) for zj in z]
            entries.append({"z": dict(zip(star, z)), "c": dict(zip(star, c))})
        choice[v] = {"type": "table", "entries": entries}
    doc = {"vertices": names, "edges": edges, "choice": choice}
    if bipartite:
        doc["bipartition"] = {
            "W": [v for v, s in zip(names, sides) if s],
            "F": [v for v, s in zip(names, sides) if not s],
        }
    return doc


@PROPERTY
@given(instance_documents())
def test_serialization_round_trips_exactly(doc):
    inst = instance_from_dict(doc)
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert serialize_instance(again) == text
    assert instance_to_dict(again) == instance_to_dict(inst)
    assert again.vertices == inst.vertices
    assert edge_map(again) == edge_map(inst)
    assert again.caps == inst.caps
    assert again.parts == inst.parts
    for v in inst.vertices:
        caps = inst.choice[v].caps
        for z in itertools.product(*[range(c + 1) for c in caps]):
            assert again.choice[v].choose_vals(z) == inst.choice[v].choose_vals(z)


@st.composite
def enumerable_documents(draw):
    """Two to five vertices, bipartite by parity or general, caps 0-3 and
    boxes of at most 4,096 vectors.

    Half are cyclic: one cap and one quota for all, and each vertex prefers
    the vertices just ahead of it, a source of several stable vectors; the
    rest draw caps, quotas and orders freely.  Now and then a table redraws
    about one row in four of a quota choice, so the axioms may fail, and
    sometimes a vertex is isolated.
    """
    n = draw(st.integers(2, 5))
    bipartite, cyclic = draw(st.booleans()), draw(st.booleans())
    caps = st.just(draw(st.integers(0, 3))) if cyclic else st.integers(0, 3)
    edges, box = [], 1
    for i, j in itertools.combinations(range(n), 2):
        cap = draw(caps)
        if bipartite and (i - j) % 2 == 0:
            continue
        if draw(st.integers(0, 3)) and box * (cap + 1) <= 4096:
            edges.append(("v{}v{}".format(i, j), i, j, cap))
            box *= cap + 1
    names = ["v{}".format(i) for i in range(n)] + ["lone"] * draw(st.booleans())
    choice = {v: {"type": "linear_order_quota", "quota": 0, "order": []} for v in names}
    for v in range(n):
        # The star of v: each edge id with the index of its other end.
        star = {e: i + j - v for e, i, j, _ in edges if v in (i, j)}
        star_caps = [c for _, i, j, c in edges if v in (i, j)]
        if cyclic:
            order = sorted(star, key=lambda e: (star[e] - v) % n)
            quota = max(star_caps, default=0)
        else:
            order = draw(st.permutations(list(star)))
            quota = draw(st.integers(0, sum(star_caps)))
        cf = LinearOrderQuotaCF(names[v], EdgeSpace(list(star)), star_caps, quota, order)
        choice[names[v]] = cf.to_dict()
        if star and _rare(draw):
            entries = []
            for z in itertools.product(*[range(c + 1) for c in star_caps]):
                c = cf.choose_vals(z)
                if _rare(draw):
                    c = tuple(draw(st.integers(0, zj)) for zj in z)
                entries.append({"z": dict(zip(star, z)), "c": dict(zip(star, c))})
            choice[names[v]] = {"type": "table", "entries": entries}
    doc = {
        "vertices": names,
        "edges": [
            {"id": e, "ends": [names[i], names[j]], "cap": c} for e, i, j, c in edges
        ],
        "choice": choice,
    }
    if bipartite:
        doc["bipartition"] = {"W": names[0::2], "F": names[1::2]}
    return doc


NO_EDGES_DOC = {
    "vertices": ["v"],
    "edges": [],
    "choice": {"v": {"type": "linear_order_quota", "quota": 0, "order": []}},
}


@PROPERTY
@given(enumerable_documents())
@example(degenerate_doc())
@example(wide_cap_doc())
@example(NO_EDGES_DOC)
def test_enumeration_equals_the_direct_definition(doc):
    """Aim: the pruned product keeps exactly the stable vectors, in
    lexicographic order, on any choice, axioms or not."""
    inst = instance_from_dict(doc)
    assert [x.vals for x in enumerate_stable(inst)] == sorted(oracle_stable_set(inst))


@st.composite
def quota_instances(draw):
    """General graphs of 2-5 vertices with quota choices: caps 0-2, quotas 0-3.

    Half of them are odd rings, chords allowed, with one cap and one quota
    for all and every vertex preferring the vertices just ahead of it: free
    draws are almost never unsolvable, such rings often are.
    """
    ring = draw(st.booleans())
    n = draw(st.sampled_from([3, 5]) if ring else st.integers(2, 5))
    caps = st.just(draw(st.integers(0, 2))) if ring else st.integers(0, 2)
    quotas = st.just(draw(st.integers(0, 3))) if ring else st.integers(0, 3)
    names = ["v{}".format(i) for i in range(n)]
    edges = [
        (i, j, draw(caps))
        for i, j in itertools.combinations(range(n), 2)
        if (ring and j - i in (1, n - 1)) or draw(st.booleans())
    ]
    choice = {}
    for v in range(n):
        # The star of v: each edge id with the index of its other end.
        star = {names[i] + names[j]: i + j - v for i, j, _ in edges if v in (i, j)}
        if ring:
            order = sorted(star, key=lambda e: (star[e] - v) % n)
        else:
            order = draw(st.permutations(list(star)))
        choice[names[v]] = {
            "type": "linear_order_quota",
            "quota": draw(quotas),
            "order": order,
        }
    doc = {
        "vertices": names,
        "edges": [
            {"id": names[i] + names[j], "ends": [names[i], names[j]], "cap": c}
            for i, j, c in edges
        ],
        "choice": choice,
    }
    return instance_from_dict(doc)


@PROPERTY
@given(quota_instances())
def test_solver_verdicts_agree_with_enumeration(inst):
    result = solve(inst)
    assert verify_half_partnership(inst, result.hp).ok
    stable = enumerate_stable(inst)
    assert result.solvable == bool(stable)
    if result.solvable:
        assert result.hp.x in stable


@pytest.fixture(scope="module")
def certified_pool(bipartite_corpus, general_corpus):
    """Both corpora, seeded table markets and the SUB-breaking table hub."""
    rng = random.Random(9)
    tables = [table_market(rng)[0] for _ in range(10)]
    pool = bipartite_corpus + general_corpus + tables
    pool.append(instance_from_dict(bad_table_doc()))
    return [(inst, enumerate_stable(inst)) for inst in pool]


@PROPERTY
@given(data=st.data())
def test_a_verified_empty_cycle_family_is_a_stable_vector(certified_pool, data):
    """What certifies ``solve`` alone: with K empty, C1 and C3 imply stability.

    ``x`` is drawn from the box, or is a stable vector moved by one unit
    on one edge, where a single blocking edge is likely.
    """
    inst, stable = data.draw(st.sampled_from(certified_pool))
    caps = inst.caps.vals
    if stable and caps and data.draw(st.booleans()):
        vals = list(data.draw(st.sampled_from(stable)).vals)
        p = data.draw(st.integers(0, len(caps) - 1))
        vals[p] = data.draw(st.sampled_from([vals[p] - 1, vals[p] + 1]))
        vals[p] = min(max(vals[p], 0), caps[p])
    else:
        vals = [data.draw(st.integers(0, c)) for c in caps]
    x = EdgeVector(inst.space, vals)
    if verify_half_partnership(inst, HalfPartnership(x, ())).ok:
        assert is_stable(inst, x).stable


@pytest.fixture(scope="module")
def star_pool(bipartite_corpus, general_corpus):
    """Both corpora and their doubles."""
    pool = list(bipartite_corpus) + list(general_corpus)
    return pool + [symmetrize(inst).graph for inst in pool]


def _stars_by_position(inst, vals):
    return {v: tuple(vals[p] for p in inst.star_positions[v]) for v in inst.vertices}


def test_every_star_getter_reads_its_own_positions(star_pool):
    """At every vertex of the pool, degrees 0 and 1 among them."""
    degrees = set()
    for inst in star_pool:
        vals = tuple(range(len(inst.space)))
        got = {v: inst.star_get[v](vals) for v in inst.vertices}
        assert got == _stars_by_position(inst, vals)
        degrees.update(map(len, got.values()))
    assert {0, 1, 2} <= degrees


@PROPERTY
@given(data=st.data())
def test_star_getters_read_tuples_off_any_raw_vector(star_pool, data):
    """A list or a tuple of any integers, read at every vertex."""
    inst = data.draw(st.sampled_from(star_pool))
    n = len(inst.space)
    vals = data.draw(st.lists(st.integers(-3, 9), min_size=n, max_size=n))
    if data.draw(st.booleans()):
        vals = tuple(vals)
    got = {v: inst.star_get[v](vals) for v in inst.vertices}
    assert got == _stars_by_position(inst, vals)
    assert all(type(z) is tuple for z in got.values())


@pytest.fixture(scope="module")
def slot_pool(bipartite_corpus, general_corpus):
    """Three groups: both corpora, the same with per-edge limits, and thirty
    table markets."""
    rng = random.Random(36)
    pool = list(bipartite_corpus) + list(general_corpus)
    limited = [with_edge_limits(rng, inst, inst.vertices) for inst in pool]
    return pool, limited, [table_market(rng)[0] for _ in range(30)]


def _slots_by_name(inst):
    """``edge_slots`` as the star names read it.

    An edge's ends are the two vertices whose stars list it, the lesser
    id first, and each slot is the edge's index in that star.
    """
    ids = inst.star_ids
    ends = {e: [] for e in inst.space.ids}
    for v in inst.vertices:
        for e in ids[v]:
            ends[e].append(v)
    return tuple(
        (u, ids[u].index(e), w, ids[w].index(e))
        for e, (u, w) in ends.items()
    )


def test_every_slot_reads_as_its_name(slot_pool):
    """At both ends of every edge of the pool and of every double."""
    for inst in itertools.chain(*slot_pool):
        for g in (inst, symmetrize(inst).graph):
            assert g.edge_slots == _slots_by_name(g)


@PROPERTY
@given(data=st.data())
def test_a_serialized_double_reparses_with_its_stars(slot_pool, data):
    """The same ``star_ids``, documents and choices on every box vector.

    The slot tables of the drawn instance, its double and the re-parsed
    double read as the names do.  A per-edge limit has no document form,
    so an edge-limited double checks its slots alone.  A document fixes no
    star order: parsing lists each star by sorted id.  The corpora's ids
    sort the same with and without the copy suffixes, so their doubles
    re-parse with the same stars.  Ids such as ``e1`` and ``e10`` do not:
    ``e10^0`` sorts before ``e1^1``, and a re-parsed star lists the two
    copies the other way round (as for 1 of 301 instances checked).
    """
    inst = data.draw(st.sampled_from(data.draw(st.sampled_from(slot_pool))))
    double = symmetrize(inst).graph
    for g in (inst, double):
        assert g.edge_slots == _slots_by_name(g)
    if any(isinstance(cf, EdgeLimitQuotaCF) for cf in inst.choice.values()):
        return
    again = parse_instance(serialize_instance(double))
    assert again.star_ids == double.star_ids
    assert again.edge_slots == double.edge_slots
    for v in double.vertices:
        cf, parsed = double.choice[v], again.choice[v]
        assert parsed.to_dict() == cf.to_dict(double.star_ids[v])
        for vals in itertools.product(*(range(c + 1) for c in cf.caps)):
            assert parsed.choose_vals(vals) == cf.choose_vals(vals)


def _rare(draw):
    """A coin that comes up one time in four."""
    return draw(st.integers(0, 3)) == 3


def _cyclic_block(draw, tag, max_side):
    """Edges, quotas and orders of one cyclic block of the same size a side.

    Each side's list starts one step further round, the classic source of
    rotation chains; one edge may be dropped, one pair of neighbours in
    one list swapped, and one vertex's quota doubled.
    """
    n = draw(st.integers(1, max_side))
    cap = draw(st.integers(1, 2))
    ws = ["{}w{}".format(tag, i) for i in range(n)]
    fs = ["{}f{}".format(tag, j) for j in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    dropped = draw(st.sampled_from(pairs)) if _rare(draw) else None
    kept = [e for e in pairs if e != dropped]
    ids = {(i, j): ws[i] + fs[j] for i, j in kept}
    orders = {}
    for i, w in enumerate(ws):
        ranked = sorted((j for k, j in kept if k == i), key=lambda j: (j - i) % n)
        orders[w] = [ids[(i, j)] for j in ranked]
    for j, f in enumerate(fs):
        ranked = sorted((i for i, k in kept if k == j), key=lambda i: (i - j - 1) % n)
        orders[f] = [ids[(i, j)] for i in ranked]
    ranked = orders[draw(st.sampled_from(ws + fs))]
    if len(ranked) >= 2 and _rare(draw):
        k = draw(st.integers(0, len(ranked) - 2))
        ranked[k], ranked[k + 1] = ranked[k + 1], ranked[k]
    quotas = dict.fromkeys(orders, cap)
    if _rare(draw):
        quotas[draw(st.sampled_from(ws + fs))] = 2 * cap
    edges = [(ids[(i, j)], ws[i], fs[j], cap) for i, j in kept]
    return edges, quotas, orders, (ws, fs)


@st.composite
def bipartite_markets(draw):
    """Labeled quota markets: a cyclic block of one to three a side, caps
    1-2, and sometimes a second, disjoint block of one or two a side, whose
    rotations are incomparable with the first block's."""
    edges, quotas, orders, (ws, fs) = _cyclic_block(draw, "a", 3)
    if draw(st.booleans()):
        more_edges, more_quotas, more_orders, (more_ws, more_fs) = _cyclic_block(
            draw, "b", 2
        )
        edges += more_edges
        quotas.update(more_quotas)
        orders.update(more_orders)
        ws, fs = ws + more_ws, fs + more_fs
    return instance_from_dict(quota_doc(edges, quotas, orders, parts=(ws, fs)))


@PROPERTY
@given(bipartite_markets())
def test_sweeps_give_the_principal_graph_order_and_round_trip(inst):
    """Aims: the order equals the oracle's, and every stable vector is the
    vector of its own closed function."""
    order = rotation_order(inst)
    assert order.to_dict() == oracle_rotation_order(inst).to_dict()
    for x in enumerate_stable(inst):
        assert vector_from_closed(inst, order, closed_from_vector(inst, order, x)) == x


@st.composite
def small_tables(draw):
    """Quota choices on up to four edges of cap 0-2, about one row in four
    redrawn as any part of its menu or as the menu less one unit, so that
    each axiom both holds and fails."""
    caps = draw(st.lists(st.integers(0, 2), max_size=4))
    space = EdgeSpace(["e{}".format(i + 1) for i in range(len(caps))])
    order = draw(st.permutations(space.ids))
    base = LinearOrderQuotaCF("v", space, caps, draw(st.integers(0, sum(caps))), order)
    rows = []
    for z in itertools.product(*[range(c + 1) for c in caps]):
        c = base.choose_vals(z)
        if any(z) and _rare(draw):
            if draw(st.booleans()):
                c = tuple(draw(st.integers(0, zj)) for zj in z)
            else:
                j = draw(st.sampled_from([j for j, zj in enumerate(z) if zj]))
                c = z[:j] + (z[j] - 1,) + z[j + 1 :]
        rows.append((z, c))
    return TableCF("v", space, caps, rows)


@PROPERTY
@given(small_tables())
@example(sub_violating_table())
@example(mon_violating_table())
@example(con_violating_table())
@example(gl_violating_table())
def test_axiom_checks_equal_their_oracles(cf):
    """Aim: the covering-pair and box-lookup scans give the oracles'
    reports, witness and pair count included."""
    for axiom in ("SUB", "MON", "CON", "GL"):
        got = check_axiom(cf, axiom)
        if axiom == "GL":
            want = oracle_check_gl(cf)
        else:
            want = oracle_check_pairwise(cf, axiom)
        assert (got.holds, got.pairs_checked, got.witness) == (
            want.holds,
            want.pairs_checked,
            want.witness,
        ), axiom


@pytest.fixture(scope="module")
def solved_pool(bipartite_corpus, general_corpus):
    """Instances with the half-partnership ``solve`` gives them.

    Both corpora, odd rings at caps 1-3, the triangle, seeded table markets
    and the SUB-breaking table hub, which ``solve`` refuses: it gets the
    empty vector and no cycles.
    """
    rng = random.Random(30)
    pool = bipartite_corpus + general_corpus
    pool += [instance_from_dict(ring_doc(n, c, c)) for n in (3, 5, 7) for c in (1, 2, 3)]
    pool.append(TRIANGLE)
    pool += [table_market(rng)[0] for _ in range(10)]
    pool.append(instance_from_dict(bad_table_doc()))
    solved = []
    for inst in pool:
        try:
            hp = solve(inst).hp
        except VerificationError:
            hp = HalfPartnership(EdgeVector.zero(inst.space), ())
        solved.append((inst, hp))
    return solved


def _verdict(verify, inst, hp):
    """A verifier's report as plain data, or the error it raised."""
    try:
        report = verify(inst, hp)
    except (InputError, InternalError) as exc:
        return type(exc), str(exc)
    return report.ok, report.violations


@PROPERTY
@given(data=st.data())
def test_the_verifier_reports_what_the_whole_menu_oracle_reports(solved_pool, data):
    """Box tests at the raised positions only lose no violation.

    ``x`` is drawn in the box, at the caps, or one unit off ``solve``'s
    ``x``, each with and without ``solve``'s cycles, so adjusted stars
    often leave the box.
    """
    inst, solved = data.draw(st.sampled_from(solved_pool))
    caps = inst.caps.vals
    how = data.draw(st.sampled_from(["box", "caps", "off"]))
    if how == "box":
        vals = [data.draw(st.integers(0, c)) for c in caps]
    elif how == "caps":
        vals = list(caps)
    else:
        vals = list(solved.x.vals)
        if caps:
            p = data.draw(st.integers(0, len(caps) - 1))
            vals[p] = min(max(vals[p] + data.draw(st.sampled_from([-1, 1])), 0), caps[p])
    cycles = solved.cycles if data.draw(st.booleans()) else ()
    hp = HalfPartnership(EdgeVector(inst.space, vals), cycles)
    assert _verdict(verify_half_partnership, inst, hp) == _verdict(
        oracle_verify_half_partnership, inst, hp
    )
