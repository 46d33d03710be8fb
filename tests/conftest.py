"""Shared fixtures: frozen instances, corpus generators, independent oracles.

The frozen instances pin down hand-derived expectations; the generators
produce seeded random corpora small enough for brute-force enumeration.
Oracle helpers here deliberately avoid the library's stability and rotation
code paths so that tests compare two independent computations.
"""

import itertools
import random
from collections import Counter, namedtuple

import numpy as np
import pytest

from stablepartners import (
    EdgeVector,
    InputError,
    Instance,
    InternalError,
    OddCycle,
    Occurrence,
    Rotation,
    RotationOrder,
    Route,
    RouteStep,
    VerificationError,
    build_full_route,
    check_axiom,
    climb,
    deferred_acceptance,
    enumerate_stable,
    find_rotations,
    instance_from_dict,
    is_singular,
    is_stable,
    precedes_F,
    rotation_order,
    symmetrize,
)
from stablepartners.choice import AxiomReport, LinearOrderQuotaCF, TableCF, box_array
from stablepartners.core import EdgeSpace


# -- document builders -------------------------------------------------------


def quota_doc(edges, quotas, orders, parts=None):
    """Build an instance document from edge tuples and per-vertex quotas.

    ``edges`` is a list of (id, u, v, cap); ``quotas`` maps vertex to its
    quota; ``orders`` maps vertex to its edge preference list (most
    preferred first).
    """
    vertices = {v for _, u, w, _ in edges for v in (u, w)}
    if parts is not None:
        vertices |= set(parts[0]) | set(parts[1])
    vertices = sorted(vertices)
    doc = {
        "vertices": vertices,
        "edges": [{"id": e, "ends": [u, w], "cap": cap} for e, u, w, cap in edges],
        "choice": {
            v: {
                "type": "linear_order_quota",
                "quota": quotas.get(v, 0),
                "order": orders.get(v, []),
            }
            for v in vertices
        },
    }
    if parts is not None:
        doc["bipartition"] = {"W": sorted(parts[0]), "F": sorted(parts[1])}
    return doc


def b4_doc(cap=1):
    """Crossed two-by-two block: each side ranks the other side oppositely."""
    return quota_doc(
        edges=[
            ("w1f1", "w1", "f1", cap),
            ("w1f2", "w1", "f2", cap),
            ("w2f1", "w2", "f1", cap),
            ("w2f2", "w2", "f2", cap),
        ],
        quotas={"w1": cap, "w2": cap, "f1": cap, "f2": cap},
        orders={
            "w1": ["w1f1", "w1f2"],
            "w2": ["w2f2", "w2f1"],
            "f1": ["w2f1", "w1f1"],
            "f2": ["w1f2", "w2f2"],
        },
        parts=(["w1", "w2"], ["f1", "f2"]),
    )


def bad_table_doc():
    """Two-edge hub whose table keeps a unit it rejects alone: breaks SUB."""
    entries = [
        {"z": {"e1": 0, "e2": 0}, "c": {"e1": 0, "e2": 0}},
        {"z": {"e1": 0, "e2": 1}, "c": {"e1": 0, "e2": 1}},
        {"z": {"e1": 1, "e2": 0}, "c": {"e1": 0, "e2": 0}},
        {"z": {"e1": 1, "e2": 1}, "c": {"e1": 1, "e2": 0}},
    ]
    return {
        "vertices": ["hub", "n1", "n2"],
        "edges": [
            {"id": "e1", "ends": ["hub", "n1"], "cap": 1},
            {"id": "e2", "ends": ["hub", "n2"], "cap": 1},
        ],
        "choice": {
            "hub": {"type": "table", "entries": entries},
            "n1": {"type": "linear_order_quota", "quota": 1, "order": ["e1"]},
            "n2": {"type": "linear_order_quota", "quota": 1, "order": ["e2"]},
        },
    }


def degenerate_doc():
    """A zero-capacity edge beside a unit one, and an isolated vertex.

    ``lone`` has an empty star, so its box is the single empty vector.
    """
    return quota_doc(
        edges=[("wf", "w", "f", 1), ("wg", "w", "g", 0)],
        quotas={"w": 1, "f": 1, "g": 1},
        orders={"w": ["wg", "wf"], "f": ["wf"], "g": ["wg"]},
        parts=(["w", "lone"], ["f", "g"]),
    )


def triangle_doc():
    """Three parties in a cyclic tie: everyone prefers the next one around."""
    return quota_doc(
        edges=[("ab", "a", "b", 1), ("bc", "b", "c", 1), ("ca", "c", "a", 1)],
        quotas={"a": 1, "b": 1, "c": 1},
        orders={"a": ["ab", "ca"], "b": ["bc", "ab"], "c": ["ca", "bc"]},
    )


def path3_doc():
    """Path a - b - c where the middle vertex can hold both neighbors."""
    return quota_doc(
        edges=[("ab", "a", "b", 1), ("bc", "b", "c", 1)],
        quotas={"a": 1, "b": 2, "c": 1},
        orders={"a": ["ab"], "b": ["ab", "bc"], "c": ["bc"]},
        parts=(["a", "c"], ["b"]),
    )


def gated_instance():
    """Two coupled blocks whose bridge defeats route-family invariance.

    The big block is a crossed two-by-two with capacity 2 (rotation R), the
    small one a unit crossed block (rotation S), and the bridge w1f3 makes
    R's second unit conflict with the small block's start.  w1's choice is a
    conditional-order table: greedy a > b > bridge while any unit of a is
    held, greedy bridge > b once a is empty.  That table satisfies the
    pairwise axioms exhaustively, yet the maximal feasible weight of R jumps
    from 1 to 2 after S is applied, so different tie-breaks produce full
    routes with genuinely different weighted families.  Tests use this to
    pin the detector, not as a healthy example.
    """
    edges = {
        "a": ("w1", "f1", 2),
        "b": ("w1", "f2", 2),
        "c": ("w2", "f2", 2),
        "d": ("w2", "f1", 2),
        "estar": ("w1", "f3", 1),
        "e3": ("w3", "f3", 1),
        "e4": ("w4", "f3", 1),
        "bb3": ("w3", "f4", 1),
        "bb4": ("w4", "f4", 1),
    }

    def star(v):
        return sorted(e for e, (u, w, _) in edges.items() if v in (u, w))

    def w1_table():
        ids = star("w1")
        caps = tuple(edges[e][2] for e in ids)
        pos = {e: i for i, e in enumerate(ids)}

        def rule(z):
            order = ["a", "b", "estar"] if z[pos["a"]] >= 1 else ["estar", "b"]
            out = [0] * len(ids)
            run = 0
            for e in order:
                take = min(z[pos[e]], 2 - run)
                out[pos[e]] = take
                run += take
                if run == 2:
                    break
            return tuple(out)

        ranges = [range(c + 1) for c in caps]
        entries = [(z, rule(z)) for z in itertools.product(*ranges)]
        return TableCF("w1", EdgeSpace(ids), caps, entries)

    def quota_cf(v, q, order):
        from stablepartners.choice import LinearOrderQuotaCF

        ids = star(v)
        caps = tuple(edges[e][2] for e in ids)
        return LinearOrderQuotaCF(v, EdgeSpace(ids), caps, q, order)

    choice = {
        "w1": w1_table(),
        "w2": quota_cf("w2", 2, ["c", "d"]),
        "w3": quota_cf("w3", 1, ["e3", "bb3"]),
        "w4": quota_cf("w4", 1, ["bb4", "e4"]),
        "f1": quota_cf("f1", 2, ["d", "a"]),
        "f2": quota_cf("f2", 2, ["b", "c"]),
        "f3": quota_cf("f3", 1, ["e4", "estar", "e3"]),
        "f4": quota_cf("f4", 1, ["bb3", "bb4"]),
    }
    return Instance(
        ["w1", "w2", "w3", "w4", "f1", "f2", "f3", "f4"],
        {e: (u, w) for e, (u, w, _) in edges.items()},
        {e: cap for e, (_, _, cap) in edges.items()},
        choice,
        parts=(["w1", "w2", "w3", "w4"], ["f1", "f2", "f3", "f4"]),
    )


def cycle3_doc():
    """Cyclic three-by-three matching market with a two-rotation chain.

    Every m ranks its own f first and the rest cyclically; every f ranks
    the next m around the cycle first.  Three stable assignments form a
    chain, climbed by two six-step rotations that must act in order.
    """
    edges = [
        ("e%d%d" % (i, j), "m%d" % i, "f%d" % j, 1)
        for i in (1, 2, 3)
        for j in (1, 2, 3)
    ]
    quotas = {v: 1 for v in ("m1", "m2", "m3", "f1", "f2", "f3")}
    orders = {
        "m1": ["e11", "e12", "e13"],
        "m2": ["e22", "e23", "e21"],
        "m3": ["e33", "e31", "e32"],
        "f1": ["e21", "e31", "e11"],
        "f2": ["e32", "e12", "e22"],
        "f3": ["e13", "e23", "e33"],
    }
    return quota_doc(
        edges, quotas, orders, parts=(["m1", "m2", "m3"], ["f1", "f2", "f3"])
    )


def twin_doc():
    """Two vertex-disjoint crossed blocks in one instance.

    Each block carries its own rotation; the two occurrences are
    incomparable, so the principal graph is a diamond with two full routes.
    """
    return blocks_doc(2, prefixes="pq")


def blocks_doc(k, prefixes=None):
    """``k`` vertex-disjoint unit crossed blocks, named by ``prefixes``.

    The principal graph has ``2**k`` states; the order is ``k`` incomparable
    occurrences.  The default prefixes are ``b0``, ``b1``, ...
    """
    if prefixes is None:
        prefixes = ["b{}".format(i) for i in range(k)]
    edges, quotas, orders = [], {}, {}
    for p in prefixes:
        for e, u, w in [
            ("w1f1", "w1", "f1"),
            ("w1f2", "w1", "f2"),
            ("w2f1", "w2", "f1"),
            ("w2f2", "w2", "f2"),
        ]:
            edges.append((p + e, p + u, p + w, 1))
        quotas.update({p + v: 1 for v in ("w1", "w2", "f1", "f2")})
        orders.update(
            {
                p + "w1": [p + "w1f1", p + "w1f2"],
                p + "w2": [p + "w2f2", p + "w2f1"],
                p + "f1": [p + "w2f1", p + "w1f1"],
                p + "f2": [p + "w1f2", p + "w2f2"],
            }
        )
    parts = (
        [p + v for p in prefixes for v in ("w1", "w2")],
        [p + v for p in prefixes for v in ("f1", "f2")],
    )
    return quota_doc(edges, quotas, orders, parts=parts)


# -- frozen instances --------------------------------------------------------


@pytest.fixture(scope="session")
def b4():
    return instance_from_dict(b4_doc())


@pytest.fixture(scope="session")
def b4_scaled():
    return instance_from_dict(b4_doc(cap=3))


@pytest.fixture(scope="session")
def triangle():
    return instance_from_dict(triangle_doc())


@pytest.fixture(scope="session")
def path3():
    return instance_from_dict(path3_doc())


@pytest.fixture(scope="session")
def gated():
    return gated_instance()


@pytest.fixture(scope="session")
def cycle3():
    return instance_from_dict(cycle3_doc())


@pytest.fixture(scope="session")
def twin():
    return instance_from_dict(twin_doc())


def edgevec(inst, mapping):
    return EdgeVector.from_mapping(inst.space, mapping)


# -- random corpora ----------------------------------------------------------


def box_size(doc):
    n = 1
    for e in doc["edges"]:
        n *= e["cap"] + 1
    return n


def random_bipartite_doc(rng, max_side=4, max_cap=3, box_limit=80_000):
    """A random labeled bipartite instance with an enumerable box.

    Three construction styles are mixed.  Purely random preference orders
    almost always admit a single stable vector, so most of the corpus uses
    cyclically shifted orders on a complete block (each side starts its
    list one step further around), which is the classic source of long
    stable chains and weighted rotations; a slice of vertex-disjoint block
    pairs adds incomparable rotations and therefore several routes per
    instance.  All styles get light random perturbation: dropped edges,
    occasional order swaps, varied quotas.
    """
    while True:
        style = rng.random()
        if style < 0.35:
            doc = _random_orders_doc(rng, max_side, max_cap)
        elif style < 0.75:
            doc = _cyclic_orders_doc(rng, max_side, max_cap)
        else:
            doc = _block_pair_doc(rng, max_cap)
        if doc is not None and box_size(doc) <= box_limit:
            return doc


def _random_orders_doc(rng, max_side, max_cap):
    nw = rng.randint(1, max_side)
    nf = rng.randint(1, max_side)
    ws = ["w{}".format(i) for i in range(1, nw + 1)]
    fs = ["f{}".format(i) for i in range(1, nf + 1)]
    edges = []
    for w, f in itertools.product(ws, fs):
        if rng.random() < 0.7:
            edges.append((w + f, w, f, rng.randint(1, max_cap)))
    if not edges:
        return None
    caps = {e: cap for e, _, _, cap in edges}
    quotas, orders = {}, {}
    for v in ws + fs:
        star = [e for e, u, w, _ in edges if v in (u, w)]
        rng.shuffle(star)
        orders[v] = star
        hi = sum(caps[e] for e in star)
        # A quota well below the star total keeps the vertex selective.
        quotas[v] = min(hi, rng.randint(1, max(1, hi // 2)))
    return quota_doc(edges, quotas, orders, parts=(ws, fs))


def _cyclic_orders_doc(rng, max_side, max_cap, min_cap=1):
    n = rng.randint(2, max_side)
    cap = rng.randint(min_cap, max_cap)
    ws = ["w{}".format(i) for i in range(1, n + 1)]
    fs = ["f{}".format(i) for i in range(1, n + 1)]
    kept = {}
    for i, j in itertools.product(range(n), range(n)):
        if rng.random() < 0.97:
            kept[(i, j)] = (ws[i] + fs[j], ws[i], fs[j], cap)
    if len(kept) < 2:
        return None
    edges = [kept[key] for key in sorted(kept)]
    quotas, orders = {}, {}
    for i, w in enumerate(ws):
        ranked = sorted(
            (j for k, j in kept if k == i), key=lambda j: (j - i) % n
        )
        orders[w] = [kept[(i, j)][0] for j in ranked]
        quotas[w] = cap if rng.random() < 0.95 else 2 * cap
    for j, f in enumerate(fs):
        ranked = sorted(
            (i for i, k in kept if k == j), key=lambda i: (i - j - 1) % n
        )
        orders[f] = [kept[(i, j)][0] for i in ranked]
        quotas[f] = cap if rng.random() < 0.95 else 2 * cap
    for v in ws + fs:
        if len(orders[v]) >= 2 and rng.random() < 0.15:
            k = rng.randrange(len(orders[v]) - 1)
            orders[v][k], orders[v][k + 1] = orders[v][k + 1], orders[v][k]
    return quota_doc(edges, quotas, orders, parts=(ws, fs))


def _block_pair_doc(rng, max_cap):
    """Two vertex-disjoint crossed blocks sharing one instance.

    Each block contributes its own rotation chain, and the chains are
    incomparable, so the lattice is a product and the full routes
    multiply.  Block sizes and caps are kept small enough to enumerate.
    """
    edges, quotas, orders = [], {}, {}
    all_ws, all_fs = [], []
    for tag in ("p", "q"):
        n = rng.randint(2, 3) if tag == "p" else 2
        cap = rng.randint(1, max_cap if n == 2 else 1)
        ws = ["{}w{}".format(tag, i) for i in range(1, n + 1)]
        fs = ["{}f{}".format(tag, i) for i in range(1, n + 1)]
        for i, j in itertools.product(range(n), range(n)):
            edges.append((ws[i] + fs[j], ws[i], fs[j], cap))
        for i, w in enumerate(ws):
            ranked = sorted(range(n), key=lambda j: (j - i) % n)
            orders[w] = [w + fs[j] for j in ranked]
            quotas[w] = cap
        for j, f in enumerate(fs):
            ranked = sorted(range(n), key=lambda i: (i - j - 1) % n)
            orders[f] = [ws[i] + f for i in ranked]
            quotas[f] = cap
        all_ws.extend(ws)
        all_fs.extend(fs)
    return quota_doc(edges, quotas, orders, parts=(all_ws, all_fs))


def random_general_doc(rng, max_n=6, max_cap=2, tight=False, double_box_limit=600_000):
    """A random unlabeled instance whose symmetrized box stays enumerable.

    With ``tight`` the caps and quotas are all 1, which is where unsolvable
    instances live; otherwise caps go up to ``max_cap`` and quotas vary.
    Both kinds are mixed with oriented rings, odd ones being the canonical
    unsolvable shape and even ones carrying a genuine rotation.
    """
    while True:
        if rng.random() < 0.4:
            doc = _ring_doc(rng, max_n, 1 if tight else max_cap)
        else:
            doc = _random_graph_doc(rng, max_n, max_cap, tight)
        if doc is not None and box_size(doc) ** 2 <= double_box_limit:
            return doc


def _random_graph_doc(rng, max_n, max_cap, tight):
    n = rng.randint(3, max_n)
    names = ["v{}".format(i) for i in range(1, n + 1)]
    edges = []
    for u, w in itertools.combinations(names, 2):
        if rng.random() < 0.55:
            cap = 1 if tight else rng.randint(1, max_cap)
            edges.append((u + w, u, w, cap))
    if len(edges) < 2:
        return None
    caps = {e: cap for e, _, _, cap in edges}
    quotas, orders = {}, {}
    for v in names:
        star = [e for e, u, w, _ in edges if v in (u, w)]
        rng.shuffle(star)
        orders[v] = star
        hi = sum(caps[e] for e in star)
        if not star:
            quotas[v] = 0
        elif tight:
            quotas[v] = 1
        else:
            quotas[v] = rng.randint(1, max(1, hi // 2))
    return quota_doc(edges, quotas, orders)


def _ring_doc(rng, max_n, max_cap):
    """A cycle where everyone prefers the next edge around, plus chords."""
    n = rng.randint(3, max_n)
    cap = rng.randint(1, max_cap)
    names = ["v{}".format(i) for i in range(1, n + 1)]
    ring = []
    for i in range(n):
        u, w = names[i], names[(i + 1) % n]
        ring.append(("r{}".format(i + 1), u, w, cap))
    edges = list(ring)
    quotas = {v: cap for v in names}
    orders = {}
    for i, v in enumerate(names):
        ahead = ring[i][0]
        behind = ring[(i - 1) % n][0]
        orders[v] = [ahead, behind]
    if n >= 4 and rng.random() < 0.4:
        i = rng.randrange(n)
        j = (i + 2) % n
        u, w = sorted((names[i], names[j]))
        chord = ("c" + u + w, u, w, 1)
        edges.append(chord)
        for v in (u, w):
            orders[v].insert(rng.randint(0, 2), chord[0])
            if rng.random() < 0.5:
                quotas[v] += 1
    return quota_doc(edges, quotas, orders)


class EdgeLimitQuotaCF(LinearOrderQuotaCF):
    """A quota choice that never takes more than ``limits`` units of an edge.

    The menu is cut down to the limits before the greedy pass, which keeps
    substitutability, size monotonicity and consistency.  A limit below the
    cap can stop a rotation's ray strictly inside the capacity box; rays of
    plain quota choices end where one of their edges empties or fills.
    """

    kind = "edge_limit_quota"

    def __init__(self, vertex, space, caps, quota, order, limits):
        super().__init__(vertex, space, caps, quota, order)
        self.limits = tuple(limits)

    def _apply(self, vals):
        return super()._apply(tuple(map(min, vals, self.limits)))

    def batch_vals(self, arr):
        arr = np.asarray(arr)
        return super().batch_vals(np.minimum(arr, self.limits).astype(arr.dtype))


def with_edge_limits(rng, inst, vertices):
    """``inst`` with each of ``vertices``, on a coin flip, limited per edge.

    Each limit is drawn from half the vertex's quota up to the edge's cap.
    """
    choice = dict(inst.choice)
    for v in sorted(vertices):
        cf = choice[v]
        if rng.random() < 0.5:
            limits = [rng.randint(cf.quota // 2, c) for c in cf.caps]
            choice[v] = EdgeLimitQuotaCF(v, cf.space, cf.caps, cf.quota, cf.order, limits)
    return Instance(
        inst.vertices, inst.edge_ends, inst.caps.to_mapping(), choice, inst.parts
    )


def latin_doc(n):
    """The cyclic Latin-square market: ``n`` a side, every cap and quota 1.

    Each side's list starts one step further round, so the worker-optimal
    and firm-optimal vectors are ``n`` apart and one rotation is exposed
    at each stable vector on the way.
    """
    ws = ["w{}".format(i) for i in range(n)]
    fs = ["f{}".format(j) for j in range(n)]
    edges = [(w + f, w, f, 1) for w in ws for f in fs]
    orders = {w: [w + fs[(i + d) % n] for d in range(n)] for i, w in enumerate(ws)}
    for j, f in enumerate(fs):
        orders[f] = [ws[(j + 1 + d) % n] + f for d in range(n)]
    return quota_doc(edges, dict.fromkeys(ws + fs, 1), orders, parts=(ws, fs))


def ring_doc(n, cap, quota, bipartite=False):
    """An oriented ring: everyone prefers the edge ahead to the one behind.

    With ``bipartite`` (``n`` even) the vertices alternate between the sides.
    """
    names = ["v{}".format(i) for i in range(1, n + 1)]
    ring = [("r{}".format(i + 1), names[i], names[(i + 1) % n], cap) for i in range(n)]
    orders = {v: [ring[i][0], ring[i - 1][0]] for i, v in enumerate(names)}
    parts = (names[0::2], names[1::2]) if bipartite else None
    return quota_doc(ring, {v: quota for v in names}, orders, parts=parts)


def high_cap_market(rng, lo=50, hi=500):
    """A labeled bipartite market whose rotation rays are long.

    Either a cyclic market of two or three a side, as in the random corpus
    but with one cap from ``lo..hi``, or an even ring with alternating
    sides, one cap from ``lo..hi`` and one quota from half the cap up to
    it.  Half the firms also get edge limits.
    """
    if rng.random() < 0.6:
        doc = _cyclic_orders_doc(rng, 3, hi, lo)
    else:
        cap = rng.randint(lo, hi)
        doc = ring_doc(rng.choice([4, 6]), cap, rng.randint(cap // 2, cap), True)
    inst = instance_from_dict(doc)
    return with_edge_limits(rng, inst, inst.parts[1])


def route_vectors(inst, seeds=(0, 1)):
    """The stable vectors met on the full routes of a few seeds."""
    seen = {}
    for seed in seeds:
        for x in build_full_route(inst, seed).vectors():
            seen[x.vals] = x
    return list(seen.values())


def _greedy(z, perm, quota, group=(), group_quota=0):
    """Greedy along ``perm``, at most ``quota`` in all and ``group_quota``
    on the positions in ``group``."""
    out = [0] * len(z)
    run = in_group = 0
    for pos in perm:
        room = quota - run
        if pos in group:
            room = min(room, group_quota - in_group)
        out[pos] = min(z[pos], room)
        run += out[pos]
        if pos in group:
            in_group += out[pos]
    return tuple(out)


def table_choice(rng, cf):
    """A table on the star of the quota choice ``cf`` that keeps the axioms.

    One of three shapes, drawn at random: a conditional order (greedy along
    ``cf.order`` while one edge holds at least a threshold, along a random
    order below it, as ``w1`` in :func:`gated_instance`), a laminar quota
    (greedy along ``cf.order`` with a second quota on a random part of the
    star), or ``cf``'s own table with about one row in ten shrunk.  Returns
    ``None`` when the draw fails SUB, MON or CON.
    """
    k = len(cf.caps)
    perm = [cf.space.index[e] for e in cf.order]
    box = list(itertools.product(*[range(c + 1) for c in cf.caps]))
    shape = rng.choice(["conditional", "laminar", "shrunk"])
    if shape == "conditional":
        other = tuple(rng.sample(range(k), k))
        t = rng.randrange(k)
        least = rng.randint(1, max(1, cf.caps[t]))
        rows = [(z, _greedy(z, perm if z[t] >= least else other, cf.quota)) for z in box]
    elif shape == "laminar":
        group = set(rng.sample(range(k), rng.randint(1, k)))
        cap = rng.randint(0, cf.quota)
        rows = [(z, _greedy(z, perm, cf.quota, group, cap)) for z in box]
    else:
        rows = []
        for z in box:
            c = list(cf.choose_vals(z))
            held = [j for j, cj in enumerate(c) if cj]
            if held and rng.random() < 0.1:
                j = rng.choice(held)
                c[j] = rng.randrange(c[j])
            rows.append((z, tuple(c)))
    table = TableCF(cf.vertex, cf.space, cf.caps, rows)
    if all(check_axiom(table, axiom).holds for axiom in ("SUB", "MON", "CON")):
        return table
    return None


def table_market(rng, box_limit=20_000):
    """A labeled bipartite market where most choices are axiom-checked tables.

    A cyclic market of two a side with caps 2-6 or three a side with cap 2;
    each vertex with two or more edges gets, with odds 0.7, a
    :func:`table_choice` draw that passes the axioms.  Returns the instance
    and the set of vertices whose choice is a table.
    """
    while True:
        if rng.random() < 0.5:
            doc = _cyclic_orders_doc(rng, 2, 6, 2)
        else:
            doc = _cyclic_orders_doc(rng, 3, 2, 2)
        if doc is not None and box_size(doc) <= box_limit:
            break
    inst = instance_from_dict(doc)
    choice = dict(inst.choice)
    tabled = set()
    for v in inst.vertices:
        if len(choice[v].caps) >= 2 and rng.random() < 0.7:
            table = table_choice(rng, choice[v])
            if table is not None:
                choice[v] = table
                tabled.add(v)
    inst = Instance(
        inst.vertices, inst.edge_ends, inst.caps.to_mapping(), choice, inst.parts
    )
    return inst, tabled


@pytest.fixture(scope="session")
def bipartite_corpus():
    rng = random.Random(20260816)
    return [instance_from_dict(random_bipartite_doc(rng)) for _ in range(200)]


@pytest.fixture(scope="session")
def general_corpus():
    rng = random.Random(911)
    docs = [random_general_doc(rng, tight=(i % 2 == 0)) for i in range(100)]
    return [instance_from_dict(doc) for doc in docs]


@pytest.fixture(scope="session")
def bipartite_artifacts(bipartite_corpus):
    """Each corpus instance with its stable set and per-vector rotations.

    Enumerating two hundred boxes and probing every stable vector costs a
    dozen seconds, so the result is computed once and shared by the tests
    that sweep the corpus.
    """
    arts = []
    for inst in bipartite_corpus:
        stable = enumerate_stable(inst)
        rotations = [(x, find_rotations(inst, x)) for x in stable]
        arts.append((inst, stable, rotations))
    return arts


@pytest.fixture(scope="session")
def doubled_artifacts(general_corpus):
    """Each general instance symmetrized, with the double's order and stables.

    Building the rotation order of every double dominates the cost of the
    mirror-law tests, so it too is computed once per session.
    """
    arts = []
    for inst in general_corpus:
        si = symmetrize(inst)
        order = rotation_order(si.graph)
        dbl_stable = enumerate_stable(si.graph)
        arts.append((inst, si, order, dbl_stable))
    return arts


# -- independent oracles -----------------------------------------------------


def oracle_stable_set(inst):
    """Stability check from first principles: plain loops, choose_vals only.

    Walks the whole capacity box, so callers keep instances tiny.  Returns
    the stable vectors as a set of raw value tuples in space order.
    """
    ids = inst.space.ids
    caps = [inst.caps[e] for e in ids]
    stars = {v: [ids.index(e) for e in inst.star_ids[v]] for v in inst.vertices}
    out = set()
    for vals in itertools.product(*[range(c + 1) for c in caps]):
        ok = True
        chosen = {}
        for v in inst.vertices:
            zv = tuple(vals[i] for i in stars[v])
            chosen[v] = zv
            if inst.choice[v].choose_vals(zv) != zv:
                ok = False
                break
        if not ok:
            continue
        blocked = False
        for pos, e in enumerate(ids):
            if vals[pos] >= caps[pos]:
                continue
            u, w = inst.ends(e)
            take = True
            for v in (u, w):
                zv = chosen[v]
                bump = tuple(
                    x + (1 if ids[i] == e else 0) for x, i in zip(zv, stars[v])
                )
                spot = inst.star_ids[v].index(e)
                if inst.choice[v].choose_vals(bump)[spot] <= zv[spot]:
                    take = False
                    break
            if take:
                blocked = True
                break
        if not blocked:
            out.add(vals)
    return out


def oracle_precedes_F(inst, x_vals, y_vals):
    """Firm-side preference via raw choice calls, avoiding library predicates."""
    if x_vals == y_vals:
        return False
    ids = inst.space.ids
    for v in inst.vertices:
        if inst.side(v) != "F":
            continue
        spots = [ids.index(e) for e in inst.star_ids[v]]
        join = tuple(max(x_vals[i], y_vals[i]) for i in spots)
        if inst.choice[v].choose_vals(join) != tuple(y_vals[i] for i in spots):
            return False
    return True


def oracle_two_pass_walk(inst, x, rot, ceiling=None):
    """A rotation's ray walked twice with whole-instance checks at every step.

    A first pass counts the steps that stay in the box, land on a stable
    vector and rise strictly on the firm side (and, with a ``ceiling``,
    never pass it); a second pass re-walks that many steps and re-verifies
    each.  Returns ``(weight, landing)``.  It shares only the whole-instance
    :func:`is_stable` and :func:`precedes_F` with the library, never the
    local re-checks of :func:`climb`, so it is the reference for them.
    """

    def step_ok(here, nxt):
        if not inst.in_box(nxt) or not is_stable(inst, nxt).stable:
            return False
        if not precedes_F(inst, here, nxt):
            return False
        return ceiling is None or nxt == ceiling or precedes_F(inst, nxt, ceiling)

    weight = 0
    here = x
    while step_ok(here, here.plus(rot.chi)):
        weight += 1
        here = here.plus(rot.chi)
    here = x
    for _ in range(weight):
        nxt = here.plus(rot.chi)
        assert step_ok(here, nxt)
        here = nxt
    return weight, here


def _simple_cycles(succ):
    """Every elementary cycle of a digraph, once each, as a list of nodes.

    ``succ`` maps each node to its successors; nodes must be sortable.
    Each cycle is reported from its least node: for every root in sorted
    order, a depth-first search over the larger nodes that can reach the
    root again reports each path that closes on it.
    """
    pred = {}
    for v, ws in succ.items():
        for w in ws:
            pred.setdefault(w, []).append(v)
    for root in sorted(set(succ) | set(pred)):
        back = {root}
        stack = [root]
        while stack:
            for v in pred.get(stack.pop(), ()):
                if v > root and v not in back:
                    back.add(v)
                    stack.append(v)
        path = [root]
        on_path = {root}
        branches = [iter(succ.get(root, ()))]
        while branches:
            for w in branches[-1]:
                if w == root:
                    yield list(path)
                elif w in back and w not in on_path:
                    path.append(w)
                    on_path.add(w)
                    branches.append(iter(succ.get(w, ())))
                    break
            else:
                branches.pop()
                on_path.discard(path.pop())


def oracle_candidate_walks(inst, x):
    """Every closed alternating walk of the all-pairs exchange-link graph.

    A positive link follows a firm that would accept one more unit of an
    edge while bumping exactly one unit of another; a negative link joins
    every unit a worker holds to every edge whose extra unit the worker
    would refuse outright.  Every elementary cycle of these links that
    traverses distinct edges is a walk, so the walks include those of the
    library's exposed-rotation graph, which keeps one successor per node.
    """
    w_side, f_side = inst.parts
    ids = inst.space.ids
    caps = inst.caps.vals
    star = {v: tuple(x[e] for e in inst.star_ids[v]) for v in inst.vertices}

    def bumped(z, j):
        return z[:j] + (z[j] + 1,) + z[j + 1 :]

    links = {}
    for i, e in enumerate(ids):
        if x.vals[i] >= caps[i]:
            continue
        f = next(v for v in inst.ends(e) if v in f_side)
        z = star[f]
        j = inst.star_ids[f].index(e)
        menu = bumped(z, j)
        kept = inst.choice[f].choose_vals(menu)
        if kept[j] <= z[j]:
            continue
        dropped = [k for k, (m, c) in enumerate(zip(menu, kept)) if m != c]
        if len(dropped) != 1 or dropped[0] == j:
            continue
        k = dropped[0]
        if menu[k] == kept[k] + 1:
            links.setdefault(("+", e), []).append(("-", inst.star_ids[f][k]))
    for w in sorted(w_side):
        z = star[w]
        sids = inst.star_ids[w]
        droppable = [e for e, a in zip(sids, z) if a >= 1]
        refusable = [
            e
            for j, e in enumerate(sids)
            if z[j] < inst.caps[e] and inst.choice[w].choose_vals(bumped(z, j)) == z
        ]
        for e1 in droppable:
            for e2 in refusable:
                if e1 != e2:
                    links.setdefault(("-", e1), []).append(("+", e2))

    walks = []
    for cycle in _simple_cycles(links):
        edge_ids = [e for _, e in cycle]
        if len(set(edge_ids)) != len(edge_ids):
            continue
        first = [s for s, _ in cycle].index("+")
        seq = cycle[first:] + cycle[:first]
        w0 = next(v for v in inst.ends(seq[0][1]) if v in w_side)
        here, steps = w0, []
        for _, e in seq:
            if here not in inst.ends(e):
                break
            steps.append((here, e))
            here = inst.other_end(e, here)
        else:
            if here == w0:
                walks.append(steps)
    return walks


def oracle_find_rotations(inst, x):
    """The rotations at the stable ``x``, from every all-pairs candidate walk.

    Screens :func:`oracle_candidate_walks` with the whole-instance
    :func:`is_stable` and :func:`precedes_F`, keeps the least walk of each
    incidence vector and drops every walk whose landing lies strictly above
    another's, in :func:`find_rotations`' order.
    """
    by_chi = {}
    for steps in oracle_candidate_walks(inst, x):
        rot = Rotation(inst, steps)
        y = x.plus(rot.chi)
        if (
            inst.in_box(y)
            and is_stable(inst, y).stable
            and precedes_F(inst, x, y)
            and (rot.chi.vals not in by_chi or rot < by_chi[rot.chi.vals])
        ):
            by_chi[rot.chi.vals] = rot
    reps = sorted(by_chi.values())
    landing = {rot: x.plus(rot.chi) for rot in reps}
    return [
        rot
        for rot in reps
        if not any(
            precedes_F(inst, landing[other], landing[rot])
            for other in reps
            if other is not rot
        )
    ]


def oracle_full_routes(inst, stable_vals, cap=2000):
    """All principal routes, derived from the stable set alone.

    A cover step is a minimal strictly firm-better stable vector; its unit
    difference identifies the rotation, and the step weight is the longest
    run of stable vectors along that difference.  Routes are returned as
    tuples of (difference vector, weight) pairs.  Independent of the
    library's rotation discovery, weights, and poset code.
    """
    stable = sorted(stable_vals)
    above = {
        x: [y for y in stable if oracle_precedes_F(inst, x, y)] for x in stable
    }

    def covers(x):
        out = []
        for y in above[x]:
            if not any(z in above[x] and y in above[z] for z in stable if z not in (x, y)):
                out.append(y)
        return out

    bottom = [x for x in stable if not any(x in above[y] for y in stable if y != x)]
    top = [x for x in stable if not above[x]]
    assert len(bottom) == 1 and len(top) == 1
    routes = []

    def walk(x, acc):
        if x == top[0]:
            routes.append(tuple(acc))
            return
        assert len(routes) < cap
        for y in covers(x):
            chi = _sub(y, x)
            weight = 1
            here = y
            while True:
                nxt = tuple(a + b for a, b in zip(here, chi))
                if nxt in stable_vals and oracle_precedes_F(inst, here, nxt):
                    weight += 1
                    here = nxt
                else:
                    break
            walk(here, acc + [(chi, weight)])

    walk(bottom[0], [])
    return routes


# Nodes are stable vectors, edges ``(x, occurrence, weight, y)`` full-weight
# climbs; ``tau`` maps each occurrence to its weight.
PrincipalGraph = namedtuple("PrincipalGraph", "bottom top states edges tau")


def oracle_principal_graph(inst):
    """Every vector reachable by full-weight climbs, and every such climb.

    Raises :class:`VerificationError` when two paths into one node
    accumulate different occurrence weights; its size is ``2**k`` on ``k``
    disjoint blocks, so callers keep instances small.  It shares rotation
    discovery and climbs with the library: what it checks is the sweeps'
    way of reading the order and the routes, not the steps themselves.
    """
    bottom = deferred_acceptance(inst, "W")
    top = deferred_acceptance(inst, "F")
    phi = {bottom: {}}
    edges = []
    sinks = []
    queue = [bottom]
    while queue:
        x = queue.pop(0)
        rots = find_rotations(inst, x)
        if not rots:
            sinks.append(x)
            continue
        used = Counter(occ.rotation.steps for occ in phi[x])
        for rot in rots:
            weight, y = climb(inst, x, rot, verified=True)
            occ = Occurrence(rot, used[rot.steps])
            grown = dict(phi[x])
            grown[occ] = weight
            if y in phi:
                if phi[y] != grown:
                    raise VerificationError("two routes to one vector disagree")
            else:
                phi[y] = grown
                queue.append(y)
            edges.append((x, occ, weight, y))
    assert sinks == [top]
    tau = {}
    for _, occ, weight, _ in edges:
        assert tau.setdefault(occ, weight) == weight
    assert set(phi[top]) == set(tau)
    states = tuple(sorted(phi, key=lambda v: v.vals))
    return PrincipalGraph(bottom, top, states, tuple(edges), tau)


def oracle_rotation_order(inst):
    """The occurrence order read off the whole principal graph.

    ``a`` fails to precede ``b`` exactly when some route plays ``b``
    first, that is when a target of ``b`` reaches a source of ``a``.
    """
    graph = oracle_principal_graph(inst)
    succ = {x: [] for x in graph.states}
    for x, _, _, y in graph.edges:
        succ[x].append(y)
    reach = {}
    for x in graph.states:
        seen = {x}
        stack = [x]
        while stack:
            for y in succ[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        reach[x] = seen
    sources, targets = {}, {}
    for x, occ, _, y in graph.edges:
        sources.setdefault(occ, set()).add(x)
        targets.setdefault(occ, set()).add(y)
    less = {
        (a, b)
        for a in graph.tau
        for b in graph.tau
        if a != b
        and not any(sa in reach[tb] for tb in targets[b] for sa in sources[a])
    }
    return RotationOrder(graph.tau.keys(), graph.tau, less, graph.bottom, graph.top)


def oracle_graph_routes(graph, limit=None):
    """The principal graph's routes, depth-first, out-edges in key order.

    Each step records the rotations of all out-edges of its source as the
    rotations found there.
    """
    outgoing = {}
    for x, occ, weight, y in graph.edges:
        outgoing.setdefault(x, []).append((occ, weight, y))
    for lst in outgoing.values():
        lst.sort(key=lambda item: item[0])
    found = {
        x: sorted(occ.rotation for occ, _, _ in lst) for x, lst in outgoing.items()
    }
    routes = []

    def walk(x, steps):
        if x not in outgoing:
            routes.append(Route(graph.bottom, steps))
            return
        for occ, weight, y in outgoing[x]:
            if limit is not None and len(routes) >= limit:
                return
            step = RouteStep(
                occ.rotation, occ.ordinal, weight, graph.tau[occ], x, y, found[x]
            )
            walk(y, steps + [step])

    walk(graph.bottom, [])
    return routes


def _sub(y, x):
    return tuple(a - b for a, b in zip(y, x))


def oracle_family(routes):
    """Multiset of (difference, total-ordinal, weight) triples per route."""
    out = []
    for route in routes:
        seen = {}
        fam = []
        for chi, weight in route:
            k = seen.get(chi, 0)
            seen[chi] = k + 1
            fam.append((chi, k, weight))
        out.append(sorted(fam))
    return out


def oracle_check_pairwise(cf, axiom):
    """SUB, MON or CON by comparing every row with the whole box.

    Finds the rows below each ``z`` with a full-box mask, O(n) per row, and
    returns an :class:`AxiomReport` exactly as :func:`check_axiom` does.
    It shares no indexing with the library's sub-box scan, so it is the
    reference for its verdicts, pair counts and witnesses.
    """
    box = box_array(cf.caps)
    chosen = cf.batch_vals(box)
    sizes = chosen.sum(axis=1, dtype=np.int64)
    checked = 0
    for i in range(len(box)):
        below = np.nonzero((box <= box[i]).all(axis=1))[0]
        checked += len(below)
        if axiom == "SUB":
            bad = (np.minimum(chosen[i], box[below]) > chosen[below]).any(axis=1)
        elif axiom == "MON":
            bad = sizes[below] > sizes[i]
        else:
            applies = (box[below] >= chosen[i]).all(axis=1)
            bad = applies & (chosen[below] != chosen[i]).any(axis=1)
        hits = np.nonzero(bad)[0]
        if len(hits):
            j = below[hits[0]]
            witness = {
                "z": EdgeVector(cf.space, box[i]),
                "zp": EdgeVector(cf.space, box[j]),
            }
            return AxiomReport(axiom, False, witness, checked)
    return AxiomReport(axiom, True, None, checked)


def oracle_enumerate_stable(inst):
    """All stable vectors in lexicographic order, star patterns by sorting.

    Each star's distinct patterns and the inverse index come from
    ``np.unique`` on the star's columns, not from the mixed-radix code the
    library uses, so this is the reference for :func:`enumerate_stable`.
    """
    box = box_array(inst.caps.vals)
    ok = np.ones(len(box), dtype=bool)
    star_cache = {}
    for v in inst.vertices:
        cols = list(inst.star_positions[v])
        if not cols:
            continue
        patterns, inv = np.unique(box[:, cols], axis=0, return_inverse=True)
        inv = inv.reshape(-1)
        chosen = inst.choice[v].batch_vals(patterns)
        ok &= (chosen == patterns).all(axis=1)[inv]
        star_cache[v] = (patterns, inv)

    def interest_mask(v, e):
        patterns, inv = star_cache[v]
        se = inst.star_ids[v].index(e)
        room = patterns[:, se] < inst.caps[e]
        mask = np.zeros(len(patterns), dtype=bool)
        if room.any():
            bumped = patterns[room].copy()
            bumped[:, se] += 1
            chosen = inst.choice[v].batch_vals(bumped)
            mask[room] = chosen[:, se] > patterns[room, se]
        return mask[inv]

    unblocked = ok.copy()
    for e in inst.space.ids:
        u, v = inst.ends(e)
        unblocked &= ~(interest_mask(u, e) & interest_mask(v, e))
    return [EdgeVector(inst.space, row) for row in box[ok & unblocked].tolist()]


# -- oracles of the theory: immediate successors, mirrors, odd-cycle lifts ----


def immediate_successors(inst, x, stable=None):
    """Stable vectors directly above ``x``: above it, with nothing between."""
    if stable is None:
        stable = enumerate_stable(inst)
    above = [y for y in stable if precedes_F(inst, x, y)]
    return [
        y
        for y in above
        if not any(z != y and precedes_F(inst, z, y) for z in above)
    ]


def mirror_occurrences(si, order):
    """Pair each rotation occurrence with its mirror occurrence.

    The i-th occurrence of a rotation corresponds to the i-th from last
    occurrence of its mirror, with the same weight.  Count or weight
    mismatches mean the doubled instance violates its symmetry and raise
    :class:`VerificationError`.
    """
    counts = Counter(occ.rotation.steps for occ in order.occurrences)
    by_key = {}
    for occ in order.occurrences:
        by_key[(occ.rotation.steps, occ.ordinal)] = occ
    mapping = {}
    for occ in order.occurrences:
        mirror_rot = si.reflect_rotation(occ.rotation)
        m = counts.get(mirror_rot.steps, 0)
        if counts[occ.rotation.steps] != m:
            raise VerificationError(
                "rotation and mirror differ in occurrence count"
            )
        partner = by_key.get((mirror_rot.steps, m - 1 - occ.ordinal))
        if partner is None:
            raise VerificationError("mirror occurrence is missing")
        if order.tau[occ] != order.tau[partner]:
            raise VerificationError("mirror occurrences differ in weight")
        mapping[occ] = partner
    return mapping


def oracle_is_singular(si, rot):
    """True iff the rotation is its own mirror image, decided two ways.

    By comparing the canonical walk with its mirror's, and by checking
    that the mirror of the positive edge set is exactly the negative edge
    set.  A single shared mirror pair is not enough; a rotation may cross
    its reflection on one edge without being self-mirrored.  The two tests
    must agree, and a singular rotation's length must be twice an odd
    number; otherwise :class:`InternalError`.
    """
    by_walk = si.reflect_rotation(rot) == rot
    positives = {e for e in rot.edges if rot.chi[e] == 1}
    negatives = {e for e in rot.edges if rot.chi[e] == -1}
    by_edges = {si.sigma_edge[e] for e in positives} == negatives
    if by_walk != by_edges:
        raise InternalError("singularity tests disagree on {!r}".format(rot))
    if by_walk and len(rot.steps) % 4 != 2:
        raise InternalError("singular rotation of impossible length")
    return by_walk


def cycle_rotation(si, cyc):
    """Lift an odd cycle to a singular rotation of the double.

    The doubled walk runs around the cycle twice, alternating vertex
    copies; odd length makes the parity flip between laps, so the walk
    closes after two.
    """
    base = si.base
    es = [e for _, e in cyc.steps]
    start = cyc.steps[0][0]
    here, parity = start, 0
    steps = []
    for t in range(2 * len(es)):
        e = es[t % len(es)]
        steps.append((copy_vertex(here, parity), si.copy_at(e, here, parity)))
        here = base.other_end(e, here)
        parity = 1 - parity
    if (here, parity) != (start, 0):
        raise InternalError("doubled cycle walk does not close")
    rot = Rotation(si.graph, steps)
    if not is_singular(si, rot):
        raise InternalError("doubled cycle walk is not singular")
    return rot


def oracle_project_cycle(si, rot):
    """Collapse a singular rotation of the double by chasing mirrors.

    Walks the rotation's positive edges: after each one, the mirror of the
    following negative edge is the next positive edge.  Their images in
    the base graph form the cycle; consecutive images share exactly one
    vertex, which fixes the orientation.
    """
    if not oracle_is_singular(si, rot):
        raise InputError("projection needs a singular rotation")
    steps = rot.steps
    length = len(steps)
    pos_index = {e: i for i, (_, e) in enumerate(steps) if i % 2 == 0}
    seq = [steps[0][1]]
    idx = 0
    for _ in range(length // 2 - 1):
        nxt = si.sigma_edge[steps[idx + 1][1]]
        if nxt not in pos_index or nxt in seq:
            raise InternalError("singular walk does not chain through mirrors")
        idx = pos_index[nxt]
        seq.append(nxt)
    if si.sigma_edge[steps[idx + 1][1]] != seq[0]:
        raise InternalError("singular walk does not close through mirrors")

    base = si.base
    base_seq = [si.base_edge[e] for e in seq]
    if len(set(base_seq)) != len(base_seq):
        raise InternalError("projected edges collide")
    walk = []
    for j, e in enumerate(base_seq):
        prev = base_seq[j - 1]
        shared = set(base.ends(prev)) & set(base.ends(e))
        if len(shared) != 1:
            raise InternalError("projected edges do not chain")
        walk.append((shared.pop(), e))
    return OddCycle(base, walk)


# -- views of the double and of odd cycles that only tests read ----------------


def copy_vertex(v, i):
    """The name of the copy ``v^i`` of a base vertex in the double."""
    return "{}^{}".format(v, i)


def double_vector(si, x):
    """The symmetric doubled image of a vector on the base edges."""
    si.base.check_vector(x)
    return EdgeVector(si.graph.space, (x[si.base_edge[e]] for e in si.graph.space.ids))


def halve_vector(si, x):
    """Inverse of :func:`double_vector`; requires a symmetric vector."""
    if si.reflect_vector(x) != x:
        raise InputError("vector is not symmetric")
    return EdgeVector(si.base.space, (x[si.copies[e][0]] for e in si.base.space.ids))


def cycle_vertices(cyc):
    return tuple(v for v, _ in cyc.steps)


def reversed_steps(cyc):
    """The steps of ``cyc`` traversed the other way round."""
    vs = [v for v, _ in cyc.steps]
    es = [e for _, e in cyc.steps]
    k = len(es)
    out = [(vs[0], es[-1])]
    out.extend((vs[k - 1 - j], es[k - 2 - j]) for j in range(k - 1))
    return tuple(out)


def undirected_key(cyc):
    """Canonical form of ``cyc`` ignoring traversal direction."""
    rev = reversed_steps(cyc)
    shifts = [rev[i:] + rev[:i] for i in range(len(rev))]
    return min(cyc.steps, min(shifts))
