"""Seeded instance documents for the benchmark workloads.

Self-contained on purpose: the test fixtures may change without moving a
workload.  Every generator takes a ``random.Random`` and returns a plain
instance document, so the library only ever sees parsed documents.
"""

import itertools


def quota_doc(edges, quotas, orders, parts=None):
    """Document from ``(id, u, v, cap)`` edges, quotas and preference orders."""
    vertices = sorted({v for _, u, w, _ in edges for v in (u, w)})
    doc = {
        "vertices": vertices,
        "edges": [{"id": e, "ends": [u, w], "cap": cap} for e, u, w, cap in edges],
        "choice": {
            v: {
                "type": "linear_order_quota",
                "quota": quotas[v],
                "order": orders[v],
            }
            for v in vertices
        },
    }
    if parts is not None:
        doc["bipartition"] = {"W": sorted(parts[0]), "F": sorted(parts[1])}
    return doc


def _cyclic_block(tag, n, cap):
    """Complete n-by-n block: each side's list starts one step further round."""
    ws = ["{}w{}".format(tag, i) for i in range(n)]
    fs = ["{}f{}".format(tag, j) for j in range(n)]
    edges = [(ws[i] + fs[j], ws[i], fs[j], cap) for i in range(n) for j in range(n)]
    orders = {}
    for i, w in enumerate(ws):
        orders[w] = [w + fs[j] for j in sorted(range(n), key=lambda j: (j - i) % n)]
    for j, f in enumerate(fs):
        orders[f] = [ws[i] + f for i in sorted(range(n), key=lambda i: (i - j - 1) % n)]
    quotas = {v: cap for v in ws + fs}
    return edges, quotas, orders, (ws, fs)


def _swap_adjacent(rng, orders, count):
    """Swap ``count`` seeded adjacent pairs in the preference lists."""
    names = sorted(orders)
    for _ in range(count):
        lst = orders[rng.choice(names)]
        k = rng.randrange(len(lst) - 1)
        lst[k], lst[k + 1] = lst[k + 1], lst[k]


def latin_doc(rng, n, swaps):
    """Perturbed cyclic Latin-square market: n-by-n, cap 1, ``swaps`` swaps."""
    edges, quotas, orders, parts = _cyclic_block("", n, 1)
    _swap_adjacent(rng, orders, swaps)
    return quota_doc(edges, quotas, orders, parts)


def blocks_doc(rng, k):
    """k vertex-disjoint crossed 2x2 blocks; a seeded half of them has cap 2."""
    caps = [2] * (k // 2) + [1] * (k - k // 2)
    rng.shuffle(caps)
    edges, quotas, orders, ws, fs = [], {}, {}, [], []
    for b, cap in enumerate(caps):
        be, bq, bo, (bw, bf) = _cyclic_block("b{}".format(b), 2, cap)
        edges += be
        quotas.update(bq)
        orders.update(bo)
        ws += bw
        fs += bf
    return quota_doc(edges, quotas, orders, (ws, fs))


# -- general graphs (no bipartition) -----------------------------------------


def ring_doc(n, cap):
    """Ring where everyone prefers the edge ahead; odd n with odd cap is unsolvable."""
    names = ["v{}".format(i) for i in range(n)]
    edges = [("r{}".format(i), names[i], names[(i + 1) % n], cap) for i in range(n)]
    orders = {v: [edges[i][0], edges[i - 1][0]] for i, v in enumerate(names)}
    return quota_doc(edges, {v: cap for v in names}, orders)


def high_cap_doc(rng, shape, cap):
    """One of the high-capacity shapes of ``general_solve`` family (a).

    Returns the document and whether it has a stable vector, which is known
    by construction: only the odd ring with odd capacity has none.
    """
    if shape == "block":
        edges, quotas, orders, _ = _cyclic_block("", 2, cap)
        return quota_doc(edges, quotas, orders), True
    if shape == "even_ring":
        return ring_doc(rng.choice((4, 6)), cap), True
    if shape == "odd_ring":
        return ring_doc(rng.choice((3, 5)), cap | 1), False
    if shape == "cyclic3":
        edges, quotas, orders, _ = _cyclic_block("", 3, cap)
        return quota_doc(edges, quotas, orders), True
    raise ValueError(shape)


HIGH_CAP_SHAPES = ("block", "even_ring", "odd_ring", "cyclic3")


def sparse_graph_doc(rng, n=160, m=470):
    """Random simple graph with n vertices, m edges, caps 1-3, random quotas."""
    names = ["v{}".format(i) for i in range(n)]
    pairs = set()
    while len(pairs) < m:
        a, b = rng.sample(range(n), 2)
        pairs.add((min(a, b), max(a, b)))
    edges = [
        ("e{}_{}".format(a, b), names[a], names[b], rng.randint(1, 3))
        for a, b in sorted(pairs)
    ]
    caps = {e: c for e, _, _, c in edges}
    stars = {v: [] for v in names}
    for e, u, w, _ in edges:
        stars[u].append(e)
        stars[w].append(e)
    used = [v for v in names if stars[v]]
    orders, quotas = {}, {}
    for v in used:
        rng.shuffle(stars[v])
        orders[v] = stars[v]
        quotas[v] = rng.randint(1, max(1, sum(caps[e] for e in stars[v]) // 2))
    return quota_doc(edges, quotas, orders)


# -- small instances for the exhaustive oracles ------------------------------


def box_size(doc):
    n = 1
    for entry in doc["edges"]:
        n *= entry["cap"] + 1
    return n


def small_market_doc(rng, box_lo, box_hi):
    """Random labeled market (cyclic or random lists) with a box in the band."""
    while True:
        n = rng.randint(2, 4)
        cap = rng.randint(1, 3)
        if rng.random() < 0.5:
            edges, quotas, orders, parts = _cyclic_block("", n, cap)
            _swap_adjacent(rng, orders, rng.randint(0, 2))
        else:
            ws = ["w{}".format(i) for i in range(n)]
            fs = ["f{}".format(j) for j in range(rng.randint(2, 4))]
            edges = [
                (w + f, w, f, rng.randint(1, cap))
                for w, f in itertools.product(ws, fs)
                if rng.random() < 0.7
            ]
            if not edges:
                continue
            caps = {e: c for e, _, _, c in edges}
            orders, quotas = {}, {}
            for v in ws + fs:
                star = [e for e, u, w, _ in edges if v in (u, w)]
                rng.shuffle(star)
                orders[v] = star
                quotas[v] = rng.randint(1, max(1, sum(caps[e] for e in star)))
            parts = ([w for w in ws if orders[w]], [f for f in fs if orders[f]])
        doc = quota_doc(edges, quotas, orders, parts)
        if box_lo <= box_size(doc) <= box_hi:
            return doc


def small_graph_doc(rng, box_lo, box_hi):
    """Random general graph whose symmetrized box lies in the band."""
    while True:
        n = rng.randint(3, 6)
        names = ["v{}".format(i) for i in range(n)]
        edges = [
            (u + w, u, w, rng.randint(1, 2))
            for u, w in itertools.combinations(names, 2)
            if rng.random() < 0.55
        ]
        if len(edges) < 2:
            continue
        caps = {e: c for e, _, _, c in edges}
        orders, quotas = {}, {}
        used = sorted({v for _, u, w, _ in edges for v in (u, w)})
        for v in used:
            star = [e for e, u, w, _ in edges if v in (u, w)]
            rng.shuffle(star)
            orders[v] = star
            quotas[v] = rng.randint(1, max(1, sum(caps[e] for e in star) // 2))
        doc = quota_doc(edges, quotas, orders)
        if box_lo <= box_size(doc) ** 2 <= box_hi:
            return doc


# The four stars of the axiom acceptance test: (caps, quota).
AXIOM_STARS = (([1] * 13, 4), ([3] * 5, 7), ([9] * 3, 13), ([79] * 2, 55))
AXIOMS = ("SUB", "MON", "CON", "GL")


def star_doc(rng, caps, quota):
    """A hub with one leaf per capacity; the hub's order is seeded."""
    ids = ["s{}".format(i) for i in range(len(caps))]
    edges = [(e, "hub", "leaf{}".format(i), c) for i, (e, c) in enumerate(zip(ids, caps))]
    order = list(ids)
    rng.shuffle(order)
    orders = {"hub": order}
    quotas = {"hub": quota}
    for e, _, leaf, c in edges:
        orders[leaf] = [e]
        quotas[leaf] = c
    return quota_doc(edges, quotas, orders)
