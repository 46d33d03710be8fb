"""The occurrence poset of rotations and its closed weight functions.

A rotation may act several times on the way from the minimum stable vector
to the maximum, each time with a fixed weight.  Bookkeeping is therefore
per occurrence: the k-th application of one rotation is its own element.
The occurrences carry a strict partial order ("must act earlier on every
full route"), and stable vectors correspond one-to-one with the weight
assignments that are closed for that order.
"""

from collections import Counter

from .core import (
    BudgetError,
    EdgeVector,
    InputError,
    InternalError,
    VerificationError,
)
from .bipartite import (
    Route,
    RouteStep,
    climb,
    deferred_acceptance,
    find_rotations,
    is_stable,
)

DEFAULT_GRAPH_BUDGET = 200_000


class Occurrence:
    """One application slot of a rotation: the rotation plus a use index."""

    __slots__ = ("rotation", "ordinal")

    def __init__(self, rotation, ordinal):
        self.rotation = rotation
        self.ordinal = int(ordinal)

    @property
    def key(self):
        return (self.rotation.steps, self.ordinal)

    def __eq__(self, other):
        return isinstance(other, Occurrence) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __lt__(self, other):
        return self.key < other.key

    def __repr__(self):
        return "Occurrence(#{} of {!r})".format(self.ordinal, self.rotation)


class WeightedRotationFamily:
    """The rotation occurrences of one route, with weights, in route order."""

    __slots__ = ("items",)

    def __init__(self, items):
        self.items = tuple(items)

    def multiset(self):
        """Occurrence-blind content: counts of (rotation, weight) pairs."""
        return Counter((occ.rotation.steps, w) for occ, w in self.items)

    def weights_by_rotation(self):
        """Weights of each rotation's occurrences, in use order."""
        out = {}
        for occ, w in self.items:
            out.setdefault(occ.rotation.steps, []).append(w)
        return {k: tuple(v) for k, v in out.items()}

    def __len__(self):
        return len(self.items)


def family_from_route(route):
    """Label a route's steps with occurrence ordinals."""
    counts = Counter()
    items = []
    for step in route.steps:
        key = step.rotation.steps
        items.append((Occurrence(step.rotation, counts[key]), step.weight))
        counts[key] += 1
    return WeightedRotationFamily(items)


class PrincipalGraph:
    """All stable vectors reachable by maximal-weight rotation steps.

    Nodes are stable vectors, edges are occurrences applied with their full
    weight.  The graph is built breadth-first from the minimum stable
    vector; during the build two invariants are verified and their failure
    raises :class:`VerificationError`: every path into a node accumulates
    the same occurrence weights, and every edge carrying one occurrence
    carries the same weight.
    """

    __slots__ = ("bottom", "top", "states", "edges", "phi", "tau")

    def __init__(self, bottom, top, states, edges, phi, tau):
        self.bottom = bottom
        self.top = top
        self.states = states
        self.edges = edges
        self.phi = phi
        self.tau = tau


def principal_graph(inst, budget=DEFAULT_GRAPH_BUDGET):
    bottom = deferred_acceptance(inst, "W")
    top = deferred_acceptance(inst, "F")
    phi = {bottom: {}}
    edges = []
    sinks = []
    queue = [bottom]
    rotations_of = {}
    spent = 1
    while queue:
        x = queue.pop(0)
        rots = find_rotations(inst, x)
        rotations_of[x] = rots
        if not rots:
            sinks.append(x)
            continue
        acc = phi[x]
        used = Counter(occ.rotation.steps for occ in acc)
        for rot in rots:
            weight, y = climb(inst, x, rot, verified=True)
            occ = Occurrence(rot, used[rot.steps])
            grown = dict(acc)
            grown[occ] = weight
            spent += 1
            if spent > budget:
                raise BudgetError(
                    "principal graph exceeds the budget of {}".format(budget)
                )
            if y in phi:
                if phi[y] != grown:
                    raise VerificationError(
                        "two routes to one vector disagree on weights"
                    )
            else:
                phi[y] = grown
                queue.append(y)
            edges.append((x, occ, weight, y))

    if sinks != [top]:
        raise VerificationError("principal routes do not all end at the maximum")

    tau = {}
    for _, occ, weight, _ in edges:
        if tau.setdefault(occ, weight) != weight:
            raise VerificationError(
                "one occurrence acts with two different weights"
            )
    if set(phi[top]) != set(tau):
        raise InternalError("occurrence inventory mismatch at the maximum")

    states = tuple(sorted(phi, key=lambda v: v.vals))
    return PrincipalGraph(bottom, top, states, tuple(edges), phi, tau)


class RotationOrder:
    """The strict precedence order on rotation occurrences.

    ``a`` precedes ``b`` when ``a`` acts before ``b`` on every full route.
    Also carries each occurrence's weight and the route endpoints, which is
    everything needed to evaluate and invert closed weight functions.
    """

    __slots__ = ("occurrences", "tau", "less", "bottom", "top")

    def __init__(self, occurrences, tau, less, bottom, top):
        self.occurrences = tuple(sorted(occurrences))
        self.tau = dict(tau)
        self.less = frozenset(less)
        self.bottom = bottom
        self.top = top

    def before(self, a, b):
        return (a, b) in self.less

    def covers(self):
        """The transitive reduction of the precedence order."""
        out = []
        for a, b in sorted(self.less, key=lambda p: (p[0].key, p[1].key)):
            if not any(
                (a, c) in self.less and (c, b) in self.less
                for c in self.occurrences
            ):
                out.append((a, b))
        return tuple(out)

    def to_dict(self):
        ids = {occ: i for i, occ in enumerate(self.occurrences)}
        return {
            "occurrences": [
                {
                    "id": ids[occ],
                    "rotation": occ.rotation.to_dict(),
                    "ordinal": occ.ordinal,
                    "tau": self.tau[occ],
                }
                for occ in self.occurrences
            ],
            "less": sorted([ids[a], ids[b]] for a, b in self.less),
            "hasse": sorted([ids[a], ids[b]] for a, b in self.covers()),
        }


def rotation_order(inst, budget=DEFAULT_GRAPH_BUDGET):
    """Compute the occurrence order by exhausting the principal graph.

    An occurrence ``a`` fails to precede ``b`` exactly when some principal
    route plays ``b`` first, i.e. when the edge carrying ``b`` can reach
    the edge carrying ``a`` through the graph.
    """
    graph = principal_graph(inst, budget)
    index = {x: i for i, x in enumerate(graph.states)}
    n = len(graph.states)
    reach = [set() for _ in range(n)]
    succ = [[] for _ in range(n)]
    for x, _, _, y in graph.edges:
        succ[index[x]].append(index[y])
    for i in range(n):
        seen = {i}
        stack = [i]
        while stack:
            j = stack.pop()
            for k in succ[j]:
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
        reach[i] = seen

    sources = {}
    targets = {}
    for x, occ, _, y in graph.edges:
        sources.setdefault(occ, set()).add(index[x])
        targets.setdefault(occ, set()).add(index[y])

    occurrences = sorted(graph.tau)
    less = set()
    for a in occurrences:
        for b in occurrences:
            if a is b:
                continue
            b_first = any(
                sa in reach[tb] for tb in targets[b] for sa in sources[a]
            )
            if not b_first:
                less.add((a, b))

    for a, b in less:
        if (b, a) in less:
            raise InternalError("precedence relation is not antisymmetric")
    order = RotationOrder(occurrences, graph.tau, less, graph.bottom, graph.top)
    _sanity_check_order(order)
    return order


def _sanity_check_order(order):
    occs = order.occurrences
    for a, b in order.less:
        for c in occs:
            if (b, c) in order.less and (a, c) not in order.less:
                raise InternalError("precedence relation is not transitive")
    by_rot = {}
    for occ in occs:
        by_rot.setdefault(occ.rotation.steps, []).append(occ)
    for group in by_rot.values():
        group.sort(key=lambda o: o.ordinal)
        for early, late in zip(group, group[1:]):
            if (early, late) not in order.less:
                raise InternalError(
                    "occurrences of one rotation are not linearly ordered"
                )


class ClosedFunction:
    """A weight per occurrence, full below any occurrence that acts at all."""

    __slots__ = ("order", "weights")

    def __init__(self, order, weights):
        self.order = order
        self.weights = {occ: int(weights.get(occ, 0)) for occ in order.occurrences}
        if set(weights) - set(self.weights):
            raise InputError("weights mention unknown occurrences")
        for occ, w in self.weights.items():
            if not 0 <= w <= order.tau[occ]:
                raise InputError(
                    "weight {} at {!r} leaves [0, {}]".format(w, occ, order.tau[occ])
                )

    def __eq__(self, other):
        return (
            isinstance(other, ClosedFunction)
            and {o.key: w for o, w in self.weights.items()}
            == {o.key: w for o, w in other.weights.items()}
        )

    def __hash__(self):
        return hash(tuple(sorted((o.key, w) for o, w in self.weights.items())))

    def __repr__(self):
        live = {repr(o): w for o, w in self.weights.items() if w}
        return "ClosedFunction({})".format(live)


def is_closed(order, weights):
    """True iff any active occurrence has all its predecessors saturated."""
    if isinstance(weights, ClosedFunction):
        weights = weights.weights
    for occ in order.occurrences:
        if not 0 <= weights.get(occ, 0) <= order.tau[occ]:
            return False
    for a, b in order.less:
        if weights.get(b, 0) > 0 and weights.get(a, 0) != order.tau[a]:
            return False
    return True


def closed_from_vector(inst, order, x):
    """The closed weight function whose partial route lands on ``x``.

    Climbs from the minimum stable vector toward ``x``, always along an
    applicable rotation and never past ``x`` on the firm side, recording
    how much of each occurrence gets used.
    """
    report = is_stable(inst, x)
    if not report.stable:
        raise InputError("target vector is not stable: {!r}".format(report))
    weights = {}
    used = Counter()
    here = order.bottom
    fuel = max(1, inst.caps.total()) * max(1, len(inst.space)) + 2
    while here != x:
        progressed = False
        for rot in find_rotations(inst, here):
            lam, probe = climb(inst, here, rot, ceiling=x, verified=True)
            if lam > 0:
                occ = Occurrence(rot, used[rot.steps])
                used[rot.steps] += 1
                if occ not in order.tau:
                    raise VerificationError(
                        "climb used an occurrence the order does not know"
                    )
                weights[occ] = lam
                here = probe
                progressed = True
                break
        if not progressed:
            raise VerificationError(
                "no rotation leads from {!r} toward the target".format(here)
            )
        fuel -= 1
        if fuel < 0:
            raise InternalError("climb failed to terminate")
    fn = ClosedFunction(order, weights)
    if not is_closed(order, fn):
        raise VerificationError("vector decomposes into a non-closed family")
    return fn


def vector_from_closed(inst, order, weights):
    """The stable vector reached by applying a closed weight function."""
    if not is_closed(order, weights):
        raise InputError("weight function is not closed for this order")
    if isinstance(weights, ClosedFunction):
        weights = weights.weights
    total = order.bottom
    for occ in order.occurrences:
        w = weights.get(occ, 0)
        if w:
            total = total.plus(occ.rotation.chi.scaled(w))
    if not inst.in_box(total) or not is_stable(inst, total).stable:
        raise VerificationError("closed weights do not assemble a stable vector")
    return total


def full_routes(inst, limit=None, budget=DEFAULT_GRAPH_BUDGET):
    """Enumerate principal routes from minimum to maximum, depth-first."""
    graph = principal_graph(inst, budget)
    outgoing = {}
    for x, occ, weight, y in graph.edges:
        outgoing.setdefault(x, []).append((occ, weight, y))
    for lst in outgoing.values():
        lst.sort(key=lambda item: item[0].key)

    produced = 0

    def walk(x, steps):
        nonlocal produced
        nxt = outgoing.get(x)
        if not nxt:
            produced += 1
            yield Route(graph.bottom, steps)
            return
        for occ, weight, y in nxt:
            if limit is not None and produced >= limit:
                return
            yield from walk(y, steps + [RouteStep(occ.rotation, weight, x, y)])

    yield from walk(graph.bottom, [])
