"""The occurrence poset of rotations and its closed weight functions.

A rotation may act several times on the way from the minimum stable vector
to the maximum, each time with a fixed weight.  Bookkeeping is therefore
per occurrence: the k-th application of one rotation is its own element.
The occurrences carry a strict partial order ("must act earlier on every
full route"), and stable vectors correspond one-to-one with the weight
assignments that are closed for that order.
"""

from collections import Counter, namedtuple

from .core import BudgetError, InputError, InternalError, VerificationError, _is_int
from .bipartite import (
    Route,
    RouteStep,
    _discovery_at,
    _sweep,
    climb,
    deferred_acceptance,
    find_rotations,
    is_stable,
)

DEFAULT_GRAPH_BUDGET = 200_000

# One application slot of a rotation: the rotation plus a use index.  A
# rotation compares, orders and hashes by its canonical steps, so the
# plain tuple does too.
Occurrence = namedtuple("Occurrence", "rotation ordinal")


class WeightedRotationFamily:
    """The rotation occurrences of one route, with weights, in route order."""

    __slots__ = ("items",)

    def __init__(self, items):
        self.items = tuple(items)

    def multiset(self):
        """Occurrence-blind content: counts of (rotation, weight) pairs."""
        return Counter((occ.rotation.steps, w) for occ, w in self.items)

    def __len__(self):
        return len(self.items)


def family_from_route(route):
    """A route's weighted occurrences, in route order."""
    return WeightedRotationFamily(
        (Occurrence(s.rotation, s.ordinal), s.weight) for s in route.steps
    )


class RotationOrder:
    """The strict precedence order on rotation occurrences.

    ``a`` precedes ``b`` when ``a`` acts before ``b`` on every full route.
    Also carries each occurrence's weight and the route endpoints, which is
    everything needed to evaluate and invert closed weight functions.
    """

    __slots__ = ("occurrences", "tau", "less", "bottom", "top", "_at_bottom")

    def __init__(self, occurrences, tau, less, bottom, top):
        self.occurrences = tuple(sorted(occurrences))
        self.tau = dict(tau)
        self.less = frozenset(less)
        self.bottom = bottom
        self.top = top
        # For each instance on which ``bottom`` is known to be stable, the
        # rotation discovery there, which the sweeps of
        # :func:`closed_from_vector` go on from.
        self._at_bottom = {}

    def covers(self):
        """The transitive reduction of the precedence order."""
        out = []
        for a, b in sorted(self.less):
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


def _climb_budget(budget):
    """A counter for the climbs of one computation that raises past ``budget``.

    Call it once before each climb.  The count starts at 1, so a budget of
    1 allows no climb at all.
    """
    spent = 1

    def spend():
        nonlocal spent
        spent += 1
        if spent > budget:
            raise BudgetError(
                "rotation sweeps exceed the budget of {} climbs".format(budget)
            )

    return spend


def rotation_order(inst, budget=DEFAULT_GRAPH_BUDGET):
    """Compute the occurrence order with one sweep per occurrence.

    One full sweep, always taking the first rotation found, gives the
    occurrences and their weights ``tau``; it must end at the firm-optimal
    vector.  Then, for each occurrence ``a``, a sweep goes on from where
    the full sweep applied ``a`` and takes any rotation but ``a``.  The
    closed sets that omit ``a`` are closed under union, so that route ends
    at the largest of them, where ``a`` is the only rotation left; an
    occurrence ``b`` is missing from it exactly when ``a`` precedes ``b``.
    This is the rule of Irving & Leather (SIAM J. Comput. 1986): ``a``
    precedes ``b`` iff ``a`` is used in the least stable vector that
    exposes ``b``.  Where ``a`` was the only rotation found, its sweep has
    nothing to do, so a chain costs the full sweep alone.  Elsewhere the
    full sweep saves its rotation discovery, and ``a``'s sweep goes on
    from that state instead of finding the same rotations again.

    Every step of every sweep must be a known occurrence with its weight
    ``tau``, and where ``a``'s sweep stops, ``a`` must climb ``tau[a]``;
    a failure raises :class:`VerificationError`, as different routes
    then carry different weighted families.  ``budget`` bounds the climbs
    of all sweeps together, counted from 1; past it :class:`BudgetError`
    is raised.
    """
    spend = _climb_budget(budget)
    # The bottom is the verified outcome of the proposal rounds.
    at_bottom = _discovery_at(inst, deferred_acceptance(inst, "W"))
    saved = {}
    steps, top = _sweep(
        inst, lambda rots, used: rots[:1], at_bottom, spend=spend, saved=saved
    )
    if top.x != deferred_acceptance(inst, "F"):
        raise VerificationError("the sweep stalled before the firm-optimal vector")
    tau = {Occurrence(s.rotation, s.ordinal): s.weight for s in steps}

    less = set()
    for i, step in enumerate(steps):
        a = Occurrence(step.rotation, step.ordinal)
        seen = {Occurrence(s.rotation, s.ordinal) for s in steps[:i]}
        # Where a was the only rotation found, the full sweep's own step is
        # a's sweep: it stops there, and a climbs its weight.
        if len(step.found) > 1:

            def avoid_a(rots, used):
                return [r for r in rots if (r, used[r.steps]) != a][:1]

            used = Counter(s.rotation.steps for s in steps[:i])
            more, end = _sweep(inst, avoid_a, saved.pop(i), used=used, spend=spend)
            for s in more:
                occ = Occurrence(s.rotation, s.ordinal)
                if occ not in tau:
                    raise VerificationError(
                        "a sweep used {!r}, which the full sweep did not".format(occ)
                    )
                _check_weight(tau, occ, s.weight)
                seen.add(occ)
            if end.found != [a.rotation]:
                raise VerificationError(
                    "the sweep that avoids {!r} does not stop at it".format(a)
                )
            spend()
            weight, _ = climb(inst, end.x, a.rotation, verified=True)
            _check_weight(tau, a, weight)
        less.update((a, b) for b in tau if b != a and b not in seen)

    order = RotationOrder(tau.keys(), tau, less, at_bottom.x, top.x)
    _sanity_check_order(order)
    order._at_bottom[inst] = at_bottom
    return order


def _check_weight(tau, occ, weight):
    if weight != tau[occ]:
        raise VerificationError(
            "routes disagree on the weight of {!r}: {} and {}".format(
                occ, tau[occ], weight
            )
        )


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
        if set(weights) - set(order.tau):
            raise InputError("weights mention unknown occurrences")
        self.weights = {occ: weights.get(occ, 0) for occ in order.occurrences}
        for occ, w in self.weights.items():
            if not _is_int(w) or not 0 <= w <= order.tau[occ]:
                raise InputError(
                    "weight {!r} at {!r} is not in 0..{}".format(w, occ, order.tau[occ])
                )

    def __eq__(self, other):
        return isinstance(other, ClosedFunction) and self.weights == other.weights

    def __hash__(self):
        return hash(tuple(sorted(self.weights.items())))

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

    Sweeps up from the minimum stable vector under the ceiling ``x``: at
    each vector the first rotation that climbs at all goes as far as it
    can without passing ``x`` on the firm side.  The weight each
    occurrence gets on the way is its value.  Every call for one order and
    instance goes on from the same rotation discovery at the bottom, made
    once (by :func:`rotation_order` for its own instance).
    """
    report = is_stable(inst, x)
    if not report.stable:
        raise InputError("target vector is not stable: {!r}".format(report))
    # The sweep trusts its start, and the order may come from elsewhere:
    # its bottom is checked, and its rotations found, on the first call
    # for each instance.  A stable bottom that is not below ``x`` cannot
    # sweep to ``x`` (see ``_sweep``), which the check after it catches.
    at_bottom = order._at_bottom.get(inst)
    if at_bottom is None:
        report = is_stable(inst, order.bottom)
        if not report.stable:
            raise VerificationError(
                "the order's bottom is not stable: {!r}".format(report)
            )
        at_bottom = order._at_bottom[inst] = _discovery_at(inst, order.bottom)
    steps, end = _sweep(inst, lambda rots, used: rots, at_bottom, ceiling=x)
    if end.x != x:
        raise VerificationError(
            "no rotation leads from {!r} toward the target".format(end.x)
        )
    weights = {}
    for s in steps:
        occ = Occurrence(s.rotation, s.ordinal)
        if occ not in order.tau:
            raise VerificationError(
                "climb used an occurrence the order does not know"
            )
        weights[occ] = s.weight
    fn = ClosedFunction(order, weights)
    if not is_closed(order, fn):
        raise VerificationError("vector decomposes into a non-closed family")
    return fn


def vector_from_closed(inst, order, weights):
    """The stable vector reached by applying a closed weight function.

    A mapping is read as a :class:`ClosedFunction` of ``order`` first.
    """
    if not isinstance(weights, ClosedFunction):
        weights = ClosedFunction(order, weights)
    if not is_closed(order, weights):
        raise InputError("weight function is not closed for this order")
    total = order.bottom
    for occ in order.occurrences:
        w = weights.weights.get(occ, 0)
        if w:
            total = total.plus(occ.rotation.chi.scaled(w))
    if not inst.in_box(total) or not is_stable(inst, total).stable:
        raise VerificationError("closed weights do not assemble a stable vector")
    return total


def full_routes(inst, limit=None, budget=DEFAULT_GRAPH_BUDGET):
    """Enumerate the full routes from minimum to maximum, depth-first.

    A full route applies every occurrence of :func:`rotation_order` once,
    with its weight, in an order the precedence allows.  From each vector
    the occurrences whose predecessors are all applied are tried in key
    order, so routes come out in a fixed order.  At each vector the walk
    visits, :func:`find_rotations` must find exactly the rotations of
    those occurrences, each step is a climb that must weigh the order's
    ``tau``, and every route must end at the maximum; otherwise
    :class:`VerificationError`.  Each vector's steps are climbed once, for
    all routes through it.  The vectors visited are the order's bottom and
    climb landings, all verified, so discovery does not check them again.
    At most ``limit`` routes are produced; ``budget`` bounds the order's
    climbs and, counted apart, the walk's.
    """
    order = rotation_order(inst, budget)
    spend = _climb_budget(budget)
    below = {b: {a for a, c in order.less if c == b} for b in order.occurrences}
    edges = {}
    produced = 0

    def out_edges(x, done):
        if done not in edges:
            exposed = [
                b for b in order.occurrences if b not in done and below[b] <= done
            ]
            found = find_rotations(inst, x, verified=True)
            if {r.steps for r in found} != {b.rotation.steps for b in exposed}:
                raise VerificationError(
                    "the order and the rotations at {!r} disagree".format(x)
                )
            edges[done] = []
            for occ in exposed:
                spend()
                weight, y = climb(inst, x, occ.rotation, verified=True)
                _check_weight(order.tau, occ, weight)
                step = RouteStep(occ.rotation, occ.ordinal, weight, weight, x, y, found)
                edges[done].append((occ, step))
        return edges[done]

    def walk(x, done, steps):
        nonlocal produced
        out = out_edges(x, done)
        if not out:
            if x != order.top:
                raise VerificationError("a route ends below the maximum")
            produced += 1
            yield Route(order.bottom, steps)
            return
        for occ, step in out:
            if limit is not None and produced >= limit:
                return
            yield from walk(step.target, done | {occ}, steps + [step])

    yield from walk(order.bottom, frozenset(), [])
