"""The occurrence poset of rotations and its closed weight functions.

A rotation may act several times on the way from the minimum stable vector
to the maximum, each time with a fixed weight.  Bookkeeping is therefore
per occurrence: the k-th application of one rotation is its own element.
The occurrences carry a strict partial order ("must act earlier on every
full route"), and stable vectors correspond one-to-one with the weight
assignments that are closed for that order.
"""

from collections import Counter, namedtuple

from .core import BudgetError, EdgeVector, InputError, InternalError, VerificationError
from .core import _budget, _is_int
from .choice import LinearOrderQuotaCF
from .bipartite import (
    Route,
    RouteStep,
    _climb,
    _sweep,
    _walk_frame,
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

    __slots__ = ("occurrences", "tau", "less", "bottom", "top", "_stable_at")

    def __init__(self, occurrences, tau, less, bottom, top):
        self.occurrences = tuple(sorted(occurrences))
        self.tau = dict(tau)
        self.less = frozenset(less)
        self.bottom = bottom
        self.top = top
        # The instances on which ``bottom`` is known to be stable.
        self._stable_at = set()

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
    1 allows no climb at all.  A budget that is not an integer, ``bool``
    excluded, raises :class:`InputError`.
    """
    budget, spent = _budget(budget), 1

    def spend():
        nonlocal spent
        spent += 1
        if spent > budget:
            raise BudgetError(
                "rotation sweeps exceed the budget of {} climbs".format(budget)
            )

    return spend


def rotation_order(inst, budget=DEFAULT_GRAPH_BUDGET):
    """Compute the occurrence order from one route, sweeping only where it must.

    One full sweep, always taking the first rotation found, gives the
    occurrences and their weights ``tau``; it must end at the firm-optimal
    vector.  ``a`` precedes ``b`` iff ``a`` is used in the least stable
    vector that exposes ``b`` (Irving & Leather, SIAM J. Comput. 1986;
    Gusfield, SIAM J. Comput. 1987, reads it off one route).  So ``a``
    precedes no earlier occurrence, and none exposed where the full sweep
    applies ``a``.  Where every later occurrence is exposed there, ``a``
    precedes nothing, so on an antichain the full sweep is the only sweep.
    Where ``a`` was the only rotation found, it precedes every later
    occurrence, so a chain costs the full sweep alone too.  Elsewhere a
    sweep starts a new discovery at the vector where the full sweep
    applied ``a``, and takes any rotation but ``a``.  The closed sets that
    omit ``a`` are closed under union, so that route ends at the largest
    of them, where ``a`` is the only rotation left; a later occurrence is
    missing from it exactly when ``a`` precedes it.

    Exposure settles precedence only where every route carries one
    weighted family: linear-order quotas (stable allocation) do, but a
    table can pass the axiom checks and break it, so with any other
    choice function each ``a`` found beside another rotation gets its
    sweep.  Every step of a sweep must be a known occurrence with its
    weight ``tau``, and where it stops, ``a`` must climb ``tau[a]``, or
    :class:`VerificationError` is raised.  ``budget`` bounds the climbs of
    all sweeps together, counted from 1: one per occurrence in the full
    sweep, plus those of the avoidance sweeps that run.  Past it
    :class:`BudgetError` is raised.
    """
    spend = _climb_budget(budget)
    # The bottom is the verified outcome of the proposal rounds.
    bottom = deferred_acceptance(inst, "W")
    steps, top = _sweep(inst, lambda rots, _: rots[:1], bottom, spend=spend)
    if top.x != deferred_acceptance(inst, "F"):
        raise VerificationError("the sweep stalled before the firm-optimal vector")
    tau = {Occurrence(s.rotation, s.ordinal): s.weight for s in steps}

    occs, used, less = list(tau), Counter(), set()
    quotas = all(type(cf) is LinearOrderQuotaCF for cf in inst.choice.values())
    for i, step in enumerate(steps):
        a, later = occs[i], occs[i + 1 :]
        # On quotas, an occurrence exposed where a applies does not follow
        # it, so a's sweep runs only where some later one is not exposed.
        # Where a was the only rotation found, its sweep is that step.
        seen = {Occurrence(r, used[r.steps]) for r in step.found} if quotas else set()
        if len(step.found) > 1 and not (quotas and seen.issuperset(later)):
            # Found rotations are distinct, so avoid_a reads two at most.
            # The sweep never applies a, so its rotation stays at a's ordinal.
            def avoid_a(rots, _):
                return [r for r in rots[:2] if r != a.rotation][:1]

            more, end = _sweep(inst, avoid_a, step.source, spend=spend)
            for s in more:
                # The sweep numbers its own uses, from where the full sweep was.
                occ = Occurrence(s.rotation, used[s.rotation.steps] + s.ordinal)
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
        used[a.rotation.steps] += 1
        less.update((a, b) for b in later if b not in seen)

    order = RotationOrder(tau.keys(), tau, less, bottom, top.x)
    _sanity_check_order(order)
    order._stable_at.add(inst)
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

    Read off the order with no rotation discovery: in a linear extension
    of ``order.less`` (by number of predecessors, then key), each
    occurrence whose predecessors all have their full weight is climbed
    once from the vector reached so far, up to its ``tau`` and not past
    ``x`` at the rotation's firms; no other firm moves.  Its weight is the
    climb's.  The end must be ``x`` and the weights closed.  An order's
    bottom is checked once per instance.
    """
    report = is_stable(inst, x)
    if not report.stable:
        raise InputError("target vector is not stable: {!r}".format(report))
    # The climbs trust their start; a stable bottom that is not below
    # ``x`` ends elsewhere, which the check after the climbs catches.
    if inst not in order._stable_at:
        report = is_stable(inst, order.bottom)
        if not report.stable:
            raise VerificationError(
                "the order's bottom is not stable: {!r}".format(report)
            )
        order._stable_at.add(inst)
    below = {}
    for a, b in order.less:
        below.setdefault(b, []).append(a)
    weights, y = {}, order.bottom
    for occ in sorted(order.occurrences, key=lambda o: (len(below.get(o, ())), o)):
        if all(weights.get(a) == order.tau[a] for a in below.get(occ, ())):
            frame = _walk_frame(inst, occ.rotation.shift)
            weights[occ], y = _climb(inst, y, frame, ceiling=x, limit=order.tau[occ])
    if y != x:
        raise VerificationError(
            "no rotation leads from {!r} toward the target".format(y)
        )
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
    inst.check_vector(order.bottom)
    vals = list(order.bottom.vals)
    for occ in order.occurrences:
        w = weights.weights.get(occ, 0)
        for p, sign in occ.rotation.shift:
            vals[p] += sign * w
    total = EdgeVector._trusted(inst.space, tuple(vals))
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
    At most ``limit`` routes are produced, where ``limit`` is None or a
    non-negative integer, ``bool`` excluded; otherwise :class:`InputError`.
    ``budget`` bounds the order's climbs and, counted apart, the walk's.
    Both are checked, and the order is built, at the call; routes come lazily.
    """
    if limit is not None and (not _is_int(limit) or limit < 0):
        raise InputError("limit must be a non-negative integer")
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
        if limit is not None and produced >= limit:
            return
        out = out_edges(x, done)
        if not out:
            if x != order.top:
                raise VerificationError("a route ends below the maximum")
            produced += 1
            yield Route(order.bottom, steps)
            return
        for occ, step in out:
            yield from walk(step.target, done | {occ}, steps + [step])

    return walk(order.bottom, frozenset(), [])
