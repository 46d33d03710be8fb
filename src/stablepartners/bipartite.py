"""Two-sided stability: checks, proposal rounds, rotations, and routes.

Everything in this module requires an instance with a bipartition.  The
two sides are conventionally called workers (W) and firms (F); vectors are
compared from the firms' side, so the worker-optimal stable vector is the
minimum and the firm-optimal one is the maximum.
"""

import random
from bisect import bisect_left, insort
from collections import Counter, namedtuple

from .core import EdgeVector, InputError, InternalError, VerificationError
from .core import _chain, _ClosedWalk, _is_int
from .choice import _bumped, _weakly_prefers


class StabilityReport:
    """Verdict of a stability check with the offending items, if any."""

    __slots__ = ("stable", "blocking", "unacceptable")

    def __init__(self, stable, blocking, unacceptable):
        self.stable = stable
        self.blocking = blocking
        self.unacceptable = unacceptable

    def __repr__(self):
        if self.stable:
            return "StabilityReport(stable)"
        return "StabilityReport(blocking={}, unacceptable={})".format(
            list(self.blocking), list(self.unacceptable)
        )


def is_stable(inst, x):
    """Check that ``x`` is acceptable everywhere and blocked by no edge.

    An edge blocks when both of its ends would take one more unit of it.
    Blocking is only probed at edges whose two ends find ``x`` acceptable;
    unacceptable vertices already disqualify the vector and are reported
    separately.

    This is the whole-instance check.  Once a vector is verified stable, a
    shift by any multiple of a closed walk changes only the stars of the
    walk's vertices, so only those stars and the edges incident to them
    can make the shifted vector unstable; :func:`climb` and
    :func:`find_rotations` re-check exactly those (see
    :func:`_shift_holds`).
    """
    if not inst.in_box(x):
        raise InputError("vector is outside the capacity box")
    vals = x.vals
    star = {v: get(vals) for v, get in inst.star_get.items()}
    unacceptable = tuple(v for v in inst.vertices if not inst.choice[v].accepts(star[v]))
    bad = set(unacceptable)
    blocking = tuple(
        inst.space.ids[p]
        for p, (u, _, v, _) in enumerate(inst.edge_slots)
        if u not in bad and v not in bad and _blocks(inst, vals, star, p)
    )
    stable = not unacceptable and not blocking
    return StabilityReport(stable, blocking, unacceptable)


def _blocks(inst, vals, star, p):
    """True iff both ends of the edge at position ``p`` would take one more unit.

    ``star`` maps each end of the edge to its (acceptable) star in ``vals``.
    """
    if vals[p] >= inst.caps.vals[p]:
        return False
    u, ju, v, jv = inst.edge_slots[p]
    return inst.choice[u].wants(star[u], ju) and inst.choice[v].wants(star[v], jv)


def _walk_frame(inst, shift):
    """Raw data of a closed walk given by its :attr:`Rotation.shift`.

    Returns the shift, the walk's vertices (its edges' ends, read off
    ``edge_slots``) and the positions of the edges incident to them, both
    sorted so that checks run in a fixed order.
    """
    slots = inst.edge_slots
    touched = tuple(sorted({v for p, _ in shift for v in slots[p][::2]}))
    near = tuple(sorted({q for v in touched for q in inst.star_positions[v]}))
    return shift, touched, near


def _shifted(inst, vals, shift, k=1):
    """``vals`` moved ``k`` times along ``shift``, or None if that leaves the box."""
    out = list(vals)
    caps = inst.caps.vals
    for i, s in shift:
        out[i] += k * s
        if not 0 <= out[i] <= caps[i]:
            return None
    return tuple(out)


def _shift_holds(inst, x_vals, y_vals, touched, near):
    """``is_stable(y).stable and precedes_F(x, y)``, decided locally.

    ``x_vals`` must be verified stable and ``y_vals`` in the box, differing
    from it only on edges whose ends all lie in ``touched``; ``near`` holds
    the positions of the edges incident to ``touched``.  Stars outside
    ``touched`` are the same in both vectors, so they stay acceptable,
    edges away from ``touched`` stay unblocked and firms away from it see
    no change.
    Returns at the first failure.
    """
    choice, get, slots = inst.choice, inst.star_get, inst.edge_slots
    star = {}
    for v in touched:
        z = get[v](y_vals)
        if not choice[v].accepts(z):
            return False
        star[v] = z
    for p in near:
        for v in slots[p][::2]:
            if v not in star:
                star[v] = get[v](y_vals)
        if _blocks(inst, y_vals, star, p):
            return False
    firms = inst.parts[1]
    for f in touched:
        if f in firms and not _weakly_prefers(choice[f], star[f], get[f](x_vals)):
            return False
    return True


def precedes(inst, x, y, side):
    """Strict one-sided comparison: every ``side`` vertex weakly prefers ``y``.

    True iff ``x != y`` and each vertex on the chosen side either sees the
    same star in both vectors or strictly prefers its star in ``y``.  Both
    vectors must be acceptable at every vertex of that side.
    """
    if not inst.is_bipartite_labeled:
        raise InputError("one-sided comparison needs a bipartition")
    if side not in ("W", "F"):
        raise InputError("side must be W or F")
    if not inst.in_box(x) or not inst.in_box(y):
        raise InputError("vectors must lie in the capacity box")
    if x == y:
        return False
    group = inst.parts[0] if side == "W" else inst.parts[1]
    for v in sorted(group):
        xv = inst.star_get[v](x.vals)
        yv = inst.star_get[v](y.vals)
        if xv == yv:
            continue
        cf = inst.choice[v]
        if cf.choose_vals(yv) != yv or cf.choose_vals(xv) != xv:
            raise InputError("preference is only defined between acceptable vectors")
        if not _weakly_prefers(cf, yv, xv):
            return False
    return True


def precedes_F(inst, x, y):
    """Strict firm-side comparison; the order all route machinery uses."""
    return precedes(inst, x, y, "F")


def deferred_acceptance(inst, side):
    """Run proposal rounds from one side and return the stable outcome.

    ``side`` names the proposing side; the result is optimal for it.  With
    firm-side comparison this means ``side="W"`` yields the minimum stable
    vector and ``side="F"`` the maximum.  The outcome is verified stable
    before being returned; failure to converge or verify signals a choice
    function that breaks the axioms.

    Each round re-chooses only the proposers whose bound moved and the
    receivers whose offers moved.  A vertex whose menu is unchanged would
    choose what it chose before, and a rejection always moves the
    rejected offer at the next round, so the rounds are those of the
    round-robin loop that re-chooses everyone, with the same outcome.
    """
    if not inst.is_bipartite_labeled:
        raise InputError("proposal rounds need a bipartition")
    if side not in ("W", "F"):
        raise InputError("side must be W or F")
    proposers = inst.parts[0] if side == "W" else inst.parts[1]
    # The proposer and the receiver of each edge, by position.
    ends = [(u, v) if u in proposers else (v, u) for u, _, v, _ in inst.edge_slots]

    choice = inst.choice
    positions, get = inst.star_positions, inst.star_get
    bound = list(inst.caps.vals)
    offer = [0] * len(bound)
    rounds_left = inst.caps.total() + 2
    moved = proposers
    while True:
        offered = set()
        for p in sorted(moved):
            sel = choice[p].choose_vals(get[p](bound))
            for i, s in zip(positions[p], sel):
                if offer[i] != s:
                    offer[i] = s
                    offered.add(ends[i][1])
        moved = set()
        for r in sorted(offered):
            kept = choice[r].choose_vals(get[r](offer))
            for i, k in zip(positions[r], kept):
                if k < offer[i]:
                    bound[i] = k
                    moved.add(ends[i][0])
        if not moved:
            break
        rounds_left -= 1
        if rounds_left < 0:
            raise VerificationError(
                "proposal rounds did not converge; choice axioms are suspect"
            )

    x = EdgeVector._trusted(inst.space, tuple(offer))
    report = is_stable(inst, x)
    if not report.stable:
        raise VerificationError(
            "proposal rounds produced an unstable vector: {!r}".format(report)
        )
    return x


class Rotation(_ClosedWalk):
    """A closed alternating walk along which stable vectors can be shifted.

    A closed walk that starts on the W side: edges at even steps run from
    the W side and gain a unit, edges at odd steps run back and lose one.
    The canonical shift moves by two steps, so it keeps each edge's sign.
    The steps are the public form and the sort key; ``shift`` holds the
    ``(position, sign)`` pairs of the edges in ``space``, in step order:
    the signed edge set of Gusfield & Irving (1989, section 2.5), the one
    sign table, which the ray walks and the mirror read.
    """

    __slots__ = ("space", "shift")
    stride = 2

    def __init__(self, inst, steps):
        if not inst.is_bipartite_labeled:
            raise InputError("rotations need a bipartition")
        super().__init__(inst, steps)
        w, f = inst.parts
        sides = [v for v, _ in self.steps]
        if not (w.issuperset(sides[::2]) and f.issuperset(sides[1::2])):
            raise InputError("walk does not alternate sides")
        self.space, index = inst.space, inst.space.index
        self.shift = tuple(zip(map(index.get, self.edges), (1, -1) * (len(self) // 2)))

    def _check_length(self, n):
        if n < 2 or n % 2:
            raise InputError("a rotation walk has an even number of steps")

    @property
    def chi(self):
        """The incidence vector over the whole edge space, read off ``shift``."""
        sign = dict(self.shift)
        vals = tuple(sign.get(p, 0) for p in range(len(self.space)))
        return EdgeVector._trusted(self.space, vals)

    def to_dict(self):
        return {
            "steps": [{"v": v, "e": e} for v, e in self.steps],
            "chi": {self.space.ids[p]: s for p, s in sorted(self.shift)},
        }


def _rotation_along(inst, positions):
    """The rotation along the edges at ``positions``, from the first one's worker."""
    u, _, v, _ = inst.edge_slots[positions[0]]
    return Rotation(inst, _chain(inst, positions, u if u in inst.parts[0] else v))


def _candidate_walks(inst, succ, roots):
    """Closed alternating walks of the exposed-rotation graph through ``roots``.

    ``succ`` is the graph's successor table (see :class:`_Discovery`), in
    which each node has one successor at most.  Following pointers once
    from each root finds every cycle through a root, for one step per node
    reached; from every node, that is every cycle in ``O(|E|)`` steps.  A
    cycle that uses an edge twice is no walk.  Each walk is the list of its
    edges' positions, starting at a gain (see :func:`_rotation_along`).
    """
    through = set(roots)
    walks = []
    seen = {}
    for root in sorted(through):
        path = []
        node = root
        while node in succ and node not in seen:
            seen[node] = root
            path.append(node)
            node = succ[node]
        if seen.get(node) != root:
            continue
        cycle = path[path.index(node) :]
        positions = [n if n >= 0 else ~n for n in cycle]
        if through.isdisjoint(cycle) or len(set(positions)) < len(positions):
            continue
        # Links alternate gains and losses, and each chains at the vertex
        # shared by its two edges, so the walk closes at the worker it
        # starts on.
        first = next(k for k, n in enumerate(cycle) if n >= 0)
        walks.append(positions[first:] + positions[:first])
    return walks


def _ray_point(inst, base, frame, k=1):
    """``base`` moved ``k`` times along a walk, if that lands well, else None.

    ``base`` is the raw vector of a verified stable vector and ``frame``
    the walk's :func:`_walk_frame`.  The landing must be in the box, and
    :func:`_shift_holds` must find it stable and strictly above ``base``
    on the firm side.
    """
    shift, touched, near = frame
    y = _shifted(inst, base, shift, k)
    if y is None or not _shift_holds(inst, base, y, touched, near):
        return None
    return y


def _weakly_below(inst, lo, hi, firms):
    """True iff each of ``firms`` weakly prefers its star in ``hi`` to ``lo``.

    ``lo`` and ``hi`` are raw vectors.  Where both are acceptable at
    ``firms``, agree at every firm outside them and differ somewhere, this is
    ``precedes_F(lo, hi)``: an edge on which they differ has a firm end
    whose star differs, and no other firm can object.  The minimal-landing
    filter compares two landings at their walks' firms; :func:`_climb`, a
    probe not yet checked stable with its ceiling at the rotation's firms.
    """
    choice, get = inst.choice, inst.star_get
    return all(_weakly_prefers(choice[f], get[f](hi), get[f](lo)) for f in firms)


# One candidate walk: its :func:`_walk_frame`, its nodes (``i`` where it
# gains at position ``i``, ``~i`` where it loses), its firms, the vertices
# whose stars its screen and exchange check read (the walk's and its near
# edges' ends), whether its landing held (None until screened), and whether
# it is in ``found``, its exchange checked, since those stars last moved.
_Candidate = namedtuple("_Candidate", "frame nodes firms reads lands kept")


class _Discovery:
    """The rotations exposed at a stable vector, carried along a sweep.

    ``found`` is what :func:`find_rotations` returns at ``x``.  The state
    keeps what that answer is built from: the successor table of the
    exposed-rotation graph, each candidate walk with its screen, and
    ``found``; stars are read off ``x``.

    **The graph.**  Node ``i`` gains a unit of the edge ``e`` at position
    ``i`` of the edge space, and node ``~i`` loses one; each node has one
    successor at most.  ``i`` links to ``~i2`` when the firm of ``e``
    would take one more unit of ``e`` by bumping exactly one unit of
    ``e2``.  ``~i1``, where the worker ``w`` of ``e1`` holds a unit of it,
    links to the one unit ``w`` gains from its star less that unit plus
    one unit of each candidate: the other edges with room that ``w``
    refuses on top of its star and whose gain node links on.  No link is
    made unless exactly one unit is gained; under SUB, MON and CON no more
    can be, as ``w`` chooses its star ``z`` from ``z`` plus every
    candidate, so from the menu below that it keeps ``z - 1_{e1}`` (SUB)
    and at most ``|z|`` units (MON).  This is the exposed-rotation graph of
    Gusfield & Irving, *The Stable Marriage Problem* (1989), section 2.5: a
    worker that loses a unit moves on to the best firm that would take it.
    Its cycles (:func:`_candidate_walks`) are the candidate walks.

    **What a climb invalidates.**  A climb along a rotation R changes the
    stars of R's vertices and no other.  A gain node's link reads only its
    firm's star, so only the gain nodes of edges whose firm is on R can
    change.  The loss links of a worker read its star and which of its
    edges have a gain link, so only the workers on R and the workers
    adjacent to a firm on R recompute theirs.  A cycle stays a cycle until
    one of its links changes, and a new cycle runs through a changed link,
    so only the changed nodes are followed and the candidates through them
    (``by_node``; cycles share no node) dropped.  A candidate's screen and
    exchange read its ``reads`` alone, so only those ``by_vertex`` lists at
    R's vertices are screened again.  The minimal-landing verdict
    (:meth:`_minimal`) reads the candidates sharing a firm, so it is redone
    only beside one dropped or screened; rotations entering ``found`` alone
    are checked for disjointness and exchange.

    A new state is empty; :meth:`refresh`, which :func:`find_rotations`
    calls for every discovery step, is the one way to recompute.  ``x``
    must be stable; the caller verifies it.
    """

    __slots__ = ("inst", "x", "succ", "walks", "by_node", "by_vertex", "found")

    def __init__(self, inst):
        self.inst = inst
        self.x = None
        self.succ, self.walks, self.by_node, self.by_vertex = {}, {}, {}, {}
        self.found = []

    def refresh(self, x, vertices):
        """Move to the stable ``x``, which differs only at the stars of ``vertices``."""
        inst, succ, walks = self.inst, self.succ, self.walks
        by_node, by_vertex = self.by_node, self.by_vertex
        positions = inst.star_positions
        w_side, f_side = inst.parts
        self.x = x
        moved = set(vertices)
        changed = set()

        def relink(nodes, links):
            for node, nxt in zip(nodes, links):
                if succ.get(node) != nxt:
                    changed.add(node)
                    if nxt is None:
                        del succ[node]
                    else:
                        succ[node] = nxt

        firms = moved & f_side
        for f in firms:
            relink(positions[f], self._gains(f))
        slots = inst.edge_slots
        near = {v for f in firms for p in positions[f] for v in slots[p][::2]}
        for w in (moved | near) & w_side:
            relink([~i for i in positions[w]], self._losses(w))

        # Rebound, not changed: the route steps of a sweep hold the old list.
        found = list(self.found)

        def drop(rot):
            del found[bisect_left(found, rot)]

        hit = set()  # the firms of the walks dropped or screened
        gone = {by_node[n] for n in changed if n in by_node}
        for rot in gone:
            c = walks.pop(rot)
            if c.kept:
                drop(rot)
            hit.update(c.firms)
            for n in c.nodes:
                del by_node[n]
            for v in c.reads:
                by_vertex[v] = tuple(r for r in by_vertex[v] if r != rot)
        screen = set()
        for walk in _candidate_walks(inst, succ, [n for n in changed if n in succ]):
            rot = _rotation_along(inst, walk)
            frame = _walk_frame(inst, rot.shift)
            nodes = tuple(i if s > 0 else ~i for i, s in frame[0])
            reads = set(frame[1]).union(*(inst.edge_slots[p][::2] for p in frame[2]))
            on_walk = f_side.intersection(frame[1])
            walks[rot] = _Candidate(frame, nodes, on_walk, tuple(reads), None, False)
            by_node.update(dict.fromkeys(nodes, rot))
            for v in reads:
                by_vertex[v] = by_vertex.get(v, ()) + (rot,)
            screen.add(rot)
        screen.update(*(by_vertex.get(v, ()) for v in moved))
        for rot in screen:
            c = walks[rot]
            if c.kept:
                drop(rot)
            lands = _ray_point(inst, x.vals, c.frame) is not None
            walks[rot] = c._replace(lands=lands, kept=False)
            hit.update(c.firms)

        entered = []
        for f in hit:
            screen.update(r for r in by_vertex.get(f, ()) if f in walks[r].firms)
        for rot in sorted(screen):
            keep = self._minimal(rot)
            if keep != walks[rot].kept:
                walks[rot] = walks[rot]._replace(kept=keep)
                if keep:
                    insort(found, rot)
                    entered.append(rot)
                else:
                    drop(rot)
        for rot in entered:
            # A walk through an edge of rot runs through the edge's other node.
            pairs = zip(rot.edges, walks[rot].nodes)
            overlap = [e for e, n in pairs if ~n in by_node and walks[by_node[~n]].kept]
            if overlap:
                raise VerificationError(
                    "rotations at one vector share edges {}".format(sorted(overlap))
                )
            _verify_aggregate_exchange(inst, x, rot)
        self.found = found

    def _minimal(self, rot):
        """True iff ``rot`` lands and no landing sharing a firm lies below its own."""
        inst, walks, mine = self.inst, self.walks, self.walks[rot].firms

        def below(r):
            if not walks[r].lands:
                return False
            lo, hi = (_shifted(inst, self.x.vals, walks[q].frame[0]) for q in (r, rot))
            return _weakly_below(inst, lo, hi, sorted(mine | walks[r].firms))

        sharing = {r for f in mine for r in self.by_vertex[f] if f in walks[r].firms}
        return walks[rot].lands and not any(below(r) for r in sorted(sharing - {rot}))

    def _gains(self, f):
        """The successor of the gain node of each edge of firm ``f``, or None."""
        inst = self.inst
        pos = inst.star_positions[f]
        caps = inst.caps.vals
        z = inst.star_get[f](self.x.vals)
        cf = inst.choice[f]
        bumped = [cf.bumps(z, j) if z[j] < caps[i] else None for j, i in enumerate(pos)]
        return [None if k is None else ~pos[k] for k in bumped]

    def _losses(self, w):
        """The successor of the loss node of each edge of worker ``w``, or None."""
        inst = self.inst
        pos = inst.star_positions[w]
        caps = inst.caps.vals
        succ = self.succ
        z = inst.star_get[w](self.x.vals)
        cw = inst.choice[w]
        room = [j for j, i in enumerate(pos) if i in succ and z[j] < caps[i]]
        wanted = [j for j in room if cw.refuses(z, j)]
        out = [None] * len(pos)
        held = [i for i, v in enumerate(z) if v] if wanted else []
        for i in held:
            others = [j for j in wanted if j != i] if i in wanted else wanted
            j = cw.gains(_bumped(z, i, -1), others) if others else None
            out[i] = None if j is None else pos[j]
        return out


def find_rotations(inst, x, verified=False, state=None, moved=None):
    """All rotations applicable at the stable vector ``x``.

    Each returned rotation R satisfies: ``x + chi(R)`` is stable, strictly
    above ``x`` on the firm side, and no other returned rotation lands
    strictly between.  The returned family is verified pairwise
    edge-disjoint and each firm's aggregate exchange is verified to match
    its choice function; failures of either raise
    :class:`VerificationError` since they indicate broken axioms.

    ``x`` must be stable.  Unless the caller has verified that
    (``verified=True``, as the rotation sweeps do for the vectors they
    reach), it is checked here with the whole-instance :func:`is_stable`,
    and an unstable ``x`` raises :class:`VerificationError`.

    The candidates are the cycles of the exposed-rotation graph of
    Gusfield & Irving (1989), where each node has one successor at most;
    see :class:`_Discovery`.  Finding them costs ``O(|E|)`` calls.
    Each is screened by :func:`_shift_holds` on its own stars.  A landing
    differs from ``x`` only at its walk's stars, and every firm on a
    screened walk strictly prefers its new star, so two landings are
    comparable only if their walks share a firm; the minimal-landing
    filter compares just those pairs, on their firms' stars
    (:func:`_weakly_below`).  Walks that share no firm cost nothing.

    By default this is the answer from scratch, in a new
    :class:`_Discovery`.  The rotation sweeps make every discovery step
    here on the ``state`` they carry: it is moved to ``x`` and its
    rotations returned.  ``moved`` names the vertices whose stars may
    differ between the state's vector and ``x`` (by default every
    vertex; after a climb along R, R's vertices), and only the links and
    screens that read those stars are recomputed.
    """
    if not verified:
        report = is_stable(inst, x)
        if not report.stable:
            raise VerificationError(
                "rotations are only defined at stable vectors: {!r}".format(report)
            )
    if state is None:
        state = _Discovery(inst)
    state.refresh(x, inst.vertices if moved is None else moved)
    return state.found


def _verify_aggregate_exchange(inst, x, rot):
    """Each firm must swap the rotation's gains exactly for its losses."""
    firms, slots = inst.parts[1], inst.edge_slots
    moves = {}
    for p, s in rot.shift:
        u, su, v, sv = slots[p]
        f, j = (u, su) if u in firms else (v, sv)
        moves.setdefault(f, []).append((j, s))
    for f in sorted(moves):
        menu = list(inst.star_get[f](x.vals))
        want = list(menu)
        for j, s in moves[f]:
            menu[j] += max(s, 0)
            want[j] += s
        if inst.choice[f].choose_vals(tuple(menu)) != tuple(want):
            raise VerificationError(
                "firm {!r} does not exchange along the rotation".format(f)
            )


def climb(inst, x, rot, limit=None, verified=False):
    """Walk the ray ``x, x + chi, x + 2 chi, ...`` of a rotation once.

    This is the one ray walk: it gives both a rotation's feasible weight
    and, with a ``limit``, the landing of a given weight.  Returns
    ``(weight, y)`` with ``y = x + weight * chi``: the largest ``weight``,
    at most ``limit``, such that every step up to it stays in the box and
    lands on a stable vector strictly above the one before it on the firm
    side.  A rotation that cannot move from ``x`` gets weight 0.

    ``x`` must be stable.  Unless the caller has just verified that
    (``verified=True``, as after :func:`find_rotations` at ``x``), it is
    checked here with the whole-instance :func:`is_stable`, and an
    unstable ``x`` raises :class:`InputError`.  So does a ``limit`` that is
    not a non-negative integer, ``bool`` excluded.

    The weight is found by galloping, then bisecting: the probes are
    ``k = 1, 2, 4, ...`` up to the first that fails, then the midpoints
    between the last that held and that one.  A probe at ``k`` checks
    that ``x + k chi`` is in the box and, with :func:`_shift_holds`
    against the verified ``x``, that it is stable and strictly above
    ``x`` on the firm side; only the stars of the rotation's vertices
    differ from ``x``, so only they, the edges incident to them and the
    rotation's firms are re-checked.

    Exactness rests on the interval property: the probes that hold are
    exactly those at ``k = 1..tau``, where ``tau`` is the weight a
    unit-step walk reaches.  It is not proved here for every choice that
    passes SUB, MON and CON.  The tests pin it, out to the box edge, on
    every ray of seeded instances whose choices are linear-order quotas,
    quotas with per-edge limits, or axiom-checked tables (conditional
    orders, laminar quotas, shrunk quota tables, and the gated instance).
    Where it failed, a probe could skip an unstable vector inside the ray
    and the weight would exceed the unit-step one, with no error.  The
    stop point needs only transitivity: had the unit step from
    ``x + tau chi`` held, its landing would be stable and above ``x``, so
    its probe would hold.  A climb therefore takes ``O(log tau)`` probes,
    not ``tau``.
    """
    inst.check_vector(x)
    if rot.space != inst.space:
        raise InputError("rotation does not live on this instance's edges")
    if limit is not None:
        if not _is_int(limit) or limit < 0:
            raise InputError("limit must be a non-negative integer")
        limit = int(limit)
    if not verified:
        report = is_stable(inst, x)
        if not report.stable:
            raise InputError(
                "rotations climb only between stable vectors: {!r}".format(report)
            )
    return _climb(inst, x, _walk_frame(inst, rot.shift), limit=limit)


def _climb(inst, x, frame, ceiling=None, limit=None, screened=False):
    """The walk of :func:`climb`, along a rotation's :func:`_walk_frame`.

    The caller has made :func:`climb`'s checks: ``x`` is verified stable
    and ``limit`` is a non-negative integer or None.  A ``ceiling``, which
    only ``poset.closed_from_vector`` passes, is a stable vector at which
    every firm off the rotation weakly prefers its star to its star in
    ``x``, as holds at every vector below the ceiling.  Those stars do not
    move along the ray, so each probe is compared with the ceiling at the
    rotation's firms alone, and before :func:`_shift_holds`, which a probe
    past the ceiling then skips.  With ``screened``, the landing at
    ``k = 1`` is known to be stable and strictly above ``x`` (as for every
    rotation :class:`_Discovery` finds), so that probe skips it too.
    """
    firms = [f for f in frame[1] if f in inst.parts[1]]
    shift, touched, near = frame
    base = x.vals

    def probe(k):
        y = _shifted(inst, base, shift, k)
        if y is None:
            return None
        if ceiling is not None and not _weakly_below(inst, y, ceiling.vals, firms):
            return None
        if k == 1 and screened or _shift_holds(inst, base, y, touched, near):
            return y
        return None

    weight, vals, fail = 0, base, None
    while fail is None and (limit is None or weight < limit):
        k = 1 if weight == 0 else 2 * weight
        if limit is not None:
            k = min(k, limit)
        y = probe(k)
        if y is None:
            fail = k
        else:
            weight, vals = k, y
    while fail is not None and fail - weight > 1:
        k = (weight + fail) // 2
        y = probe(k)
        if y is None:
            fail = k
        else:
            weight, vals = k, y
    return weight, (EdgeVector._trusted(inst.space, vals) if weight else x)


# One application of a rotation on a route: the ``ordinal``-th use of
# ``rotation``, moved ``weight`` times from ``source`` to ``target``, where
# its climb reached ``tau``; ``found`` lists the rotations found at ``source``.
RouteStep = namedtuple("RouteStep", "rotation ordinal weight tau source target found")


class Route:
    """A sequence of weighted rotation applications between stable vectors."""

    __slots__ = ("start", "steps")

    def __init__(self, start, steps):
        self.start = start
        self.steps = tuple(steps)

    @property
    def end(self):
        return self.steps[-1].target if self.steps else self.start

    def vectors(self):
        """The visited stable vectors, endpoints included."""
        out = [self.start]
        out.extend(step.target for step in self.steps)
        return out

    def __len__(self):
        return len(self.steps)

    def __repr__(self):
        return "Route({} steps)".format(len(self.steps))


def _sweep(inst, pick, x, half=None, spend=None):
    """Climb rotations upward from a stable vector until none is taken.

    This is the one loop over rotation discovery (:func:`find_rotations`)
    and :func:`_climb`; callers differ only in their pick policy.  It
    starts at ``x``, which the caller has verified stable, with a new
    discovery state of its own, and refreshes that state in place.  Every
    later vector is a landing checked by :func:`_shift_holds`, so none is
    checked whole again.  It stops where no rotation is taken.  Where the
    state has rotations, ``pick(rots, used)`` names the ones to try, in
    order; ``used`` counts the applications of each rotation in this
    sweep, keyed by its steps, which is also the ordinal of its next
    occurrence.  The first whose climb moves at all is applied with the
    climb's weight ``tau``, or with ``tau // 2`` where ``half(rot)``
    holds, a landing checked by one more probe of the ray.  The climb
    starts past the probe at ``k = 1``, which discovery has screened.
    ``spend``, if given, is called before every climb.

    A climb along R changes only the stars of R's vertices, so the state
    is refreshed at those alone (see :class:`_Discovery`).

    Returns ``(steps, moved)``: the steps as :data:`RouteStep` records and
    the state where the sweep stopped, at ``moved.x`` with the rotations
    ``moved.found``.
    """
    state = _Discovery(inst)
    find_rotations(inst, x, verified=True, state=state)
    used = Counter()
    steps = []
    fuel = (inst.caps.total() + 2) * max(1, len(inst.space)) + 2
    while True:
        x, rots = state.x, state.found
        for rot in pick(rots, used) if rots else ():
            if spend is not None:
                spend()
            frame = state.walks[rot].frame
            tau, y = _climb(inst, x, frame, screened=True)
            if tau:
                break
        else:
            break
        weight = tau
        if half is not None and half(rot):
            weight = tau // 2
            # The climb probed only O(log tau) points of the ray, so the
            # half step gets a probe of its own.
            vals = _ray_point(inst, x.vals, frame, weight) if weight else x.vals
            if vals is None:
                raise VerificationError("half step along {!r} failed".format(rot))
            y = EdgeVector._trusted(inst.space, vals)
        steps.append(RouteStep(rot, used[rot.steps], weight, tau, x, y, rots))
        used[rot.steps] += 1
        if weight:
            find_rotations(inst, y, verified=True, state=state, moved=frame[1])
        fuel -= 1
        if fuel < 0:
            raise InternalError("rotation sweep failed to terminate")
    return steps, state


def build_full_route(inst, seed=0):
    """A full route from the minimum stable vector to the maximum.

    At every visited vector one applicable rotation is chosen (seeded, so
    different seeds explore different full routes) and applied with its
    maximum feasible weight.  The endpoint is verified to be the
    firm-optimal vector.
    """
    rng = random.Random(seed)
    bottom = deferred_acceptance(inst, "W")
    steps, end = _sweep(inst, lambda rots, _: [rots[rng.randrange(len(rots))]], bottom)
    if end.x != deferred_acceptance(inst, "F"):
        raise VerificationError("route stalled before the firm-optimal vector")
    return Route(bottom, steps)
