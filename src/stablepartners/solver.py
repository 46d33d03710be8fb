"""End-to-end solving of partnership instances.

A partnership instance either has a stable vector or it does not; in the
latter case the obstruction is a vector plus a family of pairwise
edge-disjoint odd cycles satisfying three local exchange conditions.  The
solver always produces one of the two outcomes by doubling the instance,
balancing, and projecting back.  An independent checker verifies the
conditions directly on the original instance, without reference to the
doubling, so a solver bug cannot silently certify a wrong answer.
"""

from .core import EdgeVector, InputError, InternalError, VerificationError, _ClosedWalk
from .bipartite import _star, is_stable
from .symmetric import is_singular, run_qb, symmetrize


class OddCycle(_ClosedWalk):
    """An oriented closed walk with an odd number of edges, three or more.

    Vertices may repeat, edges may not.  The orientation matters to the
    exchange conditions: the two traversal directions of one cycle are
    different cycles.
    """

    __slots__ = ()

    def _check_length(self, n):
        if n < 3 or n % 2 == 0:
            raise InputError("an odd cycle needs an odd number of edges, three or more")

    def to_list(self):
        out = []
        for v, e in self.steps:
            out.append(v)
            out.append(e)
        return out

    @classmethod
    def from_list(cls, inst, items):
        if not isinstance(items, list) or len(items) % 2:
            raise InputError("a cycle document alternates vertex and edge ids")
        steps = [(items[i], items[i + 1]) for i in range(0, len(items), 2)]
        return cls(inst, steps)


class HalfPartnership:
    """A vector within capacities plus disjoint odd cycles: a solver outcome."""

    __slots__ = ("x", "cycles")

    def __init__(self, x, cycles):
        self.x = x
        self.cycles = tuple(sorted(cycles))

    def __repr__(self):
        return "HalfPartnership({} cycles)".format(len(self.cycles))

    def to_dict(self):
        return {
            "x": self.x.to_mapping(),
            "K": [c.to_list() for c in self.cycles],
        }

    @classmethod
    def from_dict(cls, inst, doc):
        if not isinstance(doc, dict) or "x" not in doc or "K" not in doc:
            raise InputError("solution document needs x and K")
        if not isinstance(doc["K"], list):
            raise InputError("K must be a list of cycles")
        x = EdgeVector.from_mapping(inst.space, doc["x"])
        cycles = [OddCycle.from_list(inst, item) for item in doc["K"]]
        return cls(x, cycles)


def verify_half_partnership(inst, hp):
    """Check the exchange conditions of a half-partnership, one by one.

    Returns a report with a list of violations; an empty list means the
    pair is genuine.  Malformed input (overlapping cycles, values outside
    the box) raises :class:`InputError` instead of reporting violations.

    The conditions, per vertex v with cycle-adjusted stars ``in(v)`` and
    ``out(v)`` (its star in ``hp.x`` plus one unit per cycle edge entering,
    respectively leaving, v):

    * C1: both adjusted stars are acceptable, and for each cycle through
      v the choice on ``out(v)`` plus the cycle's entering units returns
      exactly the star with the cycle's leaving units removed;
    * C2: each single entering unit bumps exactly its successor unit on
      the cycle;
    * C3: no edge below capacity is wanted from both of its ends, where
      each end is probed on its own adjusted star whenever the probe
      stays within capacity.

    A menu outside the capacity box counts as a violation.
    """
    inst.check_vector(hp.x)
    if not inst.in_box(hp.x):
        raise InputError("solution vector is outside the capacity box")
    seen = set()
    for cyc in hp.cycles:
        OddCycle(inst, cyc.steps)
        overlap = seen & set(cyc.edges)
        if overlap:
            raise InputError(
                "cycles share edges {}".format(sorted(overlap))
            )
        seen.update(cyc.edges)

    # Stars are raw tuples in star order; a visit of a cycle to v is the
    # star positions of its (entering, leaving) edges there.
    star_in = {v: list(_star(inst, hp.x.vals, v)) for v in inst.vertices}
    star_out = {v: list(z) for v, z in star_in.items()}
    visits = {v: [] for v in inst.vertices}
    for cyc in hp.cycles:
        per_vertex = {}
        for j, (v, e_out) in enumerate(cyc.steps):
            index = inst.star_space[v].index
            e_in = cyc.steps[j - 1][1]
            per_vertex.setdefault(v, []).append((index[e_in], index[e_out]))
        for v, pairs in per_vertex.items():
            for i, o in pairs:
                star_in[v][i] += 1
                star_out[v][o] += 1
            visits[v].append((cyc, pairs))
    star_in = {v: tuple(z) for v, z in star_in.items()}
    star_out = {v: tuple(z) for v, z in star_out.items()}
    violations = []

    def attempt(v, menu):
        cf = inst.choice[v]
        return cf.choose_vals(menu) if cf.in_box(menu) else None

    for v in inst.vertices:
        for part, menu in (("in", star_in[v]), ("out", star_out[v])):
            if attempt(v, menu) != menu:
                violations.append(
                    {"condition": "C1", "vertex": v, "part": part}
                )
        out_v = star_out[v]
        for cyc, pairs in visits[v]:
            menu = _moved(out_v, [i for i, _ in pairs], 1)
            if attempt(v, menu) != _moved(menu, [o for _, o in pairs], -1):
                violations.append(
                    {
                        "condition": "C1",
                        "vertex": v,
                        "part": "exchange",
                        "cycle": cyc.to_list(),
                    }
                )
            for i, o in pairs:
                menu = _moved(out_v, [i], 1)
                if attempt(v, menu) != _moved(menu, [o], -1):
                    violations.append(
                        {
                            "condition": "C2",
                            "vertex": v,
                            "cycle": cyc.to_list(),
                            "enter": inst.star_ids[v][i],
                            "leave": inst.star_ids[v][o],
                        }
                    )

    caps = inst.caps.vals
    for p, e in enumerate(inst.space.ids):
        if hp.x.vals[p] >= caps[p]:
            continue
        u, w = inst.ends(e)
        for taker, keeper in ((u, w), (w, u)):
            menu_t, menu_k = star_in[taker], star_out[keeper]
            t = inst.star_space[taker].index[e]
            k = inst.star_space[keeper].index[e]
            if menu_t[t] != menu_k[k]:
                raise InternalError(
                    "cycle bookkeeping split edge {!r}".format(e)
                )
            if menu_t[t] >= caps[p]:
                continue
            sel_t = attempt(taker, _moved(menu_t, [t], 1))
            sel_k = attempt(keeper, _moved(menu_k, [k], 1))
            if sel_t != menu_t and sel_k != menu_k:
                violations.append(
                    {
                        "condition": "C3",
                        "edge": e,
                        "ends": [taker, keeper],
                    }
                )

    return VerificationReport(not violations, tuple(violations))


def _moved(z, positions, sign):
    """The raw star ``z`` with ``sign`` added once per entry of ``positions``."""
    out = list(z)
    for j in positions:
        out[j] += sign
    return tuple(out)


class VerificationReport:
    __slots__ = ("ok", "violations")

    def __init__(self, ok, violations):
        self.ok = ok
        self.violations = violations

    def __repr__(self):
        if self.ok:
            return "VerificationReport(ok)"
        return "VerificationReport({} violations)".format(len(self.violations))

    def to_dict(self):
        return {"ok": self.ok, "violations": list(self.violations)}


# -- projection and lifting between the instance and its double -------------


def project_cycle(si, rot):
    """Collapse a singular rotation of the double to an odd cycle below.

    Step ``i + L/2`` of the rotation's ``L`` steps is the mirror of step
    ``i`` (see :func:`is_singular`), so the walk runs twice around one odd
    cycle, and its first half, mapped to the base graph, is that cycle.
    """
    if not is_singular(si, rot):
        raise InputError("projection needs a singular rotation")
    base = si.base
    edges = [si.base_edge[e] for _, e in rot.steps[: len(rot) // 2]]
    (here,) = set(base.ends(edges[-1])) & set(base.ends(edges[0]))
    walk = []
    for e in edges:
        walk.append((here, e))
        here = base.other_end(e, here)
    return OddCycle(base, walk)


def lift_vector(si, hp):
    """The doubled vector of a half-partnership, one unit high along cycles.

    Edges off the cycles double symmetrically; a cycle edge's copy taken
    in the traversal direction keeps the low value and its mirror sits one
    unit higher.
    """
    base = si.base
    vals = {}
    for e in base.space.ids:
        lo, hi = si.copies[e]
        vals[lo] = vals[hi] = hp.x[e]
    for cyc in hp.cycles:
        for v, e in cyc.steps:
            lo = si.copy_at(e, v, 0)
            vals[si.sigma_edge[lo]] = hp.x[e] + 1
    return EdgeVector(si.graph.space, (vals[e] for e in si.graph.space.ids))


def project_solution(si, outcome):
    """Fold a balancing outcome back onto the base instance.

    The two copies of each edge must agree except across the odd core's
    cycles, where they differ by exactly one unit; the folded value is the
    smaller one.  Any other gap means the sweep was not quasi-balanced and
    raises :class:`VerificationError`.
    """
    cycles = [project_cycle(si, rot) for rot in outcome.odd_core]
    covered = set()
    for cyc in cycles:
        overlap = covered & set(cyc.edges)
        if overlap:
            raise VerificationError(
                "odd core cycles overlap on {}".format(sorted(overlap))
            )
        covered.update(cyc.edges)

    base = si.base
    folded = []
    for e in base.space.ids:
        lo_id, hi_id = si.copies[e]
        a, b = outcome.vector[lo_id], outcome.vector[hi_id]
        want = 1 if e in covered else 0
        if abs(a - b) != want:
            raise VerificationError(
                "projected values are unbalanced at edge {!r}".format(e)
            )
        folded.append(min(a, b))
    return HalfPartnership(EdgeVector(base.space, folded), cycles)


class SolveResult:
    """Everything the solver produced: outcome, certificates, verdicts."""

    __slots__ = ("hp", "solvable", "outcome", "symmetric", "report")

    def __init__(self, hp, solvable, outcome, symmetric, report):
        self.hp = hp
        self.solvable = solvable
        self.outcome = outcome
        self.symmetric = symmetric
        self.report = report

    def __repr__(self):
        verdict = "solvable" if self.solvable else "unsolvable"
        return "SolveResult({}, {} cycles)".format(verdict, len(self.hp.cycles))

    def to_dict(self):
        doc = self.hp.to_dict()
        return {
            "solvable": self.solvable,
            "x": doc["x"],
            "K": doc["K"],
            "verified": self.report.ok,
        }


def solve(inst, seed=0):
    """Produce and verify a half-partnership for any instance.

    Doubles the instance, runs the balancing sweep, projects the result,
    and verifies the exchange conditions with the independent checker.
    An empty cycle family means ``hp.x`` is a stable vector, which is
    additionally checked directly.  All verification failures raise
    :class:`VerificationError`; the returned result is always verified.
    """
    si = symmetrize(inst)
    outcome = run_qb(si, seed)
    hp = project_solution(si, outcome)
    report = verify_half_partnership(inst, hp)
    if not report.ok:
        raise VerificationError(
            "projected solution fails verification: {!r}".format(
                report.violations[:3]
            )
        )
    solvable = not hp.cycles
    if solvable:
        stability = is_stable(inst, hp.x)
        if not stability.stable:
            raise VerificationError(
                "empty cycle family but vector is unstable: {!r}".format(stability)
            )
    return SolveResult(hp, solvable, outcome, si, report)
