"""Bipartite doubling of an instance, its mirror involution, and balancing.

Any instance can be doubled: each vertex ``v`` becomes a worker copy
``v^0`` and a firm copy ``v^1``, and each edge becomes two copies joining
opposite sides.  The doubled instance is bipartite, so the whole rotation
machinery applies, and swapping the superscripts is an involution that
reverses the firm-side order.  Vectors fixed by the involution are exactly
the doubles of plain vectors, which is what makes the doubling useful.
"""

import random

from .core import EdgeSpace, EdgeVector, InputError, Instance, VerificationError
from .bipartite import Rotation, _discovery_at, _sweep, deferred_acceptance


def _copy_name(name, i):
    return "{}^{}".format(name, i)


class SymmetricInstance:
    """An instance together with its bipartite double and the mirror maps."""

    __slots__ = ("base", "graph", "sigma_vertex", "sigma_edge", "base_edge", "copies")

    def __init__(self, base, graph, sigma_vertex, sigma_edge, base_edge, copies):
        self.base = base
        self.graph = graph
        self.sigma_vertex = sigma_vertex
        self.sigma_edge = sigma_edge
        self.base_edge = base_edge
        self.copies = copies

    def copy_at(self, e, v, i):
        """The copy of base edge ``e`` incident to the copy ``v^i``."""
        a, _ = self.base.ends(e)
        return self.copies[e][0 if (v == a) == (i == 0) else 1]

    def reflect_vector(self, x):
        self.graph.check_vector(x)
        return EdgeVector(
            self.graph.space, (x[self.sigma_edge[e]] for e in self.graph.space.ids)
        )

    def _check_rotation(self, rot):
        if rot.chi.space != self.graph.space:
            raise InputError("rotation does not live on the double's edges")

    def reflect_rotation(self, rot):
        self._check_rotation(rot)
        mapped = [
            (self.sigma_vertex[v], self.sigma_edge[e]) for v, e in rot.steps
        ]
        return Rotation(self.graph, mapped[1:] + mapped[:1])


def symmetrize(inst):
    """The bipartite double of ``inst``; both copies of ``v`` choose by ``C_v``."""
    vertices = [
        _copy_name(v, i) for v in inst.vertices for i in (0, 1)
    ]
    edges = {}
    caps = {}
    copies = {}
    sigma_edge = {}
    base_edge = {}
    for e in inst.space.ids:
        a, b = inst.ends(e)
        e0, e1 = _copy_name(e, 0), _copy_name(e, 1)
        edges[e0] = (_copy_name(a, 0), _copy_name(b, 1))
        edges[e1] = (_copy_name(b, 0), _copy_name(a, 1))
        caps[e0] = caps[e1] = inst.caps[e]
        copies[e] = (e0, e1)
        sigma_edge[e0], sigma_edge[e1] = e1, e0
        base_edge[e0] = base_edge[e1] = e

    sigma_vertex = {}
    for v in inst.vertices:
        sigma_vertex[_copy_name(v, 0)] = _copy_name(v, 1)
        sigma_vertex[_copy_name(v, 1)] = _copy_name(v, 0)

    parts = (
        [_copy_name(v, 0) for v in inst.vertices],
        [_copy_name(v, 1) for v in inst.vertices],
    )
    si = SymmetricInstance(inst, None, sigma_vertex, sigma_edge, base_edge, copies)

    # Each copy lists its star in the base star's order, so it runs the
    # base choice function, memo included, with no translation.
    choice = {}
    for v in inst.vertices:
        for i in (0, 1):
            star = EdgeSpace(si.copy_at(e, v, i) for e in inst.star_ids[v])
            choice[_copy_name(v, i)] = inst.choice[v].on_star(_copy_name(v, i), star)

    si.graph = Instance(vertices, edges, caps, choice, parts)
    return si


def is_singular(si, rot):
    """True iff the rotation is its own mirror image.

    Then the mirror is the walk itself, shifted by some ``s`` of its ``L``
    steps: step ``i + s`` is the mirror of step ``i``.  Mirroring twice is
    the identity, so step ``i + 2s`` is step ``i``; the steps are distinct,
    so ``s = L/2``.  The test is thus the half turn alone, in ``O(L)``.  It
    needs no length check: the mirror swaps the sides, which alternate
    along the walk, so it can only pass where ``L/2`` is odd.
    """
    si._check_rotation(rot)
    steps = rot.steps
    half = len(steps) // 2
    return all(
        steps[i + half] == (si.sigma_vertex[v], si.sigma_edge[e])
        for i, (v, e) in enumerate(steps[:half])
    )


class QBOutcome:
    """Result of the balancing sweep.

    ``vector`` is the reached stable vector of the double; ``odd_core``
    holds the singular rotations that were applied with a rounded-down
    half weight because their full weight was odd.  The vector is
    symmetric exactly when the odd core is empty; in general its mirror
    differs by one application of each odd-core rotation, and that
    identity is verified before the outcome is returned.
    """

    __slots__ = ("vector", "picks", "odd_core")

    def __init__(self, vector, picks, odd_core):
        self.vector = vector
        self.picks = picks
        self.odd_core = odd_core

    @property
    def symmetric(self):
        return not self.odd_core

    def __repr__(self):
        return "QBOutcome({} picks, odd core of {})".format(
            len(self.picks), len(self.odd_core)
        )


def run_qb(si, seed=0):
    """Sweep rotations upward, never using both a rotation and its mirror.

    The pick policy of the rotation sweep: starting at the minimum stable
    vector of the double, pick at random (seeded) an applicable rotation
    whose mirror has not been used.  Singular ones (self-mirrored) advance
    by half their feasible weight rounded down, checked by one probe of
    the ray after the full climb; all others by their full feasible
    weight.  The sweep stops when every applicable rotation's mirror is
    used up.
    """
    rng = random.Random(seed)

    def mirror_fresh(rots, used):
        fresh = [r for r in rots if si.reflect_rotation(r).steps not in used]
        return [fresh[rng.randrange(len(fresh))]] if fresh else []

    start = _discovery_at(si.graph, deferred_acceptance(si.graph, "W"))
    steps, end = _sweep(
        si.graph, mirror_fresh, start, half=lambda rot: is_singular(si, rot)
    )
    x = end.x
    # The sweep halved exactly the singular steps; the odd core is those
    # whose half rounded down.
    odd_core = tuple(sorted(s.rotation for s in steps if 2 * s.weight < s.tau))
    expected = x
    for rot in odd_core:
        expected = expected.plus(rot.chi)
    if si.reflect_vector(x) != expected:
        raise VerificationError(
            "balancing sweep failed its reflection identity"
        )
    picks = tuple((s.rotation, s.weight, s.tau) for s in steps)
    return QBOutcome(x, picks, odd_core)

