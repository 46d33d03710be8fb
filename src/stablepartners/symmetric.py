"""Bipartite doubling of an instance, its mirror involution, and balancing.

Any instance can be doubled: each vertex ``v`` becomes a worker copy
``v^0`` and a firm copy ``v^1``, and each edge becomes two copies joining
opposite sides.  The doubled instance is bipartite, so the whole rotation
machinery applies, and swapping the superscripts is an involution that
reverses the firm-side order.  Vectors fixed by the involution are exactly
the doubles of plain vectors, which is what makes the doubling useful.
"""

import functools
import random

from .core import EdgeVector, InputError, Instance, VerificationError
from .bipartite import _rotation_along, _sweep, deferred_acceptance


class SymmetricInstance:
    """An instance together with its bipartite double.

    ``copy_positions[p]`` holds the positions in ``graph.space`` of the two
    copies of the base edge at position ``p``.  The mirror swaps them; it
    is two tables built from ``copy_positions``: ``mirror[q]`` is the other
    copy of the edge at position ``q`` of ``graph.space`` and
    ``base_positions[q]`` its base edge's position in ``base.space``.
    Walks of the double are reflected and projected by these, not by ids.
    """

    __slots__ = ("base", "graph", "copy_positions", "mirror", "base_positions")

    def __init__(self, base, graph, copy_positions):
        self.base = base
        self.graph = graph
        self.copy_positions = copy_positions
        mirror, base_positions = [0] * len(graph.space), [0] * len(graph.space)
        for p, (q0, q1) in enumerate(copy_positions):
            mirror[q0], mirror[q1] = q1, q0
            base_positions[q0] = base_positions[q1] = p
        self.mirror, self.base_positions = tuple(mirror), tuple(base_positions)

    def reflect_vector(self, x):
        self.graph.check_vector(x)
        vals = tuple(map(x.vals.__getitem__, self.mirror))
        return EdgeVector._trusted(self.graph.space, vals)

    def _check_rotation(self, rot):
        if rot.space != self.graph.space:
            raise InputError("rotation does not live on the double's edges")

    def reflect_rotation(self, rot):
        """The mirror image of a rotation of the double, from step 1's mirror."""
        self._check_rotation(rot)
        mapped = [self.mirror[p] for p, _ in rot.shift]
        return _rotation_along(self.graph, mapped[1:] + mapped[:1])


def symmetrize(inst):
    """The bipartite double of ``inst``; both copies of ``v`` choose by ``C_v``.

    The copy ``e^0`` of an edge with ends ``a < b`` joins ``a^0`` to
    ``b^1``, and ``e^1`` joins ``b^0`` to ``a^1``.  Each copy lists its
    star in the base star's order, so both run the base choice function
    object itself, any memo included, with no translation.
    """
    vcopies = {v: (f"{v}^0", f"{v}^1") for v in inst.vertices}
    ecopies = [(f"{e}^0", f"{e}^1") for e in inst.space.ids]
    edges = {}
    caps = {}
    for (e0, e1), (a, _, b, _), cap in zip(ecopies, inst.edge_slots, inst.caps.vals):
        edges[e0] = (vcopies[a][0], vcopies[b][1])
        edges[e1] = (vcopies[b][0], vcopies[a][1])
        caps[e0] = caps[e1] = cap

    # The copy ``v^i`` holds ``e^i`` where ``v`` is ``e``'s first end, else
    # ``e^(1-i)``; the base's slot table says which end ``v`` is.
    choice, stars = {}, {}
    for v in inst.vertices:
        pairs = [
            ecopies[p] if inst.edge_slots[p][0] == v else ecopies[p][::-1]
            for p in inst.star_positions[v]
        ]
        v0, v1 = vcopies[v]
        choice[v0] = choice[v1] = inst.choice[v]
        stars[v0], stars[v1] = zip(*pairs) if pairs else ((), ())

    parts = tuple([vcopies[v][i] for v in inst.vertices] for i in (0, 1))
    graph = Instance(parts[0] + parts[1], edges, caps, choice, parts, stars)
    index = graph.space.index
    copy_positions = tuple((index[e0], index[e1]) for e0, e1 in ecopies)
    return SymmetricInstance(inst, graph, copy_positions)


def is_singular(si, rot):
    """True iff the rotation is its own mirror image.

    Then the mirror is the walk itself, shifted by some ``s`` of its ``L``
    steps: step ``i + s`` is the mirror of step ``i``.  Mirroring twice is
    the identity, so step ``i + 2s`` is step ``i``; the steps are distinct,
    so ``s = L/2``.  The test is thus the half turn alone, ``L/2`` lookups
    in ``si.mirror`` along ``rot.shift``: the edges fix the vertices, as
    step ``i`` stands at the one end shared by edges ``i - 1`` and ``i``.
    It needs no length check: the mirror swaps the sides, which alternate
    along the walk, so it can only pass where ``L/2`` is odd.
    """
    si._check_rotation(rot)
    shift, mirror = rot.shift, si.mirror
    turned = shift[len(shift) // 2 :]
    return all(mirror[p] == q for (p, _), (q, _) in zip(shift, turned))


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
    used up.  Each rotation is mirrored once, when it is first found.
    """
    rng = random.Random(seed)
    mirror = functools.cache(lambda rot: si.reflect_rotation(rot).steps)

    def mirror_fresh(rots, used):
        fresh = [r for r in rots if mirror(r) not in used]
        return [fresh[rng.randrange(len(fresh))]] if fresh else []

    bottom = deferred_acceptance(si.graph, "W")
    steps, end = _sweep(
        si.graph, mirror_fresh, bottom, half=lambda rot: is_singular(si, rot)
    )
    x = end.x
    # The sweep halved exactly the singular steps; the odd core is those
    # whose half rounded down.
    odd_core = tuple(sorted(s.rotation for s in steps if 2 * s.weight < s.tau))
    expected = list(x.vals)
    for rot in odd_core:
        for p, sign in rot.shift:
            expected[p] += sign
    if si.reflect_vector(x).vals != tuple(expected):
        raise VerificationError("balancing sweep failed its reflection identity")
    picks = tuple((s.rotation, s.weight, s.tau) for s in steps)
    return QBOutcome(x, picks, odd_core)

