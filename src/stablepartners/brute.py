"""Exhaustive enumeration oracles.

These certify the constructive machinery at small scale by scanning the
whole capacity box.  The scan is vectorized per vertex: acceptability and
single-unit interest are evaluated once per star pattern, on the star's own
box, and read back for every row of the full box through the row's
mixed-radix code on the star's columns.
"""

import numpy as np

from .core import BudgetError, EdgeVector, VerificationError
from .choice import box_array
from .bipartite import precedes_F

DEFAULT_ENUM_BUDGET = 2_000_000


def enumerate_stable(inst, budget=DEFAULT_ENUM_BUDGET):
    """All stable vectors of the instance, in lexicographic order.

    Works on any instance, bipartite or not.  Raises :class:`BudgetError`
    when the capacity box holds more than ``budget`` vectors.
    """
    n = inst.box_size()
    if n > budget:
        raise BudgetError(
            "capacity box holds {} vectors, budget is {}".format(n, budget)
        )
    box = box_array(inst.caps.vals)
    ok = np.ones(n, dtype=bool)

    star_cache = {}
    for v in inst.vertices:
        cols = list(inst.star_positions[v])
        if not cols:
            continue
        # box_array lists the star's box in lexicographic order, so a row's
        # pattern sits at its mixed-radix code with the star caps as radices.
        caps = [inst.caps.vals[c] for c in cols]
        patterns = box_array(caps)
        inv = np.ravel_multi_index(box[:, cols].T, [c + 1 for c in caps])
        chosen = inst.choice[v].batch_vals(patterns)
        ok &= (chosen == patterns).all(axis=1)[inv]
        star_cache[v] = (patterns, chosen, inv)

    unblocked = ok.copy()
    interest = {}

    def interest_mask(v, e):
        """Rows of the box where ``v`` would take one more unit of ``e``."""
        if (v, e) in interest:
            return interest[(v, e)]
        patterns, chosen, inv = star_cache[v]
        se = inst.star_ids[v].index(e)
        # A unit of e moves a pattern on by the later radices (the last is caps).
        step = int(np.prod(patterns[-1, se + 1 :].astype(np.int64) + 1))
        room = np.flatnonzero(patterns[:, se] < inst.caps[e])
        mask_u = np.zeros(len(patterns), dtype=bool)
        mask_u[room] = chosen[room + step, se] > patterns[room, se]
        out = mask_u[inv]
        interest[(v, e)] = out
        return out

    for e in inst.space.ids:
        u, v = inst.ends(e)
        blocked = interest_mask(u, e) & interest_mask(v, e)
        unblocked &= ~blocked

    return [EdgeVector(inst.space, row) for row in box[ok & unblocked].tolist()]


def lattice_extremes(inst, stable=None, budget=DEFAULT_ENUM_BUDGET):
    """The unique firm-side minimum and maximum of the stable set.

    ``stable`` may pass a precomputed list from :func:`enumerate_stable`.
    An empty stable set, or extremes that fail to be unique, raise
    :class:`VerificationError`: both are impossible when the choice
    functions obey their axioms.
    """
    if stable is None:
        stable = enumerate_stable(inst, budget)
    if not stable:
        raise VerificationError("stable set is empty; choice axioms are suspect")
    lo = [x for x in stable if all(y == x or precedes_F(inst, x, y) for y in stable)]
    hi = [x for x in stable if all(y == x or precedes_F(inst, y, x) for y in stable)]
    if len(lo) != 1 or len(hi) != 1:
        raise VerificationError(
            "stable set lacks unique extremes; choice axioms are suspect"
        )
    return lo[0], hi[0]

