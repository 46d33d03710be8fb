"""Exhaustive enumeration oracles.

These certify the constructive machinery at small scale.  The stable set
is built as a pruned product of the capacity box, never listed whole.
"""

import functools
import math

import numpy as np

from .core import BudgetError, EdgeVector, VerificationError, _budget
from .choice import box_array, box_dtype
from .bipartite import precedes_F

DEFAULT_ENUM_BUDGET = 2_000_000


def enumerate_stable(inst, budget=DEFAULT_ENUM_BUDGET):
    """All stable vectors of the instance, in lexicographic order.

    Works on any instance, bipartite or not.  Raises :class:`BudgetError`
    when the capacity box holds more than ``budget`` vectors, and
    :class:`InputError` when ``budget`` is not an integer.

    Rows grow one edge column at a time in index order, each repeated once
    per value of the new column, so they stay lexicographic.  A row goes as
    soon as a vertex rejects its complete star or an edge between two
    complete stars blocks, each read off the star's own box by the row's
    mixed-radix code.  Complete stars never change, so a dropped row has no
    stable completion and the rows left are exactly the stable vectors.
    """
    n, budget = inst.box_size(), _budget(budget)
    if n > budget:
        raise BudgetError("capacity box holds {} vectors, budget is {}".format(n, budget))
    caps, positions = inst.caps.vals, inst.star_positions
    last = {v: max(cols) for v, cols in positions.items() if cols}
    # Per column, the stars it completes and the edges whose two stars it
    # completes, each edge as its ends with its place in their stars.
    due = [([], []) for _ in caps]
    for v, col in last.items():
        due[col][0].append(v)
    for test in inst.edge_slots:
        due[max(last[test[0]], last[test[2]])][1].append(test)
    # One table per function object: a double's two copies share theirs.
    star_table = functools.cache(_star_table)
    stars = {}
    rows = np.zeros((1, 0), dtype=box_dtype(caps))
    for col, cap in enumerate(caps):
        grown = np.empty((len(rows), cap + 1, col + 1), dtype=rows.dtype)
        grown[:, :, :col] = rows[:, None, :]
        grown[:, :, col] = np.arange(cap + 1)
        rows = grown.reshape(-1, col + 1)
        vertices, edges = due[col]
        stars.update((v, star_table(inst.choice[v])) for v in vertices)
        ends = {*vertices, *(x for test in edges for x in test[::2])}
        codes = {v: rows[:, positions[v]] @ stars[v][2] for v in ends}
        keep = np.ones(len(rows), dtype=bool)
        for v in vertices:
            keep &= stars[v][0][codes[v]]
        for u, su, w, sw in edges:
            keep &= ~(stars[u][1][codes[u], su] & stars[w][1][codes[w], sw])
        rows = rows[keep]
    return [EdgeVector._trusted(inst.space, tuple(row)) for row in rows.tolist()]


def _star_table(cf):
    """Per pattern of ``cf``'s star box: is it accepted, and would it take
    one more unit of each edge; with the radices of the pattern codes (the
    box is listed in lexicographic order, so a pattern sits at its code)."""
    patterns = box_array(cf.caps)
    chosen = cf.batch_vals(patterns)
    radix = [math.prod(c + 1 for c in cf.caps[j + 1 :]) for j in range(len(cf.caps))]
    wants = np.zeros(patterns.shape, dtype=bool)
    for j, step in enumerate(radix):
        # One more unit of edge j; at j's cap the carry lands on a 0 at j.
        wants[:-step, j] = chosen[step:, j] > patterns[:-step, j]
    return (chosen == patterns).all(axis=1), wants, np.array(radix, dtype=np.int64)


def lattice_extremes(inst, stable=None, budget=DEFAULT_ENUM_BUDGET):
    """The unique firm-side minimum and maximum of the stable set.

    ``stable`` may pass a precomputed list from :func:`enumerate_stable`.
    An empty stable set, or extremes that fail to be unique, raise
    :class:`VerificationError`: both are impossible when the choice
    functions obey their axioms.
    """
    budget = _budget(budget)
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

