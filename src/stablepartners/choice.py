"""Choice functions on vertex stars, preference tests, and axiom checkers.

A choice function maps every integer vector in the box of its star (all
``z`` with ``0 <= z <= caps``) to a selected subvector ``C(z) <= z``.  The
solvers in this package assume two axioms:

* substitutability: lowering the menu never resurrects rejected units,
  formally ``z >= z'`` implies ``min(C(z), z') <= C(z')``;
* size monotonicity: larger menus never select fewer units in total.

Both are checked, never assumed silently: :func:`check_axiom` selects once
over the whole box, compares covering pairs (SUB, MON, CON) or looks joins
up in that selection (GL), and returns a report with a concrete witness
when an axiom fails.  Its work budget counts the work done: the covering
pairs compared (SUB, MON, CON) and the preference comparisons (GL).
"""

import math

import numpy as np

from .core import (
    BudgetError,
    EdgeVector,
    InputError,
    InternalError,
    _budget,
    _is_int,
    _is_str_list,
)

DEFAULT_AXIOM_BUDGET = 10**6
_GL_BLOCK = 2**16  # entries per block of a GL join table


def box_dtype(caps):
    """int16 when every capacity fits in it and int64 otherwise: no value wraps."""
    return np.int16 if max(caps, default=0) <= np.iinfo(np.int16).max else np.int64


def box_array(caps):
    """All integer vectors of the box ``0 <= z <= caps`` in lexicographic order.

    Returns an ``(n, k)`` array of dtype :func:`box_dtype` whose rows are
    sorted with the first coordinate most significant, stored column-major:
    each edge's column is contiguous, and the box kernels read columns.
    """
    caps = tuple(int(c) for c in caps)
    n = math.prod(c + 1 for c in caps)
    return np.indices([c + 1 for c in caps], dtype=box_dtype(caps)).reshape(len(caps), n).T


def _bumped(z, j, d=1):
    """The raw star ``z`` with ``d`` more units at position ``j``."""
    return z[:j] + (z[j] + d,) + z[j + 1 :]


class ChoiceFunction:
    """Base class: a map from box vectors to selected subvectors.

    Subclasses implement ``_apply(vals) -> tuple``.  Here results are
    memoized per distinct input and checked to satisfy ``0 <= C(z) <= z``
    once on first computation, and the one-edge questions (:meth:`accepts`
    to :meth:`gains`) are answered through them.  ``_apply``,
    ``batch_vals`` and the questions read positions of the star, never edge
    ids, so one function serves any star of its size: both copies of a
    vertex in a bipartite double run the vertex's own function object.
    """

    kind = "abstract"

    def __init__(self, vertex, space, caps):
        self.vertex = vertex
        self.space = space
        caps = tuple(caps)
        if not all(map(_is_int, caps)):
            raise InputError("capacities must be integers")
        self.caps = tuple(map(int, caps))
        if len(self.caps) != len(space):
            raise InputError("capacity list does not match the star")
        if any(c < 0 for c in self.caps):
            raise InputError("capacities must be nonnegative")
        if type(self).choose_vals is ChoiceFunction.choose_vals:  # it memoizes
            self._memo = {}

    def box_size(self):
        return math.prod(c + 1 for c in self.caps)

    def in_box(self, vals):
        return all(0 <= v <= c for v, c in zip(vals, self.caps))

    def choose_vals(self, vals):
        """Selection on a raw value tuple.  Trusted input, memoized here."""
        out = self._memo.get(vals)
        if out is None:
            out = tuple(self._apply(vals))
            if len(out) != len(vals) or any(
                not 0 <= o <= v for o, v in zip(out, vals)
            ):
                raise InternalError(
                    "choice at {!r} left the menu: C{!r} = {!r}".format(
                        self.vertex, vals, out
                    )
                )
            self._memo[vals] = out
        return out

    def accepts(self, z):
        """True iff the vertex keeps the raw star ``z`` whole."""
        return self.choose_vals(z) == z

    def wants(self, z, j):
        """At the acceptable ``z``, with room at ``j``: it takes one more ``j``."""
        return self.choose_vals(_bumped(z, j))[j] > z[j]

    def refuses(self, z, j):
        """At the acceptable ``z``, with room at ``j``: it keeps ``z`` as it is."""
        return self.choose_vals(_bumped(z, j)) == z

    def bumps(self, z, j):
        """At the acceptable ``z``, with room at ``j``: the one other position
        that gives up one unit for it, or None."""
        menu = _bumped(z, j)
        drop = [m - c for m, c in zip(menu, self.choose_vals(menu))]
        k = drop.index(1) if sum(drop) == 1 else j
        return None if k == j else k

    def gains(self, base, candidates):
        """The one candidate kept when ``base`` is offered a unit of each, or None.

        ``base`` is an acceptable star ``z`` less a unit at ``i``; the
        candidates are other positions with room that ``z`` refuses.
        """
        menu = list(base)
        for j in candidates:
            menu[j] += 1
        kept = self.choose_vals(tuple(menu))
        gained = [j for j in candidates if kept[j] > base[j]]
        return gained[0] if len(gained) == 1 else None

    def choose(self, z):
        """Selection on an :class:`EdgeVector` over this star."""
        if not isinstance(z, EdgeVector) or z.space != self.space:
            raise InputError("vector does not live on this star")
        if not self.in_box(z.vals):
            raise InputError("vector is outside the box of {!r}".format(self.vertex))
        return EdgeVector(self.space, self.choose_vals(z.vals))

    def batch_vals(self, arr):
        """Row-wise selection on an ``(n, k)`` array.  Generic fallback."""
        arr = np.asarray(arr)
        out = np.empty_like(arr)
        for i, row in enumerate(arr.tolist()):
            out[i] = self.choose_vals(tuple(row))
        return out

    def _apply(self, vals):
        raise NotImplementedError

    def to_dict(self, ids=None):
        """The document form, naming the star's edges by ``ids``, by default
        the ids of its space."""
        raise NotImplementedError


class LinearOrderQuotaCF(ChoiceFunction):
    """Greedy selection along a strict preference order, capped by a quota.

    If the menu fits within the quota it is taken whole.  Otherwise units
    are taken greedily in preference order; the first edge that would
    overflow receives the remaining headroom and everything after it is
    rejected.  The pass cannot leave its menu: it runs unchecked, keeps
    no memo and answers the one-edge questions from the star's sum and
    worst-ranked held edge.  A subclass with its own ``_apply`` answers
    through it, as the base class does.
    """

    kind = "linear_order_quota"

    def __init__(self, vertex, space, caps, quota, order):
        super().__init__(vertex, space, caps)
        if not _is_int(quota):
            raise InputError("quota at {!r} must be an integer".format(vertex))
        self.quota = int(quota)
        if self.quota < 0:
            raise InputError("quota must be nonnegative")
        order = tuple(order)
        if sorted(order) != sorted(space.ids):
            raise InputError(
                "order at {!r} must list the star exactly once".format(vertex)
            )
        self._perm = tuple(space.index[e] for e in order)
        self._rank = tuple(sorted(range(len(order)), key=self._perm.__getitem__))

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_apply" in vars(cls):
            for name in ("choose_vals", "accepts", "wants", "refuses", "bumps", "gains"):
                setattr(cls, name, vars(cls).get(name, getattr(ChoiceFunction, name)))

    @property
    def order(self):
        """The star's edge ids, most preferred first."""
        return tuple(self.space.ids[p] for p in self._perm)

    def _apply(self, vals):
        if sum(vals) <= self.quota:
            return vals
        out = [0] * len(vals)
        run = 0
        for pos in self._perm:
            v = vals[pos]
            if run + v <= self.quota:
                out[pos] = v
                run += v
            else:
                out[pos] = self.quota - run
                break
        return tuple(out)

    choose_vals = _apply

    def accepts(self, z):
        return sum(z) <= self.quota

    def wants(self, z, j):
        return sum(z) < self.quota or self._held_after(z, j) is not None

    def refuses(self, z, j):
        return sum(z) >= self.quota and self._held_after(z, j) is None

    def bumps(self, z, j):
        return None if sum(z) < self.quota else self._held_after(z, j)

    def gains(self, base, candidates):
        # A star that refuses holds its quota, none of it ranked after a
        # refused position: the unit ``base`` frees goes to the best one.
        return min(candidates, key=self._rank.__getitem__, default=None)

    def _held_after(self, z, j):
        """The worst-ranked position holding a unit of ``z``, if it ranks after ``j``."""
        for p in reversed(self._perm):
            if p == j:
                return None
            if z[p]:
                return p

    def batch_vals(self, arr):
        """Greedy, by column: edge ``i`` keeps ``min(P_i, q) - min(P_{i-1}, q)``
        of the prefix sums ``P`` in preference order, where ``q`` is the quota
        clipped at the sum of the capacities, which the prefix dtype holds."""
        arr = np.asarray(arr)
        total = sum(self.caps)
        quota = min(self.quota, total)
        run = np.zeros(len(arr), np.result_type(arr.dtype, np.min_scalar_type(total)))
        out, kept = np.empty_like(arr), 0
        for p in self._perm:
            run += arr[:, p]
            clipped = np.minimum(run, quota)
            out[:, p] = clipped - kept
            kept = clipped
        return out

    def to_dict(self, ids=None):
        ids = self.space.ids if ids is None else ids
        return {
            "type": self.kind,
            "quota": self.quota,
            "order": [ids[p] for p in self._perm],
        }


class TableCF(ChoiceFunction):
    """A choice function given extensionally as a full table over the box.

    Useful for adversarial fixtures: the table is only required to stay
    within the menu, so it can deliberately break substitutability.
    """

    kind = "table"

    def __init__(self, vertex, space, caps, entries):
        super().__init__(vertex, space, caps)
        table = {}
        for z_vals, c_vals in entries:
            if not all(map(_is_int, (*z_vals, *c_vals))):
                raise InputError("table entries at {!r} must be integers".format(vertex))
            z_vals, c_vals = tuple(map(int, z_vals)), tuple(map(int, c_vals))
            if not self.in_box(z_vals):
                raise InputError("table key outside the box at {!r}".format(vertex))
            if z_vals in table:
                raise InputError("duplicate table key at {!r}".format(vertex))
            if len(c_vals) != len(z_vals) or any(
                not 0 <= c <= z for c, z in zip(c_vals, z_vals)
            ):
                raise InputError("table value leaves the menu at {!r}".format(vertex))
            table[z_vals] = c_vals
        if len(table) != self.box_size():
            raise InputError(
                "table at {!r} must cover the whole box ({} of {} entries)".format(
                    vertex, len(table), self.box_size()
                )
            )
        self._table = table

    def _apply(self, vals):
        return self._table[vals]

    def to_dict(self, ids=None):
        ids = self.space.ids if ids is None else ids
        entries = [
            {
                "z": {e: v for e, v in zip(ids, z)},
                "c": {e: v for e, v in zip(ids, c)},
            }
            for z, c in sorted(self._table.items())
        ]
        return {"type": self.kind, "entries": entries}


def choice_from_dict(vertex, space, caps, spec):
    """Build a choice function for one vertex from its document form."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise InputError("choice spec at {!r} needs a type".format(vertex))
    kind = spec["type"]
    if kind == "linear_order_quota":
        if set(spec) != {"type", "quota", "order"}:
            raise InputError(
                "linear_order_quota at {!r} needs quota and order".format(vertex)
            )
        if not _is_int(spec["quota"]):
            raise InputError("quota at {!r} must be an integer".format(vertex))
        if not _is_str_list(spec["order"]):
            raise InputError("order at {!r} must be a list of edge ids".format(vertex))
        return LinearOrderQuotaCF(vertex, space, caps, spec["quota"], spec["order"])
    if kind == "table":
        if set(spec) != {"type", "entries"}:
            raise InputError("table at {!r} needs entries".format(vertex))
        if not isinstance(spec["entries"], list):
            raise InputError("table entries at {!r} must be a list".format(vertex))
        entries = []
        for entry in spec["entries"]:
            if not isinstance(entry, dict) or set(entry) != {"z", "c"}:
                raise InputError("table entries at {!r} need z and c".format(vertex))
            z = EdgeVector.from_mapping(space, entry["z"])
            c = EdgeVector.from_mapping(space, entry["c"])
            entries.append((z.vals, c.vals))
        return TableCF(vertex, space, caps, entries)
    raise InputError("unknown choice type {!r} at {!r}".format(kind, vertex))


# -- preference predicates --------------------------------------------------


def is_acceptable(cf, z):
    """True iff the vertex keeps ``z`` unchanged."""
    return cf.choose(z) == z


def prefers(cf, z, other):
    """Strict preference: the vertex picks ``z`` out of the combined menu.

    Both vectors must be acceptable.  Equal vectors are never strictly
    preferred.
    """
    if not (is_acceptable(cf, z) and is_acceptable(cf, other)):
        raise InputError("preference is only defined between acceptable vectors")
    return z != other and _weakly_prefers(cf, z.vals, other.vals)


def _weakly_prefers(cf, z, other):
    """Raw weak preference between two acceptable stars: equal, or ``z`` wins."""
    return z == other or cf.choose_vals(tuple(map(max, z, other))) == z


# -- axiom checking ----------------------------------------------------------


class AxiomReport:
    """Outcome of one axiom check: verdict, work done, and a witness if any.

    The witness is a dict of named :class:`EdgeVector` and edge-id fields
    sufficient to re-evaluate the violated condition from scratch; see
    :meth:`reevaluate`.
    """

    def __init__(self, axiom, holds, witness, pairs_checked):
        self.axiom = axiom
        self.holds = holds
        self.witness = witness
        self.pairs_checked = pairs_checked

    def __repr__(self):
        state = "holds" if self.holds else "fails"
        return "AxiomReport({} {}, {} pairs)".format(
            self.axiom, state, self.pairs_checked
        )

    def reevaluate(self, cf):
        """Re-run the violated condition on the stored witness.

        Returns True iff the witness still exhibits a violation.  Reports
        with ``holds=True`` have nothing to re-evaluate and return False.
        """
        if self.holds or self.witness is None:
            return False
        w = self.witness
        z, zp = w.get("z"), w.get("zp")
        if self.axiom == "SUB":
            return not cf.choose(z).meet(zp).le(cf.choose(zp))
        if self.axiom == "MON":
            return cf.choose(z).total() < cf.choose(zp).total()
        if self.axiom == "CON":
            if not (zp.le(z) and cf.choose(z).le(zp)):
                return False
            return cf.choose(zp) != cf.choose(z)
        if self.axiom == "GL":
            a = w["edge"]
            zs = (w["z1"], w["z2"], w["z3"])
            cs = w["rejected"]
            for z, c in zip(zs, cs):
                got = z.add_unit(a).minus(cf.choose(z.add_unit(a)))
                if got != EdgeVector.zero(z.space).add_unit(c):
                    return False
            if not (prefers(cf, zs[1], zs[0]) and prefers(cf, zs[2], zs[1])):
                return False
            return cs[0] == cs[2] and cs[1] != cs[0]
        raise InternalError("unknown axiom {!r}".format(self.axiom))

    def to_dict(self):
        doc = {
            "axiom": self.axiom,
            "holds": self.holds,
            "pairs_checked": self.pairs_checked,
        }
        if self.witness is not None:
            enc = {}
            for key, val in self.witness.items():
                if isinstance(val, EdgeVector):
                    enc[key] = val.to_mapping()
                elif isinstance(val, tuple):
                    enc[key] = list(val)
                else:
                    enc[key] = val
            doc["witness"] = enc
        return doc


def check_axiom(cf, axiom, budget=DEFAULT_AXIOM_BUDGET):
    """Exhaustively check one axiom of ``cf`` within a work budget.

    ``axiom`` is one of SUB, MON, CON, GL (case-insensitive).  The budget
    counts the covering pairs a SUB, MON or CON check compares, one per
    box vector and coordinate, and the preference comparisons GL reads,
    which its tables never outnumber; exceeding it raises
    :class:`BudgetError` rather than returning a partial verdict; one that
    is not an integer, ``bool`` excluded, raises :class:`InputError`.
    """
    axiom, budget = str(axiom).upper(), _budget(budget)
    if axiom in ("SUB", "MON", "CON"):
        return _check_pairwise(cf, axiom, budget)
    if axiom == "GL":
        return _check_gl(cf, budget)
    raise InputError("unknown axiom {!r}".format(axiom))


def _violations(axiom, cz, sz, below, c_below, s_below):
    """Where pairs ``below <= z`` violate ``axiom``, given ``C(z)`` and its size.

    Each argument has one row per coordinate (one for sizes) on its leading
    axis; they broadcast against each other over the trailing axes.
    """
    if axiom == "SUB":
        return (np.minimum(cz, below) > c_below).any(axis=0)
    if axiom == "MON":
        return (s_below > sz)[0]
    return (below >= cz).all(axis=0) & (c_below != cz).any(axis=0)


def _check_pairwise(cf, axiom, budget):
    """SUB, MON or CON over all comparable pairs, by their covering pairs.

    A violation at ``z' <= z`` shows on a covering pair ``(y, y - e_j)``
    with ``y <= z``.  Walk a chain from ``z`` down to ``z'`` one unit at a
    time:

    * SUB: if every step held, ``min(C(z), y) <= C(y)`` would pass down the
      chain, since ``min(C(z), y'') <= min(C(y), y'') <= C(y'')``;
    * MON: the sizes must rise at some step;
    * CON: every ``y`` on the chain is ``>= z' >= C(z)``, so ``C`` stays
      ``C(z)`` until the first step where it changes, and that step fails.

    So the lexicographically first ``z`` with a failing covering pair is
    the first ``z`` that fails against its whole sub-box, as a scan row by
    row would find it.  Only that sub-box is scanned, for the first
    failing ``z'``.  The reported pair count is what such a scan compares
    up to ``z``: the sum of ``prod(y_j + 1)`` over the rows ``y`` up to
    ``z``, or every comparable pair when the axiom holds.
    """
    work = len(cf.caps) * cf.box_size()
    if work > budget:
        raise BudgetError("axiom check compares {} pairs, budget is {}".format(work, budget))
    box = box_array(cf.caps)
    chosen = cf.batch_vals(box)
    sizes = chosen.sum(axis=1, keepdims=True, dtype=np.int64)
    shape = tuple(c + 1 for c in cf.caps)
    grids = [g.T.reshape((-1,) + shape) for g in (box, chosen, sizes)]
    bad = np.zeros(shape, dtype=bool)
    for axis in range(len(shape)):
        # The pairs (y, y - e_axis) as two shifted views of each grid.
        hi = (slice(None),) * axis + (slice(1, None),)
        lo = (slice(None),) * (axis + 1) + (slice(None, -1),)
        ups = [g[(slice(None),) + hi] for g in grids[1:]]
        bad[hi] |= _violations(axiom, *ups, *[g[lo] for g in grids])
    hits = np.flatnonzero(bad)
    if len(hits) == 0:
        pairs = math.prod((c + 1) * (c + 2) // 2 for c in cf.caps)
        return AxiomReport(axiom, True, None, pairs)
    i = hits[0]
    below = (slice(None),) + tuple(slice(0, zj + 1) for zj in box[i].tolist())
    cz = chosen[i].reshape((-1,) + (1,) * len(shape))
    sub_bad = _violations(axiom, cz, sizes[i], *[g[below] for g in grids])
    first = np.unravel_index(np.flatnonzero(sub_bad)[0], sub_bad.shape)
    j = np.ravel_multi_index(first, shape)
    checked = int((box[: i + 1].astype(np.int64) + 1).prod(axis=1).sum())
    witness = {"z": EdgeVector(cf.space, box[i]), "zp": EdgeVector(cf.space, box[j])}
    return AxiomReport(axiom, False, witness, checked)


def _gl_plan(cf, budget):
    """Each edge's rows for GL, in batches of consecutive edges.

    Edge ``a`` compares the ``m`` acceptable rows with room at ``a`` whose
    bump rejects one unit, from two or more edges, for ``m * m`` of the
    charge in edge order, up to the edge past ``budget``.  A batch is its row
    mask over the box and its edges ``(id, codes, bumped positions, charge)``.
    """
    box = box_array(cf.caps)
    chosen = cf.batch_vals(box)
    weights = [math.prod(c + 1 for c in cf.caps[j + 1 :]) for j in range(len(cf.caps))]
    radix = np.array(weights, dtype=np.int64)
    # No weight, code or partial sum of one passes the size of the box.
    dtype = np.min_scalar_type(len(box))
    chosen_code = sum(col.astype(dtype) * w for col, w in zip(chosen.T, weights))
    acceptable = np.flatnonzero(chosen_code == np.arange(len(box)))
    batches, charged, base, seen = [], 0, 0, np.zeros(len(box), dtype=bool)
    for a_pos, a_id in enumerate(cf.space.ids):
        room = acceptable[box[acceptable, a_pos] < cf.caps[a_pos]]
        # A bump's deficit is one unit of edge c iff its code is radix[c], the
        # first of equal weights (edges of capacity 0 follow it).
        drop = room + radix[a_pos] - chosen_code[room + radix[a_pos]]
        at = np.searchsorted(-radix, -drop) % len(radix)  # no deficit wraps to 0
        single = radix[at] == drop
        codes, cpos = room[single], at[single]
        m = len(codes)
        if m < 2 or cpos.min() == cpos.max():
            continue
        charged += m * m
        if charged > budget:
            break
        # A batch grows while its union of rows, squared, is at most its charge.
        grown = np.count_nonzero(seen) + np.count_nonzero(~seen[codes])
        if not batches or grown**2 > charged - base:
            seen, base = np.zeros(len(box), dtype=bool), charged - m * m
            batches.append((seen, []))
        seen[codes] = True
        batches[-1][1].append((a_id, codes, cpos, charged))
    return box, chosen_code, radix, batches, charged


def _check_gl(cf, budget):
    """Check that repeated single-unit rejections are consistent.

    Along any strictly increasing chain of acceptable vectors, if adding a
    unit of edge ``a`` bumps exactly one unit at the chain's two ends and
    the bumped edge is the same, the middle must bump that edge too.

    Every selection is read from one pass over the box by mixed-radix code,
    the row's index in :func:`box_array`.  Which of two rows precedes the
    other does not depend on ``a``, so each batch of :func:`_gl_plan` builds
    one table over its union of rows, with no more entries than its edges
    are charged.  The join is symmetric: the table is built on and above the
    diagonal, in blocks of about ``_GL_BLOCK`` entries, which bound the int64
    index of ``take``.  Each edge ORs its rows of the packed table and of
    its transpose per bumped edge.  The witness is the first chain in the
    order (bumped edge, middle row, lower end, upper end).
    """
    box, chosen_code, radix, batches, charged = _gl_plan(cf, budget)
    for seen, edges in batches:
        union = np.flatnonzero(seen).astype(chosen_code.dtype)
        u = len(union)
        cols = (box.T.take(union, axis=1) * radix[:, None]).astype(union.dtype)
        # cj[i, l]: the code chosen at the join of rows i and l, in blocks.
        cj = np.empty((u, u), dtype=union.dtype)
        step = max(1, _GL_BLOCK // u)
        for s in range(0, u, step):
            joins = sum(np.maximum(col[s : s + step, None], col[None, s:]) for col in cols)
            cj[s : s + step, s:] = chosen_code.take(joins)
            cj[s:, s : s + step] = cj[s : s + step, s:].T
        # prec[i, l]: row l is chosen out of rows i and l; prec[i, u + l]: row i.
        prec = np.hstack([cj == union, cj == union[:, None]])
        packed = np.packbits(prec, axis=1)
        for a_id, codes, cpos, checked in edges:
            idx, order = np.searchsorted(union, codes), np.argsort(cpos, kind="stable")
            groups, starts = np.unique(cpos[order], return_index=True)
            # reach[g, j]: a row of group g precedes j; reach[g, u + j]: j precedes one.
            reach = np.bitwise_or.reduceat(packed[idx[order]], starts)
            reach = np.unpackbits(reach, axis=1, count=2 * u)
            hits = np.flatnonzero(reach[:, idx] & reach[:, u + idx] & (cpos != groups[:, None]))
            if len(hits) == 0:
                continue
            g, j = divmod(int(hits[0]), len(codes))
            ingrp = np.flatnonzero(cpos == groups[g])
            i, l = (ingrp[prec[idx[j], off + idx[ingrp]].argmax()] for off in (u, 0))
            z1, z2, z3 = (EdgeVector(cf.space, box[codes[t]]) for t in (i, j, l))
            rejected = tuple(cf.space.ids[cpos[t]] for t in (i, j, l))
            witness = {"edge": a_id, "z1": z1, "z2": z2, "z3": z3, "rejected": rejected}
            return AxiomReport("GL", False, witness, checked)
    if charged > budget:
        raise BudgetError(
            "axiom check passed {} comparisons, budget is {}".format(charged, budget)
        )
    return AxiomReport("GL", True, None, charged)
