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
when an axiom fails.  Its work budget still counts the comparable pairs a
verdict covers (SUB, MON, CON) and the preference comparisons (GL).
"""

import copy
import math

import numpy as np

from .core import (
    BudgetError,
    EdgeVector,
    InputError,
    InternalError,
    _is_int,
    _is_str_list,
)

DEFAULT_AXIOM_BUDGET = 10**6


def box_array(caps):
    """All integer vectors of the box ``0 <= z <= caps`` in lexicographic order.

    Returns an ``(n, k)`` array whose rows are sorted with the first
    coordinate most significant.  The dtype is int16 when every capacity
    fits in it and int64 otherwise, so no value ever wraps.
    """
    caps = tuple(int(c) for c in caps)
    n = math.prod(c + 1 for c in caps)
    small = all(c <= np.iinfo(np.int16).max for c in caps)
    dtype = np.int16 if small else np.int64
    out = np.empty((n, len(caps)), dtype=dtype)
    rep = n
    for j, c in enumerate(caps):
        rep //= c + 1
        cycle = np.repeat(np.arange(c + 1, dtype=dtype), rep)
        out[:, j] = np.tile(cycle, n // (rep * (c + 1)))
    return out


class ChoiceFunction:
    """Base class: a memoized map from box vectors to selected subvectors.

    Subclasses implement ``_apply(vals) -> tuple``.  Results are cached per
    distinct input and checked to satisfy ``0 <= C(z) <= z`` once on first
    computation.  ``_apply`` and ``batch_vals`` read positions of the star,
    never edge ids; that is what lets :meth:`on_star` run one function, and
    one memo, on stars with other edge ids.
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
        self._memo = {}

    def box_size(self):
        return math.prod(c + 1 for c in self.caps)

    def in_box(self, vals):
        return all(0 <= v <= c for v, c in zip(vals, self.caps))

    def choose_vals(self, vals):
        """Selection on a raw value tuple.  Trusted input, memoized."""
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

    def on_star(self, vertex, space):
        """This function at ``vertex`` on ``space``, a star of the same size.

        A shallow copy: it shares the memo and all positional state.
        """
        if len(space) != len(self.space):
            raise InputError("star of {!r} has the wrong size".format(vertex))
        twin = copy.copy(self)
        twin.vertex = vertex
        twin.space = space
        return twin

    def _apply(self, vals):
        raise NotImplementedError

    def to_dict(self):
        raise NotImplementedError


class LinearOrderQuotaCF(ChoiceFunction):
    """Greedy selection along a strict preference order, capped by a quota.

    If the menu fits within the quota it is taken whole.  Otherwise units
    are taken greedily in preference order; the first edge that would
    overflow receives the remaining headroom and everything after it is
    rejected.
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
        return out

    def batch_vals(self, arr):
        arr = np.asarray(arr)
        n, k = arr.shape
        if n == 0 or k == 0:
            return arr.copy()
        perm = np.asarray(self._perm)
        zp = arr[:, perm]
        prefix = np.cumsum(zp, axis=1, dtype=np.int64)
        q = self.quota
        out = np.where(prefix <= q, zp, 0).astype(arr.dtype)
        over = np.nonzero(prefix[:, -1] > q)[0]
        if len(over):
            jstar = (prefix[over] <= q).sum(axis=1)
            run = np.where(jstar > 0, prefix[over, np.maximum(jstar - 1, 0)], 0)
            out[over, jstar] = q - run
        res = np.empty_like(out)
        res[:, perm] = out
        return res

    def to_dict(self):
        return {
            "type": self.kind,
            "quota": self.quota,
            "order": list(self.order),
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

    def to_dict(self):
        ids = self.space.ids
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


def _comparable_pairs(caps):
    return math.prod((c + 1) * (c + 2) // 2 for c in caps)


def check_axiom(cf, axiom, budget=DEFAULT_AXIOM_BUDGET):
    """Exhaustively check one axiom of ``cf`` within a pair budget.

    ``axiom`` is one of SUB, MON, CON, GL (case-insensitive).  The budget
    counts the comparable ordered pairs a SUB, MON or CON verdict covers,
    though only covering pairs are compared, and preference comparisons
    for GL; exceeding it raises :class:`BudgetError` rather than returning
    a partial verdict.
    """
    axiom = str(axiom).upper()
    if axiom in ("SUB", "MON", "CON"):
        return _check_pairwise(cf, axiom, budget)
    if axiom == "GL":
        return _check_gl(cf, budget)
    raise InputError("unknown axiom {!r}".format(axiom))


def _violations(axiom, cz, sz, below, c_below, s_below):
    """Where pairs ``below <= z`` violate ``axiom``, given ``C(z)`` and its size.

    Each argument is one row (a scalar for sizes) or an array of them; they
    broadcast against each other over the leading axes.
    """
    if axiom == "SUB":
        return (np.minimum(cz, below) > c_below).any(axis=-1)
    if axiom == "MON":
        return s_below > sz
    return (below >= cz).all(axis=-1) & (c_below != cz).any(axis=-1)


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
    failing ``z'``.  The pair count is what such a scan compares up to
    ``z``: the sum of ``prod(y_j + 1)`` over the rows ``y`` up to ``z``,
    or every comparable pair when the axiom holds.
    """
    est = _comparable_pairs(cf.caps)
    if est > budget:
        raise BudgetError(
            "axiom check needs {} pairs, budget is {}".format(est, budget)
        )
    box = box_array(cf.caps)
    chosen = cf.batch_vals(box)
    sizes = chosen.sum(axis=1, dtype=np.int64)
    shape = tuple(c + 1 for c in cf.caps)
    grids = [g.reshape(shape + g.shape[1:]) for g in (box, chosen, sizes)]
    bad = np.zeros(shape, dtype=bool)
    for axis in range(len(shape)):
        # The pairs (y, y - e_axis) as two shifted views of each grid.
        hi = (slice(None),) * axis + (slice(1, None),)
        lo = (slice(None),) * axis + (slice(None, -1),)
        ups = [g[hi] for g in grids[1:]]
        bad[hi] |= _violations(axiom, *ups, *[g[lo] for g in grids])
    hits = np.flatnonzero(bad)
    if len(hits) == 0:
        return AxiomReport(axiom, True, None, est)
    i = hits[0]
    below = tuple(slice(0, zj + 1) for zj in box[i].tolist())
    sub = [g[below] for g in grids]
    sub_bad = _violations(axiom, chosen[i], sizes[i], *sub)
    first = np.unravel_index(np.flatnonzero(sub_bad)[0], sub_bad.shape)
    j = np.ravel_multi_index(first, shape)
    checked = int((box[: i + 1].astype(np.int64) + 1).prod(axis=1).sum())
    witness = {"z": EdgeVector(cf.space, box[i]), "zp": EdgeVector(cf.space, box[j])}
    return AxiomReport(axiom, False, witness, checked)


def _check_gl(cf, budget):
    """Check that repeated single-unit rejections are consistent.

    Along any strictly increasing chain of acceptable vectors, if adding a
    unit of edge ``a`` bumps exactly one unit at the chain's two ends and
    the bumped edge is the same, the middle must bump that edge too.

    Every bumped vector and every join of two vectors lies in the box, so
    each selection is read from one pass over the box by its mixed-radix
    code, the row's index in :func:`box_array`.
    """
    box = box_array(cf.caps)
    chosen = cf.batch_vals(box)
    weights = [math.prod(c + 1 for c in cf.caps[j + 1 :]) for j in range(len(cf.caps))]
    radix = np.array(weights, dtype=np.int64)
    chosen_code = chosen.astype(np.int64) @ radix
    acceptable = np.flatnonzero(chosen_code == np.arange(len(box)))
    space = cf.space
    checked = 0
    for a_pos, a_id in enumerate(space.ids):
        room = acceptable[box[acceptable, a_pos] < cf.caps[a_pos]]
        if len(room) == 0:
            continue
        bumped = room + radix[a_pos]
        deficit = box[bumped] - chosen[bumped]
        single = deficit.sum(axis=1, dtype=np.int64) == 1
        codes = room[single]
        rows = box[codes]
        cpos = deficit[single].argmax(axis=1)
        m = len(rows)
        if m < 2 or len(set(cpos.tolist())) < 2:
            continue
        checked += m * m
        if checked > budget:
            raise BudgetError(
                "axiom check passed {} comparisons, budget is {}".format(
                    checked, budget
                )
            )
        joins = np.zeros((m, m), dtype=np.int64)
        for j, r in enumerate(radix.tolist()):
            col = rows[:, j].astype(np.int64) * r
            joins += np.maximum(col[:, None], col[None, :])
        # prec[i, l]: rows[l] is chosen out of the two, and differs from rows[i].
        prec = chosen_code[joins] == codes[None, :]
        prec &= codes[:, None] != codes[None, :]
        for cval in sorted(set(cpos.tolist())):
            ingrp = np.nonzero(cpos == cval)[0]
            outgrp = np.nonzero(cpos != cval)[0]
            first_hop = prec[np.ix_(ingrp, outgrp)]
            second_hop = prec[np.ix_(outgrp, ingrp)]
            mid_ok = first_hop.any(axis=0) & second_hop.any(axis=1)
            hits = np.nonzero(mid_ok)[0]
            if len(hits) == 0:
                continue
            j = outgrp[hits[0]]
            i = ingrp[np.nonzero(first_hop[:, hits[0]])[0][0]]
            l = ingrp[np.nonzero(second_hop[hits[0]])[0][0]]
            witness = {"edge": a_id}
            for key, t in zip(("z1", "z2", "z3"), (i, j, l)):
                witness[key] = EdgeVector(space, rows[t])
            witness["rejected"] = tuple(space.ids[cpos[t]] for t in (i, j, l))
            return AxiomReport("GL", False, witness, checked)
    return AxiomReport("GL", True, None, checked)
