"""Graphs with integer edge capacities, edge vectors, and instance documents.

The structures here are deliberately small and immutable.  An
:class:`EdgeSpace` fixes an ordered universe of edge ids, an
:class:`EdgeVector` assigns an integer to every id of one space, and an
:class:`Instance` bundles a multigraph-free graph, per-edge capacities and
one choice function per vertex.  Everything downstream (stability checks,
rotations, the symmetrization machinery) works in terms of these types.
"""

import json
import math
import numbers
import operator


class InputError(ValueError):
    """Malformed documents, ill-typed arguments, or violated preconditions."""


class VerificationError(RuntimeError):
    """A certified property failed to verify.

    Raised when data that is supposed to satisfy a checked guarantee (a
    stable vector, a choice function obeying its axioms, a reconstruction
    identity) turns out not to.  Callers treat this as "the inputs lied",
    not as a bug in the caller.
    """


class BudgetError(RuntimeError):
    """An enumeration or check would exceed its configured work budget."""


class InternalError(RuntimeError):
    """An internal consistency assertion failed; indicates a genuine bug."""


class EdgeSpace:
    """An ordered tuple of distinct edge ids; the domain of edge vectors."""

    __slots__ = ("ids", "index")

    def __init__(self, ids):
        self.ids = tuple(ids)
        if len(set(self.ids)) != len(self.ids):
            raise InputError("edge ids must be distinct")
        self.index = {e: i for i, e in enumerate(self.ids)}

    def __len__(self):
        return len(self.ids)

    def __contains__(self, e):
        return e in self.index

    def __eq__(self, other):
        return self is other or isinstance(other, EdgeSpace) and self.ids == other.ids

    def __hash__(self):
        return hash(self.ids)

    def __repr__(self):
        return "EdgeSpace({!r})".format(list(self.ids))


class EdgeVector:
    """An integer vector indexed by the ids of one :class:`EdgeSpace`.

    Values may be negative; incidence vectors of rotations use both signs.
    Instances are immutable and hashable, so they can key dictionaries and
    sets during enumeration.
    """

    __slots__ = ("space", "vals", "_hash")

    def __init__(self, space, vals):
        self.space = space
        vals = tuple(vals)
        if not all(map(_is_int, vals)):
            raise InputError("vector values must be integers")
        self.vals = tuple(map(int, vals))
        if len(self.vals) != len(space):
            raise InputError("vector length does not match its edge space")
        self._hash = None

    @classmethod
    def _trusted(cls, space, vals):
        """A vector of ``vals``, a tuple of ints of the right length.

        For values the library built itself; documents and callers' values
        go through the casts and checks of the constructor.
        """
        vec = object.__new__(cls)
        vec.space = space
        vec.vals = vals
        vec._hash = None
        return vec

    @classmethod
    def zero(cls, space):
        return cls._trusted(space, (0,) * len(space))

    @classmethod
    def from_mapping(cls, space, mapping):
        """The vector of a document mapping edge ids to JSON integers."""
        if not isinstance(mapping, dict) or not all(map(_is_int, mapping.values())):
            raise InputError("a vector document must map edge ids to integers")
        unknown = set(mapping) - set(space.ids)
        if unknown:
            raise InputError("unknown edge ids: {}".format(sorted(unknown)))
        return cls(space, (mapping.get(e, 0) for e in space.ids))

    def to_mapping(self):
        return {e: v for e, v in zip(self.space.ids, self.vals)}

    def __getitem__(self, e):
        return self.vals[self.space.index[e]]

    def __eq__(self, other):
        return (
            isinstance(other, EdgeVector)
            and self.space == other.space
            and self.vals == other.vals
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.space.ids, self.vals))
        return self._hash

    def __repr__(self):
        return "EdgeVector({})".format(
            {e: v for e, v in zip(self.space.ids, self.vals) if v}
        )

    def _need_same_space(self, other):
        if not isinstance(other, EdgeVector) or other.space != self.space:
            raise InputError("vectors live on different edge spaces")

    def meet(self, other):
        """Componentwise minimum."""
        self._need_same_space(other)
        return EdgeVector._trusted(
            self.space, tuple(map(min, self.vals, other.vals))
        )

    def minus(self, other):
        self._need_same_space(other)
        return EdgeVector._trusted(
            self.space, tuple(a - b for a, b in zip(self.vals, other.vals))
        )

    def le(self, other):
        """Componentwise order: true iff self <= other everywhere."""
        self._need_same_space(other)
        return all(a <= b for a, b in zip(self.vals, other.vals))

    def total(self):
        """Sum of all components (the size of a nonnegative vector)."""
        return sum(self.vals)

    def is_nonnegative(self):
        return all(v >= 0 for v in self.vals)

    def add_unit(self, e, amount=1):
        """Return a copy with ``amount`` added at edge ``e``."""
        i = self.space.index[e]
        vals = list(self.vals)
        vals[i] += amount
        return EdgeVector(self.space, vals)


def _getter(positions):
    """``star_get[v](vals)``: the entries at ``v``'s positions, as a tuple."""
    if len(positions) == 1:
        return lambda vals, p=positions[0]: (vals[p],)
    return operator.itemgetter(*positions) if positions else lambda vals: ()


class Instance:
    """A finite graph with integer capacities and one choice function per vertex.

    Parameters
    ----------
    vertices : iterable of str
        Vertex ids.  Stored sorted.
    edges : mapping id -> (u, v)
        Distinct endpoints per edge, no parallel edges.
    caps : mapping id -> int
        Nonnegative capacity per edge.
    choice : mapping vertex -> ChoiceFunction
        One choice function per vertex, acting on that vertex's star by
        position.
    parts : optional pair (W, F)
        A bipartition of the vertices.  When present, every edge must join
        the two sides, and two-sided machinery (proposal rounds, rotations)
        becomes available.
    stars : optional mapping vertex -> sequence of edge ids
        The order of each star.  By default a star lists its edges in the
        order of its choice function's space; a bipartite double passes
        its copies' stars here, so that each copy runs the base function.

    Each star is kept by edge id (``star_ids``), by position in ``space``
    (``star_positions``) and as a getter of its raw tuple (``star_get``);
    ``edge_slots[p]`` holds the ends of the edge at position ``p``, the
    lesser id first, each followed by the edge's slot in that end's star:
    the one record of an edge's ends, which :meth:`ends` reads by id.
    """

    def __init__(self, vertices, edges, caps, choice, parts=None, stars=None):
        self.vertices = tuple(sorted(vertices))
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("vertex ids must be distinct")
        vset = set(self.vertices)

        ids = sorted(edges)
        pairs, seen_pairs = [], set()
        incident = {v: set() for v in self.vertices}
        for e in ids:
            u, v = edges[e]
            if u not in vset or v not in vset:
                raise InputError("edge {!r} has an unknown endpoint".format(e))
            if u == v:
                raise InputError("edge {!r} is a loop".format(e))
            pair = (u, v) if u < v else (v, u)
            if pair in seen_pairs:
                raise InputError("parallel edge {!r}".format(e))
            seen_pairs.add(pair)
            pairs.append(pair)
            incident[u].add(e)
            incident[v].add(e)
        self.space = EdgeSpace(ids)

        if set(caps) != self.space.index.keys():
            raise InputError("capacities must cover exactly the edge set")
        for e, c in caps.items():
            if not _is_int(c):
                raise InputError("capacity of edge {!r} must be an integer".format(e))
            if c < 0:
                raise InputError("edge {!r} has negative capacity".format(e))
        cap_of = caps.__getitem__
        self.caps = EdgeVector._trusted(self.space, tuple(map(int, map(cap_of, ids))))

        if parts is not None:
            w, f = parts
            w, f = frozenset(w), frozenset(f)
            if w & f:
                raise InputError("bipartition sides overlap")
            if w | f != vset:
                raise InputError("bipartition must cover every vertex")
            for e, (u, v) in zip(ids, pairs):
                if (u in w) == (v in w):
                    raise InputError("edge {!r} does not join the two sides".format(e))
            self.parts = (w, f)
        else:
            self.parts = None

        if set(choice) != vset:
            raise InputError("choice functions must cover exactly the vertex set")
        if stars is None:
            stars = {v: cf.space.ids for v, cf in choice.items()}
        elif set(stars) != vset:
            raise InputError("stars must cover exactly the vertex set")
        pos_of = self.space.index.__getitem__
        firsts = [u for u, _ in pairs]
        first_slot, second_slot = [0] * len(ids), [0] * len(ids)
        self.star_ids, self.star_positions = {}, {}
        for v, cf in choice.items():
            star = tuple(stars[v])
            if len(star) != len(incident[v]) or set(star) != incident[v]:
                raise InputError(
                    "choice function at {!r} does not act on its star".format(v)
                )
            if tuple(cf.caps) != tuple(map(cap_of, star)):
                raise InputError(
                    "choice function at {!r} disagrees with edge capacities".format(v)
                )
            positions = tuple(map(pos_of, star))
            for s, p in enumerate(positions):
                (first_slot if firsts[p] == v else second_slot)[p] = s
            self.star_ids[v], self.star_positions[v] = star, positions
        self.choice = dict(choice)
        seconds = (w for _, w in pairs)
        self.edge_slots = tuple(zip(firsts, first_slot, seconds, second_slot))
        self.star_get = {v: _getter(p) for v, p in self.star_positions.items()}

    # -- basic queries ----------------------------------------------------

    def ends(self, e):
        """The ends of edge ``e``, the lesser id first."""
        try:
            u, _, v, _ = self.edge_slots[self.space.index[e]]
        except (KeyError, TypeError):
            raise InputError("unknown edge {!r}".format(e)) from None
        return u, v

    @property
    def is_bipartite_labeled(self):
        return self.parts is not None

    def check_vector(self, x):
        if not isinstance(x, EdgeVector) or x.space != self.space:
            raise InputError("vector does not live on this instance's edges")

    def in_box(self, x):
        """True iff 0 <= x <= caps componentwise."""
        self.check_vector(x)
        return x.is_nonnegative() and x.le(self.caps)

    def box_size(self):
        return math.prod(c + 1 for c in self.caps.vals)

    def __repr__(self):
        return "Instance({} vertices, {} edges)".format(
            len(self.vertices), len(self.space)
        )


class _ClosedWalk:
    """A closed walk of an instance that traverses each edge at most once.

    Stored as steps ``(v, e)``: stand at ``v``, traverse ``e`` to the other
    end.  Vertices may repeat.  Steps are kept in their least cyclic shift
    by a multiple of ``stride``, so equal walks compare equal; walks of
    different kinds never do.  A subclass names the lengths it admits in
    ``_check_length``.
    """

    __slots__ = ("steps", "edges", "_hash")
    stride = 1

    def __init__(self, inst, steps):
        steps = tuple((v, e) for v, e in steps)
        self._check_length(len(steps))
        ends = [inst.ends(e) for _, e in steps]
        edges = tuple(e for _, e in steps)
        if len(set(edges)) != len(edges):
            raise InputError("a walk traverses each edge at most once")
        here = steps[0][0]
        for (v, e), (u, w) in zip(steps, ends):
            if v != here:
                raise InputError("walk steps do not chain")
            if v != u and v != w:
                raise InputError("vertex {!r} is not an end of edge {!r}".format(v, e))
            here = w if v == u else u
        if here != steps[0][0]:
            raise InputError("walk does not close")
        self.steps = min(
            steps[i:] + steps[:i] for i in range(0, len(steps), self.stride)
        )
        self.edges = tuple(e for _, e in self.steps)
        self._hash = hash(self.steps)

    def __eq__(self, other):
        return type(other) is type(self) and self.steps == other.steps

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.steps < other.steps

    def __len__(self):
        return len(self.steps)

    def __repr__(self):
        return "{}({})".format(
            type(self).__name__, " ".join("{}-{}".format(v, e) for v, e in self.steps)
        )


def _chain(inst, positions, here):
    """The ``(v, e)`` steps along the edges at ``positions``, starting at ``here``."""
    steps = []
    for p in positions:
        steps.append((here, inst.space.ids[p]))
        u, _, v, _ = inst.edge_slots[p]
        here = v if here == u else u
    return steps


# -- document parsing and serialization ------------------------------------


def parse_instance(text):
    """Parse a JSON instance document into an :class:`Instance`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("invalid JSON: {}".format(exc)) from None
    return instance_from_dict(doc)


def _is_int(value):
    """True for an integer, numpy's included; ``bool`` is an ``int`` but not one.

    The plain ``int`` test comes first: the ``numbers.Integral`` test is
    several times slower, and every capacity and vector value passes here.
    """
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def _budget(value):
    """``value`` as a work budget: an integer, ``bool`` excluded, or :class:`InputError`."""
    if not _is_int(value):
        raise InputError("budget must be an integer")
    return int(value)


def _is_str_list(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def instance_from_dict(doc):
    """Build an :class:`Instance` from a decoded document."""
    from .choice import choice_from_dict

    if not isinstance(doc, dict):
        raise InputError("instance document must be an object")
    for key in ("vertices", "edges", "choice"):
        if key not in doc:
            raise InputError("instance document lacks {!r}".format(key))
    extra = set(doc) - {"vertices", "edges", "choice", "bipartition"}
    if extra:
        raise InputError("unknown document keys: {}".format(sorted(extra)))

    vertices = doc["vertices"]
    if not _is_str_list(vertices):
        raise InputError("vertices must be a list of strings")

    edges = {}
    caps = {}
    if not isinstance(doc["edges"], list):
        raise InputError("edges must be a list")
    for entry in doc["edges"]:
        if not isinstance(entry, dict) or set(entry) != {"id", "ends", "cap"}:
            raise InputError("each edge needs exactly id, ends and cap")
        e = entry["id"]
        if not isinstance(e, str):
            raise InputError("edge ids must be strings")
        if e in edges:
            raise InputError("duplicate edge id {!r}".format(e))
        ends = entry["ends"]
        if not (_is_str_list(ends) and len(ends) == 2):
            raise InputError("edge {!r} needs two endpoints".format(e))
        if not _is_int(entry["cap"]):
            raise InputError("edge {!r} needs an integer capacity".format(e))
        edges[e] = tuple(ends)
        caps[e] = entry["cap"]

    parts = None
    if "bipartition" in doc:
        bp = doc["bipartition"]
        if not isinstance(bp, dict) or set(bp) != {"W", "F"}:
            raise InputError("bipartition needs exactly the keys W and F")
        if not (_is_str_list(bp["W"]) and _is_str_list(bp["F"])):
            raise InputError("bipartition sides must be lists of vertex ids")
        parts = (bp["W"], bp["F"])

    spec = doc["choice"]
    if not isinstance(spec, dict):
        raise InputError("choice must be an object keyed by vertex")
    ghosts = set(spec) - set(vertices)
    if ghosts:
        raise InputError("choice given for unknown vertices: {}".format(sorted(ghosts)))

    # Choice construction needs the stars before full validation.  A
    # document fixes no star order, so each star lists its edges by id;
    # Instance takes its star order from the choice functions built here.
    star_ids = {v: [] for v in vertices}
    for e in sorted(edges):
        u, v = edges[e]
        if u in star_ids:
            star_ids[u].append(e)
        if v in star_ids:
            star_ids[v].append(e)

    choice = {}
    for v in vertices:
        if v not in spec:
            raise InputError("no choice function for vertex {!r}".format(v))
        ids = tuple(star_ids[v])
        star_caps = tuple(caps[e] for e in ids)
        choice[v] = choice_from_dict(v, EdgeSpace(ids), star_caps, spec[v])

    return Instance(vertices, edges, caps, choice, parts)


def instance_to_dict(inst):
    """Serialize an :class:`Instance` back to its document form."""
    doc = {
        "vertices": list(inst.vertices),
        "edges": [
            {"id": e, "ends": [u, v], "cap": cap}
            for e, (u, _, v, _), cap in zip(inst.space.ids, inst.edge_slots, inst.caps.vals)
        ],
        "choice": {v: inst.choice[v].to_dict(inst.star_ids[v]) for v in inst.vertices},
    }
    if inst.parts is not None:
        w, f = inst.parts
        doc["bipartition"] = {"W": sorted(w), "F": sorted(f)}
    return doc


def serialize_instance(inst):
    return json.dumps(instance_to_dict(inst), sort_keys=True, indent=2) + "\n"
