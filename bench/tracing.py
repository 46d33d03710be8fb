"""Spans around every call into a public function of ``stablepartners``.

A :class:`Tracer` rebinds each public module-level function of the eight
layer modules, in every module namespace that binds it, and the three
selection methods of the choice-function classes, to wrappers that record
a span: id, parent id, name, operation id, start and end.  Spans live in
memory and are written out once, after the run.  Self time is a span's
duration minus the durations of its direct children, so the self times of
all spans of one operation add up to the operation's time exactly.

The wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`; uninstalling puts every original object back.
"""

import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("core", "choice", "bipartite", "brute", "poset", "symmetric", "solver", "cli")
SELECTION_METHODS = ("choose", "choose_vals", "batch_vals")
OP = "bench.op"


def _weight_arg(args, kwargs):
    return kwargs["weight"] if "weight" in kwargs else args[3]


# Work counts read off arguments and results: span name -> (count, function).
MEASURES = {
    "bipartite.find_rotations": [("bipartite.rotations_found", lambda a, k, out: len(out))],
    "bipartite.max_feasible_weight": [("bipartite.ray_steps", lambda a, k, out: out)],
    "bipartite.apply_rotation": [("bipartite.ray_steps", lambda a, k, out: _weight_arg(a, k))],
    "choice.batch_vals": [("choice.batch_rows", lambda a, k, out: len(out))],
    "choice.check_axiom": [("choice.axiom_pairs", lambda a, k, out: out.pairs_checked)],
    "brute.enumerate_stable": [
        ("brute.box_rows", lambda a, k, out: a[0].box_size()),
        ("brute.stable_found", lambda a, k, out: len(out)),
    ],
    "poset.principal_graph": [("poset.principal_states", lambda a, k, out: len(out.states))],
    "poset.rotation_order": [("poset.occurrences", lambda a, k, out: len(out.occurrences))],
    "symmetric.run_qb": [("symmetric.qb_picks", lambda a, k, out: len(out.picks))],
    "solver.solve": [("solver.odd_cycles", lambda a, k, out: len(out.hp.cycles))],
}


# Inclusive times: the duration of the outermost span of each group, callees
# included.  Self time charges the choice calls inside a rotation search to
# ``choice``; these show which entry point the work was done for.
INCLUSIVE = {
    "bipartite.find_rotations_incl_s": lambda n: n == "bipartite.find_rotations",
    "bipartite.ray_incl_s": lambda n: n
    in ("bipartite.max_feasible_weight", "bipartite.apply_rotation"),
    "choice.check_axiom_incl_s": lambda n: n == "choice.check_axiom",
    "brute.incl_s": lambda n: n.startswith("brute."),
    "poset.incl_s": lambda n: n.startswith("poset."),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.calls = []
        self.self_s = []
        self.counts = {}
        self.groups = []  # per name id: the INCLUSIVE groups it belongs to
        self.incl_s = dict.fromkeys(INCLUSIVE, 0.0)
        self.stack = []  # open spans: [span id, name id, time covered by children]
        self.op = -1
        self.next_id = 0
        self.spans = {
            "id": array("i"),
            "parent": array("i"),
            "name": array("i"),
            "op": array("i"),
            "start": array("d"),
            "end": array("d"),
        }
        self.patched = []  # (owner, attribute, original object)
        self.op_id = self._name_id(OP)
        self.selection_ids = set()
        self.find_rotations_id = self._name_id("bipartite.find_rotations")
        self.is_stable_id = self._name_id("bipartite.is_stable")

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.groups.append([g for g, member in INCLUSIVE.items() if member(name)])
        return self.name_ids[name]

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _close(self, frame, t0, t1):
        sid, nid, covered = frame
        dur = t1 - t0
        stack = self.stack
        if stack:
            parent = stack[-1]
            parent[2] += dur
            parent_id = parent[0]
        else:
            parent_id = -1
        self.calls[nid] += 1
        self.self_s[nid] += dur - covered
        spans = self.spans
        spans["id"].append(sid)
        spans["parent"].append(parent_id)
        spans["name"].append(nid)
        spans["op"].append(self.op)
        spans["start"].append(t0)
        spans["end"].append(t1)
        if nid == self.is_stable_id and any(
            f[1] == self.find_rotations_id for f in stack
        ):
            self.count("bipartite.is_stable_under_find_rotations", 1)
        for group in self.groups[nid]:
            if not any(group in self.groups[f[1]] for f in stack):
                self.incl_s[group] += dur

    def _call(self, nid, fn, args, kwargs):
        frame = [self.next_id, nid, 0.0]
        self.next_id += 1
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self._close(frame, t0, t1)

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        measures = MEASURES.get(name, ())
        call = self._call
        stack = self.stack
        selection = self.selection_ids

        if nid in selection:
            # choose calls choose_vals, and a renamed choice calls its base:
            # only the outermost call of a selection gets a span.
            def wrapper(*args, **kwargs):
                if stack and stack[-1][1] in selection:
                    return fn(*args, **kwargs)
                out = call(nid, fn, args, kwargs)
                for count, measure in measures:
                    self.count(count, measure(args, kwargs, out))
                return out

        else:

            def wrapper(*args, **kwargs):
                out = call(nid, fn, args, kwargs)
                for count, measure in measures:
                    self.count(count, measure(args, kwargs, out))
                return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _patch(self, owner, attr, new):
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every public function of every layer where it is bound."""
        package = importlib.import_module("stablepartners")
        modules = [importlib.import_module("stablepartners." + l) for l in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(obj, "{}.{}".format(layer, name))
        for mod in [package] + modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])

        choice = modules[LAYERS.index("choice")]
        for attr in SELECTION_METHODS:
            self.selection_ids.add(self._name_id("choice." + attr))
        for cls in vars(choice).values():
            if inspect.isclass(cls) and issubclass(cls, choice.ChoiceFunction):
                for attr in SELECTION_METHODS:
                    if attr in vars(cls):
                        self._patch(cls, attr, self._wrap(vars(cls)[attr], "choice." + attr))

    def uninstall(self):
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def run_op(self, i, fn, *args):
        """Run one benchmark operation inside its own top-level span."""
        self.op = i
        try:
            return self._call(self.op_id, fn, args, {})
        finally:
            self.op = -1

    def write(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            **{key: np.frombuffer(col, dtype=col.typecode) for key, col in self.spans.items()}
        )

    # -- per-layer metrics -----------------------------------------------

    def _sum(self, table, names):
        return sum(table[self.name_ids[n]] for n in names if n in self.name_ids)

    def layer_self_s(self):
        """Self seconds per layer, plus the benchmark's own share under ``bench``."""
        out = {}
        for name, secs in zip(self.names, self.self_s):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + secs
        return out

    def metrics(self, ops):
        """The per-layer metrics, each per traced operation."""
        S = lambda *names: self._sum(self.self_s, names) / ops
        C = lambda *names: self._sum(self.calls, names) / ops
        N = lambda name: self.counts.get(name, 0) / ops
        layers = self.layer_self_s()
        under = self.counts.get("bipartite.is_stable_under_find_rotations", 0)
        found = self.counts.get("bipartite.rotations_found", 0)
        choose = ("choice.choose", "choice.choose_vals")
        op_s = sum(self.self_s) / ops
        m = {
            "core.parse_calls": (C("core.instance_from_dict"), "count/op"),
            "core.parse_self_s": (S("core.instance_from_dict", "core.parse_instance"), "s/op"),
            "choice.choose_calls": (C(*choose), "count/op"),
            "choice.choose_self_s": (S(*choose), "s/op"),
            "choice.batch_rows": (N("choice.batch_rows"), "count/op"),
            "choice.batch_self_s": (S("choice.batch_vals"), "s/op"),
            "choice.check_axiom_self_s": (S("choice.check_axiom"), "s/op"),
            "choice.axiom_pairs": (N("choice.axiom_pairs"), "count/op"),
            "bipartite.find_rotations_calls": (C("bipartite.find_rotations"), "count/op"),
            "bipartite.find_rotations_self_s": (S("bipartite.find_rotations"), "s/op"),
            "bipartite.rotations_found": (found / ops, "count/op"),
            "bipartite.is_stable_calls": (C("bipartite.is_stable"), "count/op"),
            "bipartite.is_stable_self_s": (S("bipartite.is_stable"), "s/op"),
            "bipartite.rotation_yield": (found / under if under else 0.0, "1"),
            "bipartite.ray_steps": (N("bipartite.ray_steps"), "count/op"),
            "bipartite.ray_self_s": (
                S("bipartite.max_feasible_weight", "bipartite.apply_rotation"),
                "s/op",
            ),
            "bipartite.precedes_calls": (
                C("bipartite.precedes_F", "bipartite.precedes_W"),
                "count/op",
            ),
            "bipartite.da_calls": (C("bipartite.deferred_acceptance"), "count/op"),
            "bipartite.da_self_s": (S("bipartite.deferred_acceptance"), "s/op"),
            "bipartite.route_self_s": (S("bipartite.build_full_route"), "s/op"),
            "brute.enumerate_self_s": (S("brute.enumerate_stable"), "s/op"),
            "brute.box_rows": (N("brute.box_rows"), "count/op"),
            "brute.stable_found": (N("brute.stable_found"), "count/op"),
            "brute.extremes_self_s": (S("brute.lattice_extremes"), "s/op"),
            "poset.order_self_s": (S("poset.rotation_order"), "s/op"),
            "poset.principal_self_s": (S("poset.principal_graph"), "s/op"),
            "poset.principal_states": (N("poset.principal_states"), "count/op"),
            "poset.occurrences": (N("poset.occurrences"), "count/op"),
            "poset.closed_self_s": (
                S("poset.closed_from_vector", "poset.vector_from_closed", "poset.is_closed"),
                "s/op",
            ),
            "symmetric.symmetrize_self_s": (S("symmetric.symmetrize"), "s/op"),
            "symmetric.qb_self_s": (S("symmetric.run_qb"), "s/op"),
            "symmetric.qb_picks": (N("symmetric.qb_picks"), "count/op"),
            "solver.solve_self_s": (S("solver.solve"), "s/op"),
            "solver.project_self_s": (
                S("solver.project_solution", "solver.project_cycle"),
                "s/op",
            ),
            "solver.verify_self_s": (
                S("solver.verify_half_partnership", "solver.vertex_contexts"),
                "s/op",
            ),
            "solver.odd_cycles": (N("solver.odd_cycles"), "count/op"),
            "cli.main_self_s": (S("cli.main"), "s/op"),
            "cli.bytes_out": (N("cli.bytes_out"), "count/op"),
        }
        for layer in LAYERS:
            m[layer + ".self_s"] = (layers.get(layer, 0.0) / ops, "s/op")
        for group, secs in self.incl_s.items():
            m[group] = (secs / ops, "s/op")
        m["trace.op_s"] = (op_s, "s/op")
        m["trace.unattributed_frac"] = (
            layers.get("bench", 0.0) / ops / op_s if op_s else 0.0,
            "1",
        )
        return m
