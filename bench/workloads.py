"""The four benchmark workloads: inputs, the timed operation, the answer gate.

Each workload turns ``(seed, i)`` into the document of operation ``i``
(``generate``), parses it into a fresh instance (``prepare``), runs the
timed operation on it (``operate``), and afterwards checks the answer
(``check``, which returns a problem string or None) and condenses it into
a digest (``digest``) that is compared with the committed one on the
default seed.  The operation schedule inside each workload is fixed by
``i`` alone; the seed only varies the instances, so runs on different
seeds execute the same mix of operation kinds.

Library calls go through module attributes (``sp.solve``, ``cli.main``) so
that the traced run, which rebinds those attributes, sees every call.
"""

import hashlib
import json
import os
import random

import stablepartners as sp
import stablepartners.cli as cli

import generators as gen


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    name = ""
    why = ""
    pool = 0  # operations prepared per run; the timed loop stops early if they run out
    period = 1  # the operation schedule repeats every ``period`` operations

    def rng(self, seed, i):
        return random.Random("{}/{}/{}".format(self.name, seed, i))

    def start(self, workdir):
        """Per-run state that is not an instance (a scratch directory)."""
        self.workdir = workdir

    def generate(self, seed, i):
        raise NotImplementedError

    def prepare(self, spec):
        raise NotImplementedError

    def operate(self, item, i):
        raise NotImplementedError

    def check(self, item, out):
        raise NotImplementedError

    def digest(self, item, out):
        raise NotImplementedError

    def trace_counts(self, out):
        """Work counts the traced run reads off an operation's output."""
        return {}


class LatinRoute(Workload):
    name = "latin_route"
    why = (
        "full routes on perturbed cyclic Latin squares: find_rotations' "
        "candidate cycles dominate and every ray walk is one unit"
    )
    pool = 200
    period = 12

    @staticmethod
    def size(i):
        # Per twelve operations: seven n=5, four n=6 and one n=7 square.  The
        # shares keep the median inside the n=5 band and the tail percentile
        # inside the n=6 band, away from the jumps between sizes.
        if i % 12 == 11:
            return 7
        return 6 if i % 3 == 1 else 5

    def generate(self, seed, i):
        rng = self.rng(seed, i)
        n = self.size(i)
        # One swap per square: with up to three, the cost of one size spreads
        # over a factor of four (n=7: 1.1-4.3 s) and runs stop agreeing.
        return gen.latin_doc(rng, n, 1)

    def prepare(self, spec):
        return sp.instance_from_dict(spec)

    def operate(self, inst, i):
        return sp.build_full_route(inst, seed=i)

    def check(self, inst, route):
        if route.start != sp.deferred_acceptance(inst, "W"):
            return "route does not start at the worker-optimal vector"
        if route.end != sp.deferred_acceptance(inst, "F"):
            return "route does not end at the firm-optimal vector"
        for step in route.steps:
            if not sp.is_stable(inst, step.target).stable:
                return "route visits an unstable vector"
        return None

    def digest(self, inst, route):
        family = sp.family_from_route(route).multiset()
        return _digest(sorted([list(map(list, k)), w, c] for (k, w), c in family.items()))


class GeneralSolve(Workload):
    name = "general_solve"
    why = (
        "the CLI solve and verify path on general graphs: high-capacity "
        "shapes stress ray walks, sparse graphs stress DA and verification"
    )
    pool = 160
    period = 32

    def generate(self, seed, i):
        rng = self.rng(seed, i)
        if i % 2 == 0:
            doc, solvable = gen.sparse_graph_doc(rng), None
        else:
            j = i // 2
            shape = gen.HIGH_CAP_SHAPES[j % len(gen.HIGH_CAP_SHAPES)]
            # Capacities are stratified over 100-1000 so every run sees the
            # whole range; 3x3 markets stay at 100-250, where they cost as
            # much as the other shapes at 1000.
            lo, hi = (100, 250) if shape == "cyclic3" else (100, 1000)
            band = (j // len(gen.HIGH_CAP_SHAPES)) % 4
            width = (hi - lo) // 4
            cap = rng.randint(lo + band * width, lo + (band + 1) * width)
            doc, solvable = gen.high_cap_doc(rng, shape, cap)
        return i, doc, solvable

    def prepare(self, spec):
        i, doc, solvable = spec
        path = os.path.join(self.workdir, "instance-{}.json".format(i))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        # The CLI parses the file again inside the operation; parsing here
        # too keeps setup_s defined the same way for every workload.
        sp.instance_from_dict(doc)
        return path, solvable

    def operate(self, item, i):
        path, _ = item
        sol = "{}.solution.json".format(path)
        rep = "{}.report.json".format(path)
        rc_solve = cli.main(["solve", "--instance", path, "--out", sol])
        rc_verify = cli.main(
            ["verify", "--instance", path, "--solution", sol, "--out", rep]
        )
        return rc_solve, rc_verify, sol, rep

    def outputs(self, out):
        _, _, sol, rep = out
        with open(sol, encoding="utf-8") as handle:
            solution = json.load(handle)
        with open(rep, encoding="utf-8") as handle:
            report = json.load(handle)
        return solution, report

    def check(self, item, out):
        rc_solve, rc_verify = out[0], out[1]
        if rc_solve != 0 or rc_verify != 0:
            return "exit codes {} and {}".format(rc_solve, rc_verify)
        solution, report = self.outputs(out)
        if not report.get("ok") or not solution.get("verified"):
            return "verify report is not ok"
        expected = item[1]
        if expected is not None and solution["solvable"] != expected:
            return "solvable verdict {} is wrong".format(solution["solvable"])
        return None

    def digest(self, item, out):
        solution, _ = self.outputs(out)
        return _digest(solution["solvable"])

    def trace_counts(self, out):
        return {"cli.bytes_out": os.path.getsize(out[2]) + os.path.getsize(out[3])}


class BlockPoset(Workload):
    name = "block_poset"
    why = (
        "rotation_order on k disjoint crossed blocks: the principal graph has "
        "2^k states while one route stays cheap"
    )
    pool = 80
    period = 8
    # Mostly k=6, so the median and the tail percentile (about the 10th of
    # 20 operations) both fall inside the k=6 band.
    SIZES = (6, 6, 7, 6, 6, 6, 6, 8)

    def generate(self, seed, i):
        k = self.SIZES[i % len(self.SIZES)]
        return k, gen.blocks_doc(self.rng(seed, i), k)

    def prepare(self, spec):
        k, doc = spec
        return k, sp.instance_from_dict(doc)

    def operate(self, item, i):
        _, inst = item
        order = sp.rotation_order(inst)
        route = sp.build_full_route(inst, seed=i)
        trips = []
        for x in route.vectors():
            closed = sp.closed_from_vector(inst, order, x)
            trips.append((x, sp.vector_from_closed(inst, order, closed)))
        return order, trips

    def check(self, item, out):
        k, _ = item
        order, trips = out
        if any(x != y for x, y in trips):
            return "a round trip through the closed function changed the vector"
        if len(order.occurrences) != k or order.less:
            return "disjoint blocks must give k incomparable occurrences"
        return None

    def digest(self, item, out):
        return _digest(out[0].to_dict())


class OracleScan(Workload):
    name = "oracle_scan"
    why = (
        "exhaustive box scans: enumerate_stable on small markets and "
        "symmetrized graphs, and check_axiom on the four acceptance stars"
    )
    pool = 128
    period = 32
    # Axiom-major order, so that the first operations of a run already visit
    # every star.
    COMBOS = [(s, a) for a in gen.AXIOMS for s in range(len(gen.AXIOM_STARS))]
    # Enumeration boxes are drawn from a band so that every run scans
    # comparable sizes; the band sits inside the enumeration budget.
    MARKET_BOX = (40_000, 80_000)
    DOUBLE_BOX = (40_000, 70_000)

    def generate(self, seed, i):
        rng = self.rng(seed, i)
        if i % 2 == 0:
            star, axiom = self.COMBOS[(i // 2) % len(self.COMBOS)]
            caps, quota = gen.AXIOM_STARS[star]
            return "axiom", gen.star_doc(rng, caps, quota), axiom
        if i % 4 == 1:
            return "market", gen.small_market_doc(rng, *self.MARKET_BOX), None
        return "double", gen.small_graph_doc(rng, *self.DOUBLE_BOX), None

    def prepare(self, spec):
        kind, doc, axiom = spec
        return kind, sp.instance_from_dict(doc), axiom

    def operate(self, item, i):
        kind, inst, axiom = item
        if kind == "axiom":
            cf = inst.choice["hub"]
            return cf, sp.check_axiom(cf, axiom, budget=10**8)
        if kind == "double":
            inst = sp.symmetrize(inst).graph
        stable = sp.enumerate_stable(inst)
        return inst, stable, sp.lattice_extremes(inst, stable)

    def check(self, item, out):
        if item[0] == "axiom":
            cf, report = out
            if report.pairs_checked <= 0:
                return "axiom check did no work"
            if not report.holds and not report.reevaluate(cf):
                return "failing axiom report does not reproduce"
            return None
        inst, stable, (lo, hi) = out
        if lo != sp.deferred_acceptance(inst, "W") or hi != sp.deferred_acceptance(
            inst, "F"
        ):
            return "enumerated extremes differ from deferred acceptance"
        if not any(x == lo for x in stable) or not any(x == hi for x in stable):
            return "extremes are missing from the stable list"
        return None

    def digest(self, item, out):
        if item[0] == "axiom":
            report = out[1]
            return _digest([report.axiom, report.holds, report.pairs_checked])
        return _digest([list(x.vals) for x in out[1]])


WORKLOADS = {wl.name: wl for wl in (LatinRoute, GeneralSolve, BlockPoset, OracleScan)}
