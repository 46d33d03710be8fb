"""Run one stablepartners benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload latin_route --seed 0 --seconds 20 --trace 0

The library is imported from ``src/`` of the checkout.  Set-up (import,
generating and parsing every instance of the run) is repeated and timed;
then one caller runs operations back to back for ``--seconds`` seconds on
fresh instances, and the answer gate checks every result afterwards.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
same operations are first run untraced for half the time, then replayed on
fresh instances with every public library function wrapped, and the
per-layer metrics are printed.  The last line of stdout is one JSON object.
"""

import os

# One thread per process: pin the BLAS/OpenMP pools before numpy loads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 3


def import_library():
    """Import stablepartners from the checkout's ``src``; return the seconds it took."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "stablepartners", "__init__.py")):
        raise SystemExit("error: no stablepartners sources under {}".format(src))
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import stablepartners
    import stablepartners.cli  # noqa: F401  (general_solve drives the CLI)

    elapsed = time.perf_counter() - t0
    if not os.path.abspath(stablepartners.__file__).startswith(src + os.sep):
        raise SystemExit("error: stablepartners was not imported from {}".format(src))
    return elapsed


def build_pool(wl, seed, count, workdir):
    """Generate and parse the instances of operations ``0 .. count-1``."""
    os.makedirs(workdir, exist_ok=True)
    wl.start(workdir)
    return [wl.prepare(wl.generate(seed, i)) for i in range(count)]


def timed_loop(wl, items, seconds=None, limit=None, tracer=None):
    """Closed loop: each operation starts when the previous one returns.

    Runs whole periods of the workload's schedule until ``seconds`` have
    passed, or exactly ``limit`` operations.  Stopping on a period boundary
    keeps the mix of operation kinds the same in every run.
    Returns the ``(output, error)`` pairs, per-operation latencies and the
    loop's wall time.
    """
    outs, lat = [], []
    t_start = time.perf_counter()
    deadline = t_start + seconds if seconds is not None else math.inf
    for i, item in enumerate(items):
        if limit is not None and i >= limit:
            break
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.operate(item, i)
            else:
                out = tracer.run_op(i, wl.operate, item, i)
            err = None
        except Exception as exc:  # a raising operation fails; the run goes on
            out, err = None, "{}: {}".format(type(exc).__name__, exc)
        t1 = time.perf_counter()
        outs.append((out, err))
        lat.append(t1 - t0)
        if t1 >= deadline and (i + 1) % wl.period == 0:
            break
    return outs, lat, time.perf_counter() - t_start


def load_digests():
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def gate(wl, items, outs, expected=None):
    """Check every result; return ``(index, problem)`` for each failure.

    ``expected`` lists the committed digests of the default seed; it is None
    on other seeds, where only the structural checks run.
    """
    failures = []
    for i, (item, (out, err)) in enumerate(zip(items, outs)):
        problem = err
        if problem is None:
            try:
                problem = wl.check(item, out)
                if problem is None and expected is not None and i < len(expected):
                    if wl.digest(item, out) != expected[i]:
                        problem = "digest differs from the committed one"
            except Exception as exc:  # a check that cannot run is a failed answer
                problem = "check raised {}: {}".format(type(exc).__name__, exc)
        if problem is not None:
            failures.append((i, problem))
    return failures


def tail_latency(lat):
    """The highest whole percentile with at least ten samples above it.

    Returns ``(value, percentile, samples)``.  With ten samples or fewer no
    percentile qualifies and the maximum is reported as percentile 100.
    """
    s = sorted(lat)
    n = len(s)
    if n <= 10:
        return s[-1], 100, n
    q = 100 * (n - 10) // n
    rank = max(1, math.ceil(q * n / 100))
    return s[rank - 1], q, n


def setup(wl, seed, import_s, workdir):
    """Build the pool ``SETUP_REPEATS`` times; set-up time is the median."""
    times = []
    items = None
    for _ in range(SETUP_REPEATS):
        items = None  # free the previous pool before building the next
        gc.collect()
        t0 = time.perf_counter()
        items = build_pool(wl, seed, wl.pool, workdir)
        times.append(time.perf_counter() - t0)
    return items, import_s + statistics.median(times)


def run(wl, seed, seconds, trace, import_s, workdir):
    """Measure one workload; return the result object and printable rows."""
    expected = load_digests().get(wl.name) if seed == DEFAULT_SEED else None
    items, setup_s = setup(wl, seed, import_s, workdir)
    if not trace:
        outs, lat, wall = timed_loop(wl, items, seconds=seconds)
        failures = gate(wl, items, outs, expected)
        done = sum(1 for _, err in outs if err is None)
        tail, pct, n = tail_latency(lat)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "ops_per_s": (done / wall, "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
            "op_tail_ms": (tail * 1000, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        notes = {"op_tail_ms": "p{} of {} operations".format(pct, n)}
        attempted = len(outs)
    else:
        from tracing import Tracer

        outs, _, wall = timed_loop(wl, items, seconds=seconds / 2)
        failures = gate(wl, items, outs, expected)
        k = len(outs)
        traced_items = build_pool(wl, seed, k, os.path.join(workdir, "traced"))
        tracer = Tracer()
        tracer.install()
        try:
            traced, _, traced_wall = timed_loop(
                wl, traced_items, limit=k, tracer=tracer
            )
        finally:
            tracer.uninstall()
        for out, err in traced:
            if err is None:
                for name, amount in wl.trace_counts(out).items():
                    tracer.count(name, amount)
        failures += gate(wl, traced_items, traced, expected)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, "trace-{}-seed{}.npz".format(wl.name, seed)))
        metrics = tracer.metrics(k)
        metrics["trace.overhead_frac"] = (1 - wall / traced_wall, "1")
        notes = {}
        attempted = len(outs) + len(traced)
    rows = [(name, value, unit, notes.get(name, "")) for name, (value, unit) in metrics.items()]
    rows.append(("failed_frac", len(failures) / attempted, "1", ""))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    if len(outs) == len(items):
        print("note: all {} prepared operations ran before the time was up".format(len(items)))
    for i, problem in failures[:10]:
        print("failed: operation {}: {}".format(i, problem))
    return result, rows


def record_digests(wl, workdir):
    """Run every operation of the default seed's pool and store its digests."""
    items = build_pool(wl, DEFAULT_SEED, wl.pool, workdir)
    outs, _, _ = timed_loop(wl, items)
    failures = gate(wl, items, outs)
    if failures:
        raise SystemExit("error: cannot record digests, {} failed: {}".format(
            len(failures), failures[:3]))
    digests = load_digests() if os.path.exists(DIGESTS) else {}
    digests[wl.name] = [wl.digest(item, out) for item, (out, _) in zip(items, outs)]
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="run the whole default-seed pool and rewrite its committed digests",
    )
    args = parser.parse_args(argv)

    import_s = import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload {!r}; choose from {}".format(
            args.workload, ", ".join(WORKLOADS)))
    wl = WORKLOADS[args.workload]()
    workdir = os.path.join(OUT_DIR, "work-{}".format(os.getpid()))
    try:
        if args.record_digests:
            record_digests(wl, workdir)
            return 0
        result, rows = run(wl, args.seed, args.seconds, args.trace, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("workload {} seed {} seconds {:g} trace {}".format(
        wl.name, args.seed, args.seconds, args.trace))
    for name, value, unit, note in rows:
        print("  {:34s} {:>14.6g} {:8s} {}".format(name, value, unit, note).rstrip())
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
