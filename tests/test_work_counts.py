"""The exact work ledger: questions and selections asked on fixed rows.

Each row builds a seeded instance, runs one library entry point on it and
counts, with :func:`conftest.count_choices`, every ``choose_vals`` call and
every one-edge question.  The answer fixes these counts, so they are
compared exactly, not bounded: a change that asks more, or fewer, fails
here whichever way it goes.  A change that moves a count updates its row
and records the old and the new value in CHANGES.md, with the reason.
All rows together run in under a second.
"""

import random

import pytest

from stablepartners import build_full_route, instance_from_dict, rotation_order, solve

from conftest import (
    blocks_doc,
    complete_doc,
    count_choices,
    latin_doc,
    random_bipartite_doc,
    ring_doc,
    sparse_graph_doc,
    tabled_doc,
    union_doc,
)


def _general_blocks(k):
    doc = blocks_doc(k)
    del doc["bipartition"]
    return doc


# Each row: the instance document, the entry point, and its exact count.
LEDGER = {
    "latin-8-route": (lambda: latin_doc(8), build_full_route, 1_744),
    "latin-32-route": (lambda: latin_doc(32), build_full_route, 101_440),
    "complete-30-solve": (lambda: complete_doc(30), solve, 5_820),
    "general-blocks-40-solve": (lambda: _general_blocks(40), solve, 2_880),
    "rings-40-solve": (lambda: union_doc([ring_doc(5, 1, 1)] * 40), solve, 3_920),
    "sparse-160-solve": (
        lambda: sparse_graph_doc(random.Random(1), 160, 470),
        solve,
        4_669,
    ),
    "blocks-20-order": (lambda: blocks_doc(20), rotation_order, 800),
    # Seed 0 draws a market of three occurrences whose order still runs
    # one avoidance sweep, which starts with a discovery of its own.
    "random-bipartite-0-order": (
        lambda: random_bipartite_doc(random.Random(0)),
        rotation_order,
        250,
    ),
    # Tables settle no precedence by co-exposure: 3 avoidance sweeps.
    "tabled-blocks-4-order": (lambda: tabled_doc(blocks_doc(4)), rotation_order, 346),
}


@pytest.mark.parametrize("build, run, count", LEDGER.values(), ids=list(LEDGER))
def test_work_counts_are_exact(monkeypatch, build, run, count):
    inst = instance_from_dict(build())
    calls = count_choices(monkeypatch)
    run(inst)
    assert calls[0] == count
