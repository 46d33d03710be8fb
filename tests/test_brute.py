"""Enumeration oracles: stable sets, lattice extremes, immediate successors."""

import numpy as np
import pytest

from stablepartners import (
    BudgetError,
    InputError,
    VerificationError,
    brute,
    deferred_acceptance,
    enumerate_stable,
    instance_from_dict,
    lattice_extremes,
    symmetrize,
)
from stablepartners.choice import box_array, check_axiom

from conftest import (
    degenerate_doc,
    edgevec,
    immediate_successors,
    large_box_market_doc,
    oracle_check_pairwise,
    oracle_enumerate_stable,
    oracle_stable_set,
    wide_cap_doc,
)


def test_stable_counts_on_the_frozen_instances(b4, b4_scaled, triangle, path3):
    assert len(enumerate_stable(b4)) == 2
    assert len(enumerate_stable(b4_scaled)) == 4
    assert enumerate_stable(triangle) == []
    assert len(enumerate_stable(path3)) == 1


def test_enumeration_agrees_with_the_direct_definition(b4, b4_scaled, triangle, path3):
    for inst in (b4, b4_scaled, triangle, path3):
        got = {x.vals for x in enumerate_stable(inst)}
        assert got == oracle_stable_set(inst)


def test_enumeration_never_lists_more_than_a_star_box(monkeypatch):
    """The work, not the clock: on a 1.6 M-vector box, every array the
    enumeration asks ``box_array`` for is a star's box."""
    inst = instance_from_dict(large_box_market_doc())
    assert 10**6 <= inst.box_size() <= 2 * 10**6
    asked = []

    def counted(caps):
        out = box_array(caps)
        asked.append(len(out))
        return out

    monkeypatch.setattr(brute, "box_array", counted)
    stable = enumerate_stable(inst)
    assert asked and max(asked) <= max(cf.box_size() for cf in inst.choice.values())
    assert len(stable) == 3
    lo, hi = lattice_extremes(inst, stable)
    assert (lo, hi) == (deferred_acceptance(inst, "W"), deferred_acceptance(inst, "F"))


def test_a_double_tables_each_choice_function_once(monkeypatch, general_corpus):
    """Both copies of a vertex run one function, so they share one star
    table: a double builds as many as its base, with the same answer."""
    built = []

    def counted(cf):
        built.append(cf)
        return star_table(cf)

    star_table = brute._star_table
    monkeypatch.setattr(brute, "_star_table", counted)
    doubles = [(inst, symmetrize(inst).graph) for inst in general_corpus]
    doubles = [(inst, g) for inst, g in doubles if g.box_size() <= 10**4]
    assert len(doubles) >= 20
    for inst, g in doubles:
        built.clear()
        stable = enumerate_stable(g)
        functions = [inst.choice[v] for v in inst.vertices if inst.star_ids[v]]
        assert sorted(map(id, built)) == sorted(map(id, functions))
        assert stable == oracle_enumerate_stable(g)


@pytest.mark.parametrize(
    "call",
    [
        lambda inst: enumerate_stable(inst, budget="x"),
        lambda inst: lattice_extremes(inst, budget=None),
        lambda inst: check_axiom(inst.choice["w1"], "SUB", budget="x"),
        lambda inst: check_axiom(inst.choice["w1"], "GL", budget=1.5),
    ],
)
def test_budgets_must_be_integers(b4, call):
    """A budget that is not an integer is unusable input, whatever it bounds."""
    with pytest.raises(InputError, match="budget must be an integer"):
        call(b4)


def test_enumeration_respects_its_budget(b4_scaled):
    with pytest.raises(BudgetError):
        enumerate_stable(b4_scaled, budget=10)


def test_enumeration_budget_holds_exactly_at_the_box_size(b4_scaled):
    """A budget of the box size enumerates; one less raises."""
    n = b4_scaled.box_size()
    assert n == 256
    assert enumerate_stable(b4_scaled, budget=n) == enumerate_stable(b4_scaled)
    with pytest.raises(BudgetError, match="holds 256 vectors, budget is 255"):
        enumerate_stable(b4_scaled, budget=n - 1)


def test_extremes_are_the_known_corners(b4):
    lo, hi = lattice_extremes(b4)
    assert lo == edgevec(b4, {"w1f1": 1, "w2f2": 1})
    assert hi == edgevec(b4, {"w1f2": 1, "w2f1": 1})


def test_extremes_refuse_an_empty_stable_set(triangle):
    with pytest.raises(VerificationError):
        lattice_extremes(triangle)


def test_extremes_accept_a_precomputed_stable_list(b4):
    stable = enumerate_stable(b4)
    assert lattice_extremes(b4, stable) == lattice_extremes(b4)


def test_successors_step_one_cover_at_a_time(b4, b4_scaled):
    lo, hi = lattice_extremes(b4)
    assert immediate_successors(b4, lo) == [hi]
    assert immediate_successors(b4, hi) == []

    stable = enumerate_stable(b4_scaled)
    lo, hi = lattice_extremes(b4_scaled, stable)
    mids = [x for x in stable if x not in (lo, hi)]
    succ = immediate_successors(b4_scaled, lo, stable)
    assert len(succ) == 1
    assert succ[0] in mids


def test_capacities_beyond_int16_do_not_wrap():
    inst = instance_from_dict(wide_cap_doc())
    da = deferred_acceptance(inst, "W")
    assert da.to_mapping() == {"wf": 40000}
    assert enumerate_stable(inst) == [da]


def test_small_boxes_keep_the_compact_dtype():
    box = box_array((32767, 1))
    assert box.dtype == np.int16
    assert box[-1].tolist() == [32767, 1]
    assert box_array((32768,)).dtype != np.int16


def test_enumeration_matches_the_sorting_oracle_on_both_corpora(
    bipartite_artifacts, doubled_artifacts
):
    small = [
        (inst, stable)
        for inst, stable, _ in bipartite_artifacts
        if inst.box_size() <= 10**4
    ]
    small += [
        (si.graph, stable)
        for _, si, _, stable in doubled_artifacts
        if si.graph.box_size() <= 10**4
    ]
    assert len(small) >= 200
    for inst, stable in small:
        assert stable == oracle_enumerate_stable(inst)


def test_empty_and_zero_capacity_stars_match_the_oracles():
    inst = instance_from_dict(degenerate_doc())
    assert inst.star_ids["lone"] == ()
    assert box_array(inst.choice["lone"].caps).shape == (1, 0)
    assert inst.caps["wg"] == 0
    stable = enumerate_stable(inst)
    assert stable == oracle_enumerate_stable(inst)
    assert [x.to_mapping() for x in stable] == [{"wf": 1, "wg": 0}]
    for v in inst.vertices:
        for axiom in ("SUB", "MON", "CON"):
            got = check_axiom(inst.choice[v], axiom)
            want = oracle_check_pairwise(inst.choice[v], axiom)
            assert got.holds and want.holds
            assert got.pairs_checked == want.pairs_checked
        assert check_axiom(inst.choice[v], "GL").holds
    assert check_axiom(inst.choice["lone"], "SUB").pairs_checked == 1
