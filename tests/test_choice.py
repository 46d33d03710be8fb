"""Choice functions: the greedy quota rule, tables, other stars, axiom checks."""

import itertools
import random

import numpy as np
import pytest

from stablepartners import BudgetError, InputError
from stablepartners.choice import (
    LinearOrderQuotaCF,
    TableCF,
    check_axiom,
    choice_from_dict,
    is_acceptable,
    prefers,
)
from stablepartners.core import EdgeSpace, EdgeVector

from conftest import (
    ACCEPTANCE_STARS,
    gated_instance,
    gl_violating_table,
    mon_violating_table,
    oracle_check_gl,
    oracle_check_pairwise,
    star_cf,
    sub_violating_table,
)


def quota_cf(caps, quota, order=None):
    ids = tuple("e{}".format(i + 1) for i in range(len(caps)))
    return LinearOrderQuotaCF(
        "v", EdgeSpace(ids), tuple(caps), quota, list(order or ids)
    )


def vec(cf, *vals):
    return EdgeVector(cf.space, vals)


def full_box(cf):
    return itertools.product(*[range(c + 1) for c in cf.caps])


# -- the greedy quota rule ----------------------------------------------------


def test_greedy_rule_cuts_at_the_overflowing_edge():
    cf = quota_cf((3, 2, 1), quota=4)
    assert cf.choose(vec(cf, 3, 2, 1)) == vec(cf, 3, 1, 0)


def test_vectors_within_quota_are_kept():
    cf = quota_cf((3, 2), quota=5)
    assert cf.choose(vec(cf, 2, 1)) == vec(cf, 2, 1)


def test_zero_maps_to_zero():
    cf = quota_cf((3, 2, 1), quota=2)
    assert cf.choose(vec(cf, 0, 0, 0)) == vec(cf, 0, 0, 0)


def test_greedy_rule_follows_the_order_not_the_ids():
    cf = quota_cf((2, 2), quota=2, order=("e2", "e1"))
    assert cf.choose(vec(cf, 2, 2)) == vec(cf, 0, 2)


def test_quota_zero_rejects_everything():
    cf = quota_cf((2, 2), quota=0)
    for vals in full_box(cf):
        assert cf.choose_vals(vals) == (0, 0)


def test_choose_validates_box_and_space():
    cf = quota_cf((1, 1), quota=1)
    with pytest.raises(InputError):
        cf.choose(vec(cf, 2, 0))
    other = EdgeVector(EdgeSpace(("x",)), (0,))
    with pytest.raises(InputError):
        cf.choose(other)


def test_order_must_be_a_permutation_of_the_star():
    with pytest.raises(InputError):
        quota_cf((1, 1), quota=1, order=("e1", "e1"))
    with pytest.raises(InputError):
        quota_cf((1, 1), quota=1, order=("e1",))
    with pytest.raises(InputError):
        quota_cf((1, 1), quota=-1)


def test_batch_matches_scalar_on_random_quota_functions():
    rng = random.Random(7)
    for _ in range(25):
        k = rng.randint(1, 4)
        caps = [rng.randint(1, 3) for _ in range(k)]
        order = ["e{}".format(i + 1) for i in range(k)]
        rng.shuffle(order)
        cf = quota_cf(caps, rng.randint(0, sum(caps) + 1), order)
        rows = list(full_box(cf))
        batch = cf.batch_vals(rows)
        for row, got in zip(rows, batch):
            assert tuple(got) == cf.choose_vals(row)


def test_choosing_twice_changes_nothing():
    rng = random.Random(21)
    for _ in range(10):
        caps = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        cf = quota_cf(caps, rng.randint(0, sum(caps)))
        for vals in full_box(cf):
            once = cf.choose_vals(vals)
            assert cf.choose_vals(once) == once


# -- tables and other stars ---------------------------------------------------


def test_table_requires_full_coverage():
    sp = EdgeSpace(("e1", "e2"))
    with pytest.raises(InputError):
        TableCF("v", sp, (1, 1), [((0, 0), (0, 0))])


def test_table_rejects_selections_above_the_argument():
    sp = EdgeSpace(("e1",))
    with pytest.raises(InputError):
        TableCF("v", sp, (1,), [((0,), (1,)), ((1,), (1,))])


def test_table_rejects_entries_that_are_not_integers():
    """A float, a string or a bool is no integer, in a key or in a value."""
    sp = EdgeSpace(("a",))
    for bad in [(1.7,), ("1",), (True,)]:
        for row in [(bad, (0,)), ((1,), bad)]:
            with pytest.raises(InputError, match="integers"):
                TableCF("v", sp, (1,), [((0,), (0,)), row])
    with pytest.raises(InputError, match="integers"):
        TableCF("v", sp, (1,), [((0,), (0,)), ((1.7,), (0.9,))])
    cf = TableCF("v", sp, (1,), [((np.int64(0),), (0,)), ((1,), (np.int64(1),))])
    assert cf.choose_vals((1,)) == (1,)


def test_table_rejects_duplicate_rows():
    sp = EdgeSpace(("e1",))
    with pytest.raises(InputError):
        TableCF("v", sp, (1,), [((0,), (0,)), ((0,), (0,)), ((1,), (1,))])


def test_a_function_on_another_star_shares_its_memo_and_names_its_edges():
    base = quota_cf((2, 1), quota=2, order=["e2", "e1"])
    twin = base.on_star("v'", EdgeSpace(("a", "b")))
    assert (twin.vertex, twin.caps, twin._memo) == ("v'", base.caps, base._memo)
    for vals in full_box(base):
        assert twin.choose_vals(vals) == base.choose_vals(vals)
    assert twin.to_dict() == {"type": base.kind, "quota": 2, "order": ["b", "a"]}
    assert base.to_dict()["order"] == ["e2", "e1"]
    twin = sub_violating_table().on_star("u", EdgeSpace(("x", "y")))
    assert twin.choose(EdgeVector(twin.space, (1, 1))).to_mapping() == {"x": 1, "y": 0}
    assert [set(row["z"]) for row in twin.to_dict()["entries"]] == [{"x", "y"}] * 4
    with pytest.raises(InputError):
        base.on_star("v'", EdgeSpace(("a",)))


def test_choice_from_dict_builds_both_kinds():
    sp = EdgeSpace(("e1", "e2"))
    quota = choice_from_dict(
        "v", sp, (1, 1), {"type": "linear_order_quota", "quota": 1, "order": ["e2", "e1"]}
    )
    assert quota.choose_vals((1, 1)) == (0, 1)
    table = choice_from_dict(
        "v",
        sp,
        (1, 1),
        {
            "type": "table",
            "entries": [
                {"z": {}, "c": {}},
                {"z": {"e1": 1}, "c": {"e1": 1}},
                {"z": {"e2": 1}, "c": {}},
                {"z": {"e1": 1, "e2": 1}, "c": {"e1": 1}},
            ],
        },
    )
    assert table.choose_vals((1, 1)) == (1, 0)
    with pytest.raises(InputError):
        choice_from_dict("v", sp, (1, 1), {"type": "mystery"})


# -- predicates ---------------------------------------------------------------


def test_acceptability_is_fixedpointness():
    cf = quota_cf((1, 1), quota=1)
    assert is_acceptable(cf, vec(cf, 1, 0))
    assert not is_acceptable(cf, vec(cf, 1, 1))
    assert is_acceptable(cf, vec(cf, 0, 0))


def test_preference_is_resolved_by_the_joint_menu():
    cf = quota_cf((1, 1), quota=1)
    better, worse = vec(cf, 1, 0), vec(cf, 0, 1)
    assert prefers(cf, better, worse)
    assert not prefers(cf, worse, better)
    assert not prefers(cf, better, better)
    with pytest.raises(InputError):
        prefers(cf, vec(cf, 1, 1), better)


def test_incomparable_vectors_prefer_neither_way():
    sp = EdgeSpace(("e1", "e2", "e3"))
    entries = {z: z for z in itertools.product(range(2), repeat=3)}
    entries[(1, 1, 0)] = (1, 0, 0)
    entries[(1, 0, 1)] = (1, 0, 0)
    entries[(0, 1, 1)] = (0, 0, 0)
    entries[(1, 1, 1)] = (1, 0, 0)
    cf = TableCF("v", sp, (1, 1, 1), sorted(entries.items()))
    x = EdgeVector(sp, (0, 1, 0))
    y = EdgeVector(sp, (0, 0, 1))
    assert not prefers(cf, x, y) and not prefers(cf, y, x)


# -- axiom checking -----------------------------------------------------------


def test_quota_functions_pass_all_axioms_exhaustively():
    rng = random.Random(5150)
    for _ in range(12):
        k = rng.randint(1, 4)
        caps = [rng.randint(1, 3) for _ in range(k)]
        order = ["e{}".format(i + 1) for i in range(k)]
        rng.shuffle(order)
        cf = quota_cf(caps, rng.randint(0, sum(caps) + 1), order)
        for axiom in ("sub", "mon", "con", "gl"):
            report = check_axiom(cf, axiom)
            assert report.holds, (axiom, caps, cf.quota, report.witness)


def test_documented_table_fails_sub_with_a_live_witness():
    cf = sub_violating_table()
    report = check_axiom(cf, "sub")
    assert not report.holds
    assert report.witness["z"].vals == (1, 1)
    assert report.witness["zp"].vals == (1, 0)
    assert report.reevaluate(cf)
    doc = report.to_dict()
    assert doc["witness"]["z"] == {"e1": 1, "e2": 1}


def test_documented_table_also_fails_consistence_but_not_monotonicity():
    cf = sub_violating_table()
    assert check_axiom(cf, "mon").holds
    report = check_axiom(cf, "con")
    assert not report.holds
    assert report.reevaluate(cf)


def test_size_drop_is_caught_by_the_monotonicity_check():
    cf = mon_violating_table()
    report = check_axiom(cf, "mon")
    assert not report.holds
    assert report.reevaluate(cf)


def test_rejection_flip_is_caught_by_the_gapless_check():
    cf = gl_violating_table()
    report = check_axiom(cf, "gl")
    assert not report.holds
    assert report.witness["edge"] == "t"
    assert report.witness["rejected"] == ("t", "a", "t")
    assert report.reevaluate(cf)


def test_gapless_holds_for_the_documented_sub_violator():
    assert check_axiom(sub_violating_table(), "gl").holds


def test_conditional_order_table_passes_pairwise_axioms():
    inst = gated_instance()
    cf = inst.choice["w1"]
    for axiom in ("sub", "mon", "con"):
        assert check_axiom(cf, axiom).holds, axiom


def test_stationarity_of_quota_and_conditional_tables():
    functions = [
        quota_cf((2, 1, 2), quota=3),
        quota_cf((1, 1, 1), quota=2, order=("e3", "e1", "e2")),
        gated_instance().choice["w1"],
    ]
    for cf in functions:
        box = list(full_box(cf))
        for z in box:
            cz = cf.choose_vals(z)
            for zp in box:
                join = tuple(max(a, b) for a, b in zip(z, zp))
                inner = tuple(max(a, b) for a, b in zip(cz, zp))
                assert cf.choose_vals(join) == cf.choose_vals(inner)


def test_preference_is_transitive_under_the_axioms():
    cf = quota_cf((1, 1, 1), quota=2, order=("e2", "e3", "e1"))
    box = [EdgeVector(cf.space, vals) for vals in full_box(cf)]
    acceptable = [z for z in box if is_acceptable(cf, z)]
    for x, y, z in itertools.permutations(acceptable, 3):
        if prefers(cf, y, x) and prefers(cf, z, y):
            assert prefers(cf, z, x)


def test_pairwise_checks_match_the_full_box_oracle_on_random_tables():
    """Quota choices with about 30% of their rows shrunk by one unit or more:
    verdict, pair count and witness all equal the oracle's, on holding and
    on failing reports alike."""
    rng = random.Random(8128)
    verdicts = []
    for _ in range(200):
        k = rng.randint(1, 3)
        caps = [rng.randint(0, 3) for _ in range(k)]
        base = quota_cf(caps, rng.randint(0, sum(caps)))
        rows = []
        for z in full_box(base):
            c = list(base.choose_vals(z))
            held = [j for j, cj in enumerate(c) if cj]
            if held and rng.random() < 0.3:
                j = rng.choice(held)
                c[j] = rng.randrange(c[j])
            rows.append((z, tuple(c)))
        cf = TableCF("v", base.space, caps, rows)
        for axiom in ("SUB", "MON", "CON"):
            got = check_axiom(cf, axiom)
            want = oracle_check_pairwise(cf, axiom)
            assert (got.holds, got.pairs_checked, got.witness) == (
                want.holds,
                want.pairs_checked,
                want.witness,
            ), (caps, rows, axiom)
            verdicts.append((axiom, got.holds))
    for axiom in ("SUB", "MON", "CON"):
        assert verdicts.count((axiom, False)) >= 50
        assert verdicts.count((axiom, True)) >= 50


def test_gapless_check_matches_its_oracle_on_random_tables():
    """Quota choices with about 30% of their rows replaced by the menu less
    one unit, which makes single-unit rejections: verdict, comparison count
    and witness all equal the per-join oracle's, on holding and on failing
    reports alike."""
    rng = random.Random(496)
    verdicts = []
    for _ in range(200):
        k = rng.randint(2, 4)
        caps = [rng.randint(1, 2) for _ in range(k)]
        base = quota_cf(caps, rng.randint(1, sum(caps)))
        rows = []
        for z in full_box(base):
            c = base.choose_vals(z)
            held = [j for j, zj in enumerate(z) if zj]
            if held and rng.random() < 0.3:
                j = rng.choice(held)
                c = z[:j] + (z[j] - 1,) + z[j + 1 :]
            rows.append((z, c))
        cf = TableCF("v", base.space, caps, rows)
        got = check_axiom(cf, "GL")
        want = oracle_check_gl(cf)
        assert (got.holds, got.pairs_checked, got.witness) == (
            want.holds,
            want.pairs_checked,
            want.witness,
        ), (caps, rows)
        verdicts.append(got.holds)
    assert verdicts.count(False) >= 50
    assert verdicts.count(True) >= 50


def test_each_axiom_check_selects_once_over_the_box():
    """One ``batch_vals`` call over the whole box per check, on every
    acceptance star; the verdicts read everything else from it."""
    for caps, quota in ACCEPTANCE_STARS:
        cf = star_cf(caps, quota)
        select = cf.batch_vals
        calls = []

        def counted(arr):
            calls.append(len(arr))
            return select(arr)

        cf.batch_vals = counted
        for axiom in ("SUB", "MON", "CON", "GL"):
            calls.clear()
            assert check_axiom(cf, axiom, budget=10**8).holds
            assert calls == [cf.box_size()], (caps, axiom)


def test_pairwise_budget_is_enforced_before_work_starts():
    cf = quota_cf((9, 9, 9), quota=10)
    with pytest.raises(BudgetError):
        check_axiom(cf, "sub", budget=10)


def test_gapless_budget_is_enforced():
    cf = quota_cf((3, 3, 3), quota=2)
    with pytest.raises(BudgetError):
        check_axiom(cf, "gl", budget=1)


def test_unknown_axiom_is_rejected():
    cf = quota_cf((1,), quota=1)
    with pytest.raises(InputError):
        check_axiom(cf, "zzz")
