"""Choice functions: the greedy quota rule, tables, other stars, axiom checks."""

import itertools
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stablepartners
from stablepartners import BudgetError, InputError, InternalError, symmetrize
from stablepartners.choice import (
    ChoiceFunction,
    LinearOrderQuotaCF,
    TableCF,
    _GL_BLOCK,
    _bumped,
    _gl_plan,
    box_array,
    box_dtype,
    check_axiom,
    choice_from_dict,
    is_acceptable,
    prefers,
)
from stablepartners.core import EdgeSpace, EdgeVector

from conftest import (
    ACCEPTANCE_STARS,
    EdgeLimitQuotaCF,
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
    with pytest.raises(InputError, match="does not live on this star"):
        cf.choose(other)


def test_capacities_must_fit_the_star():
    with pytest.raises(InputError, match="capacity list does not match the star"):
        LinearOrderQuotaCF("v", EdgeSpace(("e1", "e2")), (1,), 1, ["e1", "e2"])
    with pytest.raises(InputError, match="capacities must be nonnegative"):
        quota_cf((1, -1), quota=1)


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


def test_batch_prefix_sums_past_int16_match_the_scalar_rule():
    """Rows whose prefix sums pass 32,767 and quotas above it, on
    capacities that put the sum of the star at either side of a narrow
    dtype's limit: the batch equals ``choose_vals`` row by row."""
    rng = random.Random(32768)
    wide = [(30000, 30000, 30000), (32767, 32768), (32768, 32768), (40000, 1, 40000)]
    for caps in wide:
        rows = [caps, (0,) * len(caps)]
        rows += [tuple(rng.randint(0, c) for c in caps) for _ in range(100)]
        arr = np.array(rows, dtype=box_dtype(caps))
        for quota in (5, 32767, 32768, 40000, 65535, 70000, sum(caps), sum(caps) + 1):
            order = ["e{}".format(i + 1) for i in range(len(caps))]
            rng.shuffle(order)
            cf = quota_cf(caps, quota, order)
            batch = cf.batch_vals(arr)
            assert batch.dtype == arr.dtype
            for row, got in zip(rows, batch.tolist()):
                assert tuple(got) == cf.choose_vals(row), (caps, quota, row)


@st.composite
def batch_cases(draw):
    """A choice function and rows of its box, in one of four layouts.

    A quota choice, with per-edge limits or not, has caps 0-3 or past int16
    (up to 70,000), and a quota that may pass the sum of its caps or every
    fixed-width dtype; a table has caps 0-3.  The rows come as a C-order or
    an F-order array, as a strided slice of a larger one, or as a list.
    """
    kind = draw(st.sampled_from(["quota", "edge_limit", "table"]))
    small = st.integers(0, 3)
    cap = small if kind == "table" else st.one_of(small, st.integers(32767, 70000))
    caps = draw(st.lists(cap, max_size=4))
    space = EdgeSpace(["e{}".format(i + 1) for i in range(len(caps))])
    order = draw(st.permutations(space.ids))
    total = sum(caps)
    quota = draw(st.one_of(st.integers(0, total), st.sampled_from([total + 1, 70000, 2**70])))
    cf = LinearOrderQuotaCF("v", space, caps, quota, order)
    if kind == "edge_limit":
        limits = [draw(st.integers(0, c)) for c in caps]
        cf = EdgeLimitQuotaCF("v", space, caps, quota, order, limits)
    elif kind == "table":
        cf = TableCF("v", space, caps, [(z, cf.choose_vals(z)) for z in full_box(cf)])
    row = st.tuples(*(st.integers(0, c) for c in caps))
    rows = draw(st.lists(row, min_size=1, max_size=6))
    arr = np.array(rows, dtype=box_dtype(caps)).reshape(len(rows), len(caps))
    layout = draw(st.sampled_from(["C", "F", "strided", "list"]))
    if layout == "F":
        return cf, np.asfortranarray(arr)
    if layout == "strided":
        wide = np.zeros((2 * len(rows), 2 * len(caps)), dtype=arr.dtype)
        wide[1::2, ::2] = arr
        return cf, wide[1::2, ::2]
    return cf, arr if layout == "C" else rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(batch_cases())
@example((quota_cf((40000, 1, 40000), 70000), [(40000, 1, 40000), (39999, 0, 40000)]))
@example((quota_cf((70000, 70000), 2**70, ("e2", "e1")), np.asfortranarray([[70000, 1]] * 3)))
def test_batches_keep_the_scalar_rule_and_the_dtype_in_every_layout(case):
    """``batch_vals`` equals ``choose_vals`` row by row and keeps the dtype
    of its input, whatever the memory layout of the rows."""
    cf, rows = case
    arr = np.asarray(rows)
    batch = cf.batch_vals(rows)
    assert batch.dtype == arr.dtype and batch.shape == arr.shape
    assert batch.tolist() == [list(cf.choose_vals(tuple(z))) for z in arr.tolist()]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 3), max_size=5))
@example([32768])
@example([0, 2, 0])
def test_the_box_lists_the_product_order_column_major(caps):
    """Rows in ``itertools.product`` order; each edge's column contiguous."""
    box = box_array(caps)
    assert box.shape == (math.prod(c + 1 for c in caps), len(caps))
    assert box.dtype == box_dtype(caps) and box.T.flags.c_contiguous
    assert box.tolist() == [list(z) for z in itertools.product(*(range(c + 1) for c in caps))]


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


def test_table_rejects_keys_outside_the_box():
    sp = EdgeSpace(("e1",))
    rows = [((0,), (0,)), ((1,), (1,)), ((2,), (1,))]
    with pytest.raises(InputError, match="table key outside the box"):
        TableCF("v", sp, (1,), rows)


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
    """One function serves every star of its size, and ``to_dict(ids)``
    names that star's edges.  A quota choice keeps no memo; a table keeps
    one for all the stars it serves.
    """
    base = quota_cf((2, 1), quota=2, order=["e2", "e1"])
    assert not hasattr(base, "_memo")
    on_ab = {"type": base.kind, "quota": 2, "order": ["b", "a"]}
    assert base.to_dict(("a", "b")) == on_ab
    assert base.to_dict()["order"] == ["e2", "e1"]
    table = sub_violating_table()
    doc = table.to_dict(("x", "y"))
    assert [set(row["z"]) for row in doc["entries"]] == [{"x", "y"}] * 4
    assert {"z": {"x": 1, "y": 1}, "c": {"x": 1, "y": 0}} in doc["entries"]
    named = choice_from_dict("u", EdgeSpace(("x", "y")), table.caps, doc)
    for vals in full_box(table):
        assert named.choose_vals(vals) == table.choose_vals(vals)
    assert table.to_dict()["entries"][0]["z"].keys() == set(table.space.ids)


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


class _FlippedQuotaCF(LinearOrderQuotaCF):
    """A quota choice with a few selections replaced, in ``_apply`` and in
    the batch alike: a table over a large box is slow to build."""

    def __init__(self, base, flips):
        super().__init__(base.vertex, base.space, base.caps, base.quota, base.order)
        self._flips = flips

    def _apply(self, vals):
        return self._flips.get(vals) or super()._apply(vals)

    def batch_vals(self, arr):
        arr = np.asarray(arr)
        out = super().batch_vals(arr)
        for z, c in self._flips.items():
            out[(arr == z).all(axis=1)] = c
        return out


def test_gapless_check_matches_its_oracle_on_a_box_past_uint16():
    """The 17-edge unit star with quota 2 has 131,072 vectors, so its join
    codes need more than 16 bits.  It holds; with two menus that reject the
    added edge itself it fails on a chain through a middle menu that rejects
    another edge.  Verdict, comparison count and witness equal the oracle's."""
    hub = star_cf([1] * 17, 2)
    assert hub.box_size() == 2**17

    def unit(*edges):
        return tuple(int(i + 1 in edges) for i in range(17))

    flips = {unit(1, 4, 5): unit(4, 5), unit(1, 2, 3): unit(2, 3)}
    flipped = _FlippedQuotaCF(hub, flips)
    reports = []
    for cf in (hub, flipped):
        got = check_axiom(cf, "GL")
        want = oracle_check_gl(cf)
        assert (got.holds, got.pairs_checked, got.witness) == (
            want.holds,
            want.pairs_checked,
            want.witness,
        )
        reports.append(got)
    assert reports[0].holds and reports[0].pairs_checked == 230400
    report = reports[1]
    assert not report.holds and report.pairs_checked == 120 * 120
    w = report.witness
    assert w["edge"] == "s1" and w["rejected"] == ("s1", "s4", "s1")
    chain = [w[key].vals for key in ("z1", "z2", "z3")]
    assert chain == [unit(4, 5), unit(3, 4), unit(2, 3)]
    assert report.reevaluate(flipped)


def test_gapless_comparison_counts_on_the_acceptance_stars():
    """The budget charges ``m * m`` comparisons per edge whose bumped rows
    reject two or more edges, whatever dtype holds the join codes."""
    counts = [
        check_axiom(star_cf(*star), "GL", budget=10**8).pairs_checked
        for star in ACCEPTANCE_STARS
    ]
    assert counts == [2940300, 61504, 9800, 3136]


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


def test_axiom_checks_leave_numpy_ma_unloaded():
    """GL marks its union of rows instead of calling ``np.unique``, which
    imports ``numpy.ma`` (about 10 ms) on its first call in a process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(stablepartners.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests, env.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "from conftest import ACCEPTANCE_STARS, star_cf\n"
        "from stablepartners import check_axiom\n"
        "cf = star_cf(*ACCEPTANCE_STARS[0])\n"
        "for axiom in ('SUB', 'MON', 'CON', 'GL'):\n"
        "    assert check_axiom(cf, axiom, budget=10**8).holds\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_pairwise_budget_is_enforced_before_work_starts():
    cf = quota_cf((9, 9, 9), quota=10)
    with pytest.raises(BudgetError):
        check_axiom(cf, "sub", budget=10)


def test_axiom_budgets_hold_exactly_at_their_boundaries():
    """Each budget is the largest that lets a check through.

    SUB, MON and CON charge ``k * |box|`` covering pairs before any work,
    and GL its comparisons as it goes; one less raises, with the figure in
    the message.  On the acceptance star of three cap-9 edges: 3,000 and
    9,800.
    """
    cf = star_cf(*ACCEPTANCE_STARS[2])
    work = len(cf.caps) * cf.box_size()
    assert work == 3000
    for axiom in ("SUB", "MON", "CON"):
        assert check_axiom(cf, axiom, budget=work).holds
        with pytest.raises(BudgetError, match="compares 3000 pairs, budget is 2999"):
            check_axiom(cf, axiom, budget=work - 1)
    pairs = check_axiom(cf, "GL", budget=10**8).pairs_checked
    assert pairs == 9800
    assert check_axiom(cf, "GL", budget=pairs).holds
    with pytest.raises(BudgetError, match="passed 9800 comparisons, budget is 9799"):
        check_axiom(cf, "GL", budget=pairs - 1)


def test_gapless_budget_is_enforced():
    cf = quota_cf((3, 3, 3), quota=2)
    with pytest.raises(BudgetError):
        check_axiom(cf, "gl", budget=1)


def _menu_less_one_tables(rng, count):
    """Quota choices on two to five edges of caps 0-3, in a random order, with
    about 30% of their rows replaced by the menu less one unit.
    Consecutive edges' GL rows often overlap too little to share a table,
    so their batches split; an edge of capacity 0 gives two edges the same
    mixed-radix weight; and an order that does not follow the ids makes
    rows prefer rows of a lower code."""
    for _ in range(count):
        k = rng.randint(2, 5)
        caps = [rng.randint(0, 3) for _ in range(k)]
        order = rng.sample(["e{}".format(i + 1) for i in range(k)], k)
        base = quota_cf(caps, rng.randint(0, sum(caps)), order)
        rows = []
        for z in full_box(base):
            c = base.choose_vals(z)
            held = [j for j, zj in enumerate(z) if zj]
            if held and rng.random() < 0.3:
                j = rng.choice(held)
                c = z[:j] + (z[j] - 1,) + z[j + 1 :]
            rows.append((z, c))
        yield TableCF("v", base.space, caps, rows)


def _gl_union_sizes(batches):
    """Each batch's number of rows; its mark over the box is the union of
    its edges' rows."""
    sizes = []
    for seen, edges in batches:
        union = np.unique(np.concatenate([edge[1] for edge in edges]))
        assert np.array_equal(np.flatnonzero(seen), union)
        sizes.append(len(union))
    return sizes


def test_gapless_batches_match_the_oracle_where_they_split():
    """Verdict, comparison count and witness equal the per-join oracle's
    where the edges fall into two or more batches, where the witness edge
    is outside the first batch, and on failing stars with an edge of
    capacity 0.  The batches' tables hold at most as many entries as the
    comparisons charged, and on the acceptance stars the 13-edge star's
    twelve charged edges share one table of 715 rows."""
    split = later = zero = 0
    for cf in _menu_less_one_tables(random.Random(38), 250):
        _, _, _, batches, charged = _gl_plan(cf, 10**8)
        got, want = check_axiom(cf, "GL"), oracle_check_gl(cf)
        assert (got.holds, got.pairs_checked, got.witness) == (
            want.holds,
            want.pairs_checked,
            want.witness,
        )
        assert sum(n * n for n in _gl_union_sizes(batches)) <= charged
        assert not got.holds or charged == got.pairs_checked
        split += len(batches) >= 2
        zero += 0 in cf.caps and not got.holds
        if not got.holds:
            first = [edge[0] for edge in batches[0][1]]
            later += got.witness["edge"] not in first
    assert split >= 50 and later >= 5 and zero >= 20
    sizes = [
        _gl_union_sizes(_gl_plan(star_cf(*star), 10**8)[3]) for star in ACCEPTANCE_STARS
    ]
    assert sizes == [[715], [155], [75], [56]]


def test_gapless_check_matches_its_oracle_where_a_table_spans_blocks():
    """The 13-edge unit star's table of 715 rows is built in several row
    blocks, on and above the diagonal, and copied below it.  With two menus
    that reject the added edge ``s1`` itself, it fails on a chain whose
    preferences are read on both sides of the diagonal: verdict, comparison
    count and witness equal the oracle's."""

    def unit(*edges):
        return tuple(int(i + 1 in edges) for i in range(13))

    star = star_cf(*ACCEPTANCE_STARS[0])
    flips = {
        unit(1, 10, 11, 12, 13): unit(10, 11, 12, 13),
        unit(1, 2, 3, 4, 5): unit(2, 3, 4, 5),
    }
    cf = _FlippedQuotaCF(star, flips)
    assert _gl_union_sizes(_gl_plan(cf, 10**8)[3]) == [715]
    assert 715 * 715 > 2 * _GL_BLOCK
    got, want = check_axiom(cf, "GL"), oracle_check_gl(cf)
    assert (got.holds, got.pairs_checked, got.witness) == (
        want.holds,
        want.pairs_checked,
        want.witness,
    )
    assert not got.holds and got.pairs_checked == 495 * 495
    w = got.witness
    assert w["edge"] == "s1" and w["rejected"] == ("s1", "s12", "s1")
    chain = [w[key].vals for key in ("z1", "z2", "z3")]
    assert chain == [unit(10, 11, 12, 13), unit(9, 10, 11, 12), unit(2, 3, 4, 5)]
    assert got.reevaluate(cf)


def test_gapless_budgets_at_every_edge_charge():
    """With the budget at each edge's running charge ``S`` and at ``S - 1``,
    the check returns the oracle's report if the oracle's witness edge (or,
    when GL holds, every edge) is charged within the budget, and otherwise
    raises with the first running charge past it.  Batches within the
    budget are searched before the check raises."""
    stars = [star_cf(*star) for star in ACCEPTANCE_STARS]
    for cf in stars + list(_menu_less_one_tables(random.Random(39), 40)):
        want = oracle_check_gl(cf)
        charges = [edge[3] for _, b in _gl_plan(cf, 10**8)[3] for edge in b]
        assert want.pairs_checked in charges or want.pairs_checked == 0 == len(charges)
        for budget in sorted({s - d for s in charges for d in (0, 1)}):
            if want.pairs_checked <= budget:
                got = check_axiom(cf, "GL", budget=budget)
                assert (got.holds, got.pairs_checked, got.witness) == (
                    want.holds,
                    want.pairs_checked,
                    want.witness,
                )
                continue
            past = min(s for s in charges if s > budget)
            message = "passed {} comparisons, budget is {}$".format(past, budget)
            with pytest.raises(BudgetError, match=message):
                check_axiom(cf, "GL", budget=budget)


def test_unknown_axiom_is_rejected():
    cf = quota_cf((1,), quota=1)
    with pytest.raises(InputError):
        check_axiom(cf, "zzz")


# -- one-edge questions -------------------------------------------------------


def question_cases(cf):
    """Every one-edge question the solvers may ask ``cf``, with its arguments.

    ``accepts`` at every star of the box; ``wants``, ``refuses`` and
    ``bumps`` at every acceptable star and position with room; ``gains``
    at every acceptable star less one held unit, on every set of other
    positions with room that the star refuses.  Acceptance and refusal
    are read off ``choose_vals``.
    """
    for z in full_box(cf):
        yield "accepts", (z,)
        if cf.choose_vals(z) != z:
            continue
        room = [j for j, c in enumerate(cf.caps) if z[j] < c]
        for j in room:
            for question in ("wants", "refuses", "bumps"):
                yield question, (z, j)
        refused = [j for j in room if cf.choose_vals(_bumped(z, j)) == z]
        for i in (i for i, held in enumerate(z) if held):
            others = [j for j in refused if j != i]
            for r in range(len(others) + 1):
                for candidates in itertools.combinations(others, r):
                    yield "gains", (_bumped(z, i, -1), list(candidates))


def assert_base_answers(cf):
    """Each question's answer is the base class's, through ``choose_vals``,
    which selects as the function's own ``_apply``."""
    for z in full_box(cf):
        assert cf.choose_vals(z) == tuple(cf._apply(z)), z
    for question, args in question_cases(cf):
        got = getattr(cf, question)(*args)
        assert got == getattr(ChoiceFunction, question)(cf, *args), (question, args)


@st.composite
def question_functions(draw):
    """A quota choice, or a quota subclass or table with its own selection.

    Random order, caps 0-3, quota 0 up to the cap sum.  The subclasses
    limit each edge (:class:`EdgeLimitQuotaCF`) or replace a few
    selections by subvectors of their menus (:class:`_FlippedQuotaCF`);
    the table holds the quota choice's rows with the same replacements.
    """
    caps = draw(st.lists(st.integers(0, 3), max_size=4))
    space = EdgeSpace(["e{}".format(i + 1) for i in range(len(caps))])
    order = draw(st.permutations(space.ids))
    cf = LinearOrderQuotaCF("v", space, caps, draw(st.integers(0, sum(caps))), order)
    kind = draw(st.sampled_from(["quota", "edge_limit", "flipped", "table"]))
    if kind == "edge_limit":
        limits = [draw(st.integers(0, c)) for c in caps]
        return EdgeLimitQuotaCF("v", space, caps, cf.quota, order, limits)
    flips = {}
    for z in draw(st.lists(st.sampled_from(list(full_box(cf))), max_size=3)):
        flips[z] = draw(st.tuples(*(st.integers(0, v) for v in z)))
    if kind == "flipped":
        return _FlippedQuotaCF(cf, flips)
    if kind == "table":
        rows = [(z, flips.get(z, cf.choose_vals(z))) for z in full_box(cf)]
        return TableCF("v", space, caps, rows)
    return cf


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(question_functions())
@example(quota_cf((), quota=0))
@example(quota_cf((2,), quota=1))
@example(quota_cf((3, 1, 2), quota=3, order=("e3", "e1", "e2")))
def test_questions_answer_as_the_base_class_does(cf):
    """Quota choices read their answers off the star; the others run
    their own ``_apply``.  Degrees 0 and 1 are among the examples."""
    assert_base_answers(cf)


def test_copies_in_a_double_answer_as_the_base_class_does(triangle, b4):
    """The double's copies of quota choices and of ``gated_instance``'s table."""
    kinds = set()
    for inst in (triangle, b4, gated_instance()):
        for cf in symmetrize(inst).graph.choice.values():
            assert_base_answers(cf)
            kinds.add(type(cf))
    assert kinds == {LinearOrderQuotaCF, TableCF}


def test_quota_subclasses_with_their_own_apply_answer_through_it():
    """The greedy summaries would answer wrongly for a subclass's selection.

    Limited to one unit of ``e1``, the star ``(1, 0)`` takes no more
    ``e1``, though it is under its quota of 2.  The subclass keeps a memo.
    """
    space = EdgeSpace(("e1", "e2"))
    cf = EdgeLimitQuotaCF("v", space, (2, 2), 2, ("e1", "e2"), (1, 2))
    assert LinearOrderQuotaCF.wants(cf, (1, 0), 0)
    assert not cf.wants((1, 0), 0) and cf.refuses((1, 0), 0)
    assert cf.choose_vals((2, 0)) == (1, 0) and cf._memo == {(2, 0): (1, 0)}
    for name in ("choose_vals", "accepts", "wants", "refuses", "bumps", "gains"):
        assert getattr(type(cf), name) is getattr(ChoiceFunction, name)
        assert getattr(_FlippedQuotaCF, name) is getattr(ChoiceFunction, name)


class _OffMenuCF(ChoiceFunction):
    """Selects one unit more than offered at the first edge."""

    def _apply(self, vals):
        return (vals[0] + 1,) + vals[1:]


def test_a_choice_that_leaves_its_menu_raises():
    cf = _OffMenuCF("v", EdgeSpace(("a", "b")), (1, 1))
    with pytest.raises(InternalError, match=r"choice at 'v' left the menu: C\(0, 1\)"):
        cf.choose_vals((0, 1))
    with pytest.raises(InternalError, match="left the menu"):
        cf.wants((0, 0), 1)
    assert cf._memo == {}
