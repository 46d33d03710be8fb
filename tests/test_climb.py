"""The single ray walk and its local checks, against whole-instance oracles.

Every candidate walk and every rotation found on the two seeded corpora is
decided twice: locally, as the library does it, and with the whole-instance
:func:`is_stable` and :func:`precedes_F`.  Every ray of the corpora, of a
seeded high-capacity set, of markets with table choices and of the
balancing sweep on doubled high-capacity rings is probed out to the box
edge, and the galloping :func:`climb` is compared with the unit-step
oracle on it.
"""

import itertools
import math
import random

import numpy as np
import pytest

from stablepartners import (
    EdgeSpace,
    EdgeVector,
    InputError,
    build_full_route,
    check_axiom,
    climb,
    deferred_acceptance,
    enumerate_stable,
    find_rotations,
    instance_from_dict,
    is_singular,
    is_stable,
    precedes_F,
    run_qb,
    solve,
    symmetrize,
)
from stablepartners.bipartite import (
    _climb,
    _ray_point,
    _shift_holds,
    _walk_frame,
)

from conftest import (
    EdgeLimitQuotaCF,
    b4_doc,
    count_choices,
    gated_instance,
    high_cap_market,
    oracle_candidate_walks,
    oracle_two_pass_walk,
    raw_shift,
    ring_doc,
    route_vectors,
    table_market,
    vec_plus,
    with_edge_limits,
)


def walk_shift(inst, x, steps):
    """``x`` plus the walk's incidence vector, read off the steps directly."""
    vals = list(x.vals)
    for p, sign in raw_shift(inst, steps):
        vals[p] += sign
    return EdgeVector(inst.space, vals)


def local_and_full_verdicts(inst, stable):
    """Both verdicts on every candidate walk at every stable vector.

    Each rotation found there is also run backwards from its landing: that
    shift stays stable but falls on the firm side.
    """
    out = []
    for x in stable:
        walks = [(x, steps) for steps in oracle_candidate_walks(inst, x)]
        walks += [
            (vec_plus(x, rot.chi), rot.steps[1:] + rot.steps[:1])
            for rot in find_rotations(inst, x)
        ]
        for base, steps in walks:
            y = walk_shift(inst, base, steps)
            full = (
                inst.in_box(y)
                and is_stable(inst, y).stable
                and precedes_F(inst, base, y)
            )
            frame = _walk_frame(inst, raw_shift(inst, steps))
            local = _ray_point(inst, base.vals, frame)
            out.append((local is not None, full))
    return out


def test_local_verdicts_match_the_whole_instance_check_on_the_bipartite_corpus(
    bipartite_artifacts,
):
    verdicts = []
    for inst, stable, _ in bipartite_artifacts:
        verdicts += local_and_full_verdicts(inst, stable)
    assert all(local == full for local, full in verdicts)
    assert {full for _, full in verdicts} == {True, False}


def test_local_verdicts_match_the_whole_instance_check_on_the_doubled_corpus(
    doubled_artifacts,
):
    verdicts = []
    for _, si, _, dbl_stable in doubled_artifacts:
        verdicts += local_and_full_verdicts(si.graph, dbl_stable)
    assert all(local == full for local, full in verdicts)
    assert True in {full for _, full in verdicts}


def check_ray(inst, x, rot, ceilings, rng, every_k=True):
    """One ray against the unit-step oracle, probed out to the box edge.

    The interval property: the local check against ``x`` holds at
    ``x + k chi`` exactly for ``k = 1..tau``, where ``tau`` is the oracle's
    weight.  Then ``climb`` must reach the oracle's landing with and
    without ``verified`` and with limits from 0 to past ``tau``, and
    :func:`_climb` must reach the oracle's landing under each ceiling at
    which every firm off the rotation weakly prefers its star, as in
    :func:`closed_from_vector`; a point inside the ray is always one.  With ``every_k`` each
    local verdict is also compared with the whole-instance check, and
    every ``k = 1..tau`` is tried as a limit, with and without
    ``verified``; long rays pass ``every_k=False`` and try every ``k`` up
    to 64, the gallop points and their neighbours, ``tau`` and a few
    random ``k``.  Returns ``tau`` and the number of in-box points past
    it.
    """
    tau, top = oracle_two_pass_walk(inst, x, rot)
    assert tau >= 1
    shift, touched, near = _walk_frame(inst, rot.shift)
    holds = []
    y = vec_plus(x, rot.chi)
    while inst.in_box(y):
        local = _shift_holds(inst, x.vals, y.vals, touched, near)
        if every_k:
            assert local == (is_stable(inst, y).stable and precedes_F(inst, x, y))
        holds.append(local)
        y = vec_plus(y, rot.chi)
    assert holds == [True] * tau + [False] * (len(holds) - tau)

    assert climb(inst, x, rot) == (tau, top)
    assert climb(inst, x, rot, verified=True) == (tau, top)
    if every_k:
        weights = set(range(1, tau + 1))
    else:
        gallop = [2**i for i in range(tau.bit_length())]
        weights = set(range(1, 65))
        weights |= {k + d for k in gallop + [tau] for d in (-1, 0, 1)}
        weights |= {rng.randint(1, tau) for _ in range(8)}
    for k in sorted(w for w in weights if 1 <= w <= tau):
        y = vec_plus(x, rot.chi, k)
        assert climb(inst, x, rot, limit=k, verified=True) == (k, y)
        assert climb(inst, x, rot, limit=k) == (k, y)
    for limit in (0, tau + 1, 2 * tau + 3):
        w = min(limit, tau)
        assert climb(inst, x, rot, limit=limit, verified=True) == (
            w,
            vec_plus(x, rot.chi, w),
        )
    assert climb(inst, x, rot, limit=tau + 1) == (tau, top)
    inside = vec_plus(x, rot.chi, rng.randint(1, tau))
    frame = _walk_frame(inst, rot.shift)
    assert firms_off_the_walk_rise_to(inst, x, rot, inside)
    for ceiling in list(ceilings) + [inside]:
        if firms_off_the_walk_rise_to(inst, x, rot, ceiling):
            assert _climb(inst, x, frame, ceiling) == (
                oracle_two_pass_walk(inst, x, rot, ceiling=ceiling)
            )
    return tau, len(holds) - tau


def firms_off_the_walk_rise_to(inst, x, rot, ceiling):
    """True iff every firm off ``rot`` weakly prefers its star in ``ceiling``.

    That is the contract under which :func:`closed_from_vector` hands
    :func:`_climb` its ceiling; every point of the ray meets it.
    """
    on_walk = {v for v, _ in rot.steps}
    for f in inst.parts[1] - on_walk:
        spots = inst.star_positions[f]
        mine = tuple(ceiling.vals[i] for i in spots)
        join = tuple(max(ceiling.vals[i], x.vals[i]) for i in spots)
        if inst.choice[f].choose_vals(join) != mine:
            return False
    return True


def test_climb_matches_the_two_pass_walk_on_the_bipartite_corpus(bipartite_artifacts):
    rng = random.Random(1)
    for inst, stable, rotations in bipartite_artifacts:
        for x, rots in rotations:
            for rot in rots:
                check_ray(inst, x, rot, stable, rng)


def test_climb_matches_the_two_pass_walk_on_the_doubled_corpus(doubled_artifacts):
    rng = random.Random(2)
    for _, si, _, dbl_stable in doubled_artifacts:
        for x in dbl_stable:
            for rot in find_rotations(si.graph, x):
                check_ray(si.graph, x, rot, dbl_stable, rng)


def test_public_walks_reject_what_they_cannot_do(bipartite_artifacts):
    """A climb stops at its weight and does not move past the ray's end.

    An unstable start raises :class:`InputError`.
    """
    unstable_starts = 0
    for inst, _, rotations in bipartite_artifacts:
        for x, rots in rotations:
            for rot in rots:
                weight, y = oracle_two_pass_walk(inst, x, rot)
                assert climb(inst, x, rot, limit=weight + 1) == (weight, y)
                assert climb(inst, y, rot) == (0, y)
                assert climb(inst, y, rot, limit=1) == (0, y)
                for e in inst.space.ids:
                    if e in rot.edges or x[e] >= inst.caps[e]:
                        continue
                    u = x.add_unit(e)
                    if is_stable(inst, u).stable:
                        continue
                    unstable_starts += 1
                    with pytest.raises(InputError):
                        climb(inst, u, rot)
                    with pytest.raises(InputError):
                        climb(inst, u, rot, limit=1)
    assert unstable_starts > 0


def test_climb_needs_a_vector_and_a_rotation_of_the_instance(b4, triangle):
    lo = deferred_acceptance(b4, "W")
    rot = find_rotations(b4, lo)[0]
    double = symmetrize(triangle).graph
    other = deferred_acceptance(double, "W")
    with pytest.raises(InputError):
        climb(double, other, rot)
    with pytest.raises(InputError):
        climb(b4, other, rot)
    assert climb(b4, lo, rot, limit=0) == (0, lo)


def test_climb_takes_any_integer_limit_and_no_other(b4):
    """A limit follows the integer rule of capacities and weights.

    A numpy integer is an integer and gives the plain ``int`` result; a
    float, a bool or a negative number is rejected.
    """
    lo = deferred_acceptance(b4, "W")
    rot = find_rotations(b4, lo)[0]
    for limit in (0, 1, 2):
        weight, y = climb(b4, lo, rot, limit=np.int64(limit))
        assert type(weight) is int
        assert (weight, y) == climb(b4, lo, rot, limit=limit)
    for bad in (1.0, True, -1, np.int64(-1), "1"):
        with pytest.raises(InputError, match="limit"):
            climb(b4, lo, rot, limit=bad)


@pytest.mark.parametrize("verified", [False, True])
def test_climb_rejects_a_ceiling_outside_the_box(b4, verified):
    """:func:`climb` takes no ceiling: the box alone bounds its landing.

    Under a ceiling one step up, :func:`_climb` lands on it.
    """
    lo = deferred_acceptance(b4, "W")
    rot = find_rotations(b4, lo)[0]
    frame = _walk_frame(b4, rot.shift)
    hi = vec_plus(lo, rot.chi)
    assert b4.in_box(hi) and not b4.in_box(vec_plus(hi, rot.chi))
    assert climb(b4, lo, rot, verified=verified) == (1, hi)
    assert _climb(b4, lo, frame, hi) == (1, hi)
    under = EdgeVector(b4.space, [-1] * len(b4.space))
    with pytest.raises(TypeError, match="ceiling"):
        climb(b4, lo, rot, ceiling=under, verified=verified)


def test_climb_rejects_an_unstable_ceiling_unless_verified(b4):
    """An unstable start raises unless verified; :func:`_climb` trusts its ceiling.

    A ceiling below the start at the rotation's firms stops it at once.
    """
    lo = deferred_acceptance(b4, "W")
    rot = find_rotations(b4, lo)[0]
    frame = _walk_frame(b4, rot.shift)
    zero = EdgeVector(b4.space, [0] * len(b4.space))
    assert not is_stable(b4, zero).stable
    with pytest.raises(InputError, match="stable"):
        climb(b4, zero, rot)
    assert _climb(b4, lo, frame, zero) == (0, lo)


# -- long rays ---------------------------------------------------------------


def test_edge_limited_quotas_keep_the_axioms():
    rng = random.Random(3)
    space = EdgeSpace(["a", "b", "c"])
    for _ in range(20):
        caps = [rng.randint(0, 3) for _ in range(3)]
        order = rng.sample(space.ids, 3)
        limits = [rng.randint(0, c) for c in caps]
        cf = EdgeLimitQuotaCF("v", space, caps, rng.randint(0, 6), order, limits)
        for axiom in ("SUB", "MON", "CON"):
            assert check_axiom(cf, axiom).holds
        for z in itertools.product(*[range(c + 1) for c in caps]):
            assert tuple(cf.batch_vals([z])[0]) == cf.choose_vals(z)


def test_long_rays_match_the_unit_step_walk():
    """High-capacity markets: caps 50-500, every ray met on two routes.

    Ceilings are the vectors met on the routes and a point inside the ray.
    """
    rng = random.Random(6)
    rays = []
    for _ in range(24):
        inst = high_cap_market(rng)
        met = route_vectors(inst)
        for x in met:
            for rot in find_rotations(inst, x):
                rays.append(check_ray(inst, x, rot, met, rng, every_k=False))
    assert len(rays) >= 20
    assert max(tau for tau, _ in rays) >= 200
    # Edge limits stop some rays strictly inside the box.
    assert sum(1 for _, past in rays if past) >= 8


def test_small_rays_match_the_unit_step_walk_under_every_stable_ceiling():
    rng = random.Random(7)
    rays = 0
    while rays < 20:
        inst = high_cap_market(rng, 4, 9)
        if math.prod(c + 1 for c in inst.caps.vals) > 20_000:
            continue
        stable = enumerate_stable(inst)
        for x in stable:
            for rot in find_rotations(inst, x):
                check_ray(inst, x, rot, stable, rng)
                rays += 1


def test_table_choice_rays_match_the_unit_step_walk():
    """Rays where the choices are tables that pass SUB, MON and CON.

    The gated instance, whose maximal weights jump after another rotation,
    and seeded markets whose choices are mostly conditional-order, laminar
    or shrunk tables (:func:`table_market`).  Every stable vector that
    meets the ceiling contract of :func:`closed_from_vector` is a ceiling.
    """
    rng = random.Random(9)
    markets = [(gated_instance(), {"w1"})]
    markets += [table_market(rng) for _ in range(300)]
    through_tables = 0
    taus = set()
    for inst, tabled in markets:
        stable = enumerate_stable(inst)
        for x in stable:
            for rot in find_rotations(inst, x):
                tau, _ = check_ray(inst, x, rot, stable, rng)
                through_tables += bool(tabled & {v for v, _ in rot.steps})
                taus.add(tau)
    assert through_tables >= 150
    assert max(taus) >= 5


def oracle_run_qb(si, seed):
    """The balancing sweep with every climb replaced by the unit-step walk.

    Returns the sweep's picks and the vector it reaches; each vector the
    sweep stands on is checked stable with the whole-instance check.
    """
    graph = si.graph
    x = deferred_acceptance(graph, "W")
    rng = random.Random(seed)
    used = set()
    picks = []
    while True:
        fresh = [
            r
            for r in find_rotations(graph, x)
            if si.reflect_rotation(r).steps not in used
        ]
        if not fresh:
            return tuple(picks), x
        rot = fresh[rng.randrange(len(fresh))]
        tau, _ = oracle_two_pass_walk(graph, x, rot)
        weight = tau // 2 if is_singular(si, rot) else tau
        picks.append((x, rot, weight, tau))
        x = vec_plus(x, rot.chi, weight)
        assert is_stable(graph, x).stable
        used.add(rot.steps)


def test_balancing_sweep_on_high_capacity_rings_matches_the_unit_step_walk():
    """Doubled odd and even rings, caps 50-500, half with edge limits.

    The sweep's picks, weights (singular half steps included), landing and
    odd core equal those of the unit-step sweep, and each ray it climbs
    passes :func:`check_ray`.
    """
    rng = random.Random(8)
    singular = odd = 0
    for n, limited in [(3, False), (5, False), (3, True), (5, True), (4, False), (6, True)]:
        cap = rng.randint(50, 500)
        # An odd quota gives a singular rotation an odd weight.
        inst = instance_from_dict(ring_doc(n, cap, rng.randint(cap // 2, cap) | 1))
        if limited:
            inst = with_edge_limits(rng, inst, inst.vertices)
        si = symmetrize(inst)
        outcome = run_qb(si)
        picks, top = oracle_run_qb(si, 0)
        assert outcome.picks == tuple((rot, w, tau) for _, rot, w, tau in picks)
        assert outcome.vector == top
        assert outcome.odd_core == tuple(
            sorted(
                rot
                for _, rot, _, tau in picks
                if tau % 2 and is_singular(si, rot)
            )
        )
        met = [x for x, _, _, _ in picks] + [top]
        for x, rot, _, tau in picks:
            assert check_ray(si.graph, x, rot, met, rng, every_k=False)[0] == tau
            if is_singular(si, rot):
                singular += 1
                odd += tau % 2
    assert singular >= 4 and odd >= 2


def test_high_capacities_cost_few_choice_calls(monkeypatch):
    """Climbs gallop, so the work grows with the log of the capacity.

    A unit-step walk makes about twelve choice calls per unit step: 120,054
    for the block's route, and 530,281 for the ring's solve already at a
    cap of 10**4 + 1.  The ring's singular half step is one probe, not a
    second climb that repeats the gallop points (2,695 calls).
    """
    block = instance_from_dict(b4_doc(cap=10**4))
    ring = instance_from_dict(ring_doc(5, 10**6 + 1, 10**6 + 1))
    calls = count_choices(monkeypatch)
    route = build_full_route(block)
    assert [step.weight for step in route.steps] == [10**4]
    assert calls[0] <= 1_000
    calls[0] = 0
    result = solve(ring)
    assert calls[0] <= 5_000
    assert calls[0] <= 2_300
    assert not result.solvable and result.report.ok
    assert [(w, tau) for _, w, tau in result.outcome.picks] == [(5 * 10**5, 10**6 + 1)]
