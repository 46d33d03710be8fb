"""Acceptance gate: each test ties one advertised capability to brute force.

Every check here runs against seeded random corpora large enough to hit
the interesting structure (weighted rotations, odd cores, unsolvable
instances) and keeps an explicit count of the non-trivial cases it saw,
so a quietly degenerate corpus fails loudly instead of passing by luck.
"""

from stablepartners import (
    check_axiom,
    climb,
    closed_from_vector,
    deferred_acceptance,
    enumerate_stable,
    family_from_route,
    full_routes,
    is_singular,
    is_stable,
    lattice_extremes,
    lift_vector,
    project_solution,
    run_qb,
    solve,
    verify_half_partnership,
)

from conftest import (
    ACCEPTANCE_STARS,
    cycle_rotation,
    edgevec,
    immediate_successors,
    mirror_occurrences,
    star_cf,
    sub_violating_table,
    vec_plus,
)


def test_extremes_and_successor_steps_match_brute_force(bipartite_artifacts):
    """Deferred acceptance finds both lattice ends, and the rotations at
    every stable vector step to exactly its immediate successors."""
    assert len(bipartite_artifacts) >= 200
    multi = 0
    sites = 0
    for inst, stable, rotations in bipartite_artifacts:
        lo, hi = lattice_extremes(inst, stable=stable)
        assert deferred_acceptance(inst, "W") == lo
        assert deferred_acceptance(inst, "F") == hi
        if len(stable) > 1:
            multi += 1
        for x, rots in rotations:
            sites += len(rots)
            stepped = sorted(climb(inst, x, r, limit=1)[1].vals for r in rots)
            above = immediate_successors(inst, x, stable=stable)
            assert stepped == sorted(y.vals for y in above)
    assert multi >= 50
    assert sites >= 300


def test_applicable_rotations_are_disjoint_and_shift_choices_cleanly(
    bipartite_artifacts,
):
    """At any stable vector the applicable rotations share no edges, and
    offering a rotation's gained units to a visited right-side vertex makes
    its choice function drop exactly the units the rotation takes away."""
    shift_checks = 0
    for inst, stable, rotations in bipartite_artifacts:
        for x, rots in rotations:
            for i, first in enumerate(rots):
                for second in rots[i + 1 :]:
                    assert not set(first.edges) & set(second.edges)
            for rot in rots:
                visited = {v for k, (v, _) in enumerate(rot.steps) if k % 2 == 1}
                for f in visited:
                    xf = tuple(x[e] for e in inst.star_ids[f])
                    chi = tuple(rot.chi[e] for e in inst.star_ids[f])
                    menu = tuple(a + max(s, 0) for a, s in zip(xf, chi))
                    want = tuple(m - max(-s, 0) for m, s in zip(menu, chi))
                    assert inst.choice[f].choose_vals(menu) == want
                    shift_checks += 1
    assert shift_checks >= 300


def test_full_routes_obey_length_peak_and_family_invariance(bipartite_corpus):
    """Every full route is short, moves each edge up then down at most
    once, and uses the same weighted rotations as every other route."""
    total_routes = 0
    multi_route = 0
    for inst in bipartite_corpus:
        routes = list(full_routes(inst, limit=64))
        total_routes += len(routes)
        if len(routes) >= 2:
            multi_route += 1
        bound = max(inst.caps.vals) * len(inst.space) / 2
        families = []
        for route in routes:
            assert len(route.steps) <= bound
            vectors = route.vectors()
            for pos in range(len(inst.space)):
                seq = [v.vals[pos] for v in vectors]
                peak = seq.index(max(seq))
                assert all(a <= b for a, b in zip(seq[: peak + 1], seq[1 : peak + 1]))
                assert all(a >= b for a, b in zip(seq[peak:], seq[peak + 1 :]))
            families.append(family_from_route(route).multiset())
        for fam in families[1:]:
            assert fam == families[0]
    assert total_routes >= 250
    assert multi_route >= 30


def test_mirror_laws_hold_across_doubled_instances(doubled_artifacts):
    """Reflecting a doubled instance complements occurrence weights,
    reverses precedence, and keeps self-mirrored rotations independent."""
    assert len(doubled_artifacts) >= 100
    weight_checks = 0
    precedence_pairs = 0
    for _, si, order, dbl_stable in doubled_artifacts:
        mapping = mirror_occurrences(si, order)
        for x in dbl_stable:
            lam = closed_from_vector(si.graph, order, x)
            mirrored = closed_from_vector(si.graph, order, si.reflect_vector(x))
            for occ in order.occurrences:
                paired = mapping[occ]
                assert lam.weights[occ] + mirrored.weights[paired] == order.tau[occ]
                weight_checks += 1
        for a, b in order.less:
            assert (mapping[b], mapping[a]) in order.less
            precedence_pairs += 1
        fixed = [o for o in order.occurrences if is_singular(si, o.rotation)]
        for i, a in enumerate(fixed):
            for b in fixed[i + 1 :]:
                if a.rotation.steps != b.rotation.steps:
                    assert not set(a.rotation.edges) & set(b.rotation.edges)
                    assert (a, b) not in order.less
                    assert (b, a) not in order.less
    assert weight_checks >= 100
    assert precedence_pairs >= 1


def test_balancing_sweep_reaches_a_quasi_balanced_vector(doubled_artifacts):
    """The sweep's endpoint splits every occurrence's weight with its
    mirror, short by one exactly on the odd core; an empty odd core folds
    straight down to a stable vector of the base instance."""
    odd_cores = 0
    folded = 0
    for inst, si, order, _ in doubled_artifacts:
        outcome = run_qb(si)
        mapping = mirror_occurrences(si, order)
        lam = closed_from_vector(si.graph, order, outcome.vector)
        odd_steps = {rot.steps for rot in outcome.odd_core}
        for occ in order.occurrences:
            expected = order.tau[occ] - (1 if occ.rotation.steps in odd_steps else 0)
            assert lam.weights[occ] + lam.weights[mapping[occ]] == expected
        if outcome.odd_core:
            odd_cores += 1
        else:
            hp = project_solution(si, outcome)
            assert hp.cycles == ()
            assert is_stable(inst, hp.x).stable
            folded += 1
    assert odd_cores >= 10
    assert folded >= 10


def test_solver_matches_brute_force_and_ignores_its_seed(
    general_corpus, bipartite_artifacts, triangle
):
    """Solve always returns a verified outcome, calls solvability exactly
    as enumeration does, picks the same cycle set under every seed, and
    finds no cycles on two-sided instances."""
    unsolvable = 0
    for inst in general_corpus:
        result = solve(inst)
        assert verify_half_partnership(inst, result.hp).ok
        assert result.solvable == bool(enumerate_stable(inst))
        cycles = [c.to_list() for c in result.hp.cycles]
        for seed in range(1, 5):
            assert [c.to_list() for c in solve(inst, seed=seed).hp.cycles] == cycles
        if not result.solvable:
            unsolvable += 1
    assert unsolvable >= 10

    spinner = solve(triangle)
    assert not spinner.solvable
    assert len(spinner.hp.cycles) == 1
    assert len(spinner.hp.cycles[0].steps) == 3

    for inst, stable, _ in bipartite_artifacts:
        result = solve(inst)
        assert result.solvable
        assert result.hp.cycles == ()
        assert any(result.hp.x == x for x in stable)


def test_choice_axioms_verified_exhaustively_on_stars():
    """Order-with-quota choices pass all four axioms over entire boxes of
    up to ten thousand vectors, and a table that keeps a unit after losing
    its companion is caught with a checkable witness."""
    for caps, quota in ACCEPTANCE_STARS:
        cf = star_cf(caps, quota)
        assert cf.box_size() <= 10**4
        for axiom in ("SUB", "MON", "CON", "GL"):
            report = check_axiom(cf, axiom, budget=10**8)
            assert report.holds
            assert report.witness is None
            assert report.pairs_checked > 0

    bad = sub_violating_table()
    report = check_axiom(bad, "SUB", budget=10**8)
    assert not report.holds
    z, zp = report.witness["z"], report.witness["zp"]
    kept = bad.choose_vals(z.vals)
    kept_after = bad.choose_vals(zp.vals)
    assert any(min(k, p) > a for k, p, a in zip(kept, zp.vals, kept_after))


def test_verified_solutions_lift_to_stable_vectors_of_the_double(general_corpus):
    """Lifting a solver outcome lands on a stable vector of the doubled
    instance whose reflection differs by exactly the cycle rotations."""
    with_cycles = 0
    for inst in general_corpus:
        result = solve(inst)
        si = result.symmetric
        lifted = lift_vector(si, result.hp)
        assert is_stable(si.graph, lifted).stable
        shift = si.reflect_vector(lifted).minus(lifted)
        total = edgevec(si.graph, {})
        for cyc in result.hp.cycles:
            total = vec_plus(total, cycle_rotation(si, cyc).chi)
        assert shift == total
        if result.hp.cycles:
            with_cycles += 1
    assert with_cycles >= 10
