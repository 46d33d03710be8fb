"""The single ray walk and its local checks, against whole-instance oracles.

Every candidate walk and every rotation found on the two seeded corpora is
decided twice: locally, as the library does it, and with the whole-instance
:func:`is_stable` and :func:`precedes_F`.
"""

import pytest

from stablepartners import (
    EdgeVector,
    InputError,
    apply_rotation,
    climb,
    deferred_acceptance,
    find_rotations,
    is_stable,
    max_feasible_weight,
    precedes_F,
    symmetrize,
)
from stablepartners.bipartite import _candidate_walks, _walk_holds

from conftest import oracle_two_pass_walk


def walk_shift(inst, x, steps):
    """``x`` plus the walk's incidence vector, read off the steps directly."""
    vals = list(x.vals)
    for i, (_, e) in enumerate(steps):
        vals[inst.space.index[e]] += 1 if i % 2 == 0 else -1
    return EdgeVector(inst.space, vals)


def local_and_full_verdicts(inst, stable):
    """Both verdicts on every candidate walk at every stable vector.

    Each rotation found there is also run backwards from its landing: that
    shift stays stable but falls on the firm side.
    """
    out = []
    for x in stable:
        walks = [(x, steps) for steps in _candidate_walks(inst, x)]
        walks += [
            (x.plus(rot.chi), rot.steps[1:] + rot.steps[:1])
            for rot in find_rotations(inst, x)
        ]
        for base, steps in walks:
            y = walk_shift(inst, base, steps)
            full = (
                inst.in_box(y)
                and is_stable(inst, y).stable
                and precedes_F(inst, base, y)
            )
            out.append((_walk_holds(inst, base, steps), full))
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


def climbs_match_the_two_pass_walk(inst, stable, x, rots):
    for rot in rots:
        weight, y = oracle_two_pass_walk(inst, x, rot)
        assert weight >= 1
        assert climb(inst, x, rot) == (weight, y)
        assert climb(inst, x, rot, verified=True) == (weight, y)
        assert max_feasible_weight(inst, x, rot) == weight
        for k in range(1, weight + 1):
            assert apply_rotation(inst, x, rot, k) == x.plus(rot.chi.scaled(k))
        for top in stable:
            assert climb(inst, x, rot, ceiling=top, verified=True) == (
                oracle_two_pass_walk(inst, x, rot, ceiling=top)
            )


def test_climb_matches_the_two_pass_walk_on_the_bipartite_corpus(bipartite_artifacts):
    for inst, stable, rotations in bipartite_artifacts:
        for x, rots in rotations:
            climbs_match_the_two_pass_walk(inst, stable, x, rots)


def test_climb_matches_the_two_pass_walk_on_the_doubled_corpus(doubled_artifacts):
    for _, si, _, dbl_stable in doubled_artifacts:
        for x in dbl_stable:
            rots = find_rotations(si.graph, x)
            climbs_match_the_two_pass_walk(si.graph, dbl_stable, x, rots)


def test_public_walks_reject_what_they_cannot_do(bipartite_artifacts):
    unstable_starts = 0
    for inst, _, rotations in bipartite_artifacts:
        for x, rots in rotations:
            for rot in rots:
                weight, y = oracle_two_pass_walk(inst, x, rot)
                with pytest.raises(InputError):
                    apply_rotation(inst, x, rot, weight + 1)
                with pytest.raises(InputError):
                    max_feasible_weight(inst, y, rot)
                with pytest.raises(InputError):
                    apply_rotation(inst, y, rot, 1)
                for e in inst.space.ids:
                    if e in rot.sign or x[e] >= inst.caps[e]:
                        continue
                    u = x.add_unit(e)
                    if is_stable(inst, u).stable:
                        continue
                    unstable_starts += 1
                    with pytest.raises(InputError):
                        max_feasible_weight(inst, u, rot)
                    with pytest.raises(InputError):
                        apply_rotation(inst, u, rot, 1)
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
