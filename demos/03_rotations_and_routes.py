"""
Climbing between stable outcomes with weighted rotations
========================================================

The move between neighboring stable vectors is a rotation: a closed
alternating walk that adds a unit on every other edge and removes one in
between.  With capacities above one a single rotation can be applied
several times, and a full route chains rotations from the bottom of the
lattice to the top.
"""

from stablepartners import (
    build_full_route,
    climb,
    deferred_acceptance,
    family_from_route,
    find_rotations,
    full_routes,
    instance_from_dict,
)


def crossed_block(cap):
    quota = {"type": "linear_order_quota", "quota": cap}
    return instance_from_dict(
        {
            "vertices": ["w1", "w2", "f1", "f2"],
            "edges": [
                {"id": "w1f1", "ends": ["w1", "f1"], "cap": cap},
                {"id": "w1f2", "ends": ["w1", "f2"], "cap": cap},
                {"id": "w2f1", "ends": ["w2", "f1"], "cap": cap},
                {"id": "w2f2", "ends": ["w2", "f2"], "cap": cap},
            ],
            "choice": {
                "w1": dict(quota, order=["w1f1", "w1f2"]),
                "w2": dict(quota, order=["w2f2", "w2f1"]),
                "f1": dict(quota, order=["w2f1", "w1f1"]),
                "f2": dict(quota, order=["w1f2", "w2f2"]),
            },
            "bipartition": {"W": ["w1", "w2"], "F": ["f1", "f2"]},
        }
    )


market = crossed_block(cap=3)
bottom = deferred_acceptance(market, "W")
print("bottom:", bottom.to_mapping())

# Exactly one rotation applies at the bottom.  Its walk visits each vertex
# once, gaining on the edges the F side prefers and losing on the others.
rotations = find_rotations(market, bottom)
rot = rotations[0]
print("rotation walk:", rot.steps)
print("gains and losses:", rot.chi.to_mapping())

# Capacity 3 lets the same walk shift three units before a choice function
# pushes back, so the one rotation covers three lattice levels.  A climb
# walks the rotation's ray: it returns the feasible weight and the vector
# it lands on, and with a limit it stops after that many units.
weight, top = climb(market, bottom, rot)
print("feasible weight:", weight)
_, middle = climb(market, bottom, rot, limit=1)
print("after one unit:", middle.to_mapping())
print("after all three:", top.to_mapping())

# A full route packages the climb.  Greedy construction takes the whole
# weight in one step, and the step records its rotation, weight and target.
route = build_full_route(market)
for step in route.steps:
    print("step: weight", step.weight, "to", step.target.to_mapping())

# Routes can differ in the order they pick applicable rotations, but every
# one of them uses the same weighted rotations.  This lattice is a chain,
# so enumeration finds a single route, and on richer instances all the
# enumerated routes share one multiset of (walk, weight) pairs.
families = {frozenset(family_from_route(r).multiset().items()) for r in full_routes(market)}
print("routes found:", sum(1 for _ in full_routes(market)))
print("distinct route families:", len(families))
