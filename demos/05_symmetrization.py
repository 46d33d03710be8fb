"""
Doubling an unlabeled instance and sweeping toward balance
==========================================================

General partnership instances have no W and F sides.  The standard escape
is to build a bipartite double: two copies of every vertex, one per side,
with each edge realized twice.  Swapping the copies is an involution, and
everything two-sided learned on the double can be pulled back through it.
"""

from stablepartners import instance_from_dict, find_rotations, is_singular, run_qb, symmetrize

# Three parties in a cyclic standoff.  Each one prefers the edge to its
# successor over the edge to its predecessor, which is the smallest
# instance with no stable outcome at all.
ring = instance_from_dict(
    {
        "vertices": ["a", "b", "c"],
        "edges": [
            {"id": "ab", "ends": ["a", "b"], "cap": 1},
            {"id": "bc", "ends": ["b", "c"], "cap": 1},
            {"id": "ca", "ends": ["c", "a"], "cap": 1},
        ],
        "choice": {
            "a": {"type": "linear_order_quota", "quota": 1, "order": ["ab", "ca"]},
            "b": {"type": "linear_order_quota", "quota": 1, "order": ["bc", "ab"]},
            "c": {"type": "linear_order_quota", "quota": 1, "order": ["ca", "bc"]},
        },
    }
)

si = symmetrize(ring)
double = si.graph
print("double vertices:", double.vertices)
print("double edges:", list(double.space.ids))

# The mirror swaps the two copies of each vertex and each edge: the copy
# suffix ^0 becomes ^1 and back.  On vectors it swaps the values of the two
# copies of each edge, so it turns the worker-optimal vector of the double
# into the firm-optimal one.
from stablepartners import deferred_acceptance



def support(x):
    return {e: v for e, v in x.to_mapping().items() if v}


bottom = deferred_acceptance(double, "W")
print("bottom of the double:", support(bottom))
print("its mirror image:", support(si.reflect_vector(bottom)))
print("mirror image is the top:", si.reflect_vector(bottom) == deferred_acceptance(double, "F"))

# The double always has stable vectors, and the base instance is solvable
# exactly when one of them is symmetric under the mirror.  The obstruction
# lives in the rotations: this one is its own mirror image.
rot = find_rotations(double, bottom)[0]
print("rotation:", rot)
print("its mirror image:", si.reflect_rotation(rot))
print("rotation is its own mirror:", is_singular(si, rot))

# The balancing sweep climbs the double while refusing to use a rotation
# after its mirror.  Self-mirrored rotations advance by half their weight;
# when that weight is odd the leftover unit cannot be split, and the
# rotation lands in the odd core.
outcome = run_qb(si)
print("sweep endpoint:", support(outcome.vector))
print("odd core size:", len(outcome.odd_core))

# Quasi-balance, checked by hand: reflecting the endpoint and applying
# each odd core rotation once must agree with the endpoint itself.
shift = si.reflect_vector(outcome.vector)
for rot in outcome.odd_core:
    shift = shift.minus(rot.chi)
print("reflection minus odd core equals endpoint:", shift == outcome.vector)
print("endpoint is mirror symmetric:", si.reflect_vector(outcome.vector) == outcome.vector)
