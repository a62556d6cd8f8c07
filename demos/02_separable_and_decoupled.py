"""
Separable structure and the decoupled construction
==================================================

A separable network keeps excitations and measurements in two known-edge
blocks with every unknown edge crossing between them; there the local and
global questions coincide.  Any network can be lifted to a separable one
on twice the nodes, and the lift decides decoupled identifiability.
"""

from netident import (
    Edge,
    NetworkModel,
    combinatorial_verdict,
    decouple,
    decoupled_identifiability,
    is_separable,
    necessary_condition_any_topology,
    random_network,
    separate,
)

net = NetworkModel(
    n=5,
    edges=[
        Edge(0, 2, known=True),
        Edge(0, 3, known=True),
        Edge(1, 2, known=True),
        Edge(1, 3, known=True),
        Edge(2, 4, known=False),
        Edge(3, 4, known=False),
    ],
    excited=[0, 1],
    measured=[4],
)

# The split is forced edge by edge: tails of unknown edges and excited
# nodes end up on the excited side, heads and measured nodes on the other.
blocks = separate(net)
print("separable split (1-based nodes)")
print("  excited part: ", sorted(v + 1 for v in blocks.b_part))
print("  measured part:", sorted(v + 1 for v in blocks.c_part))
print("  cross edges:  ", [str(e) for e in net.unknown_edges])
v = combinatorial_verdict(net)
print(f"  global verdict (walk count): {v.decision}")

# A network with a node both excited and measured across an unknown edge
# cannot be split.
tangled = NetworkModel(2, [Edge(0, 1, known=False)], [0, 1], [1])
print("\nexcitation on the measured side:", "separable" if is_separable(tangled) else "not separable")

# The decoupled form duplicates the node set: the original copy keeps all
# edges as known and the measurements, the new copy gets the excitations,
# and each unknown edge is rewired to cross between the copies.
lifted = decouple(net, seed=0)
print("\ndecoupled form")
print(f"  nodes: {net.n} -> {lifted.n}")
print(f"  unknown edges: {[str(e) for e in lifted.unknown_edges]}")
print(f"  separable: {is_separable(lifted)}")

# Counting walk collections on the lift decides the same question as
# ranking the source with the two closed-loop factors sampled
# independently, by a route that draws no sample.
direct = decoupled_identifiability(net).decision
via = necessary_condition_any_topology(net).decision
print(f"  decoupled verdict, direct:           {direct}")
print(f"  walk verdict of the lift:            {via}")

# The agreement is not an accident of this example.
nets = [random_network(nodes=6, unknowns=2, excited=2, measured=1, seed=s) for s in range(20)]
agree = sum(
    necessary_condition_any_topology(other).decision == decoupled_identifiability(other).decision
    for other in nets
)
print(f"\nequivalence holds on {agree}/20 random networks")
