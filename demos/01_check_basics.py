"""
Deciding identifiability of a small network
===========================================

Build a network by hand, ask whether its unknown edges are generically
recoverable from the excitation-to-measurement response, and read the
evidence attached to each verdict.
"""

from netident import (
    Edge,
    NetworkModel,
    decoupled_identifiability,
    local_identifiability,
)

# A 5-node network: two excitations feed two relay nodes over known edges,
# and two unknown edges carry the relays into the single measured node.
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

print("two relays, two unknown edges, one measurement")
local = local_identifiability(net)
print(f"  local:     {local.decision} (rank {local.rank}/{local.m_unknown})")
dec = decoupled_identifiability(net)
print(f"  decoupled: {dec.decision} (rank {dec.rank}/{dec.m_unknown})")

# Remove one excitation and the response map shrinks to a single entry;
# two unknowns cannot be pinned by it.
starved = NetworkModel(n=5, edges=net.edges, excited=[0], measured=[4])
v = local_identifiability(starved)
print("\nsame edges, one excitation")
print(f"  local:     {v.decision} (rank {v.rank}/{v.m_unknown})")

# An unknown edge whose tail no excitation reaches has a structurally zero
# column in the sensitivity matrix; the verdict names it.
island = NetworkModel(
    n=3,
    edges=[Edge(1, 2, known=False)],
    excited=[0],
    measured=[2],
)
v = local_identifiability(island)
print("\nunknown edge out of reach of the excitation")
print(f"  local:     {v.decision} (rank {v.rank}/{v.m_unknown})")
print(f"  witness:   {v.witness}")

# Verdicts are frozen records: the seed they carry is enough to replay the
# exact computation later.
print("\nreplay data:", local.to_dict())
