"""
Closed loop as a walk series
============================

The closed-loop matrix (I - G)^-1 is the sum over all walks of the edge
products along them.  Truncating the series at L terms keeps exactly the
walks of length at most L, and with the row-sum norm of G held at 1/2 the
dropped tail is bounded by norm^(L+1) / (1 - norm).
"""

import numpy as np

from netident import random_network
from netident.series import float_closed_loop, inf_norm, network_matrix, neumann_series, random_float_values

rng = np.random.default_rng(7)
net = random_network(nodes=6, unknowns=2, excited=1, measured=1, known_density=0.6, seed=7)
G = network_matrix(net, random_float_values(net, rng))
T = float_closed_loop(G)
norm = inf_norm(G)
print(f"cyclic network on {net.n} nodes, row-sum norm {norm:.3f}")
print(f"{'terms':>6} {'error':>12} {'tail bound':>12}")
for L in (1, 2, 5, 10, 20, 30):
    err = np.max(np.abs(neumann_series(G, L) - T))
    bound = norm ** (L + 1) / (1 - norm)
    print(f"{L:6d} {err:12.3e} {bound:12.3e}")

# On an acyclic network the series terminates: no walk is longer than
# n - 1 edges, so the truncation error hits floating-point noise.
acyclic = random_network(nodes=6, unknowns=2, excited=1, measured=1, known_density=0.6, acyclic=True, seed=8)
G = network_matrix(acyclic, random_float_values(acyclic, rng))
err = np.max(np.abs(neumann_series(G, acyclic.n - 1) - float_closed_loop(G)))
print(f"\nacyclic network, {acyclic.n - 1} terms: error {err:.3e}")
