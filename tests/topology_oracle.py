"""Loop reference for the topology builder.

Edges are normalized one pair at a time into a set, neighbor sets and
connectivity come from Python loops, and each Metropolis weight is
written edge by edge in sorted order: the definition that
``topology.build_from_edge_list`` computes with array operations.
"""

import numpy as np


def reference_topology(n: int, edges) -> tuple:
    """(sorted (i, j) pairs with i < j, degree list, weights) of a graph.

    Raises ``ValueError`` where the builder raises ``TopologyError``.
    """
    edge_set = set()
    for i, j in edges:
        i, j = int(i), int(j)
        if not (0 <= i < n) or not (0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) has an endpoint outside [0, {n})")
        if i == j:
            raise ValueError(f"self-loop at node {i} is not allowed")
        edge_set.add((min(i, j), max(i, j)))

    neighbor_sets = [set() for _ in range(n)]
    for i, j in edge_set:
        neighbor_sets[i].add(j)
        neighbor_sets[j].add(i)

    seen = {0}
    stack = [0]
    while stack:
        for j in neighbor_sets[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != n:
        raise ValueError("graph is disconnected")

    deg = [len(s) for s in neighbor_sets]
    w = np.zeros((n, n))
    for i, j in sorted(edge_set):
        w_ij = 1.0 / (1 + max(deg[i], deg[j]))
        w[i, j] = w_ij
        w[j, i] = w_ij
    for i in range(n):
        w[i, i] = 1.0 - w[i].sum()
    return sorted(edge_set), deg, w
