"""Undirected communication graphs with Metropolis mixing weights.

The mixing matrix is built with the Metropolis rule
``w_ij = 1 / (1 + max(d_i, d_j))`` for every edge, with each diagonal
entry absorbing the remaining row mass.  This yields a symmetric doubly
stochastic matrix on any connected undirected graph without global
coordination, which is why it is the default here.

A topology is stored as arrays: the sorted (E, 2) edge index with
``i < j`` in every row, the degree vector and the (n, n) weights.  One
builder, :func:`build_from_edge_list`, makes every topology with array
operations over a boolean adjacency matrix; :func:`build_complete` hands
it the upper-triangle pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Row/column sums of the mixing matrix must match 1 this tightly.
STOCHASTIC_TOL = 1e-12


class TopologyError(ValueError):
    """Invalid graph input: bad size, bad edge, or disconnected graph."""


@dataclass(frozen=True, eq=False)
class NetworkTopology:
    """An undirected graph together with its mixing matrix.

    Agent indices are 0-based.  ``edges`` is the (E, 2) integer edge index,
    each row ``(i, j)`` with ``i < j``, rows in lexicographic order;
    ``degrees`` holds each agent's neighbor count.  Instances are not
    changed after construction and are safe to share across threads.
    """

    n: int
    edges: np.ndarray
    degrees: np.ndarray
    weights: np.ndarray


def _checked_pairs(n: int, edges) -> np.ndarray:
    """``edges`` as an (E, 2) index array, once every pair is checked.

    Python input is held as objects until then, so an endpoint beyond
    int64 is compared as given, never wrapped, rounded or overflowed; the
    error names the first bad edge in input order.
    """
    pairs = edges if isinstance(edges, np.ndarray) else np.array(list(edges), dtype=object)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise TopologyError(f"expected (i, j) pairs, got an array of shape {pairs.shape}")
    i, j = pairs.T
    outside = ~((0 <= i) & (i < n) & (0 <= j) & (j < n))  # NaN is outside too
    bad = np.flatnonzero(outside | (i == j))
    if bad.size:
        i, j = i[bad[0]], j[bad[0]]
        if outside[bad[0]]:
            raise TopologyError(f"edge ({i}, {j}) has an endpoint outside [0, {n})")
        raise TopologyError(f"self-loop at node {i} is not allowed")
    return pairs.astype(np.intp)


def _adjacency(n: int, edges: np.ndarray) -> np.ndarray:
    """Symmetric (n, n) boolean adjacency matrix of (E, 2) edges."""
    adj = np.zeros((n, n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = True
    return adj | adj.T


def _is_connected(adj: np.ndarray) -> bool:
    """Whether every node is reachable from node 0, by a frontier sweep."""
    seen = np.zeros(len(adj), dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def build_from_edge_list(n: int, edges: Iterable) -> NetworkTopology:
    """Build a Metropolis-weighted topology from an explicit edge list.

    ``edges`` holds (i, j) pairs in any order and orientation; duplicates
    collapse.  Raises :class:`TopologyError` on invalid size, out-of-range
    endpoints, self-loops, or a disconnected graph.
    """
    if n < 1:
        raise TopologyError(f"agent count must be >= 1, got {n}")
    adj = _adjacency(n, _checked_pairs(n, edges))
    if not _is_connected(adj):
        raise TopologyError("graph is disconnected")
    degrees = adj.sum(axis=1)
    weights = np.where(adj, 1 / (1 + np.maximum.outer(degrees, degrees)), 0.0)
    np.fill_diagonal(weights, 1 - weights.sum(axis=1))
    # row-major order of the upper triangle: sorted, distinct, i < j
    edge_index = np.argwhere(np.triu(adj))
    return NetworkTopology(n=n, edges=edge_index, degrees=degrees, weights=weights)


def build_complete(n: int) -> NetworkTopology:
    """Complete graph on ``n`` agents.

    With the Metropolis rule every off-diagonal weight is exactly 1/n,
    so the mixing step is plain averaging.
    """
    if n < 1:
        raise TopologyError(f"agent count must be >= 1, got {n}")
    return build_from_edge_list(n, np.stack(np.triu_indices(n, 1), axis=1))


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    deviation: float


@dataclass(frozen=True)
class ValidationReport:
    checks: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())


def validate(topology: NetworkTopology) -> ValidationReport:
    """Report-only check of every topology invariant.

    Works on hand-corrupted instances too; each check records the worst
    observed deviation.
    """
    w = topology.weights
    n = topology.n
    ones = np.ones(n)

    row_dev = float(np.max(np.abs(w @ ones - ones)))
    col_dev = float(np.max(np.abs(ones @ w - ones)))
    sym_dev = float(np.max(np.abs(w - w.T)))
    neg_dev = float(np.max(-w, initial=0.0))  # NaN propagates, so it fails

    adj = _adjacency(n, topology.edges)
    off_graph = float(np.max(np.abs(w[~adj & ~np.eye(n, dtype=bool)]), initial=0.0))

    connected = _is_connected(adj)

    checks = {
        "row_sums": CheckResult(row_dev <= STOCHASTIC_TOL, row_dev),
        "col_sums": CheckResult(col_dev <= STOCHASTIC_TOL, col_dev),
        "symmetry": CheckResult(sym_dev == 0.0, sym_dev),
        "nonnegative": CheckResult(neg_dev == 0.0, neg_dev),
        "off_graph_zeros": CheckResult(off_graph == 0.0, off_graph),
        "connected": CheckResult(connected, 0.0 if connected else 1.0),
    }
    return ValidationReport(checks=checks)
