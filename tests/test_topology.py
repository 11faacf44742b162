import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from topology_oracle import reference_topology

from disopt.topology import (
    NetworkTopology,
    TopologyError,
    build_complete,
    build_from_edge_list,
    validate,
)


def test_single_node_is_identity():
    topo = build_complete(1)
    assert topo.n == 1
    assert topo.weights == np.array([[1.0]])
    assert topo.edges.shape == (0, 2)


def test_complete_three_agents_all_one_third():
    topo = build_complete(3)
    assert np.allclose(topo.weights, np.full((3, 3), 1 / 3), atol=1e-15)


def test_complete_ten_row_sums():
    topo = build_complete(10)
    assert np.max(np.abs(topo.weights.sum(axis=1) - 1)) <= 1e-12
    assert np.max(np.abs(topo.weights.sum(axis=0) - 1)) <= 1e-12


def test_complete_graph_is_plain_averaging():
    for n in (2, 5, 10):
        topo = build_complete(n)
        assert np.max(np.abs(topo.weights - 1.0 / n)) <= 1e-15


def test_zero_agents_rejected():
    with pytest.raises(TopologyError):
        build_complete(0)


def test_two_node_edge_weights():
    topo = build_from_edge_list(2, [(0, 1)])
    assert topo.weights[0, 1] == pytest.approx(0.5)
    assert topo.weights[0, 0] == pytest.approx(0.5)
    assert topo.weights[1, 1] == pytest.approx(0.5)


def test_path_graph_middle_edge_weight():
    # path 0-1-2-3: nodes 1 and 2 both have degree 2
    topo = build_from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert topo.weights[1, 2] == pytest.approx(1 / 3)


def test_disconnected_rejected():
    with pytest.raises(TopologyError, match="disconnected"):
        build_from_edge_list(3, [(0, 1)])


def test_out_of_range_endpoint_rejected():
    with pytest.raises(TopologyError, match="outside"):
        build_from_edge_list(3, [(0, 1), (1, 3)])


def test_self_loop_rejected():
    with pytest.raises(TopologyError, match="self-loop"):
        build_from_edge_list(3, [(0, 1), (1, 2), (2, 2)])


def test_builds_are_bit_identical():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    a = build_from_edge_list(4, edges)
    b = build_from_edge_list(4, list(reversed(edges)))
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.edges, b.edges)


def test_validate_passes_on_clean_topology():
    assert validate(build_complete(10)).passed


def test_validate_flags_corrupted_row_sum():
    topo = build_complete(4)
    w = topo.weights.copy()
    w[1, 2] += 0.1
    bad = NetworkTopology(n=4, edges=topo.edges, degrees=topo.degrees, weights=w)
    report = validate(bad)
    assert not report.checks["row_sums"].passed
    assert report.checks["row_sums"].deviation == pytest.approx(0.1)


def test_validate_flags_asymmetry():
    topo = build_complete(3)
    w = topo.weights.copy()
    w[0, 1] += 1e-3
    w[0, 0] -= 1e-3  # keep row sums intact so only symmetry trips
    bad = NetworkTopology(n=3, edges=topo.edges, degrees=topo.degrees, weights=w)
    report = validate(bad)
    assert not report.checks["symmetry"].passed
    assert report.checks["row_sums"].passed


def test_validate_flags_nan_off_graph_weight():
    # path 0-1-2: (0, 2) is not an edge, so its weight must be exactly 0
    topo = build_from_edge_list(3, [(0, 1), (1, 2)])
    w = topo.weights.copy()
    w[0, 2] = w[2, 0] = np.nan
    bad = NetworkTopology(n=3, edges=topo.edges, degrees=topo.degrees, weights=w)
    assert not validate(bad).checks["off_graph_zeros"].passed


@pytest.mark.parametrize("cell", [(1, 1), (0, 2)], ids=["diagonal", "edge"])
def test_validate_flags_nan_weight_as_not_nonnegative(cell):
    topo = build_complete(3)
    w = topo.weights.copy()
    w[cell] = np.nan
    bad = NetworkTopology(n=3, edges=topo.edges, degrees=topo.degrees, weights=w)
    assert not validate(bad).checks["nonnegative"].passed


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    # random spanning tree guarantees connectivity, then sprinkle extras
    edges = set()
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        edges.add((j, i))
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=2 * n,
        )
    )
    for i, j in extra:
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return n, sorted(edges)


@settings(max_examples=100, deadline=None)
@given(connected_graphs())
def test_metropolis_is_doubly_stochastic_on_any_connected_graph(graph):
    n, edges = graph
    topo = build_from_edge_list(n, edges)
    ones = np.ones(n)
    assert np.max(np.abs(topo.weights @ ones - ones)) <= 1e-12
    assert np.max(np.abs(ones @ topo.weights - ones)) <= 1e-12
    assert np.all(topo.weights >= 0)
    assert np.array_equal(topo.weights, topo.weights.T)


@st.composite
def raw_connected_edge_lists(draw):
    """A connected graph as a raw edge list: pairs in either orientation,
    in any order, some repeated."""
    n = draw(st.integers(min_value=1, max_value=30))
    edges = [(draw(st.integers(min_value=0, max_value=i - 1)), i) for i in range(1, n)]
    if n > 1:
        node = st.integers(min_value=0, max_value=n - 1)
        edges += draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=3 * n))
    edges += draw(st.lists(st.sampled_from(edges), max_size=n)) if edges else []
    edges = [(j, i) if draw(st.booleans()) else (i, j) for i, j in edges]
    return n, draw(st.permutations(edges))


def assert_matches_oracle(n, edges):
    topo = build_from_edge_list(n, edges)
    pairs, degrees, weights = reference_topology(n, edges)
    assert np.array_equal(topo.weights, weights)
    assert topo.edges.tolist() == [list(e) for e in pairs]
    assert topo.degrees.tolist() == degrees
    return topo


@settings(max_examples=150, deadline=None)
@given(raw_connected_edge_lists())
def test_array_build_matches_loop_oracle(graph):
    assert_matches_oracle(*graph)


@pytest.mark.parametrize("n", [1, 2, 10, 100, 400])
def test_complete_graph_matches_loop_oracle(n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    listed = assert_matches_oracle(n, edges)
    topo = build_complete(n)
    assert np.array_equal(topo.weights, listed.weights)
    assert np.array_equal(topo.edges, listed.edges)
    assert np.array_equal(topo.degrees, listed.degrees)
    assert validate(topo).passed
