import numpy as np
import pytest

from tipsychase import chain, graphs
from tipsychase.errors import DisconnectedGraph, GraphTooLarge, InvalidEdge, InvalidParameter


def test_single_edge_distance_table():
    g = graphs.build_graph(2, [(0, 1)])
    assert g.distance.tolist() == [[0, 1], [1, 0]]


def test_cycle6_distances():
    g = graphs.cycle_graph(6)
    assert g.distance[0, 3] == 3
    for i in range(6):
        for j in range(6):
            assert g.distance[i, j] == min(abs(i - j), 6 - abs(i - j))


def test_cycle3_is_complete():
    g = graphs.cycle_graph(3)
    assert set(np.unique(g.distance)) == {0, 1}


def test_petersen_eccentricity():
    g = graphs.petersen_graph()
    assert g.vertex_count == 10
    assert all(g.degree(v) == 3 for v in range(10))
    assert all(g.eccentricity(v) == 2 for v in range(10))


def test_friendship_shape():
    g = graphs.friendship_graph(3)
    assert g.vertex_count == 7
    assert g.edge_count == 9
    assert g.degree(0) == 6
    assert all(g.degree(v) == 2 for v in range(1, 7))


def test_torus_shape_and_distances():
    g = graphs.torus_grid(7, 7)
    assert g.vertex_count == 49
    assert all(g.degree(v) == 4 for v in range(49))
    # hop distance equals the sum of the per-axis cyclic gaps
    for u in range(49):
        for v in range(49):
            ai, aj = divmod(u, 7)
            bi, bj = divmod(v, 7)
            want = min(abs(ai - bi), 7 - abs(ai - bi)) + min(abs(aj - bj), 7 - abs(aj - bj))
            assert g.distance[u, v] == want
    assert g.diameter == 6


@pytest.mark.parametrize("m,n", [(3, 3), (3, 5), (4, 6)])
def test_torus_distance_formula_other_sizes(m, n):
    g = graphs.torus_grid(m, n)
    for u in range(m * n):
        for v in range(m * n):
            ai, aj = divmod(u, n)
            bi, bj = divmod(v, n)
            want = min(abs(ai - bi), m - abs(ai - bi)) + min(abs(aj - bj), n - abs(aj - bj))
            assert g.distance[u, v] == want


def test_truncated_tree_structure():
    g = graphs.truncated_tree(3, 3)
    # 1 + 3 + 6 + 12
    assert g.vertex_count == 22
    assert g.degree(0) == 3
    leaves = [v for v in range(g.vertex_count) if g.degree(v) == 1]
    assert len(leaves) == 12
    assert all(g.distance[0, v] == 3 for v in leaves)
    interior = [v for v in range(1, g.vertex_count) if g.degree(v) > 1]
    assert all(g.degree(v) == 3 for v in interior)


def test_truncated_tree_path_case():
    g = graphs.truncated_tree(2, 4)
    assert g.vertex_count == 9
    assert sorted(g.degree(v) for v in range(9)).count(1) == 2


def test_generators_pass_build_graph_validation():
    for g in (
        graphs.cycle_graph(5),
        graphs.petersen_graph(),
        graphs.friendship_graph(4),
        graphs.torus_grid(3, 4),
        graphs.truncated_tree(4, 2),
    ):
        rebuilt = graphs.build_graph(g.vertex_count, g.edges)
        assert np.array_equal(rebuilt.distance, g.distance)


@pytest.mark.parametrize(
    "vc,edges,err",
    [
        (3, [(0, 0)], InvalidEdge),
        (3, [(0, 1), (1, 0)], InvalidEdge),
        (3, [(0, 3)], InvalidEdge),
        (4, [(0, 1), (2, 3)], DisconnectedGraph),
    ],
)
def test_build_graph_errors(vc, edges, err):
    with pytest.raises(err):
        graphs.build_graph(vc, edges)


@pytest.mark.parametrize(
    "kind,kwargs",
    [("cycle", {"n": 2}), ("friendship", {"n": 0}), ("torus", {"m": 2, "n": 5}),
     ("tree_truncated", {"degree": 1, "depth": 2}),
     ("tree_truncated", {"degree": 3, "depth": 0})],
)
def test_generator_parameter_errors(kind, kwargs):
    generators = {"cycle": graphs.cycle_graph, "friendship": graphs.friendship_graph,
                  "torus": graphs.torus_grid, "tree_truncated": graphs.truncated_tree}
    with pytest.raises(InvalidParameter):
        generators[kind](**kwargs)


def test_edge_list_round_trip(tmp_path):
    text = "4 4\n0 1\n1 2\n2 3\n3 0\n"
    g = graphs.parse_edge_list(text)
    assert g.vertex_count == 4
    assert g.distance[0, 2] == 2
    path = tmp_path / "square.txt"
    path.write_text(text)
    g2 = graphs.load_edge_list(path)
    assert np.array_equal(g.distance, g2.distance)


def test_edge_list_errors():
    with pytest.raises(InvalidEdge):
        graphs.parse_edge_list("3\n")
    with pytest.raises(InvalidEdge):
        graphs.parse_edge_list("3 2\n0 1\n")
    with pytest.raises(InvalidEdge):
        graphs.parse_edge_list("2 1\n0 x\n")


def test_distance_table_symmetry_and_triangle(rng):
    from conftest import random_connected_graph

    for _ in range(5):
        g = random_connected_graph(rng, 9)
        d = g.distance
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)
        for k in range(g.vertex_count):
            assert np.all(d <= d[:, [k]] + d[[k], :])


def test_distance_table_immutable():
    g = graphs.cycle_graph(4)
    with pytest.raises(ValueError):
        g.distance[0, 1] = 5


def test_distance_table_cap_in_vertices():
    # the V x V int32 distance table fits DENSE_BYTE_CAP up to 11,585 vertices
    assert 4 * 11_585**2 <= chain.DENSE_BYTE_CAP < 4 * 11_586**2


def test_tree_size_counts_truncated_tree():
    for degree, depth in ((2, 4), (3, 3), (4, 2), (5, 3)):
        tree = graphs.truncated_tree(degree, depth)
        assert graphs._tree_size(degree, depth) == tree.vertex_count
    assert graphs._tree_size(6, 10) == 14_648_437


def _untouched_edges():
    raise AssertionError("edges read before the size check")
    yield


@pytest.mark.parametrize(
    "build",
    [
        lambda: graphs.build_graph(11_586, _untouched_edges()),
        lambda: graphs.cycle_graph(10**9),
        lambda: graphs.friendship_graph(5_793),  # 11,587 vertices
        lambda: graphs.torus_grid(10**5, 10**5),
        lambda: graphs.truncated_tree(6, 10),
        lambda: graphs.truncated_tree(3, 10**9),
        lambda: graphs.truncated_tree(2, 10**9),
    ],
    ids=["build_graph", "cycle", "friendship", "torus", "tree6x10", "tree_deep", "path_deep"],
)
def test_oversized_graphs_refused_before_allocating(monkeypatch, build):
    # Every generator lists its edges in a range() loop; failing that loop
    # keeps a regression from allocating the graph it should refuse.
    def no_loop(*args):
        raise AssertionError("edge list started before the size check")

    monkeypatch.setattr(graphs, "range", no_loop, raising=False)
    with pytest.raises(GraphTooLarge, match="distance table"):
        build()
