import subprocess
import sys
import tracemalloc
from collections import deque
from pathlib import Path

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


def reference_distances(g):
    """One plain deque BFS per source over ``g.neighbors``."""
    V = g.vertex_count
    dist = np.full((V, V), -1, dtype=np.int32)
    for s in range(V):
        dist[s, s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.neighbors[u]:
                if dist[s, w] < 0:
                    dist[s, w] = dist[s, u] + 1
                    queue.append(w)
    return dist


def assert_distance_table(g, want):
    assert g.distance.dtype == np.int16
    assert not g.distance.flags.writeable
    assert np.array_equal(g.distance, want)


def test_distances_match_reference_on_random_graphs():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def connected_graphs(draw):
        # a random spanning tree plus extra edges, under a random labelling
        n = draw(st.integers(1, 30))
        labels = draw(st.permutations(range(n)))
        tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        vertex = st.integers(0, n - 1)
        extra = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
        edges = {}
        for u, v in tree + extra:
            if u != v:
                edges.setdefault(frozenset((u, v)), (labels[u], labels[v]))
        return n, list(edges.values())

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(graph=connected_graphs(), block_entries=st.sampled_from([1, 7, 40, 2**20]),
           part=st.sampled_from([29, graphs._PART]))
    def check(graph, block_entries, part):
        # small budgets split the sources into blocks of one or a few rows, and
        # parts of 29 candidates (no vertex has more neighbours) split the levels
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "BFS_SCRATCH_BYTES", graphs._PART_BYTES + 4 * block_entries)
            mp.setattr(graphs, "_PART", part)
            g = graphs.build_graph(*graph)
        assert_distance_table(g, reference_distances(g))

    check()


@pytest.mark.parametrize(
    "V,edges,want,block_rows",
    [
        (2_000, [(i, i + 1) for i in range(1_999)],
         lambda v: np.abs(v[:, None] - v[None, :]), None),
        (2_001, [(0, i) for i in range(1, 2_001)],
         lambda v: (v[:, None] != v[None, :]) * (2 - (v[:, None] == 0) - (v[None, :] == 0)),
         None),
        (120, [(i, j) for i in range(120) for j in range(i + 1, 120)],
         lambda v: (v[:, None] != v[None, :]).astype(int), 50),
    ],
    ids=["path2000", "star2000", "complete120"],
)
def test_distances_across_source_blocks(monkeypatch, V, edges, want, block_rows):
    # each graph needs more than one source block: the path and the star at
    # the default budget, and the complete graph, whose levels fill many
    # parts, at a budget of 50 rows
    if block_rows is not None:
        monkeypatch.setattr(graphs, "BFS_SCRATCH_BYTES", graphs._PART_BYTES + 4 * V * block_rows)
    assert (graphs.BFS_SCRATCH_BYTES - graphs._PART_BYTES) // (4 * V) < V
    assert_distance_table(graphs.build_graph(V, edges), want(np.arange(V)))


def _bfs_peak(build):
    """(tracemalloc peak while ``build()`` runs, its graph)."""
    tracemalloc.start()
    try:
        g = build()
        return tracemalloc.get_traced_memory()[1], g
    finally:
        tracemalloc.stop()


def test_tree_arena_bfs_stays_near_its_table():
    # the simulator's tree arena: what its BFS allocates beside the 4.7 MB
    # int16 table of 1,534 vertices stays under twice the table
    peak, g = _bfs_peak(lambda: graphs.truncated_tree(3, 9))
    assert g.distance.nbytes == 2 * 1_534**2
    assert peak < 3 * g.distance.nbytes


@pytest.mark.parametrize("block_rows", [None, 100])
def test_bfs_scratch_within_its_bound(monkeypatch, block_rows):
    # from a leaf every other leaf is one level, so a star's frontier
    # fills its blocks: the worst case of the scratch rule
    V = 1_501
    if block_rows is not None:
        monkeypatch.setattr(graphs, "BFS_SCRATCH_BYTES", graphs._PART_BYTES + 4 * V * block_rows)
    peak, g = _bfs_peak(lambda: graphs.build_graph(V, [(0, i) for i in range(1, V)]))
    assert peak - g.distance.nbytes <= graphs.BFS_SCRATCH_BYTES


def test_build_graph_loads_no_scipy():
    # the BFS is numpy only: loading scipy.sparse would raise the peak RSS of every simulation
    src = str(Path(graphs.__file__).resolve().parents[1])
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from tipsychase import graphs; "
        "g = graphs.truncated_tree(3, 4); "
        "print(g.diameter, sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    done = subprocess.run([sys.executable, "-c", probe, src], capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout == "8 []\n"


@pytest.mark.parametrize("block_entries", [1, 2**20])
@pytest.mark.parametrize("isolated", [0, 5, 9])
def test_disconnected_vertex_in_any_block(monkeypatch, block_entries, isolated):
    # one vertex cut off from a 10-cycle's path: with one-row blocks the
    # search from vertex 0 alone, in the first block, must find it missing
    rest = [v for v in range(10) if v != isolated]
    monkeypatch.setattr(graphs, "BFS_SCRATCH_BYTES", graphs._PART_BYTES + 4 * block_entries)
    with pytest.raises(DisconnectedGraph, match="graph on 10 vertices is not connected"):
        graphs.build_graph(10, list(zip(rest, rest[1:])))


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
    # int() alone also reads digit separators, a sign and non-ASCII digits
    for text in ("3 2\n0 1\n1_2 2", "3_0 2\n0 1\n1 2", "3 2\n0 1\n\u0661 2", "3 2\n0 1\n+1 2",
                 "3 2\n0 1\n--1 2"):
        with pytest.raises(InvalidEdge, match="not ASCII decimal"):
            graphs.parse_edge_list(text)
    with pytest.raises(InvalidEdge, match=r"edge \(-1, 2\) out of range"):
        graphs.parse_edge_list("3 2\n0 1\n-1 2")


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
    # the refusal counts 4 bytes a pair, though the table is int16: up to
    # 11,585 vertices pass under DENSE_BYTE_CAP
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
