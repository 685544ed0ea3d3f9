"""Finite simple undirected graphs with eagerly computed distances.

Vertices are dense integers ``0..V-1``.  All-pairs shortest-path hop
counts are filled at construction by one breadth-first search per
vertex; every graph in scope is small, so the O(V*E) cost is irrelevant
next to having distances available as a plain array lookup.  A graph
whose V x V int32 distance table would exceed ``chain.DENSE_BYTE_CAP``
(more than 11,585 vertices) is refused with GraphTooLarge before
anything is allocated; the family generators check the vertex count
their arguments imply before they list a single edge.

Family generators use a fixed, documented vertex labeling so that state
names in downstream output stay stable:

* ``cycle_graph(n)``      -- vertices 0..n-1 in cyclic order.
* ``petersen_graph()``    -- 0..4 outer 5-cycle, 5..9 inner 5-star,
  spokes (i, i+5).
* ``friendship_graph(n)`` -- 0 is the hub; triangle k uses the pair
  (2k+1, 2k+2).
* ``torus_grid(m, n)``    -- cell (i, j) is vertex i*n + j (row-major).
* ``truncated_tree(degree, depth)`` -- root 0, children appended in
  generation order, leaves at exactly ``depth``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import chain as chain_mod
from .errors import DisconnectedGraph, InvalidEdge, InvalidParameter

UNREACHED = -1


@dataclass(frozen=True)
class Graph:
    """Immutable connected simple graph plus its distance table."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...]
    distance: np.ndarray

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def eccentricity(self, v: int) -> int:
        return int(self.distance[v].max())

    @property
    def diameter(self) -> int:
        return int(self.distance.max())


def _bfs_row(neighbors, source, out):
    out[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = out[u]
        for w in neighbors[u]:
            if out[w] == UNREACHED:
                out[w] = du + 1
                queue.append(w)


def _check_size(vertex_count: int) -> None:
    """Raise GraphTooLarge when the V x V int32 distance table exceeds the dense cap."""
    chain_mod.check_dense_size(vertex_count, vertex_count, "distance table", itemsize=4)


def build_graph(vertex_count: int, edges) -> Graph:
    """Validate an edge list and construct the graph.

    Raises InvalidEdge for self-loops, duplicates, or out-of-range
    endpoints, and DisconnectedGraph if any vertex is unreachable from
    vertex 0.
    """
    if vertex_count < 1:
        raise InvalidParameter(f"vertex_count must be >= 1, got {vertex_count}")
    _check_size(vertex_count)
    seen = set()
    canonical = []
    for u, v in edges:
        if u == v:
            raise InvalidEdge(f"self-loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise InvalidEdge(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise InvalidEdge(f"duplicate edge ({u}, {v})")
        seen.add(key)
        canonical.append(key)

    nbrs = [[] for _ in range(vertex_count)]
    for u, v in canonical:
        nbrs[u].append(v)
        nbrs[v].append(u)
    neighbors = tuple(tuple(sorted(ns)) for ns in nbrs)

    dist = np.full((vertex_count, vertex_count), UNREACHED, dtype=np.int32)
    for s in range(vertex_count):
        _bfs_row(neighbors, s, dist[s])
    if (dist == UNREACHED).any():
        raise DisconnectedGraph(f"graph on {vertex_count} vertices is not connected")
    dist.flags.writeable = False

    return Graph(
        vertex_count=vertex_count,
        edges=tuple(sorted(canonical)),
        neighbors=neighbors,
        distance=dist,
    )


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidParameter(f"cycle needs n >= 3, got {n}")
    _check_size(n)
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, edges)


def friendship_graph(n: int) -> Graph:
    """``n`` triangles sharing the hub vertex 0."""
    if n < 1:
        raise InvalidParameter(f"friendship graph needs n >= 1, got {n}")
    _check_size(2 * n + 1)
    edges = []
    for k in range(n):
        a, b = 2 * k + 1, 2 * k + 2
        edges += [(0, a), (0, b), (a, b)]
    return build_graph(2 * n + 1, edges)


def torus_grid(m: int, n: int) -> Graph:
    """Cartesian product of an m-cycle and an n-cycle, row-major labels."""
    if m < 3 or n < 3:
        raise InvalidParameter(f"torus needs m, n >= 3, got ({m}, {n})")
    _check_size(m * n)
    edges = set()
    for i in range(m):
        for j in range(n):
            v = i * n + j
            edges.add(tuple(sorted((v, ((i + 1) % m) * n + j))))
            edges.add(tuple(sorted((v, i * n + (j + 1) % n))))
    return build_graph(m * n, sorted(edges))


def _tree_size(degree: int, depth: int) -> int:
    """Vertex count of ``truncated_tree(degree, depth)``.

    Depths past 64 count as 64, which keeps the power small: at that
    depth a tree of degree 3 or more already has over 2**64 vertices.
    """
    if degree == 2:
        return 2 * depth + 1
    return 1 + degree * ((degree - 1) ** min(depth, 64) - 1) // (degree - 2)


def truncated_tree(degree: int, depth: int) -> Graph:
    """Ball of radius ``depth`` in the infinite ``degree``-regular tree.

    The root keeps full degree; interior vertices have one parent and
    degree-1 children; vertices at distance ``depth`` are leaves.  Used
    as a finite stand-in arena when simulating the tree game.
    """
    if degree < 2:
        raise InvalidParameter(f"tree degree must be >= 2, got {degree}")
    if depth < 1:
        raise InvalidParameter(f"tree depth must be >= 1, got {depth}")
    _check_size(_tree_size(degree, depth))
    edges = []
    frontier = [0]
    next_vertex = 1
    for level in range(depth):
        new_frontier = []
        for parent in frontier:
            fanout = degree if level == 0 else degree - 1
            for _ in range(fanout):
                edges.append((parent, next_vertex))
                new_frontier.append(next_vertex)
                next_vertex += 1
        frontier = new_frontier
    return build_graph(next_vertex, edges)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain-text edge-list format.

    First non-blank line is ``V E``; each of the following E lines is an
    edge ``u v`` in ASCII decimal.
    """
    tokens = text.split()
    if len(tokens) < 2:
        raise InvalidEdge("edge-list input is missing the 'V E' header")
    try:
        values = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise InvalidEdge(f"edge-list input is not ASCII decimal: {exc}") from None
    v_count, e_count = values[0], values[1]
    body = values[2:]
    if len(body) != 2 * e_count:
        raise InvalidEdge(
            f"expected {e_count} edges ({2 * e_count} integers), got {len(body)} integers"
        )
    edges = [(body[2 * i], body[2 * i + 1]) for i in range(e_count)]
    return build_graph(v_count, edges)


def load_edge_list(path) -> Graph:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidEdge(f"cannot read edge-list file {str(path)!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InvalidEdge(f"edge-list file {str(path)!r} is not ASCII") from None
    return parse_edge_list(text)
