"""Finite simple undirected graphs with eagerly computed distances.

Vertices are dense integers ``0..V-1``.  All-pairs shortest-path hop
counts are filled at construction, so a distance is a plain array
lookup.  The table is int16: no graph admitted has a distance above
11,584.  One numpy breadth-first search advances every source of a block
of rows at once over the CSR neighbour arrays: the work is O(V*E), as
for one search per vertex, but each level costs a few dozen numpy calls
instead of a Python step per edge.  Blocks are sized so that all the
search allocates beside its table stays within ``BFS_SCRATCH_BYTES``
(16 MiB) whatever the graph's shape.  A graph of more than 11,585
vertices is refused with GraphTooLarge before anything is allocated, by
the dense cap on a table of 4 bytes a pair (``chain.DENSE_BYTE_CAP``);
the family generators check the vertex count their arguments imply
before they list a single edge.

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

import re
from dataclasses import dataclass

import numpy as np

from . import chain as chain_mod
from .errors import DisconnectedGraph, InvalidEdge, InvalidParameter

UNREACHED = -1
_DECIMAL = re.compile("-?[0-9]+")  # an edge-list token: int() alone also takes "1_2" and "١"
BFS_SCRATCH_BYTES = 2**24  # what the BFS allocates beside its table, at most
_PART = 2**15  # candidates per part: stamps 0 .. 32767 fit int16
_PART_BYTES = 128 * _PART  # a part's temporaries, at most


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


def _candidates(frontier: list, V: int, indptr: np.ndarray, col: np.ndarray, deg: np.ndarray):
    """Yield the flat indices that a level's frontier pieces reach, in parts.

    Each part is the longest run of a piece's entries whose neighbours
    number at most ``_PART``.  A vertex has at most V - 1 <= 11,584
    neighbours, fewer than ``_PART``, so every part takes an entry.
    """
    last = indptr[1:]
    for part in frontier:
        part = part.astype(np.intp)
        row = part // V * V
        v = part - row
        d = deg.take(v)
        ends = np.cumsum(d)
        off = last.take(v) - ends
        b = 0
        while b < part.size:
            start = ends[b - 1] if b else 0
            e = np.searchsorted(ends, start + _PART, side="right")
            pos = np.repeat(off[b:e], d[b:e])
            pos += np.arange(start, ends[e - 1])
            idx = np.repeat(row[b:e], d[b:e])
            idx += col.take(pos)
            yield idx
            b = e


def _distances(vertex_count: int, indptr: np.ndarray, col: np.ndarray) -> np.ndarray:
    """All-pairs hop counts by a BFS from every source of a row block at once.

    A block's frontier is a list of int32 arrays of flat indices
    ``(s - lo) * V + v`` into its rows of the table.  Each level takes
    the frontier's candidates (its entries' neighbours) in parts of at
    most ``_PART``, drops those already set, and keeps one of each
    duplicate by stamping the table itself: after ``block[idx] =
    arange(k)`` exactly one position of each repeated index reads back
    its own stamp, whichever write numpy kept.  Those become the level's
    new entries, so no stamp outlives its part.  New entries are merged
    into pieces of at most ``_PART``, so a level costs a number of numpy
    calls that follows its own size.

    Scratch rule: a level's old and new entries are disjoint positions of
    the block, so the frontier takes at most 4 bytes a block entry, and
    one part's temporaries at most ``_PART_BYTES`` (128 bytes a
    candidate; about 80 are used).  Blocks of
    ``(BFS_SCRATCH_BYTES - _PART_BYTES) // (4 V)`` rows therefore keep
    all the BFS allocates beside its int16 table within
    ``BFS_SCRATCH_BYTES``, whatever the graph's shape: up to 1,773
    vertices are one block.  Each level of a block costs a few dozen
    numpy calls, so few, tall blocks keep long paths fast.  Raises
    DisconnectedGraph after the first block, whose row 0 is the search
    from vertex 0.
    """
    V = vertex_count
    deg = np.diff(indptr)
    dist = np.full((V, V), UNREACHED, dtype=np.int16)
    rows = max(1, min(V, (BFS_SCRATCH_BYTES - _PART_BYTES) // (4 * V)))
    for lo in range(0, V, rows):
        block = dist[lo : lo + rows].reshape(-1)
        sources = np.arange(len(block) // V, dtype=np.int32)
        frontier = [sources * V + (sources + lo)]
        block[frontier[0]] = 0
        level = 0
        while frontier:
            level += 1
            found = []
            for idx in _candidates(frontier, V, indptr, col, deg):
                idx = idx.compress(block.take(idx) == UNREACHED)
                stamp = np.arange(idx.size, dtype=np.int16)
                block[idx] = stamp
                idx = idx.compress(block.take(idx) == stamp)
                block[idx] = level
                if found and 0 < idx.size <= _PART - found[-1].size:
                    found[-1] = np.concatenate((found[-1], idx.astype(np.int32)))
                elif idx.size:
                    found.append(idx.astype(np.int32))
            frontier = found
        if lo == 0 and (dist[0] == UNREACHED).any():
            raise DisconnectedGraph(f"graph on {V} vertices is not connected")
    return dist


def _check_size(vertex_count: int) -> None:
    """Raise GraphTooLarge over 11,585 vertices.

    The check counts 4 bytes a pair against ``chain.DENSE_BYTE_CAP``, the
    int32 table this once was, so refusals and their messages are those
    of that table; the int16 table takes half.  The cap also keeps every
    distance, at most V - 1, within int16.
    """
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

    indptr = np.zeros(vertex_count + 1, dtype=np.intp)
    np.cumsum([len(ns) for ns in neighbors], out=indptr[1:])
    col = np.fromiter((w for ns in neighbors for w in ns), dtype=np.intp, count=indptr[-1])
    dist = _distances(vertex_count, indptr, col)
    dist.flags.writeable = False

    return Graph(
        vertex_count=vertex_count,
        edges=tuple(sorted(canonical)),
        neighbors=neighbors,
        distance=dist,
    )


def _check_cycle(n: int) -> int:
    """Validate ``cycle_graph``'s argument and size; return its vertex count."""
    if n < 3:
        raise InvalidParameter(f"cycle needs n >= 3, got {n}")
    _check_size(n)
    return n


def cycle_graph(n: int) -> Graph:
    _check_cycle(n)
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, edges)


def _check_friendship(n: int) -> int:
    """Validate ``friendship_graph``'s argument and size; return its vertex count."""
    if n < 1:
        raise InvalidParameter(f"friendship graph needs n >= 1, got {n}")
    _check_size(2 * n + 1)
    return 2 * n + 1


def friendship_graph(n: int) -> Graph:
    """``n`` triangles sharing the hub vertex 0."""
    _check_friendship(n)
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


def _check_tree(degree: int, depth: int) -> int:
    """Validate ``truncated_tree``'s arguments and size; return its vertex count.

    Its maximum degree is ``degree``, so a caller can refuse the arena
    from these two numbers before any edge is listed.
    """
    if degree < 2:
        raise InvalidParameter(f"tree degree must be >= 2, got {degree}")
    if depth < 1:
        raise InvalidParameter(f"tree depth must be >= 1, got {depth}")
    vertex_count = _tree_size(degree, depth)
    _check_size(vertex_count)
    return vertex_count


def truncated_tree(degree: int, depth: int) -> Graph:
    """Ball of radius ``depth`` in the infinite ``degree``-regular tree.

    The root keeps full degree; interior vertices have one parent and
    degree-1 children; vertices at distance ``depth`` are leaves.  Used
    as a finite stand-in arena when simulating the tree game.
    """
    _check_tree(degree, depth)
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
    bad = next((tok for tok in tokens if not _DECIMAL.fullmatch(tok)), None)
    if bad is not None:
        raise InvalidEdge(f"edge-list input is not ASCII decimal: {bad!r}")
    values = [int(tok) for tok in tokens]
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
