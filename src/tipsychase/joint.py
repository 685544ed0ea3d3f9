"""Exact joint-position oracle.

Builds the full Markov chain over ordered (cop, robber) vertex pairs on
any finite graph, then lumps it down to distance-style classes.  A
hand-derived family chain is trusted only after the lumped joint chain
matches it entry by entry.

Move rules
----------
* sober cop: a uniformly random neighbor minimizing the post-move hop
  distance to the robber;
* sober robber: a uniformly random neighbor maximizing the post-move
  hop distance, except he stays put when every neighbor would strictly
  close the gap (the only way to be "furthest already");
* tipsy: a uniformly random neighbor.

On a torus the hop-distance optimum is often a tie across axes, and the
reference 7x7 chain resolves it by acting on the larger axis gap first
(the cop shrinks it, the robber grows it).  ``tie_break`` hooks that
preference in: candidates are first filtered by hop distance, then by
the tie-break key (cop keeps the minimum key, robber the maximum).

Assembly
--------
The joint chain and the simulator share one move table, ``_move_tables``:
a padded ``targets`` array and its ``counts``, with one row per move a
spinner outcome can call for, laid out in threshold order.  Rows
0..V^2-1 hold the sober cop's targets at each ordered pair, rows
V^2..2V^2-1 the sober robber's (hop rules only), and the V rows after
them every vertex's neighbours for tipsy moves.  ``_move_rows(outcome,
cop, robber, V)`` gives the row an outcome reads, and the outcome's
parity the player who moves; each move is uniform over its row's
targets.  The table is the package's only statement of the rules.  P
is assembled from it in COO form, one block per spinner outcome with a
positive weight, plus identity rows for captures.  ``sparse_joint_chain``
keeps it as a CSR array (a joint chain is about 0.1% non-zero: 51,921
entries of the 9x9 torus's 6,561^2), and ``build_joint_chain`` is its
dense view.

A partition of the pairs is an integer array over them: entry
``pair_index(g, cop, robber)`` indexes that pair's class in the
lumping's ``class_order``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import chain as chain_mod
from .chain import MarkovChain
from .errors import GraphTooLarge, InvalidParameter, NotLumpable
from .families import SpinnerFour
from .graphs import Graph

TieBreak = Callable[[Graph, int, int], float]

LUMP_TOL = 1e-9
PAIR_TABLE_CAP = 8_000_000  # entries; guards the dense (cop, robber) move tables
STATE_CAP = 10**6  # joint states; checked before any move table is built


@dataclass(frozen=True)
class StrategyRules:
    """The sober move rules above, with an optional secondary tie-break key.

    ``tie_break(g, mover, other)`` ranks a mover's hop-optimal candidates
    against the other player's vertex.  It must accept broadcast integer
    index arrays as well as single vertices and return keys of their
    broadcast shape: the move tables call it once, with a column of
    movers against a row of others.  Tipsy moves are always a uniformly
    random neighbour.
    """

    tie_break: TieBreak | None = None


def standard_rules(tie_break: TieBreak | None = None) -> StrategyRules:
    """The move rules above, with an optional secondary tie-break key."""
    return StrategyRules(tie_break)


def _axis_gaps(m: int, n: int, u, v):
    """Per-axis gaps between vertices u and v of an m x n torus (ints or arrays)."""
    du = np.abs(u // n - v // n)
    dv = np.abs(u % n - v % n)
    return np.minimum(du, m - du), np.minimum(dv, n - dv)


def torus_rules(m: int, n: int) -> StrategyRules:
    """Rules for an m x n torus: break hop-distance ties on the larger axis gap."""

    def widest_gap(g: Graph, mover, other):
        return np.maximum(*_axis_gaps(m, n, mover, other))

    return standard_rules(tie_break=widest_gap)


def pair_index(g: Graph, cop: int, robber: int) -> int:
    return cop * g.vertex_count + robber


# ------------------------------------------------------------ move tables


def _tie_key_matrix(g: Graph, rules: StrategyRules):
    """key[v, w] = tie_break(g, v, w), from one call on broadcast index arrays."""
    if rules.tie_break is None:
        return None
    V = g.vertex_count
    v = np.arange(V)
    key = rules.tie_break(g, v[:, None], v[None, :])
    return np.broadcast_to(np.asarray(key, dtype=float), (V, V))


def check_move_tables(vertex_count: int, max_degree: int) -> None:
    """Raise InvalidParameter when the move tables would exceed PAIR_TABLE_CAP entries.

    Arithmetic on the arena's size alone, so a caller can refuse an arena
    before it builds the graph or its distance table.
    """
    if vertex_count * vertex_count * max_degree > PAIR_TABLE_CAP:
        raise InvalidParameter(
            f"graph too large for the (cop, robber) move tables "
            f"({vertex_count} vertices, max degree {max_degree})"
        )


def _move_rows(outcome, cop, robber, V: int):
    """The move-table row that spinner ``outcome`` reads at pair (cop, robber).

    Outcomes run in threshold order: sober cop, sober robber, tipsy cop,
    tipsy robber; an even outcome moves the cop, an odd one the robber.
    Works on integers and on broadcast index arrays alike.
    """
    sober = (outcome * V + cop) * V + robber
    tipsy = 2 * V * V + np.where(outcome % 2 == 0, cop, robber)
    return np.where(outcome < 2, sober, tipsy)


def _move_tables(g: Graph, rules: StrategyRules):
    """(targets, counts): the padded move targets of every ``_move_rows`` row.

    Row r lists its ``counts[r]`` targets in ascending order, each taken
    with probability 1 / counts[r], and zeros after them.  A mover keeps
    the neighbours that are best by hop distance to the other player,
    then by the tie-break key: least for the cop, greatest for the
    robber (compared as least after negation, which is exact).
    """
    V = g.vertex_count
    maxdeg = max(map(len, g.neighbors))
    check_move_tables(V, maxdeg)
    dist = g.distance
    key = _tie_key_matrix(g, rules)
    targets = np.zeros((2 * V * V + V, maxdeg), dtype=np.int32)
    counts = np.zeros(2 * V * V + V, dtype=np.int32)
    others = np.arange(V)

    for v in range(V):
        ns = np.array(g.neighbors[v], dtype=np.int64)
        targets[2 * V * V + v, : len(ns)] = ns
        counts[2 * V * V + v] = len(ns)
        D = dist[ns]  # (deg, V): distance from each neighbour to every opponent
        # v as the cop against every robber, then as the robber against every cop
        for rows, sign in ((v * V + others, 1), (V * V + others * V + v, -1)):
            signed = sign * D
            mask = signed == signed.min(axis=0)
            if key is not None:
                K = sign * key[ns]
                mask &= K == np.where(mask, K, np.inf).min(axis=0)
            n = mask.sum(axis=0)
            packed = ns[np.argsort(~mask, axis=0, kind="stable")].T
            packed[np.arange(len(ns)) >= n[:, None]] = 0
            targets[rows, : len(ns)] = packed
            counts[rows] = n
        # the robber stays put when every neighbour would strictly close the gap
        stay = V * V + others[(D < dist[v]).all(axis=0)] * V + v
        targets[stay, 0] = v
        counts[stay] = 1

    return targets, counts


# ------------------------------------------------------------ joint chain


def _joint_states(g: Graph) -> int:
    V = g.vertex_count
    if V < 2:
        raise InvalidParameter("joint chain needs at least 2 vertices")
    n_states = V * V
    if n_states > STATE_CAP:
        raise GraphTooLarge(f"{n_states} joint states exceed the cap of {STATE_CAP}")
    return n_states


def _assemble(g: Graph, s: SpinnerFour, rules: StrategyRules):
    """(labels, (values, (rows, cols)), absorbing) of the joint chain's P.

    A non-capture row mixes the four one-player moves with the spinner
    weights: weight * (1 / target count) on each target pair.  Two
    entries fall on one cell only when a player's sober and tipsy moves
    share a target, so the sum is the same in any order.
    """
    V = g.vertex_count
    targets, counts = _move_tables(g, rules)
    pairs = np.arange(V * V)
    cop, robber = np.divmod(pairs, V)
    live = cop != robber
    pairs, cop, robber = pairs[live], cop[live], robber[live]

    rows, cols, vals = [], [], []
    for outcome, weight in enumerate((s.c, s.r, s.t_c, s.t_r)):
        if weight == 0.0:
            continue  # no entries: the structural divergence test reads the support of P
        row = _move_rows(outcome, cop, robber, V)
        cnt = counts[row]
        target = targets[row][np.arange(targets.shape[1]) < cnt[:, None]].astype(np.int64)
        rows.append(np.repeat(pairs, cnt))
        if outcome % 2 == 0:
            cols.append(target * V + np.repeat(robber, cnt))
        else:
            cols.append(np.repeat(cop, cnt) * V + target)
        vals.append(np.repeat(weight * (1.0 / cnt), cnt))
    capture = np.arange(V) * (V + 1)
    rows.append(capture)
    cols.append(capture)
    vals.append(np.ones(V))

    labels = tuple(f"({c},{r})" for c in range(V) for r in range(V))
    entries = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return labels, entries, frozenset(capture.tolist())


def sparse_joint_chain(g: Graph, s: SpinnerFour, rules: StrategyRules) -> MarkovChain:
    """Chain over all ordered (cop, robber) pairs, P a CSR array; capture states absorb.

    State ``pair_index(g, cop, robber)`` is labelled "(cop,robber)".
    """
    import scipy.sparse  # deferred: dense-only callers never pay its import

    n_states = _joint_states(g)
    labels, entries, absorbing = _assemble(g, s, rules)
    P = scipy.sparse.csr_array(entries, shape=(n_states, n_states))
    built = MarkovChain(labels, P, absorbing)
    chain_mod.validate(built)
    return built


def build_joint_chain(g: Graph, s: SpinnerFour, rules: StrategyRules) -> MarkovChain:
    """Dense view of ``sparse_joint_chain``, with the same states and entries.

    Refuses with GraphTooLarge, before assembling, when the dense P
    would exceed ``chain.DENSE_BYTE_CAP``.
    """
    n_states = _joint_states(g)
    chain_mod.check_dense_size(n_states, n_states, "joint chain P")
    sparse = sparse_joint_chain(g, s, rules)
    return MarkovChain(sparse.state_labels, sparse.P.toarray(), sparse.absorbing)


@dataclass(frozen=True, eq=False)
class Lumping:
    """Assignment of every joint state to a class.

    ``class_of[pair_index(g, cop, robber)]`` is the index into
    ``class_order`` of that pair's class, held as a read-only integer
    array.  ``class_order`` fixes the state order of the lumped chain so
    it can be compared against a hand-built chain directly; capture
    states all belong to class "0".
    """

    class_order: tuple[str, ...]
    class_of: np.ndarray

    def __post_init__(self):
        class_of = np.asarray(self.class_of).view()
        if class_of.dtype.kind not in "iu":
            raise InvalidParameter(f"class_of holds {class_of.dtype}, not class indices")
        class_of.flags.writeable = False
        object.__setattr__(self, "class_of", class_of)

    def representative(self, label: str) -> int:
        """The first state of class ``label`` in pair order."""
        if label in self.class_order:
            states = np.flatnonzero(self.class_of == self.class_order.index(label))
            if states.size:
                return int(states[0])
        raise InvalidParameter(f"no state in class {label!r}")


def lump(chain_joint: MarkovChain, lumping: Lumping) -> MarkovChain:
    """Aggregate the joint chain over the partition, requiring exactness.

    Strong lumpability (Kemeny & Snell): with ``member`` the n x K one-hot
    of the partition, P @ member must equal member @ P_lumped within 1e-9,
    where row k of P_lumped is the aggregated row of class k's first state.
    Every state is checked at once, and NotLumpable names the worst one.
    ``member`` is a CSR array when P is one, so memory follows P's non-zeros.
    """
    n = chain_joint.n_states
    class_of = lumping.class_of
    if class_of.shape != (n,):
        raise InvalidParameter("lumping does not cover every joint state")
    K = len(lumping.class_order)
    if n and (class_of.min() < 0 or class_of.max() >= K):
        raise InvalidParameter("class index out of range")
    first = np.full(K, n)
    np.minimum.at(first, class_of, np.arange(n))
    empty = np.flatnonzero(first == n)
    if empty.size:
        raise InvalidParameter(f"class {lumping.class_order[empty[0]]!r} has no members")

    sparse = chain_mod._is_sparse(chain_joint.P)
    if sparse:
        import scipy.sparse

        member = scipy.sparse.eye_array(K, format="csr")[class_of]
    else:
        member = np.eye(K)[class_of]
    aggregated = chain_joint.P @ member
    lumped = aggregated[first]
    error = abs(aggregated - member @ lumped)
    worst, column = divmod(int(error.argmax()), K)
    if error[worst, column] > LUMP_TOL:
        k = class_of[worst]
        raise NotLumpable(lumping.class_order[k], (int(first[k]), worst),
                          float(error[worst, column]))

    transient_members = np.bincount(np.delete(class_of, list(chain_joint.absorbing)), minlength=K)
    built = MarkovChain(tuple(lumping.class_order), lumped.toarray() if sparse else lumped,
                        frozenset(np.flatnonzero(transient_members == 0).tolist()))
    chain_mod.validate(built)
    return built


def distance_lumping(g: Graph) -> Lumping:
    """Classes are plain hop distances: "0" (capture) up to the diameter."""
    classes = tuple(str(d) for d in range(g.diameter + 1))
    return Lumping(classes, g.distance.ravel())


def friendship_lumping(g: Graph) -> Lumping:
    """Classes 2 / 1cc / 1rc / 1e / 0 on a friendship graph (hub = 0)."""
    V = g.vertex_count
    cop, robber = np.divmod(np.arange(V * V), V)
    class_of = np.select(
        [cop == robber, g.distance.ravel() == 2, cop == 0, robber == 0], [4, 0, 1, 2], 3
    )
    return Lumping(("2", "1cc", "1rc", "1e", "0"), class_of)


def torus_lumping(g: Graph, m: int, n: int) -> Lumping:
    """Classes are sorted per-axis gaps "(a,b)" with a >= b; capture is "0".

    Classes run from the largest gap down; capture, the only pair whose
    gaps are both 0, comes last.
    """
    if g.vertex_count != m * n:
        raise InvalidParameter(f"graph has {g.vertex_count} vertices, torus wants {m * n}")
    v = np.arange(m * n)
    a, b = _axis_gaps(m, n, v[:, None], v[None, :])
    base = max(m, n)
    gaps, index = np.unique((np.maximum(a, b) * base + np.minimum(a, b)).ravel(),
                            return_inverse=True)
    order = [f"({hi},{lo})" for hi, lo in zip(*np.divmod(gaps[:0:-1], base))]
    return Lumping((*order, "0"), len(gaps) - 1 - index)
