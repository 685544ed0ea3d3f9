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
The joint chain and the simulator share one move layer,
``_move_tables``: per ordered pair, the sober cop's and the sober
robber's targets, plus every vertex's neighbour list for tipsy moves.
P is assembled from those tables in COO form, one block per spinner
outcome with a positive weight, plus identity rows for captures.
``sparse_joint_chain`` keeps it as a CSR array (a joint chain is about
0.1% non-zero: 51,921 entries of the 9x9 torus's 6,561^2), and
``build_joint_chain`` is the dense view of the same entries, equal bit
for bit to adding the four move distributions row by row.

Because they are tables, every move distribution must be uniform over
its targets, as the simulator also requires; every rule set here is.
Hop-based rules are tabulated with array operations; any other rule
set by calling its ``cop_move`` / ``robber_move`` once per pair, and a
non-uniform distribution is refused with InvalidParameter.
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

MoveDistribution = dict[int, float]
TieBreak = Callable[[Graph, int, int], float]

LUMP_TOL = 1e-9
PAIR_TABLE_CAP = 8_000_000  # entries; guards the dense (cop, robber) move tables


@dataclass(frozen=True)
class StrategyRules:
    """Sober move distributions given (graph, cop, robber).

    ``hop_based`` marks rules of the standard shape (optimize hop
    distance, refine ties with ``tie_break``, split uniformly);
    ``_move_tables`` exploits that structure to tabulate them with array
    operations instead of per-pair calls.  Tipsy moves are always a
    uniformly random neighbour.
    """

    cop_move: Callable[[Graph, int, int], MoveDistribution]
    robber_move: Callable[[Graph, int, int], MoveDistribution]
    hop_based: bool = False
    tie_break: TieBreak | None = None


def _uniform(targets) -> MoveDistribution:
    share = 1.0 / len(targets)
    return {v: share for v in targets}


def _refine(g: Graph, candidates, other: int, tie_break: TieBreak | None, pick_max: bool):
    if tie_break is None or len(candidates) == 1:
        return candidates
    keys = [tie_break(g, v, other) for v in candidates]
    best = max(keys) if pick_max else min(keys)
    return [v for v, k in zip(candidates, keys) if k == best]


def standard_rules(tie_break: TieBreak | None = None) -> StrategyRules:
    """The move rules above, with an optional secondary tie-break key."""

    def cop_move(g: Graph, cop: int, robber: int) -> MoveDistribution:
        dist = g.distance[robber]
        best = min(dist[v] for v in g.neighbors[cop])
        keep = [v for v in g.neighbors[cop] if dist[v] == best]
        return _uniform(_refine(g, keep, robber, tie_break, pick_max=False))

    def robber_move(g: Graph, cop: int, robber: int) -> MoveDistribution:
        dist = g.distance[cop]
        here = dist[robber]
        if all(dist[v] < here for v in g.neighbors[robber]):
            return {robber: 1.0}
        best = max(dist[v] for v in g.neighbors[robber])
        keep = [v for v in g.neighbors[robber] if dist[v] == best]
        return _uniform(_refine(g, keep, cop, tie_break, pick_max=True))

    return StrategyRules(
        cop_move=cop_move,
        robber_move=robber_move,
        hop_based=True,
        tie_break=tie_break,
    )


def _axis_gaps(m: int, n: int, u: int, v: int) -> tuple[int, int]:
    du = abs(u // n - v // n)
    dv = abs(u % n - v % n)
    return min(du, m - du), min(dv, n - dv)


def torus_rules(m: int, n: int) -> StrategyRules:
    """Rules for an m x n torus: break hop-distance ties on the larger axis gap."""

    def widest_gap(g: Graph, mover: int, other: int) -> float:
        return float(max(_axis_gaps(m, n, mover, other)))

    return standard_rules(tie_break=widest_gap)


def pair_index(g: Graph, cop: int, robber: int) -> int:
    return cop * g.vertex_count + robber


# ------------------------------------------------------------ move tables


def _uniform_targets(dist: dict[int, float], where: str):
    """Targets of an equal-weight distribution (the only kind the tables hold)."""
    targets = sorted(dist)
    share = 1.0 / len(targets)
    for v in targets:
        if abs(dist[v] - share) > 1e-12:
            raise InvalidParameter(
                f"{where}: move tables support uniform move distributions only"
            )
    return targets


def _padded_neighbors(g: Graph):
    V = g.vertex_count
    maxdeg = max(g.degree(v) for v in range(V))
    nbr = np.zeros((V, maxdeg), dtype=np.int32)
    deg = np.zeros(V, dtype=np.int32)
    for v in range(V):
        ns = g.neighbors[v]
        deg[v] = len(ns)
        nbr[v, : len(ns)] = ns
    return nbr, deg, maxdeg


def _tie_key_matrix(g: Graph, rules: StrategyRules):
    if rules.tie_break is None:
        return None
    V = g.vertex_count
    key = np.empty((V, V))
    for v in range(V):
        for w in range(V):
            key[v, w] = rules.tie_break(g, v, w)
    return key


def _pack_mask(rows, mask, tab, cnt, vertex_ids):
    """Write the True rows of ``mask`` (per column) into padded tables."""
    counts = mask.sum(axis=0)
    width = min(tab.shape[1], mask.shape[0])
    order = np.argsort(~mask, axis=0, kind="stable")[:width]
    packed = vertex_ids[order].T.astype(tab.dtype)
    packed[np.arange(width)[None, :] >= counts[:, None]] = 0
    tab[rows, :width] = packed
    cnt[rows] = counts


def _hop_move_tables(g: Graph, rules: StrategyRules, maxdeg):
    """Vectorized tables for hop-distance rules: one numpy pass per vertex."""
    V = g.vertex_count
    dist = g.distance
    key = _tie_key_matrix(g, rules)
    cop_tab = np.zeros((V * V, maxdeg), dtype=np.int32)
    cop_cnt = np.zeros(V * V, dtype=np.int32)
    rob_tab = np.zeros((V * V, maxdeg + 1), dtype=np.int32)  # +1: robber may stay
    rob_cnt = np.zeros(V * V, dtype=np.int32)

    for v in range(V):
        ns = np.array(g.neighbors[v], dtype=np.int64)
        D = dist[ns]  # (deg, V): distance from each neighbor to every opponent
        rows_cop = v * V + np.arange(V)

        mask = D == D.min(axis=0)
        if key is not None:
            Kc = key[ns]
            best = np.where(mask, Kc, np.inf).min(axis=0)
            mask &= Kc == best
        _pack_mask(rows_cop, mask, cop_tab, cop_cnt, ns)

        # robber at v against every cop position w (pairs w * V + v)
        rows_rob = np.arange(V) * V + v
        here = dist[v]
        mask = D == D.max(axis=0)
        if key is not None:
            Kr = key[ns]
            best = np.where(mask, Kr, -np.inf).max(axis=0)
            mask &= Kr == best
        _pack_mask(rows_rob, mask, rob_tab, rob_cnt, ns)
        stay = (D < here).all(axis=0)
        if stay.any():
            idx = rows_rob[stay]
            rob_tab[idx, 0] = v
            rob_cnt[idx] = 1

    return cop_tab, cop_cnt, rob_tab, rob_cnt


def _generic_move_tables(g: Graph, rules: StrategyRules, maxdeg):
    """Fallback tables built by calling the rule functions pair by pair."""
    V = g.vertex_count
    cop_tab = np.zeros((V * V, maxdeg), dtype=np.int32)
    cop_cnt = np.zeros(V * V, dtype=np.int32)
    rob_tab = np.zeros((V * V, maxdeg + 1), dtype=np.int32)
    rob_cnt = np.zeros(V * V, dtype=np.int32)
    for cop in range(V):
        for robber in range(V):
            if cop == robber:
                continue
            pair = cop * V + robber
            targets = _uniform_targets(rules.cop_move(g, cop, robber), "cop_move")
            cop_cnt[pair] = len(targets)
            cop_tab[pair, : len(targets)] = targets
            targets = _uniform_targets(rules.robber_move(g, cop, robber), "robber_move")
            rob_cnt[pair] = len(targets)
            rob_tab[pair, : len(targets)] = targets
    return cop_tab, cop_cnt, rob_tab, rob_cnt


def check_move_tables(g: Graph) -> None:
    """Raise InvalidParameter when g's move tables would exceed PAIR_TABLE_CAP entries."""
    V = g.vertex_count
    maxdeg = max(map(len, g.neighbors))
    if V * V * maxdeg > PAIR_TABLE_CAP:
        raise InvalidParameter(
            f"graph too large for the (cop, robber) move tables "
            f"({V} vertices, max degree {maxdeg})"
        )


def _move_tables(g: Graph, rules: StrategyRules):
    """Dense per-pair sober-move tables plus padded neighbor lists."""
    check_move_tables(g)
    nbr, deg, maxdeg = _padded_neighbors(g)
    build = _hop_move_tables if rules.hop_based else _generic_move_tables
    cop_tab, cop_cnt, rob_tab, rob_cnt = build(g, rules, maxdeg)
    return nbr, deg, cop_tab, cop_cnt, rob_tab, rob_cnt


# ------------------------------------------------------------ joint chain


def _joint_states(g: Graph, state_cap: int) -> int:
    V = g.vertex_count
    if V < 2:
        raise InvalidParameter("joint chain needs at least 2 vertices")
    n_states = V * V
    if n_states > state_cap:
        raise GraphTooLarge(f"{n_states} joint states exceed the cap of {state_cap}")
    return n_states


def _assemble(g: Graph, s: SpinnerFour, rules: StrategyRules):
    """(labels, (values, (rows, cols)), absorbing) of the joint chain's P.

    A non-capture row mixes the four one-player moves with the spinner
    weights: weight * (1 / target count) on each target pair.  Two
    entries fall on one cell only when a player's sober and tipsy moves
    share a target, so the sum is the same in any order.
    """
    V = g.vertex_count
    nbr, deg, cop_tab, cop_cnt, rob_tab, rob_cnt = _move_tables(g, rules)
    pairs = np.arange(V * V)
    cop, robber = np.divmod(pairs, V)
    live = cop != robber
    pairs, cop, robber = pairs[live], cop[live], robber[live]

    rows, cols, vals = [], [], []
    for weight, tab, cnt, cop_moves in (
        (s.c, cop_tab[pairs], cop_cnt[pairs], True),
        (s.t_c, nbr[cop], deg[cop], True),
        (s.r, rob_tab[pairs], rob_cnt[pairs], False),
        (s.t_r, nbr[robber], deg[robber], False),
    ):
        if weight == 0.0:
            continue  # no entries: the structural divergence test reads the support of P
        target = tab[np.arange(tab.shape[1]) < cnt[:, None]].astype(np.int64)
        rows.append(np.repeat(pairs, cnt))
        if cop_moves:
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


def sparse_joint_chain(
    g: Graph, s: SpinnerFour, rules: StrategyRules, state_cap: int = 10**6
) -> MarkovChain:
    """Chain over all ordered (cop, robber) pairs, P a CSR array; capture states absorb.

    State ``pair_index(g, cop, robber)`` is labelled "(cop,robber)".
    """
    import scipy.sparse  # deferred: dense-only callers never pay its import

    n_states = _joint_states(g, state_cap)
    labels, entries, absorbing = _assemble(g, s, rules)
    P = scipy.sparse.csr_array(entries, shape=(n_states, n_states))
    built = MarkovChain(labels, P, absorbing)
    chain_mod.validate(built)
    return built


def build_joint_chain(
    g: Graph, s: SpinnerFour, rules: StrategyRules, state_cap: int = 10**6
) -> MarkovChain:
    """Dense view of ``sparse_joint_chain``, with the same states and entries.

    Refuses with GraphTooLarge, before allocating, when the dense P
    would exceed ``chain.DENSE_BYTE_CAP``.
    """
    n_states = _joint_states(g, state_cap)
    chain_mod.check_dense_size(n_states, n_states, "joint chain P")
    labels, (vals, (rows, cols)), absorbing = _assemble(g, s, rules)
    P = np.zeros((n_states, n_states))
    np.add.at(P, (rows, cols), vals)
    built = MarkovChain(labels, P, absorbing)
    chain_mod.validate(built)
    return built


@dataclass(frozen=True)
class Lumping:
    """Assignment of every joint state to a class label.

    ``class_order`` fixes the state order of the lumped chain so it can
    be compared against a hand-built chain directly; capture states all
    belong to class "0".
    """

    class_order: tuple[str, ...]
    class_of: tuple[str, ...]

    def members(self, label: str) -> list[int]:
        return [i for i, lab in enumerate(self.class_of) if lab == label]

    def representative(self, label: str) -> int:
        for i, lab in enumerate(self.class_of):
            if lab == label:
                return i
        raise InvalidParameter(f"no state in class {label!r}")


def lump(chain_joint: MarkovChain, lumping: Lumping) -> MarkovChain:
    """Aggregate the joint chain over the partition, requiring exactness.

    Strong lumpability: within a class, every state's row must aggregate
    to the same class-level distribution (within 1e-9); otherwise the
    partition is not Markov-exact and NotLumpable reports the worst
    offender.
    """
    n = chain_joint.n_states
    if len(lumping.class_of) != n:
        raise InvalidParameter("lumping does not cover every joint state")
    order = {label: k for k, label in enumerate(lumping.class_order)}
    missing = set(lumping.class_of) - set(order)
    if missing:
        raise InvalidParameter(f"classes {sorted(missing)} missing from class_order")
    K = len(lumping.class_order)

    indicator = np.zeros((n, K))
    for i, label in enumerate(lumping.class_of):
        indicator[i, order[label]] = 1.0
    aggregated = chain_joint.P @ indicator

    P_lumped = np.zeros((K, K))
    absorbing = set()
    for label, k in order.items():
        members = lumping.members(label)
        if not members:
            raise InvalidParameter(f"class {label!r} has no members")
        rows = aggregated[members]
        spread = np.abs(rows - rows[0]).max(axis=1)
        worst = int(np.argmax(spread))
        if spread[worst] > LUMP_TOL:
            raise NotLumpable(label, (members[0], members[worst]), float(spread[worst]))
        P_lumped[k] = rows[0]
        if all(i in chain_joint.absorbing for i in members):
            absorbing.add(k)

    built = MarkovChain(tuple(lumping.class_order), P_lumped, frozenset(absorbing))
    chain_mod.validate(built)
    return built


def distance_lumping(g: Graph) -> Lumping:
    """Classes are plain hop distances: "0" (capture) up to the diameter."""
    V = g.vertex_count
    classes = [str(d) for d in range(g.diameter + 1)]
    labels = []
    for cop in range(V):
        for robber in range(V):
            labels.append(str(int(g.distance[cop, robber])))
    return Lumping(tuple(classes), tuple(labels))


def friendship_lumping(g: Graph) -> Lumping:
    """Classes 2 / 1cc / 1rc / 1e / 0 on a friendship graph (hub = 0)."""
    V = g.vertex_count
    labels = []
    for cop in range(V):
        for robber in range(V):
            if cop == robber:
                labels.append("0")
            elif g.distance[cop, robber] == 2:
                labels.append("2")
            elif cop == 0:
                labels.append("1cc")
            elif robber == 0:
                labels.append("1rc")
            else:
                labels.append("1e")
    return Lumping(("2", "1cc", "1rc", "1e", "0"), tuple(labels))


def torus_lumping(g: Graph, m: int, n: int) -> Lumping:
    """Classes are sorted per-axis gaps "(a,b)" with a >= b; capture is "0"."""
    if g.vertex_count != m * n:
        raise InvalidParameter(f"graph has {g.vertex_count} vertices, torus wants {m * n}")
    labels = []
    seen = set()
    for cop in range(m * n):
        for robber in range(m * n):
            if cop == robber:
                labels.append("0")
                continue
            a, b = _axis_gaps(m, n, cop, robber)
            label = f"({max(a, b)},{min(a, b)})"
            labels.append(label)
            seen.add(label)
    ordered = sorted(
        seen, key=lambda lab: tuple(-int(x) for x in lab.strip("()").split(","))
    )
    return Lumping(tuple(ordered + ["0"]), tuple(labels))
