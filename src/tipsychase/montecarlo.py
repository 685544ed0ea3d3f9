"""Seeded stochastic simulation of the pursuit game on a finite graph.

Reproducibility contract
------------------------
Trial ``k`` draws from its own counter-based stream::

    Generator(Philox(key=seed mod 2**64, counter=k * 2**64))

and consumes exactly two doubles per round: one to pick the spinner
outcome (cumulative thresholds c, c+r, c+r+t_c, 1) and one to pick the
moving player's target.  Reports therefore depend only on (seed, trial
index, round number) and are bitwise identical however trials are
batched and however long the draw blocks are.

Trials are simulated in lock-step batches with numpy for speed; the
per-trial streams make that purely an implementation detail.  Draws
are refilled in blocks of 64 rounds: once per block, each live trial
repositions one shared Philox instance by writing its counter into a
state template of Python ints, then draws only the doubles the block
can play.

A trial carries one number, the slot of its (cop, robber) pair in the
move table ``_move_tables`` makes.  Slots are numbered as trials reach
pairs, the start pair first, so the table holds only the pairs a run
reaches (6,948 of the 2.35 M on the 1,534-vertex tree arena, in about
0.52 MB).  A round's outcome is the count of thresholds at or below its
first double, and flat takes at row ``4 * slot + outcome`` give the
row's target count n, the pick ``min(int(u * n), n - 1)`` and the
target: the slot of the pair the move leads to.  A per-slot byte marks
the pairs that end the game, capture and escape.  A round that reads a
count of 0 first fills the rows its trials miss from ``joint._mover``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import check_dense_size
from .errors import InvalidParameter, InvalidStart
from .families import SpinnerFour
from .graphs import Graph
from .joint import StrategyRules, _mover


@dataclass(frozen=True)
class SimConfig:
    graph: Graph
    spinner: SpinnerFour
    rules: StrategyRules
    cop_start: int
    robber_start: int
    trials: int
    max_rounds: int
    seed: int
    escape_distance: int | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidParameter(f"trials must be >= 1, got {self.trials}")
        if self.max_rounds < 1:
            raise InvalidParameter(f"max_rounds must be >= 1, got {self.max_rounds}")


def check_horizon(rounds: int, max_rounds: int) -> None:
    """Refuse ``rounds`` outside 0..max_rounds, the horizons a run's curve holds."""
    if not 0 <= rounds <= max_rounds:
        raise InvalidParameter(f"survival horizon must be in 0..{max_rounds}, got {rounds}")


@dataclass(frozen=True)
class SimReport:
    """Empirical survival curve and game-length summary.

    ``survival_curve[m - 1]`` estimates the probability of lasting at
    least m rounds; its final entry equals ``censored_fraction``.  When
    any trial is censored, ``mean_rounds`` is only a lower bound for the
    true expectation (tail rounds beyond the cap are not extrapolated).
    """

    trials: int
    survival_curve: np.ndarray
    survival_se: np.ndarray
    mean_rounds: float
    mean_rounds_se: float
    mean_is_lower_bound: bool
    censored_fraction: float
    capture_fraction: float
    escape_fraction: float

    def survival(self, rounds: int) -> float:
        check_horizon(rounds, len(self.survival_curve))
        return 1.0 if rounds == 0 else float(self.survival_curve[rounds - 1])

    def survival_stderr(self, rounds: int) -> float:
        check_horizon(rounds, len(self.survival_se))
        return 0.0 if rounds == 0 else float(self.survival_se[rounds - 1])


_BLOCK_ROUNDS = 64  # even: a counter tick holds two rounds' draws


def _stream(key: int):
    """(bit_gen, gen, state): a Philox generator and the state template ``_refill`` writes.

    The template's counter, key and buffer are lists of Python ints, which
    numpy's state setter reads about twice as fast as uint64 arrays; only
    the counter words get rewritten.
    """
    bit_gen = np.random.Philox(key=key)
    state = bit_gen.state
    state["state"] = {k: v.tolist() for k, v in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    return bit_gen, np.random.Generator(bit_gen), state


def _refill(bit_gen, gen, state, draws, rows, first_trial, first_round, block):
    """Fill each row's doubles for rounds first_round .. first_round + block - 1.

    One Philox instance is repositioned per trial instead of constructing
    a fresh one: trial k's stream starts at counter k * 2**64, and each
    counter tick gives 4 doubles, two rounds, so round m's draws start at
    tick m // 2 (``first_round`` is a multiple of _BLOCK_ROUNDS, so even).
    Only the block's 2 * block doubles are drawn, into the row in place.
    """
    counter = state["state"]["counter"]
    counter[0] = first_round // 2
    for row in rows.tolist():
        counter[1] = first_trial + row
        bit_gen.state = state
        gen.random(out=draws[row, : 2 * block])


def _outcomes(u, thresholds):
    """How many of the three ``thresholds`` are at or below each draw: for u < 1,
    ``np.searchsorted((*thresholds, 1.0), u, side="right")``, at a fraction of its cost."""
    t0, t1, t2 = thresholds
    return (u >= t0).astype(np.int64) + (u >= t1) + (u >= t2)


_START_SLOTS = 1024  # the move table's first capacity in pairs; it doubles when full


class _Table:
    """The simulator's move table over the (cop, robber) pairs its trials reach.

    A pair gets the next slot number when it is first reached.
    ``keys[slot]`` is its key cop * V + robber, and ``end[slot]`` is 1 at
    a capture, 2 at or past the escape distance and 0 while the game goes
    on.  Row 4 * slot + outcome of ``targets`` (outcomes in threshold
    order: sober cop, sober robber, tipsy cop, tipsy robber; an odd one
    moves the robber) lists the slots of the pairs the move leads to, in
    ascending order of the mover's new vertex, each taken with
    probability 1 / counts[row], and zeros after them.  A filled row
    counts at least 1, so a count of 0 marks a row no trial has read yet.
    The arrays are allocated for a capacity of slots that doubles when
    full, up to V^2; ``sorted_keys`` and ``sorted_slots`` map keys to
    slots.  ``joint.check_move_tables`` states the memory this can take.
    """

    def __init__(self, g: Graph, rules: StrategyRules, escape_distance: int | None,
                 start: int):
        self.moves = _mover(g, rules)  # checks joint.check_move_tables first
        self.V, self.dist, self.escape = g.vertex_count, g.distance, escape_distance
        cap = min(_START_SLOTS, self.V**2)
        self.targets = np.zeros((4 * cap, max(map(len, g.neighbors))), dtype=np.int32)
        self.counts = np.zeros(4 * cap, dtype=np.uint8)
        self.end = np.zeros(cap, dtype=np.uint8)
        self.keys = np.zeros(cap, dtype=np.int32)
        self.size = 0
        self.sorted_keys = self.sorted_slots = np.zeros(0, dtype=np.int32)
        self._add(np.array([start], dtype=np.int32))

    def slots(self, keys):
        """The slots of int32 pair keys ``keys``, numbering the pairs not reached before."""
        at = np.searchsorted(self.sorted_keys, keys)
        known = self.sorted_keys.take(at, mode="clip") == keys
        if not known.all():
            self._add(np.unique(keys[~known]))
            at = np.searchsorted(self.sorted_keys, keys)
        return self.sorted_slots.take(at)

    def _add(self, fresh):
        """Give the ascending new keys ``fresh`` the next slots."""
        lo, hi = self.size, self.size + fresh.size
        if hi > len(self.keys):
            self._grow(hi)
        self.keys[lo:hi] = fresh
        cop, robber = np.divmod(fresh, self.V)
        end = (cop == robber).astype(np.uint8)
        if self.escape is not None:
            end[self.dist[cop, robber] >= self.escape] = 2
        self.end[lo:hi] = end
        at = np.searchsorted(self.sorted_keys, fresh)
        self.sorted_keys = np.insert(self.sorted_keys, at, fresh)
        self.sorted_slots = np.insert(self.sorted_slots, at, np.arange(lo, hi, dtype=np.int32))
        self.size = hi

    def _grow(self, need: int):
        cap = len(self.keys)
        new_cap = min(max(2 * cap, need), self.V**2)

        def grown(a):
            b = np.zeros((a.shape[0] // cap * new_cap, *a.shape[1:]), dtype=a.dtype)
            b[: len(a)] = a
            return b

        self.targets, self.counts, self.end, self.keys = map(
            grown, (self.targets, self.counts, self.end, self.keys))

    def fill(self, rows):
        """Fill table rows ``rows`` (repeats allowed) from the move rule."""
        V = self.V
        rows = np.unique(rows)
        slot, outcome = np.divmod(rows, 4)
        cop, robber = np.divmod(self.keys.take(slot).astype(np.int64), V)
        rob_turn = (outcome & 1).astype(bool)
        ns, kept = self.moves(np.minimum(outcome, 2), np.where(rob_turn, robber, cop),
                              np.where(rob_turn, cop, robber))
        # V exceeds every vertex: sorting puts the kept targets first, ascending
        packed = np.sort(np.where(kept, ns, V), axis=1)
        real = packed < V
        keys = np.where(rob_turn[:, None], cop[:, None] * V + packed, packed * V + robber[:, None])
        new = np.zeros(packed.shape, dtype=np.int32)
        new[real] = self.slots(keys[real].astype(np.int32))
        self.targets[rows] = new
        self.counts[rows] = kept.sum(axis=1)


def _move_tables(cfg: SimConfig) -> _Table:
    """The move table of cfg's arena, empty but for the start pair at slot 0."""
    start = cfg.cop_start * cfg.graph.vertex_count + cfg.robber_start
    return _Table(cfg.graph, cfg.rules, cfg.escape_distance, start)


def _run_batch(cfg: SimConfig, tables: _Table, lo: int, hi: int, rounds_out, outcome_out):
    """Simulate trials lo..hi-1 in lock-step; write per-trial results."""
    s = cfg.spinner
    thresholds = (s.c, s.c + s.r, s.c + s.r + s.t_c)
    targets, counts, end = tables.targets, tables.counts, tables.end
    width = targets.shape[1]

    size = hi - lo
    bit_gen, gen, state = _stream(cfg.seed & 0xFFFFFFFFFFFFFFFF)

    alive = np.arange(size)
    slot = np.zeros(size, dtype=np.int32)  # the pair of each trial in alive; start: slot 0
    draws = np.empty((size, 2 * _BLOCK_ROUNDS))
    rounds_done = 0

    while alive.size and rounds_done < cfg.max_rounds:
        block = min(_BLOCK_ROUNDS, cfg.max_rounds - rounds_done)
        _refill(bit_gen, gen, state, draws, alive, lo, rounds_done, block)
        for j in range(block):
            row = slot * 4 + _outcomes(draws[alive, 2 * j], thresholds)
            n = counts.take(row)
            if np.count_nonzero(n) < n.size:  # unread rows: fill them, then read again
                tables.fill(row[n == 0])
                targets, counts, end = tables.targets, tables.counts, tables.end
                n = counts.take(row)
            pick = np.minimum((draws[alive, 2 * j + 1] * n).astype(np.int64), n - 1)
            slot = targets.take(row * width + pick)  # flat: no axis
            ends = end.take(slot)
            if ends.any():
                done = ends != 0
                ended = alive[done]
                rounds_out[lo + ended] = rounds_done + j + 1
                outcome_out[lo + ended] = ends[done] - 1  # 0 capture, 1 escape
                alive, slot = alive[~done], slot[~done]
                if not alive.size:
                    break
        rounds_done += block

    if alive.size:
        rounds_out[lo + alive] = cfg.max_rounds + 1
        outcome_out[lo + alive] = 2


def run(cfg: SimConfig) -> SimReport:
    """Run all trials and reduce them (in trial order) into a SimReport.

    Refuses with GraphTooLarge, before tabulating moves, a trial count
    or round cap whose result arrays (8 bytes an entry, one per trial or
    per round) would exceed ``chain.DENSE_BYTE_CAP``.
    """
    V = cfg.graph.vertex_count
    if not (0 <= cfg.cop_start < V and 0 <= cfg.robber_start < V):
        raise InvalidStart("start positions out of range")
    if cfg.cop_start == cfg.robber_start:
        raise InvalidStart("cop and robber must start on distinct vertices")
    if cfg.escape_distance is not None:
        if cfg.escape_distance < 1:
            raise InvalidParameter("escape_distance must be >= 1")
        if cfg.graph.distance[cfg.cop_start, cfg.robber_start] >= cfg.escape_distance:
            raise InvalidStart("start positions already at or past the escape distance")
    check_dense_size(cfg.trials, 1, "per-trial rounds")
    check_dense_size(cfg.max_rounds + 2, 1, "survival curve")

    tables = _move_tables(cfg)
    rounds = np.zeros(cfg.trials, dtype=np.int64)
    outcome = np.zeros(cfg.trials, dtype=np.int8)

    batch = 8192
    for lo in range(0, cfg.trials, batch):
        _run_batch(cfg, tables, lo, min(lo + batch, cfg.trials), rounds, outcome)

    # rounds > m  <=>  still unabsorbed after m rounds (censored trials
    # carry max_rounds + 1 and so count as surviving every m)
    counts = np.bincount(np.minimum(rounds, cfg.max_rounds + 1), minlength=cfg.max_rounds + 2)
    still_in = cfg.trials - np.cumsum(counts)[1 : cfg.max_rounds + 1]
    curve = still_in / cfg.trials
    se = np.sqrt(curve * (1.0 - curve) / cfg.trials)

    uncensored = rounds[outcome != 2]
    if uncensored.size:
        mean = float(uncensored.mean())
        spread = float(uncensored.std(ddof=1)) if uncensored.size > 1 else 0.0
        mean_se = spread / np.sqrt(uncensored.size)
    else:
        mean, mean_se = float(cfg.max_rounds), 0.0
    censored = float(np.mean(outcome == 2))

    return SimReport(
        trials=cfg.trials,
        survival_curve=curve,
        survival_se=se,
        mean_rounds=mean,
        mean_rounds_se=float(mean_se),
        mean_is_lower_bound=censored > 0.0,
        censored_fraction=censored,
        capture_fraction=float(np.mean(outcome == 0)),
        escape_fraction=float(np.mean(outcome == 1)),
    )
