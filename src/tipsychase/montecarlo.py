"""Seeded stochastic simulation of the pursuit game on a finite graph.

Reproducibility contract
------------------------
Trial ``k`` draws from its own counter-based stream::

    Generator(Philox(key=seed mod 2**64, counter=k * 2**64))

and consumes exactly two doubles per round: one to pick the spinner
outcome (cumulative thresholds c, c+r, c+r+t_c, 1) and one to pick the
moving player's target.  Reports therefore depend only on (seed, trial
index, round number) and are bitwise identical however many trials are
in play at once and however long the draw blocks are.

Up to _LANES trials step in lock-step with numpy, one to a lane; the
per-trial streams make that purely an implementation detail.  Draws are
refilled in blocks of 64 rounds into one lanes x 128 buffer: at each
block boundary a lane whose trial has ended takes the next trial, and
each live lane repositions one shared Philox instance to its trial and
round by writing the counter into a state template of Python ints, then
draws only the doubles the block can play.

A trial carries one number, the slot of its (cop, robber) pair in the
move table ``_move_tables`` makes.  Slots are numbered as trials reach
pairs, the start pair first, so the table holds only the pairs a run
reaches (9,123 of the 2.35 M on the 1,534-vertex tree arena, in about
1.0 MB).  A round's outcome is the count of thresholds at or below its
first double, and flat takes at row ``4 * slot + outcome`` give the
row's target count n, the pick ``int(u * n)`` and the target: the slot
of the pair the move leads to.  A per-slot byte marks the pairs that
end the game, capture and escape.  A round that reads a count of 0
first fills all four rows of each slot it misses from ``joint._mover``.
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
_LANES = 4096  # trials in play at once: the draw buffer holds _LANES x 2 * _BLOCK_ROUNDS


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


def _refill(bit_gen, gen, state, draws, rows, trial, first_round, max_rounds):
    """Fill row rows[i] with trial[i]'s doubles from round first_round[i] (a multiple of
    _BLOCK_ROUNDS, so even) to the block's end or ``max_rounds``.

    One Philox instance is repositioned per row instead of constructing a
    fresh one: trial k's stream starts at counter k * 2**64, and each
    counter tick gives 4 doubles, two rounds, so round m's draws start at
    tick m // 2.  Only the doubles the row can play are drawn, in place.
    """
    counter = state["state"]["counter"]
    width = 2 * np.minimum(max_rounds - first_round, _BLOCK_ROUNDS)
    for row, counter[1], counter[0], w in zip(
            rows.tolist(), trial.tolist(), (first_round // 2).tolist(), width.tolist()):
        bit_gen.state = state
        gen.random(out=draws[row, :w])


def _rows(slot, u, thresholds):
    """4 * slot plus how many of the three ``thresholds`` are at or below each draw: for
    u < 1, ``4 * slot + np.searchsorted((*thresholds, 1.0), u, side="right")``, cheaper."""
    t0, t1, t2 = thresholds
    return slot * 4 + (u >= t0) + (u >= t1) + (u >= t2)


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
    probability 1 / counts[row], and zeros after them.  Filled rows count
    at least 1, so a count of 0 marks a slot (all four rows) not yet filled.
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
        at = np.searchsorted(self.sorted_keys, fresh) + np.arange(fresh.size)  # merged order
        old = np.ones(hi, dtype=bool)
        old[at] = False
        keys, slots = np.empty((2, hi), dtype=np.int32)
        keys[at], keys[old] = fresh, self.sorted_keys
        slots[at], slots[old] = np.arange(lo, hi), self.sorted_slots
        self.sorted_keys, self.sorted_slots = keys, slots
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
        """Fill the four rows of each slot that rows ``rows`` (repeats allowed) lie in."""
        V = self.V
        rows = (4 * np.unique(rows // 4)[:, None] + np.arange(4)).ravel()
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
    """Simulate trials lo..hi-1 in up to _LANES lanes; write per-trial results.
    A lane whose trial has ended takes the next trial at the next block boundary."""
    s = cfg.spinner
    thresholds = (s.c, s.c + s.r, s.c + s.r + s.t_c)
    targets, counts, end = tables.targets, tables.counts, tables.end
    width = targets.shape[1]
    bit_gen, gen, state = _stream(cfg.seed & 0xFFFFFFFFFFFFFFFF)

    live = np.arange(min(_LANES, hi - lo))  # the lanes with a trial in play
    trial, played = lo + live, np.zeros_like(live)  # each lane's trial, its rounds so far,
    slot = np.zeros(live.size, dtype=np.int32)  # its pair (start: slot 0)
    last, code = np.zeros_like(live), np.zeros(live.size, dtype=np.int8)  # and its end (0: none)
    draws = np.empty((live.size, 2 * _BLOCK_ROUNDS))
    pairs = draws.view(np.complex128)  # a round's two doubles, gathered as one
    # a trial in its last block is censored after round `due` of the block
    due = cfg.max_rounds - (cfg.max_rounds - 1) // _BLOCK_ROUNDS * _BLOCK_ROUNDS
    next_trial = lo + live.size

    while live.size:
        _refill(bit_gen, gen, state, draws, live, trial[live], played[live], cfg.max_rounds)
        alive, s_alive = live, slot[live]
        for j in range(_BLOCK_ROUNDS):
            z = pairs[alive, j]
            row = _rows(s_alive, z.real.copy(), thresholds)  # contiguous: faster compares
            n = counts.take(row)
            if np.count_nonzero(n) < n.size:  # unread rows: fill them, then read again
                tables.fill(row[n == 0])
                targets, counts, end = tables.targets, tables.counts, tables.end
                n = counts.take(row)
            # z.imag < 1, so z.imag * n rounds to below n: no clamp to n - 1 is needed
            s_alive = targets.take(row * width + (z.imag * n).astype(np.int32))
            ends = end.take(s_alive)
            if j + 1 == due:  # censor trials in their last block: code 3, max_rounds + 1
                ends[(ends == 0) & (played[alive] + due == cfg.max_rounds)] = 3
            if np.count_nonzero(ends):
                done = ends != 0
                gone = alive[done]
                last[gone], code[gone] = j + 1, ends[done]
                alive, s_alive = alive[~done], s_alive[~done]
                if not alive.size:
                    break
        ended = live[code[live] != 0]
        rounds_out[trial[ended]] = played[ended] + last[ended] + (code[ended] == 3)
        outcome_out[trial[ended]] = code[ended] - 1  # 0 capture, 1 escape, 2 censored
        slot[alive] = s_alive
        played[alive] += _BLOCK_ROUNDS
        free = ended[: hi - next_trial]  # they take the next trials
        trial[free] = np.arange(next_trial, next_trial + free.size)
        played[free] = slot[free] = code[free] = 0
        next_trial += free.size
        live = np.flatnonzero(code == 0)


def run(cfg: SimConfig) -> SimReport:
    """Run all trials, _LANES at a time, and reduce them (in trial order) into a SimReport.

    Refuses with GraphTooLarge, before tabulating moves, a trial count
    or round cap whose result arrays (at most 8 bytes an entry, one per
    trial or per round) would exceed ``chain.DENSE_BYTE_CAP``.
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
    rounds = np.zeros(cfg.trials, dtype=np.int32)
    outcome = np.zeros(cfg.trials, dtype=np.int8)

    _run_batch(cfg, tables, 0, cfg.trials, rounds, outcome)

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
