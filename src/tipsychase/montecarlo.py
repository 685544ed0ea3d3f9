"""Seeded stochastic simulation of the pursuit game on a finite graph.

Reproducibility contract
------------------------
Trial ``k`` draws from its own counter-based stream::

    Generator(Philox(key=seed mod 2**64, counter=k * 2**64))

and consumes exactly two doubles per round: one to pick the spinner
outcome (cumulative thresholds c, c+r, c+r+t_c, 1) and one to pick the
moving player's target.  Reports therefore depend only on (seed, trial
index, round number) and are bitwise identical however trials are
batched.

Trials are simulated in lock-step batches with numpy for speed; the
per-trial streams make that purely an implementation detail.  Each
round is one gather from the joint chain's move table: the outcome's
row, its target count, the pick ``min(int(u * n), n - 1)`` and the
target, which replaces the moving player's vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import check_dense_size
from .errors import InvalidParameter, InvalidStart
from .families import SpinnerFour
from .graphs import Graph
from .joint import StrategyRules, _move_rows, _move_tables


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
        if rounds == 0:
            return 1.0
        return float(self.survival_curve[rounds - 1])

    def survival_stderr(self, rounds: int) -> float:
        if rounds == 0:
            return 0.0
        return float(self.survival_se[rounds - 1])


_BLOCK_ROUNDS = 128
_COUNTERS_PER_BLOCK = 2 * _BLOCK_ROUNDS // 4  # Philox emits 4 uint64 per counter tick


def _refill(bit_gen, gen, state, draws, local_rows, first_trial, block_index):
    """Fill each row's next block of doubles from its trial's own stream.

    One Philox instance is repositioned per trial instead of constructing
    a fresh one: trial k's stream starts at counter k * 2**64, and each
    block of 2 * _BLOCK_ROUNDS doubles advances the counter by exactly
    _COUNTERS_PER_BLOCK ticks.
    """
    counter = state["state"]["counter"]
    counter[0] = block_index * _COUNTERS_PER_BLOCK
    for row in local_rows:
        counter[1] = first_trial + row
        bit_gen.state = state
        draws[row] = gen.random(2 * _BLOCK_ROUNDS)


def _run_batch(cfg: SimConfig, tables, lo: int, hi: int, rounds_out, outcome_out):
    """Simulate trials lo..hi-1 in lock-step; write per-trial results."""
    targets, counts = tables
    V = cfg.graph.vertex_count
    dist = cfg.graph.distance
    s = cfg.spinner
    thresholds = np.array([s.c, s.c + s.r, s.c + s.r + s.t_c, 1.0])
    key = cfg.seed & 0xFFFFFFFFFFFFFFFF

    size = hi - lo
    bit_gen = np.random.Philox(key=key)
    gen = np.random.Generator(bit_gen)
    state = bit_gen.state  # template; only the counter words get rewritten

    cop = np.full(size, cfg.cop_start, dtype=np.int64)
    rob = np.full(size, cfg.robber_start, dtype=np.int64)
    alive = np.arange(size)
    draws = np.empty((size, 2 * _BLOCK_ROUNDS))
    rounds_done = 0
    block_index = 0

    while alive.size and rounds_done < cfg.max_rounds:
        _refill(bit_gen, gen, state, draws, alive, lo, block_index)
        block_index += 1
        block = min(_BLOCK_ROUNDS, cfg.max_rounds - rounds_done)
        for j in range(block):
            outcome = np.searchsorted(thresholds, draws[alive, 2 * j], side="right")
            ca, ra = cop[alive], rob[alive]
            row = _move_rows(outcome, ca, ra, V)
            n = counts[row]
            pick = np.minimum((draws[alive, 2 * j + 1] * n).astype(np.int64), n - 1)
            target = targets[row, pick]
            cop_turn = outcome % 2 == 0
            new_cop = np.where(cop_turn, target, ca)
            new_rob = np.where(cop_turn, ra, target)
            cop[alive] = new_cop
            rob[alive] = new_rob

            captured = new_cop == new_rob
            if cfg.escape_distance is not None:
                escaped = dist[new_cop, new_rob] >= cfg.escape_distance
                escaped &= ~captured
            else:
                escaped = np.zeros_like(captured)
            done = captured | escaped
            if done.any():
                ended = alive[done]
                rounds_out[lo + ended] = rounds_done + j + 1
                outcome_out[lo + ended] = np.where(captured[done], 0, 1)
                alive = alive[~done]
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
    if cfg.trials < 1:
        raise InvalidParameter(f"trials must be >= 1, got {cfg.trials}")
    if cfg.max_rounds < 1:
        raise InvalidParameter(f"max_rounds must be >= 1, got {cfg.max_rounds}")
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

    tables = _move_tables(cfg.graph, cfg.rules)
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
