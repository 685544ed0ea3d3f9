import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tipsychase import chain, families, graphs, joint, montecarlo
from tipsychase.errors import InvalidParameter, InvalidStart


def config(**kwargs):
    defaults = dict(
        graph=graphs.cycle_graph(6),
        spinner=families.SpinnerFour(c=0.25, r=0.25, t_c=0.25, t_r=0.25),
        rules=joint.standard_rules(),
        cop_start=0,
        robber_start=2,
        trials=2000,
        max_rounds=2000,
        seed=42,
    )
    defaults.update(kwargs)
    return montecarlo.SimConfig(**defaults)


# The sober move rules of ``joint``'s module docstring, one pair at a time: the
# reference that the move tables and the simulator are tested against.


def _choose(rules, g, mover, other, pick):
    """Uniform over the mover's neighbours that ``pick`` (min or max) prefers
    by hop distance to ``other``, then by the rules' tie-break key."""
    keep = list(g.neighbors[mover])
    keys = [lambda v: g.distance[other, v]]
    if rules.tie_break is not None:
        keys.append(lambda v: rules.tie_break(g, v, other))
    for key in keys:
        best = pick(key(v) for v in keep)
        keep = [v for v in keep if key(v) == best]
    return {v: 1.0 / len(keep) for v in keep}


def cop_move(rules, g, cop, robber):
    """The sober cop's move distribution at one pair, read from the rules as written."""
    return _choose(rules, g, cop, robber, min)


def robber_move(rules, g, cop, robber):
    """The sober robber's move distribution at one pair; he stays put when every
    neighbour would strictly close the gap."""
    dist = g.distance[cop]
    if all(dist[v] < dist[robber] for v in g.neighbors[robber]):
        return {robber: 1.0}
    return _choose(rules, g, robber, cop, max)


def _spy_tables(monkeypatch):
    """The list of move tables ``montecarlo.run`` makes from now on."""
    real, made = montecarlo._move_tables, []

    def spy(cfg):
        made.append(real(cfg))
        return made[-1]

    monkeypatch.setattr(montecarlo, "_move_tables", spy)
    return made


class TestDeterministicGames:
    def test_sober_cop_ends_in_exactly_d_rounds(self):
        for d in (1, 2, 3):
            cfg = config(
                spinner=families.SpinnerFour(c=1.0, r=0.0, t_c=0.0, t_r=0.0),
                robber_start=d,
                trials=300,
            )
            rep = montecarlo.run(cfg)
            assert rep.mean_rounds == d
            assert rep.mean_rounds_se == 0.0
            assert rep.capture_fraction == 1.0
            assert rep.survival(d - 1) == (1.0 if d > 1 else 1.0)
            assert rep.survival(d) == 0.0

    def test_fleeing_robber_escapes_immediately(self):
        g = graphs.truncated_tree(3, 6)
        robber = int(np.where(g.distance[0] == 4)[0][0])
        cfg = config(
            graph=g,
            spinner=families.SpinnerFour(c=0.0, r=1.0, t_c=0.0, t_r=0.0),
            robber_start=robber,
            trials=100,
            escape_distance=5,
        )
        rep = montecarlo.run(cfg)
        assert rep.escape_fraction == 1.0
        assert rep.mean_rounds == 1.0


class TestReproducibility:
    def test_identical_config_identical_report(self):
        cfg = config(trials=30000)
        a, b = montecarlo.run(cfg), montecarlo.run(cfg)
        assert a.mean_rounds == b.mean_rounds
        assert np.array_equal(a.survival_curve, b.survival_curve)
        assert np.array_equal(a.survival_se, b.survival_se)

    def test_different_seeds_differ(self):
        a = montecarlo.run(config(trials=5000, seed=1))
        b = montecarlo.run(config(trials=5000, seed=2))
        assert a.mean_rounds != b.mean_rounds

    @pytest.mark.parametrize("cfg,start_slots", [
        (config(trials=64, max_rounds=500, seed=9), None),
        # the tie-break path of the sober moves
        (config(graph=graphs.torus_grid(7, 7), rules=joint.torus_rules(7, 7),
                spinner=families.SpinnerFour(c=0.3, r=0.4, t_c=0.15, t_r=0.15),
                robber_start=24, trials=64, max_rounds=300, seed=11), None),
        (config(graph=graphs.truncated_tree(3, 5), robber_start=1, trials=64,
                escape_distance=3, seed=13), None),
        # c = 0: the first threshold is 0 and every draw is at or above it
        (config(graph=graphs.cycle_graph(9),
                spinner=families.SpinnerFour(c=0.0, r=0.5, t_c=0.25, t_r=0.25),
                robber_start=3, trials=64, max_rounds=300, seed=17), None),
        # a table of 2 slots at first, grown many times while trials hold slots
        (config(graph=graphs.torus_grid(7, 7), rules=joint.torus_rules(7, 7),
                spinner=families.SpinnerFour(c=0.3, r=0.4, t_c=0.15, t_r=0.15),
                robber_start=24, trials=64, max_rounds=300, seed=19), 2),
        # doubling would pass the 81 pairs there are
        (config(graph=graphs.cycle_graph(9), robber_start=3, trials=64, max_rounds=300,
                seed=23), 2),
    ], ids=["cycle6", "torus7-tie-break", "tree-escape", "cycle9-zero-weight",
            "torus7-growing-table", "cycle9-growing-table"])
    def test_engine_matches_sequential_reference(self, cfg, start_slots, monkeypatch):
        # re-simulate every trial with a plain per-trial loop consuming the
        # documented stream (2 doubles per round) and compare exactly
        if start_slots is not None:
            monkeypatch.setattr(montecarlo, "_START_SLOTS", start_slots)
            made = _spy_tables(monkeypatch)
        rep = montecarlo.run(cfg)
        if start_slots is not None:
            (table,) = made
            # it doubled at least 4 times, and never past the V^2 pairs there are
            assert 16 * start_slots < table.size <= len(table.keys) <= cfg.graph.vertex_count**2
        g, s = cfg.graph, cfg.spinner
        thresholds = [s.c, s.c + s.r, s.c + s.r + s.t_c, 1.0]
        rules = cfg.rules
        rounds = np.zeros(cfg.trials, dtype=int)
        ends = np.full(cfg.trials, 2)  # 0 capture, 1 escape, 2 censored
        for k in range(cfg.trials):
            gen = np.random.Generator(
                np.random.Philox(key=cfg.seed & 0xFFFFFFFFFFFFFFFF, counter=k << 64)
            )
            cop, rob = cfg.cop_start, cfg.robber_start
            for r in range(1, cfg.max_rounds + 1):
                u1, u2 = gen.random(2)
                cat = 0
                while u1 >= thresholds[cat]:
                    cat += 1
                if cat == 0:
                    targets = sorted(cop_move(rules, g, cop, rob))
                    cop = targets[min(int(u2 * len(targets)), len(targets) - 1)]
                elif cat == 1:
                    targets = sorted(robber_move(rules, g, cop, rob))
                    rob = targets[min(int(u2 * len(targets)), len(targets) - 1)]
                elif cat == 2:
                    ns = g.neighbors[cop]
                    cop = ns[min(int(u2 * len(ns)), len(ns) - 1)]
                else:
                    ns = g.neighbors[rob]
                    rob = ns[min(int(u2 * len(ns)), len(ns) - 1)]
                if cop == rob:
                    rounds[k], ends[k] = r, 0
                    break
                if cfg.escape_distance is not None and g.distance[cop, rob] >= cfg.escape_distance:
                    rounds[k], ends[k] = r, 1
                    break
            else:
                rounds[k] = cfg.max_rounds + 1
        # reconstruct the survival curve and the end shares and compare bitwise
        counts = np.bincount(np.minimum(rounds, cfg.max_rounds + 1),
                             minlength=cfg.max_rounds + 2)
        curve = (cfg.trials - np.cumsum(counts)[1:cfg.max_rounds + 1]) / cfg.trials
        assert np.array_equal(rep.survival_curve, curve)
        assert rep.capture_fraction == np.mean(ends == 0)
        assert rep.escape_fraction == np.mean(ends == 1)
        assert rep.capture_fraction > 0.0
        assert (rep.escape_fraction > 0.0) == (cfg.escape_distance is not None)

    @pytest.mark.parametrize("spinner", [
        (0.3, 0.4, 0.15, 0.15),
        (0.0, 0.5, 0.25, 0.25),  # c = 0
        (0.5, 0.0, 0.5, 0.0),  # two equal thresholds, the third at 1
        (0.25, 0.25, 0.5, 0.0),  # t_r = 0: the third threshold is 1
        (0.1, 0.2, 0.7, 0.0),  # the third threshold is 0.1 + 0.2 + 0.7 in floats
    ])
    def test_outcome_count_matches_searchsorted(self, spinner):
        s = families.SpinnerFour(*spinner)
        thresholds = (s.c, s.c + s.r, s.c + s.r + s.t_c)
        on = [t for t in thresholds if t < 1.0]
        u = np.array([0.0, np.nextafter(1.0, 0.0), *on,
                      *np.nextafter(on, 0.0), *np.nextafter(on, 1.0)])
        u = u[(u >= 0.0) & (u < 1.0)]
        expected = np.searchsorted(np.array([*thresholds, 1.0]), u, side="right")
        slot = np.arange(u.size, dtype=np.int32)
        got = montecarlo._rows(slot, u, thresholds)
        assert got.tolist() == (4 * slot + expected).tolist()
        # int32 holds every row times the table width: check_move_tables keeps
        # 4 x V^2 x max degree under 2**31
        assert got.dtype == np.int32

    def test_pick_stays_below_the_count(self):
        # the round takes target int(u * n) with no clamp to n - 1: u < 1, and rounding
        # is monotone, so the largest double below 1 bounds the pick at every uint8 count
        n = np.arange(1, 256)
        assert ((np.nextafter(1.0, 0.0) * n).astype(np.int32) == n - 1).all()

    @pytest.mark.parametrize("cfg", [
        # games span blocks, some trials are censored and the last block is partial;
        # there are more trials than lanes, so lanes take later trials mid-run
        config(spinner=families.SpinnerFour(c=0.0, r=0.5, t_c=0.25, t_r=0.25),
               robber_start=1, trials=4500, max_rounds=203, seed=3),
        config(graph=graphs.truncated_tree(3, 6), robber_start=1, trials=4500,
               escape_distance=3, seed=5),
    ], ids=["cycle6-censored", "tree-escape"])
    def test_block_length_changes_nothing(self, cfg, monkeypatch):
        assert montecarlo._BLOCK_ROUNDS % 2 == 0  # _refill's tick arithmetic needs it
        assert montecarlo._LANES < cfg.trials
        reports = []
        for block, lanes in itertools.product((2, 64, 128), (7, 100, montecarlo._LANES)):
            monkeypatch.setattr(montecarlo, "_BLOCK_ROUNDS", block)
            monkeypatch.setattr(montecarlo, "_LANES", lanes)
            reports.append(montecarlo.run(cfg))
        first = reports[0]
        assert first.censored_fraction > 0.0 or first.escape_fraction > 0.0
        for rep in reports[1:]:
            assert rep.survival_curve.tobytes() == first.survival_curve.tobytes()
            assert rep.survival_se.tobytes() == first.survival_se.tobytes()
            assert repr(rep) == repr(first)

    def test_refill_matches_documented_stream(self):
        key, block = 2024, montecarlo._BLOCK_ROUNDS
        bit_gen, gen, state = montecarlo._stream(key)
        draws = np.full((montecarlo._LANES, 2 * block), np.nan)
        rows = np.array([0, 5, montecarlo._LANES - 1])
        # each row's own trial and round: the first block, the third, and a last block
        # of 5 rounds
        trial = np.array([7, 2**40 + 3, 12])
        first_round = np.array([0, 2 * block, 3 * block])
        max_rounds = 3 * block + 5
        montecarlo._refill(bit_gen, gen, state, draws, rows, trial, first_round, max_rounds)
        # Python ints: k << 64 must not wrap
        for row, k, m in zip(rows.tolist(), trial.tolist(), first_round.tolist()):
            ref = np.random.Generator(np.random.Philox(key=key, counter=k << 64))
            ref.random(2 * m)  # the rounds before the block
            width = 2 * min(block, max_rounds - m)
            assert draws[row, :width].tobytes() == ref.random(width).tobytes()
            assert np.isnan(draws[row, width:]).all()
        assert np.isnan(np.delete(draws, rows, axis=0)).all()


class TestStatisticalAgreement:
    def test_cycle_mean_matches_expected_rounds(self):
        # heavyweight check against the exact value E(1) = 34
        cfg = montecarlo.SimConfig(
            graph=graphs.cycle_graph(6),
            spinner=families.SpinnerFour(c=0.0, r=0.5, t_c=0.25, t_r=0.25),
            rules=joint.standard_rules(),
            cop_start=0,
            robber_start=1,
            trials=1_000_000,
            max_rounds=10_000,
            seed=20240809,
        )
        rep = montecarlo.run(cfg)
        assert rep.censored_fraction == 0.0
        assert abs(rep.mean_rounds - 34.0) <= 3 * rep.mean_rounds_se

    def test_petersen_survival_matches_matrix(self):
        s = families.SpinnerThree(c=0.5, r=0.0, t=0.5)
        ts = chain.extract_transient(families.petersen_chain(s))
        exact = chain.survival_probability(ts, "1", 7)
        assert exact == pytest.approx(0.039, abs=5e-4)
        g = graphs.petersen_graph()
        cfg = montecarlo.SimConfig(
            graph=g,
            spinner=s.as_four(),
            rules=joint.standard_rules(),
            cop_start=0,
            robber_start=1,
            trials=1_000_000,
            max_rounds=1000,
            seed=7,
        )
        rep = montecarlo.run(cfg)
        se = max(rep.survival_stderr(7), 1e-9)
        assert abs(rep.survival(7) - exact) <= 3 * se


class TestReportShape:
    def test_survival_curve_monotone_and_bounded(self):
        rep = montecarlo.run(config(trials=5000, max_rounds=60))
        curve = rep.survival_curve
        assert np.all(curve[:-1] >= curve[1:] - 1e-15)
        assert np.all((0.0 <= curve) & (curve <= 1.0))
        assert rep.survival(0) == 1.0

    def test_survival_horizon_outside_curve_refused(self):
        # horizons 0..max_rounds are read; a negative one must not index from the end
        rep = montecarlo.run(config(trials=100, max_rounds=10))
        assert rep.survival(10) == rep.survival_curve[-1] == rep.censored_fraction
        assert rep.survival_stderr(10) == rep.survival_se[-1]
        for rounds in (-1, 11, 20):
            for read in (rep.survival, rep.survival_stderr):
                with pytest.raises(InvalidParameter, match=f"in 0..10, got {rounds}"):
                    read(rounds)

    def test_censoring_reported_as_lower_bound(self):
        rep = montecarlo.run(config(trials=4000, max_rounds=5))
        assert rep.censored_fraction > 0.0
        assert rep.mean_is_lower_bound
        assert rep.censored_fraction == rep.survival_curve[-1]
        assert rep.capture_fraction + rep.escape_fraction + rep.censored_fraction == pytest.approx(1.0)

    def test_start_validation(self):
        with pytest.raises(InvalidStart):
            montecarlo.run(config(robber_start=0))
        with pytest.raises(InvalidStart):
            montecarlo.run(config(robber_start=17))
        with pytest.raises(InvalidParameter):
            montecarlo.run(config(trials=0))
        g = graphs.truncated_tree(2, 5)
        with pytest.raises(InvalidStart):
            montecarlo.run(config(graph=g, robber_start=5, escape_distance=2))


def _reference_tables(g, rules, maxdeg):
    """The sober move tables, pair by pair from ``cop_move`` / ``robber_move``."""
    V = g.vertex_count
    cop_tab = np.zeros((V * V, maxdeg), dtype=np.int32)
    cop_cnt = np.zeros(V * V, dtype=np.int32)
    rob_tab = np.zeros((V * V, maxdeg), dtype=np.int32)
    rob_cnt = np.zeros(V * V, dtype=np.int32)
    for cop in range(V):
        for robber in range(V):
            if cop == robber:
                continue
            pair = cop * V + robber
            for move, tab, cnt in ((cop_move, cop_tab, cop_cnt),
                                   (robber_move, rob_tab, rob_cnt)):
                dist = move(rules, g, cop, robber)
                targets = sorted(dist)
                assert all(p == 1.0 / len(targets) for p in dist.values())
                cnt[pair] = len(targets)
                tab[pair, : len(targets)] = targets
    return cop_tab, cop_cnt, rob_tab, rob_cnt


def _table_arrays(table):
    return (table.targets, table.counts, table.end, table.keys, table.sorted_keys,
            table.sorted_slots)


def _by_pair(table, slot):
    """The mover's new vertices at each of ``slot``'s four rows, (4, slots, width) with
    zeros after each row's count, and the counts, (4, slots), from the slot table."""
    V = table.V
    rows = 4 * slot[None, :] + np.arange(4)[:, None]
    counts = table.counts[rows]
    new = table.keys[table.targets[rows]]
    vertex = np.where((np.arange(4) & 1)[:, None, None], new % V, new // V)
    vertex[np.arange(vertex.shape[2]) >= counts[..., None]] = 0
    return vertex, counts


def _read_all(g, rules, chunk=4096):
    """A move table with every pair as a slot and every row filled, ``chunk`` pairs a
    fill, and what ``_by_pair`` reads from it in pair order."""
    V = g.vertex_count
    table = montecarlo._move_tables(config(graph=g, rules=rules, cop_start=0, robber_start=1))
    slot = table.slots(np.arange(V * V, dtype=np.int32))
    for lo in range(0, V * V, chunk):
        table.fill((4 * slot[lo : lo + chunk, None] + np.arange(4)).ravel())
    return table, slot, *_by_pair(table, slot)


def test_move_tables_fast_path_matches_generic(rng):
    for g, rules in [
        (graphs.torus_grid(7, 7), joint.torus_rules(7, 7)),
        (graphs.cycle_graph(9), joint.standard_rules()),
        (graphs.friendship_graph(4), joint.standard_rules()),
        (graphs.truncated_tree(3, 4), joint.standard_rules()),
        # even cycles have robber "stay" rows at vertices of degree 2
        (graphs.cycle_graph(6), joint.standard_rules()),
        (graphs.truncated_tree(3, 5), joint.standard_rules()),
    ]:
        V = g.vertex_count
        table, slot, vertex, counts = _read_all(g, rules)
        maxdeg = max(len(ns) for ns in g.neighbors)
        # every pair reached: the arrays at capacity V^2, the start pair (0, 1) slot 0
        assert table.size == len(table.keys) == V * V and slot[1] == 0
        assert table.targets.shape == (4 * V * V, maxdeg) and table.counts.shape == (4 * V * V,)
        assert [a.dtype for a in _table_arrays(table)] == [np.int32, np.uint8, np.uint8,
                                                           np.int32, np.int32, np.int32]
        assert table.keys[slot].tolist() == list(range(V * V))
        cop, robber = np.divmod(np.arange(V * V), V)
        assert table.end[slot].tolist() == (cop == robber).tolist()  # no escape distance
        assert table.counts.min() >= 1  # the simulator's n - 1 must not wrap
        # tipsy rows: every neighbour of the mover, cop at outcome 2, robber at 3
        deg = np.array([len(ns) for ns in g.neighbors])
        nbr = np.zeros((V, maxdeg), dtype=np.int64)
        for v, ns in enumerate(g.neighbors):
            nbr[v, : len(ns)] = ns
        for outcome, mover in ((2, cop), (3, robber)):
            assert np.array_equal(counts[outcome], deg[mover])
            assert np.array_equal(vertex[outcome], nbr[mover])
        cop_tab, cop_cnt, rob_tab, rob_cnt = _reference_tables(g, rules, maxdeg)
        off_diag = np.flatnonzero(cop != robber)
        for outcome, tab, cnt in ((0, cop_tab, cop_cnt), (1, rob_tab, rob_cnt)):
            assert np.array_equal(vertex[outcome][off_diag], tab[off_diag])
            assert np.array_equal(counts[outcome][off_diag], cnt[off_diag])


def _pair_bytes(table, max_degree):
    """What the table holds per pair: four rows of max degree slots and a count, an end
    mark, a key, and a sorted key and its slot."""
    targets, counts, end, keys, sorted_keys, sorted_slots = _table_arrays(table)
    return (4 * (max_degree * targets.itemsize + counts.itemsize) + end.itemsize
            + keys.itemsize + sorted_keys.itemsize + sorted_slots.itemsize)


def test_pair_table_cap_fits_the_table_widths():
    # check_move_tables admits V^2 x max degree <= PAIR_TABLE_CAP, and a simple graph's
    # max degree is at most V - 1, so every pair key and slot is at most V^2 - 1 and
    # every count at most min(V - 1, PAIR_TABLE_CAP // V^2): a rise of the cap past
    # what the table's dtypes hold must fail here rather than wrap
    table = _read_all(graphs.cycle_graph(3), joint.standard_rules())[0]
    top_slot = min(np.iinfo(a.dtype).max for a in (table.targets, table.keys,
                                                   table.sorted_keys, table.sorted_slots))
    top_count = np.iinfo(table.counts.dtype).max
    largest = math.isqrt(joint.PAIR_TABLE_CAP)
    for V in range(1, largest + 1):
        assert V * V - 1 <= top_slot
        assert min(V - 1, joint.PAIR_TABLE_CAP // (V * V)) <= top_count
        joint.check_move_tables(V, max(1, joint.PAIR_TABLE_CAP // (V * V)))
    with pytest.raises(InvalidParameter):
        joint.check_move_tables(largest + 1, 1)


def test_move_table_bound_at_the_cap_fits_the_dense_cap():
    # check_move_tables's a-priori bound: _pair_bytes for each of at most V^2 pairs, and
    # as many bytes again for the old arrays while the table grows
    table = _read_all(graphs.cycle_graph(3), joint.standard_rules())[0]
    assert sum(a.nbytes for a in _table_arrays(table)) == _pair_bytes(table, 2) * 9
    bounds = [2 * _pair_bytes(table, min(V - 1, joint.PAIR_TABLE_CAP // (V * V))) * V * V
              for V in range(2, math.isqrt(joint.PAIR_TABLE_CAP) + 1)]
    assert max(bounds) < chain.DENSE_BYTE_CAP
    assert bounds[1534 - 2] == 2 * 65 * 1534**2  # the tree arena: 306 MB


def test_move_table_fills_only_the_rows_trials_read(monkeypatch):
    # the 1,534-vertex ball arena of the tree benchmark has 2.35 M pairs; 2,000 trials
    # escaping at distance 5 reach a few thousand of them
    g = graphs.truncated_tree(3, 9)
    rules = joint.standard_rules()
    made = _spy_tables(monkeypatch)
    montecarlo.run(config(graph=g, cop_start=0, robber_start=1, trials=2000,
                          max_rounds=200, seed=4, escape_distance=5,
                          spinner=families.SpinnerFour(0.3, 0.4, 0.15, 0.15)))
    (table,) = made
    V = g.vertex_count
    assert 0 < table.size < 0.01 * V * V
    assert sum(a.nbytes for a in _table_arrays(table)) < 1_000_000
    # slots are numbered as pairs are found, the start pair first; each end mark
    # follows its pair
    keys = table.keys[: table.size]
    assert keys[0] == 1 and np.unique(keys).size == table.size
    assert np.array_equal(table.sorted_keys, np.sort(keys))
    assert np.array_equal(keys[table.sorted_slots], table.sorted_keys)
    cop, robber = np.divmod(keys, V)
    assert np.array_equal(table.end[: table.size],
                          np.select([cop == robber, g.distance[cop, robber] >= 5], [1, 2], 0))
    assert not table.targets[table.counts == 0].any()
    # each filled row lists the rule's targets at its pair, pair by pair
    rows = np.flatnonzero(table.counts)
    assert not table.end[rows // 4].any()  # no trial moves on from a game's end
    vertex, counts = _by_pair(table, np.arange(table.size))
    for row in rows.tolist():
        slot, outcome = divmod(row, 4)
        c, r = int(cop[slot]), int(robber[slot])
        if outcome < 2:
            expected = sorted((cop_move, robber_move)[outcome](rules, g, c, r))
        else:
            expected = list(g.neighbors[(c, r)[outcome - 2]])
        assert vertex[outcome, slot, : counts[outcome, slot]].tolist() == expected


def test_simulator_memory_stays_under_8_mib():
    # the benchmark's 6-cycle run: 200,000 trials of games that average 34 rounds.
    # Only _LANES trials hold draws at once, so the peak is the draw buffer and the
    # per-trial results, not a buffer per batch of trials
    cfg = config(spinner=families.SpinnerFour(0.0, 0.5, 0.25, 0.25), robber_start=1,
                 trials=200_000, max_rounds=40_000, seed=29)
    montecarlo.run(config(trials=1))  # numpy.random loads on first use: not the run's peak
    tracemalloc.start()
    try:
        montecarlo.run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_move_rule_matches_pairwise_reference():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def cases(draw):
        # a random spanning tree plus extra edges, and an integer tie-break key or none
        n = draw(st.integers(2, 9))
        tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        vertex = st.integers(0, n - 1)
        extra = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
        edges = {frozenset(e) for e in tree + extra if e[0] != e[1]}
        g = graphs.build_graph(n, [tuple(e) for e in edges])
        keys = draw(st.none() | st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
        if keys is None:
            return g, joint.standard_rules()
        key = np.reshape(keys, (n, n))
        return g, joint.standard_rules(tie_break=lambda g, v, w: key[v, w])

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(case=cases())
    def check(case):
        g, rules = case
        V = g.vertex_count
        moves = joint._mover(g, rules)
        cop, robber = np.divmod(np.arange(V * V), V)
        pairs = [(c, r) for c, r in zip(cop.tolist(), robber.tolist()) if c != r]
        cop_ns, cop_kept = moves(0, cop, robber)
        rob_ns, rob_kept = moves(1, robber, cop)
        for c, r in pairs:
            pair = c * V + r
            assert cop_ns[pair][cop_kept[pair]].tolist() == sorted(cop_move(rules, g, c, r))
            assert rob_ns[pair][rob_kept[pair]].tolist() == sorted(robber_move(rules, g, c, r))
        tipsy_ns, tipsy_kept = moves(np.full(V, 2), np.arange(V), np.arange(V)[::-1])
        tipsy = [ns[k].tolist() for ns, k in zip(tipsy_ns, tipsy_kept)]
        assert tipsy == list(map(list, g.neighbors))

    check()
