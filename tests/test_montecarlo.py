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

    def test_engine_matches_sequential_reference(self):
        # re-simulate a few trials with a plain per-trial loop consuming
        # the documented stream (2 doubles per round) and compare exactly
        cfg = config(trials=64, max_rounds=500, seed=9)
        rep = montecarlo.run(cfg)
        g, s = cfg.graph, cfg.spinner
        thresholds = [s.c, s.c + s.r, s.c + s.r + s.t_c, 1.0]
        rules = cfg.rules
        rounds = np.zeros(cfg.trials, dtype=int)
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
                    rounds[k] = r
                    break
            else:
                rounds[k] = cfg.max_rounds + 1
        # reconstruct the survival curve and compare bitwise
        counts = np.bincount(np.minimum(rounds, cfg.max_rounds + 1),
                             minlength=cfg.max_rounds + 2)
        curve = (cfg.trials - np.cumsum(counts)[1:cfg.max_rounds + 1]) / cfg.trials
        assert np.array_equal(rep.survival_curve, curve)


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


def test_move_tables_fast_path_matches_generic(rng):
    for g, rules in [
        (graphs.torus_grid(7, 7), joint.torus_rules(7, 7)),
        (graphs.cycle_graph(9), joint.standard_rules()),
        (graphs.friendship_graph(4), joint.standard_rules()),
        (graphs.truncated_tree(3, 4), joint.standard_rules()),
    ]:
        V = g.vertex_count
        targets, counts = montecarlo._move_tables(g, rules)
        maxdeg = max(len(ns) for ns in g.neighbors)
        assert targets.shape == (2 * V * V + V, maxdeg)
        tipsy = targets[2 * V * V :]
        assert counts[2 * V * V :].tolist() == [len(ns) for ns in g.neighbors]
        assert all(tipsy[v, : len(ns)].tolist() == list(ns) for v, ns in enumerate(g.neighbors))
        cop_tab, cop_cnt, rob_tab, rob_cnt = _reference_tables(g, rules, maxdeg)
        off_diag = np.array([c * V + r for c in range(V) for r in range(V) if c != r])
        for rows, tab, cnt in ((off_diag, cop_tab, cop_cnt), (V * V + off_diag, rob_tab, rob_cnt)):
            assert np.array_equal(targets[rows], tab[off_diag])
            assert np.array_equal(counts[rows], cnt[off_diag])
