"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
import zlib

import numpy as np
import pytest

from conftest import random_spinner3, random_spinner4
from tipsychase import (
    chain,
    closedform,
    families,
    graphs,
    joint,
    montecarlo,
    schedules,
    tables,
)


def announce(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {criterion}: {detail}"


def reproduce_ok(table_id):
    report = tables.reproduce(table_id)
    bad = report.failures
    detail = f"{table_id}: {len(report.checks) - len(bad)}/{len(report.checks)} cells"
    return report, report.ok, detail


def test_criterion_1_gamblers_ruin_table():
    # chain-on-tree path: every cell of the stored table within tolerance
    report, ok, detail = reproduce_ok("tree3.1")
    # closed-form path against the same printed values, plus path agreement
    spinner = families.SpinnerThree(c=0.3, r=0.4, t=0.3)
    p = closedform.up_probability(4, spinner)
    ts = chain.extract_transient(families.tree_chain(4, 10, spinner))
    agree = True
    for check in report.checks:
        cell = check.cell
        d = int(cell.start)
        if cell.measure == "E":
            cf = closedform.expected_rounds_closed(d, 10, p).value
            ok &= abs(cf - cell.target) <= 0.01
            agree &= abs(cf - chain.expected_rounds(ts, cell.start).value) <= 1e-6
        else:
            r = closedform.escape_probability(d, 10, p)
            cf = r if cell.measure == "R" else 1.0 - r
            ok &= abs(cf - cell.target) <= 0.0005
            split = chain.absorption_split(ts, cell.start)
            mass = split["10"] if cell.measure == "R" else split["0"]
            agree &= abs(cf - mass) <= 1e-6
    announce(1, ok and agree, detail + "; closed-form and matrix paths agree to 1e-6")


def test_criterion_2_cycle_table():
    report, ok, detail = reproduce_ok("cycle5.2")
    ts = chain.extract_transient(
        families.cycle_chain(6, families.SpinnerThree(c=0.0, r=0.5, t=0.5))
    )
    for d, want in (("1", 34.0), ("2", 44.0), ("3", 46.0)):
        ok &= abs(chain.expected_rounds(ts, d).value - want) <= 1e-6
    announce(2, ok, detail + "; r=0.5 column solves to 34/44/46 exactly")


def test_criterion_3_petersen_table():
    report, ok, detail = reproduce_ok("petersen6.1")
    ts = chain.extract_transient(
        families.petersen_chain(families.SpinnerThree(c=0.5, r=0.0, t=0.5))
    )
    ok &= abs(chain.expected_rounds(ts, "1").value - 2.25) <= 1e-6
    ok &= abs(chain.expected_rounds(ts, "2").value - 3.75) <= 1e-6
    erratum = [c for c in report.checks if c.cell.flag == "erratum"]
    ok &= len(erratum) == 1 and erratum[0].cell.printed == "40"
    ok &= abs(erratum[0].computed - 36.0) <= 1e-6
    announce(3, ok, detail + "; E(1) r=0.5 erratum: printed 40, chain solves to 36")


def test_criterion_4_friendship_table():
    report, ok, detail = reproduce_ok("friendship7.1")
    announce(4, ok, detail)


def test_criterion_5_torus_table():
    report, ok, detail = reproduce_ok("torus8.1")
    printed_ok = [c for c in report.checks if c.cell.flag != "erratum"]
    ok &= len(printed_ok) == 17 and all(c.ok for c in printed_ok)
    erratum = next(c for c in report.checks if c.cell.flag == "erratum")
    ok &= abs(erratum.computed - 75.96) <= 0.01
    ok &= "95.95" in erratum.note
    announce(5, ok, "torus8.1: 17/18 printed cells within 0.01; "
                    f"E(3,2) derived {erratum.computed:.2f} (printed 95.95, annotated)")


def test_criterion_6_time_varying_tables():
    rep1, ok1, d1 = reproduce_ok("time9.1")
    rep2, ok2, d2 = reproduce_ok("time9.2")
    ok = ok1 and ok2
    for rep in (rep1, rep2):
        for check in rep.checks:
            if check.cell.printed == "inf":
                ok &= math.isinf(check.computed)
    announce(6, ok, f"{d1}; {d2}; 100% columns report Infinite")


def test_criterion_7_distance_varying_tables():
    ok = True
    details = []
    for table_id in ("dist10.3a", "dist10.3b", "tree10.4a", "tree10.4b"):
        rep, table_ok, detail = reproduce_ok(table_id)
        ok &= table_ok
        details.append(detail)
    for sched in (schedules.DistanceSchedule.linear(), schedules.DistanceSchedule.exponential()):
        c = schedules.distance_cycle_chain(10, schedules.SoberSplit(1.0), sched)
        ts = chain.extract_transient(c)
        for d in ts.labels:
            ok &= chain.expected_rounds(ts, d).is_infinite
            ok &= abs(chain.survival_probability(ts, d, 20) - 1.0) <= 1e-9
    announce(7, ok, "; ".join(details) + "; all-sober-to-robber columns are Infinite with G20=1")


def test_criterion_8_lumpability_battery():
    rng = np.random.default_rng(88)
    worst = 0.0

    def check(g, lumping, rules, hand_for, n_spinners=20, four_way=False):
        nonlocal worst
        for _ in range(n_spinners):
            if four_way:
                s4 = random_spinner4(rng)
                hand = hand_for(s4)
            else:
                s3 = random_spinner3(rng)
                s4 = s3.as_four()
                hand = hand_for(s3)
            lumped = joint.lump(joint.build_joint_chain(g, s4, rules), lumping)
            assert lumped.state_labels == hand.state_labels
            worst = max(worst, float(np.abs(lumped.P - hand.P).max()))

    for n in range(4, 13):
        g = graphs.cycle_graph(n)
        check(g, joint.distance_lumping(g), joint.standard_rules(),
              lambda s, n=n: families.cycle_chain(n, s))
    g = graphs.petersen_graph()
    check(g, joint.distance_lumping(g), joint.standard_rules(), families.petersen_chain)
    for n in range(2, 7):
        g = graphs.friendship_graph(n)
        check(g, joint.friendship_lumping(g), joint.standard_rules(),
              lambda s, n=n: families.friendship_chain(n, s), four_way=True)
    t0 = time.perf_counter()
    g = graphs.torus_grid(7, 7)
    check(g, joint.torus_lumping(g, 7, 7), joint.torus_rules(7, 7), families.toroidal7_chain)
    torus_time = time.perf_counter() - t0

    ok = worst < 1e-9 and torus_time <= 30.0
    announce(8, ok, f"max lump discrepancy {worst:.2e}; torus battery {torus_time:.1f}s")


def _mc_settings():
    """(label, graph, rules, spinner4, start pair, measure) battery."""
    def cyc(n):
        g = graphs.cycle_graph(n)
        return g, joint.standard_rules()

    pet = graphs.petersen_graph()
    tor = graphs.torus_grid(7, 7)

    def fr(n):
        return graphs.friendship_graph(n), joint.standard_rules()

    s3 = families.SpinnerThree
    s4 = families.SpinnerFour
    settings = []

    def add_cycle(n, spin, d, measure):
        g, rules = cyc(n)
        settings.append((f"cycle{n} d={d} {measure[0]}", g, rules, spin.as_four(),
                         (0, d), families.cycle_chain(n, spin), str(d), measure))

    def add_pet(spin, d, measure):
        robber = int(np.where(pet.distance[0] == d)[0][0])
        settings.append((f"petersen d={d} {measure[0]}", pet, joint.standard_rules(),
                         spin.as_four(), (0, robber), families.petersen_chain(spin),
                         str(d), measure))

    def add_friend(n, spin, label, measure):
        g, rules = fr(n)
        lumping = joint.friendship_lumping(g)
        pair = lumping.representative(label)
        settings.append((f"friendship{n} {label} {measure[0]}", g, rules, spin,
                         divmod(pair, g.vertex_count), families.friendship_chain(n, spin),
                         label, measure))

    def add_torus(spin, label, measure):
        lumping = joint.torus_lumping(tor, 7, 7)
        pair = lumping.representative(label)
        settings.append((f"torus7 {label} {measure[0]}", tor, joint.torus_rules(7, 7),
                         spin.as_four(), divmod(pair, tor.vertex_count),
                         families.toroidal7_chain(spin), label, measure))

    add_cycle(6, s3(0.0, 0.5, 0.5), 1, ("E",))
    add_cycle(6, s3(0.2, 0.3, 0.5), 2, ("G", 7))
    add_cycle(6, s3(0.5, 0.0, 0.5), 3, ("E",))
    add_cycle(4, s3(0.3, 0.3, 0.4), 2, ("E",))
    add_cycle(8, s3(0.4, 0.2, 0.4), 4, ("E",))
    add_cycle(9, s3(0.3, 0.2, 0.5), 4, ("E",))
    add_cycle(12, s3(0.25, 0.25, 0.5), 6, ("G", 10))
    add_cycle(5, s3(0.4, 0.1, 0.5), 2, ("E",))
    add_pet(s3(0.5, 0.0, 0.5), 1, ("G", 7))
    add_pet(s3(0.2, 0.3, 0.5), 2, ("E",))
    add_pet(s3(0.35, 0.15, 0.5), 2, ("G", 5))
    add_pet(s3(0.0, 0.5, 0.5), 2, ("G", 7))
    add_friend(3, s4(0.3, 0.2, 0.3, 0.2), "2", ("E",))
    add_friend(5, s4(0.4, 0.4, 0.1, 0.1), "1rc", ("E",))
    add_friend(2, s4(0.25, 0.25, 0.25, 0.25), "1e", ("G", 10))
    add_friend(4, s4(0.1, 0.1, 0.4, 0.4), "1cc", ("E",))
    add_friend(6, s4(0.2, 0.3, 0.25, 0.25), "2", ("G", 10))
    add_torus(s3(0.3, 0.4, 0.3), "(1,0)", ("E",))
    add_torus(s3(0.3, 0.4, 0.3), "(3,3)", ("G", 50))
    add_torus(s3(0.5, 0.2, 0.3), "(2,1)", ("G", 50))
    assert len(settings) == 20
    return settings


def test_criterion_9_monte_carlo_battery():
    trials = 100_000
    within = 0
    lines = []
    for label, g, rules, spin, (cop, rob), hand, start, measure in _mc_settings():
        ts = chain.extract_transient(hand)
        if measure[0] == "E":
            exact = chain.expected_rounds(ts, start).value
            max_rounds = 40_000
        else:
            exact = chain.survival_probability(ts, start, measure[1])
            max_rounds = measure[1]
        cfg = montecarlo.SimConfig(
            graph=g, spinner=spin, rules=rules, cop_start=cop, robber_start=rob,
            trials=trials, max_rounds=max_rounds,
            seed=zlib.crc32(label.encode()),  # stable across processes
        )
        rep = montecarlo.run(cfg)
        if measure[0] == "E":
            assert rep.censored_fraction == 0.0, label
            est, se = rep.mean_rounds, rep.mean_rounds_se
        else:
            est, se = rep.survival(measure[1]), max(rep.survival_stderr(measure[1]), 1e-12)
        hit = abs(est - exact) <= 3 * se
        within += hit
        lines.append(f"{label}: exact {exact:.4f} mc {est:.4f} ({'ok' if hit else 'MISS'})")

    # bitwise reproducibility across runs
    g = graphs.cycle_graph(6)
    cfg = montecarlo.SimConfig(
        graph=g, spinner=families.SpinnerFour(0.2, 0.3, 0.25, 0.25),
        rules=joint.standard_rules(), cop_start=0, robber_start=2,
        trials=50_000, max_rounds=5000, seed=99,
    )
    a = montecarlo.run(cfg)
    b = montecarlo.run(cfg)
    reproducible = (
        a.mean_rounds == b.mean_rounds
        and np.array_equal(a.survival_curve, b.survival_curve)
    )
    ok = within >= 18 and reproducible
    announce(9, ok, f"{within}/20 settings within 3 SE; bitwise reproducible={reproducible}")
    if not ok:
        print("\n".join(lines))


def test_criterion_10_property_suite():
    rng = np.random.default_rng(1010)
    cases = 0

    # row stochasticity of every family builder under random spinners
    for _ in range(300):
        s3 = random_spinner3(rng)
        s4 = random_spinner4(rng)
        builders = [
            families.cycle_chain(int(rng.integers(3, 13)), s3),
            families.petersen_chain(s3),
            families.friendship_chain(int(rng.integers(2, 7)), s4),
            families.toroidal7_chain(s3),
            families.tree_chain(int(rng.integers(2, 6)), int(rng.integers(2, 9)), s3),
        ]
        for built in builders:
            chain.validate(built)
        cases += len(builders)

    from test_chain import random_absorbing_chain

    # survival monotone in M, expectation = survival series, masses sum to 1
    for _ in range(200):
        c = random_absorbing_chain(rng, int(rng.integers(3, 8)))
        ts = chain.extract_transient(c)
        d = ts.labels[int(rng.integers(0, ts.n_transient))]
        g_values = [chain.survival_probability(ts, d, m) for m in range(10)]
        assert all(a >= b - 1e-12 for a, b in zip(g_values, g_values[1:]))
        assert all(0.0 <= v <= 1.0 for v in g_values)
        cases += 1

        K = 16
        while np.abs(np.linalg.matrix_power(ts.T, K)).sum(axis=1).max() > 1e-10:
            K *= 2
        expect = chain.expected_rounds(ts, d).value
        partial = sum(chain.survival_probability(ts, d, m) for m in range(K))
        e_max = max(chain.expected_rounds(ts, lab).value for lab in ts.labels)
        assert abs(expect - partial) <= 1e-10 * e_max + 1e-9
        cases += 1

        total = sum(chain.absorption_split(ts, d).values())
        assert abs(total - 1.0) <= 1e-9
        cases += 1

    # continuity of the ruin formulas at the fair point; the genuine
    # slope of E in p grows like n^3, so the 1e-3 window is a property
    # of game-scale chains (it holds up to n = 20, checked numerically)
    for _ in range(300):
        n = int(rng.integers(4, 21))
        d = int(rng.integers(1, n))
        eps = float(rng.uniform(1e-9, 1e-6))
        side = 1 if rng.random() < 0.5 else -1
        p = 0.5 + side * eps
        fair_e = d * (n - d)
        assert abs(closedform.expected_rounds_closed(d, n, p).value - fair_e) < 1e-3
        assert abs(closedform.escape_probability(d, n, p) - d / n) < 1e-3
        r = closedform.escape_probability(d, n, float(rng.uniform(0.05, 0.95)))
        assert 0.0 <= r <= 1.0
        cases += 2

    announce(10, cases >= 1000, f"{cases} randomized property cases")
