"""The three benchmark workloads: set-up, timed operations and their checks.

Each ``setup_<workload>(seed, work_dir)`` builds the graphs and arenas a
workload needs (that is what ``setup_s`` times) and returns its
operations in pass order.  An operation's ``run`` is timed; its
``check`` runs afterwards, untimed, and raises ``Mismatch`` when an
output disagrees with a separately computed value, or ``KnownFault``
when it fails for the reason recorded in the benchmark's README.

Library functions are always reached as ``module.function`` at call
time, never bound once, so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles
from tipsychase import (
    chain, cli, closedform, families, graphs, joint, montecarlo, schedules, tables,
)

DATA_DIR = Path(tables.__file__).parent / "data"


class Mismatch(Exception):
    """An output disagrees with its reference value."""


class KnownFault(Exception):
    """An operation fails because of a fault the README names."""


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    rounds: Callable[[Any], int] | None = None  # game rounds an output simulated


def _rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose])


def _spinner3(rng) -> families.SpinnerThree:
    c, r, t = (float(x) for x in rng.dirichlet([1.0, 1.0, 1.0]))
    return families.SpinnerThree(c=c, r=r, t=t)


def _spinner4(rng) -> families.SpinnerFour:
    c, r, tc, tr = (float(x) for x in rng.dirichlet([1.0, 1.0, 1.0, 1.0]))
    return families.SpinnerFour(c=c, r=r, t_c=tc, t_r=tr)


def _close(got, want, tol, what):
    if not abs(got - want) <= tol:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r} (tolerance {tol:g})")


def _close_rel(got, want, rel, what):
    _close(got, want, rel * max(1.0, abs(want)), what)


def _transient_T(built):
    keep = [i for i in range(built.n_states) if i not in built.absorbing]
    return built.P[np.ix_(keep, keep)]


# ------------------------------------------------------------------ tables

SWEEP_ROUNDS = 50
EARLY_ROUNDS = (10, 25)  # horizons at which the checks also ask for G
CLOSED_FORM_SPINNERS = 20  # per (degree, call-off) cell of the grid


def setup_tables(seed: int, work_dir: Path) -> list[Op]:
    ids = tables.table_ids()
    rng = _rng(seed, 1)
    split = schedules.SoberSplit(0.5)
    # a narrow range keeps the constant series' length, and so the work, near-fixed
    t_const = float(rng.uniform(0.45, 0.55))
    sweeps = [
        schedules.TimeSchedule.hyperbolic(4, 3),
        schedules.TimeSchedule.exponential2(4, 2),
        schedules.TimeSchedule(lambda m: t_const, f"const:{t_const!r}", limit=t_const),
    ]
    starts = list(families.TORUS7_LABELS[:-1])

    def torus(s):
        return families.toroidal7_chain(s)

    # the grid's shape is fixed, so every seed does the same amount of work
    grid = []
    for degree in range(2, 7):
        for call_off in range(3, 13):
            for _ in range(CLOSED_FORM_SPINNERS):
                s = _spinner3(rng)
                # keep clear of the fair point, where the closed forms switch branch
                while abs(s.t * (degree - 1) / degree + s.r - 0.5) <= 1e-6:
                    s = _spinner3(rng)
                grid.append((degree, call_off, s))

    def reproduce():
        return [tables.reproduce(tid) for tid in ids]

    def check_reproduce(reports):
        if [rep.table_id for rep in reports] != ids:
            raise Mismatch("reproduce returned the wrong set of tables")
        for rep in reports:
            targets = oracles.table_targets(DATA_DIR, rep.table_id)
            if len(rep.checks) != len(targets):
                raise Mismatch(f"{rep.table_id}: {len(rep.checks)} cells, CSV has {len(targets)}")
            for cc in rep.checks:
                want, tol = targets[cc.cell.key]
                what = f"{rep.table_id} {cc.cell.key}"
                if math.isinf(want) or math.isinf(cc.computed):
                    if want != cc.computed:
                        raise Mismatch(f"{what}: got {cc.computed!r}, expected {want!r}")
                else:
                    _close(cc.computed, want, tol + 1e-9, what)

    def sweep():
        out = {}
        for sched in sweeps:
            with warnings.catch_warnings():
                # the constant schedule has f(1) != 1, which the library warns about
                warnings.simplefilter("ignore")
                for d in starts:
                    g = schedules.time_varying_survival(torus, split, sched, d, SWEEP_ROUNDS)
                    e = schedules.time_varying_expectation(torus, split, sched, d)
                    out[sched.name, d] = (g, e)
        return out

    def check_sweep(out):
        # G at earlier horizons, from the program, for the monotonicity check
        early = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for sched in sweeps[:-1]:
                for d in starts:
                    early[sched.name, d] = [
                        schedules.time_varying_survival(torus, split, sched, d, m)
                        for m in EARLY_ROUNDS
                    ]
        for sched in sweeps:
            T_m = [_transient_T(torus(split.spinner(sched.at(m))))
                   for m in range(1, SWEEP_ROUNDS + 1)]
            curve = oracles.survival_curve(T_m, SWEEP_ROUNDS)
            const = sched is sweeps[-1]
            if const:
                P = torus(split.spinner(t_const)).P
                _, E, G = oracles.transient_measures(P, {len(P) - 1}, SWEEP_ROUNDS)
            for i, d in enumerate(starts):
                g, e = out[sched.name, d]
                what = f"sweep {sched.name} from {d}"
                if not e.converged:
                    raise Mismatch(f"{what}: expectation series did not converge")
                _close_rel(g, curve[i, -1], 1e-12, f"{what}: G{SWEEP_ROUNDS}")
                if const:
                    _close(g, G[i], 1e-8, f"{what}: G{SWEEP_ROUNDS} vs static chain")
                    _close(e.value, E[i], 1e-8, f"{what}: E vs static chain")
                else:
                    gs = early[sched.name, d] + [g]
                    for m, g_m in zip(EARLY_ROUNDS, gs):
                        _close_rel(g_m, curve[i, m], 1e-12, f"{what}: G{m}")
                    if not (1.0 >= gs[0] and gs[-1] >= 0.0
                            and all(a >= b for a, b in zip(gs, gs[1:]))):
                        raise Mismatch(f"{what}: G at M = {EARLY_ROUNDS + (SWEEP_ROUNDS,)} "
                                       f"reads {gs}, not non-increasing within [0, 1]")
                    if e.value < curve[i, :-1].sum() - 1e-9:
                        raise Mismatch(f"{what}: E below its first {SWEEP_ROUNDS} terms")

    def closed_form():
        out = []
        for degree, call_off, s in grid:
            ts = chain.extract_transient(families.tree_chain(degree, call_off, s))
            for d in range(1, call_off):
                split_ = chain.absorption_split(ts, str(d))
                e = chain.expected_rounds(ts, str(d))
                out.append((split_[str(call_off)], split_["0"], e.value))
        return out

    def check_closed_form(out):
        rows = iter(out)
        for degree, call_off, s in grid:
            p = closedform.up_probability(degree, s)
            for d in range(1, call_off):
                R, C, E = next(rows)
                what = f"tree degree {degree} call-off {call_off} {s} from {d}"
                _close(R, closedform.escape_probability(d, call_off, p), 1e-9, f"{what}: R")
                _close(C, closedform.capture_probability(d, call_off, p), 1e-9, f"{what}: C")
                want = closedform.expected_rounds_closed(d, call_off, p).value
                _close_rel(E, want, 1e-9, f"{what}: E")

    return [
        Op("reproduce", reproduce, check_reproduce),
        Op("sweep", sweep, check_sweep),
        Op("closed_form", closed_form, check_closed_form),
    ]


# ------------------------------------------------------------------ oracle

VERIFY_SPINNERS = 6
ORACLE_SPINNER = (0.3, 0.4, 0.3)


def _write_edge_list(g, path: Path) -> None:
    lines = [f"{g.vertex_count} {g.edge_count}"] + [f"{u} {v}" for u, v in g.edges]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _torus_pair(rng, m: int, gap: int) -> tuple[int, int]:
    """A random (cop, robber) pair whose per-axis gaps are both ``gap``."""
    x, y = (int(v) for v in rng.integers(0, m, size=2))
    dx, dy = (gap * int(s) for s in rng.choice([-1, 1], size=2))
    return x * m + y, ((x + dx) % m) * m + (y + dy) % m


def setup_oracle(seed: int, work_dir: Path) -> list[Op]:
    rng = _rng(seed, 2)
    cases = []  # (name, graph, hand builder, rules, lumping builder, spinner kind)
    for n in range(4, 13):
        cases.append((f"cycle{n}", graphs.cycle_graph(n),
                      lambda s, n=n: families.cycle_chain(n, s), joint.standard_rules(),
                      lambda g: joint.distance_lumping(g), 3))
    cases.append(("petersen", graphs.petersen_graph(),
                  lambda s: families.petersen_chain(s), joint.standard_rules(),
                  lambda g: joint.distance_lumping(g), 3))
    for n in range(2, 7):
        cases.append((f"friendship{n}", graphs.friendship_graph(n),
                      lambda s, n=n: families.friendship_chain(n, s), joint.standard_rules(),
                      lambda g: joint.friendship_lumping(g), 4))
    torus7 = graphs.torus_grid(7, 7)
    cases.append(("torus7", torus7, lambda s: families.toroidal7_chain(s),
                  joint.torus_rules(7, 7), lambda g: joint.torus_lumping(g, 7, 7), 3))
    spinners = {name: [_spinner3(rng) if kind == 3 else _spinner4(rng)
                       for _ in range(VERIFY_SPINNERS)]
                for name, *_, kind in cases}

    files = {7: work_dir / "torus7.edges", 9: work_dir / "torus9.edges"}
    _write_edge_list(torus7, files[7])
    _write_edge_list(graphs.torus_grid(9, 9), files[9])
    pairs = {7: _torus_pair(rng, 7, 3), 9: _torus_pair(rng, 9, 4)}
    c, r, t = ORACLE_SPINNER
    refs = {}

    def verify():
        out = []
        for name, g, hand, rules, lumping, kind in cases:
            for s in spinners[name]:
                s4 = s if kind == 4 else s.as_four()
                joint_chain = joint.build_joint_chain(g, s4, rules)
                out.append((name, s, hand(s), joint.lump(joint_chain, lumping(g))))
        return out

    def check_verify(out):
        if len(out) != len(cases) * VERIFY_SPINNERS:
            raise Mismatch("verify skipped a case")
        for name, s, hand, lumped in out:
            if lumped.state_labels != hand.state_labels:
                raise Mismatch(f"{name} {s}: labels {lumped.state_labels} vs {hand.state_labels}")
            disc = float(np.abs(lumped.P - hand.P).max())
            if not disc <= 1e-9:
                raise Mismatch(f"{name} {s}: lumped joint chain differs by {disc:.3e}")

    def graphfile(size, rounds):
        cop, robber = pairs[size]
        argv = ["analyze", "--graph-file", str(files[size]), "--cop", str(cop),
                "--robber", str(robber), "--c", str(c), "--r", str(r), "--t", str(t)]
        if rounds:
            argv += ["--rounds", str(rounds)]
        argv += ["--format", "json"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check_graphfile(size, rounds):
        def check(result):
            code, text = result
            if code != 0:
                raise Mismatch(f"analyze on the {size}x{size} torus exited {code}")
            row = json.loads(text)["rows"][0]
            if size not in refs:
                gap = size // 2
                refs[size] = oracles.torus_reference(size, size, c, r, t, f"({gap},{gap})", rounds)
            E, G = refs[size]
            _close_rel(row["E"], E, 1e-9, f"{size}x{size} torus E")
            if rounds:
                _close_rel(row[f"G{rounds}"], G, 1e-9, f"{size}x{size} torus G{rounds}")

        return check

    return [
        Op("verify", verify, check_verify),
        Op("graphfile7", lambda: graphfile(7, 50), check_graphfile(7, 50)),
        Op("graphfile9", lambda: graphfile(9, 0), check_graphfile(9, 0)),
    ]


# -------------------------------------------------------------- montecarlo

SIM_TREE_SEED = 4  # fixed: sim_tree fails by a fault, on inputs the seed does not touch
TREE_FAULTY_ESCAPE = 0.37093  # what the truncated arena makes of sim_tree (README)
SE_LIMIT = 4.0


def setup_montecarlo(seed: int, work_dir: Path) -> list[Op]:
    rng = _rng(seed, 3)
    seeds = [int(x) for x in rng.integers(0, 2**63, size=2)]

    cycle = graphs.cycle_graph(6)
    cycle_s = families.SpinnerThree(c=0.0, r=0.5, t=0.5)
    cop = int(rng.integers(0, 6))
    robber = (cop + int(rng.choice([-1, 1]))) % 6
    cycle_cfg = montecarlo.SimConfig(
        graph=cycle, spinner=cycle_s.as_four(), rules=joint.standard_rules(),
        cop_start=cop, robber_start=robber, trials=200_000, max_rounds=40_000, seed=seeds[0],
    )

    torus = graphs.torus_grid(7, 7)
    torus_s = families.SpinnerThree(c=0.3, r=0.4, t=0.3)
    cop, robber = _torus_pair(rng, 7, 3)
    torus_cfg = montecarlo.SimConfig(
        graph=torus, spinner=torus_s.as_four(), rules=joint.torus_rules(7, 7),
        cop_start=cop, robber_start=robber, trials=200_000, max_rounds=50, seed=seeds[1],
    )

    call_off = 5
    tree = graphs.truncated_tree(3, call_off + 4)
    tree_s = families.SpinnerThree(c=0.3, r=0.4, t=0.3)
    tree_cfg = montecarlo.SimConfig(
        graph=tree, spinner=tree_s.as_four(), rules=joint.standard_rules(),
        cop_start=0, robber_start=1, trials=100_000, max_rounds=10_000, seed=SIM_TREE_SEED,
        escape_distance=call_off,
    )

    first: dict[str, montecarlo.SimReport] = {}

    def same_as_first(name, report):
        ref = first.setdefault(name, report)
        for field in ("survival_curve", "survival_se"):
            a, b = getattr(report, field), getattr(ref, field)
            if a.shape != b.shape or a.tobytes() != b.tobytes():
                raise Mismatch(f"{name}: {field} differs bitwise from the first pass")
        for field in ("trials", "mean_rounds", "mean_rounds_se", "mean_is_lower_bound",
                      "censored_fraction", "capture_fraction", "escape_fraction"):
            if repr(getattr(report, field)) != repr(getattr(ref, field)):
                raise Mismatch(f"{name}: {field} differs bitwise from the first pass")

    def check_cycle(report):
        same_as_first("sim_cycle", report)
        P = families.cycle_chain(6, cycle_s).P
        keep, E, _ = oracles.transient_measures(P, {0})
        exact = float(E[keep.index(1)])
        if report.mean_is_lower_bound:
            raise Mismatch("sim_cycle: censored trials at 40,000 rounds")
        if not abs(report.mean_rounds - exact) <= SE_LIMIT * report.mean_rounds_se:
            raise Mismatch(f"sim_cycle: mean {report.mean_rounds} ± {report.mean_rounds_se} "
                           f"vs exact E {exact}")

    def check_torus(report):
        same_as_first("sim_torus", report)
        P = families.toroidal7_chain(torus_s).P
        keep, _, G = oracles.transient_measures(P, {len(P) - 1}, 50)
        exact = float(G[keep.index(0)])  # state "(3,3)"
        est, se = report.survival(50), report.survival_stderr(50)
        if not abs(est - exact) <= SE_LIMIT * se:
            raise Mismatch(f"sim_torus: G50 {est} ± {se} vs exact {exact}")

    def check_tree(report):
        same_as_first("sim_tree", report)
        exact = closedform.escape_probability(1, call_off, closedform.up_probability(3, tree_s))
        est = report.escape_fraction
        se = math.sqrt(est * (1.0 - est) / report.trials)
        if abs(est - exact) <= SE_LIMIT * se:
            return
        message = f"sim_tree: escape {est:.5f} ± {se:.5f} vs closed form {exact:.5f}"
        if abs(est - TREE_FAULTY_ESCAPE) <= SE_LIMIT * se:
            raise KnownFault(message + " (truncated arena)")
        raise Mismatch(message)

    def sim(name, cfg, check):
        return Op(name, lambda: montecarlo.run(cfg), check,
                  lambda report: _rounds_played(report, cfg.max_rounds))

    return [
        sim("sim_cycle", cycle_cfg, check_cycle),
        sim("sim_torus", torus_cfg, check_torus),
        sim("sim_tree", tree_cfg, check_tree),
    ]


def _rounds_played(report: montecarlo.SimReport, max_rounds: int) -> int:
    """Game rounds simulated over all trials (censored trials count max_rounds)."""
    censored = report.trials * report.censored_fraction
    return round(report.mean_rounds * (report.trials - censored) + max_rounds * censored)


SETUPS = {"tables": setup_tables, "oracle": setup_oracle, "montecarlo": setup_montecarlo}
