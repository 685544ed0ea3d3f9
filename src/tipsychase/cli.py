"""Command-line front end.

Subcommands: ``analyze`` (survival / expectation / absorption for a
scenario), ``reproduce-table`` (recompute a bundled reference table and
diff it), ``verify`` (joint-chain lumpability check of a hand-built
family chain), ``simulate`` (seeded Monte-Carlo runs), ``closed-form``
(ruin formulas for the tree game).

Exit codes: 0 success, 1 tolerance failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings

import numpy as np

from . import chain as chain_mod
from . import closedform, families, graphs, joint, montecarlo, schedules, tables
from .errors import ConfigError, GameModelError, InvalidParameter, NotLumpable

INFINITE_TEXT = "Infinite"


# ------------------------------------------------------------- formatting


def _fmt(value, digits):
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, float) and math.isinf(value):
        return INFINITE_TEXT
    if isinstance(value, float):
        return repr(value) if digits is None else f"{value:.{digits}g}"
    return str(value)


def _json_value(value):
    """A cell as RFC 8259 JSON allows it: infinity as its text, NaN as null."""
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, float) and math.isinf(value):
        return INFINITE_TEXT
    return value


def emit(columns, rows, fmt, digits):
    """Render rows (dicts keyed by column name) to stdout as table, CSV, or JSON."""
    out = sys.stdout
    if fmt == "table":
        digits = 4 if digits is None else digits
        text = [[_fmt(r.get(c), digits) for c in columns] for r in rows]
        widths = [max(len(c), *(len(t[i]) for t in text)) if text else len(c)
                  for i, c in enumerate(columns)]
        out.write("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip() + "\n")
        for t in text:
            out.write("  ".join(v.rjust(w) for v, w in zip(t, widths)).rstrip() + "\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_fmt(r.get(c), digits) for c in columns])
    elif fmt == "json":
        payload = {
            "columns": list(columns),
            "rows": [{c: _json_value(r.get(c)) for c in columns} for r in rows],
        }
        out.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    else:
        raise ConfigError(f"unknown format {fmt!r}")


# ------------------------------------------------------------- scenarios


def _spinner3(args) -> families.SpinnerThree:
    if args.c is None or args.r is None or args.t is None:
        raise ConfigError("this scenario needs the spinner flags --c --r --t")
    if args.tc is not None or args.tr is not None:
        raise ConfigError("use either --t or --tc/--tr, not both")
    return families.SpinnerThree(c=args.c, r=args.r, t=args.t)


def _spinner4(args) -> families.SpinnerFour:
    if args.tc is not None or args.tr is not None:
        if args.c is None or args.r is None or args.tc is None or args.tr is None:
            raise ConfigError("the 4-way spinner needs --c --r --tc --tr")
        return families.SpinnerFour(c=args.c, r=args.r, t_c=args.tc, t_r=args.tr)
    return _spinner3(args).as_four()


def _rounds_list(args) -> list[int]:
    values = []
    for chunk in args.rounds or []:
        for tok in str(chunk).split(","):
            if tok:
                try:
                    values.append(int(tok))
                except ValueError:
                    raise ConfigError(f"--rounds takes integers, got {tok!r}") from None
    return values


def _need(args, name, flag):
    value = getattr(args, name)
    if value is None:
        raise ConfigError(f"--family {args.family} needs {flag}")
    return value


def _family_builder(args):
    """The family's hand-built chain as a function of its spinner (``_family_spinner``)."""
    fam = args.family
    if fam == "cycle":
        n = _need(args, "n", "--n")
        return lambda s: families.cycle_chain(n, s)
    if fam == "petersen":
        return families.petersen_chain
    if fam == "friendship":
        n = _need(args, "n", "--n")
        return lambda s: families.friendship_chain(n, s)
    if fam == "torus7":
        return families.toroidal7_chain
    if fam == "tree":
        delta, call_off = _need(args, "delta", "--delta"), _need(args, "max_dist", "--max-dist")
        return lambda s: families.tree_chain(delta, call_off, s)
    raise ConfigError(f"unknown family {args.family!r}")


def _family_spinner(args):
    return _spinner4(args) if args.family == "friendship" else _spinner3(args)


def _arena(args):
    """(graph, rules, lumping) of the family's joint game.

    The arena's vertex count and maximum degree follow from the family's
    arguments, so the distance-table cap and then the move-table cap are
    checked before the graph is built or the lumping labels every pair.
    """
    fam = args.family
    rules, lumping = joint.standard_rules(), joint.distance_lumping
    if fam == "cycle":
        n = _need(args, "n", "--n")
        size, build = (graphs._check_cycle(n), 2), lambda: graphs.cycle_graph(n)
    elif fam == "petersen":
        size, build = (10, 3), graphs.petersen_graph
    elif fam == "friendship":
        n = _need(args, "n", "--n")
        size, build = (graphs._check_friendship(n), 2 * n), lambda: graphs.friendship_graph(n)
        lumping = joint.friendship_lumping
    elif fam == "torus7":
        size, build = (49, 4), lambda: graphs.torus_grid(7, 7)
        rules, lumping = joint.torus_rules(7, 7), lambda g: joint.torus_lumping(g, 7, 7)
    elif fam == "tree":
        delta, call_off = _need(args, "delta", "--delta"), _need(args, "max_dist", "--max-dist")
        size = graphs._check_tree(delta, call_off + 4), delta
        build = lambda: graphs.truncated_tree(delta, call_off + 4)
    else:
        raise ConfigError("simulate needs --family or --graph-file")
    joint.check_move_tables(*size)
    g = build()
    return g, rules, lumping(g)


def _rows(labels, survival, measures, starts=None):
    """One output row per start: its label, G<m> from ``survival`` ({m: vector
    over ``labels``}), then the cells ``measures(i)`` gives for start index i.

    ``starts`` are indices into ``labels``, every one of them by default.
    """
    rows = []
    for i in range(len(labels)) if starts is None else starts:
        row = {"start": labels[i]}
        row.update((f"G{m}", float(vec[i])) for m, vec in survival.items())
        row.update(measures(i))
        rows.append(row)
    return rows


def _chain_cells(ts, i, want_absorption):
    """E, and the absorption split if wanted, of start i of a static chain.

    A finite E's condition note, if any, goes to stderr.
    """
    result = chain_mod.expected_rounds(ts, i)
    if result.condition_note and not result.is_infinite:
        print(f"note: {ts.labels[i]}: {result.condition_note}", file=sys.stderr)
    cells = {"E": result.value}
    if want_absorption:
        try:
            split = chain_mod.absorption_split(ts, i)
        except GameModelError:
            split = {lab: math.nan for lab in ts.absorbing_labels}
        cells.update((f"absorb:{lab}", split[lab]) for lab in ts.absorbing_labels)
    return cells


def cmd_analyze(args) -> int:
    rounds_list = _rounds_list(args)
    if args.robber_share is not None and not args.schedule:
        raise ConfigError("--robber-share applies only with --schedule")
    if args.graph_file:
        if args.schedule:
            raise ConfigError("--schedule is not supported with --graph-file")
        if args.cop is None or args.robber is None:
            raise ConfigError("--graph-file analysis needs --cop and --robber")
        if args.absorption:
            raise ConfigError("--absorption is not supported with --graph-file")
    sched = None
    if args.schedule:
        if args.robber_share is None:
            raise ConfigError("--schedule needs --robber-share")
        split = schedules.SoberSplit(args.robber_share)
        if args.c is not None or args.t is not None:
            raise ConfigError("--schedule and a static spinner are mutually exclusive")
        linear = args.schedule.partition(":")[0] == "linear"  # the schedule that reads the size
        sched = schedules.parse_schedule(args.schedule, _max_distance(args) if linear else None)
    timed = isinstance(sched, schedules.TimeSchedule)
    if args.terms is not None and not timed:
        raise ConfigError("--terms applies only to a time schedule")

    if timed:
        rows = _time_varying_rows(args, split, sched, rounds_list)
    else:
        if args.graph_file:
            g = graphs.load_edge_list(args.graph_file)
            chain = joint.sparse_joint_chain(g, _spinner4(args), joint.standard_rules())
        elif sched is not None:
            chain = _distance_chain(args, split, sched)
        else:
            if args.family == "friendship" and (args.tc is None or args.tr is None):
                raise ConfigError("--family friendship needs the 4-way spinner --c --r --tc --tr")
            chain = _family_builder(args)(_family_spinner(args))
        ts = chain_mod.extract_transient(chain)
        starts = [ts.index(f"({args.cop},{args.robber})")] if args.graph_file else None
        survival = {m: chain_mod.survival_vector(ts, m) for m in rounds_list}
        rows = _rows(ts.labels, survival, lambda i: _chain_cells(ts, i, args.absorption), starts)

    columns = ["start"] + [f"G{m}" for m in rounds_list] + ["E"]
    extra = sorted({k for r in rows for k in r} - set(columns))
    emit(columns + extra, rows, args.format, args.digits)
    return 0


def _max_distance(args):
    """The largest distance of a cycle or tree family's chain; other families are refused."""
    if args.family == "cycle":
        return _need(args, "n", "--n") // 2
    if args.family == "tree":
        _need(args, "delta", "--delta")
        return _need(args, "max_dist", "--max-dist")
    raise ConfigError("distance schedules apply to --family cycle or tree")


def _distance_chain(args, split, sched):
    _max_distance(args)  # refuses the families and arguments a distance chain cannot take
    if args.family == "cycle":
        return schedules.distance_cycle_chain(args.n, split, sched)
    return schedules.distance_tree_chain(args.delta, args.max_dist, split, sched)


def _time_varying_rows(args, split, sched, rounds_list):
    if args.family not in ("cycle", "petersen", "torus7", "tree"):
        raise ConfigError("time schedules apply to --family cycle, petersen, torus7, or tree")
    if args.absorption:
        raise ConfigError("--absorption is not supported with a time schedule")
    n_max = 2000 if args.terms is None else args.terms
    sober, survival, expectation = schedules.time_varying_series(
        _family_builder(args), split, sched, rounds_list, tol=1e-9, n_max=n_max
    )
    return _rows(sober.labels, survival,
                 lambda i: {"E": expectation[i].value, "terms": expectation[i].terms_used})


def cmd_reproduce_table(args) -> int:
    report = tables.reproduce(args.table_id)
    rows = []
    for check in report.checks:
        cell = check.cell
        rows.append(
            {
                "measure": cell.measure,
                "rounds": cell.rounds,
                "start": cell.start,
                "params": cell.params,
                "reference": cell.printed,
                "computed": check.computed,
                "diff": check.diff,
                "tolerance": check.tolerance,
                "status": "ok" if check.ok else "FAIL",
                "note": check.note,
            }
        )
    columns = ["measure", "rounds", "start", "params", "reference", "computed",
               "diff", "tolerance", "status", "note"]
    emit(columns, rows, args.format, args.digits)
    if args.format == "table":
        print(f"\n{report.table_id}: {report.title}")
        for note in report.notes:
            print(f"note: {note}")
        bad = report.failures
        print(f"{len(report.checks) - len(bad)}/{len(report.checks)} cells within tolerance")
    return 0 if report.ok else 1


def cmd_verify(args) -> int:
    if args.family not in ("cycle", "petersen", "friendship", "torus7"):
        raise ConfigError("verify supports --family cycle, petersen, friendship, torus7")
    build = _family_builder(args)
    spinner = _family_spinner(args)
    g, rules, lumping = _arena(args)
    hand = build(spinner)
    joint_chain = joint.sparse_joint_chain(g, _spinner4(args), rules)
    try:
        lumped = joint.lump(joint_chain, lumping)
    except NotLumpable as exc:
        print(f"NOT LUMPABLE: {exc}")
        return 1
    if lumped.state_labels != hand.state_labels:
        print(f"state labels differ: {lumped.state_labels} vs {hand.state_labels}")
        return 1
    disc = float(np.abs(lumped.P - hand.P).max())
    ok = disc < 1e-9
    print(f"family={args.family} joint states={joint_chain.n_states} "
          f"max entry discrepancy={disc:.3e} -> {'ok' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def cmd_simulate(args) -> int:
    cop, robber, escape = args.cop, args.robber, None
    if args.start is not None and (cop is not None or robber is not None):
        raise ConfigError("use either --start or --cop/--robber, not both")
    if args.graph_file:
        g = graphs.load_edge_list(args.graph_file)
        if cop is None or robber is None:
            raise ConfigError("--graph-file simulation needs --cop and --robber")
        rules = joint.standard_rules()
    else:
        g, rules, lumping = _arena(args)
        if args.family == "tree":
            escape = args.max_dist
        if cop is None or robber is None:
            if args.start is None:
                raise ConfigError("simulate needs --start (a state label) or --cop/--robber")
            cop, robber = divmod(lumping.representative(args.start), g.vertex_count)
    spinner = _spinner4(args)
    cfg = montecarlo.SimConfig(
        graph=g,
        spinner=spinner,
        rules=rules,
        cop_start=cop,
        robber_start=robber,
        trials=args.trials,
        max_rounds=args.max_rounds,
        seed=args.seed,
        escape_distance=escape,
    )
    report = montecarlo.run(cfg)
    row = {
        "trials": report.trials,
        "mean_rounds": report.mean_rounds,
        "mean_se": report.mean_rounds_se,
        "mean_is_lower_bound": report.mean_is_lower_bound,
        "censored": report.censored_fraction,
        "captured": report.capture_fraction,
        "escaped": report.escape_fraction,
    }
    for m in _rounds_list(args):
        row[f"G{m}"] = report.survival(m)
        row[f"G{m}_se"] = report.survival_stderr(m)
    emit(list(row), [row], args.format, args.digits)
    return 0


def cmd_closed_form(args) -> int:
    s = _spinner3(args)
    p = closedform.up_probability(args.delta, s)
    if args.max_dist < 2:
        raise InvalidParameter(f"call-off distance must be >= 2, got {args.max_dist}")
    # the call-offs whose chain ``analyze --family tree`` accepts, so both commands agree
    chain_mod.check_dense_size(args.max_dist + 1, args.max_dist + 1, "tree chain P")
    rows = []
    for d in range(1, args.max_dist):
        row = {
            "d": d,
            "E": closedform.expected_rounds_closed(d, args.max_dist, p).value,
            "R": closedform.escape_probability(d, args.max_dist, p),
            "C": closedform.capture_probability(d, args.max_dist, p),
        }
        if args.unbounded:
            row["E_unbounded"] = closedform.expected_rounds_unbounded(d, args.delta, s).value
        rows.append(row)
    columns = ["d", "E", "R", "C"] + (["E_unbounded"] if args.unbounded else [])
    if args.format == "table":
        print(f"up probability p = {p:.6g}")
    emit(columns, rows, args.format, args.digits)
    return 0


# ------------------------------------------------------------------ main


def _add_common(p):
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--digits", type=int, default=None,
                   help="significant digits (table default 4; csv/json default full)")


def _add_spinner(p):
    p.add_argument("--c", type=float, help="sober cop probability")
    p.add_argument("--r", type=float, help="sober robber probability")
    p.add_argument("--t", type=float, help="tipsy probability (3-way spinner)")
    p.add_argument("--tc", type=float, help="tipsy cop probability (4-way spinner)")
    p.add_argument("--tr", type=float, help="tipsy robber probability (4-way spinner)")


def _add_family(p):
    p.add_argument("--family", choices=("cycle", "petersen", "friendship", "torus7", "tree"))
    p.add_argument("--n", type=int, help="cycle size / friendship triangle count")
    p.add_argument("--delta", type=int, help="tree degree")
    p.add_argument("--max-dist", dest="max_dist", type=int,
                   help="call-off distance for tree chains")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tipsychase",
        description="Markov-chain analysis of tipsy pursuit games on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="survival/expectation/absorption for a scenario")
    _add_family(p)
    _add_spinner(p)
    p.add_argument("--graph-file", help="edge-list file: first line 'V E', then 'u v' lines")
    p.add_argument("--cop", type=int, help="cop start vertex (with --graph-file)")
    p.add_argument("--robber", type=int, help="robber start vertex (with --graph-file)")
    p.add_argument("--schedule", help="tipsiness schedule: hyper:N,S exp2:N,S linear exp12")
    p.add_argument("--robber-share", dest="robber_share", type=float,
                   help="robber's share of the sober mass (with --schedule)")
    p.add_argument("--rounds", action="append",
                   help="survival horizons, e.g. --rounds 7 or --rounds 5,10")
    p.add_argument("--terms", type=int,
                   help="term cap for the time-varying expectation series (default 2000)")
    p.add_argument("--absorption", action="store_true",
                   help="include absorption-probability columns")
    _add_common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("reproduce-table", help="recompute a bundled reference table")
    p.add_argument("table_id", choices=tables.table_ids(), metavar="TABLE",
                   help=f"one of: {', '.join(tables.table_ids())}")
    _add_common(p)
    p.set_defaults(fn=cmd_reproduce_table)

    p = sub.add_parser("verify", help="lump the exact joint chain against the hand-built one")
    _add_family(p)
    _add_spinner(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="seeded Monte-Carlo simulation")
    _add_family(p)
    _add_spinner(p)
    p.add_argument("--graph-file", help="edge-list file for a custom arena")
    p.add_argument("--cop", type=int, help="cop start vertex")
    p.add_argument("--robber", type=int, help="robber start vertex")
    p.add_argument("--start", help="start state label (e.g. 3, 1cc, (3,2))")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--max-rounds", dest="max_rounds", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", action="append",
                   help="survival horizons to report, e.g. --rounds 7,50")
    _add_common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("closed-form", help="ruin formulas for the tree game")
    p.add_argument("--delta", type=int, required=True, help="tree degree")
    p.add_argument("--max-dist", dest="max_dist", type=int, required=True,
                   help="call-off distance")
    _add_spinner(p)
    p.add_argument("--unbounded", action="store_true",
                   help="also report the never-give-up expectation")
    _add_common(p)
    p.set_defaults(fn=cmd_closed_form)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "digits", None) is not None and args.digits < 0:
            raise ConfigError(f"--digits must be >= 0, got {args.digits}")
        with warnings.catch_warnings():  # a library warning is one note line
            warnings.showwarning = lambda message, *_: print(f"note: {message}", file=sys.stderr)
            return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GameModelError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
