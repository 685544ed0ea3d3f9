"""Benchmark tipsychase: run one workload and print its metrics.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere; the package is imported from ``src/`` of the checkout
this file sits in.  A run sets the workload up several times (the
median is ``setup_s``), runs one warm-up pass, then repeats whole passes
over the workload's operations until ``--seconds`` is used up, checking
every output after its timed call.  With ``--trace 1`` the set-up and
every pass after the warm-up are traced and the per-layer metrics are
printed instead; the spans go to ``.perfbench/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat
the metrics for reading, with each operation's name.  ``--workload
all`` runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("tables", "oracle", "montecarlo")
SETUP_REPEATS = 3
MIN_PASSES = 2  # timed passes, after the warm-up pass

# Every workload runs three operations; op<k>_s is the k-th one's time.
END_TO_END = {
    "setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB",
    "op1_s": "s", "op2_s": "s", "op3_s": "s",
}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import tipsychase.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Import time of the whole package in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def machine_line() -> str:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"numpy {np.__version__}, scipy {scipy.__version__}, "
            f"BLAS {blas['name']} {blas['version']}")


class Tally:
    """Attempted and failed operations, plus the first message of each kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.rounds: dict[str, int] = {}
        self._seen: set[str] = set()

    def note(self, kind: str, message: str) -> None:
        if message not in self._seen:
            self._seen.add(message)
            print(f"{kind}: {message}", file=sys.stderr)


def run_pass(ops, tally, tracer=None, label=""):
    """Time each operation, then check it; returns {op name: seconds}."""
    import workloads

    times = {}
    for op in ops:
        tally.attempted += 1
        if tracer:
            tracer.begin(f"{label}/{op.name}")
        start = perf_counter()
        try:
            out = op.run()
        except Exception:
            tally.failed += 1
            tally.note("failed", f"{op.name}: {traceback.format_exc()}")
            continue
        finally:
            times[op.name] = perf_counter() - start
            if tracer:
                tracer.end()
        if op.rounds:
            tally.rounds[op.name] = op.rounds(out)
        try:
            op.check(out)
        except workloads.KnownFault as exc:
            tally.failed += 1
            tally.note("known fault", str(exc))
        except workloads.Mismatch as exc:
            tally.correct = False
            tally.note("MISMATCH", str(exc))
    return times


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import tipsychase

    if Path(tipsychase.__file__).resolve().parent != SRC / "tipsychase":
        raise SystemExit(f"error: imported tipsychase from {tipsychase.__file__}, not {SRC}")
    import tracer as tracer_mod
    import workloads

    WORK.mkdir(exist_ok=True)
    setup = workloads.SETUPS[name]
    tally = Tally()
    tracer = tracer_mod.Tracer() if traced else None
    setup_times = []
    if traced:
        cost = tracer_mod.call_cost()
        tracer.install()
        tracer.begin("setup")
        ops = setup(seed, WORK)
        tracer.end()
        tracer.uninstall()
    else:
        for _ in range(SETUP_REPEATS):
            imported = import_seconds()
            start = perf_counter()
            ops = setup(seed, WORK)
            setup_times.append(imported + perf_counter() - start)

    op_times = {op.name: [] for op in ops}
    pass_times, walls = [], []
    traced_times = {}
    pass_ops = {"setup": [0]}  # traced only: op indices recorded under each pass
    clock = perf_counter()
    # the first pass pays one-off costs (lazy imports, BLAS threads, first
    # page faults); it is checked like any other but left out of the figures
    run_pass(ops, tally)
    while True:
        wall = perf_counter()
        if traced:
            label = f"pass{len(traced_times)}"
            tracer.install()
            first = len(tracer.ops)
            times = run_pass(ops, tally, tracer, label)
            tracer.uninstall()
            pass_ops[label] = list(range(first, len(tracer.ops)))
            traced_times[label] = sum(times.values())
        else:
            times = run_pass(ops, tally)
        pass_times.append(sum(times.values()))
        for op_name, t in times.items():
            op_times[op_name].append(t)
        walls.append(perf_counter() - wall)
        used = perf_counter() - clock
        if len(walls) >= MIN_PASSES and used + statistics.median(walls) > seconds:
            break

    if traced:
        metrics = tracer.layer_metrics(pass_ops, traced_times, cost)
        tracer.write(WORK / f"spans-{name}.jsonl")
        units = tracer_mod.UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(pass_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        for k, op in enumerate(ops, 1):
            metrics[f"op{k}_s"] = statistics.median(op_times[op.name])
        units = END_TO_END

    print(f"# workload {name}, seed {seed}, 1 + {len(pass_times)} passes, "
          f"{tally.attempted} attempted, {tally.failed} failed, "
          f"{'correct' if tally.correct else 'INCORRECT'}")
    print(machine_line())
    aliases = {f"op{k}_s": f"{op.name}_s" for k, op in enumerate(ops, 1)}
    for metric in units:
        shown = f"{metric} ({aliases[metric]})" if metric in aliases else metric
        print(f"{shown:28s} {metrics[metric]:.6g} {units[metric]}")
    if tally.rounds and not traced:
        sim_s = sum(statistics.median(op_times[op_name]) for op_name in tally.rounds)
        print(f"{'rounds_per_s':28s} {sum(tally.rounds.values()) / sim_s:.6g} rounds/s")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


def run_all(args) -> int:
    """Each workload in its own process; the last line maps workload to result."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tipsychase" / "__init__.py").is_file():
        print(f"error: no tipsychase package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
