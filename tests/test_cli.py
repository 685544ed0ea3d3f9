import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from tipsychase import chain, cli, graphs, joint, montecarlo


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_from_csv(text):
    reader = csv.DictReader(io.StringIO(text))
    return list(reader)


class TestAnalyze:
    def test_petersen_reference_row(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--family", "petersen", "--c", "0.2", "--r", "0.3",
             "--t", "0.5", "--rounds", "7", "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = rows_from_csv(out)
        d1 = next(r for r in rows if r["start"] == "1")
        assert float(d1["G7"]) == pytest.approx(0.352, abs=5e-4)
        assert float(d1["E"]) == pytest.approx(7.44, abs=5e-3)

    def test_cycle_deterministic_expectations(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--family", "cycle", "--n", "6", "--c", "1", "--r", "0",
             "--t", "0", "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = rows_from_csv(out)
        assert [float(r["E"]) for r in rows] == pytest.approx([1.0, 2.0, 3.0])

    def test_friendship_reference_row(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--family", "friendship", "--n", "5", "--c", "0.25",
             "--r", "0.25", "--tc", "0.25", "--tr", "0.25", "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = rows_from_csv(out)
        row = next(r for r in rows if r["start"] == "1rc")
        assert float(row["E"]) == pytest.approx(4.159, abs=5e-3)

    def test_tree_absorption_columns(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--family", "tree", "--delta", "4", "--max-dist", "10",
             "--c", "0.3", "--r", "0.4", "--t", "0.3", "--absorption",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = rows_from_csv(out)
        d1 = next(r for r in rows if r["start"] == "1")
        assert float(d1["absorb:10"]) == pytest.approx(0.4024, abs=5e-4)
        assert float(d1["absorb:0"]) == pytest.approx(0.5976, abs=5e-4)

    def test_infinite_expectation_rendering(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--family", "cycle", "--n", "6", "--c", "0", "--r", "1",
             "--t", "0", "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = rows_from_csv(out)
        assert all(r["E"] == "Infinite" for r in rows)

    def test_time_schedule(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--family", "cycle", "--n", "6", "--schedule", "hyper:4,3",
             "--robber-share", "0.5", "--rounds", "5", "--terms", "1000",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = rows_from_csv(out)
        d1 = next(r for r in rows if r["start"] == "1")
        assert float(d1["G5"]) == pytest.approx(0.2917, abs=5e-4)
        assert float(d1["E"]) == pytest.approx(5.456, abs=5e-3)

    def test_distance_schedule(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--family", "tree", "--delta", "4", "--max-dist", "10",
             "--schedule", "linear", "--robber-share", "0.5", "--rounds", "30",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = rows_from_csv(out)
        d1 = next(r for r in rows if r["start"] == "1")
        assert float(d1["E"]) == pytest.approx(7.3, abs=0.05)

    def test_graph_file_scenario(self, capsys, tmp_path):
        path = tmp_path / "edge.txt"
        path.write_text("2 1\n0 1\n")
        code, out, _ = run_cli(
            ["analyze", "--graph-file", str(path), "--c", "1", "--r", "0",
             "--t", "0", "--cop", "0", "--robber", "1", "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = rows_from_csv(out)
        assert float(rows[0]["E"]) == pytest.approx(1.0)

    def test_graph_file_fleeing_robber_is_infinite(self, capsys, tmp_path):
        # the sparse joint chain decides divergence from its structure
        path = tmp_path / "cycle6.txt"
        path.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        code, out, _ = run_cli(
            ["analyze", "--graph-file", str(path), "--c", "0", "--r", "1",
             "--t", "0", "--cop", "0", "--robber", "2", "--rounds", "5"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[1].split() == ["(0,2)", "1", "Infinite"]

    def test_schedule_conflicts_with_static_spinner(self, capsys):
        code, _, err = run_cli(
            ["analyze", "--family", "cycle", "--n", "6", "--schedule", "linear",
             "--robber-share", "0.5", "--c", "0.3", "--r", "0.3", "--t", "0.4"],
            capsys,
        )
        assert code == 2
        assert "mutually exclusive" in err

    def test_missing_spinner_is_config_error(self, capsys):
        code, _, err = run_cli(["analyze", "--family", "petersen"], capsys)
        assert code == 2
        assert "spinner" in err

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--schedule", "hyper:abc", "--robber-share", "0.5"], "must be numbers"),
            (["--schedule", "hyper:1,2,3", "--robber-share", "0.5"], "at most 2 arguments"),
            (["--c", "0.3", "--r", "0.3", "--t", "0.4", "--rounds", "x"], "--rounds"),
            (["--graph-file", "/nonexistent", "--cop", "0", "--robber", "1",
              "--c", "0.3", "--r", "0.3", "--t", "0.4"], "cannot read"),
            (["--graph-file", "/nonexistent", "--cop", "0", "--robber", "1",
              "--c", "0.3", "--r", "0.3", "--t", "0.4", "--absorption"], "--absorption"),
        ],
    )
    def test_malformed_input_is_config_error(self, capsys, extra, message):
        code, _, err = run_cli(["analyze", "--family", "cycle", "--n", "6"] + extra, capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestFormats:
    ARGS = ["analyze", "--family", "cycle", "--n", "6", "--c", "0.2", "--r", "0.3",
            "--t", "0.5", "--rounds", "7"]

    def test_csv_round_trip_idempotent(self, capsys):
        _, out, _ = run_cli(self.ARGS + ["--format", "csv"], capsys)
        rows = list(csv.reader(io.StringIO(out)))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert buf.getvalue() == out

    def test_json_round_trip_idempotent(self, capsys):
        _, out, _ = run_cli(self.ARGS + ["--format", "json"], capsys)
        payload = json.loads(out)
        assert json.dumps(payload, indent=2) + "\n" == out
        assert payload["columns"][0] == "start"

    def test_json_divergent_rows_are_strict_json(self, capsys):
        # the fleeing robber: E is infinite and the absorption split undefined
        argv = ["analyze", "--family", "cycle", "--n", "6", "--c", "0", "--r", "1",
                "--t", "0", "--absorption"]

        def refuse(token):
            raise ValueError(f"{token} is not RFC 8259 JSON")

        _, out, _ = run_cli(argv + ["--format", "json"], capsys)
        payload = json.loads(out, parse_constant=refuse)
        assert json.dumps(payload, indent=2) + "\n" == out
        assert [(r["E"], r["absorb:0"]) for r in payload["rows"]] == [("Infinite", None)] * 3
        _, out, _ = run_cli(argv + ["--format", "csv"], capsys)
        assert [(r["E"], r["absorb:0"]) for r in rows_from_csv(out)] == [("Infinite", "nan")] * 3

    def test_digits_control(self, capsys):
        _, out, _ = run_cli(self.ARGS + ["--format", "csv", "--digits", "2"], capsys)
        rows = rows_from_csv(out)
        assert all(len(r["G7"].replace("0.", "")) <= 2 for r in rows)

    def test_csv_values_round_trip_floats(self, capsys):
        _, out, _ = run_cli(self.ARGS + ["--format", "csv"], capsys)
        from tipsychase import chain, families
        ts = chain.extract_transient(
            families.cycle_chain(6, families.SpinnerThree(0.2, 0.3, 0.5))
        )
        want = chain.expected_rounds(ts, "2").value
        row = next(r for r in rows_from_csv(out) if r["start"] == "2")
        assert float(row["E"]) == want  # shortest round-trip repr is lossless


class TestReproduceTable:
    def test_tables_pass(self, capsys):
        for table_id in ("cycle5.2", "torus8.1", "time9.1", "tree10.4b"):
            code, out, _ = run_cli(["reproduce-table", table_id], capsys)
            assert code == 0, table_id
            assert "cells within tolerance" in out

    def test_erratum_annotation_present(self, capsys):
        code, out, _ = run_cli(
            ["reproduce-table", "torus8.1", "--format", "csv"], capsys
        )
        assert code == 0
        rows = rows_from_csv(out)
        flagged = [r for r in rows if r["note"]]
        assert len(flagged) == 1
        assert flagged[0]["start"] == "(3,2)"
        assert "95.95" in flagged[0]["note"]

    def test_unknown_table_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["reproduce-table", "nosuch1.1"])
        assert info.value.code == 2


class TestVerify:
    def test_cycle(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--family", "cycle", "--n", "8", "--c", "0.3", "--r", "0.3",
             "--t", "0.4"],
            capsys,
        )
        assert code == 0
        assert "ok" in out

    def test_friendship(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--family", "friendship", "--n", "4", "--c", "0.1",
             "--r", "0.2", "--tc", "0.3", "--tr", "0.4"],
            capsys,
        )
        assert code == 0

    def test_torus(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--family", "torus7", "--c", "0.3", "--r", "0.4", "--t", "0.3"],
            capsys,
        )
        assert code == 0


class TestSimulate:
    def test_deterministic_family_start(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--family", "cycle", "--n", "8", "--c", "1", "--r", "0",
             "--t", "0", "--start", "3", "--trials", "200", "--seed", "5",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        row = rows_from_csv(out)[0]
        assert float(row["mean_rounds"]) == 3.0
        assert float(row["captured"]) == 1.0

    def test_seeded_runs_repeat(self, capsys):
        args = ["simulate", "--family", "petersen", "--c", "0.5", "--r", "0",
                "--t", "0.5", "--start", "1", "--trials", "4000", "--seed", "11",
                "--rounds", "7", "--format", "csv"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_needs_start(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--family", "cycle", "--n", "6", "--c", "0.3",
             "--r", "0.3", "--t", "0.4"],
            capsys,
        )
        assert code == 2
        assert "--start" in err


    def test_move_table_cap_refuses_before_lumping(self, capsys, monkeypatch):
        # a 3,070-vertex arena: V^2 * max degree is 28 M table entries, over the cap
        def no_lumping(g):
            raise AssertionError("lumping built before the move-table check")

        monkeypatch.setattr(joint, "distance_lumping", no_lumping)
        code, out, err = run_cli(
            ["simulate", "--family", "tree", "--delta", "3", "--max-dist", "6", "--c", ".3",
             "--r", ".4", "--t", ".3", "--start", "1", "--trials", "10"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err == ("error: InvalidParameter: graph too large for the (cop, robber) "
                       "move tables (3070 vertices, max degree 3)\n")

    def test_oversized_arena_refused_by_arithmetic(self, capsys, monkeypatch):
        # truncated_tree(6, 10) would have 14,648,437 vertices; failing the
        # generator's range() loop keeps a regression from building it
        def no_loop(*args):
            raise AssertionError("tree built before the size check")

        monkeypatch.setattr(graphs, "range", no_loop, raising=False)
        code, out, err = run_cli(
            ["simulate", "--family", "tree", "--delta", "6", "--max-dist", "6", "--c", ".3",
             "--r", ".4", "--t", ".3", "--start", "1", "--trials", "10"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: GraphTooLarge: dense distance table")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag,what", [("--trials", "per-trial rounds"),
                                           ("--max-rounds", "survival curve")])
    def test_result_arrays_refused_by_arithmetic(self, capsys, monkeypatch, flag, what):
        # 10^9 trials or rounds ask for 8 GB result arrays; failing the move
        # tables keeps a regression from starting the run
        assert (10**9 + 2) * 8 > chain.DENSE_BYTE_CAP

        def no_tables(*args):
            raise AssertionError("move tables built before the size check")

        monkeypatch.setattr(montecarlo, "_move_tables", no_tables)
        code, out, err = run_cli(
            ["simulate", "--family", "petersen", *SPIN3, "--start", "1", flag, "1000000000"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: GraphTooLarge: dense {what} would take 8 GB")
        assert err.count("\n") == 1

    def test_unknown_start_class(self, capsys):
        code, out, err = run_cli(
            ["simulate", "--family", "petersen", *SPIN3, "--start", "7", "--trials", "10"],
            capsys,
        )
        assert (code, out, err) == (2, "", "error: InvalidParameter: no state in class '7'\n")


SPIN3 = ["--c", "0.3", "--r", "0.4", "--t", "0.3"]
SPIN4 = ["--c", "0.3", "--r", "0.4", "--tc", "0.15", "--tr", "0.15"]
TIME = ["--schedule", "hyper", "--robber-share", "0.5"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["analyze", "--family", "cycle", *SPIN3], "--family cycle needs --n"),
        (["verify", "--family", "cycle", *SPIN3], "--family cycle needs --n"),
        (["simulate", "--family", "cycle", *SPIN3, "--start", "1"], "--family cycle needs --n"),
        (["analyze", "--family", "friendship", *SPIN4], "--family friendship needs --n"),
        (["verify", "--family", "friendship", *SPIN3], "--family friendship needs --n"),
        (["analyze", "--family", "friendship", "--n", "5", *SPIN3],
         "--family friendship needs the 4-way spinner --c --r --tc --tr"),
        (["verify", "--family", "tree", "--delta", "3", "--max-dist", "5", *SPIN3],
         "verify supports --family cycle, petersen, friendship, torus7"),
        (["verify", *SPIN3], "verify supports --family cycle, petersen, friendship, torus7"),
        (["analyze", "--family", "friendship", "--n", "5", *TIME],
         "time schedules apply to --family cycle, petersen, torus7, or tree"),
        (["analyze", *TIME], "time schedules apply to --family cycle, petersen, torus7, or tree"),
        (["analyze", *SPIN3], "unknown family None"),
        (["simulate", *SPIN3, "--start", "1"], "simulate needs --family or --graph-file"),
        (["analyze", "--family", "tree", *SPIN3], "--family tree needs --delta"),
        (["analyze", "--family", "tree", *TIME], "--family tree needs --delta"),
        (["simulate", "--family", "tree", *SPIN3, "--start", "1"], "--family tree needs --delta"),
        (["analyze", "--family", "tree", "--delta", "3", *SPIN3],
         "--family tree needs --max-dist"),
        (["simulate", "--family", "tree", "--delta", "3", *SPIN3, "--start", "1"],
         "--family tree needs --max-dist"),
        # not a refusal: the 3-way spinner's tipsy mass is split evenly, as for the joint chain
        (["verify", "--family", "friendship", "--n", "3", *SPIN3], None),
    ],
)
def test_family_dispatch_refusals(capsys, argv, message):
    code, out, err = run_cli(argv, capsys)
    if message is None:
        assert (code, err) == (0, "")
        assert out.startswith(f"family={argv[2]} ") and out.endswith("-> ok\n")
    else:
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_cli_import_loads_no_scipy_module():
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import tipsychase.cli; "
             "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True,
                          check=True, timeout=120)
    assert done.stdout == "[]\n"


class TestClosedForm:
    def test_reference_table_row(self, capsys):
        code, out, _ = run_cli(
            ["closed-form", "--delta", "4", "--max-dist", "10", "--c", "0.3",
             "--r", "0.4", "--t", "0.3", "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = rows_from_csv(out)
        d9 = next(r for r in rows if r["d"] == "9")
        assert float(d9["E"]) == pytest.approx(3.838, abs=1e-3)
        assert float(d9["R"]) == pytest.approx(0.9959, abs=5e-4)

    def test_unbounded_column(self, capsys):
        code, out, _ = run_cli(
            ["closed-form", "--delta", "2", "--max-dist", "6", "--c", "0.6",
             "--r", "0.2", "--t", "0.2", "--unbounded", "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = rows_from_csv(out)
        assert float(rows[1]["E_unbounded"]) == pytest.approx(2 / 0.4, abs=1e-9)
