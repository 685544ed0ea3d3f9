import collections
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tipsychase import chain, cli, families, graphs, joint, montecarlo


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
        code, out, err = run_cli(
            ["analyze", "--family", "cycle", "--n", "6", "--c", "0", "--r", "1",
             "--t", "0", "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = rows_from_csv(out)
        assert all(r["E"] == "Infinite" for r in rows)
        assert err == ""  # only a finite E's condition note is shown

    def test_loose_certified_bound_noted_on_stderr(self, capsys):
        # the 6-cycle at c = 10^-4.5, r = 1 - c: E and the split hold only to
        # a certified bound of 0.04, which stderr states once per start
        code, out, err = run_cli(
            ["analyze", "--family", "cycle", "--n", "6", "--c", "3.1622776601683795e-05",
             "--r", "0.9999683772233983", "--t", "0", "--absorption"],
            capsys,
        )
        assert code == 0
        assert out == ("start  E          absorb:0\n"
                       "    1  3.157e+13    0.9983\n"
                       "    2  3.157e+13    0.9983\n"
                       "    3  3.157e+13    0.9983\n")
        assert err == "".join(f"note: {s}: certified error at most 0.04\n" for s in "123")

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

    def test_time_schedule_walks_the_rounds_once(self, capsys, monkeypatch):
        built = []
        cycle_chain = families.cycle_chain

        def counting(n, s):
            built.append(s.t)
            return cycle_chain(n, s)

        monkeypatch.setattr(families, "cycle_chain", counting)
        code, out, _ = run_cli(
            ["analyze", "--family", "cycle", "--n", "6", "--schedule", "hyper:4,3",
             "--robber-share", "0.5", "--rounds", "5,10,50", "--format", "csv"],
            capsys,
        )
        assert code == 0
        stop = max(int(row["terms"]) for row in rows_from_csv(out))
        # every round, up to max(50, the series stop), mixes these two chains
        assert stop == 214 and built == [0.0, 1.0]

    def test_library_warning_is_one_note_line(self, capsys):
        code, _, err = run_cli(
            ["analyze", "--family", "cycle", "--n", "6", "--schedule", "hyper:4,4",
             "--robber-share", "0.5", "--rounds", "3"],
            capsys,
        )
        assert code == 0
        assert err == "note: time schedule 'hyper:4,4' has f(1) = 0.8, not 1\n"

    def test_exp2_schedule_past_round_1023(self, capsys):
        # the share-0.9 series is still open at round 1024, where 2.0**m overflows
        code, out, err = run_cli(
            ["analyze", "--family", "cycle", "--n", "6", "--schedule", "exp2",
             "--robber-share", "0.9", "--rounds", "5", "--format", "csv"],
            capsys,
        )
        assert (code, err) == (0, "")
        assert [row["terms"] for row in rows_from_csv(out)] == ["2000"] * 3

    def test_krylov_breakdown_is_one_error_line(self, capsys, tmp_path):
        # BiCGSTAB breaks down on the 100-cycle, whose 9,900-state dense fallback
        # is over the cap; its overflow stays out of stderr (and out of pytest's
        # RuntimeWarning-as-error filter)
        path = tmp_path / "cycle100.txt"
        path.write_text("100 100\n" + "".join(f"{i} {(i + 1) % 100}\n" for i in range(100)))
        code, out, err = run_cli(
            ["analyze", "--graph-file", str(path), "--cop", "0", "--robber", "50",
             "--c", "0.3", "--r", "0.3", "--tc", "0.2", "--tr", "0.2"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == ("error: GraphTooLarge: dense fallback solve of I - T would take "
                       "0.784 GB, over the cap of 0.537 GB\n")

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

    def test_graph_file_reads_its_one_start(self, capsys, tmp_path, monkeypatch):
        # the one start is read from the whole-vector survival and solve: its label
        # is resolved once, not one row or label lookup per joint pair
        path = tmp_path / "cycle6.txt"
        path.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        looked_up = []
        index = chain.TransientSystem.index

        def recording(ts, state):
            looked_up.append(state)
            return index(ts, state)

        monkeypatch.setattr(chain.TransientSystem, "index", recording)
        code, out, err = run_cli(
            ["analyze", "--graph-file", str(path), *SPIN3, "--cop", "0", "--robber", "3",
             "--rounds", "5,7", "--format", "csv"],
            capsys,
        )
        assert (code, err) == (0, "")
        assert [row["start"] for row in rows_from_csv(out)] == ["(0,3)"]
        assert looked_up[0] == "(0,3)" and len(looked_up) == 2  # the label, then E's row

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


@pytest.mark.parametrize(
    "extra,line",
    [
        (["--schedule", "hyper:4,-1", "--robber-share", "0.5"],
         "error: InvalidParameter: hyper: shift must be > -1, got -1"),
        (["--schedule", "exp2:4,-2", "--robber-share", "0.5"],
         "error: InvalidParameter: exp2: shift must be > -2, got -2"),
        (["--c", "0.3", "--r", "0.3", "--t", "0.4", "--digits", "-1"],
         "error: --digits must be >= 0, got -1"),
    ],
)
def test_input_that_used_to_raise_is_refused(capsys, extra, line):
    code, out, err = run_cli(["analyze", "--family", "cycle", "--n", "6"] + extra, capsys)
    assert (code, out, err) == (2, "", line + "\n")


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
        # a 3,070-vertex arena: V^2 * max degree is 28 M table entries, over the
        # cap; the check is arithmetic on the tree's size, so no graph is built
        def no_graph(*args):
            raise AssertionError("graph built before the move-table check")

        def no_lumping(g):
            raise AssertionError("lumping built before the move-table check")

        monkeypatch.setattr(graphs, "build_graph", no_graph)
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

    @pytest.mark.parametrize("family,error", [
        (["cycle", "--n", "4000"], "InvalidParameter: graph too large for the (cop, robber) "
                                   "move tables (4000 vertices, max degree 2)"),
        (["friendship", "--n", "100"], "InvalidParameter: graph too large for the (cop, robber) "
                                       "move tables (201 vertices, max degree 200)"),
        (["cycle", "--n", "12000"], "GraphTooLarge: dense distance table would take 0.576 GB, "
                                    "over the cap of 0.537 GB"),
        (["friendship", "--n", "6000"], "GraphTooLarge: dense distance table would take "
                                        "0.576 GB, over the cap of 0.537 GB"),
    ])
    def test_family_arena_refused_before_build(self, capsys, monkeypatch, family, error):
        # every family arena's size follows from its arguments, so the distance-
        # table cap and then the move-table cap refuse it before any graph is built
        def no_graph(*args):
            raise AssertionError("graph built before the size checks")

        monkeypatch.setattr(graphs, "build_graph", no_graph)
        code, out, err = run_cli(
            ["simulate", "--family", *family, *SPIN3, "--start", "1", "--trials", "10"], capsys,
        )
        assert (code, out, err) == (2, "", f"error: {error}\n")

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

    def test_simulate_makes_its_move_table_through_the_patched_name(self, capsys, monkeypatch):
        # the refusal test above fails montecarlo._move_tables; that shows something
        # only while an ordinary run makes its table through that name
        made = []
        real = montecarlo._move_tables

        def spy(*args):
            made.append(real(*args))
            return made[-1]

        monkeypatch.setattr(montecarlo, "_move_tables", spy)
        code, out, err = run_cli(
            ["simulate", "--family", "petersen", *SPIN3, "--start", "1", "--trials", "100"],
            capsys,
        )
        assert (code, err) == (0, "") and out
        assert len(made) == 1 and made[0].size > 1

    def test_unknown_start_class(self, capsys):
        code, out, err = run_cli(
            ["simulate", "--family", "petersen", *SPIN3, "--start", "7", "--trials", "10"],
            capsys,
        )
        assert (code, out, err) == (2, "", "error: InvalidParameter: no state in class '7'\n")


SPIN3 = ["--c", "0.3", "--r", "0.4", "--t", "0.3"]
SPIN4 = ["--c", "0.3", "--r", "0.4", "--tc", "0.15", "--tr", "0.15"]
MIXED = ["--c", ".3", "--r", ".3", "--t", ".9", "--tc", ".2", "--tr", ".2"]
GRAPH_FILE = "<a 4-cycle edge-list file>"
TIME = ["--schedule", "hyper", "--robber-share", "0.5"]
LINEAR = ["--schedule", "linear", "--robber-share", "0.5"]
DISTANCE_ONLY = "distance schedules apply to --family cycle or tree"
CALL_OFF = "InvalidParameter: call-off distance must be >= 2, got {}"
BOTH_T = "use either --t or --tc/--tr, not both"
HORIZON = ["simulate", "--family", "cycle", "--n", "6", "--c", "0.3", "--r", "0.3", "--t", "0.4",
           "--start", "1", "--trials", "100", "--max-rounds", "10", "--rounds"]


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
        (["analyze", "--family", "torus7", *LINEAR], DISTANCE_ONLY),
        (["analyze", "--family", "petersen", *LINEAR], DISTANCE_ONLY),
        (["analyze", "--family", "friendship", "--n", "3", *LINEAR], DISTANCE_ONLY),
        (["analyze", *LINEAR], DISTANCE_ONLY),
        (["analyze", "--family", "torus7", "--schedule", "exp12", "--robber-share", "0.5"],
         DISTANCE_ONLY),
        (["analyze", "--family", "cycle", *LINEAR], "--family cycle needs --n"),
        (["analyze", "--family", "tree", "--delta", "3", *LINEAR],
         "--family tree needs --max-dist"),
        *[(["closed-form", "--delta", "3", "--max-dist", d, *SPIN3], CALL_OFF.format(d))
          for d in ("1", "0", "-3")],
        (["analyze", "--family", "tree", "--delta", "3", "--max-dist", "1", *SPIN3],
         CALL_OFF.format(1)),
        # family chains are refused before their dense P is allocated
        (["analyze", "--family", "cycle", "--n", "10000000", *SPIN3],
         "GraphTooLarge: dense cycle chain P would take 2e+05 GB, over the cap of 0.537 GB"),
        (["analyze", "--family", "cycle", "--n", "10000000", *TIME],
         "GraphTooLarge: dense cycle chain P would take 2e+05 GB, over the cap of 0.537 GB"),
        (["analyze", "--family", "tree", "--delta", "3", "--max-dist", "100000000", *LINEAR],
         "GraphTooLarge: dense tree chain P would take 8e+07 GB, over the cap of 0.537 GB"),
        (["analyze", "--family", "tree", "--delta", "3", "--max-dist", "100000000", *SPIN3],
         "GraphTooLarge: dense tree chain P would take 8e+07 GB, over the cap of 0.537 GB"),
        # not a refusal: the 3-way spinner's tipsy mass is split evenly, as for the joint chain
        (["verify", "--family", "friendship", "--n", "3", *SPIN3], None),
        # flags that the scenario would not read
        (["analyze", "--family", "cycle", "--n", "6", *TIME, "--absorption"],
         "--absorption is not supported with a time schedule"),
        (["analyze", "--family", "cycle", "--n", "6", *SPIN3, "--robber-share", "0.5"],
         "--robber-share applies only with --schedule"),
        (["analyze", "--family", "cycle", "--n", "6", *SPIN3, "--terms", "50"],
         "--terms applies only to a time schedule"),
        (["analyze", "--family", "cycle", "--n", "6", *LINEAR, "--terms", "50"],
         "--terms applies only to a time schedule"),
        (["simulate", "--family", "cycle", "--n", "6", *SPIN3, "--start", "3",
          "--cop", "0", "--robber", "1"], "use either --start or --cop/--robber, not both"),
        # closed-form takes the call-offs whose chain analyze accepts, 8191 the largest
        (["closed-form", "--delta", "3", "--max-dist", "8192", *SPIN3],
         "GraphTooLarge: dense tree chain P would take 0.537 GB, over the cap of 0.537 GB"),
        (["analyze", "--family", "tree", "--delta", "3", "--max-dist", "8192", *SPIN3],
         "GraphTooLarge: dense tree chain P would take 0.537 GB, over the cap of 0.537 GB"),
        # --t (3-way spinner) next to --tc/--tr (4-way): one spinner must be chosen
        (["analyze", "--family", "friendship", "--n", "3", *MIXED], BOTH_T),
        (["simulate", "--family", "friendship", "--n", "3", *MIXED, "--start", "2",
          "--trials", "10"], BOTH_T),
        (["verify", "--family", "friendship", "--n", "3", *MIXED], BOTH_T),
        (["analyze", "--graph-file", GRAPH_FILE, "--cop", "0", "--robber", "2", *MIXED], BOTH_T),
        # survival horizons outside the simulated curve, 0..--max-rounds, refused before
        # any trial runs
        ([*HORIZON, "20"], "InvalidParameter: survival horizon must be in 0..10, got 20"),
        ([*HORIZON, "-1"], "InvalidParameter: survival horizon must be in 0..10, got -1"),
        ([*HORIZON, "0,10,11"], "InvalidParameter: survival horizon must be in 0..10, got 11"),
        ([*HORIZON, "x"], "--rounds takes integers, got 'x'"),
        ([*HORIZON[:-2], "0", "--rounds", "3"], "InvalidParameter: max_rounds must be >= 1, got 0"),
        # a family flag the scenario does not read
        (["analyze", "--graph-file", GRAPH_FILE, "--family", "cycle", "--n", "5", "--cop", "0",
          "--robber", "2", *SPIN3], "--graph-file does not take --family"),
        (["simulate", "--graph-file", GRAPH_FILE, "--family", "cycle", "--n", "5", "--cop", "0",
          "--robber", "2", *SPIN3, "--trials", "10"], "--graph-file does not take --family"),
        (["analyze", "--graph-file", GRAPH_FILE, "--n", "5", "--cop", "0", "--robber", "2",
          *SPIN3], "--graph-file does not take --n"),
        (["analyze", "--family", "petersen", "--n", "9", *SPIN3],
         "--family petersen does not take --n"),
        (["verify", "--family", "petersen", "--delta", "3", *SPIN3],
         "--family petersen does not take --delta"),
        (["analyze", "--family", "tree", "--delta", "3", "--max-dist", "5", "--n", "7", *SPIN3],
         "--family tree does not take --n"),
        (["analyze", "--family", "cycle", "--n", "6", *TIME, "--max-dist", "4"],
         "--family cycle does not take --max-dist"),
        # a spinner flag next to a schedule, and a start without a graph file
        (["analyze", "--family", "cycle", "--n", "6", *TIME, "--r", ".3"],
         "--schedule and a static spinner are mutually exclusive"),
        (["analyze", "--family", "cycle", "--n", "6", *TIME, "--tc", ".3", "--tr", ".1"],
         "--schedule and a static spinner are mutually exclusive"),
        (["analyze", "--family", "cycle", "--n", "6", *LINEAR, "--r", ".3"],
         "--schedule and a static spinner are mutually exclusive"),
        (["analyze", "--family", "cycle", "--n", "6", *SPIN3, "--cop", "0", "--robber", "2"],
         "--cop and --robber apply only with --graph-file"),
    ],
)
def test_family_dispatch_refusals(capsys, tmp_path, monkeypatch, argv, message):
    def no_run(cfg):
        raise AssertionError("a refused simulate ran its trials")

    monkeypatch.setattr(montecarlo, "run", no_run)
    graph = tmp_path / "cycle4.txt"
    graph.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    code, out, err = run_cli([str(graph) if a == GRAPH_FILE else a for a in argv], capsys)
    if message is None:
        assert (code, err) == (0, "")
        assert out.startswith(f"family={argv[2]} ") and out.endswith("-> ok\n")
    else:
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,reads", [
    (["verify", "--family", "cycle", "--n", "6", *SPIN3], {"n": 1}),
    (["verify", "--family", "friendship", "--n", "3", *SPIN4], {"n": 1}),
    (["simulate", "--family", "cycle", "--n", "6", *SPIN3, "--start", "1", "--trials", "10"],
     {"n": 1}),
    (["simulate", "--family", "friendship", "--n", "3", *SPIN4, "--start", "2",
      "--trials", "10"], {"n": 1}),
    (["simulate", "--family", "tree", "--delta", "3", "--max-dist", "3", *SPIN3, "--start", "1",
      "--trials", "10"], {"delta": 1, "max_dist": 1}),
    (["analyze", "--family", "cycle", "--n", "6", *LINEAR], {"n": 1}),
    (["analyze", "--family", "tree", "--delta", "3", "--max-dist", "5", *LINEAR],
     {"delta": 1, "max_dist": 1}),
])
def test_each_family_flag_is_read_once(capsys, monkeypatch, argv, reads):
    # one function reads a family's flags; its chain, arena and distance chain share them
    seen = collections.Counter()
    need = cli._need

    def counting(args, name, flag):
        seen[name] += 1
        return need(args, name, flag)

    monkeypatch.setattr(cli, "_need", counting)
    code, _, err = run_cli(argv, capsys)
    assert (code, err, seen) == (0, "", reads)


@pytest.mark.parametrize("argv,flag", [
    # verify prints one fixed line, so it takes no output options
    (["verify", "--family", "cycle", "--n", "8", *SPIN3], ["--format", "json"]),
    (["verify", "--family", "cycle", "--n", "8", *SPIN3], ["--digits", "3"]),
    # the tree arena's depth is call-off + 4; a shallower one made escape impossible
    (["simulate", "--family", "tree", "--delta", "3", "--max-dist", "5", *SPIN3, "--start", "2",
      "--trials", "10"], ["--depth", "3"]),
])
def test_removed_options_are_unknown(capsys, argv, flag):
    with pytest.raises(SystemExit) as info:
        cli.main([*argv, *flag])
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # two outputs larger than a pipe's buffer, so the write fails whenever the reader closes
    ["analyze", "--family", "cycle", "--n", "3001", *SPIN3, "--format", "json"],
    ["closed-form", "--delta", "3", "--max-dist", "8191", *SPIN3],
    ["reproduce-table", "torus8.1"],
])
def test_closed_stdout_ends_quietly(argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "tipsychase.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src))
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (141, b"")


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

    def test_largest_call_off(self, capsys):
        code, out, err = run_cli(
            ["closed-form", "--delta", "3", "--max-dist", "8191", *SPIN3, "--format", "csv"],
            capsys,
        )
        assert (code, err) == (0, "")
        rows = rows_from_csv(out)
        assert [row["d"] for row in (rows[0], rows[-1])] == ["1", "8190"] and len(rows) == 8190

    def test_unbounded_column(self, capsys):
        code, out, _ = run_cli(
            ["closed-form", "--delta", "2", "--max-dist", "6", "--c", "0.6",
             "--r", "0.2", "--t", "0.2", "--unbounded", "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = rows_from_csv(out)
        assert float(rows[1]["E_unbounded"]) == pytest.approx(2 / 0.4, abs=1e-9)
