"""Malformed command lines end in exit 0, 1 or 2 and never in a traceback."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tipsychase import cli  # noqa: E402

FLAGS = [
    "--family", "--n", "--delta", "--max-dist", "--c", "--r", "--t", "--tc", "--tr",
    "--graph-file", "--cop", "--robber", "--schedule", "--robber-share", "--rounds",
    "--terms", "--absorption", "--start", "--depth", "--trials", "--max-rounds",
    "--seed", "--unbounded", "--format", "--digits", "--bogus",
]
# Numbers stay at most 3, so that whatever graph or run a fuzzed command
# line asks for stays tiny: a tree arena grows as degree ** depth.
VALUES = [
    "-1", "0", "1", "2", "3", "0.5", "0.25", "1.5", "-0.5", "nan", "inf", "1e-300",
    "x", "", "cycle", "petersen", "friendship", "torus7", "tree", "hyper:2,1",
    "hyper:abc", "exp2:1", "linear", "exp12", "hyper:", "1,x", "(1,2)", "1cc",
    "table", "csv", "json", "/nonexistent", "hyper:1,-1", "exp2:1,-2",
]
# Valid command lines that the fuzzer edits, so that it reaches past the
# parser; a simulate run is bounded first, and a later fuzzed --trials or
# --max-rounds can only lower the bounds.
SPINNER = ["--c", "0.25", "--r", "0.25", "--t", "0.5"]
BASES = [
    ["analyze", "--family", "cycle", "--n", "3", *SPINNER, "--rounds", "2"],
    ["analyze", "--family", "tree", "--delta", "3", "--max-dist", "3", *SPINNER,
     "--absorption"],
    ["analyze", "--family", "cycle", "--n", "3", "--schedule", "hyper:2,1",
     "--robber-share", "0.5", "--rounds", "2", "--terms", "50"],
    ["analyze", "--family", "cycle", "--n", "3", "--schedule", "linear", "--robber-share", "0.5",
     "--rounds", "2", "--absorption"],
    ["verify", "--family", "cycle", "--n", "3", *SPINNER],
    ["simulate", "--trials", "3", "--max-rounds", "30", "--family", "cycle", "--n", "3",
     *SPINNER, "--start", "1", "--rounds", "2"],
    ["closed-form", "--delta", "3", "--max-dist", "3", *SPINNER, "--unbounded"],
]
EDITS = st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(1, 20),
              st.sampled_from(FLAGS + VALUES)),
    min_size=1, max_size=3,
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse reports a usage error this way
            code = exc.code
    return code, err.getvalue()


def edited(base, edits):
    argv = list(base)
    for op, at, token in edits:
        at = 1 + at % len(argv)  # the subcommand itself stays
        if op == "insert":
            argv.insert(at, token)
        elif at < len(argv):
            if op == "replace":
                argv[at] = token
            else:
                del argv[at]
    return argv


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(base=st.sampled_from(BASES), edits=EDITS)
def test_malformed_argv_exits_cleanly(base, edits):
    argv = edited(base, edits)
    code, err = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 2:
        lines = err.splitlines()
        errors = [line for line in lines if "error:" in line]
        assert len(errors) == 1 and errors[0] == lines[-1], argv
