"""Hand-derived distance-state chains for each supported graph family.

Each builder maps spinner probabilities straight to the closed-form
transition rows of its family; the exact joint-position chain in
:mod:`tipsychase.joint` exists to verify these rows entry by entry.

The cycle and tree rows are written once, in ``_cycle`` and ``_tree``,
as functions of the spinner each distance plays.  ``cycle_chain`` and
``tree_chain`` pass one spinner for every distance; the distance-varying
chains of :mod:`tipsychase.schedules` pass a spinner per distance, so a
static chain is their case of a constant schedule.

State labels follow the conventions used in the bundled reference
tables ("1cc", "(3,2)", ...) so that output matches them cell for cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chain as chain_mod
from .chain import MarkovChain
from .errors import InvalidParameter

SPINNER_TOL = 1e-12


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise InvalidParameter(f"{name} = {value!r} is outside [0, 1]")


@dataclass(frozen=True)
class SpinnerThree:
    """Per-round outcome distribution on vertex-transitive graphs.

    c: sober cop move, r: sober robber move, t: tipsy move by either
    player.  Must sum to one.
    """

    c: float
    r: float
    t: float

    def __post_init__(self):
        for name in ("c", "r", "t"):
            _check_unit(name, getattr(self, name))
        total = self.c + self.r + self.t
        if abs(total - 1.0) > SPINNER_TOL:
            raise InvalidParameter(f"c + r + t = {total!r}, expected 1")

    @classmethod
    def from_split(cls, tipsiness: float, robber_share: float) -> "SpinnerThree":
        """Allocate the sober mass 1 - t between robber and cop."""
        _check_unit("tipsiness", tipsiness)
        _check_unit("robber_share", robber_share)
        sober = 1.0 - tipsiness
        return cls(c=(1.0 - robber_share) * sober, r=robber_share * sober, t=tipsiness)

    def as_four(self) -> "SpinnerFour":
        """Split the tipsy mass evenly between the two players."""
        return SpinnerFour(c=self.c, r=self.r, t_c=self.t / 2.0, t_r=self.t / 2.0)


@dataclass(frozen=True)
class SpinnerFour:
    """Outcome distribution with tipsy cop and tipsy robber kept apart."""

    c: float
    r: float
    t_c: float
    t_r: float

    def __post_init__(self):
        for name in ("c", "r", "t_c", "t_r"):
            _check_unit(name, getattr(self, name))
        total = self.c + self.r + self.t_c + self.t_r
        if abs(total - 1.0) > SPINNER_TOL:
            raise InvalidParameter(f"c + r + t_c + t_r = {total!r}, expected 1")


def _finish(labels, P, absorbing) -> MarkovChain:
    built = MarkovChain(tuple(labels), P, frozenset(absorbing))
    chain_mod.validate(built)
    return built


def _cycle(n: int, spinner_at) -> MarkovChain:
    """Cycle distance chain whose row d plays the spinner ``spinner_at(d)``."""
    if n < 3:
        raise InvalidParameter(f"cycle needs n >= 3, got {n}")
    m = n // 2
    chain_mod.check_dense_size(m + 1, m + 1, "cycle chain P")
    P = np.zeros((m + 1, m + 1))
    P[0, 0] = 1.0
    for d in range(1, m):
        s = spinner_at(d)
        P[d, d - 1] = s.c + s.t / 2.0
        P[d, d + 1] = s.r + s.t / 2.0
    s = spinner_at(m)
    if n % 2 == 0:
        P[m, m - 1] = s.c + s.t
        P[m, m] = s.r
    else:
        P[m, m - 1] = s.c + s.t / 2.0
        P[m, m] = s.r + s.t / 2.0
    return _finish([str(d) for d in range(m + 1)], P, {0})


def cycle_chain(n: int, s: SpinnerThree) -> MarkovChain:
    """Distance chain on the n-cycle; states 0..floor(n/2), 0 absorbing.

    Interior rows step down with c + t/2 and up with r + t/2.  At the
    maximum distance an even cycle pins the sober robber in place (both
    neighbors would close the gap), so that row is [c + t, r]; on an odd
    cycle one neighbor preserves the distance and the row is
    [c + t/2, r + t/2].
    """
    return _cycle(n, lambda d: s)


def petersen_chain(s: SpinnerThree) -> MarkovChain:
    """Distance chain on the Petersen graph (distances 0, 1, 2 only)."""
    P = np.array(
        [
            [1.0, 0.0, 0.0],
            [s.c + s.t / 3.0, 0.0, s.r + 2.0 * s.t / 3.0],
            [0.0, s.c + s.t / 3.0, s.r + 2.0 * s.t / 3.0],
        ]
    )
    return _finish(["0", "1", "2"], P, {0})


FRIENDSHIP_LABELS = ("2", "1cc", "1rc", "1e", "0")


def friendship_chain(n: int, s: SpinnerFour) -> MarkovChain:
    """Five-state chain on the friendship graph with n triangles.

    Distance-1 configurations split by who holds the hub: 1cc cop at
    hub, 1rc robber at hub, 1e both on one outer edge.  Requires n >= 2;
    with a single triangle distance 2 does not exist and the (n-1)/n
    terms vanish, which would silently build the wrong chain.
    """
    if n < 2:
        raise InvalidParameter(f"friendship chain needs n >= 2 triangles, got {n}")
    c, r, tc, tr = s.c, s.r, s.t_c, s.t_r
    frac = (n - 1) / n
    #          2            1cc           1rc          1e            0
    P = np.array(
        [
            [r + tc / 2 + tr / 2, c + tc / 2, tr / 2, 0.0, 0.0],
            [tc * frac, r + tr / 2, 0.0, tc / (2 * n), c + tc / (2 * n) + tr / 2],
            [r + tr * frac, 0.0, tc / 2, tr / (2 * n), c + tr / (2 * n) + tc / 2],
            [0.0, tc / 2, r + tr / 2, 0.0, c + tc / 2 + tr / 2],
            [0.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    return _finish(FRIENDSHIP_LABELS, P, {4})


TORUS7_LABELS = (
    "(3,3)",
    "(3,2)",
    "(3,1)",
    "(3,0)",
    "(2,2)",
    "(2,1)",
    "(2,0)",
    "(1,1)",
    "(1,0)",
    "0",
)


def toroidal7_chain(s: SpinnerThree) -> MarkovChain:
    """Ten-state chain on the 7x7 toroidal grid.

    States are the sorted per-axis distances between the players.  The
    sober cop shrinks the larger axis gap first and the sober robber
    grows it first; that convention is what the exact joint chain
    confirms (see tipsychase.joint.torus_rules).
    """
    c, r, t = s.c, s.r, s.t
    P = np.array(
        [
            # (3,3)     (3,2)      (3,1)    (3,0)    (2,2)      (2,1)    (2,0)    (1,1)      (1,0)    0
            [r + t / 2, c + t / 2, 0, 0, 0, 0, 0, 0, 0, 0],
            [r + t / 4, t / 4, t / 4, 0, c + t / 4, 0, 0, 0, 0, 0],
            [0, r + t / 4, t / 4, t / 4, 0, c + t / 4, 0, 0, 0, 0],
            [0, 0, r + t / 2, t / 4, 0, 0, c + t / 4, 0, 0, 0],
            [0, r + t / 2, 0, 0, 0, c + t / 2, 0, 0, 0, 0],
            [0, 0, r + t / 4, 0, t / 4, 0, t / 4, c + t / 4, 0, 0],
            [0, 0, 0, r + t / 4, 0, t / 2, 0, 0, c + t / 4, 0],
            [0, 0, 0, 0, 0, r + t / 2, 0, 0, c + t / 2, 0],
            [0, 0, 0, 0, 0, 0, r + t / 4, t / 2, 0, c + t / 4],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 1.0],
        ],
        dtype=float,
    )
    return _finish(TORUS7_LABELS, P, {9})


def _tree(degree: int, call_off: int, spinner_at) -> MarkovChain:
    """Tree distance chain whose row d plays the spinner ``spinner_at(d)``."""
    if degree < 2:
        raise InvalidParameter(f"tree degree must be >= 2, got {degree}")
    if call_off < 2:
        raise InvalidParameter(f"call-off distance must be >= 2, got {call_off}")
    chain_mod.check_dense_size(call_off + 1, call_off + 1, "tree chain P")
    P = np.zeros((call_off + 1, call_off + 1))
    P[0, 0] = 1.0
    P[call_off, call_off] = 1.0
    for d in range(1, call_off):
        s = spinner_at(d)
        P[d, d - 1] = s.c + s.t / degree
        P[d, d + 1] = s.r + s.t * (degree - 1) / degree
    return _finish([str(d) for d in range(call_off + 1)], P, {0, call_off})


def tree_chain(degree: int, call_off: int, s: SpinnerThree) -> MarkovChain:
    """Birth-death chain for the game on the infinite regular tree.

    Distance walks up with p = t(degree-1)/degree + r and down with
    1 - p = c + t/degree; the chase is abandoned at distance
    ``call_off``, giving the second absorbing state.
    """
    return _tree(degree, call_off, lambda d: s)
