"""Absorbing Markov-chain core.

Everything downstream reduces to four matrix computations on a chain
with transition matrix P and transient submatrix T:

* ``transition_probability``  --  e_i . P^M . e_j
* ``survival_vector``         --  T^M . 1, one entry per start
* ``expected_rounds``         --  e_d . (I - T)^-1 . 1
* ``absorption_split``        --  row d of (I - T)^-1 . R

The last three are rows of whole-chain quantities, so each is computed
for every start at once: a TransientSystem solves (I - T) X = [1 | R]
once and keeps the answer, and survival is a vector for all starts.

Everything is dense float64.  The family chains behind the bundled
tables have at most 13 states, but exact joint chains reach thousands
(6,561 on the 9x9 torus, a 344 MB P), so survival is taken by
repeated mat-vecs rather than a matrix power, and the (I - T) systems
are solved by LU with partial pivoting rather than forming an inverse.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    Divergent,
    InconsistentAbsorbing,
    InvalidParameter,
    InvalidState,
    NoTransientStates,
    NotStochastic,
)

ROW_SUM_TOL = 1e-9
ABSORPTION_TOL = 1e-9
PIVOT_TOL = 1e-12

INFINITE = math.inf


@dataclass(frozen=True)
class MarkovChain:
    """Row-stochastic matrix with display labels and an absorbing set."""

    state_labels: tuple[str, ...]
    P: np.ndarray
    absorbing: frozenset[int]

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        P.flags.writeable = False
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "state_labels", tuple(self.state_labels))
        object.__setattr__(self, "absorbing", frozenset(self.absorbing))

    @property
    def n_states(self) -> int:
        return len(self.state_labels)

    def index(self, state) -> int:
        """Resolve a state given as an index or a display label."""
        if isinstance(state, str):
            try:
                return self.state_labels.index(state)
            except ValueError:
                raise InvalidState(f"no state labeled {state!r}") from None
        i = int(state)
        if not 0 <= i < self.n_states:
            raise InvalidState(f"state index {i} out of range 0..{self.n_states - 1}")
        return i


@dataclass(frozen=True)
class TransientSystem:
    """Transient block T and one-step exit block R of an absorbing chain.

    ``labels`` keeps the transient states in their original chain order;
    ``absorbing_labels`` does the same for the retained absorbing states,
    so columns of R line up with them.  ``solution`` holds the solve of
    (I - T) X = [1 | R], made on first use and kept.
    """

    labels: tuple[str, ...]
    T: np.ndarray
    R: np.ndarray
    absorbing_labels: tuple[str, ...]

    def __post_init__(self):
        for name in ("T", "R"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_transient(self) -> int:
        return len(self.labels)

    def index(self, state) -> int:
        if isinstance(state, str):
            try:
                return self.labels.index(state)
            except ValueError:
                raise InvalidState(f"no transient state labeled {state!r}") from None
        i = int(state)
        if not 0 <= i < self.n_transient:
            raise InvalidState(f"transient index {i} out of range 0..{self.n_transient - 1}")
        return i

    @functools.cached_property
    def solution(self):
        """(expected, absorb) for every start, or None when I - T is singular.

        See ``_fundamental_solve``; the arrays are read-only, since every
        caller shares them.
        """
        return _fundamental_solve(self)


@dataclass(frozen=True)
class ExpectationResult:
    """Expected rounds to absorption; ``value`` is math.inf when divergent."""

    value: float
    condition_note: str | None = None

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)


def validate(chain: MarkovChain) -> None:
    """Check the MarkovChain invariants; raise on the first violation.

    Declared absorbing states must carry an identity row.  The converse
    is deliberately not enforced: a degenerate spinner (say r = 1 on a
    cycle) can pin a distance state in place without ending the game,
    and such a state must stay transient so that expected_rounds can
    report the divergence instead of treating it as a game-over state.
    """
    P = chain.P
    n = chain.n_states
    if P.ndim != 2 or P.shape != (n, n):
        raise InvalidParameter(f"P has shape {P.shape}, expected ({n}, {n})")
    if len(chain.state_labels) != n:
        raise InvalidParameter("label count does not match matrix size")
    if (P < -1e-12).any() or (P > 1 + 1e-12).any():
        bad = int(np.argmax((P < -1e-12) | (P > 1 + 1e-12)) // n)
        raise NotStochastic(bad, float(P[bad].sum()), "entry outside [0, 1]")
    sums = P.sum(axis=1)
    off = np.abs(sums - 1.0)
    if (off > ROW_SUM_TOL).any():
        bad = int(np.argmax(off))
        raise NotStochastic(bad, float(sums[bad]))
    for i in chain.absorbing:
        if not 0 <= i < n:
            raise InconsistentAbsorbing(i, "absorbing index out of range")
        if abs(P[i, i] - 1.0) > ROW_SUM_TOL:
            raise InconsistentAbsorbing(i, f"flagged absorbing but P[{i},{i}] = {P[i, i]!r}")


def transition_probability(chain: MarkovChain, i, j, rounds: int) -> float:
    """Probability of going from state i to state j in exactly ``rounds`` steps."""
    a = chain.index(i)
    b = chain.index(j)
    if rounds < 0:
        raise InvalidParameter(f"rounds must be >= 0, got {rounds}")
    if rounds == 0:
        return 1.0 if a == b else 0.0
    return float(np.linalg.matrix_power(chain.P, rounds)[a, b])


def extract_transient(chain: MarkovChain) -> TransientSystem:
    """Partition P into the transient block T and exit block R."""
    transient = [i for i in range(chain.n_states) if i not in chain.absorbing]
    absorbed = [i for i in range(chain.n_states) if i in chain.absorbing]
    if not transient:
        raise NoTransientStates("chain has no transient states")
    T = chain.P[np.ix_(transient, transient)]
    R = chain.P[np.ix_(transient, absorbed)]
    return TransientSystem(
        labels=tuple(chain.state_labels[i] for i in transient),
        T=T,
        R=R,
        absorbing_labels=tuple(chain.state_labels[i] for i in absorbed),
    )


def survival_vector(ts: TransientSystem, rounds: int) -> np.ndarray:
    """T^M . 1: the probability of still being transient after ``rounds`` steps, per start.

    Computed by repeated mat-vecs, rounds * n^2 work, rather than by a
    matrix power.
    """
    if rounds < 0:
        raise InvalidParameter(f"rounds must be >= 0, got {rounds}")
    vec = np.ones(ts.n_transient)
    for _ in range(rounds):
        vec = ts.T @ vec
    return vec


def survival_probability(ts: TransientSystem, d, rounds: int) -> float:
    """Probability the process is still transient after ``rounds`` steps from d."""
    i = ts.index(d)
    return float(survival_vector(ts, rounds)[i])


def _fundamental_solve(ts: TransientSystem):
    """LU-solve (I - T) X = [1 | R].

    Returns (expected, absorb) where ``expected`` is the vector of
    expected absorption times and ``absorb`` the matrix of absorption
    probabilities per retained absorbing state, or None when a pivot of
    the factorization falls below PIVOT_TOL * max|I - T| (the chain then
    has a transient part that never drains).
    """
    A = np.eye(ts.n_transient) - ts.T
    with warnings.catch_warnings():
        # exactly singular chains are an expected code path (divergent games)
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    threshold = PIVOT_TOL * max(np.abs(A).max(), 1.0)
    if np.abs(np.diag(lu)).min() < threshold:
        return None
    rhs = np.column_stack([np.ones(ts.n_transient), ts.R])
    sol = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    sol.flags.writeable = False
    return sol[:, 0], sol[:, 1:]


def expected_rounds(ts: TransientSystem, d) -> ExpectationResult:
    """Expected number of rounds until absorption starting from d.

    Reports INFINITE when (I - T) is numerically singular or when the
    total absorption probability from d falls short of one; a finite
    answer would be meaningless in either case.
    """
    i = ts.index(d)
    solved = ts.solution
    if solved is None:
        return ExpectationResult(INFINITE, "I - T is numerically singular")
    expected, absorb = solved
    total = float(absorb[i].sum()) if absorb.shape[1] else 0.0
    if total < 1.0 - ABSORPTION_TOL:
        return ExpectationResult(
            INFINITE, f"absorption probability from start is {total:.6g} < 1"
        )
    return ExpectationResult(float(expected[i]))


def absorption_split(ts: TransientSystem, d) -> dict[str, float]:
    """Absorption probability per absorbing state, starting from d.

    Raises Divergent (carrying the partial masses) when absorption is
    not certain.
    """
    i = ts.index(d)
    if ts.R.shape[1] == 0:
        raise InvalidParameter("chain retains no absorbing states")
    solved = ts.solution
    if solved is None:
        raise Divergent(None, 0.0)
    _, absorb = solved
    masses = {lab: float(absorb[i, k]) for k, lab in enumerate(ts.absorbing_labels)}
    total = sum(masses.values())
    if total < 1.0 - ABSORPTION_TOL:
        raise Divergent(masses, total)
    return masses
