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
When the spinner changes every round, there is no one T to solve:
``schedules.time_varying_series`` carries the products T_1 ... T_n
forward instead, for every start, and reads both G and E off them.

P and T are float64, dense or sparse, as their producer built them.
The family chains behind the bundled tables are dense with at most 13
states.  Exact joint chains are sparse CSR arrays with thousands of
states (6,561 on the 9x9 torus, of which 0.1% of P is non-zero; dense,
P would take 344 MB).  Survival is taken by repeated mat-vecs on
either.  One rule decides divergence on both (``_fundamental_solve``):
E is infinite when some transient state cannot reach an exit, or when
no solve bounds its error below one (``_error_bound``; E of order 1e15
and up).  The dense fallback and the dense joint-chain builder refuse,
before allocating, any dense matrix above DENSE_BYTE_CAP.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    Divergent,
    GraphTooLarge,
    InconsistentAbsorbing,
    InvalidParameter,
    InvalidState,
    NoTransientStates,
    NotStochastic,
)

if TYPE_CHECKING:
    import scipy.sparse

ROW_SUM_TOL = 1e-9
# An LU answer is kept while _error_bound is below 1, with a condition note
# above RESIDUAL_TOL; a BiCGSTAB answer is kept only within RESIDUAL_TOL.
RESIDUAL_TOL = 1e-10
KRYLOV_TOL = 1e-12  # BiCGSTAB's target for ||r||_2, under RESIDUAL_TOL
_UNIT_ROUNDOFF = 2.0**-53  # of float64
KRYLOV_MAXITER = 1000
# Largest dense matrix any chain operation allocates: 512 MiB holds the
# 9x9 torus's 6,561-state P (344 MB), not a 40,000-state one (12.8 GB).
# The cap is per matrix; the dense joint builder and the dense fallback
# solve each hold one matrix of that size at a time.
DENSE_BYTE_CAP = 512 * 2**20

INFINITE = math.inf


def _is_sparse(a) -> bool:
    """scipy.sparse.issparse(a), without importing scipy.sparse for dense callers.

    Nothing can be a sparse array before scipy.sparse is imported.  The
    package imports no scipy module when it is loaded, only where one is
    first used: scipy.linalg and scipy.sparse together more than double
    the time of a fresh ``import tipsychase.cli`` (about 0.2 s without
    them and 0.45-0.5 s with them, on a 2-vCPU machine).
    """
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(a)


def _as_matrix(a):
    """A read-only float64 ndarray, or a sparse input as a read-only float64 CSR copy.

    The solve cache relies on the matrices it was built from staying
    fixed.  A sparse input is copied, so the caller's arrays stay
    writable, and put in canonical form, so that no later operation
    sorts or merges its entries in place.
    """
    if _is_sparse(a):
        m = a.tocsr(copy=True).astype(float, copy=False)
        m.sum_duplicates()
        for arr in (m.data, m.indices, m.indptr):
            arr.flags.writeable = False
        return m
    arr = np.asarray(a, dtype=float)
    arr.flags.writeable = False
    return arr


def check_dense_size(rows: int, cols: int, what: str, itemsize: int = 8) -> None:
    """Raise GraphTooLarge when a dense rows x cols matrix exceeds DENSE_BYTE_CAP.

    ``itemsize`` is the bytes per entry: 8 for the float64 chain matrices.
    """
    if rows * cols * itemsize > DENSE_BYTE_CAP:
        raise GraphTooLarge(
            f"dense {what} would take {rows * cols * itemsize / 1e9:.3g} GB, "
            f"over the cap of {DENSE_BYTE_CAP / 1e9:.3g} GB"
        )


@dataclass(frozen=True)
class MarkovChain:
    """Row-stochastic matrix with display labels and an absorbing set.

    P is a read-only ndarray, or a CSR array when given sparse.
    """

    state_labels: tuple[str, ...]
    P: np.ndarray | scipy.sparse.csr_array
    absorbing: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "P", _as_matrix(self.P))
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
    (I - T) X = [1 | R], made on first use and kept.  T and R are dense
    or CSR, as extracted from P.
    """

    labels: tuple[str, ...]
    T: np.ndarray | scipy.sparse.csr_array
    R: np.ndarray | scipy.sparse.csr_array
    absorbing_labels: tuple[str, ...]

    def __post_init__(self):
        for name in ("T", "R"):
            object.__setattr__(self, name, _as_matrix(getattr(self, name)))

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
        """(expected, absorb, bound) for every start, or None: see ``_fundamental_solve``.

        The arrays are read-only, since every caller shares them.
        """
        return _fundamental_solve(self)

    @functools.cached_property
    def absorb_split(self):
        """(I - T)^-1 R, one row per start, or None when no solve holds it.

        From ``solution``, or, where BiCGSTAB left it out, the dense LU fallback.
        """
        solved = self.solution
        if solved is not None and solved[1] is None:
            solved = _dense_lu_solve(self)
        return None if solved is None else solved[1]


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

    Works unchanged on a dense and a sparse P: one min and max over the
    whole matrix, one row sum and one diagonal read; the offending row is
    located only when a check fails.
    """
    P = chain.P
    n = chain.n_states
    if P.ndim != 2 or P.shape != (n, n):
        raise InvalidParameter(f"P has shape {P.shape}, expected ({n}, {n})")
    if len(chain.state_labels) != n:
        raise InvalidParameter("label count does not match matrix size")
    if n:
        sums = P.sum(axis=1)
        if P.min() < -1e-12 or P.max() > 1 + 1e-12:
            bad = int(((P < -1e-12) + (P > 1 + 1e-12)).nonzero()[0].min())
            raise NotStochastic(bad, float(sums[bad]), "entry outside [0, 1]")
        off = np.abs(sums - 1.0)
        if off.max() > ROW_SUM_TOL:
            bad = int(np.argmax(off))
            raise NotStochastic(bad, float(sums[bad]))
    diag = P.diagonal() if chain.absorbing else None
    for i in chain.absorbing:
        if not 0 <= i < n:
            raise InconsistentAbsorbing(i, "absorbing index out of range")
        if abs(diag[i] - 1.0) > ROW_SUM_TOL:
            raise InconsistentAbsorbing(i, f"flagged absorbing but P[{i},{i}] = {diag[i]!r}")


def transition_probability(chain: MarkovChain, i, j, rounds: int) -> float:
    """Probability of going from state i to state j in exactly ``rounds`` steps.

    P is applied ``rounds`` times to the indicator of j, on a dense or a
    sparse P alike.
    """
    a = chain.index(i)
    b = chain.index(j)
    if rounds < 0:
        raise InvalidParameter(f"rounds must be >= 0, got {rounds}")
    if rounds == 0:
        return 1.0 if a == b else 0.0
    vec = np.zeros(chain.n_states)
    vec[b] = 1.0
    for _ in range(rounds):
        vec = chain.P @ vec
    return float(vec[a])


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
    """Solve (I - T) X = [1 | R] under the one divergence rule, or return None.

    None unless every state drains (``_drains``).  Then dense LU, or
    BiCGSTAB and else dense LU on a sparse T.  Returns (expected, absorb,
    bound), ``bound`` from ``_error_bound``; ``absorb`` is None after BiCGSTAB.
    """
    if not _drains(ts):
        return None
    if not _is_sparse(ts.T):
        return _lu_solve(ts, np.array(ts.T, order="F"))
    return _krylov(ts) or _dense_lu_solve(ts)


def _drains(ts: TransientSystem) -> bool:
    """Whether every transient state reaches an exit (a non-zero in R) along T != 0.

    Grown backwards from the exits, without scipy, reading each non-zero
    of T once.  A CSR T gathers the predecessors of the states reached
    last, one numpy step per level (0.12 s on a 600-cycle's 359,400-state
    joint chain).  A dense T lists every state's predecessors from one
    scan of its support and walks them with a stack in Python, so the
    cost is that scan, n^2, plus the non-zeros; one boolean mat-vec per
    level would cost depth * n^2 (on a 2-vCPU machine, 51 s on the
    8,001-state tree chain, whose LU takes 2.4 s).  By Kemeny & Snell,
    I - T is invertible exactly when every state drains.
    """
    support = ts.T != 0
    reached = abs(ts.R).sum(axis=1) > 0
    if _is_sparse(support):
        columns = support.tocsc()
        frontier = np.flatnonzero(reached)
        while frontier.size:
            lo = columns.indptr[frontier]
            counts = columns.indptr[frontier + 1] - lo
            at = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
            found = columns.indices[at]
            frontier = np.unique(found[~reached[found]])
            reached[frontier] = True
        return bool(reached.all())
    reached = reached.tolist()
    predecessors = [[] for _ in reached]
    step_from, step_to = np.nonzero(support)
    for i, j in zip(step_from.tolist(), step_to.tolist()):
        predecessors[j].append(i)
    stack = [j for j, done in enumerate(reached) if done]
    while stack:
        for i in predecessors[stack.pop()]:
            if not reached[i]:
                reached[i] = True
                stack.append(i)
    return all(reached)


def _error_bound(ts: TransientSystem, X: np.ndarray, B: np.ndarray) -> float:
    """A certified bound on the error of X = [x | split] solving (I - T) X = B.

    Relative for the expected times x, absolute for the split.  With
    r = B - (I - T) X, x > 0 and max|r_0| < 1 give T x < x, so T's
    spectral radius is below one (Collatz-Wielandt), (I - T)^-1 >= 0 and
    |X_k - X*_k| <= max|r_k| x* <= max|r_k| x / (1 - max|r_0|).  The
    float64 r errs by at most gamma_(k+2) (|X| + T |X| + B), k terms per
    row of T (Higham, Accuracy and Stability, 3.1), which is added: the
    bound needs no extended precision.  inf unless x is finite and positive.
    """
    x = X[:, 0]
    if not x.min() > 0:
        return INFINITE
    T = ts.T
    k = (np.diff(T.indptr).max() if _is_sparse(T) else T.shape[1]) + 2
    gamma = k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or x near the float64 maximum
        absX = np.abs(X)
        r = (np.abs(B - X + T @ X) + gamma * (absX + T @ absX + B)).max(axis=0)
    if not r[0] < 1.0:
        return INFINITE
    bound = np.maximum(r[0], r[1:].max(initial=0.0) * x.max() / (1.0 - r[0]))
    return float(bound) if bound < INFINITE else INFINITE  # NaN is refused too


def _lu_solve(ts: TransientSystem, A: np.ndarray):
    """LU-solve (I - T) X = [1 | R]; None unless ``_error_bound`` is below one.

    A is a Fortran-ordered copy of T that the call owns: it becomes I - T
    and is factored in place, so one n x n matrix is live.
    """
    # deferred (see _is_sparse); raw LAPACK skips ~28 us of scipy.linalg wrapper a solve
    from scipy.linalg.lapack import dgetrf, dgetrs

    n = A.shape[0]
    np.subtract(0.0, A, out=A)  # 0 - t, so that I - T keeps +0.0 off the diagonal
    A[np.diag_indices(n)] += 1.0
    lu, piv, info = dgetrf(A, overwrite_a=True)
    if info > 0:  # an exactly zero pivot; info < 0 only flags a malformed argument
        return None
    B = np.column_stack([np.ones(n), ts.R.toarray() if _is_sparse(ts.R) else ts.R])
    sol, _ = dgetrs(lu, piv, B)
    bound = _error_bound(ts, sol, B)
    if not bound < 1.0:
        return None
    sol.flags.writeable = False
    return sol[:, 0], sol[:, 1:], bound


def _dense_lu_solve(ts: TransientSystem):
    """``_lu_solve`` on a sparse system's dense copy, within DENSE_BYTE_CAP."""
    check_dense_size(ts.n_transient, ts.n_transient, "fallback solve of I - T")
    return _lu_solve(ts, ts.T.toarray(order="F"))


def _krylov(ts: TransientSystem):
    """BiCGSTAB solve of (I - T) x = 1 on a sparse T; None unless its bound <= RESIDUAL_TOL."""
    from scipy.sparse import eye_array
    from scipy.sparse.linalg import bicgstab

    A = (eye_array(ts.n_transient) - ts.T).tocsr()
    with np.errstate(all="ignore"):  # a breakdown's NaN or inf is refused by the bound below
        x, _ = bicgstab(A, np.ones(ts.n_transient), rtol=0.0, atol=KRYLOV_TOL,
                        maxiter=KRYLOV_MAXITER)
    bound = _error_bound(ts, x[:, None], np.ones((ts.n_transient, 1)))
    if not bound <= RESIDUAL_TOL:
        return None
    x.flags.writeable = False
    return x, None, bound


def _divergence_note(ts: TransientSystem) -> str:
    """Why E reads infinite, or why a finite E has no absorption split."""
    if not _drains(ts):
        return "some transient state never reaches an exit, so I - T is singular"
    if ts.solution is None:
        return "every state drains, but float64 cannot resolve E: no solve bounds its error below 1"
    return "E is resolved, but the dense solve for the absorption split bounds no error below 1"


def expected_rounds(ts: TransientSystem, d) -> ExpectationResult:
    """Expected number of rounds until absorption starting from d.

    INFINITE when ``ts.solution`` is None; a finite E whose bound exceeds
    RESIDUAL_TOL states it.  Either way ``condition_note`` says why.
    """
    i = ts.index(d)
    solved = ts.solution
    if solved is None:
        return ExpectationResult(INFINITE, _divergence_note(ts))
    expected, _, bound = solved
    note = None if bound <= RESIDUAL_TOL else f"certified error at most {bound:.2g}"
    return ExpectationResult(float(expected[i]), note)


def absorption_split(ts: TransientSystem, d) -> dict[str, float]:
    """Absorption probability per absorbing state from d; Divergent, saying why, when unsolved."""
    i = ts.index(d)
    if ts.R.shape[1] == 0:
        raise InvalidParameter("chain retains no absorbing states")
    absorb = ts.absorb_split
    if absorb is None:
        raise Divergent(_divergence_note(ts))
    return {lab: float(absorb[i, k]) for k, lab in enumerate(ts.absorbing_labels)}
