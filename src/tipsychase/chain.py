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

P and T are float64, dense or sparse, as their producer built them.
The family chains behind the bundled tables are dense with at most 13
states.  Exact joint chains are sparse CSR arrays with thousands of
states (6,561 on the 9x9 torus, of which 0.1% of P is non-zero; dense,
P would take 344 MB).  Survival is taken by repeated mat-vecs on
either.  A dense (I - T) is solved by LU with partial pivoting; a
sparse one first has divergence decided from its structure, then is
solved by BiCGSTAB under an explicit residual check, falling back to
dense LU when that check fails (see ``_sparse_solve``).  That fallback
and the dense joint-chain builder refuse, before allocating, any dense
matrix above DENSE_BYTE_CAP.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
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
ABSORPTION_TOL = 1e-9
PIVOT_TOL = 1e-12
# A sparse solve is accepted when max|(I - T) x - b| <= RESIDUAL_TOL * max|b|.
# With b = 1 this bounds the relative error of every expected time:
# (I - T)^-1 >= 0 entrywise, so |x - x*| <= (I - T)^-1 |r| <= max|r| * x*.
RESIDUAL_TOL = 1e-10
KRYLOV_TOL = 1e-12  # BiCGSTAB's target for ||r||_2 / max|b|, under RESIDUAL_TOL
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
        """(expected, absorb) for every start, or None when I - T is singular.

        See ``_fundamental_solve``; the arrays are read-only, since every
        caller shares them.  ``absorb`` is None when a sparse solve left
        it out; ``absorb_split`` then solves it.
        """
        return _fundamental_solve(self)

    @functools.cached_property
    def absorb_split(self):
        """(I - T)^-1 R, one row per start, or None when I - T is singular.

        Taken from ``solution`` when that holds it; a sparse solve leaves
        it out, and it is then solved here on first use, by the dense LU
        fallback (within DENSE_BYTE_CAP).
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
    """Solve (I - T) X = [1 | R]: by LU when T is dense, else ``_sparse_solve``.

    Returns (expected, absorb) where ``expected`` is the vector of
    expected absorption times and ``absorb`` the matrix of absorption
    probabilities per retained absorbing state (None when a sparse solve
    left it out), or None when the chain has a transient part that never
    drains.
    """
    if _is_sparse(ts.T):
        return _sparse_solve(ts)
    return _lu_solve(np.array(ts.T, order="F"), ts.R)


def _lu_solve(A: np.ndarray, R: np.ndarray):
    """LU-solve (I - T) X = [1 | R]; None when a pivot falls below PIVOT_TOL * max|I - T|.

    A is a Fortran-ordered copy of T that the call owns: it becomes I - T
    in place and LAPACK factors it in place, so one n x n matrix is live.
    """
    import scipy.linalg  # deferred, like scipy.sparse: see _is_sparse

    n = A.shape[0]
    np.subtract(0.0, A, out=A)  # 0 - t, so that I - T keeps +0.0 off the diagonal
    A[np.diag_indices(n)] += 1.0
    threshold = PIVOT_TOL * max(A.max(), -A.min(), 1.0)
    with warnings.catch_warnings():
        # exactly singular chains are an expected code path (divergent games)
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, overwrite_a=True, check_finite=False)
    if np.abs(np.diag(lu)).min() < threshold:
        return None
    rhs = np.column_stack([np.ones(n), R])
    sol = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    sol.flags.writeable = False
    return sol[:, 0], sol[:, 1:]


def _dense_lu_solve(ts: TransientSystem):
    """``_lu_solve`` on a sparse system's dense copy, within DENSE_BYTE_CAP."""
    check_dense_size(ts.n_transient, ts.n_transient, "fallback solve of I - T")
    return _lu_solve(ts.T.toarray(order="F"), ts.R.toarray())


def _drains(ts: TransientSystem) -> bool:
    """Whether every transient state reaches an exit along the support of T.

    An exit is a state with a non-zero entry in R.  The test is a
    breadth-first search from a virtual root linked to every exit, over
    the reversed non-zero entries of T (Tarjan 1972 on the same graph
    would give the closed classes themselves).
    """
    from scipy.sparse import csgraph, csr_array

    n = ts.n_transient
    T = ts.T.tocoo()
    edge = T.data != 0
    exits = np.flatnonzero(abs(ts.R).sum(axis=1) > 0)
    rows = np.concatenate([T.col[edge], np.full(exits.size, n)])
    cols = np.concatenate([T.row[edge], exits])
    graph = csr_array((np.ones(rows.size), (rows, cols)), shape=(n + 1, n + 1))
    reached = csgraph.breadth_first_order(graph, n, directed=True, return_predecessors=False)
    return reached.size == n + 1


def _krylov(A, b: np.ndarray):
    """BiCGSTAB solve of A x = b, or None unless max|A x - b| <= RESIDUAL_TOL * max|b|."""
    from scipy.sparse.linalg import bicgstab

    scale = float(np.abs(b).max())
    x, _ = bicgstab(A, b, rtol=0.0, atol=KRYLOV_TOL * scale, maxiter=KRYLOV_MAXITER)
    residual = np.abs(A @ x - b).max()
    if not residual <= RESIDUAL_TOL * scale:  # also refuses a NaN from a breakdown
        return None
    return x


def _sparse_solve(ts: TransientSystem):
    """Expected rounds on a sparse T, in three steps.

    1. Divergence is decided from structure: when some transient state
       cannot reach an exit (``_drains``), the result is None, as for an
       exactly singular dense system.
    2. Otherwise every state drains, so absorption is certain and only
       (I - T) x = 1 is solved, by BiCGSTAB, accepted under the residual
       check of ``_krylov``.  ``absorb`` is left None; ``absorb_split``
       solves it if asked.
    3. When the check fails (BiCGSTAB breaks down or stalls on a nearly
       singular chain), the system is solved as a dense one, so such a
       chain reads exactly as it does dense.
    """
    from scipy.sparse import eye_array

    if not _drains(ts):
        return None
    A = (eye_array(ts.n_transient) - ts.T).tocsr()
    expected = _krylov(A, np.ones(ts.n_transient))
    if expected is None:
        return _dense_lu_solve(ts)
    expected.flags.writeable = False
    return expected, None


def expected_rounds(ts: TransientSystem, d) -> ExpectationResult:
    """Expected number of rounds until absorption starting from d.

    Reports INFINITE when (I - T) is singular (decided from the support
    of T on a sparse system, from the LU pivots on a dense one) or when
    the total absorption probability from d falls short of one; a finite
    answer would be meaningless in either case.
    """
    i = ts.index(d)
    solved = ts.solution
    if solved is None:
        return ExpectationResult(INFINITE, "I - T is numerically singular")
    expected, absorb = solved
    if absorb is not None:  # None: a sparse solve found that every state drains
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
    absorb = ts.absorb_split
    if absorb is None:
        raise Divergent(None, 0.0)
    masses = {lab: float(absorb[i, k]) for k, lab in enumerate(ts.absorbing_labels)}
    total = sum(masses.values())
    if total < 1.0 - ABSORPTION_TOL:
        raise Divergent(masses, total)
    return masses
