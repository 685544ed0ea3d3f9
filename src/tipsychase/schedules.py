"""Tipsiness that changes over time or with distance.

Time-varying: round m plays with t = f(m), and the sober remainder
1 - t is split between the players by a fixed share.  Survival over M
rounds is the product of the per-round transient matrices,

    G_M(d) = e_d . (T_1 T_2 ... T_M) . 1

and the expected game length is the series of its partial products,

    E(d) = e_d . (sum_{n>=1} prod_{m<n} T_m) . 1

whose terms are the survival probabilities G_{n-1}(d).  The series has
no closed form, so it is summed with an explicit stopping rule (see
``time_varying_expectation``).

Distance-varying: state d of a cycle or tree chain plays with
t_d = delta(d); the chain itself is static, so the ordinary matrix
machinery applies once the rows are assembled.  The rows are the ones
:mod:`tipsychase.families` writes for the static chains, which are the
case of a constant delta.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import chain as chain_mod
from .chain import INFINITE, MarkovChain
from . import families
from .errors import InvalidParameter, ScheduleOutOfRange
from .families import SpinnerThree

ChainBuilder = Callable[[SpinnerThree], MarkovChain]


@dataclass(frozen=True)
class SoberSplit:
    """Fraction of the sober probability mass handed to the robber."""

    robber_share: float

    def __post_init__(self):
        if not 0.0 <= self.robber_share <= 1.0:
            raise InvalidParameter(f"robber_share = {self.robber_share!r} outside [0, 1]")

    def spinner(self, tipsiness: float) -> SpinnerThree:
        return SpinnerThree.from_split(tipsiness, self.robber_share)


@dataclass(frozen=True)
class TimeSchedule:
    """Tipsiness as a function of the 1-based round index.

    ``limit`` is the value f tends to; the built-ins decay to zero.  A
    custom schedule with f(1) != 1 is accepted with a warning (the
    matrix algebra does not need the first round to be fully tipsy).
    """

    fn: Callable[[int], float]
    name: str = "custom"
    limit: float = 0.0

    def at(self, m: int) -> float:
        value = float(self.fn(m))
        if not 0.0 <= value <= 1.0:
            raise ScheduleOutOfRange(f"{self.name}: f({m}) = {value!r} outside [0, 1]")
        return value

    def warn_if_nonstandard(self):
        if abs(self.at(1) - 1.0) > 1e-12:
            warnings.warn(
                f"time schedule {self.name!r} has f(1) = {self.at(1):.6g}, not 1",
                stacklevel=3,
            )

    @classmethod
    def hyperbolic(cls, num: float = 4.0, shift: float = 3.0) -> "TimeSchedule":
        """f(m) = num / (m + shift)."""
        return cls(lambda m: num / (m + shift), f"hyper:{num:g},{shift:g}")

    @classmethod
    def exponential2(cls, num: float = 4.0, shift: float = 2.0) -> "TimeSchedule":
        """f(m) = num / (2^m + shift)."""
        return cls(lambda m: num / (2.0**m + shift), f"exp2:{num:g},{shift:g}")


@dataclass(frozen=True)
class DistanceSchedule:
    """Tipsiness as a function of the current distance state."""

    delta: Callable[[int], float]
    name: str = "custom"

    def at(self, d: int) -> float:
        value = float(self.delta(d))
        if not 0.0 <= value <= 1.0:
            raise ScheduleOutOfRange(f"{self.name}: delta({d}) = {value!r} outside [0, 1]")
        return value

    def warn_if_nonstandard(self):
        if abs(self.at(1)) > 1e-12:
            warnings.warn(
                f"distance schedule {self.name!r} has delta(1) = {self.at(1):.6g}, not 0",
                stacklevel=3,
            )

    @classmethod
    def linear(cls, max_distance: int) -> "DistanceSchedule":
        """delta(d) = (d - 1) / max_distance."""
        if max_distance < 1:
            raise InvalidParameter(f"max_distance must be >= 1, got {max_distance}")
        return cls(lambda d: (d - 1) / max_distance, f"linear:{max_distance}")

    @classmethod
    def exponential(cls, base: float = 1.2) -> "DistanceSchedule":
        """delta(d) = (1 - base^(1-d)) / (1 + base^(1-d))."""
        if base <= 1.0:
            raise InvalidParameter(f"base must be > 1, got {base}")
        return cls(
            lambda d: (1.0 - base ** (1 - d)) / (1.0 + base ** (1 - d)), f"exp:{base:g}"
        )


@dataclass(frozen=True)
class SeriesResult:
    """Partial-sum evaluation of the expectation series.

    ``truncation_bound`` is an estimate of the tail left out, not a
    bound: it is exact only if every later round plays at the limiting
    tipsiness (see ``time_varying_expectation``).
    """

    value: float
    terms_used: int
    truncation_bound: float
    converged: bool

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)


def _limit_profile(builder: ChainBuilder, split: SoberSplit, sched: TimeSchedule):
    """Expected-remaining-rounds vector of the limiting chain, or None.

    None where the limiting chain's E reads infinite, so the series
    cannot converge (the classic case: the whole sober mass on the
    robber, who then flees forever once sobered up).
    """
    solved = chain_mod.extract_transient(builder(split.spinner(sched.limit))).solution
    return None if solved is None else solved[0]


def _series(builder, split, sched, start, rounds=0, tol=None, n_max=0):
    """One forward pass over T_1, T_2, ..., carrying a matrix of start rows.

    Row d of U_n = T_1 ... T_{n-1} (only row ``start``, or every row when
    ``start`` is None) gives G_{n-1}(d) as its sum, which is both the
    survival at horizon n - 1 and term n of the expectation series.  Each
    T_m is built once, sliced from the built P with the transient index
    of round 1.  With ``tol`` None the pass stops at horizon ``rounds``;
    otherwise it sums the expectation series, and each row stops by the
    rule of ``time_varying_expectation`` on its own.

    Returns (labels, G_rounds per row) when ``tol`` is None, and
    otherwise (labels, a SeriesResult per row).
    """
    profile = _limit_profile(builder, split, sched) if tol is not None else None
    first_chain = builder(split.spinner(sched.at(1)))
    first = chain_mod.extract_transient(first_chain)
    keep = [i for i in range(first_chain.n_states) if i not in first_chain.absorbing]
    ix = np.ix_(keep, keep)
    if start is None:
        labels, U = first.labels, np.eye(first.n_transient)
    else:
        i = first.index(start)
        labels, U = (first.labels[i],), np.eye(first.n_transient)[[i]]

    k = len(labels)
    active = profile is not None
    pending = np.full(k, active)
    total = np.zeros(k)
    stop_n, stop_total, stop_tail = np.zeros(k, dtype=int), np.zeros(k), np.zeros(k)
    last = rounds if tol is None else 0
    prev_t = sched.at(1)
    n = 0
    while n < last or active:
        n += 1
        term = U.sum(axis=1)
        if n == 1:
            T = first.T
        else:
            t_n = sched.at(n)
            if n <= last and t_n > prev_t + 1e-12:
                warnings.warn(f"time schedule {sched.name!r} increases at m={n}")
            prev_t = t_n
            built = builder(split.spinner(t_n))
            if built.n_states != first_chain.n_states or built.absorbing != first_chain.absorbing:
                raise InvalidParameter("builder changed the absorbing set across rounds")
            T = built.P[ix]
        U = U @ T
        if active:
            total += term
            tail = U @ profile
            stop = pending & (np.maximum(term, tail) < tol) if n < n_max else pending
            if stop.any():
                stop_n[stop], stop_total[stop], stop_tail[stop] = n, total[stop], tail[stop]
                pending = pending & ~stop
                active = pending.any()

    if tol is None:
        return labels, U.sum(axis=1)
    if profile is None:
        return labels, [SeriesResult(INFINITE, 0, INFINITE, False)] * k
    results = [
        SeriesResult(float(v), int(m), float(tail), bool(tail < tol))
        for v, m, tail in zip(stop_total, stop_n, stop_tail)
    ]
    return labels, results


def _check_rounds(rounds):
    if rounds < 0:
        raise InvalidParameter(f"rounds must be >= 0, got {rounds}")


def _check_series(tol, n_max):
    if tol <= 0:
        raise InvalidParameter(f"tol must be > 0, got {tol}")
    if n_max < 1:
        raise InvalidParameter(f"n_max must be >= 1, got {n_max}")


def time_varying_survival_all(
    builder: ChainBuilder, split: SoberSplit, sched: TimeSchedule, rounds: int
) -> dict[str, float]:
    """G_M(d) for every start d of the round-indexed chain family T_1 ... T_M."""
    _check_rounds(rounds)
    sched.warn_if_nonstandard()
    labels, survival = _series(builder, split, sched, None, rounds)
    return dict(zip(labels, survival.tolist()))


def time_varying_survival(
    builder: ChainBuilder, split: SoberSplit, sched: TimeSchedule, d, rounds: int
) -> float:
    """G_M(d) for the round-indexed chain family T_1 ... T_M."""
    _check_rounds(rounds)
    sched.warn_if_nonstandard()
    _, survival = _series(builder, split, sched, d, rounds)
    return float(survival[0])


def time_varying_expectation_all(
    builder: ChainBuilder,
    split: SoberSplit,
    sched: TimeSchedule,
    tol: float = 1e-9,
    n_max: int = 10000,
) -> dict[str, SeriesResult]:
    """``time_varying_expectation`` for every start, in one pass."""
    _check_series(tol, n_max)
    sched.warn_if_nonstandard()
    labels, results = _series(builder, split, sched, None, tol=tol, n_max=n_max)
    return dict(zip(labels, results))


def time_varying_expectation(
    builder: ChainBuilder,
    split: SoberSplit,
    sched: TimeSchedule,
    d,
    tol: float = 1e-9,
    n_max: int = 10000,
) -> SeriesResult:
    """Partial sums of the expectation series with a computable stop rule.

    Term n is the survival probability G_{n-1}(d), accumulated by
    carrying the row vector u_n = e_d . T_1 ... T_{n-1} forward.  The
    tail after term n is estimated as u_{n+1} dotted with the limiting
    chain's expected-remaining-rounds vector (exact if every later
    round already played at the limiting tipsiness); we stop when both
    that estimate and the current term fall below ``tol``.  When the
    limiting chain is not absorbing the series diverges and the result
    is INFINITE outright.
    """
    _check_series(tol, n_max)
    sched.warn_if_nonstandard()
    _, results = _series(builder, split, sched, d, tol=tol, n_max=n_max)
    return results[0]


def distance_cycle_chain(
    n: int, split: SoberSplit, sched: DistanceSchedule, boundary: str = "matrix"
) -> MarkovChain:
    """Cycle distance chain where row d plays with tipsiness delta(d).

    Even cycles keep the sober robber pinned at the maximum distance
    (self-loop r_max, drop c_max + t_max); odd cycles use the half-tipsy
    split there like the static builder.

    ``boundary`` selects the tipsiness fed to the maximum-distance row:
    "matrix" (default) evaluates delta at the maximum distance itself;
    "tables" reuses delta(max - 1) there, which is what the run behind
    the bundled reference tables did.  The two agree at robber_share 0
    and drift apart as the robber's sober share grows.
    """
    if n < 3:
        raise InvalidParameter(f"cycle needs n >= 3, got {n}")
    if boundary not in ("matrix", "tables"):
        raise InvalidParameter(f"boundary must be 'matrix' or 'tables', got {boundary!r}")
    sched.warn_if_nonstandard()
    m = n // 2
    last = m if boundary == "matrix" or m == 1 else m - 1
    return families._cycle(n, lambda d: split.spinner(sched.at(min(d, last))))


def distance_tree_chain(
    degree: int, call_off: int, split: SoberSplit, sched: DistanceSchedule
) -> MarkovChain:
    """Tree distance chain with per-state tipsiness; both ends absorb."""
    if degree < 2:
        raise InvalidParameter(f"tree degree must be >= 2, got {degree}")
    if call_off < 2:
        raise InvalidParameter(f"call-off distance must be >= 2, got {call_off}")
    sched.warn_if_nonstandard()
    return families._tree(degree, call_off, lambda d: split.spinner(sched.at(d)))


_ARG_COUNTS = {"hyper": 2, "exp2": 2, "linear": 0, "exp12": 1}


def parse_schedule(token: str, max_distance: int | None = None):
    """Parse the CLI schedule mini-language.

    Time schedules: ``hyper:NUM,SHIFT`` (NUM/(m+SHIFT), default 4,3) and
    ``exp2:NUM,SHIFT`` (NUM/(2^m+SHIFT), default 4,2).  Distance
    schedules: ``linear`` ((d-1)/max_distance) and ``exp12`` (the base-
    1.2 ramp).  Returns a TimeSchedule or DistanceSchedule.
    """
    name, _, argtext = token.partition(":")
    try:
        args = [float(x) for x in argtext.split(",")] if argtext else []
    except ValueError:
        raise InvalidParameter(f"schedule {token!r}: arguments must be numbers") from None
    most = _ARG_COUNTS.get(name)
    if most is not None and len(args) > most:
        raise InvalidParameter(f"schedule {name!r} takes at most {most} arguments, got {len(args)}")
    if name == "hyper":
        return TimeSchedule.hyperbolic(*args) if args else TimeSchedule.hyperbolic()
    if name == "exp2":
        return TimeSchedule.exponential2(*args) if args else TimeSchedule.exponential2()
    if name == "linear":
        if max_distance is None:
            raise InvalidParameter("schedule 'linear' needs the chain's maximum distance")
        return DistanceSchedule.linear(max_distance)
    if name == "exp12":
        return DistanceSchedule.exponential(*args) if args else DistanceSchedule.exponential()
    raise InvalidParameter(
        f"unknown schedule {token!r}; time schedules: hyper:N,S exp2:N,S; "
        f"distance schedules: linear exp12"
    )
