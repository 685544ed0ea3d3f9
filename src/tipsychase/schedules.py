"""Tipsiness that changes over time or with distance.

Time-varying: round m plays with t = f(m), and the sober remainder
1 - t is split between the players by a fixed share.  Survival over M
rounds is the product of the per-round transient matrices,

    G_M(d) = e_d . (T_1 T_2 ... T_M) . 1

and the expected game length is the series of its partial products,

    E(d) = e_d . (sum_{n>=1} prod_{m<n} T_m) . 1

whose terms are the survival probabilities G_{n-1}(d).  The series has
no closed form, so it is summed with an explicit stopping rule.
``time_varying_series`` is one forward pass that gives both, at every
horizon asked and for every start at once; ``time_varying_survival`` and
``time_varying_expectation`` read one start's row of it.  Every chain of
this game is affine in the spinner, so T_m = (1 - t_m) T(0) + t_m T(1):
a pass builds two chains.

Distance-varying: state d of a cycle or tree chain plays with
t_d = delta(d, top), top the chain's largest distance (n // 2 on the
n-cycle, the call-off on the tree); the chain itself is static, so the
ordinary matrix machinery applies once the rows are assembled.  The rows
are the ones :mod:`tipsychase.families` writes for the static chains,
which are the case of a constant delta.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import chain as chain_mod
from .chain import INFINITE, MarkovChain
from . import families
from .errors import InvalidParameter, ScheduleOutOfRange
from .families import SpinnerThree

# The time-varying series builds it at t = 0 and t = 1 only, so its P must be
# affine in the spinner, as every family's is, and its absorbing set fixed.
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

    @classmethod
    def hyperbolic(cls, num: float = 4.0, shift: float = 3.0) -> "TimeSchedule":
        """f(m) = num / (m + shift); shift > -1 keeps every denominator positive."""
        if not shift > -1.0:
            raise InvalidParameter(f"hyper: shift must be > -1, got {shift:g}")
        return cls(lambda m: num / (m + shift), f"hyper:{num:g},{shift:g}")

    @classmethod
    def exponential2(cls, num: float = 4.0, shift: float = 2.0) -> "TimeSchedule":
        """f(m) = num / (2^m + shift); shift > -2 keeps every denominator positive.

        Evaluated as (num / (1 + shift 2^-m)) 2^-m, which equals the plain
        form for m <= 1023, where 2^m is a float, and reads 0.0 past
        underflow instead of overflowing.
        """
        if not shift > -2.0:
            raise InvalidParameter(f"exp2: shift must be > -2, got {shift:g}")
        return cls(
            lambda m: math.ldexp(num / (1.0 + shift * 2.0**-m), -m), f"exp2:{num:g},{shift:g}"
        )


@dataclass(frozen=True)
class DistanceSchedule:
    """Tipsiness delta(d, top) at distance d of a chain whose largest distance is top."""

    delta: Callable[[int, int], float]
    name: str = "custom"

    def at(self, d: int, top: int) -> float:
        value = float(self.delta(d, top))
        if not 0.0 <= value <= 1.0:
            raise ScheduleOutOfRange(f"{self.name}: delta({d}) = {value!r} outside [0, 1]")
        return value

    def warn_if_nonstandard(self, top: int):
        if abs(self.at(1, top)) > 1e-12:
            warnings.warn(
                f"distance schedule {self.name!r} has delta(1) = {self.at(1, top):.6g}, not 0",
                stacklevel=3,
            )

    @classmethod
    def linear(cls) -> "DistanceSchedule":
        """delta(d) = (d - 1) / top, from 0 at distance 1 to near 1 at the largest."""
        return cls(lambda d, top: (d - 1) / top, "linear")

    @classmethod
    def exponential(cls, base: float = 1.2) -> "DistanceSchedule":
        """delta(d) = (1 - base^(1-d)) / (1 + base^(1-d))."""
        if base <= 1.0:
            raise InvalidParameter(f"base must be > 1, got {base}")
        return cls(
            lambda d, top: (1.0 - base ** (1 - d)) / (1.0 + base ** (1 - d)), f"exp:{base:g}"
        )


@dataclass(frozen=True)
class SeriesResult:
    """Partial-sum evaluation of the expectation series.

    ``truncation_bound`` is an estimate of the tail left out, not a
    bound: it is exact only if every later round plays at the limiting
    tipsiness (see ``time_varying_series``).
    """

    value: float
    terms_used: int
    truncation_bound: float
    converged: bool

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)


# The pass steps through rounds in chunks: _FIRST_CHUNK rounds, then twice as many
# each time, while a chunk's stack of k x k round matrices stays within _CHUNK_BYTES.
_FIRST_CHUNK = 8
_CHUNK_BYTES = 1 << 15


def time_varying_series(builder: ChainBuilder, split: SoberSplit, sched: TimeSchedule,
                        horizons=(), tol: float | None = None, n_max: int = 0, start=None):
    """Survival and the expectation series for every start, in one forward pass.

    Row d of U_n = T_1 ... T_{n-1} sums to G_{n-1}(d), which is both the
    survival at horizon n - 1 and term n of the expectation series.  T_m
    mixes the all-sober and the all-tipsy chain, each built once, at f(m),
    so ``builder`` must be affine in the spinner (see ``ChainBuilder``).
    The pass records G at each of ``horizons``.  With ``tol`` given it also
    sums the series, term n carried forward as the row sums of U_n, and
    stops each row on its own: when both term n and the tail estimate
    fall below ``tol``, or at term ``n_max``.  The tail after term n is
    U_{n+1} times the limiting chain's expected-remaining-rounds vector,
    the chain mixed at ``sched.limit``; it is exact if every later round
    already plays at the limiting tipsiness.  When the limiting chain is
    not absorbing the series diverges and every result is INFINITE
    outright.  A ``start`` label is resolved before the walk.

    The rounds are stepped in chunks, ``_FIRST_CHUNK`` rounds and then
    twice as many each time, up to as many k x k matrices as fit in
    ``_CHUNK_BYTES`` (one, on a chain too large for two).  A chunk
    evaluates f round by round, mixes its T_m in one broadcast, takes
    each U_n by one matmul in round order, and reads the row sums, the
    horizons, the tails, the running totals and each row's first stop
    from the whole chunk at once.  The arithmetic is that of a per-round
    loop, operation for operation, so the results are bitwise the same.
    A chunk may look past the last round the pass needs; if f fails
    there, the chunk ends before that round, and the error is raised
    only if the pass goes on to it.

    Returns the all-sober TransientSystem, whose ``labels`` order the
    starts, {horizon: G per start}, and a SeriesResult per start, or None
    when ``tol`` is None.
    """
    for rounds in horizons:
        if rounds < 0:
            raise InvalidParameter(f"rounds must be >= 0, got {rounds}")
    if tol is not None and tol <= 0:
        raise InvalidParameter(f"tol must be > 0, got {tol}")
    if tol is not None and n_max < 1:
        raise InvalidParameter(f"n_max must be >= 1, got {n_max}")
    if abs(sched.at(1) - 1.0) > 1e-12:
        level = 2  # the first caller outside this module, past the per-label reads
        while sys._getframe(level - 1).f_globals["__name__"] == __name__:
            level += 1
        warnings.warn(
            f"time schedule {sched.name!r} has f(1) = {sched.at(1):.6g}, not 1", stacklevel=level
        )
    ends = [builder(split.spinner(t)) for t in (0.0, 1.0)]
    if len({(built.n_states, built.absorbing) for built in ends}) > 1:
        raise InvalidParameter("builder changed the absorbing set across rounds")
    sober, tipsy = map(chain_mod.extract_transient, ends)
    if start is not None:
        sober.index(start)  # raises InvalidState before the walk
    solved = None
    if tol is not None:
        lim = split.spinner(sched.limit).t  # refuses a limit outside [0, 1]
        solved = replace(
            sober, T=(1.0 - lim) * sober.T + lim * tipsy.T, R=(1.0 - lim) * sober.R + lim * tipsy.R
        ).solution
    # None where the limiting chain's E reads infinite, so the series cannot converge
    profile = None if solved is None else solved[0]
    k = sober.n_transient
    U = np.eye(k)
    G = U.sum(axis=1)
    survival = {0: G} if 0 in horizons else {}

    active = profile is not None
    pending = np.full(k, active)
    total = np.zeros(k)
    stop_n, stop_total, stop_tail = np.zeros(k, dtype=int), np.zeros(k), np.zeros(k)
    last = max(horizons, default=0)
    prev_t = sched.at(1)
    longest = max(1, _CHUNK_BYTES // (8 * k * k))
    size = min(_FIRST_CHUNK, longest)
    n = 0
    while n < last or active:
        chunk = []  # t_m of the chunk's rounds, none past the last the pass can need
        for m in range(n + 1, min(n + size, max(last, n_max if active else 0)) + 1):
            try:
                t_m = sched.at(m)
            except Exception:
                if chunk:  # the pass may end before round m: let the next chunk retry it
                    break
                raise
            if m <= last and t_m > prev_t + 1e-12:
                warnings.warn(f"time schedule {sched.name!r} increases at m={m}")
            prev_t = t_m
            chunk.append(t_m)
        t = np.array(chunk)[:, None, None]
        Ts = (1.0 - t) * sober.T + t * tipsy.T
        Us = np.empty_like(Ts)
        for i, T_m in enumerate(Ts):
            U = np.matmul(U, T_m, out=Us[i])
        sums = Us.sum(axis=2)
        for h in sorted(horizons):
            if n < h <= n + len(chunk):
                survival[h] = sums[h - n - 1]
        if active:
            terms = np.vstack([G, sums[:-1]])
            totals = np.cumsum(np.vstack([total, terms]), axis=0)[1:]
            tails = Us @ profile
            stops = np.maximum(terms, tails) < tol
            stops[n_max - n - 1:] = True  # n < n_max while a row is pending
            rows = np.flatnonzero(pending & stops.any(axis=0))
            first = stops[:, rows].argmax(axis=0)
            stop_n[rows], stop_total[rows], stop_tail[rows] = (
                n + 1 + first, totals[first, rows], tails[first, rows]
            )
            pending[rows] = False
            active = pending.any()
            total = totals[-1]
        n += len(chunk)
        G = sums[-1]
        size = min(2 * size, longest)

    if tol is None:
        results = None
    elif profile is None:
        results = [SeriesResult(INFINITE, 0, INFINITE, False)] * k
    else:
        results = [
            SeriesResult(float(v), int(m), float(tail), bool(tail < tol))
            for v, m, tail in zip(stop_total, stop_n, stop_tail)
        ]
    return sober, survival, results


def time_varying_survival(
    builder: ChainBuilder, split: SoberSplit, sched: TimeSchedule, d, rounds: int
) -> float:
    """G_M(d) for the round-indexed chain family T_1 ... T_M: row d of ``time_varying_series``."""
    sober, survival, _ = time_varying_series(builder, split, sched, (rounds,), start=d)
    return float(survival[rounds][sober.index(d)])


def time_varying_expectation(
    builder: ChainBuilder,
    split: SoberSplit,
    sched: TimeSchedule,
    d,
    tol: float = 1e-9,
    n_max: int = 10000,
) -> SeriesResult:
    """E(d) as partial sums of the survival series: row d of ``time_varying_series``."""
    sober, _, results = time_varying_series(builder, split, sched, (), tol, n_max, start=d)
    return results[sober.index(d)]


def distance_cycle_chain(n: int, split: SoberSplit, sched: DistanceSchedule) -> MarkovChain:
    """Cycle distance chain where row d plays with tipsiness delta(d, n // 2).

    Even cycles keep the sober robber pinned at the maximum distance
    (self-loop r_max, drop c_max + t_max); odd cycles use the half-tipsy
    split there like the static builder.
    """
    top = n // 2
    built = families._cycle(n, lambda d: split.spinner(sched.at(d, top)))
    sched.warn_if_nonstandard(top)
    return built


def distance_tree_chain(
    degree: int, call_off: int, split: SoberSplit, sched: DistanceSchedule
) -> MarkovChain:
    """Tree distance chain with per-state tipsiness delta(d, call_off); both ends absorb."""
    built = families._tree(degree, call_off, lambda d: split.spinner(sched.at(d, call_off)))
    sched.warn_if_nonstandard(call_off)
    return built


_ARG_COUNTS = {"hyper": 2, "exp2": 2, "linear": 0, "exp12": 1}


def parse_schedule(token: str):
    """Parse the CLI schedule mini-language.

    Time schedules: ``hyper:NUM,SHIFT`` (NUM/(m+SHIFT), default 4,3) and
    ``exp2:NUM,SHIFT`` (NUM/(2^m+SHIFT), default 4,2).  Distance
    schedules: ``linear`` ((d-1)/top) and ``exp12`` (the base-1.2 ramp).
    Returns a TimeSchedule or DistanceSchedule.
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
        return DistanceSchedule.linear()
    if name == "exp12":
        return DistanceSchedule.exponential(*args) if args else DistanceSchedule.exponential()
    raise InvalidParameter(
        f"unknown schedule {token!r}; time schedules: hyper:N,S exp2:N,S; "
        f"distance schedules: linear exp12"
    )
