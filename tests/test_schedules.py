import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import FAMILY_BUILDERS, random_spinner3
from tipsychase import chain, families, schedules, tables
from tipsychase.errors import InvalidParameter, InvalidState, ScheduleOutOfRange


def cycle6(s):
    return families.cycle_chain(6, s)


class TestScheduleTypes:
    def test_builtin_time_schedules_start_fully_tipsy(self):
        assert schedules.TimeSchedule.hyperbolic().at(1) == 1.0
        assert schedules.TimeSchedule.exponential2().at(1) == 1.0

    def test_time_schedule_range_enforced(self):
        bad = schedules.TimeSchedule(lambda m: 1.5, "bad")
        with pytest.raises(ScheduleOutOfRange):
            bad.at(1)

    def test_custom_first_round_warns(self):
        sched = schedules.TimeSchedule(lambda m: 0.5 / m, "half")
        with pytest.warns(UserWarning):
            schedules.time_varying_survival(
                cycle6, schedules.SoberSplit(0.5), sched, "1", 2
            )

    def test_distance_schedule_builtins(self):
        lin = schedules.DistanceSchedule.linear()
        assert lin.at(1, 5) == 0.0
        assert lin.at(5, 5) == pytest.approx(0.8)
        exp = schedules.DistanceSchedule.exponential()
        assert exp.at(1, 5) == 0.0
        assert exp.at(2, 5) == pytest.approx((1 - 1 / 1.2) / (1 + 1 / 1.2))

    def test_sober_split_validation(self):
        with pytest.raises(InvalidParameter):
            schedules.SoberSplit(1.5)
        s = schedules.SoberSplit(0.3).spinner(0.4)
        assert (s.r, s.c) == (pytest.approx(0.18), pytest.approx(0.42))

    def test_exp2_past_round_1023(self):
        # 2.0**1024 overflows; the scaled form matches the plain one below it
        for num, shift in ((4.0, 2.0), (1.0, -1.5), (0.3, 7.1)):
            sched = schedules.TimeSchedule.exponential2(num, shift)
            assert all(sched.fn(m) == num / (2.0**m + shift) for m in range(1, 1024))
            assert sched.fn(1024) == math.ldexp(num, -1024)
            assert sched.fn(1100) == 0.0

    @pytest.mark.parametrize("token,message", [
        ("hyper:4,-1", "hyper: shift must be > -1, got -1"),
        ("hyper:4,nan", "hyper: shift must be > -1, got nan"),
        ("exp2:4,-2", "exp2: shift must be > -2, got -2"),
    ])
    def test_shift_that_zeroes_a_denominator_refused(self, token, message):
        with pytest.raises(InvalidParameter, match=f"^{message}$"):
            schedules.parse_schedule(token)

    def test_parse_schedule_tokens(self):
        assert isinstance(schedules.parse_schedule("hyper:4,3"), schedules.TimeSchedule)
        assert isinstance(schedules.parse_schedule("exp2:4,2"), schedules.TimeSchedule)
        assert isinstance(schedules.parse_schedule("linear"), schedules.DistanceSchedule)
        assert isinstance(schedules.parse_schedule("exp12"), schedules.DistanceSchedule)
        with pytest.raises(InvalidParameter):
            schedules.parse_schedule("sigmoid")


class TestTimeVaryingSurvival:
    def test_reference_values_hyperbolic(self):
        sched = schedules.TimeSchedule.hyperbolic()
        got = schedules.time_varying_survival(
            cycle6, schedules.SoberSplit(0.5), sched, "1", 5
        )
        assert got == pytest.approx(0.2917, abs=5e-4)

    def test_reference_values_exponential(self):
        sched = schedules.TimeSchedule.exponential2()
        got = schedules.time_varying_survival(
            cycle6, schedules.SoberSplit(0.5), sched, "3", 5
        )
        assert got == pytest.approx(0.6000, abs=5e-4)

    def test_zero_rounds(self):
        sched = schedules.TimeSchedule.hyperbolic()
        assert schedules.time_varying_survival(
            cycle6, schedules.SoberSplit(0.2), sched, "2", 0
        ) == 1.0

    def test_constant_schedule_reproduces_static(self, rng):
        for _ in range(5):
            share = float(rng.uniform(0, 1))
            t0 = float(rng.uniform(0.05, 0.95))
            sched = schedules.TimeSchedule(lambda m: t0, "const", limit=t0)
            static = chain.extract_transient(
                cycle6(families.SpinnerThree.from_split(t0, share))
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for m in (1, 4, 9):
                    dyn = schedules.time_varying_survival(
                        cycle6, schedules.SoberSplit(share), sched, "2", m
                    )
                    assert dyn == pytest.approx(
                        chain.survival_probability(static, "2", m), abs=1e-12
                    )


class TestTimeVaryingExpectation:
    def test_reference_value_hyperbolic(self):
        res = schedules.time_varying_expectation(
            cycle6, schedules.SoberSplit(0.5), schedules.TimeSchedule.hyperbolic(),
            "1", tol=1e-10, n_max=1000,
        )
        assert res.value == pytest.approx(5.456, abs=0.005)
        assert res.converged

    def test_reference_value_exponential(self):
        res = schedules.time_varying_expectation(
            cycle6, schedules.SoberSplit(0.0), schedules.TimeSchedule.exponential2(),
            "3", tol=1e-10, n_max=500,
        )
        assert res.value == pytest.approx(4.093, abs=0.005)

    def test_all_sober_mass_to_robber_diverges(self):
        res = schedules.time_varying_expectation(
            cycle6, schedules.SoberSplit(1.0), schedules.TimeSchedule.hyperbolic(),
            "1", tol=1e-9, n_max=200,
        )
        assert res.is_infinite
        assert not res.converged

    def test_partial_sums_nondecreasing(self):
        values = [
            schedules.time_varying_expectation(
                cycle6, schedules.SoberSplit(0.8), schedules.TimeSchedule.hyperbolic(),
                "2", tol=1e-30, n_max=n,
            ).value
            for n in (10, 50, 200, 800)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_converged_implies_bound_below_tol(self):
        res = schedules.time_varying_expectation(
            cycle6, schedules.SoberSplit(0.3), schedules.TimeSchedule.hyperbolic(),
            "1", tol=1e-8, n_max=5000,
        )
        assert res.converged
        assert res.truncation_bound < 1e-8
        assert res.terms_used < 5000


class TestDistanceCycleChain:
    def test_reference_values_tables_mode(self):
        lin = tables._boundary_early(schedules.DistanceSchedule.linear())
        c = schedules.distance_cycle_chain(10, schedules.SoberSplit(0.5), lin)
        ts = chain.extract_transient(c)
        assert chain.expected_rounds(ts, "1").value == pytest.approx(9.25, abs=0.01)
        assert chain.survival_probability(ts, "1", 20) == pytest.approx(0.148, abs=0.001)
        exp = tables._boundary_early(schedules.DistanceSchedule.exponential())
        c2 = schedules.distance_cycle_chain(10, schedules.SoberSplit(0.5), exp)
        assert chain.expected_rounds(chain.extract_transient(c2), "5").value == pytest.approx(
            27.89, abs=0.01
        )

    def test_matrix_mode_follows_displayed_rows(self):
        # with every row at its own delta(d) the expectation solves to 82/9
        lin = schedules.DistanceSchedule.linear()
        c = schedules.distance_cycle_chain(10, schedules.SoberSplit(0.5), lin)
        ts = chain.extract_transient(c)
        assert chain.expected_rounds(ts, "1").value == pytest.approx(82 / 9, abs=1e-9)
        t5 = 4 / 5
        r5 = 0.5 * (1 - t5)
        np.testing.assert_allclose(
            c.P[5], [0, 0, 0, 0, (1 - t5) * 0.5 + t5, r5], atol=1e-15
        )

    def test_all_sober_mass_to_cop(self):
        lin = schedules.DistanceSchedule.linear()
        c = schedules.distance_cycle_chain(10, schedules.SoberSplit(0.0), lin)
        ts = chain.extract_transient(c)
        assert chain.expected_rounds(ts, "1").value == pytest.approx(1.0, abs=1e-12)

    def test_all_sober_mass_to_robber_diverges(self):
        lin = schedules.DistanceSchedule.linear()
        for sched in (lin, tables._boundary_early(lin)):
            c = schedules.distance_cycle_chain(10, schedules.SoberSplit(1.0), sched)
            ts = chain.extract_transient(c)
            assert chain.expected_rounds(ts, "3").is_infinite
            assert chain.survival_probability(ts, "3", 20) == pytest.approx(1.0, abs=1e-12)

    def test_constant_delta_reproduces_static_chain(self, rng):
        for _ in range(5):
            t0 = float(rng.uniform(0.0, 0.9))
            share = float(rng.uniform(0, 1))
            const = schedules.DistanceSchedule(lambda d, top: t0, "const")
            for n in (10, 9, 3):
                static = families.cycle_chain(n, families.SpinnerThree.from_split(t0, share))
                for sched in (const, tables._boundary_early(const)):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        dyn = schedules.distance_cycle_chain(
                            n, schedules.SoberSplit(share), sched
                        )
                    np.testing.assert_array_equal(dyn.P, static.P)

    def test_odd_cycle_boundary(self):
        lin = schedules.DistanceSchedule.linear()
        c = schedules.distance_cycle_chain(9, schedules.SoberSplit(0.5), lin)
        t4 = lin.at(4, 4)
        s = schedules.SoberSplit(0.5).spinner(t4)
        assert c.P[4, 4] == pytest.approx(s.r + s.t / 2, abs=1e-15)
        assert c.P[4, 3] == pytest.approx(s.c + s.t / 2, abs=1e-15)

    def test_validates_across_shares(self):
        for sched in (
            schedules.DistanceSchedule.linear(),
            schedules.DistanceSchedule.exponential(),
        ):
            for k in range(11):
                c = schedules.distance_cycle_chain(10, schedules.SoberSplit(k / 10), sched)
                chain.validate(c)


class TestDistanceTreeChain:
    def test_reference_values_linear(self):
        lin = schedules.DistanceSchedule.linear()
        c = schedules.distance_tree_chain(4, 10, schedules.SoberSplit(0.5), lin)
        ts = chain.extract_transient(c)
        assert chain.expected_rounds(ts, "1").value == pytest.approx(7.3, abs=0.05)
        assert chain.survival_probability(ts, "1", 30) == pytest.approx(0.045, abs=0.001)

    def test_reference_values_exponential_base2(self):
        exp2 = schedules.DistanceSchedule.exponential(base=2.0)
        c = schedules.distance_tree_chain(4, 10, schedules.SoberSplit(0.5), exp2)
        ts = chain.extract_transient(c)
        assert chain.expected_rounds(ts, "1").value == pytest.approx(6.6, abs=0.05)

    def test_all_sober_mass_to_cop_catches_immediately(self):
        lin = schedules.DistanceSchedule.linear()
        c = schedules.distance_tree_chain(4, 10, schedules.SoberSplit(0.0), lin)
        ts = chain.extract_transient(c)
        assert chain.expected_rounds(ts, "1").value == pytest.approx(1.0, abs=1e-12)

    def test_row_uses_current_state_tipsiness(self, rng):
        sched = schedules.DistanceSchedule.exponential()
        share = 0.4
        c = schedules.distance_tree_chain(3, 6, schedules.SoberSplit(share), sched)
        for d in range(1, 6):
            s = schedules.SoberSplit(share).spinner(sched.at(d, 6))
            assert c.P[d, d + 1] == pytest.approx(s.r + s.t * 2 / 3, abs=1e-15)
            assert c.P[d, d - 1] == pytest.approx(s.c + s.t / 3, abs=1e-15)

    def test_constant_delta_reproduces_static_chain(self, rng):
        for _ in range(5):
            t0 = float(rng.uniform(0.0, 0.9))
            share = float(rng.uniform(0, 1))
            const = schedules.DistanceSchedule(lambda d, top: t0, "const")
            for degree, call_off in ((4, 8), (3, 5), (2, 2)):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    dyn = schedules.distance_tree_chain(
                        degree, call_off, schedules.SoberSplit(share), const
                    )
                static = families.tree_chain(
                    degree, call_off, families.SpinnerThree.from_split(t0, share)
                )
                np.testing.assert_array_equal(dyn.P, static.P)

    def test_validates_across_shares(self):
        for sched in (
            schedules.DistanceSchedule.linear(),
            schedules.DistanceSchedule.exponential(),
            schedules.DistanceSchedule.exponential(base=2.0),
        ):
            for k in range(11):
                c = schedules.distance_tree_chain(4, 10, schedules.SoberSplit(k / 10), sched)
                chain.validate(c)


@pytest.mark.parametrize("build,message", [
    (lambda sp, sc: schedules.distance_cycle_chain(2, sp, sc), "cycle needs n >= 3, got 2"),
    (lambda sp, sc: schedules.distance_tree_chain(1, 5, sp, sc), "tree degree must be >= 2, got 1"),
    (lambda sp, sc: schedules.distance_tree_chain(3, 1, sp, sc),
     "call-off distance must be >= 2, got 1"),
])
def test_distance_chain_bad_argument_refused_before_warning(build, message):
    nonstandard = schedules.DistanceSchedule(lambda d, top: 0.5, "half")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidParameter, match=f"^{message}$"):
            build(schedules.SoberSplit(0.5), nonstandard)
    assert caught == []


SERIES_TOL = 1e-12  # relative to max(1, |value|): the vector forms reorder float sums


def per_round_transient(builder, split, sched, m):
    return chain.extract_transient(builder(split.spinner(sched.at(m))))


def per_label_survival(builder, split, sched, d, rounds):
    """The per-label loop the vector forms replaced: T_m extracted afresh each round."""
    first = per_round_transient(builder, split, sched, 1)
    vec = np.ones(first.n_transient)
    for m in range(rounds, 0, -1):
        vec = per_round_transient(builder, split, sched, m).T @ vec
    return float(vec[first.index(d)])


def per_label_expectation(builder, split, sched, d, tol, n_max):
    """The per-label series the vector forms replaced, with the same stop rule."""
    solved = chain.extract_transient(builder(split.spinner(sched.limit))).solution
    if solved is None or (solved[1].sum(axis=1) < 1 - 1e-9).any():
        return schedules.SeriesResult(math.inf, 0, math.inf, False)
    profile = solved[0]
    first = per_round_transient(builder, split, sched, 1)
    row = np.zeros(first.n_transient)
    row[first.index(d)] = 1.0
    total = 0.0
    for n in range(1, n_max + 1):
        term = float(row.sum())
        total += term
        row = row @ per_round_transient(builder, split, sched, n).T
        tail = float(row @ profile)
        if term < tol and tail < tol:
            return schedules.SeriesResult(total, n, tail, True)
    return schedules.SeriesResult(total, n_max, tail, tail < tol)


def per_round_series(builder, split, sched, horizons, tol, n_max):
    """The all-starts pass as it was before the mixture: T_m sliced from a chain built for m."""
    solved = chain.extract_transient(builder(split.spinner(sched.limit))).solution
    profile = None if solved is None else solved[0]
    k = per_round_transient(builder, split, sched, 1).n_transient
    U = np.eye(k)
    G = U.sum(axis=1)
    survival = {0: G} if 0 in horizons else {}
    pending = np.full(k, profile is not None)
    total = np.zeros(k)
    stop_n, stop_total, stop_tail = np.zeros(k, dtype=int), np.zeros(k), np.zeros(k)
    n = 0
    while n < max(horizons) or pending.any():
        n += 1
        U = U @ per_round_transient(builder, split, sched, n).T
        term, G = G, U.sum(axis=1)
        if n in horizons:
            survival[n] = G
        if pending.any():
            total += term
            tail = U @ profile
            stop = pending & (np.maximum(term, tail) < tol) if n < n_max else pending
            stop_n[stop], stop_total[stop], stop_tail[stop] = n, total[stop], tail[stop]
            pending = pending & ~stop
    if profile is None:
        return survival, [schedules.SeriesResult(math.inf, 0, math.inf, False)] * k
    return survival, [
        schedules.SeriesResult(float(v), int(m), float(tail), bool(tail < tol))
        for v, m, tail in zip(stop_total, stop_n, stop_tail)
    ]


def chunk_edges(k, count):
    """The last rounds of the pass's first ``count`` chunks on a k-state chain."""
    longest = max(1, schedules._CHUNK_BYTES // (8 * k * k))
    size, end, edges = min(schedules._FIRST_CHUNK, longest), 0, []
    for _ in range(count):
        end += size
        edges.append(end)
        size = min(2 * size, longest)
    return edges, longest


def assert_same_pass(builder, split, sched, horizons, tol, n_max):
    """The pass equals ``per_round_series`` bit for bit."""
    _, survival, results = schedules.time_varying_series(
        builder, split, sched, horizons, tol, n_max
    )
    want_survival, want_results = per_round_series(builder, split, sched, horizons, tol, n_max)
    assert list(survival) == list(want_survival)
    for rounds, g in survival.items():
        np.testing.assert_array_equal(g, want_survival[rounds])
    assert results == want_results
    return results


def assert_close(got, want):
    if math.isinf(want):
        assert got == want
    else:
        assert abs(got - want) <= SERIES_TOL * max(1.0, abs(want))


SERIES_CASES = [
    (family, sched, share)
    for family in sorted(FAMILY_BUILDERS)
    for sched in (schedules.TimeSchedule.hyperbolic(), schedules.TimeSchedule.exponential2())
    for share in (0.0, 0.6, 1.0)
]


class TestWholeVectorSeries:
    @pytest.mark.parametrize("family,sched,share", SERIES_CASES)
    def test_survival_matches_per_label_loop(self, family, sched, share):
        builder, split = FAMILY_BUILDERS[family], schedules.SoberSplit(share)
        sober, survival, _ = schedules.time_varying_series(builder, split, sched, (0, 1, 5, 30))
        for rounds, column in survival.items():
            for d, g in zip(sober.labels, column.tolist()):
                assert_close(g, per_label_survival(builder, split, sched, d, rounds))
                assert schedules.time_varying_survival(builder, split, sched, d, rounds) == g

    @pytest.mark.parametrize("family,sched,share", SERIES_CASES)
    def test_expectation_matches_per_label_loop(self, family, sched, share):
        builder, split = FAMILY_BUILDERS[family], schedules.SoberSplit(share)
        for n_max in (30, 400):  # 30 stops some rows at the cap, unconverged
            sober, _, got = schedules.time_varying_series(
                builder, split, sched, tol=1e-10, n_max=n_max
            )
            for d, res in zip(sober.labels, got):
                want = per_label_expectation(builder, split, sched, d, 1e-10, n_max)
                assert_close(res.value, want.value)
                assert_close(res.truncation_bound, want.truncation_bound)
                assert (res.terms_used, res.converged) == (want.terms_used, want.converged)
                single = schedules.time_varying_expectation(builder, split, sched, d, 1e-10, n_max)
                assert single == res

    @pytest.mark.parametrize("family,sched,share", SERIES_CASES)
    def test_one_pass_gives_survival_and_expectation(self, family, sched, share):
        builder, split = FAMILY_BUILDERS[family], schedules.SoberSplit(share)
        first, survival, results = schedules.time_varying_series(
            builder, split, sched, (0, 5, 30), tol=1e-10, n_max=400
        )
        assert list(survival) == [0, 5, 30]
        for rounds, g in survival.items():
            sober, alone, none = schedules.time_varying_series(builder, split, sched, (rounds,))
            assert sober.labels == first.labels and none is None
            assert list(alone) == [rounds]
            np.testing.assert_array_equal(g, alone[rounds])
        sober, alone, alone_results = schedules.time_varying_series(
            builder, split, sched, tol=1e-10, n_max=400
        )
        assert sober.labels == first.labels and alone == {}
        assert results == alone_results

    def test_each_round_built_once(self):
        # every round mixes the all-sober and the all-tipsy chain, built once each
        built = []

        def counting(s):
            built.append(s.t)
            return cycle6(s)

        split, sched = schedules.SoberSplit(0.5), schedules.TimeSchedule.hyperbolic()
        schedules.time_varying_series(counting, split, sched, (12,))
        assert built == [0.0, 1.0]

        built.clear()
        _, _, expectation = schedules.time_varying_series(
            counting, split, sched, tol=1e-10, n_max=1000
        )
        assert max(res.terms_used for res in expectation) > 100
        assert built == [0.0, 1.0]

    @pytest.mark.parametrize("family,sched,share", [
        (family, sched, share)
        for family in ("cycle6", "cycle7", "torus7", "tree")
        for sched in (schedules.TimeSchedule.hyperbolic(), schedules.TimeSchedule.exponential2())
        for share in (0.0, 0.6, 1.0)
    ])
    def test_mixture_equals_per_round_builds(self, family, sched, share):
        # these families write their rows with t/2 and t/4, so the mixture is exact
        builder, split = FAMILY_BUILDERS[family], schedules.SoberSplit(share)
        horizons = (0, 1, 5, 30)
        sober, survival, results = schedules.time_varying_series(
            builder, split, sched, horizons, tol=1e-10, n_max=400
        )
        want_survival, want_results = per_round_series(builder, split, sched, horizons, 1e-10, 400)
        assert sober.labels == per_round_transient(builder, split, sched, 1).labels
        assert list(survival) == list(want_survival)
        for rounds, g in survival.items():
            np.testing.assert_array_equal(g, want_survival[rounds])
        assert results == want_results

    @pytest.mark.parametrize("family", ["cycle6", "torus7", "tree"])
    def test_chunk_edges_equal_per_round_builds(self, family):
        # horizons and term caps just before, on and just after the ends of the
        # first chunks, and of a chunk at its longest
        builder, split = FAMILY_BUILDERS[family], schedules.SoberSplit(0.5)
        sched = schedules.TimeSchedule.hyperbolic()
        k = per_round_transient(builder, split, sched, 1).n_transient
        edges, longest = chunk_edges(k, 5)
        rounds = sorted({7, 8, 9, 63, 64, 65} | {
            edge + step for edge in (*edges, longest) for step in (-1, 0, 1)
        })
        assert_same_pass(builder, split, sched, tuple(rounds), 1e-10, 1)
        capped = 0
        for n_max in rounds:
            results = assert_same_pass(builder, split, sched, (1,), 1e-10, n_max)
            capped += any(res.terms_used == n_max and not res.converged for res in results)
        assert capped >= len(rounds) // 2

    def test_term_cap_of_ten_thousand_equals_per_round_builds(self):
        # the 6-cycle with the robber taking 0.9 of the sober mass stops at the cap
        results = assert_same_pass(
            cycle6, schedules.SoberSplit(0.9), schedules.TimeSchedule.hyperbolic(),
            (9_999, 10_000, 10_001), 1e-9, 10_000,
        )
        assert {(res.terms_used, res.converged) for res in results} == {(10_000, False)}

    @pytest.mark.parametrize("fault", ["out of range", "zero division"])
    def test_schedule_failing_past_the_last_round_used(self, fault):
        # f fails from round `end` on: the pass raises only if it needs that round,
        # with the error the per-round loop gave, though a chunk may reach past it
        split, hyper = schedules.SoberSplit(0.5), schedules.TimeSchedule.hyperbolic()
        horizons = (5,)
        _, want_survival, want = schedules.time_varying_series(
            cycle6, split, hyper, horizons, 1e-10, 10_000
        )
        used = max(res.terms_used for res in want)
        k = per_round_transient(cycle6, split, hyper, 1).n_transient
        assert used not in chunk_edges(k, 20)[0]  # the chunk holding round `used` goes on

        def failing(end):
            def fn(m):
                if m < end:
                    return hyper.fn(m)
                return 1.5 if fault == "out of range" else 1 / (m - m)
            return schedules.TimeSchedule(fn, "failing")

        def message(m):
            if fault == "out of range":
                return rf"^failing: f\({m}\) = 1\.5 outside \[0, 1\]$"
            return "^division by zero$"

        error = ScheduleOutOfRange if fault == "out of range" else ZeroDivisionError
        _, survival, results = schedules.time_varying_series(
            cycle6, split, failing(used + 1), horizons, 1e-10, 10_000
        )
        np.testing.assert_array_equal(survival[5], want_survival[5])
        assert results == want
        _, survival, _ = schedules.time_varying_series(cycle6, split, failing(6), horizons)
        np.testing.assert_array_equal(survival[5], want_survival[5])
        with pytest.raises(error, match=message(5)):
            schedules.time_varying_series(cycle6, split, failing(5), horizons)
        with pytest.raises(error, match=message(used)):
            schedules.time_varying_series(cycle6, split, failing(used), horizons, 1e-10, 10_000)

    def test_increase_warnings_up_to_the_last_horizon(self):
        # the series runs past round 40, but only rounds up to the last horizon warn
        def wave(m):
            return 0.5 + 0.3 * math.cos(m)

        sched = schedules.TimeSchedule(wave, "wave", limit=0.5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, _, results = schedules.time_varying_series(
                cycle6, schedules.SoberSplit(0.5), sched, (40,), 1e-10, 1000
            )
        assert min(res.terms_used for res in results) > 40
        assert [str(w.message) for w in caught] == [
            f"time schedule 'wave' has f(1) = {wave(1):.6g}, not 1",
            *(f"time schedule 'wave' increases at m={m}"
              for m in range(2, 41) if wave(m) > wave(m - 1) + 1e-12),
        ]

    def test_large_chain_steps_one_round_at_a_time(self):
        # one round matrix of a 299-state chain is over the chunk byte budget, so
        # its pass steps one round at a time: its traced peak is about 8 such
        # matrices, where a chunk of 8 rounds would add 16 more
        k = 299
        assert schedules._CHUNK_BYTES // (8 * k * k) == 0

        def builder(s):
            return families.tree_chain(3, k + 1, s)

        sched = schedules.TimeSchedule.hyperbolic()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, survival, _ = schedules.time_varying_series(
                builder, schedules.SoberSplit(0.5), sched, (40,)
            )
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert survival[40].shape == (k,)
        assert peak < 16 * 8 * k * k

    def test_limit_outside_unit_interval_refused(self):
        sched = schedules.TimeSchedule(lambda m: 1.0 / m, "over", limit=1.5)
        split = schedules.SoberSplit(0.5)
        with pytest.raises(InvalidParameter, match=r"^tipsiness = 1\.5 is outside \[0, 1\]$"):
            schedules.time_varying_series(cycle6, split, sched, tol=1e-9, n_max=10)
        with pytest.raises(InvalidParameter, match=r"^tipsiness = 1\.5 is outside \[0, 1\]$"):
            schedules.time_varying_expectation(cycle6, split, sched, "1")

    @pytest.mark.parametrize("call", [
        lambda sc: schedules.time_varying_survival(
            families.petersen_chain, schedules.SoberSplit(0.9), sc, "bogus", 50),
        lambda sc: schedules.time_varying_expectation(
            families.petersen_chain, schedules.SoberSplit(0.9), sc, "bogus"),
    ])
    def test_bad_label_fails_before_the_walk(self, call):
        hyper = schedules.TimeSchedule.hyperbolic()
        asked = []

        def recording(m):
            asked.append(m)
            return hyper.fn(m)

        with pytest.raises(InvalidState, match="^no transient state labeled 'bogus'$"):
            call(schedules.TimeSchedule(recording, "recording"))
        assert set(asked) == {1}

    @pytest.mark.parametrize("call", [
        lambda b, sp, sc: schedules.time_varying_survival(b, sp, sc, "1", 3),
        lambda b, sp, sc: schedules.time_varying_series(b, sp, sc, (3,)),
        lambda b, sp, sc: schedules.time_varying_expectation(b, sp, sc, "1", 1e-6, 50),
        lambda b, sp, sc: schedules.time_varying_series(b, sp, sc, (3,), 1e-6, 50),
    ])
    def test_nonstandard_warning_names_the_caller(self, call):
        sched = schedules.TimeSchedule(lambda m: 0.8 / m, "f(1)=0.8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(cycle6, schedules.SoberSplit(0.5), sched)
        nonstandard = [w for w in caught if "not 1" in str(w.message)]
        assert len(nonstandard) == 1
        assert nonstandard[0].filename == __file__

    def test_builder_changing_absorbing_set_rejected(self):
        def shifty(s):
            return cycle6(s) if s.t > 0.5 else families.tree_chain(2, 3, s)

        with pytest.raises(InvalidParameter):
            schedules.time_varying_series(
                shifty, schedules.SoberSplit(0.5), schedules.TimeSchedule.hyperbolic(), (10,)
            )
