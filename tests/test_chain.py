import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from conftest import FAMILY_BUILDERS
from tipsychase import chain, families
from tipsychase.errors import (
    Divergent,
    InconsistentAbsorbing,
    InvalidParameter,
    InvalidState,
    NoTransientStates,
    NotStochastic,
)


def ruin_chain(p):
    """Four-state chain: 0 and 3 absorbing, 1 <-> 2 stepping with p up."""
    P = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [1 - p, 0.0, p, 0.0],
            [0.0, 1 - p, 0.0, p],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    return chain.MarkovChain(("0", "1", "2", "3"), P, frozenset({0, 3}))


def brute_force_transition(P, i, j, steps):
    """Independent oracle: sum path products over every length-``steps`` path."""
    if steps == 0:
        return 1.0 if i == j else 0.0
    total = 0.0
    for k in range(P.shape[0]):
        if P[i, k]:
            total += P[i, k] * brute_force_transition(P, k, j, steps - 1)
    return total


# validate must act the same on a dense and a sparse P
AS_MATRIX = (np.asarray, scipy.sparse.csr_array)


class TestValidate:
    def test_simple_ok(self):
        c = chain.MarkovChain(("a", "b"), [[1.0, 0.0], [0.3, 0.7]], frozenset({0}))
        chain.validate(c)

    def test_ruin_chain_ok(self):
        chain.validate(ruin_chain(0.4))

    def test_row_sum_failure(self):
        for as_matrix in AS_MATRIX:
            P = as_matrix([[1.0, 0.0], [0.3, 0.6]])
            c = chain.MarkovChain(("a", "b"), P, frozenset({0}))
            with pytest.raises(NotStochastic) as info:
                chain.validate(c)
            assert info.value.row == 1
            assert info.value.total == pytest.approx(0.9)

    def test_negative_entry(self):
        for as_matrix in AS_MATRIX:
            P = as_matrix([[1.0, 0.0], [1.3, -0.3]])
            c = chain.MarkovChain(("a", "b"), P, frozenset({0}))
            with pytest.raises(NotStochastic):
                chain.validate(c)

    def test_absorbing_flag_without_identity_row(self):
        for as_matrix in AS_MATRIX:
            P = as_matrix([[0.5, 0.5], [0.0, 1.0]])
            c = chain.MarkovChain(("a", "b"), P, frozenset({0}))
            with pytest.raises(InconsistentAbsorbing):
                chain.validate(c)

    def test_entry_check_reports_first_bad_row(self):
        # rows 1 and 2 both hold an entry above 1; rows sum to 1 throughout
        P = [[1.0, 0.0, 0.0], [-0.5, 0.0, 1.5], [1.25, -0.25, 0.0]]
        for as_matrix in AS_MATRIX:
            c = chain.MarkovChain(("a", "b", "c"), as_matrix(P), frozenset({0}))
            with pytest.raises(NotStochastic) as info:
                chain.validate(c)
            assert info.value.row == 1
            assert "outside [0, 1]" in str(info.value)

    def test_undeclared_self_loop_row_is_allowed(self):
        # a pinned-but-not-game-over state stays transient (degenerate spinners)
        c = chain.MarkovChain(("0", "1"), [[1.0, 0.0], [0.0, 1.0]], frozenset({0}))
        chain.validate(c)


class TestTransitionProbability:
    def test_absorbing_state_never_reaches_other_absorber(self):
        c = ruin_chain(0.4)
        for steps in (1, 2, 3):
            assert chain.transition_probability(c, "3", "0", steps) == 0.0

    def test_two_step_capture(self):
        c = ruin_chain(0.4)
        assert chain.transition_probability(c, "2", "0", 2) == pytest.approx(0.36)

    def test_zero_steps_is_identity(self):
        c = ruin_chain(0.7)
        assert chain.transition_probability(c, 1, 1, 0) == 1.0
        assert chain.transition_probability(c, 1, 2, 0) == 0.0

    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 5, 6])
    def test_matches_path_enumeration(self, steps):
        c = ruin_chain(0.35)
        for i in range(4):
            for j in range(4):
                want = brute_force_transition(c.P, i, j, steps)
                got = chain.transition_probability(c, i, j, steps)
                assert got == pytest.approx(want, abs=1e-12)

    def test_large_step_count(self):
        c = ruin_chain(0.4)
        # definitely absorbed by then; mass split between the two ends
        total = chain.transition_probability(c, 1, 0, 500) + chain.transition_probability(c, 1, 3, 500)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_invalid_state(self):
        c = ruin_chain(0.4)
        with pytest.raises(InvalidState):
            chain.transition_probability(c, "7", "0", 1)
        with pytest.raises(InvalidState):
            chain.transition_probability(c, 9, 0, 1)
        with pytest.raises(InvalidParameter):
            chain.transition_probability(c, 1, 0, -1)


class TestExtractTransient:
    def test_cycle6_blocks(self):
        s = families.SpinnerThree(c=0.2, r=0.3, t=0.5)
        ts = chain.extract_transient(families.cycle_chain(6, s))
        want_T = np.array(
            [
                [0.0, s.r + s.t / 2, 0.0],
                [s.c + s.t / 2, 0.0, s.r + s.t / 2],
                [0.0, s.c + s.t, s.r],
            ]
        )
        np.testing.assert_allclose(ts.T, want_T, atol=1e-15)
        np.testing.assert_allclose(ts.R[:, 0], [s.c + s.t / 2, 0.0, 0.0], atol=1e-15)
        assert ts.labels == ("1", "2", "3")
        assert ts.absorbing_labels == ("0",)

    def test_petersen_blocks(self):
        s = families.SpinnerThree(c=0.5, r=0.0, t=0.5)
        ts = chain.extract_transient(families.petersen_chain(s))
        np.testing.assert_allclose(
            ts.T, [[0.0, 1 / 3], [2 / 3, 1 / 3]], atol=1e-15
        )

    def test_tree_two_absorbers(self):
        s = families.SpinnerThree(c=0.3, r=0.4, t=0.3)
        ts = chain.extract_transient(families.tree_chain(4, 5, s))
        assert ts.T.shape == (4, 4)
        assert ts.R.shape == (4, 2)
        assert ts.absorbing_labels == ("0", "5")
        up = 0.3 * 3 / 4 + 0.4
        np.testing.assert_allclose(np.diag(ts.T, 1), [up] * 3, atol=1e-15)
        np.testing.assert_allclose(np.diag(ts.T, -1), [1 - up] * 3, atol=1e-15)
        # rows of [T | R] are stochastic
        np.testing.assert_allclose(ts.T.sum(1) + ts.R.sum(1), 1.0, atol=1e-12)

    def test_no_transient_states(self):
        c = chain.MarkovChain(("a",), [[1.0]], frozenset({0}))
        with pytest.raises(NoTransientStates):
            chain.extract_transient(c)


class TestSurvival:
    def test_petersen_reference_value(self):
        ts = chain.extract_transient(
            families.petersen_chain(families.SpinnerThree(c=0.5, r=0.0, t=0.5))
        )
        assert chain.survival_probability(ts, "1", 7) == pytest.approx(0.039, abs=5e-4)

    def test_cycle_reference_value(self):
        ts = chain.extract_transient(
            families.cycle_chain(6, families.SpinnerThree(c=0.0, r=0.5, t=0.5))
        )
        assert chain.survival_probability(ts, "3", 7) == pytest.approx(0.887, abs=5e-4)

    def test_one_round_on_square_by_enumeration(self, rng):
        from conftest import random_spinner3

        for _ in range(20):
            s = random_spinner3(rng)
            ts = chain.extract_transient(families.cycle_chain(4, s))
            # exactly one way to stay alive from distance 1: step up
            assert chain.survival_probability(ts, "1", 1) == pytest.approx(
                s.r + s.t / 2, abs=1e-12
            )

    def test_zero_rounds(self):
        ts = chain.extract_transient(ruin_chain(0.4))
        assert chain.survival_probability(ts, "1", 0) == 1.0

    def test_monotone_in_rounds(self):
        ts = chain.extract_transient(ruin_chain(0.45))
        values = [chain.survival_probability(ts, "2", m) for m in range(15)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)


class TestExpectedRounds:
    def test_cycle_exact_values(self):
        ts = chain.extract_transient(
            families.cycle_chain(6, families.SpinnerThree(c=0.0, r=0.5, t=0.5))
        )
        for d, want in (("1", 34.0), ("2", 44.0), ("3", 46.0)):
            assert chain.expected_rounds(ts, d).value == pytest.approx(want, abs=1e-6)

    def test_petersen_exact_values(self):
        ts = chain.extract_transient(
            families.petersen_chain(families.SpinnerThree(c=0.5, r=0.0, t=0.5))
        )
        assert chain.expected_rounds(ts, "1").value == pytest.approx(2.25, abs=1e-6)
        assert chain.expected_rounds(ts, "2").value == pytest.approx(3.75, abs=1e-6)

    def test_fleeing_robber_never_caught(self):
        ts = chain.extract_transient(
            families.cycle_chain(6, families.SpinnerThree(c=0.0, r=1.0, t=0.0))
        )
        result = chain.expected_rounds(ts, "1")
        assert result.is_infinite
        assert result.condition_note


class TestAbsorptionSplit:
    def test_tree_escape_masses(self):
        s = families.SpinnerThree(c=0.3, r=0.4, t=0.3)
        ts = chain.extract_transient(families.tree_chain(4, 10, s))
        split = chain.absorption_split(ts, "1")
        assert split["10"] == pytest.approx(0.4024, abs=5e-4)
        split9 = chain.absorption_split(ts, "9")
        assert split9["10"] == pytest.approx(0.9959, abs=5e-4)
        assert split9["0"] == pytest.approx(0.0041, abs=5e-4)

    def test_single_absorber_gets_everything(self):
        ts = chain.extract_transient(
            families.cycle_chain(8, families.SpinnerThree(c=0.5, r=0.2, t=0.3))
        )
        for d in ts.labels:
            split = chain.absorption_split(ts, d)
            assert split == {"0": pytest.approx(1.0, abs=1e-9)}

    def test_divergent_flags_partial_mass(self):
        ts = chain.extract_transient(
            families.cycle_chain(6, families.SpinnerThree(c=0.0, r=1.0, t=0.0))
        )
        with pytest.raises(Divergent):
            chain.absorption_split(ts, "1")


def random_absorbing_chain(rng, n_states):
    """Random chain with state 0 absorbing and certain absorption."""
    P = np.zeros((n_states, n_states))
    P[0, 0] = 1.0
    for i in range(1, n_states):
        row = rng.dirichlet(np.ones(n_states))
        row = 0.9 * row
        row[0] += 0.1  # guarantees a drain to the absorber
        P[i] = row / row.sum()
    labels = tuple(str(i) for i in range(n_states))
    c = chain.MarkovChain(labels, P, frozenset({0}))
    chain.validate(c)
    return c


class TestConsistencyProperties:
    def test_survival_equals_transition_sum(self, rng):
        # survival through M rounds == total mass still on transient states
        for _ in range(25):
            c = random_absorbing_chain(rng, int(rng.integers(3, 7)))
            ts = chain.extract_transient(c)
            transient = [lab for lab in c.state_labels if lab != "0"]
            for m in (1, 3, 6):
                for d in transient:
                    direct = chain.survival_probability(ts, d, m)
                    summed = sum(
                        chain.transition_probability(c, d, j, m) for j in transient
                    )
                    assert direct == pytest.approx(summed, abs=1e-9)

    def test_expectation_is_survival_series(self, rng):
        for _ in range(25):
            c = random_absorbing_chain(rng, int(rng.integers(3, 7)))
            ts = chain.extract_transient(c)
            # pick K with ||T^K||_inf below 1e-10, then the tail is bounded
            # by ||T^K|| * max expectation
            K = 16
            while np.abs(np.linalg.matrix_power(ts.T, K)).sum(axis=1).max() > 1e-10:
                K *= 2
            e_max = max(chain.expected_rounds(ts, d).value for d in ts.labels)
            for d in ts.labels:
                partial = sum(chain.survival_probability(ts, d, m) for m in range(K))
                expect = chain.expected_rounds(ts, d).value
                assert abs(expect - partial) <= 1e-10 * e_max + 1e-9

    def test_absorption_sums_to_one_when_expectation_finite(self, rng):
        for _ in range(25):
            c = random_absorbing_chain(rng, int(rng.integers(3, 7)))
            ts = chain.extract_transient(c)
            for d in ts.labels:
                assert chain.expected_rounds(ts, d).value < math.inf
                total = sum(chain.absorption_split(ts, d).values())
                assert total == pytest.approx(1.0, abs=1e-9)


VECTOR_TOL = 1e-12  # the vector forms reorder float sums; results agree to rounding


def per_label_survival(ts, d, rounds):
    """The per-label form survival_vector replaced: row d of T^M, summed."""
    if rounds == 0:
        return 1.0
    return float(np.linalg.matrix_power(ts.T, rounds)[ts.index(d)].sum())


class TestSurvivalVector:
    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    def test_matches_per_label_matrix_power(self, family):
        ts = chain.extract_transient(
            FAMILY_BUILDERS[family](families.SpinnerThree(c=0.3, r=0.4, t=0.3))
        )
        for m in (0, 1, 7, 50, 200):
            vec = chain.survival_vector(ts, m)
            assert vec.shape == (ts.n_transient,)
            for i, d in enumerate(ts.labels):
                want = per_label_survival(ts, d, m)
                assert abs(vec[i] - want) <= VECTOR_TOL
                assert chain.survival_probability(ts, d, m) == vec[i]

    def test_negative_rounds_rejected(self):
        ts = chain.extract_transient(ruin_chain(0.4))
        with pytest.raises(InvalidParameter):
            chain.survival_vector(ts, -1)


class TestSolveCache:
    def test_one_solve_serves_every_start(self, monkeypatch):
        calls = []
        solve = chain._fundamental_solve
        monkeypatch.setattr(chain, "_fundamental_solve", lambda ts: calls.append(1) or solve(ts))
        ts = chain.extract_transient(
            families.tree_chain(4, 10, families.SpinnerThree(c=0.3, r=0.4, t=0.3))
        )
        for d in ts.labels:
            chain.expected_rounds(ts, d)
            chain.absorption_split(ts, d)
        assert len(calls) == 1

    def test_divergent_chain_reads_infinite_everywhere(self):
        ts = chain.extract_transient(
            families.cycle_chain(6, families.SpinnerThree(c=0.0, r=1.0, t=0.0))
        )
        for _ in range(2):
            assert all(chain.expected_rounds(ts, d).is_infinite for d in ts.labels)

    def test_divergent_split_keeps_raising(self):
        ts = chain.extract_transient(
            families.cycle_chain(6, families.SpinnerThree(c=0.0, r=1.0, t=0.0))
        )
        for _ in range(3):
            for d in ts.labels:
                with pytest.raises(Divergent):
                    chain.absorption_split(ts, d)

    def test_cached_arrays_are_read_only(self):
        ts = chain.extract_transient(ruin_chain(0.4))
        expected, absorb, _ = ts.solution
        with pytest.raises(ValueError):
            expected[0] = 0.0
        with pytest.raises(ValueError):
            absorb[0, 0] = 0.0
        assert chain.expected_rounds(ts, "1").value == pytest.approx(expected[0])
        assert ts.solution is ts.solution

    def test_sparse_inputs_are_read_only_copies(self):
        dense = ruin_chain(0.4)
        P = scipy.sparse.csr_array(dense.P)
        c = chain.MarkovChain(dense.state_labels, P, dense.absorbing)
        ts = chain.extract_transient(c)
        before = ts.solution[0].copy()
        for m in (c.P, ts.T, ts.R):
            for arr in (m.data, m.indices, m.indptr):
                with pytest.raises(ValueError):
                    arr[0] = 0
        P.data[:] = 0.5  # the caller's matrix stays writable and is not shared
        assert np.array_equal(c.P.toarray(), dense.P)
        assert np.array_equal(ts.solution[0], before)
        assert ts.absorb_split.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-12)


STRUCTURAL = "never reaches an exit"
PRECISION = "cannot resolve E"


def reference_drains(T, R):
    """Per-state breadth-first search: does every state reach a row with an exit?"""
    n = len(T)
    for start in range(n):
        seen, frontier = {start}, [start]
        while frontier and not any(R[i].any() for i in frontier):
            frontier = [j for i in frontier for j in np.flatnonzero(T[i]) if j not in seen]
            seen.update(frontier)
        if not frontier:
            return False
    return True


def exact_solve(T, b):
    """Exact solution of (I - T) x = b for the float64 T and b, as Fractions (Gauss-Jordan)."""
    n = len(T)
    A = [[Fraction(int(i == j)) - Fraction(float(T[i, j])) for j in range(n)]
         + [Fraction(float(b[i]))] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[p] = A[p], A[c]
        for r in range(n):
            if r != c and A[r][c] != 0:
                f = A[r][c] / A[c][c]
                A[r] = [a - f * b for a, b in zip(A[r], A[c])]
    return [A[i][n] / A[i][i] for i in range(n)]


def random_transient_system(rng, closed):
    """T and R of a random chain of 2-13 transient states and two exits.

    With ``closed``, a random non-empty set of states has its rows'
    support inside the set and no exit, so that set is a closed class.
    """
    n = int(rng.integers(2, 14))
    T = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < rng.uniform(0.1, 0.5))
    R = rng.uniform(0.1, 1.0, (n, 2)) * (rng.random((n, 2)) < 0.2)
    if closed:
        inside = rng.random(n) < rng.uniform(0.1, 1.0)
        inside[rng.integers(n)] = True
        T[np.ix_(inside, ~inside)] = 0.0
        R[inside] = 0.0
    for i in np.flatnonzero(T.sum(axis=1) + R.sum(axis=1) == 0):
        T[i, rng.integers(n) if not closed or not inside[i] else i] = 1.0
    total = T.sum(axis=1) + R.sum(axis=1)
    return T / total[:, None], R / total[:, None]


class TestDivergenceRule:
    def test_drains_matches_per_state_search(self):
        rng = np.random.default_rng(6)
        verdicts = []
        for k in range(10_000):
            T, R = random_transient_system(rng, closed=k % 2 == 1)
            labels = tuple(str(i) for i in range(len(T)))
            want = reference_drains(T, R)
            verdicts.append(want)
            for as_matrix in AS_MATRIX:
                ts = chain.TransientSystem(labels, as_matrix(T), as_matrix(R), ("a", "b"))
                assert chain._drains(ts) is want
                if as_matrix is np.asarray or k % 5 < 2:  # a sparse solve costs ~2 ms
                    result = chain.expected_rounds(ts, labels[-1])
                    assert result.is_infinite is not want
                    if not want:
                        assert STRUCTURAL in result.condition_note
        # both verdicts are well represented, and open chains also fail to drain
        assert 3_000 < sum(verdicts) < 7_000

    def test_drains_loads_no_scipy(self):
        src = str(Path(chain.__file__).resolve().parents[1])
        probe = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "from tipsychase import chain, families; "
            "s = families.SpinnerThree(c=0.0, r=1.0, t=0.0); "
            "ts = chain.extract_transient(families.cycle_chain(6, s)); "
            "print(chain._drains(ts), sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        done = subprocess.run([sys.executable, "-c", probe, src], capture_output=True,
                              text=True, check=True, timeout=120)
        assert done.stdout == "False []\n"

    def test_fleeing_robber_gets_the_structural_note(self):
        ts = chain.extract_transient(
            families.cycle_chain(6, families.SpinnerThree(c=0.0, r=1.0, t=0.0))
        )
        assert not chain._drains(ts)
        for d in ts.labels:
            assert STRUCTURAL in chain.expected_rounds(ts, d).condition_note
            with pytest.raises(Divergent, match=STRUCTURAL):
                chain.absorption_split(ts, d)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: families.cycle_chain(6, families.SpinnerThree(1e-15, 1 - 1e-15, 0.0)),
            lambda: families.toroidal7_chain(families.SpinnerThree(0.001, 0.999, 0.0)),
        ],
        ids=["cycle6-c1e-15", "torus7-c0.001"],
    )
    def test_drained_chain_beyond_float64_reads_infinite(self, build):
        # every state reaches capture, but no float64 solve bounds E's relative
        # error below one: such a chain reads Infinite, with its own note
        ts = chain.extract_transient(build())
        assert chain._drains(ts)
        assert ts.solution is None
        for d in ts.labels:
            result = chain.expected_rounds(ts, d)
            assert result.is_infinite
            assert PRECISION in result.condition_note
            with pytest.raises(Divergent, match=PRECISION):
                chain.absorption_split(ts, d)

    @pytest.mark.parametrize(
        "build,finite_from,infinite_from",
        [
            (lambda c: families.cycle_chain(6, families.SpinnerThree(c, 1 - c, 0.0)), 4.5, 5),
            (lambda c: families.toroidal7_chain(families.SpinnerThree(c, 1 - c, 0.0)), 2, 3),
        ],
        ids=["cycle6", "torus7"],
    )
    def test_where_a_draining_chain_turns_infinite(self, build, finite_from, infinite_from):
        # c = 10^-k/2, r = 1 - c: E grows about as c^-3 on the cycle.  E stays
        # finite while the solve bounds its error below one, and each finite E
        # and capture probability lies within that bound of the exact rational
        # solve.  The torus at c = 10^-2.5 has a bound within a factor two of
        # one, so its verdict rests on LAPACK's last bits and is not pinned.
        for k in range(2, 33):
            ts = chain.extract_transient(build(10 ** (-k / 2)))
            assert chain._drains(ts)
            result = chain.expected_rounds(ts, ts.labels[-1])
            if k / 2 >= infinite_from:
                assert result.is_infinite and PRECISION in result.condition_note
            elif k / 2 <= finite_from:
                expected, absorb, bound = ts.solution
                assert bound < 0.5
                assert (result.condition_note is None) is (bound <= chain.RESIDUAL_TOL)
                T = np.asarray(ts.T)
                exact = exact_solve(T, np.ones(len(T)))
                for x, want in zip(expected, exact):
                    assert abs(Fraction(float(x)) - want) <= Fraction(bound) * want
                exact = exact_solve(T, np.asarray(ts.R)[:, 0])
                for p, want in zip(absorb[:, 0], exact):
                    assert abs(Fraction(float(p)) - want) <= Fraction(bound)

    def test_solve_that_is_not_positive_certifies_nothing(self):
        # rows summing to 1 + 1e-10 pass validate, yet T's spectral radius is
        # above one: LU returns E = -1e10 with a tiny residual, which proves nothing
        P = np.array([[1.0, 0.0, 0.0], [1e-12, 0.5, 0.5 + 1e-10], [0.0, 0.5 + 1e-10, 0.5]])
        c = chain.MarkovChain(("0", "a", "b"), P, frozenset({0}))
        chain.validate(c)
        ts = chain.extract_transient(c)
        assert chain._drains(ts)
        result = chain.expected_rounds(ts, "a")
        assert result.is_infinite and PRECISION in result.condition_note

    def test_error_bound_covers_a_perturbed_split(self):
        # the capture probabilities of the 6-cycle at c = 0.01 (E = 1e6), each
        # moved by 1e-6: the residual sees only c * 1e-6, yet the bound covers it
        ts = chain.extract_transient(
            families.cycle_chain(6, families.SpinnerThree(0.01, 0.99, 0.0))
        )
        expected, absorb, bound = ts.solution
        X = np.column_stack([expected, absorb + 1e-6])
        B = np.column_stack([np.ones(len(expected)), ts.R])
        assert bound < 1e-8
        assert chain._error_bound(ts, X, B) >= 1e-6

    @pytest.mark.parametrize("bound,finite", [(0.5, True), (1.0, False), (2.0, False)])
    def test_lu_answer_is_kept_only_below_one(self, monkeypatch, bound, finite):
        monkeypatch.setattr(chain, "_error_bound", lambda ts, X, B: bound)
        ts = chain.extract_transient(ruin_chain(0.4))
        result = chain.expected_rounds(ts, "1")
        assert result.is_infinite is not finite
        if finite:
            assert result.condition_note == "certified error at most 0.5"
        else:
            assert PRECISION in result.condition_note

    def test_large_finite_e_carries_its_bound(self):
        # the 6-cycle at c = 1e-4: E is 1e12, finite, with its bound as the note
        ts = chain.extract_transient(
            families.cycle_chain(6, families.SpinnerThree(1e-4, 1 - 1e-4, 0.0))
        )
        result = chain.expected_rounds(ts, ts.labels[-1])
        assert result.value == pytest.approx(1e12, rel=1e-3)
        assert chain.RESIDUAL_TOL < ts.solution[2] < 0.01
        assert result.condition_note == f"certified error at most {ts.solution[2]:.2g}"

    def test_error_bound_holds_on_near_singular_chains(self):
        # random chains of 2-6 states whose exits carry 1e-1 ... 1e-16 of a row:
        # every kept LU answer, E and the capture probability, is within its
        # bound of the exact rational solve
        rng = np.random.default_rng(11)
        kept = refused = 0
        for _ in range(400):
            n = int(rng.integers(2, 7))
            T = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
            for i in np.flatnonzero(T.sum(axis=1) == 0):
                T[i, (i + 1) % n] = 1.0
            T /= T.sum(axis=1, keepdims=True)
            exits = rng.random(n) < 0.3
            exits[rng.integers(n)] = True
            T[exits] *= 1 - 10 ** -rng.uniform(1, 16)
            R = (1.0 - T.sum(axis=1))[:, None]
            ts = chain.TransientSystem(tuple("abcdef"[:n]), T, R, ("0",))
            if not chain._drains(ts):
                continue
            solved = ts.solution
            if solved is None:
                refused += 1
                continue
            kept += 1
            expected, absorb, bound = solved
            for x, want in zip(expected, exact_solve(T, np.ones(n))):
                assert want > 0
                assert abs(Fraction(float(x)) - want) <= Fraction(bound) * want
            for p, want in zip(absorb[:, 0], exact_solve(T, R[:, 0])):
                assert abs(Fraction(float(p)) - want) <= Fraction(bound)
        assert kept > 100 and refused > 10

    def test_dense_search_reads_each_non_zero_once_at_depth(self):
        # the dense counterpart: a 4,000-state path stepping one state down at a
        # time drains, and with one step down cut the states above it never do;
        # one boolean mat-vec per level would take 4,000 passes over 16 M entries
        n = 4_000
        T = np.diag(np.full(n - 1, 0.5), -1) + np.eye(n) * 0.5
        R = np.zeros((n, 1))
        R[0, 0] = 0.5
        labels = tuple(map(str, range(n)))
        assert chain._drains(chain.TransientSystem(labels, T, R, ("0",)))
        closed = T.copy()
        closed[n - 2, n - 3] = 0.0
        assert not chain._drains(chain.TransientSystem(labels, closed, R, ("0",)))

    def test_sparse_search_reads_each_column_once_at_depth(self):
        # a 20,000-state path stepping one state down at a time, exit at the bottom,
        # drains; with an explicit zero in place of one step down, the states
        # above it never drain
        n = 20_000
        down = scipy.sparse.diags_array([np.full(n - 1, 0.5)], offsets=[-1], shape=(n, n))
        T = scipy.sparse.csr_array(down + scipy.sparse.eye_array(n) * 0.5)
        R = np.zeros((n, 1))
        R[0, 0] = 0.5
        labels = tuple(map(str, range(n)))
        assert chain._drains(chain.TransientSystem(labels, T, R, ("0",)))
        closed = T.copy()
        row = slice(closed.indptr[n - 2], closed.indptr[n - 1])
        closed.data[row][closed.indices[row] == n - 3] = 0.0
        assert closed.nnz == T.nnz  # the step down stays stored, as an explicit zero
        assert not chain._drains(chain.TransientSystem(labels, closed, R, ("0",)))
