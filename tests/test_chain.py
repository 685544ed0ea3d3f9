import math

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
        expected, absorb = ts.solution
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
