import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.linalg import bicgstab

from conftest import random_connected_graph, random_spinner3, random_spinner4
from tipsychase import chain, families, graphs, joint
from tipsychase.errors import Divergent, GraphTooLarge, InvalidParameter, NotLumpable


def entry(c, g, from_pair, to_pair):
    return c.P[joint.pair_index(g, *from_pair), joint.pair_index(g, *to_pair)]


class TestBuildJointChain:
    def test_friendship_hub_cop_moves(self):
        # cop at the hub of 3 triangles, robber on an outer vertex: each of
        # the 6 tipsy-cop targets carries t_c/6; four of them land at
        # distance 2, one on the robber's edge partner, one captures
        g = graphs.friendship_graph(3)
        s = families.SpinnerFour(c=0.1, r=0.2, t_c=0.3, t_r=0.4)
        c = joint.build_joint_chain(g, s, joint.standard_rules())
        cop, robber = 0, 1  # hub, first triangle
        partner = 2
        assert entry(c, g, (cop, robber), (robber, robber)) == pytest.approx(
            s.c + s.t_c / 6, abs=1e-12
        )  # sober cop walks onto him, tipsy cop stumbles onto him
        assert entry(c, g, (cop, robber), (partner, robber)) == pytest.approx(
            s.t_c / 6, abs=1e-12
        )
        for far in (3, 4, 5, 6):
            assert entry(c, g, (cop, robber), (far, robber)) == pytest.approx(
                s.t_c / 6, abs=1e-12
            )
            assert g.distance[far, robber] == 2

    def test_friendship_hub_robber_capture_mass(self):
        # robber at the hub: one of his 6 tipsy targets is the cop's vertex
        g = graphs.friendship_graph(3)
        s = families.SpinnerFour(c=0.1, r=0.2, t_c=0.3, t_r=0.4)
        c = joint.build_joint_chain(g, s, joint.standard_rules())
        cop, robber = 1, 0
        capture = entry(c, g, (cop, robber), (cop, cop)) + entry(
            c, g, (cop, robber), (0, 0)
        )
        # sober cop steps onto the hub, tipsy cop half the time, tipsy
        # robber walks into the cop with mass t_r/6
        assert capture == pytest.approx(s.c + s.t_c / 2 + s.t_r / 6, abs=1e-12)

    def test_single_edge_sober_cop(self):
        g = graphs.build_graph(2, [(0, 1)])
        c = joint.build_joint_chain(
            g, families.SpinnerFour(c=1.0, r=0.0, t_c=0.0, t_r=0.0), joint.standard_rules()
        )
        assert entry(c, g, (0, 1), (1, 1)) == 1.0
        assert entry(c, g, (1, 0), (0, 0)) == 1.0

    def test_capture_states_absorb(self):
        g = graphs.cycle_graph(5)
        c = joint.build_joint_chain(
            g, families.SpinnerFour(0.25, 0.25, 0.25, 0.25), joint.standard_rules()
        )
        for v in range(5):
            i = joint.pair_index(g, v, v)
            assert i in c.absorbing
            assert c.P[i, i] == 1.0

    def test_random_graphs_validate(self, rng):
        for _ in range(8):
            g = random_connected_graph(rng, int(rng.integers(4, 13)))
            s = random_spinner4(rng)
            chain.validate(joint.build_joint_chain(g, s, joint.standard_rules()))

    def test_state_cap(self):
        g = graphs.cycle_graph(12)
        with pytest.raises(GraphTooLarge):
            joint.build_joint_chain(
                g, families.SpinnerFour(0.25, 0.25, 0.25, 0.25),
                joint.standard_rules(), state_cap=100,
            )

    def test_dense_byte_cap_refuses_before_allocating(self, monkeypatch):
        # 40,000 states pass the state cap, but a dense P would take 12.8 GB
        g = graphs.cycle_graph(200)
        s = families.SpinnerFour(0.25, 0.25, 0.25, 0.25)
        assert (g.vertex_count**2) ** 2 * 8 > chain.DENSE_BYTE_CAP

        def no_assembly(*args):
            raise AssertionError("assembled before the size check")

        with monkeypatch.context() as patch:
            patch.setattr(joint, "_assemble", no_assembly)
            with pytest.raises(GraphTooLarge):
                joint.build_joint_chain(g, s, joint.standard_rules())
        sparse = joint.sparse_joint_chain(g, s, joint.standard_rules())
        assert sparse.n_states == 40_000
        # four cells a row, five on the 200 antipodal rows (where the sober
        # robber stays put) and one on each of the 200 capture rows
        assert sparse.P.nnz == 4 * 39_600 + 5 * 200 + 200


class TestLumping:
    def test_cycle_matches_hand_chain(self, rng):
        for n in (3, 4, 5, 6, 7, 8, 11, 12):
            g = graphs.cycle_graph(n)
            lumping = joint.distance_lumping(g)
            s = random_spinner3(rng)
            lumped = joint.lump(
                joint.build_joint_chain(g, s.as_four(), joint.standard_rules()), lumping
            )
            hand = families.cycle_chain(n, s)
            assert lumped.state_labels == hand.state_labels
            assert np.abs(lumped.P - hand.P).max() < 1e-9

    def test_petersen_matches_hand_chain(self, rng):
        g = graphs.petersen_graph()
        lumping = joint.distance_lumping(g)
        for _ in range(5):
            s = random_spinner3(rng)
            lumped = joint.lump(
                joint.build_joint_chain(g, s.as_four(), joint.standard_rules()), lumping
            )
            assert np.abs(lumped.P - families.petersen_chain(s).P).max() < 1e-9

    def test_friendship_matches_hand_chain(self, rng):
        for n in (2, 3, 4, 5, 6):
            g = graphs.friendship_graph(n)
            lumping = joint.friendship_lumping(g)
            s = random_spinner4(rng)
            lumped = joint.lump(
                joint.build_joint_chain(g, s, joint.standard_rules()), lumping
            )
            hand = families.friendship_chain(n, s)
            assert lumped.state_labels == hand.state_labels
            assert np.abs(lumped.P - hand.P).max() < 1e-9

    def test_torus_matches_hand_chain(self, rng):
        g = graphs.torus_grid(7, 7)
        lumping = joint.torus_lumping(g, 7, 7)
        s = random_spinner3(rng)
        lumped = joint.lump(
            joint.build_joint_chain(g, s.as_four(), joint.torus_rules(7, 7)), lumping
        )
        hand = families.toroidal7_chain(s)
        assert lumped.state_labels == hand.state_labels
        assert np.abs(lumped.P - hand.P).max() < 1e-9

    def test_torus_needs_the_axis_tie_break(self):
        # with plain uniform tie-breaking the lumped chain is still Markov
        # (orbit partition) but differs from the reference chain
        g = graphs.torus_grid(7, 7)
        s = families.SpinnerThree(c=0.3, r=0.4, t=0.3)
        lumped = joint.lump(
            joint.build_joint_chain(g, s.as_four(), joint.standard_rules()),
            joint.torus_lumping(g, 7, 7),
        )
        assert np.abs(lumped.P - families.toroidal7_chain(s).P).max() > 0.01

    def test_bad_partition_raises(self):
        g = graphs.cycle_graph(6)
        s = families.SpinnerThree(c=0.3, r=0.3, t=0.4)
        c = joint.build_joint_chain(g, s.as_four(), joint.standard_rules())
        good = joint.distance_lumping(g)
        # merge distances 1 and 2: not exact
        merged = np.array([0, 1, 1, 2])[good.class_of]
        bad = joint.Lumping(("0", "1", "3"), merged)
        with pytest.raises(NotLumpable):
            joint.lump(c, bad)

    def test_lumping_must_cover_chain(self):
        g = graphs.cycle_graph(4)
        s = families.SpinnerThree(c=0.3, r=0.3, t=0.4)
        c = joint.build_joint_chain(g, s.as_four(), joint.standard_rules())
        with pytest.raises(InvalidParameter, match="does not cover"):
            joint.lump(c, joint.Lumping(("0",), np.zeros(4, dtype=int)))

    def test_representative(self):
        g = graphs.friendship_graph(3)
        lumping = joint.friendship_lumping(g)
        pair = lumping.representative("1rc")
        cop, robber = divmod(pair, g.vertex_count)
        assert robber == 0 and cop != 0


def _torus_label(m, n, cop, robber):
    du, dv = abs(cop // n - robber // n), abs(cop % n - robber % n)
    a, b = min(du, m - du), min(dv, n - dv)
    return f"({max(a, b)},{min(a, b)})"


def _friendship_label(g, cop, robber):
    if g.distance[cop, robber] == 2:
        return "2"
    return "1cc" if cop == 0 else "1rc" if robber == 0 else "1e"


LUMPING_CASES = [
    *[(f"cycle{n}", lambda n=n: graphs.cycle_graph(n), joint.distance_lumping,
       lambda g, c, r: str(g.distance[c, r])) for n in range(3, 14)],
    ("petersen", graphs.petersen_graph, joint.distance_lumping,
     lambda g, c, r: str(g.distance[c, r])),
    *[(f"friendship{n}", lambda n=n: graphs.friendship_graph(n), joint.friendship_lumping,
       _friendship_label) for n in range(1, 7)],
    *[(f"torus{m}x{n}", lambda m=m, n=n: graphs.torus_grid(m, n),
       lambda g, m=m, n=n: joint.torus_lumping(g, m, n),
       lambda g, c, r, m=m, n=n: _torus_label(m, n, c, r)) for m, n in ((4, 6), (5, 8))],
    ("tree3_4", lambda: graphs.truncated_tree(3, 4), joint.distance_lumping,
     lambda g, c, r: str(g.distance[c, r])),
]


@pytest.mark.parametrize("name,make_graph,make_lumping,label",
                         LUMPING_CASES, ids=[case[0] for case in LUMPING_CASES])
def test_lumping_matches_per_pair_labels(name, make_graph, make_lumping, label):
    # each hand lumping against a plain labelling written pair by pair
    g = make_graph()
    V = g.vertex_count
    want = [label(g, c, r) if c != r else "0" for c in range(V) for r in range(V)]
    lumping = make_lumping(g)
    assert not lumping.class_of.flags.writeable
    got = np.asarray(lumping.class_order, dtype=object)[lumping.class_of]
    assert got.tolist() == want
    with pytest.raises(InvalidParameter, match="not class indices"):
        joint.Lumping(lumping.class_order, tuple(want))
    for cls in lumping.class_order:  # the first pair in row-major order
        if cls in want:
            assert lumping.representative(cls) == want.index(cls)
        else:  # "2" on the one-triangle friendship graph
            with pytest.raises(InvalidParameter, match=f"no state in class '{cls}'"):
                lumping.representative(cls)
    c = joint.sparse_joint_chain(g, families.SpinnerFour(0.25, 0.25, 0.25, 0.25),
                                 joint.standard_rules())
    for bad in (-1, len(lumping.class_order)):
        class_of = lumping.class_of.copy()
        class_of[V] = bad
        with pytest.raises(InvalidParameter, match="class index out of range"):
            joint.lump(c, joint.Lumping(lumping.class_order, class_of))


class TestTipsyEquivalence:
    # on vertex-transitive graphs a tipsy cop round and a tipsy robber
    # round induce the same lumped distance chain
    @pytest.mark.parametrize(
        "make",
        [
            lambda: (graphs.cycle_graph(6), joint.distance_lumping(graphs.cycle_graph(6)), joint.standard_rules()),
            lambda: (graphs.petersen_graph(), joint.distance_lumping(graphs.petersen_graph()), joint.standard_rules()),
            lambda: (graphs.torus_grid(5, 5), joint.torus_lumping(graphs.torus_grid(5, 5), 5, 5), joint.torus_rules(5, 5)),
        ],
    )
    def test_tipsy_only_chains_match(self, make):
        g, lumping, rules = make()
        cop_only = joint.lump(
            joint.build_joint_chain(g, families.SpinnerFour(0, 0, 1.0, 0), rules), lumping
        )
        robber_only = joint.lump(
            joint.build_joint_chain(g, families.SpinnerFour(0, 0, 0, 1.0), rules), lumping
        )
        assert np.abs(cop_only.P - robber_only.P).max() < 1e-12


def test_survival_monotone_from_joint_states(rng):
    g = random_connected_graph(rng, 8)
    s = random_spinner4(rng)
    c = joint.build_joint_chain(g, s, joint.standard_rules())
    ts = chain.extract_transient(c)
    d = ts.labels[0]
    values = [chain.survival_probability(ts, d, m) for m in range(8)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


SPARSE_TOL = 1e-10  # relative; sparse (BiCGSTAB) against dense LU


def _sample_graph(seed):
    return random_connected_graph(np.random.default_rng(seed), 9)


# name -> (graph, rules) builders for the sparse-versus-dense comparisons
SOLVE_CASES = {
    **{f"random{seed}": (lambda seed=seed: (_sample_graph(seed), joint.standard_rules()))
       for seed in (1, 2, 3)},
    **{f"cycle{n}": (lambda n=n: (graphs.cycle_graph(n), joint.standard_rules()))
       for n in (4, 7, 10)},
    "petersen": lambda: (graphs.petersen_graph(), joint.standard_rules()),
    "friendship4": lambda: (graphs.friendship_graph(4), joint.standard_rules()),
    **{f"torus{m}{kind}": (lambda m=m, kind=kind: (
        graphs.torus_grid(m, m),
        joint.torus_rules(m, m) if kind == "axis" else joint.standard_rules()))
       for m in (5, 7) for kind in ("axis", "std")},
}


def _both(name, s):
    g, rules = SOLVE_CASES[name]()
    dense = chain.extract_transient(joint.build_joint_chain(g, s, rules))
    sparse = chain.extract_transient(joint.sparse_joint_chain(g, s, rules))
    assert sparse.labels == dense.labels
    return dense, sparse


def _rel(a, b):
    return np.abs(a - b) / np.maximum(np.abs(b), np.finfo(float).tiny)


class TestSparseSolve:
    @pytest.mark.parametrize("name", sorted(SOLVE_CASES))
    def test_matches_dense_lu(self, name):
        s = random_spinner4(np.random.default_rng(sorted(SOLVE_CASES).index(name)))
        dense, sparse = _both(name, s)
        assert sparse.solution[1] is None  # solved by BiCGSTAB, not the dense fallback
        E_dense = np.array([chain.expected_rounds(dense, d).value for d in dense.labels])
        E_sparse = np.array([chain.expected_rounds(sparse, d).value for d in sparse.labels])
        assert np.isfinite(E_dense).all()
        assert _rel(E_sparse, E_dense).max() <= SPARSE_TOL
        for m in (0, 1, 7, 50):
            G_dense = chain.survival_vector(dense, m)
            assert _rel(chain.survival_vector(sparse, m), G_dense).max() <= SPARSE_TOL

    @pytest.mark.parametrize("name", ["cycle7", "petersen", "torus5axis"])
    def test_fleeing_robber_reads_infinite_on_both_paths(self, name):
        s = families.SpinnerFour(c=0.0, r=1.0, t_c=0.0, t_r=0.0)
        dense, sparse = _both(name, s)
        assert sparse.solution is None  # decided from structure, no solve
        for ts in (dense, sparse):
            assert all(chain.expected_rounds(ts, d).is_infinite for d in ts.labels)
        with pytest.raises(Divergent):
            chain.absorption_split(sparse, sparse.labels[0])

    def test_transition_probability_matches_dense(self):
        g = graphs.cycle_graph(7)
        s = families.SpinnerFour(0.3, 0.4, 0.15, 0.15)
        dense = joint.build_joint_chain(g, s, joint.standard_rules())
        sparse = joint.sparse_joint_chain(g, s, joint.standard_rules())
        for rounds in (0, 1, 7, 50):
            for i, j in ((1, 0), (3, 3), (3, 10), (10, 24)):
                want = chain.transition_probability(dense, i, j, rounds)
                got = chain.transition_probability(sparse, i, j, rounds)
                assert abs(got - want) <= SPARSE_TOL * max(want, 1e-300)

    def test_absorption_split_matches_dense(self):
        dense, sparse = _both("petersen", families.SpinnerFour(0.3, 0.4, 0.15, 0.15))
        for d in dense.labels[:12]:
            want = chain.absorption_split(dense, d)
            got = chain.absorption_split(sparse, d)
            assert list(got) == list(want)
            assert max(abs(got[k] - want[k]) for k in want) <= SPARSE_TOL

    def test_near_singular_chain_falls_back_to_dense_lu(self, monkeypatch):
        # every state drains, but neither BiCGSTAB nor dense LU bounds E's relative error
        s = families.SpinnerFour(c=0.001, r=0.999, t_c=0.0, t_r=0.0)
        fallbacks = []
        dense_solve = chain._dense_lu_solve
        monkeypatch.setattr(
            chain, "_dense_lu_solve", lambda ts: fallbacks.append(1) or dense_solve(ts)
        )
        dense, sparse = _both("torus7axis", s)
        assert dense.solution is None
        assert sparse.solution is None
        assert fallbacks == [1]
        assert chain._drains(sparse)
        for d in sparse.labels:
            result = chain.expected_rounds(sparse, d)
            assert result.is_infinite and "cannot resolve E" in result.condition_note

    def test_unresolved_split_of_a_resolved_chain_says_so(self, monkeypatch):
        # BiCGSTAB resolves E, but the dense solve for the split is refused
        _, sparse = _both("torus5axis", families.SpinnerFour(0.3, 0.4, 0.15, 0.15))
        monkeypatch.setattr(chain, "_dense_lu_solve", lambda ts: None)
        d = sparse.labels[0]
        assert not chain.expected_rounds(sparse, d).is_infinite
        with pytest.raises(Divergent, match="E is resolved, but the dense solve for the "
                                            "absorption split"):
            chain.absorption_split(sparse, d)

    def test_failed_residual_check_reads_as_dense_lu(self, monkeypatch):
        monkeypatch.setattr(chain, "KRYLOV_MAXITER", 1)
        dense, sparse = _both("torus5axis", families.SpinnerFour(0.3, 0.4, 0.15, 0.15))
        expected, absorb, _ = sparse.solution
        assert absorb is not None  # the dense fallback solved every column
        assert np.array_equal(expected, dense.solution[0])
        assert np.array_equal(absorb, dense.solution[1])

    def test_loose_krylov_answer_reads_as_dense_lu(self, monkeypatch):
        # BiCGSTAB stopped after 4 iterations: its answer is bounded (to about
        # 2e-3), but not within RESIDUAL_TOL, so the dense fallback solves the chain
        monkeypatch.setattr(chain, "KRYLOV_MAXITER", 4)
        dense, sparse = _both("torus5axis", families.SpinnerFour(0.3, 0.4, 0.15, 0.15))
        ones = np.ones(sparse.n_transient)
        x, _ = bicgstab(scipy.sparse.eye_array(sparse.n_transient) - sparse.T, ones,
                        atol=chain.KRYLOV_TOL, rtol=0.0, maxiter=4)
        assert chain.RESIDUAL_TOL < chain._error_bound(sparse, x[:, None], ones[:, None]) < 1
        expected, absorb, bound = sparse.solution
        assert absorb is not None and bound <= chain.RESIDUAL_TOL
        assert np.array_equal(expected, dense.solution[0])

    def test_dense_fallback_respects_byte_cap(self, monkeypatch):
        monkeypatch.setattr(chain, "KRYLOV_MAXITER", 1)
        monkeypatch.setattr(chain, "DENSE_BYTE_CAP", 1000)
        g = graphs.cycle_graph(6)
        ts = chain.extract_transient(
            joint.sparse_joint_chain(g, families.SpinnerFour(0.3, 0.4, 0.15, 0.15),
                                     joint.standard_rules())
        )
        with pytest.raises(GraphTooLarge):
            chain.expected_rounds(ts, ts.labels[0])
