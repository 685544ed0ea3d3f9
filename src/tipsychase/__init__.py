"""Absorbing Markov-chain models of tipsy pursuit games on graphs.

A cop chases a robber on a connected graph; each round a spinner picks
one player and whether the move is sober (directed) or tipsy (uniformly
random).  This package builds the distance-state chains for the classic
graph families, evaluates survival probabilities, expected game lengths
and escape probabilities (including time- and distance-varying
tipsiness), and verifies every hand-built chain against an exact joint
-position chain and a seeded Monte-Carlo simulation.
"""

from .chain import (
    INFINITE,
    ExpectationResult,
    MarkovChain,
    TransientSystem,
    absorption_split,
    expected_rounds,
    extract_transient,
    survival_probability,
    survival_vector,
    transition_probability,
    validate,
)
from .closedform import (
    capture_probability,
    escape_probability,
    expected_rounds_closed,
    expected_rounds_degree_limit,
    expected_rounds_unbounded,
    up_probability,
)
from .families import (
    SpinnerFour,
    SpinnerThree,
    cycle_chain,
    friendship_chain,
    petersen_chain,
    toroidal7_chain,
    tree_chain,
)
from .graphs import (
    Graph,
    build_graph,
    cycle_graph,
    friendship_graph,
    generate_family,
    load_edge_list,
    parse_edge_list,
    petersen_graph,
    torus_grid,
    truncated_tree,
)
from .joint import (
    Lumping,
    StrategyRules,
    build_joint_chain,
    distance_lumping,
    friendship_lumping,
    lump,
    sparse_joint_chain,
    standard_rules,
    torus_lumping,
    torus_rules,
)
from .montecarlo import SimConfig, SimReport, run
from .schedules import (
    DistanceSchedule,
    SeriesResult,
    SoberSplit,
    TimeSchedule,
    distance_cycle_chain,
    distance_tree_chain,
    parse_schedule,
    time_varying_expectation,
    time_varying_expectation_all,
    time_varying_survival,
    time_varying_survival_all,
)

__version__ = "0.1.0"
