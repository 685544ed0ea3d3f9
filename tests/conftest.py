import numpy as np
import pytest

from tipsychase import families, graphs


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


def random_spinner3(rng) -> families.SpinnerThree:
    c, r, t = rng.dirichlet([1.0, 1.0, 1.0])
    return families.SpinnerThree(c=float(c), r=float(r), t=float(t))


def random_spinner4(rng) -> families.SpinnerFour:
    c, r, tc, tr = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
    return families.SpinnerFour(c=float(c), r=float(r), t_c=float(tc), t_r=float(tr))


def random_connected_graph(rng, n: int) -> graphs.Graph:
    """Erdos-Renyi sample on n vertices, resampled until connected."""
    while True:
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        try:
            return graphs.build_graph(n, edges)
        except Exception:
            continue


# Chain builders over a 3-way spinner, one per family; friendship splits
# the tipsy mass evenly between the players.
FAMILY_BUILDERS = {
    "cycle6": lambda s: families.cycle_chain(6, s),
    "cycle7": lambda s: families.cycle_chain(7, s),
    "petersen": families.petersen_chain,
    "friendship": lambda s: families.friendship_chain(5, s.as_four()),
    "torus7": families.toroidal7_chain,
    "tree": lambda s: families.tree_chain(4, 10, s),
}
