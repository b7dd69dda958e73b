import pytest
from hypothesis import settings

from gpcn.ensembles import desk_hierarchy, make_hierarchy
from gpcn.graphs import make_tube
from gpcn.numcore import seeded_rng
from gpcn.simulator import Dataset, SimConfig, build_geometry, desk_strength_grid, generate_dataset

# property tests draw the same examples on every run and keep no example database
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def tiny_hierarchy():
    """Three small tubes (30/15/6 nodes) for fast multiscale model tests."""
    return make_hierarchy([make_tube(6, 5, 1), make_tube(3, 5, 1), make_tube(3, 2, 0)])


@pytest.fixture(scope="session")
def desk_hier():
    return desk_hierarchy()


@pytest.fixture(scope="session")
def desk_dataset():
    """The 9-run desk benchmark: Tube(12,13,3), two association strengths varied."""
    model = build_geometry(12, 13, 3)
    return model, generate_dataset(model, desk_strength_grid(), SimConfig(), seed=11)


def synthetic_dataset(n_frames=24, n_nodes=30, n_features=4, seed=0):
    """Random frames shaped like simulator output, for fast trainer tests."""
    rng = seeded_rng(seed)
    x = rng.normal(size=(n_frames, n_nodes, n_features))
    w = rng.normal(size=(n_features, 1))
    y = x @ w + 0.1 * rng.normal(size=(n_frames, n_nodes, 1))
    return Dataset(
        x=x,
        y=y,
        column_names=[f"f{i}" for i in range(n_features)],
        manifest={"seed": seed, "synthetic": True},
    )


@pytest.fixture()
def small_dataset():
    return synthetic_dataset()
