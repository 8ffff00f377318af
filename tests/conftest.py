import pytest
from hypothesis import settings

from mixsweep import analysis, space, surrogate


@pytest.fixture(scope="session")
def all_setups():
    return space.enumerate_all()


@pytest.fixture(scope="session")
def surrogate_results(all_setups):
    """Noiseless default-fixture dataset over the full grid, ingested."""
    records = surrogate.generate_dataset(all_setups, surrogate.SurrogateParams())
    return analysis.ingest(records, all_setups)


# One fixed, derandomized profile keeps the property tests deterministic and bounded.
settings.register_profile(
    "mixsweep", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("mixsweep")
