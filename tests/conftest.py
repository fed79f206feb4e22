import time

import pytest

import ringgraph as rg
from ringgraph import rings


@pytest.fixture(scope="session")
def catalog64():
    t0 = time.perf_counter()
    catalog = rg.build_catalog(64)
    print(f"\n[catalog max_order=64: {len(catalog.entries)} entries, "
          f"built in {time.perf_counter() - t0:.2f}s]")
    return catalog


@pytest.fixture(scope="session")
def entries32(catalog64):
    return tuple(e for e in catalog64.entries if e.ring.order <= 32)


@pytest.fixture
def cold_ring_cache():
    """Empty the `make_ring` registry, so the test builds its rings afresh."""
    rings._RINGS.clear()
