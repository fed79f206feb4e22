import os
import sys
import time
import types

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


@pytest.fixture(params=[False, True], ids=["serial", "forked"])
def chain_split(request, monkeypatch, cold_ring_cache):
    """`autsearch._stabilizer_chains` made to search serially, or to fork its
    child, by the CPUs `os.sched_getaffinity` reports, on rings built afresh.

    `pids` collects the pid of every child forked while the test runs.
    """
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: {0, 1} if request.param else {0}, raising=False
    )
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return types.SimpleNamespace(forked=request.param, pids=pids)


# the split forks only on Linux; elsewhere `_stabilizer_chains` is the serial loop
forks_here = sys.platform.startswith("linux") and hasattr(os, "fork")
