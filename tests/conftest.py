import sys
from pathlib import Path

import pytest

from gsblab import spectral

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def chain_cores(monkeypatch):
    """Set the usable core count that spectral.parallel_map reads; each count gets a new pool."""
    pool = spectral._pool

    def fresh_pool():
        if pool.cache_info().currsize:
            pool().shutdown()
        pool.cache_clear()

    def set_cores(n):
        monkeypatch.setattr(spectral, "_usable_cores", lambda: n)
        fresh_pool()

    yield set_cores
    fresh_pool()
