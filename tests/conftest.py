"""Every test starts without shared modules.

simple_gl2 and standard_gld hand out one instance per argument, and every
result memoized on an instance (tensor products, braided squares, power
levels) lives on it.  Clearing the two caches drops all of it, so a test
that patches a builder sees it called, whatever ran before."""

import pytest

from braidpow.uqmod import simple_gl2, standard_gld


@pytest.fixture(autouse=True)
def fresh_shared_modules():
    simple_gl2.cache_clear()
    standard_gld.cache_clear()
