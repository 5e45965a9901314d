import pytest

from nmcode import perm


@pytest.fixture(autouse=True)
def _fresh_seed_tables():
    """Each test starts and ends with no memoised seed table, so no result
    depends on test order or on a table built before a monkeypatch."""
    perm.seed_table.cache_clear()
    yield
    perm.seed_table.cache_clear()
