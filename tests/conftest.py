"""Every test starts with an empty bound-function memo, as a fresh process
does: a test that counts or watches the passes of ``bounds._bound_fn`` sees
its own passes, never values an earlier test left in the memo."""

import pytest

from peanoquad.bounds import _memo


@pytest.fixture(autouse=True)
def fresh_bound_memo():
    _memo.cache_clear()
