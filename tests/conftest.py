"""Every test starts with an empty bound-function memo and no shared
catalog rule, as a fresh process does: a test that counts or watches the
passes of ``bounds._bound_fn`` sees its own passes, never values an earlier
test left in the memo, and a rule from ``make_rule`` carries no kernel or
report that an earlier test kept on it."""

import pytest

from peanoquad.bounds import _memo
from peanoquad.rules import _SHARED


@pytest.fixture(autouse=True)
def fresh_memos():
    _memo.cache_clear()
    _SHARED.clear()
