import pytest

from drinfeldforms.cocycles import CocycleSpace
from drinfeldforms.groups import group_context
from drinfeldforms.hecke import HeckeEngine


class EngineCache:
    """Build-once cache of solved spaces and Hecke engines per (q, n, k)."""

    def __init__(self):
        self._spaces = {}
        self._engines = {}

    def space(self, q, n, k):
        key = (q, n, k)
        if key not in self._spaces:
            self._spaces[key] = CocycleSpace(group_context(q, n), k)
        return self._spaces[key]

    def engine(self, q, n, k):
        key = (q, n, k)
        if key not in self._engines:
            self._engines[key] = HeckeEngine(self.space(q, n, k))
        return self._engines[key]


@pytest.fixture(scope="session")
def cache():
    return EngineCache()
