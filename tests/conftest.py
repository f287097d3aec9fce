import pathlib
import random
from collections import Counter

import pytest

from bddinfo import BddManager
from bddinfo.manager import _SLOT

DATA = pathlib.Path(__file__).parent / "data"

EXAMPLE1_VECTOR = "10001111"   # f = x1 or (not x2 and not x3)

# Frozen via the truth-table oracle (tests/test_oracle.py re-derives them).
H_F = 0.954434002924965
H_F_X1 = 0.4056390622295664
H_F_X2 = 0.9056390622295664
H_F_X1X2 = 0.25


@pytest.fixture
def example1():
    manager = BddManager(3)
    root = manager.build_from_truth_vector(EXAMPLE1_VECTOR)
    manager.register_root(root)
    return manager, root


def random_function(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(1 << n))


@pytest.fixture
def rng():
    return random.Random(0xBDD)


def assert_manager_consistent(m: BddManager) -> None:
    """Rebuild the per-variable unique tables and the reference counts
    (parent nodes plus root registrations) from the node store and
    compare them with the manager's own.  The store also iterates in
    handle order, and every handle's slot lies inside the counts."""
    assert list(m._node) == sorted(m._node)
    tables = [{} for _ in range(m.n)]
    counts = Counter(m.registered_roots)
    for u, key in m._node.items():
        assert 2 <= u & _SLOT < len(m._refs), u
        var, lo, hi = key
        assert lo != hi
        assert m.level_of(u) < min(m.level_of(lo), m.level_of(hi))
        tables[var][key] = u
        counts[lo] += 1
        counts[hi] += 1
    assert m._unique == tables
    for u in [0, 1, *m._node]:
        assert m._refs[u & _SLOT] == counts[u], u
