import pathlib
import random
import sys
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
    handle order, every handle's slot lies inside the counts, every
    child is a terminal or a stored node, no count is negative, and a
    slot that holds no live node, terminals apart, counts 0."""
    nodes = m._node
    refs = m._refs
    assert list(nodes) == sorted(nodes)
    var_level = m._var_level
    level = {u: var_level[key[0]] for u, key in nodes.items()}
    level[0] = level[1] = m.n
    tables = [{} for _ in range(m.n)]
    counts = Counter(m.registered_roots)
    for u, key in nodes.items():
        assert 2 <= u & _SLOT < len(refs), u
        var, lo, hi = key
        assert lo != hi
        assert lo in level and hi in level, (u, key)
        assert level[u] < min(level[lo], level[hi]), (u, key)
        tables[var][key] = u
        counts[lo] += 1
        counts[hi] += 1
    assert m._unique == tables
    assert all(c >= 0 for c in refs), min(refs)
    live = {u & _SLOT for u in nodes}
    for slot in range(2, len(refs)):
        if slot not in live:
            assert refs[slot] == 0, slot
    for u in [0, 1, *nodes]:
        assert refs[u & _SLOT] == counts[u], u


class Interrupt(BaseException):
    """Raised by ``interrupt_at``'s trace function; nothing catches it."""


def interrupt_at(k, codes, operation):
    """Call ``operation()`` under a trace function that raises Interrupt
    once, at the k-th line event (counting from 1) of any frame running
    one of ``codes``.  Returns ``(result, lines)``: the call's result,
    or None when it was interrupted, and the line events counted."""
    lines = 0

    def in_code(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
            if lines == k:
                raise Interrupt
        return in_code

    outer = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 in_code if frame.f_code in codes else None)
    try:
        result = operation()
    except Interrupt:
        result = None
    finally:
        sys.settrace(outer)
    return result, lines
