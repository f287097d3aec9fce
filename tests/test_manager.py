import functools
import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddinfo import (
    AND, ONE, OR, XOR, ZERO,
    BddManager, InputError, ManagerMismatchError, NodeLimitError,
    OrderingError, TruthTable, UsageError, VarProbabilities, WeightError,
    bdd_size_for_order, copy_function, entropy, enumerate_bdd, info_reorder,
    sift, window_permute,
)
from bddinfo.manager import _SLOT

from conftest import EXAMPLE1_VECTOR, assert_manager_consistent, random_function


def test_terminals_distinct():
    assert ZERO != ONE


def test_mk_node_redundant_test_collapses():
    m = BddManager(2)
    t = m.literal(1)
    assert m.mk_node(0, t, t) == t
    assert m.mk_node(0, ONE, ONE) == ONE


def test_mk_node_unique():
    m = BddManager(2)
    a = m.mk_node(0, ZERO, ONE)
    b = m.mk_node(0, ZERO, ONE)
    assert a == b
    assert m.literal(0) == a


def test_mk_node_ordering_violation():
    m = BddManager(2)
    lower = m.literal(1)
    with pytest.raises(OrderingError):
        m.mk_node(1, lower, ZERO)


def test_example1_build_has_three_nodes(example1):
    manager, root = example1
    assert manager.count_nodes([root]) == 3
    assert enumerate_bdd(manager, root).to_string() == EXAMPLE1_VECTOR


def test_apply_identities(example1):
    manager, root = example1
    assert manager.apply(AND, root, ONE) == root
    assert manager.apply(OR, root, ZERO) == root
    assert manager.apply(XOR, root, root) == ZERO
    assert manager.apply(AND, root, ZERO) == ZERO
    assert manager.apply(OR, root, ONE) == ONE


def test_apply_builds_example1_from_parts():
    m = BddManager(3)
    not_x2 = m.literal(1, phase=0)
    not_x3 = m.literal(2, phase=0)
    left = m.apply(AND, not_x3, not_x2)
    f = m.apply(OR, left, m.literal(0))
    assert enumerate_bdd(m, f).to_string() == EXAMPLE1_VECTOR


# Every entry point that takes a handle, given the handle under test.
_HANDLE_ENTRY_POINTS = {
    "mk_node lo": lambda m, r, h: m.mk_node(0, r, h),
    "mk_node hi": lambda m, r, h: m.mk_node(0, h, r),
    "apply": lambda m, r, h: m.apply(AND, h, r),
    "negate": lambda m, r, h: m.negate(r),
    "cofactor": lambda m, r, h: m.cofactor(r, 0, 1),
    "evaluate": lambda m, r, h: m.evaluate(r, [0, 0, 0]),
    "register_root": lambda m, r, h: m.register_root(r),
    "count_nodes": lambda m, r, h: m.count_nodes([h, r]),
    "node": lambda m, r, h: m.node(r),
    "entropy": lambda m, r, h: entropy(m, r),
    "enumerate_bdd": lambda m, r, h: enumerate_bdd(m, r),
    "copy_function": lambda m, r, h: copy_function(m, r, BddManager(3)),
}


@pytest.mark.parametrize("entry", sorted(_HANDLE_ENTRY_POINTS))
@pytest.mark.parametrize("bad", ["0.0", "1.0", "True", "float(h)", "foreign"])
def test_entry_points_reject_foreign_handles(entry, bad):
    """A handle is an int this manager minted or copied: another's handle,
    1.0 or True for a terminal, and float(h) for the live handle h are
    refused before anything is interned, registered or read."""
    m = BddManager(3)
    h = m.register_root(m.literal(2))
    ref = {"0.0": 0.0, "1.0": 1.0, "True": True, "float(h)": float(h),
           "foreign": BddManager(3).literal(2)}[bad]
    before = (len(m._refs), dict(m._node), m.registered_roots)
    with pytest.raises(ManagerMismatchError):
        _HANDLE_ENTRY_POINTS[entry](m, ref, h)
    assert (len(m._refs), m._node, m.registered_roots) == before


def test_apply_unknown_operator(example1):
    manager, root = example1
    with pytest.raises(UsageError):
        manager.apply("nand", root, root)


def test_negate_involution(example1):
    manager, root = example1
    assert manager.negate(ZERO) == ONE
    assert manager.negate(ONE) == ZERO
    assert manager.negate(manager.negate(root)) == root


@given(st.integers(min_value=0, max_value=6), st.data())
@settings(max_examples=100, deadline=None)
def test_ite_matches_truth_table_operations(n, data):
    """The if-then-else kernel and the operators built on it against bit
    operations on truth tables, under a random order, with terminal,
    literal and repeated operands.  Each result must be the handle that
    building its truth vector gives, so canonicity is checked too."""
    m = BddManager(n, order=data.draw(st.permutations(range(n))))
    full = (1 << (1 << n)) - 1
    pool = [ZERO, ONE]
    if n:
        pool.append(m.literal(data.draw(st.integers(0, n - 1))))
    for _ in range(3):
        bits = data.draw(st.integers(min_value=0, max_value=full))
        pool.append(m.build_from_truth_vector(format(bits, f"0{1 << n}b")))
    f, g, h = (data.draw(st.sampled_from(pool)) for _ in range(3))
    F, G, H = (enumerate_bdd(m, u).bits for u in (f, g, h))

    def built(bits):
        return m.build_from_truth_vector(TruthTable(n, bits).to_string())

    assert m._ite(f, g, h) == built((F & G) | (~F & H & full))
    assert m.apply(AND, f, g) == built(F & G)
    assert m.apply(OR, f, g) == built(F | G)
    assert m.apply(XOR, f, g) == built(F ^ G)
    assert m.negate(f) == built(F ^ full)
    assert_manager_consistent(m)


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=100, deadline=None)
def test_ite_of_a_literal(n, data):
    """``_ite(literal, g, h)`` with the literal above, below or between
    g and h is the handle of its truth table; above both it interns the
    node at once and adds no cache entry."""
    m = BddManager(n, order=data.draw(st.permutations(range(n))))
    var = data.draw(st.integers(0, n - 1))
    lit = m.literal(var)
    level = m.level_of_var(var)

    def operand():
        """A random function of the variables above the literal, below
        it, or of any variable."""
        bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        u = m.build_from_truth_vector(format(bits, f"0{1 << n}b"))
        side = data.draw(st.sampled_from(["above", "below", "any"]))
        for other in range(n):
            at = m.level_of_var(other)
            if side == "above" and at >= level or side == "below" and at <= level:
                u = m.cofactor(u, other, data.draw(st.integers(0, 1)))
        return u

    g, h = operand(), operand()
    G, H, F = (enumerate_bdd(m, u).bits for u in (g, h, lit))
    full = (1 << (1 << n)) - 1
    cached = dict(m._cache)
    r = m._ite(lit, g, h)
    assert r == m.build_from_truth_vector(
        TruthTable(n, (F & G) | (~F & H & full)).to_string())
    if level < min(m.level_of(g), m.level_of(h)) and g != h:
        assert m.node(r) == (var, h, g)
        assert m._cache == cached
    assert_manager_consistent(m)


def test_cofactor_example1(example1):
    manager, root = example1
    assert manager.cofactor(root, 0, 1) == ONE
    # f with x1=0 is (not x2)(not x3)
    rest = manager.cofactor(root, 0, 0)
    m2 = BddManager(3)
    want = m2.apply(AND, m2.literal(1, 0), m2.literal(2, 0))
    assert enumerate_bdd(manager, rest).to_string() == \
        enumerate_bdd(m2, want).to_string()


def _assert_refused(manager, root, call, *args):
    """``call(*args)`` raises UsageError and leaves the order, the node
    store and the root's function as they were."""
    order, nodes = manager.order, dict(manager._node)
    with pytest.raises(UsageError):
        call(*args)
    assert manager.order == order
    assert len(manager) == len(nodes) and manager._node == nodes
    assert enumerate_bdd(manager, root).to_string() == EXAMPLE1_VECTOR


def test_cofactor_trivia(example1):
    manager, root = example1
    assert manager.cofactor(ONE, 1, 0) == ONE
    assert manager.cofactor(ZERO, 2, 1) == ZERO
    # A bit is the int 0 or 1: a bool, 1.0 or "0" would be read as one.
    for var in (7, 0.5, 1.0, "0"):
        _assert_refused(manager, root, manager.cofactor, root, var, 0)
        _assert_refused(manager, root, manager.literal, var, 1)
    for bit in (2, -1, True, 0.5, 1.0, "0"):
        _assert_refused(manager, root, manager.cofactor, root, 0, bit)
        _assert_refused(manager, root, manager.literal, 0, bit)


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=100, deadline=None)
def test_cofactor_matches_truth_table_restriction(n, data):
    """Every cofactor is the handle of its truth-table restriction, for
    terminal roots, every variable (the root's own among them) and
    variables outside the support, under any order."""
    m = BddManager(n, order=data.draw(st.permutations(range(n))))
    size = 1 << n
    vec = format(data.draw(st.integers(0, (1 << size) - 1)), f"0{size}b")
    f = m.build_from_truth_vector(vec)
    for var in range(n):
        bit = 1 << (n - 1 - var)            # var's digit in a vector index
        free = "".join(vec[i & ~bit] for i in range(size))
        g = m.build_from_truth_vector(free)
        for value in (0, 1):
            assert m.cofactor(ZERO, var, value) == ZERO
            assert m.cofactor(ONE, var, value) == ONE
            assert m.cofactor(g, var, value) == g
            want = "".join(vec[i | bit if value else i & ~bit]
                           for i in range(size))
            assert m.cofactor(f, var, value) == m.build_from_truth_vector(want)
    assert not m._cache                     # no if-then-else was needed
    assert_manager_consistent(m)


def test_cofactor_does_not_recurse():
    n = 2000
    m = BddManager(n)
    f = ONE
    for v in reversed(range(n)):
        f = m.mk_node(v, ZERO, f)           # x0 and x1 and ... and x1999
    g = m.cofactor(f, n - 1, 1)
    assert m.count_nodes([g]) == n - 1
    assert m.evaluate(g, [1] * (n - 1) + [0]) == ONE
    assert m.cofactor(f, n - 1, 0) == ZERO


def test_truth_vector_constants():
    m = BddManager(3)
    assert m.build_from_truth_vector("0" * 8) == ZERO
    assert m.build_from_truth_vector("1" * 8) == ONE
    # A sequence of 0/1 ints or bools builds what the string builds.
    f = m.build_from_truth_vector("01101001")
    assert m.build_from_truth_vector([0, 1, 1, 0, 1, 0, 0, 1]) == f
    assert m.build_from_truth_vector(
        (False, True, True, False, True, False, False, True)) == f


def test_truth_vector_bad_input():
    m = BddManager(3)
    with pytest.raises(InputError):
        m.build_from_truth_vector("101")          # not a power of two
    with pytest.raises(InputError):
        m.build_from_truth_vector("1111")         # wrong variable count
    with pytest.raises(InputError):
        m.build_from_truth_vector("10021111")
    with pytest.raises(InputError):
        BddManager(2).build_from_truth_vector([0, 2, 1, 0])
    # A truth value is 0, 1, False or True: a float is no bit, even 1.0.
    with pytest.raises(InputError):
        BddManager(2).build_from_truth_vector([0.0, 1.0, 1.0, 1.0])
    with pytest.raises(InputError):
        m.build_from_truth_vector((1.0,) * 8)
    # Neither a str nor iterable: an InputError, not Python's TypeError.
    with pytest.raises(InputError):
        BddManager(2).build_from_truth_vector(5)
    with pytest.raises(InputError):
        TruthTable.from_string(None)


class _SizedZeros:
    """A sized vector of 2**25 zeros; as a list it would take 256 MiB."""

    def __len__(self):
        return 1 << 25

    def __iter__(self):
        return itertools.repeat(0, 1 << 25)


def test_truth_vector_longer_than_2_24_is_refused_unread():
    """A str or sized vector longer than 2**24 is refused by its length,
    before its entries are read into a list."""
    text = "0" * (1 << 25)
    tracemalloc.start()
    try:
        for call in (lambda: BddManager(25).build_from_truth_vector(text),
                     lambda: BddManager(25).build_from_truth_vector(_SizedZeros()),
                     lambda: TruthTable.from_string(text)):
            with pytest.raises(InputError, match=r"longer than 2\*\*24"):
                call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_count_nodes_trivia(example1):
    manager, root = example1
    assert manager.count_nodes([ONE]) == 0
    assert manager.count_nodes([ZERO, ONE]) == 0
    # shared subgraphs count once
    g = manager.negate(root)
    two = manager.count_nodes([root, root])
    assert two == manager.count_nodes([root])
    assert manager.count_nodes([root, g]) <= \
        manager.count_nodes([root]) + manager.count_nodes([g])


def test_size_bound_and_support():
    m = BddManager(4)
    # function ignoring x3: no node labeled 2 may be reachable
    f = m.apply(XOR, m.literal(0), m.literal(3))
    seen_vars = {m.var_of(u) for u in m._reachable([f])}
    assert 2 not in seen_vars
    assert m.count_nodes([f]) <= (1 << 4) - 1


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_truth_vector_roundtrip(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    vec = format(bits, f"0{1 << n}b")
    m = BddManager(n, order=data.draw(st.permutations(range(n))))
    root = m.build_from_truth_vector(vec)
    assert enumerate_bdd(m, root).to_string() == vec
    assert len(m) == m.count_nodes([root])  # no node outside the function
    assert_manager_consistent(m)


@given(st.integers(min_value=2, max_value=5), st.data())
@settings(max_examples=60, deadline=None)
def test_canonicity_two_routes(n, data):
    """Truth-vector construction and apply-composition return one handle."""
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    vec = format(bits, f"0{1 << n}b")
    m = BddManager(n)
    a = m.build_from_truth_vector(vec)
    b = ZERO
    for i, ch in enumerate(vec):
        if ch == "0":
            continue
        cube = ONE
        for v in range(n):
            cube = m.apply(AND, cube, m.literal(v, (i >> (n - 1 - v)) & 1))
        b = m.apply(OR, b, cube)
    assert a == b


def test_reduction_invariants(example1):
    manager, root = example1
    seen = set()
    for u in manager._reachable([root]):
        var, lo, hi = manager.node(u)
        assert lo != hi
        assert (var, lo, hi) not in seen
        seen.add((var, lo, hi))
        assert manager.level_of(u) < manager.level_of(lo)
        assert manager.level_of(u) < manager.level_of(hi)
    with pytest.raises(UsageError, match="terminal"):
        manager.node(ONE)


def test_swap_involution(example1):
    manager, root = example1
    order = manager.order
    size = manager.count_nodes([root])
    manager.swap_adjacent_levels(1)
    manager.swap_adjacent_levels(1)
    assert manager.order == order
    assert manager.count_nodes([root]) == size
    assert enumerate_bdd(manager, root).to_string() == EXAMPLE1_VECTOR


def test_swap_x2_x3_keeps_example1_size(example1):
    manager, root = example1
    manager.swap_adjacent_levels(1)
    assert manager.order == (0, 2, 1)
    assert manager.count_nodes([root]) == 3
    assert enumerate_bdd(manager, root).to_string() == EXAMPLE1_VECTOR


def test_swap_untouched_when_variables_absent():
    m = BddManager(4)
    f = m.literal(0)
    m.register_root(f)
    before = m.node(f)
    m.swap_adjacent_levels(2)   # x3/x4 do not appear in f
    assert m.node(f) == before


def test_swap_out_of_range(example1):
    manager, _ = example1
    with pytest.raises(UsageError):
        manager.swap_adjacent_levels(2)
    with pytest.raises(UsageError):
        manager.swap_adjacent_levels(-1)


@given(st.integers(min_value=2, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_swap_preserves_functions(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    level = data.draw(st.integers(min_value=0, max_value=n - 2))
    vec = format(bits, f"0{1 << n}b")
    m = BddManager(n)
    root = m.build_from_truth_vector(vec)
    m.register_root(root)
    m.swap_adjacent_levels(level)
    assert enumerate_bdd(m, root).to_string() == vec
    for u in m._reachable([root]):
        var, lo, hi = m.node(u)
        assert lo != hi
        assert m.level_of(u) < min(m.level_of(lo), m.level_of(hi))


def test_swap_sequence_preserves_multi_roots(rng):
    m = BddManager(5)
    vecs = []
    roots = []
    for _ in range(3):
        vec = "".join(rng.choice("01") for _ in range(32))
        vecs.append(vec)
        roots.append(m.register_root(m.build_from_truth_vector(vec)))
    for _ in range(25):
        m.swap_adjacent_levels(rng.randrange(4))
    for vec, root in zip(vecs, roots):
        assert enumerate_bdd(m, root).to_string() == vec


def test_swap_storm_keeps_unique_table_canonical(rng):
    """Long swap sequences keep every per-variable table canonical and
    retire what they orphan, so the live count stays the shared size."""
    for _ in range(25):
        n = rng.randint(3, 6)
        m = BddManager(n)
        vec = "".join(rng.choice("01") for _ in range(1 << n))
        root = m.register_root(m.build_from_truth_vector(vec))
        m.collect_garbage()
        for _ in range(80):
            m.swap_adjacent_levels(rng.randrange(n - 1))
            assert sum(map(len, m._unique)) == len(m._node)
            for u, key in m._node.items():
                assert m._unique[key[0]][key] == u
            assert_manager_consistent(m)
            assert len(m) == m.shared_size()
        assert enumerate_bdd(m, root).to_string() == vec
        assert m.build_from_truth_vector(vec) == root   # same handle


def _reference_swap(m, level):
    """The level swap as written before its loop was inlined: the same
    walk through the upper table in handle order, interning through
    ``_mk``."""
    x = m._level_var[level]
    y = m._level_var[level + 1]
    xtable = m._unique[x]
    ytable = m._unique[y]
    nodes = m._node
    refs = m._refs
    mk = m._mk
    m._level_var[level] = y
    m._level_var[level + 1] = x
    m._var_level[x] = level + 1
    m._var_level[y] = level
    orphans = []
    for u in sorted(xtable.values()):
        key = nodes[u]
        _, f0, f1 = key
        t0 = nodes.get(f0)
        t1 = nodes.get(f1)
        y0 = t0 is not None and t0[0] == y
        y1 = t1 is not None and t1[0] == y
        if not (y0 or y1):
            continue
        del xtable[key]
        f00, f01 = (t0[1], t0[2]) if y0 else (f0, f0)
        f10, f11 = (t1[1], t1[2]) if y1 else (f1, f1)
        g0 = f00 if f00 == f10 else mk(x, f00, f10)
        g1 = f01 if f01 == f11 else mk(x, f01, f11)
        assert g0 != g1
        key = (y, g0, g1)
        nodes[u] = key
        ytable[key] = u
        refs[g0 & _SLOT] += 1
        refs[g1 & _SLOT] += 1
        for f, was_y in ((f0, y0), (f1, y1)):
            refs[f & _SLOT] -= 1
            if was_y and not refs[f & _SLOT]:
                orphans.append(f)
    for f in orphans:
        key = nodes.pop(f)
        del ytable[key]
        refs[key[1] & _SLOT] -= 1
        refs[key[2] & _SLOT] -= 1
    m._cache.clear()


def test_swap_kernel_matches_reference_swap(rng):
    """After every swap of a random storm, the node store, the tables,
    the reference counts and the order equal those of the reference
    swap run on a clone, garbage included."""
    for trial in range(30):
        n = rng.randint(2, 8)
        m = BddManager(n)
        for _ in range(rng.randint(1, 4)):
            m.register_root(m.build_from_truth_vector(random_function(rng, n)))
        m.build_from_truth_vector(random_function(rng, n))   # unregistered
        if trial % 2:
            m.collect_garbage()
        ref = m.clone()
        ref._base = m._base     # mint the same handles, so stores compare raw
        for _ in range(60):
            level = rng.randrange(n - 1)
            m.swap_adjacent_levels(level)
            _reference_swap(ref, level)
            assert m._node == ref._node
            assert m._unique == ref._unique
            assert m._refs == ref._refs
            assert m.order == ref.order
            assert_manager_consistent(m)


def test_stale_handles_raise_or_keep_their_function():
    """A handle no root keeps is either still its own function after
    swaps, or retired by them and rejected; never silently wrong."""
    rng = random.Random(3)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(3, 6)
        m = BddManager(n)
        m.register_root(m.build_from_truth_vector(random_function(rng, n)))
        vec = random_function(rng, n)
        loose = m.build_from_truth_vector(vec)
        for _ in range(5):
            m.swap_adjacent_levels(rng.randrange(n - 1))
        assert_manager_consistent(m)
        try:
            got = enumerate_bdd(m, loose).to_string()
        except ManagerMismatchError:
            outcomes.add("retired")
            continue
        assert got == vec
        outcomes.add("kept")
    assert outcomes == {"retired", "kept"}


def test_set_order(example1):
    manager, root = example1
    manager.set_order([2, 0, 1])
    assert manager.order == (2, 0, 1)
    assert enumerate_bdd(manager, root).to_string() == EXAMPLE1_VECTOR


def test_move_var_up_and_down(rng):
    m = BddManager(5)
    vector = random_function(rng, 5)
    root = m.register_root(m.build_from_truth_vector(vector))
    m.move_var(3, 0)
    assert m.order == (3, 0, 1, 2, 4)
    m.move_var(3, 4)
    assert m.order == (0, 1, 2, 4, 3)
    m.move_var(1, 1)
    assert m.order == (0, 1, 2, 4, 3)
    assert enumerate_bdd(m, root).to_string() == vector
    assert_manager_consistent(m)
    for var, level in ((0, -1), (0, 5), (2, 7), (5, 0)):
        with pytest.raises(UsageError):
            m.move_var(var, level)
        assert m.order == (0, 1, 2, 4, 3)
    assert enumerate_bdd(m, root).to_string() == vector


def test_bools_are_not_orders_or_levels(example1):
    # True == 1 and False == 0, so a bool would pass as a level or as an
    # entry of a permutation unless rejected by type; so would 1.0, and
    # 0.5 would move a variable part of the way.
    for order in ([True, False], [2, True, False], [0.0, 1, 2], [2, 1, "0"]):
        with pytest.raises(ValueError):
            BddManager(len(order), order=order)
    for n in (True, False, 2.0, 0.5, "0"):
        with pytest.raises(ValueError):
            BddManager(n)
    manager, root = example1
    for order in ([2, True, False], [2, 1.0, 0], [2, "1", 0], [0.5, 1, 2]):
        _assert_refused(manager, root, manager.set_order, order)
    for index in (True, 0.5, 1.0, "0"):
        _assert_refused(manager, root, manager.var_at_level, index)
        _assert_refused(manager, root, manager.level_of_var, index)
        _assert_refused(manager, root, manager.move_var, 0, index)
        _assert_refused(manager, root, manager.move_var, index, 2)
        _assert_refused(manager, root, manager.swap_adjacent_levels, index)
    assert manager.order == (0, 1, 2)
    assert manager.var_at_level(1) == 1
    assert enumerate_bdd(manager, root).to_string() == EXAMPLE1_VECTOR


def _reference_sweep(m):
    """Retire every node unreachable from the registered roots, one at a
    time, releasing its children's references."""
    keep = m._reachable(m._roots)
    dead = [u for u in m._node if u not in keep]
    for u in dead:
        key = m._node.pop(u)
        del m._unique[key[0]][key]
        m._refs[key[1] & _SLOT] -= 1
        m._refs[key[2] & _SLOT] -= 1
    return len(dead)


def test_sweep_matches_retiring_one_node_at_a_time(rng):
    """The sweep that rebuilds the store from the survivors leaves the
    same node store, in the same order, the same tables and the same
    reference counts as retiring each dead node in turn, after build
    garbage, swaps and a root registered twice; a sweep with nothing
    dead still clears the operation cache."""
    for trial in range(40):
        n = rng.randint(1, 7)
        m = BddManager(n)
        for _ in range(rng.randint(0, 3)):
            m.register_root(m.build_from_truth_vector(random_function(rng, n)))
        if trial % 3 == 0:
            m.register_root(m.build_from_truth_vector(random_function(rng, n)))
            m.register_root(m.registered_roots[-1])
        for _ in range(rng.randint(0, 3)):
            m.build_from_truth_vector(random_function(rng, n))   # garbage
        for _ in range(rng.randint(0, 12) if n > 1 else 0):
            m.swap_adjacent_levels(rng.randrange(n - 1))
        ref = m.clone()
        assert m.collect_garbage() == _reference_sweep(ref)
        assert list(m._node.items()) == list(ref._node.items())
        assert m._unique == ref._unique
        assert m._refs == ref._refs
        assert_manager_consistent(m)
        x = m.register_root(m.literal(0))
        m.apply(XOR, x, m.register_root(m.literal(0, 0)))   # ONE, no new node
        assert m._cache
        nodes = dict(m._node)
        assert m.collect_garbage() == 0
        assert not m._cache
        assert m._node == nodes


class _Interrupt(BaseException):
    """Raised by a trace function inside the sweep; nothing catches it."""


def test_collect_garbage_is_interrupt_safe():
    """An exception raised at any line the sweep runs leaves a manager
    whose invariants hold and whose roots compute what they did, and a
    second sweep then retires exactly the dead nodes.  Each of 20 seeded
    6-variable managers holds 3 roots and a discarded XOR; a trace
    function raises at the k-th line event of ``collect_garbage``'s own
    frame, for every k until a sweep runs to the end."""
    code = BddManager.collect_garbage.__code__
    points = 0
    for seed in range(20):
        rng = random.Random(seed)
        base = BddManager(6)
        roots = [base.register_root(base.build_from_truth_vector(
            random_function(rng, 6))) for _ in range(3)]
        base.apply(XOR, roots[0], roots[1])
        tables = [enumerate_bdd(base, r).bits for r in roots]
        dead = len(base) - base.count_nodes(roots)
        assert dead > 0
        for k in itertools.count():
            m = base.clone()
            lines = 0

            def in_sweep(frame, event, arg):
                nonlocal lines
                if event == "line":
                    lines += 1
                    if lines > k:
                        raise _Interrupt
                return in_sweep

            outer = sys.gettrace()
            sys.settrace(lambda frame, event, arg:
                         in_sweep if frame.f_code is code else None)
            try:
                retired = m.collect_garbage()
            except _Interrupt:
                retired = None
            finally:
                sys.settrace(outer)
            assert_manager_consistent(m)
            assert [enumerate_bdd(m, r).bits for r in roots] == tables
            if retired is None:
                points += 1
                retired = m.collect_garbage()
                assert retired in (0, dead)
                assert len(m) == m.count_nodes(roots)
                continue
            assert retired == dead
            break
    assert points > 1000


def test_collect_garbage_drops_unregistered():
    m = BddManager(3)
    keep = m.register_root(m.build_from_truth_vector("10001111"))
    scratch = m.apply(XOR, m.literal(0), m.literal(2))
    assert m.collect_garbage() > 0
    assert m.count_nodes([keep]) == 3
    with pytest.raises(ManagerMismatchError):
        m.apply(AND, scratch, keep)


def test_node_limit():
    m = BddManager(6, node_limit=3)
    with pytest.raises(NodeLimitError):
        f = ZERO
        for v in range(6):
            f = m.apply(XOR, f, m.literal(v))
    # True would act as a limit of 1; a limit is a count, so an int.
    for limit in (True, 2.5, -1, "5"):
        with pytest.raises(ValueError):
            BddManager(3, node_limit=limit)
        # A write after construction passes the same rule.
        with pytest.raises(ValueError):
            m.node_limit = limit
        assert m.node_limit == 3


def test_clone_is_independent(example1):
    manager, root = example1
    twin = manager.clone()
    assert twin.count_nodes([root]) == 3
    twin.swap_adjacent_levels(0)
    assert manager.order == (0, 1, 2)
    assert twin.order == (1, 0, 2)
    assert enumerate_bdd(twin, root).to_string() == EXAMPLE1_VECTOR
    # A handle live at the copy names one function in both managers; a
    # handle either makes afterwards is refused by the other, in either
    # direction, instead of passing for another of its nodes.
    m = BddManager(2)
    f = m.register_root(m.literal(0))
    c = m.clone()
    x = m.literal(1, 0)         # not x2, made in m after the copy
    y = c.literal(1)            # x2, made in c after the copy
    for assignment in itertools.product((0, 1), repeat=2):
        assert m.evaluate(f, assignment) == c.evaluate(f, assignment) == \
            assignment[0]
    assert c.evaluate(y, [0, 1]) == 1 and m.evaluate(x, [0, 1]) == 0
    for other, ref in ((m, y), (c, x)):
        with pytest.raises(ManagerMismatchError):
            other.evaluate(ref, [0, 1])
        with pytest.raises(ManagerMismatchError):
            other.node(ref)


def _reference_copy(src, ref, dst, memo):
    """copy_function built from public operations: each node becomes
    (not x and lo) or (x and hi)."""
    if ref in (ZERO, ONE):
        return ref
    if ref not in memo:
        var, lo, hi = src.node(ref)
        l = _reference_copy(src, lo, dst, memo)
        h = _reference_copy(src, hi, dst, memo)
        x = dst.literal(var)
        memo[ref] = dst.apply(OR, dst.apply(AND, dst.negate(x), l),
                              dst.apply(AND, x, h))
    return memo[ref]


def test_copy_function_between_orders():
    src = BddManager(4)
    f = src.build_from_truth_vector("0110100110010110")
    dst = BddManager(4, order=[3, 1, 0, 2])
    g = copy_function(src, f, dst)
    assert enumerate_bdd(src, f).to_string() == enumerate_bdd(dst, g).to_string()
    with pytest.raises(UsageError):
        copy_function(src, f, BddManager(3))    # variable 3 is missing there

    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 8)
        src = BddManager(n, order=rng.sample(range(n), n))
        dst = BddManager(n, order=rng.sample(range(n), n))
        # A function already in the destination, so copies meet old nodes.
        dst.build_from_truth_vector(random_function(rng, n))
        roots = [src.build_from_truth_vector(random_function(rng, n))
                 for _ in range(3)] + [ZERO, src.literal(rng.randrange(n), 0)]
        memo, ref_memo = {}, {}
        for f in roots:
            g = copy_function(src, f, dst, memo)
            assert g == _reference_copy(src, f, dst, ref_memo)
            assert enumerate_bdd(dst, g).bits == enumerate_bdd(src, f).bits
        # The kernel on its own, with arguments that may test var too.
        var = rng.randrange(n)
        x = dst.literal(var)
        lo, hi = (dst.build_from_truth_vector(random_function(rng, n))
                  for _ in range(2))
        assert dst._ite(x, hi, lo) == dst.apply(
            OR, dst.apply(AND, dst.negate(x), lo), dst.apply(AND, x, hi))
        assert_manager_consistent(dst)


def test_copy_function_does_not_recurse_over_the_source():
    n = 2000
    src = BddManager(n)
    f = ONE
    for v in reversed(range(n)):
        f = src.mk_node(v, ZERO, f)         # x0 and x1 and ... and x1999
    dst = BddManager(n)
    g = copy_function(src, f, dst)
    assert dst.count_nodes([g]) == n
    assert dst.evaluate(g, [1] * n) == ONE
    assert dst.evaluate(g, [1] * (n - 1) + [0]) == ZERO


def test_ite_does_not_recurse():
    """OR of two interleaved AND chains over 2,000 levels: each split
    goes one level down, past Python's recursion limit."""
    n = 2000
    m = BddManager(n)
    evens = odds = ONE
    for v in reversed(range(n)):
        if v % 2:
            odds = m.mk_node(v, ZERO, odds)
        else:
            evens = m.mk_node(v, ZERO, evens)
    r = m.apply(OR, evens, odds)
    for ones, value in [(range(n), 1), (range(0, n, 2), 1),
                        (range(1, n, 2), 1), (range(1, n - 2), 0), ((), 0)]:
        assignment = [0] * n
        for v in ones:
            assignment[v] = 1
        assert m.evaluate(r, assignment) == value
    assert_manager_consistent(m)


def _reference_ite(m, f, g, h):
    """The if-then-else kernel as written before it interned its own
    nodes: the same splits, low half first, and every node interned
    through ``m._mk``."""
    cache = m._cache
    nodes = m._node
    level = m._var_level
    n = m.n
    mk = m._mk
    waiting = []
    while True:
        if g == f:
            g = ONE
        if h == f:
            h = ZERO
        if f == ONE or g == h:
            r = g
        elif f == ZERO:
            r = h
        elif g == ONE and h == ZERO:
            r = f
        else:
            if g == ONE and f > h:
                f, h = h, f
            elif h == ZERO and f > g:
                f, g = g, f
            key = (f, g, h)
            r = cache.get(key)
            if r is None:
                tf, tg, th = nodes[f], nodes.get(g), nodes.get(h)
                lf = level[tf[0]]
                lg = n if tg is None else level[tg[0]]
                lh = n if th is None else level[th[0]]
                if lf < lg and lf < lh and tf[1] == ZERO and tf[2] == ONE:
                    r = mk(tf[0], h, g)
                else:
                    top = min(lf, lg, lh)
                    _, f0, f1 = tf if lf == top else (0, f, f)
                    _, g0, g1 = tg if lg == top else (0, g, g)
                    _, h0, h1 = th if lh == top else (0, h, h)
                    waiting.append((key, m._level_var[top], f1, g1, h1))
                    f, g, h = f0, g0, h0
                    continue
        while waiting:
            split = waiting.pop()
            if len(split) == 5:
                key, var, f, g, h = split
                waiting.append((key, var, r))
                break
            key, var, r0 = split
            if r0 != r:
                r = mk(var, r0, r)
            cache[key] = r
        else:
            return r


def _reference_twin(m):
    """A clone of ``m``, taken while its op cache is empty, that mints
    the same handles and builds every gate, cofactor and copy through
    ``_reference_ite``."""
    assert not m._cache
    ref = m.clone()
    ref._base = m._base
    ref._ite = functools.partial(_reference_ite, ref)
    return ref


def test_ite_kernel_matches_reference_ite(rng):
    """After every operation of a random storm (AND, OR, XOR, NOT,
    cofactors, copies from another order and ``_ite`` of a literal,
    over repeated operands), the node store in order, the reference
    counts and the op cache equal those of the reference kernel's twin."""
    for _ in range(40):
        n = rng.randint(1, 8)
        m = BddManager(n, order=rng.sample(range(n), n))
        pool = [ZERO, ONE] + [m.build_from_truth_vector(random_function(rng, n))
                              for _ in range(3)]
        ref = _reference_twin(m)
        src = BddManager(n, order=rng.sample(range(n), n))
        copies = [src.build_from_truth_vector(random_function(rng, n))
                  for _ in range(2)]
        for _ in range(30):
            a, b = rng.choice(pool), rng.choice(pool)
            kind = rng.randrange(7)
            if kind < 3:
                op = (AND, OR, XOR)[kind]
                run = lambda x: x.apply(op, a, b)
            elif kind == 3:
                run = lambda x: x.negate(a)
            elif kind == 4:
                var, value = rng.randrange(n), rng.randrange(2)
                run = lambda x: x.cofactor(a, var, value)
            elif kind == 5:
                f = rng.choice(copies)
                run = lambda x: copy_function(src, f, x)
            else:
                # Mostly a literal above both operands, so the literal
                # route runs; otherwise any variable.
                top = min(m.level_of(a), m.level_of(b))
                var = m.var_at_level(rng.randrange(top)) \
                    if top and rng.random() < 0.7 else rng.randrange(n)
                run = lambda x: x._ite(x.literal(var), a, b)
            r = run(m)
            assert run(ref) == r
            pool.append(r)
            assert list(m._node.items()) == list(ref._node.items())
            assert m._refs == ref._refs
            assert list(m._cache.items()) == list(ref._cache.items())
        assert_manager_consistent(m)


def test_node_limit_parity_with_reference_ite(rng):
    """An apply, and a copy from another order into a limited
    destination, that mint k nodes unbounded: under every limit from the
    live count to k more, the kernel raises NodeLimitError exactly when
    the reference kernel does, and both leave the same node store and
    reference counts."""
    n = 8
    m = BddManager(n)
    a, b = (m.build_from_truth_vector(random_function(rng, n)) for _ in range(2))
    src = BddManager(n, order=rng.sample(range(n), n))
    f = src.build_from_truth_vector(random_function(rng, n))
    for run in (lambda x: x.apply(XOR, a, b), lambda x: copy_function(src, f, x)):
        probe = m.clone()
        run(probe)
        k = len(probe) - len(m)
        assert k >= 20
        for limit in range(len(m), len(m) + k + 1):
            new, ref = m.clone(), _reference_twin(m)
            new._base = m._base
            raised = []
            for x in (new, ref):
                x.node_limit = limit
                try:
                    run(x)
                    raised.append(False)
                except NodeLimitError:
                    raised.append(True)
            assert raised == [limit < len(m) + k] * 2
            assert list(new._node.items()) == list(ref._node.items())
            assert new._refs == ref._refs
            assert_manager_consistent(new)


def test_apply_interns_without_calling_mk(monkeypatch, rng):
    """``_ite`` interns at its own inline block: an apply that mints
    over a hundred nodes makes no ``_mk`` call."""
    m = BddManager(10)
    a, b = (m.build_from_truth_vector(random_function(rng, 10)) for _ in range(2))
    calls = []
    mk = BddManager._mk

    def counted(self, *args):
        calls.append(args)
        return mk(self, *args)

    monkeypatch.setattr(BddManager, "_mk", counted)
    before = len(m)
    m.apply(XOR, a, b)
    assert len(m) - before >= 100
    assert not calls


def test_evaluate(example1):
    manager, root = example1
    for i, want in enumerate(EXAMPLE1_VECTOR):
        assignment = [(i >> (2 - v)) & 1 for v in range(3)]
        assert manager.evaluate(root, assignment) == int(want)
    for assignment in ([1, 0], [1, 0, 0, 1]):
        with pytest.raises(UsageError):
            manager.evaluate(root, assignment)
    # Each entry is a truth value, read by value, not by truthiness.
    for assignment in (["0", 0, 0], [0.5, 0, 0], [None, 0, 0]):
        with pytest.raises(UsageError):
            manager.evaluate(root, assignment)
    for i in range(8):
        bits = [(i >> (2 - v)) & 1 for v in range(3)]
        assert manager.evaluate(root, tuple(map(bool, bits))) == \
            manager.evaluate(root, bits)


def test_zero_variable_manager():
    m = BddManager(0)
    assert m.build_from_truth_vector("1") == ONE
    assert m.build_from_truth_vector("0") == ZERO
    assert m.count_nodes([ONE]) == 0
    assert enumerate_bdd(m, ONE).to_string() == "1"
    from bddinfo import entropy, info_reorder
    assert entropy(m, ONE) == 0.0
    m.register_root(ONE)
    assert info_reorder(m).final_size == 0


def test_bad_constructor_arguments():
    with pytest.raises(ValueError):
        BddManager(-1)
    with pytest.raises(ValueError):
        BddManager(3, order=[0, 1, 1])
    with pytest.raises(ValueError):
        BddManager(2, order=[0])


@pytest.mark.parametrize("call, error", [
    (lambda m, f: m.set_order(5), UsageError),
    (lambda m, f: m.count_nodes(5), UsageError),
    (lambda m, f: m.evaluate(f, 5), UsageError),
    (lambda m, f: VarProbabilities(5), WeightError),
    (lambda m, f: info_reorder(m, roots=5), UsageError),
    (lambda m, f: sift(m, roots=5), UsageError),
    (lambda m, f: window_permute(m, roots=5), UsageError),
    (lambda m, f: bdd_size_for_order(enumerate_bdd(m, f), 5), ValueError),
], ids=["set_order", "count_nodes", "evaluate", "VarProbabilities",
        "info_reorder", "sift", "window_permute", "bdd_size_for_order"])
def test_non_iterable_collections_raise_the_module_error(call, error):
    """A collection argument that is not iterable raises its module's
    error, not Python's TypeError, and the reorderers refuse it before
    they register a root or sweep: the unregistered function survives."""
    m = BddManager(3)
    f = m.build_from_truth_vector(EXAMPLE1_VECTOR)
    before = (len(m), m.registered_roots, m.order)
    with pytest.raises(error, match="must be iterable"):
        call(m, f)
    assert (len(m), m.registered_roots, m.order) == before
