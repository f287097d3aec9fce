"""Reduced ordered BDD manager.

Nodes live in one unique table per variable, keyed by (variable, low
child, high child), so structurally equal functions always share one
handle.  Handles are plain integers: 0 and 1 are the terminals,
everything else is an internal node owned by exactly one manager.  Each
handle has a reference count (parent nodes plus root registrations).
One memoized if-then-else kernel, ``_ite``, builds every AND, OR, XOR
and complement.  One compose kernel, ``copy_function``, rebuilds a
function with each variable replaced by a given handle, in the same
manager or another: it serves copies, cofactors and circuit gates, and
calls ``_ite`` for every node it cannot intern directly.  No routine
here recurses; both kernels keep their pending work on a stack.  The
variable order is a permutation between levels and variable ids;
adjacent levels can be swapped in place, touching only the two tables
involved, which is the substrate for all reordering algorithms.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence, Sized

ZERO = 0
ONE = 1

AND = "and"
OR = "or"
XOR = "xor"

_OPS = (AND, OR, XOR)

# Disjoint handle ranges per manager, so a handle from another manager
# is detected instead of silently aliasing a node.
_manager_ids = itertools.count()
_ID_SPAN = 1 << 40
# A handle's slot in its manager's reference-count list; the terminals
# 0 and 1 map to slots 0 and 1 in every manager.
_SLOT = _ID_SPAN - 1
_BITS = {"0": 0, "1": 1}                   # truth vector characters
_MAX_VECTOR = 1 << 24      # longest truth vector read, widest oracle table


class BddError(Exception):
    """Base class for all BDD errors."""


class OrderingError(BddError):
    """A node would be created below one of its children."""


class UsageError(BddError):
    """Operation called with arguments the manager cannot serve."""


class ManagerMismatchError(UsageError):
    """Handle does not belong to this manager (or was retired)."""


class NodeLimitError(BddError):
    """The configured live-node ceiling was reached."""


class InputError(BddError, ValueError):
    """Malformed input data (e.g. a truth vector of bad length)."""


class BddManager:
    """Shared ROBDD store for a fixed set of variables.

    Variables are the integers ``0 .. n-1``.  ``order`` gives the initial
    permutation from levels to variables (default: identity).  Handles
    returned by one manager are meaningless in any other, except the
    terminals ``ZERO`` and ``ONE`` and the handles a ``clone`` copies.

    A manager is confined to one thread at a time; run independent
    managers for parallelism.
    """

    def __init__(self, n: int, order: Sequence[int] | None = None,
                 node_limit: int | None = None):
        self.n = _index(n, None, ValueError, "variable count")
        self.node_limit = node_limit
        if order is None:
            order = range(n)
        order = _permutation(order, n, ValueError)
        self._level_var = order                    # level -> variable
        self._var_level = [0] * n                  # variable -> level
        for level, var in enumerate(order):
            self._var_level[var] = level
        self._base = next(_manager_ids) * _ID_SPAN
        # Reference counts in a plain list by slot (handle & _SLOT), one
        # per handle ever made; the next handle is base + len.  Slots 0/1
        # are the terminals.  A list, not an array: a count update is a
        # pointer load and store, with no boxing or range check.
        self._refs = [0, 0]
        self._node: dict[int, tuple[int, int, int]] = {}   # id -> (var, lo, hi)
        # var -> {(var, lo, hi): id}; the keys are the tuples in _node.
        self._unique: list[dict[tuple[int, int, int], int]] = [
            {} for _ in range(n)]
        self._cache: dict[tuple, int] = {}         # _ite memo
        self._roots: list[int] = []
        self._swaps = 0                            # level swaps made so far
        # _levelled's orders: (their total length, roots counted,
        # {roots: order}); dropped with the op cache.
        self._levels: tuple[int, dict] = (0, {})

    def __len__(self) -> int:
        """Number of live internal nodes (including unreachable ones)."""
        return len(self._node)

    @property
    def node_limit(self) -> int | None:
        """Ceiling on live internal nodes; None or a nonnegative int."""
        return self._node_limit

    @node_limit.setter
    def node_limit(self, limit: int | None) -> None:
        self._node_limit = None if limit is None else \
            _index(limit, None, ValueError, "node limit")

    @property
    def order(self) -> tuple[int, ...]:
        """Current variable order, as variable ids from top to bottom."""
        return tuple(self._level_var)

    def level_of_var(self, var: int) -> int:
        return self._var_level[self._check_var(var)]

    def var_at_level(self, level: int) -> int:
        return self._level_var[self._check_level(level)]

    # -- structural queries -------------------------------------------------

    def node(self, ref: int) -> tuple[int, int, int]:
        """Return (var, lo, hi) of an internal node."""
        self._check(ref)
        try:
            return self._node[ref]
        except KeyError:
            raise UsageError(f"{ref} is a terminal, not an internal node") from None

    def var_of(self, ref: int) -> int | None:
        """Variable tested by the node, or None for terminals."""
        self._check(ref)
        t = self._node.get(ref)
        return None if t is None else t[0]

    def level_of(self, ref: int) -> int:
        """Level of the node's variable; terminals sit at level n."""
        self._check(ref)
        return self._ref_level(ref)

    # -- construction -------------------------------------------------------

    def mk_node(self, var: int, lo: int, hi: int) -> int:
        """Intern the node (var, lo, hi), applying both reduction rules."""
        self._check_var(var)
        self._check(lo)
        self._check(hi)
        if lo == hi:
            return lo
        level = self._var_level[var]
        if level >= self._ref_level(lo) or level >= self._ref_level(hi):
            raise OrderingError(
                f"variable {var} at level {level} cannot test a child at or "
                f"above that level")
        return self._mk(var, lo, hi)

    def _mk(self, var: int, lo: int, hi: int) -> int:
        """mk_node without its checks, for callers that pass live,
        distinct children lying below ``var``'s level: find the node in
        ``var``'s unique table, or store it under a fresh handle."""
        key = (var, lo, hi)
        table = self._unique[var]
        found = table.get(key)
        if found is not None:
            return found
        if self._node_limit is not None and len(self._node) >= self._node_limit:
            raise NodeLimitError(f"node limit {self._node_limit} reached")
        refs = self._refs
        ref = self._base + len(refs)
        try:
            refs.append(0)
            refs[lo & _SLOT] += 1
            refs[hi & _SLOT] += 1
            self._node[ref] = key
            table[key] = ref
        except BaseException:
            self._unmint(ref, key)
            raise
        return ref

    def _unmint(self, ref: int, key: tuple[int, int, int]) -> None:
        """Undo a mint of ``ref`` as ``key`` that an exception cut short
        anywhere between its slot and its unique-table entry, leaving
        the manager as it was before the mint: drop the node from the
        store and its unique table, drop its slot, and recount its two
        children from the store and the roots, which is exact whatever
        the mint had done.  O(n), on that path alone."""
        var, lo, hi = key
        self._node.pop(ref, None)
        if self._unique[var].get(key) == ref:
            del self._unique[var][key]
        refs = self._refs
        if len(refs) == (ref & _SLOT) + 1:
            refs.pop()
        for child in (lo, hi):
            refs[child & _SLOT] = self._roots.count(child) + sum(
                (l == child) + (h == child) for _, l, h in self._node.values())

    def literal(self, var: int, phase: int = 1) -> int:
        """BDD of the variable itself (phase 1) or its complement (phase 0)."""
        if _index(phase, 2, UsageError, "phase"):
            return self.mk_node(var, ZERO, ONE)
        return self.mk_node(var, ONE, ZERO)

    def apply(self, op: str, a: int, b: int) -> int:
        """Reduced BDD of (a op b) for op in {AND, OR, XOR}; memoized."""
        if op not in _OPS:
            raise UsageError(f"unknown operator {op!r}")
        self._check(a)
        self._check(b)
        if op == AND:
            return self._ite(a, b, ZERO)
        if op == OR:
            return self._ite(a, ONE, b)
        return self._ite(a, self._ite(b, ZERO, ONE), b)

    def _ite(self, f: int, g: int, h: int) -> int:
        """Reduced BDD of ``f ? g : h`` for live handles, memoized: the
        if-then-else kernel of Brace, Rudell & Bryant (DAC 1990) behind
        AND, OR, XOR, NOT and every ``copy_function`` node that cannot
        be interned directly.  A call splits the three operands on the
        top variable among them and solves the two halves, low first,
        then interns the node over the two results; the calls still to
        solve and the nodes still to intern wait on an explicit stack,
        so the depth is not bounded by Python's recursion limit, and
        handles are minted in the order a recursion would mint them.
        Every node is interned at one inline block, ``_mk``'s lookup,
        limit check and mint in that order, with no call per node."""
        cache = self._cache
        nodes = self._node
        level = self._var_level
        level_var = self._level_var
        unique = self._unique
        refs = self._refs
        base = self._base
        limit = self._node_limit
        mask = _SLOT
        n = self.n
        # Splits whose halves are not both solved: (key, var, f1, g1, h1)
        # while the low half is solved, then (key, var, r0) while the high.
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
                key = (f, g, h)
                r = cache.get(key)
                if r is None:
                    tf, tg, th = nodes[f], nodes.get(g), nodes.get(h)
                    top = lf = level[tf[0]]
                    lg = n if tg is None else level[tg[0]]
                    lh = n if th is None else level[th[0]]
                    if lg < top:
                        top = lg
                    if lh < top:
                        top = lh
                    if lf == top:
                        _, f0, f1 = tf
                    else:
                        f0 = f1 = f
                    if lg == top:
                        _, g0, g1 = tg
                    else:
                        g0 = g1 = g
                    if lh == top:
                        _, h0, h1 = th
                    else:
                        h0 = h1 = h
                    waiting.append((key, level_var[top], f1, g1, h1))
                    f, g, h = f0, g0, h0
                    continue
            while waiting:              # r solves the half on top of the stack
                split = waiting.pop()
                if len(split) == 5:
                    key, var, f, g, h = split
                    waiting.append((key, var, r))
                    break
                key, var, r0 = split
                if r0 != r:     # _mk inlined: the children are live, below var
                    k = (var, r0, r)
                    table = unique[var]
                    u = table.get(k)
                    if u is None:
                        if limit is not None and len(nodes) >= limit:
                            raise NodeLimitError(f"node limit {limit} reached")
                        u = base + len(refs)
                        try:
                            refs.append(0)
                            refs[r0 & mask] += 1
                            refs[r & mask] += 1
                            nodes[u] = k
                            table[k] = u
                        except BaseException:
                            self._unmint(u, k)
                            raise
                    r = u
                cache[key] = r
            else:
                return r

    def negate(self, a: int) -> int:
        """Reduced BDD of the complement (no complement edges are used)."""
        self._check(a)
        return self._ite(a, ZERO, ONE)

    def cofactor(self, a: int, var: int, value: int) -> int:
        """BDD of the restriction with ``var`` pinned to ``value``:
        ``copy_function`` composes ``a`` with that constant for ``var``.
        It walks only ``a``'s graph and makes no ``_ite`` cache entry."""
        self._check(a)
        self._check_var(var)
        value = _index(value, 2, UsageError, "value")
        return copy_function(self, a, self, None, {var: value})

    def build_from_truth_vector(self, bits) -> int:
        """Build the function whose truth vector is ``bits``: a str over
        '01' or a sequence of 0, 1, False or True, 2**n long, else InputError.
        Index i is read as the assignment (x1, ..., xn) given by the binary
        digits of i with x1 (variable 0) most significant.  The entries,
        already terminals, are folded into nodes level by level, bottom up.
        """
        vec = _truth_vector(bits)
        if len(vec) != 1 << self.n:
            raise InputError(
                f"truth vector length {len(vec)} does not match {self.n} variables")
        rem = list(range(self.n))      # variables of vec, most significant first
        for var in reversed(self._level_var):
            r = rem.index(var)
            del rem[r]
            stride = 1 << (len(rem) - r)
            vec = [lo if lo == hi else self._mk(var, lo, hi)
                   for base in range(0, len(vec), stride * 2)
                   for lo, hi in zip(vec[base:base + stride],
                                     vec[base + stride:base + stride * 2])]
        return vec[0]

    def evaluate(self, root: int, assignment: Sequence[int]) -> int:
        """Evaluate at an assignment of 0, 1, False or True by variable id."""
        self._check(root)
        assignment = [_bit(b, UsageError, "assignment entry")
                      for b in _entries(assignment, UsageError, "assignment")]
        if len(assignment) != self.n:
            raise UsageError(f"assignment must have {self.n} entries")
        u = root
        while u != ZERO and u != ONE:
            var, lo, hi = self._node[u]
            u = hi if assignment[var] else lo
        return u

    # -- roots, counting, garbage -------------------------------------------

    def register_root(self, ref: int) -> int:
        """Mark a function as an output kept alive across swaps and sweeps."""
        self._check(ref)
        self._roots.append(ref)
        self._refs[ref & _SLOT] += 1
        return ref

    @property
    def registered_roots(self) -> tuple[int, ...]:
        return tuple(self._roots)

    def count_nodes(self, roots: Iterable[int]) -> int:
        """Distinct internal nodes reachable from any root; terminals excluded."""
        roots = tuple(_entries(roots, UsageError, "roots"))
        for root in roots:
            self._check(root)
        return len(self._reachable(roots))

    def shared_size(self) -> int:
        """count_nodes over the registered roots."""
        return self.count_nodes(self._roots)

    def _reachable(self, roots: Iterable[int]) -> set[int]:
        """Internal nodes reachable from the roots, which the caller has
        checked; each is pushed once."""
        nodes = self._node
        seen = {ZERO, ONE}
        stack = []
        for r in roots:
            if r not in seen:
                seen.add(r)
                stack.append(r)
        while stack:
            _, lo, hi = nodes[stack.pop()]
            if lo not in seen:
                seen.add(lo)
                stack.append(lo)
            if hi not in seen:
                seen.add(hi)
                stack.append(hi)
        seen -= {ZERO, ONE}
        return seen

    def _levelled(self, roots: Iterable[int]) -> tuple[int, ...]:
        """Internal nodes reachable from the roots, top level first, ties by
        handle: one walk, bucketed by variable, each bucket sorted.

        The roots must be live handles: every caller has checked its
        own, so neither the lookup nor the walk checks one again; a root
        set that is not iterable raises UsageError.  The order is
        cached, keyed by the tuple of roots.  Only a level swap, a sweep
        or a restore changes a node's children or level, and each drops
        the cache with the op cache; nodes made since the walk are not
        reachable from the roots.  The cache's total length, roots and
        orders counted, stays within 2 * len(self) + n: an insert that
        would pass that empties the cache first, and an order that alone
        passes it is not cached."""
        roots = tuple(_entries(roots, UsageError, "roots"))
        held, orders = self._levels
        order = orders.get(roots)
        if order is not None:
            return order
        nodes = self._node
        buckets: list[list[int]] = [[] for _ in range(self.n)]
        for u in self._reachable(roots):
            buckets[nodes[u][0]].append(u)
        walked = []
        for var in self._level_var:
            bucket = buckets[var]
            bucket.sort()
            walked += bucket
        order = tuple(walked)
        bound = 2 * len(self) + self.n
        size = len(roots) + len(order)
        if held + size > bound:
            held, orders = 0, {}
        if size <= bound:
            orders[roots] = order
            held += size
        self._levels = (held, orders)
        return order

    def collect_garbage(self) -> int:
        """Sweep nodes unreachable from the registered roots.

        Returns the number of retired nodes.  Handles not covered by a
        root are invalid afterwards; retired ids are never reused.  When
        anything is dead, a new node store, new unique tables and new
        reference counts are built aside from the survivors, in handle
        order, and installed in one assignment, so the cost follows the
        live nodes, not the dead, and an exception raised anywhere in
        the sweep leaves the manager as it was or swept, never half way.
        The new node dict and unique tables have the survivors' size;
        deleting the dead in place would keep the hash tables of the
        largest build.  The op cache and the level orders are cleared
        either way.
        """
        self._cache.clear()
        self._levels = (0, {})
        keep = self._reachable(self._roots)
        nodes = self._node
        dead = len(nodes) - len(keep)
        if not dead:
            return 0
        live = {u: nodes[u] for u in sorted(keep)}
        unique = [{} for _ in self._unique]
        refs = [0] * len(self._refs)
        for r in self._roots:
            refs[r & _SLOT] += 1
        for u, key in live.items():
            unique[key[0]][key] = u
            refs[key[1] & _SLOT] += 1
            refs[key[2] & _SLOT] += 1
        self._node, self._unique, self._refs = live, unique, refs
        return dead

    # -- reordering substrate -----------------------------------------------

    def swap_adjacent_levels(self, level: int) -> None:
        """Exchange the variables at ``level`` and ``level + 1`` in place.

        Every node keeps its handle and its function; only nodes at the
        two affected levels are rewritten or created, and nodes at the
        lower level that lose their last reference are retired.  The
        upper variable's nodes are rewritten in handle order, so the
        handles a swap creates do not depend on the order its table was
        filled in.  Raises NodeLimitError, before changing anything,
        when the worst case (two new nodes per node at ``level``) would
        pass ``node_limit``.  The op cache and the level orders are dropped.
        """
        _index(level, self.n - 1, UsageError, "swap level")
        x = self._level_var[level]
        y = self._level_var[level + 1]
        xtable = self._unique[x]
        ytable = self._unique[y]
        nodes = self._node
        if self.node_limit is not None and \
                len(nodes) + 2 * len(xtable) > self.node_limit:
            raise NodeLimitError(
                f"node limit {self.node_limit} could be passed by a level swap")
        self._swaps += 1
        # Dropped before the first write, so an interrupted swap leaves
        # neither cache holding entries for the old store.
        self._cache.clear()
        self._levels = (0, {})
        refs = self._refs
        base = self._base
        mask = _SLOT
        node_at = nodes.get
        x_at = xtable.get
        self._level_var[level] = y
        self._level_var[level + 1] = x
        self._var_level[x] = level + 1
        self._var_level[y] = level
        orphans = []
        # Every x node is rewritten, referenced or not, so both tables
        # stay canonical.
        for u in sorted(xtable.values()):
            key = nodes[u]
            _, f0, f1 = key
            t0 = node_at(f0)
            t1 = node_at(f1)
            y0 = t0 is not None and t0[0] == y
            y1 = t1 is not None and t1[0] == y
            if not (y0 or y1):
                continue  # independent of y: keeps its label one level down
            del xtable[key]
            if y0:
                f00, f01 = t0[1], t0[2]
            else:
                f00 = f01 = f0
            if y1:
                f10, f11 = t1[1], t1[2]
            else:
                f10 = f11 = f1
            # _mk without its checks, and _mk's intern step inlined: the
            # children are live and lie below both levels, and the limit
            # was checked.
            if f00 == f10:
                g0 = f00
            else:
                k0 = (x, f00, f10)
                g0 = x_at(k0)
                if g0 is None:
                    g0 = base + len(refs)
                    refs.append(0)
                    refs[f00 & mask] += 1
                    refs[f10 & mask] += 1
                    nodes[g0] = k0
                    xtable[k0] = g0
            if f01 == f11:
                g1 = f01
            else:
                k1 = (x, f01, f11)
                g1 = x_at(k1)
                if g1 is None:
                    g1 = base + len(refs)
                    refs.append(0)
                    refs[f01 & mask] += 1
                    refs[f11 & mask] += 1
                    nodes[g1] = k1
                    xtable[k1] = g1
            if g0 == g1:
                raise AssertionError("swap lost a dependence on the lower variable")
            key = (y, g0, g1)
            nodes[u] = key
            ytable[key] = u
            refs[g0 & mask] += 1
            refs[g1 & mask] += 1
            slot = f0 & mask
            refs[slot] -= 1
            if y0 and not refs[slot]:
                orphans.append(f0)
            slot = f1 & mask
            refs[slot] -= 1
            if y1 and not refs[slot]:
                orphans.append(f1)
        # An orphaned y node's children stay referenced by the x node or
        # the rewritten node that took them over, so retiring stops here.
        for f in orphans:
            key = nodes.pop(f)
            del ytable[key]
            refs[key[1] & mask] -= 1
            refs[key[2] & mask] -= 1

    def set_order(self, order: Sequence[int]) -> None:
        """Migrate to the given variable order via adjacent swaps."""
        for level, var in enumerate(_permutation(order, self.n, UsageError)):
            self.move_var(var, level)

    def move_var(self, var: int, level: int) -> None:
        """Move ``var`` to ``level`` by adjacent swaps, up or down; the
        variables in between shift one level towards its old place."""
        cur = self.level_of_var(var)
        self._check_level(level)
        while cur > level:
            self.swap_adjacent_levels(cur - 1)
            cur -= 1
        while cur < level:
            self.swap_adjacent_levels(cur)
            cur += 1

    def clone(self) -> "BddManager":
        """Independent copy: every handle live at the copy names the same
        function in both managers (level swaps keep it so), and each
        manager mints its own handles afterwards, so a handle made in
        one after the copy is refused by the other."""
        m = BddManager(self.n, node_limit=self.node_limit)
        m._restore(self._snapshot())
        return m

    def _snapshot(self) -> tuple:
        """Copies of the node store, unique tables, counts, both order
        arrays and roots, for one ``_restore``."""
        return (dict(self._node), [dict(table) for table in self._unique],
                self._refs[:], self._level_var[:], self._var_level[:],
                self._roots[:])

    def _restore(self, state: tuple) -> None:
        """Install a ``_snapshot`` in one assignment, as ``collect_garbage``
        installs its store, after clearing the op cache and the level
        orders.  The counts are padded with zeros, so every slot minted
        since the snapshot stays retired and its handle refused;
        ``_swaps`` keeps counting."""
        self._cache.clear()
        self._levels = (0, {})
        state[2].extend([0] * (len(self._refs) - len(state[2])))
        (self._node, self._unique, self._refs, self._level_var,
         self._var_level, self._roots) = state

    # -- internal helpers ---------------------------------------------------

    def _ref_level(self, ref: int) -> int:
        t = self._node.get(ref)
        return self.n if t is None else self._var_level[t[0]]

    def _check(self, ref: int) -> None:
        if type(ref) is not int or ref not in self._node and ref not in (ZERO, ONE):
            raise ManagerMismatchError(
                f"handle {ref!r} does not belong to this manager")

    def _check_level(self, level: int) -> int:
        return _index(level, self.n, UsageError, "level")

    def _check_var(self, var: int) -> int:
        return _index(var, self.n, UsageError, "variable")


def copy_function(src: BddManager, ref: int, dst: BddManager,
                  _memo: dict[int, int] | None = None,
                  _subst: dict[int, int] | None = None) -> int:
    """Rebuild a function from one manager inside another.

    Variable ids carry over; the destination's own order is respected,
    so this also converts between orders.  It is also the compose
    kernel (Bryant, IEEE TC 1986): ``_subst`` maps a source variable to
    the destination handle that replaces it, and a variable it leaves
    out stands for itself.  The source graph is walked iteratively in
    post-order.  A node whose substitute is a positive literal above
    both rebuilt children is interned directly; any other is rebuilt
    with one ``dst._ite(substitute, hi, lo)``.  ``_memo`` (source handle
    -> destination handle) may be shared by calls with the same two
    managers and substitution; terminals it already maps keep their
    image, so ``{ZERO: ONE, ONE: ZERO}`` composes the complement.  Two
    equal rebuilt children reduce the node to that child.
    """
    src._check(ref)
    memo = {} if _memo is None else _memo
    memo.setdefault(ZERO, ZERO)
    memo.setdefault(ONE, ONE)
    subst = {} if _subst is None else _subst
    nodes = src._node
    dst_nodes = dst._node
    dst_n = dst.n
    var_level = dst._var_level
    mk = dst._mk
    ite = dst._ite
    stack = [ref]
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
            continue
        var, lo, hi = nodes[u]
        l = memo.get(lo)
        h = memo.get(hi)
        if l is not None and h is not None:
            s = subst.get(var)
            if s is None:
                if var >= dst_n:
                    dst._check_var(var)     # raises: dst lacks the variable
                x = var
            else:                       # the literal s stands for, if any
                t = dst_nodes.get(s)
                x = t[0] if t is not None and t[1] == ZERO and t[2] == ONE else None
            if l == h:
                memo[u] = l
            else:
                tl = dst_nodes.get(l)
                th = dst_nodes.get(h)
                if x is not None and \
                        (tl is None or var_level[x] < var_level[tl[0]]) and \
                        (th is None or var_level[x] < var_level[th[0]]):
                    memo[u] = mk(x, l, h)
                else:
                    memo[u] = ite(mk(var, ZERO, ONE) if s is None else s, h, l)
            stack.pop()
            continue
        if l is None:
            stack.append(lo)
        if h is None:
            stack.append(hi)
    return memo[ref]


def _truth_vector(bits) -> list[int]:
    """``bits``, a str over '01' (stripped) or an iterable of ``_bit``
    values, of a power-of-two length up to 2**24, as 0/1 ints; else
    InputError, also for an argument that is neither.  A str or a sized
    argument that is too long is refused before any entry is read, and
    an unsized one after one entry past the bound."""
    if isinstance(bits, str):
        bits = bits.strip()
    elif not isinstance(bits, Sized):
        bits = list(itertools.islice(_entries(bits, InputError, "truth vector"),
                                     _MAX_VECTOR + 1))
    if len(bits) > _MAX_VECTOR:
        raise InputError(f"truth vector longer than 2**{_MAX_VECTOR.bit_length() - 1}"
                         " is not supported")
    if isinstance(bits, str):
        try:
            vec = [_BITS[ch] for ch in bits]
        except KeyError as miss:
            raise InputError(f"truth vector character {miss.args[0]!r} is not 0/1") from None
    else:
        vec = [_bit(b, InputError, "truth vector entry")
               for b in _entries(bits, InputError, "truth vector")]
    if not vec or len(vec) & (len(vec) - 1):
        raise InputError(f"truth vector length {len(vec)} is not a power of two")
    return vec


def _entries(value, error: type[Exception], what: str) -> Iterator:
    """``iter(value)``, or raise ``error`` naming ``what`` when ``value``
    is not iterable."""
    try:
        return iter(value)
    except TypeError:
        raise error(f"{what} must be iterable, got {value!r}") from None


def _bit(value, error: type[Exception], what: str) -> int:
    """``value`` if it is 0, 1, False or True (as 0 or 1), else raise ``error``."""
    if isinstance(value, int) and (value == 0 or value == 1):
        return int(value)
    raise error(f"{what} must be 0, 1, False or True, got {value!r}")


def _index(value, stop: int | None, error: type[Exception], what: str) -> int:
    """``value`` if it is an int, not a bool (True would mean 1), in
    ``range(stop)``, or nonnegative when ``stop`` is None; otherwise
    raise ``error`` naming ``what``.  The one rule for every variable
    count, variable, level, order entry and bit."""
    if isinstance(value, int) and not isinstance(value, bool) \
            and 0 <= value and (stop is None or value < stop):
        return value
    bound = "a nonnegative int" if stop is None else f"an int in range({stop})"
    raise error(f"{what} must be {bound}, got {value!r}")


def _permutation(order: Iterable[int], n: int, error: type[Exception]) -> list[int]:
    """``order`` as a list, if it is a permutation of 0..n-1 whose every
    entry passes ``_index``; otherwise raise ``error``."""
    order = [_index(var, n, error, "order entry")
             for var in _entries(order, error, "order")]
    if sorted(order) != list(range(n)):
        raise error(f"order must be a permutation of 0..{n - 1}")
    return order
