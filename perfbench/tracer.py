"""Span recorder for the traced run.

``SpanRecorder.install()`` replaces the library's public functions, at
the module and class attributes their callers look up, with wrappers
that record one span per call: name, start, end and the enclosing span.
Calls made while ``on`` is false (the runner's own checks) pass through.
Private helpers (``_apply``, ``_reachable``, ...) are not wrapped, so
their time is self time of the public call that made them.  Spans stay
in flat arrays in memory; ``write`` dumps them as TSV at the end.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

from bddinfo import cli, manager, measures, netlist, oracle, reorder

# (owner, attribute, span name, index of the argument holding the manager
# whose live-node count is sampled, or None).  The same function object
# may sit under several attributes; each gets the same span name.
TARGETS = (
    (cli, "load_circuit", "cli.load_circuit", None),
    (netlist, "parse_blif", "netlist.parse", None),
    (netlist, "parse_pla", "netlist.parse", None),
    (netlist, "build_circuit_bdds", "netlist.build", 1),
    (manager.BddManager, "build_from_truth_vector", "netlist.build", 0),
    (manager.BddManager, "apply", "manager.apply", 0),
    (manager.BddManager, "cofactor", "manager.cofactor", 0),
    (manager.BddManager, "swap_adjacent_levels", "manager.swap", 0),
    (manager.BddManager, "count_nodes", "manager.count_nodes", 0),
    (manager.BddManager, "collect_garbage", "manager.collect_garbage", 0),
    (manager.BddManager, "clone", "manager.clone", 0),
    (manager, "copy_function", "manager.copy_function", 2),
    (reorder, "copy_function", "manager.copy_function", 2),
    (measures, "measure_report", "measures.measure_report", 0),
    (measures, "conditional_entropy_var", "measures.conditional_entropy_var", 0),
    (reorder, "conditional_entropy_var", "measures.conditional_entropy_var", 0),
    (measures, "conditional_entropy_set", "measures.conditional_entropy_set", 0),
    (measures, "all_joint_probabilities", "measures.all_joint_probabilities", 0),
    (reorder, "info_reorder", "reorder.info_reorder", 0),
    (reorder, "sift", "reorder.sift", 0),
    (reorder, "window_permute", "reorder.window_permute", 0),
    (oracle, "enumerate_bdd", "oracle.enumerate_bdd", 0),
)
_KEEP_RESULT = {"manager.collect_garbage"}   # the number of retired nodes


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.result = array("q")
        self.live_peak = 0
        self.on = False                 # record only while the runner says so
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def install(self) -> None:
        for owner, attr, span, arg in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span, original, arg))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, span: str, fn, arg: int | None):
        name_id = self._name_id.setdefault(span, len(self.names))
        if name_id == len(self.names):
            self.names.append(span)
        keep = span in _KEEP_RESULT
        names, starts, ends = self.name, self.start, self.end
        parents, results, stack = self.parent, self.result, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            results.append(0)
            ends.append(0.0)
            owner = args[arg] if arg is not None and arg < len(args) else None
            if owner is not None:
                self.live_peak = max(self.live_peak, len(owner))
            stack.append(index)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if owner is not None:
                    self.live_peak = max(self.live_peak, len(owner))
            if keep:
                results[index] = out
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def summarize(self, first: int, last: int):
        """Per-name calls, total, self time and result sum over spans
        ``first..last-1``, plus the reorder-nested figures."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        result = defaultdict(int)
        under_reorder = defaultdict(float)
        under_reorder_calls = defaultdict(int)
        names = self.names
        reorder_ids = {i for i, s in enumerate(names) if s.startswith("reorder.")}
        for i in range(first, last):
            span = names[self.name[i]]
            duration = self.end[i] - self.start[i]
            calls[span] += 1
            total[span] += duration
            self_s[span] += duration
            result[span] += self.result[i]
            p = self.parent[i]
            if p >= first:
                self_s[names[self.name[p]]] -= duration
                if self.name[p] in reorder_ids:
                    under_reorder[span] += duration
                    under_reorder_calls[span] += 1
        return calls, total, self_s, result, under_reorder, under_reorder_calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart\tend\tparent\n")
            for i in range(len(self)):
                out.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                          f"{self.end[i]!r}\t{self.parent[i]}\n")
