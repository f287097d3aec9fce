"""Circuit ingestion: a BLIF subset, PLA covers, and circuit-to-BDD
construction.

One reader, ``_logical_lines``, decides what is content in BLIF, PLA
and truth-vector text: ``#`` comments run to the end of the line, a
trailing backslash continues a line, blank lines are skipped, and any
content after the end marker (BLIF ``.end``, PLA ``.e`` or ``.end``) is
refused with its line number.

Sequential circuits are handled by latch cutting: latch outputs become
pseudo primary inputs and latch data inputs become pseudo outputs, so
the combinational core is what gets built.  Input declaration order
defines the variable ids (first declared input is variable 0), which is
also the initial BDD order.  Each gate's cover is built once as a
diagram of its own over the gate's inputs, an OR of cube chains, and
then composed with the gate's input signals.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field

from .manager import ONE, ZERO, BddManager, NodeLimitError, copy_function


class NetlistError(ValueError):
    """Base class for ingestion problems."""


class ParseError(NetlistError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UndefinedSignalError(NetlistError):
    pass


class CycleError(NetlistError):
    pass


class BuildLimitError(NetlistError):
    """Node ceiling hit while composing gate BDDs."""


@dataclass
class Gate:
    """Single-output cover: OR of the row cubes, complemented when the
    rows' output column is 0."""

    output: str
    inputs: list[str]
    rows: list[tuple[str, str]]   # (pattern over 01-, output char)


@dataclass
class Netlist:
    name: str
    inputs: list[str]
    outputs: list[str]
    gates: list[Gate] = field(default_factory=list)
    latches: list[tuple[str, str]] = field(default_factory=list)  # (data in, out)

    def __post_init__(self) -> None:
        _validate(self)

    @property
    def cut_inputs(self) -> list[str]:
        """Primary inputs plus latch outputs, in declaration order."""
        return self.inputs + [q for _, q in self.latches]

    @property
    def cut_outputs(self) -> list[str]:
        """Primary outputs plus latch data inputs, each signal once, in
        order of its first role."""
        return list(dict.fromkeys(self.outputs + [d for d, _ in self.latches]))


def _logical_lines(text: str, end: tuple[str, ...] = ()):
    """Yield (line number, tokens) with comments stripped and backslash
    continuations joined; the number is the first physical line's.  A
    line headed by a token in ``end`` ends the description: it is not
    yielded, and any content after it raises ParseError."""
    pending: list[str] = []
    start = 0
    ended = None
    # A closing empty line ends a continuation left open at the end.
    for number, raw in enumerate([*text.splitlines(), ""], 1):
        line = raw.split("#", 1)[0].strip()
        if not pending:
            start = number
        if line.endswith("\\"):
            pending.extend(line[:-1].split())
            continue
        tokens = pending + line.split()
        pending = []
        if not tokens:
            continue
        if ended:
            raise ParseError(f"content after {ended}", start)
        if tokens[0] in end:
            ended = tokens[0]
        else:
            yield start, tokens


def parse_blif(text: str) -> Netlist:
    """Parse the BLIF subset: .model/.inputs/.outputs/.names/.latch/.end."""
    name = ""
    inputs: list[str] = []
    outputs: list[str] = []
    gates: list[Gate] = []
    latches: list[tuple[str, str]] = []
    current: Gate | None = None
    for number, tokens in _logical_lines(text, (".end",)):
        head = tokens[0]
        if head.startswith("."):
            current = None
            if head == ".model":
                name = tokens[1] if len(tokens) > 1 else ""
            elif head == ".inputs":
                inputs.extend(tokens[1:])
            elif head == ".outputs":
                outputs.extend(tokens[1:])
            elif head == ".names":
                if len(tokens) < 2:
                    raise ParseError(".names needs an output signal", number)
                current = Gate(output=tokens[-1], inputs=tokens[1:-1], rows=[])
                gates.append(current)
            elif head == ".latch":
                if len(tokens) < 3:
                    raise ParseError(".latch needs input and output", number)
                latches.append((tokens[1], tokens[2]))
            else:
                raise ParseError(f"unsupported directive {head}", number)
            continue
        if current is None:
            raise ParseError(f"cover row outside .names: {' '.join(tokens)}", number)
        row = tokens if current.inputs else ["", *tokens]
        if len(row) != 2:
            raise ParseError("cover row must be '<pattern> <value>'", number)
        pattern = _columns(row[0], len(current.inputs), "01-", "pattern", number)
        out = _columns(row[1], 1, "01", "output value", number)
        if current.rows and current.rows[0][1] != out:
            raise ParseError("mixed output phases within one .names cover", number)
        current.rows.append((pattern, out))
    return Netlist(name=name, inputs=inputs, outputs=outputs,
                   gates=gates, latches=latches)


# Directives that parse_pla reads; ".e", like ".end", ends the cover.
_PLA_DIRECTIVES = frozenset((".i", ".o", ".p", ".ilb", ".ob", ".e"))


def parse_pla(text: str) -> Netlist:
    """Parse a PLA cover: .i/.o headers, optional .p/.ilb/.ob/.e, cube rows.

    Input columns are the declared variables left to right; an output
    column of 1 puts the cube in that output's cover ('0' and '~' leave
    it out).  Overlapping cubes OR together.
    """
    n_in = None
    n_out = None
    ilb: list[str] | None = None
    ob: list[str] | None = None
    cubes: list[tuple[str, str]] = []
    for number, tokens in _logical_lines(text, (".e", ".end")):
        head = tokens[0]
        if head.startswith("."):
            if head not in _PLA_DIRECTIVES:
                raise ParseError(f"unsupported directive {head}", number)
            if head in (".i", ".o") and cubes:
                raise ParseError(f"{head} after the first cube row", number)
            if head == ".i":
                n_in = _int_argument(tokens, number)
            elif head == ".o":
                n_out = _int_argument(tokens, number)
            elif head == ".ilb":
                ilb = tokens[1:]
            elif head == ".ob":
                ob = tokens[1:]
            continue
        if n_in is None or n_out is None:
            raise ParseError("cube row before .i/.o headers", number)
        row = tokens if n_out else [*tokens, ""]
        if len(row) != 2:
            raise ParseError("cube row must be '<inputs> <outputs>'", number)
        inpart = _columns(row[0], n_in, "01-", "input part", number)
        outpart = _columns(row[1], n_out, "01~", "output part", number)
        cubes.append((inpart, outpart))
    if n_in is None or n_out is None:
        raise ParseError("missing .i/.o headers")
    inputs = ilb if ilb is not None else [f"x{i + 1}" for i in range(n_in)]
    outputs = ob if ob is not None else [f"f{j}" for j in range(n_out)]
    if len(inputs) != n_in:
        raise ParseError(f".ilb names {len(inputs)} inputs, .i says {n_in}")
    if len(outputs) != n_out:
        raise ParseError(f".ob names {len(outputs)} outputs, .o says {n_out}")
    gates = []
    for j, out_name in enumerate(outputs):
        rows = [(inpart, "1") for inpart, outpart in cubes if outpart[j] == "1"]
        gates.append(Gate(output=out_name, inputs=list(inputs), rows=rows))
    return Netlist(name="", inputs=list(inputs), outputs=list(outputs),
                   gates=gates)


def _int_argument(tokens: list[str], number: int) -> int:
    if len(tokens) < 2:
        raise ParseError(f"{tokens[0]} needs a count", number)
    try:
        value = int(tokens[1])
    except ValueError:
        raise ParseError(f"{tokens[0]} count {tokens[1]!r} is not an integer",
                         number) from None
    if value < 0:
        raise ParseError(f"{tokens[0]} count must be nonnegative", number)
    return value


def _columns(part: str, width: int, alphabet: str, what: str,
             line: int | None = None) -> str:
    """``part`` if it is ``width`` characters over ``alphabet``, else ParseError."""
    if len(part) == width and not part.strip(alphabet):
        return part
    raise ParseError(f"{what} {part!r} needs {width} columns over {alphabet}", line)


def _validate(netlist: Netlist) -> None:
    """Check signal definitions and gate rows, reject cycles, topo-sort."""
    available: set[str] = set()
    for sig in netlist.cut_inputs:
        if sig in available:
            raise ParseError(f"input {sig!r} declared twice")
        available.add(sig)
    seen_outputs: set[str] = set()
    for sig in netlist.outputs:
        if sig in seen_outputs:
            raise ParseError(f"output {sig!r} declared twice")
        seen_outputs.add(sig)
    defined: dict[str, Gate] = {}
    for gate in netlist.gates:
        if gate.output in defined or gate.output in available:
            raise ParseError(f"signal {gate.output!r} defined twice")
        defined[gate.output] = gate
        for pattern, out in gate.rows:
            _columns(pattern, len(gate.inputs), "01-", f"gate {gate.output!r} pattern")
            _columns(out, 1, "01", f"gate {gate.output!r} output value")
        if len({out for _, out in gate.rows}) > 1:
            raise ParseError(f"gate {gate.output!r} mixes output phases")
    for gate in netlist.gates:
        for sig in gate.inputs:
            if sig not in available and sig not in defined:
                raise UndefinedSignalError(
                    f"gate {gate.output!r} reads undefined signal {sig!r}")
    for sig in netlist.cut_outputs:
        if sig not in available and sig not in defined:
            raise UndefinedSignalError(f"output {sig!r} is never defined")
    # Kahn's algorithm, stable in declaration order: always emit the
    # earliest declared gate whose gate-driven inputs are all emitted.
    pending = []
    readers: dict[str, list[int]] = {}
    for i, gate in enumerate(netlist.gates):
        deps = {s for s in gate.inputs if s in defined}
        pending.append(len(deps))
        for sig in deps:
            readers.setdefault(sig, []).append(i)
    ready = [i for i, count in enumerate(pending) if not count]
    sorted_gates: list[Gate] = []
    while ready:
        gate = netlist.gates[heapq.heappop(ready)]
        sorted_gates.append(gate)
        for i in readers.get(gate.output, ()):
            pending[i] -= 1
            if not pending[i]:
                heapq.heappush(ready, i)
    if len(sorted_gates) < len(netlist.gates):
        emitted = {gate.output for gate in sorted_gates}
        cycle = sorted(out for out in defined if out not in emitted)
        raise CycleError(f"combinational cycle through {', '.join(cycle)}")
    netlist.gates = sorted_gates


def format_blif(netlist: Netlist) -> str:
    """Canonical BLIF text; parsing it back yields an equal Netlist."""
    lines = [f".model {netlist.name}" if netlist.name else ".model"]
    if netlist.inputs:
        lines.append(".inputs " + " ".join(netlist.inputs))
    if netlist.outputs:
        lines.append(".outputs " + " ".join(netlist.outputs))
    for data_in, out in netlist.latches:
        lines.append(f".latch {data_in} {out}")
    for gate in netlist.gates:
        lines.append(".names " + " ".join(gate.inputs + [gate.output]))
        for pattern, out in gate.rows:
            lines.append(f"{pattern} {out}" if pattern else out)
    lines.append(".end")
    return "\n".join(lines) + "\n"


def manager_for(netlist: Netlist, node_limit: int | None = None) -> BddManager:
    """Manager sized for the latch-cut circuit, one variable per input."""
    return BddManager(len(netlist.cut_inputs), node_limit=node_limit)


def build_circuit_bdds(netlist: Netlist, manager: BddManager) -> dict[str, int]:
    """Build the gate BDDs in topological order, each by composing its
    cover's own diagram with the gate's input signals (see ``_gate_bdd``).

    Returns a mapping from every cut output to its registered root.  A
    manager node limit, which also bounds each cover's own diagram,
    turns into a BuildLimitError naming the input or the gate where the
    ceiling was hit.  Nothing is swept: the nodes of internal signals,
    and any handle the caller holds without a root, stay live.
    """
    cut_inputs = netlist.cut_inputs
    if manager.n != len(cut_inputs):
        raise NetlistError(
            f"manager has {manager.n} variables, circuit needs {len(cut_inputs)}")
    # A cover that occurs more than once (an adder's XOR2, AND2 and MAJ3)
    # is built once per call; one that occurs once, such as each output
    # of a wide PLA, is dropped after use.
    keys = [_cover_key(gate) for gate in netlist.gates]
    count = Counter(keys)
    covers: dict[tuple, tuple[BddManager, int]] = {}
    signal: dict[str, int] = {}
    kind = "input"
    try:
        for var, name in enumerate(cut_inputs):
            signal[name] = manager.literal(var)
        kind = "gate"
        for gate, key in zip(netlist.gates, keys):
            name = gate.output
            cover = covers.get(key) or _cover_bdd(*key, manager.node_limit)
            if count[key] > 1:
                covers[key] = cover
            signal[name] = _gate_bdd(manager, gate, signal, cover)
    except NodeLimitError as exc:
        raise BuildLimitError(
            f"node limit reached while building {kind} {name!r}") from exc
    roots: dict[str, int] = {}
    for name in netlist.cut_outputs:
        ref = signal[name]
        manager.register_root(ref)
        roots[name] = ref
    return roots


def _cover_key(gate: Gate) -> tuple[int, tuple[str, ...]]:
    """The gate's input count and row patterns, which fix its cover."""
    return len(gate.inputs), tuple(pattern for pattern, _ in gate.rows)


def _cover_bdd(k: int, patterns: tuple[str, ...],
               node_limit: int | None) -> tuple[BddManager, int]:
    """The OR of the cubes ``patterns`` over k variables in declared
    order, in a manager of its own under ``node_limit``: each cube is a
    chain of nodes, and the cubes are OR-folded together."""
    local = BddManager(k, node_limit=node_limit)
    cover = ZERO
    for pattern in patterns:
        cube = ONE
        for var in range(k - 1, -1, -1):
            if pattern[var] == "1":
                cube = local._mk(var, ZERO, cube)
            elif pattern[var] == "0":
                cube = local._mk(var, cube, ZERO)
        cover = local._ite(cover, ONE, cube)
    return local, cover


def _gate_bdd(manager: BddManager, gate: Gate, signal: dict[str, int],
              cover: tuple[BddManager, int]) -> int:
    """The gate's function: its ``cover``'s diagram with input i's signal
    substituted for variable i.  A 0 output column maps the cover's
    terminals to their complements, so no cover is negated."""
    local, root = cover
    memo = {ZERO: ONE, ONE: ZERO} if gate.rows and gate.rows[0][1] == "0" else None
    subst = {var: signal[name] for var, name in enumerate(gate.inputs)}
    return copy_function(local, root, manager, memo, subst)
