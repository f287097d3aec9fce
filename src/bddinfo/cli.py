"""Command-line harness.

Subcommands:
  measures      entropy / conditional-entropy report per output
  reorder       apply one reordering method, optionally print its trace
  compare       size (and optional timing) of several methods side by side
  oracle-check  brute-force agreement suite, nonzero exit on mismatch

Each of measures, reorder and compare builds its record rows once,
with the lines of its human table, and hands both to one emitter,
``_emit``, which writes the rows as JSON or as CSV under fixed columns,
or writes the table lines, as --format asks.  Machine formats (csv,
json) are byte-deterministic: fixed field order, 6-decimal fixed point
for bits and probabilities, and no timing values unless --timing is
given.  Exit codes: 0 ok, 1 input/parse error, 2 usage, 3 oracle
mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time
from dataclasses import dataclass

from . import measures as measures_mod
from . import netlist as netlist_mod
from . import oracle as oracle_mod
from . import reorder as reorder_mod
from .manager import BddError, BddManager, InputError, _index
from .measures import VarProbabilities

_METHODS = ("info", "sift", "window", "none")


@dataclass
class LoadedCircuit:
    name: str
    manager: BddManager
    outputs: list[tuple[str, int]]      # (name, root)
    input_names: list[str]


def _sniff_format(path: str, text: str) -> str:
    lower = path.lower()
    if lower.endswith(".blif"):
        return "blif"
    if lower.endswith(".pla"):
        return "pla"
    for _, tokens in netlist_mod._logical_lines(text):
        head = tokens[0]
        if head.startswith("."):
            if head in (".i", ".o", ".p", ".ilb", ".ob", ".e"):
                return "pla"
            return "blif"
        if set("".join(tokens)) <= {"0", "1"}:
            return "vector"
        return "blif"
    raise netlist_mod.ParseError("file holds no content")


def load_circuit(path: str, node_limit: int | None = None) -> LoadedCircuit:
    """Read a BLIF, PLA or truth-vector file into a fresh manager.

    Every output is a registered root.  After a netlist is built, the
    nodes no output reaches are swept and the op cache is cleared, so
    the manager holds the outputs' nodes and nothing else.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stem = path.rsplit("/", 1)[-1]
    stem = stem.rsplit(".", 1)[0] if "." in stem else stem
    kind = _sniff_format(path, text)
    if kind == "vector":
        bits = "".join(text.split())
        # The manager rejects a length that is not a power of two.
        n = max(len(bits).bit_length() - 1, 0)
        manager = BddManager(n, node_limit=node_limit)
        root = manager.build_from_truth_vector(bits)
        manager.register_root(root)
        return LoadedCircuit(name=stem, manager=manager,
                             outputs=[("f", root)],
                             input_names=[f"x{i + 1}" for i in range(n)])
    parsed = netlist_mod.parse_blif(text) if kind == "blif" else netlist_mod.parse_pla(text)
    manager = netlist_mod.manager_for(parsed, node_limit=node_limit)
    roots = netlist_mod.build_circuit_bdds(parsed, manager)
    manager.collect_garbage()
    outputs = [(name, roots[name]) for name in parsed.cut_outputs]
    return LoadedCircuit(name=parsed.name or stem, manager=manager,
                         outputs=outputs, input_names=parsed.cut_inputs)


# -- the one emitter ----------------------------------------------------------

def _fmt6(value: float) -> str:
    return f"{value:.6f}"


def _json(value) -> str:
    """``value`` as JSON, with every float in 6-decimal fixed point."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_json(k)}: {_json(v)}"
                               for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_json, value)) + "]"
    if isinstance(value, float):
        return _fmt6(value)
    if not (value is None or isinstance(value, int)):
        value = str(value)
    return json.dumps(value, ensure_ascii=False)


def _emit(out, fmt: str, rows: list[dict], table: list[str],
          columns: tuple[str, ...] = ()) -> int:
    """Write ``rows`` as a JSON list, one row a line, or as CSV under
    ``columns``, or write the ``table`` lines, as ``fmt`` asks."""
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt6(row[c]) if isinstance(row[c], float)
                             else row[c] for c in columns])
        return 0
    if fmt == "json":
        items = ["  " + _json(row) for row in rows]
        table = ["[", *[item + "," for item in items[:-1]], *items[-1:], "]"]
    out.write("".join(line + "\n" for line in table))
    return 0


def _align(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows]


# -- subcommands --------------------------------------------------------------

def _cmd_measures(args, out) -> int:
    circuit = load_circuit(args.file, args.node_limit)
    names = circuit.input_names
    selected_outputs = _select(args.outputs, [n for n, _ in circuit.outputs],
                               "output")
    selected_vars = _select(args.vars, names, "variable")
    rows = []
    table = [["output", "H(f)"] + [f"H(f|{v})" for v in names
                                   if v in selected_vars]]
    for out_name, root in circuit.outputs:
        if out_name not in selected_outputs:
            continue
        report = measures_mod.measure_report(circuit.manager, root)
        values = [("", "H", report.entropy)] + [
            (var_name, "H|x", report.cond_entropy[var])
            for var, var_name in enumerate(names) if var_name in selected_vars]
        rows.extend({"circuit": circuit.name, "output": out_name,
                     "variable": var_name, "measure": measure, "value": value}
                    for var_name, measure, value in values)
        table.append([out_name] + [f"{value:.2f}" for _, _, value in values])
    return _emit(out, args.format, rows,
                 [f"circuit: {circuit.name}"] + _align(table),
                 ("circuit", "output", "variable", "measure", "value"))


def _run_method(manager: BddManager, method: str, window: int):
    if method == "info":
        return reorder_mod.info_reorder(manager)
    if method == "sift":
        return reorder_mod.sift(manager)
    if method == "window":
        # Narrow circuits get the widest window that still fits; with a
        # single variable there is nothing to permute.
        window = min(window, manager.n)
        if window >= 2:
            return reorder_mod.window_permute(manager, window=window)
    order = list(manager.order)
    size = manager.shared_size()
    return reorder_mod.ReorderTrace(method=method, initial_order=order,
                                    final_order=order, initial_size=size,
                                    final_size=size)


def _cmd_reorder(args, out) -> int:
    circuit = load_circuit(args.file, args.node_limit)
    names = circuit.input_names
    trace = _run_method(circuit.manager, args.method, args.window)
    before, after = (",".join(names[v] for v in order)
                     for order in (trace.initial_order, trace.final_order))
    record = {"circuit": circuit.name, "method": trace.method,
              "size_before": trace.initial_size,
              "size_after": trace.final_size,
              "order_before": before, "order_after": after}
    table = [f"circuit: {circuit.name}  method: {trace.method}",
             f"size: {trace.initial_size} -> {trace.final_size}",
             f"order: {before} -> {after}"]
    if args.trace:
        record["steps"] = []
        for step in trace.steps:
            chosen = None if step.chosen is None else names[step.chosen]
            scores = [[names[var], score] for var, score in step.scores]
            record["steps"].append(
                {"level": step.level, "chosen": chosen, "tie": step.tie,
                 "size_after": step.size_after, "scores": scores})
            shown = " ".join(f"{name}={_fmt6(score)}" for name, score in scores)
            tie = " (tie)" if step.tie else ""
            table.append(f"level {step.level}: chosen "
                         f"{'-' if chosen is None else chosen}{tie}"
                         f"  size {step.size_after}"
                         + (f"  scores: {shown}" if shown else ""))
    return _emit(out, args.format, [record], table)


def _cmd_compare(args, out) -> int:
    circuit = load_circuit(args.file, args.node_limit)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for method in methods:
        if method not in _METHODS:
            raise InputError(f"unknown method {method!r}")
    base = circuit.manager
    rows = []
    table = [["method", "size", "millis"]]
    for method in methods:
        manager = base.clone()
        t0 = time.perf_counter()
        trace = _run_method(manager, method, args.window)
        elapsed_ms = int((time.perf_counter() - t0) * 1000)
        millis = elapsed_ms if args.timing else None
        rows.append({"circuit": circuit.name, "method": method,
                     "size": trace.final_size, "millis": millis})
        table.append([method, str(trace.final_size),
                      "-" if millis is None else str(millis)])
    return _emit(out, args.format, rows,
                 [f"circuit: {circuit.name}  initial size: "
                  f"{base.shared_size()}"] + _align(table),
                 ("circuit", "method", "size", "millis"))


def _cmd_oracle_check(args, out) -> int:
    circuit = load_circuit(args.file, args.node_limit)
    manager = circuit.manager
    n = manager.n
    if n > args.max_n:
        raise InputError(
            f"circuit has {n} inputs, above the --max-n {args.max_n} guard")
    rng = random.Random(args.seed)
    tol = 1e-9
    failures: list[str] = []
    checks = 0

    def expect(label: str, got: float, want: float):
        nonlocal checks
        checks += 1
        if abs(got - want) > tol:
            failures.append(f"{label}: bdd={got!r} oracle={want!r}")

    for out_name, root in circuit.outputs:
        tt = oracle_mod.enumerate_bdd(manager, root)
        subsets = []
        if n >= 1:
            for _ in range(3):
                k = rng.randint(1, min(3, n))
                subsets.append(tuple(sorted(rng.sample(range(n), k))))
        report = oracle_mod.exact_measures(tt, subsets=tuple(subsets))
        bdd = measures_mod.measure_report(manager, root, subsets=subsets)
        profile = measures_mod.all_joint_probabilities(manager, root)
        expect(f"{out_name}: p(f=1)", profile.sat, float(tt.sat_probability()))
        expect(f"{out_name}: H(f)", bdd.entropy, report.entropy)
        uniform = VarProbabilities.uniform(n)
        for var in range(n):
            var_name = circuit.input_names[var]
            for b in (0, 1):
                want = float(oracle_mod.joint_probability(tt, var, b))
                expect(f"{out_name}: p(f=1,{var_name}={b})",
                       profile.joint[var][b], want)
                want_c = float(oracle_mod.conditional_probability(tt, var, b))
                expect(f"{out_name}: p(f=1|{var_name}={b})",
                       profile.conditional[var][b], want_c)
                forced = measures_mod.weighted_sat_probability(
                    manager, root, uniform.forced(var, b))
                expect(f"{out_name}: forced-weight p(f=1|{var_name}={b})",
                       forced, profile.conditional[var][b])
            expect(f"{out_name}: H(f|{var_name})", bdd.cond_entropy[var],
                   report.cond_entropy[var])
        for subset in subsets:
            expect(f"{out_name}: H(f|{subset})", bdd.set_entropy[subset],
                   report.set_entropy[subset])
    if failures:
        for line in failures:
            out.write("MISMATCH " + line + "\n")
        out.write(f"oracle-check: {len(failures)} of {checks} checks failed\n")
        return 3
    if not args.quiet:
        out.write(f"oracle-check: {checks} checks passed on "
                  f"{len(circuit.outputs)} outputs\n")
    return 0


def _select(raw: str | None, known: list[str], what: str) -> set[str]:
    if raw is None:
        return set(known)
    picked = set()
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in known:
            raise SystemExit(f"unknown {what} {token!r}")
        picked.add(token)
    return picked


def _node_limit(text: str) -> int:
    """``--node-limit``: a nonnegative int, else a usage error."""
    try:
        return _index(int(text), None, ValueError, "node limit")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid nonnegative int value: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--node-limit", type=_node_limit, default=None,
                        help="abort construction above this many live nodes")

    parser = argparse.ArgumentParser(
        prog="bddinfo",
        description="BDD information measures and variable reordering")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", parents=[common],
                       help="entropy report per output")
    p.add_argument("file")
    p.add_argument("--outputs", default=None, help="comma-separated output names")
    p.add_argument("--vars", default=None, help="comma-separated input names")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(func=_cmd_measures)

    p = sub.add_parser("reorder", parents=[common],
                       help="apply one reordering method")
    p.add_argument("file")
    p.add_argument("--method", choices=_METHODS, required=True)
    p.add_argument("--window", type=int, default=3, choices=(2, 3, 4))
    p.add_argument("--trace", action="store_true", help="print per-level details")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_reorder)

    p = sub.add_parser("compare", parents=[common],
                       help="run several methods from the same start")
    p.add_argument("file")
    p.add_argument("--methods", default="info,sift,window,none")
    p.add_argument("--window", type=int, default=3, choices=(2, 3, 4))
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--timing", action="store_true",
                   help="fill the millis column (not byte-deterministic)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("oracle-check", parents=[common],
                       help="verify BDD measures against truth-table counting")
    p.add_argument("file")
    p.add_argument("--max-n", type=int, default=12,
                   help="refuse circuits with more inputs than this")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the sampled variable subsets")
    p.add_argument("--quiet", action="store_true",
                   help="print nothing when every check passes")
    p.set_defaults(func=_cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args, sys.stdout)
    except (netlist_mod.NetlistError, InputError, OSError, BddError,
            oracle_mod.OracleLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"error: {exc.code}", file=sys.stderr)
            return 2
        return exc.code or 0


if __name__ == "__main__":
    raise SystemExit(main())
