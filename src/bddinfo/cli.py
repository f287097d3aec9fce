"""Command-line harness.

Subcommands:
  measures      entropy / conditional-entropy report per output
  reorder       apply one reordering method, optionally print its trace
  compare       size (and optional timing) of several methods side by side
  oracle-check  brute-force agreement suite, nonzero exit on mismatch

Machine formats (csv, json) are byte-deterministic: fixed field order,
6-decimal fixed point for bits and probabilities, and no timing values
unless --timing is given.  Exit codes: 0 ok, 1 input/parse error,
2 usage, 3 oracle mismatch.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
import time
from dataclasses import dataclass

from . import measures as measures_mod
from . import netlist as netlist_mod
from . import oracle as oracle_mod
from . import reorder as reorder_mod
from .manager import BddError, BddManager, InputError
from .measures import VarProbabilities

_METHODS = ("info", "sift", "window", "none")


@dataclass
class LoadedCircuit:
    name: str
    manager: BddManager
    outputs: list[tuple[str, int]]      # (name, root)
    input_names: list[str]
    netlist: netlist_mod.Netlist | None


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
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stem = path.rsplit("/", 1)[-1]
    stem = stem.rsplit(".", 1)[0] if "." in stem else stem
    kind = _sniff_format(path, text)
    if kind == "vector":
        bits = "".join(text.split())
        length = len(bits)
        if length == 0 or length & (length - 1):
            raise InputError(f"truth vector length {length} is not a power of two")
        n = length.bit_length() - 1
        manager = BddManager(n, node_limit=node_limit)
        root = manager.build_from_truth_vector(bits)
        manager.register_root(root)
        return LoadedCircuit(name=stem, manager=manager,
                             outputs=[("f", root)],
                             input_names=[f"x{i + 1}" for i in range(n)],
                             netlist=None)
    parsed = netlist_mod.parse_blif(text) if kind == "blif" else netlist_mod.parse_pla(text)
    manager = netlist_mod.manager_for(parsed, node_limit=node_limit)
    roots = netlist_mod.build_circuit_bdds(parsed, manager)
    outputs = [(name, roots[name]) for name in parsed.cut_outputs]
    return LoadedCircuit(name=parsed.name or stem, manager=manager,
                         outputs=outputs, input_names=parsed.cut_inputs,
                         netlist=parsed)


# -- deterministic emitters ---------------------------------------------------

def _fmt6(value: float) -> str:
    return f"{value:.6f}"


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt6(value)
    if isinstance(value, int):
        return str(value)
    escaped = (str(value).replace("\\", "\\\\").replace('"', '\\"'))
    return f'"{escaped}"'


def _json_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    if isinstance(value, dict):
        inner = ", ".join(f'{_json_scalar(k)}: {_json_value(v)}'
                          for k, v in value.items())
        return "{" + inner + "}"
    return _json_scalar(value)


def _emit_json(rows, out) -> None:
    out.write("[\n")
    for i, row in enumerate(rows):
        out.write("  " + _json_value(row))
        out.write(",\n" if i + 1 < len(rows) else "\n")
    out.write("]\n")


def _emit_csv(rows, columns, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if row[c] is None else
                         (_fmt6(row[c]) if isinstance(row[c], float) else row[c])
                         for c in columns])


def _emit_table(lines, out) -> None:
    for line in lines:
        out.write(line + "\n")


def _align(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows]


# -- subcommands --------------------------------------------------------------

def _cmd_measures(args, out) -> int:
    circuit = load_circuit(args.file, args.node_limit)
    manager = circuit.manager
    names = circuit.input_names
    selected_outputs = _select(args.outputs, [n for n, _ in circuit.outputs],
                               "output")
    selected_vars = _select(args.vars, names, "variable")
    rows = []
    for out_name, root in circuit.outputs:
        if out_name not in selected_outputs:
            continue
        report = measures_mod.measure_report(manager, root)
        rows.append({"circuit": circuit.name, "output": out_name,
                     "variable": "", "measure": "H",
                     "value": report.entropy})
        for var, var_name in enumerate(names):
            if var_name not in selected_vars:
                continue
            rows.append({"circuit": circuit.name, "output": out_name,
                         "variable": var_name, "measure": "H|x",
                         "value": report.cond_entropy[var]})
    if args.format == "json":
        _emit_json(rows, out)
    elif args.format == "csv":
        _emit_csv(rows, ["circuit", "output", "variable", "measure", "value"], out)
    else:
        header = ["output", "H(f)"] + [f"H(f|{v})" for v in names
                                       if v in selected_vars]
        table = [header]
        for out_name, root in circuit.outputs:
            if out_name not in selected_outputs:
                continue
            cells = [out_name]
            for row in rows:
                if row["output"] == out_name:
                    cells.append(f"{row['value']:.2f}")
            table.append(cells)
        _emit_table([f"circuit: {circuit.name}"] + _align(table), out)
    return 0


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
    manager = circuit.manager
    names = circuit.input_names
    trace = _run_method(manager, args.method, args.window)

    def order_names(order):
        return ",".join(names[v] for v in order)

    if args.format == "json":
        record = {"circuit": circuit.name, "method": trace.method,
                  "size_before": trace.initial_size,
                  "size_after": trace.final_size,
                  "order_before": order_names(trace.initial_order),
                  "order_after": order_names(trace.final_order)}
        if args.trace:
            record["steps"] = [
                {"level": step.level,
                 "chosen": None if step.chosen is None else names[step.chosen],
                 "tie": step.tie, "size_after": step.size_after,
                 "scores": [[names[var], score] for var, score in step.scores]}
                for step in trace.steps]
        _emit_json([record], out)
    else:
        lines = [f"circuit: {circuit.name}  method: {trace.method}",
                 f"size: {trace.initial_size} -> {trace.final_size}",
                 f"order: {order_names(trace.initial_order)} -> "
                 f"{order_names(trace.final_order)}"]
        if args.trace:
            for step in trace.steps:
                chosen = "-" if step.chosen is None else names[step.chosen]
                scores = " ".join(f"{names[var]}={score:.6f}"
                                  for var, score in step.scores)
                tie = " (tie)" if step.tie else ""
                lines.append(f"level {step.level}: chosen {chosen}{tie}"
                             f"  size {step.size_after}"
                             + (f"  scores: {scores}" if scores else ""))
        _emit_table(lines, out)
    return 0


def _cmd_compare(args, out) -> int:
    circuit = load_circuit(args.file, args.node_limit)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for method in methods:
        if method not in _METHODS:
            raise InputError(f"unknown method {method!r}")
    base = circuit.manager
    rows = []
    for method in methods:
        manager = base.clone()
        t0 = time.perf_counter()
        trace = _run_method(manager, method, args.window)
        elapsed_ms = int((time.perf_counter() - t0) * 1000)
        rows.append({"circuit": circuit.name, "method": method,
                     "size": trace.final_size,
                     "millis": elapsed_ms if args.timing else None})
    if args.format == "json":
        _emit_json(rows, out)
    elif args.format == "csv":
        _emit_csv(rows, ["circuit", "method", "size", "millis"], out)
    else:
        table = [["method", "size", "millis"]]
        for row in rows:
            table.append([row["method"], str(row["size"]),
                          "-" if row["millis"] is None else str(row["millis"])])
        _emit_table([f"circuit: {circuit.name}  initial size: "
                     f"{circuit.manager.shared_size()}"] + _align(table), out)
    return 0


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
        profile = measures_mod.all_joint_probabilities(manager, root)
        expect(f"{out_name}: p(f=1)", profile.sat, float(tt.sat_probability()))
        expect(f"{out_name}: H(f)",
               measures_mod.entropy(manager, root), report.entropy)
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
            expect(f"{out_name}: H(f|{var_name})",
                   measures_mod.conditional_entropy_var(manager, root, var),
                   report.cond_entropy[var])
        for subset in subsets:
            got = measures_mod.conditional_entropy_set(manager, root, subset)
            expect(f"{out_name}: H(f|{subset})", got, report.set_entropy[subset])
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--node-limit", type=int, default=None,
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
    except (netlist_mod.NetlistError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BddError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"error: {exc.code}", file=sys.stderr)
            return 2
        return exc.code or 0


if __name__ == "__main__":
    raise SystemExit(main())
