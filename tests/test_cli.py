import ast
import dataclasses
import json
import re
import shlex

import pytest

from bddinfo.cli import main
from bddinfo.measures import VarProbabilities

from conftest import DATA

ROOT = DATA.parent.parent
EXAMPLE1 = str(DATA / "example1.blif")
EXAMPLE1_PLA = str(DATA / "example1.pla")
C17 = str(DATA / "c17.blif")
GOLDEN = DATA / "golden"
GOLDEN_RUNS = [(("compare", "--format", "csv"), "compare_{}.csv"),
               (("measures", "--format", "csv"), "measures_{}.csv")] + [
    (("reorder", "--method", method, "--trace", "--format", "json"),
     f"reorder_{{}}_{method}.json") for method in ("info", "sift", "window")] + [
    (("measures",), "measures_{}_table.txt"),
    (("measures", "--format", "json"), "measures_{}_rows.json"),
    (("compare",), "compare_{}_table.txt"),
    (("compare", "--format", "json"), "compare_{}_rows.json")] + [
    (("reorder", "--method", method) + extra, f"reorder_{{}}_{method}_{kind}")
    for method in ("info", "sift", "window")
    for extra, kind in (((), "table.txt"), (("--trace",), "trace.txt"),
                        (("--format", "json"), "record.json"))] + [
    (("oracle-check",), "oracle_check_{}.txt"),
    (("oracle-check", "--seed", "7"), "oracle_check_{}_seed7.txt")]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_readme_command_line_examples(capsys, monkeypatch):
    """Every ``$ bddinfo`` line of README's Command line section prints,
    run from the repository root, exactly the lines shown under it; a
    trailing ``#`` comment is not part of the command."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n")[1]
    section = section.split("\n## ")[0]
    monkeypatch.chdir(ROOT)
    ran = 0
    for block in section.split("```sh\n")[1:]:
        for example in block.split("\n```")[0].split("$ bddinfo ")[1:]:
            command, _, shown = example.partition("\n")
            argv = shlex.split(command.split("#")[0])
            code, out, _ = run(capsys, *argv)
            assert (code, out) == (0, shown.rstrip("\n") + "\n"), command
            ran += 1
    assert ran >= 4


def test_readme_library_tour():
    """README's Library tour block runs as written, and every bare
    expression with a comment evaluates to the value the comment shows
    (the part after its last ``=``, else the whole comment), within 1e-6."""
    section = (ROOT / "README.md").read_text().split("\n## Library tour\n")[1]
    block = section.split("```python\n")[1].split("\n```")[0]
    namespace: dict = {}
    checked = []
    for statement in ast.parse(block).body:
        code = ast.get_source_segment(block, statement)
        line = block.splitlines()[statement.end_lineno - 1]
        if not isinstance(statement, ast.Expr) or "#" not in line:
            exec(code, namespace)
            continue
        comment = line.split("#", 1)[1].rsplit(" = ", 1)[-1]
        shown = ast.literal_eval(re.search(r"\[.*\]|\d+(\.\d+)?", comment)[0])
        assert eval(code, namespace) == pytest.approx(shown, abs=1e-6), code
        checked.append(shown)
    assert checked == [0.954434, 0.405639, 0.25, 0.25, [0, 1, 2]]


def test_measures_table(capsys):
    code, out, _ = run(capsys, "measures", EXAMPLE1)
    assert code == 0
    assert "circuit: example1" in out
    assert "0.95" in out and "0.41" in out and "0.91" in out


def test_measures_json_values(capsys):
    code, out, _ = run(capsys, "measures", EXAMPLE1, "--format", "json")
    assert code == 0
    rows = json.loads(out)
    values = {(r["output"], r["variable"], r["measure"]): r["value"] for r in rows}
    assert values[("f", "", "H")] == pytest.approx(0.954434, abs=1e-6)
    assert values[("f", "x1", "H|x")] == pytest.approx(0.405639, abs=1e-6)
    assert values[("f", "x2", "H|x")] == pytest.approx(0.905639, abs=1e-6)
    assert values[("f", "x3", "H|x")] == pytest.approx(0.905639, abs=1e-6)
    assert all(set(r) == {"circuit", "output", "variable", "measure", "value"}
               for r in rows)


def test_measures_csv_header(capsys):
    code, out, _ = run(capsys, "measures", EXAMPLE1, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "circuit,output,variable,measure,value"
    assert lines[1] == "example1,f,,H,0.954434"


def test_measures_filters(capsys):
    code, out, _ = run(capsys, "measures", EXAMPLE1, "--format", "csv",
                       "--vars", "x1", "--outputs", "f")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3   # header, H row, one H|x row
    code, _, err = run(capsys, "measures", EXAMPLE1, "--vars", "nope")
    assert code == 2


def test_measures_outputs_leave_the_others_out(capsys):
    """``--outputs`` keeps the named outputs' rows, in circuit order,
    and drops every row of an output it does not name."""
    _, every, _ = run(capsys, "measures", C17, "--format", "csv")
    code, out, _ = run(capsys, "measures", C17, "--format", "csv",
                       "--outputs", "G23")
    assert code == 0
    lines = every.splitlines()
    assert out.splitlines() == [lines[0]] + [
        line for line in lines[1:] if line.split(",")[1] == "G23"]
    assert any(line.split(",")[1] == "G22" for line in lines[1:])


def test_empty_tokens_in_selections_are_skipped(capsys):
    """An empty name between commas selects nothing and is no error."""
    for flag, picked in (("--outputs", "G22,G23"), ("--vars", "G1,G3")):
        _, want, _ = run(capsys, "measures", C17, "--format", "csv",
                         flag, picked)
        spaced = picked.replace(",", ",, ,")
        assert run(capsys, "measures", C17, "--format", "csv",
                   flag, spaced) == (0, want, "")
        assert run(capsys, "measures", C17, "--format", "csv",
                   flag, f",{picked},") == (0, want, "")


def test_extensionless_text_that_is_neither_is_read_as_blif(tmp_path, capsys):
    """A file without an extension whose first content line is neither a
    directive nor 0/1 is parsed as BLIF, and fails as BLIF does."""
    path = tmp_path / "notes"
    path.write_text("# a comment\nhello world\n")
    code, out, err = run(capsys, "measures", str(path))
    assert (code, out) == (1, "")
    assert err == "error: line 2: cover row outside .names: hello world\n"


def test_measures_pla_matches_blif(capsys):
    """example1 as BLIF, as PLA and as a commented, continued truth
    vector (example1.tt) gives one measures CSV."""
    outs = [run(capsys, "measures", path, "--format", "csv")
            for path in (EXAMPLE1, EXAMPLE1_PLA, str(DATA / "example1.tt"))]
    assert outs[0][0] == 0
    assert outs[1:] == outs[:1] * 2


def test_reorder_info_trace(capsys):
    code, out, _ = run(capsys, "reorder", EXAMPLE1, "--method", "info", "--trace")
    assert code == 0
    assert "order: x1,x2,x3 -> x1,x2,x3" in out
    assert "chosen x1" in out
    assert "x1=0.405639" in out


def test_reorder_json(capsys):
    code, out, _ = run(capsys, "reorder", EXAMPLE1, "--method", "info",
                       "--trace", "--format", "json")
    assert code == 0
    record = json.loads(out)[0]
    assert record["order_after"] == "x1,x2,x3"
    assert record["size_after"] == 3
    level0 = record["steps"][0]
    assert level0["chosen"] == "x1"
    assert dict(map(tuple, level0["scores"]))["x1"] == pytest.approx(0.405639, abs=1e-6)


def test_reorder_window_trace_human(capsys):
    code, out, _ = run(capsys, "reorder", C17, "--method", "window", "--trace")
    assert code == 0
    assert "method: window" in out
    assert "size:" in out


def test_reorder_none(capsys):
    code, out, _ = run(capsys, "reorder", EXAMPLE1, "--method", "none",
                       "--format", "json")
    assert code == 0
    record = json.loads(out)[0]
    assert record["size_before"] == record["size_after"] == 3


def test_compare_rows(capsys):
    code, out, _ = run(capsys, "compare", EXAMPLE1,
                       "--methods", "info,sift,none", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "circuit,method,size,millis"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == ["info", "sift", "none"]
    assert all(r[2] == "3" for r in rows)
    assert all(r[3] == "" for r in rows)   # no timing unless requested


def test_compare_json_timing(capsys):
    code, out, _ = run(capsys, "compare", EXAMPLE1, "--methods", "none",
                       "--format", "json", "--timing")
    assert code == 0
    row = json.loads(out)[0]
    assert set(row) == {"circuit", "method", "size", "millis"}
    assert row["millis"] == 0       # none runs no reorderer


def test_compare_timing_reads_the_trace(capsys, monkeypatch):
    """``--timing`` fills millis from each run's ``ReorderTrace.elapsed``."""
    from bddinfo import cli
    run_method = cli._run_method

    def timed(manager, method, window):
        trace = run_method(manager, method, window)
        trace.elapsed = 1.2345
        return trace
    monkeypatch.setattr(cli, "_run_method", timed)
    code, out, _ = run(capsys, "compare", EXAMPLE1, "--methods", "info,sift",
                       "--format", "csv", "--timing")
    assert (code, out.splitlines()[1:]) == (0, ["example1,info,3,1234",
                                                "example1,sift,3,1234"])


def test_compare_c17_within_soft_bound(capsys):
    code, out, _ = run(capsys, "compare", C17, "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert {r["method"] for r in rows} == {"info", "sift", "window", "none"}
    for row in rows:
        assert row["size"] <= 11


def test_compare_unknown_method(capsys):
    code, _, err = run(capsys, "compare", EXAMPLE1, "--methods", "genetic")
    assert code == 1
    assert "genetic" in err


def test_window_clamped_on_narrow_circuits(capsys):
    # toggle has 2 cut inputs; the default window of 3 must still work
    code, out, _ = run(capsys, "compare", str(DATA / "toggle.blif"),
                       "--format", "json")
    assert code == 0
    assert {r["method"] for r in json.loads(out)} == \
        {"info", "sift", "window", "none"}
    single = DATA / "toggle.blif"
    code, out, _ = run(capsys, "reorder", str(single), "--method", "window",
                       "--format", "json")
    assert code == 0


def test_compare_none_matches_fresh_size(capsys):
    code, out, _ = run(capsys, "compare", C17, "--methods", "none",
                       "--format", "json")
    assert code == 0
    from bddinfo.cli import load_circuit
    assert json.loads(out)[0]["size"] == load_circuit(C17).manager.shared_size()


def test_oracle_check(capsys):
    code, out, _ = run(capsys, "oracle-check", EXAMPLE1)
    assert code == 0
    assert "checks passed" in out


def test_oracle_check_mismatch_exits_3(capsys, monkeypatch):
    import bddinfo.cli as cli_mod
    real = cli_mod.measures_mod.measure_report

    def skewed(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, entropy=report.entropy + 0.001)

    monkeypatch.setattr(cli_mod.measures_mod, "measure_report", skewed)
    code, out, _ = run(capsys, "oracle-check", EXAMPLE1)
    assert code == 3
    assert "MISMATCH" in out


def test_oracle_check_prints_each_mismatch(capsys, monkeypatch):
    """One value of each kind is perturbed in turn, then all at once:
    oracle-check exits 3 and prints, in check order, one MISMATCH line
    per failed check and the count of failed checks among all 26 of
    example1.  A conditional feeds two checks, the oracle's and the
    forced-weight pass's, so it fails both."""
    import bddinfo.cli as cli_mod
    measures = cli_mod.measures_mod
    real = {name: getattr(measures, name) for name in (
        "measure_report", "all_joint_probabilities", "weighted_sat_probability")}

    def field(name, change):
        return lambda value, args: dataclasses.replace(
            value, **{name: change(getattr(value, name))})

    def forced(value, args):
        pinned = args[2] == VarProbabilities.uniform(3).forced(1, 0)
        return value + 0.001 if pinned else value

    def edited(name, edits):
        def call(*args, **kwargs):
            value = real[name](*args, **kwargs)
            for edit in edits:
                value = edit(value, args)
            return value
        return call

    first = lambda sets: {s: v + 0.001 * (i == 0)
                          for i, (s, v) in enumerate(sets.items())}
    cases = [   # in the order oracle-check makes its checks
        ("measure_report", field("entropy", lambda h: h + 0.001),
         ["f: H(f): bdd=0.955434002924965 oracle=0.954434002924965"]),
        ("all_joint_probabilities",
         field("joint", lambda p: {**p, 0: (p[0][0] + 0.001, p[0][1])}),
         ["f: p(f=1,x1=0): bdd=0.126 oracle=0.125"]),
        ("weighted_sat_probability", forced,
         ["f: forced-weight p(f=1|x2=0): bdd=0.751 oracle=0.75"]),
        ("measure_report",
         field("cond_entropy", lambda h: {**h, 1: h[1] + 0.001}),
         ["f: H(f|x2): bdd=0.9066390622295665 oracle=0.9056390622295665"]),
        ("all_joint_probabilities",
         field("conditional", lambda p: {**p, 2: (p[2][0], p[2][1] + 0.001)}),
         ["f: p(f=1|x3=1): bdd=0.501 oracle=0.5",
          "f: forced-weight p(f=1|x3=1): bdd=0.5 oracle=0.501"]),
        ("measure_report", field("set_entropy", first),
         ["f: H(f|(0, 1)): bdd=0.251 oracle=0.25"]),
    ]
    for chosen in [[case] for case in cases] + [cases]:
        with monkeypatch.context() as patched:
            for name in real:
                patched.setattr(measures, name, edited(
                    name, [edit for n, edit, _ in chosen if n == name]))
            code, out, err = run(capsys, "oracle-check", EXAMPLE1)
        mismatches = [line for _, _, lines in chosen for line in lines]
        assert (code, err) == (3, "")
        assert out.splitlines() == [f"MISMATCH {line}" for line in mismatches] + [
            f"oracle-check: {len(mismatches)} of 26 checks failed"]


def test_oracle_check_quiet(capsys):
    code, out, _ = run(capsys, "oracle-check", EXAMPLE1, "--quiet")
    assert code == 0
    assert out == ""


def test_oracle_check_max_n_guard(capsys):
    code, _, err = run(capsys, "oracle-check", C17, "--max-n", "3")
    assert code == 1
    assert "inputs" in err


def test_refusals_build_no_node(tmp_path, capsys, monkeypatch):
    """An unknown output, variable or method, or a circuit above the
    --max-n guard, is refused from the parsed file, before any diagram
    is built, for a netlist and for a truth vector alike."""
    import bddinfo.netlist as netlist_mod
    from bddinfo import BddManager
    builds = []
    for owner, name in ((netlist_mod, "build_circuit_bdds"),
                        (BddManager, "build_from_truth_vector")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, real=real, name=name:
                            builds.append(name) or real(*args))
    vector = tmp_path / "fn.txt"
    vector.write_text("10001111\n")
    refusals = [(("measures", "--outputs", "nope"), 2, "unknown output 'nope'"),
                (("measures", "--vars", "nope"), 2, "unknown variable 'nope'"),
                (("compare", "--methods", "bogus"), 1, "unknown method 'bogus'"),
                (("oracle-check", "--max-n", "2"), 1,
                 "circuit has {} inputs, above the --max-n 2 guard")]
    for path, n in ((C17, 5), (str(vector), 3)):
        for (command, *flags), code, error in refusals:
            assert run(capsys, command, path, *flags) == \
                (code, "", f"error: {error.format(n)}\n")
    assert builds == []
    assert run(capsys, "measures", str(vector), "--vars", "x1")[0] == 0
    assert run(capsys, "measures", C17, "--vars", "G1")[0] == 0
    assert builds == ["build_from_truth_vector", "build_circuit_bdds"]


def test_oracle_check_above_the_enumeration_limit(tmp_path, capsys):
    from bddinfo.oracle import MAX_ENUM_VARS
    n = MAX_ENUM_VARS + 1
    wide = tmp_path / "wide.blif"
    wide.write_text(f".model wide\n.inputs {' '.join(f'a{i}' for i in range(n))}\n"
                    ".outputs y\n.names a0 a1 y\n11 1\n.end\n")
    code, out, err = run(capsys, "oracle-check", str(wide), "--max-n", str(n + 5))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_oracle_check_on_twenty_inputs(tmp_path, capsys):
    """Tables of 2**20 bits: a parity chain and a 3-input majority."""
    n = 20
    lines = [".model wide20", ".inputs " + " ".join(f"a{i}" for i in range(n)),
             ".outputs p m"]
    prev = "a0"
    for i in range(1, n):
        out = "p" if i == n - 1 else f"x{i}"
        lines += [f".names {prev} a{i} {out}", "10 1", "01 1"]
        prev = out
    lines += [".names a0 a9 a19 m", "11- 1", "1-1 1", "-11 1", ".end"]
    wide = tmp_path / "wide20.blif"
    wide.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "oracle-check", str(wide), "--max-n", "20")
    assert code == 0
    assert out.startswith("oracle-check: ")
    assert out.endswith(" checks passed on 2 outputs\n")


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate", EXAMPLE1)[0] == 2
    assert run(capsys, "measures", EXAMPLE1, "--format", "yaml")[0] == 2
    assert run(capsys, "reorder", EXAMPLE1)[0] == 2   # --method required


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.blif"
    bad.write_text(".model m\n.inputs a\n.outputs y\n.names a y\nxx 1\n.end\n")
    code, _, err = run(capsys, "measures", str(bad))
    assert code == 1
    assert "line" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "measures", "no-such-file.blif")
    assert code == 1


def test_vector_file(tmp_path, capsys):
    path = tmp_path / "fn.txt"
    path.write_text("10001111\n")
    code, out, _ = run(capsys, "measures", str(path), "--format", "csv")
    assert code == 0
    assert "fn,f,,H,0.954434" in out
    code, out, _ = run(capsys, "reorder", str(path), "--method", "info",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["order_after"] == "x1,x2,x3"
    # Comments, blank lines and continuations are not bits.
    _, want, _ = run(capsys, "measures", str(path), "--format", "csv")
    for text in ("# comment\n10001111\n", "1000\\\n1111\n", "\n1000 1111  # f\n"):
        path.write_text(text)
        assert run(capsys, "measures", str(path), "--format", "csv") == (0, want, "")
    # Without an extension the format is read from the content.
    _, want, _ = run(capsys, "measures", EXAMPLE1, "--format", "csv")
    for source in ("example1.blif", "example1.pla"):
        bare = tmp_path / "example1"
        bare.write_text((DATA / source).read_text())
        assert run(capsys, "measures", str(bare), "--format", "csv") == \
            (0, want, "")
    empty = tmp_path / "empty"
    empty.write_text("# nothing\n")
    assert run(capsys, "measures", str(empty)) == \
        (1, "", "error: file holds no content\n")


def test_vector_file_of_bad_length(tmp_path, capsys):
    path = tmp_path / "fn.txt"
    path.write_text("100011\n")
    code, out, err = run(capsys, "measures", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: truth vector length 6 is not a power of two\n"


def test_node_limit_flag(capsys):
    code, _, err = run(capsys, "measures", C17, "--node-limit", "2")
    assert code == 1
    assert "node limit" in err
    for limit in ("-1", "x"):
        code, out, err = run(capsys, "measures", C17, "--node-limit", limit)
        assert (code, out) == (2, "")
        assert "error: argument --node-limit" in err


def test_compare_under_a_node_limit_every_search_fits(capsys):
    """Every search on hwb12 fits in 450 nodes; the check after each one
    rebuilds in its own scratch copy, which the limit does not bound."""
    hwb12 = str(DATA / "hwb12.tt")
    unlimited = run(capsys, "compare", hwb12, "--format", "csv")
    assert unlimited == (0, "circuit,method,size,millis\nhwb12,info,259,\n"
                         "hwb12,sift,153,\nhwb12,window,238,\nhwb12,none,238,\n", "")
    assert run(capsys, "compare", hwb12, "--node-limit", "600",
               "--format", "csv") == unlimited


@pytest.mark.parametrize("method", ["info", "sift", "window"])
def test_a_reorder_refused_under_a_node_limit_prints_only_the_error(
        capsys, method):
    """hwb12 loads in 238 nodes, under the limit, but no search fits it."""
    assert run(capsys, "reorder", str(DATA / "hwb12.tt"), "--method", method,
               "--node-limit", "250") == \
        (1, "", "error: node limit 250 could be passed by a level swap\n")


def test_machine_output_determinism(tmp_path, capsys):
    vector = tmp_path / "v.txt"
    vector.write_text("0110100110010110")
    commands = [
        ("measures", EXAMPLE1, "--format", "csv"),
        ("measures", EXAMPLE1, "--format", "json"),
        ("measures", str(vector), "--format", "json"),
        ("reorder", EXAMPLE1, "--method", "info", "--trace", "--format", "json"),
        ("reorder", C17, "--method", "sift", "--format", "json"),
        ("compare", C17, "--format", "csv"),
        ("compare", EXAMPLE1, "--methods", "info,sift,window,none",
         "--format", "json"),
        ("oracle-check", EXAMPLE1),
    ]
    for argv in commands:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0


@pytest.mark.parametrize("circuit", ["c17", "s27"])
@pytest.mark.parametrize("argv, golden", GOLDEN_RUNS,
                         ids=[golden.split(".")[0] for _, golden in GOLDEN_RUNS])
def test_stdout_matches_golden(capsys, circuit, argv, golden):
    """Byte-for-byte stdout against files frozen from an earlier build;
    the compare tables are the ones shown in the README."""
    code, out, _ = run(capsys, argv[0], str(DATA / f"{circuit}.blif"), *argv[1:])
    assert code == 0
    assert out == (GOLDEN / golden.format(circuit)).read_text(encoding="utf-8")


def test_oracle_check_asks_the_kernel_once_per_output(capsys, monkeypatch):
    import bddinfo.cli as cli_mod
    real = cli_mod.measures_mod._conditioned
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod.measures_mod, "_conditioned", counted)
    code, out, _ = run(capsys, "oracle-check", C17)
    assert code == 0
    assert "on 2 outputs" in out
    assert [len(roots) for roots in calls] == [1, 1]


def test_json_names_with_control_characters(tmp_path, capsys):
    path = tmp_path / "odd.blif"
    path.write_text(".model odd\n.inputs a\x01b c\n.outputs q\x02\n"
                    ".names a\x01b c q\x02\n11 1\n.end\n", encoding="utf-8")
    code, out, _ = run(capsys, "measures", str(path), "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert {row["output"] for row in rows} == {"q\x02"}
    assert [row["variable"] for row in rows] == ["", "a\x01b", "c"]
    code, out, _ = run(capsys, "reorder", str(path), "--method", "info",
                       "--trace", "--format", "json")
    assert code == 0
    record = json.loads(out)[0]
    assert record["order_before"] == "a\x01b,c"
    assert record["steps"][0]["scores"][0][0] == "a\x01b"


def _blocked_adder_blif(k: int) -> str:
    """k-bit ripple-carry adder over inputs a0..a{k-1} b0..b{k-1}, built
    from XOR, AND, 3-input XOR and majority covers."""
    lines = [".model add", ".inputs " + " ".join(
        [f"a{i}" for i in range(k)] + [f"b{i}" for i in range(k)]),
        ".outputs " + " ".join([f"s{i}" for i in range(k)] + ["cout"])]
    carry = None
    for i in range(k):
        cout = "cout" if i == k - 1 else f"c{i}"
        if carry is None:
            lines += [".names a0 b0 s0", "10 1", "01 1",
                      f".names a0 b0 {cout}", "11 1"]
        else:
            lines += [f".names a{i} b{i} {carry} s{i}",
                      "100 1", "010 1", "001 1", "111 1",
                      f".names a{i} b{i} {carry} {cout}",
                      "11- 1", "1-1 1", "-11 1"]
        carry = cout
    return "\n".join(lines + [".end"]) + "\n"


def test_load_keeps_only_the_outputs(tmp_path):
    """A loaded circuit holds the outputs' nodes and nothing else: no
    dead node, no op cache entry, and none in a clone either.  In
    ``live.blif`` every node built is an output, so nothing is swept,
    yet the AND of two gates leaves a cache entry.  The adder also
    bounds the handles the build minted, which a build that ORs cubes
    of negated literals would pass."""
    from bddinfo.cli import load_circuit
    live = tmp_path / "live.blif"
    live.write_text(".model live\n.inputs a b\n.outputs a b c e\n"
                    ".names a b c\n11 1\n.names c b e\n11 1\n.end\n")
    adder = tmp_path / "add6.blif"
    adder.write_text(_blocked_adder_blif(6))
    paths = sorted(DATA.glob("*.blif")) + sorted(DATA.glob("*.pla")) + [live, adder]
    for path in paths:
        m = load_circuit(str(path)).manager
        assert len(m) == m.shared_size(), path.name
        assert not m._cache, path.name
        copy = m.clone()
        assert len(copy) == copy.shared_size(), path.name
    assert len(m._refs) - 2 <= 1000
