import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddinfo import (
    AND, ONE, OR, ZERO,
    BddManager, BuildLimitError, CycleError, ParseError, UndefinedSignalError,
    build_circuit_bdds, enumerate_bdd, format_blif, manager_for, parse_blif,
    parse_pla, weighted_sat_probability,
)
from bddinfo.cli import load_circuit
from bddinfo.netlist import Gate, _cover_bdd, _cover_key, _gate_bdd

from conftest import DATA, EXAMPLE1_VECTOR, assert_manager_consistent

EXAMPLE1_BLIF = (DATA / "example1.blif").read_text()
EXAMPLE1_PLA = (DATA / "example1.pla").read_text()
C17_BLIF = (DATA / "c17.blif").read_text()
TOGGLE_BLIF = (DATA / "toggle.blif").read_text()


def test_parse_blif_example1():
    nl = parse_blif(EXAMPLE1_BLIF)
    assert nl.name == "example1"
    assert nl.inputs == ["x1", "x2", "x3"]
    assert nl.outputs == ["f"]
    assert [g.output for g in nl.gates] == ["u", "f"]


def test_blif_example1_composes_to_vector():
    nl = parse_blif(EXAMPLE1_BLIF)
    manager = manager_for(nl)
    roots = build_circuit_bdds(nl, manager)
    assert enumerate_bdd(manager, roots["f"]).to_string() == EXAMPLE1_VECTOR
    assert weighted_sat_probability(manager, roots["f"]) == 0.625


def test_blif_identity_wire():
    nl = parse_blif(".model id\n.inputs a\n.outputs b\n.names a b\n1 1\n.end\n")
    manager = manager_for(nl)
    roots = build_circuit_bdds(nl, manager)
    assert roots["b"] == manager.literal(0)


def test_blif_constant_gate():
    nl = parse_blif(".model k\n.inputs a\n.outputs c\n.names c\n1\n.end\n")
    manager = manager_for(nl)
    roots = build_circuit_bdds(nl, manager)
    assert enumerate_bdd(manager, roots["c"]).to_string() == "11"


def test_blif_off_set_cover():
    # NAND written through its off-set
    nl = parse_blif(".model m\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n")
    manager = manager_for(nl)
    roots = build_circuit_bdds(nl, manager)
    assert enumerate_bdd(manager, roots["y"]).to_string() == "1110"


def test_blif_syntax_error_carries_line():
    bad = ".model m\n.inputs a\n.outputs y\n.names a y\n1 2\n.end\n"
    with pytest.raises(ParseError) as err:
        parse_blif(bad)
    assert "line 5" in str(err.value)


def test_blif_unknown_directive():
    with pytest.raises(ParseError):
        parse_blif(".model m\n.gate something\n.end\n")


def test_blif_undefined_signal():
    bad = ".model m\n.inputs a\n.outputs y\n.names a ghost y\n11 1\n.end\n"
    with pytest.raises(UndefinedSignalError):
        parse_blif(bad)


def test_blif_cycle_detection():
    bad = (".model m\n.inputs a\n.outputs y\n"
           ".names a q p\n11 1\n.names a p q\n11 1\n.names p y\n1 1\n.end\n")
    with pytest.raises(CycleError) as err:
        parse_blif(bad)
    assert "p" in str(err.value) and "q" in str(err.value)


def test_blif_continuation_lines():
    nl = parse_blif(".model m\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n")
    assert nl.inputs == ["a", "b"]
    # A continuation at the end of the file ends the last line.
    nl = parse_blif(".model m\n.inputs a\n.outputs y\n.names a y\n1 1 \\")
    assert nl.gates[0].rows == [("1", "1")]


# Each file as its logical lines, read without the reader under test:
# none of these files has a comment after content or a continuation.
_READER_FILES = {name: [line.split() for line in (DATA / name).read_text()
                        .splitlines() if line.split() and line[0] != "#"]
                 for name in ("example1.blif", "example1.pla", "c17.blif",
                              "s27.blif")}
_READER_FILES["example1.txt"] = [[EXAMPLE1_VECTOR]]
_NOISE = st.lists(st.sampled_from(["", "   ", "# note", "#.end", "# 0 1 \\"]),
                  max_size=2)


@st.composite
def _noisy(draw, lines):
    """``lines`` written out with comment and blank lines between them,
    a trailing comment or none on each, and its tokens separated by
    blanks or by backslash continuations."""
    text = []
    for tokens in lines:
        text += draw(_NOISE)
        line = tokens[0]
        for token in tokens[1:]:
            line += draw(st.sampled_from(
                [" ", "\t", " \\\n", "\\\n", " \\\n  "])) + token
        text.append(line + draw(st.sampled_from(["", "  ", " # trailing", "\t#x"])))
    return "".join(line + "\n" for line in text + draw(_NOISE))


def _loaded(path):
    circuit = load_circuit(str(path))
    return (circuit.input_names, [name for name, _ in circuit.outputs],
            [enumerate_bdd(circuit.manager, root).bits
             for _, root in circuit.outputs])


@pytest.mark.parametrize("name", sorted(_READER_FILES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_comments_and_continuations_change_nothing(tmp_path_factory, name, data):
    """Comment lines, trailing comments, blank lines and backslash
    continuations at token boundaries leave the loaded circuit as it
    was: its input and output names and each output's truth table.  A
    truth vector is split into tokens at random places.  Content after
    the end marker is refused at its line, and comments after it are
    not."""
    lines = _READER_FILES[name]
    path = tmp_path_factory.mktemp("reader") / name
    path.write_text("".join(" ".join(tokens) + "\n" for tokens in lines))
    want = _loaded(path)
    if name.endswith(".txt"):
        cuts = sorted(data.draw(st.sets(st.integers(1, len(EXAMPLE1_VECTOR) - 1))))
        lines = [[EXAMPLE1_VECTOR[i:j]
                  for i, j in zip([0, *cuts], [*cuts, len(EXAMPLE1_VECTOR)])]]
    text = data.draw(_noisy(lines))
    path.write_text(text)
    assert _loaded(path) == want
    if name.endswith(".txt"):
        return
    stray = data.draw(st.sampled_from(["stray", "11 1", ".names a b", ".end", ".e"]))
    text += stray + "\n"
    path.write_text(text)
    number, marker = text.count("\n"), lines[-1][0]
    with pytest.raises(ParseError, match=f"^line {number}: content after {marker}$"):
        load_circuit(str(path))


def test_latch_cutting():
    nl = parse_blif(TOGGLE_BLIF)
    assert nl.cut_inputs == ["a", "q"]
    assert nl.cut_outputs == ["q", "d"]
    manager = manager_for(nl)
    roots = build_circuit_bdds(nl, manager)
    # d = a xor q over variables (a, q)
    assert enumerate_bdd(manager, roots["d"]).to_string() == "0110"
    # the declared output q reads the pseudo-input directly
    assert roots["q"] == manager.literal(1)


def test_parse_pla_example1():
    nl = parse_pla(EXAMPLE1_PLA)
    assert nl.inputs == ["x1", "x2", "x3"]
    assert nl.outputs == ["f"]
    manager = manager_for(nl)
    roots = build_circuit_bdds(nl, manager)
    assert enumerate_bdd(manager, roots["f"]).to_string() == EXAMPLE1_VECTOR


def test_pla_default_names():
    nl = parse_pla(".i 2\n.o 1\n01 1\n")
    assert nl.inputs == ["x1", "x2"]
    assert nl.outputs == ["f0"]


def test_pla_empty_cover_is_constant_zero():
    nl = parse_pla(".i 2\n.o 1\n.p 0\n.e\n")
    manager = manager_for(nl)
    roots = build_circuit_bdds(nl, manager)
    assert enumerate_bdd(manager, roots["f0"]).to_string() == "0000"
    # With no outputs a cube row is its input part alone.
    nl = parse_pla(".i 2\n.o 0\n01\n1-\n")
    assert (nl.inputs, nl.outputs, nl.gates) == (["x1", "x2"], [], [])


def test_pla_overlapping_cubes_or_together():
    nl = parse_pla(".i 2\n.o 1\n1- 1\n-1 1\n")
    manager = manager_for(nl)
    roots = build_circuit_bdds(nl, manager)
    assert enumerate_bdd(manager, roots["f0"]).to_string() == "0111"


def test_pla_tilde_means_not_in_cover():
    nl = parse_pla(".i 1\n.o 2\n1 1~\n0 ~1\n")
    manager = manager_for(nl)
    roots = build_circuit_bdds(nl, manager)
    assert enumerate_bdd(manager, roots["f0"]).to_string() == "01"
    assert enumerate_bdd(manager, roots["f1"]).to_string() == "10"


def test_pla_arity_mismatch():
    with pytest.raises(ParseError):
        parse_pla(".i 3\n.o 1\n10 1\n")
    with pytest.raises(ParseError):
        parse_pla(".i 2\n.o 2\n10 1\n")


def test_pla_missing_headers():
    with pytest.raises(ParseError):
        parse_pla("10 1\n")
    with pytest.raises(ParseError):
        parse_pla(".i 2\n10 1\n")


def test_blif_roundtrip():
    for text in (EXAMPLE1_BLIF, C17_BLIF, TOGGLE_BLIF):
        nl = parse_blif(text)
        assert parse_blif(format_blif(nl)) == nl


def test_pla_roundtrip_through_blif():
    nl = parse_pla(EXAMPLE1_PLA)
    assert parse_blif(format_blif(nl)) == nl


def test_c17_builds_small():
    nl = parse_blif(C17_BLIF)
    manager = manager_for(nl)
    roots = build_circuit_bdds(nl, manager)
    assert set(roots) == {"G22", "G23"}
    assert manager.shared_size() <= 1 << 5


def test_build_respects_node_limit():
    nl = parse_blif(C17_BLIF)
    manager = manager_for(nl, node_limit=2)
    with pytest.raises(BuildLimitError) as err:
        build_circuit_bdds(nl, manager)
    assert "building input 'G3'" in str(err.value)   # names the input reached
    # Room for the five inputs' literals only: the first gate hits it.
    manager = manager_for(nl, node_limit=5)
    with pytest.raises(BuildLimitError, match="building gate 'G10'"):
        build_circuit_bdds(nl, manager)


def test_build_needs_matching_manager():
    nl = parse_blif(EXAMPLE1_BLIF)
    from bddinfo import NetlistError
    with pytest.raises(NetlistError):
        build_circuit_bdds(nl, BddManager(2))


def test_gate_order_is_topological():
    scrambled = (".model m\n.inputs a b\n.outputs y\n"
                 ".names t y\n1 1\n.names a b t\n11 1\n.end\n")
    nl = parse_blif(scrambled)
    assert [g.output for g in nl.gates] == ["t", "y"]


def _reference_gate_order(gates):
    """Emit the earliest declared gate whose gate-driven inputs are all
    emitted; return the emitted names and the sorted names left over."""
    driven = {out for out, _ in gates}
    done = set()
    order = []
    while True:
        for out, ins in gates:
            if out not in done and all(s in done for s in ins if s in driven):
                done.add(out)
                order.append(out)
                break
        else:
            return order, sorted(driven - done)


@pytest.mark.parametrize("cyclic", [False, True])
def test_gate_order_matches_reference_loop(rng, cyclic):
    for _ in range(60):
        names = [f"g{i}" for i in range(rng.randint(1, 30))]
        rng.shuffle(names)
        gates = []
        for k, out in enumerate(names):
            pool = ["a", "b"] + (names if cyclic else names[k + 1:])
            gates.append((out, [rng.choice(pool)
                                for _ in range(rng.randint(0, 3))]))
        rng.shuffle(gates)   # declaration order is independent of the DAG
        text = ".model r\n.inputs a b\n.outputs " + names[0] + "\n" + "".join(
            f".names {' '.join(ins + [out])}\n" + ("1" * len(ins) + " 1\n"
                                                 if ins else "1\n")
            for out, ins in gates) + ".end\n"
        order, left = _reference_gate_order(gates)
        if left:
            with pytest.raises(CycleError) as err:
                parse_blif(text)
            assert str(err.value) == f"combinational cycle through {', '.join(left)}"
        else:
            assert [g.output for g in parse_blif(text).gates] == order


def test_wide_netlist_gate_order():
    # Even gates read the next (later declared) odd gate, odd gates read
    # the input: the earliest ready gate is always the next pair's odd one.
    width = 3000
    text = (".model w\n.inputs a\n.outputs g0\n"
            + "".join(f".names {'a' if i % 2 else f'g{i + 1}'} g{i}\n1 1\n"
                      for i in range(width))
            + ".end\n")
    nl = parse_blif(text)
    assert [g.output for g in nl.gates] == [
        f"g{i ^ 1}" for i in range(width)]


def test_multiple_latches():
    text = (".model counter\n.inputs en\n.outputs q1\n"
            ".latch d0 q0 re clk 0\n.latch d1 q1\n"
            ".names en q0 d0\n10 1\n01 1\n"
            ".names en q0 q1 d1\n"
            "11- 1\n0-1 1\n-01 1\n.end\n")
    nl = parse_blif(text)
    assert nl.cut_inputs == ["en", "q0", "q1"]
    assert nl.cut_outputs == ["q1", "d0", "d1"]
    manager = manager_for(nl)
    roots = build_circuit_bdds(nl, manager)
    # d0 = en xor q0 over (en, q0, q1)
    assert enumerate_bdd(manager, roots["d0"]).to_string() == "00111100"
    assert roots["q1"] == manager.literal(2)


@pytest.mark.parametrize("latches, outputs, cut", [
    (".latch d q\n", "d", ["d"]),          # a primary output and a latch input
    (".latch d q\n.latch d r\n", "q", ["q", "d"]),   # one input, two latches
])
def test_a_signal_with_several_roles_is_one_output(tmp_path, latches, outputs, cut):
    """A signal that is an output in more than one role is listed,
    built and registered once, in the order of its first role."""
    path = tmp_path / "roles.blif"
    path.write_text(f".model t\n.inputs a b\n.outputs {outputs}\n{latches}"
                    ".names a q d\n11 1\n.end\n")
    nl = parse_blif(path.read_text())
    assert nl.cut_outputs == cut
    circuit = load_circuit(str(path))
    assert [name for name, _ in circuit.outputs] == nl.cut_outputs
    assert circuit.manager.registered_roots == tuple(r for _, r in circuit.outputs)

def test_s27_sequential_benchmark():
    nl = parse_blif((DATA / "s27.blif").read_text())
    assert nl.cut_inputs == ["G0", "G1", "G2", "G3", "G5", "G6", "G7"]
    assert nl.cut_outputs == ["G17", "G10", "G11", "G13"]
    manager = manager_for(nl)
    roots = build_circuit_bdds(nl, manager)
    assert manager.shared_size() < 1 << 7
    # G17 = NOT G11 must hold structurally
    assert roots["G17"] == manager.negate(roots["G11"])


def test_shared_subgraphs_count_once():
    m = BddManager(3)
    f = m.apply("and", m.literal(1), m.literal(2))
    g = m.apply("or", m.literal(0), f)   # g's low branch is exactly f
    assert m.count_nodes([f]) == 2
    assert m.count_nodes([g]) == 3
    assert m.count_nodes([f, g]) == 3


def test_feedback_through_latch_is_not_a_cycle():
    # combinational loop a -> b -> a would be a cycle, but through a latch
    # the loop is cut
    text = (".model fb\n.inputs x\n.outputs y\n.latch y q\n"
            ".names x q y\n11 1\n.end\n")
    nl = parse_blif(text)
    manager = manager_for(nl)
    roots = build_circuit_bdds(nl, manager)
    assert enumerate_bdd(manager, roots["y"]).to_string() == "0001"


@pytest.mark.parametrize("text", [
    ".names a b\n",                      # row-less gate reading undefined a
    ".model m\n.inputs a\n.outputs a\n.names a a\n1 1\n.end\n",  # redefines input
    ".model m\n.end\nstray\n",          # content after .end
    ".model m\n.inputs a\n.outputs y\n.names a y\n- -\n.end\n",  # bad out char
    ".model m\n.inputs a b a\n.outputs y\n.names a b y\n11 1\n.end\n",  # input twice
    ".model m\n.inputs a\n.outputs y\n.latch y a\n.names a y\n1 1\n.end\n",  # latch on input
    ".model m\n.inputs a\n.outputs f f\n.names a f\n1 1\n.end\n",  # output twice
    ".outputs y\n.names y\n2\n",        # constant row other than 0 or 1
    ".inputs t\n.outputs y\n.names t y\n1 1 1\n",  # three tokens in a row
    ".inputs c\n.outputs y\n.names c y\nx 1\n",    # bad pattern character
    ".inputs p\n.outputs y\n.names p y\n1 1\n0 0\n",  # mixed output phases
    ".inputs a\n.outputs z\n",          # output never defined
    ".model m\n.e\n",                   # .e ends a PLA, not a BLIF
])
def test_malformed_blif_raises_netlist_errors(text):
    from bddinfo import NetlistError
    with pytest.raises(NetlistError):
        parse_blif(text)


# (text, line of the .i or .o that follows a cube row)
_HEADER_AFTER_CUBE = [
    (".i 1\n.o 1\n1 1\n.o 2\n", 4),
    (".i 2\n.o 1\n11 1\n.i 1\n0 1\n", 4),
    (".o 2\n.i 3\n.o 2\n11- 11\n.o 3\n", 5),
]


@pytest.mark.parametrize("text", [
    ".i x\n.o 1\n00 1\n",                # non-integer header
    ".i\n.o 1\n",                        # missing count
    ".i -1\n.o 1\n",                     # negative count
    ".i 2\n.o 1\n.ilb a a\n11 1\n",      # input named twice
    ".i 1\n.o 1\n1 1 1\n",              # three tokens in a cube row
    ".i 1\n.o 1\nx 1\n",                # bad input character
    ".i 1\n.o 1\n1 x\n",                # bad output character
    ".i 2\n.o 1\n.ilb a\n11 1\n",        # .ilb names too few inputs
    ".i 1\n.o 1\n.ob f g\n1 1\n",        # .ob names too many outputs
    ".i 2\n.o 1\n11 1\n.e\n00 1\n",      # cube after the end marker
    ".i 2\n.o 1\n11 1\n.end\n00 1\n",    # cube after the end marker
    *(text for text, _ in _HEADER_AFTER_CUBE),
])
def test_malformed_pla_raises_netlist_errors(text):
    from bddinfo import NetlistError
    with pytest.raises(NetlistError):
        parse_pla(text)


@pytest.mark.parametrize("text, line", _HEADER_AFTER_CUBE)
def test_pla_header_after_a_cube_row_is_refused_at_its_line(text, line):
    with pytest.raises(ParseError) as refused:
        parse_pla(text)
    assert refused.value.line == line


def test_parser_fuzz_only_raises_netlist_errors(rng):
    from bddinfo import NetlistError
    tokens = [".model", ".inputs", ".outputs", ".names", ".latch", ".end",
              ".i", ".o", ".p", "a", "b", "c", "1", "0", "-", "11", "0-",
              "1 1", "0 1", "\\", "#x", "2", ""]
    for _ in range(400):
        text = "\n".join(rng.choice(tokens)
                         for _ in range(rng.randint(1, 12)))
        for parser in (parse_blif, parse_pla):
            try:
                parser(text)
            except NetlistError:
                pass


@st.composite
def _pla_texts(draw):
    """Header lines (.i, .o, .ilb, .ob) and cube rows; each row and name
    list fits the counts declared last, so texts get past the rows and a
    later header can change a count."""
    counts = {".i": draw(st.integers(0, 2)), ".o": draw(st.integers(0, 2))}
    lines = draw(st.permutations([f"{h} {c}" for h, c in counts.items()]))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["header", "header", "cube", "cube", "names"]))
        head = draw(st.sampled_from([".i", ".o"]))
        if kind == "header":
            counts[head] = draw(st.integers(0, 3))
            lines.append(f"{head} {counts[head]}")
        elif kind == "cube":
            lines.append(" ".join(
                draw(st.text(alphabet, min_size=counts[h], max_size=counts[h]))
                for h, alphabet in ((".i", "01-"), (".o", "01~"))))
        else:
            names = [f"{head[1]}{k}" for k in range(counts[head])]
            lines.append(" ".join([".ilb" if head == ".i" else ".ob", *names]))
    return "\n".join(lines)


@given(_pla_texts())
@settings(max_examples=300, deadline=None)
def test_pla_texts_give_a_netlist_or_a_netlist_error(text):
    from bddinfo import Netlist, NetlistError
    try:
        netlist = parse_pla(text)
    except NetlistError:
        return
    assert isinstance(netlist, Netlist)


def _sum_of_products(manager, gate, signal):
    """The cover as an OR of cubes, each an AND of its literals, with
    '0' literals negated, complemented when the output column is 0."""
    cover = ZERO
    for pattern, _ in gate.rows:
        cube = ONE
        for name, ch in zip(gate.inputs, pattern):
            if ch != "-":
                lit = signal[name]
                cube = manager.apply(AND, cube, lit if ch == "1"
                                     else manager.negate(lit))
        cover = manager.apply(OR, cover, cube)
    if gate.rows and gate.rows[0][1] == "0":
        cover = manager.negate(cover)
    return cover


@given(st.integers(min_value=0, max_value=6), st.data())
@settings(max_examples=150, deadline=None)
def test_gate_bdd_matches_sum_of_products(n, data):
    """Each cover expanded over its inputs is the handle the cube-by-cube
    fold gives, for inputs that are random functions, terminals or
    repeats of another input, with empty covers, empty patterns,
    duplicate rows and either output phase."""
    m = BddManager(n, order=data.draw(st.permutations(range(n))))
    k = data.draw(st.integers(min_value=0, max_value=4))
    signal = {}
    for j in range(k):
        kind = data.draw(st.sampled_from(
            ["function", "terminal", "repeat"] if j else ["function", "terminal"]))
        if kind == "function":
            bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
            signal[f"s{j}"] = m.build_from_truth_vector(format(bits, f"0{1 << n}b"))
        elif kind == "terminal":
            signal[f"s{j}"] = data.draw(st.sampled_from([ZERO, ONE]))
        else:
            signal[f"s{j}"] = signal[f"s{data.draw(st.integers(0, j - 1))}"]
    inputs = data.draw(st.lists(st.sampled_from(sorted(signal)), max_size=4)
                       if signal else st.just([]))
    patterns = data.draw(st.lists(
        st.text(alphabet="01-", min_size=len(inputs), max_size=len(inputs)),
        max_size=5))
    patterns += data.draw(st.lists(st.sampled_from(patterns), max_size=2)
                          if patterns else st.just([]))
    out = data.draw(st.sampled_from("01"))
    gate = Gate(output="g", inputs=inputs, rows=[(p, out) for p in patterns])
    cover = _cover_bdd(*_cover_key(gate), None)
    assert _gate_bdd(m, gate, signal, cover) == _sum_of_products(m, gate, signal)
    assert_manager_consistent(m)


_WIDE = 1500


@pytest.mark.parametrize("rows, size", [
    (["1" * _WIDE, "0" * _WIDE], 2 * _WIDE - 1),
    (["".join("1" if i % 2 == 0 else "-" for i in range(_WIDE)),
      "".join("1" if i % 2 == 1 else "-" for i in range(_WIDE)),
      "".join("0" if i % 3 == 0 else "-" for i in range(_WIDE))], None),
], ids=["opposite", "interleaved"])
def test_wide_pla_loads(rows, size):
    """A 1,500-input cover builds with no recursion down its cubes'
    chains: two opposite full cubes, and three cubes interleaved over
    the inputs, whose OR fold splits on every input."""
    n = _WIDE
    nl = parse_pla(f".i {n}\n.o 1\n" + "".join(f"{p} 1\n" for p in rows))
    manager = manager_for(nl)
    root = build_circuit_bdds(nl, manager)["f0"]
    if size is not None:
        assert manager.shared_size() == size
    assignments = [[bit] * n for bit in (0, 1)]
    assignments += [[int(ch == "1") if ch != "-" else bit for ch in p]
                    for p in rows for bit in (0, 1)]
    for point in assignments[:]:
        for flipped in (0, n // 2, n - 1):
            assignments.append(point[:flipped] + [1 - point[flipped]]
                               + point[flipped + 1:])
    for a in assignments:
        want = any(all(ch == "-" or int(ch) == bit for ch, bit in zip(p, a))
                   for p in rows)
        assert manager.evaluate(root, a) == want


def test_long_gate_chain_loads():
    """A chain of 1,200 XOR gates loads with no recursion: each gate but
    the last adds an input above the chain so far, and the last adds
    one below it, so composing it splits on every level."""
    n = 1200
    xs = [f"x{i}" for i in range(n)]
    lines = [".inputs " + " ".join(reversed(xs)) + " y", f".outputs t{n}"]
    prev = "x0"
    for i, x in enumerate(xs[1:] + ["y"], 1):
        lines += [f".names {prev} {x} t{i}", "01 1", "10 1"]
        prev = f"t{i}"
    nl = parse_blif("\n".join(lines) + "\n.end\n")
    manager = manager_for(nl)
    root = build_circuit_bdds(nl, manager)[f"t{n}"]
    assert manager.shared_size() == 2 * (n + 1) - 1     # parity of n + 1 inputs
    for ones in (0, 1, n // 2, n + 1):
        assignment = [1] * ones + [0] * (n + 1 - ones)
        assert manager.evaluate(root, assignment) == ones % 2
    assert_manager_consistent(manager)


def test_cover_diagram_counts_against_node_limit():
    """A cover whose own diagram passes ``node_limit`` fails at its gate,
    though the gate's function, input a, is already built."""
    nl = parse_blif(".inputs a\n.outputs y\n.names a a a a a a y\n"
                    "11---- 1\n--11-- 1\n----11 1\n.end\n")
    with pytest.raises(BuildLimitError, match="building gate 'y'"):
        build_circuit_bdds(nl, manager_for(nl, node_limit=1))
    manager = manager_for(nl)
    assert build_circuit_bdds(nl, manager)["y"] == manager.literal(0)
    assert len(manager) == 1


def _cover(n, patterns):
    """A one-output PLA over ``n`` inputs whose cubes are ``patterns``,
    each a dict from input position to '0' or '1'."""
    rows = "".join("".join(p.get(i, "-") for i in range(n)) + " 1\n"
                   for p in patterns)
    return parse_pla(f".i {n}\n.o 1\n{rows}")


@pytest.mark.parametrize("shape", ["shared-tail", "absorbed", "consensus"])
def test_expansion_merges_rows_with_one_remainder(shape):
    """These 60-input covers with redundant cubes build in linear time:
    each is built once as a diagram of its own, whose OR fold stays
    small here, and composing it with the input literals interns every
    node directly, so the circuit's manager makes no ``_ite`` call.

    shared-tail is x59 AND (x0 OR ... OR x58), one cube per x_j with
    x59.  absorbed is x29 OR the cubes x_j x29 x_{30+j}, which the cube
    x29 absorbs.  consensus is b OR b'c OR the cubes x_j c e_j, with
    x_j = x0..x28, b = x29, c = x30 and e_j = x31..x59: that is b OR c,
    and each x_j c e_j is redundant only through c, the consensus of b
    and b'c.  A Shannon expansion of the cover keyed by live rows walks
    2**29 or more states on each, and one keyed by what the rows still
    ask for still walks exponentially many on consensus; counting
    ``_ite`` calls stops such a walk early."""
    n = 60
    if shape == "shared-tail":
        patterns = [{j: "1", n - 1: "1"} for j in range(n - 1)]
    elif shape == "absorbed":
        patterns = [{29: "1"}] + [{j: "1", 29: "1", 30 + j: "1"} for j in range(29)]
    else:
        patterns = [{29: "1"}, {29: "0", 30: "1"}] + [
            {j: "1", 30: "1", 31 + j: "1"} for j in range(29)]
    nl = _cover(n, patterns)
    m = manager_for(nl)
    ite, calls = m._ite, []

    def counted(f, g, h):
        """``_ite``, failing fast once the walk outgrows the cover."""
        calls.append(f)
        assert len(calls) <= 2 * n, "more than two states per input"
        return ite(f, g, h)

    m._ite = counted
    root = build_circuit_bdds(nl, m)["f0"]
    del m._ite
    signal = {name: m.literal(v) for v, name in enumerate(nl.cut_inputs)}
    assert root == _sum_of_products(m, nl.gates[0], signal)
    assert_manager_consistent(m)


@pytest.mark.parametrize("gates, error", [
    ([Gate("y", ["a", "b"], [("11", "1")])], UndefinedSignalError),
    ([Gate("y", ["z"], [("1", "1")]), Gate("z", ["y"], [("1", "1")])], CycleError),
    ([Gate("y", ["a"], [("1", "1"), ("0", "0")])], ParseError),
    ([Gate("y", ["a"], [("11", "1")])], ParseError),
    ([Gate("y", ["a"], [("x", "1")])], ParseError),
    ([Gate("y", ["a"], [("1", "2")])], ParseError),
], ids=["undefined", "cycle", "mixed-phase", "pattern-width", "pattern-char",
        "output-value"])
def test_a_netlist_made_in_code_is_checked(gates, error):
    """A Netlist is checked by the same rules whether parsed or made."""
    from bddinfo import Netlist, NetlistError
    with pytest.raises(error) as refused:
        Netlist("made", ["a"], ["y"], gates)
    assert isinstance(refused.value, NetlistError)


def test_a_netlist_made_in_code_is_sorted():
    from bddinfo import Netlist
    z = Gate("z", ["a"], [("0", "1")])
    y = Gate("y", ["z", "b"], [("11", "1")])
    nl = Netlist("made", ["a", "b"], ["y"], [y, z])
    assert nl.gates == [z, y]
    m = manager_for(nl)
    root = build_circuit_bdds(nl, m)["y"]
    assert [m.evaluate(root, [a, b]) for a in (0, 1) for b in (0, 1)] == [0, 1, 0, 0]
