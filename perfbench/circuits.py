"""Seeded, download-free circuit corpus for the benchmark.

Every generator returns the text of one circuit file in a format that
``bddinfo.cli.load_circuit`` reads: BLIF for gate-level circuits, PLA
for random covers and a bare truth vector for hidden-weighted-bit
functions.  Only ``random_pla`` draws from the seed; the arithmetic
circuits are fixed by their width.

``write_circuit`` turns a corpus name into a file.  The two ISCAS
circuits are copied from the repository's ``tests/data`` unchanged.
"""

from __future__ import annotations

import pathlib
import random
import shutil


class _Blif:
    """Accumulates two-level gates with fresh internal signal names."""

    def __init__(self, name: str, inputs: list[str]):
        self.name = name
        self.inputs = inputs
        self.outputs: list[str] = []
        self.lines: list[str] = []
        self._fresh = 0

    def gate(self, inputs: list[str], rows: list[str], out: str | None = None) -> str:
        if out is None:
            out = f"n{self._fresh}"
            self._fresh += 1
        self.lines.append(".names " + " ".join(inputs + [out]))
        self.lines.extend(f"{row} 1" for row in rows)
        return out

    def and2(self, a, b, out=None):
        return self.gate([a, b], ["11"], out)

    def xor2(self, a, b, out=None):
        return self.gate([a, b], ["10", "01"], out)

    def xor3(self, a, b, c, out=None):
        return self.gate([a, b, c], ["100", "010", "001", "111"], out)

    def maj3(self, a, b, c, out=None):
        return self.gate([a, b, c], ["11-", "1-1", "-11"], out)

    def text(self) -> str:
        head = [f".model {self.name}", ".inputs " + " ".join(self.inputs),
                ".outputs " + " ".join(self.outputs)]
        return "\n".join(head + self.lines + [".end"]) + "\n"


def _ripple_add(blif: _Blif, xs: list[str], ys: list[str],
                sums: list[str | None], carry_out: str | None) -> list[str]:
    """Add two equal-width words and return the sum bits; ``sums`` and
    ``carry_out`` name the outputs (None = a fresh internal name)."""
    carry = None
    bits = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        out = carry_out if i == len(xs) - 1 else None
        if carry is None:
            bits.append(blif.xor2(x, y, sums[i]))
            carry = blif.and2(x, y, out)
        else:
            bits.append(blif.xor3(x, y, carry, sums[i]))
            carry = blif.maj3(x, y, carry, out)
    return bits


def adder(k: int, interleaved: bool = False) -> str:
    """k-bit ripple-carry adder: outputs s0..s{k-1} and cout.

    Blocked input order a0..a{k-1} b0..b{k-1} gives an exponential BDD;
    interleaved a0 b0 a1 b1 ... gives a linear one.
    """
    a = [f"a{i}" for i in range(k)]
    b = [f"b{i}" for i in range(k)]
    inputs = [s for pair in zip(a, b) for s in pair] if interleaved else a + b
    blif = _Blif(f"add{k}{'i' if interleaved else ''}", inputs)
    blif.outputs = [f"s{i}" for i in range(k)] + ["cout"]
    _ripple_add(blif, a, b, [f"s{i}" for i in range(k)], "cout")
    return blif.text()


def comparator(k: int) -> str:
    """k-bit equality comparator (k >= 2) over blocked inputs; output ``eq``."""
    a = [f"a{i}" for i in range(k)]
    b = [f"b{i}" for i in range(k)]
    blif = _Blif(f"cmp{k}", a + b)
    blif.outputs = ["eq"]
    acc = None
    for i in range(k):
        same = blif.gate([a[i], b[i]], ["00", "11"])
        if acc is None:
            acc = same
        else:
            acc = blif.and2(acc, same, "eq" if i == k - 1 else None)
    return blif.text()


def multiplier(k: int) -> str:
    """k x k array multiplier (k >= 2): outputs p0..p{2k-1} for p = a * b."""
    a = [f"a{i}" for i in range(k)]
    b = [f"b{i}" for i in range(k)]
    blif = _Blif(f"mul{k}", a + b)
    width = 2 * k
    blif.outputs = [f"p{i}" for i in range(width)]
    zero = blif.gate([], [], "zero")          # constant 0: a cover with no rows
    # Accumulator word, least significant bit first.
    acc = [blif.and2(a[i], b[0]) for i in range(k)] + [zero] * k
    for j in range(1, k):
        row = [zero] * j + [blif.and2(a[i], b[j]) for i in range(k)]
        row += [zero] * (width - len(row))
        last = j == k - 1
        names = [f"p{i}" if last else None for i in range(width)]
        acc = _ripple_add(blif, acc, row, names, None)
    return blif.text()


def hidden_weighted_bit(n: int) -> str:
    """Truth vector of hwb_n: x_w for input weight w > 0, else 0.

    Index i reads as (x1, ..., xn) with x1 the most significant bit.
    """
    bits = []
    for i in range(1 << n):
        w = i.bit_count()
        bits.append("1" if w and (i >> (n - w)) & 1 else "0")
    return "".join(bits) + "\n"


def random_pla(rng: random.Random, n: int, m: int, cubes: int,
               care: float = 0.5) -> str:
    """Random PLA cover: each cube fixes each input with probability ``care``."""
    rows = [f".i {n}", f".o {m}", f".p {cubes}"]
    for _ in range(cubes):
        inpart = "".join(rng.choice("01") if rng.random() < care else "-"
                         for _ in range(n))
        outpart = "".join(rng.choice("01") for _ in range(m))
        if "1" not in outpart:
            j = rng.randrange(m)
            outpart = outpart[:j] + "1" + outpart[j + 1:]
        rows.append(f"{inpart} {outpart}")
    rows.append(".e")
    return "\n".join(rows) + "\n"


# name -> (file suffix, generator taking the circuit's own seeded RNG)
GENERATED = {
    "add4": ("blif", lambda rng: adder(4)),
    "add9": ("blif", lambda rng: adder(9)),
    "add8i": ("blif", lambda rng: adder(8, interleaved=True)),
    "cmp9": ("blif", lambda rng: comparator(9)),
    "mul4": ("blif", lambda rng: multiplier(4)),
    "mul5": ("blif", lambda rng: multiplier(5)),
    "mul6": ("blif", lambda rng: multiplier(6)),
    "hwb12": ("tt", lambda rng: hidden_weighted_bit(12)),
    # Small enough that the seed moves corpus totals by a few percent only.
    "rpla14": ("pla", lambda rng: random_pla(rng, 14, 4, cubes=16, care=0.6)),
}
COPIED = {"c17": "tests/data/c17.blif", "s27": "tests/data/s27.blif"}


def write_circuit(name: str, directory: pathlib.Path, seed: int,
                  repo_root: pathlib.Path) -> pathlib.Path:
    """Write corpus circuit ``name`` into ``directory`` and return its path."""
    if name in COPIED:
        source = repo_root / COPIED[name]
        target = directory / source.name
        shutil.copyfile(source, target)
        return target
    suffix, generate = GENERATED[name]
    target = directory / f"{name}.{suffix}"
    target.write_text(generate(random.Random(f"{seed}/{name}")), encoding="utf-8")
    return target
