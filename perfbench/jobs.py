"""Corpus set-up, the benchmark's jobs, and the checks on their outputs.

A job is one closed-loop call into the public API on a ``clone()`` of a
loaded circuit, the way ``bddinfo compare`` runs each method.  Every
check returns a list of problems; an empty list means the job passed.
Library functions are looked up through their modules at call time so
that the traced run's wrappers see every call.
"""

from __future__ import annotations

import math
import pathlib
import random
import shutil
import tempfile
from dataclasses import dataclass, field

from bddinfo import cli, measures, oracle, reorder
from bddinfo.manager import BddManager
from bddinfo.measures import VarProbabilities

import circuits

MEASURES_CORPUS = ("add9", "add8i", "cmp9", "mul5", "mul6", "hwb12",
                   "rpla14", "s27")
REORDER_CORPUS = MEASURES_CORPUS + ("c17", "add4", "mul4")
METHODS = ("info", "sift", "window")
WORKLOADS = {                 # name -> (corpus, job kinds run on every circuit)
    "measures": (MEASURES_CORPUS, ("measures",)),
    "reorder_info": (REORDER_CORPUS, ("info",)),
    "reorder_sift": (REORDER_CORPUS, ("sift", "window")),
}

TOL = 1e-9
ORACLE_MAX_VARS = 12          # exact_measures comparison up to this many inputs
OPTIMUM_MAX_VARS = 8          # exact shared-size optimum up to this many inputs
SAMPLES = 64                  # seeded assignments per circuit for evaluation checks
_WEIGHTS_16THS = (3, 5, 7, 9, 11, 13)


@dataclass
class Circuit:
    """A loaded corpus circuit plus the seeded inputs its jobs and checks use."""

    name: str
    loaded: cli.LoadedCircuit
    samples: list[list[int]]
    subsets: tuple[tuple[int, ...], ...]
    weights: VarProbabilities
    expected: dict = field(default_factory=dict)   # (weight index, output) -> report

    @property
    def base(self) -> BddManager:
        return self.loaded.manager

    @property
    def roots(self) -> list[int]:
        return [root for _, root in self.loaded.outputs]

    def weightings(self) -> tuple[VarProbabilities | None, VarProbabilities]:
        """Uniform (None, the library default) and the seeded non-uniform one."""
        return (None, self.weights)


def load_corpus(names, seed: int, repo_root: pathlib.Path,
                work_dir: pathlib.Path, timer) -> list[cli.LoadedCircuit]:
    """Write each corpus file and load it through ``cli.load_circuit``.

    ``timer(key, fn, *args)`` runs and times each circuit's generate-and-load
    step under the circuit's name.  The files are removed once loaded.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    directory = pathlib.Path(tempfile.mkdtemp(prefix="corpus-", dir=work_dir))
    try:
        def one(name):
            path = circuits.write_circuit(name, directory, seed, repo_root)
            return cli.load_circuit(str(path))
        return [timer(name, one, name) for name in names]
    finally:
        shutil.rmtree(directory)


def prepare(names, loaded, seed: int) -> list[Circuit]:
    """Draw each circuit's seeded samples, subsets and weights."""
    prepared = []
    for name, circuit in zip(names, loaded):
        n = circuit.manager.n
        rng = random.Random(f"{seed}/{name}/inputs")
        if 1 << n <= SAMPLES:
            samples = [[(i >> (n - 1 - v)) & 1 for v in range(n)]
                       for i in range(1 << n)]
        else:
            samples = [[rng.getrandbits(1) for _ in range(n)]
                       for _ in range(SAMPLES)]
        subsets = (tuple(sorted(rng.sample(range(n), 2))),
                   tuple(sorted(rng.sample(range(n), 3))))
        weights = VarProbabilities(
            [(1 - k / 16, k / 16) for k in
             (rng.choice(_WEIGHTS_16THS) for _ in range(n))])
        prepared.append(Circuit(name, circuit, samples, subsets, weights))
    return prepared


def add_oracle_expectations(circuit: Circuit) -> None:
    """Exact reports from truth-table counting, for circuits small enough."""
    if circuit.base.n > ORACLE_MAX_VARS:
        return
    for index, w in enumerate(circuit.weightings()):
        for name, root in circuit.loaded.outputs:
            table = oracle.enumerate_bdd(circuit.base, root)
            circuit.expected[index, name] = oracle.exact_measures(
                table, w, subsets=circuit.subsets)


# -- jobs ---------------------------------------------------------------------

def measures_job(circuit: Circuit):
    """Every output's report and joint profile under both weightings."""
    manager = circuit.base.clone()
    results = []
    for index, w in enumerate(circuit.weightings()):
        for name, root in circuit.loaded.outputs:
            report = measures.measure_report(manager, root, w,
                                             subsets=circuit.subsets)
            profile = measures.all_joint_probabilities(manager, root, w)
            results.append((index, name, report, profile))
    return manager, results


def reorder_job(circuit: Circuit, method: str):
    manager = circuit.base.clone()
    if method == "info":
        trace = reorder.info_reorder(manager)
    elif method == "sift":
        trace = reorder.sift(manager)
    else:
        trace = reorder.window_permute(manager, window=3)
    return manager, trace


# -- checks -------------------------------------------------------------------

def _binary_entropy(p: float | None) -> float:
    if p is None or p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def check_measures(circuit: Circuit, results) -> list[str]:
    """Compare with the oracle up to ORACLE_MAX_VARS inputs; above that,
    check H(f|x) against the value rebuilt from the joint profile."""
    problems = []
    n = circuit.base.n

    def close(label, got, want):
        if not abs(got - want) <= TOL:
            problems.append(f"{circuit.name} {label}: got {got!r}, want {want!r}")

    for index, name, report, profile in results:
        w = circuit.weightings()[index] or VarProbabilities.uniform(n)
        tag = f"w{index} {name}"
        close(f"{tag} sat", report.sat, profile.sat)
        for var in range(n):
            p0, p1 = w.pair(var)
            c0, c1 = profile.conditional[var]
            rebuilt = p0 * _binary_entropy(c0) + p1 * _binary_entropy(c1)
            close(f"{tag} H(f|x{var}) from joint profile",
                  report.cond_entropy[var], rebuilt)
        want = circuit.expected.get((index, name))
        if want is None:
            continue
        close(f"{tag} sat", report.sat, want.sat)
        close(f"{tag} H(f)", report.entropy, want.entropy)
        for var in range(n):
            close(f"{tag} H(f|x{var})", report.cond_entropy[var],
                  want.cond_entropy[var])
            close(f"{tag} I(f;x{var})", report.mutual_info[var],
                  want.mutual_info[var])
        for subset in circuit.subsets:
            close(f"{tag} H(f|{subset})", report.set_entropy[subset],
                  want.set_entropy[subset])
    return problems


def check_reorder(circuit: Circuit, method: str, manager: BddManager, trace,
                  roots: list[int] | None = None) -> list[str]:
    """Permutation, size bookkeeping, function agreement on the seeded
    samples, and no growth for the two baselines."""
    roots = circuit.roots if roots is None else roots
    label = f"{circuit.name} {method}"
    problems = []
    n = circuit.base.n
    if sorted(trace.final_order) != list(range(n)) or \
            list(manager.order) != list(trace.final_order):
        problems.append(f"{label}: final order {trace.final_order} is not "
                        f"the manager's permutation")
    if trace.final_size != manager.shared_size():
        problems.append(f"{label}: final_size {trace.final_size} != "
                        f"shared_size {manager.shared_size()}")
    mismatch = next(((old, sample) for sample in circuit.samples
                     for old, new in zip(circuit.roots, roots)
                     if manager.evaluate(new, sample)
                     != circuit.base.evaluate(old, sample)), None)
    if mismatch is not None:
        problems.append(f"{label}: root {mismatch[0]} differs at {mismatch[1]}")
    if method != "info" and trace.final_size > trace.initial_size:
        problems.append(f"{label}: grew from {trace.initial_size} "
                        f"to {trace.final_size}")
    return problems


# -- quality of result --------------------------------------------------------

def optimum_shared_size(manager: BddManager, roots: list[int]) -> int:
    """Fewest shared nodes over all variable orders (n <= OPTIMUM_MAX_VARS).

    The multi-output form of the prefix-set recurrence behind
    ``oracle.best_order_exhaustive``: with the set S of variables placed
    above, the nodes labelled by x are the distinct subfunctions, over
    every output, left after fixing S that still depend on x.
    """
    n = manager.n
    if n > OPTIMUM_MAX_VARS:
        raise ValueError(f"refusing order search over {n} variables")
    full = (1 << n) - 1
    tables = {0: frozenset(oracle.enumerate_bdd(manager, r).bits for r in roots)}
    best = {0: 0}

    def split(mask: int, var: int):
        # Halves of every table once var is fixed below the prefix mask.
        width = n - mask.bit_count()
        rank = (((1 << var) - 1) & ~mask).bit_count()
        return [oracle._split_table(t, width, rank) for t in tables[mask]]

    for mask in range(1, full + 1):
        low = (mask & -mask).bit_length() - 1
        tables[mask] = frozenset(h for pair in split(mask ^ (1 << low), low)
                                 for h in pair)
        best[mask] = min(
            best[mask ^ (1 << var)]
            + sum(lo != hi for lo, hi in split(mask ^ (1 << var), var))
            for var in range(n) if mask >> var & 1)
    return best[full]
