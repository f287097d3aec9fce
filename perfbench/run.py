#!/usr/bin/env python3
"""bddinfo benchmark: seeded circuit corpus, three closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload measures --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one child each

One process runs one workload with a single caller: the next job starts
when the previous one returns.  A job is one public-API call sequence on a
``clone()`` of a loaded circuit; a pass runs every job of the workload once
over its corpus.  The run

1. sets up the corpus (generate each file, load it through
   ``cli.load_circuit``) ``SETUPS`` times, and once more after every pass;
2. repeats passes for ``--seconds``, checking every job's output right
   after it, untimed;
3. reads ``ru_maxrss`` after the first pass as ``peak_rss_mb``;
4. with ``--trace 1``, splits ``--seconds`` between untraced passes and
   passes under ``tracer.SpanRecorder`` and reports per-layer metrics;
5. completes the quality table (final size per circuit and method) with
   untimed, checked jobs for any pair the workload did not run itself.

``setup_s`` and ``wall_s`` are medians over the run's set-ups and passes
of host-normalised times.  Before every timed item ``reference_seconds``
times a fixed piece of pure-Python work; each unit's raw time is scaled
by ``REF_NOMINAL_S`` over the mean reference time within it.  Other
tenants of a shared host slow the work by up to 2x for minutes at a
time, and the reference slows with it, so the scale cancels most of the
slowdown.  The summary line prints the raw median and slowest pass and
the median scale.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit status is non-zero, with no result, when the program or
its test data cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

SETUPS = 3                  # before the timed phase; one more follows each pass
TRACED_SETUPS = 3
CHILD_TIMEOUT_S = 170
REF_NOMINAL_S = 0.0055      # reference_seconds() on a quiet host of the kind measured
_REF_BITS = 8
_REF_LOOP = 20000
_AND = ((0, 0), (0, 1))
_XNOR = ((1, 0), (0, 1))


def reference_seconds() -> float:
    """Time a fixed piece of pure-Python work, with the collector off.

    It builds the blocked-order equality comparator on ``_REF_BITS`` bit
    pairs with a unique table and a memoised recursive apply, the same
    kind of dict-and-tuple work as the library's hot loops, then runs a
    short integer loop.  It shares no code with the program, so a change
    to the program cannot change it.
    """
    unique: dict = {}
    node: dict = {}
    memo: dict = {}
    bottom = 2 * _REF_BITS

    def mk(var, lo, hi):
        if lo == hi:
            return lo
        key = (var, lo, hi)
        ref = unique.get(key)
        if ref is None:
            ref = len(node) + 2
            unique[key] = ref
            node[ref] = key
        return ref

    def apply(op, a, b):
        if a < 2 and b < 2:
            return op[a][b]
        key = (op is _XNOR, a, b)
        found = memo.get(key)
        if found is not None:
            return found
        va = node[a][0] if a > 1 else bottom
        vb = node[b][0] if b > 1 else bottom
        var = min(va, vb)
        a0, a1 = node[a][1:] if va == var else (a, a)
        b0, b1 = node[b][1:] if vb == var else (b, b)
        found = mk(var, apply(op, a0, b0), apply(op, a1, b1))
        memo[key] = found
        return found

    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        eq = 1
        for i in range(_REF_BITS):
            eq = apply(_AND, eq, apply(_XNOR, mk(i, 0, 1), mk(i + _REF_BITS, 0, 1)))
        x = 0
        for i in range(_REF_LOOP):
            x += i ^ (x >> 3)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Times the named work items of one unit (a set-up or a pass) and
    the reference work run just before each of them."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.refs: list[float] = []

    def __call__(self, key: str, fn, *args):
        self.refs.append(reference_seconds())
        t0 = time.perf_counter()
        try:
            return self.run(fn, *args)
        finally:
            self.times[key] = time.perf_counter() - t0

    def run(self, fn, *args):
        return fn(*args)

    def note_job(self, manager) -> None:
        """Called with each finished job's manager."""

    @property
    def total(self) -> float:
        """Raw seconds of the unit's items."""
        return sum(self.times.values())

    @property
    def scale(self) -> float:
        """REF_NOMINAL_S over the mean reference time within the unit."""
        return REF_NOMINAL_S * len(self.refs) / sum(self.refs)

    @property
    def seconds(self) -> float:
        """The unit's time at the host speed REF_NOMINAL_S stands for."""
        return self.total * self.scale


class TracedMeter(Meter):
    """A Meter that lets the recorder record only inside the timed item."""

    def __init__(self, recorder):
        super().__init__()
        self.recorder = recorder
        self.first = len(recorder)
        self.last = self.first
        self.live_peak = 0
        self.live_end = 0

    def run(self, fn, *args):
        self.recorder.live_peak = 0
        self.recorder.on = True
        try:
            return fn(*args)
        finally:
            self.recorder.on = False
            self.last = len(self.recorder)
            self.live_peak = max(self.live_peak, self.recorder.live_peak)

    def note_job(self, manager) -> None:
        self.live_end = max(self.live_end, len(manager))


class Tally:
    """Jobs attempted and failed, and the final size of each reorder job."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.sizes: dict[tuple[str, str], int] = {}

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def run_job(jobs, circuit, method, timer, tally):
    """Run one job under ``timer`` (a Meter), check it untimed, and record
    the outcome."""
    manager = None
    try:
        if method == "measures":
            manager, results = timer(circuit.name, jobs.measures_job, circuit)
            problems = jobs.check_measures(circuit, results)
        else:
            manager, trace = timer(f"{circuit.name}.{method}", jobs.reorder_job,
                                   circuit, method)
            problems = jobs.check_reorder(circuit, method, manager, trace)
            first = tally.sizes.setdefault((circuit.name, method), trace.final_size)
            if first != trace.final_size:
                problems.append(f"{circuit.name} {method}: size {trace.final_size}"
                                f" differs from an earlier pass ({first})")
    except Exception as exc:   # a job that raises counts as failed
        problems = [f"{circuit.name} {method}: {type(exc).__name__}: {exc}"]
    tally.record(problems)
    if manager is not None:
        timer.note_job(manager)
    # Start the next job from the loaded corpus alone, as a fresh command
    # would; leftover cyclic garbage would make peak RSS depend on when
    # the collector last ran.
    del manager
    gc.collect()


def passes(jobs, circuits, methods, seconds, tally, make_meter):
    """Yield the meter of each whole pass until ``seconds`` have gone by
    (at least one pass)."""
    deadline = time.perf_counter() + seconds
    while True:
        meter = make_meter()
        for circuit in circuits:
            for method in methods:
                run_job(jobs, circuit, method, meter, tally)
        yield meter
        if time.perf_counter() >= deadline:
            return


def layer_metrics(recorder, traced, setups, untraced):
    """Medians over the traced passes and set-ups of the per-layer figures."""
    def pass_metrics(meter):
        calls, total, self_s, result, under, under_calls = \
            recorder.summarize(meter.first, meter.last)
        k = meter.scale
        m = {}
        for short in ("swap", "count_nodes", "cofactor", "collect_garbage"):
            m[f"manager.{short}.calls"] = calls[f"manager.{short}"]
            m[f"manager.{short}.self_s"] = self_s[f"manager.{short}"] * k
        m["manager.collect_garbage.retired"] = result["manager.collect_garbage"]
        m["manager.live_nodes.peak"] = meter.live_peak
        m["manager.live_nodes.end"] = meter.live_end
        for fn in ("measure_report", "conditional_entropy_var",
                   "conditional_entropy_set", "all_joint_probabilities"):
            m[f"measures.{fn}.calls"] = calls[f"measures.{fn}"]
            m[f"measures.{fn}.self_s"] = self_s[f"measures.{fn}"] * k
        for fn in ("info_reorder", "sift", "window_permute"):
            m[f"reorder.{fn}.self_s"] = self_s[f"reorder.{fn}"] * k
        m["reorder.verify_tables_s"] = under["oracle.enumerate_bdd"] * k
        m["reorder.verify_clone_s"] = (under["manager.clone"]
                                       + under["manager.copy_function"]
                                       + under["manager.apply"]) * k
        swaps = calls["manager.swap"]
        m["reorder.count_nodes_per_swap"] = (
            under_calls["manager.count_nodes"] / swaps if swaps else 0.0)
        return m

    def setup_metrics(meter):
        calls, total, self_s, _, _, _ = recorder.summarize(meter.first, meter.last)
        k = meter.scale
        return {"manager.apply.calls": calls["manager.apply"],
                "manager.apply.self_s": self_s["manager.apply"] * k,
                "netlist.parse_s": total["netlist.parse"] * k,
                "netlist.build_s": total["netlist.build"] * k}

    metrics = {}
    for units, derive in ((traced, pass_metrics), (setups, setup_metrics)):
        rows = [derive(meter) for meter in units]
        # median_low keeps call counts whole: they repeat in every pass.
        metrics.update({key: statistics.median_low(row[key] for row in rows)
                        for key in rows[0]})
    metrics["trace.overhead_share"] = (statistics.median(m.seconds for m in traced)
                                       / statistics.median(m.seconds for m in untraced) - 1)
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import jobs
    import tracer

    names, methods = jobs.WORKLOADS[workload]
    tally = Tally()
    setups = []

    def set_up():
        meter = Meter()
        loaded = jobs.load_corpus(names, seed, ROOT, WORK, meter)
        setups.append(meter)
        return loaded

    for _ in range(SETUPS - 1):
        set_up()
    circuits = jobs.prepare(names, set_up(), seed)
    if "measures" in methods:
        for circuit in circuits:
            jobs.add_oracle_expectations(circuit)

    share = seconds / 2 if trace else seconds
    untraced = []
    for meter in passes(jobs, circuits, methods, share, tally, Meter):
        if not untraced:
            # Read after a fixed amount of work, so that the figure does
            # not depend on how many passes fit in the run.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        untraced.append(meter)
        set_up()    # spread the set-up repeats over the run, like the passes

    if trace:
        recorder = tracer.SpanRecorder()
        recorder.install()
        try:
            traced_setups = []
            for _ in range(TRACED_SETUPS):
                meter = TracedMeter(recorder)
                jobs.load_corpus(names, seed, ROOT, WORK, meter)
                traced_setups.append(meter)
            traced = list(passes(jobs, circuits, methods, share, tally,
                                 lambda: TracedMeter(recorder)))
        finally:
            recorder.uninstall()

    # Quality of result: every corpus circuit under every method.
    by_name = {c.name: c for c in circuits}
    extra = [n for n in jobs.REORDER_CORPUS if n not in by_name]
    if extra:
        loaded = jobs.load_corpus(extra, seed, ROOT, WORK, Meter())
        by_name.update((c.name, c) for c in jobs.prepare(extra, loaded, seed))
    for name in jobs.REORDER_CORPUS:
        for method in jobs.METHODS:
            if (name, method) not in tally.sizes:
                run_job(jobs, by_name[name], method, Meter(), tally)

    size = {method: sum(tally.sizes.get((name, method), 0)
                        for name in jobs.REORDER_CORPUS)
            for method in jobs.METHODS}
    if not trace:
        metrics = {
            "setup_s": (statistics.median(m.seconds for m in setups), "s"),
            "wall_s": (statistics.median(m.seconds for m in untraced), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_share": ((tally.attempted - tally.failed) / tally.attempted, "share"),
            "size_info": (size["info"], "count"),
            "size_sift": (size["sift"], "count"),
            "size_window": (size["window"], "count"),
        }
        timed = untraced
    else:
        recorder.write(WORK / f"spans-{workload}.tsv")
        layer = layer_metrics(recorder, traced, traced_setups, untraced)
        metrics = {}
        for key, value in layer.items():
            unit = "s" if key.endswith("_s") else (
                "share" if key.endswith("_share") else
                "ratio" if key.endswith("_per_swap") else "count")
            metrics[key] = (value, unit)
        for name in jobs.REORDER_CORPUS:
            circuit = by_name[name]
            optimum = None
            if circuit.base.n <= jobs.OPTIMUM_MAX_VARS:
                optimum = jobs.optimum_shared_size(circuit.base, circuit.roots)
                tally.record([f"{name} {method}: size {tally.sizes[name, method]} "
                              f"is below the exact optimum {optimum}"
                              for method in jobs.METHODS
                              if tally.sizes[name, method] < optimum])
            for method in jobs.METHODS:
                final = tally.sizes[name, method]
                metrics[f"quality.{name}.{method}.size"] = (final, "count")
                if optimum is not None:
                    metrics[f"quality.{name}.{method}.gap"] = (final - optimum, "count")
        timed = traced

    for problem in tally.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    totals = [m.total for m in timed]
    print(f"workload {workload}  seed {seed}  jobs {tally.attempted}  "
          f"failed {tally.failed}  passes {len(totals)}: raw median "
          f"{statistics.median(totals):.3f} s, raw max {max(totals):.3f} s, "
          f"host scale {statistics.median(m.scale for m in timed):.3f}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()}}


def _import_jobs():
    """Put the checkout's ``src`` on the path and import the job module."""
    package = ROOT / "src" / "bddinfo" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from a bddinfo checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import jobs
    return jobs


def run_all(args, workloads) -> dict:
    """Each workload in a child process of its own, so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        child = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            sys.exit(f"error: workload {workload} exited with {child.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{workload}.{key}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    jobs = _import_jobs()
    if args.workload == "all":
        result = run_all(args, jobs.WORKLOADS)
    elif args.workload not in jobs.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(jobs.WORKLOADS)} or all")
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
